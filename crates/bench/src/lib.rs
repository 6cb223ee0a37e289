//! # xlac-bench — the reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (run with
//! `cargo run -p xlac-bench --release --bin <name>`):
//!
//! | binary        | reproduces                                            |
//! |---------------|-------------------------------------------------------|
//! | `table3`      | Table III — 1-bit FA characterization                 |
//! | `table4_fig4` | Table IV + Fig.4 — 11-bit GeAr design space           |
//! | `fig5`        | Fig.5 — 2×2 multiplier characterization               |
//! | `fig6`        | Fig.6 — multi-bit multiplier area/power/quality       |
//! | `fig8`        | Fig.8 — SAD error surfaces & motion-vector survival   |
//! | `fig9`        | Fig.9 — bit-rate increase vs approximated LSBs        |
//! | `fig10`       | Fig.10 — SSIM across 7 images on approximate HW       |
//! | `cec`         | §6.1 — consolidated error correction area/quality     |
//!
//! Each binary prints the table rows and, where the paper makes a
//! qualitative claim, checks the claim and reports `SHAPE OK` /
//! `SHAPE DIVERGES` — so the harness doubles as a regression gate.
//!
//! Micro-benchmarks of the arithmetic throughput live under `benches/`
//! (`cargo bench -p xlac-bench`), running on the in-house [`harness`]
//! (warmup-calibrated, median-of-N, JSON-lines output) so the workspace
//! needs no external benchmark crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;

pub use harness::{black_box, run_context, BenchResult, Harness};
pub use report::{check, header, row, section};
