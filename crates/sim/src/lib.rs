//! # xlac-sim — the bit-sliced 64-way simulation engine
//!
//! Every 1-bit cell in the workspace (the Table III full adders, the
//! Fig.5 2×2 multiplier blocks) is a small boolean function, so 64
//! independent evaluations fit in one set of `u64` word operations: lane
//! `j` of every word holds test vector `j`, and plane `i` holds bit `i`
//! of all 64 vectors (`xlac_core::lanes` layout). The `*_x64` evaluators
//! on [`xlac_adders`], [`xlac_multipliers`] and [`xlac_accel`] compose
//! those word-level cells into full ripple chains, GeAr correction loops,
//! recursive/Wallace/truncated multipliers and accelerator datapaths —
//! bit-exact with the scalar golden models on every lane, ~an order of
//! magnitude faster per trial.
//!
//! This crate supplies the machinery that turns those evaluators into
//! Monte-Carlo *sweeps*:
//!
//! * [`jit`] — a netlist → bit-plane compiler: any [`xlac_logic::Netlist`]
//!   lowers to register-allocated straight-line bytecode interpreted
//!   match-free over SIMD plane blocks of 64, 256 or 512 lanes
//!   (`u64` / `[u64; 4]` / `[u64; 8]`), so parsed and generated netlists
//!   reach hand-written `eval_x64` speed mechanically.
//! * [`batch`] — request-sized batched entry points for the serving
//!   layer: arbitrary-length operand batches ride the compiled programs
//!   with a deterministic pad-and-mask discipline, so batches smaller
//!   than one plane block are exact.
//! * [`runner`] — the ordered fan-out primitive (`fan_out`: an atomic
//!   index queue, lazily built per-worker state, results in item order)
//!   that sweeps and certification share, and the chunked sweep runner
//!   on top of it, whose results are **bitwise-identical for any worker
//!   count**: chunk RNG streams are split off the parent sequentially
//!   before any thread runs, and chunk results merge in chunk-index
//!   order; `auto_chunk_size` picks a chunk size with load-balancing
//!   slack from the trial count alone.
//! * [`sweeps`] — error-sweep drivers for multipliers, GeAr adders
//!   (with and without the error-correction loop) and the SAD
//!   accelerator, each with a scalar twin evaluating identical operands
//!   through the golden models, plus compiled-program sweep drivers
//!   (`compiled_pair_sweep`, `compiled_sad_sweep`) generic over the
//!   plane-block width.
//!
//! # Example
//!
//! ```
//! use xlac_multipliers::{Mul2x2Kind, RecursiveMultiplier, SumMode};
//! use xlac_sim::{multiplier_sweep, multiplier_sweep_scalar, SweepOptions};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let m = RecursiveMultiplier::new(8, Mul2x2Kind::ApxSoA, SumMode::Accurate)?;
//! let opts = SweepOptions::new(10_000, 42);
//! let sliced = multiplier_sweep(&m, &opts);
//! // The scalar twin sees the same operands: equal by construction.
//! assert_eq!(sliced, multiplier_sweep_scalar(&m, &opts));
//! assert_eq!(sliced.samples, 10_000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod jit;
pub mod runner;
pub mod sweeps;

pub use batch::{eval_pairs, eval_pairs_auto};
pub use jit::{CompiledMultiplier, CompiledProgram, JitStats, Op, OpKind, OutSrc};
pub use runner::{
    auto_chunk_size, default_threads, fan_out, fan_out_costliest_first, run_chunks, DEFAULT_CHUNK,
    MIN_AUTO_CHUNK,
};
pub use sweeps::{
    compiled_pair_sweep, compiled_sad_sweep, gear_sweep, gear_sweep_scalar, interpreted_pair_sweep,
    multiplier_sweep, multiplier_sweep_scalar, sad_sweep, sad_sweep_scalar, GearSweepResult,
    SadSweepResult, SweepOptions,
};
