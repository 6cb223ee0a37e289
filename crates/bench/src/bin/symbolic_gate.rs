//! CI gate for the symbolic engine (`BENCH_symbolic.json`).
//!
//! Reads the report lines emitted by `benches/symbolic.rs` and enforces
//! the floors DESIGN.md §14 claims:
//!
//! * **Sifting**: on the Wallace 8×8 miter built in a pessimal
//!   middle-out variable order, Rudell sifting recovers at least a 2×
//!   node reduction and lands under 200k live nodes (the run is
//!   deterministic, so both floors are stable across machines);
//! * **Calculus cost**: the 16×16 Wallace error calculus — the width
//!   where the monolithic miter is impossible and the compositional
//!   calculus is the only exact route — certifies its metrics inside a
//!   wall-clock ceiling, so certified pruning stays usable from
//!   `xlac-explore`.
//!
//! Usage: `xlac-bench --bin symbolic_gate BENCH_symbolic.json`. Any
//! violated floor (or missing series) exits non-zero, failing
//! `scripts/ci.sh`.

use std::process::ExitCode;

/// Wall-clock ceiling for the 16×16 Wallace calculus, generous enough
/// for a loaded CI box (the measured median is ~0.15 s).
const CALCULUS_16X16_CEILING_NS: f64 = 10_000_000_000.0;

/// Extracts a numeric field `"key":<value>` from one hand-rolled bench
/// JSON line.
fn field_of(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Extracts `"name":"<...>"` from one bench JSON line.
fn name_of(line: &str) -> Option<&str> {
    let key = "\"name\":\"";
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

fn run(path: &str) -> Result<(), String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let line_with = |series: &str| -> Result<&str, String> {
        source
            .lines()
            .find(|l| l.starts_with('{') && name_of(l) == Some(series))
            .ok_or_else(|| format!("series {series} missing from the report"))
    };

    let mut failures = Vec::new();
    let mut check = |label: &str, value: f64, ok: bool| {
        println!("symbolic-gate: {label:<58} {value:>14.2} {}", if ok { "ok" } else { "FAIL" });
        if !ok {
            failures.push(label.to_string());
        }
    };

    let sift = line_with("symbolic_sift/wallace8x8_miter")?;
    let unsifted = field_of(sift, "unsifted_nodes")
        .ok_or("sift line lacks unsifted_nodes")?;
    let sifted = field_of(sift, "sifted_nodes").ok_or("sift line lacks sifted_nodes")?;
    check("wallace 8x8 miter: sifted nodes < 200k", sifted, sifted < 200_000.0);
    let reduction = unsifted / sifted.max(1.0);
    check("wallace 8x8 miter: sift reduction >= 2x", reduction, reduction >= 2.0);

    let calc = line_with("symbolic_calculus/wallace16x16_apx2_cols8")?;
    let median = field_of(calc, "median_ns").ok_or("calculus line lacks median_ns")?;
    check(
        "wallace 16x16 calculus: median_ns under ceiling",
        median,
        median <= CALCULUS_16X16_CEILING_NS,
    );

    if failures.is_empty() {
        println!("symbolic-gate: all floors hold");
        Ok(())
    } else {
        Err(format!("{} floor(s) violated: {}", failures.len(), failures.join("; ")))
    }
}

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_symbolic.json".to_string());
    match run(&path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("symbolic-gate: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_sift_line_format() {
        let line = r#"{"name":"symbolic_sift/wallace8x8_miter","unsifted_nodes":31895,"sifted_nodes":15154,"reduction":2.10,"rounds":3,"swaps":900}"#;
        assert_eq!(name_of(line), Some("symbolic_sift/wallace8x8_miter"));
        assert_eq!(field_of(line, "unsifted_nodes"), Some(31_895.0));
        assert_eq!(field_of(line, "sifted_nodes"), Some(15_154.0));
    }

    #[test]
    fn parses_the_timing_line_format() {
        let line = r#"{"name":"symbolic_calculus/wallace16x16_apx2_cols8","samples":3,"iters_per_sample":1,"median_ns":140464724.0,"mean_ns":1.0,"min_ns":1.0,"max_ns":1.0}"#;
        assert_eq!(field_of(line, "median_ns"), Some(140_464_724.0));
    }

    #[test]
    fn parses_lines_with_run_context() {
        let sift = r#"{"name":"symbolic_sift/wallace8x8_miter","unsifted_nodes":31895,"sifted_nodes":15154,"reduction":2.10,"rounds":3,"swaps":900,"nproc":2,"threads":2,"profile":"release"}"#;
        assert_eq!(name_of(sift), Some("symbolic_sift/wallace8x8_miter"));
        assert_eq!(field_of(sift, "swaps"), Some(900.0));
        let timing = r#"{"name":"symbolic_calculus/wallace16x16_apx2_cols8","samples":3,"iters_per_sample":1,"median_ns":140464724.0,"mean_ns":1.0,"min_ns":1.0,"max_ns":1.0,"nproc":2,"threads":1,"profile":"release"}"#;
        assert_eq!(field_of(timing, "median_ns"), Some(140_464_724.0));
        assert_eq!(field_of(timing, "threads"), Some(1.0));
    }
}
