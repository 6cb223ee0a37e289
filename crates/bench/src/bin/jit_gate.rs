//! CI throughput gate for the netlist JIT (`BENCH_jit.json`).
//!
//! Reads the bench-report lines emitted by `benches/jit.rs` and enforces
//! the floors DESIGN.md §13 claims:
//!
//! * raw evaluation: the compiled program beats the gate-at-a-time
//!   interpreter at every plane width (`compiled_u64 ≤ interpreted`),
//!   and the 512-lane Wallace 8×8 evaluation is ≥ 5× the interpreter;
//! * end-to-end sweeps: with RNG and statistics overhead included, the
//!   wide-block compiled sweep still never loses to the interpreted one
//!   for either the rca8 or the Wallace 8×8 workload.
//!
//! Usage: `xlac-bench --bin jit_gate BENCH_jit.json`. Any violated floor
//! (or missing series) exits non-zero, failing `scripts/ci.sh`.

use std::process::ExitCode;

/// Extracts `"median_ns":<f64>` from one hand-rolled bench JSON line.
fn median_of(line: &str) -> Option<f64> {
    let key = "\"median_ns\":";
    let start = line.find(key)? + key.len();
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

struct Report {
    entries: Vec<(String, f64)>,
}

impl Report {
    fn median(&self, series: &str) -> Result<f64, String> {
        self.entries
            .iter()
            .find(|(name, _)| name == series)
            .map(|&(_, m)| m)
            .ok_or_else(|| format!("series {series} missing from the report"))
    }
}

fn run(path: &str) -> Result<(), String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries: Vec<(String, f64)> = source
        .lines()
        .filter(|l| l.starts_with('{'))
        .filter_map(|l| Some((name_of(l)?.to_string(), median_of(l)?)))
        .collect();
    if entries.is_empty() {
        return Err(format!("{path} contains no bench lines"));
    }
    let report = Report { entries };

    let mut failures = Vec::new();
    let mut check = |label: String, ratio: f64, floor: f64| {
        let verdict = if ratio >= floor { "ok" } else { "FAIL" };
        println!("jit-gate: {label:<58} {ratio:>6.2}x (floor {floor:.2}x) {verdict}");
        if ratio < floor {
            failures.push(label);
        }
    };

    for group in ["jit_rca8", "jit_wallace8x8"] {
        // Raw engine: compiled beats interpreted at the narrowest width.
        let interp = report.median(&format!("{group}_eval_65536/interpreted"))?;
        let u64_ns = report.median(&format!("{group}_eval_65536/compiled_u64"))?;
        check(format!("{group} eval: interpreted / compiled_u64"), interp / u64_ns, 1.0);

        // End-to-end sweep: the wide-block compiled path never loses even
        // with the (shared) RNG and statistics overhead on top.
        let sweep_interp = report.median(&format!("{group}_sweep_65536/interpreted"))?;
        let sweep_x8 = report.median(&format!("{group}_sweep_65536/compiled_x8"))?;
        check(format!("{group} sweep: interpreted / compiled_x8"), sweep_interp / sweep_x8, 1.0);
    }

    // The headline claim: Wallace 8×8 evaluation at 512-lane blocks is at
    // least five times the interpreter.
    let interp = report.median("jit_wallace8x8_eval_65536/interpreted")?;
    let x8 = report.median("jit_wallace8x8_eval_65536/compiled_x8")?;
    check("jit_wallace8x8 eval: interpreted / compiled_x8".to_string(), interp / x8, 5.0);

    if failures.is_empty() {
        println!("jit-gate: all floors hold");
        Ok(())
    } else {
        Err(format!("{} floor(s) violated: {}", failures.len(), failures.join("; ")))
    }
}

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_jit.json".to_string());
    match run(&path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("jit-gate: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_line_format() {
        let line = r#"{"name":"jit_rca8_eval_65536/interpreted","samples":7,"iters_per_sample":6,"median_ns":278170.0,"mean_ns":280000.0,"min_ns":270000.0,"max_ns":290000.0}"#;
        assert_eq!(name_of(line), Some("jit_rca8_eval_65536/interpreted"));
        assert_eq!(median_of(line), Some(278_170.0));
    }

    #[test]
    fn parses_a_line_with_run_context() {
        let line = r#"{"name":"jit_wallace8_eval_65536/compiled_x8","samples":7,"iters_per_sample":6,"median_ns":9120.0,"mean_ns":9200.0,"min_ns":9000.0,"max_ns":9500.0,"nproc":2,"threads":2,"profile":"release"}"#;
        assert_eq!(name_of(line), Some("jit_wallace8_eval_65536/compiled_x8"));
        assert_eq!(median_of(line), Some(9_120.0));
    }
}
