//! Golden regression for the bound-vs-exact audit: the full
//! `audits_to_json(&audit_bounds())` report must stay byte-identical to
//! the checked-in `data/audit_bounds.json` (73 audits).
//!
//! Every field of the report is exact — integer worst-case errors and
//! nine-decimal rates and means from integer model counts — so any
//! change to the BDD engine, the twins or the audit's bookkeeping that
//! alters a single exact or bound value shows up here. A deliberate
//! change to a bound or a configuration rewrites the file with the new
//! `audits_to_json(&audit_bounds())` output, in the same commit.

use xlac_analysis::symbolic::audit::{audit_bounds, audits_to_json};

const GOLDEN: &str = include_str!("data/audit_bounds.json");

#[test]
fn audit_report_is_byte_identical_to_the_golden_file() {
    let audits = audit_bounds();
    assert_eq!(audits.len(), 73, "audit roster changed size");
    let report = audits_to_json(&audits);
    if report != GOLDEN {
        let first = report
            .lines()
            .zip(GOLDEN.lines())
            .position(|(got, want)| got != want)
            .map_or_else(|| "line count".to_string(), |i| format!("line {}", i + 1));
        panic!("audit report differs from data/audit_bounds.json at {first}");
    }
}
