//! Golden regression for the proof registry: the full
//! `proofs_to_json(&prove_all(hdl))` report must stay byte-identical to
//! the checked-in `data/prove_all.json` (37 obligations).
//!
//! Besides each verdict, the report carries every obligation's BDD node
//! count and ITE memo hit rate, which depend on the order the operations
//! ran in each obligation's own manager. A change to the BDD engine, a
//! twin, a compiler or the way obligations are scheduled that moves one
//! of them shows up here. A deliberate change to an obligation rewrites
//! the file with the new `proofs_to_json(&prove_all(hdl))` output, in the
//! same commit.

use std::path::Path;
use xlac_analysis::symbolic::registry::{ensure_registry_hdl, proofs_to_json, prove_all};

const GOLDEN: &str = include_str!("data/prove_all.json");

#[test]
fn proof_report_is_byte_identical_to_the_golden_file() {
    let hdl = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../hdl");
    ensure_registry_hdl(&hdl).expect("hdl/ self-heals from the registry");
    let reports = prove_all(&hdl).expect("hdl/ loads");
    assert_eq!(reports.len(), 37, "proof registry changed size");
    let report = proofs_to_json(&reports);
    if report != GOLDEN {
        let first = report
            .lines()
            .zip(GOLDEN.lines())
            .position(|(got, want)| got != want)
            .map_or_else(|| "line count".to_string(), |i| format!("line {}", i + 1));
        panic!("proof report differs from data/prove_all.json at {first}");
    }
}
