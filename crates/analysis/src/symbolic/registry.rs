//! The shipped-module proof obligations behind `xlac-lint --exact`.
//!
//! Every component the workspace ships exists in several representations
//! — a truth-table specification, a scalar behavioural model, a
//! structural/synthesized netlist, a `hdl/*.v` export, a bit-sliced
//! `eval_x64` form. PR 1's `xlac_logic::equiv` checked them against each
//! other by sampling; this module replaces those spot checks with
//! *proofs*:
//!
//! * representations with a netlist or table form compile to BDDs over
//!   the same variables, where canonical-root equality is equivalence
//!   over the full input space ([`super::equiv`]);
//! * bit-sliced and scalar forms with ≤ 20 input bits are compared
//!   exhaustively (an exhaustive check over the whole input space *is* a
//!   proof), anchored to the BDD twin so all three views meet;
//! * wider datapaths (the GeAr configurations, 22–32 input bits) get a
//!   BDD proof between the symbolic forms plus ≥ 10⁵ seeded vectors
//!   against the scalar and bit-sliced models.
//!
//! [`prove_all`] runs the whole registry; one [`ProofReport`] per module
//! records the representations compared, the method, the verdict and the
//! engine statistics (live node count, ITE memo hit rate). Every
//! obligation builds its own BDD manager, so the registry fans out one
//! obligation per work item ([`xlac_sim::fan_out_costliest_first`]) and
//! the reports come back in registry order.

use super::bdd::{Bdd, Ref};
use super::compile::{compile_netlist, compile_raw, compile_truth_table, interleaved_operand_vars};
use super::equiv::{prove_outputs_equal, Verdict};
use super::twins;
use crate::parse::{parse_verilog, RawNetlist};
use std::path::Path;
use xlac_adders::hw::{gear_netlist, ripple_netlist};
use xlac_adders::{
    approx_cell_descriptors, Adder, FullAdderKind, GeArAdder, RippleCarryAdder, Subtractor,
};
use xlac_core::rng::{Rng, Xoshiro256StarStar};
use xlac_logic::TruthTable;
use xlac_obs::{obs_count, obs_gauge, obs_span};
use xlac_sim::fan_out_costliest_first;
use xlac_multipliers::{
    ConfigurableMul2x2, Mul2x2Kind, Multiplier, MultiplierX64, RecursiveMultiplier, SumMode,
    TruncatedMultiplier, WallaceMultiplier,
};

/// Seed for the sampled leg of wide-datapath obligations (deterministic:
/// CI reproduces the exact same vectors).
const SAMPLE_SEED: u64 = 0x5EED_DAC6;

/// Number of seeded vectors for datapaths too wide to enumerate.
const SAMPLE_VECTORS: usize = 100_032; // 1563 full 64-lane blocks

/// Verdict of one proof obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStatus {
    /// All representations are the same function.
    Proven,
    /// At least one pair differs; the message carries the counterexample.
    Refuted(String),
}

/// The record of one shipped-module obligation.
#[derive(Debug, Clone)]
pub struct ProofReport {
    /// Component name (module name of the primary representation).
    pub name: String,
    /// Primary input bits of the compared function.
    pub n_inputs: usize,
    /// How the agreement was established.
    pub method: &'static str,
    /// The representations compared, reference first.
    pub representations: Vec<String>,
    /// Outcome.
    pub status: ProofStatus,
    /// Live BDD nodes after building every representation.
    pub bdd_nodes: usize,
    /// ITE memo hit rate of the proof's BDD manager.
    pub memo_hit_rate: f64,
}

impl ProofReport {
    /// `true` when the obligation held.
    #[must_use]
    pub fn is_proven(&self) -> bool {
        matches!(self.status, ProofStatus::Proven)
    }
}

/// Serializes proof reports as a JSON array (hand-rolled, like the lint
/// reports — the workspace is dependency-free).
#[must_use]
pub fn proofs_to_json(reports: &[ProofReport]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        let status = match &r.status {
            ProofStatus::Proven => "\"proven\"".to_string(),
            ProofStatus::Refuted(why) => {
                format!("\"refuted: {}\"", why.replace('\\', "\\\\").replace('"', "\\\""))
            }
        };
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"n_inputs\": {}, \"method\": \"{}\", \
             \"representations\": [{}], \"status\": {status}, \"bdd_nodes\": {}, \
             \"memo_hit_rate\": {:.4}}}{}\n",
            r.name,
            r.n_inputs,
            r.method,
            r.representations.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", "),
            r.bdd_nodes,
            r.memo_hit_rate,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

/// Runs every obligation in the registry against the given `hdl/`
/// directory, one obligation per work item on
/// [`xlac_sim::default_threads`] workers. The reports are in registry
/// order and equal for any worker count.
///
/// # Errors
///
/// Returns an error when an `hdl/` file is missing or unparseable — a
/// broken export must fail the gate as loudly as a refuted proof. When
/// several are, the first in registry order is returned.
pub fn prove_all(hdl_dir: &Path) -> Result<Vec<ProofReport>, String> {
    prove_all_on(hdl_dir, 0)
}

/// [`prove_all`] on `threads` workers (`0` → the default).
pub(crate) fn prove_all_on(hdl_dir: &Path, threads: usize) -> Result<Vec<ProofReport>, String> {
    let _span = obs_span!("analysis.prove_all");
    let obligations = Obligation::registry();
    let costs: Vec<u32> = obligations.iter().map(Obligation::cost).collect();
    let reports =
        fan_out_costliest_first(&costs, threads, || (), |(), i| obligations[i].prove(hdl_dir))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
    set_engine_gauges(&reports);
    Ok(reports)
}

/// One shipped-module proof obligation, in registry order.
enum Obligation {
    FullAdder(FullAdderKind),
    Descriptor(Box<xlac_adders::UnitDescriptor>),
    Mul2x2(Mul2x2Kind),
    ConfigurableMul(Mul2x2Kind),
    Ripple(FullAdderKind),
    /// A GeAr geometry `(n, r, p)`.
    Gear(usize, usize, usize),
    Composed(Composed),
}

/// The composed datapaths proven by exhaustive agreement.
#[derive(Clone, Copy)]
enum Composed {
    Recursive,
    Wallace,
    Truncated,
    Subtractor,
}

impl Obligation {
    /// The whole registry, in report order.
    fn registry() -> Vec<Obligation> {
        let mut out: Vec<Obligation> =
            FullAdderKind::ALL.into_iter().map(Obligation::FullAdder).collect();
        out.extend(
            approx_cell_descriptors().into_iter().map(|d| Obligation::Descriptor(Box::new(d))),
        );
        out.extend(Mul2x2Kind::ALL.into_iter().map(Obligation::Mul2x2));
        out.extend([Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur].map(Obligation::ConfigurableMul));
        out.extend(FullAdderKind::APPROXIMATE.into_iter().map(Obligation::Ripple));
        out.extend([(11, 1, 9), (12, 4, 4), (16, 2, 6)].map(|(n, r, p)| Obligation::Gear(n, r, p)));
        out.extend(
            [Composed::Recursive, Composed::Wallace, Composed::Truncated, Composed::Subtractor]
                .map(Obligation::Composed),
        );
        out
    }

    /// Rough relative run time, to start the long obligations first: the
    /// Wallace twin's exhaustive leg is the longest, then the other
    /// 16-input exhaustive and the GeAr sampled legs.
    fn cost(&self) -> u32 {
        match self {
            Obligation::Composed(Composed::Wallace) => 8,
            Obligation::Composed(_) | Obligation::Gear(..) => 3,
            Obligation::Ripple(_) => 1,
            Obligation::Descriptor(d) if d.table().n_inputs() > 8 => 1,
            _ => 0,
        }
    }

    fn prove(&self, hdl_dir: &Path) -> Result<ProofReport, String> {
        match self {
            Obligation::FullAdder(kind) => full_adder_report(hdl_dir, *kind),
            Obligation::Descriptor(d) => descriptor_report(hdl_dir, d),
            Obligation::Mul2x2(kind) => mul2x2_report(hdl_dir, *kind),
            Obligation::ConfigurableMul(core) => configurable_mul_report(hdl_dir, *core),
            Obligation::Ripple(kind) => ripple_report(hdl_dir, *kind),
            Obligation::Gear(n, r, p) => gear_report(hdl_dir, *n, *r, *p),
            Obligation::Composed(which) => Ok(composed_multiplier_report(*which)),
        }
    }
}

/// Sets the engine gauges from the last report — a function of the
/// ordered reports, so the value does not depend on which worker
/// finished last.
fn set_engine_gauges(reports: &[ProofReport]) {
    if let Some(last) = reports.last() {
        obs_gauge!("analysis.bdd_nodes", last.bdd_nodes as f64);
        obs_gauge!("analysis.memo_hit_rate", last.memo_hit_rate);
    }
}

/// Every netlist the registry proves `hdl/*.v` exports against, with its
/// export file name. This is the single source of truth for what `hdl/`
/// contains — the `export_library` example and the self-healing test
/// hook both write exactly this set.
fn registry_hdl_netlists() -> Vec<(String, xlac_logic::Netlist)> {
    let mut netlists = Vec::new();
    for kind in FullAdderKind::ALL {
        netlists.push((format!("{}.v", kind.to_string().to_lowercase()), kind.structural_netlist()));
    }
    for d in approx_cell_descriptors() {
        netlists.push((format!("{}.v", d.name().to_lowercase()), d.netlist().clone()));
    }
    for kind in FullAdderKind::APPROXIMATE {
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4)
            .expect("8-bit adder with 4 approximate LSBs is valid");
        netlists
            .push((format!("rca8_{}_lsb4.v", kind.to_string().to_lowercase()), ripple_netlist(&rca)));
    }
    for (n, r, p) in [(12usize, 4usize, 4usize), (11, 1, 9), (16, 2, 6)] {
        let gear = GeArAdder::new(n, r, p).expect("shipped GeAr configs are valid");
        netlists.push((format!("gear_n{n}_r{r}_p{p}.v"), gear_netlist(&gear)));
    }
    for kind in Mul2x2Kind::ALL {
        netlists.push((format!("{}.v", kind.to_string().to_lowercase()), kind.netlist()));
    }
    for core in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
        let cfg = ConfigurableMul2x2::new(core);
        netlists.push((format!("{}.v", cfg.name().to_lowercase()), cfg.netlist()));
    }
    netlists
}

/// Exports the whole registry as structural Verilog into `dir`, one file
/// per module, each written to a temporary name and renamed into place so
/// concurrently running test binaries can self-heal a missing `hdl/`
/// without reading each other's half-written files. Returns the manifest
/// of `(path, gate count)` pairs.
///
/// # Errors
///
/// Propagates filesystem failures as strings (the callers are CI gates
/// and examples that report-and-exit).
pub fn export_registry_hdl(dir: &Path) -> Result<Vec<(std::path::PathBuf, usize)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut manifest = Vec::new();
    for (file, nl) in registry_hdl_netlists() {
        let path = dir.join(&file);
        let tmp = dir.join(format!("{file}.tmp{}", std::process::id()));
        std::fs::write(&tmp, xlac_logic::verilog::to_verilog(&nl))
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))?;
        manifest.push((path, nl.gate_count()));
    }
    Ok(manifest)
}

/// Regenerates `dir` from the registry when any expected export is
/// missing — `hdl/` is generated (and gitignored), so a fresh checkout
/// heals itself instead of failing every `hdl`-dependent proof.
///
/// # Errors
///
/// Propagates [`export_registry_hdl`] failures.
pub fn ensure_registry_hdl(dir: &Path) -> Result<(), String> {
    let missing =
        registry_hdl_netlists().iter().any(|(file, _)| !dir.join(file).is_file());
    if missing {
        export_registry_hdl(dir)?;
    }
    Ok(())
}

fn load_hdl(hdl_dir: &Path, file: &str) -> Result<RawNetlist, String> {
    let path = hdl_dir.join(file);
    let source = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (module, errors) = parse_verilog(&source);
    if !errors.is_empty() {
        return Err(format!("{}: {} parse error(s): {:?}", path.display(), errors.len(), errors));
    }
    module.ok_or_else(|| format!("{}: no module found", path.display()))
}

/// Input planes for one 64-lane block of assignments `base .. base + 64`:
/// plane `i`, lane `j` carries bit `i` of assignment `base + j`.
fn input_planes(n_inputs: usize, base: u64) -> Vec<u64> {
    (0..n_inputs)
        .map(|i| (0..64).fold(0u64, |p, j| p | ((((base + j) >> i) & 1) << j)))
        .collect()
}

/// Proves every labelled representation equal to the reference (the
/// first entry), reporting the first disagreement.
fn prove_family(bdd: &mut Bdd, family: &[(String, Vec<Ref>)]) -> ProofStatus {
    let (ref_label, reference) = &family[0];
    for (label, roots) in &family[1..] {
        if let Verdict::Counterexample(cex) = prove_outputs_equal(bdd, reference, roots) {
            return ProofStatus::Refuted(format!(
                "{label} differs from {ref_label} at output bit {} on input {:#b}",
                cex.output_bit, cex.input
            ));
        }
    }
    ProofStatus::Proven
}

fn report(
    bdd: &Bdd,
    name: String,
    n_inputs: usize,
    method: &'static str,
    family: &[(String, Vec<Ref>)],
    status: ProofStatus,
) -> ProofReport {
    obs_count!("analysis.proofs", 1);
    if !matches!(status, ProofStatus::Proven) {
        obs_count!("analysis.refuted", 1);
    }
    ProofReport {
        name,
        n_inputs,
        method,
        representations: family.iter().map(|(l, _)| l.clone()).collect(),
        status,
        bdd_nodes: bdd.stats().nodes,
        memo_hit_rate: bdd.stats().hit_rate(),
    }
}

/// Recovers the truth table of a ≤ 16-input bit-sliced evaluator by
/// driving it with exhaustive lane blocks.
fn table_from_planes(
    n_inputs: usize,
    n_outputs: usize,
    eval: impl Fn(&[u64]) -> Vec<u64>,
) -> TruthTable {
    assert!(n_inputs <= 16);
    let rows: Vec<u64> = (0..(1u64 << n_inputs))
        .step_by(64)
        .flat_map(|base| {
            let outs = eval(&input_planes(n_inputs, base));
            assert_eq!(outs.len(), n_outputs);
            let lanes = (1usize << n_inputs).min(64);
            (0..lanes)
                .map(move |j| {
                    (0..n_outputs).fold(0u64, |row, k| row | (((outs[k] >> j) & 1) << k))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    TruthTable::from_rows(n_inputs, n_outputs, rows).expect("recovered table is well-formed")
}

fn full_adder_report(hdl_dir: &Path, kind: FullAdderKind) -> Result<ProofReport, String> {
    let _span = obs_span!("analysis.full_adders");
    let file = format!("{}.v", kind.to_string().to_lowercase());
    let raw = load_hdl(hdl_dir, &file)?;
    let x64_table = table_from_planes(3, 2, |p| {
        let (s, c) = kind.eval_x64(p[0], p[1], p[2]);
        vec![s, c]
    });

    let mut bdd = Bdd::new();
    let vars: Vec<Ref> = (0..3).map(|i| bdd.var(i)).collect();
    let family = vec![
        ("truth-table".to_string(), compile_truth_table(&mut bdd, &kind.truth_table(), &vars)),
        ("structural netlist".to_string(), compile_netlist(&mut bdd, &kind.structural_netlist(), &vars)),
        ("synthesized netlist".to_string(), compile_netlist(&mut bdd, &kind.synthesized_netlist(), &vars)),
        (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
        ("eval_x64".to_string(), compile_truth_table(&mut bdd, &x64_table, &vars)),
    ];
    let status = prove_family(&mut bdd, &family);
    Ok(report(&bdd, kind.to_string(), 3, "bdd", &family, status))
}

/// The six-way descriptor contract, symbolically: the declared truth
/// table, the generated netlist, the `hdl/*.v` export and the *generated*
/// bit-sliced evaluator of every [`xlac_adders::UnitDescriptor`] are
/// proven to be the same function. None of these representations were
/// written by hand — the proof certifies the generators, not per-cell
/// code.
fn descriptor_report(
    hdl_dir: &Path,
    d: &xlac_adders::UnitDescriptor,
) -> Result<ProofReport, String> {
    let _span = obs_span!("analysis.descriptors");
    let file = format!("{}.v", d.name().to_lowercase());
    let raw = load_hdl(hdl_dir, &file)?;
    let (n, k) = (d.table().n_inputs(), d.table().n_outputs());
    if n <= 8 {
        // Narrow cells: the whole four-way family as one BDD proof.
        let x64_table = table_from_planes(n, k, |p| d.eval_x64(p));
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..n).map(|i| bdd.var(i)).collect();
        let family = vec![
            ("truth-table".to_string(), compile_truth_table(&mut bdd, d.table(), &vars)),
            ("generated netlist".to_string(), compile_netlist(&mut bdd, d.netlist(), &vars)),
            (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
            (
                "generated eval_x64".to_string(),
                compile_truth_table(&mut bdd, &x64_table, &vars),
            ),
        ];
        let status = prove_family(&mut bdd, &family);
        return Ok(report(&bdd, format!("cell/{}", d.name()), n, "bdd", &family, status));
    }
    // Word-level descriptors (the 16-input adders): Shannon-expanding a
    // 2^16-row table into a BDD is the one expensive leg, so the table
    // and eval_x64 legs are closed by full enumeration (an exhaustive
    // check over the whole input space *is* a proof) while the netlist ≡
    // HDL leg stays symbolic.
    let mut bdd = Bdd::new();
    let vars: Vec<Ref> = (0..n).map(|i| bdd.var(i)).collect();
    let family = vec![
        ("generated netlist".to_string(), compile_netlist(&mut bdd, d.netlist(), &vars)),
        (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
    ];
    let mut status = prove_family(&mut bdd, &family);
    if status == ProofStatus::Proven {
        let x64_table = table_from_planes(n, k, |p| d.eval_x64(p));
        let net_table = table_from_planes(n, k, |p| d.netlist().eval_words(p));
        for x in 0..(1u64 << n) {
            let want = d.table().row(x);
            if net_table.row(x) != want {
                status = ProofStatus::Refuted(format!(
                    "generated netlist disagrees with the truth table at input {x:#b}"
                ));
                break;
            }
            if x64_table.row(x) != want {
                status = ProofStatus::Refuted(format!(
                    "generated eval_x64 disagrees with the truth table at input {x:#b}"
                ));
                break;
            }
        }
    }
    let mut family_labels = family;
    family_labels.push((format!("truth-table (2^{n} exhaustive)"), Vec::new()));
    family_labels.push((format!("generated eval_x64 (2^{n} exhaustive)"), Vec::new()));
    Ok(report(&bdd, format!("cell/{}", d.name()), n, "bdd+exhaustive", &family_labels, status))
}

fn mul2x2_report(hdl_dir: &Path, kind: Mul2x2Kind) -> Result<ProofReport, String> {
    let _span = obs_span!("analysis.mul2x2");
    let file = format!("{}.v", kind.to_string().to_lowercase());
    let raw = load_hdl(hdl_dir, &file)?;
    let x64_table = table_from_planes(4, 4, |p| kind.mul_x64(p[0], p[1], p[2], p[3]).to_vec());

    let mut bdd = Bdd::new();
    let vars: Vec<Ref> = (0..4).map(|i| bdd.var(i)).collect();
    let family = vec![
        ("truth-table".to_string(), compile_truth_table(&mut bdd, &kind.truth_table(), &vars)),
        ("netlist".to_string(), compile_netlist(&mut bdd, &kind.netlist(), &vars)),
        (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
        ("mul_x64".to_string(), compile_truth_table(&mut bdd, &x64_table, &vars)),
    ];
    let status = prove_family(&mut bdd, &family);
    Ok(report(&bdd, kind.to_string(), 4, "bdd", &family, status))
}

fn configurable_mul_report(hdl_dir: &Path, core: Mul2x2Kind) -> Result<ProofReport, String> {
    let _span = obs_span!("analysis.configurable_mul");
    let cfg = ConfigurableMul2x2::new(core);
    let file = format!("{}.v", cfg.name().to_lowercase());
    let raw = load_hdl(hdl_dir, &file)?;

    let mut bdd = Bdd::new();
    let vars: Vec<Ref> = (0..5).map(|i| bdd.var(i)).collect();
    let behavioural = twins::configurable_mul2x2_table(&cfg);
    let family = vec![
        ("behavioural model".to_string(), compile_truth_table(&mut bdd, &behavioural, &vars)),
        ("netlist".to_string(), compile_netlist(&mut bdd, &cfg.netlist(), &vars)),
        (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
    ];
    let status = prove_family(&mut bdd, &family);
    Ok(report(&bdd, cfg.name(), 5, "bdd", &family, status))
}

/// Exhaustively compares a twin's BDD evaluation, a scalar model and a
/// bit-sliced model over all `2^(2w)` operand pairs (`2w ≤ 20`). The
/// BDD assignment interleaves operands (`a_i` = var `2i`).
fn exhaustive_agreement(
    bdd: &Bdd,
    twin: &[Ref],
    width: usize,
    scalar: impl Fn(u64, u64) -> u64,
    mut sliced: impl FnMut(&[u64], &[u64]) -> Vec<u64>,
) -> ProofStatus {
    let n = 2 * width;
    assert!(n <= 20);
    for base in (0..(1u64 << n)).step_by(64) {
        let planes = input_planes(n, base);
        let (a_planes, b_planes) = planes.split_at(width);
        let outs = sliced(a_planes, b_planes);
        for j in 0..64u64 {
            let x = base + j;
            if x >= 1 << n {
                break;
            }
            let (a, b) = (x & ((1 << width) - 1), x >> width);
            let want = scalar(a, b);
            let from_sliced: u64 =
                outs.iter().enumerate().map(|(k, &p)| ((p >> j) & 1) << k).sum();
            let assignment = interleave(a, b, width);
            let from_twin: u64 = twin
                .iter()
                .enumerate()
                .map(|(k, &f)| u64::from(bdd.eval(f, assignment)) << k)
                .sum();
            if from_sliced != want {
                return ProofStatus::Refuted(format!(
                    "eval_x64 disagrees with the scalar model at a={a} b={b}: {from_sliced} vs {want}"
                ));
            }
            if from_twin != want {
                return ProofStatus::Refuted(format!(
                    "BDD twin disagrees with the scalar model at a={a} b={b}: {from_twin} vs {want}"
                ));
            }
        }
    }
    ProofStatus::Proven
}

/// Packs operands into the interleaved BDD variable assignment.
fn interleave(a: u64, b: u64, width: usize) -> u64 {
    (0..width).fold(0u64, |acc, i| {
        acc | (((a >> i) & 1) << (2 * i)) | (((b >> i) & 1) << (2 * i + 1))
    })
}

fn ripple_report(hdl_dir: &Path, kind: FullAdderKind) -> Result<ProofReport, String> {
    let _span = obs_span!("analysis.ripple_adders");
    let file = format!("rca8_{}_lsb4.v", kind.to_string().to_lowercase());
    let raw = load_hdl(hdl_dir, &file)?;
    let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4)
        .expect("8-bit adder with 4 approximate LSBs is valid");

    let mut bdd = Bdd::new();
    let (a, b) = interleaved_operand_vars(&mut bdd, 8);
    let ports: Vec<Ref> = a.iter().chain(&b).copied().collect();
    let family = vec![
        ("behavioural twin".to_string(), twins::ripple_adder(&mut bdd, &rca, &a, &b)),
        ("elaborated netlist".to_string(), compile_netlist(&mut bdd, &ripple_netlist(&rca), &ports)),
        (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &ports)?),
    ];
    let mut status = prove_family(&mut bdd, &family);
    if status == ProofStatus::Proven {
        // Close the loop to the scalar and bit-sliced models by full
        // enumeration of the 16-bit input space.
        let mut out = vec![0u64; 9];
        status = exhaustive_agreement(
            &bdd,
            &family[0].1,
            8,
            |x, y| rca.add(x, y),
            |ap, bp| {
                rca.add_x64_into(ap, bp, &mut out);
                out.clone()
            },
        );
    }
    let mut family_labels = family;
    family_labels.push(("add_x64 (2^16 exhaustive)".to_string(), Vec::new()));
    family_labels.push(("scalar model (2^16 exhaustive)".to_string(), Vec::new()));
    Ok(report(&bdd, rca.name(), 16, "bdd+exhaustive", &family_labels, status))
}

/// The GeAr geometry `(n, r, p)` against its `hdl/gear_n{n}_r{r}_p{p}.v`
/// export.
fn gear_report(hdl_dir: &Path, n: usize, r: usize, p: usize) -> Result<ProofReport, String> {
    let _span = obs_span!("analysis.gear_adders");
    let file = format!("gear_n{n}_r{r}_p{p}.v");
    let raw = load_hdl(hdl_dir, &file)?;
    let gear = GeArAdder::new(n, r, p).expect("shipped GeAr configs are valid");

    let mut bdd = Bdd::new();
    let (a, b) = interleaved_operand_vars(&mut bdd, n);
    let ports: Vec<Ref> = a.iter().chain(&b).copied().collect();
    let family = vec![
        ("behavioural twin".to_string(), twins::gear_adder(&mut bdd, &gear, &a, &b, 0)),
        ("elaborated netlist".to_string(), compile_netlist(&mut bdd, &gear_netlist(&gear), &ports)),
        (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &ports)?),
    ];
    let mut status = prove_family(&mut bdd, &family);
    if status == ProofStatus::Proven {
        // 2n > 20 inputs: seeded-vector agreement with the scalar and
        // bit-sliced models (the symbolic forms above are proven).
        status = sampled_gear_agreement(&bdd, &family[0].1, &gear);
    }
    let mut family_labels = family;
    family_labels.push((format!("add_x64 ({SAMPLE_VECTORS} seeded vectors)"), Vec::new()));
    family_labels.push((format!("scalar model ({SAMPLE_VECTORS} seeded vectors)"), Vec::new()));
    Ok(report(&bdd, gear.name(), 2 * n, "bdd+sampled", &family_labels, status))
}

fn sampled_gear_agreement(bdd: &Bdd, twin: &[Ref], gear: &GeArAdder) -> ProofStatus {
    let n = gear.n();
    let mask = (1u64 << n) - 1;
    let mut rng = Xoshiro256StarStar::seed_from_u64(SAMPLE_SEED ^ (n as u64));
    for _ in 0..SAMPLE_VECTORS / 64 {
        let lanes_a: Vec<u64> = (0..64).map(|_| rng.next_u64() & mask).collect();
        let lanes_b: Vec<u64> = (0..64).map(|_| rng.next_u64() & mask).collect();
        // Transpose the 64 operand pairs into bit planes.
        let a_planes: Vec<u64> = (0..n)
            .map(|i| (0..64).fold(0u64, |pl, j| pl | (((lanes_a[j] >> i) & 1) << j)))
            .collect();
        let b_planes: Vec<u64> = (0..n)
            .map(|i| (0..64).fold(0u64, |pl, j| pl | (((lanes_b[j] >> i) & 1) << j)))
            .collect();
        let outs = gear.add_x64(&a_planes, &b_planes).value;
        for j in 0..64 {
            let (av, bv) = (lanes_a[j], lanes_b[j]);
            let want = gear.add(av, bv).value;
            let from_sliced: u64 =
                outs.iter().enumerate().map(|(k, &p)| ((p >> j) & 1) << k).sum();
            let assignment = interleave(av, bv, n);
            let from_twin: u64 = twin
                .iter()
                .enumerate()
                .map(|(k, &f)| u64::from(bdd.eval(f, assignment)) << k)
                .sum();
            if from_sliced != want {
                return ProofStatus::Refuted(format!(
                    "add_x64 disagrees with the scalar model at a={av} b={bv}: {from_sliced} vs {want}"
                ));
            }
            if from_twin != want {
                return ProofStatus::Refuted(format!(
                    "BDD twin disagrees with the scalar model at a={av} b={bv}: {from_twin} vs {want}"
                ));
            }
        }
    }
    ProofStatus::Proven
}

fn composed_multiplier_report(which: Composed) -> ProofReport {
    let _span = obs_span!("analysis.composed_multipliers");
    match which {
        // Recursive multiplier, paper configuration: ApxMulOur blocks with
        // approximate summation adders.
        Composed::Recursive => {
            let m = RecursiveMultiplier::new(
                8,
                Mul2x2Kind::ApxOur,
                SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 3 },
            )
            .expect("valid recursive configuration");
            let mut bdd = Bdd::new();
            let (a, b) = interleaved_operand_vars(&mut bdd, 8);
            let twin = twins::recursive_multiplier(&mut bdd, 8, m.block(), m.sum_mode(), &a, &b);
            let status = exhaustive_agreement(&bdd, &twin, 8, |x, y| m.mul(x, y), |ap, bp| {
                m.mul_x64(ap, bp)
            });
            composed_report(&bdd, m.name(), &twin_family(), status)
        }
        // Wallace tree with approximate low columns.
        Composed::Wallace => {
            let m =
                WallaceMultiplier::new(8, FullAdderKind::Apx3, 6).expect("valid Wallace config");
            let mut bdd = Bdd::new();
            let (a, b) = interleaved_operand_vars(&mut bdd, 8);
            let twin = twins::wallace_multiplier(&mut bdd, &m, &a, &b);
            let status = exhaustive_agreement(&bdd, &twin, 8, |x, y| m.mul(x, y), |ap, bp| {
                m.mul_x64(ap, bp)
            });
            composed_report(&bdd, m.name(), &twin_family(), status)
        }
        // Truncated multiplier with compensation.
        Composed::Truncated => {
            let m = TruncatedMultiplier::new(8, 4, true).expect("valid truncated config");
            let mut bdd = Bdd::new();
            let (a, b) = interleaved_operand_vars(&mut bdd, 8);
            let twin = twins::truncated_multiplier(&mut bdd, &m, &a, &b);
            let status = exhaustive_agreement(&bdd, &twin, 8, |x, y| m.mul(x, y), |ap, bp| {
                m.mul_x64(ap, bp)
            });
            composed_report(&bdd, m.name(), &twin_family(), status)
        }
        // Subtractor over an approximate ripple datapath (magnitude output).
        Composed::Subtractor => {
            let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4)
                .expect("valid adder config");
            let sub = Subtractor::new(rca);
            let mut bdd = Bdd::new();
            let (a, b) = interleaved_operand_vars(&mut bdd, 8);
            let (mag, ge) = twins::subtractor(&mut bdd, &sub, &a, &b);
            let mut twin = mag;
            twin.push(ge);
            let status = exhaustive_agreement(
                &bdd,
                &twin,
                8,
                |x, y| {
                    let (m, g) = sub.sub(x, y);
                    m | (u64::from(g) << 8)
                },
                |ap, bp| {
                    let (mut planes, ge_plane) = sub.sub_x64(ap, bp);
                    planes.push(ge_plane);
                    planes
                },
            );
            composed_report(&bdd, sub.name(), &twin_family(), status)
        }
    }
}

/// Proof obligations for the `xlac-sim` bytecode compiler: every
/// built-in netlist representation in the registry, compiled to bit-plane
/// bytecode, is proven equal to the source netlist output-by-output over
/// the full input space ([`super::jitproof`] executes the bytecode
/// symbolically; canonical BDD roots make the comparison a proof).
///
/// Only built-in (structural/elaborated) netlists participate — the
/// `hdl/` exports are covered by [`prove_all`] and add nothing here,
/// since the JIT consumes `Netlist` values, not Verilog.
#[must_use]
pub fn jit_equivalence_reports() -> Vec<ProofReport> {
    jit_equivalence_sweep().0
}

/// The JIT sweep with the shared manager's final statistics exposed.
///
/// One BDD manager serves every obligation in the sweep; between
/// obligations the manager is garbage-collected with no roots, which
/// sweeps the unique table and drops the ITE memo. Proof roots never
/// outlive their obligation, so the peak live-node count is the
/// *largest single obligation*, not the sum over the registry — the
/// regression test pins that invariant so a leaked root or a skipped
/// sweep shows up as a peak-node jump.
#[must_use]
pub fn jit_equivalence_sweep() -> (Vec<ProofReport>, super::bdd::BddStats) {
    let _span = obs_span!("analysis.jit_equivalence");
    use xlac_multipliers::hw::wallace_netlist;
    let mut reports = Vec::new();
    let mut bdd = Bdd::new();

    // 1-bit cells: plain variable order.
    let mut cells: Vec<(String, xlac_logic::Netlist)> = Vec::new();
    for kind in FullAdderKind::ALL {
        cells.push((format!("{kind} (structural)"), kind.structural_netlist()));
        cells.push((format!("{kind} (synthesized)"), kind.synthesized_netlist()));
    }
    for kind in Mul2x2Kind::ALL {
        cells.push((kind.to_string(), kind.netlist()));
    }
    for core in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
        let cfg = ConfigurableMul2x2::new(core);
        cells.push((cfg.name(), cfg.netlist()));
    }
    for (name, nl) in cells {
        let vars: Vec<Ref> = (0..nl.n_inputs()).map(|i| bdd.var(i)).collect();
        reports.push(jit_report(&mut bdd, name, &nl, &vars));
        bdd.gc(&[]);
    }

    // Multi-bit datapaths: interleaved operand order keeps the adder and
    // multiplier BDDs compact, exactly as the main registry does.
    let mut datapaths: Vec<(String, xlac_logic::Netlist, usize)> = Vec::new();
    for kind in FullAdderKind::APPROXIMATE {
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4)
            .expect("8-bit adder with 4 approximate LSBs is valid");
        datapaths.push((rca.name(), ripple_netlist(&rca), 8));
    }
    for (n, r, p) in [(11usize, 1usize, 9usize), (12, 4, 4), (16, 2, 6)] {
        let gear = GeArAdder::new(n, r, p).expect("shipped GeAr configs are valid");
        datapaths.push((gear.name(), gear_netlist(&gear), n));
    }
    {
        let m = WallaceMultiplier::new(8, FullAdderKind::Apx3, 6).expect("valid Wallace config");
        datapaths.push((m.name(), wallace_netlist(&m), 8));
    }
    {
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4)
            .expect("valid adder config");
        let sub = Subtractor::new(rca);
        datapaths.push((sub.name(), xlac_adders::hw::subtractor_netlist(&sub), 8));
    }
    for (name, nl, width) in datapaths {
        let (a, b) = interleaved_operand_vars(&mut bdd, width);
        let ports: Vec<Ref> = a.iter().chain(&b).copied().collect();
        reports.push(jit_report(&mut bdd, name, &nl, &ports));
        bdd.gc(&[]);
    }
    set_engine_gauges(&reports);
    (reports, bdd.stats())
}

fn jit_report(bdd: &mut Bdd, name: String, nl: &xlac_logic::Netlist, ports: &[Ref]) -> ProofReport {
    let prog = xlac_sim::CompiledProgram::compile(nl);
    let family = vec![
        ("netlist".to_string(), compile_netlist(bdd, nl, ports)),
        ("compiled bytecode".to_string(), super::jitproof::compile_program(bdd, &prog, ports)),
    ];
    let status = prove_family(bdd, &family);
    report(bdd, name, nl.n_inputs(), "bdd-jit", &family, status)
}

fn twin_family() -> Vec<(String, Vec<Ref>)> {
    vec![
        ("behavioural twin".to_string(), Vec::new()),
        ("scalar model (2^16 exhaustive)".to_string(), Vec::new()),
        ("bit-sliced model (2^16 exhaustive)".to_string(), Vec::new()),
    ]
}

fn composed_report(
    bdd: &Bdd,
    name: String,
    family: &[(String, Vec<Ref>)],
    status: ProofStatus,
) -> ProofReport {
    report(bdd, name, 16, "exhaustive", family, status)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that record `analysis.*` obs metrics against
    /// the one that resets and compares them.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Holds [`OBS_LOCK`] in an instrumented build; a no-op otherwise.
    fn obs_guard() -> Option<std::sync::MutexGuard<'static, ()>> {
        xlac_obs::enabled()
            .then(|| OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    fn hdl_dir() -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../hdl");
        ensure_registry_hdl(&dir).expect("hdl/ self-heals from the registry");
        dir
    }

    #[test]
    fn every_shipped_module_obligation_is_proven() {
        let _obs = obs_guard();
        let reports = prove_all(&hdl_dir()).expect("hdl/ loads");
        assert!(reports.len() >= 20, "expected the full registry, got {}", reports.len());
        for r in &reports {
            assert!(r.is_proven(), "{}: {:?}", r.name, r.status);
        }
    }

    #[test]
    fn reports_are_equal_at_one_and_three_workers() {
        let _obs = obs_guard();
        let dir = hdl_dir();
        let one = proofs_to_json(&prove_all_on(&dir, 1).expect("hdl/ loads"));
        let three = proofs_to_json(&prove_all_on(&dir, 3).expect("hdl/ loads"));
        assert_eq!(one, three);
    }

    #[test]
    fn the_first_error_in_registry_order_is_returned() {
        let _obs = obs_guard();
        // An empty directory fails every hdl-backed obligation; the error
        // must name the first file in registry order at any worker count.
        let empty = std::env::temp_dir().join(format!("xlac-empty-hdl-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        for threads in [1, 3] {
            let err = prove_all_on(&empty, threads).expect_err("no hdl/ files");
            assert!(err.contains("accufa.v"), "{err}");
        }
        let _ = std::fs::remove_dir(&empty);
    }

    /// The `analysis.*` part of the obs registry: counters, gauges, and
    /// span names with their counts (span times vary run to run).
    #[cfg(feature = "obs")]
    fn analysis_snapshot() -> (Vec<(String, u64)>, Vec<(String, f64)>, Vec<(String, u64)>) {
        let snap = xlac_obs::snapshot();
        let ours = |name: &str| name.starts_with("analysis.");
        (
            snap.counters.into_iter().filter(|(n, _)| ours(n)).collect(),
            snap.gauges.into_iter().filter(|(n, _)| ours(n)).collect(),
            snap.spans.into_iter().filter(|s| ours(&s.name)).map(|s| (s.name, s.count)).collect(),
        )
    }

    #[cfg(feature = "obs")]
    #[test]
    fn obs_analysis_snapshot_is_equal_at_one_and_three_workers() {
        // The registry is process-global: hold every test that records
        // `analysis.*` metrics off while this one resets and reads it.
        let _obs = obs_guard();
        let dir = hdl_dir();
        let mut snapshots = Vec::new();
        for threads in [1, 3] {
            xlac_obs::reset();
            prove_all_on(&dir, threads).expect("hdl/ loads");
            snapshots.push(analysis_snapshot());
        }
        let (counters, gauges, _) = &snapshots[0];
        assert!(counters.iter().any(|(n, v)| n == "analysis.proofs" && *v >= 20), "{counters:?}");
        assert_eq!(gauges.len(), 2, "{gauges:?}");
        assert_eq!(snapshots[0], snapshots[1]);
    }

    #[test]
    fn every_jit_compilation_obligation_is_proven() {
        let _obs = obs_guard();
        let reports = jit_equivalence_reports();
        // Every registry family is represented: 2 netlists per full-adder
        // kind, the 2×2 blocks, the configurables, ripple/GeAr/Wallace/
        // subtractor datapaths.
        assert!(reports.len() >= 25, "expected the full registry, got {}", reports.len());
        for r in &reports {
            assert!(r.is_proven(), "{}: {:?}", r.name, r.status);
            assert_eq!(r.method, "bdd-jit");
        }
    }

    #[test]
    fn shared_manager_sweep_keeps_the_peak_bounded() {
        let _obs = obs_guard();
        let (reports, stats) = jit_equivalence_sweep();
        assert!(reports.iter().all(ProofReport::is_proven));
        // One gc per obligation: the memo and unique table are swept
        // between proofs, so the high-water mark is the largest single
        // obligation (~322k live nodes for the widest datapath compile),
        // not the registry sum (well over a million).
        assert!(stats.gc_runs >= reports.len() as u64, "a between-obligation sweep was skipped");
        assert!(stats.freed_nodes > 0);
        assert_eq!(stats.live_nodes, 0, "a proof root leaked past its obligation");
        assert!(
            stats.peak_live_nodes < 400_000,
            "peak live nodes regressed: {} (one obligation leaked into the next?)",
            stats.peak_live_nodes
        );
    }

    #[test]
    fn descriptor_cells_prove_every_generated_representation() {
        let _obs = obs_guard();
        let dir = hdl_dir();
        let reports = approx_cell_descriptors()
            .iter()
            .map(|d| descriptor_report(&dir, d))
            .collect::<Result<Vec<_>, _>>()
            .expect("hdl/ loads");
        assert_eq!(
            reports.len(),
            approx_cell_descriptors().len(),
            "every shipped descriptor earns a proof"
        );
        assert!(reports.len() >= 14, "library regressed below the ROADMAP-3 roster");
        for r in &reports {
            assert!(r.is_proven(), "{}: {:?}", r.name, r.status);
            // All four legs are generated from the descriptor's two
            // defining artifacts; the labels record that.
            assert!(r.representations.iter().any(|l| l == "generated netlist"));
            assert!(r.representations.iter().any(|l| l.starts_with("generated eval_x64")));
            assert!(r.representations.iter().any(|l| l.starts_with("truth-table")));
        }
        // The word-level descriptors take the bdd+exhaustive wide path.
        assert!(
            reports.iter().any(|r| r.n_inputs == 16 && r.method == "bdd+exhaustive"),
            "word-level adders must be proven via the wide path"
        );
    }

    #[test]
    fn a_seeded_defect_is_refuted_with_a_counterexample() {
        // Compare ApxFA1's table against the accurate structural netlist:
        // the registry machinery must refute it, not just fail.
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..3).map(|i| bdd.var(i)).collect();
        let family = vec![
            (
                "truth-table".to_string(),
                compile_truth_table(&mut bdd, &FullAdderKind::Apx1.truth_table(), &vars),
            ),
            (
                "structural netlist".to_string(),
                compile_netlist(&mut bdd, &FullAdderKind::Accurate.structural_netlist(), &vars),
            ),
        ];
        match prove_family(&mut bdd, &family) {
            ProofStatus::Proven => panic!("ApxFA1 must not equal AccuFA"),
            ProofStatus::Refuted(msg) => {
                assert!(msg.contains("output bit"), "{msg}");
            }
        }
    }

    #[test]
    fn proof_json_is_well_formed() {
        let _obs = obs_guard();
        let dir = hdl_dir();
        let reports = FullAdderKind::ALL
            .into_iter()
            .map(|kind| full_adder_report(&dir, kind))
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        let json = proofs_to_json(&reports);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"status\": \"proven\""));
        assert!(json.contains("\"memo_hit_rate\""));
    }
}
