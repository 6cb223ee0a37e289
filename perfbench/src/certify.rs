//! The `certify` workload: one full certification pass of the shipped
//! library.
//!
//! A pass proves every registry obligation against a freshly exported
//! `hdl/` directory (`registry::prove_all`), audits every static bound
//! against its exact metrics (`audit::audit_bounds`) and scores the
//! distribution-aware design space (`dist_space::distribution_fronts`).
//!
//! The traced run repeats the pass with the fronts decomposed into their
//! exact-PMF scoring and Pareto calls, then calls the engines the audit
//! is built on — BDD exact metrics, the compositional calculus and the
//! abstract-interpretation bound derivation — directly on the audit's
//! roster, each under its own span.

use std::path::Path;
use std::time::Instant;

use xlac_adders::hw::{gear_netlist, ripple_netlist, subtractor_netlist};
use xlac_adders::{
    approx_cell_descriptors, Adder, FullAdderKind, GeArAdder, RippleCarryAdder, Subtractor,
};
use xlac_analysis::absint::derive_error_bound;
use xlac_analysis::symbolic::audit::{audit_bounds, BoundAudit};
use xlac_analysis::symbolic::calculus::{recursive_calculus, truncated_calculus, wallace_calculus};
use xlac_analysis::symbolic::registry::prove_all;
use xlac_analysis::symbolic::{exact_metrics, interleaved_operand_vars, twins, Bdd, Ref};
use xlac_core::dist::InputDistribution;
use xlac_explore::dist_space::{
    distribution_fronts, enumerate_distribution_space, exact_config_metrics, DistFront, Family,
};
use xlac_explore::pareto::try_pareto_frontier;
use xlac_logic::Netlist;
use xlac_multipliers::hw::wallace_netlist;
use xlac_multipliers::{
    Mul2x2Kind, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};

use crate::trace::Tracer;

/// Operand width of the scored design space.
const WIDTH: usize = 8;

/// Timings and outcome of one certification pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// `prove_all` wall time.
    pub prove_s: f64,
    /// `audit_bounds` wall time.
    pub audit_s: f64,
    /// `distribution_fronts` wall time.
    pub fronts_s: f64,
    /// Obligations proven.
    pub obligations: usize,
    /// Audits run.
    pub audits: Vec<BoundAudit>,
    /// The fronts, printed, to compare passes.
    pub fronts: String,
}

impl Pass {
    /// Wall time of the whole pass.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.prove_s + self.audit_s + self.fronts_s
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs one pass.
///
/// # Errors
///
/// Fails when an obligation is refuted, an audit is unsound, or an
/// engine reports an error.
pub fn pass(hdl: &Path) -> Result<Pass, String> {
    let (reports, prove_s) = timed(|| prove_all(hdl));
    let reports = reports?;
    if let Some(r) = reports.iter().find(|r| !r.is_proven()) {
        return Err(format!("obligation {} not proven: {:?}", r.name, r.status));
    }
    let (audits, audit_s) = timed(audit_bounds);
    if let Some(a) = audits.iter().find(|a| !a.sound) {
        return Err(format!("audit {} is unsound", a.name));
    }
    let (fronts, fronts_s) = timed(|| distribution_fronts(WIDTH));
    let fronts = fronts.map_err(|e| e.to_string())?;
    Ok(Pass {
        prove_s,
        audit_s,
        fronts_s,
        obligations: reports.len(),
        audits,
        fronts: format!("{fronts:?}"),
    })
}

/// Span names of the certification layers.
pub mod layer {
    /// `registry::prove_all`.
    pub const PROVE: &str = "analysis.registry.prove";
    /// `audit::audit_bounds`.
    pub const AUDIT: &str = "analysis.audit.audit";
    /// Exact PMF-weighted scoring of one configuration.
    pub const EXACT_PMF: &str = "core.dist.exact_pmf";
    /// Pareto front extraction of one operator family.
    pub const PARETO: &str = "explore.pareto";
    /// Exact metrics of one datapath through its BDD twin.
    pub const BDD_EXACT: &str = "analysis.symbolic.bdd_exact";
    /// Compositional error calculus of one multiplier.
    pub const CALCULUS: &str = "analysis.symbolic.calculus";
    /// Abstract-interpretation bound derivation of one netlist pair.
    pub const DERIVE_BOUND: &str = "analysis.absint.derive_bound";
    /// Root of the traced pass.
    pub const ROOT: &str = "certify";
    /// Root of the engine calls on the audit roster.
    pub const ENGINES: &str = "certify.engines";
    /// The decomposed `distribution_fronts` call.
    pub const FRONTS: &str = "explore.dist_space";
}

/// What the traced certification measured.
#[derive(Debug, Clone)]
pub struct TracedReport {
    /// Wall time of the traced pass (the `certify` root span).
    pub traced_s: f64,
    /// BDD arena nodes summed over the engine replay's managers.
    pub bdd_nodes: u64,
    /// ITE memo hit rate over the engine replay.
    pub memo_hit_rate: f64,
    /// Every check of the traced pass held: obligations proven, audits
    /// sound, fronts equal to the untraced pass's, engine results
    /// consistent with the audit.
    pub ok: bool,
    /// Why a check failed.
    pub failure: Option<String>,
}

/// The multiplier roster of the audit, with each datapath's BDD twin.
enum Mul {
    Wallace(WallaceMultiplier),
    Truncated(TruncatedMultiplier),
    Recursive(RecursiveMultiplier, Mul2x2Kind, SumMode),
}

impl Mul {
    fn roster() -> Vec<Mul> {
        let mut out = Vec::new();
        for (kind, cols) in
            [(FullAdderKind::Apx2, 4), (FullAdderKind::Apx4, 8), (FullAdderKind::Apx5, 8)]
        {
            out.push(Mul::Wallace(WallaceMultiplier::new(WIDTH, kind, cols).expect("shipped")));
        }
        for (dropped, compensated) in [(2, false), (4, true), (6, true)] {
            out.push(Mul::Truncated(
                TruncatedMultiplier::new(WIDTH, dropped, compensated).expect("shipped"),
            ));
        }
        for block in Mul2x2Kind::ALL {
            for sum in
                [SumMode::Accurate, SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 2 }]
            {
                let m = RecursiveMultiplier::new(WIDTH, block, sum).expect("shipped");
                out.push(Mul::Recursive(m, block, sum));
            }
        }
        out
    }

    fn name(&self) -> String {
        use xlac_multipliers::Multiplier;
        match self {
            Mul::Wallace(m) => m.name(),
            Mul::Truncated(m) => m.name(),
            Mul::Recursive(m, ..) => m.name(),
        }
    }

    fn twin(&self, bdd: &mut Bdd, a: &[Ref], b: &[Ref]) -> Vec<Ref> {
        match self {
            Mul::Wallace(m) => twins::wallace_multiplier(bdd, m, a, b),
            Mul::Truncated(m) => twins::truncated_multiplier(bdd, m, a, b),
            Mul::Recursive(_, block, sum) => {
                twins::recursive_multiplier(bdd, WIDTH, *block, *sum, a, b)
            }
        }
    }

    /// The calculus' certified worst-case error.
    fn calculus_wce(&self) -> u128 {
        match self {
            Mul::Wallace(m) => wallace_calculus(m, None).wce_hi(),
            Mul::Truncated(m) => truncated_calculus(m).wce_hi(),
            Mul::Recursive(m, ..) => recursive_calculus(m).wce_hi(),
        }
    }
}

/// The netlist pairs the audit derives abstract-interpretation bounds
/// for: `(audit name, approximate, exact)`.
fn absint_roster() -> Vec<(String, Netlist, Netlist)> {
    let mut out = Vec::new();
    for d in approx_cell_descriptors() {
        out.push((
            format!("cell/{}", d.name()),
            d.netlist().clone(),
            d.reference_netlist().clone(),
        ));
    }
    let accurate_fa = FullAdderKind::Accurate.structural_netlist();
    for kind in FullAdderKind::APPROXIMATE {
        out.push((kind.to_string(), kind.structural_netlist(), accurate_fa.clone()));
    }
    let accurate_mul2x2 = Mul2x2Kind::Accurate.netlist();
    for kind in Mul2x2Kind::ALL.into_iter().filter(|&k| k != Mul2x2Kind::Accurate) {
        out.push((format!("mul2x2_{kind}"), kind.netlist(), accurate_mul2x2.clone()));
    }
    let accurate_rca = ripple_netlist(&RippleCarryAdder::accurate(WIDTH));
    for kind in FullAdderKind::APPROXIMATE {
        let rca = RippleCarryAdder::with_approx_lsbs(WIDTH, kind, 4).expect("shipped");
        out.push((rca.name(), ripple_netlist(&rca), accurate_rca.clone()));
    }
    let gear = GeArAdder::new(WIDTH, 2, 2).expect("shipped");
    out.push((gear.name(), gear_netlist(&gear), accurate_rca));
    let exact_sub = subtractor_netlist(&Subtractor::new(RippleCarryAdder::accurate(WIDTH)));
    for kind in FullAdderKind::APPROXIMATE {
        let sub =
            Subtractor::new(RippleCarryAdder::with_approx_lsbs(WIDTH, kind, 4).expect("shipped"));
        out.push((sub.name(), subtractor_netlist(&sub), exact_sub.clone()));
    }
    let accurate_wallace = wallace_netlist(
        &WallaceMultiplier::new(WIDTH, FullAdderKind::Accurate, 0).expect("shipped"),
    );
    for (kind, cols) in
        [(FullAdderKind::Apx2, 4), (FullAdderKind::Apx4, 8), (FullAdderKind::Apx5, 8)]
    {
        let m = WallaceMultiplier::new(WIDTH, kind, cols).expect("shipped");
        use xlac_multipliers::Multiplier;
        out.push((m.name(), wallace_netlist(&m), accurate_wallace.clone()));
    }
    out
}

/// The adder and multiplier Pareto fronts (configuration names) under
/// one distribution.
type Fronts = (InputDistribution, Vec<String>, Vec<String>);

/// `distribution_fronts` through its public parts: exact PMF scoring of
/// every configuration, then the per-family Pareto fronts.
fn traced_fronts(t: &mut Tracer) -> Result<Vec<Fronts>, String> {
    let configs = enumerate_distribution_space(WIDTH).map_err(|e| e.to_string())?;
    t.span(layer::FRONTS, |t| {
        let mut out = Vec::new();
        for dist in InputDistribution::ALL {
            let mut scored = Vec::with_capacity(configs.len());
            for c in &configs {
                let m = t.span(layer::EXACT_PMF, |_| exact_config_metrics(c, dist));
                scored.push((c, m.map_err(|e| e.to_string())?));
            }
            let mut fronts = Vec::new();
            for family in [Family::Adder, Family::Multiplier] {
                let members: Vec<_> = scored.iter().filter(|(c, _)| c.family() == family).collect();
                let front = t.span(layer::PARETO, |_| {
                    try_pareto_frontier(
                        &members,
                        &[&|p: &&_| p.0.cost().area_ge, &|p| p.1.mean_error_distance],
                    )
                });
                let front = front.map_err(|e| e.to_string())?;
                fronts.push(front.iter().map(|p| p.0.name().to_string()).collect::<Vec<_>>());
            }
            let multiplier = fronts.pop().expect("two families");
            let adder = fronts.pop().expect("two families");
            out.push((dist, adder, multiplier));
        }
        Ok(out)
    })
}

fn front_names(fronts: &[DistFront]) -> Vec<Fronts> {
    fronts.iter().map(|f| (f.dist, f.adder_front.clone(), f.multiplier_front.clone())).collect()
}

/// The traced pass plus the engine replay. `untraced` is a pass of this
/// run, whose fronts and audits the traced results must reproduce.
#[must_use]
pub fn traced(t: &mut Tracer, hdl: &Path, untraced: &Pass) -> TracedReport {
    let mut failure: Option<String> = None;
    let mut fail = |why: String| {
        failure.get_or_insert(why);
    };
    let before = t.root_ns(layer::ROOT);
    t.span(layer::ROOT, |t| {
        match t.span(layer::PROVE, |_| prove_all(hdl)) {
            Ok(r) if r.iter().all(|r| r.is_proven()) => {}
            Ok(_) => fail("an obligation was refuted in the traced pass".into()),
            Err(e) => fail(e),
        }
        let audits = t.span(layer::AUDIT, |_| audit_bounds());
        if audits.iter().any(|a| !a.sound) {
            fail("an audit was unsound in the traced pass".into());
        }
        match traced_fronts(t) {
            Ok(got) => match distribution_fronts(WIDTH) {
                Ok(want) if front_names(&want) == got && format!("{want:?}") == untraced.fronts => {
                }
                Ok(_) => fail("decomposed fronts differ from distribution_fronts".into()),
                Err(e) => fail(e.to_string()),
            },
            Err(e) => fail(e),
        }
    });
    let traced_s = (t.root_ns(layer::ROOT) - before) as f64 / 1e9;

    let audit_of = |name: &str| untraced.audits.iter().find(|a| a.name == name);
    let (mut nodes, mut hits, mut lookups) = (0u64, 0u64, 0u64);
    t.span(layer::ENGINES, |t| {
        for m in Mul::roster() {
            let name = m.name();
            let exact = t.span(layer::BDD_EXACT, |_| {
                let mut bdd = Bdd::new();
                let (a, b) = interleaved_operand_vars(&mut bdd, WIDTH);
                let approx = m.twin(&mut bdd, &a, &b);
                let reference = twins::mul_exact(&mut bdd, &a, &b);
                let metrics = exact_metrics(&mut bdd, &approx, &reference, 2 * WIDTH);
                let s = bdd.stats();
                nodes += s.nodes as u64;
                hits += s.ite_hits;
                lookups += s.ite_lookups;
                metrics
            });
            match audit_of(&name) {
                Some(a)
                    if a.exact_wce == exact.worst_case_error
                        && a.exact_med == exact.mean_error_distance => {}
                _ => fail(format!("BDD exact metrics of {name} disagree with the audit")),
            }
            let wce_hi = t.span(layer::CALCULUS, |_| m.calculus_wce());
            if wce_hi < exact.worst_case_error {
                fail(format!("calculus bound of {name} is below its exact WCE"));
            }
        }
        for (name, approx, exact) in absint_roster() {
            let bound = t.span(layer::DERIVE_BOUND, |_| derive_error_bound(&approx, &exact));
            match (bound, audit_of(&format!("absint:{name}"))) {
                (Ok(b), Some(a)) if b.wce() >= a.exact_wce => {}
                _ => fail(format!("derived bound of {name} is missing or below its exact WCE")),
            }
        }
    });
    let memo_hit_rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
    TracedReport { traced_s, bdd_nodes: nodes, memo_hit_rate, ok: failure.is_none(), failure }
}
