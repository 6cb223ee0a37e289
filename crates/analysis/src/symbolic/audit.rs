//! Bound-vs-exact soundness audit: every PR 2 static [`ErrorBound`]
//! checked against the provable metrics of [`super::metrics`].
//!
//! The static layer promises *sound* over-approximation: for every input
//! vector, `approx − exact ≤ bound.over` and `exact − approx ≤
//! bound.under`, with `mean_abs` and `error_rate_bound` sound under
//! uniform primary inputs. Until now that promise was spot-checked by
//! sampling ([`crate::validate`]). This module turns it into a closed
//! regression: for every shipped configuration with 8-bit-and-under
//! operands (≤ 16 primary input bits) the exact WCE / directional
//! extremes / error rate / MED are computed on BDDs and compared field by
//! field against the static bound. Any exact value exceeding its bound is
//! an unsoundness — `xlac-lint --exact` fails on it — and the recorded
//! slack (`bound − exact`) measures how conservative the abstract domain
//! really is, per configuration.

use std::fmt::Write as _;

use xlac_adders::{Adder, FullAdderKind, GeArAdder, RippleCarryAdder, Subtractor};
use xlac_multipliers::{
    Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};

use super::bdd::{Bdd, Ref, FALSE};
use super::compile::{compile_netlist, interleaved_operand_vars};
use super::metrics::{exact_metrics, ExactMetrics};
use super::twins;
use crate::absint::derive_error_bound;
use crate::bound::ErrorBound;
use crate::components;

/// Relative tolerance for the floating-point bound fields (`mean_abs`,
/// `error_rate_bound`): the exact side is accumulated in integer model
/// counts and divided once, the bound side may round differently, so a
/// few ulps of headroom keep the comparison about soundness rather than
/// float formatting.
const FLOAT_SLOP: f64 = 1e-9;

/// One configuration's static bound laid side by side with its exact
/// metrics, plus the per-field soundness verdicts.
#[derive(Debug, Clone)]
pub struct BoundAudit {
    /// Configuration name (the component's own `name()`).
    pub name: String,
    /// Primary input bits of the audited datapath.
    pub n_inputs: usize,
    /// Static worst-case bound, `max(over, under)`.
    pub bound_wce: u128,
    /// Exact worst-case error.
    pub exact_wce: u128,
    /// `bound_wce − exact_wce` (how conservative the static domain is).
    pub wce_slack: u128,
    /// Static overshoot bound vs exact largest overshoot.
    pub bound_over: u128,
    /// Exact largest overshoot.
    pub exact_over: u128,
    /// Static undershoot bound vs exact largest undershoot.
    pub bound_under: u128,
    /// Exact largest undershoot.
    pub exact_under: u128,
    /// Static uniform-input error-rate bound.
    pub bound_error_rate: f64,
    /// Exact uniform-input error rate.
    pub exact_error_rate: f64,
    /// Static uniform-input mean-absolute-error bound.
    pub bound_mean_abs: f64,
    /// Exact mean error distance.
    pub exact_med: f64,
    /// `true` when every exact field is within its bound — the soundness
    /// contract of DESIGN.md §9, now proven rather than sampled.
    pub sound: bool,
}

impl BoundAudit {
    fn new(name: String, bound: &ErrorBound, exact: &ExactMetrics) -> Self {
        let sound = bound.over >= exact.max_overshoot
            && bound.under >= exact.max_undershoot
            && bound.wce() >= exact.worst_case_error
            && bound.error_rate_bound + FLOAT_SLOP >= exact.error_rate
            && bound.mean_abs + FLOAT_SLOP >= exact.mean_error_distance;
        BoundAudit {
            name,
            n_inputs: exact.n_inputs,
            bound_wce: bound.wce(),
            exact_wce: exact.worst_case_error,
            wce_slack: bound.wce().saturating_sub(exact.worst_case_error),
            bound_over: bound.over,
            exact_over: exact.max_overshoot,
            bound_under: bound.under,
            exact_under: exact.max_undershoot,
            bound_error_rate: bound.error_rate_bound,
            exact_error_rate: exact.error_rate,
            bound_mean_abs: bound.mean_abs,
            exact_med: exact.mean_error_distance,
            sound,
        }
    }
}

/// One exact reference shared by a group of datapaths over the same
/// inputs. The input variables and the reference word are built once in
/// one manager; each datapath's twin is garbage-collected away once its
/// metrics are taken. The variable order never changes and equal
/// functions have equal diagrams, so the metrics — witness included —
/// equal those of a fresh manager per datapath field for field.
struct SharedReference {
    bdd: Bdd,
    /// Operand `a` of a two-operand datapath, or every input of a netlist.
    a: Vec<Ref>,
    /// Operand `b` of a two-operand datapath; empty for a netlist.
    b: Vec<Ref>,
    reference: Vec<Ref>,
}

impl SharedReference {
    /// A `width`-bit two-operand reference over the interleaved order.
    fn two_operand(
        width: usize,
        reference: impl FnOnce(&mut Bdd, &[Ref], &[Ref]) -> Vec<Ref>,
    ) -> Self {
        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, width);
        let reference = reference(&mut bdd, &a, &b);
        SharedReference { bdd, a, b, reference }
    }

    /// A netlist reference, circuit input `i` bound to variable `i`.
    fn netlist(exact: &xlac_logic::Netlist) -> Self {
        let mut bdd = Bdd::new();
        let a: Vec<Ref> = (0..exact.n_inputs()).map(|i| bdd.var(i)).collect();
        let reference = compile_netlist(&mut bdd, exact, &a);
        SharedReference { bdd, a, b: Vec::new(), reference }
    }

    /// Exact metrics of one datapath, built by `twin` over the operands,
    /// against the reference.
    fn metrics(&mut self, twin: impl FnOnce(&mut Bdd, &[Ref], &[Ref]) -> Vec<Ref>) -> ExactMetrics {
        let approx = twin(&mut self.bdd, &self.a, &self.b);
        let n_inputs = self.a.len() + self.b.len();
        let metrics = exact_metrics(&mut self.bdd, &approx, &self.reference, n_inputs);
        let roots: Vec<Ref> =
            self.a.iter().chain(&self.b).chain(&self.reference).copied().collect();
        self.bdd.gc(&roots);
        metrics
    }
}

/// Audits an automatically derived bound: [`derive_error_bound`] runs on
/// the raw `(approx, exact)` netlist pair — no hand-wired propagation
/// rule anywhere — and the result is compared against the exact BDD
/// metrics of the very same pair, `reference` holding `exact` compiled.
/// Output words of different widths compare zero-extended, so adders
/// with carry-out audit against flag-less references cleanly.
fn audit_derived_pair(
    reference: &mut SharedReference,
    name: &str,
    approx: &xlac_logic::Netlist,
    exact: &xlac_logic::Netlist,
) -> BoundAudit {
    let bound = derive_error_bound(approx, exact).expect("registry pairs share their input arity");
    let metrics = reference.metrics(|bdd, vars, _| compile_netlist(bdd, approx, vars));
    BoundAudit::new(format!("absint:{name}"), &bound, &metrics)
}

/// The abstract-interpretation sweep: every ≤ 16-input registry module's
/// automatically derived bound, audited against exact metrics. These are
/// the entries `scripts/ci.sh`'s `absint_gate` step parses out of the
/// `--exact --json` report.
fn absint_audits() -> Vec<BoundAudit> {
    use xlac_adders::hw::subtractor_netlist;
    use xlac_multipliers::hw::wallace_netlist;
    let mut audits = Vec::new();

    for d in xlac_adders::approx_cell_descriptors() {
        let exact = d.reference_netlist();
        audits.push(audit_derived_pair(
            &mut SharedReference::netlist(exact),
            &format!("cell/{}", d.name()),
            d.netlist(),
            exact,
        ));
    }
    let accurate_fa = FullAdderKind::Accurate.structural_netlist();
    let mut reference = SharedReference::netlist(&accurate_fa);
    for kind in FullAdderKind::APPROXIMATE {
        audits.push(audit_derived_pair(
            &mut reference,
            &kind.to_string(),
            &kind.structural_netlist(),
            &accurate_fa,
        ));
    }
    let accurate_mul2x2 = Mul2x2Kind::Accurate.netlist();
    let mut reference = SharedReference::netlist(&accurate_mul2x2);
    for kind in Mul2x2Kind::ALL {
        if kind != Mul2x2Kind::Accurate {
            audits.push(audit_derived_pair(
                &mut reference,
                &format!("mul2x2_{kind}"),
                &kind.netlist(),
                &accurate_mul2x2,
            ));
        }
    }
    let accurate_rca = xlac_adders::hw::ripple_netlist(&RippleCarryAdder::accurate(8));
    let mut reference = SharedReference::netlist(&accurate_rca);
    for kind in FullAdderKind::APPROXIMATE {
        let rca =
            RippleCarryAdder::with_approx_lsbs(8, kind, 4).expect("shipped configuration");
        audits.push(audit_derived_pair(
            &mut reference,
            &rca.name(),
            &xlac_adders::hw::ripple_netlist(&rca),
            &accurate_rca,
        ));
    }
    {
        let gear = GeArAdder::new(8, 2, 2).expect("shipped configuration");
        audits.push(audit_derived_pair(
            &mut reference,
            &gear.name(),
            &xlac_adders::hw::gear_netlist(&gear),
            &accurate_rca,
        ));
    }
    let exact_sub =
        subtractor_netlist(&Subtractor::new(RippleCarryAdder::accurate(8)));
    let mut reference = SharedReference::netlist(&exact_sub);
    for kind in FullAdderKind::APPROXIMATE {
        let sub = Subtractor::new(
            RippleCarryAdder::with_approx_lsbs(8, kind, 4).expect("shipped configuration"),
        );
        audits.push(audit_derived_pair(
            &mut reference,
            &sub.name(),
            &subtractor_netlist(&sub),
            &exact_sub,
        ));
    }
    let accurate_wallace = wallace_netlist(
        &WallaceMultiplier::new(8, FullAdderKind::Accurate, 0).expect("accurate Wallace"),
    );
    let mut reference = SharedReference::netlist(&accurate_wallace);
    for (kind, cols) in WALLACE_CONFIGS {
        let mul = WallaceMultiplier::new(8, kind, cols).expect("shipped configuration");
        audits.push(audit_derived_pair(
            &mut reference,
            &mul.name(),
            &wallace_netlist(&mul),
            &accurate_wallace,
        ));
    }
    audits
}

/// The shipped 8-bit Wallace configurations: `(cell, approximate columns)`.
const WALLACE_CONFIGS: [(FullAdderKind, usize); 3] =
    [(FullAdderKind::Apx2, 4), (FullAdderKind::Apx4, 8), (FullAdderKind::Apx5, 8)];

/// An 8-bit multiplier the audit covers with both its static bound and
/// its compositional-calculus envelope.
enum AuditedMul {
    Recursive(RecursiveMultiplier),
    Wallace(WallaceMultiplier),
    Truncated(TruncatedMultiplier),
}

impl AuditedMul {
    /// Every audited multiplier, in the order of the static audits:
    /// recursive (every block kind × both summation modes, as shipped by
    /// `builtin_profiles`), Wallace, truncated (compensated and not).
    fn roster() -> Vec<AuditedMul> {
        let mut out = Vec::new();
        for block in Mul2x2Kind::ALL {
            for sum in
                [SumMode::Accurate, SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 2 }]
            {
                out.push(AuditedMul::Recursive(
                    RecursiveMultiplier::new(8, block, sum).expect("shipped configuration"),
                ));
            }
        }
        for (kind, cols) in WALLACE_CONFIGS {
            out.push(AuditedMul::Wallace(
                WallaceMultiplier::new(8, kind, cols).expect("shipped configuration"),
            ));
        }
        for (dropped, compensated) in [(2, false), (4, true), (6, true)] {
            out.push(AuditedMul::Truncated(
                TruncatedMultiplier::new(8, dropped, compensated).expect("shipped configuration"),
            ));
        }
        out
    }

    fn name(&self) -> String {
        match self {
            AuditedMul::Recursive(m) => m.name(),
            AuditedMul::Wallace(m) => m.name(),
            AuditedMul::Truncated(m) => m.name(),
        }
    }

    fn twin(&self, bdd: &mut Bdd, a: &[Ref], b: &[Ref]) -> Vec<Ref> {
        match self {
            AuditedMul::Recursive(m) => {
                twins::recursive_multiplier(bdd, 8, m.block(), m.sum_mode(), a, b)
            }
            AuditedMul::Wallace(m) => twins::wallace_multiplier(bdd, m, a, b),
            AuditedMul::Truncated(m) => twins::truncated_multiplier(bdd, m, a, b),
        }
    }

    fn static_bound(&self) -> ErrorBound {
        match self {
            AuditedMul::Recursive(m) => components::recursive_multiplier_bound(m),
            AuditedMul::Wallace(m) => components::wallace_bound(m),
            AuditedMul::Truncated(m) => components::truncated_bound(m),
        }
    }

    fn calculus_bound(&self) -> ErrorBound {
        match self {
            AuditedMul::Recursive(m) => super::calculus::recursive_calculus(m).to_error_bound(),
            AuditedMul::Wallace(m) => super::calculus::wallace_calculus(m, None).to_error_bound(),
            AuditedMul::Truncated(m) => super::calculus::truncated_calculus(m).to_error_bound(),
        }
    }
}

/// Runs the full audit: every shipped configuration whose operand width
/// admits exact analysis (8-bit-and-under datapaths, plus the 2×2
/// elementary blocks). The larger GeAr geometries (22–32 input bits)
/// stay covered by the sampled [`crate::validate`] checks.
///
/// Each datapath's exact metrics are computed once, against a reference
/// built once for every datapath that shares it, and checked against
/// every bound that covers the datapath.
#[must_use]
pub fn audit_bounds() -> Vec<BoundAudit> {
    let mut audits = Vec::new();

    // Ripple adders: 8-bit, 4 approximate LSB cells, all five Table III
    // approximate full adders. Exact reference: a + b with carry-out.
    let mut sum = SharedReference::two_operand(8, |bdd, a, b| twins::add_exact(bdd, a, b, FALSE));
    for kind in FullAdderKind::APPROXIMATE {
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4)
            .expect("shipped configuration");
        let exact = sum.metrics(|bdd, a, b| twins::ripple_adder(bdd, &rca, a, b));
        audits.push(BoundAudit::new(rca.name(), &components::ripple_adder_bound(&rca), &exact));
    }

    // The one GeAr geometry with ≤ 16 input bits. Plain (uncorrected)
    // addition — exactly what the static bound covers.
    let gear = GeArAdder::new(8, 2, 2).expect("shipped configuration");
    let exact = sum.metrics(|bdd, a, b| twins::gear_adder(bdd, &gear, a, b, 0));
    audits.push(BoundAudit::new(gear.name(), &components::gear_adder_bound(&gear), &exact));

    // Subtractors over each approximate ripple core. Exact reference:
    // the same datapath built on an accurate adder, i.e. |a − b|.
    let exact_sub = Subtractor::new(RippleCarryAdder::accurate(8));
    let mut difference =
        SharedReference::two_operand(8, |bdd, a, b| twins::subtractor(bdd, &exact_sub, a, b).0);
    for kind in FullAdderKind::APPROXIMATE {
        let sub = Subtractor::new(
            RippleCarryAdder::with_approx_lsbs(8, kind, 4).expect("shipped configuration"),
        );
        let exact = difference.metrics(|bdd, a, b| twins::subtractor(bdd, &sub, a, b).0);
        audits.push(BoundAudit::new(sub.name(), &components::subtractor_bound(&sub), &exact));
    }

    // Elementary 2×2 blocks (Fig. 5): 4 primary inputs.
    let mut block_product = SharedReference::two_operand(2, |bdd, a, b| {
        twins::mul2x2(bdd, Mul2x2Kind::Accurate, a[0], a[1], b[0], b[1]).to_vec()
    });
    for kind in Mul2x2Kind::ALL {
        let exact = block_product
            .metrics(|bdd, a, b| twins::mul2x2(bdd, kind, a[0], a[1], b[0], b[1]).to_vec());
        let name = format!("mul2x2_{kind}");
        audits.push(BoundAudit::new(name, &components::mul2x2_bound(kind), &exact));
    }

    // 8-bit recursive, Wallace and truncated multipliers against their
    // static bounds.
    let mut product = SharedReference::two_operand(8, twins::mul_exact);
    let muls: Vec<(AuditedMul, ExactMetrics)> = AuditedMul::roster()
        .into_iter()
        .map(|m| {
            let exact = product.metrics(|bdd, a, b| m.twin(bdd, a, b));
            (m, exact)
        })
        .collect();
    for (m, exact) in &muls {
        audits.push(BoundAudit::new(m.name(), &m.static_bound(), exact));
    }

    // The compositional error calculus' certified envelopes, regressed
    // against the same monolithic metrics. For the Wallace and truncated
    // families the calculus certifies the exact distribution, so the
    // envelope must match the monolithic proof with zero WCE slack; the
    // recursive intervals must contain it. Wallace and truncated come
    // first here, then recursive.
    let (recursive, rest): (Vec<_>, Vec<_>) =
        muls.iter().partition(|(m, _)| matches!(m, AuditedMul::Recursive(_)));
    for (m, exact) in rest.into_iter().chain(recursive) {
        let name = format!("calculus:{}", m.name());
        audits.push(BoundAudit::new(name, &m.calculus_bound(), exact));
    }

    audits.extend(absint_audits());

    audits
}

/// Serializes the audit table as a JSON array (hand-rolled like every
/// other report in the workspace — the build stays dependency-free).
#[must_use]
pub fn audits_to_json(audits: &[BoundAudit]) -> String {
    let mut out = String::from("[\n");
    for (i, a) in audits.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"name\": {:?}, \"n_inputs\": {}, \"bound_wce\": {}, \"exact_wce\": {}, \
             \"wce_slack\": {}, \"bound_over\": {}, \"exact_over\": {}, \"bound_under\": {}, \
             \"exact_under\": {}, \"bound_error_rate\": {:.9}, \"exact_error_rate\": {:.9}, \
             \"bound_mean_abs\": {:.9}, \"exact_med\": {:.9}, \"sound\": {}}}",
            a.name,
            a.n_inputs,
            a.bound_wce,
            a.exact_wce,
            a.wce_slack,
            a.bound_over,
            a.exact_over,
            a.bound_under,
            a.exact_under,
            a.bound_error_rate,
            a.exact_error_rate,
            a.bound_mean_abs,
            a.exact_med,
            a.sound
        );
        out.push_str(if i + 1 == audits.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The full audit, run once per test binary and shared by the tests
    /// that inspect it.
    fn full_audit() -> &'static [BoundAudit] {
        static AUDITS: OnceLock<Vec<BoundAudit>> = OnceLock::new();
        AUDITS.get_or_init(audit_bounds)
    }

    #[test]
    fn every_static_bound_is_sound_against_exact_metrics() {
        let audits = full_audit();
        assert!(audits.len() >= 20, "expected the full config sweep, got {}", audits.len());
        for a in audits {
            assert!(
                a.sound,
                "{}: bound (over {}, under {}, rate {}, mean {}) vs exact \
                 (over {}, under {}, rate {}, med {})",
                a.name,
                a.bound_over,
                a.bound_under,
                a.bound_error_rate,
                a.bound_mean_abs,
                a.exact_over,
                a.exact_under,
                a.exact_error_rate,
                a.exact_med
            );
        }
    }

    #[test]
    fn calculus_envelopes_match_the_monolithic_proof_where_exact() {
        let audits = full_audit();
        let calculus: Vec<&BoundAudit> =
            audits.iter().filter(|a| a.name.starts_with("calculus:")).collect();
        assert!(calculus.len() >= 12, "calculus audit sweep missing configs");
        for a in &calculus {
            assert!(a.sound, "{}: certified envelope unsound", a.name);
            if a.name.contains("Wallace") || a.name.contains("TruncMul") {
                assert_eq!(
                    a.wce_slack, 0,
                    "{}: exact distribution must have zero WCE slack",
                    a.name
                );
                assert!(
                    (a.bound_error_rate - a.exact_error_rate).abs() < 1e-9,
                    "{}: exact distribution must reproduce the error rate",
                    a.name
                );
            }
        }
    }

    #[test]
    fn derived_absint_bounds_are_sound_and_tight_on_small_registry_modules() {
        let audits = full_audit();
        let absint: Vec<&BoundAudit> =
            audits.iter().filter(|a| a.name.starts_with("absint:")).collect();
        assert!(absint.len() >= 20, "absint sweep missing configs: {}", absint.len());
        for a in &absint {
            assert!(a.sound, "{}: derived bound unsound", a.name);
            assert!(a.n_inputs <= 16, "{}: sweep is the ≤16-input registry", a.name);
            // ≤ 16 inputs means the derivation ran its exhaustive leg, so
            // the envelope is not merely sound but *exact* — zero WCE
            // slack and matching rate/mean. This pins the engine's
            // precision, not just its soundness.
            assert_eq!(a.wce_slack, 0, "{}: exhaustive derivation must be tight", a.name);
            assert!(
                (a.bound_error_rate - a.exact_error_rate).abs() < 1e-9,
                "{}: rate {} vs exact {}",
                a.name,
                a.bound_error_rate,
                a.exact_error_rate
            );
            assert!(
                (a.bound_mean_abs - a.exact_med).abs() < 1e-6,
                "{}: mean {} vs exact {}",
                a.name,
                a.bound_mean_abs,
                a.exact_med
            );
        }
    }

    #[test]
    fn shared_reference_metrics_equal_a_fresh_manager_per_multiplier() {
        let mut product = SharedReference::two_operand(8, twins::mul_exact);
        for m in AuditedMul::roster() {
            let shared = product.metrics(|bdd, a, b| m.twin(bdd, a, b));
            let mut bdd = Bdd::new();
            let (a, b) = interleaved_operand_vars(&mut bdd, 8);
            let approx = m.twin(&mut bdd, &a, &b);
            let reference = twins::mul_exact(&mut bdd, &a, &b);
            let fresh = exact_metrics(&mut bdd, &approx, &reference, 16);
            // Field-by-field equality, the worst-case witness included.
            assert_eq!(shared, fresh, "{}", m.name());
        }
    }

    #[test]
    fn mul_exact_matches_scalar_multiplication() {
        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, 4);
        let p = twins::mul_exact(&mut bdd, &a, &b);
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut assignment = 0u64;
                for i in 0..4 {
                    assignment |= ((x >> i) & 1) << (2 * i);
                    assignment |= ((y >> i) & 1) << (2 * i + 1);
                }
                let mut got = 0u64;
                for (k, &bit) in p.iter().enumerate() {
                    got |= u64::from(bdd.eval(bit, assignment)) << k;
                }
                assert_eq!(got, x * y, "{x} * {y}");
            }
        }
    }

    #[test]
    fn json_report_carries_slack_per_configuration() {
        let audits = &full_audit()[..3];
        let json = audits_to_json(audits);
        assert!(json.contains("\"wce_slack\""));
        assert!(json.contains("\"sound\": true"));
    }
}
