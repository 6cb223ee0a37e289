//! Per-distribution design-space exploration over the descriptor-native
//! unit library.
//!
//! The uniform-input Pareto fronts of [`crate::mul_space`] answer "which
//! design wins on random data" — but the paper's cross-layer pitch is
//! that the *application* layer knows its operand statistics, and the
//! right approximate unit depends on them. This module scores one
//! combined space — the word-level adder descriptors from `xlac_adders`
//! plus the netlist-backed multiplier trees from `xlac_multipliers` —
//! under every [`InputDistribution`], with **exact** PMF-weighted error
//! metrics (no sampling noise: the 8-bit operand space is enumerated in
//! full, weighted by the distribution's integer PMF), and extracts a
//! Pareto front per distribution and per operator class.
//!
//! The Monte-Carlo twin ([`measured_stats`]) runs the same configuration
//! through the bit-sliced `xlac-sim` engine with the same distribution
//! threaded into the operand draw — the convergence of the two legs is
//! pinned by this module's property tests. Each configuration compiles
//! its netlist once, when it is built, and the twin sweeps that program
//! on 512-lane blocks; the gate-at-a-time interpreter
//! ([`xlac_sim::interpreted_pair_sweep`]) over the same netlist is its
//! reference, equal to it statistic for statistic.
//!
//! # Example
//!
//! ```
//! use xlac_core::dist::InputDistribution;
//! use xlac_explore::dist_space::score_distribution_space;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let front = score_distribution_space(8, InputDistribution::SparsePeaked)?;
//! assert!(!front.adder_front.is_empty());
//! assert!(!front.multiplier_front.is_empty());
//! # Ok(())
//! # }
//! ```

use crate::pareto::try_pareto_frontier;
use xlac_adders::{cla8, csa8, loa8_l3, ofloca8, skl8, UnitDescriptor};
use xlac_core::characterization::HwCost;
use xlac_core::dist::{exact_pair_metrics, DistExactMetrics, InputDistribution};
use xlac_core::error::{Result, XlacError};
use xlac_core::lanes;
use xlac_core::metrics::ErrorStats;
use xlac_logic::netlist::Netlist;
use xlac_multipliers::hw::wallace_netlist;
use xlac_multipliers::{CompressKnob, CompressorMultiplier, Multiplier, WallaceMultiplier};
use xlac_obs::{obs_count, obs_span};
use xlac_sim::{compiled_pair_sweep, fan_out, CompiledProgram, SweepOptions};

/// Seed for the deterministic switching-activity power estimates of the
/// word-adder descriptors (the multiplier families carry their own).
const POWER_SEED: u64 = 0xD157;

/// Operator class of a configuration — fronts are extracted per class,
/// because an adder's error-distance scale is incommensurable with a
/// multiplier's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `width`-bit adder: exact reference `a + b`.
    Adder,
    /// `width × width` multiplier: exact reference `a · b`.
    Multiplier,
}

/// One netlist-backed configuration of the combined space. Every leg —
/// exact PMF scoring, Monte-Carlo sweeps, cost — runs off the stored
/// netlist (the sweeps through its compiled program), so the two metric
/// paths measure the same hardware.
#[derive(Debug, Clone)]
pub struct DistConfig {
    name: String,
    family: Family,
    width: usize,
    netlist: Netlist,
    program: CompiledProgram,
    cost: HwCost,
}

impl DistConfig {
    /// Configuration name (unique within the enumerated space).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operator class.
    #[must_use]
    pub fn family(&self) -> Family {
        self.family
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The configuration's gate netlist (inputs `0..w` = a, `w..2w` = b).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Hardware cost (area / power proxy / delay).
    #[must_use]
    pub fn cost(&self) -> HwCost {
        self.cost
    }

    /// The exact reference function of this configuration's class.
    #[must_use]
    pub fn exact_fn(&self) -> fn(u64, u64) -> u64 {
        match self.family {
            Family::Adder => |a, b| a + b,
            Family::Multiplier => |a, b| a * b,
        }
    }

    fn new(name: String, family: Family, width: usize, netlist: Netlist, cost: HwCost) -> Self {
        let program = CompiledProgram::compile(&netlist);
        DistConfig { name, family, width, netlist, program, cost }
    }

    fn from_word_adder(d: &UnitDescriptor) -> DistConfig {
        let netlist = d.netlist().clone();
        let cost = HwCost {
            area_ge: netlist.area_ge(),
            power_nw: netlist.switching_power(512, POWER_SEED),
            delay: netlist.delay(),
        };
        let width = netlist.n_inputs() / 2;
        DistConfig::new(d.name().to_string(), Family::Adder, width, netlist, cost)
    }

    fn from_comptree(m: &CompressorMultiplier) -> DistConfig {
        let netlist = m.netlist().clone();
        DistConfig::new(m.name(), Family::Multiplier, m.width(), netlist, m.hw_cost())
    }

    fn from_wallace(m: &WallaceMultiplier) -> DistConfig {
        DistConfig::new(m.name(), Family::Multiplier, m.width(), wallace_netlist(m), m.hw_cost())
    }
}

/// Exhaustive response table of a `2w`-input netlist, indexed by the
/// packed operand pair `a | (b << w)`, computed 64 rows per
/// `eval_words` pass.
fn response_table(netlist: &Netlist, n_inputs: usize) -> Vec<u64> {
    let total = 1usize << n_inputs;
    let mut table = Vec::with_capacity(total);
    let mut planes = vec![0u64; n_inputs];
    let mut base = 0usize;
    while base < total {
        let lanes_n = 64.min(total - base);
        for (i, p) in planes.iter_mut().enumerate() {
            let mut word = 0u64;
            for lane in 0..lanes_n {
                word |= ((((base + lane) >> i) as u64) & 1) << lane;
            }
            *p = word;
        }
        let outs = netlist.eval_words(&planes);
        for lane in 0..lanes_n {
            table.push(lanes::lane(&outs, lane));
        }
        base += lanes_n;
    }
    table
}

/// Enumerates the combined per-distribution space at the given operand
/// width: the word-level adder descriptors (at their native width 8) and
/// the netlist-backed multiplier trees (compressor-tree knobs plus
/// approximate Wallace columns).
///
/// # Errors
///
/// [`XlacError::InvalidWidth`] outside `2..=8` — the exact PMF scoring
/// enumerates all `2^{2w}` operand pairs, so the space stays in the
/// exhaustively-verifiable regime by construction.
pub fn enumerate_distribution_space(width: usize) -> Result<Vec<DistConfig>> {
    if !(2..=8).contains(&width) {
        return Err(XlacError::InvalidWidth { width, max: 8 });
    }
    let mut configs = Vec::new();

    // Word-level adder descriptors ship at width 8 only.
    if width == 8 {
        for d in [loa8_l3(), ofloca8(), cla8(), csa8(), skl8()] {
            configs.push(DistConfig::from_word_adder(&d));
        }
    }

    // Compressor-tree family: exact baseline plus each knob axis.
    let comptrees = [
        (CompressKnob::Exact, 0, 0, 0),
        (CompressKnob::Miscount, 2 * width, 0, 0),
        (CompressKnob::OrCompress, 2 * width, 0, 0),
        (CompressKnob::Exact, 0, width / 2, 0),
        (CompressKnob::Miscount, width, 1, 1),
    ];
    for (knob, kc, tc, tr) in comptrees {
        configs.push(DistConfig::from_comptree(&CompressorMultiplier::new(
            width, knob, kc, tc, tr,
        )?));
    }

    // Wallace family: exact baseline plus approximate low columns.
    configs.push(DistConfig::from_wallace(&WallaceMultiplier::new(
        width,
        xlac_adders::FullAdderKind::Accurate,
        0,
    )?));
    configs.push(DistConfig::from_wallace(&WallaceMultiplier::new(
        width,
        xlac_adders::FullAdderKind::Apx5,
        width / 2 + 2,
    )?));

    Ok(configs)
}

/// A configuration scored under one input distribution.
#[derive(Debug, Clone)]
pub struct DistPoint {
    /// Configuration name.
    pub name: String,
    /// Operator class.
    pub family: Family,
    /// Hardware cost.
    pub cost: HwCost,
    /// Exact PMF-weighted error metrics under the distribution.
    pub metrics: DistExactMetrics,
}

/// The scored space and its Pareto fronts under one input distribution.
#[derive(Debug, Clone)]
pub struct DistFront {
    /// The distribution these scores are weighted by.
    pub dist: InputDistribution,
    /// Every configuration of the space, scored.
    pub points: Vec<DistPoint>,
    /// Names of the `(area, mean-error-distance)` Pareto-optimal adders.
    pub adder_front: Vec<String>,
    /// Names of the Pareto-optimal multipliers, same objectives.
    pub multiplier_front: Vec<String>,
}

/// Exact PMF-weighted error metrics of one configuration under a
/// distribution: the full `2^{2w}` operand space is enumerated through
/// the netlist (64 rows at a time) and weighted by the distribution's
/// integer PMF — no sampling anywhere.
///
/// # Errors
///
/// Propagates the PMF width gate ([`XlacError::InvalidWidth`]).
pub fn exact_config_metrics(
    config: &DistConfig,
    dist: InputDistribution,
) -> Result<DistExactMetrics> {
    table_metrics(config, &response_table(&config.netlist, 2 * config.width()), dist)
}

/// [`exact_config_metrics`] from the configuration's response table.
fn table_metrics(
    config: &DistConfig,
    table: &[u64],
    dist: InputDistribution,
) -> Result<DistExactMetrics> {
    let w = config.width();
    exact_pair_metrics(dist, w, |a, b| table[(a | (b << w)) as usize], config.exact_fn())
}

fn family_front(points: &[DistPoint], family: Family) -> Result<Vec<String>> {
    let members: Vec<&DistPoint> = points.iter().filter(|p| p.family == family).collect();
    let front = try_pareto_frontier(
        &members,
        &[&|p: &&DistPoint| p.cost.area_ge, &|p| p.metrics.mean_error_distance],
    )?;
    Ok(front.iter().map(|p| p.name.clone()).collect())
}

/// Scores the combined space under one distribution and extracts the
/// per-class Pareto fronts (minimize area, minimize PMF-weighted mean
/// error distance).
///
/// # Errors
///
/// Propagates enumeration and PMF width gates.
pub fn score_distribution_space(width: usize, dist: InputDistribution) -> Result<DistFront> {
    let _span = obs_span!("explore.dist_space");
    let configs = enumerate_distribution_space(width)?;
    let metrics =
        configs.iter().map(|c| exact_config_metrics(c, dist)).collect::<Result<Vec<_>>>()?;
    scored_front(dist, &configs, metrics)
}

/// The space scored under `dist` (`metrics[i]` belongs to `configs[i]`)
/// and its per-class Pareto fronts.
fn scored_front(
    dist: InputDistribution,
    configs: &[DistConfig],
    metrics: impl IntoIterator<Item = DistExactMetrics>,
) -> Result<DistFront> {
    obs_count!("explore.dist.configs", configs.len() as u64);
    let points: Vec<DistPoint> = configs
        .iter()
        .zip(metrics)
        .map(|(c, metrics)| DistPoint {
            name: c.name().to_string(),
            family: c.family(),
            cost: c.cost(),
            metrics,
        })
        .collect();
    let adder_front = family_front(&points, Family::Adder)?;
    let multiplier_front = family_front(&points, Family::Multiplier)?;
    Ok(DistFront { dist, points, adder_front, multiplier_front })
}

/// One [`DistFront`] per shipped distribution
/// ([`InputDistribution::ALL`]): the uniform baseline plus the three
/// non-uniform shapes.
///
/// The space is enumerated once, and each configuration's response table
/// is built once and scored under every distribution. Configurations are
/// independent units, fanned out on [`xlac_sim::default_threads`]
/// workers ([`fan_out`]); the fronts are the same for any worker count.
///
/// # Errors
///
/// Propagates enumeration and PMF width gates.
pub fn distribution_fronts(width: usize) -> Result<Vec<DistFront>> {
    distribution_fronts_on(width, 0)
}

/// [`distribution_fronts`] on `threads` workers (`0` → the default).
fn distribution_fronts_on(width: usize, threads: usize) -> Result<Vec<DistFront>> {
    let _span = obs_span!("explore.dist_space");
    let configs = enumerate_distribution_space(width)?;
    // `scores[i][d]`: configuration `i` under distribution `d`.
    let scores = fan_out(configs.len(), threads, || (), |(), i| {
        let table = response_table(&configs[i].netlist, 2 * configs[i].width());
        InputDistribution::ALL
            .iter()
            .map(|&dist| table_metrics(&configs[i], &table, dist))
            .collect::<Result<Vec<_>>>()
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    InputDistribution::ALL
        .iter()
        .enumerate()
        .map(|(d, &dist)| scored_front(dist, &configs, scores.iter().map(|s| s[d].clone())))
        .collect()
}

/// The Monte-Carlo twin of [`exact_config_metrics`]: the configuration's
/// compiled netlist swept on 512-lane plane blocks
/// ([`compiled_pair_sweep`]) with `trials` operand pairs drawn from
/// `dist` (deterministic in `seed`, invariant in worker count). The
/// result equals [`xlac_sim::interpreted_pair_sweep`] over
/// [`DistConfig::netlist`] with the same options — same draw order, same
/// chunk streams — and converges on the exact PMF metrics as `trials`
/// grows; the module's tests pin both.
#[must_use]
pub fn measured_stats(
    config: &DistConfig,
    dist: InputDistribution,
    trials: u64,
    seed: u64,
) -> ErrorStats {
    let opts = SweepOptions::new(trials, seed).dist(dist);
    compiled_pair_sweep::<[u64; 8], _>(&config.program, config.width(), config.exact_fn(), &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(points: &'a [DistPoint], name: &str) -> &'a DistPoint {
        points.iter().find(|p| p.name == name).unwrap_or_else(|| panic!("{name} missing"))
    }

    #[test]
    fn space_has_both_families_with_unique_names() {
        let configs = enumerate_distribution_space(8).unwrap();
        assert!(configs.len() >= 12, "combined space too small: {}", configs.len());
        assert!(configs.iter().any(|c| c.family() == Family::Adder));
        assert!(configs.iter().any(|c| c.family() == Family::Multiplier));
        let mut names: Vec<&str> = configs.iter().map(DistConfig::name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate configuration names");
        // Every configuration has real hardware behind it.
        for c in &configs {
            assert!(c.cost().area_ge > 0.0, "{}", c.name());
            assert_eq!(c.netlist().n_inputs(), 2 * c.width(), "{}", c.name());
        }
    }

    #[test]
    fn width_gate_is_typed() {
        assert!(matches!(
            enumerate_distribution_space(9),
            Err(XlacError::InvalidWidth { width: 9, max: 8 })
        ));
        assert!(enumerate_distribution_space(1).is_err());
        // Narrow widths skip the fixed-width adder descriptors but keep
        // the multiplier families.
        let narrow = enumerate_distribution_space(4).unwrap();
        assert!(narrow.iter().all(|c| c.family() == Family::Multiplier));
        assert!(!narrow.is_empty());
    }

    #[test]
    fn exact_designs_are_exact_under_every_distribution() {
        let fronts = distribution_fronts(8).unwrap();
        assert_eq!(fronts.len(), InputDistribution::ALL.len());
        for front in &fronts {
            for name in ["CLA8", "CSA8", "SKL8", "CompTree(N=8)", "Wallace(N=8)"] {
                let pt = find(&front.points, name);
                assert_eq!(pt.metrics.error_rate, 0.0, "{name} under {}", front.dist.label());
                assert_eq!(pt.metrics.max_error_distance, 0, "{name}");
            }
        }
    }

    #[test]
    fn fronts_are_equal_at_one_and_three_workers_and_per_distribution() {
        let one = distribution_fronts_on(8, 1).unwrap();
        assert_eq!(format!("{one:?}"), format!("{:?}", distribution_fronts_on(8, 3).unwrap()));
        // Sharing each response table across distributions changes no
        // score: every front equals the one scored on its own.
        for front in &one {
            let alone = score_distribution_space(8, front.dist).unwrap();
            assert_eq!(format!("{front:?}"), format!("{alone:?}"));
        }
    }

    #[test]
    fn sparse_inputs_flatter_the_low_bit_or_adder() {
        // LOA's OR cells only err when both low operand bits are set;
        // SparsePeaked operands are mostly 0 or 2^{w-1}, so its error
        // rate collapses relative to uniform inputs — the whole point of
        // distribution-aware selection.
        let configs = enumerate_distribution_space(8).unwrap();
        let loa = configs.iter().find(|c| c.name() == "LOA8_L3").unwrap();
        let uniform = exact_config_metrics(loa, InputDistribution::Uniform).unwrap();
        let sparse = exact_config_metrics(loa, InputDistribution::SparsePeaked).unwrap();
        assert!(uniform.error_rate > 0.0);
        assert!(
            sparse.error_rate < uniform.error_rate / 2.0,
            "sparse {} vs uniform {}",
            sparse.error_rate,
            uniform.error_rate
        );
    }

    #[test]
    fn fronts_are_nonempty_and_mutually_non_dominated() {
        for front in distribution_fronts(8).unwrap() {
            for (names, family) in [
                (&front.adder_front, Family::Adder),
                (&front.multiplier_front, Family::Multiplier),
            ] {
                assert!(!names.is_empty(), "{:?} front empty under {}", family, front.dist.label());
                let members: Vec<&DistPoint> =
                    names.iter().map(|n| find(&front.points, n)).collect();
                // An exact design anchors the quality end of each front.
                assert!(
                    members.iter().any(|p| p.metrics.mean_error_distance == 0.0),
                    "{:?} front lacks an exact anchor under {}",
                    family,
                    front.dist.label()
                );
                for a in &members {
                    for b in &members {
                        if a.name != b.name {
                            let dominates = a.cost.area_ge <= b.cost.area_ge
                                && a.metrics.mean_error_distance <= b.metrics.mean_error_distance
                                && (a.cost.area_ge < b.cost.area_ge
                                    || a.metrics.mean_error_distance
                                        < b.metrics.mean_error_distance);
                            assert!(!dominates, "{} dominates {} on the front", a.name, b.name);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn measured_stats_equals_the_interpreted_sweep() {
        // 20 000 trials leave a partial final chunk (3 616 trials), whose
        // last 512-lane block and last 64-lane batch are partial too: the
        // padded lanes of the compiled sweep must not reach the statistics.
        let trials = 20_000;
        for (k, config) in enumerate_distribution_space(8).unwrap().iter().enumerate() {
            for &dist in &InputDistribution::ALL {
                let seed = 0x1E7 + k as u64;
                let got = measured_stats(config, dist, trials, seed);
                for threads in [1, 2] {
                    let opts = SweepOptions::new(trials, seed).dist(dist).threads(threads);
                    let want = xlac_sim::interpreted_pair_sweep(
                        config.netlist(),
                        config.width(),
                        config.exact_fn(),
                        &opts,
                    );
                    let label = dist.label();
                    assert_eq!(got, want, "{} under {label} at {threads} thread(s)", config.name());
                }
            }
        }
    }

    #[test]
    fn mc_metrics_converge_to_exact_pmf_metrics_for_every_distribution() {
        // The ISSUE's convergence property: for every shipped
        // distribution, the Monte-Carlo leg (bit-sliced sweep with the
        // distribution threaded into the operand draw) agrees with the
        // exact PMF-weighted enumeration within sampling tolerance.
        let configs = enumerate_distribution_space(8).unwrap();
        let picks: Vec<&DistConfig> = configs
            .iter()
            .filter(|c| {
                ["LOA8_L3", "OFLOCA8", "CompTree(N=8,ms<16)", "Wallace(N=8,6cols ApxFA5)"]
                    .contains(&c.name())
            })
            .collect();
        assert_eq!(picks.len(), 4, "convergence picks missing from the space");
        let trials = 131_072u64;
        for &dist in &InputDistribution::ALL {
            for config in &picks {
                let exact = exact_config_metrics(config, dist).unwrap();
                let mc = measured_stats(config, dist, trials, 0xD15C0);
                assert_eq!(mc.samples, trials);
                assert!(
                    (mc.error_rate - exact.error_rate).abs() < 0.01,
                    "{} under {}: MC rate {} vs exact {}",
                    config.name(),
                    dist.label(),
                    mc.error_rate,
                    exact.error_rate
                );
                let med_tol = 1.0 + exact.mean_error_distance * 0.1;
                assert!(
                    (mc.mean_error_distance - exact.mean_error_distance).abs() < med_tol,
                    "{} under {}: MC med {} vs exact {}",
                    config.name(),
                    dist.label(),
                    mc.mean_error_distance,
                    exact.mean_error_distance
                );
                // Every drawn operand pair lies in the PMF's support, so
                // the observed worst error never exceeds the proven one.
                assert!(
                    mc.max_error_distance <= exact.max_error_distance,
                    "{} under {}: observed {} above exact WCE {}",
                    config.name(),
                    dist.label(),
                    mc.max_error_distance,
                    exact.max_error_distance
                );
            }
        }
    }

    #[test]
    fn distribution_choice_reorders_the_space() {
        // Non-uniform statistics genuinely change the quality ranking —
        // scores are not a constant rescaling across distributions.
        let configs = enumerate_distribution_space(8).unwrap();
        let loa = configs.iter().find(|c| c.name() == "LOA8_L3").unwrap();
        let ofl = configs.iter().find(|c| c.name() == "OFLOCA8").unwrap();
        // The concrete, load-bearing claim: OFLOCA (constant-LSB) is hit
        // hard by sparse inputs (its forced `11` low bits err on zeros),
        // while LOA (OR cells) is flattered — their gap under
        // SparsePeaked differs from uniform by more than 2x.
        let gap = |d: InputDistribution| {
            let a = exact_config_metrics(loa, d).unwrap().error_rate;
            let b = exact_config_metrics(ofl, d).unwrap().error_rate;
            b - a
        };
        let uniform_gap = gap(InputDistribution::Uniform);
        let sparse_gap = gap(InputDistribution::SparsePeaked);
        assert!(
            (sparse_gap - uniform_gap).abs() > 0.05,
            "sparse gap {sparse_gap} vs uniform gap {uniform_gap}: distributions must matter"
        );
    }
}
