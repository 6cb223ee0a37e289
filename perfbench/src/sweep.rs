//! The `mc_sweep` workload: Monte-Carlo characterization sweeps.
//!
//! One **pass** runs the roster below at `trials` trials per sweep:
//! `explore::measured_stats` over every configuration of
//! `enumerate_distribution_space(8)` under every input distribution,
//! then the bit-sliced Wallace and recursive multiplier sweeps, the
//! GeAr16 sweep with error detection and correction, the SAD sweep and
//! the JIT-compiled Wallace pair sweep on 512-lane blocks.
//!
//! The traced replay re-runs three of these sweeps single-threaded
//! through the layers' public functions, drawing the operands in exactly
//! the order `sim::runner::run_chunks` hands them out, and times each
//! call: operand draw, plane transpose, evaluation, inverse transpose,
//! accumulation and the per-sweep merge.

use std::time::Instant;

use xlac_accel::sad::{SadAccelerator, SadVariant};
use xlac_adders::{FullAdderKind, GeArAdder};
use xlac_core::dist::InputDistribution;
use xlac_core::lanes::{self, PlaneBlock, LANES};
use xlac_core::metrics::{ErrorAccumulator, ErrorStats};
use xlac_core::rng::DefaultRng;
use xlac_explore::dist_space::{enumerate_distribution_space, measured_stats, DistConfig};
use xlac_logic::Netlist;
use xlac_multipliers::{
    Mul2x2Kind, MultiplierX64, RecursiveMultiplier, SumMode, WallaceMultiplier,
};
use xlac_sim::sweeps::{
    compiled_pair_sweep, gear_sweep, gear_sweep_scalar, interpreted_pair_sweep, multiplier_sweep,
    multiplier_sweep_scalar, sad_sweep, sad_sweep_scalar, GearSweepResult, SadSweepResult,
    SweepOptions,
};
use xlac_sim::CompiledProgram;

use crate::trace::Tracer;

/// Operand width of every roster sweep.
const WIDTH: usize = 8;

/// Seed of the `k`-th sweep of a pass.
fn sweep_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The datapaths a pass sweeps, built once in set-up.
pub struct Roster {
    configs: Vec<DistConfig>,
    wallace: WallaceMultiplier,
    wallace_netlist: Netlist,
    wallace_prog: CompiledProgram,
    recursive: RecursiveMultiplier,
    gear: GeArAdder,
    sad: SadAccelerator,
    /// Trials per sweep.
    pub trials: u64,
    /// Worker threads of the multi-threaded sweeps.
    pub threads: usize,
}

/// Every statistic one pass produces, compared across passes and
/// against the twins.
#[derive(Debug, Clone, PartialEq)]
pub struct PassStats {
    measured: Vec<ErrorStats>,
    wallace: ErrorStats,
    recursive: ErrorStats,
    gear: GearSweepResult,
    sad: SadSweepResult,
    compiled: ErrorStats,
}

impl Roster {
    /// Builds the roster's netlists and programs.
    ///
    /// # Panics
    ///
    /// Panics if a shipped configuration fails to construct.
    #[must_use]
    pub fn build(trials: u64, threads: usize) -> Roster {
        let wallace = WallaceMultiplier::new(WIDTH, FullAdderKind::Apx4, 8)
            .expect("shipped Wallace configuration");
        let wallace_netlist = xlac_multipliers::hw::wallace_netlist(&wallace);
        let wallace_prog = CompiledProgram::compile(&wallace_netlist);
        Roster {
            configs: enumerate_distribution_space(WIDTH).expect("width 8 is in range"),
            wallace,
            wallace_netlist,
            wallace_prog,
            recursive: RecursiveMultiplier::new(
                WIDTH,
                Mul2x2Kind::ApxSoA,
                SumMode::ApproxLsbs { kind: FullAdderKind::Apx1, lsbs: 2 },
            )
            .expect("shipped recursive configuration"),
            gear: GeArAdder::new(16, 4, 4).expect("shipped GeAr configuration"),
            sad: SadAccelerator::new(16, SadVariant::ApxSad3, 3)
                .expect("shipped SAD configuration"),
            trials,
            threads,
        }
    }

    /// Number of sweeps in one pass.
    #[must_use]
    pub fn sweeps(&self) -> usize {
        self.configs.len() * InputDistribution::ALL.len() + 5
    }

    /// Trials evaluated by one pass.
    #[must_use]
    pub fn trials_per_pass(&self) -> u64 {
        self.trials * self.sweeps() as u64
    }

    fn opts(&self, seed: u64, k: usize) -> SweepOptions {
        SweepOptions::new(self.trials, sweep_seed(seed, k)).threads(self.threads)
    }

    /// The `measured_stats` sweeps' options, in roster order, with the
    /// configuration each belongs to.
    fn measured_roster(&self) -> impl Iterator<Item = (usize, &DistConfig, InputDistribution)> {
        self.configs
            .iter()
            .flat_map(|c| InputDistribution::ALL.into_iter().map(move |d| (c, d)))
            .enumerate()
            .map(|(k, (c, d))| (k, c, d))
    }

    /// Runs one pass at `seed`.
    #[must_use]
    pub fn pass(&self, seed: u64) -> PassStats {
        let measured = self
            .measured_roster()
            .map(|(k, c, d)| measured_stats(c, d, self.trials, sweep_seed(seed, k)))
            .collect();
        let k0 = self.configs.len() * InputDistribution::ALL.len();
        PassStats {
            measured,
            wallace: multiplier_sweep(&self.wallace, &self.opts(seed, k0)),
            recursive: multiplier_sweep(&self.recursive, &self.opts(seed, k0 + 1)),
            gear: gear_sweep(&self.gear, Some(usize::MAX), &self.opts(seed, k0 + 2)),
            sad: sad_sweep(&self.sad, &self.opts(seed, k0 + 3)),
            compiled: compiled_pair_sweep::<[u64; 8], _>(
                &self.wallace_prog,
                WIDTH,
                |a, b| a * b,
                &self.opts(seed, k0 + 4),
            ),
        }
    }

    /// The same pass through each sweep's scalar or second-evaluator
    /// twin: the JIT for the interpreted `measured_stats` sweeps, the
    /// scalar golden models for the bit-sliced ones and the interpreter
    /// for the compiled sweep. Equal to [`Roster::pass`] bit for bit.
    #[must_use]
    pub fn twin_pass(&self, seed: u64) -> PassStats {
        let measured = self
            .measured_roster()
            .map(|(k, c, d)| {
                let prog = CompiledProgram::compile(c.netlist());
                let opts = SweepOptions::new(self.trials, sweep_seed(seed, k)).dist(d);
                compiled_pair_sweep::<u64, _>(&prog, c.width(), c.exact_fn(), &opts)
            })
            .collect();
        let k0 = self.configs.len() * InputDistribution::ALL.len();
        PassStats {
            measured,
            wallace: multiplier_sweep_scalar(&self.wallace, &self.opts(seed, k0)),
            recursive: multiplier_sweep_scalar(&self.recursive, &self.opts(seed, k0 + 1)),
            gear: gear_sweep_scalar(&self.gear, Some(usize::MAX), &self.opts(seed, k0 + 2)),
            sad: sad_sweep_scalar(&self.sad, &self.opts(seed, k0 + 3)),
            compiled: interpreted_pair_sweep(
                &self.wallace_netlist,
                WIDTH,
                |a, b| a * b,
                &self.opts(seed, k0 + 4),
            ),
        }
    }

    /// `(ops, registers)` of the compiled Wallace program.
    #[must_use]
    pub fn jit_shape(&self) -> (usize, usize) {
        let s = self.wallace_prog.stats();
        (s.ops, s.registers)
    }
}

/// Span names of the sweep layers.
pub mod layer {
    /// Operand draw (`core::dist`).
    pub const DRAW: &str = "core.dist.draw";
    /// Lane-to-plane transpose (`core::lanes`).
    pub const TO_PLANES: &str = "core.lanes.to_planes";
    /// Plane-to-lane transpose (`core::lanes`).
    pub const FROM_PLANES: &str = "core.lanes.from_planes";
    /// Reference model and error accumulation (`core::metrics`).
    pub const PUSH: &str = "core.metrics.push";
    /// Interpreted netlist evaluation (`logic::netlist`).
    pub const NETLIST: &str = "logic.netlist.eval";
    /// Compiled program evaluation (`sim::jit`).
    pub const JIT: &str = "sim.jit.eval";
    /// Hand-written bit-sliced multiplier (`multipliers`).
    pub const MUL_X64: &str = "multipliers.mul_x64";
    /// Ordered fold of the chunk accumulators (`sim::runner`).
    pub const MERGE: &str = "sim.runner.merge";
    /// Root of the traced replay.
    pub const ROOT: &str = "mc_sweep";
    /// One replayed sweep (its self time is loop bookkeeping).
    pub const SWEEP: &str = "sim.sweeps.replay";
}

/// The per-chunk RNG streams `run_chunks` hands out for a sweep: one
/// split of the parent per chunk, drawn in chunk order.
fn chunk_streams(opts: &SweepOptions) -> Vec<(u64, DefaultRng)> {
    let mut parent = DefaultRng::seed_from_u64(opts.seed);
    let n_chunks = opts.trials.div_ceil(opts.chunk);
    (0..n_chunks).map(|i| (opts.chunk.min(opts.trials - i * opts.chunk), parent.split())).collect()
}

/// Traced replay of a 64-lane sweep (`interpreted_pair_sweep` or
/// `multiplier_sweep`): `eval` maps the two operand plane vectors to the
/// output planes and is timed under `eval_layer`. Returns the merged
/// statistics and the lanes evaluated.
fn replay_word(
    t: &mut Tracer,
    opts: &SweepOptions,
    eval_layer: &'static str,
    exact: fn(u64, u64) -> u64,
    mut eval: impl FnMut(&[u64], &[u64]) -> Vec<u64>,
) -> (ErrorStats, u64) {
    t.span(layer::SWEEP, |t| {
        let mut lanes_done = 0u64;
        let mut chunks = Vec::new();
        for (n, mut rng) in chunk_streams(opts) {
            let mut acc = ErrorAccumulator::new();
            let mut remaining = n;
            while remaining > 0 {
                let lanes_n = remaining.min(LANES as u64) as usize;
                let (a, b) = t.span(layer::DRAW, |_| {
                    (opts.dist.draw_batch(&mut rng, WIDTH), opts.dist.draw_batch(&mut rng, WIDTH))
                });
                let (ap, bp) = t.span(layer::TO_PLANES, |_| {
                    (lanes::to_planes(&a, WIDTH), lanes::to_planes(&b, WIDTH))
                });
                let out = t.span(eval_layer, |_| eval(&ap, &bp));
                let vals = t.span(layer::FROM_PLANES, |_| lanes::from_planes(&out));
                t.span(layer::PUSH, |_| {
                    for j in 0..lanes_n {
                        acc.push(exact(a[j], b[j]), vals[j]);
                    }
                });
                lanes_done += LANES as u64;
                remaining -= lanes_n as u64;
            }
            chunks.push(acc);
        }
        (merge(t, &chunks), lanes_done)
    })
}

/// Traced replay of `compiled_pair_sweep::<B>`: consecutive 64-lane
/// batches fill consecutive block words, as the library packs them.
fn replay_jit<B: PlaneBlock>(
    t: &mut Tracer,
    prog: &CompiledProgram,
    opts: &SweepOptions,
    exact: fn(u64, u64) -> u64,
) -> (ErrorStats, u64) {
    t.span(layer::SWEEP, |t| {
        let mut lanes_done = 0u64;
        let mut chunks = Vec::new();
        let mut inputs: Vec<B> = vec![B::zeros(); 2 * WIDTH];
        let mut regs: Vec<B> = Vec::new();
        let mut outs: Vec<B> = Vec::new();
        let mut out_planes = vec![0u64; prog.n_outputs()];
        let mut batch = Vec::with_capacity(B::WORDS);
        for (n, mut rng) in chunk_streams(opts) {
            let mut acc = ErrorAccumulator::new();
            let mut remaining = n;
            while remaining > 0 {
                let sub = B::WORDS
                    .min(usize::try_from(remaining.div_ceil(LANES as u64)).expect("fits usize"));
                batch.clear();
                for s in 0..sub {
                    let (a, b) = t.span(layer::DRAW, |_| {
                        (
                            opts.dist.draw_batch(&mut rng, WIDTH),
                            opts.dist.draw_batch(&mut rng, WIDTH),
                        )
                    });
                    t.span(layer::TO_PLANES, |_| {
                        let ap = lanes::to_planes(&a, WIDTH);
                        let bp = lanes::to_planes(&b, WIDTH);
                        for i in 0..WIDTH {
                            inputs[i].set_word(s, ap[i]);
                            inputs[WIDTH + i].set_word(s, bp[i]);
                        }
                    });
                    batch.push((a, b));
                }
                for s in sub..B::WORDS {
                    for inp in &mut inputs {
                        inp.set_word(s, 0);
                    }
                }
                t.span(layer::JIT, |_| prog.run_into(&inputs, &mut regs, &mut outs));
                lanes_done += (LANES * B::WORDS) as u64;
                for (s, (a, b)) in batch.iter().enumerate() {
                    let lanes_n = remaining.min(LANES as u64) as usize;
                    let vals = t.span(layer::FROM_PLANES, |_| {
                        for (p, o) in out_planes.iter_mut().zip(&outs) {
                            *p = o.word(s);
                        }
                        lanes::from_planes(&out_planes)
                    });
                    t.span(layer::PUSH, |_| {
                        for j in 0..lanes_n {
                            acc.push(exact(a[j], b[j]), vals[j]);
                        }
                    });
                    remaining -= lanes_n as u64;
                }
            }
            chunks.push(acc);
        }
        (merge(t, &chunks), lanes_done)
    })
}

fn merge(t: &mut Tracer, chunks: &[ErrorAccumulator]) -> ErrorStats {
    t.span(layer::MERGE, |_| {
        let mut total = ErrorAccumulator::new();
        for acc in chunks {
            total.merge(acc);
        }
        total.finish()
    })
}

/// Trials per traced replay of each `measured_stats` sweep.
const REPLAY_MEASURED_TRIALS: u64 = 1 << 13;
/// Trials of the traced JIT replay: not a multiple of the 512-lane
/// block, so the ragged final block is part of the measurement.
const REPLAY_JIT_TRIALS: u64 = 100_000;
/// Trials of the traced hand-twin replay.
const REPLAY_MUL_TRIALS: u64 = 1 << 16;

/// What the traced replay measured.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Trials replayed through the interpreter, the JIT and `mul_x64`.
    pub trials: [u64; 3],
    /// Lanes evaluated, padding included.
    pub lanes: u64,
    /// Sweeps replayed.
    pub sweeps: u64,
    /// Wall time of the same sweeps run untraced on one thread.
    pub untraced_s: f64,
    /// Wall time of the traced replay (the root span).
    pub traced_s: f64,
    /// `true` when every replayed sweep's statistics equal the untraced
    /// sweep's.
    pub matches: bool,
}

/// Replays the interpreted, compiled and hand-twin sweeps under `t` and
/// checks each against its untraced library sweep at the same seed and
/// chunk size.
#[must_use]
pub fn traced_replay(roster: &Roster, t: &mut Tracer, seed: u64) -> ReplayReport {
    let measured_opts: Vec<(&DistConfig, SweepOptions)> = roster
        .measured_roster()
        .map(|(k, c, d)| {
            (c, SweepOptions::new(REPLAY_MEASURED_TRIALS, sweep_seed(seed, k)).dist(d).threads(1))
        })
        .collect();
    let jit_opts = SweepOptions::new(REPLAY_JIT_TRIALS, sweep_seed(seed, 1000)).threads(1);
    let mul_opts = SweepOptions::new(REPLAY_MUL_TRIALS, sweep_seed(seed, 1001)).threads(1);
    let mul = |a: u64, b: u64| a * b;

    // Untraced reference: the library sweeps on one thread, run once to
    // warm caches and once timed.
    let untraced = || {
        let measured: Vec<ErrorStats> = measured_opts
            .iter()
            .map(|(c, o)| interpreted_pair_sweep(c.netlist(), c.width(), c.exact_fn(), o))
            .collect();
        let jit = compiled_pair_sweep::<[u64; 8], _>(&roster.wallace_prog, WIDTH, mul, &jit_opts);
        (measured, jit, multiplier_sweep(&roster.wallace, &mul_opts))
    };
    std::hint::black_box(untraced());
    let start = Instant::now();
    let (want_measured, want_jit, want_mul) = untraced();
    let untraced_s = start.elapsed().as_secs_f64();
    // The interpreted sweeps must also equal `measured_stats` itself.
    let mut matches = measured_opts
        .iter()
        .zip(&want_measured)
        .all(|((c, o), w)| measured_stats(c, o.dist, o.trials, o.seed) == *w);

    let root_before = t.root_ns(layer::ROOT);
    let (got_measured, got_jit, got_mul, lanes) = t.span(layer::ROOT, |t| {
        let mut lanes = 0u64;
        let mut got_measured = Vec::with_capacity(measured_opts.len());
        for (c, o) in &measured_opts {
            let nl = c.netlist();
            let mut inputs = vec![0u64; 2 * WIDTH];
            let (mut values, mut outputs) = (Vec::new(), Vec::new());
            let (stats, l) = replay_word(t, o, layer::NETLIST, c.exact_fn(), |ap, bp| {
                inputs[..WIDTH].copy_from_slice(ap);
                inputs[WIDTH..].copy_from_slice(bp);
                nl.eval_words_into(&inputs, &mut values, &mut outputs);
                outputs.clone()
            });
            lanes += l;
            got_measured.push(stats);
        }
        let (got_jit, l) = replay_jit::<[u64; 8]>(t, &roster.wallace_prog, &jit_opts, mul);
        lanes += l;
        let (got_mul, l) =
            replay_word(t, &mul_opts, layer::MUL_X64, mul, |ap, bp| roster.wallace.mul_x64(ap, bp));
        lanes += l;
        (got_measured, got_jit, got_mul, lanes)
    });
    let traced_s = (t.root_ns(layer::ROOT) - root_before) as f64 / 1e9;
    matches &= got_measured == want_measured && got_jit == want_jit && got_mul == want_mul;
    ReplayReport {
        trials: [
            REPLAY_MEASURED_TRIALS * measured_opts.len() as u64,
            REPLAY_JIT_TRIALS,
            REPLAY_MUL_TRIALS,
        ],
        lanes,
        sweeps: measured_opts.len() as u64 + 2,
        untraced_s,
        traced_s,
        matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_jit_replay_reproduces_compiled_pair_sweep_exactly() {
        let m = WallaceMultiplier::new(WIDTH, FullAdderKind::Apx2, 5).unwrap();
        let prog = CompiledProgram::compile(&xlac_multipliers::hw::wallace_netlist(&m));
        let mul = |a: u64, b: u64| a * b;
        for dist in InputDistribution::ALL {
            // Ragged: 3 000 trials in 512-trial chunks leaves a partial
            // block and a partial final batch.
            let opts = SweepOptions::new(3_000, 0x3113).chunk(512).dist(dist).threads(2);
            let want = compiled_pair_sweep::<[u64; 8], _>(&prog, WIDTH, mul, &opts);
            let mut t = Tracer::new();
            let (got, lanes) = replay_jit::<[u64; 8]>(&mut t, &prog, &opts, mul);
            assert_eq!(got, want, "{dist:?}");
            assert_eq!(got.samples, 3_000);
            // Six chunks; each pads to whole 512-lane blocks.
            assert_eq!(lanes, 6 * 512);
            let layers = t.layers();
            assert_eq!(layers[layer::MERGE].count, 1);
            assert!(layers[layer::JIT].count >= 6);
        }
    }

    #[test]
    fn traced_word_replay_reproduces_the_library_sweeps() {
        let m = WallaceMultiplier::new(WIDTH, FullAdderKind::Apx4, 8).unwrap();
        let nl = xlac_multipliers::hw::wallace_netlist(&m);
        let opts = SweepOptions::new(2_500, 0xBEE).chunk(1024);
        let mut t = Tracer::new();
        let (got, _) =
            replay_word(&mut t, &opts, layer::MUL_X64, |a, b| a * b, |ap, bp| m.mul_x64(ap, bp));
        assert_eq!(got, multiplier_sweep(&m, &opts));
        let mut inputs = vec![0u64; 2 * WIDTH];
        let (mut values, mut outputs) = (Vec::new(), Vec::new());
        let (got, _) = replay_word(
            &mut t,
            &opts,
            layer::NETLIST,
            |a, b| a * b,
            |ap, bp| {
                inputs[..WIDTH].copy_from_slice(ap);
                inputs[WIDTH..].copy_from_slice(bp);
                nl.eval_words_into(&inputs, &mut values, &mut outputs);
                outputs.clone()
            },
        );
        assert_eq!(got, interpreted_pair_sweep(&nl, WIDTH, |a, b| a * b, &opts));
    }
}
