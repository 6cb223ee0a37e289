//! `xlac-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! xlac-perfbench --workload <mc_sweep|serve> --seed <n> --seconds <s> --trace <0|1>
//!                [--work-dir <dir>] [--git-describe <text>]
//! ```
//!
//! Every run measures all three activities — Monte-Carlo sweeps,
//! certification and serving — so every workload reports every metric.
//! An untraced run is [`ROUNDS`] rounds, each of serving slots, sweep
//! passes and one certification pass, so that every activity samples the
//! host over the whole run. The workload names the activity, sweeps or
//! serving, that gets the run's `--seconds` budget; the other runs at its
//! minimum size, and certification always runs one pass per round.
//!
//! * `--trace 0` prints the end-to-end metrics, measured untraced.
//! * `--trace 1` runs the traced replays and prints the per-layer
//!   metrics: each layer's self time, the residual of each traced tree
//!   and the tracing overhead. The spans are written to the work
//!   directory when the run ends.
//!
//! Each metric is printed on its own JSON line stamped with the run
//! context; the last line is the summary
//! `{"correct", "attempted", "failed", "metrics"}`. Any correctness
//! check that fails makes `correct` false and the exit code 1.

mod certify;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use xlac_server::{Server, ServerConfig, StatsSnapshot};

use crate::serve::{Oracle, PhaseReport};
use crate::stats::median;
use crate::trace::Tracer;

/// Worker threads of the self-hosted server.
const SERVER_WORKERS: usize = 2;
/// Lanes per program pass of the compiled sweeps (`[u64; 8]` blocks).
const PLANE_LANES: usize = 512;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Trials per sweep of a pass.
const SWEEP_TRIALS: u64 = 1 << 18;
/// Rounds of an untraced run. Each round runs one certification pass,
/// at least one sweep pass and its share of the serving slots, so
/// `certify_s` is the median of this many passes spread over the run.
const ROUNDS: usize = 3;
/// Least sweep passes of each round.
const SWEEP_MIN_PASSES: usize = 2;
/// Offered rate of the light serving phase, requests per second.
const LIGHT_RATE: f64 = 5_000.0;
/// Offered rate of the knee phase: the highest fixed rate whose median
/// latency stays steady on a shared 2-vCPU host. At 30 000/s the median
/// doubled whenever the host was contended, so the knee itself is left
/// to `serve_max_rps`.
const KNEE_RATE: f64 = 20_000.0;
/// The fixed rates `serve_max_rps` is chosen from: 5 000 to 250 000
/// requests per second in steps of 2 500. The first is the light rate.
/// On a shared 2-vCPU host the server's capacity ranged from 75 000 to
/// over 150 000/s, so the top rung sits well above it.
const PROBE_STEP: f64 = 2_500.0;
const PROBE_RUNGS: usize = 99;
/// Rungs the `serve_max_rps` staircase moves per probe, and its probes
/// per round.
const STAIR_STEP: usize = 2;
const STAIR_PROBES: usize = 5;
/// The p99 latency limit a rate must meet. Host stalls alone push a
/// window's p99 to 2–4 ms at light load, so the limit sits above that
/// and a miss means queueing.
const LATENCY_LIMIT_NS: u64 = 10_000_000;
/// The light and knee phases alternate in slots of this length.
const SLOT_S: f64 = 0.25;
/// Seconds of the light phase, the knee phase and each probed rate. When
/// `serve` holds the run's budget, the light phase gets 30% of it on top
/// and the knee phase 70%.
const LIGHT_S: f64 = 2.0;
const KNEE_S: f64 = 2.0;
const PROBE_S: f64 = 0.3;
/// Pings of the transport baseline, and their rate.
const PINGS: usize = 2_000;
const PING_RATE: f64 = 2_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    McSweep,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "mc_sweep" => Some(Workload::McSweep),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::McSweep => "mc_sweep",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    git: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut git = String::from("none");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            "--git-describe" => git = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
        git,
    })
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits (`null` for NaN or ±∞).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Collects the run's metrics and stamps every printed line with the
/// run context.
struct Report {
    context: String,
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn new(args: &Args, sim_threads: usize) -> Report {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        let context = format!(
            "\"workload\":{},\"trace\":{},\"seed\":{},\"seconds\":{},\"nproc\":{nproc},\
             \"sim_threads\":{sim_threads},\"server_workers\":{SERVER_WORKERS},\
             \"plane_lanes\":{PLANE_LANES},\"profile\":\"{profile}\",\"git\":{}",
            json_str(args.workload.name()),
            u8::from(args.trace),
            args.seed,
            json_num(args.seconds),
            json_str(&args.git),
        );
        Report { context, metrics: Vec::new(), attempted: 0, failed: 0, problems: Vec::new() }
    }

    /// Prints a free-form line (already-formatted JSON fields).
    fn info(&self, kind: &str, fields: &str) {
        println!("{{{},\"kind\":{},{fields}}}", self.context, json_str(kind));
    }

    /// Records and prints one metric; `note` says where it comes from.
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        self.print_metric("metric", name, value, unit, note);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints a measured value that the summary line leaves out.
    fn observed(&self, name: &str, value: f64, unit: &str, note: &str) {
        self.print_metric("observed", name, value, unit, note);
    }

    fn print_metric(&self, kind: &str, name: &str, value: f64, unit: &str, note: &str) {
        self.info(
            kind,
            &format!(
                "\"name\":{},\"value\":{},\"unit\":{},\"note\":{}",
                json_str(name),
                json_num(value),
                json_str(unit),
                json_str(note)
            ),
        );
    }

    /// Counts checked operations and records a failed check.
    fn check(&mut self, attempted: u64, failed: u64, problem: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(p) = problem {
            self.info("check_failed", &format!("\"problem\":{}", json_str(&p)));
            self.problems.push(p);
        }
    }

    fn summary(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(n), json_num(*v), json_str(u))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Everything set-up builds.
struct Env {
    roster: sweep::Roster,
    oracle: Oracle,
    server: Server,
    stream: TcpStream,
    hdl: PathBuf,
}

fn build_env(work_dir: &Path, sim_threads: usize) -> Result<Env, String> {
    let hdl = work_dir.join("hdl");
    if hdl.exists() {
        std::fs::remove_dir_all(&hdl)
            .map_err(|e| format!("cannot clear {}: {e}", hdl.display()))?;
    }
    xlac_analysis::symbolic::registry::ensure_registry_hdl(&hdl)?;
    let roster = sweep::Roster::build(SWEEP_TRIALS, sim_threads);
    let oracle = Oracle::build();
    let server = Server::spawn(ServerConfig { workers: SERVER_WORKERS, ..ServerConfig::default() })
        .map_err(|e| format!("server spawn: {e}"))?;
    let stream = TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    Ok(Env { roster, oracle, server, stream, hdl })
}

/// Builds the environment [`SETUP_REPS`] times and keeps the last;
/// returns it with the median set-up time.
fn setup(work_dir: &Path, sim_threads: usize) -> Result<(Env, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for _ in 0..SETUP_REPS {
        drop(env.take());
        let start = Instant::now();
        env = Some(build_env(work_dir, sim_threads)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((env.expect("at least one set-up"), median(&times)))
}

/// Sweep passes of a run, as trials per second, and the first pass's
/// statistics, which every later pass must equal.
#[derive(Default)]
struct Sweeps {
    rates: Vec<f64>,
    first: Option<sweep::PassStats>,
}

impl Sweeps {
    /// Runs sweep passes until `budget_s` has passed, at least
    /// [`SWEEP_MIN_PASSES`]. The run's first pass is checked against its
    /// twins, every later pass against the first.
    fn run(&mut self, env: &Env, seed: u64, budget_s: f64, report: &mut Report) {
        let roster = &env.roster;
        let sweeps = roster.sweeps() as u64;
        let start = Instant::now();
        for pass in 1.. {
            let t = Instant::now();
            let stats = roster.pass(seed);
            self.rates.push(roster.trials_per_pass() as f64 / t.elapsed().as_secs_f64());
            let (bad, problem) = match &self.first {
                None => (roster.twin_pass(seed) != stats, "a sweep differs from its twin"),
                Some(f) => (*f != stats, "a repeated sweep pass differs"),
            };
            report.check(sweeps, u64::from(bad), bad.then(|| problem.to_string()));
            self.first.get_or_insert(stats);
            if pass >= SWEEP_MIN_PASSES && start.elapsed().as_secs_f64() >= budget_s {
                return;
            }
        }
    }

    fn info(&self, env: &Env, report: &Report) {
        let roster = &env.roster;
        report.info(
            "sweep",
            &format!(
                "\"passes\":{},\"trials_per_pass\":{},\"sweeps_per_pass\":{},\"trials_per_sweep\":{}",
                self.rates.len(),
                roster.trials_per_pass(),
                roster.sweeps(),
                roster.trials
            ),
        );
    }
}

/// Runs one certification pass, checks it, and appends it to `passes`;
/// its fronts must equal the first pass's.
fn certify_pass(
    env: &Env,
    passes: &mut Vec<certify::Pass>,
    report: &mut Report,
) -> Result<(), String> {
    let p = certify::pass(&env.hdl).inspect_err(|e| report.check(1, 1, Some(e.clone())))?;
    let n = (p.obligations + p.audits.len()) as u64;
    let differs = passes.first().is_some_and(|f| f.fronts != p.fronts);
    report.check(n, u64::from(differs), differs.then(|| "fronts differ across passes".into()));
    passes.push(p);
    Ok(())
}

/// Server counter deltas summed over the knee windows.
#[derive(Debug, Clone, Copy, Default)]
struct StatsDelta {
    requests: u64,
    batches: u64,
    samples: u64,
    exact_forced: u64,
    overloaded: u64,
    write_failures: u64,
    queue_depth_hw: u64,
}

impl StatsDelta {
    /// Adds the counter changes from `a` to `b`.
    fn add(&mut self, a: &StatsSnapshot, b: &StatsSnapshot) {
        self.requests += b.requests - a.requests;
        self.batches += b.batches - a.batches;
        self.samples += b.samples - a.samples;
        self.exact_forced += b.exact_forced - a.exact_forced;
        self.overloaded += b.overloaded - a.overloaded;
        self.write_failures += b.write_failures - a.write_failures;
        self.queue_depth_hw = b.queue_depth_hw;
    }
}

fn ms(ns: Option<u64>) -> f64 {
    ns.map_or(f64::NAN, |n| n as f64 / 1e6)
}

fn phase_line(report: &Report, name: &str, rate: f64, r: &PhaseReport, counted: bool) {
    report.info(
        "serve_phase",
        &format!(
            "\"phase\":{},\"rate\":{},\"sent\":{},\"succeeded\":{},\"failed\":{},\"timed_out\":{},\
             \"overloaded\":{},\"mismatched\":{},\"duplicates\":{},\"windows\":{},\"p50_ms\":{},\"p99_ms\":{},\
             \"p99_all_ms\":{},\"samples_beyond_window_p99\":{},\"late_p99_ms\":{},\"drift_ms\":{},\
             \"fail_share\":{},\"counted\":{counted}",
            json_str(name),
            json_num(rate),
            r.sent,
            r.ok,
            r.failed,
            r.timed_out,
            r.overloaded,
            r.mismatched,
            r.duplicates,
            r.windows,
            json_num(ms(r.p50_ns)),
            json_num(ms(r.p99_ns)),
            json_num(ms(r.p99_all_ns)),
            stats::beyond(serve::WINDOW.min(r.sent as usize), 0.99),
            json_num(ms(r.late_p99_ns)),
            json_num(r.drift_ns as f64 / 1e6),
            json_num(r.failed as f64 / r.sent.max(1) as f64),
        ),
    );
}

/// Waits until the server has answered every request it queued, so a
/// phase starts with empty queues.
fn drain(server: &Server) {
    let start = Instant::now();
    while start.elapsed().as_secs() < 10 {
        let s = server.stats();
        if s.values_replies + s.write_failures >= s.requests {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Runs `seconds` of traffic at `rate`, rounded up to whole latency
/// windows, and accounts it. Mismatches and duplicates are correctness
/// failures wherever they occur.
fn phase(
    env: &Env,
    seed: u64,
    tag: u32,
    rate: f64,
    seconds: f64,
    report: &mut Report,
) -> Result<(PhaseReport, Vec<xlac_server::Request>), String> {
    let n = ((rate * seconds) as usize).div_ceil(serve::WINDOW) * serve::WINDOW;
    let reqs = serve::generate(seed, tag, n, &env.oracle.targets());
    drain(&env.server);
    let run = serve::run_phase(&env.stream, &reqs, tag, rate)
        .map_err(|e| format!("phase at {rate}/s: {e}"))?;
    let r = serve::account(&run, &reqs, &env.oracle);
    if r.mismatched > 0 || r.duplicates > 0 {
        report.check(
            0,
            0,
            Some(format!(
                "{rate}/s: {} mismatched, {} duplicate replies",
                r.mismatched, r.duplicates
            )),
        );
    }
    Ok((r, reqs))
}

/// Light and knee traffic, accumulated slot by slot. The two phases
/// alternate in slots of [`SLOT_S`], and the slots run in blocks spread
/// over the whole run, so a disturbance of the host lasting a few seconds
/// lands in both phases and in only part of either.
#[derive(Default)]
struct Traffic {
    tag: u32,
    lights: Vec<PhaseReport>,
    knees: Vec<PhaseReport>,
    knee_requests: Vec<xlac_server::Request>,
    knee_delta: StatsDelta,
}

impl Traffic {
    fn next_tag(&mut self) -> u32 {
        self.tag += 1;
        self.tag
    }

    /// Runs `knee_slots` knee slots with `light_slots` light slots spread
    /// evenly among them.
    fn run(
        &mut self,
        env: &Env,
        seed: u64,
        light_slots: usize,
        knee_slots: usize,
        report: &mut Report,
    ) -> Result<(), String> {
        for k in 0..knee_slots {
            if k * light_slots / knee_slots != (k + 1) * light_slots / knee_slots {
                let tag = self.next_tag();
                self.lights.push(phase(env, seed, tag, LIGHT_RATE, SLOT_S, report)?.0);
            }
            drain(&env.server);
            let before = env.server.stats();
            let tag = self.next_tag();
            let (knee, reqs) = phase(env, seed, tag, KNEE_RATE, SLOT_S, report)?;
            drain(&env.server);
            self.knee_delta.add(&before, &env.server.stats());
            self.knees.push(knee);
            self.knee_requests.extend(reqs);
        }
        Ok(())
    }

    /// The light and knee phases, each joined over its slots.
    fn phases(&self, report: &Report) -> (PhaseReport, PhaseReport) {
        let (light, knee) = (PhaseReport::join(&self.lights), PhaseReport::join(&self.knees));
        phase_line(report, "light", LIGHT_RATE, &light, true);
        phase_line(report, "knee", KNEE_RATE, &knee, true);
        (light, knee)
    }
}

/// The offered rate of probe rung `i`.
fn rung_rate(i: usize) -> f64 {
    LIGHT_RATE + PROBE_STEP * i as f64
}

/// Locates the highest fixed probe rate that meets the latency limit.
///
/// Near capacity a probe's outcome is noisy: a host stall can tip a rate
/// that usually holds into a growing queue. So a binary search first
/// finds the region, and an up-down staircase then probes around it: up
/// [`STAIR_STEP`] rungs after a probe that meets the limit, down as many
/// after a miss. The staircase's rates settle around the rate that meets
/// the limit half the time, and `serve_max_rps` is their median.
#[derive(Default)]
struct RateProbe {
    probe_s: f64,
    /// The staircase's next rung; `None` until the search has run.
    rung: Option<usize>,
    /// Rates the staircase probed.
    rates: Vec<f64>,
    /// Reports of the probes that met the limit.
    passed: Vec<PhaseReport>,
}

impl RateProbe {
    fn probe(
        &mut self,
        env: &Env,
        seed: u64,
        traffic: &mut Traffic,
        i: usize,
        report: &mut Report,
    ) -> Result<bool, String> {
        let tag = traffic.next_tag();
        let (r, _) = phase(env, seed, tag, rung_rate(i), self.probe_s, report)?;
        let ok = serve::meets_limit(&r, LATENCY_LIMIT_NS);
        phase_line(report, "probe", rung_rate(i), &r, ok);
        if ok {
            self.passed.push(r);
        }
        Ok(ok)
    }

    /// Runs the binary search on the first call, then `steps` probes of
    /// the staircase.
    fn run(
        &mut self,
        env: &Env,
        seed: u64,
        traffic: &mut Traffic,
        steps: usize,
        report: &mut Report,
    ) -> Result<(), String> {
        let mut at = match self.rung {
            Some(at) => at,
            None => {
                // Rung 0 is the light rate, which the light phase
                // measures, so the search takes it as met. `hi` is one
                // past the last rung and never probed.
                let (mut lo, mut hi) = (0usize, PROBE_RUNGS);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if self.probe(env, seed, traffic, mid, report)? {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
        };
        for _ in 0..steps {
            self.rates.push(rung_rate(at));
            at = if self.probe(env, seed, traffic, at, report)? {
                (at + STAIR_STEP).min(PROBE_RUNGS - 1)
            } else {
                at.saturating_sub(STAIR_STEP)
            };
        }
        self.rung = Some(at);
        Ok(())
    }
}

/// The `i`-th of `blocks` near-equal parts of `n`.
fn part(n: usize, i: usize, blocks: usize) -> usize {
    (i + 1) * n / blocks - i * n / blocks
}

fn run_untraced(args: &Args, env: &Env, setup_s: f64, report: &mut Report) -> Result<(), String> {
    let primary = |w: Workload| {
        if args.workload == w {
            args.seconds
        } else {
            0.0
        }
    };
    report.metric("setup_s", setup_s, "s", "median of set-up repetitions");

    // Each round runs its share of the serving slots and of the rate
    // probes, then sweep passes for its share of the sweep budget, then
    // one certification pass.
    let serve_s = primary(Workload::Serve);
    let slots = |share: f64, base: f64| ((serve_s * share + base) / SLOT_S).round() as usize;
    let (light_slots, knee_slots) = (slots(0.3, LIGHT_S), slots(0.7, KNEE_S));
    let mut traffic = Traffic::default();
    let mut sweeps = Sweeps::default();
    let mut passes = Vec::with_capacity(ROUNDS);
    let mut rates = RateProbe { probe_s: PROBE_S, ..RateProbe::default() };
    for round in 0..ROUNDS {
        let (light, knee) = (part(light_slots, round, ROUNDS), part(knee_slots, round, ROUNDS));
        traffic.run(env, args.seed, light, knee, report)?;
        rates.run(env, args.seed, &mut traffic, STAIR_PROBES, report)?;
        sweeps.run(env, args.seed, primary(Workload::McSweep) / ROUNDS as f64, report);
        certify_pass(env, &mut passes, report)?;
    }
    sweeps.info(env, report);
    report.info(
        "certify",
        &format!(
            "\"passes\":{},\"obligations\":{},\"audits\":{}",
            passes.len(),
            passes[0].obligations,
            passes[0].audits.len()
        ),
    );

    let (light, knee) = traffic.phases(report);
    // Zero when even the light rate misses the limit.
    let max_rps =
        if serve::meets_limit(&light, LATENCY_LIMIT_NS) { median(&rates.rates) } else { 0.0 };
    let counted = [&light, &knee].into_iter().chain(&rates.passed);
    let (sent, failed) = counted.fold((0, 0), |(a, f), r| (a + r.sent, f + r.failed));
    report.check(sent, failed, None);
    report.info(
        "serve",
        &format!(
            "\"light_samples\":{},\"knee_samples\":{},\"window\":{},\"latency_limit_ms\":{},\
             \"serve_fail_share\":{},\"tenant_targets\":{:?}",
            light.sent,
            knee.sent,
            serve::WINDOW,
            json_num(LATENCY_LIMIT_NS as f64 / 1e6),
            json_num(failed as f64 / sent.max(1) as f64),
            env.oracle.targets(),
        ),
    );

    let totals: Vec<f64> = passes.iter().map(certify::Pass::total_s).collect();
    report.metric("sweep_trials_per_s", median(&sweeps.rates), "1/s", "median over sweep passes");
    report.metric("certify_s", median(&totals), "s", "median certification pass time");
    report.metric(
        "serve_p50_ms.light",
        ms(light.p50_ns),
        "ms",
        "light phase, median over windows, from due time",
    );
    report.observed(
        "serve_p99_ms.light",
        ms(light.p99_ns),
        "ms",
        "light phase, median over windows, from due time; not gated",
    );
    report.metric(
        "serve_p50_ms.knee",
        ms(knee.p50_ns),
        "ms",
        "knee phase, median over windows, from due time",
    );
    report.observed(
        "serve_p99_ms.knee",
        ms(knee.p99_ns),
        "ms",
        "knee phase, median over windows, from due time; not gated",
    );
    report.observed(
        "serve_max_rps",
        max_rps,
        "1/s",
        "highest fixed rate meeting the p99 limit, median of the staircase's rates; not gated",
    );
    let (err, items) = (light.mul_err + knee.mul_err, light.mul_items + knee.mul_items);
    report.metric(
        "serve_mul_med",
        err as f64 / items.max(1) as f64,
        "lsb",
        "mean |served - exact| per product, light and knee phases",
    );
    Ok(())
}

/// Per-trial nanoseconds of a span name.
fn per(layers: &std::collections::BTreeMap<&str, trace::LayerTime>, name: &str, n: u64) -> f64 {
    layers.get(name).map_or(0.0, |l| l.self_ns as f64) / n.max(1) as f64
}

fn secs(layers: &std::collections::BTreeMap<&str, trace::LayerTime>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e9)
}

/// Notes of the residual and overhead metrics.
const RESIDUAL: &str = "traced time outside layer spans";
const OVERHEAD: &str = "traced over untraced, minus one";

/// Residual share of the traced trees under `roots`: their own self time
/// over their total, i.e. the traced time no layer span accounts for.
fn residual(t: &Tracer, roots: &[&str]) -> f64 {
    let layers = t.layers();
    let (own, total) = roots.iter().fold((0u64, 0u64), |(o, s), r| {
        layers.get(r).map_or((o, s), |l| (o + l.self_ns, s + l.total_ns))
    });
    own as f64 / total.max(1) as f64
}

/// One printed metric: name, value, unit, where it comes from.
type Row = (&'static str, f64, &'static str, &'static str);

fn run_traced(args: &Args, env: &Env, report: &mut Report) -> Result<(), String> {
    let mut t = Tracer::new();

    // mc_sweep layers.
    let r = sweep::traced_replay(&env.roster, &mut t, args.seed);
    let bad = !r.matches;
    report.check(r.sweeps, u64::from(bad), bad.then(|| "a traced sweep replay differs".into()));
    let layers = t.layers();
    let all: u64 = r.trials.iter().sum();
    let (ops, regs) = env.roster.jit_shape();
    use sweep::layer as sl;
    let sweep_rows: [Row; 13] = [
        ("core.dist.draw_ns", per(&layers, sl::DRAW, all), "ns", "per trial"),
        ("core.lanes.to_planes_ns", per(&layers, sl::TO_PLANES, all), "ns", "per trial"),
        (
            "logic.netlist.eval_ns",
            per(&layers, sl::NETLIST, r.trials[0]),
            "ns",
            "per interpreted trial",
        ),
        ("sim.jit.eval_ns", per(&layers, sl::JIT, r.trials[1]), "ns", "per compiled trial"),
        (
            "multipliers.mul_x64_ns",
            per(&layers, sl::MUL_X64, r.trials[2]),
            "ns",
            "per hand-twin trial",
        ),
        ("core.lanes.from_planes_ns", per(&layers, sl::FROM_PLANES, all), "ns", "per trial"),
        ("core.metrics.push_ns", per(&layers, sl::PUSH, all), "ns", "per trial"),
        ("sim.runner.merge_ns", per(&layers, sl::MERGE, r.sweeps), "ns", "per sweep"),
        ("sim.jit.ops", ops as f64, "count", "compiled Wallace 8x8 Apx4"),
        ("sim.jit.regs", regs as f64, "count", "compiled Wallace 8x8 Apx4"),
        (
            "sim.sweep.lanes_per_trial",
            r.lanes as f64 / all as f64,
            "ratio",
            "lanes evaluated per trial",
        ),
        ("trace.mc_sweep.residual_share", residual(&t, &[sl::ROOT, sl::SWEEP]), "share", RESIDUAL),
        ("trace.mc_sweep.overhead_share", r.traced_s / r.untraced_s - 1.0, "share", OVERHEAD),
    ];

    // certify layers.
    let mut untraced = Vec::with_capacity(1);
    certify_pass(env, &mut untraced, report)?;
    let untraced = &untraced[0];
    let c = certify::traced(&mut t, &env.hdl, untraced);
    report.check(1, u64::from(!c.ok), c.failure.clone());
    let layers = t.layers();
    use certify::layer as cl;
    const ENGINES: &str = "engines on the audit roster";
    let certify_rows: [Row; 11] = [
        ("analysis.registry.prove_s", secs(&layers, cl::PROVE), "s", "traced pass"),
        ("analysis.audit.audit_s", secs(&layers, cl::AUDIT), "s", "traced pass"),
        ("core.dist.exact_pmf_s", secs(&layers, cl::EXACT_PMF), "s", "traced pass"),
        ("explore.pareto_s", secs(&layers, cl::PARETO), "s", "traced pass"),
        ("analysis.symbolic.bdd_exact_s", secs(&layers, cl::BDD_EXACT), "s", ENGINES),
        ("analysis.symbolic.calculus_s", secs(&layers, cl::CALCULUS), "s", ENGINES),
        ("analysis.absint.derive_bound_s", secs(&layers, cl::DERIVE_BOUND), "s", ENGINES),
        ("analysis.symbolic.bdd_nodes", c.bdd_nodes as f64, "count", ENGINES),
        ("analysis.symbolic.memo_hit_rate", c.memo_hit_rate, "share", ENGINES),
        (
            "trace.certify.residual_share",
            residual(&t, &[cl::ROOT, cl::FRONTS, cl::ENGINES]),
            "share",
            RESIDUAL,
        ),
        ("trace.certify.overhead_share", c.traced_s / untraced.total_s() - 1.0, "share", OVERHEAD),
    ];

    // serve layers: live phases for the load generator's lateness and the server counters, then
    // the replay of the knee phase's request stream.
    let pings = serve::pings(1, PINGS);
    let run =
        serve::run_phase(&env.stream, &pings, 1, PING_RATE).map_err(|e| format!("ping: {e}"))?;
    let ping = serve::account(&run, &pings, &env.oracle);
    phase_line(report, "ping", PING_RATE, &ping, false);
    let mut traffic = Traffic::default();
    let (light_slots, knee_slots) = ((LIGHT_S / SLOT_S) as usize, (KNEE_S / SLOT_S) as usize);
    traffic.run(env, args.seed, light_slots, knee_slots, report)?;
    let (_, knee) = traffic.phases(report);
    let rep = serve::replay(&env.oracle, &mut t, &traffic.knee_requests);
    let bad = !rep.ok;
    report.check(
        rep.requests,
        u64::from(bad),
        bad.then(|| "a replayed reply differs from the oracle".into()),
    );
    let layers = t.layers();
    use serve::layer as vl;
    let d = traffic.knee_delta;
    let per_request = |count: u64| count as f64 / d.requests.max(1) as f64;
    let n = rep.requests;
    let [mul, sad, fir, dct] = rep.items;
    let service_ms = rep.untraced_s * 1e3 / n.max(1) as f64;
    let ping_ms = ms(ping.p50_ns);
    let serve_rows: [Row; 20] = [
        ("gen.late_ms_p99", ms(knee.late_p99_ns), "ms", "knee phase sender lateness"),
        ("server.ping_rtt_us", ping_ms * 1e3, "us", "median ping round trip"),
        (
            "server.requests_per_batch",
            d.requests as f64 / d.batches.max(1) as f64,
            "ratio",
            "knee phase",
        ),
        ("server.queue_depth_hw", d.queue_depth_hw as f64, "count", "after the knee phase"),
        ("server.sample_share", per_request(d.samples), "share", "knee phase"),
        ("server.exact_forced_share", per_request(d.exact_forced), "share", "knee phase"),
        ("server.overloaded", d.overloaded as f64, "count", "knee phase"),
        ("server.write_failures", d.write_failures as f64, "count", "knee phase"),
        ("server.proto.decode_request_ns", per(&layers, vl::DECODE, n), "ns", "per request"),
        ("server.proto.encode_reply_ns", per(&layers, vl::ENCODE, n), "ns", "per reply"),
        ("core.wire.frame_ns", per(&layers, vl::FRAME, n), "ns", "per reply"),
        ("server.ladder.select_ns", per(&layers, vl::SELECT, n), "ns", "per request"),
        ("server.tenant.decide_ns", per(&layers, vl::DECIDE, n), "ns", "per request"),
        (
            "server.engine.eval_mul_ns_per_item",
            per(&layers, vl::EVAL_MUL, mul),
            "ns",
            "per product",
        ),
        (
            "server.engine.eval_sad_ns_per_item",
            per(&layers, vl::EVAL_SAD, sad),
            "ns",
            "per block pair",
        ),
        ("server.engine.eval_fir_ns_per_item", per(&layers, vl::EVAL_FIR, fir), "ns", "per sample"),
        ("server.engine.eval_dct_ns_per_item", per(&layers, vl::EVAL_DCT, dct), "ns", "per block"),
        (
            "server.queue_wait_ms.knee",
            ms(knee.p50_ns) - ping_ms - service_ms,
            "ms",
            "knee p50 minus ping round trip minus service time",
        ),
        ("trace.serve.residual_share", residual(&t, &[vl::ROOT]), "share", RESIDUAL),
        ("trace.serve.overhead_share", rep.traced_s / rep.untraced_s - 1.0, "share", OVERHEAD),
    ];
    for (name, value, unit, note) in sweep_rows.into_iter().chain(certify_rows).chain(serve_rows) {
        report.metric(name, value, unit, note);
    }

    let path = args.work_dir.join(format!("trace-{}-{}.jsonl", args.workload.name(), args.seed));
    t.write_jsonl(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let fields =
        format!("\"spans\":{},\"path\":{}", t.spans().len(), json_str(&path.display().to_string()));
    report.info("trace", &fields);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xlac-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sim_threads = xlac_sim::default_threads()
        .min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut report = Report::new(&args, sim_threads);
    let (env, setup_s) = match setup(&args.work_dir, sim_threads) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("xlac-perfbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    let outcome = if args.trace {
        run_traced(&args, &env, &mut report)
    } else {
        run_untraced(&args, &env, setup_s, &mut report)
    };
    let Env { server, stream, hdl, .. } = env;
    drop(stream);
    let _ = server.shutdown();
    let _ = std::fs::remove_dir_all(hdl);
    if let Err(e) = outcome {
        eprintln!("xlac-perfbench: {e}");
        return ExitCode::from(1);
    }
    println!("{}", report.summary());
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
