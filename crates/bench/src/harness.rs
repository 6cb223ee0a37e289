//! In-house micro-benchmark harness (offline replacement for `criterion`).
//!
//! Each benchmark runs a closure in batches: a warmup phase sizes the
//! batch so one sample takes a measurable slice of wall-clock time, then
//! `samples` batches are timed and summarized by their **median** (robust
//! to scheduler noise, unlike the mean). Results print as an aligned
//! human-readable table on stderr-free stdout plus one JSON line per
//! benchmark, so downstream tooling can diff runs without parsing layout:
//!
//! ```text
//! bench: adders_16bit/ripple_accurate           median      7.91µs  (25 samples × 128 iters)
//! {"name":"adders_16bit/ripple_accurate","median_ns":7914, ...,"nproc":2,"threads":2,"profile":"release"}
//! ```
//!
//! Every line ends with its run context ([`run_context`]): the cores the
//! machine offers, the worker threads a sweep would use and the build
//! profile, so a reader can tell why a multi-threaded bench did not
//! scale.
//!
//! Environment knobs:
//!
//! * `XLAC_BENCH_SAMPLES` — timed samples per benchmark (default 25).
//! * `XLAC_BENCH_MIN_SAMPLE_MS` — target wall-clock per sample in
//!   milliseconds (default 5); the calibration phase picks the batch size.
//! * `XLAC_BENCH_QUICK=1` — smoke mode: 3 samples of 1 iteration, used by
//!   CI to check the benches still run without spending minutes.

use std::hint::black_box as std_black_box;
use std::time::Instant;

/// Opaque value barrier preventing the optimizer from deleting benched
/// work. Re-exported so benches don't import `std::hint` themselves.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (`group/function`).
    pub name: String,
    /// Timed samples taken.
    pub samples: u64,
    /// Iterations per sample batch.
    pub iters_per_sample: u64,
    /// Median of the per-iteration sample times.
    pub median_ns: f64,
    /// Mean of the per-iteration sample times.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

impl BenchResult {
    /// One line of JSON (hand-rolled — the workspace has no serde).
    #[must_use]
    pub fn json_line(&self) -> String {
        format!(
            "{{\"name\":{:?},\"samples\":{},\"iters_per_sample\":{},\"median_ns\":{:.1},\"mean_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},{}}}",
            self.name, self.samples, self.iters_per_sample, self.median_ns, self.mean_ns, self.min_ns, self.max_ns, run_context()
        )
    }

    fn human_time(ns: f64) -> String {
        if ns < 1_000.0 {
            format!("{ns:.0}ns")
        } else if ns < 1_000_000.0 {
            format!("{:.2}µs", ns / 1_000.0)
        } else if ns < 1_000_000_000.0 {
            format!("{:.2}ms", ns / 1_000_000.0)
        } else {
            format!("{:.2}s", ns / 1_000_000_000.0)
        }
    }
}

/// The run-context fields every bench JSON line carries, without braces:
/// `"nproc"` (the machine's available parallelism), `"threads"` (the
/// sweep worker count, [`xlac_sim::default_threads`], which
/// `XLAC_SIM_THREADS` overrides) and `"profile"` (`"release"` or
/// `"debug"`).
#[must_use]
pub fn run_context() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "\"nproc\":{nproc},\"threads\":{},\"profile\":\"{profile}\"",
        xlac_sim::default_threads()
    )
}

/// A named group of benchmarks sharing the harness configuration.
pub struct Harness {
    group: String,
    samples: u64,
    min_sample_ns: u64,
    quick: bool,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Creates a benchmark group, reading configuration from the
    /// environment.
    #[must_use]
    pub fn group(name: &str) -> Self {
        let quick = std::env::var("XLAC_BENCH_QUICK").map(|v| v != "0").unwrap_or(false);
        let samples = env_u64("XLAC_BENCH_SAMPLES").unwrap_or(25).max(3);
        let min_sample_ms = env_u64("XLAC_BENCH_MIN_SAMPLE_MS").unwrap_or(5);
        Harness {
            group: name.to_string(),
            samples: if quick { 3 } else { samples },
            min_sample_ns: min_sample_ms.saturating_mul(1_000_000).max(1),
            quick,
            results: Vec::new(),
        }
    }

    /// Times `f`: calibrates a batch size, takes the configured number of
    /// samples and records/prints the summary. The closure's return value
    /// is passed through [`black_box`] so its computation cannot be
    /// elided.
    pub fn bench<F, R>(&mut self, name: &str, mut f: F) -> &BenchResult
    where
        F: FnMut() -> R,
    {
        let full_name = format!("{}/{}", self.group, name);
        let iters = if self.quick { 1 } else { self.calibrate(&mut f) };

        let mut sample_ns: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        sample_ns.sort_by(|a, b| a.total_cmp(b));

        let n = sample_ns.len();
        let median_ns = if n % 2 == 1 {
            sample_ns[n / 2]
        } else {
            (sample_ns[n / 2 - 1] + sample_ns[n / 2]) / 2.0
        };
        let result = BenchResult {
            name: full_name,
            samples: self.samples,
            iters_per_sample: iters,
            median_ns,
            mean_ns: sample_ns.iter().sum::<f64>() / n as f64,
            min_ns: sample_ns[0],
            max_ns: sample_ns[n - 1],
        };
        println!(
            "bench: {:<44} median {:>10}  ({} samples × {} iters)",
            result.name,
            BenchResult::human_time(result.median_ns),
            result.samples,
            result.iters_per_sample
        );
        println!("{}", result.json_line());
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// Doubling calibration: find an iteration count whose batch takes at
    /// least the target sample time (warming caches and branch predictors
    /// as a side effect).
    fn calibrate<F, R>(&self, f: &mut F) -> u64
    where
        F: FnMut() -> R,
    {
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos() as u64;
            if elapsed >= self.min_sample_ns || iters >= 1 << 30 {
                return iters;
            }
            // Jump toward the target instead of pure doubling when the
            // measurement is meaningful.
            let factor = if elapsed == 0 { 16 } else { (self.min_sample_ns / elapsed.max(1)).clamp(2, 16) };
            iters = iters.saturating_mul(factor);
        }
    }

    /// All results recorded so far.
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_harness(group: &str) -> Harness {
        Harness {
            group: group.to_string(),
            samples: 3,
            min_sample_ns: 1,
            quick: true,
            results: Vec::new(),
        }
    }

    #[test]
    fn bench_records_sane_statistics() {
        let mut h = quick_harness("t");
        let r = h.bench("spin", || (0..100u64).sum::<u64>()).clone();
        assert_eq!(r.name, "t/spin");
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.median_ns > 0.0);
        assert_eq!(h.results().len(), 1);
    }

    #[test]
    fn json_line_is_wellformed() {
        let r = BenchResult {
            name: "g/f".into(),
            samples: 3,
            iters_per_sample: 7,
            median_ns: 1.5,
            mean_ns: 2.0,
            min_ns: 1.0,
            max_ns: 3.0,
        };
        let j = r.json_line();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\":\"g/f\""));
        assert!(j.contains("\"median_ns\":1.5"));
        assert!(j.contains(&format!(",{}}}", run_context())), "{j}");
        assert!(j.contains("\"nproc\":") && j.contains("\"threads\":"));
        assert!(j.contains("\"profile\":\"release\"") || j.contains("\"profile\":\"debug\""));
    }

    #[test]
    fn human_time_scales_units() {
        assert_eq!(BenchResult::human_time(12.0), "12ns");
        assert_eq!(BenchResult::human_time(1_500.0), "1.50µs");
        assert_eq!(BenchResult::human_time(2_000_000.0), "2.00ms");
        assert_eq!(BenchResult::human_time(3_000_000_000.0), "3.00s");
    }
}
