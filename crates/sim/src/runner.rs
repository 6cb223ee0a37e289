//! The ordered fan-out primitive and the deterministic chunked sweep
//! runner built on it.
//!
//! [`fan_out`] is the workspace's one parallel map: workers pull item
//! indices from an atomic counter, each builds its own state on its first
//! item, and the results come back **in item order** whatever thread ran
//! them. Sweeps ([`run_chunks`]) and certification (proofs, audits,
//! distribution fronts) both run through it.
//!
//! Monte-Carlo sweeps are split into fixed-size **chunks** of trials.
//! Each chunk gets its own RNG, derived from the parent stream by
//! [`Xoshiro256StarStar::split`] *sequentially, before any worker thread
//! runs* — so the mapping `chunk index → random stream` is a pure
//! function of `(seed, chunk size)` and never depends on which thread
//! happens to pick the chunk up. [`fan_out`] hands the chunks to the
//! workers and returns their results in chunk-index order, and the
//! caller folds them front to back. Floating-point
//! accumulation order is therefore fixed, making every sweep
//! bitwise-identical for any worker count (the property
//! `tests/determinism.rs` locks in).
//!
//! [`Xoshiro256StarStar::split`]: xlac_core::rng::Xoshiro256StarStar::split

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use xlac_core::rng::DefaultRng;
use xlac_obs::{obs_count, obs_span};

/// Default number of trials per chunk. Small enough to load-balance
/// across workers, large enough that the per-chunk overhead (one RNG
/// split, one slot lock) is noise.
pub const DEFAULT_CHUNK: u64 = 8192;

/// Smallest chunk [`auto_chunk_size`] will pick: one full widest plane
/// block (`[u64; 8]`, 512 lanes). The original floor of 256 assumed
/// trial counts ≫ the lane width — at 256 trials per chunk, a 512-lane
/// block sweep padded *every* chunk half-empty, so the wide-block fast
/// path ran at half its lane utilization on small sweeps. With the floor
/// at one whole block, only a sweep's final chunk can be ragged, and the
/// ragged tail goes through the same deterministic pad-and-mask
/// discipline as [`crate::batch::eval_pairs`].
pub const MIN_AUTO_CHUNK: u64 = 512;

/// Resolves the auto-tuned chunk size for a sweep of `trials` trials
/// (the `chunk = 0` sentinel of [`run_chunks`]).
///
/// The fixed [`DEFAULT_CHUNK`] leaves small-but-parallel sweeps with
/// fewer chunks than workers — a 65 536-trial sweep split 8 192 apart
/// has only 8 chunks, so the slowest worker gates the whole sweep and
/// 8-thread runs barely beat 1-thread. Targeting ~64 chunks restores
/// load balancing while keeping per-chunk overhead negligible. The
/// result never drops below [`MIN_AUTO_CHUNK`], so every non-final chunk
/// fills whole 512-lane plane blocks.
///
/// **Determinism contract:** the result is a pure function of `trials`
/// alone — never of the thread count — because the chunk size selects
/// which RNG stream each trial sees. Two sweeps over the same `trials`
/// and seed therefore stay bitwise-comparable at any worker count.
#[must_use]
pub fn auto_chunk_size(trials: u64) -> u64 {
    ((trials / 64).max(1)).next_power_of_two().clamp(MIN_AUTO_CHUNK, DEFAULT_CHUNK)
}

/// Worker-thread count used when a sweep is configured with `threads = 0`:
/// the `XLAC_SIM_THREADS` environment variable if set to a positive
/// integer, otherwise the machine's available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    std::env::var("XLAC_SIM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `work(state, i)` for every item `i` in `0..n` on `threads` worker
/// threads (`0` → [`default_threads`]; never more workers than items)
/// and returns the results **in item order**.
///
/// Workers take item indices from an atomic counter, so a slow item
/// never holds up the rest. Each worker calls `init` once, on its first
/// item, and passes that state to every item it runs — a worker that
/// draws no item builds none. Which worker runs which item varies from
/// run to run, so a result must depend on its index alone, never on the
/// state's history; then the returned vector is the same for any worker
/// count. Workers always run on spawned threads, so `obs` spans opened
/// in `work` are top-level on every worker count.
///
/// A panic in `work` or `init` stops the other workers from taking new
/// items and is re-raised on the caller's thread with its own payload.
pub fn fan_out<S, R, I, W>(n: usize, threads: usize, init: I, work: W) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> R + Sync,
{
    let workers = if threads == 0 { default_threads() } else { threads }.min(n);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _stop_on_panic = StopOnPanic(&stop);
                    let mut state = None;
                    let mut done = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, work(state.get_or_insert_with(&init), i)));
                    }
                    done
                })
            })
            .collect();
        let mut panic = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, result) in done {
                        slots[i] = Some(result);
                    }
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
    slots.into_iter().map(|slot| slot.expect("every item ran")).collect()
}

/// [`fan_out`] over `costs.len()` items, handed out costliest first:
/// `costs[i]` is a rough weight of item `i`, and equal weights keep item
/// order. Starting the long items first keeps one of them from running
/// alone at the end. The results are in item order.
pub fn fan_out_costliest_first<S, R, I, W>(
    costs: &[u32],
    threads: usize,
    init: I,
    work: W,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> R + Sync,
{
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    let results = fan_out(order.len(), threads, init, |state, k| work(state, order[k]));
    let mut slots: Vec<Option<R>> = (0..order.len()).map(|_| None).collect();
    for (&i, result) in order.iter().zip(results) {
        slots[i] = Some(result);
    }
    slots.into_iter().map(|slot| slot.expect("the order covers every item")).collect()
}

/// Tells the other [`fan_out`] workers to stop taking items when its
/// worker unwinds.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs `eval` over `trials` trials split into chunks of `chunk` trials
/// (`0` → [`auto_chunk_size`]), on `threads` worker threads
/// (`0` → [`default_threads`]), and returns the per-chunk results **in
/// chunk-index order**.
///
/// `eval(chunk_index, chunk_trials, rng)` evaluates one chunk with its
/// own pre-split RNG stream. The result is independent of the thread
/// count by construction; callers must preserve that property by merging
/// the returned vector front to back.
pub fn run_chunks<T, F>(trials: u64, seed: u64, threads: usize, chunk: u64, eval: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64, DefaultRng) -> T + Sync,
{
    let _span = obs_span!("sim.run_chunks");
    let chunk = if chunk == 0 { auto_chunk_size(trials) } else { chunk };
    let n_chunks = usize::try_from(trials.div_ceil(chunk)).expect("chunk count fits usize");
    obs_count!("sim.chunks", n_chunks as u64);
    obs_count!("sim.trials", trials);
    // The stream assignment: one split per chunk, drawn sequentially from
    // the parent before any thread is spawned.
    let mut parent = DefaultRng::seed_from_u64(seed);
    let rngs: Vec<DefaultRng> = (0..n_chunks).map(|_| parent.split()).collect();
    fan_out(n_chunks, threads, || (), |(), i| {
        let lo = i as u64 * chunk;
        let _chunk_span = obs_span!("sim.chunk");
        eval(i, chunk.min(trials - lo), rngs[i].clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_results_are_ordered_and_cover_all_trials() {
        let results = run_chunks(10_000, 7, 4, 1024, |i, n, _| (i, n));
        assert_eq!(results.len(), 10);
        let total: u64 = results.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 10_000);
        for (pos, &(i, n)) in results.iter().enumerate() {
            assert_eq!(i, pos);
            assert_eq!(n, if pos == 9 { 10_000 - 9 * 1024 } else { 1024 });
        }
    }

    #[test]
    fn results_are_identical_for_any_thread_count() {
        use xlac_core::rng::Rng;
        let sweep = |threads| {
            run_chunks(5_000, 0xD37, threads, 512, |_, n, mut rng| {
                (0..n).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
            })
        };
        let one = sweep(1);
        assert_eq!(one, sweep(2));
        assert_eq!(one, sweep(8));
        assert_eq!(one, sweep(0));
    }

    #[test]
    fn zero_trials_yield_no_chunks() {
        let results = run_chunks(0, 1, 4, 64, |_, _, _| 0u64);
        assert!(results.is_empty());
    }

    #[test]
    fn fan_out_returns_results_in_item_order() {
        // Uneven item costs make workers finish out of order.
        let results = fan_out(40, 3, || (), |(), i| {
            std::thread::sleep(std::time::Duration::from_micros(((i * 7) % 5) as u64 * 200));
            i * i
        });
        assert_eq!(results, (0..40).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_of_zero_items_starts_nothing() {
        let inits = AtomicUsize::new(0);
        let results: Vec<usize> = fan_out(0, 4, || inits.fetch_add(1, Ordering::Relaxed), |_, i| i);
        assert!(results.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0, "no item, no worker state");
    }

    #[test]
    fn fan_out_with_more_workers_than_items_runs_each_item_once() {
        let runs = AtomicUsize::new(0);
        let inits = AtomicUsize::new(0);
        let results = fan_out(
            3,
            16,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i| {
                runs.fetch_add(1, Ordering::Relaxed);
                i + 100
            },
        );
        assert_eq!(results, vec![100, 101, 102]);
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        assert!(inits.load(Ordering::Relaxed) <= 3, "workers are capped at the item count");
    }

    #[test]
    fn fan_out_builds_each_worker_state_at_most_once() {
        let inits = AtomicUsize::new(0);
        // Each state remembers the thread that built it: it must stay
        // with that worker for every item the worker runs.
        let results = fan_out(
            200,
            3,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                std::thread::current().id()
            },
            |built_on, i| {
                assert_eq!(*built_on, std::thread::current().id(), "state moved between workers");
                i
            },
        );
        assert_eq!(results, (0..200).collect::<Vec<_>>());
        let built = inits.load(Ordering::Relaxed);
        assert!((1..=3).contains(&built), "{built} states for 3 workers");
    }

    #[test]
    fn fan_out_reraises_a_worker_panic_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(50, 3, || (), |(), i| {
                assert!(i != 17, "item 17 failed");
                i
            })
        });
        let payload = caught.expect_err("the worker panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert_eq!(message, "item 17 failed");
    }

    #[test]
    fn costliest_first_runs_heavy_items_first_and_returns_item_order() {
        let costs = [0, 5, 1, 5, 9];
        let started = std::sync::Mutex::new(Vec::new());
        let results = fan_out_costliest_first(&costs, 1, || (), |(), i| {
            started.lock().unwrap().push(i);
            i * 10
        });
        assert_eq!(results, vec![0, 10, 20, 30, 40]);
        assert_eq!(started.into_inner().unwrap(), vec![4, 1, 3, 2, 0]);
    }

    #[test]
    fn auto_chunk_targets_sixty_four_chunks_within_bounds() {
        assert_eq!(auto_chunk_size(0), MIN_AUTO_CHUNK);
        assert_eq!(auto_chunk_size(1), MIN_AUTO_CHUNK);
        assert_eq!(auto_chunk_size(16_384), MIN_AUTO_CHUNK);
        assert_eq!(auto_chunk_size(65_536), 1024);
        assert_eq!(auto_chunk_size(1 << 20), 8192, "capped at DEFAULT_CHUNK");
        for trials in [0u64, 63, 4_097, 100_032, u64::from(u32::MAX)] {
            let c = auto_chunk_size(trials);
            assert!((MIN_AUTO_CHUNK..=DEFAULT_CHUNK).contains(&c), "{trials} -> {c}");
            assert!(c.is_power_of_two());
            // Every non-final chunk fills whole 512-lane plane blocks.
            assert!(c.is_multiple_of(MIN_AUTO_CHUNK), "{trials} -> {c}");
        }
    }

    #[test]
    fn auto_chunk_sweeps_are_thread_count_invariant() {
        use xlac_core::rng::Rng;
        let sweep = |threads| {
            run_chunks(10_000, 0xAC4, threads, 0, |_, n, mut rng| {
                (0..n).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
            })
        };
        let one = sweep(1);
        assert_eq!(one, sweep(2));
        assert_eq!(one, sweep(8));
    }
}
