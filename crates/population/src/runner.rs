//! Parallel multi-seed experiment runner.
//!
//! Most experiments in this repository repeat a simulation across many
//! seeds (the paper's Figure 3 uses 100 simulations per point).
//! [`run_seeds`] fans the seeds out over scoped threads and returns results
//! in seed order, so experiments stay deterministic regardless of thread
//! interleaving.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `job(seed)` for every seed in `seeds`, in parallel, returning the
/// results in the same order as the input.
///
/// The job is a `Fn` (not `FnMut`) shared across worker threads; all
/// per-run state should live inside the job body, keyed on the seed.
///
/// ```
/// let squares = population::runner::run_seeds(&[1, 2, 3], |s| s * s);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn run_seeds<R, F>(seeds: &[u64], job: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let workers = available_workers().get().min(seeds.len().max(1));
    if workers <= 1 || seeds.len() <= 1 {
        return seeds.iter().map(|&s| job(s)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..seeds.len()).map(|_| None).collect();
    let slots_ptr = std::sync::Mutex::new(&mut slots);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let job = &job;
            let slots_ptr = &slots_ptr;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= seeds.len() {
                        break;
                    }
                    local.push((idx, job(seeds[idx])));
                }
                // Write back under the lock once per worker.
                let mut guard = slots_ptr.lock().expect("runner mutex poisoned");
                for (idx, r) in local {
                    guard[idx] = Some(r);
                }
            }));
        }
        for h in handles {
            h.join().expect("runner worker panicked");
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every seed slot filled"))
        .collect()
}

/// Convenience: run seeds `0..count`.
pub fn run_seed_range<R, F>(count: u64, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let seeds: Vec<u64> = (0..count).collect();
    run_seeds(&seeds, job)
}

/// Number of worker threads the runner fans out over.
///
/// Defaults to [`std::thread::available_parallelism`], overridable with
/// the `SSR_WORKERS` environment variable (any positive integer) so CI
/// and benchmarks can pin the thread fan-out deterministically — e.g.
/// `SSR_WORKERS=1 cargo test` serializes every seed fan-out. Invalid or
/// zero values are ignored. `SSR_WORKERS` is read on every call; the
/// machine's parallelism is asked once per process and cached, since
/// the query reads cgroup files (12–26 µs a call on a 2-core Linux
/// host) and every `shard::ShardedSimulator` asks when it is built.
pub fn available_workers() -> NonZeroUsize {
    static PARALLELISM: OnceLock<NonZeroUsize> = OnceLock::new();
    if let Ok(v) = std::env::var("SSR_WORKERS") {
        if let Some(k) = parse_workers(&v) {
            return k;
        }
    }
    *PARALLELISM.get_or_init(|| {
        std::thread::available_parallelism().unwrap_or(NonZeroUsize::new(1).expect("1 is nonzero"))
    })
}

/// Parse an `SSR_WORKERS` value: any positive integer, surrounding
/// whitespace allowed; anything else (including `0`) is ignored.
fn parse_workers(value: &str) -> Option<NonZeroUsize> {
    value.trim().parse().ok().and_then(NonZeroUsize::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_seed_order() {
        let seeds: Vec<u64> = (0..64).collect();
        let out = run_seeds(&seeds, |s| {
            // Stagger finishing order to exercise the reordering logic.
            if s % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            s * 10
        });
        let expected: Vec<u64> = seeds.iter().map(|s| s * 10).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let out: Vec<u64> = run_seeds(&[], |s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn single_seed_runs_inline() {
        let out = run_seeds(&[99], |s| s + 1);
        assert_eq!(out, vec![100]);
    }

    #[test]
    fn seed_range_enumerates_from_zero() {
        let out = run_seed_range(5, |s| s);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ssr_workers_values_parse_as_positive_integers() {
        assert_eq!(parse_workers("3").map(NonZeroUsize::get), Some(3));
        assert_eq!(parse_workers(" 16 ").map(NonZeroUsize::get), Some(16));
        assert_eq!(parse_workers("0"), None); // invalid: ignored
        assert_eq!(parse_workers("not-a-number"), None); // invalid: ignored
        assert_eq!(parse_workers(""), None);
    }
}
