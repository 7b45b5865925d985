//! Deterministic scoped-thread parallelism for forumcast's hot
//! paths: centrality accumulation, LDA fold-in, feature extraction,
//! and cross-validation folds.
//!
//! # Determinism contract
//!
//! Every helper here produces **bitwise-identical** output for any
//! thread count, including 1. [`parallel_map`] guarantees this by
//! construction (independent items, output in input order).
//! [`parallel_chunk_fold`] guarantees it by fixing the reduction
//! tree: items are split into fixed-size chunks *independent of the
//! thread count*, each chunk is folded serially in item order, and
//! chunk results merge in chunk order — so floating-point sums
//! associate identically no matter how many workers ran.
//!
//! # Thread-count resolution
//!
//! The worker count flows from (highest priority first) an explicit
//! `--threads` CLI flag, the `FORUMCAST_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. Library
//! APIs take the count as an explicit argument so tests can pin it;
//! entry points resolve it once via [`resolve_threads`].
//!
//! Every thread this crate starts first enters the spawning thread's
//! `forumcast-obs` collector and `forumcast-resilience` fault plan.

use std::cell::Cell;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use forumcast_obs::{ObsGuard, Scope};
use forumcast_resilience::{FaultGuard, FaultScope};

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "FORUMCAST_THREADS";

/// The `FORUMCAST_THREADS` override, when set to a positive integer.
pub fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
}

/// Default worker-thread count: the `FORUMCAST_THREADS` override,
/// else the machine's available parallelism.
pub fn configured_threads() -> usize {
    env_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Resolves a requested thread count: `0` means "auto"
/// ([`configured_threads`]), anything else is taken as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        configured_threads()
    } else {
        requested
    }
}

/// Auto thread count capped at `cap` — for coarse work like CV folds
/// where oversubscription wastes memory. An explicit
/// `FORUMCAST_THREADS` wins over the cap.
pub fn default_threads(cap: usize) -> usize {
    match env_threads() {
        Some(n) => n,
        None => configured_threads().min(cap.max(1)),
    }
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True on a [`parallel_map`] / [`parallel_try_map`] worker thread,
/// false on the caller (including its single-thread inline fallback).
/// Code that could fan out on its own checks this to stay serial
/// when an enclosing parallel section already fills the cores.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Marks the current thread as a worker. Each worker is a scoped
/// thread that exits with its closure, so the flag needs no reset.
fn mark_worker() {
    IN_WORKER.with(|w| w.set(true));
}

/// Captures the calling thread's collector and fault plan; a thread
/// this crate starts calls the returned closure first to enter both.
fn inherit() -> impl Fn() -> (ObsGuard, FaultGuard) + Sync {
    let (obs, faults) = (Scope::capture(), FaultScope::capture());
    move || (obs.enter(), faults.enter())
}

/// Runs `helper` on a scoped thread while `caller` runs on the calling
/// thread, and returns both results. The helper inherits the caller's
/// collector and fault plan, but is not a [`parallel_map`] worker. A
/// panic on either side reaches the caller once both have returned,
/// so each side must stop on its own when the other fails.
pub fn join<A, B>(helper: impl FnOnce() -> A + Send, caller: impl FnOnce() -> B) -> (A, B)
where
    A: Send,
{
    let enter = inherit();
    std::thread::scope(|s| {
        let helper = s.spawn(|| {
            let _scope = enter();
            helper()
        });
        let b = caller();
        let a = helper
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (a, b)
    })
}

/// Runs `f` over `items` on up to `max_threads` scoped worker
/// threads, returning results in input order. Work is claimed item
/// by item from a shared counter, so uneven item costs balance
/// across workers; output order (and therefore every downstream
/// result) is independent of the thread count. Falls back to plain
/// iteration for a single item or `max_threads <= 1`.
///
/// # Example
///
/// ```
/// use forumcast_par::parallel_map;
/// let squares = parallel_map(&[1, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, U, F>(items: &[T], max_threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let Ok(out) = parallel_try_map(items, max_threads, |item| Ok::<U, Infallible>(f(item)));
    out
}

/// Fallible version of [`parallel_map`]: runs `f` over `items` and
/// short-circuits on failure. When any item fails, in-flight items
/// finish, pending items are skipped, and the error with the
/// **lowest item index** is returned — so which error a caller sees
/// never depends on thread interleaving. On success the results come
/// back in input order, bitwise-identical to a sequential run.
///
/// # Errors
///
/// Returns the lowest-index `Err` produced by `f`.
pub fn parallel_try_map<T, U, E, F>(items: &[T], max_threads: usize, f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    forumcast_obs::counter_add("par.tasks", items.len() as u64);
    if items.len() <= 1 || max_threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let threads = max_threads.min(items.len());
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut results: Vec<Option<Result<U, E>>> = (0..items.len()).map(|_| None).collect();
    let slots = Mutex::new(&mut results);
    let enter = inherit();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _scope = enter();
                mark_worker();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = f(&items[i]);
                    if out.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(out);
                }
            });
        }
    });

    // Items are claimed in index order, so every unprocessed slot
    // sits *after* the first error — scanning in order finds the
    // lowest-index error before any empty slot.
    let mut out = Vec::with_capacity(items.len());
    for slot in results {
        match slot {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            None => unreachable!("empty slot before the first error"),
        }
    }
    Ok(out)
}

/// Number of items per chunk in [`parallel_chunk_fold`]. Fixed (not
/// derived from the thread count) so the floating-point reduction
/// tree — and therefore the bitwise result — never depends on how
/// many workers ran.
pub const CHUNK_SIZE: usize = 64;

/// The fixed chunk decomposition of `0..num_items` used by
/// [`parallel_chunk_fold`]: [`CHUNK_SIZE`]-item ranges in item order,
/// the last one short. A pure function of `num_items`, so the
/// reduction tree never depends on the worker count.
pub(crate) fn chunk_ranges(num_items: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..num_items)
        .step_by(CHUNK_SIZE)
        .map(move |start| start..(start + CHUNK_SIZE).min(num_items))
}

/// Deterministic parallel fold: splits `0..num_items` into
/// [`CHUNK_SIZE`]-item chunks, folds each chunk serially in item
/// order with `fold_chunk` (producing a per-chunk accumulator), and
/// merges accumulators **in chunk order** with `merge`.
///
/// Because the chunk structure is a pure function of `num_items`,
/// the same reduction tree runs for 1 thread and N threads, making
/// non-associative accumulations (floating-point sums) bitwise
/// reproducible.
///
/// `fold_chunk` receives the chunk's item range and returns its
/// accumulator; `merge` folds accumulators into the final value.
pub fn parallel_chunk_fold<A, F, M, R>(
    num_items: usize,
    max_threads: usize,
    fold_chunk: F,
    merge: M,
) -> R
where
    A: Send,
    F: Fn(std::ops::Range<usize>) -> A + Sync,
    M: FnOnce(Vec<A>) -> R,
{
    let chunks: Vec<std::ops::Range<usize>> = chunk_ranges(num_items).collect();
    let partials = parallel_map(&chunks, max_threads, |r| fold_chunk(r.clone()));
    merge(partials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback() {
        assert_eq!(parallel_map(&[5], 4, |&x: &i32| x + 1), vec![6]);
        assert_eq!(parallel_map(&[1, 2], 1, |&x: &i32| x + 1), vec![2, 3]);
        assert_eq!(
            parallel_map::<i32, i32, _>(&[], 4, |&x| x),
            Vec::<i32>::new()
        );
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..64).collect();
        parallel_map(&items, 4, |_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(ids.lock().unwrap().len() > 1);
    }

    #[test]
    fn in_worker_is_set_inside_workers_only() {
        assert!(!in_worker());
        let items: Vec<usize> = (0..8).collect();
        assert!(parallel_map(&items, 2, |_| in_worker())
            .into_iter()
            .all(|w| w));
        let flags: Result<Vec<bool>, ()> = parallel_try_map(&items, 2, |_| Ok(in_worker()));
        assert!(flags.unwrap().into_iter().all(|w| w));
        // The inline fallback runs on the caller, which is no worker.
        assert_eq!(parallel_map(&items, 1, |_| in_worker()), vec![false; 8]);
        assert!(!in_worker());
    }

    #[test]
    fn try_map_success_matches_parallel_map() {
        let items: Vec<usize> = (0..50).collect();
        for threads in [1, 4] {
            let out: Result<Vec<usize>, ()> = parallel_try_map(&items, threads, |&x| Ok(x * 3));
            assert_eq!(out.unwrap(), parallel_map(&items, threads, |&x| x * 3));
        }
    }

    #[test]
    fn try_map_returns_lowest_index_error_for_any_thread_count() {
        let items: Vec<usize> = (0..40).collect();
        for threads in [1, 2, 8] {
            let out: Result<Vec<usize>, usize> = parallel_try_map(&items, threads, |&x| {
                if x == 7 || x == 23 {
                    Err(x)
                } else {
                    Ok(x)
                }
            });
            assert_eq!(out.unwrap_err(), 7, "threads={threads}");
        }
    }

    #[test]
    fn try_map_stops_claiming_after_an_error() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..1000).collect();
        let ran = AtomicUsize::new(0);
        let out: Result<Vec<()>, ()> = parallel_try_map(&items, 4, |&x| {
            ran.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(100));
            if x == 0 {
                Err(())
            } else {
                Ok(())
            }
        });
        assert!(out.is_err());
        assert!(
            ran.load(Ordering::Relaxed) < items.len(),
            "all items ran despite an early error"
        );
    }

    #[test]
    fn parallel_sections_sum_into_the_callers_collector() {
        let _g = forumcast_obs::arm();
        let items: Vec<usize> = (0..8).collect();
        for _ in 0..4 {
            parallel_map(&items, 2, |&x| {
                forumcast_obs::counter_add("par.test.hits", 1);
                x
            });
        }
        let log = forumcast_obs::drain().unwrap();
        assert!(
            log.counters
                .iter()
                .any(|(n, v)| n == "par.test.hits" && *v == 32),
            "{:?}",
            log.counters
        );
    }

    /// Workers and the `join` helper see the spawning thread's armed
    /// collector and fault plan, and nothing leaks back: the caller's
    /// scope is intact afterwards.
    #[test]
    fn spawned_threads_inherit_the_armed_collector_and_plan() {
        use forumcast_resilience::fault::{fires, FaultSite};
        let seen = |unit: u64| (forumcast_obs::is_enabled(), fires(FaultSite::NanGrad, unit));
        let spec = "nan-grad:0,nan-grad:1,nan-grad:2,nan-grad:3,nan-grad:9";
        let _faults = forumcast_resilience::FaultPlan::parse(spec).unwrap().arm();
        let _obs = forumcast_obs::arm();
        let items: Vec<u64> = (0..4).collect();
        assert_eq!(parallel_map(&items, 2, |&u| seen(u)), vec![(true, true); 4]);
        let tried: Result<Vec<_>, ()> = parallel_try_map(&items, 2, |&u| Ok(seen(u)));
        assert_eq!(tried.unwrap(), vec![(true, false); 4], "shots are shared");
        assert_eq!(join(|| seen(9), || seen(8)), ((true, true), (true, false)));
        assert!(forumcast_obs::is_enabled());
        let log = forumcast_obs::drain().unwrap();
        assert!(
            log.counters
                .contains(&("fault.fired.nan-grad".to_string(), 5)),
            "{:?}",
            log.counters
        );
    }

    #[test]
    fn join_resumes_a_helper_panic_on_the_caller() {
        let caller_ran = AtomicBool::new(false);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join(
                || panic!("helper failed"),
                || caller_ran.store(true, Ordering::Relaxed),
            )
        }))
        .unwrap_err();
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"helper failed"));
        assert!(caller_ran.load(Ordering::Relaxed));
    }

    #[test]
    fn default_threads_is_positive_and_capped() {
        assert!(default_threads(4) >= 1);
        if env_threads().is_none() {
            assert!(default_threads(4) <= 4);
            assert_eq!(default_threads(0), 1);
        }
    }

    #[test]
    fn resolve_threads_zero_means_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn chunk_fold_sums_match_serial_for_any_thread_count() {
        // Floating-point values chosen to make association visible:
        // widely varying magnitudes.
        let values: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.7391).sin() * 10f64.powi((i % 7) - 3))
            .collect();
        let fold = |threads: usize| {
            parallel_chunk_fold(
                values.len(),
                threads,
                |range| values[range].iter().sum::<f64>(),
                |partials| partials.into_iter().sum::<f64>(),
            )
        };
        let serial = fold(1);
        for threads in [2, 3, 7, 16] {
            let par = fold(threads);
            assert_eq!(
                serial.to_bits(),
                par.to_bits(),
                "thread count {threads} changed the reduction"
            );
        }
    }

    #[test]
    fn chunk_ranges_cover_items_exactly_once_in_order() {
        for n in [0, 1, 63, 64, 65, 128, 1000] {
            let ranges: Vec<_> = chunk_ranges(n).collect();
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "n={n}");
                assert!(r.len() <= CHUNK_SIZE && !r.is_empty(), "n={n} range {r:?}");
                next = r.end;
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn chunk_fold_handles_empty_and_small_inputs() {
        let sum = parallel_chunk_fold(0, 4, |_| 0.0f64, |p| p.into_iter().sum::<f64>());
        assert_eq!(sum, 0.0);
        let sum = parallel_chunk_fold(3, 4, |r| r.len() as f64, |p| p.into_iter().sum::<f64>());
        assert_eq!(sum, 3.0);
    }
}
