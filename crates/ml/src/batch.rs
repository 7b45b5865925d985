//! Deterministic batch-parallel gradient accumulation.
//!
//! All mini-batch trainers in this crate ([`crate::Trainer`], the
//! logistic and Poisson fitters) accumulate per-sample gradients
//! through [`accumulate_batch`], which follows the `forumcast-par`
//! fixed-order reduction discipline: the batch is split into
//! [`forumcast_par::CHUNK_SIZE`]-sample chunks *independent of the
//! thread count*, each chunk folds its samples in order into a
//! zeroed per-chunk buffer, and chunk buffers merge into the batch
//! gradient in chunk order. Serial and parallel paths perform the
//! identical sequence of floating-point additions, so training is
//! **bitwise identical for any thread count** — proven by
//! `tests/parity.rs`.
//!
//! The worker count flows from the crate-global set by
//! [`set_train_threads`] (wired to the CLI `--threads` flag), unless
//! a trainer overrides it per call. The default is 1: parallel
//! gradient accumulation only pays off for batches spanning several
//! chunks, so it is strictly opt-in.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use forumcast_par::CHUNK_SIZE;

static TRAIN_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the crate-global worker-thread count for mini-batch gradient
/// accumulation. `0` means auto: the `FORUMCAST_THREADS` override,
/// else the machine's available parallelism
/// ([`forumcast_par::resolve_threads`]). Thanks to the fixed-order
/// reduction this setting never changes training results, only wall
/// time.
pub fn set_train_threads(requested: usize) {
    let resolved = forumcast_par::resolve_threads(requested).max(1);
    TRAIN_THREADS.store(resolved, Ordering::Relaxed);
}

/// The crate-global training worker count (default 1; see
/// [`set_train_threads`]).
pub fn train_threads() -> usize {
    TRAIN_THREADS.load(Ordering::Relaxed)
}

/// Resolves a per-call thread override: `0` falls back to the
/// crate-global [`train_threads`].
pub(crate) fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        train_threads()
    } else {
        requested
    }
}

/// Accumulates a mini-batch gradient into `grads` (zeroed first) with
/// the fixed-order chunk reduction, returning the sum of the
/// per-chunk scalars produced by `fold` (loss partials), reduced in
/// chunk order.
///
/// `fold(range, state, buf)` folds the samples of one chunk, in
/// order, into the zeroed gradient buffer `buf`, threading `state`
/// (e.g. an [`crate::MlpScratch`]) through the chunk. On the serial
/// path every chunk reuses `serial_state` and the pooled `chunk_buf`
/// — no allocation. When `threads > 1` and the batch spans more than
/// one chunk, chunks run under [`forumcast_par::parallel_chunk_fold`]
/// with a fresh state from `make_state` and a fresh buffer per chunk;
/// the merge order — and therefore every output bit — is identical to
/// the serial path by construction.
pub(crate) fn accumulate_batch<S, FS, FM>(
    num_items: usize,
    threads: usize,
    grads: &mut [f64],
    chunk_buf: &mut Vec<f64>,
    serial_state: &mut S,
    make_state: FS,
    fold: FM,
) -> f64
where
    S: Send,
    FS: Fn() -> S + Sync,
    FM: Fn(Range<usize>, &mut S, &mut [f64]) -> f64 + Sync,
{
    let n_params = grads.len();
    grads.iter_mut().for_each(|g| *g = 0.0);
    if num_items == 0 {
        return 0.0;
    }
    if threads <= 1 || num_items <= CHUNK_SIZE {
        chunk_buf.resize(n_params, 0.0);
        let mut total = 0.0;
        for range in forumcast_par::chunk_ranges(num_items) {
            chunk_buf.iter_mut().for_each(|g| *g = 0.0);
            total += fold(range, serial_state, chunk_buf);
            crate::linalg::axpy(1.0, chunk_buf, grads);
        }
        total
    } else {
        forumcast_par::parallel_chunk_fold(
            num_items,
            threads,
            |range| {
                let mut state = make_state();
                let mut buf = vec![0.0; n_params];
                let partial = fold(range, &mut state, &mut buf);
                (buf, partial)
            },
            |partials| {
                let mut total = 0.0;
                for (buf, partial) in partials {
                    crate::linalg::axpy(1.0, &buf, grads);
                    total += partial;
                }
                total
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fold whose result is order-sensitive in floating point:
    /// magnitudes spanning ten decades.
    fn wild(i: usize) -> f64 {
        (i as f64 * 0.7391).sin() * 10f64.powi((i as i32 % 11) - 5)
    }

    fn run(n: usize, threads: usize) -> (Vec<u64>, u64) {
        let mut grads = vec![0.0; 8];
        let mut chunk_buf = Vec::new();
        let total = accumulate_batch(
            n,
            threads,
            &mut grads,
            &mut chunk_buf,
            &mut (),
            || (),
            |range, _, buf| {
                let mut partial = 0.0;
                for i in range {
                    for (j, g) in buf.iter_mut().enumerate() {
                        *g += wild(i * 8 + j);
                    }
                    partial += wild(i);
                }
                partial
            },
        );
        let bits = grads.iter().map(|g| g.to_bits()).collect();
        (bits, total.to_bits())
    }

    #[test]
    fn serial_and_parallel_paths_are_bitwise_identical() {
        for n in [1, 63, 64, 65, 200, 513] {
            let serial = run(n, 1);
            for threads in [2, 3, 7] {
                assert_eq!(serial, run(n, threads), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn empty_batch_zeroes_grads_and_returns_zero() {
        let mut grads = vec![5.0; 4];
        let mut chunk_buf = Vec::new();
        let total = accumulate_batch(
            0,
            4,
            &mut grads,
            &mut chunk_buf,
            &mut (),
            || (),
            |_, _, _| 1.0,
        );
        assert_eq!(total, 0.0);
        assert!(grads.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn thread_settings_resolve_and_default_to_one() {
        assert_eq!(train_threads(), 1);
        assert_eq!(effective_threads(0), 1);
        assert_eq!(effective_threads(5), 5);
        set_train_threads(3);
        assert_eq!(train_threads(), 3);
        assert_eq!(effective_threads(0), 3);
        set_train_threads(0);
        assert!(train_threads() >= 1);
        // Restore the default for other tests in this binary.
        set_train_threads(1);
    }
}
