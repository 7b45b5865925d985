//! Shared mini-batch epoch pass for the GLM fitters (logistic and
//! Poisson regression).
//!
//! Both models are linear predictors `z = xᵀβ + b` whose per-sample
//! gradient is `err(z, i) · [x, 1]`; only the error function differs
//! (sigmoid residual vs. exponential-rate residual). The pass below
//! factors that shape out once, on top of
//! [`crate::batch::accumulate_batch`], so both fitters inherit the
//! allocation-free kernels and the fixed-order 1-vs-N-thread
//! determinism discipline.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::batch;
use crate::linalg::{axpy, dot};
use crate::optim::{Adam, Optimizer};

/// Reusable buffers for [`epoch_pass`]: the merged batch gradient,
/// the pooled per-chunk buffer, and the shuffled sample order. One
/// instance serves a whole `fit` call without reallocating.
#[derive(Debug, Default)]
pub(crate) struct GlmScratch {
    grads: Vec<f64>,
    chunk_buf: Vec<f64>,
    order: Vec<usize>,
}

/// One shuffled mini-batch pass over `xs` for a flat parameter vector
/// `[weights..., bias]`.
///
/// `err_of(z, i)` maps the linear predictor of sample `i` to the
/// gradient residual (`∂loss/∂z`). Gradients accumulate through the
/// fixed-order chunk reduction, so any `threads` value produces
/// bitwise-identical parameters; `threads == 0` falls back to the
/// crate-global [`crate::set_train_threads`] setting.
///
/// # Panics
///
/// Panics when `batch_size == 0` or a sample's dimension disagrees
/// with `params`.
#[allow(clippy::too_many_arguments)] // the shared pass carries both models' knobs
pub(crate) fn epoch_pass<R, E>(
    params: &mut [f64],
    opt: &mut Adam,
    xs: &[Vec<f64>],
    l2: f64,
    batch_size: usize,
    threads: usize,
    scratch: &mut GlmScratch,
    rng: &mut R,
    err_of: E,
) where
    R: Rng + ?Sized,
    E: Fn(f64, usize) -> f64 + Sync,
{
    assert!(batch_size > 0, "batch size must be positive");
    let dim = params.len() - 1;
    let threads = batch::effective_threads(threads);
    scratch.grads.resize(params.len(), 0.0);
    scratch.order.clear();
    scratch.order.extend(0..xs.len());
    scratch.order.shuffle(rng);
    for chunk in scratch.order.chunks(batch_size.min(xs.len().max(1))) {
        let params_view = &params[..];
        batch::accumulate_batch(
            chunk.len(),
            threads,
            &mut scratch.grads,
            &mut scratch.chunk_buf,
            &mut (),
            || (),
            |range, _, buf| {
                for pos in range {
                    let x = &xs[chunk[pos]];
                    assert_eq!(x.len(), dim, "sample dimension mismatch");
                    let z = dot(&params_view[..dim], x) + params_view[dim];
                    let err = err_of(z, chunk[pos]);
                    axpy(err, x, &mut buf[..dim]);
                    buf[dim] += err;
                }
                0.0
            },
        );
        let scale = 1.0 / chunk.len() as f64;
        for (j, g) in scratch.grads.iter_mut().enumerate() {
            *g *= scale;
            if j < dim {
                *g += l2 * params[j];
            }
        }
        opt.step(params, &scratch.grads);
    }
}
