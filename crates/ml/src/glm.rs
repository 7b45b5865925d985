//! Shared mini-batch epoch pass for the GLM fitters (logistic and
//! Poisson regression).
//!
//! Both models are linear predictors `z = xᵀβ + b` whose per-sample
//! gradient is `err(z, i) · [x, 1]`; only the error function differs
//! (sigmoid residual vs. exponential-rate residual). The pass below
//! factors that shape out once, so both fitters share the
//! allocation-free kernels.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::linalg::{axpy, dot};
use crate::optim::Adam;

/// Mini-batch size of both GLM fitters.
const BATCH_SIZE: usize = 32;

/// Reusable buffers for [`epoch_pass`]: the batch gradient and the
/// shuffled sample order. One instance serves a whole `fit` call
/// without reallocating.
#[derive(Debug, Default)]
pub(crate) struct GlmScratch {
    grads: Vec<f64>,
    order: Vec<usize>,
}

/// One shuffled pass over `xs` in [`BATCH_SIZE`] mini-batches for a
/// flat parameter vector `[weights..., bias]`.
///
/// `err_of(z, i)` maps the linear predictor of sample `i` to the
/// gradient residual (`∂loss/∂z`). Each batch folds into the zeroed
/// gradient in sample order, then takes one Adam step.
///
/// # Panics
///
/// Panics when a sample's dimension disagrees with `params`.
pub(crate) fn epoch_pass<R, E>(
    params: &mut [f64],
    opt: &mut Adam,
    xs: &[Vec<f64>],
    l2: f64,
    scratch: &mut GlmScratch,
    rng: &mut R,
    err_of: E,
) where
    R: Rng + ?Sized,
    E: Fn(f64, usize) -> f64,
{
    let dim = params.len() - 1;
    scratch.grads.resize(params.len(), 0.0);
    scratch.order.clear();
    scratch.order.extend(0..xs.len());
    scratch.order.shuffle(rng);
    for chunk in scratch.order.chunks(BATCH_SIZE) {
        let grads = &mut scratch.grads;
        grads.fill(0.0);
        for &i in chunk {
            let x = &xs[i];
            assert_eq!(x.len(), dim, "sample dimension mismatch");
            let z = dot(&params[..dim], x) + params[dim];
            let err = err_of(z, i);
            axpy(err, x, &mut grads[..dim]);
            grads[dim] += err;
        }
        let scale = 1.0 / chunk.len() as f64;
        for (j, g) in grads.iter_mut().enumerate() {
            *g *= scale;
            if j < dim {
                *g += l2 * params[j];
            }
        }
        opt.step(params, grads);
    }
}
