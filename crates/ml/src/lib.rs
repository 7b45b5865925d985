//! From-scratch machine-learning substrate for `forumcast`.
//!
//! The paper trains its predictors with TensorFlow and compares
//! against SPARFA, matrix-factorization, and Poisson-regression
//! baselines (Sections II-A, IV-A). The Rust ML ecosystem has no
//! point-process-ready training stack, so this crate implements
//! everything needed from first principles:
//!
//! * [`linalg`] — blocked dense kernels (`dot`/`axpy`/`gemv`-family)
//!   shared by every trainer, with fixed blocking so all code paths
//!   associate floating-point sums identically;
//! * [`activation`] — ReLU / tanh / sigmoid / softplus / identity;
//! * [`mlp`] — fully-connected networks with flat parameter storage
//!   and reverse-mode gradients ([`Mlp::backward_scratch`]), so custom losses
//!   (e.g. the point-process likelihood in `forumcast-core`) can push
//!   arbitrary output gradients through the network; hot loops reuse
//!   an [`MlpScratch`] instead of allocating per sample;
//! * [`optim`] — Adam (the paper's optimizer);
//! * [`logistic`] — L2-regularized logistic regression (the `â`
//!   predictor);
//! * [`mf`] — biased matrix factorization (baseline for `v̂`);
//! * [`sparfa`] — SPARFA-style sparse logistic factor analysis
//!   (baseline for `â`);
//! * [`poisson`] — Poisson regression (baseline for `r̂`);
//! * [`trainer`] — mini-batch MSE regression driver for MLPs.
//!
//! Every mini-batch trainer folds each batch into its zeroed gradient
//! buffer in sample order on the calling thread, so training is a
//! pure function of the data, the hyperparameters and the RNG
//! (`tests/fit_bits.rs` pins the learned bits).
//!
//! # Example
//!
//! ```
//! use forumcast_ml::{Activation, Adam, LayerSpec, Mlp, Trainer};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Fit y = 2x on a tiny network.
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut mlp = Mlp::new(
//!     &[LayerSpec::new(1, 8, Activation::Tanh), LayerSpec::new(8, 1, Activation::Identity)],
//!     &mut rng,
//! );
//! let xs: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64 / 32.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0]).collect();
//! let mut trainer = Trainer::new(Adam::new(0.01), 8);
//! for _ in 0..300 {
//!     trainer.epoch(&mut mlp, &xs, &ys, &mut rng);
//! }
//! let pred = mlp.forward(&[0.5])[0];
//! assert!((pred - 1.0).abs() < 0.1);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod activation;
pub mod error;
mod glm;
pub mod linalg;
pub mod logistic;
pub mod mf;
pub mod mlp;
pub mod optim;
pub mod poisson;
pub mod sparfa;
pub mod trainer;

pub use activation::Activation;
pub use error::TrainError;
pub use logistic::LogisticRegression;
pub use mf::{MatrixFactorization, MfConfig};
pub use mlp::{backward_units, forward_units, LayerSpec, Mlp, MlpScratch};
pub use optim::Adam;
pub use poisson::PoissonRegression;
pub use sparfa::{Sparfa, SparfaConfig};
pub use trainer::Trainer;

static TRAIN_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide training worker count. It sizes only the
/// point-process trainer in `forumcast-core`, whose μ and ω networks
/// train on two threads in lockstep when it is at least 2; every
/// trainer in this crate is serial. `0` means auto: the
/// `FORUMCAST_THREADS` override, else the machine's available
/// parallelism ([`forumcast_par::resolve_threads`]). The setting
/// never changes a trained bit, only wall time.
pub fn set_train_threads(requested: usize) {
    let resolved = forumcast_par::resolve_threads(requested).max(1);
    TRAIN_THREADS.store(resolved, Ordering::Relaxed);
}

/// The process-wide training worker count (default 1; see
/// [`set_train_threads`]).
pub fn train_threads() -> usize {
    TRAIN_THREADS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_settings_resolve_and_default_to_one() {
        assert_eq!(train_threads(), 1);
        set_train_threads(3);
        assert_eq!(train_threads(), 3);
        set_train_threads(0);
        assert!(train_threads() >= 1);
        // Restore the default for other tests in this binary.
        set_train_threads(1);
    }
}
