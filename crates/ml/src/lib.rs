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
//!   and reverse-mode gradients ([`Mlp::backward`]), so custom losses
//!   (e.g. the point-process likelihood in `forumcast-core`) can push
//!   arbitrary output gradients through the network; hot loops reuse
//!   an [`MlpScratch`] instead of allocating per sample;
//! * [`optim`] — SGD and Adam (the paper's optimizer);
//! * [`batch`] — deterministic batch-parallel gradient accumulation
//!   ([`set_train_threads`]): fixed-order chunk reduction makes
//!   1-vs-N-thread training bitwise identical;
//! * [`logistic`] — L2-regularized logistic regression (the `â`
//!   predictor);
//! * [`mf`] — biased matrix factorization (baseline for `v̂`);
//! * [`sparfa`] — SPARFA-style sparse logistic factor analysis
//!   (baseline for `â`);
//! * [`poisson`] — Poisson regression (baseline for `r̂`);
//! * [`trainer`] — mini-batch MSE regression driver for MLPs.
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

pub mod activation;
pub mod batch;
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
pub use batch::{set_train_threads, train_threads};
pub use error::TrainError;
pub use logistic::LogisticRegression;
pub use mf::{MatrixFactorization, MfConfig};
pub use mlp::{ForwardCache, LayerSpec, Mlp, MlpScratch};
pub use optim::{Adam, Optimizer, Sgd};
pub use poisson::PoissonRegression;
pub use sparfa::{Sparfa, SparfaConfig};
pub use trainer::Trainer;
