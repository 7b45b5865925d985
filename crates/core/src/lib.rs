//! The primary contribution of Hansen et al. (ICDCS 2019): joint
//! prediction of **who** will answer a forum question (`â_{u,q}`),
//! the **quality** (net votes, `v̂_{u,q}`) and the **timing**
//! (`r̂_{u,q}`) of the response, all learned over the 20-feature
//! vectors of `forumcast-features`.
//!
//! Three models (Section II-A):
//!
//! * [`AnswerPredictor`] — logistic regression on `x_{u,q}`; kept
//!   linear deliberately because the answer matrix is ~99.97% sparse
//!   and nonlinear models overfit;
//! * [`VotePredictor`] — a deep fully-connected network (the paper's
//!   configuration: 4 layers of 20 ReLU units) trained with MSE/Adam;
//! * [`TimingPredictor`] — a point-process model with rate
//!   `λ_{u,q}(t) = μ_{u,q} e^{−ω_{u,q}(t − t(p_{q0}))}` where the
//!   initial excitation `μ = f_Θ(x)` is a neural network (100/50 tanh
//!   hidden units, positive output) and the decay `ω` is either a
//!   constant (the paper's final choice) or a second network. The
//!   model is trained by maximizing the thread log-likelihood with
//!   Adam, with the survival term's sum over all users approximated
//!   by importance-weighted sampled non-answerers.
//!
//! [`ResponsePredictor`] bundles all three behind one train/predict
//! API with shared feature normalization.
//!
//! # Example
//!
//! ```
//! use forumcast_core::{ResponsePredictor, TrainConfig, TrainingSet};
//!
//! // Two users; user 0 answers fast with good votes when the single
//! // feature is high.
//! let mut ts = TrainingSet::new(1);
//! for i in 0..40 {
//!     let x = if i % 2 == 0 { 1.0 } else { -1.0 };
//!     ts.push_answer(vec![x], i % 2 == 0);
//!     ts.push_vote(vec![x], if i % 2 == 0 { 3.0 } else { -1.0 });
//! }
//! ts.push_timing_thread(
//!     vec![(vec![1.0], 2.0)],  // an answer after 2 h
//!     vec![vec![-1.0]],        // one sampled non-answerer
//!     24.0,                    // observation window
//!     10,                      // population size
//! );
//! let model = ResponsePredictor::train(&ts, &TrainConfig::fast());
//! assert!(model.predict_answer(&[1.0]) > model.predict_answer(&[-1.0]));
//! ```

pub mod answer;
pub mod predictor;
pub mod timing;
pub mod votes;

pub use answer::{AnswerConfig, AnswerPredictor};
pub use predictor::{ResponsePredictor, TrainConfig, TrainProgress, TrainingSet};
pub use timing::{DecayMode, PredictionMode, ThreadObservation, TimingConfig, TimingPredictor};
pub use votes::{VoteConfig, VotePredictor, VoteTrainState};
