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
//! API with shared feature normalization. [`TrainingRows`] groups
//! `(user, question)` rows into its [`TrainingSet`], and
//! [`sample_training_set`] samples those rows from observed threads.
//!
//! # Example
//!
//! ```
//! use forumcast_core::{ResponsePredictor, TrainConfig, TrainingRows};
//!
//! // Twenty questions: on each, the user with the single feature
//! // high answers after 2 h with 3 votes, and one with it low does not.
//! let mut rows = TrainingRows::new(1);
//! for q in 0..20 {
//!     rows.answered(q, vec![1.0], 3.0, 2.0);
//!     rows.unanswered(q, vec![-1.0]);
//! }
//! // 24 h observation windows over a population of 10 users.
//! let ts = rows.finish(&[24.0; 20], 10);
//! let model = ResponsePredictor::train(&ts, &TrainConfig::fast());
//! assert!(model.predict_answer(&[1.0]) > model.predict_answer(&[-1.0]));
//! ```

pub mod answer;
pub mod predictor;
pub mod timing;
pub mod votes;

pub use answer::{AnswerConfig, AnswerPredictor};
pub use predictor::{
    sample_training_set, NoTrainingData, ResponsePredictor, TrainConfig, TrainingRows, TrainingSet,
};
pub use timing::{DecayMode, PredictionMode, ThreadObservation, TimingConfig, TimingPredictor};
pub use votes::{VoteConfig, VotePredictor};
