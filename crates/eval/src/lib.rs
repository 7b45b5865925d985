//! Evaluation harness for `forumcast`: metrics, the paper's
//! cross-validation protocol, baselines, and runners for every table
//! and figure in Section IV of Hansen et al. (ICDCS 2019).
//!
//! * [`metrics`] — AUC (Mann–Whitney, tie-corrected), RMSE, MAE,
//!   Pearson/Spearman correlation, CDFs;
//! * [`data`] — assembling `(u, q)` pair records with features,
//!   targets, balanced negative samples, and per-thread survival
//!   samples from a dataset partition (`Ω`, `F(q)`);
//! * [`split`] — 5-fold **stratified** cross-validation ("each user's
//!   answers are allocated uniformly across folds", Section IV-A);
//! * [`fold`] — one train/evaluate iteration of our three models and
//!   the three baselines (SPARFA / MF / Poisson regression);
//! * [`experiments`] — the CV driver, Table I, Figure 3 (vote/time
//!   correlation), Figure 4 (feature CDFs), Figure 5 (topic-count
//!   sweep), Figure 6 (leave-one-feature-out importance), Figure 7
//!   (feature groups × history length);
//! * [`session`] — the run session every `forumcast` experiment runs
//!   under:
//!   flag-over-env resolution, fault and collector arming, training
//!   workers, and the trace/bench-report/summary flush.
//!
//! # Example
//!
//! ```no_run
//! use forumcast_eval::experiments::table1;
//! use forumcast_eval::EvalConfig;
//!
//! let report = table1::run(&EvalConfig::quick(), None).expect("every fold completes");
//! println!("{report}");
//! ```

pub mod baselines;
pub mod config;
pub mod data;
pub mod experiments;
pub mod fold;
pub mod metrics;
pub mod session;
pub mod split;

pub use config::EvalConfig;
pub use data::{ExperimentData, PairRecord};
pub use experiments::{run_cv, run_cv_resumable, CvError};
pub use fold::{FoldOutcome, MaskSpec};
pub use metrics::{auc, cdf_points, mae, pearson, rmse, spearman};
pub use session::{RunFlags, RunSession};
