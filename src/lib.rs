//! # forumcast
//!
//! A from-scratch Rust reproduction of Hansen et al., *Predicting the
//! Timing and Quality of Responses in Online Discussion Forums*
//! (IEEE ICDCS 2019): joint prediction of **who** will answer a
//! question on a CQA forum, the **net votes** the answer will
//! receive, and the **time** until it arrives — plus the LP-based
//! question-recommendation system built on those predictions.
//!
//! This facade crate re-exports the workspace's public API. The
//! pieces (bottom-up):
//!
//! * [`data`] — forum data model, preprocessing, JSON import/export;
//! * [`synth`] — a calibrated synthetic Stack-Overflow-like dataset
//!   generator (substitute for the paper's crawl; DESIGN.md §3);
//! * [`text`] / [`topics`] — tokenizer and collapsed-Gibbs LDA;
//! * [`graph`] — SLN graphs, centralities, resource allocation;
//! * [`ml`] — MLPs/backprop, Adam, logistic/Poisson regression,
//!   matrix factorization, SPARFA;
//! * [`features`] — the paper's 20 user/question/user-question/social
//!   features;
//! * [`core`] — the three predictors (logistic `â`, deep-net `v̂`,
//!   point-process `r̂`) behind [`core::ResponsePredictor`];
//! * [`eval`] — metrics, stratified CV, and runners for every table
//!   and figure in the paper;
//! * [`recsys`] — the Section-V question router (LP + load windows).
//!
//! # Quickstart
//!
//! ```
//! use forumcast::prelude::*;
//!
//! // A small synthetic forum, preprocessed the paper's way.
//! let (dataset, _report) = SynthConfig::small().generate().preprocess();
//! assert!(dataset.num_questions() > 0);
//!
//! // SLN graph analytics (Figure 2).
//! let qa = qa_graph(dataset.num_users(), dataset.threads());
//! let stats = GraphStats::compute(&qa);
//! assert!(stats.average_degree > 0.0);
//! ```
//!
//! See `examples/` for end-to-end training, evaluation, and routing.

pub use forumcast_abtest as abtest;
pub use forumcast_core as core;
pub use forumcast_data as data;
pub use forumcast_eval as eval;
pub use forumcast_features as features;
pub use forumcast_graph as graph;
pub use forumcast_ml as ml;
pub use forumcast_recsys as recsys;
pub use forumcast_synth as synth;
pub use forumcast_text as text;
pub use forumcast_topics as topics;

/// Convenient glob import for applications.
pub mod prelude {
    pub use forumcast_core::{
        sample_training_set, AnswerPredictor, ResponsePredictor, TimingPredictor, TrainConfig,
        TrainingRows, TrainingSet, VotePredictor,
    };
    pub use forumcast_data::{Dataset, Hours, Post, PostBody, QuestionId, Thread, UserId};
    pub use forumcast_eval::{EvalConfig, ExperimentData};
    pub use forumcast_features::{ExtractorConfig, FeatureExtractor, FeatureGroup, FeatureId};
    pub use forumcast_graph::{dense_graph, qa_graph, GraphStats};
    pub use forumcast_recsys::{score_candidates, Candidate, QuestionRouter, RouterConfig};
    pub use forumcast_synth::SynthConfig;
    pub use forumcast_topics::{LdaConfig, LdaModel};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        let cfg = crate::prelude::SynthConfig::small();
        assert!(cfg.num_users > 0);
    }
}
