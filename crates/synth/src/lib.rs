//! Synthetic Stack-Overflow-like dataset generator for `forumcast`.
//!
//! The paper evaluates on a crawl of 20,923 "Python" questions from
//! the Stack Exchange API (Section III-A). That data is neither
//! redistributable nor reachable offline, so this crate provides a
//! **generative forum simulator** calibrated to every descriptive
//! statistic the paper reports; DESIGN.md §3 documents the
//! substitution in detail. The key properties preserved:
//!
//! * ~40% of questions unanswered before preprocessing, ≈1.5 answers
//!   per answered question, extreme answer-matrix sparsity;
//! * heavy-tailed user activity (≈40% of answerers post ≥2 answers,
//!   Fig. 4a) and **more active users answer faster** (Fig. 4b);
//! * answer votes driven by a user-expertise channel *independent* of
//!   the timing channel, so net votes and response times are
//!   uncorrelated (Fig. 3);
//! * question word/code lengths log-normal around ≈300 characters
//!   with higher code variance (Fig. 4e);
//! * topical structure: users have Dirichlet topic interests, posts
//!   are generated from per-topic vocabularies, and answerers
//!   preferentially pick questions matching their interests;
//! * social structure: repeat asker–answerer interactions (preferential
//!   attachment), producing disconnected SLN graphs with high degree
//!   variance (Fig. 2);
//! * ground-truth response times drawn from the paper's own
//!   exponentially-decaying-excitation point process
//!   `λ(t) = μ e^{−ωt}`, with `μ` a function of user responsiveness
//!   and topic match.
//!
//! # Example
//!
//! ```
//! use forumcast_synth::SynthConfig;
//!
//! let dataset = SynthConfig::small().with_seed(7).generate();
//! let (clean, report) = dataset.preprocess();
//! assert!(clean.num_questions() > 0);
//! assert!(report.unanswered_questions > 0);
//! ```

pub mod config;
pub mod generator;
pub mod population;
pub mod simulator;
pub mod text;

pub use config::{SynthConfig, TimingNoise};
pub use generator::{generate, generate_with_threads};
pub use population::{Population, UserProfile};
pub use simulator::{derive_question_seed, ForumSimulator, QuestionEvent, SHARD_SIZE};
