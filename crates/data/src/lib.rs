//! Forum data model for `forumcast`.
//!
//! This crate defines the data structures that represent an online
//! Community Question Answering (CQA) discussion forum, following the
//! formalization of Hansen et al., *Predicting the Timing and Quality of
//! Responses in Online Discussion Forums* (ICDCS 2019), Section II-A:
//!
//! * a forum is a set of **threads**, one per question `q ∈ Q`;
//! * the `n`-th **post** in thread `q` is `p_{q,n}`, with `p_{q,0}` the
//!   question itself and `p_{q,1}, …` the answers;
//! * every post has a creator `u(p)`, a timestamp `t(p)` and net votes
//!   `v(p)` (up-votes minus down-votes).
//!
//! The three prediction targets for a user/question pair `(u, q)` are
//! exposed through [`Dataset::answered_pairs`]:
//!
//! * `a_{u,q} ∈ {0, 1}` — whether `u` answers `q`;
//! * `v_{u,q} ∈ ℤ` — the net votes `u`'s answer receives;
//! * `r_{u,q} ∈ ℝ₊` — the elapsed time before `u` answers.
//!
//! The crate also implements the paper's preprocessing pipeline
//! (Section III-A) in [`Dataset::preprocess`], chronological day
//! partitions used by the historical-data experiments (Section IV-D) in
//! [`days`], and JSON import/export in [`io`].
//!
//! # Example
//!
//! ```
//! use forumcast_data::{Dataset, Post, PostBody, Thread, UserId};
//!
//! let question = Post::new(UserId(0), 0.0, 2, PostBody::words("how do I sort a vec"));
//! let answer = Post::new(UserId(1), 1.5, 5, PostBody::words("use sort_unstable"));
//! let thread = Thread::new(0, question, vec![answer]);
//! let dataset = Dataset::new(2, vec![thread]).expect("valid dataset");
//!
//! assert_eq!(dataset.num_questions(), 1);
//! let pairs = dataset.answered_pairs();
//! assert_eq!(pairs.len(), 1);
//! assert_eq!(pairs[0].response_time, 1.5);
//! ```

pub mod calibration;
pub mod dataset;
pub mod days;
pub mod error;
pub mod io;
pub mod post;
pub mod stats;
pub mod thread;

pub use calibration::{calibrate, CalibrationCheck, CalibrationReport};
pub use dataset::{AnsweredPair, Dataset};
pub use days::DayPartition;
pub use error::DataError;
pub use post::{Post, PostBody, UserId};
pub use stats::{DatasetStats, PreprocessReport};
pub use thread::{QuestionId, Thread};

/// Time unit used throughout the crate: hours since the dataset epoch.
///
/// All timestamps ([`Post::timestamp`]) and durations (response times)
/// are expressed in fractional hours. The paper's 30-day Stack Overflow
/// window corresponds to `0.0 ..= 720.0`.
pub type Hours = f64;

/// Number of hours in one forum "day", used by [`days::DayPartition`].
pub const HOURS_PER_DAY: Hours = 24.0;
