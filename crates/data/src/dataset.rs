//! The dataset container and the paper's preprocessing pipeline.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::error::DataError;
use crate::post::UserId;
use crate::stats::{DatasetStats, PreprocessReport};
use crate::thread::{QuestionId, Thread};
use crate::Hours;

/// One observed answer: the `(u, q)` pair together with its targets
/// `v_{u,q}` (net votes) and `r_{u,q}` (response time).
///
/// Produced by [`Dataset::answered_pairs`]. Pairs with `a_{u,q} = 0`
/// are *not* materialized (there are `|U| · |Q|` of them; the answer
/// matrix is ~99.97% sparse in the paper's data) — negative samples
/// are drawn on demand by the evaluation harness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnsweredPair {
    /// The answering user `u`.
    pub user: UserId,
    /// The question `q`.
    pub question: QuestionId,
    /// Index of `q` within [`Dataset::threads`].
    pub question_index: usize,
    /// Net votes `v_{u,q}` on the answer.
    pub votes: i32,
    /// Response time `r_{u,q}` in hours.
    pub response_time: Hours,
}

/// An in-memory forum dataset: a set of threads over a fixed user
/// population.
///
/// Invariants enforced at construction:
///
/// * every author id is `< num_users`;
/// * question ids are unique;
/// * all timestamps are finite and answers do not precede questions.
///
/// # Example
///
/// ```
/// use forumcast_data::{Dataset, Post, PostBody, Thread, UserId};
/// let t = Thread::new(
///     0,
///     Post::new(UserId(0), 0.0, 0, PostBody::default()),
///     vec![Post::new(UserId(1), 1.0, 2, PostBody::default())],
/// );
/// let ds = Dataset::new(2, vec![t])?;
/// assert_eq!(ds.num_users(), 2);
/// assert_eq!(ds.answered_pairs().len(), 1);
/// # Ok::<(), forumcast_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    num_users: u32,
    threads: Vec<Thread>,
}

impl Dataset {
    /// Creates a dataset, validating all invariants.
    ///
    /// Threads are sorted chronologically by question timestamp, which
    /// is the order assumed by the paper's history partitions
    /// `F(q) = {q' : q' ≤ q}`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError`] if an author id is out of range, a
    /// question id repeats, a timestamp is non-finite, or an answer
    /// precedes its question.
    pub fn new(num_users: u32, mut threads: Vec<Thread>) -> Result<Self, DataError> {
        let mut seen = HashMap::new();
        for t in &threads {
            if seen.insert(t.id, ()).is_some() {
                return Err(DataError::DuplicateQuestionId(t.id.0));
            }
            for p in t.posts() {
                if p.author.0 >= num_users {
                    return Err(DataError::UserOutOfRange {
                        user: p.author.0,
                        num_users,
                    });
                }
                if !p.timestamp.is_finite() {
                    return Err(DataError::NonFiniteTimestamp { question: t.id.0 });
                }
                // Negative hours would silently collapse into day 1
                // of the day partition (see `DayPartition::
                // day_of_time`), so reject them at the boundary.
                if p.timestamp < 0.0 {
                    return Err(DataError::NegativeTimestamp { question: t.id.0 });
                }
            }
            if t.answers.iter().any(|a| a.timestamp < t.question.timestamp) {
                return Err(DataError::AnswerBeforeQuestion { question: t.id.0 });
            }
        }
        threads.sort_by(|a, b| a.question.timestamp.total_cmp(&b.question.timestamp));
        Ok(Dataset { num_users, threads })
    }

    /// Number of users in the population (ids `0 .. num_users`).
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Number of question threads.
    pub fn num_questions(&self) -> usize {
        self.threads.len()
    }

    /// The threads, sorted by question timestamp.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Looks up a thread by question id.
    pub fn thread(&self, id: QuestionId) -> Option<&Thread> {
        self.threads.iter().find(|t| t.id == id)
    }

    /// Total number of answers across all threads.
    pub fn num_answers(&self) -> usize {
        self.threads.iter().map(Thread::num_answers).sum()
    }

    /// Timestamp `T = max_{q,n} t(p_{q,n})` of the last post in the
    /// dataset, used as the observation horizon of the point process.
    /// Returns `0.0` for an empty dataset.
    pub fn horizon(&self) -> Hours {
        self.threads
            .iter()
            .map(Thread::last_activity)
            .fold(0.0, f64::max)
    }

    /// All observed `(u, q)` answer pairs with their targets. See
    /// [`AnsweredPair`].
    pub fn answered_pairs(&self) -> Vec<AnsweredPair> {
        let mut pairs = Vec::new();
        for (qi, t) in self.threads.iter().enumerate() {
            let mut users: Vec<UserId> = t.answers.iter().map(|p| p.author).collect();
            users.sort_unstable();
            users.dedup();
            for u in users {
                let a = t.answer_by(u).expect("user answered");
                pairs.push(AnsweredPair {
                    user: u,
                    question: t.id,
                    question_index: qi,
                    votes: a.votes,
                    response_time: a.timestamp - t.asked_at(),
                });
            }
        }
        pairs
    }

    /// Applies the paper's Section III-A preprocessing:
    ///
    /// 1. drop questions without at least one answer;
    /// 2. where a user posted multiple answers to one question, keep
    ///    only the highest-voted one;
    /// 3. drop answers posted at the exact same time as the question
    ///    (and, after that, re-apply rule 1).
    ///
    /// Returns the cleaned dataset and a [`PreprocessReport`] of what
    /// was removed.
    pub fn preprocess(self) -> (Dataset, PreprocessReport) {
        let mut report = PreprocessReport::default();
        let num_users = self.num_users;
        let mut kept = Vec::with_capacity(self.threads.len());
        for t in self.threads {
            if !t.is_answered() {
                report.unanswered_questions += 1;
                continue;
            }
            // Rule 2: deduplicate per-user answers, keeping max votes.
            let mut best: HashMap<UserId, crate::post::Post> = HashMap::new();
            let n_before = t.answers.len();
            for a in t.answers {
                match best.get(&a.author) {
                    Some(b) if b.votes >= a.votes => {}
                    _ => {
                        best.insert(a.author, a);
                    }
                }
            }
            report.duplicate_answers += n_before - best.len();
            // Rule 3: drop zero-delay answers.
            let asked = t.question.timestamp;
            let answers: Vec<_> = best
                .into_values()
                .filter(|a| {
                    let keep = a.timestamp > asked;
                    if !keep {
                        report.zero_delay_answers += 1;
                    }
                    keep
                })
                .collect();
            if answers.is_empty() {
                report.unanswered_questions += 1;
                continue;
            }
            kept.push(Thread::new(t.id, t.question, answers));
        }
        let ds = Dataset {
            num_users,
            threads: kept,
        };
        report.questions_kept = ds.num_questions();
        report.answers_kept = ds.num_answers();
        (ds, report)
    }

    /// Computes descriptive statistics (Section III-A numbers).
    pub fn stats(&self) -> DatasetStats {
        let mut askers = vec![false; self.num_users as usize];
        let mut answerers = vec![false; self.num_users as usize];
        for t in &self.threads {
            askers[t.asker().index()] = true;
            for a in &t.answers {
                answerers[a.author.index()] = true;
            }
        }
        let num_askers = askers.iter().filter(|&&b| b).count();
        let num_answerers = answerers.iter().filter(|&&b| b).count();
        let num_active = askers
            .iter()
            .zip(&answerers)
            .filter(|(&a, &b)| a || b)
            .count();
        let pairs = self.answered_pairs().len();
        let cells = (num_answerers as f64) * (self.num_questions() as f64);
        DatasetStats {
            num_users: self.num_users as usize,
            num_active_users: num_active,
            num_askers,
            num_answerers,
            num_questions: self.num_questions(),
            num_answers: self.num_answers(),
            answer_matrix_density: if cells > 0.0 {
                pairs as f64 / cells
            } else {
                0.0
            },
            horizon: self.horizon(),
        }
    }

    /// FNV-1a 64 over a canonical byte feed of the whole dataset —
    /// user count, then every thread's id, question, and answers with
    /// author, timestamp bits, votes, and body bytes. Two datasets
    /// hash equal iff they are bitwise-equal, which is what the
    /// thread-count-invariance gates compare.
    pub fn fnv1a_hash(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn feed(&mut self, bytes: &[u8]) {
                for b in bytes {
                    self.0 ^= u64::from(*b);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            fn feed_u64(&mut self, v: u64) {
                self.feed(&v.to_le_bytes());
            }
            fn feed_post(&mut self, p: &crate::post::Post) {
                self.feed_u64(u64::from(p.author.0));
                self.feed_u64(p.timestamp.to_bits());
                self.feed(&p.votes.to_le_bytes());
                self.feed_u64(p.body.text.len() as u64);
                self.feed(p.body.text.as_bytes());
                self.feed_u64(p.body.code.len() as u64);
                self.feed(p.body.code.as_bytes());
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.feed_u64(u64::from(self.num_users));
        h.feed_u64(self.threads.len() as u64);
        for t in &self.threads {
            h.feed_u64(u64::from(t.id.0));
            h.feed_post(&t.question);
            h.feed_u64(t.answers.len() as u64);
            for a in &t.answers {
                h.feed_post(a);
            }
        }
        h.0
    }

    /// Restricts the dataset to the given question indices (a partition
    /// `Ω ⊆ Q`), preserving chronological order. Indices out of range
    /// are ignored.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut idx: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| i < self.threads.len())
            .collect();
        idx.sort_unstable();
        idx.dedup();
        Dataset {
            num_users: self.num_users,
            threads: idx.into_iter().map(|i| self.threads[i].clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::post::{Post, PostBody};

    fn post(u: u32, t: Hours, v: i32) -> Post {
        Post::new(UserId(u), t, v, PostBody::default())
    }

    fn simple() -> Dataset {
        Dataset::new(
            4,
            vec![
                Thread::new(0, post(0, 0.0, 1), vec![post(1, 2.0, 3)]),
                Thread::new(1, post(2, 5.0, 0), vec![post(1, 6.0, 1), post(3, 7.0, -1)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_sorts_threads_chronologically() {
        let ds = Dataset::new(
            2,
            vec![
                Thread::new(1, post(0, 9.0, 0), vec![]),
                Thread::new(0, post(1, 1.0, 0), vec![]),
            ],
        )
        .unwrap();
        assert_eq!(ds.threads()[0].id, QuestionId(0));
        assert_eq!(ds.threads()[1].id, QuestionId(1));
    }

    #[test]
    fn rejects_out_of_range_user() {
        let err = Dataset::new(1, vec![Thread::new(0, post(1, 0.0, 0), vec![])]).unwrap_err();
        assert!(matches!(err, DataError::UserOutOfRange { user: 1, .. }));
    }

    #[test]
    fn rejects_duplicate_question_ids() {
        let err = Dataset::new(
            1,
            vec![
                Thread::new(7, post(0, 0.0, 0), vec![]),
                Thread::new(7, post(0, 1.0, 0), vec![]),
            ],
        )
        .unwrap_err();
        assert_eq!(err, DataError::DuplicateQuestionId(7));
    }

    #[test]
    fn rejects_answer_before_question() {
        let err = Dataset::new(
            2,
            vec![Thread::new(0, post(0, 5.0, 0), vec![post(1, 4.0, 0)])],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DataError::AnswerBeforeQuestion { question: 0 }
        ));
    }

    #[test]
    fn rejects_non_finite_timestamp() {
        let err = Dataset::new(1, vec![Thread::new(0, post(0, f64::NAN, 0), vec![])]).unwrap_err();
        assert!(matches!(err, DataError::NonFiniteTimestamp { .. }));
    }

    #[test]
    fn rejects_negative_question_timestamp() {
        // Regression: negative hours used to pass validation and
        // collapse into day 1 of the day partition.
        let err = Dataset::new(1, vec![Thread::new(0, post(0, -3.0, 0), vec![])]).unwrap_err();
        assert!(matches!(err, DataError::NegativeTimestamp { question: 0 }));
    }

    #[test]
    fn rejects_negative_answer_timestamp() {
        // An answer can only be negative if its question is too (the
        // answer-before-question check fires first otherwise), but
        // the invariant must hold for every post.
        let err = Dataset::new(
            2,
            vec![Thread::new(4, post(0, -8.0, 0), vec![post(1, -2.0, 0)])],
        )
        .unwrap_err();
        assert!(matches!(err, DataError::NegativeTimestamp { question: 4 }));
    }

    #[test]
    fn answered_pairs_extract_targets() {
        let ds = simple();
        let pairs = ds.answered_pairs();
        assert_eq!(pairs.len(), 3);
        let p = pairs
            .iter()
            .find(|p| p.user == UserId(3))
            .expect("u3 answered q1");
        assert_eq!(p.question, QuestionId(1));
        assert_eq!(p.votes, -1);
        assert_eq!(p.response_time, 2.0);
    }

    #[test]
    fn horizon_is_last_post_time() {
        assert_eq!(simple().horizon(), 7.0);
        let empty = Dataset::new(0, vec![]).unwrap();
        assert_eq!(empty.horizon(), 0.0);
    }

    #[test]
    fn preprocess_drops_unanswered() {
        let ds = Dataset::new(
            2,
            vec![
                Thread::new(0, post(0, 0.0, 0), vec![]),
                Thread::new(1, post(0, 1.0, 0), vec![post(1, 2.0, 1)]),
            ],
        )
        .unwrap();
        let (clean, report) = ds.preprocess();
        assert_eq!(clean.num_questions(), 1);
        assert_eq!(report.unanswered_questions, 1);
        assert_eq!(report.questions_kept, 1);
    }

    #[test]
    fn preprocess_dedups_multi_answers_keeping_max_votes() {
        let ds = Dataset::new(
            2,
            vec![Thread::new(
                0,
                post(0, 0.0, 0),
                vec![post(1, 1.0, 2), post(1, 2.0, 9), post(1, 3.0, 4)],
            )],
        )
        .unwrap();
        let (clean, report) = ds.preprocess();
        assert_eq!(report.duplicate_answers, 2);
        assert_eq!(clean.num_answers(), 1);
        assert_eq!(clean.threads()[0].answers[0].votes, 9);
    }

    #[test]
    fn preprocess_drops_zero_delay_answers() {
        let ds = Dataset::new(
            2,
            vec![Thread::new(0, post(0, 1.0, 0), vec![post(1, 1.0, 5)])],
        )
        .unwrap();
        let (clean, report) = ds.preprocess();
        assert_eq!(report.zero_delay_answers, 1);
        // The thread became unanswered and is dropped entirely.
        assert_eq!(clean.num_questions(), 0);
        assert_eq!(report.unanswered_questions, 1);
    }

    #[test]
    fn stats_counts_roles() {
        let s = simple().stats();
        assert_eq!(s.num_askers, 2);
        assert_eq!(s.num_answerers, 2);
        assert_eq!(s.num_active_users, 4);
        assert_eq!(s.num_answers, 3);
        // 3 pairs over 2 answerers x 2 questions.
        assert!((s.answer_matrix_density - 0.75).abs() < 1e-12);
    }

    #[test]
    fn select_restricts_and_dedups() {
        let ds = simple();
        let sub = ds.select(&[1, 1, 99]);
        assert_eq!(sub.num_questions(), 1);
        assert_eq!(sub.threads()[0].id, QuestionId(1));
    }

    #[test]
    fn fnv1a_hash_is_stable_and_discriminating() {
        let ds = simple();
        assert_eq!(ds.fnv1a_hash(), simple().fnv1a_hash());
        assert_ne!(ds.fnv1a_hash(), ds.select(&[0]).fnv1a_hash());
    }

    #[test]
    fn dataset_roundtrips_serde() {
        let ds = simple();
        let json = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ds);
    }
}
