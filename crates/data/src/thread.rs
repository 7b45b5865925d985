//! Question threads: one question post plus its answers.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::post::{Post, UserId};
use crate::Hours;

/// Identifier of a question / thread.
///
/// Question ids are assigned at dataset creation time and remain stable
/// across preprocessing (filtered datasets keep the original ids), so
/// they can be used as external keys. Within one [`crate::Dataset`] the
/// ids are unique but not necessarily dense.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct QuestionId(pub u32);

impl QuestionId {
    /// Returns the id as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QuestionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u32> for QuestionId {
    fn from(v: u32) -> Self {
        QuestionId(v)
    }
}

/// A question thread `q`: the question post `p_{q,0}` and the answers
/// `p_{q,1}, …` in chronological order.
///
/// # Example
///
/// ```
/// use forumcast_data::{Post, PostBody, Thread, UserId};
/// let t = Thread::new(
///     5,
///     Post::new(UserId(0), 0.0, 1, PostBody::words("q")),
///     vec![Post::new(UserId(1), 2.0, 3, PostBody::words("a"))],
/// );
/// assert_eq!(t.asker(), UserId(0));
/// assert_eq!(t.num_answers(), 1);
/// assert_eq!(t.response_time_of(UserId(1)), Some(2.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Thread {
    /// Stable identifier of the question.
    pub id: QuestionId,
    /// The question post `p_{q,0}`.
    pub question: Post,
    /// Answer posts `p_{q,1}, …`, sorted by timestamp.
    pub answers: Vec<Post>,
}

impl Thread {
    /// Creates a thread, sorting the answers chronologically and
    /// holding them at their exact length.
    pub fn new(id: impl Into<QuestionId>, question: Post, answers: Vec<Post>) -> Self {
        let mut thread = Thread {
            id: id.into(),
            question,
            answers: Vec::new(),
        };
        thread.set_answers(answers);
        thread
    }

    /// Replaces the answers, sorted chronologically and held at their
    /// exact length.
    pub(crate) fn set_answers(&mut self, mut answers: Vec<Post>) {
        answers.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        answers.shrink_to_fit();
        self.answers = answers;
    }

    /// The user `u(p_{q,0})` who asked the question.
    pub fn asker(&self) -> UserId {
        self.question.author
    }

    /// Timestamp `t(p_{q,0})` at which the question was posted.
    pub fn asked_at(&self) -> Hours {
        self.question.timestamp
    }

    /// Number of answers in the thread.
    pub fn num_answers(&self) -> usize {
        self.answers.len()
    }

    /// `true` when the thread received at least one answer.
    pub fn is_answered(&self) -> bool {
        !self.answers.is_empty()
    }

    /// Iterates over every post in the thread, question first.
    ///
    /// This matches the paper's indexing `p_{q,0}, p_{q,1}, …`.
    pub fn posts(&self) -> impl Iterator<Item = &Post> {
        std::iter::once(&self.question).chain(self.answers.iter())
    }

    /// Iterates over the distinct users participating in the thread
    /// (asker and answerers). A user appears once even with multiple
    /// posts.
    pub fn participants(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self.posts().map(|p| p.author).collect();
        users.sort_unstable();
        users.dedup();
        users
    }

    /// Returns `u`'s answer to this question, if any. When a user has
    /// posted several answers (possible in raw data, removed by
    /// preprocessing) the one with the highest votes is returned,
    /// matching the paper's Section III-A rule.
    pub fn answer_by(&self, u: UserId) -> Option<&Post> {
        self.answers
            .iter()
            .filter(|p| p.author == u)
            .max_by_key(|p| p.votes)
    }

    /// `true` when user `u` answered this question — target `a_{u,q}`.
    pub fn answered_by(&self, u: UserId) -> bool {
        self.answers.iter().any(|p| p.author == u)
    }

    /// Response time `r_{u,q} = t(p_{q,n}) − t(p_{q,0})` of user `u`,
    /// or `None` if `u` did not answer.
    pub fn response_time_of(&self, u: UserId) -> Option<Hours> {
        self.answer_by(u).map(|p| p.timestamp - self.asked_at())
    }

    /// Timestamp of the last post in the thread (question if there are
    /// no answers).
    pub fn last_activity(&self) -> Hours {
        self.answers
            .last()
            .map(|p| p.timestamp)
            .unwrap_or(self.question.timestamp)
            .max(self.question.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::post::PostBody;

    fn post(u: u32, t: Hours, v: i32) -> Post {
        Post::new(UserId(u), t, v, PostBody::default())
    }

    fn sample() -> Thread {
        Thread::new(
            1,
            post(0, 10.0, 2),
            vec![post(2, 14.0, 1), post(1, 12.0, 5), post(2, 13.0, 4)],
        )
    }

    #[test]
    fn answers_are_sorted_chronologically() {
        let t = sample();
        let times: Vec<Hours> = t.answers.iter().map(|p| p.timestamp).collect();
        assert_eq!(times, vec![12.0, 13.0, 14.0]);
    }

    #[test]
    fn posts_iterates_question_first() {
        let t = sample();
        let first = t.posts().next().unwrap();
        assert_eq!(first.author, UserId(0));
        assert_eq!(t.posts().count(), 4);
    }

    #[test]
    fn participants_are_unique_and_sorted() {
        let t = sample();
        assert_eq!(t.participants(), vec![UserId(0), UserId(1), UserId(2)]);
    }

    #[test]
    fn answer_by_picks_highest_voted_duplicate() {
        let t = sample();
        let a = t.answer_by(UserId(2)).unwrap();
        assert_eq!(a.votes, 4);
    }

    #[test]
    fn response_time_is_relative_to_question() {
        let t = sample();
        assert_eq!(t.response_time_of(UserId(1)), Some(2.0));
        assert_eq!(t.response_time_of(UserId(9)), None);
    }

    #[test]
    fn answered_by_reflects_membership() {
        let t = sample();
        assert!(t.answered_by(UserId(1)));
        assert!(!t.answered_by(UserId(0)));
    }

    #[test]
    fn unanswered_thread_properties() {
        let t = Thread::new(3, post(4, 5.0, 0), vec![]);
        assert!(!t.is_answered());
        assert_eq!(t.num_answers(), 0);
        assert_eq!(t.last_activity(), 5.0);
        assert_eq!(t.participants(), vec![UserId(4)]);
    }

    #[test]
    fn last_activity_is_final_answer() {
        assert_eq!(sample().last_activity(), 14.0);
    }

    #[test]
    fn question_id_display() {
        assert_eq!(QuestionId(3).to_string(), "q3");
        assert_eq!(QuestionId::from(3u32).index(), 3);
    }
}
