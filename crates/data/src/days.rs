//! Chronological day partitions `D_i ⊂ Q` (paper §IV-D).
//!
//! The historical-data experiments fix the evaluation partition
//! `Ω = D_25 ∪ … ∪ D_30` and vary the inference window
//! `F(q) = D_{25−i} ∪ … ∪ D_25`. This module maps question timestamps
//! to 1-based day indices and extracts those windows.

use crate::dataset::Dataset;
use crate::{Hours, HOURS_PER_DAY};

/// Day-based view of a dataset: maps each question to its 1-based day
/// `D_i` (day 1 covers `[0, 24)` hours).
///
/// # Example
///
/// ```
/// use forumcast_data::{Dataset, DayPartition, Post, PostBody, Thread, UserId};
/// let mk = |id, t| Thread::new(id, Post::new(UserId(0), t, 0, PostBody::default()), vec![]);
/// let ds = Dataset::new(1, vec![mk(0u32, 3.0), mk(1u32, 30.0)])?;
/// let days = DayPartition::new(&ds);
/// assert_eq!(days.day_of_question(0), 1);
/// assert_eq!(days.day_of_question(1), 2);
/// assert_eq!(days.num_days(), 2);
/// # Ok::<(), forumcast_data::DataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DayPartition {
    /// Day index (1-based) per question, aligned with
    /// `Dataset::threads()`.
    day_per_question: Vec<usize>,
    num_days: usize,
}

impl DayPartition {
    /// Builds the partition from question timestamps.
    pub fn new(dataset: &Dataset) -> Self {
        let day_per_question: Vec<usize> = dataset
            .threads()
            .iter()
            .map(|t| Self::day_of_time(t.asked_at()))
            .collect();
        let num_days = day_per_question.iter().copied().max().unwrap_or(0);
        DayPartition {
            day_per_question,
            num_days,
        }
    }

    /// 1-based day containing timestamp `t` (non-negative hours).
    ///
    /// Negative hours have no day: the `as usize` cast would clamp
    /// them all into day 1, silently mixing pre-epoch posts into the
    /// first partition. [`Dataset::new`] rejects negative timestamps
    /// at the boundary, so this can only trip on raw values that
    /// bypassed validation.
    pub fn day_of_time(t: Hours) -> usize {
        debug_assert!(t >= 0.0, "negative timestamp {t} has no day partition");
        (t / HOURS_PER_DAY).floor() as usize + 1
    }

    /// Day of the `i`-th question (panics if out of range).
    ///
    /// # Panics
    ///
    /// Panics when `question_index` is out of bounds.
    pub fn day_of_question(&self, question_index: usize) -> usize {
        self.day_per_question[question_index]
    }

    /// Highest day index present (0 for an empty dataset).
    pub fn num_days(&self) -> usize {
        self.num_days
    }

    /// Indices of questions asked in days `from ..= to` (1-based,
    /// inclusive), i.e. the union `D_from ∪ … ∪ D_to`.
    pub fn questions_in_days(&self, from: usize, to: usize) -> Vec<usize> {
        self.day_per_question
            .iter()
            .enumerate()
            .filter(|(_, &d)| d >= from && d <= to)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::post::{Post, PostBody, UserId};
    use crate::thread::Thread;

    fn ds_with_times(times: &[Hours]) -> Dataset {
        let threads = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                Thread::new(
                    i as u32,
                    Post::new(UserId(0), t, 0, PostBody::default()),
                    vec![],
                )
            })
            .collect();
        Dataset::new(1, threads).unwrap()
    }

    #[test]
    fn day_boundaries_are_half_open() {
        assert_eq!(DayPartition::day_of_time(0.0), 1);
        assert_eq!(DayPartition::day_of_time(23.999), 1);
        assert_eq!(DayPartition::day_of_time(24.0), 2);
        assert_eq!(DayPartition::day_of_time(719.9), 30);
    }

    #[test]
    fn questions_in_days_inclusive_range() {
        let ds = ds_with_times(&[1.0, 25.0, 49.0, 73.0]);
        let days = DayPartition::new(&ds);
        assert_eq!(days.num_days(), 4);
        assert_eq!(days.questions_in_days(2, 3), vec![1, 2]);
        assert_eq!(days.questions_in_days(1, 4).len(), 4);
        assert!(days.questions_in_days(5, 9).is_empty());
    }

    #[test]
    fn empty_dataset_has_zero_days() {
        let ds = Dataset::new(0, vec![]).unwrap();
        let days = DayPartition::new(&ds);
        assert_eq!(days.num_days(), 0);
        assert!(days.questions_in_days(1, 30).is_empty());
    }

    #[test]
    fn day_of_question_follows_chronological_sort() {
        // Dataset::new sorts threads by time, so question 0 is day 1.
        let ds = ds_with_times(&[30.0, 3.0]);
        let days = DayPartition::new(&ds);
        assert_eq!(days.day_of_question(0), 1);
        assert_eq!(days.day_of_question(1), 2);
    }
}
