//! JSON import/export for datasets.
//!
//! Two formats are supported:
//!
//! * the **native** format — a direct serde serialization of
//!   [`Dataset`], produced by [`to_json`] / consumed by [`from_json`];
//! * a **record** format ([`ThreadRecord`]) that resembles the shape of
//!   a Stack Exchange API crawl (one record per question with embedded
//!   answers, string user keys, HTML bodies, epoch-second timestamps).
//!   [`import_records`] normalizes it: user keys are mapped to dense
//!   [`UserId`]s, timestamps are rebased to hours since the earliest
//!   post, and bodies are split into words/code via
//!   [`PostBody::from_html`].

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::post::{Post, PostBody, UserId};
use crate::thread::Thread;

/// Serializes a dataset to pretty JSON.
///
/// # Errors
///
/// Returns [`DataError::Json`] if serialization fails.
pub fn to_json(dataset: &Dataset) -> Result<String, DataError> {
    Ok(serde_json::to_string_pretty(dataset)?)
}

/// Deserializes a dataset from native JSON, re-validating invariants.
///
/// # Errors
///
/// Returns [`DataError`] on malformed JSON or invariant violations.
pub fn from_json(json: &str) -> Result<Dataset, DataError> {
    let ds: Dataset = serde_json::from_str(json)?;
    // Re-run validation: the JSON may come from an untrusted source.
    Dataset::new(ds.num_users(), ds.threads().to_vec())
}

/// One post in the external record format.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PostRecord {
    /// External user key (e.g. a Stack Exchange account id).
    pub user: String,
    /// Creation time in epoch seconds.
    pub creation_epoch_s: f64,
    /// Net score / votes.
    pub score: i32,
    /// HTML body; `<code>` spans become [`PostBody::code`].
    pub body_html: String,
}

/// One question thread in the external record format.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreadRecord {
    /// External question id.
    pub question_id: u32,
    /// The question post.
    pub question: PostRecord,
    /// The answers, any order.
    #[serde(default)]
    pub answers: Vec<PostRecord>,
}

/// Imports a crawl in the record format, normalizing user ids and
/// timestamps. Returns the dataset together with the user-key → id
/// mapping, so callers can trace predictions back to external users.
///
/// # Errors
///
/// Returns [`DataError::NonFiniteTimestamp`] (naming the offending
/// question id) when any `creation_epoch_s` is NaN or infinite —
/// rejected up front so NaN can never flow into the epoch rebasing
/// below — and [`DataError`] when the normalized records violate
/// dataset invariants (e.g. an answer timestamped before its
/// question).
pub fn import_records(
    records: &[ThreadRecord],
) -> Result<(Dataset, HashMap<String, UserId>), DataError> {
    for r in records {
        let all_finite = r.question.creation_epoch_s.is_finite()
            && r.answers.iter().all(|a| a.creation_epoch_s.is_finite());
        if !all_finite {
            return Err(DataError::NonFiniteTimestamp {
                question: r.question_id,
            });
        }
    }
    let mut user_ids: HashMap<String, UserId> = HashMap::new();
    let intern = |key: &str, user_ids: &mut HashMap<String, UserId>| {
        let next = user_ids.len() as u32;
        *user_ids.entry(key.to_owned()).or_insert(UserId(next))
    };
    let epoch = records
        .iter()
        .flat_map(|r| {
            std::iter::once(r.question.creation_epoch_s)
                .chain(r.answers.iter().map(|a| a.creation_epoch_s))
        })
        .fold(f64::INFINITY, f64::min);
    let to_hours = |s: f64| {
        if epoch.is_finite() {
            (s - epoch) / 3600.0
        } else {
            0.0
        }
    };

    let mut threads = Vec::with_capacity(records.len());
    for r in records {
        let qa = intern(&r.question.user, &mut user_ids);
        let question = Post::new(
            qa,
            to_hours(r.question.creation_epoch_s),
            r.question.score,
            PostBody::from_html(&r.question.body_html),
        );
        let answers = r
            .answers
            .iter()
            .map(|a| {
                let u = intern(&a.user, &mut user_ids);
                Post::new(
                    u,
                    to_hours(a.creation_epoch_s),
                    a.score,
                    PostBody::from_html(&a.body_html),
                )
            })
            .collect();
        threads.push(Thread::new(r.question_id, question, answers));
    }
    let ds = Dataset::new(user_ids.len() as u32, threads)?;
    Ok((ds, user_ids))
}

/// Parses the record format from a JSON array string and imports it.
///
/// # Errors
///
/// Returns [`DataError::Json`] on malformed JSON, or any error from
/// [`import_records`].
pub fn import_records_json(json: &str) -> Result<(Dataset, HashMap<String, UserId>), DataError> {
    let records: Vec<ThreadRecord> = serde_json::from_str(json)?;
    import_records(&records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<ThreadRecord> {
        vec![
            ThreadRecord {
                question_id: 100,
                question: PostRecord {
                    user: "alice".into(),
                    creation_epoch_s: 1_000_000.0,
                    score: 2,
                    body_html: "how to <code>sort</code> fast".into(),
                },
                answers: vec![PostRecord {
                    user: "bob".into(),
                    creation_epoch_s: 1_003_600.0,
                    score: 5,
                    body_html: "use <code>sort_unstable</code>".into(),
                }],
            },
            ThreadRecord {
                question_id: 101,
                question: PostRecord {
                    user: "bob".into(),
                    creation_epoch_s: 1_007_200.0,
                    score: 0,
                    body_html: "plain question".into(),
                },
                answers: vec![],
            },
        ]
    }

    #[test]
    fn import_normalizes_users_and_times() {
        let (ds, users) = import_records(&sample_records()).unwrap();
        assert_eq!(ds.num_users(), 2);
        assert_eq!(users.len(), 2);
        let t0 = ds.thread(crate::thread::QuestionId(100)).unwrap();
        assert_eq!(t0.asked_at(), 0.0);
        assert_eq!(t0.answers[0].timestamp, 1.0); // 3600 s later
        assert_eq!(t0.answers[0].body.code, "sort_unstable");
        let t1 = ds.thread(crate::thread::QuestionId(101)).unwrap();
        assert_eq!(t1.asked_at(), 2.0);
    }

    #[test]
    fn import_reuses_user_ids_across_threads() {
        let (ds, users) = import_records(&sample_records()).unwrap();
        let bob = users["bob"];
        let t0 = ds.thread(crate::thread::QuestionId(100)).unwrap();
        let t1 = ds.thread(crate::thread::QuestionId(101)).unwrap();
        assert_eq!(t0.answers[0].author, bob);
        assert_eq!(t1.asker(), bob);
    }

    #[test]
    fn native_json_roundtrip() {
        let (ds, _) = import_records(&sample_records()).unwrap();
        let json = to_json(&ds).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(matches!(from_json("not json"), Err(DataError::Json(_))));
    }

    #[test]
    fn from_json_revalidates_invariants() {
        // Hand-craft JSON where an author id exceeds num_users.
        let json = r#"{
            "num_users": 1,
            "threads": [{
                "id": 0,
                "question": {"author": 5, "timestamp": 0.0, "votes": 0,
                             "body": {"text": "", "code": ""}},
                "answers": []
            }]
        }"#;
        assert!(matches!(
            from_json(json),
            Err(DataError::UserOutOfRange { user: 5, .. })
        ));
    }

    #[test]
    fn import_records_json_parses_array() {
        let json = serde_json::to_string(&sample_records()).unwrap();
        let (ds, _) = import_records_json(&json).unwrap();
        assert_eq!(ds.num_questions(), 2);
    }

    #[test]
    fn strict_import_rejects_non_finite_epoch_seconds() {
        // NaN question timestamp: named by question id.
        let mut records = sample_records();
        records[1].question.creation_epoch_s = f64::NAN;
        match import_records(&records) {
            Err(DataError::NonFiniteTimestamp { question }) => assert_eq!(question, 101),
            other => panic!("expected NonFiniteTimestamp, got {other:?}"),
        }
        // Infinite answer timestamp: the containing thread is named.
        let mut records = sample_records();
        records[0].answers[0].creation_epoch_s = f64::INFINITY;
        match import_records(&records) {
            Err(DataError::NonFiniteTimestamp { question }) => assert_eq!(question, 100),
            other => panic!("expected NonFiniteTimestamp, got {other:?}"),
        }
        let err = import_records(&records).unwrap_err();
        assert!(err.to_string().contains("q100"), "{err}");
    }

    #[test]
    fn import_empty_records_yields_empty_dataset() {
        let (ds, users) = import_records(&[]).unwrap();
        assert_eq!(ds.num_questions(), 0);
        assert!(users.is_empty());
    }
}
