//! Property-based tests for the data model and preprocessing.

use proptest::prelude::*;

use forumcast_data::io::{PostRecord, ThreadRecord};
use forumcast_data::{io, Dataset, Post, PostBody, Thread, UserId};

fn arb_thread(id: u32, num_users: u32) -> impl Strategy<Value = Thread> {
    (
        0..num_users,
        0.0f64..700.0,
        -5i32..20,
        proptest::collection::vec((0..num_users, 0.0f64..20.0, -6i32..30), 0..5),
    )
        .prop_map(move |(asker, t_q, v_q, answers)| {
            let question = Post::new(UserId(asker), t_q, v_q, PostBody::words("q text"));
            let answers = answers
                .into_iter()
                .map(|(u, dt, v)| Post::new(UserId(u), t_q + dt, v, PostBody::words("a")))
                .collect();
            Thread::new(id, question, answers)
        })
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    proptest::collection::vec(any::<()>(), 1..12).prop_flat_map(|v| {
        let n = v.len() as u32;
        let threads: Vec<_> = (0..n).map(|i| arb_thread(i, 8)).collect();
        threads.prop_map(|ts| Dataset::new(8, ts).expect("valid by construction"))
    })
}

proptest! {
    /// Preprocessing is idempotent and never grows the dataset.
    #[test]
    fn preprocess_idempotent(ds in arb_dataset()) {
        let (once, _) = ds.clone().preprocess();
        let (twice, second_report) = once.clone().preprocess();
        prop_assert_eq!(&once, &twice);
        prop_assert_eq!(second_report.duplicate_answers, 0);
        prop_assert_eq!(second_report.zero_delay_answers, 0);
        prop_assert!(once.num_questions() <= ds.num_questions());
        prop_assert!(once.num_answers() <= ds.num_answers());
    }

    /// After preprocessing, every answer pair is unique and strictly
    /// delayed.
    #[test]
    fn preprocessed_pairs_are_clean(ds in arb_dataset()) {
        let (clean, _) = ds.preprocess();
        let pairs = clean.answered_pairs();
        let mut seen = std::collections::HashSet::new();
        for p in &pairs {
            prop_assert!(p.response_time > 0.0);
            prop_assert!(seen.insert((p.user.0, p.question.0)), "duplicate pair");
        }
    }

    /// Native JSON round-trips exactly.
    #[test]
    fn json_roundtrip(ds in arb_dataset()) {
        let json = io::to_json(&ds).expect("serializes");
        let back = io::from_json(&json).expect("parses");
        prop_assert_eq!(back, ds);
    }

    /// Answered pairs agree with per-thread queries.
    #[test]
    fn pairs_match_thread_queries(ds in arb_dataset()) {
        for p in ds.answered_pairs() {
            let t = ds.thread(p.question).expect("thread exists");
            prop_assert!(t.answered_by(p.user));
            prop_assert_eq!(t.response_time_of(p.user), Some(p.response_time));
        }
    }

    /// Horizon bounds every timestamp.
    #[test]
    fn horizon_is_max(ds in arb_dataset()) {
        let h = ds.horizon();
        for t in ds.threads() {
            for p in t.posts() {
                prop_assert!(p.timestamp <= h + 1e-12);
            }
        }
    }
}

/// Adversarial crawl posts: NaN/infinite/negative/huge timestamps,
/// empty user keys and bodies.
fn arb_post_record() -> impl Strategy<Value = PostRecord> {
    (0u8..8, 0.0f64..5_000.0, 0u8..4, 0u8..4, -5i32..10).prop_map(
        |(esel, base, usel, bsel, score)| {
            let creation_epoch_s = match esel {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -base - 1.0,
                4 => 1e308,
                _ => base,
            };
            let user = match usel {
                0 => "",
                1 => " \t",
                2 => "alice",
                _ => "bob",
            };
            let body_html = match bsel {
                0 => "",
                1 => "   ",
                2 => "plain words",
                _ => "with <code>code</code>",
            };
            PostRecord {
                user: user.to_string(),
                creation_epoch_s,
                score,
                body_html: body_html.to_string(),
            }
        },
    )
}

/// Adversarial crawls: small question-id range so duplicates are
/// common, 0–2 answers per record.
fn arb_records() -> impl Strategy<Value = Vec<ThreadRecord>> {
    proptest::collection::vec(
        (
            0u32..6,
            arb_post_record(),
            proptest::collection::vec(arb_post_record(), 0..3),
        ),
        0..10,
    )
    .prop_map(|rs| {
        rs.into_iter()
            .map(|(question_id, question, answers)| ThreadRecord {
                question_id,
                question,
                answers,
            })
            .collect()
    })
}

proptest! {
    /// Strict import is total on adversarial crawls: it returns a
    /// typed error or a dataset that satisfies every invariant, with
    /// one user id per distinct user key, and never panics.
    #[test]
    fn strict_import_is_total_and_valid_when_accepted(records in arb_records()) {
        if let Ok((ds, users)) = io::import_records(&records) {
            prop_assert_eq!(ds.num_questions(), records.len());
            prop_assert_eq!(users.len() as u32, ds.num_users());
            prop_assert!(Dataset::new(ds.num_users(), ds.threads().to_vec()).is_ok());
        }
    }
}
