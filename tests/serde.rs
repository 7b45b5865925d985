//! Integration test: persistence of datasets and trained models
//! across the crate boundary (save → load → identical predictions).

use forumcast::data::io;
use forumcast::prelude::*;

#[test]
fn dataset_roundtrips_through_native_json() {
    let (dataset, _) = SynthConfig::small().with_seed(5).generate().preprocess();
    let json = io::to_json(&dataset).expect("serializes");
    let back = io::from_json(&json).expect("parses");
    assert_eq!(back, dataset);
    assert_eq!(back.stats().num_answers, dataset.stats().num_answers);
}

#[test]
fn trained_model_roundtrips_through_json() {
    // Small synthetic training set.
    let mut ts = TrainingSet::new(2);
    for i in 0..40 {
        let x = vec![if i % 2 == 0 { 1.0 } else { -1.0 }, (i % 5) as f64];
        ts.push_answer(x.clone(), i % 2 == 0);
        ts.push_vote(x.clone(), (i % 3) as f64);
        if i % 2 == 0 {
            ts.push_timing_thread(vec![(x, 1.0 + (i % 4) as f64)], vec![], 48.0, 20);
        }
    }
    let model = ResponsePredictor::train(&ts, &TrainConfig::fast());
    let json = serde_json::to_string(&model).expect("model serializes");
    let back: ResponsePredictor = serde_json::from_str(&json).expect("model parses");

    let probe = vec![1.0, 2.0];
    assert_eq!(back.predict_answer(&probe), model.predict_answer(&probe));
    assert_eq!(back.predict_votes(&probe), model.predict_votes(&probe));
    assert_eq!(
        back.predict_response_time(&probe, 48.0),
        model.predict_response_time(&probe, 48.0)
    );
}

#[test]
fn external_record_import_to_prediction_pipeline() {
    // Build a tiny record-format crawl, import, and verify the
    // pipeline consumes it end to end.
    let records = r#"[
        {"question_id": 1,
         "question": {"user": "a", "creation_epoch_s": 0, "score": 1,
                      "body_html": "sorting lists <code>x.sort()</code>"},
         "answers": [{"user": "b", "creation_epoch_s": 7200, "score": 3,
                      "body_html": "use <code>sorted(x)</code>"}]},
        {"question_id": 2,
         "question": {"user": "b", "creation_epoch_s": 10000, "score": 0,
                      "body_html": "generators question"},
         "answers": [{"user": "a", "creation_epoch_s": 20000, "score": 1,
                      "body_html": "materialize them"}]}
    ]"#;
    let (dataset, users) = io::import_records_json(records).expect("imports");
    let (clean, _) = dataset.preprocess();
    assert_eq!(clean.num_questions(), 2);

    let extractor =
        FeatureExtractor::fit(clean.threads(), clean.num_users(), &ExtractorConfig::fast());
    let target = &clean.threads()[1];
    let d_q = extractor.question_topics(target);
    let x = extractor.features(users["a"], target, &d_q);
    assert_eq!(x.len(), extractor.dim());
    assert!(x.iter().all(|v| v.is_finite()));
}

/// Fails unless every post's text and code, every thread's answers
/// and the thread list of `ds` are held at their exact length.
fn assert_exact_size(what: &str, ds: Dataset) {
    for t in ds.threads() {
        assert_eq!(
            t.answers.capacity(),
            t.answers.len(),
            "{what}: answers of {}",
            t.id
        );
        for p in t.posts() {
            let (text, code) = (&p.body.text, &p.body.code);
            assert_eq!(text.capacity(), text.len(), "{what}: a text of {}", t.id);
            assert_eq!(code.capacity(), code.len(), "{what}: a code of {}", t.id);
        }
    }
    let threads = ds.into_threads();
    assert_eq!(threads.capacity(), threads.len(), "{what}: the thread list");
}

#[test]
fn datasets_are_held_at_their_exact_size() {
    let config = SynthConfig::small().with_seed(5);
    assert_exact_size("generate", config.generate());
    let (clean, _) = config.generate().preprocess();
    let json = io::to_json(&clean).expect("serializes");
    let records: Vec<io::ThreadRecord> = clean
        .threads()
        .iter()
        .map(|t| {
            let record = |p: &Post| io::PostRecord {
                user: format!("u{}", p.author.0),
                creation_epoch_s: p.timestamp * 3600.0,
                score: p.votes,
                body_html: format!(
                    "{} <code>{}</code> and <code>x</code>",
                    p.body.text, p.body.code
                ),
            };
            io::ThreadRecord {
                question_id: t.id.0,
                question: record(&t.question),
                answers: t.answers.iter().map(record).collect(),
            }
        })
        .collect();
    assert_exact_size("preprocess", clean);
    assert_exact_size("from_json", io::from_json(&json).expect("parses"));
    let (imported, _) = io::import_records(&records).expect("imports");
    assert_exact_size("import_records", imported);
}
