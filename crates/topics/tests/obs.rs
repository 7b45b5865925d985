//! Counter-exactness test for the LDA instrumentation: the sweep
//! counter must equal the configured iteration count exactly — one
//! increment per Gibbs sweep, no more, no fewer.

use forumcast_text::{Corpus, Vocabulary};
use forumcast_topics::{LdaConfig, LdaModel};

fn tiny_corpus() -> Corpus {
    let docs: Vec<Vec<String>> = [
        "rust borrow checker lifetime",
        "python pandas dataframe index",
        "rust async await tokio",
        "sql join index query",
    ]
    .iter()
    .map(|d| d.split_whitespace().map(str::to_owned).collect())
    .collect();
    let mut vocab = Vocabulary::new();
    for d in &docs {
        vocab.observe(d);
    }
    Corpus::from_token_docs(&docs, &vocab)
}

#[test]
fn gibbs_sweep_counter_matches_configured_iterations() {
    let corpus = tiny_corpus();
    for iterations in [1, 17, 40] {
        let cfg = LdaConfig::new(3).with_iterations(iterations);
        let guard = forumcast_obs::arm();
        let model = LdaModel::train(&corpus, &cfg);
        let _ = model.infer(&corpus.bag(0), 7);
        let log = forumcast_obs::drain().expect("collector armed");
        drop(guard);
        let counter = |name: &str| {
            log.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(
            counter("lda.gibbs.sweeps"),
            iterations as u64,
            "sweep counter at {iterations} iterations"
        );
        assert_eq!(counter("lda.infer.docs"), 1);
        assert!(
            log.events.iter().any(|e| e.path == "lda.train"),
            "missing lda.train span"
        );
    }
}
