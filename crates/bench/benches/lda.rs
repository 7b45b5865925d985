//! Criterion bench: collapsed-Gibbs LDA throughput (training and
//! fold-in inference) on synthetic forum text.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use forumcast_synth::SynthConfig;
use forumcast_text::{tokenize_filtered, Corpus, Vocabulary};
use forumcast_topics::{LdaConfig, LdaModel};

fn corpus_from_synth(num_questions: usize) -> Corpus {
    let cfg = SynthConfig {
        num_questions,
        ..SynthConfig::small()
    };
    let ds = cfg.generate();
    let docs: Vec<Vec<String>> = ds
        .threads()
        .iter()
        .flat_map(|t| t.posts().map(|p| tokenize_filtered(&p.body.text)))
        .collect();
    let mut vocab = Vocabulary::new();
    for d in &docs {
        vocab.observe(d);
    }
    vocab.prune(2, 0.6);
    Corpus::from_token_docs(&docs, &vocab)
}

fn bench_lda(c: &mut Criterion) {
    let mut group = c.benchmark_group("lda");
    group.sample_size(10);
    for &n in &[100usize, 300] {
        let corpus = corpus_from_synth(n);
        group.bench_with_input(
            BenchmarkId::new("train_k8_20sweeps", n),
            &corpus,
            |b, corpus| {
                let cfg = LdaConfig::new(8).with_iterations(20);
                b.iter(|| LdaModel::train(corpus, &cfg));
            },
        );
    }
    let corpus = corpus_from_synth(300);
    // K = 64 is the `build-k64` regime, where the per-token K-walk
    // dominates.
    group.bench_with_input(
        BenchmarkId::new("train_k64_20sweeps", 300),
        &corpus,
        |b, corpus| {
            let cfg = LdaConfig::new(64).with_iterations(20);
            b.iter(|| LdaModel::train(corpus, &cfg));
        },
    );
    let model = LdaModel::train(&corpus, &LdaConfig::new(8).with_iterations(30));
    group.bench_function("infer_one_doc", |b| {
        let doc = corpus.doc(0).clone();
        b.iter(|| model.infer(&doc, 7));
    });
    group.finish();
}

criterion_group!(benches, bench_lda);
criterion_main!(benches);
