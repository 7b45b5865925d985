//! Criterion bench: overhead of the observability probes.
//!
//! The disarmed collector is the case that matters — every span,
//! counter, and metric probe sits on a pipeline hot path and must
//! cost no more than one thread-local flag read when no
//! `--trace`/`--metrics` run is collecting. The armed variants
//! quantify what a collecting run pays, and an instrumented LDA sweep
//! compares the end-to-end cost on a real workload both ways.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use forumcast_synth::SynthConfig;
use forumcast_text::{tokenize_filtered, Corpus, Vocabulary};
use forumcast_topics::{LdaConfig, LdaModel};

fn bench_probe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/probes");

    // Disarmed: the production default. Each probe should reduce to
    // one thread-local flag read and an immediate return.
    group.bench_function("span_disarmed", |b| {
        b.iter(|| {
            let _s = forumcast_obs::span("bench.noop");
        })
    });
    group.bench_function("counter_disarmed", |b| {
        b.iter(|| forumcast_obs::counter_add("bench.noop", 1))
    });
    group.bench_function("metric_disarmed", |b| {
        b.iter(|| forumcast_obs::metric("bench.noop", 0, 1.0))
    });

    // Armed: what a collecting run pays per probe. Drain between
    // measurements so the event log cannot grow without bound.
    let guard = forumcast_obs::arm();
    group.bench_function("span_armed", |b| {
        b.iter(|| {
            let _s = forumcast_obs::span("bench.noop");
        });
        forumcast_obs::drain();
    });
    group.bench_function("counter_armed", |b| {
        b.iter(|| forumcast_obs::counter_add("bench.noop", 1));
        forumcast_obs::drain();
    });
    group.bench_function("metric_armed", |b| {
        b.iter(|| forumcast_obs::metric("bench.noop", 0, 1.0));
        forumcast_obs::drain();
    });
    drop(guard);
    group.finish();
}

fn bench_instrumented_workload(c: &mut Criterion) {
    // A real instrumented hot path: LDA training fires the sweep
    // counter once per Gibbs sweep. Disarmed vs armed shows the
    // end-to-end overhead on actual work.
    let ds = SynthConfig::small().generate();
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
    let corpus = Corpus::from_token_docs(&docs, &vocab);
    let cfg = LdaConfig::new(5).with_iterations(20);

    let mut group = c.benchmark_group("obs/lda_train");
    group.sample_size(10);
    group.bench_function("disarmed", |b| b.iter(|| LdaModel::train(&corpus, &cfg)));
    group.bench_with_input(BenchmarkId::new("armed", "trace"), &(), |b, ()| {
        let _guard = forumcast_obs::arm();
        b.iter(|| LdaModel::train(&corpus, &cfg));
        forumcast_obs::drain();
    });
    group.finish();
}

criterion_group!(benches, bench_probe_overhead, bench_instrumented_workload);
criterion_main!(benches);
