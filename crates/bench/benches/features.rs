//! Criterion bench: tokenizing history posts, fitting the feature
//! extractor, and assembling `x_{u,q}` vectors.

use criterion::{criterion_group, criterion_main, Criterion};

use forumcast_data::UserId;
use forumcast_features::{ExtractorConfig, FeatureExtractor, TokenizedPosts};
use forumcast_synth::SynthConfig;

fn bench_features(c: &mut Criterion) {
    let (ds, _) = SynthConfig::small().generate().preprocess();
    let history = &ds.threads()[..ds.num_questions() - 20];
    let mut group = c.benchmark_group("features");
    group.sample_size(10);

    group.bench_function("tokenize_posts_small", |b| {
        b.iter(|| TokenizedPosts::new(history))
    });

    group.bench_function("fit_extractor_small", |b| {
        b.iter(|| FeatureExtractor::fit(history, ds.num_users(), &ExtractorConfig::fast()))
    });

    let extractor = FeatureExtractor::fit(history, ds.num_users(), &ExtractorConfig::fast());
    let target = &ds.threads()[ds.num_questions() - 10];
    group.bench_function("question_topics", |b| {
        b.iter(|| extractor.question_topics(target))
    });
    let d_q = extractor.question_topics(target);
    group.bench_function("feature_vector", |b| {
        let mut u = 0u32;
        b.iter(|| {
            u = (u + 1) % ds.num_users();
            extractor.features(UserId(u), target, &d_q)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_features);
criterion_main!(benches);
