//! Criterion bench: training epochs of the three predictors and the
//! point-process likelihood evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use forumcast_core::{
    AnswerConfig, AnswerPredictor, ThreadObservation, TimingConfig, TimingPredictor, VoteConfig,
    VotePredictor,
};

fn synthetic_samples(n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<bool>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(1);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let labels: Vec<bool> = xs.iter().map(|x| x[0] > 0.0).collect();
    let votes: Vec<f64> = xs.iter().map(|x| 3.0 * x[1] + x[2]).collect();
    (xs, labels, votes)
}

fn timing_threads(n: usize, dim: usize) -> Vec<ThreadObservation> {
    let mut rng = StdRng::seed_from_u64(2);
    (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let delay = (1.0 + x[0]).abs() * 5.0 + 0.5;
            ThreadObservation {
                answers: vec![(x, delay)],
                non_answerers: vec![
                    (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                ],
                window: 100.0,
                population: 500,
            }
        })
        .collect()
}

fn bench_training(c: &mut Criterion) {
    let dim = 34; // 18 + 2K at the paper's K = 8
    let (xs, labels, votes) = synthetic_samples(500, dim);
    let threads = timing_threads(200, dim);
    let mut group = c.benchmark_group("training");
    group.sample_size(10);

    group.bench_function("answer_logistic_10_epochs", |b| {
        let cfg = AnswerConfig {
            epochs: 10,
            ..AnswerConfig::default()
        };
        b.iter(|| AnswerPredictor::train(&xs, &labels, &cfg));
    });

    group.bench_function("votes_mlp_10_epochs", |b| {
        let cfg = VoteConfig {
            epochs: 10,
            ..VoteConfig::default()
        };
        b.iter(|| VotePredictor::train(&xs, &votes, &cfg));
    });

    group.bench_function("timing_pp_5_epochs", |b| {
        let cfg = TimingConfig {
            epochs: 5,
            ..TimingConfig::fast()
        };
        b.iter(|| TimingPredictor::train(&threads, &cfg));
    });

    let model = TimingPredictor::train(
        &threads,
        &TimingConfig {
            epochs: 3,
            ..TimingConfig::fast()
        },
    );
    group.bench_function("timing_log_likelihood", |b| {
        b.iter(|| model.log_likelihood(&threads))
    });
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
