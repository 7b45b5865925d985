//! 1-vs-N-thread bitwise parity for the training stack.
//!
//! Mini-batch gradient accumulation fans out over `forumcast-par`'s
//! fixed-order chunk reduction, so the thread count must never change
//! a single output bit. Each case trains
//! with batches larger than `CHUNK_SIZE = 64` so the parallel path
//! actually engages, then compares every learned parameter bitwise.

use forumcast_ml::{
    Activation, Adam, LayerSpec, LogisticRegression, Mlp, PoissonRegression, Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 3] = [1, 2, 7];

fn features(n: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| ((i * 7 + j * 3) as f64 * 0.13).sin())
                .collect()
        })
        .collect()
}

fn mlp_bits(mlp: &Mlp) -> Vec<u64> {
    mlp.params().iter().map(|p| p.to_bits()).collect()
}

fn train_mlp(threads: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(99);
    let mut mlp = Mlp::new(
        &[
            LayerSpec::new(4, 12, Activation::Tanh),
            LayerSpec::new(12, 1, Activation::Identity),
        ],
        &mut rng,
    );
    let xs = features(600, 4);
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| x[0] * x[1] - 0.5 * x[2] + x[3].tanh())
        .collect();
    let mut trainer = Trainer::new(Adam::new(0.01), 256)
        .with_weight_decay(1e-4)
        .with_threads(threads);
    for _ in 0..3 {
        trainer.epoch(&mut mlp, &xs, &ys, &mut rng);
    }
    mlp_bits(&mlp)
}

#[test]
fn trainer_epoch_is_bitwise_identical_across_thread_counts() {
    let serial = train_mlp(THREADS[0]);
    for &threads in &THREADS[1..] {
        assert_eq!(serial, train_mlp(threads), "threads={threads}");
    }
}

fn train_logistic(threads: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(17);
    let xs = features(600, 5);
    let ys: Vec<bool> = xs.iter().map(|x| x[0] + x[1] - x[4] > 0.0).collect();
    let mut model = LogisticRegression::new(5);
    model.fit_with(&xs, &ys, 4, 0.05, 1e-4, 256, threads, &mut rng);
    let mut bits: Vec<u64> = model.weights().iter().map(|w| w.to_bits()).collect();
    bits.push(model.bias().to_bits());
    bits
}

#[test]
fn logistic_fit_is_bitwise_identical_across_thread_counts() {
    let serial = train_logistic(THREADS[0]);
    for &threads in &THREADS[1..] {
        assert_eq!(serial, train_logistic(threads), "threads={threads}");
    }
}

fn train_poisson(threads: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(23);
    let xs = features(600, 3);
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (0.4 + 0.8 * x[0] - 0.3 * x[2]).exp().round())
        .collect();
    let mut model = PoissonRegression::new(3);
    model.fit_with(&xs, &ys, 4, 0.05, 1e-6, 256, threads, &mut rng);
    let mut bits: Vec<u64> = model.weights().iter().map(|w| w.to_bits()).collect();
    bits.push(model.bias().to_bits());
    bits
}

#[test]
fn poisson_fit_is_bitwise_identical_across_thread_counts() {
    let serial = train_poisson(THREADS[0]);
    for &threads in &THREADS[1..] {
        assert_eq!(serial, train_poisson(threads), "threads={threads}");
    }
}
