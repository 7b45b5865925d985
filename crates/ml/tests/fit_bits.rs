//! Bit pins for the mini-batch fitters.
//!
//! Each case trains a small model and hashes every learned parameter
//! bit (and, for the MLP trainer, every epoch's reported loss). The
//! hashes were recorded before the batch-parallel gradient path was
//! removed, so they pin that folding each mini-batch straight into
//! its zeroed gradient buffer, in sample order, changed no output
//! bit. A failure here means a change moved the trained parameters.

use forumcast_ml::{
    Activation, Adam, LayerSpec, LogisticRegression, Mlp, PoissonRegression, Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 100 samples at batch 32: three full batches and a ragged one of 4.
const SAMPLES: usize = 100;

fn features(n: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| ((i * 7 + j * 3) as f64 * 0.13).sin())
                .collect()
        })
        .collect()
}

/// FNV-1a over the little-endian bits of `values`.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn trainer_epoch_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut mlp = Mlp::new(
        &[
            LayerSpec::new(4, 12, Activation::Tanh),
            LayerSpec::new(12, 1, Activation::Identity),
        ],
        &mut rng,
    );
    let xs = features(SAMPLES, 4);
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| x[0] * x[1] - 0.5 * x[2] + x[3].tanh())
        .collect();
    let mut trainer = Trainer::new(Adam::new(0.01), 32).with_weight_decay(1e-4);
    let mut values: Vec<f64> = (0..5)
        .map(|_| trainer.epoch(&mut mlp, &xs, &ys, &mut rng))
        .collect();
    values.extend_from_slice(mlp.params());
    assert_eq!(format!("{:016x}", fnv1a(&values)), "d7d1d95eeeaf5705");
}

#[test]
fn logistic_fit_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(17);
    let xs = features(SAMPLES, 5);
    let ys: Vec<bool> = xs.iter().map(|x| x[0] + x[1] - x[4] > 0.0).collect();
    let mut model = LogisticRegression::new(5);
    model.fit(&xs, &ys, 6, 0.05, 1e-4, &mut rng);
    let mut values = model.weights().to_vec();
    values.push(model.bias());
    assert_eq!(format!("{:016x}", fnv1a(&values)), "d2f0d2b31037bcfc");
}

#[test]
fn poisson_fit_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(23);
    let xs = features(SAMPLES, 3);
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (0.4 + 0.8 * x[0] - 0.3 * x[2]).exp().round())
        .collect();
    let mut model = PoissonRegression::new(3);
    model.fit(&xs, &ys, 6, 0.05, 1e-6, &mut rng);
    let mut values = model.weights().to_vec();
    values.push(model.bias());
    assert_eq!(format!("{:016x}", fnv1a(&values)), "8dc247a7e96edce3");
}
