//! Armed-collector regression tests for training telemetry.

use forumcast_ml::{Activation, Adam, LayerSpec, Mlp, Trainer};
use forumcast_obs::EventKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn toy(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64 - 0.5]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0]).collect();
    (xs, ys)
}

fn metric_values(trace: &forumcast_obs::TraceLog, name: &str) -> Vec<(Option<u64>, f64)> {
    trace
        .events
        .iter()
        .filter(|e| e.base_name() == name)
        .filter_map(|e| match e.kind {
            EventKind::Metric { value } => Some((e.unit, value)),
            _ => None,
        })
        .collect()
}

/// `ml.epoch.grad_norm` is the mean per-step gradient norm over the
/// epoch's non-poisoned steps. With the `nan-grad` fault aimed at the
/// *last* step of epoch 1 (batch 16 over 32 samples → steps 2 and 3
/// belong to epoch 1), the epoch's statistic comes from its clean
/// first step and must stay finite — the old accumulator summed the
/// poisoned step's squared norm and reported NaN.
#[test]
fn grad_norm_stays_finite_when_nan_grad_fault_fires() {
    let _fault = forumcast_resilience::FaultPlan::parse("nan-grad:3")
        .unwrap()
        .arm();
    let _obs = forumcast_obs::arm();
    let mut rng = StdRng::seed_from_u64(3);
    let mut mlp = Mlp::new(&[LayerSpec::new(1, 1, Activation::Identity)], &mut rng);
    let (xs, ys) = toy(32);
    let mut trainer = Trainer::new(Adam::new(0.01), 16);
    for _ in 0..2 {
        trainer.epoch(&mut mlp, &xs, &ys, &mut rng);
    }
    let trace = forumcast_obs::drain().expect("collector armed");
    let norms = metric_values(&trace, "ml.epoch.grad_norm");
    assert_eq!(
        norms.iter().map(|(u, _)| *u).collect::<Vec<_>>(),
        vec![Some(0), Some(1)],
        "one grad_norm per epoch"
    );
    for (unit, value) in &norms {
        assert!(
            value.is_finite(),
            "grad_norm for epoch {unit:?} must skip the poisoned step, got {value}"
        );
    }
    // The injected NaN still reaches the parameters and the loss.
    let losses = metric_values(&trace, "ml.epoch.loss");
    assert!(
        losses.iter().any(|(_, v)| v.is_nan()),
        "divergence visible in loss"
    );
}

/// When every optimizer step of an epoch is poisoned there is no
/// well-defined gradient statistic — the metric is omitted rather
/// than reported as NaN (the loss metric still records divergence).
#[test]
fn grad_norm_is_omitted_when_all_steps_are_poisoned() {
    let _fault = forumcast_resilience::FaultPlan::parse("nan-grad:0")
        .unwrap()
        .arm();
    let _obs = forumcast_obs::arm();
    let mut rng = StdRng::seed_from_u64(4);
    let mut mlp = Mlp::new(&[LayerSpec::new(1, 1, Activation::Identity)], &mut rng);
    let (xs, ys) = toy(8);
    // One batch per epoch → the single step of epoch 0 is poisoned.
    let mut trainer = Trainer::new(Adam::new(0.01), 8);
    trainer.epoch(&mut mlp, &xs, &ys, &mut rng);
    let trace = forumcast_obs::drain().expect("collector armed");
    assert!(
        metric_values(&trace, "ml.epoch.grad_norm").is_empty(),
        "fully-poisoned epoch must not report a grad_norm"
    );
    let losses = metric_values(&trace, "ml.epoch.loss");
    assert_eq!(losses.len(), 1);
    assert!(losses[0].1.is_nan(), "loss records the divergence");
}

/// Healthy training reports one finite grad_norm per epoch.
#[test]
fn healthy_epochs_report_finite_grad_norms() {
    let _obs = forumcast_obs::arm();
    let mut rng = StdRng::seed_from_u64(5);
    let mut mlp = Mlp::new(
        &[
            LayerSpec::new(1, 4, Activation::Tanh),
            LayerSpec::new(4, 1, Activation::Identity),
        ],
        &mut rng,
    );
    let (xs, ys) = toy(32);
    let mut trainer = Trainer::new(Adam::new(0.01), 8);
    for _ in 0..3 {
        trainer.epoch(&mut mlp, &xs, &ys, &mut rng);
    }
    let trace = forumcast_obs::drain().expect("collector armed");
    let norms = metric_values(&trace, "ml.epoch.grad_norm");
    assert_eq!(norms.len(), 3, "one grad_norm per epoch");
    assert!(norms.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
}
