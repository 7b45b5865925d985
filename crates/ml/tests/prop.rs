//! Property-based tests for the ML substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use forumcast_ml::{Activation, Adam, LayerSpec, Mlp, MlpScratch};

fn arb_input(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-5.0f64..5.0, dim)
}

proptest! {
    /// Forward passes never produce NaN/Inf on bounded inputs.
    #[test]
    fn mlp_forward_finite(x in arb_input(3), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(
            &[
                LayerSpec::new(3, 8, Activation::Tanh),
                LayerSpec::new(8, 4, Activation::Relu),
                LayerSpec::new(4, 1, Activation::Softplus),
            ],
            &mut rng,
        );
        let y = mlp.forward(&x);
        prop_assert!(y[0].is_finite());
        prop_assert!(y[0] >= 0.0, "softplus output must be non-negative");
    }

    /// Backward gradients are finite and linear in the output grad.
    #[test]
    fn mlp_backward_scales_linearly(x in arb_input(2), scale in 0.1f64..4.0) {
        let mut rng = StdRng::seed_from_u64(11);
        let mlp = Mlp::new(
            &[
                LayerSpec::new(2, 5, Activation::Tanh),
                LayerSpec::new(5, 1, Activation::Identity),
            ],
            &mut rng,
        );
        let mut scratch = MlpScratch::new();
        mlp.forward_scratch(&x, &mut scratch);
        let mut g1 = vec![0.0; mlp.num_params()];
        mlp.backward_scratch(&mut scratch, &[1.0], &mut g1);
        let mut g2 = vec![0.0; mlp.num_params()];
        mlp.backward_scratch(&mut scratch, &[scale], &mut g2);
        for (a, b) in g1.iter().zip(&g2) {
            prop_assert!(a.is_finite() && b.is_finite());
            prop_assert!((a * scale - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    /// Adam steps have bounded magnitude (≈ lr per step).
    #[test]
    fn adam_step_bounded(g in -1e6f64..1e6) {
        let mut opt = Adam::new(0.01);
        let mut x = vec![0.0];
        opt.step(&mut x, &[g]);
        prop_assert!(x[0].abs() <= 0.011, "step {x:?} for grad {g}");
    }

    /// Activations are monotone non-decreasing.
    #[test]
    fn activations_monotone(a in -6.0f64..6.0, b in -6.0f64..6.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for act in [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Softplus,
            Activation::Identity,
        ] {
            prop_assert!(act.apply(lo) <= act.apply(hi) + 1e-12, "{act:?}");
        }
    }
}
