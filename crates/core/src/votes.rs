//! The `v̂_{u,q}` predictor: net votes a user's answer will receive.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use forumcast_ml::{Activation, Adam, LayerSpec, Mlp, TrainError, Trainer};

/// Training configuration for [`VotePredictor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoteConfig {
    /// Hidden-layer widths. The paper's configuration is `L = 4` with
    /// 20 units per layer.
    pub hidden: Vec<usize>,
    /// Hidden-layer nonlinearity (the paper uses ReLU).
    pub activation: Activation,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay (guards against memorizing small training
    /// sets; the answer matrix sparsity makes this essential).
    pub weight_decay: f64,
    /// Fraction of the training set held out for early stopping
    /// (0 disables early stopping).
    pub validation_frac: f64,
    /// Early-stopping patience: epochs without validation improvement
    /// before training stops (the best parameters are restored).
    pub patience: usize,
    /// RNG seed (initialization and shuffling).
    pub seed: u64,
}

impl Default for VoteConfig {
    /// The paper's network: 4 hidden layers × 20 ReLU units.
    fn default() -> Self {
        VoteConfig {
            hidden: vec![20, 20, 20, 20],
            activation: Activation::Relu,
            epochs: 300,
            learning_rate: 0.01,
            batch_size: 32,
            weight_decay: 1e-3,
            validation_frac: 0.15,
            patience: 40,
            seed: 0x707E5,
        }
    }
}

impl VoteConfig {
    /// Smaller/faster settings for tests.
    pub fn fast() -> Self {
        VoteConfig {
            hidden: vec![16, 16],
            epochs: 200,
            ..VoteConfig::default()
        }
    }
}

/// Fully-connected regression network for net votes (Section II-A2,
/// Equation (1)): hidden layers with nonlinearity `σ`, linear output,
/// MSE loss, Adam.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VotePredictor {
    mlp: Mlp,
}

impl VotePredictor {
    /// Trains on normalized feature vectors and observed net votes,
    /// recovering deterministically from divergence: a first diverged
    /// attempt (e.g. an injected one-shot `nan-grad` fault) is
    /// retrained with the *same* configuration — which reproduces the
    /// fault-free result bit for bit — and a second divergence (a
    /// genuinely unstable configuration) is retrained once at a 10×
    /// reduced learning rate.
    ///
    /// # Panics
    ///
    /// Panics when `xs` is empty, lengths mismatch, `hidden` is
    /// empty, or training still diverges at the reduced learning
    /// rate.
    pub fn train(xs: &[Vec<f64>], ys: &[f64], config: &VoteConfig) -> Self {
        match Self::try_train(xs, ys, config) {
            Ok(p) => p,
            // Injected faults fire a bounded number of times, so a
            // clean retrain at the same configuration is the healed,
            // bitwise-identical path.
            Err(first) => {
                if let TrainError::Diverged { epoch } = first {
                    forumcast_obs::mark("ml.vote.divergence-retry", epoch as u64);
                }
                match Self::try_train(xs, ys, config) {
                    Ok(p) => p,
                    Err(TrainError::Diverged { epoch }) => {
                        forumcast_obs::mark("ml.vote.divergence-retry", epoch as u64);
                        let damped = VoteConfig {
                            learning_rate: config.learning_rate * 0.1,
                            ..config.clone()
                        };
                        Self::try_train(xs, ys, &damped).unwrap_or_else(|e| {
                            panic!(
                                "vote training diverged at epoch {epoch}, and again at \
                                 reduced learning rate {}: {e}",
                                damped.learning_rate
                            )
                        })
                    }
                    Err(e) => panic!("vote training failed: {e}"),
                }
            }
        }
    }

    /// Trains like [`Self::train`] but surfaces divergence to the
    /// caller instead of retrying.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Diverged`] when an epoch's loss or the
    /// network parameters become non-finite.
    ///
    /// # Panics
    ///
    /// Panics when `xs` is empty, lengths mismatch, or `hidden` is
    /// empty.
    pub fn try_train(xs: &[Vec<f64>], ys: &[f64], config: &VoteConfig) -> Result<Self, TrainError> {
        let _span = forumcast_obs::span("ml.vote.train");
        assert!(!xs.is_empty(), "need at least one training sample");
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!config.hidden.is_empty(), "need at least one hidden layer");
        let dim = xs[0].len();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut specs = Vec::with_capacity(config.hidden.len() + 1);
        let mut prev = dim;
        for &h in &config.hidden {
            specs.push(LayerSpec::new(prev, h, config.activation));
            prev = h;
        }
        specs.push(LayerSpec::new(prev, 1, Activation::Identity));
        let mut mlp = Mlp::new(&specs, &mut rng);
        let mut trainer = Trainer::new(Adam::new(config.learning_rate), config.batch_size)
            .with_weight_decay(config.weight_decay);

        // Split off a validation set for early stopping; deep nets on
        // small folds memorize within tens of epochs otherwise.
        let n_val = if config.validation_frac > 0.0 && xs.len() >= 20 {
            ((xs.len() as f64 * config.validation_frac) as usize).max(1)
        } else {
            0
        };
        let mut order: Vec<usize> = (0..xs.len()).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);
        let (val_idx, train_idx) = order.split_at(n_val);
        let train_xs: Vec<Vec<f64>> = train_idx.iter().map(|&i| xs[i].clone()).collect();
        let train_ys: Vec<f64> = train_idx.iter().map(|&i| ys[i]).collect();

        let val_mse = |m: &Mlp| -> f64 {
            val_idx
                .iter()
                .map(|&i| {
                    let e = m.forward(&xs[i])[0] - ys[i];
                    e * e
                })
                .sum::<f64>()
                / val_idx.len().max(1) as f64
        };
        let mut best_params = mlp.params().to_vec();
        let mut best_val = if n_val > 0 {
            val_mse(&mlp)
        } else {
            f64::INFINITY
        };
        let mut stale = 0usize;
        while trainer.epochs_run() < config.epochs {
            trainer.try_epoch(&mut mlp, &train_xs, &train_ys, &mut rng)?;
            if n_val > 0 {
                let v = val_mse(&mlp);
                if v < best_val {
                    best_val = v;
                    best_params.copy_from_slice(mlp.params());
                    stale = 0;
                } else {
                    stale += 1;
                    if stale >= config.patience {
                        break;
                    }
                }
            }
        }
        if n_val > 0 {
            mlp.params_mut().copy_from_slice(&best_params);
        }
        Ok(VotePredictor { mlp })
    }

    /// Predicted net votes for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics when `x` has the wrong dimension.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.mlp.forward(x)[0]
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.mlp.input_dim()
    }

    /// The underlying network (for inspection).
    pub fn network(&self) -> &Mlp {
        &self.mlp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nonlinear target: v = 3·x₀² − 1 (a linear model cannot fit it).
    fn toy() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 40.0 - 1.0, 0.3]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] * x[0] - 1.0).collect();
        (xs, ys)
    }

    #[test]
    fn fits_nonlinear_vote_surface() {
        let (xs, ys) = toy();
        let cfg = VoteConfig {
            epochs: 400,
            ..VoteConfig::fast()
        };
        let p = VotePredictor::train(&xs, &ys, &cfg);
        let rmse = (xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (p.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64)
            .sqrt();
        assert!(rmse < 0.4, "rmse {rmse}");
        // Check the curvature: prediction at 0 below prediction at ±1.
        assert!(p.predict(&[0.0, 0.3]) < p.predict(&[1.0, 0.3]) - 1.0);
    }

    #[test]
    fn paper_architecture_has_four_hidden_layers() {
        let (xs, ys) = toy();
        let p = VotePredictor::train(
            &xs,
            &ys,
            &VoteConfig {
                epochs: 1,
                ..VoteConfig::default()
            },
        );
        // 4 hidden + 1 output.
        assert_eq!(p.network().specs().len(), 5);
        assert_eq!(p.network().specs()[0].outputs, 20);
        assert_eq!(p.network().specs()[4].outputs, 1);
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = toy();
        let a = VotePredictor::train(&xs, &ys, &VoteConfig::fast());
        let b = VotePredictor::train(&xs, &ys, &VoteConfig::fast());
        assert_eq!(a.predict(&[0.5, 0.3]), b.predict(&[0.5, 0.3]));
    }

    #[test]
    #[should_panic(expected = "at least one training sample")]
    fn empty_training_panics() {
        VotePredictor::train(&[], &[], &VoteConfig::fast());
    }

    #[test]
    fn injected_nan_gradient_heals_bitwise_identically() {
        let (xs, ys) = toy();
        let cfg = VoteConfig {
            epochs: 30,
            ..VoteConfig::fast()
        };
        let clean = VotePredictor::train(&xs, &ys, &cfg);
        let _guard = forumcast_resilience::FaultPlan::parse("nan-grad:5")
            .unwrap()
            .arm();
        let healed = VotePredictor::train(&xs, &ys, &cfg);
        for (a, b) in clean
            .network()
            .params()
            .iter()
            .zip(healed.network().params())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn try_train_surfaces_divergence() {
        let (xs, ys) = toy();
        let cfg = VoteConfig {
            epochs: 30,
            ..VoteConfig::fast()
        };
        let _guard = forumcast_resilience::FaultPlan::parse("nan-grad:5")
            .unwrap()
            .arm();
        assert!(matches!(
            VotePredictor::try_train(&xs, &ys, &cfg),
            Err(forumcast_ml::TrainError::Diverged { .. })
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let (xs, ys) = toy();
        let p = VotePredictor::train(&xs, &ys, &VoteConfig::fast());
        let json = serde_json::to_string(&p).unwrap();
        let back: VotePredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(back.predict(&[0.1, 0.3]), p.predict(&[0.1, 0.3]));
    }

    fn param_bits(p: &VotePredictor) -> Vec<u64> {
        p.network().params().iter().map(|w| w.to_bits()).collect()
    }

    #[test]
    fn second_divergence_retrains_once_at_a_tenth_of_the_learning_rate() {
        // Two shots: the first attempt and its same-configuration
        // retry both diverge at step 5, so the damped retrain runs.
        let (xs, ys) = toy();
        let cfg = VoteConfig {
            epochs: 30,
            ..VoteConfig::fast()
        };
        let damped = VotePredictor::try_train(
            &xs,
            &ys,
            &VoteConfig {
                learning_rate: cfg.learning_rate * 0.1,
                ..cfg.clone()
            },
        )
        .unwrap();
        let _guard = forumcast_resilience::FaultPlan::parse("nan-grad:5x2")
            .unwrap()
            .arm();
        let healed = VotePredictor::train(&xs, &ys, &cfg);
        assert_eq!(param_bits(&damped), param_bits(&healed));
    }
}
