//! Poisson regression — the paper's baseline for response-time
//! prediction (`r̂`, Section IV-A(iii)).
//!
//! The paper regresses the discretized response time
//! `r̃_{u,q} = ⌈r_{u,q}⌉` on the features `x_{u,q}` with a log-link
//! Poisson GLM, as used for web-traffic inter-arrival modeling
//! (Karagiannis et al., INFOCOM 2004).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::glm::{self, GlmScratch};
use crate::linalg::dot;
use crate::optim::Adam;

/// Poisson GLM `λ(x) = exp(xᵀβ + b)`, fitted by maximizing the
/// Poisson log-likelihood `Σ (y ln λ − λ)` with Adam.
///
/// # Example
///
/// ```
/// use forumcast_ml::PoissonRegression;
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(0);
/// // y ≈ exp(1 + x).
/// let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 25.0 - 1.0]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (1.0 + x[0]).exp().round()).collect();
/// let mut model = PoissonRegression::new(1);
/// model.fit(&xs, &ys, 800, 0.05, 1e-6, &mut rng);
/// assert!((model.predict(&[0.0]) - 1f64.exp()).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoissonRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl PoissonRegression {
    /// Creates a zero-initialized model for `dim` features.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        PoissonRegression {
            weights: vec![0.0; dim],
            bias: 0.0,
        }
    }

    /// The regression coefficients.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Predicted rate `λ(x) = exp(xᵀβ + b)`. The linear predictor is
    /// clamped to `[-30, 30]` to keep the exponential finite.
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` differs from the model dimension.
    pub fn predict(&self, x: &[f64]) -> f64 {
        (dot(&self.weights, x) + self.bias).clamp(-30.0, 30.0).exp()
    }

    /// Mean Poisson deviance-like loss `mean(λ − y ln λ)` plus L2.
    ///
    /// # Panics
    ///
    /// Panics when `xs` and `ys` lengths differ.
    pub fn loss(&self, xs: &[Vec<f64>], ys: &[f64], l2: f64) -> f64 {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        if xs.is_empty() {
            return 0.0;
        }
        let nll: f64 = xs
            .iter()
            .zip(ys)
            .map(|(x, &y)| {
                let lambda = self.predict(x);
                lambda - y * lambda.ln()
            })
            .sum();
        nll / xs.len() as f64 + 0.5 * l2 * dot(&self.weights, &self.weights)
    }

    /// Fits by mini-batch Adam on the negative log-likelihood with
    /// batch size 32. Targets must be non-negative (counts or
    /// discretized times).
    ///
    /// # Panics
    ///
    /// Panics when lengths mismatch or a target is negative.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        epochs: usize,
        lr: f64,
        l2: f64,
        rng: &mut R,
    ) {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(
            ys.iter().all(|&y| y >= 0.0),
            "poisson targets must be non-negative"
        );
        if xs.is_empty() {
            return;
        }
        let mut params: Vec<f64> = self.weights.clone();
        params.push(self.bias);
        let mut opt = Adam::new(lr);
        let mut scratch = GlmScratch::default();
        for _ in 0..epochs {
            glm::epoch_pass(&mut params, &mut opt, xs, l2, &mut scratch, rng, |z, i| {
                z.clamp(-30.0, 30.0).exp() - ys[i]
            });
        }
        self.bias = params.pop().expect("bias present");
        self.weights = params;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_log_linear_rates() {
        let mut rng = StdRng::seed_from_u64(13);
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| (0.5 + x[0] - 0.5 * x[1]).exp()).collect();
        let mut model = PoissonRegression::new(2);
        model.fit(&xs, &ys, 400, 0.05, 0.0, &mut rng);
        assert!(
            (model.weights()[0] - 1.0).abs() < 0.15,
            "{:?}",
            model.weights()
        );
        assert!(
            (model.weights()[1] + 0.5).abs() < 0.15,
            "{:?}",
            model.weights()
        );
        assert!((model.bias() - 0.5).abs() < 0.15, "{}", model.bias());
    }

    #[test]
    fn loss_decreases_with_training() {
        let mut rng = StdRng::seed_from_u64(14);
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 7) as f64 / 7.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (2.0 * x[0]).exp().round()).collect();
        let mut model = PoissonRegression::new(1);
        let before = model.loss(&xs, &ys, 0.0);
        model.fit(&xs, &ys, 200, 0.05, 0.0, &mut rng);
        assert!(model.loss(&xs, &ys, 0.0) < before);
    }

    #[test]
    fn intercept_only_fits_mean_rate() {
        let mut rng = StdRng::seed_from_u64(15);
        let xs: Vec<Vec<f64>> = (0..100).map(|_| vec![0.0]).collect();
        let ys: Vec<f64> = (0..100).map(|i| (i % 5) as f64).collect(); // mean 2
        let mut model = PoissonRegression::new(1);
        model.fit(&xs, &ys, 500, 0.02, 0.0, &mut rng);
        // Mini-batch Adam with a constant step hovers near the MLE
        // (the sample mean, 2); allow that residual wander.
        assert!((model.predict(&[0.0]) - 2.0).abs() < 0.25);
    }

    #[test]
    fn extreme_inputs_stay_finite() {
        let model = PoissonRegression {
            weights: vec![100.0],
            bias: 0.0,
        };
        assert!(model.predict(&[100.0]).is_finite());
        assert!(model.predict(&[-100.0]) > 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_targets_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        PoissonRegression::new(1).fit(&[vec![0.0]], &[-1.0], 1, 0.1, 0.0, &mut rng);
    }

    #[test]
    fn empty_fit_is_noop() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = PoissonRegression::new(2);
        model.fit(&[], &[], 5, 0.1, 0.0, &mut rng);
        assert_eq!(model.weights(), &[0.0, 0.0]);
    }
}
