//! The `â_{u,q}` predictor: will user `u` answer question `q`?

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use forumcast_ml::LogisticRegression;

/// Training configuration for [`AnswerPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnswerConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// RNG seed for mini-batch shuffling.
    pub seed: u64,
}

impl Default for AnswerConfig {
    fn default() -> Self {
        AnswerConfig {
            epochs: 150,
            learning_rate: 0.05,
            l2: 1e-4,
            seed: 0xA05,
        }
    }
}

/// Logistic-regression classifier
/// `P(a_{u,q} = 1 | x_{u,q}) = 1 / (1 + e^{−x^T β})` (Section II-A1).
///
/// The linear form is a design decision from the paper: it measures
/// the predictive power of the features themselves and resists
/// overfitting under the extreme sparsity of the answer matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnswerPredictor {
    model: LogisticRegression,
}

impl AnswerPredictor {
    /// Trains on normalized feature vectors and answer labels.
    ///
    /// The evaluation harness supplies a balanced sample: all positive
    /// `(u, q)` pairs plus an equal number of negative pairs drawn
    /// across questions (the paper's protocol, Section IV-A).
    ///
    /// # Panics
    ///
    /// Panics when `xs` is empty or lengths mismatch.
    pub fn train(xs: &[Vec<f64>], ys: &[bool], config: &AnswerConfig) -> Self {
        let _span = forumcast_obs::span("ml.answer.train");
        assert!(!xs.is_empty(), "need at least one training sample");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut model = LogisticRegression::new(xs[0].len());
        model.fit(
            xs,
            ys,
            config.epochs,
            config.learning_rate,
            config.l2,
            &mut rng,
        );
        AnswerPredictor { model }
    }

    /// Predicted probability that the user answers.
    ///
    /// # Panics
    ///
    /// Panics when `x` has the wrong dimension.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.model.predict_proba(x)
    }

    /// The learned coefficients `β` (one per feature slot), useful
    /// for the feature-importance analyses.
    pub fn coefficients(&self) -> &[f64] {
        self.model.weights()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.model.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..100 {
            let pos = i % 2 == 0;
            let v = if pos { 1.0 } else { -1.0 };
            xs.push(vec![v, 0.5 * v]);
            ys.push(pos);
        }
        (xs, ys)
    }

    #[test]
    fn separates_toy_data() {
        let (xs, ys) = toy();
        let p = AnswerPredictor::train(&xs, &ys, &AnswerConfig::default());
        assert!(p.predict(&[1.0, 0.5]) > 0.9);
        assert!(p.predict(&[-1.0, -0.5]) < 0.1);
    }

    #[test]
    fn coefficients_have_feature_dimension() {
        let (xs, ys) = toy();
        let p = AnswerPredictor::train(&xs, &ys, &AnswerConfig::default());
        assert_eq!(p.coefficients().len(), 2);
        assert_eq!(p.dim(), 2);
        // Positive class sits at positive feature values.
        assert!(p.coefficients()[0] > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one training sample")]
    fn empty_training_panics() {
        AnswerPredictor::train(&[], &[], &AnswerConfig::default());
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (xs, ys) = toy();
        let cfg = AnswerConfig::default();
        let a = AnswerPredictor::train(&xs, &ys, &cfg);
        let b = AnswerPredictor::train(&xs, &ys, &cfg);
        assert_eq!(a.coefficients(), b.coefficients());
    }

    #[test]
    fn serde_roundtrip() {
        let (xs, ys) = toy();
        let p = AnswerPredictor::train(&xs, &ys, &AnswerConfig::default());
        let json = serde_json::to_string(&p).unwrap();
        let back: AnswerPredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(back.predict(&[1.0, 0.5]), p.predict(&[1.0, 0.5]));
    }
}
