//! The Adam optimizer (the paper's optimizer).

use serde::{Deserialize, Serialize};

/// The Adam optimizer (Kingma & Ba, 2015) with bias correction —
/// the paper trains all its networks with "the standard Adam
/// optimizer in TensorFlow" (Section II-A, footnote 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate `α`.
    pub learning_rate: f64,
    /// First-moment decay `β₁`.
    pub beta1: f64,
    /// Second-moment decay `β₂`.
    pub beta2: f64,
    /// Numerical-stability constant `ε`.
    pub epsilon: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates Adam with TensorFlow defaults (`β₁ = 0.9`,
    /// `β₂ = 0.999`, `ε = 1e-8`).
    ///
    /// # Panics
    ///
    /// Panics when `learning_rate <= 0`.
    pub fn new(learning_rate: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step to the flat parameter vector `params`
    /// in place.
    ///
    /// # Panics
    ///
    /// Panics when `params.len() != grads.len()` or the parameter
    /// count changes between calls.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        if self.m.len() != params.len() {
            assert!(self.m.is_empty(), "parameter count changed");
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        // Once `β^t` falls below half an ulp of 1 the correction is
        // exactly 1.0 (from t ≈ 356 for β₁ = 0.9 and t ≈ 37,400 for
        // β₂ = 0.999), and `x / 1.0` is `x` bit for bit, so the
        // divisions are skipped.
        let (skip1, skip2) = (bc1 == 1.0, bc2 == 1.0);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = if skip1 { self.m[i] } else { self.m[i] / bc1 };
            let v_hat = if skip2 { self.v[i] } else { self.v[i] / bc2 };
            params[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)² from x = 0.
    fn minimize(opt: &mut Adam, steps: usize) -> f64 {
        let mut x = vec![0.0f64];
        for _ in 0..steps {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!((minimize(&mut opt, 500) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn adam_first_step_is_learning_rate_sized() {
        // With bias correction, the first Adam step ≈ lr * sign(g).
        let mut opt = Adam::new(0.01);
        let mut x = vec![0.0];
        opt.step(&mut x, &[123.0]);
        assert!((x[0] + 0.01).abs() < 1e-6);
    }

    /// The Adam update that always divides by both bias corrections:
    /// the reference `Adam::step`'s exact-1.0 skip must match bit for
    /// bit.
    fn reference_adam_step(adam: &mut Adam, t: u64, params: &mut [f64], grads: &[f64]) {
        let bc1 = 1.0 - adam.beta1.powi(t as i32);
        let bc2 = 1.0 - adam.beta2.powi(t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            adam.m[i] = adam.beta1 * adam.m[i] + (1.0 - adam.beta1) * g;
            adam.v[i] = adam.beta2 * adam.v[i] + (1.0 - adam.beta2) * g * g;
            let m_hat = adam.m[i] / bc1;
            let v_hat = adam.v[i] / bc2;
            params[i] -= adam.learning_rate * m_hat / (v_hat.sqrt() + adam.epsilon);
        }
    }

    #[test]
    fn adam_matches_always_dividing_reference_bit_for_bit() {
        const STEPS: u64 = 40_000;
        // Both corrections reach exactly 1.0 inside the run, so both
        // skips are exercised.
        assert_eq!(1.0 - 0.9f64.powi(STEPS as i32), 1.0);
        assert_eq!(1.0 - 0.999f64.powi(STEPS as i32), 1.0);
        assert!(1.0 - 0.999f64.powi(30_000) < 1.0);

        let n = 10;
        let mut fast = Adam::new(1e-3);
        let mut reference = Adam::new(1e-3);
        reference.m = vec![0.0; n];
        reference.v = vec![0.0; n];
        let mut p_fast: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 1.0).collect();
        let mut p_ref = p_fast.clone();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut grads = vec![0.0f64; n];
        for t in 1..=STEPS {
            for (i, g) in grads.iter_mut().enumerate() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                *g = match i {
                    // Signed zeros throughout.
                    0 => 0.0,
                    1 => -0.0,
                    // Non-finite gradients from some step on: the
                    // moments and the parameter go NaN/∞ and must
                    // stay identical.
                    2 if t >= 20_000 => f64::INFINITY,
                    3 if t >= 38_000 => f64::NEG_INFINITY,
                    4 if t % 1_000 == 0 => f64::NAN,
                    // Tiny, huge and ordinary magnitudes of both signs.
                    5 => (u - 0.5) * 1e-300,
                    6 => (u - 0.5) * 1e150,
                    _ => (u - 0.5) * 4.0,
                };
            }
            fast.step(&mut p_fast, &grads);
            reference_adam_step(&mut reference, t, &mut p_ref, &grads);
            for i in 0..n {
                assert_eq!(
                    p_fast[i].to_bits(),
                    p_ref[i].to_bits(),
                    "param {i} at step {t}"
                );
                assert_eq!(fast.m[i].to_bits(), reference.m[i].to_bits(), "m {i} @ {t}");
                assert_eq!(fast.v[i].to_bits(), reference.v[i].to_bits(), "v {i} @ {t}");
            }
        }
        assert!(p_fast[4].is_nan() && p_fast[2].is_nan());
        assert!(p_fast[7].is_finite());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        Adam::new(0.1).step(&mut [0.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn changing_param_count_panics() {
        let mut opt = Adam::new(0.1);
        let mut x = vec![0.0];
        opt.step(&mut x, &[1.0]);
        let mut y = vec![0.0, 0.0];
        opt.step(&mut y, &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nonpositive_learning_rate_rejected() {
        Adam::new(0.0);
    }
}
