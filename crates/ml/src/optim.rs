//! First-order optimizers: SGD and Adam (the paper's optimizer).

use serde::{Deserialize, Serialize};

/// A first-order optimizer updating a flat parameter vector in place.
///
/// The trait is object-safe so training drivers can be configured at
/// runtime.
pub trait Optimizer {
    /// Applies one update step: `params -= f(grads)`.
    ///
    /// # Panics
    ///
    /// Implementations panic when `params.len() != grads.len()` or the
    /// length changes between calls.
    fn step(&mut self, params: &mut [f64], grads: &[f64]);

    /// Resets internal state (e.g. Adam moments).
    fn reset(&mut self);
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient in `[0, 1)`; 0 disables momentum.
    pub momentum: f64,
    velocity: Vec<f64>,
}

impl Sgd {
    /// Creates SGD with the given learning rate and no momentum.
    ///
    /// # Panics
    ///
    /// Panics when `learning_rate <= 0`.
    pub fn new(learning_rate: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Sgd {
            learning_rate,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Sets the momentum coefficient.
    ///
    /// # Panics
    ///
    /// Panics when `momentum` is not in `[0, 1)`.
    pub fn with_momentum(mut self, momentum: f64) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.momentum = momentum;
        self
    }

    /// The momentum velocity vector. Empty until the first step sizes
    /// it to the parameter count.
    pub fn velocity(&self) -> &[f64] {
        &self.velocity
    }

    /// Rebuilds SGD from checkpointed state, velocity included.
    ///
    /// # Panics
    ///
    /// Panics when `learning_rate <= 0` or `momentum` is outside
    /// `[0, 1)` — checkpoint decoding validates these before calling.
    pub fn from_parts(learning_rate: f64, momentum: f64, velocity: Vec<f64>) -> Self {
        let mut sgd = Sgd::new(learning_rate).with_momentum(momentum);
        sgd.velocity = velocity;
        sgd
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        if self.velocity.len() != params.len() {
            assert!(self.velocity.is_empty(), "parameter count changed");
            self.velocity = vec![0.0; params.len()];
        }
        for i in 0..params.len() {
            self.velocity[i] = self.momentum * self.velocity[i] - self.learning_rate * grads[i];
            params[i] += self.velocity[i];
        }
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }
}

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

    /// Number of update steps applied so far (the Adam `t` counter).
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The first- and second-moment vectors `(m, v)`. Empty until the
    /// first step sizes them to the parameter count.
    pub fn moments(&self) -> (&[f64], &[f64]) {
        (&self.m, &self.v)
    }

    /// Rebuilds Adam from checkpointed state, moments and step
    /// counter included.
    ///
    /// # Panics
    ///
    /// Panics when `learning_rate <= 0` or the moment vectors differ
    /// in length — checkpoint decoding validates both before calling.
    pub fn from_parts(
        learning_rate: f64,
        beta1: f64,
        beta2: f64,
        epsilon: f64,
        t: u64,
        m: Vec<f64>,
        v: Vec<f64>,
    ) -> Self {
        assert_eq!(m.len(), v.len(), "moment vectors must match in length");
        let mut adam = Adam::new(learning_rate);
        adam.beta1 = beta1;
        adam.beta2 = beta2;
        adam.epsilon = epsilon;
        adam.t = t;
        adam.m = m;
        adam.v = v;
        adam
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
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

    fn reset(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)² from x = 0.
    fn minimize<O: Optimizer>(opt: &mut O, steps: usize) -> f64 {
        let mut x = vec![0.0f64];
        for _ in 0..steps {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!((minimize(&mut opt, 200) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        assert!((minimize(&mut opt, 400) - 3.0).abs() < 1e-4);
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
    fn reset_clears_state() {
        let mut opt = Adam::new(0.1);
        let mut x = vec![0.0];
        opt.step(&mut x, &[1.0]);
        opt.reset();
        // After reset a different-size parameter vector is accepted.
        let mut y = vec![0.0, 0.0];
        opt.step(&mut y, &[1.0, 1.0]);
        assert!(y[0] < 0.0 && y[1] < 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        Sgd::new(0.1).step(&mut [0.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn changing_param_count_without_reset_panics() {
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

    #[test]
    fn optimizers_are_object_safe() {
        let mut opts: Vec<Box<dyn Optimizer>> =
            vec![Box::new(Sgd::new(0.1)), Box::new(Adam::new(0.1))];
        let mut x = vec![1.0];
        for o in &mut opts {
            o.step(&mut x, &[0.5]);
        }
        assert!(x[0] < 1.0);
    }
}
