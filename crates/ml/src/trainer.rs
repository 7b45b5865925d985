//! Mini-batch MSE regression driver for [`Mlp`] networks.

use rand::seq::SliceRandom;
use rand::Rng;

use forumcast_resilience::fault::{self, FaultSite};

use crate::batch;
use crate::error::TrainError;
use crate::mlp::{Mlp, MlpScratch};
use crate::optim::Optimizer;

/// Trains an [`Mlp`] with scalar output on `(x, y)` pairs by
/// mini-batch gradient descent on the mean-squared error — the
/// training loop behind the paper's net-vote network (Section II-A2).
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Debug)]
pub struct Trainer<O> {
    optimizer: O,
    batch_size: usize,
    weight_decay: f64,
    threads: usize,
    grads: Vec<f64>,
    chunk_buf: Vec<f64>,
    scratch: MlpScratch,
    order: Vec<usize>,
    epochs_run: usize,
    steps_run: u64,
}

impl<O: Optimizer> Trainer<O> {
    /// Creates a trainer with the given optimizer and batch size.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size == 0`.
    pub fn new(optimizer: O, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Trainer {
            optimizer,
            batch_size,
            weight_decay: 0.0,
            threads: 0,
            grads: Vec::new(),
            chunk_buf: Vec::new(),
            scratch: MlpScratch::new(),
            order: Vec::new(),
            epochs_run: 0,
            steps_run: 0,
        }
    }

    /// Sets L2 weight decay applied to every parameter each step —
    /// the regularizer that keeps small training sets from being
    /// memorized.
    ///
    /// # Panics
    ///
    /// Panics when `weight_decay < 0`.
    pub fn with_weight_decay(mut self, weight_decay: f64) -> Self {
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        self.weight_decay = weight_decay;
        self
    }

    /// Sets the worker-thread count for mini-batch gradient
    /// accumulation; `0` (the default) follows the crate-global
    /// setting from [`crate::set_train_threads`]. Accumulation uses
    /// the fixed-order chunk reduction of `forumcast-par`, so the
    /// thread count never changes the trained parameters — only wall
    /// time.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs one epoch over the data in shuffled mini-batches and
    /// returns the epoch's mean squared error (computed online from
    /// pre-update predictions). Returns NaN when training diverged —
    /// the loss or the parameters went non-finite; [`Self::try_epoch`]
    /// surfaces that as a typed error instead. An empty dataset is a
    /// no-op: it neither advances the epoch or step counters nor
    /// consumes RNG state.
    ///
    /// Per-sample forward/backward passes run through the trainer's
    /// pooled [`MlpScratch`] and, when more than one worker is
    /// configured ([`Self::with_threads`]), gradient accumulation
    /// fans out across the batch with the fixed-order chunk
    /// reduction — bitwise identical for any thread count.
    ///
    /// Each optimizer step probes the `nan-grad` fault site with the
    /// trainer's cumulative step index, so a [`fault::FaultPlan`] can
    /// corrupt one exact gradient to exercise divergence recovery.
    /// The `ml.epoch.grad_norm` metric reports the mean per-step
    /// gradient norm over the epoch's non-poisoned steps (omitted
    /// when every step was poisoned), so the statistic stays finite
    /// and well-defined under fault injection.
    ///
    /// # Panics
    ///
    /// Panics when `xs`/`ys` lengths differ, the network output is not
    /// scalar, or a sample has the wrong dimension.
    pub fn epoch<R: Rng + ?Sized>(
        &mut self,
        mlp: &mut Mlp,
        xs: &[Vec<f64>],
        ys: &[f64],
        rng: &mut R,
    ) -> f64 {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert_eq!(mlp.output_dim(), 1, "trainer expects a scalar output");
        if xs.is_empty() {
            return 0.0;
        }
        self.epochs_run += 1;
        self.grads.resize(mlp.num_params(), 0.0);
        let threads = batch::effective_threads(self.threads);
        // Telemetry is read-only: norms are accumulated only when a
        // collector is armed and never feed back into the update.
        let telemetry = forumcast_obs::is_enabled();
        let mut norm_sum = 0.0;
        let mut clean_steps = 0u64;
        self.order.clear();
        self.order.extend(0..xs.len());
        self.order.shuffle(rng);
        let mut sse = 0.0;
        let order = std::mem::take(&mut self.order);
        for chunk in order.chunks(self.batch_size) {
            let mlp_ref: &Mlp = mlp;
            sse += batch::accumulate_batch(
                chunk.len(),
                threads,
                &mut self.grads,
                &mut self.chunk_buf,
                &mut self.scratch,
                MlpScratch::new,
                |range, scratch, buf| {
                    let mut partial = 0.0;
                    for pos in range {
                        let i = chunk[pos];
                        let out = mlp_ref.forward_scratch(&xs[i], scratch);
                        let err = out[0] - ys[i];
                        partial += err * err;
                        // d/dŷ of ½(ŷ−y)² scaled by 2/batch → err * 2 / n.
                        let go = [2.0 * err / chunk.len() as f64];
                        mlp_ref.backward_scratch(scratch, &go, buf);
                    }
                    partial
                },
            );
            if self.weight_decay > 0.0 {
                for (g, p) in self.grads.iter_mut().zip(mlp.params()) {
                    *g += self.weight_decay * p;
                }
            }
            let poisoned = fault::fires(FaultSite::NanGrad, self.steps_run);
            if poisoned {
                self.grads[0] = f64::NAN;
            } else if telemetry {
                norm_sum += crate::linalg::norm2(&self.grads);
                clean_steps += 1;
            }
            self.steps_run += 1;
            self.optimizer.step(mlp.params_mut(), &self.grads);
        }
        self.order = order;
        // A NaN gradient poisons the parameters, not necessarily the
        // pre-update loss of this epoch — check both.
        let mse = if mlp.params().iter().all(|p| p.is_finite()) {
            sse / xs.len() as f64
        } else {
            f64::NAN
        };
        if telemetry {
            let epoch = (self.epochs_run - 1) as u64;
            forumcast_obs::metric("ml.epoch.loss", epoch, mse);
            if clean_steps > 0 {
                forumcast_obs::metric("ml.epoch.grad_norm", epoch, norm_sum / clean_steps as f64);
            }
        }
        mse
    }

    /// Like [`Self::epoch`], but surfaces divergence (non-finite loss
    /// or parameters) as [`TrainError::Diverged`] naming the epoch.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Diverged`] when this epoch's loss or the
    /// post-epoch parameters are non-finite.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::epoch`].
    pub fn try_epoch<R: Rng + ?Sized>(
        &mut self,
        mlp: &mut Mlp,
        xs: &[Vec<f64>],
        ys: &[f64],
        rng: &mut R,
    ) -> Result<f64, TrainError> {
        let epoch = self.epochs_run;
        let mse = self.epoch(mlp, xs, ys, rng);
        if mse.is_finite() {
            Ok(mse)
        } else {
            Err(TrainError::Diverged { epoch })
        }
    }

    /// Epochs run so far (counting diverged ones).
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::LayerSpec;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn learns_nonlinear_function() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut mlp = Mlp::new(
            &[
                LayerSpec::new(1, 16, Activation::Tanh),
                LayerSpec::new(16, 1, Activation::Identity),
            ],
            &mut rng,
        );
        let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 32.0 - 1.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let mut trainer = Trainer::new(Adam::new(0.01), 16);
        let first = trainer.epoch(&mut mlp, &xs, &ys, &mut rng);
        let mut last = first;
        for _ in 0..500 {
            last = trainer.epoch(&mut mlp, &xs, &ys, &mut rng);
        }
        assert!(last < first / 10.0, "mse {first} -> {last}");
        assert!((mlp.forward(&[0.5])[0] - 0.25).abs() < 0.1);
    }

    #[test]
    fn empty_epoch_returns_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(&[LayerSpec::new(1, 1, Activation::Identity)], &mut rng);
        let mut trainer = Trainer::new(Adam::new(0.01), 4);
        assert_eq!(trainer.epoch(&mut mlp, &[], &[], &mut rng), 0.0);
    }

    #[test]
    fn empty_epoch_does_not_advance_counters_or_rng() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut mlp = Mlp::new(&[LayerSpec::new(1, 1, Activation::Identity)], &mut rng);
        let mut trainer = Trainer::new(Adam::new(0.01), 4);
        let mut untouched = rng.clone();
        trainer.epoch(&mut mlp, &[], &[], &mut rng);
        assert_eq!(trainer.epochs_run(), 0, "empty epoch must not count");
        assert_eq!(trainer.steps_run, 0, "empty epoch must not step");
        assert_eq!(
            rng.gen::<u64>(),
            untouched.gen::<u64>(),
            "empty epoch must not consume RNG state"
        );
        // A real epoch afterwards still numbers itself from 0.
        let (xs, ys) = toy();
        trainer.epoch(&mut mlp, &xs, &ys, &mut rng);
        assert_eq!(trainer.epochs_run(), 1);
    }

    #[test]
    #[should_panic(expected = "scalar output")]
    fn multi_output_network_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(&[LayerSpec::new(1, 2, Activation::Identity)], &mut rng);
        let mut trainer = Trainer::new(Adam::new(0.01), 4);
        trainer.epoch(&mut mlp, &[vec![0.0]], &[0.0], &mut rng);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        Trainer::new(Adam::new(0.01), 0);
    }

    fn toy() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64 / 16.0 - 1.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0]).collect();
        (xs, ys)
    }

    #[test]
    fn injected_nan_gradient_is_detected_as_divergence() {
        let _guard = forumcast_resilience::FaultPlan::parse("nan-grad:2")
            .unwrap()
            .arm();
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[LayerSpec::new(1, 1, Activation::Identity)], &mut rng);
        let (xs, ys) = toy();
        let mut trainer = Trainer::new(Adam::new(0.01), 16);
        // 2 batches per epoch → step 2 is the first batch of epoch 1.
        assert!(trainer.try_epoch(&mut mlp, &xs, &ys, &mut rng).is_ok());
        match trainer.try_epoch(&mut mlp, &xs, &ys, &mut rng) {
            Err(TrainError::Diverged { epoch }) => assert_eq!(epoch, 1),
            other => panic!("expected divergence at epoch 1, got {other:?}"),
        }
        assert_eq!(trainer.epochs_run(), 2);
    }

    #[test]
    fn healthy_training_never_reports_divergence() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = Mlp::new(
            &[
                LayerSpec::new(1, 4, Activation::Tanh),
                LayerSpec::new(4, 1, Activation::Identity),
            ],
            &mut rng,
        );
        let (xs, ys) = toy();
        let mut trainer = Trainer::new(Adam::new(0.01), 8);
        for _ in 0..20 {
            trainer.try_epoch(&mut out, &xs, &ys, &mut rng).unwrap();
        }
        assert_eq!(trainer.epochs_run(), 20);
    }
}
