//! Fully-connected neural networks with reverse-mode gradients.
//!
//! Parameters are stored in one flat `Vec<f64>` (per layer: weight
//! matrix row-major `[outputs × inputs]`, then bias `[outputs]`), so
//! optimizers ([`crate::optim`]) can treat the whole network as a
//! single parameter vector. [`Mlp::backward_scratch`] accepts an arbitrary
//! gradient of the loss with respect to the network *output*, which is
//! what lets `forumcast-core` train the point-process likelihood —
//! a loss TensorFlow normally autodiffs for the paper's authors.

use std::cell::RefCell;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;

/// Shape and nonlinearity of one dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Input dimension.
    pub inputs: usize,
    /// Output dimension (number of hidden units).
    pub outputs: usize,
    /// Layer nonlinearity.
    pub activation: Activation,
}

impl LayerSpec {
    /// Creates a layer spec.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` or `outputs` is zero.
    pub fn new(inputs: usize, outputs: usize, activation: Activation) -> Self {
        assert!(
            inputs > 0 && outputs > 0,
            "layer dimensions must be positive"
        );
        LayerSpec {
            inputs,
            outputs,
            activation,
        }
    }

    /// Number of parameters (weights + biases) in this layer.
    pub fn num_params(&self) -> usize {
        self.outputs * self.inputs + self.outputs
    }
}

/// Reusable flat buffers for [`Mlp::forward_scratch`] /
/// [`Mlp::backward_scratch`], following the graph crate's `BfsScratch`
/// discipline: lazily sized on first use, resized only when the
/// network shape changes, reused (with a [`reuses`](Self::reuses)
/// count) otherwise. One scratch serves one network shape at a time;
/// a forward pass overwrites every cell it reads, so no clearing is
/// needed between passes.
#[derive(Debug, Default)]
pub struct MlpScratch {
    /// Flat activations: the input segment followed by one segment per
    /// layer output, at [`Self::offsets`].
    acts: Vec<f64>,
    /// Start offset of segment `l` in `acts` (`layers + 1` entries,
    /// the last being the output segment).
    offsets: Vec<usize>,
    /// δ ping-pong buffers for the backward pass, sized to the widest
    /// layer interface.
    delta: Vec<f64>,
    delta_next: Vec<f64>,
    /// `(inputs, outputs)` per layer of the network the buffers are
    /// currently sized for.
    shape: Vec<(usize, usize)>,
    /// Times `prepare` found the buffers already sized.
    reuses: u64,
}

impl MlpScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        MlpScratch::default()
    }

    /// How many forward passes reused the buffers without resizing.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Layer 0's outputs of the pass in progress, for the units a
    /// caller computes apart from the network (see
    /// [`Mlp::forward_first_layer`]).
    pub fn first_layer_mut(&mut self) -> &mut [f64] {
        let start = self.offsets[1];
        &mut self.acts[start..start + self.shape[0].1]
    }

    /// `∂L/∂y` of layer 0's outputs, as [`Mlp::backward_upper_layers`]
    /// left it.
    pub fn first_layer_grad(&self) -> &[f64] {
        &self.delta[..self.shape[0].1]
    }

    /// Sizes the buffers for `mlp`, counting a reuse when they already
    /// fit.
    fn prepare(&mut self, mlp: &Mlp) {
        let fits = self.shape.len() == mlp.specs.len()
            && self
                .shape
                .iter()
                .zip(&mlp.specs)
                .all(|(&(i, o), s)| i == s.inputs && o == s.outputs);
        if fits {
            self.reuses += 1;
            return;
        }
        self.shape.clear();
        self.shape
            .extend(mlp.specs.iter().map(|s| (s.inputs, s.outputs)));
        self.offsets.clear();
        self.offsets.push(0);
        let mut total = mlp.specs[0].inputs;
        let mut max_width = mlp.specs[0].inputs;
        for spec in &mlp.specs {
            self.offsets.push(total);
            total += spec.outputs;
            max_width = max_width.max(spec.outputs);
        }
        self.acts.resize(total, 0.0);
        self.delta.resize(max_width, 0.0);
        self.delta_next.resize(max_width, 0.0);
    }

    /// Panics unless the scratch holds a pass for `mlp`'s shape.
    fn assert_prepared(&self, mlp: &Mlp) {
        assert!(
            self.shape.len() == mlp.specs.len()
                && self
                    .shape
                    .iter()
                    .zip(&mlp.specs)
                    .all(|(&(i, o), s)| i == s.inputs && o == s.outputs),
            "scratch holds no forward pass for this network shape"
        );
    }
}

/// A fully-connected feed-forward network.
///
/// # Example
///
/// ```
/// use forumcast_ml::{Activation, LayerSpec, Mlp};
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(
///     &[LayerSpec::new(3, 4, Activation::Relu), LayerSpec::new(4, 1, Activation::Identity)],
///     &mut rng,
/// );
/// assert_eq!(mlp.forward(&[0.0, 1.0, -1.0]).len(), 1);
/// assert_eq!(mlp.num_params(), 3 * 4 + 4 + 4 + 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    specs: Vec<LayerSpec>,
    params: Vec<f64>,
}

impl Mlp {
    /// Creates a network with Xavier/Glorot-uniform initial weights
    /// and zero biases.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty or consecutive layer dimensions
    /// disagree.
    pub fn new<R: Rng + ?Sized>(specs: &[LayerSpec], rng: &mut R) -> Self {
        assert!(!specs.is_empty(), "network needs at least one layer");
        for w in specs.windows(2) {
            assert_eq!(
                w[0].outputs, w[1].inputs,
                "layer dimensions disagree: {} -> {}",
                w[0].outputs, w[1].inputs
            );
        }
        let total: usize = specs.iter().map(LayerSpec::num_params).sum();
        let mut params = vec![0.0; total];
        let mut offset = 0;
        for spec in specs {
            let bound = (6.0 / (spec.inputs + spec.outputs) as f64).sqrt();
            let n_w = spec.outputs * spec.inputs;
            for p in &mut params[offset..offset + n_w] {
                *p = rng.gen_range(-bound..bound);
            }
            offset += spec.num_params();
        }
        Mlp {
            specs: specs.to_vec(),
            params,
        }
    }

    /// Input dimension of the network.
    pub fn input_dim(&self) -> usize {
        self.specs[0].inputs
    }

    /// Output dimension of the network.
    pub fn output_dim(&self) -> usize {
        self.specs.last().expect("non-empty").outputs
    }

    /// Layer specifications.
    pub fn specs(&self) -> &[LayerSpec] {
        &self.specs
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// The flat parameter vector.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Mutable access to the flat parameter vector (for optimizers).
    pub fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    /// Runs the network on `x`.
    ///
    /// The layers run in a per-thread [`MlpScratch`], so the only
    /// allocation is the returned output. The result is bitwise
    /// identical to [`Self::forward_scratch`]'s output.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != input_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        thread_local! {
            static SCRATCH: RefCell<MlpScratch> = RefCell::new(MlpScratch::new());
        }
        SCRATCH.with(|scratch| self.forward_scratch(x, &mut scratch.borrow_mut()).to_vec())
    }

    /// Runs the network on `x`, storing every layer's activations in
    /// `scratch` for a later [`Self::backward_scratch`], and returns
    /// the output slice.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != input_dim()`.
    pub fn forward_scratch<'s>(&self, x: &[f64], scratch: &'s mut MlpScratch) -> &'s [f64] {
        self.forward_first_layer(x, scratch, self.specs[0].outputs);
        self.forward_upper_layers(scratch)
    }

    /// The first half of [`Self::forward_scratch`]: loads `x` into
    /// `scratch` and runs units `[0, units)` of layer 0. Units
    /// `[units, n)` may be computed elsewhere with [`forward_units`]
    /// and written through [`MlpScratch::first_layer_mut`] before
    /// [`Self::forward_upper_layers`] finishes the pass.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != input_dim()` or `units` exceeds layer
    /// 0's width.
    pub fn forward_first_layer(&self, x: &[f64], scratch: &mut MlpScratch, units: usize) {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        scratch.prepare(self);
        let spec = &self.specs[0];
        let (w, b) = self.params[..spec.num_params()].split_at(spec.outputs * spec.inputs);
        let (input, out) = scratch.acts.split_at_mut(spec.inputs);
        input.copy_from_slice(x);
        forward_units(
            spec.activation,
            &w[..units * spec.inputs],
            &b[..units],
            input,
            &mut out[..units],
        );
    }

    /// The second half of [`Self::forward_scratch`]: runs layers
    /// `1..` on the layer-0 outputs in `scratch` and returns the
    /// output slice.
    ///
    /// # Panics
    ///
    /// Panics when `scratch` holds no pass for this network's shape.
    pub fn forward_upper_layers<'s>(&self, scratch: &'s mut MlpScratch) -> &'s [f64] {
        scratch.assert_prepared(self);
        let mut offset = self.specs[0].num_params();
        for (l, spec) in self.specs.iter().enumerate().skip(1) {
            let (w, b) = self.params[offset..offset + spec.num_params()]
                .split_at(spec.outputs * spec.inputs);
            // The output segment starts where the input segment ends,
            // so one split yields both without aliasing.
            let (head, tail) = scratch.acts.split_at_mut(scratch.offsets[l + 1]);
            let input = &head[scratch.offsets[l]..scratch.offsets[l] + spec.inputs];
            forward_units(spec.activation, w, b, input, &mut tail[..spec.outputs]);
            offset += spec.num_params();
        }
        let last = scratch.offsets[self.specs.len()];
        &scratch.acts[last..last + self.output_dim()]
    }

    /// Backpropagates `grad_output = ∂L/∂y` through the pass most
    /// recently recorded in `scratch` by [`Self::forward_scratch`],
    /// **accumulating** parameter gradients into `grads` (which must
    /// have length [`num_params`](Mlp::num_params)). The input
    /// gradient `∂L/∂x` is not computed.
    ///
    /// Accumulation (rather than overwrite) lets callers sum gradients
    /// over a mini-batch or over the several likelihood terms of the
    /// point-process loss before one optimizer step.
    ///
    /// # Panics
    ///
    /// Panics when `grads` or `grad_output` has the wrong length, or
    /// when `scratch` holds no pass for this network's shape.
    pub fn backward_scratch(
        &self,
        scratch: &mut MlpScratch,
        grad_output: &[f64],
        grads: &mut [f64],
    ) {
        self.backward_upper_layers(scratch, grad_output, grads);
        self.backward_first_layer(scratch, grads, self.specs[0].outputs);
    }

    /// The first half of [`Self::backward_scratch`]: backpropagates
    /// `grad_output` through layers `1..`, accumulating their
    /// gradients into `grads`, and leaves `∂L/∂y` of layer 0's outputs
    /// in [`MlpScratch::first_layer_grad`].
    ///
    /// # Panics
    ///
    /// As [`Self::backward_scratch`].
    pub fn backward_upper_layers(
        &self,
        scratch: &mut MlpScratch,
        grad_output: &[f64],
        grads: &mut [f64],
    ) {
        assert_eq!(grads.len(), self.params.len(), "grads length mismatch");
        assert_eq!(
            grad_output.len(),
            self.output_dim(),
            "grad_output dimension mismatch"
        );
        scratch.assert_prepared(self);
        scratch.delta[..grad_output.len()].copy_from_slice(grad_output);
        let mut offset = self.params.len();
        for (l, spec) in self.specs.iter().enumerate().skip(1).rev() {
            offset -= spec.num_params();
            let input = &scratch.acts[scratch.offsets[l]..scratch.offsets[l] + spec.inputs];
            let output =
                &scratch.acts[scratch.offsets[l + 1]..scratch.offsets[l + 1] + spec.outputs];
            let delta = &mut scratch.delta[..spec.outputs];
            let (gw, gb) =
                grads[offset..offset + spec.num_params()].split_at_mut(spec.outputs * spec.inputs);
            backward_units(spec.activation, output, input, delta, gw, gb);
            let w = &self.params[offset..offset + spec.outputs * spec.inputs];
            let grad_in = &mut scratch.delta_next[..spec.inputs];
            grad_in.fill(0.0);
            crate::linalg::gemv_t_accum(w, spec.outputs, spec.inputs, delta, grad_in);
            std::mem::swap(&mut scratch.delta, &mut scratch.delta_next);
        }
    }

    /// The second half of [`Self::backward_scratch`]: accumulates the
    /// gradients of layer 0's units `[0, units)` from the `∂L/∂y` that
    /// [`Self::backward_upper_layers`] left in `scratch`. Units
    /// `[units, n)` may be accumulated elsewhere with
    /// [`backward_units`].
    ///
    /// # Panics
    ///
    /// Panics when `grads` has the wrong length or `units` exceeds
    /// layer 0's width.
    pub fn backward_first_layer(&self, scratch: &mut MlpScratch, grads: &mut [f64], units: usize) {
        assert_eq!(grads.len(), self.params.len(), "grads length mismatch");
        let spec = &self.specs[0];
        let (input, outputs) = scratch.acts.split_at(spec.inputs);
        let (gw, gb) = grads[..spec.num_params()].split_at_mut(spec.outputs * spec.inputs);
        backward_units(
            spec.activation,
            &outputs[..units],
            input,
            &mut scratch.delta[..units],
            &mut gw[..units * spec.inputs],
            &mut gb[..units],
        );
    }
}

/// The forward pass of some units of one dense layer:
/// `out[o] = σ(w_o · x + b_o)`, where `w` holds their weight rows
/// (row-major `[units × x.len()]`) and `b` their biases. Every layer of
/// an [`Mlp`] runs through this, so a run of units computed apart from
/// its network matches the network's own pass bit for bit.
///
/// # Panics
///
/// Panics when the slice lengths disagree.
pub fn forward_units(activation: Activation, w: &[f64], b: &[f64], x: &[f64], out: &mut [f64]) {
    crate::linalg::gemv(w, b.len(), x.len(), x, b, out);
    for y in out.iter_mut() {
        *y = activation.apply(*y);
    }
}

/// The backward pass of the units [`forward_units`] ran: turns
/// `grad = ∂L/∂y` into `δ = ∂L/∂y ⊙ σ'(z)` in place (σ' from the
/// outputs `y`), then accumulates `gb += δ` and `gw += δ ⊗ x`.
///
/// # Panics
///
/// Panics when the slice lengths disagree.
pub fn backward_units(
    activation: Activation,
    y: &[f64],
    x: &[f64],
    grad: &mut [f64],
    gw: &mut [f64],
    gb: &mut [f64],
) {
    assert_eq!(
        y.len(),
        grad.len(),
        "backward_units: output length mismatch"
    );
    for (d, &y) in grad.iter_mut().zip(y) {
        *d *= activation.derivative_from_output(y);
    }
    crate::linalg::axpy(1.0, grad, gb);
    crate::linalg::rank1_accum(gw, grad.len(), x.len(), grad, x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(rng: &mut StdRng) -> Mlp {
        Mlp::new(
            &[
                LayerSpec::new(2, 3, Activation::Tanh),
                LayerSpec::new(3, 2, Activation::Sigmoid),
                LayerSpec::new(2, 1, Activation::Identity),
            ],
            rng,
        )
    }

    #[test]
    fn forward_dimensions_and_determinism() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = small_net(&mut rng);
        let y1 = mlp.forward(&[0.5, -0.5]);
        let y2 = mlp.forward(&[0.5, -0.5]);
        assert_eq!(y1.len(), 1);
        assert_eq!(y1, y2);
    }

    #[test]
    fn same_seed_same_network() {
        let m1 = small_net(&mut StdRng::seed_from_u64(9));
        let m2 = small_net(&mut StdRng::seed_from_u64(9));
        assert_eq!(m1.params(), m2.params());
    }

    #[test]
    fn num_params_matches_layout() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = small_net(&mut rng);
        assert_eq!(mlp.num_params(), (2 * 3 + 3) + (3 * 2 + 2) + (2 + 1));
    }

    #[test]
    #[should_panic(expected = "dimensions disagree")]
    fn mismatched_layers_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        Mlp::new(
            &[
                LayerSpec::new(2, 3, Activation::Relu),
                LayerSpec::new(4, 1, Activation::Identity),
            ],
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_dim_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        small_net(&mut rng).forward(&[1.0]);
    }

    /// Central finite-difference check of the parameter gradients of a
    /// net with two softplus outputs, for a scalar loss L = Σ y_i².
    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut mlp = Mlp::new(
            &[
                LayerSpec::new(3, 4, Activation::Tanh),
                LayerSpec::new(4, 2, Activation::Softplus),
            ],
            &mut rng,
        );
        let x = vec![0.3, -0.7, 1.1];
        let loss = |m: &Mlp, x: &[f64]| -> f64 { m.forward(x).iter().map(|y| y * y).sum() };

        let mut scratch = MlpScratch::new();
        let grad_out: Vec<f64> = mlp
            .forward_scratch(&x, &mut scratch)
            .iter()
            .map(|&y| 2.0 * y)
            .collect();
        let mut grads = vec![0.0; mlp.num_params()];
        mlp.backward_scratch(&mut scratch, &grad_out, &mut grads);

        let eps = 1e-6;
        #[allow(clippy::needless_range_loop)] // params are mutated per index below
        for i in 0..mlp.num_params() {
            let orig = mlp.params()[i];
            mlp.params_mut()[i] = orig + eps;
            let lp = loss(&mlp, &x);
            mlp.params_mut()[i] = orig - eps;
            let lm = loss(&mlp, &x);
            mlp.params_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grads[i]).abs() < 1e-5,
                "param {i}: numeric {numeric} vs analytic {}",
                grads[i]
            );
        }
    }

    const ALL_ACTIVATIONS: [Activation; 5] = [
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Softplus,
        Activation::Identity,
    ];

    #[test]
    fn forward_matches_its_own_scratch_bitwise_for_all_activations() {
        for (k, act) in ALL_ACTIVATIONS.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(200 + k as u64);
            let wide = Mlp::new(
                &[
                    LayerSpec::new(3, 6, act),
                    LayerSpec::new(6, 3, act),
                    LayerSpec::new(3, 2, Activation::Identity),
                ],
                &mut rng,
            );
            let narrow = Mlp::new(&[LayerSpec::new(3, 1, act)], &mut rng);
            // Alternating shapes re-size the thread's scratch each call.
            for x in [[0.4, -0.9, 1.3], [-2.0, 0.0, 0.75], [1e-3, 5.0, -0.2]] {
                for mlp in [&wide, &narrow] {
                    let got = mlp.forward(&x);
                    let mut scratch = MlpScratch::new();
                    let want = mlp.forward_scratch(&x, &mut scratch);
                    assert_eq!(got.len(), want.len());
                    for (a, b) in got.iter().zip(want) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{act:?} forward");
                    }
                }
            }
        }
    }

    /// A pass split at layer 0, whose units `[units, n)` run apart
    /// through `forward_units`/`backward_units` on their own rows,
    /// matches the whole pass bit for bit, at every split point.
    #[test]
    fn split_first_layer_matches_the_whole_pass_bitwise() {
        for (k, act) in ALL_ACTIVATIONS.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(100 + k as u64);
            let mlp = Mlp::new(
                &[
                    LayerSpec::new(3, 5, act),
                    LayerSpec::new(5, 4, act),
                    LayerSpec::new(4, 2, Activation::Identity),
                ],
                &mut rng,
            );
            let (x, go) = ([0.4, -0.9, 1.3], [0.7, -1.2]);
            let mut whole = MlpScratch::new();
            let want = mlp.forward_scratch(&x, &mut whole).to_vec();
            let mut g_want = vec![0.0; mlp.num_params()];
            mlp.backward_scratch(&mut whole, &go, &mut g_want);
            for units in 0..=5 {
                let (w, rest) = mlp.params().split_at(15);
                let (w_lent, b_lent) = (&w[units * 3..], &rest[units..5]);
                let mut split = MlpScratch::new();
                mlp.forward_first_layer(&x, &mut split, units);
                let mut lent = vec![0.0; 5 - units];
                forward_units(act, w_lent, b_lent, &x, &mut lent);
                split.first_layer_mut()[units..].copy_from_slice(&lent);
                let got = mlp.forward_upper_layers(&mut split);
                assert_eq!(got, &want[..], "{act:?} forward, {units} units");
                let mut grads = vec![0.0; mlp.num_params()];
                mlp.backward_upper_layers(&mut split, &go, &mut grads);
                let mut grad_lent = split.first_layer_grad()[units..].to_vec();
                mlp.backward_first_layer(&mut split, &mut grads, units);
                let (gw, gb) = grads.split_at_mut(15);
                let (gw_lent, gb_lent) = (&mut gw[units * 3..], &mut gb[units..5]);
                backward_units(act, &lent, &x, &mut grad_lent, gw_lent, gb_lent);
                for (i, (a, b)) in grads.iter().zip(&g_want).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{act:?} grad {i}, {units} units");
                }
            }
        }
    }

    /// Finite-difference check of the scratch kernels for every
    /// activation, with loss L = Σ y_i².
    #[test]
    fn backward_scratch_matches_finite_differences_for_all_activations() {
        for (k, act) in ALL_ACTIVATIONS.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(40 + k as u64);
            let mut mlp = Mlp::new(
                &[
                    LayerSpec::new(3, 6, act),
                    LayerSpec::new(6, 2, Activation::Identity),
                ],
                &mut rng,
            );
            let x = vec![0.35, -0.65, 1.05];
            let loss = |m: &Mlp, x: &[f64]| -> f64 { m.forward(x).iter().map(|y| y * y).sum() };
            let mut scratch = MlpScratch::new();
            let grad_out: Vec<f64> = mlp
                .forward_scratch(&x, &mut scratch)
                .iter()
                .map(|&y| 2.0 * y)
                .collect();
            let mut grads = vec![0.0; mlp.num_params()];
            mlp.backward_scratch(&mut scratch, &grad_out, &mut grads);
            let eps = 1e-6;
            #[allow(clippy::needless_range_loop)] // params are mutated per index below
            for i in 0..mlp.num_params() {
                let orig = mlp.params()[i];
                mlp.params_mut()[i] = orig + eps;
                let lp = loss(&mlp, &x);
                mlp.params_mut()[i] = orig - eps;
                let lm = loss(&mlp, &x);
                mlp.params_mut()[i] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grads[i]).abs() < 1e-5,
                    "{act:?} param {i}: numeric {numeric} vs analytic {}",
                    grads[i]
                );
            }
        }
    }

    #[test]
    fn backward_scratch_accumulates_across_calls() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = small_net(&mut rng);
        let x = [0.2, 0.8];
        let mut scratch = MlpScratch::new();
        mlp.forward_scratch(&x, &mut scratch);
        let go = [1.0];
        let mut g1 = vec![0.0; mlp.num_params()];
        mlp.backward_scratch(&mut scratch, &go, &mut g1);
        let mut g2 = vec![0.0; mlp.num_params()];
        mlp.backward_scratch(&mut scratch, &go, &mut g2);
        mlp.backward_scratch(&mut scratch, &go, &mut g2);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn scratch_reuses_buffers_and_resizes_across_shapes() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = small_net(&mut rng);
        let b = Mlp::new(&[LayerSpec::new(4, 2, Activation::Relu)], &mut rng);
        let mut scratch = MlpScratch::new();
        a.forward_scratch(&[0.1, 0.2], &mut scratch);
        assert_eq!(scratch.reuses(), 0);
        a.forward_scratch(&[0.3, 0.4], &mut scratch);
        a.forward_scratch(&[0.5, 0.6], &mut scratch);
        assert_eq!(scratch.reuses(), 2);
        // A different shape re-sizes instead of reusing.
        b.forward_scratch(&[0.0, 0.0, 0.0, 0.0], &mut scratch);
        assert_eq!(scratch.reuses(), 2);
        b.forward_scratch(&[1.0, 0.0, 0.0, 0.0], &mut scratch);
        assert_eq!(scratch.reuses(), 3);
    }

    #[test]
    #[should_panic(expected = "no forward pass")]
    fn backward_scratch_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = small_net(&mut rng);
        let mut scratch = MlpScratch::new();
        let mut grads = vec![0.0; mlp.num_params()];
        mlp.backward_scratch(&mut scratch, &[1.0], &mut grads);
    }

    #[test]
    fn serde_roundtrip_preserves_outputs() {
        let mut rng = StdRng::seed_from_u64(8);
        let mlp = small_net(&mut rng);
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(back.forward(&[0.1, 0.9]), mlp.forward(&[0.1, 0.9]));
    }
}
