//! The `r̂_{u,q}` predictor: a point-process model of response time.
//!
//! The rate of user `u` answering question `q` at time `t` is
//! `λ_{u,q}(t) = μ_{u,q} e^{−ω_{u,q}(t − t(p_{q0}))}` (Section II-A3)
//! with `μ_{u,q} = f_Θ(x_{u,q})` a neural network and
//! `ω_{u,q} = g_Θ(x_{u,q})` either a second network or a constant
//! (the paper found a constant decay best on its dataset).
//!
//! Training maximizes the thread log-likelihood
//!
//! ```text
//! L_q = Σ_{n>0} ln μ(x_{u(p_qn),q}) − Σ_{n>0} ω(x)·(t_n − t_0)
//!       − Σ_{u∈U} μ(x_{u,q}) · (1 − e^{−ω(x)(T − t_0)}) / ω(x)
//! ```
//!
//! The survival sum over *all* users is intractable to materialize
//! (every user × every question), so each [`ThreadObservation`]
//! carries the thread's answerers plus a sample of non-answerers
//! whose survival contribution is importance-weighted up to the full
//! population — the standard estimator for sampled point-process
//! likelihoods. Gradients flow through [`forumcast_ml::Mlp::backward`]
//! exactly as TensorFlow's autodiff does for the paper's authors.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use forumcast_ml::{Activation, Adam, LayerSpec, Mlp, MlpScratch, Optimizer};

/// Lower clamp for the excitation μ inside logs and divisions.
const MU_FLOOR: f64 = 1e-8;
/// Lower clamp for the decay rate ω.
const OMEGA_FLOOR: f64 = 1e-4;

/// How the decay rate `ω_{u,q}` is modeled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DecayMode {
    /// A fixed constant for all pairs — the paper's final choice
    /// ("neural networks for the decay rate did not yield benefit
    /// over a constant value on this dataset").
    Constant(f64),
    /// A second neural network `g_Θ(x)` with the given hidden sizes;
    /// "significantly different from [Farajtabar et al.] where ω is
    /// set to a constant value" — the paper's generalization.
    Learned {
        /// Hidden-layer widths of `g`.
        hidden: Vec<usize>,
    },
}

/// How point predictions are derived from the fitted rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictionMode {
    /// The paper's formula (Section II-A3):
    /// `r̂ = μ/ω² (1 − e^{−ωΔ}(1 + ωΔ))`, the unnormalized first
    /// moment `∫ τ λ(τ) dτ` of the rate over the window.
    PaperExpectation,
    /// The conditional expectation `E[t − t₀ | answered within Δ]` —
    /// the paper formula normalized by the window mass
    /// `Λ(Δ) = μ(1 − e^{−ωΔ})/ω`. Requires a learned ω to vary
    /// across pairs; provided as a principled alternative. Like the
    /// paper's formula it treats events as rare (`Λ ≪ 1`).
    Conditional,
    /// The exact first-event expectation
    /// `E[t | event ≤ Δ] = ∫ t λ(t) e^{−Λ(t)} dt / (1 − e^{−Λ(Δ)})`,
    /// computed by Simpson integration. Unlike
    /// [`Conditional`](PredictionMode::Conditional) it accounts for
    /// the survival factor, which matters whenever the window hazard
    /// `Λ(Δ)` is not small — the regime of real forum threads.
    FirstEvent,
}

/// Everything the likelihood needs from one question thread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadObservation {
    /// `(x_{u,q}, r_{u,q})` for each answering user.
    pub answers: Vec<(Vec<f64>, f64)>,
    /// Feature vectors of sampled non-answering users.
    pub non_answerers: Vec<Vec<f64>>,
    /// Observation window `Δ = T − t(p_{q0})` in hours.
    pub window: f64,
    /// Total population size `|U|` the sample represents.
    pub population: usize,
}

impl ThreadObservation {
    /// Importance weight applied to each sampled non-answerer's
    /// survival term so the sample represents the whole population:
    /// `(|U| − 1 − #answers) / #samples` (the asker and the answerers
    /// are excluded from the surviving population).
    ///
    /// Two edge cases degrade to a weight of `0.0` rather than
    /// producing a NaN or a negative weight:
    ///
    /// - **Empty sample** (`non_answerers` empty): there is no term to
    ///   weight, so the thread contributes only its answer terms to
    ///   the likelihood. The survival sum is silently dropped — the
    ///   estimator is biased for such threads, which is why
    ///   [`TimingPredictor::train`] debug-asserts population
    ///   consistency instead of asserting non-emptiness here.
    /// - **Saturated population** (`population < 1 + answers.len()`):
    ///   the declared population is too small to contain the asker
    ///   plus every answerer, so the "remaining users" count
    ///   saturates at zero. This indicates an inconsistent
    ///   observation; the weight collapses to `0.0` and any sampled
    ///   non-answerers contribute nothing.
    pub fn survival_weight(&self) -> f64 {
        if self.non_answerers.is_empty() {
            return 0.0;
        }
        let remaining = self.population.saturating_sub(1 + self.answers.len()) as f64;
        remaining / self.non_answerers.len() as f64
    }
}

/// Training configuration for [`TimingPredictor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Hidden widths of the excitation network `f` (paper: 100, 50).
    pub hidden: Vec<usize>,
    /// Hidden nonlinearity (paper: tanh).
    pub activation: Activation,
    /// Output nonlinearity of `f`. The paper uses ReLU; the default
    /// here is the smooth positive surrogate `Softplus`, which avoids
    /// dead zero-rate outputs inside `ln μ`.
    pub output_activation: Activation,
    /// Decay-rate model.
    pub decay: DecayMode,
    /// Prediction formula.
    pub prediction: PredictionMode,
    /// Training epochs (each epoch visits every thread once).
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Calibrate point predictions after likelihood training by
    /// isotonic regression (PAVA) from raw model expectations to
    /// observed delays on the training answers. The likelihood is a
    /// density objective, not a squared-error one; the monotone
    /// recalibration converts the model's (good) *ranking* of pairs
    /// into (good) *point estimates* without touching the fitted
    /// rate functions.
    pub calibrate: bool,
    /// Cap on the importance weight of each sampled non-answerer's
    /// survival term. The unbiased weight is
    /// `(|U| − 1 − #answers) / #samples`, which reaches the thousands
    /// when few non-answerers are sampled and makes single samples
    /// dominate a thread's gradient; clamping trades a little bias in
    /// the μ scale (which the conditional prediction does not use)
    /// for much lower gradient variance.
    pub max_survival_weight: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TimingConfig {
    /// The paper's architecture with a learned decay network, which
    /// lets the conditional prediction vary per pair.
    fn default() -> Self {
        TimingConfig {
            hidden: vec![100, 50],
            activation: Activation::Tanh,
            output_activation: Activation::Softplus,
            decay: DecayMode::Learned {
                hidden: vec![64, 32],
            },
            prediction: PredictionMode::FirstEvent,
            epochs: 200,
            learning_rate: 0.01,
            calibrate: true,
            max_survival_weight: 25.0,
            seed: 0x717E,
        }
    }
}

impl TimingConfig {
    /// Faster settings for tests.
    pub fn fast() -> Self {
        TimingConfig {
            hidden: vec![32, 16],
            epochs: 40,
            ..TimingConfig::default()
        }
    }

    /// The paper's constant-decay variant (`ω = c` for all pairs,
    /// paper expectation formula).
    pub fn constant_decay(c: f64) -> Self {
        TimingConfig {
            decay: DecayMode::Constant(c),
            prediction: PredictionMode::PaperExpectation,
            ..TimingConfig::default()
        }
    }
}

/// The fitted point-process response-time model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingPredictor {
    excitation: Mlp,
    decay_net: Option<Mlp>,
    constant_decay: f64,
    prediction: PredictionMode,
    max_survival_weight: f64,
    calibration: Option<IsotonicMap>,
}

impl TimingPredictor {
    /// Trains the model on thread observations.
    ///
    /// With a learned decay network and two training workers free
    /// ([`forumcast_ml::train_threads`] ≥ 2, called outside a
    /// `forumcast-par` worker), the μ and ω networks train on two
    /// threads in lockstep. The model is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics when `threads` contains no answers at all, or when
    /// feature dimensions are inconsistent.
    pub fn train(threads: &[ThreadObservation], config: &TimingConfig) -> Self {
        Self::train_with_workers(threads, config, training_workers())
    }

    /// [`train`](Self::train) on an explicit number of training
    /// workers: two or more run the μ and ω networks side by side,
    /// one runs both on the caller.
    pub(crate) fn train_with_workers(
        threads: &[ThreadObservation],
        config: &TimingConfig,
        workers: usize,
    ) -> Self {
        let _span = forumcast_obs::span("ml.timing.train");
        let dim = threads
            .iter()
            .flat_map(|t| t.answers.first().map(|(x, _)| x.len()))
            .next()
            .expect("at least one answered thread required");
        // A population smaller than the asker plus the answerers means
        // the observation is internally inconsistent; survival_weight
        // would silently saturate to 0.0 and drop the thread's entire
        // survival sum from the likelihood. Catch it loudly in debug
        // builds. (Empty `non_answerers` with a consistent population
        // is allowed — it just omits the sampled survival terms.)
        for (i, t) in threads.iter().enumerate() {
            debug_assert!(
                t.population > t.answers.len(),
                "thread {i}: population {} cannot hold the asker plus {} answerers; \
                 its survival weight saturates to 0.0",
                t.population,
                t.answers.len(),
            );
        }
        let mut rng = StdRng::seed_from_u64(config.seed);

        let mut f_specs = Vec::new();
        let mut prev = dim;
        for &h in &config.hidden {
            f_specs.push(LayerSpec::new(prev, h, config.activation));
            prev = h;
        }
        f_specs.push(LayerSpec::new(prev, 1, config.output_activation));
        let excitation = Mlp::new(&f_specs, &mut rng);

        let (decay_net, constant_decay) = match &config.decay {
            DecayMode::Constant(c) => {
                assert!(*c > 0.0, "constant decay must be positive");
                (None, *c)
            }
            DecayMode::Learned { hidden } => {
                let mut g_specs = Vec::new();
                let mut prev = dim;
                for &h in hidden {
                    g_specs.push(LayerSpec::new(prev, h, config.activation));
                    prev = h;
                }
                g_specs.push(LayerSpec::new(prev, 1, Activation::Softplus));
                (Some(Mlp::new(&g_specs, &mut rng)), 0.0)
            }
        };

        let epochs = EpochLoop {
            threads,
            epochs: config.epochs,
            constant_decay,
            max_survival_weight: config.max_survival_weight,
        };
        let mut f = NetHalf::new(Net::Excitation, excitation, config.learning_rate);
        let g = decay_net.map(|g| NetHalf::new(Net::Decay, g, config.learning_rate));
        let g = epochs.run(&mut f, g, &mut rng, workers);

        let mut model = TimingPredictor {
            excitation: f.net,
            decay_net: g.map(|g| g.net),
            constant_decay,
            prediction: config.prediction,
            max_survival_weight: config.max_survival_weight,
            calibration: None,
        };
        if config.calibrate {
            let _span = forumcast_obs::span("ml.timing.calibrate");
            let mut raw = Vec::new();
            let mut observed = Vec::new();
            for t in threads {
                for (x, r) in &t.answers {
                    raw.push(model.predict(x, t.window));
                    observed.push(*r);
                }
            }
            model.calibration = IsotonicMap::fit(&raw, &observed);
        }
        model
    }

    /// The fitted rate parameters `(μ, ω)` for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics when `x` has the wrong dimension.
    pub fn rate(&self, x: &[f64]) -> (f64, f64) {
        let mu = self.excitation.forward(x)[0].max(MU_FLOOR);
        let omega = match &self.decay_net {
            Some(g) => g.forward(x)[0].max(OMEGA_FLOOR),
            None => self.constant_decay,
        };
        (mu, omega)
    }

    /// Predicted response time `r̂_{u,q}` (hours) for a pair whose
    /// question has an observation window of `window` hours,
    /// according to the configured [`PredictionMode`].
    pub fn predict(&self, x: &[f64], window: f64) -> f64 {
        let raw = self.predict_raw(x, window);
        match &self.calibration {
            Some(map) => map.apply(raw),
            None => raw,
        }
    }

    /// The uncalibrated model expectation under the configured
    /// [`PredictionMode`].
    pub fn predict_raw(&self, x: &[f64], window: f64) -> f64 {
        let (mu, omega) = self.rate(x);
        match self.prediction {
            PredictionMode::PaperExpectation => paper_expectation(mu, omega, window),
            PredictionMode::Conditional => conditional_expectation(omega, window),
            PredictionMode::FirstEvent => first_event_expectation(mu, omega, window),
        }
    }

    /// Total log-likelihood `Σ_q L_q` of a set of observations under
    /// the fitted model.
    pub fn log_likelihood(&self, threads: &[ThreadObservation]) -> f64 {
        let mut ll = 0.0;
        for t in threads {
            let w = t.survival_weight().min(self.max_survival_weight);
            for (x, r) in &t.answers {
                let (mu, omega) = self.rate(x);
                ll += mu.ln() - omega * r;
                ll -= survival(mu, omega, t.window);
            }
            for x in &t.non_answerers {
                let (mu, omega) = self.rate(x);
                ll -= w * survival(mu, omega, t.window);
            }
        }
        ll
    }
}

/// A monotone non-decreasing map fitted by the pool-adjacent-violators
/// algorithm (isotonic regression), evaluated with linear
/// interpolation between knots and clamping outside them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct IsotonicMap {
    /// Knot inputs (strictly increasing).
    xs: Vec<f64>,
    /// Knot outputs (non-decreasing).
    ys: Vec<f64>,
}

impl IsotonicMap {
    /// Fits isotonic regression of `targets` on `scores`. Returns
    /// `None` when fewer than 2 distinct scores exist (no map to fit).
    fn fit(scores: &[f64], targets: &[f64]) -> Option<IsotonicMap> {
        debug_assert_eq!(scores.len(), targets.len());
        if scores.len() < 2 {
            return None;
        }
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        // PAVA over blocks: (mean, weight, min_x, max_x).
        let mut blocks: Vec<(f64, f64, f64)> = Vec::with_capacity(scores.len());
        for &i in &order {
            blocks.push((targets[i], 1.0, scores[i]));
            while blocks.len() >= 2 {
                let n = blocks.len();
                if blocks[n - 2].0 <= blocks[n - 1].0 {
                    break;
                }
                let (m2, w2, _) = blocks.pop().expect("non-empty");
                let (m1, w1, x1) = blocks.pop().expect("non-empty");
                blocks.push(((m1 * w1 + m2 * w2) / (w1 + w2), w1 + w2, x1));
            }
        }
        // One knot per block at the block's first score; blocks that
        // share a score (tied inputs) are merged by weighted mean.
        let mut xs: Vec<f64> = Vec::with_capacity(blocks.len());
        let mut ys = Vec::with_capacity(blocks.len());
        let mut ws = Vec::with_capacity(blocks.len());
        for (m, w, x) in blocks {
            if xs.last().is_some_and(|&last| x <= last) {
                let i = xs.len() - 1;
                let total = ws[i] + w;
                ys[i] = (ys[i] * ws[i] + m * w) / total;
                ws[i] = total;
            } else {
                xs.push(x);
                ys.push(m);
                ws.push(w);
            }
        }
        if xs.is_empty() {
            return None;
        }
        // A single knot means the score was useless (fully pooled,
        // e.g. anti-correlated): the map degrades gracefully to the
        // training-mean predictor.
        Some(IsotonicMap { xs, ys })
    }

    /// Evaluates the map with interpolation and boundary clamping. A
    /// NaN input (e.g. a raw expectation over a non-finite window)
    /// maps to NaN.
    fn apply(&self, x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= *self.xs.last().expect("non-empty") {
            return *self.ys.last().expect("non-empty");
        }
        let i = self.xs.partition_point(|&k| k <= x);
        let (x0, x1) = (self.xs[i - 1], self.xs[i]);
        let (y0, y1) = (self.ys[i - 1], self.ys[i]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }
}

/// `Λ(Δ)`-style survival term `μ (1 − e^{−ωΔ}) / ω`.
fn survival(mu: f64, omega: f64, window: f64) -> f64 {
    mu * (1.0 - (-omega * window).exp()) / omega
}

/// The paper's expectation `μ/ω² (1 − e^{−ωΔ}(1 + ωΔ))`.
fn paper_expectation(mu: f64, omega: f64, window: f64) -> f64 {
    let x = omega * window;
    mu / (omega * omega) * (1.0 - (-x).exp() * (1.0 + x))
}

/// `E[t − t₀ | event within Δ] = (1/ω)·(1 − e^{−x}(1+x))/(1 − e^{−x})`
/// with `x = ωΔ`; series fallback `Δ/2 · (1 − x/6)` for tiny `x`.
fn conditional_expectation(omega: f64, window: f64) -> f64 {
    let x = omega * window;
    if x < 1e-4 {
        // Below this the exact form loses ~half its digits to
        // cancellation; the series is accurate to O(x²).
        return window / 2.0 * (1.0 - x / 6.0);
    }
    let ex = (-x).exp();
    (1.0 - ex * (1.0 + x)) / (omega * (1.0 - ex))
}

/// Exact conditional first-event time
/// `∫₀^Δ t λ(t) e^{−Λ(t)} dt / (1 − e^{−Λ(Δ)})` by composite Simpson
/// integration (129 nodes — the integrand is smooth).
fn first_event_expectation(mu: f64, omega: f64, window: f64) -> f64 {
    // `Λ(t)` from its decay factor `e^{−ωt}`, which the integrand
    // also needs: one `exp` per node serves both.
    let h_of = |decay: f64| mu * (1.0 - decay) / omega;
    let mass = 1.0 - (-h_of((-omega * window).exp())).exp();
    if mass < 1e-12 {
        // Vanishing in-window probability: hazard is flat, fall back
        // to the rare-event conditional.
        return conditional_expectation(omega, window);
    }
    let n = 128; // even
    let step = window / n as f64;
    let integrand = |t: f64| {
        let decay = (-omega * t).exp();
        t * mu * decay * (-h_of(decay)).exp()
    };
    let mut sum = integrand(0.0) + integrand(window);
    for i in 1..n {
        let t = i as f64 * step;
        sum += integrand(t) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    (sum * step / 3.0) / mass
}

/// Training workers free for one [`TimingPredictor::train`] call: the
/// global training-thread count, or 1 inside a `forumcast-par` worker,
/// whose parallel section (e.g. cross-validation folds) already fills
/// the cores.
pub(crate) fn training_workers() -> usize {
    if forumcast_par::in_worker() {
        1
    } else {
        forumcast_ml::train_threads()
    }
}

/// `∂(−L_q)/∂μ_raw` of one likelihood row: the upstream gradient of
/// f's output. `event` is the row's response time for an answer and
/// `None` for a sampled non-answerer, whose survival term carries
/// `weight`.
fn mu_upstream(mu_raw: f64, omega: f64, window: f64, event: Option<f64>, weight: f64) -> f64 {
    let mu = mu_raw.max(MU_FLOOR);
    let exd = (-omega * window).exp();
    // Survival term S = μ(1 − e^{−ωΔ})/ω appears for every user.
    let ds_dmu = (1.0 - exd) / omega;
    // Gradient of L (to be maximized).
    let mut dl_dmu = -weight * ds_dmu;
    if event.is_some() {
        dl_dmu += 1.0 / mu;
    }
    // Clamped region passes no gradient.
    if mu_raw < MU_FLOOR {
        dl_dmu = 0.0;
    }
    // Minimize −L → upstream gradient is −dL.
    -dl_dmu
}

/// `∂(−L_q)/∂ω` of one likelihood row: the upstream gradient of g's
/// output, for a row whose raw ω is at or above [`OMEGA_FLOOR`].
fn omega_upstream(mu_raw: f64, omega: f64, window: f64, event: Option<f64>, weight: f64) -> f64 {
    let mu = mu_raw.max(MU_FLOOR);
    let exd = (-omega * window).exp();
    let ds_domega = mu * (window * exd / omega - (1.0 - exd) / (omega * omega));
    let mut dl_domega = -weight * ds_domega;
    if let Some(r) = event {
        dl_domega -= r;
    }
    -dl_domega
}

/// Which network a [`NetHalf`] trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Net {
    /// f, the excitation μ.
    Excitation,
    /// g, the learned decay ω.
    Decay,
}

/// One network's training state: the net, its optimizer, its gradient
/// buffer, and one scratch per row of a thread, since the backward
/// half needs every row's forward pass. μ and ω share no
/// floating-point state inside a thread step, so each half runs the
/// same operations in the same order whichever thread runs it.
struct NetHalf {
    kind: Net,
    net: Mlp,
    opt: Adam,
    grads: Vec<f64>,
    scratches: Vec<MlpScratch>,
}

impl NetHalf {
    fn new(kind: Net, net: Mlp, learning_rate: f64) -> Self {
        NetHalf {
            kind,
            grads: vec![0.0; net.num_params()],
            opt: Adam::new(learning_rate),
            net,
            scratches: Vec::new(),
        }
    }

    /// Forward half of a thread step: the net's raw output for every
    /// row into `raw`, answers first, then non-answerers.
    fn forward(&mut self, t: &ThreadObservation, raw: &mut Vec<f64>) {
        let rows = t.answers.len() + t.non_answerers.len();
        if self.scratches.len() < rows {
            self.scratches.resize_with(rows, MlpScratch::new);
        }
        raw.clear();
        let xs = t.answers.iter().map(|(x, _)| x).chain(&t.non_answerers);
        for (x, scratch) in xs.zip(&mut self.scratches) {
            raw.push(self.net.forward_scratch(x, scratch)[0]);
        }
    }

    /// Backward half of a thread step: backpropagates each row's share
    /// of `∂(−L_q)` in row order, then takes one Adam step. `mu_raw`
    /// and `omega_raw` are both nets' forward outputs for the thread;
    /// `omega_raw` is `None` under a constant decay.
    fn backward_step(
        &mut self,
        epochs: &EpochLoop,
        t: &ThreadObservation,
        mu_raw: &[f64],
        omega_raw: Option<&[f64]>,
    ) {
        self.grads.fill(0.0);
        let w_non = t.survival_weight().min(epochs.max_survival_weight);
        let rows = t.answers.iter().map(|&(_, r)| (Some(r), 1.0));
        let rows = rows.chain(t.non_answerers.iter().map(|_| (None, w_non)));
        for (i, (event, weight)) in rows.enumerate() {
            let omega = omega_raw.map_or(epochs.constant_decay, |raw| raw[i].max(OMEGA_FLOOR));
            let upstream = match self.kind {
                Net::Excitation => Some(mu_upstream(mu_raw[i], omega, t.window, event, weight)),
                // The clamped region passes no gradient; a NaN raw ω
                // fails the test and passes none either.
                Net::Decay => omega_raw
                    .filter(|raw| raw[i] >= OMEGA_FLOOR)
                    .map(|_| omega_upstream(mu_raw[i], omega, t.window, event, weight)),
            };
            if let Some(upstream) = upstream {
                self.net
                    .backward_scratch(&mut self.scratches[i], &[upstream], &mut self.grads);
            }
        }
        self.opt.step(self.net.params_mut(), &self.grads);
    }
}

/// The epoch loop of [`TimingPredictor::train`]: one Adam step per
/// answered thread, in an order reshuffled every epoch.
struct EpochLoop<'a> {
    threads: &'a [ThreadObservation],
    epochs: usize,
    constant_decay: f64,
    max_survival_weight: f64,
}

impl EpochLoop<'_> {
    /// Calls `step` on every answered thread, each epoch in a fresh
    /// shuffle drawn from `rng`. Stops early when `step` returns false.
    fn walk(&self, rng: &mut StdRng, mut step: impl FnMut(&ThreadObservation) -> bool) {
        let mut order: Vec<usize> = (0..self.threads.len()).collect();
        for _ in 0..self.epochs {
            order.shuffle(rng);
            for &ti in &order {
                let t = &self.threads[ti];
                if !t.answers.is_empty() && !step(t) {
                    return;
                }
            }
        }
    }

    /// Trains f, and g when the decay is learned, returning g: in
    /// lockstep when g exists and `workers >= 2`, else serially.
    fn run(
        &self,
        f: &mut NetHalf,
        g: Option<NetHalf>,
        rng: &mut StdRng,
        workers: usize,
    ) -> Option<NetHalf> {
        match g {
            Some(g) if workers >= 2 => Some(self.run_lockstep(f, g, rng)),
            mut g => {
                self.run_serial(f, g.as_mut(), rng);
                g
            }
        }
    }

    /// Both halves of every step on the caller, one after the other.
    fn run_serial(&self, f: &mut NetHalf, mut g: Option<&mut NetHalf>, rng: &mut StdRng) {
        let (mut mu_raw, mut omega_raw) = (Vec::new(), Vec::new());
        self.walk(rng, |t| {
            f.forward(t, &mut mu_raw);
            if let Some(g) = g.as_deref_mut() {
                g.forward(t, &mut omega_raw);
            }
            let omega = g.is_some().then_some(omega_raw.as_slice());
            f.backward_step(self, t, &mu_raw, omega);
            if let Some(g) = g.as_deref_mut() {
                g.backward_step(self, t, &mu_raw, omega);
            }
            true
        });
    }

    /// f's halves on the caller and g's on a [`forumcast_par::join`]
    /// helper (which inherits the caller's collector and fault plan),
    /// in lockstep. Both walk identical clones of `rng`, so they visit
    /// the same threads in the same order. Returns the trained g.
    /// A panic on either side aborts the other and reaches the caller.
    fn run_lockstep(&self, f: &mut NetHalf, mut g: NetHalf, rng: &mut StdRng) -> NetHalf {
        let rows = self
            .threads
            .iter()
            .map(|t| t.answers.len() + t.non_answerers.len())
            .max()
            .unwrap_or(0);
        let (lane_f, lane_g) = (Lane::new(rows), Lane::new(rows));
        let abort = AtomicBool::new(false);
        let mut helper_rng = rng.clone();
        // The caller's lane stops early only when the helper panicked,
        // and `join` resumes that panic here.
        let (g, ()) = forumcast_par::join(
            || {
                self.run_lane(&mut g, &mut helper_rng, &lane_g, &lane_f, &abort);
                g
            },
            || self.run_lane(f, rng, &lane_f, &lane_g, &abort),
        );
        g
    }

    /// One net's side of the lockstep schedule. Per step it publishes
    /// its raw outputs into `mine`, waits once for the partner's step
    /// counter, reads the partner's outputs and runs its backward
    /// half. Stops early when the partner aborted.
    fn run_lane(
        &self,
        me: &mut NetHalf,
        rng: &mut StdRng,
        mine: &Lane,
        theirs: &Lane,
        abort: &AtomicBool,
    ) {
        let _abort_on_panic = AbortOnPanic(abort);
        let (mut own, mut partner) = (Vec::new(), Vec::new());
        let mut steps = 0;
        self.walk(rng, |t| {
            me.forward(t, &mut own);
            // Step `steps` uses buffer `steps % 2`. Writing it again at
            // step `steps + 2` waits for the partner to publish step
            // `steps + 1`, which it does only after reading this one.
            let parity = steps % 2;
            mine.publish(parity, &own);
            steps += 1;
            mine.step.0.store(steps, Ordering::Release);
            if !theirs.wait_for(steps, abort) {
                return false;
            }
            theirs.read(parity, own.len(), &mut partner);
            let (mu_raw, omega_raw) = match me.kind {
                Net::Excitation => (&own, &partner),
                Net::Decay => (&partner, &own),
            };
            me.backward_step(self, t, mu_raw, Some(omega_raw));
            true
        });
    }
}

/// Spin iterations before a lockstep wait starts yielding its core.
/// A thread step takes tens of µs, so the partner usually arrives
/// within the spin; yielding keeps an oversubscribed box moving.
const SPINS_BEFORE_YIELD: u32 = 1 << 12;

/// A step counter alone on its cache line, so publishing it does not
/// invalidate the line the partner polls for its own counter.
#[repr(align(128))]
struct PaddedCounter(AtomicUsize);

/// One lockstep worker's outbox: how many steps it has published, and
/// its raw outputs double-buffered by step parity (f64 bits).
struct Lane {
    step: PaddedCounter,
    raw: [Vec<AtomicU64>; 2],
}

impl Lane {
    fn new(rows: usize) -> Self {
        let buffer = || (0..rows).map(|_| AtomicU64::new(0)).collect();
        Lane {
            step: PaddedCounter(AtomicUsize::new(0)),
            raw: [buffer(), buffer()],
        }
    }

    fn publish(&self, parity: usize, raw: &[f64]) {
        for (slot, v) in self.raw[parity].iter().zip(raw) {
            slot.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    fn read(&self, parity: usize, rows: usize, out: &mut Vec<f64>) {
        out.clear();
        let slots = self.raw[parity][..rows].iter();
        out.extend(slots.map(|slot| f64::from_bits(slot.load(Ordering::Relaxed))));
    }

    /// Waits until this lane has published `steps` steps. Returns
    /// false when `abort` is raised first.
    fn wait_for(&self, steps: usize, abort: &AtomicBool) -> bool {
        let mut spins = 0;
        while self.step.0.load(Ordering::Acquire) < steps {
            if abort.load(Ordering::Relaxed) {
                return false;
            }
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        true
    }
}

/// Raises the lockstep abort flag when its worker unwinds, so the
/// partner's wait returns instead of spinning forever.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two user archetypes: "fast" users (feature +1) answer quickly,
    /// "slow" users (feature −1) answer late; non-answerers have
    /// feature −1 mostly.
    fn synthetic_threads(n: usize) -> Vec<ThreadObservation> {
        (0..n)
            .map(|i| {
                let fast = i % 2 == 0;
                let delay = if fast {
                    1.0 + (i % 3) as f64 * 0.3
                } else {
                    20.0 + (i % 5) as f64
                };
                ThreadObservation {
                    answers: vec![(vec![if fast { 1.0 } else { -1.0 }, 0.2], delay)],
                    non_answerers: vec![vec![-1.0, -0.5], vec![-0.8, 0.1]],
                    window: 100.0,
                    population: 50,
                }
            })
            .collect()
    }

    #[test]
    fn training_improves_log_likelihood() {
        let threads = synthetic_threads(60);
        let untrained = TimingPredictor::train(
            &threads,
            &TimingConfig {
                epochs: 0,
                ..TimingConfig::fast()
            },
        );
        let trained = TimingPredictor::train(&threads, &TimingConfig::fast());
        assert!(
            trained.log_likelihood(&threads) > untrained.log_likelihood(&threads),
            "likelihood should improve with training"
        );
    }

    #[test]
    fn fast_users_get_lower_predictions() {
        let threads = synthetic_threads(80);
        let model = TimingPredictor::train(&threads, &TimingConfig::fast());
        let fast = model.predict(&[1.0, 0.2], 100.0);
        let slow = model.predict(&[-1.0, 0.2], 100.0);
        assert!(fast < slow, "fast archetype {fast} should beat slow {slow}");
    }

    #[test]
    fn answerers_have_higher_excitation_than_non_answerers() {
        let threads = synthetic_threads(80);
        let model = TimingPredictor::train(&threads, &TimingConfig::fast());
        let (mu_ans, _) = model.rate(&[1.0, 0.2]);
        let (mu_non, _) = model.rate(&[-1.0, -0.5]);
        assert!(mu_ans > mu_non, "μ answerer {mu_ans} vs non {mu_non}");
    }

    #[test]
    fn constant_decay_mode_uses_fixed_omega() {
        let threads = synthetic_threads(20);
        let cfg = TimingConfig {
            epochs: 5,
            ..TimingConfig::constant_decay(0.25)
        };
        let model = TimingPredictor::train(&threads, &cfg);
        let (_, omega) = model.rate(&[1.0, 0.2]);
        assert_eq!(omega, 0.25);
        let (_, omega2) = model.rate(&[-1.0, -0.5]);
        assert_eq!(omega2, 0.25);
    }

    #[test]
    fn paper_expectation_formula_matches_closed_form() {
        // μ = 2, ω = 0.5, Δ = 10: r̂ = 2/0.25 · (1 − e^{−5}·6).
        let expected = 8.0 * (1.0 - (-5.0f64).exp() * 6.0);
        assert!((paper_expectation(2.0, 0.5, 10.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn conditional_expectation_is_within_window() {
        for &(omega, window) in &[(0.01, 100.0), (0.5, 10.0), (5.0, 2.0), (1e-9, 50.0)] {
            let e = conditional_expectation(omega, window);
            assert!(e > 0.0 && e < window, "ω={omega} Δ={window} → {e}");
        }
    }

    #[test]
    fn conditional_expectation_series_matches_exact_at_boundary() {
        // Just above and below the series cutoff should agree to a
        // relative tolerance dominated by the exact form's
        // cancellation error.
        let a = conditional_expectation(1.0001e-4 / 50.0, 50.0);
        let b = conditional_expectation(0.9999e-4 / 50.0, 50.0);
        assert!((a - b).abs() / a.abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn conditional_decreases_with_faster_decay() {
        assert!(
            conditional_expectation(1.0, 24.0) < conditional_expectation(0.01, 24.0),
            "higher ω concentrates mass earlier"
        );
    }

    #[test]
    fn survival_weight_scales_to_population() {
        let t = ThreadObservation {
            answers: vec![(vec![0.0], 1.0)],
            non_answerers: vec![vec![0.0]; 4],
            window: 10.0,
            population: 100,
        };
        // (100 − 1 − 1) / 4 = 24.5.
        assert!((t.survival_weight() - 24.5).abs() < 1e-12);
        let empty = ThreadObservation {
            non_answerers: vec![],
            ..t
        };
        assert_eq!(empty.survival_weight(), 0.0);
    }

    #[test]
    fn survival_weight_empty_sample_is_zero_not_nan() {
        // No sampled non-answerers: the weight must be exactly 0.0
        // (not 98/0 = inf or 0/0 = NaN) so the likelihood simply
        // omits the sampled survival terms.
        let t = ThreadObservation {
            answers: vec![(vec![0.0], 1.0)],
            non_answerers: vec![],
            window: 10.0,
            population: 100,
        };
        let w = t.survival_weight();
        assert_eq!(w, 0.0);
        assert!(!w.is_nan());
    }

    #[test]
    fn survival_weight_saturates_for_undersized_population() {
        // population < 1 + answers.len(): "remaining users" saturates
        // at zero instead of wrapping, so the weight is 0.0 rather
        // than a huge positive value from an underflowed subtraction.
        let t = ThreadObservation {
            answers: vec![(vec![0.0], 1.0), (vec![0.1], 2.0), (vec![0.2], 3.0)],
            non_answerers: vec![vec![0.0]; 2],
            window: 10.0,
            population: 2,
        };
        assert_eq!(t.survival_weight(), 0.0);
        // The boundary case population == 1 + answers.len() is
        // consistent (nobody remains) and also yields 0.0.
        let boundary = ThreadObservation { population: 4, ..t };
        assert_eq!(boundary.survival_weight(), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cannot hold the asker")]
    fn training_rejects_inconsistent_population_in_debug() {
        // population 1 cannot hold the asker plus one answerer; the
        // consistency debug-assert in train() should fire.
        TimingPredictor::train(
            &[ThreadObservation {
                answers: vec![(vec![0.0, 0.0], 1.0)],
                non_answerers: vec![vec![0.1, 0.1]],
                window: 10.0,
                population: 1,
            }],
            &TimingConfig {
                epochs: 1,
                ..TimingConfig::fast()
            },
        );
    }

    #[test]
    fn training_accepts_empty_non_answerer_samples() {
        // A consistent population with no sampled non-answerers is
        // legal (e.g. serialized fixtures): the survival sum is
        // omitted and training proceeds on the answer terms alone.
        let threads: Vec<ThreadObservation> = synthetic_threads(20)
            .into_iter()
            .map(|t| ThreadObservation {
                non_answerers: vec![],
                ..t
            })
            .collect();
        let cfg = TimingConfig {
            epochs: 3,
            ..TimingConfig::fast()
        };
        let model = TimingPredictor::train(&threads, &cfg);
        let p = model.predict(&[1.0, 0.2], 100.0);
        assert!(p.is_finite() && p > 0.0, "prediction {p}");
    }

    /// Finite-difference check of the thread-gradient accumulation.
    #[test]
    fn thread_gradients_match_finite_differences() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let mut f = Mlp::new(
            &[
                LayerSpec::new(2, 6, Activation::Tanh),
                LayerSpec::new(6, 1, Activation::Softplus),
            ],
            &mut rng,
        );
        let g = Mlp::new(
            &[
                LayerSpec::new(2, 4, Activation::Tanh),
                LayerSpec::new(4, 1, Activation::Softplus),
            ],
            &mut rng,
        );
        let t = ThreadObservation {
            answers: vec![(vec![0.4, -0.2], 3.0), (vec![-0.6, 0.9], 7.0)],
            non_answerers: vec![vec![0.1, 0.1]],
            window: 30.0,
            population: 20,
        };
        let neg_ll = |f: &Mlp, g: &Mlp| -> f64 {
            let model = TimingPredictor {
                excitation: f.clone(),
                decay_net: Some(g.clone()),
                constant_decay: 0.0,
                prediction: PredictionMode::Conditional,
                max_survival_weight: f64::INFINITY,
                calibration: None,
            };
            -model.log_likelihood(std::slice::from_ref(&t))
        };
        // One thread step through the per-net halves; each half's
        // gradient buffer keeps the step's gradient after its Adam step.
        let epochs = EpochLoop {
            threads: std::slice::from_ref(&t),
            epochs: 1,
            constant_decay: 0.0,
            max_survival_weight: f64::INFINITY,
        };
        let mut half_f = NetHalf::new(Net::Excitation, f.clone(), 0.01);
        let mut half_g = NetHalf::new(Net::Decay, g.clone(), 0.01);
        let (mut mu_raw, mut omega_raw) = (Vec::new(), Vec::new());
        half_f.forward(&t, &mut mu_raw);
        half_g.forward(&t, &mut omega_raw);
        half_f.backward_step(&epochs, &t, &mu_raw, Some(&omega_raw));
        half_g.backward_step(&epochs, &t, &mu_raw, Some(&omega_raw));
        let (grads_f, grads_g) = (half_f.grads, half_g.grads);
        let eps = 1e-6;
        for i in (0..f.num_params()).step_by(7) {
            let orig = f.params()[i];
            f.params_mut()[i] = orig + eps;
            let up = neg_ll(&f, &g);
            f.params_mut()[i] = orig - eps;
            let down = neg_ll(&f, &g);
            f.params_mut()[i] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - grads_f[i]).abs() < 1e-4 * (1.0 + numeric.abs()),
                "f param {i}: numeric {numeric} vs analytic {}",
                grads_f[i]
            );
        }
        let mut g = g;
        for i in (0..g.num_params()).step_by(5) {
            let orig = g.params()[i];
            g.params_mut()[i] = orig + eps;
            let up = neg_ll(&f, &g);
            g.params_mut()[i] = orig - eps;
            let down = neg_ll(&f, &g);
            g.params_mut()[i] = orig;
            let numeric = (up - down) / (2.0 * eps);
            // Recompute analytic grads for the restored g.
            assert!(
                (numeric - grads_g[i]).abs() < 1e-4 * (1.0 + numeric.abs()),
                "g param {i}: numeric {numeric} vs analytic {}",
                grads_g[i]
            );
        }
    }

    /// Trains `threads` serially and on two workers and asserts the
    /// models serialize identically.
    fn assert_schedules_agree(threads: &[ThreadObservation], cfg: &TimingConfig) {
        let serial = TimingPredictor::train_with_workers(threads, cfg, 1);
        let lockstep = TimingPredictor::train_with_workers(threads, cfg, 2);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&lockstep).unwrap()
        );
    }

    fn short() -> TimingConfig {
        TimingConfig {
            epochs: 6,
            ..TimingConfig::fast()
        }
    }

    #[test]
    fn two_worker_schedule_is_bit_identical() {
        let threads = synthetic_threads(40);
        for calibrate in [false, true] {
            let cfg = TimingConfig {
                calibrate,
                ..short()
            };
            assert_schedules_agree(&threads, &cfg);
        }
        let cfg = TimingConfig {
            epochs: 0,
            ..short()
        };
        assert_schedules_agree(&threads, &cfg);
    }

    #[test]
    fn two_worker_schedule_matches_on_ragged_threads() {
        // Empty samples, unanswered threads and threads of differing
        // row counts in one training set.
        let threads: Vec<ThreadObservation> = synthetic_threads(30)
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                match i % 4 {
                    0 => t.non_answerers.clear(),
                    1 => t.answers.clear(),
                    2 => t.answers.push((vec![0.3, -0.7], 4.0)),
                    _ => t.non_answerers.push(vec![0.9, 0.9]),
                }
                t
            })
            .collect();
        assert_schedules_agree(&threads, &short());
        let unsampled: Vec<ThreadObservation> = synthetic_threads(20)
            .into_iter()
            .map(|t| ThreadObservation {
                non_answerers: vec![],
                ..t
            })
            .collect();
        assert_schedules_agree(&unsampled, &short());
    }

    /// A 2-input net with the given output bias.
    fn biased_net(hidden: usize, bias: f64, seed: u64) -> Mlp {
        let mut net = Mlp::new(
            &[
                LayerSpec::new(2, hidden, Activation::Tanh),
                LayerSpec::new(hidden, 1, Activation::Softplus),
            ],
            &mut StdRng::seed_from_u64(seed),
        );
        *net.params_mut().last_mut().expect("output bias") = bias;
        net
    }

    #[test]
    fn two_worker_schedule_matches_through_both_clamps() {
        // Output biases far below zero put softplus under MU_FLOOR and
        // OMEGA_FLOOR for some rows and not others.
        let threads: Vec<ThreadObservation> = (0..24)
            .map(|i| {
                let a = (i as f64 * 0.7).sin() * 3.0;
                ThreadObservation {
                    answers: vec![(vec![a, -a], 1.0 + i as f64)],
                    non_answerers: vec![vec![-a, 0.5 * a], vec![0.2 * a, a]],
                    window: 50.0,
                    population: 40,
                }
            })
            .collect();
        let (f, g) = (biased_net(6, -19.0, 1), biased_net(4, -9.2, 2));
        let rows: Vec<&Vec<f64>> = threads
            .iter()
            .flat_map(|t| t.answers.iter().map(|(x, _)| x).chain(&t.non_answerers))
            .collect();
        let clamps = |net: &Mlp, floor: f64| {
            let below = rows.iter().filter(|x| net.forward(x)[0] < floor).count();
            (below, rows.len() - below)
        };
        let (mu_low, mu_high) = clamps(&f, MU_FLOOR);
        let (omega_low, omega_high) = clamps(&g, OMEGA_FLOOR);
        assert!(mu_low > 0 && mu_high > 0, "μ rows {mu_low}/{mu_high}");
        assert!(
            omega_low > 0 && omega_high > 0,
            "ω rows {omega_low}/{omega_high}"
        );
        let epochs = EpochLoop {
            threads: &threads,
            epochs: 5,
            constant_decay: 0.0,
            max_survival_weight: 25.0,
        };
        let train = |workers: usize| {
            let mut half_f = NetHalf::new(Net::Excitation, f.clone(), 0.01);
            let half_g = NetHalf::new(Net::Decay, g.clone(), 0.01);
            let mut rng = StdRng::seed_from_u64(5);
            let half_g = epochs.run(&mut half_f, Some(half_g), &mut rng, workers);
            let json = |net: &Mlp| serde_json::to_string(net).unwrap();
            (json(&half_f.net), json(&half_g.expect("learned decay").net))
        };
        assert_eq!(train(1), train(2));
    }

    #[test]
    fn constant_decay_trains_serially_at_any_worker_count() {
        let cfg = TimingConfig {
            epochs: 4,
            ..TimingConfig::constant_decay(0.25)
        };
        assert_schedules_agree(&synthetic_threads(20), &cfg);
    }

    /// Runs `train` on its own thread and returns its panic message,
    /// failing the test if it neither panics nor returns in time.
    fn panic_message_within_timeout(train: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(train));
            let message = result.err().map(|panic| {
                panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            });
            tx.send(message).ok();
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("training hung")
            .expect("training did not panic")
    }

    #[test]
    fn wrong_width_row_panics_under_two_workers() {
        let mut threads = synthetic_threads(12);
        threads[5].non_answerers.push(vec![0.0; 3]);
        let message = panic_message_within_timeout(move || {
            TimingPredictor::train_with_workers(&threads, &short(), 2);
        });
        assert!(message.contains("input dimension mismatch"), "{message}");
    }

    #[test]
    fn a_panic_on_one_worker_aborts_its_partner() {
        // Only one net has the wrong input width, so only one side
        // panics; the other must leave its wait, and the panic must
        // reach the caller.
        for wrong in [Net::Excitation, Net::Decay] {
            let message = panic_message_within_timeout(move || {
                let threads = synthetic_threads(8);
                let net = |kind: Net, inputs: usize| {
                    let net = Mlp::new(
                        &[LayerSpec::new(inputs, 1, Activation::Softplus)],
                        &mut StdRng::seed_from_u64(1),
                    );
                    NetHalf::new(kind, net, 0.01)
                };
                let width = |kind: Net| if kind == wrong { 3 } else { 2 };
                let mut f = net(Net::Excitation, width(Net::Excitation));
                let g = net(Net::Decay, width(Net::Decay));
                let epochs = EpochLoop {
                    threads: &threads,
                    epochs: 2,
                    constant_decay: 0.0,
                    max_survival_weight: 25.0,
                };
                epochs.run(&mut f, Some(g), &mut StdRng::seed_from_u64(0), 2);
            });
            assert!(
                message.contains("input dimension mismatch"),
                "{wrong:?}: {message}"
            );
        }
    }

    #[test]
    fn lockstep_wait_returns_on_abort() {
        let lane = Lane::new(1);
        let abort = AtomicBool::new(true);
        assert!(!lane.wait_for(1, &abort));
        lane.step.0.store(1, Ordering::Release);
        assert!(lane.wait_for(1, &abort));
    }

    #[test]
    fn calibrated_prediction_survives_non_finite_windows() {
        let threads = synthetic_threads(40);
        let model = TimingPredictor::train(&threads, &short());
        let map = model.calibration.as_ref().expect("calibrated");
        assert!(map.apply(f64::NAN).is_nan());
        assert_eq!(map.apply(f64::INFINITY), *map.ys.last().unwrap());
        assert_eq!(map.apply(f64::NEG_INFINITY), map.ys[0]);
        let (lo, hi) = (map.ys[0], *map.ys.last().unwrap());
        for window in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let r = model.predict(&[1.0, 0.2], window);
            assert!(r.is_nan() || (lo..=hi).contains(&r), "window {window}: {r}");
        }
        assert!(model.predict(&[1.0, 0.2], f64::NAN).is_nan());
    }

    #[test]
    fn isotonic_fit_recovers_monotone_steps() {
        // Scores 1..6, targets with one violation (4 > 2).
        let scores = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let targets = [1.0, 1.0, 4.0, 2.0, 5.0, 6.0];
        let map = IsotonicMap::fit(&scores, &targets).expect("fits");
        // Violating pair pooled to mean 3.
        assert!((map.apply(3.0) - 3.0).abs() < 1e-12);
        assert!((map.apply(4.0) - 3.0).abs() < 1e-9 || map.apply(4.0) >= 3.0);
        // Monotone overall.
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=70 {
            let v = map.apply(i as f64 / 10.0);
            assert!(v >= prev - 1e-12, "not monotone at {i}");
            prev = v;
        }
        // Clamped outside the knots.
        assert_eq!(map.apply(-100.0), map.apply(0.9));
        assert_eq!(map.apply(100.0), map.apply(6.1));
    }

    #[test]
    fn isotonic_fit_degenerate_inputs() {
        assert!(IsotonicMap::fit(&[1.0], &[2.0]).is_none());
        // All-equal scores collapse to one knot → constant map at the
        // target mean.
        let m = IsotonicMap::fit(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]).expect("constant map");
        assert!((m.apply(0.0) - 2.0).abs() < 1e-12);
        assert!((m.apply(9.0) - 2.0).abs() < 1e-12);
        // Anti-correlated scores also pool to the mean.
        let m = IsotonicMap::fit(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]).expect("pooled");
        assert!((m.apply(2.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn first_event_matches_conditional_in_rare_limit() {
        // Tiny μ → Λ ≪ 1 → survival factor ≈ 1.
        let fe = first_event_expectation(1e-6, 0.1, 50.0);
        let cond = conditional_expectation(0.1, 50.0);
        assert!((fe - cond).abs() / cond < 1e-3, "{fe} vs {cond}");
    }

    /// Sharing `e^{−ωt}` between `Λ(t)` and the integrand changes no
    /// bit: the result equals the formula that evaluates it twice per
    /// Simpson node, over a grid spanning the rare-event fallback, the
    /// smooth middle and saturated windows.
    #[test]
    fn first_event_bits_match_the_two_exp_formula() {
        fn two_exp(mu: f64, omega: f64, window: f64) -> f64 {
            let h_of = |t: f64| mu * (1.0 - (-omega * t).exp()) / omega;
            let mass = 1.0 - (-h_of(window)).exp();
            if mass < 1e-12 {
                return conditional_expectation(omega, window);
            }
            let n = 128;
            let step = window / n as f64;
            let integrand = |t: f64| t * mu * (-omega * t).exp() * (-h_of(t)).exp();
            let mut sum = integrand(0.0) + integrand(window);
            for i in 1..n {
                let t = i as f64 * step;
                sum += integrand(t) * if i % 2 == 1 { 4.0 } else { 2.0 };
            }
            (sum * step / 3.0) / mass
        }
        for mu in [1e-14, 1e-6, 0.003, 0.1, 0.7, 2.5, 40.0] {
            for omega in [1e-4, 0.01, 0.05, 0.3, 1.0, 6.0] {
                for window in [0.5, 3.0, 24.0, 100.0, 1000.0] {
                    let got = first_event_expectation(mu, omega, window);
                    let want = two_exp(mu, omega, window);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "μ={mu} ω={omega} Δ={window}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn first_event_is_earlier_for_hot_threads() {
        // Large μ concentrates the first event early.
        let hot = first_event_expectation(5.0, 0.05, 100.0);
        let cold = first_event_expectation(0.01, 0.05, 100.0);
        assert!(hot < cold, "hot {hot} vs cold {cold}");
        assert!(hot > 0.0 && cold < 100.0);
    }

    #[test]
    fn calibrated_model_predictions_track_observed_scale() {
        let threads = synthetic_threads(80);
        let model = TimingPredictor::train(&threads, &TimingConfig::fast());
        // Calibration maps into the observed delay range.
        let fast = model.predict(&[1.0, 0.2], 100.0);
        let slow = model.predict(&[-1.0, 0.2], 100.0);
        let min_obs = 1.0;
        let max_obs = 25.0;
        assert!(
            fast >= min_obs - 1.0 && slow <= max_obs + 1.0,
            "{fast} {slow}"
        );
        assert!(fast < slow);
    }

    #[test]
    #[should_panic(expected = "at least one answered thread")]
    fn training_without_answers_panics() {
        TimingPredictor::train(
            &[ThreadObservation {
                answers: vec![],
                non_answerers: vec![vec![0.0]],
                window: 1.0,
                population: 5,
            }],
            &TimingConfig::fast(),
        );
    }

    #[test]
    fn serde_roundtrip() {
        let threads = synthetic_threads(10);
        let model = TimingPredictor::train(
            &threads,
            &TimingConfig {
                epochs: 3,
                ..TimingConfig::fast()
            },
        );
        let json = serde_json::to_string(&model).unwrap();
        let back: TimingPredictor = serde_json::from_str(&json).unwrap();
        let (a, b) = (
            back.predict(&[1.0, 0.2], 50.0),
            model.predict(&[1.0, 0.2], 50.0),
        );
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
