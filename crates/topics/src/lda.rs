//! Collapsed Gibbs sampling for Latent Dirichlet Allocation.
//!
//! Every token's topic is resampled from the full `K`-term collapsed
//! conditional
//!
//! ```text
//! p(z = k) ∝ (n_dk + α)(n_kw + β) / (n_k + Vβ)
//! ```
//!
//! with the token's own assignment excluded; fold-in inference holds
//! `φ` fixed and samples `p(z = k) ∝ (n_dk + α) φ_kw`. Below 24 topics
//! the sweep sums the conditional as it computes it and walks the sum
//! to draw the topic. From 24 topics up it draws from tree-summed
//! totals (blocks of 8 summed pairwise, running totals over the
//! blocks), with the sweep's conditionals multiplied by cached
//! reciprocals of `n_k + Vβ`. A draw too close to a total to be sure
//! recomputes the exact row and walks it, so the index is the walk's
//! from the same uniform draw (the proof is on `TreeDraw`). Training
//! and inference are deterministic given the seed.
//!
//! # Count layout
//!
//! The topic–word counts are stored word-major, `n_kw[w * K + t]`,
//! so the `K` counts a token's conditional reads sit in one
//! contiguous row (one or a few cache lines, not `K` strided ones).
//! The fitted `φ` keeps that layout (`V × K`), so each fold-in token
//! reads one contiguous row of it too; [`LdaModel::topic_words`]
//! gathers a topic's column. Doc–topic counts and `θ` are row-major
//! `D × K`.
//!
//! # Token stream
//!
//! The sweeps read a [`CorpusView`] in place: a [`Corpus`]'s ids as
//! they are, or a prefix of an interned document stream through its
//! pruned vocabulary's id map, skipping dropped ids. Either way the
//! kept tokens, their order and so every RNG draw are those of the
//! materialized corpus.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use forumcast_text::{BagOfWords, Corpus, CorpusView};

/// Hyperparameters for [`LdaModel::train`].
///
/// Defaults follow common practice (`α = 50/K`, `β = 0.01`) and the
/// paper's `K = 8`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of topics `K`, at most [`LdaConfig::MAX_TOPICS`].
    pub num_topics: usize,
    /// Symmetric Dirichlet prior on document–topic distributions.
    pub alpha: f64,
    /// Symmetric Dirichlet prior on topic–word distributions.
    pub beta: f64,
    /// Gibbs sweeps over the corpus during training.
    pub iterations: usize,
    /// Gibbs sweeps for fold-in inference of held-out documents.
    pub infer_iterations: usize,
    /// RNG seed (training is deterministic given the seed).
    pub seed: u64,
}

impl LdaConfig {
    /// The most topics a model can have: training stores each token's
    /// topic in a `u16`.
    pub const MAX_TOPICS: usize = 1 << 16;

    /// Creates a config with `K` topics and default priors.
    ///
    /// # Panics
    ///
    /// Panics when `num_topics` is 0 or above [`LdaConfig::MAX_TOPICS`].
    pub fn new(num_topics: usize) -> Self {
        assert!(num_topics > 0, "LDA requires at least one topic");
        assert_topic_limit(num_topics);
        // Gensim's default symmetric prior is 1/K; forum posts are
        // short documents, so a weak prior keeps θ concentrated.
        LdaConfig {
            num_topics,
            alpha: 1.0 / num_topics as f64,
            beta: 0.01,
            iterations: 200,
            infer_iterations: 30,
            seed: 0xF0CA,
        }
    }

    /// Sets the number of training sweeps.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Refuses a topic count whose ids do not fit the `u16` assignments.
fn assert_topic_limit(num_topics: usize) {
    assert!(
        num_topics <= LdaConfig::MAX_TOPICS,
        "LDA supports at most {} topics, got {num_topics}",
        LdaConfig::MAX_TOPICS
    );
}

impl Default for LdaConfig {
    /// The paper's default of `K = 8` topics.
    fn default() -> Self {
        LdaConfig::new(8)
    }
}

/// A trained LDA model: topic–word distributions `φ` plus the
/// document–topic distributions `θ` of the training corpus.
///
/// Both matrices are stored as contiguous row-major buffers (`φ` is
/// `V × K`, `θ` is `D × K`) so sweeps and lookups stay on a single
/// cache-friendly allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LdaModel {
    config: LdaConfig,
    num_words: usize,
    /// Row-major `V × K`: `phi[w * K + k]` — probability of word `w`
    /// under topic `k` (smoothed point estimate from the final Gibbs
    /// state).
    phi: Vec<f64>,
    /// Row-major `D × K`: `theta[d * K + k]` — topic distribution of
    /// training document `d`.
    theta: Vec<f64>,
}

impl LdaModel {
    /// Trains LDA on `corpus` by collapsed Gibbs sampling:
    /// [`LdaModel::train_view`] on [`Corpus::view`].
    ///
    /// # Panics
    ///
    /// As [`LdaModel::train_view`].
    pub fn train(corpus: &Corpus, config: &LdaConfig) -> LdaModel {
        LdaModel::train_view(&corpus.view(), config)
    }

    /// Trains LDA on the documents of `corpus`, read in place, by
    /// collapsed Gibbs sampling.
    ///
    /// Each token's topic assignment `z` is resampled
    /// `config.iterations` times from
    /// `p(z = k) ∝ (n_{dk} + α) · (n_{kw} + β) / (n_k + Vβ)`
    /// with the token's own assignment excluded. The returned model
    /// stores smoothed point estimates of `φ` and `θ` from the final
    /// state.
    ///
    /// Empty documents receive the uniform topic distribution.
    ///
    /// # Panics
    ///
    /// Panics when `config.num_topics` is above
    /// [`LdaConfig::MAX_TOPICS`], or when the corpus holds `2³¹` tokens
    /// or more (the sweep reads its counts as `i32`).
    pub fn train_view(corpus: &CorpusView, config: &LdaConfig) -> LdaModel {
        let _span = forumcast_obs::span("lda.train");
        match corpus.word_map() {
            None => fit(corpus, config, Some),
            Some(words) => fit(corpus, config, |id: u32| {
                Some(words[id as usize]).filter(|&w| w != CorpusView::DROPPED)
            }),
        }
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.config.num_topics
    }

    /// Vocabulary size the model was trained against.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Number of training documents.
    pub fn num_docs(&self) -> usize {
        self.theta.len() / self.config.num_topics
    }

    /// The training configuration.
    pub fn config(&self) -> &LdaConfig {
        &self.config
    }

    /// Topic distribution `θ_d` of training document `d`.
    ///
    /// # Panics
    ///
    /// Panics when `doc` is out of range.
    pub fn doc_topics(&self, doc: usize) -> &[f64] {
        let k = self.config.num_topics;
        &self.theta[doc * k..(doc + 1) * k]
    }

    /// Frees the training documents' `θ`, keeping `φ` for fold-in;
    /// [`num_docs`](LdaModel::num_docs) reads 0 after it.
    pub fn forget_documents(&mut self) {
        self.theta = Vec::new();
    }

    /// Topic–word distribution `φ_k`, gathered from the word-major `φ`.
    ///
    /// # Panics
    ///
    /// Panics when `topic >= K`.
    pub fn topic_words(&self, topic: usize) -> Vec<f64> {
        let k = self.config.num_topics;
        assert!(topic < k, "topic {topic} out of {k}");
        self.phi.iter().skip(topic).step_by(k).copied().collect()
    }

    /// Infers the topic distribution of a held-out document by fold-in
    /// Gibbs sampling with `φ` fixed:
    /// `p(z = k) ∝ (n_{dk} + α) · φ_{k,w}`.
    ///
    /// Word ids outside the training vocabulary are skipped; an empty
    /// (or fully out-of-vocabulary) document yields the uniform
    /// distribution. Inference is deterministic given `seed`.
    pub fn infer(&self, doc: &BagOfWords, seed: u64) -> Vec<f64> {
        forumcast_obs::counter_add("lda.infer.docs", 1);
        let k = self.config.num_topics;
        let tokens: Vec<usize> = doc
            .to_token_ids()
            .into_iter()
            .filter(|&w| w < self.num_words)
            .collect();
        if tokens.is_empty() {
            return vec![1.0 / k as f64; k];
        }
        let n_dk = if k >= TREE_DRAW_MIN_TOPICS {
            self.infer_counts_dense::<true>(&tokens, seed)
        } else {
            self.infer_counts_dense::<false>(&tokens, seed)
        };
        let alpha = self.config.alpha;
        let denom = tokens.len() as f64 + k as f64 * alpha;
        (0..k).map(|t| (n_dk[t] as f64 + alpha) / denom).collect()
    }

    /// Fold-in: the full `K`-term conditional per token, drawn by
    /// [`TreeDraw`] from [`TREE_DRAW_MIN_TOPICS`] topics up (same index,
    /// same bits). Its conditional has no division, so the row the
    /// totals are built from is already the exact row.
    fn infer_counts_dense<const TREE_DRAW: bool>(&self, tokens: &[usize], seed: u64) -> Vec<u32> {
        let k = self.config.num_topics;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut z: Vec<usize> = tokens.iter().map(|_| rng.gen_range(0..k)).collect();
        let mut n_dk = vec![0u32; k];
        for &t in &z {
            n_dk[t] += 1;
        }
        let alpha = self.config.alpha;
        let mut probs = vec![0.0f64; if TREE_DRAW { 0 } else { k }];
        let mut draw = TreeDraw::new(if TREE_DRAW { k } else { 0 });
        for _sweep in 0..self.config.infer_iterations {
            for (ti, &w) in tokens.iter().enumerate() {
                let phi_w = &self.phi[w * k..(w + 1) * k];
                let old = z[ti];
                n_dk[old] -= 1;
                let new = if TREE_DRAW {
                    draw.fill(|b| block_of(b, k, |t| (n_dk[t] as f64 + alpha) * phi_w[t]));
                    draw.draw(&mut rng, |_| {})
                } else {
                    let conditional = |t: usize| (n_dk[t] as f64 + alpha) * phi_w[t];
                    let mut total = 0.0;
                    for (t, p) in probs.iter_mut().enumerate() {
                        *p = conditional(t);
                        total += *p;
                    }
                    sample_index(&probs, total, &mut rng)
                };
                z[ti] = new;
                n_dk[new] += 1;
            }
        }
        n_dk
    }

    /// The `n` highest-probability word ids of `topic` (ties broken by
    /// ascending word id), for interpretability and diagnostics.
    ///
    /// Uses a partial selection (`select_nth_unstable_by`) plus a sort
    /// of the selected slice, so the cost is `O(V + n log n)` instead
    /// of sorting the whole vocabulary.
    ///
    /// # Panics
    ///
    /// Panics when `topic >= K`.
    pub fn top_words(&self, topic: usize, n: usize) -> Vec<usize> {
        let k = self.config.num_topics;
        assert!(topic < k, "topic {topic} out of {k}");
        let n = n.min(self.num_words);
        if n == 0 {
            return Vec::new();
        }
        let prob = |w: usize| self.phi[w * k + topic];
        let by_prob_desc_then_id =
            |a: &usize, b: &usize| prob(*b).total_cmp(&prob(*a)).then_with(|| a.cmp(b));
        let mut idx: Vec<usize> = (0..self.num_words).collect();
        if n < idx.len() {
            idx.select_nth_unstable_by(n - 1, by_prob_desc_then_id);
            idx.truncate(n);
        }
        idx.sort_unstable_by(by_prob_desc_then_id);
        idx
    }
}

/// [`LdaModel::train_view`] with each stream id's word id given by
/// `word` (`None` drops the token).
fn fit(corpus: &CorpusView, config: &LdaConfig, word: impl Fn(u32) -> Option<u32>) -> LdaModel {
    let k = config.num_topics;
    assert_topic_limit(k);
    let v = corpus.num_words().max(1);
    let d = corpus.num_docs();
    let num_tokens = corpus.num_tokens();
    assert!(
        num_tokens <= i32::MAX as usize,
        "LDA supports fewer than 2^31 tokens, got {num_tokens}"
    );
    let docs = Docs {
        ids: corpus.ids(),
        offsets: corpus.offsets(),
        word,
    };
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Topic assignment per kept token (a `u16`, as K ≤ MAX_TOPICS),
    // initialized uniformly at random in document order, so the init
    // stream matches the historical nested-vec layout bit for bit.
    let mut z: Vec<u16> = (0..num_tokens)
        .map(|_| rng.gen_range(0..k) as u16)
        .collect();

    let mut n_dk = vec![0u32; d * k]; // doc–topic counts, row-major D × K
    let mut n_kw = vec![0u32; v * k]; // topic–word counts, word-major V × K
    let mut n_k = vec![0u64; k]; // topic totals
    let mut zs = z.iter();
    for di in 0..d {
        for w in docs.words(di) {
            let t = *zs.next().expect("one topic per kept token") as usize;
            n_dk[di * k + t] += 1;
            n_kw[w * k + t] += 1;
            n_k[t] += 1;
        }
    }

    let sweeps = if k >= TREE_DRAW_MIN_TOPICS {
        dense_sweeps::<true, _>
    } else {
        dense_sweeps::<false, _>
    };
    sweeps(
        config, &docs, &mut z, &mut n_dk, &mut n_kw, &mut n_k, v, &mut rng,
    );
    if num_tokens > 0 && config.iterations > 0 {
        forumcast_obs::counter_add(
            "lda.gibbs.tokens",
            num_tokens as u64 * config.iterations as u64,
        );
    }

    // Point estimates; φ keeps the counts' word-major layout.
    let alpha = config.alpha;
    let beta = config.beta;
    let vbeta = v as f64 * beta;
    let denom: Vec<f64> = n_k.iter().map(|&nk| nk as f64 + vbeta).collect();
    let phi: Vec<f64> = n_kw
        .iter()
        .zip(denom.iter().cycle())
        .map(|(&c, &dt)| (c as f64 + beta) / dt)
        .collect();
    let mut theta = vec![0.0f64; d * k];
    for di in 0..d {
        let row = &n_dk[di * k..(di + 1) * k];
        let len: u32 = row.iter().sum();
        let denom = len as f64 + k as f64 * alpha;
        for t in 0..k {
            theta[di * k + t] = (row[t] as f64 + alpha) / denom;
        }
    }

    LdaModel {
        config: config.clone(),
        num_words: v,
        phi,
        theta,
    }
}

/// The documents the sweeps read: stream ids split by offsets, each
/// id's word id given by `word` (`None` for a dropped id).
struct Docs<'a, W> {
    ids: &'a [u32],
    offsets: &'a [usize],
    word: W,
}

impl<W: Fn(u32) -> Option<u32>> Docs<'_, W> {
    /// The word ids of document `d`'s kept tokens, in stream order.
    #[inline]
    fn words(&self, d: usize) -> impl Iterator<Item = usize> + '_ {
        self.ids[self.offsets[d]..self.offsets[d + 1]]
            .iter()
            .filter_map(|&id| (self.word)(id).map(|w| w as usize))
    }

    fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Topic count from which the sweeps and fold-in draw with
/// [`TreeDraw`]. Below it, the fused conditional-and-total loop plus
/// the short walk is faster (`sampler_throughput`).
const TREE_DRAW_MIN_TOPICS: usize = 24;

/// The Gibbs sweeps: per token, the full `K`-term conditional.
/// Bitwise-identical to the historical implementation (same RNG
/// stream, same floating-point operation order).
///
/// The conditional's row and denominator operands are cached as `f64`
/// (`n_dk + α` for the current document, `n_k + Vβ` per topic) and only
/// the two topics a token leaves and joins are refreshed. The cached
/// values equal the ones computed inline, so every product and quotient
/// is unchanged. From [`TREE_DRAW_MIN_TOPICS`] topics up, the topic is
/// drawn by [`TreeDraw::gibbs`], whose index is the walk's, and the
/// sweep caches `1/(n_k + Vβ)` in place of `n_k + Vβ` (two divisions
/// per token instead of `K`).
#[allow(clippy::too_many_arguments)]
fn dense_sweeps<const TREE_DRAW: bool, W: Fn(u32) -> Option<u32>>(
    config: &LdaConfig,
    docs: &Docs<W>,
    z: &mut [u16],
    n_dk: &mut [u32],
    n_kw: &mut [u32],
    n_k: &mut [u64],
    v: usize,
    rng: &mut StdRng,
) {
    let k = config.num_topics;
    let alpha = config.alpha;
    let beta = config.beta;
    let vbeta = v as f64 * beta;
    let mut probs = vec![0.0f64; if TREE_DRAW { 0 } else { k }];
    let mut draw = TreeDraw::new(if TREE_DRAW { k } else { 0 });
    let denoms = n_k.iter().map(|&nk| nk as f64 + vbeta);
    let (mut nk_vbeta, mut inv_nk_vbeta): (Vec<f64>, Vec<f64>) = if TREE_DRAW {
        (Vec::new(), denoms.map(|denom| 1.0 / denom).collect())
    } else {
        (denoms.collect(), Vec::new())
    };
    let mut ndk_alpha = vec![0.0f64; k];
    for _sweep in 0..config.iterations {
        forumcast_obs::counter_add("lda.gibbs.sweeps", 1);
        let mut zs = z.iter_mut();
        for di in 0..docs.num_docs() {
            let ndk = &mut n_dk[di * k..(di + 1) * k];
            for (a, &c) in ndk_alpha.iter_mut().zip(ndk.iter()) {
                *a = c as f64 + alpha;
            }
            for w in docs.words(di) {
                let zt = zs.next().expect("one topic per kept token");
                let nkw = &mut n_kw[w * k..][..k];
                let old = *zt as usize;
                ndk[old] -= 1;
                nkw[old] -= 1;
                n_k[old] -= 1;
                ndk_alpha[old] = ndk[old] as f64 + alpha;

                let new = if TREE_DRAW {
                    inv_nk_vbeta[old] = 1.0 / (n_k[old] as f64 + vbeta);
                    draw.gibbs(&ndk_alpha, nkw, n_k, &inv_nk_vbeta, beta, vbeta, rng)
                } else {
                    nk_vbeta[old] = n_k[old] as f64 + vbeta;
                    let conditionals = probs
                        .iter_mut()
                        .zip(&ndk_alpha)
                        .zip(nkw.iter())
                        .zip(&nk_vbeta);
                    let mut total = 0.0;
                    for (((p, &a), &c), &denom) in conditionals {
                        *p = a * (c as f64 + beta) / denom;
                        total += *p;
                    }
                    sample_index(&probs, total, rng)
                };
                *zt = new as u16;
                ndk[new] += 1;
                nkw[new] += 1;
                n_k[new] += 1;
                ndk_alpha[new] = ndk[new] as f64 + alpha;
                if TREE_DRAW {
                    inv_nk_vbeta[new] = 1.0 / (n_k[new] as f64 + vbeta);
                } else {
                    nk_vbeta[new] = n_k[new] as f64 + vbeta;
                }
            }
        }
    }
}

/// Samples an index proportionally to `probs` (which sum to `total`).
///
/// A degenerate row (`total` zero, negative, or non-finite) trips a
/// debug assertion; in release builds it is counted under the
/// `lda.sample.degenerate` obs counter and resolved by a deterministic
/// uniform fallback, so bad rows are observable instead of silently
/// mapped to the last index.
fn sample_index(probs: &[f64], total: f64, rng: &mut StdRng) -> usize {
    walk_index(probs, total, rng.gen::<f64>())
}

/// Conditionals per block of [`TreeDraw`]'s totals.
const BLOCK: usize = 8;

/// Draws the same index as [`sample_index`] on the exact row, from the
/// same single RNG draw, by searching tree-summed totals of an
/// approximate row instead of walking.
///
/// [`TreeDraw::fill`] takes the `K` conditionals `q_i` in fixed blocks
/// of [`BLOCK`] (the tail zero-padded; adding zero is exact), sums each
/// block by a fixed tree and keeps running totals over the blocks.
/// [`TreeDraw::draw`] scales one `r ∈ [0, 1)` to `û = r · T̂`, `T̂` the
/// last running total, picks the block by a branch-free count of the
/// running totals below `û`, then the index `j` inside the block the
/// same way over the block's own pairwise running sums. It accepts `j`
/// only when `û` lies more than the guard band `(8K + 32) · ε · T̂`
/// above `A_{j−1}` and below `A_j`, where `A_i` is the block's running
/// total plus the running sum of its entries through `i`
/// (`A_{−1} = 0`). Otherwise it rebuilds the exact row `p_i`, sums it
/// serially to the walk's total `T` and walks it with the same `r`.
///
/// # Why the index is exact
///
/// Let `ε` be [`f64::EPSILON`] (unit roundoff `ε/2`) and
/// `P_i = p_0 + … + p_i` in real arithmetic. The approximate row errs
/// by `|q_i − p_i| ≤ 2ε · p_i`: in the sweep `q_i = fl(x_i · fl(1/d_i))`
/// against `p_i = fl(x_i / d_i)`, three roundings against one on the
/// same `x_i = fl(a_i · fl(c_i + β))`; in fold-in `q_i = p_i`. Every sum
/// adds nonnegative terms, so each rounding errs by at most `ε/2` of a
/// partial result no larger than `R ≤ P · (1 + (K + 3)ε)`, the largest
/// of the sums in play (`P = P_{K−1}`).
///
/// - `A_i` adds its `i + 1` terms with `i` roundings (the block sums, the
///   running totals before its block, the sums inside it and the one
///   addition joining them), and `T̂` its `K` terms with at most `K − 1`.
///   So `|A_i − P_i|` and `|T̂ − P|` are at most `((K − 1)/2 + 2) · ε · R`.
///   The serial `T` errs by at most `(K − 1)/2 · ε · R` against `P`.
/// - The walk's `u = fl(r · T)` and `û = fl(r · T̂)` round once each,
///   so `|u − û| ≤ |T − T̂| + ε · R ≤ (K + 2) · ε · R`.
/// - The walk keeps `w_i = fl(w_{i−1} − p_i)` (`w_{−1} = u`) and
///   returns the first `i` with `w_i ≤ 0`, or `K − 1` if none; `w` never
///   increases. Each of its first `i + 1 ≤ K` subtractions errs by at
///   most `ε/2 · R`, so `|w_i − (u − P_i)| ≤ K/2 · ε · R`.
///
/// Adding these, `w_{j−1} ≥ (û − A_{j−1}) − B` and
/// `w_j ≤ B − (A_j − û)` with `B = (2K + 7/2) · ε · R`. Since
/// `R ≤ T̂ · (1 + 3(K + 3)ε)`, and a product or quotient that rounds to a
/// subnormal errs by at most `2^−1075` more (at most `4K + 2` of them,
/// against a band of at least `f64::MIN_POSITIVE = 2^−1022`), `B` stays
/// below `(2K + 4) · ε · T̂` for every `K` up to
/// [`LdaConfig::MAX_TOPICS`]. The band is a float, so a computed
/// difference above it means the exact one is too. An accepted `j`
/// therefore has `w_{j−1} > 0`, so every earlier `w` too, and
/// `w_j < 0`: the walk stops at `j`. The band is more than four times
/// the bound, which absorbs its own rounding. A draw inside the band,
/// or a row whose band is not in `[f64::MIN_POSITIVE, ε · f64::MAX)` (a
/// degenerate, subnormal or near-overflowing total), takes the walk.
/// Which tree sums the totals, and how the block and index are picked,
/// change only how often a draw falls back, never the index.
struct TreeDraw {
    k: usize,
    /// The conditionals, zero-padded to whole blocks.
    probs: Vec<f64>,
    /// `totals[0] = 0` and `totals[b + 1]`: the running total through
    /// block `b`, so the last entry is `T̂`.
    totals: Vec<f64>,
}

impl TreeDraw {
    /// Buffers for a `k`-term row; `k = 0` allocates nothing.
    fn new(k: usize) -> Self {
        let blocks = k.div_ceil(BLOCK);
        TreeDraw {
            k,
            probs: vec![0.0; blocks * BLOCK],
            totals: if k == 0 {
                Vec::new()
            } else {
                vec![0.0; blocks + 1]
            },
        }
    }

    /// Draws the topic of a token from the sweep's conditional
    /// `(n_dk + α)(n_kw + β)/(n_k + Vβ)`: the totals are built from
    /// `(n_dk + α)(n_kw + β) · inv` (`inv` the cached reciprocals, the
    /// counts read as `i32`), the fallback walks the division form.
    #[allow(clippy::too_many_arguments)]
    fn gibbs(
        &mut self,
        ndk_alpha: &[f64],
        nkw: &[u32],
        n_k: &[u64],
        inv_nk_vbeta: &[f64],
        beta: f64,
        vbeta: f64,
        rng: &mut StdRng,
    ) -> usize {
        let k = self.k;
        let conditional = |a: f64, c: u32, inv: f64| a * (c as i32 as f64 + beta) * inv;
        let (a, c, inv) = (
            ndk_alpha.as_chunks::<BLOCK>().0,
            nkw.as_chunks::<BLOCK>().0,
            inv_nk_vbeta.as_chunks::<BLOCK>().0,
        );
        self.fill(|b| {
            if b < a.len() {
                std::array::from_fn(|j| conditional(a[b][j], c[b][j], inv[b][j]))
            } else {
                block_of(b, k, |t| conditional(ndk_alpha[t], nkw[t], inv_nk_vbeta[t]))
            }
        });
        self.draw(rng, |row| {
            let exact = row.iter_mut().zip(ndk_alpha).zip(nkw).zip(n_k);
            for (((p, &a), &c), &nk) in exact {
                *p = a * (c as f64 + beta) / (nk as f64 + vbeta);
            }
        })
    }

    /// Draws from the row [`TreeDraw::fill`] wrote; `exact_row`
    /// overwrites its `K` entries with the exact conditionals when the
    /// draw falls back.
    fn draw(&mut self, rng: &mut StdRng, exact_row: impl FnOnce(&mut [f64])) -> usize {
        let r = rng.gen::<f64>();
        self.index(r).unwrap_or_else(|| {
            let row = &mut self.probs[..self.k];
            exact_row(row);
            let total = row.iter().fold(0.0, |total, &p| total + p);
            walk_index(row, total, r)
        })
    }

    /// Writes the row one block at a time, `block(b)` giving the
    /// conditionals of block `b`, and sums each block as it is written
    /// (pairing entries two apart, which suits two-lane vector adds),
    /// keeping the running totals over the blocks.
    fn fill(&mut self, mut block: impl FnMut(usize) -> [f64; BLOCK]) {
        let mut total = 0.0;
        let blocks = self.probs.as_chunks_mut::<BLOCK>().0.iter_mut();
        for (b, (probs, s)) in blocks.zip(&mut self.totals[1..]).enumerate() {
            let q = block(b);
            total += ((q[0] + q[2]) + (q[4] + q[6])) + ((q[1] + q[3]) + (q[5] + q[7]));
            *s = total;
            *probs = q;
        }
    }

    /// The guarded search of the block totals for the uniform draw `r`:
    /// the walk's index, or `None` when `û` lies inside the guard band of
    /// a bracketing total or the band is out of range.
    #[inline]
    fn index(&self, r: f64) -> Option<usize> {
        let blocks = self.totals.len() - 1;
        let total = self.totals[blocks];
        let band = guard_band(self.k, total);
        if !(f64::MIN_POSITIVE..f64::MAX * f64::EPSILON).contains(&band) {
            return None;
        }
        let u = r * total;
        // Branch-free counts. `T̂ ≥ û` is not counted, so `b` names a
        // block; `m` is kept inside the block's `last` real entry.
        let b = self.totals[1..blocks].iter().filter(|&&s| s < u).count();
        let start = self.totals[b];
        let sums = block_sums(&self.probs.as_chunks::<BLOCK>().0[b]);
        let last = (self.k - b * BLOCK).min(BLOCK) - 1;
        let within = u - start;
        let m = sums[1..BLOCK]
            .iter()
            .filter(|&&s| s < within)
            .count()
            .min(last);
        let (below, through) = (start + sums[m], start + sums[m + 1]);
        ((u - below > band) & (through - u > band)).then_some(b * BLOCK + m)
    }
}

/// Block `b` of a `k`-term row whose entry `t` is `entry(t)`, zero past
/// the row's end.
fn block_of(b: usize, k: usize, entry: impl Fn(usize) -> f64) -> [f64; BLOCK] {
    std::array::from_fn(|j| {
        let t = b * BLOCK + j;
        if t < k {
            entry(t)
        } else {
            0.0
        }
    })
}

/// `0` and the running sums of one block through each of its entries,
/// summed pairwise so that none waits on more than three additions.
fn block_sums(q: &[f64; BLOCK]) -> [f64; BLOCK + 1] {
    let (s01, s45) = (q[0] + q[1], q[4] + q[5]);
    let s03 = s01 + (q[2] + q[3]);
    [
        0.0,
        q[0],
        s01,
        s01 + q[2],
        s03,
        s03 + q[4],
        s03 + s45,
        s03 + (s45 + q[6]),
        s03 + (s45 + (q[6] + q[7])),
    ]
}

/// [`TreeDraw`]'s guard band for a `k`-term row whose approximate total
/// is `total`: more than four times the rounding bound of its proof.
fn guard_band(k: usize, total: f64) -> f64 {
    total * ((8 * k + 32) as f64 * f64::EPSILON)
}

/// The subtract-and-test walk behind [`sample_index`], given its one
/// uniform draw `r`.
fn walk_index(probs: &[f64], total: f64, r: f64) -> usize {
    if !(total.is_finite() && total > 0.0) {
        debug_assert!(
            false,
            "degenerate sampling row: total = {total} over {} probs",
            probs.len()
        );
        forumcast_obs::counter_add("lda.sample.degenerate", 1);
        return ((r * probs.len() as f64) as usize).min(probs.len() - 1);
    }
    let mut u = r * total;
    for (i, &p) in probs.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use forumcast_text::{Corpus, Vocabulary};

    /// Two cleanly separable themes; LDA with K=2 must separate them.
    fn separable_corpus() -> (Corpus, Vocabulary) {
        let mut docs: Vec<Vec<String>> = Vec::new();
        let cats = ["cat", "purr", "whisker", "meow"];
        let code = ["python", "loop", "compile", "debug"];
        for i in 0..20 {
            let theme: &[&str] = if i % 2 == 0 { &cats } else { &code };
            let doc: Vec<String> = (0..12).map(|j| theme[j % 4].to_string()).collect();
            docs.push(doc);
        }
        let mut vocab = Vocabulary::new();
        for d in &docs {
            vocab.observe(d);
        }
        let corpus = Corpus::from_token_docs(&docs, &vocab);
        (corpus, vocab)
    }

    /// Four 10-word themes over 48 documents of 15 tokens; each doc
    /// mixes its theme with a few words of the next one. Token picks
    /// come from a fixed LCG so the corpus never changes.
    fn themed_corpus() -> Corpus {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let docs: Vec<Vec<String>> = (0..48)
            .map(|d| {
                (0..15)
                    .map(|_| {
                        let theme = if next(5) == 0 { (d + 1) % 4 } else { d % 4 };
                        format!("t{theme}w{}", next(10))
                    })
                    .collect()
            })
            .collect();
        let mut vocab = Vocabulary::new();
        for d in &docs {
            vocab.observe(d);
        }
        Corpus::from_token_docs(&docs, &vocab)
    }

    /// FNV-1a over the little-endian bits of `xs`.
    fn fnv_bits<'a>(xs: impl IntoIterator<Item = &'a f64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Pins the exact output bits of the sampler: φ, θ and one
    /// fold-in. Any change to the sweep's RNG use or floating-point
    /// operation order shows up here, not only as drift in quality.
    /// The rows straddle [`TREE_DRAW_MIN_TOPICS`], and their hashes
    /// predate both the prefix-total and the tree-summed draws: the
    /// fused walk and the tree draw must reproduce them.
    #[test]
    fn output_bits_are_pinned() {
        let corpus = themed_corpus();
        let expected: [(usize, [u64; 3]); 8] = [
            (
                1,
                [0x3068ae9f53d99165, 0xf8d0cf8b73597625, 0xaab1693229ba1db8],
            ),
            (
                4,
                [0xc9591fb44c37bd8d, 0x44089a2374be7a3c, 0xe8272c7db14bacc6],
            ),
            (
                16,
                [0xb500cbcee01a770f, 0xd6e8058e9ee301fb, 0x608f3c5ea3c6d8bc],
            ),
            (
                20,
                [0x9d3035b8c38c1414, 0xbdd7e3ab45a758a9, 0x8c06247a7e4ad4df],
            ),
            (
                24,
                [0xc3f107777f78c62c, 0x55301b5082079adf, 0xb5ec956efb1c640c],
            ),
            (
                32,
                [0x1c5993e655ecc173, 0x0e3995218d344f63, 0x32c921f00667373d],
            ),
            (
                64,
                [0x95c435554b1fde7a, 0x2a919b1a5fb89dbd, 0x59bd50382cd59359],
            ),
            (
                256,
                [0x07d5aedd93401b3d, 0x40f9a5d1549f091d, 0xfd4c41fa26b92091],
            ),
        ];
        let got: Vec<[u64; 3]> = expected
            .iter()
            .map(|&(k, _)| {
                let cfg = LdaConfig::new(k).with_iterations(25).with_seed(0xD1CE);
                let model = LdaModel::train(&corpus, &cfg);
                [
                    fnv_bits(
                        &(0..k)
                            .flat_map(|t| model.topic_words(t))
                            .collect::<Vec<_>>(),
                    ),
                    fnv_bits((0..corpus.num_docs()).flat_map(|d| model.doc_topics(d))),
                    fnv_bits(&model.infer(&corpus.bag(5), 17)),
                ]
            })
            .collect();
        for ((k, want), got_row) in expected.iter().zip(&got) {
            assert_eq!(got_row, want, "K={k} [φ, θ, infer]; all rows: {got:#x?}");
        }
    }

    /// A tree draw whose totals are built from `approx`.
    fn tree_of(approx: &[f64]) -> TreeDraw {
        let mut draw = TreeDraw::new(approx.len());
        draw.fill(|b| block_of(b, approx.len(), |t| approx[t]));
        draw
    }

    /// The running totals `0, p_0, p_0 + p_1, …` summed serially, as the
    /// walk's total is.
    fn serial_totals(probs: &[f64]) -> Vec<f64> {
        let mut total = 0.0;
        let mut totals = vec![0.0];
        totals.extend(probs.iter().map(|&p| {
            total += p;
            total
        }));
        totals
    }

    /// Every `r` within `ulps` units in the last place of one that
    /// scales `scale` to a value in `at`.
    fn draws_near(at: &[f64], scale: f64, ulps: i64) -> Vec<f64> {
        at.iter()
            .flat_map(|&s| {
                let bits = (s / scale).to_bits() as i64;
                (-ulps..=ulps).map(move |d| f64::from_bits((bits + d).max(0) as u64))
            })
            .filter(|r| (0.0..1.0).contains(r))
            .collect()
    }

    /// Asserts the tree draw built from `approx` picks the walk's index
    /// on `exact` for every `r` in `spread`, and for every `r` within
    /// `ulps` of one that scales to an approximate running total (a
    /// block total, or a block's start plus its first entries) or an
    /// exact one (`0` included). Those near-boundary draws must take the
    /// fallback whenever the row's band is a normal float.
    fn assert_tree_draw_matches_walk(approx: &[f64], exact: &[f64], spread: &[f64], ulps: i64) {
        let k = exact.len();
        let draw = tree_of(approx);
        let blocks = draw.totals.len() - 1;
        let approx_total = draw.totals[blocks];
        let mut approx_totals = draw.totals.clone();
        for (b, block) in draw.probs.as_chunks::<BLOCK>().0.iter().enumerate() {
            approx_totals.extend(block_sums(block).map(|s| draw.totals[b] + s));
        }
        let exact_totals = serial_totals(exact);
        let total = exact_totals[k];
        let mut near = draws_near(&approx_totals, approx_total, ulps);
        near.extend(draws_near(&exact_totals, total, ulps));
        for &r in spread.iter().chain(&near) {
            let walk = walk_index(exact, total, r);
            let fast = draw.index(r);
            assert!(
                fast.is_none() || fast == Some(walk),
                "K={k} r={r:e}: tree draw {fast:?}, walk {walk}; approx {approx:?} exact {exact:?}"
            );
        }
        if guard_band(k, approx_total) >= f64::MIN_POSITIVE {
            for &r in &near {
                assert_eq!(
                    draw.index(r),
                    None,
                    "K={k}: r={r:e} sits near a running total but skipped the walk"
                );
            }
        }
    }

    /// One row entry: zeros, the unit interval, values that vanish in a
    /// sum, subnormals, tiny and huge values, and exact repeats.
    fn adversarial_entry() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::strategy::Strategy;
        (0u8..7, 0.0f64..1.0, 1u64..1 << 20).prop_map(|(kind, x, bits)| match kind {
            0 => 0.0,
            1 => x,
            2 => 1.0,
            3 => f64::EPSILON / 4.0,
            4 => f64::from_bits(bits),
            5 => x * 1e-300,
            _ => x * 1e300,
        })
    }

    proptest::proptest! {
        /// The tree draw returns the walk's index for random and
        /// adversarial rows at K = 1…256 (ragged last blocks included),
        /// built from the exact row or from one whose nonzero entries
        /// are each off by up to one ulp (within the reciprocal form's
        /// error), including draws a few ulps from every running total
        /// (which must fall back).
        #[test]
        fn tree_draw_equals_walk_on_adversarial_rows(
            row in proptest::collection::vec(adversarial_entry(), 1..=256),
            nudges in proptest::collection::vec(-1i64..=1, 256),
            spread in proptest::collection::vec(0.0f64..1.0, 16),
        ) {
            let mut exact = row;
            if exact.iter().all(|&p| p == 0.0) {
                exact[0] = 1.0;
            }
            let nudged: Vec<f64> = exact
                .iter()
                .zip(&nudges)
                .map(|(&p, &d)| if p == 0.0 { p } else { f64::from_bits((p.to_bits() as i64 + d) as u64) })
                .collect();
            assert_tree_draw_matches_walk(&exact, &exact, &spread, 3);
            assert_tree_draw_matches_walk(&nudged, &exact, &spread, 3);
        }
    }

    /// Every K from 1 to 256, on Gibbs-like rows (products and quotients
    /// of small counts), draws from a seeded RNG, and the RNG stream:
    /// both draws consume exactly one value.
    #[test]
    fn tree_draw_equals_sample_index_for_every_k() {
        let mut rows = StdRng::seed_from_u64(0x5EED);
        for k in 1..=256usize {
            for _ in 0..4 {
                let probs: Vec<f64> = (0..k)
                    .map(|_| {
                        let a = rows.gen_range(0..20) as f64 + 1.0 / k as f64;
                        let c = rows.gen_range(0..50) as f64 + 0.01;
                        a * c / (rows.gen_range(0..2000) as f64 + 12.5)
                    })
                    .collect();
                let spread: Vec<f64> = (0..32).map(|_| rows.gen::<f64>()).collect();
                assert_tree_draw_matches_walk(&probs, &probs, &spread, 2);
                let total = serial_totals(&probs)[k];
                let mut draw = TreeDraw::new(k);
                let mut a = StdRng::seed_from_u64(k as u64);
                let mut b = a.clone();
                for _ in 0..64 {
                    draw.fill(|b| block_of(b, k, |t| probs[t]));
                    assert_eq!(
                        draw.draw(&mut a, |_| {}),
                        sample_index(&probs, total, &mut b),
                        "K={k}"
                    );
                }
                assert_eq!(
                    a.gen::<u64>(),
                    b.gen::<u64>(),
                    "K={k}: RNG streams diverged"
                );
            }
        }
    }

    /// The sweep's draw on Gibbs-shaped rows at every K from 24 to 256:
    /// totals built from cached reciprocals, `i32` count reads and
    /// sparse topic–word counts pick the index the division form's walk
    /// picks, near-boundary draws fall back, and each draw consumes
    /// exactly one RNG value.
    #[test]
    fn gibbs_draw_equals_the_division_form_for_every_k() {
        let mut rows = StdRng::seed_from_u64(0x61BB5);
        let (alpha, beta, vbeta) = (0.02, 0.01, 31.7);
        for k in TREE_DRAW_MIN_TOPICS..=256usize {
            for _ in 0..4 {
                let ndk_alpha: Vec<f64> = (0..k)
                    .map(|_| rows.gen_range(0..4u32).pow(2) as f64 + alpha)
                    .collect();
                let nkw: Vec<u32> = (0..k)
                    .map(|_| {
                        if rows.gen_bool(0.7) {
                            0
                        } else {
                            rows.gen_range(1..400)
                        }
                    })
                    .collect();
                let n_k: Vec<u64> = (0..k).map(|_| rows.gen_range(0..90_000)).collect();
                let inv: Vec<f64> = n_k.iter().map(|&nk| 1.0 / (nk as f64 + vbeta)).collect();
                let exact: Vec<f64> = (0..k)
                    .map(|t| ndk_alpha[t] * (nkw[t] as f64 + beta) / (n_k[t] as f64 + vbeta))
                    .collect();
                let approx: Vec<f64> = (0..k)
                    .map(|t| ndk_alpha[t] * (nkw[t] as i32 as f64 + beta) * inv[t])
                    .collect();
                let spread: Vec<f64> = (0..32).map(|_| rows.gen::<f64>()).collect();
                assert_tree_draw_matches_walk(&approx, &exact, &spread, 3);
                let total = serial_totals(&exact)[k];
                let mut draw = TreeDraw::new(k);
                let mut a = StdRng::seed_from_u64(k as u64);
                let mut b = a.clone();
                for _ in 0..64 {
                    assert_eq!(
                        draw.gibbs(&ndk_alpha, &nkw, &n_k, &inv, beta, vbeta, &mut a),
                        sample_index(&exact, total, &mut b),
                        "K={k}"
                    );
                }
                assert_eq!(
                    a.gen::<u64>(),
                    b.gen::<u64>(),
                    "K={k}: RNG streams diverged"
                );
            }
        }
    }

    /// The guard band keeps at least twice the rounding bound
    /// [`TreeDraw`]'s proof derives, `(2K + 4)·ε·total`, at every topic
    /// count a model can have.
    #[test]
    fn guard_band_is_twice_the_error_bound() {
        for k in 1..=LdaConfig::MAX_TOPICS {
            let bound = (2 * k + 4) as f64 * f64::EPSILON;
            assert!(guard_band(k, 1.0) >= 2.0 * bound, "K={k}");
        }
    }

    #[test]
    fn thetas_are_valid_distributions() {
        let (corpus, _) = separable_corpus();
        let model = LdaModel::train(&corpus, &LdaConfig::new(3).with_iterations(30));
        for d in 0..corpus.num_docs() {
            let theta = model.doc_topics(d);
            assert_eq!(theta.len(), 3);
            assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(theta.iter().all(|&p| p > 0.0 && p < 1.0));
        }
    }

    #[test]
    fn phis_are_valid_distributions() {
        let (corpus, _) = separable_corpus();
        let model = LdaModel::train(&corpus, &LdaConfig::new(2).with_iterations(30));
        for k in 0..2 {
            let phi = model.topic_words(k);
            assert_eq!(phi.len(), corpus.num_words());
            assert!((phi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn separable_themes_get_distinct_topics() {
        let (corpus, vocab) = separable_corpus();
        let cfg = LdaConfig {
            alpha: 0.1,
            beta: 0.01,
            ..LdaConfig::new(2).with_iterations(100).with_seed(11)
        };
        let model = LdaModel::train(&corpus, &cfg);
        // Every "cat" doc should concentrate on one topic, every
        // "code" doc on the other.
        let cat_topic = model
            .doc_topics(0)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        for d in 0..corpus.num_docs() {
            let theta = model.doc_topics(d);
            let dominant = theta
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            if d % 2 == 0 {
                assert_eq!(dominant, cat_topic, "doc {d} should be a cat doc");
            } else {
                assert_ne!(dominant, cat_topic, "doc {d} should be a code doc");
            }
            assert!(theta[dominant] > 0.7, "doc {d} not concentrated: {theta:?}");
        }
        // Top words of the cat topic are cat words.
        let top = model.top_words(cat_topic, 4);
        let cat_ids: Vec<usize> = ["cat", "purr", "whisker", "meow"]
            .iter()
            .map(|w| vocab.id_of(w).unwrap())
            .collect();
        for id in top {
            assert!(cat_ids.contains(&id));
        }
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (corpus, _) = separable_corpus();
        let cfg = LdaConfig::new(2).with_iterations(20).with_seed(5);
        let m1 = LdaModel::train(&corpus, &cfg);
        let m2 = LdaModel::train(&corpus, &cfg);
        assert_eq!(m1.doc_topics(3), m2.doc_topics(3), "θ");
        assert_eq!(m1.topic_words(1), m2.topic_words(1), "φ");
    }

    #[test]
    fn inference_matches_training_theme() {
        let (corpus, vocab) = separable_corpus();
        let cfg = LdaConfig {
            alpha: 0.1,
            beta: 0.01,
            ..LdaConfig::new(2).with_iterations(100)
        };
        let model = LdaModel::train(&corpus, &cfg);
        let cat_ids =
            ["cat", "meow", "purr", "cat", "whisker", "meow"].map(|w| vocab.id_of(w).unwrap());
        let cat_doc = forumcast_text::BagOfWords::from_ids(&cat_ids);
        let theta = model.infer(&cat_doc, 99);
        let cat_topic = model
            .doc_topics(0)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(
            theta[cat_topic] > 0.6,
            "held-out cat doc got {theta:?} (cat topic {cat_topic})"
        );
    }

    #[test]
    fn empty_doc_infers_uniform() {
        let (corpus, _) = separable_corpus();
        let model = LdaModel::train(&corpus, &LdaConfig::new(4).with_iterations(10));
        let theta = model.infer(&forumcast_text::BagOfWords::from_ids(&[]), 0);
        assert_eq!(theta, vec![0.25; 4]);
    }

    #[test]
    fn out_of_vocab_ids_are_skipped() {
        let (corpus, _) = separable_corpus();
        let model = LdaModel::train(&corpus, &LdaConfig::new(2).with_iterations(10));
        let v = corpus.num_words();
        let doc = forumcast_text::BagOfWords::from_ids(&[v + 1, v + 2]);
        let theta = model.infer(&doc, 0);
        assert_eq!(theta, vec![0.5; 2]);
    }

    #[test]
    fn single_topic_model_is_degenerate_but_valid() {
        let (corpus, _) = separable_corpus();
        let model = LdaModel::train(&corpus, &LdaConfig::new(1).with_iterations(5));
        assert_eq!(model.doc_topics(0), &[1.0]);
        let theta = model.infer(&corpus.bag(0), 3);
        assert_eq!(theta, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one topic")]
    fn zero_topics_rejected() {
        LdaConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "at most 65536 topics")]
    fn topics_beyond_u16_ids_rejected() {
        LdaConfig::new(LdaConfig::MAX_TOPICS + 1);
    }

    #[test]
    fn the_largest_topic_count_trains() {
        let mut corpus = Corpus::new(3);
        corpus.push_doc([0, 1, 2, 2]);
        let config = LdaConfig::new(LdaConfig::MAX_TOPICS).with_iterations(2);
        let model = LdaModel::train(&corpus, &config);
        let theta = model.doc_topics(0);
        assert_eq!(theta.len(), LdaConfig::MAX_TOPICS);
        assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_corpus_trains_trivially() {
        let corpus = Corpus::new(0);
        let model = LdaModel::train(&corpus, &LdaConfig::new(2).with_iterations(5));
        assert_eq!(model.num_topics(), 2);
        assert_eq!(model.num_docs(), 0);
    }

    #[test]
    fn model_serde_roundtrip() {
        let (corpus, _) = separable_corpus();
        let model = LdaModel::train(&corpus, &LdaConfig::new(2).with_iterations(5));
        let json = serde_json::to_string(&model).unwrap();
        let back: LdaModel = serde_json::from_str(&json).unwrap();
        for (a, b) in back.doc_topics(0).iter().zip(model.doc_topics(0)) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn top_words_breaks_ties_by_word_id() {
        // Uniform φ row: every word ties, so top-n must be the first n
        // word ids.
        let mut corpus = Corpus::new(5);
        corpus.push_doc(0..5);
        let model = LdaModel::train(&corpus, &LdaConfig::new(1).with_iterations(0));
        assert_eq!(model.top_words(0, 3), vec![0, 1, 2]);
        assert_eq!(model.top_words(0, 0), Vec::<usize>::new());
        // n larger than the vocabulary clamps.
        assert_eq!(model.top_words(0, 99).len(), 5);
    }

    #[test]
    fn top_words_matches_full_sort() {
        let (corpus, _) = separable_corpus();
        let model = LdaModel::train(&corpus, &LdaConfig::new(2).with_iterations(30));
        for topic in 0..2 {
            let row = model.topic_words(topic);
            let mut full: Vec<usize> = (0..model.num_words()).collect();
            full.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then_with(|| a.cmp(&b)));
            for n in [1, 3, model.num_words()] {
                assert_eq!(
                    model.top_words(topic, n),
                    full[..n],
                    "topic {topic} top {n}"
                );
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "degenerate sampling row")]
    fn degenerate_row_trips_debug_assertion() {
        let mut rng = StdRng::seed_from_u64(1);
        sample_index(&[0.0, 0.0], 0.0, &mut rng);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn degenerate_row_falls_back_deterministically_in_release() {
        let guard = forumcast_obs::arm();
        let mut rng = StdRng::seed_from_u64(1);
        let a = sample_index(&[0.0, 0.0, 0.0], 0.0, &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let b = sample_index(&[0.0, 0.0, 0.0], f64::NAN, &mut rng);
        assert_eq!(a, b, "fallback must not depend on the bad total");
        assert!(a < 3);
        let log = forumcast_obs::drain().expect("collector armed");
        drop(guard);
        let degenerate = log
            .counters
            .iter()
            .find(|(n, _)| n == "lda.sample.degenerate")
            .map_or(0, |(_, v)| *v);
        assert_eq!(degenerate, 2);
    }
}
