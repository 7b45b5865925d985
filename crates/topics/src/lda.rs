//! Collapsed Gibbs sampling for Latent Dirichlet Allocation.
//!
//! Two samplers share the same model: the [`Dense`](LdaSampler::Dense)
//! reference path evaluates the full `K`-term conditional per token,
//! while the [`Sparse`](LdaSampler::Sparse) path uses the SparseLDA
//! decomposition (Yao, Mimno & McCallum, KDD 2009) of the collapsed
//! conditional
//!
//! ```text
//! p(z = k) ∝ (n_dk + α)(n_kw + β) / (n_k + Vβ)
//!          =  αβ / (n_k + Vβ)            — smoothing bucket `s`
//!          +  n_dk · β / (n_k + Vβ)      — document bucket `r`
//!          + (n_dk + α) n_kw / (n_k + Vβ) — word bucket `q`
//! ```
//!
//! into three buckets whose partial sums are maintained incrementally,
//! so resampling a token only walks the document's active topics and
//! the word's nonzero topics instead of all `K`. Both samplers draw
//! from the *exact same* conditional distribution; the sparse path is
//! deterministic given the seed but follows a different (equally
//! valid) Gibbs trajectory than dense, so the two are compared by
//! perplexity/total-variation parity rather than bitwise equality.
//!
//! # Count layout
//!
//! During a fit the topic–word counts are stored word-major,
//! `n_kw[w * K + t]`, so the `K` counts a token's conditional reads
//! sit in one contiguous row (one or a few cache lines, not `K`
//! strided ones). Doc–topic counts are row-major `D × K`. Only the
//! fitted `φ` is topic-major (`K × V`, what
//! [`LdaModel::topic_words`] serves); it is transposed out of the
//! word-major counts once, after the last sweep.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use forumcast_text::{BagOfWords, Corpus};

/// Which Gibbs sampler [`LdaModel::train`] and [`LdaModel::infer`]
/// use. `Dense` is the original reference implementation; `Sparse`
/// samples the identical conditional with SparseLDA bucket sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LdaSampler {
    /// Full `K`-term conditional per token (reference path; bitwise
    /// identical to the historical implementation).
    #[default]
    Dense,
    /// SparseLDA three-bucket sampler (`s`/`r`/`q` partial sums).
    Sparse,
}

impl std::str::FromStr for LdaSampler {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(LdaSampler::Dense),
            "sparse" => Ok(LdaSampler::Sparse),
            other => Err(format!("unknown sampler `{other}` (dense|sparse)")),
        }
    }
}

impl std::fmt::Display for LdaSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LdaSampler::Dense => "dense",
            LdaSampler::Sparse => "sparse",
        })
    }
}

/// Hyperparameters for [`LdaModel::train`].
///
/// Defaults follow common practice (`α = 50/K`, `β = 0.01`) and the
/// paper's `K = 8`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of topics `K`.
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
    /// Gibbs sampler implementation (missing in configs saved before
    /// the sparse path existed, so it defaults to `Dense`).
    #[serde(default)]
    pub sampler: LdaSampler,
}

impl LdaConfig {
    /// Creates a config with `K` topics and default priors.
    ///
    /// # Panics
    ///
    /// Panics when `num_topics == 0`.
    pub fn new(num_topics: usize) -> Self {
        assert!(num_topics > 0, "LDA requires at least one topic");
        // Gensim's default symmetric prior is 1/K; forum posts are
        // short documents, so a weak prior keeps θ concentrated.
        LdaConfig {
            num_topics,
            alpha: 1.0 / num_topics as f64,
            beta: 0.01,
            iterations: 200,
            infer_iterations: 30,
            seed: 0xF0CA,
            sampler: LdaSampler::Dense,
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

    /// Sets the Dirichlet priors.
    pub fn with_priors(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// Sets the Gibbs sampler implementation.
    pub fn with_sampler(mut self, sampler: LdaSampler) -> Self {
        self.sampler = sampler;
        self
    }
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
/// `K × V`, `θ` is `D × K`) so sweeps and lookups stay on a single
/// cache-friendly allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LdaModel {
    config: LdaConfig,
    num_words: usize,
    /// Row-major `K × V`: `phi[k * V + w]` — probability of word `w`
    /// under topic `k` (smoothed point estimate from the final Gibbs
    /// state).
    phi: Vec<f64>,
    /// Row-major `D × K`: `theta[d * K + k]` — topic distribution of
    /// training document `d`.
    theta: Vec<f64>,
}

/// Per-sampler bucket-hit tallies, accumulated locally during a sweep
/// and flushed to the obs counters in one batch (each counter add
/// locks the thread's telemetry shard and hashes the counter name —
/// per-token updates would tax the hot loop).
#[derive(Default)]
struct BucketHits {
    s: u64,
    r: u64,
    q: u64,
}

impl BucketHits {
    fn flush(&self) {
        if self.s > 0 {
            forumcast_obs::counter_add("lda.sparse.bucket_hits.s", self.s);
        }
        if self.r > 0 {
            forumcast_obs::counter_add("lda.sparse.bucket_hits.r", self.r);
        }
        if self.q > 0 {
            forumcast_obs::counter_add("lda.sparse.bucket_hits.q", self.q);
        }
    }
}

impl LdaModel {
    /// Trains LDA on `corpus` by collapsed Gibbs sampling.
    ///
    /// Each token's topic assignment `z` is resampled
    /// `config.iterations` times from
    /// `p(z = k) ∝ (n_{dk} + α) · (n_{kw} + β) / (n_k + Vβ)`
    /// with the token's own assignment excluded. The returned model
    /// stores smoothed point estimates of `φ` and `θ` from the final
    /// state.
    ///
    /// Empty documents receive the uniform topic distribution.
    pub fn train(corpus: &Corpus, config: &LdaConfig) -> LdaModel {
        let _span = forumcast_obs::span("lda.train");
        let k = config.num_topics;
        let v = corpus.num_words().max(1);
        let d = corpus.num_docs();
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Token-level view of the corpus, flattened to one contiguous
        // buffer with per-document offsets (CSR layout).
        let mut tokens: Vec<u32> = Vec::new();
        let mut doc_offsets: Vec<usize> = Vec::with_capacity(d + 1);
        doc_offsets.push(0);
        for bow in corpus.iter() {
            for w in bow.to_token_ids() {
                tokens.push(w as u32);
            }
            doc_offsets.push(tokens.len());
        }
        // Topic assignment per token, initialized uniformly at random
        // (document order, so the init stream matches the historical
        // nested-vec layout bit for bit).
        let mut z: Vec<u32> = tokens.iter().map(|_| rng.gen_range(0..k) as u32).collect();

        let mut n_dk = vec![0u32; d * k]; // doc–topic counts, row-major D × K
        let mut n_kw = vec![0u32; v * k]; // topic–word counts, word-major V × K
        let mut n_k = vec![0u64; k]; // topic totals
        for di in 0..d {
            for ti in doc_offsets[di]..doc_offsets[di + 1] {
                let w = tokens[ti] as usize;
                let t = z[ti] as usize;
                n_dk[di * k + t] += 1;
                n_kw[w * k + t] += 1;
                n_k[t] += 1;
            }
        }

        match config.sampler {
            LdaSampler::Dense if k >= PREFIX_DRAW_MIN_TOPICS => dense_sweeps::<true>(
                config,
                &tokens,
                &doc_offsets,
                &mut z,
                &mut n_dk,
                &mut n_kw,
                &mut n_k,
                v,
                &mut rng,
            ),
            LdaSampler::Dense => dense_sweeps::<false>(
                config,
                &tokens,
                &doc_offsets,
                &mut z,
                &mut n_dk,
                &mut n_kw,
                &mut n_k,
                v,
                &mut rng,
            ),
            LdaSampler::Sparse => sparse_sweeps(
                config,
                &tokens,
                &doc_offsets,
                &mut z,
                &mut n_dk,
                &mut n_kw,
                &mut n_k,
                v,
                &mut rng,
            ),
        }
        if !tokens.is_empty() && config.iterations > 0 {
            forumcast_obs::counter_add(
                "lda.gibbs.tokens",
                tokens.len() as u64 * config.iterations as u64,
            );
        }

        // Point estimates.
        let alpha = config.alpha;
        let beta = config.beta;
        let vbeta = v as f64 * beta;
        // φ is served topic-major, so the word-major counts are
        // transposed here, once, into the K × V output.
        let denom: Vec<f64> = n_k.iter().map(|&nk| nk as f64 + vbeta).collect();
        let mut phi = vec![0.0f64; k * v];
        for (w, counts) in n_kw.chunks_exact(k).enumerate() {
            for (t, &c) in counts.iter().enumerate() {
                phi[t * v + w] = (c as f64 + beta) / denom[t];
            }
        }
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

    /// Topic–word distribution `φ_k`.
    ///
    /// # Panics
    ///
    /// Panics when `topic >= K`.
    pub fn topic_words(&self, topic: usize) -> &[f64] {
        &self.phi[topic * self.num_words..(topic + 1) * self.num_words]
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
        let n_dk = match self.config.sampler {
            LdaSampler::Dense if k >= PREFIX_DRAW_MIN_TOPICS => {
                self.infer_counts_dense::<true>(&tokens, seed)
            }
            LdaSampler::Dense => self.infer_counts_dense::<false>(&tokens, seed),
            LdaSampler::Sparse => self.infer_counts_sparse(&tokens, seed),
        };
        let alpha = self.config.alpha;
        let denom = tokens.len() as f64 + k as f64 * alpha;
        (0..k).map(|t| (n_dk[t] as f64 + alpha) / denom).collect()
    }

    /// Reference fold-in: the full `K`-term conditional per token,
    /// drawn by [`sample_index_prefix`] from [`PREFIX_DRAW_MIN_TOPICS`]
    /// topics up (same index, same bits).
    fn infer_counts_dense<const PREFIX_DRAW: bool>(&self, tokens: &[usize], seed: u64) -> Vec<u32> {
        let k = self.config.num_topics;
        let v = self.num_words;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut z: Vec<usize> = tokens.iter().map(|_| rng.gen_range(0..k)).collect();
        let mut n_dk = vec![0u32; k];
        for &t in &z {
            n_dk[t] += 1;
        }
        let alpha = self.config.alpha;
        let mut probs = vec![0.0f64; k];
        let mut prefix = vec![0.0f64; if PREFIX_DRAW { k + 1 } else { 0 }];
        for _sweep in 0..self.config.infer_iterations {
            for (ti, &w) in tokens.iter().enumerate() {
                let old = z[ti];
                n_dk[old] -= 1;
                let conditional = |t: usize| (n_dk[t] as f64 + alpha) * self.phi[t * v + w];
                let mut total = 0.0;
                let new = if PREFIX_DRAW {
                    for (t, (p, s)) in probs.iter_mut().zip(&mut prefix[1..]).enumerate() {
                        *p = conditional(t);
                        total += *p;
                        *s = total;
                    }
                    sample_index_prefix(&probs, &prefix, &mut rng)
                } else {
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

    /// Bucket fold-in: `p(z = k) ∝ α·φ_{k,w} + n_dk·φ_{k,w}` splits
    /// into a per-word smoothing mass `s_w = α·Σ_k φ_{k,w}` (computed
    /// once per token position, amortized over all sweeps) and a
    /// document bucket walked over the doc's active topics only.
    fn infer_counts_sparse(&self, tokens: &[usize], seed: u64) -> Vec<u32> {
        let k = self.config.num_topics;
        let v = self.num_words;
        let alpha = self.config.alpha;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut z: Vec<usize> = tokens.iter().map(|_| rng.gen_range(0..k)).collect();
        let mut n_dk = vec![0u32; k];
        for &t in &z {
            n_dk[t] += 1;
        }
        // Smoothing mass per token position; one K-walk per token for
        // the whole call instead of one per token per sweep.
        let s_w: Vec<f64> = tokens
            .iter()
            .map(|&w| alpha * (0..k).map(|t| self.phi[t * v + w]).sum::<f64>())
            .collect();
        let mut active: Vec<u32> = (0..k as u32).filter(|&t| n_dk[t as usize] > 0).collect();
        let mut hits = BucketHits::default();
        let mut degenerate = 0u64;
        for _sweep in 0..self.config.infer_iterations {
            for (ti, &w) in tokens.iter().enumerate() {
                let old = z[ti];
                n_dk[old] -= 1;
                if n_dk[old] == 0 {
                    let pos = active
                        .iter()
                        .position(|&t| t as usize == old)
                        .expect("active-topic list out of sync with document counts");
                    active.swap_remove(pos);
                }
                let mut r_sum = 0.0;
                for &t in &active {
                    r_sum += n_dk[t as usize] as f64 * self.phi[t as usize * v + w];
                }
                let total = s_w[ti] + r_sum;
                let u = rng.gen::<f64>();
                let new = if !(total.is_finite() && total > 0.0) {
                    debug_assert!(
                        false,
                        "degenerate fold-in row: total = {total} over {k} topics"
                    );
                    degenerate += 1;
                    ((u * k as f64) as usize).min(k - 1)
                } else {
                    let mut x = u * total;
                    if x < r_sum {
                        hits.r += 1;
                        let mut pick = active[active.len() - 1] as usize;
                        for &t in &active {
                            x -= n_dk[t as usize] as f64 * self.phi[t as usize * v + w];
                            if x <= 0.0 {
                                pick = t as usize;
                                break;
                            }
                        }
                        pick
                    } else {
                        hits.s += 1;
                        x -= r_sum;
                        let mut pick = k - 1;
                        for t in 0..k {
                            x -= alpha * self.phi[t * v + w];
                            if x <= 0.0 {
                                pick = t;
                                break;
                            }
                        }
                        pick
                    }
                };
                z[ti] = new;
                n_dk[new] += 1;
                if n_dk[new] == 1 {
                    active.push(new as u32);
                }
            }
        }
        hits.flush();
        if degenerate > 0 {
            forumcast_obs::counter_add("lda.sample.degenerate", degenerate);
        }
        n_dk
    }

    /// Batch fold-in inference: [`LdaModel::infer`] over many
    /// held-out documents on up to `threads` worker threads
    /// (`0` = auto). Each document carries its own seed, so every
    /// inference is independent and the output — collected in input
    /// order — is bitwise-identical for any thread count.
    pub fn infer_batch(&self, docs: &[(BagOfWords, u64)], threads: usize) -> Vec<Vec<f64>> {
        let _span = forumcast_obs::span("lda.infer_batch");
        let threads = forumcast_par::resolve_threads(threads);
        forumcast_par::parallel_map(docs, threads, |(doc, seed)| self.infer(doc, *seed))
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
        let row = self.topic_words(topic);
        let n = n.min(self.num_words);
        if n == 0 {
            return Vec::new();
        }
        let by_prob_desc_then_id =
            |a: &usize, b: &usize| row[*b].total_cmp(&row[*a]).then_with(|| a.cmp(b));
        let mut idx: Vec<usize> = (0..self.num_words).collect();
        if n < idx.len() {
            idx.select_nth_unstable_by(n - 1, by_prob_desc_then_id);
            idx.truncate(n);
        }
        idx.sort_unstable_by(by_prob_desc_then_id);
        idx
    }
}

/// Topic count from which the dense samplers draw with
/// [`sample_index_prefix`]. Below it, the fused conditional-and-total
/// loop plus the short walk is faster (`sampler_throughput`).
const PREFIX_DRAW_MIN_TOPICS: usize = 24;

/// The reference dense Gibbs sweeps: per token, the full `K`-term
/// conditional. Bitwise-identical to the historical implementation
/// (same RNG stream, same floating-point operation order).
///
/// The conditional's row and denominator operands are cached as `f64`
/// (`n_dk + α` for the current document, `n_k + Vβ` per topic) and only
/// the two topics a token leaves and joins are refreshed. The cached
/// values equal the ones computed inline, so every product and quotient
/// is unchanged. From [`PREFIX_DRAW_MIN_TOPICS`] topics up, the
/// conditionals are computed first and summed after, and the topic is
/// drawn by [`sample_index_prefix`]; the total and the index are the
/// same bits either way.
#[allow(clippy::too_many_arguments)]
fn dense_sweeps<const PREFIX_DRAW: bool>(
    config: &LdaConfig,
    tokens: &[u32],
    doc_offsets: &[usize],
    z: &mut [u32],
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
    let mut probs = vec![0.0f64; k];
    let mut prefix = vec![0.0f64; k + 1];
    let mut nk_vbeta: Vec<f64> = n_k.iter().map(|&nk| nk as f64 + vbeta).collect();
    let mut ndk_alpha = vec![0.0f64; k];
    for _sweep in 0..config.iterations {
        forumcast_obs::counter_add("lda.gibbs.sweeps", 1);
        for di in 0..doc_offsets.len() - 1 {
            let ndk = &mut n_dk[di * k..(di + 1) * k];
            for (a, &c) in ndk_alpha.iter_mut().zip(ndk.iter()) {
                *a = c as f64 + alpha;
            }
            for ti in doc_offsets[di]..doc_offsets[di + 1] {
                let nkw = &mut n_kw[tokens[ti] as usize * k..][..k];
                let old = z[ti] as usize;
                ndk[old] -= 1;
                nkw[old] -= 1;
                n_k[old] -= 1;
                ndk_alpha[old] = ndk[old] as f64 + alpha;
                nk_vbeta[old] = n_k[old] as f64 + vbeta;

                let conditionals = probs
                    .iter_mut()
                    .zip(&ndk_alpha)
                    .zip(nkw.iter())
                    .zip(&nk_vbeta);
                let new = if PREFIX_DRAW {
                    // No loop-carried dependency: the divisions vectorize.
                    for (((p, &a), &c), &denom) in conditionals {
                        *p = a * (c as f64 + beta) / denom;
                    }
                    let mut total = 0.0;
                    for (s, &p) in prefix[1..].iter_mut().zip(&probs) {
                        total += p;
                        *s = total;
                    }
                    sample_index_prefix(&probs, &prefix, rng)
                } else {
                    let mut total = 0.0;
                    for (((p, &a), &c), &denom) in conditionals {
                        *p = a * (c as f64 + beta) / denom;
                        total += *p;
                    }
                    sample_index(&probs, total, rng)
                };
                z[ti] = new as u32;
                ndk[new] += 1;
                nkw[new] += 1;
                n_k[new] += 1;
                ndk_alpha[new] = ndk[new] as f64 + alpha;
                nk_vbeta[new] = n_k[new] as f64 + vbeta;
            }
        }
    }
}

/// SparseLDA sweeps: the conditional is split into smoothing (`s`),
/// document (`r`), and word (`q`) buckets with incrementally
/// maintained partial sums, so a token resample walks only the
/// document's active topics and the word's nonzero topics. The bucket
/// sums are rebuilt at sweep (`s`) and document (`r`, `q_coef`) starts
/// to bound floating-point drift; the walks carry a guarded
/// last-element fallback for the residual ulps.
#[allow(clippy::too_many_arguments)]
fn sparse_sweeps(
    config: &LdaConfig,
    tokens: &[u32],
    doc_offsets: &[usize],
    z: &mut [u32],
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
    let ab = alpha * beta;

    // Cached reciprocals 1/(n_k + Vβ): the dense path pays K divisions
    // per token, this pays two (one per changed topic).
    let mut inv_nk: Vec<f64> = n_k.iter().map(|&nk| 1.0 / (nk as f64 + vbeta)).collect();
    // Per-word list of topics with n_kw > 0, ascending — the `q` walk
    // domain.
    let mut word_topics: Vec<Vec<u32>> = n_kw
        .chunks_exact(k)
        .map(|counts| (0..k as u32).filter(|&t| counts[t as usize] > 0).collect())
        .collect();
    // Per-document scratch, reused across all documents.
    let mut q_coef = vec![0.0f64; k];
    let mut q_terms: Vec<f64> = Vec::with_capacity(k);
    let mut active: Vec<u32> = Vec::with_capacity(k);

    let mut hits = BucketHits::default();
    let mut degenerate = 0u64;
    for _sweep in 0..config.iterations {
        forumcast_obs::counter_add("lda.gibbs.sweeps", 1);
        // Rebuild the smoothing bucket each sweep to bound drift.
        let mut s_sum: f64 = inv_nk.iter().map(|&inv| ab * inv).sum();
        for di in 0..doc_offsets.len() - 1 {
            let doc = &tokens[doc_offsets[di]..doc_offsets[di + 1]];
            if doc.is_empty() {
                continue;
            }
            // Document bucket and coefficients, rebuilt per document.
            active.clear();
            let mut r_sum = 0.0;
            for t in 0..k {
                let ndk = n_dk[di * k + t];
                q_coef[t] = (ndk as f64 + alpha) * inv_nk[t];
                if ndk > 0 {
                    active.push(t as u32);
                    r_sum += ndk as f64 * beta * inv_nk[t];
                }
            }
            for ti in doc_offsets[di]..doc_offsets[di + 1] {
                let w = tokens[ti] as usize;
                let old = z[ti] as usize;

                // Remove the token's current assignment, updating the
                // bucket sums around the count changes.
                s_sum -= ab * inv_nk[old];
                r_sum -= n_dk[di * k + old] as f64 * beta * inv_nk[old];
                n_dk[di * k + old] -= 1;
                n_kw[w * k + old] -= 1;
                if n_kw[w * k + old] == 0 {
                    let wt = &mut word_topics[w];
                    let pos = wt
                        .iter()
                        .position(|&t| t as usize == old)
                        .expect("word-topic list out of sync with counts");
                    wt.swap_remove(pos);
                }
                n_k[old] -= 1;
                inv_nk[old] = 1.0 / (n_k[old] as f64 + vbeta);
                s_sum += ab * inv_nk[old];
                r_sum += n_dk[di * k + old] as f64 * beta * inv_nk[old];
                q_coef[old] = (n_dk[di * k + old] as f64 + alpha) * inv_nk[old];
                if n_dk[di * k + old] == 0 {
                    let pos = active
                        .iter()
                        .position(|&t| t as usize == old)
                        .expect("active-topic list out of sync with counts");
                    active.swap_remove(pos);
                }

                // Word bucket: mass over the word's nonzero topics.
                let wt = &word_topics[w];
                q_terms.clear();
                let mut q_sum = 0.0;
                for &t in wt {
                    let term = q_coef[t as usize] * n_kw[w * k + t as usize] as f64;
                    q_terms.push(term);
                    q_sum += term;
                }

                let total = q_sum + r_sum + s_sum;
                let u = rng.gen::<f64>();
                let new = if !(total.is_finite() && total > 0.0) {
                    debug_assert!(
                        false,
                        "degenerate sparse sampling row: total = {total} over {k} topics"
                    );
                    degenerate += 1;
                    ((u * k as f64) as usize).min(k - 1)
                } else {
                    let mut x = u * total;
                    if x < q_sum {
                        hits.q += 1;
                        let mut pick = wt[wt.len() - 1] as usize;
                        for (i, &t) in wt.iter().enumerate() {
                            x -= q_terms[i];
                            if x <= 0.0 {
                                pick = t as usize;
                                break;
                            }
                        }
                        pick
                    } else if x < q_sum + r_sum && !active.is_empty() {
                        hits.r += 1;
                        x -= q_sum;
                        let mut pick = active[active.len() - 1] as usize;
                        for &t in &active {
                            x -= n_dk[di * k + t as usize] as f64 * beta * inv_nk[t as usize];
                            if x <= 0.0 {
                                pick = t as usize;
                                break;
                            }
                        }
                        pick
                    } else {
                        hits.s += 1;
                        x -= q_sum + r_sum;
                        let mut pick = k - 1;
                        for (t, &inv) in inv_nk.iter().enumerate() {
                            x -= ab * inv;
                            if x <= 0.0 {
                                pick = t;
                                break;
                            }
                        }
                        pick
                    }
                };

                // Add the new assignment back, mirroring the removal.
                s_sum -= ab * inv_nk[new];
                r_sum -= n_dk[di * k + new] as f64 * beta * inv_nk[new];
                if n_kw[w * k + new] == 0 {
                    word_topics[w].push(new as u32);
                }
                n_kw[w * k + new] += 1;
                n_k[new] += 1;
                inv_nk[new] = 1.0 / (n_k[new] as f64 + vbeta);
                n_dk[di * k + new] += 1;
                if n_dk[di * k + new] == 1 {
                    active.push(new as u32);
                }
                s_sum += ab * inv_nk[new];
                r_sum += n_dk[di * k + new] as f64 * beta * inv_nk[new];
                q_coef[new] = (n_dk[di * k + new] as f64 + alpha) * inv_nk[new];
                z[ti] = new as u32;
            }
        }
    }
    hits.flush();
    if degenerate > 0 {
        forumcast_obs::counter_add("lda.sample.degenerate", degenerate);
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

/// Draws the same index as [`sample_index`] from the same single RNG
/// draw, but by comparing against prefix totals instead of walking.
///
/// `prefix` holds `K + 1` entries: `prefix[0] = 0` and
/// `prefix[i + 1] = S_i = fl(S_{i−1} + p_i)`, the running total of the
/// nonnegative `probs` summed in index order, so that `prefix[K]` is
/// exactly the `total` [`sample_index`] is given.
///
/// # Why the index is exact
///
/// Both draws scale one `r ∈ [0, 1)` to `u = fl(r · total) ≤ total`.
/// The walk keeps `w_i = fl(w_{i−1} − p_i)` (`w_{−1} = u`) and returns
/// the first `i` with `w_i ≤ 0`, or `K − 1` if none. Every `p_i ≥ 0`,
/// so `S_i` never decreases and `w_i` never increases. With unit
/// roundoff `ε/2` (`ε` = [`f64::EPSILON`]), each of the `i` additions
/// behind `S_i` and each of the `i + 1` subtractions behind `w_i`
/// (taken while `w ≥ 0`) errs by at most `ε/2` of a partial result no
/// larger than `total · (1 + Kε)`. Hence, for every `i` up to the
/// walk's stop,
///
/// ```text
/// |w_i − (u − S_i)| ≤ (2i + 1) · ε/2 · total · (1 + Kε) < (K + 1) · ε · total.
/// ```
///
/// Let `j` be the number of `S_i` below `u`, i.e. the first index with
/// `S_j ≥ u`. If `u − S_{j−1}` and `S_j − u` both exceed the guard band
/// `(2K + 4) · ε · total`, then `w_{j−1} > 0` (so every earlier `w` is
/// too) and `w_j < 0`: the walk stops at `j` as well. The band is twice
/// the bound plus slack, which absorbs the rounding of the band itself
/// and of the two differences. `S_{−1} = 0` and `S_{K−1} = total` make
/// the test stricter than needed at the ends, which costs only draws
/// within one band of `0` or `total`. A draw inside the band, or a
/// row whose band is not a normal float (a degenerate or subnormal
/// `total`), runs the walk itself.
fn sample_index_prefix(probs: &[f64], prefix: &[f64], rng: &mut StdRng) -> usize {
    let r = rng.gen::<f64>();
    prefix_index(prefix, r).unwrap_or_else(|| walk_index(probs, prefix[probs.len()], r))
}

/// The guarded comparison of [`sample_index_prefix`] for the uniform
/// draw `r`: the walk's index, or `None` when `u` lies inside the
/// guard band of a prefix total or the band is not a normal float.
fn prefix_index(prefix: &[f64], r: f64) -> Option<usize> {
    let k = prefix.len() - 1;
    let total = prefix[k];
    let band = total * ((2 * k + 4) as f64 * f64::EPSILON);
    if !(f64::MIN_POSITIVE..f64::INFINITY).contains(&band) {
        return None;
    }
    let u = r * total;
    // A branch-free count, which vectorizes; `u ≤ total` keeps `j < K`.
    let j = prefix[1..].iter().filter(|&&s| s < u).count();
    ((u - prefix[j] > band) & (prefix[j + 1] - u > band)).then_some(j)
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

    /// Pins the exact output bits of both samplers: φ, θ and one
    /// fold-in. Any change to the sweep's RNG use or floating-point
    /// operation order shows up here, not only as drift in quality.
    /// The dense rows straddle [`PREFIX_DRAW_MIN_TOPICS`], and their
    /// hashes predate the prefix-total draw: both the fused walk and
    /// the prefix draw must reproduce them.
    #[test]
    fn output_bits_are_pinned() {
        let corpus = themed_corpus();
        // With one topic both samplers are forced to the same state.
        let k1 = [0x3068ae9f53d99165, 0xf8d0cf8b73597625, 0xaab1693229ba1db8];
        let expected: [(LdaSampler, usize, [u64; 3]); 11] = [
            (LdaSampler::Dense, 1, k1),
            (
                LdaSampler::Dense,
                4,
                [0xc9591fb44c37bd8d, 0x44089a2374be7a3c, 0xe8272c7db14bacc6],
            ),
            (
                LdaSampler::Dense,
                16,
                [0xb500cbcee01a770f, 0xd6e8058e9ee301fb, 0x608f3c5ea3c6d8bc],
            ),
            (
                LdaSampler::Dense,
                20,
                [0x9d3035b8c38c1414, 0xbdd7e3ab45a758a9, 0x8c06247a7e4ad4df],
            ),
            (
                LdaSampler::Dense,
                24,
                [0xc3f107777f78c62c, 0x55301b5082079adf, 0xb5ec956efb1c640c],
            ),
            (
                LdaSampler::Dense,
                32,
                [0x1c5993e655ecc173, 0x0e3995218d344f63, 0x32c921f00667373d],
            ),
            (
                LdaSampler::Dense,
                64,
                [0x95c435554b1fde7a, 0x2a919b1a5fb89dbd, 0x59bd50382cd59359],
            ),
            (
                LdaSampler::Dense,
                256,
                [0x07d5aedd93401b3d, 0x40f9a5d1549f091d, 0xfd4c41fa26b92091],
            ),
            (LdaSampler::Sparse, 1, k1),
            (
                LdaSampler::Sparse,
                4,
                [0x53257a23bd1dd5ca, 0x762e84538c4a934d, 0x68037ac4b37f1a21],
            ),
            (
                LdaSampler::Sparse,
                64,
                [0xb7d4dc60bffef26b, 0x1bae72f5eb1dc7d3, 0xc3d82d4005ab1e55],
            ),
        ];
        let got: Vec<[u64; 3]> = expected
            .iter()
            .map(|&(sampler, k, _)| {
                let cfg = LdaConfig::new(k)
                    .with_iterations(25)
                    .with_seed(0xD1CE)
                    .with_sampler(sampler);
                let model = LdaModel::train(&corpus, &cfg);
                [
                    fnv_bits((0..k).flat_map(|t| model.topic_words(t))),
                    fnv_bits((0..corpus.num_docs()).flat_map(|d| model.doc_topics(d))),
                    fnv_bits(&model.infer(corpus.doc(5), 17)),
                ]
            })
            .collect();
        for ((sampler, k, want), got_row) in expected.iter().zip(&got) {
            assert_eq!(
                got_row, want,
                "{sampler} K={k} [φ, θ, infer]; all rows: {got:#x?}"
            );
        }
    }

    /// `prefix[0] = 0` followed by the running totals of `probs`, as the
    /// dense sweeps build them.
    fn prefix_of(probs: &[f64]) -> Vec<f64> {
        let mut total = 0.0;
        let mut prefix = vec![0.0];
        prefix.extend(probs.iter().map(|&p| {
            total += p;
            total
        }));
        prefix
    }

    /// Asserts the prefix draw picks the walk's index for every `r` in
    /// `spread` and for every `r` within `ulps` units in the last place
    /// of one that scales to a prefix total (`0` included). Those
    /// near-boundary draws must take the fallback whenever the row's
    /// band is a normal float.
    fn assert_prefix_draw_matches_walk(probs: &[f64], spread: &[f64], ulps: i64) {
        let prefix = prefix_of(probs);
        let k = probs.len();
        let total = prefix[k];
        let near: Vec<f64> = prefix
            .iter()
            .flat_map(|&s| {
                let at = (s / total).to_bits() as i64;
                (-ulps..=ulps).map(move |d| f64::from_bits((at + d).max(0) as u64))
            })
            .filter(|r| (0.0..1.0).contains(r))
            .collect();
        for &r in spread.iter().chain(&near) {
            let walk = walk_index(probs, total, r);
            let fast = prefix_index(&prefix, r);
            assert!(
                fast.is_none() || fast == Some(walk),
                "K={k} r={r:e}: prefix draw {fast:?}, walk {walk}; probs {probs:?}"
            );
        }
        if total * ((2 * k + 4) as f64 * f64::EPSILON) >= f64::MIN_POSITIVE {
            for &r in &near {
                assert_eq!(
                    prefix_index(&prefix, r),
                    None,
                    "K={k}: r={r:e} sits near a prefix total but skipped the walk"
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
        /// The prefix-total draw returns the walk's index for random
        /// and adversarial rows at K = 1…256, including draws a few
        /// ulps from every prefix boundary (which must fall back).
        #[test]
        fn prefix_draw_equals_walk_on_adversarial_rows(
            row in proptest::collection::vec(adversarial_entry(), 1..=256),
            spread in proptest::collection::vec(0.0f64..1.0, 16),
        ) {
            let mut probs = row;
            if probs.iter().all(|&p| p == 0.0) {
                probs[0] = 1.0;
            }
            assert_prefix_draw_matches_walk(&probs, &spread, 3);
        }
    }

    /// Every K from 1 to 256, on Gibbs-like rows (products and quotients
    /// of small counts), draws from a seeded RNG, and the RNG stream:
    /// both draws consume exactly one value.
    #[test]
    fn prefix_draw_equals_sample_index_for_every_k() {
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
                assert_prefix_draw_matches_walk(&probs, &spread, 2);
                let prefix = prefix_of(&probs);
                let mut a = StdRng::seed_from_u64(k as u64);
                let mut b = a.clone();
                for _ in 0..64 {
                    assert_eq!(
                        sample_index_prefix(&probs, &prefix, &mut a),
                        sample_index(&probs, prefix[k], &mut b),
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
        let cfg = LdaConfig::new(2)
            .with_iterations(100)
            .with_priors(0.1, 0.01)
            .with_seed(11);
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
    fn sparse_sampler_separates_themes_too() {
        let (corpus, _) = separable_corpus();
        let cfg = LdaConfig::new(2)
            .with_iterations(100)
            .with_priors(0.1, 0.01)
            .with_seed(11)
            .with_sampler(LdaSampler::Sparse);
        let model = LdaModel::train(&corpus, &cfg);
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
            assert_eq!(
                dominant == cat_topic,
                d % 2 == 0,
                "doc {d} landed on the wrong theme: {theta:?}"
            );
            assert!(theta[dominant] > 0.7, "doc {d} not concentrated: {theta:?}");
        }
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (corpus, _) = separable_corpus();
        for sampler in [LdaSampler::Dense, LdaSampler::Sparse] {
            let cfg = LdaConfig::new(2)
                .with_iterations(20)
                .with_seed(5)
                .with_sampler(sampler);
            let m1 = LdaModel::train(&corpus, &cfg);
            let m2 = LdaModel::train(&corpus, &cfg);
            assert_eq!(m1.doc_topics(3), m2.doc_topics(3), "{sampler} θ");
            assert_eq!(m1.topic_words(1), m2.topic_words(1), "{sampler} φ");
        }
    }

    /// The sparse path maintains its counts incrementally; after
    /// training, its final state must still describe the same corpus
    /// (θ rows sum to 1, φ rows sum to 1 — i.e. no count was lost).
    #[test]
    fn sparse_final_state_is_consistent() {
        let (corpus, _) = separable_corpus();
        let cfg = LdaConfig::new(3)
            .with_iterations(30)
            .with_sampler(LdaSampler::Sparse);
        let model = LdaModel::train(&corpus, &cfg);
        for d in 0..corpus.num_docs() {
            assert!((model.doc_topics(d).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for t in 0..3 {
            assert!((model.topic_words(t).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn inference_matches_training_theme() {
        let (corpus, vocab) = separable_corpus();
        for sampler in [LdaSampler::Dense, LdaSampler::Sparse] {
            let cfg = LdaConfig::new(2)
                .with_iterations(100)
                .with_priors(0.1, 0.01)
                .with_sampler(sampler);
            let model = LdaModel::train(&corpus, &cfg);
            let cat_doc = forumcast_text::BagOfWords::encode(
                &["cat", "meow", "purr", "cat", "whisker", "meow"],
                &vocab,
            );
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
                "held-out cat doc got {theta:?} with {sampler} (cat topic {cat_topic})"
            );
        }
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
        for sampler in [LdaSampler::Dense, LdaSampler::Sparse] {
            let cfg = LdaConfig::new(1).with_iterations(5).with_sampler(sampler);
            let model = LdaModel::train(&corpus, &cfg);
            assert_eq!(model.doc_topics(0), &[1.0]);
            let theta = model.infer(corpus.doc(0), 3);
            assert_eq!(theta, vec![1.0]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one topic")]
    fn zero_topics_rejected() {
        LdaConfig::new(0);
    }

    #[test]
    fn empty_corpus_trains_trivially() {
        let corpus = Corpus::from_bows(vec![], 0);
        for sampler in [LdaSampler::Dense, LdaSampler::Sparse] {
            let cfg = LdaConfig::new(2).with_iterations(5).with_sampler(sampler);
            let model = LdaModel::train(&corpus, &cfg);
            assert_eq!(model.num_topics(), 2);
            assert_eq!(model.num_docs(), 0);
        }
    }

    #[test]
    fn batch_inference_bitwise_matches_serial_for_any_thread_count() {
        let (corpus, _) = separable_corpus();
        for sampler in [LdaSampler::Dense, LdaSampler::Sparse] {
            let cfg = LdaConfig::new(3).with_iterations(20).with_sampler(sampler);
            let model = LdaModel::train(&corpus, &cfg);
            let docs: Vec<(forumcast_text::BagOfWords, u64)> = (0..corpus.num_docs())
                .map(|d| (corpus.doc(d).clone(), d as u64 * 13 + 1))
                .collect();
            let serial: Vec<Vec<f64>> = docs
                .iter()
                .map(|(doc, seed)| model.infer(doc, *seed))
                .collect();
            for threads in [1, 2, 7] {
                let batch = model.infer_batch(&docs, threads);
                assert_eq!(batch.len(), serial.len());
                for (d, (a, b)) in serial.iter().zip(&batch).enumerate() {
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "doc {d} differs with {threads} threads ({sampler})"
                        );
                    }
                }
            }
        }
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
    fn config_missing_sampler_field_defaults_to_dense() {
        let json = serde_json::to_string(&LdaConfig::new(2)).unwrap();
        // Simulate a config saved before the sampler field existed.
        let stripped = json
            .replace(",\"sampler\":\"Dense\"", "")
            .replace("\"sampler\":\"Dense\",", "");
        assert!(!stripped.contains("sampler"), "{stripped}");
        let back: LdaConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.sampler, LdaSampler::Dense);
    }

    #[test]
    fn sampler_parses_from_cli_spelling() {
        assert_eq!("dense".parse::<LdaSampler>().unwrap(), LdaSampler::Dense);
        assert_eq!("sparse".parse::<LdaSampler>().unwrap(), LdaSampler::Sparse);
        assert!("fancy".parse::<LdaSampler>().is_err());
        assert_eq!(LdaSampler::Sparse.to_string(), "sparse");
    }

    #[test]
    fn top_words_breaks_ties_by_word_id() {
        // Uniform φ row: every word ties, so top-n must be the first n
        // word ids.
        let corpus = Corpus::from_bows(
            vec![forumcast_text::BagOfWords::from_ids(&[0, 1, 2, 3, 4])],
            5,
        );
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
