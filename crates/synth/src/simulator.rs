//! A stateful forum simulator: the generative process behind
//! [`crate::generate`], exposed step by step so downstream code can
//! *intervene* in answerer selection — the hook the A/B-testing
//! harness (`forumcast-abtest`) uses to deploy the paper's Section-V
//! recommender inside the simulation (the paper's stated future work).
//!
//! # Sharded determinism
//!
//! Question `i` draws every random number from its own
//! [`derive_question_seed`]-derived stream, and the social interaction
//! memory resets at fixed [`SHARD_SIZE`] boundaries. Consequently the
//! forum decomposes into independent shards of `SHARD_SIZE` questions:
//! a worker positioned at a shard start via
//! [`ForumSimulator::at_question`] reproduces exactly the threads a
//! serial [`run_organic`](ForumSimulator::run_organic) sweep would
//! produce for that range. [`crate::generate`] exploits this to fan
//! shards out over `forumcast-par` with a fixed-order merge —
//! bitwise-identical output at any thread count — and the stream is
//! prefix-stable: growing `num_questions` never perturbs earlier
//! questions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

use forumcast_data::{Hours, Post, PostBody, Thread, UserId};

use crate::config::{SynthConfig, TimingNoise};
use crate::population::{lognormal, sample_dirichlet, standard_normal, Population};
use crate::text::{sample_categorical, TextGenerator};

/// Questions per generation shard. The social interaction memory
/// resets at multiples of this, making shards independent; the value
/// is part of the canonical output (changing it changes the dataset a
/// seed produces), so treat it like a format constant.
pub const SHARD_SIZE: usize = 256;

/// Derives the per-question RNG seed from the forum seed — a
/// splitmix64-style finalizer, the same trick the LDA fold-in uses.
/// Statistically independent streams per question, stable under
/// changes to `num_questions` or thread count.
pub fn derive_question_seed(seed: u64, question_id: u32) -> u64 {
    let mut z = seed ^ (question_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One simulated question arrival, with everything an intervention
/// policy may inspect: the question post, the asker, and the organic
/// candidate pool.
#[derive(Debug, Clone)]
pub struct QuestionEvent {
    /// Sequential question id.
    pub id: u32,
    /// The question post (author, timestamp, votes, body).
    pub question: Post,
    /// How many answers the thread will organically receive (0 =
    /// unanswered).
    pub num_answers: usize,
    /// The organic candidate pool (asker excluded, deduplicated).
    pub candidates: Vec<u32>,
    /// Latent topic mixture of the question (available to policies
    /// for oracle studies; real deployments would infer it).
    pub mixture: Vec<f64>,
}

impl QuestionEvent {
    /// The asker.
    pub fn asker(&self) -> UserId {
        self.question.author
    }

    /// Question timestamp in hours.
    pub fn time(&self) -> Hours {
        self.question.timestamp
    }
}

/// Read-only state every shard worker shares: the latent population,
/// vocabulary, and cumulative sampling tables. Sampled once in
/// [`ForumSimulator::new`], then shared by reference between workers.
#[derive(Debug)]
struct Shared {
    config: SynthConfig,
    pop: Population,
    text: TextGenerator,
    horizon: Hours,
    cum_activity: Vec<f64>,
    cum_asking: Vec<f64>,
}

/// The stateful simulator. Create with [`ForumSimulator::new`], then
/// repeatedly: [`next_question`](Self::next_question) → choose
/// answerers (organically via
/// [`organic_answerers`](Self::organic_answerers) or by any policy) →
/// [`realize_answer`](Self::realize_answer) per answerer →
/// [`finish_thread`](Self::finish_thread).
#[derive(Debug, Clone)]
pub struct ForumSimulator {
    shared: Arc<Shared>,
    rng: StdRng,
    interactions: HashMap<(u32, u32), f64>,
    next_id: u32,
}

impl ForumSimulator {
    /// Creates a simulator (samples the latent population).
    pub fn new(config: &SynthConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let pop = Population::sample(config, &mut rng);
        let text = TextGenerator::new(config.num_topics, 40);
        let cum_activity = cumulative(pop.iter().map(|u| u.activity));
        let cum_asking = cumulative(pop.iter().map(|u| u.asking));
        ForumSimulator {
            shared: Arc::new(Shared {
                horizon: config.duration_hours(),
                config: config.clone(),
                pop,
                text,
                cum_activity,
                cum_asking,
            }),
            rng,
            interactions: HashMap::new(),
            next_id: 0,
        }
    }

    /// A worker positioned at question `id`, sharing this simulator's
    /// latent population without resampling it. The worker's social
    /// memory starts empty, so positioning at a [`SHARD_SIZE`]
    /// multiple reproduces the serial stream exactly from there.
    pub fn at_question(&self, id: u32) -> Self {
        ForumSimulator {
            shared: Arc::clone(&self.shared),
            rng: StdRng::seed_from_u64(derive_question_seed(self.shared.config.seed, id)),
            interactions: HashMap::new(),
            next_id: id,
        }
    }

    /// The latent population (for oracle analyses and tests).
    pub fn population(&self) -> &Population {
        &self.shared.pop
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.shared.config
    }

    /// Observation horizon in hours.
    pub fn horizon(&self) -> Hours {
        self.shared.horizon
    }

    /// Draws the next question arrival: asker, topics, body, votes,
    /// organic answer count, and candidate pool. Reseeds the RNG from
    /// the question id first, so the question (and everything realized
    /// for it afterwards) depends only on `(config.seed, id)` and the
    /// shard-local social memory.
    pub fn next_question(&mut self) -> QuestionEvent {
        self.rng =
            StdRng::seed_from_u64(derive_question_seed(self.shared.config.seed, self.next_id));
        if (self.next_id as usize).is_multiple_of(SHARD_SIZE) {
            self.interactions.clear();
        }
        let shared = Arc::clone(&self.shared);
        let config = &shared.config;
        let t_q = self.rng.gen_range(0.0..shared.horizon * 0.98);
        let asker = sample_cumulative(&mut self.rng, &shared.cum_asking) as u32;

        // Question topics: concentrated blend of one of the asker's
        // interest topics and a sparse Dirichlet background.
        let dominant =
            sample_categorical(&mut self.rng, &shared.pop.user(asker as usize).interests);
        let background = sample_dirichlet(&mut self.rng, config.num_topics, 0.2);
        let mixture: Vec<f64> = background
            .iter()
            .enumerate()
            .map(|(t, &b)| 0.3 * b + if t == dominant { 0.7 } else { 0.0 })
            .collect();

        // Lengths: log-normal, median ≈ 300 chars; code has higher
        // variance and is absent from ~20% of questions (Fig. 4e).
        let word_chars = lognormal(&mut self.rng, 300f64.ln(), 0.35) as usize;
        let code_chars = if self.rng.gen_bool(0.8) {
            lognormal(&mut self.rng, 300f64.ln(), 0.8) as usize
        } else {
            0
        };
        let q_body = PostBody::new(
            shared
                .text
                .words(&mut self.rng, &mixture, word_chars.max(20)),
            if code_chars > 0 {
                shared.text.code(&mut self.rng, code_chars)
            } else {
                String::new()
            },
        );
        let q_votes = (lognormal(&mut self.rng, 0.3, 0.9).round() as i32 - 1).clamp(-5, 100);
        let question = Post::new(UserId(asker), t_q, q_votes, q_body);

        let num_answers = if self.rng.gen_bool(config.unanswered_prob) {
            0
        } else {
            1 + poisson(&mut self.rng, config.extra_answers_mean)
        };

        let candidates = if num_answers > 0 {
            self.draw_candidate_pool(asker)
        } else {
            Vec::new()
        };

        let id = self.next_id;
        self.next_id += 1;
        QuestionEvent {
            id,
            question,
            num_answers,
            candidates,
            mixture,
        }
    }

    /// Candidate pool: the asker's past partners (always candidates —
    /// they follow the asker) topped up by activity-weighted sampling.
    fn draw_candidate_pool(&mut self, asker: u32) -> Vec<u32> {
        let shared = Arc::clone(&self.shared);
        let config = &shared.config;
        let mut partners: Vec<u32> = self
            .interactions
            .keys()
            .filter_map(|&(a, b)| {
                if a == asker {
                    Some(b)
                } else if b == asker {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        // HashMap iteration order is nondeterministic; sort to keep
        // the generator reproducible for a given seed.
        partners.sort_unstable();
        partners.truncate(config.candidate_pool / 3);
        let mut pool = partners;
        for _ in 0..config.candidate_pool * 2 {
            if pool.len() >= config.candidate_pool {
                break;
            }
            let c = sample_cumulative(&mut self.rng, &shared.cum_activity) as u32;
            if c != asker && !pool.contains(&c) {
                pool.push(c);
            }
        }
        pool
    }

    /// The organic answering weight of candidate `u` for this event —
    /// sub-linear activity × topical affinity × social familiarity.
    pub fn answer_weight(&self, ev: &QuestionEvent, u: u32) -> f64 {
        let p = self.shared.pop.user(u as usize);
        let s = topic_match(&p.interests, &ev.mixture);
        let social = *self
            .interactions
            .get(&pair(ev.asker().0, u))
            .unwrap_or(&0.0);
        p.activity.powf(0.4)
            * (self.shared.config.topic_affinity * s).exp()
            * (1.0 + self.shared.config.social_affinity * social)
    }

    /// Selects `ev.num_answers` answerers from the candidate pool by
    /// organic weighted sampling without replacement.
    pub fn organic_answerers(&mut self, ev: &QuestionEvent) -> Vec<u32> {
        if ev.candidates.is_empty() || ev.num_answers == 0 {
            return Vec::new();
        }
        let mut weights: Vec<f64> = ev
            .candidates
            .iter()
            .map(|&u| self.answer_weight(ev, u))
            .collect();
        let mut chosen = Vec::with_capacity(ev.num_answers);
        for _ in 0..ev.num_answers.min(ev.candidates.len()) {
            let i = sample_categorical(&mut self.rng, &weights);
            chosen.push(ev.candidates[i]);
            weights[i] = 0.0;
        }
        chosen
    }

    /// Probability that `u` accepts a recommendation to answer `ev`:
    /// `1 − exp(−κ · weight)` — candidates who would plausibly answer
    /// organically accept, uninterested ones decline. `kappa` scales
    /// the overall acceptance level.
    pub fn acceptance_probability(&self, ev: &QuestionEvent, u: u32, kappa: f64) -> f64 {
        1.0 - (-kappa * self.answer_weight(ev, u)).exp()
    }

    /// Flips the acceptance coin for a recommendation.
    pub fn accepts(&mut self, ev: &QuestionEvent, u: u32, kappa: f64) -> bool {
        let p = self.acceptance_probability(ev, u, kappa);
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Realizes user `u`'s answer to `ev` from their latent profile:
    /// point-process-informed delay and expertise-driven votes. May
    /// return a rare duplicate answer as well (preprocessing removes
    /// it). Updates the social interaction memory.
    pub fn realize_answer(&mut self, ev: &QuestionEvent, u: u32) -> Vec<Post> {
        let shared = Arc::clone(&self.shared);
        let config = &shared.config;
        let asker = ev.asker().0;
        let t_q = ev.time();
        let q_votes = ev.question.votes;
        let profile = shared.pop.user(u as usize);
        let s_topic = topic_match(&profile.interests, &ev.mixture);
        let social = *self.interactions.get(&pair(asker, u)).unwrap_or(&0.0);

        // Ground-truth point process λ(t) = μ e^{−ωt}. Both the
        // excitation and the decay scale with the user's
        // responsiveness: fast users answer early *and* their
        // interest decays quickly — this is what makes the user's
        // observed history (r_u, a_u) the dominant timing features,
        // as in the paper's Figure 6.
        let mu =
            (-2.4 + 1.6 * profile.responsiveness + 1.2 * s_topic + 0.4 * (1.0 + social).ln()).exp();
        let omega = config.decay_rate
            * (0.8 * profile.responsiveness + 0.3 * standard_normal(&mut self.rng)).exp();
        let max_delay = (shared.horizon - t_q).max(0.5);
        let mut delay = match config.timing_noise {
            TimingNoise::PointProcess => {
                sample_decaying_process(&mut self.rng, mu, omega, max_delay)
            }
            TimingNoise::Lognormal { sigma } => {
                let median = decaying_process_median(mu, omega, max_delay);
                (median * (sigma * standard_normal(&mut self.rng)).exp()).clamp(0.01, max_delay)
            }
        };
        // Rare zero-delay artifacts, as seen in the raw crawl
        // (removed by preprocessing).
        if self.rng.gen_bool(0.003) {
            delay = 0.0;
        }

        // Votes: expertise + question popularity + topic match.
        // Expertise is independent of the timing channel (Fig. 3);
        // popularity and topic match are exactly what the feature
        // vector observes (v_q, s_uq) while index-only MF cannot
        // recover them for held-out pairs — the paper's sparsity
        // argument.
        let votes = (0.7 * profile.expertise
            + 1.5 * (1.0 + q_votes.max(0) as f64).ln()
            + 1.2 * s_topic
            + 0.8 * standard_normal(&mut self.rng))
        .round() as i32;
        let votes = votes.clamp(-6, 80);

        // Answer text blends question topics and the answerer's own
        // interests.
        let blend: Vec<f64> = ev
            .mixture
            .iter()
            .zip(&profile.interests)
            .map(|(&m, &i)| 0.6 * m + 0.4 * i)
            .collect();
        let a_chars = lognormal(&mut self.rng, 150f64.ln(), 0.5) as usize;
        let a_body = PostBody::new(
            shared.text.words(&mut self.rng, &blend, a_chars.max(10)),
            if self.rng.gen_bool(0.3) {
                shared.text.code(&mut self.rng, 80)
            } else {
                String::new()
            },
        );
        let mut posts = vec![Post::new(UserId(u), t_q + delay, votes, a_body)];
        *self.interactions.entry(pair(asker, u)).or_insert(0.0) += 1.0;

        // Rare duplicate answer by the same user (removed by
        // preprocessing rule 2).
        if self.rng.gen_bool(0.003) {
            let dup_delay = delay + self.rng.gen_range(0.5..5.0);
            posts.push(Post::new(
                UserId(u),
                (t_q + dup_delay).min(shared.horizon),
                votes - 1,
                PostBody::words("duplicate follow-up"),
            ));
        }
        posts
    }

    /// Assembles the finished thread from an event and its realized
    /// answer posts.
    pub fn finish_thread(&self, ev: QuestionEvent, answers: Vec<Post>) -> Thread {
        Thread::new(ev.id, ev.question, answers)
    }

    /// Runs `n` questions fully organically, returning the threads —
    /// the building block of [`crate::generate`].
    pub fn run_organic(&mut self, n: usize) -> Vec<Thread> {
        let mut threads = Vec::with_capacity(n);
        for _ in 0..n {
            let ev = self.next_question();
            let answerers = self.organic_answerers(&ev);
            // One post per answerer, but for a rare duplicate.
            let mut answers = Vec::with_capacity(answerers.len());
            for u in answerers {
                answers.extend(self.realize_answer(&ev, u));
            }
            threads.push(self.finish_thread(ev, answers));
        }
        threads
    }
}

/// Total-variation similarity between two distributions.
pub(crate) fn topic_match(a: &[f64], b: &[f64]) -> f64 {
    let l1: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    1.0 - 0.5 * l1
}

/// Canonical unordered pair key.
pub(crate) fn pair(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Inverse-transform sample of the first event of an inhomogeneous
/// Poisson process with rate `λ(t) = μ e^{−ωt}`, conditioned on the
/// event landing in `(0, max_delay]`.
pub(crate) fn sample_decaying_process(
    rng: &mut StdRng,
    mu: f64,
    omega: f64,
    max_delay: Hours,
) -> Hours {
    debug_assert!(mu > 0.0 && omega > 0.0);
    let h_max = mu / omega * (1.0 - (-omega * max_delay).exp());
    let p_max = 1.0 - (-h_max).exp();
    let u: f64 = rng.gen_range(0.0..p_max.max(1e-12));
    let h = -(1.0 - u).ln();
    let inner = (1.0 - omega * h / mu).max(1e-12);
    let t = -inner.ln() / omega;
    t.clamp(0.01, max_delay)
}

/// Median of the first-event distribution of `λ(t) = μ e^{−ωt}`
/// conditioned on the event landing in `(0, max_delay]`.
pub(crate) fn decaying_process_median(mu: f64, omega: f64, max_delay: Hours) -> Hours {
    let h_max = mu / omega * (1.0 - (-omega * max_delay).exp());
    let p_half = 0.5 * (1.0 - (-h_max).exp());
    let h = -(1.0 - p_half).ln();
    let inner = (1.0 - omega * h / mu).max(1e-12);
    (-inner.ln() / omega).clamp(0.01, max_delay)
}

/// Cumulative sums of an iterator of non-negative weights.
pub(crate) fn cumulative(weights: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut cum = Vec::new();
    let mut total = 0.0;
    for w in weights {
        total += w.max(0.0);
        cum.push(total);
    }
    cum
}

/// Samples an index from cumulative weights via binary search.
pub(crate) fn sample_cumulative(rng: &mut StdRng, cum: &[f64]) -> usize {
    let total = *cum.last().expect("non-empty weights");
    let u = rng.gen::<f64>() * total;
    cum.partition_point(|&c| c <= u).min(cum.len() - 1)
}

/// Knuth's Poisson sampler (fine for small means).
pub(crate) fn poisson(rng: &mut StdRng, mean: f64) -> usize {
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_matches_generate_exactly() {
        // The refactor must preserve the organic RNG stream.
        let cfg = SynthConfig::small().with_seed(77);
        let via_generate = crate::generate(&cfg);
        let mut sim = ForumSimulator::new(&cfg);
        let threads = sim.run_organic(cfg.num_questions);
        let via_sim = forumcast_data::Dataset::new(cfg.num_users, threads).unwrap();
        assert_eq!(via_sim, via_generate);
    }

    #[test]
    fn question_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..10_000u32 {
            assert!(seen.insert(derive_question_seed(0xF0CA57, id)));
        }
        // Pinned: the derivation is part of the canonical output.
        assert_eq!(derive_question_seed(0, 0), derive_question_seed(0, 0));
        assert_ne!(derive_question_seed(1, 0), derive_question_seed(2, 0));
    }

    #[test]
    fn worker_at_shard_boundary_matches_serial_stream() {
        let cfg = SynthConfig::small().with_seed(9);
        let mut serial = ForumSimulator::new(&cfg);
        let all = serial.run_organic(SHARD_SIZE + 40);
        let mut worker = ForumSimulator::new(&cfg).at_question(SHARD_SIZE as u32);
        let tail = worker.run_organic(40);
        assert_eq!(&all[SHARD_SIZE..], &tail[..]);
    }

    #[test]
    fn events_have_consistent_candidates() {
        let cfg = SynthConfig::small().with_seed(3);
        let mut sim = ForumSimulator::new(&cfg);
        for _ in 0..50 {
            let ev = sim.next_question();
            assert!(!ev.candidates.contains(&ev.asker().0));
            if ev.num_answers > 0 {
                assert!(!ev.candidates.is_empty());
            }
            let answerers = sim.organic_answerers(&ev);
            assert!(answerers.len() <= ev.num_answers);
            for u in &answerers {
                assert!(ev.candidates.contains(u));
            }
        }
    }

    #[test]
    fn answer_weight_rises_with_social_history() {
        let cfg = SynthConfig::small().with_seed(4);
        let mut sim = ForumSimulator::new(&cfg);
        // Find an answered event and realize an answer; the same
        // pair's weight must rise afterwards.
        loop {
            let ev = sim.next_question();
            let answerers = sim.organic_answerers(&ev);
            if let Some(&u) = answerers.first() {
                let before = sim.answer_weight(&ev, u);
                sim.realize_answer(&ev, u);
                let after = sim.answer_weight(&ev, u);
                assert!(after > before, "{after} !> {before}");
                break;
            }
        }
    }

    #[test]
    fn acceptance_probability_monotone_in_kappa() {
        let cfg = SynthConfig::small().with_seed(5);
        let mut sim = ForumSimulator::new(&cfg);
        let ev = loop {
            let ev = sim.next_question();
            if !ev.candidates.is_empty() {
                break ev;
            }
        };
        let u = ev.candidates[0];
        let lo = sim.acceptance_probability(&ev, u, 0.1);
        let hi = sim.acceptance_probability(&ev, u, 2.0);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        assert!(hi >= lo);
    }

    #[test]
    fn realized_answers_have_valid_timing() {
        let cfg = SynthConfig::small().with_seed(6);
        let mut sim = ForumSimulator::new(&cfg);
        for _ in 0..30 {
            let ev = sim.next_question();
            for u in sim.organic_answerers(&ev) {
                for post in sim.realize_answer(&ev, u) {
                    assert!(post.timestamp >= ev.time());
                    assert!(post.timestamp <= sim.horizon() + 1e-9);
                }
            }
        }
    }
}
