//! Generator configuration.

use serde::{Deserialize, Serialize};

/// How ground-truth response delays are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TimingNoise {
    /// Exact first-event draw from the decaying-rate point process
    /// `λ(t) = μ e^{−ωt}` (conditioned on answering in-window). The
    /// paper's model family, but with coefficient of variation ≈ 1
    /// the delays are mostly irreducible noise.
    PointProcess,
    /// Log-normal delay around the point process's conditional median
    /// with the given log-σ. This mimics habitual human latency (a
    /// user who checks the forum nightly answers in ~10 h with modest
    /// spread) while keeping the rate structure as the signal; it is
    /// the default because measured forum delays are far more
    /// user-predictable than a memoryless process allows.
    Lognormal {
        /// Standard deviation of the log-delay around the median.
        sigma: f64,
    },
}

/// Configuration of the synthetic forum generator.
///
/// Defaults mirror the paper's dataset at full scale
/// ([`SynthConfig::paper_scale`]); [`SynthConfig::small`] and
/// [`SynthConfig::medium`] are laptop-friendly scales with the same
/// shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of users in the population.
    pub num_users: u32,
    /// Number of question threads to generate (pre-filtering).
    pub num_questions: usize,
    /// Number of latent ground-truth topics.
    pub num_topics: usize,
    /// Length of the observation window in days (paper: 30).
    pub duration_days: f64,
    /// Probability a question receives no answers (paper: ≈40%).
    pub unanswered_prob: f64,
    /// Mean of the (1 + Poisson) extra-answer count for answered
    /// questions; paper averages ≈1.47 answers per answered question.
    pub extra_answers_mean: f64,
    /// Point-process decay rate ω (per hour) of the ground-truth
    /// response-time process.
    pub decay_rate: f64,
    /// Noise model for response delays.
    pub timing_noise: TimingNoise,
    /// Strength of topic match in answerer selection.
    pub topic_affinity: f64,
    /// Strength of repeat-interaction (social) preference.
    pub social_affinity: f64,
    /// Candidate-pool size for answerer selection (keeps generation
    /// O(questions × pool) instead of O(questions × users)).
    pub candidate_pool: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SynthConfig {
    /// The scale words [`SynthConfig::from_scale`] resolves.
    pub const SCALES: &'static [&'static str] = &["small", "medium", "paper"];

    /// The preset a scale word names, `None` for any other word.
    pub fn from_scale(scale: &str) -> Option<Self> {
        match scale {
            "small" => Some(SynthConfig::small()),
            "medium" => Some(SynthConfig::medium()),
            "paper" => Some(SynthConfig::paper_scale()),
            _ => None,
        }
    }

    /// Tiny dataset for unit tests (~200 users, 300 questions).
    pub fn small() -> Self {
        SynthConfig {
            num_users: 200,
            num_questions: 300,
            num_topics: 8,
            duration_days: 30.0,
            unanswered_prob: 0.4,
            extra_answers_mean: 0.47,
            decay_rate: 0.03,
            timing_noise: TimingNoise::Lognormal { sigma: 0.55 },
            topic_affinity: 5.0,
            social_affinity: 4.0,
            candidate_pool: 60,
            seed: 0xF0CA57,
        }
    }

    /// Medium dataset for experiments (~2,000 users, 3,000 questions);
    /// the scale the bundled experiment binaries default to.
    pub fn medium() -> Self {
        SynthConfig {
            num_users: 2_000,
            num_questions: 3_000,
            candidate_pool: 120,
            ..SynthConfig::small()
        }
    }

    /// Full paper scale (~14,600 users, ~21,000 questions over 30
    /// days). Generation takes noticeably longer; feature extraction
    /// at this scale uses sampled betweenness.
    pub fn paper_scale() -> Self {
        SynthConfig {
            num_users: 14_643,
            num_questions: 20_923,
            candidate_pool: 200,
            ..SynthConfig::small()
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of ground-truth topics.
    ///
    /// # Panics
    ///
    /// Panics when `num_topics == 0`.
    pub fn with_topics(mut self, num_topics: usize) -> Self {
        assert!(num_topics > 0, "need at least one topic");
        self.num_topics = num_topics;
        self
    }

    /// Generates the dataset described by this configuration.
    /// Convenience for [`crate::generate`].
    pub fn generate(&self) -> forumcast_data::Dataset {
        crate::generate(self)
    }

    /// Observation window length in hours.
    pub fn duration_hours(&self) -> f64 {
        self.duration_days * forumcast_data::HOURS_PER_DAY
    }
}

impl Default for SynthConfig {
    /// [`SynthConfig::medium`].
    fn default() -> Self {
        SynthConfig::medium()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_up() {
        assert!(SynthConfig::small().num_users < SynthConfig::medium().num_users);
        assert!(SynthConfig::medium().num_users < SynthConfig::paper_scale().num_users);
    }

    #[test]
    fn builder_methods() {
        let c = SynthConfig::small().with_seed(9).with_topics(3);
        assert_eq!(c.seed, 9);
        assert_eq!(c.num_topics, 3);
    }

    #[test]
    fn duration_hours_converts_days() {
        assert_eq!(SynthConfig::small().duration_hours(), 720.0);
    }

    #[test]
    #[should_panic(expected = "at least one topic")]
    fn zero_topics_rejected() {
        SynthConfig::small().with_topics(0);
    }
}
