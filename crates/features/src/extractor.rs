//! Assembling the full `18 + 2K` feature vector for a `(u, q)` pair.

use forumcast_data::{Thread, UserId};
use forumcast_topics::{tv_similarity, LdaConfig};

use crate::context::{BetweennessMode, FeatureContext};
use crate::layout::FeatureLayout;
use crate::topics::PostTopics;

/// Configuration for [`FeatureExtractor::fit`].
#[derive(Debug, Clone)]
pub struct ExtractorConfig {
    /// LDA hyperparameters (the paper's default is `K = 8`).
    pub lda: LdaConfig,
    /// Betweenness computation mode.
    pub betweenness: BetweennessMode,
}

impl ExtractorConfig {
    /// Paper defaults: `K = 8`, exact betweenness.
    pub fn paper() -> Self {
        ExtractorConfig {
            lda: LdaConfig::new(8),
            betweenness: BetweennessMode::Exact,
        }
    }

    /// Faster settings for tests: `K = 4`, 40 Gibbs sweeps, sampled
    /// betweenness.
    pub fn fast() -> Self {
        ExtractorConfig {
            lda: LdaConfig::new(4).with_iterations(40),
            betweenness: BetweennessMode::Sampled {
                pivots: 128,
                seed: 7,
            },
        }
    }

    /// Sets the number of topics, preserving other LDA settings
    /// (iterations, seed, sampler); the priors re-derive from `k`.
    pub fn with_topics(mut self, k: usize) -> Self {
        let iters = self.lda.iterations;
        let seed = self.lda.seed;
        let sampler = self.lda.sampler;
        self.lda = LdaConfig::new(k)
            .with_iterations(iters)
            .with_seed(seed)
            .with_sampler(sampler);
        self
    }
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        ExtractorConfig::paper()
    }
}

/// Computes feature vectors `x_{u,q}` against a fitted history
/// partition `F(q)`.
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    topics: PostTopics,
    context: FeatureContext,
    layout: FeatureLayout,
}

impl FeatureExtractor {
    /// Fits topics and aggregates on the history partition.
    pub fn fit(history: &[Thread], num_users: u32, config: &ExtractorConfig) -> Self {
        let topics = PostTopics::fit(history, &config.lda);
        FeatureExtractor::from_topics(history, num_users, topics, config.betweenness)
    }

    /// Fits the aggregates on the history partition around `topics`,
    /// which must already be fitted on that same history — for
    /// callers that fit several histories' topics at once.
    pub fn from_topics(
        history: &[Thread],
        num_users: u32,
        topics: PostTopics,
        betweenness: BetweennessMode,
    ) -> Self {
        let context = FeatureContext::build(history, num_users, &topics, betweenness);
        let layout = FeatureLayout::new(topics.num_topics());
        FeatureExtractor {
            topics,
            context,
            layout,
        }
    }

    /// Vector dimension `18 + 2K`.
    pub fn dim(&self) -> usize {
        self.layout.dim()
    }

    /// The slot layout (for masking and naming).
    pub fn layout(&self) -> FeatureLayout {
        self.layout
    }

    /// The fitted topic model.
    pub fn topics(&self) -> &PostTopics {
        &self.topics
    }

    /// The fitted aggregates.
    pub fn context(&self) -> &FeatureContext {
        &self.context
    }

    /// Topic distribution `d_q` of a **target** question: looked up if
    /// the question is part of the history, otherwise inferred from
    /// its text.
    pub fn question_topics(&self, question: &Thread) -> Vec<f64> {
        match self.topics.question(question.id) {
            Some(d) => d.to_vec(),
            None => self.topics.infer(&question.question.body),
        }
    }

    /// Computes `x_{u,q}` for user `u` and target question `question`,
    /// with `d_q` as returned by
    /// [`question_topics`](FeatureExtractor::question_topics)
    /// (passed in so callers can compute it once per question).
    ///
    /// # Panics
    ///
    /// Panics when `d_q.len() != K` or `u` is out of range.
    pub fn features(&self, u: UserId, question: &Thread, d_q: &[f64]) -> Vec<f64> {
        assemble_features(&self.context, self.layout, u, question, d_q)
    }
}

/// Assembles the `18 + 2K` vector from a prepared context — shared by
/// [`FeatureExtractor`] and the online pipeline.
///
/// # Panics
///
/// Panics when `d_q.len()` differs from the context's topic count or
/// `u` is out of range.
pub(crate) fn assemble_features(
    ctx: &FeatureContext,
    layout: FeatureLayout,
    u: UserId,
    question: &Thread,
    d_q: &[f64],
) -> Vec<f64> {
    assert_eq!(d_q.len(), ctx.num_topics(), "d_q must have K entries");
    let asker = question.asker();
    let d_u = ctx.user_topics(u);

    let mut x = Vec::with_capacity(layout.dim());
    // --- user features (i)–(v) ---
    x.push(ctx.answers_provided(u));
    x.push(ctx.answer_ratio(u));
    x.push(ctx.net_answer_votes(u));
    x.push(ctx.median_response_time(u));
    x.extend_from_slice(d_u);
    // --- question features (vi)–(ix) ---
    x.push(question.question.votes as f64);
    x.push(question.question.body.word_len() as f64);
    x.push(question.question.body.code_len() as f64);
    x.extend_from_slice(d_q);
    // --- user–question features (x)–(xii) ---
    x.push(tv_similarity(d_u, d_q));
    let mut g_uq = 0.0;
    let mut e_uq = 0.0;
    for (d_r, votes) in ctx.answer_history(u) {
        let s = tv_similarity(d_q, d_r);
        g_uq += s;
        e_uq += votes as f64 * s;
    }
    x.push(g_uq);
    x.push(e_uq);
    // --- social features (xiii)–(xx) ---
    // (xiii) compares topics *discussed* (asked + answered) by both
    // users, per the paper's definition.
    x.push(tv_similarity(
        ctx.discussed_topics(u),
        ctx.discussed_topics(asker),
    ));
    x.push(ctx.cooccurrence(u, asker));
    x.push(ctx.closeness_qa(u));
    x.push(ctx.betweenness_qa(u));
    x.push(ctx.resource_allocation_qa(u, asker));
    x.push(ctx.closeness_dense(u));
    x.push(ctx.betweenness_dense(u));
    x.push(ctx.resource_allocation_dense(u, asker));

    debug_assert_eq!(x.len(), layout.dim());
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::FeatureId;
    use forumcast_synth::SynthConfig;

    fn fixture() -> (Vec<Thread>, Thread, FeatureExtractor) {
        let ds = SynthConfig::small().with_seed(5).generate();
        let (clean, _) = ds.preprocess();
        let threads = clean.threads().to_vec();
        let history = threads[..100].to_vec();
        let target = threads[100].clone();
        let ex = FeatureExtractor::fit(&history, clean.num_users(), &ExtractorConfig::fast());
        (history, target, ex)
    }

    #[test]
    fn vector_has_layout_dimension_and_is_finite() {
        let (_, target, ex) = fixture();
        let d_q = ex.question_topics(&target);
        let u = target.answers[0].author;
        let x = ex.features(u, &target, &d_q);
        assert_eq!(x.len(), ex.dim());
        assert_eq!(ex.dim(), 18 + 2 * 4);
        assert!(x.iter().all(|v| v.is_finite()), "{x:?}");
    }

    #[test]
    fn similarity_slots_are_in_unit_interval() {
        let (_, target, ex) = fixture();
        let d_q = ex.question_topics(&target);
        let u = target.answers[0].author;
        let x = ex.features(u, &target, &d_q);
        let layout = ex.layout();
        for id in [
            FeatureId::UserQuestionTopicSimilarity,
            FeatureId::UserUserTopicSimilarity,
        ] {
            let i = layout.range(id).start;
            assert!((0.0..=1.0).contains(&x[i]), "{id:?} = {}", x[i]);
        }
    }

    #[test]
    fn question_slots_match_the_thread() {
        let (_, target, ex) = fixture();
        let d_q = ex.question_topics(&target);
        let x = ex.features(UserId(0), &target, &d_q);
        let layout = ex.layout();
        assert_eq!(
            x[layout.range(FeatureId::NetQuestionVotes).start],
            target.question.votes as f64
        );
        assert_eq!(
            x[layout.range(FeatureId::QuestionWordLength).start],
            target.question.body.word_len() as f64
        );
        assert_eq!(
            x[layout.range(FeatureId::QuestionCodeLength).start],
            target.question.body.code_len() as f64
        );
    }

    #[test]
    fn history_question_uses_trained_distribution() {
        let (history, _, ex) = fixture();
        let d = ex.question_topics(&history[3]);
        assert_eq!(
            d,
            ex.topics().question(history[3].id).unwrap().to_vec(),
            "in-history questions should use the trained θ"
        );
    }

    #[test]
    fn inactive_user_features_are_mostly_zero() {
        let (_, target, ex) = fixture();
        let d_q = ex.question_topics(&target);
        // Find a user with no history activity.
        let ctx = ex.context();
        let idle = (0..ctx.num_users())
            .map(UserId)
            .find(|&u| {
                ctx.answers_provided(u) == 0.0
                    && ctx.cooccurrence(u, target.asker()) == 0.0
                    && ctx.closeness_qa(u) == 0.0
            })
            .expect("some idle user exists");
        let x = ex.features(idle, &target, &d_q);
        let layout = ex.layout();
        assert_eq!(x[layout.range(FeatureId::AnswersProvided).start], 0.0);
        assert_eq!(
            x[layout.range(FeatureId::TopicWeightedAnswerVotes).start],
            0.0
        );
        assert_eq!(x[layout.range(FeatureId::QaBetweenness).start], 0.0);
    }

    #[test]
    fn g_uq_counts_topic_weighted_history() {
        let (_, target, ex) = fixture();
        let d_q = ex.question_topics(&target);
        let layout = ex.layout();
        // g_uq must be <= number of questions the user answered
        // (similarities are <= 1) and >= 0.
        let ctx = ex.context();
        for u in (0..ctx.num_users()).map(UserId) {
            let x = ex.features(u, &target, &d_q);
            let g = x[layout
                .range(FeatureId::TopicWeightedQuestionsAnswered)
                .start];
            assert!(g >= 0.0);
            assert!(g <= ctx.answers_provided(u) + 1e-9, "g {g} for {u}");
        }
    }

    #[test]
    #[should_panic(expected = "K entries")]
    fn wrong_dq_length_panics() {
        let (_, target, ex) = fixture();
        ex.features(UserId(0), &target, &[0.5, 0.5]);
    }
}
