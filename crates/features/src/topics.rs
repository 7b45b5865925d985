//! Topic distributions `d(p)` for all posts of a history partition.

use std::collections::HashMap;

use forumcast_data::{PostBody, QuestionId, Thread, UserId};
use forumcast_text::{for_each_filtered_token, BagOfWords, InternedDocs, Vocabulary};
use forumcast_topics::{LdaConfig, LdaModel};

/// An LDA model fitted on the posts of a history partition, plus the
/// inferred topic distribution of every post in it.
///
/// Mirrors the paper's pipeline: "each post `p` … is treated as a
/// separate document" (Section II-B), trained per partition `Ω` so
/// that no text from evaluation questions leaks into training. Each
/// post's distribution is stored once, as its document's `θ` row in
/// the model; the maps hold document indices.
#[derive(Debug, Clone)]
pub struct PostTopics {
    lda: LdaModel,
    vocab: Vocabulary,
    question_docs: HashMap<QuestionId, usize>,
    answer_docs: HashMap<(QuestionId, UserId), usize>,
}

/// Every post of a thread list tokenized once, in [`PostTopics`]
/// document order (each thread's question, then its answers) and
/// interned, so the topics of any prefix of the threads fit without
/// tokenizing again.
#[derive(Debug, Clone)]
pub struct TokenizedPosts {
    docs: InternedDocs,
    keys: Vec<PostKey>,
    /// Documents in threads `..=i`, per thread `i`.
    thread_ends: Vec<usize>,
}

impl TokenizedPosts {
    /// Tokenizes every post of `threads`.
    pub fn new(threads: &[Thread]) -> Self {
        let _span = forumcast_obs::span("text.tokenize");
        let num_posts = threads.iter().map(|t| 1 + t.num_answers()).sum();
        let mut docs = InternedDocs::new();
        let mut keys = Vec::with_capacity(num_posts);
        let mut thread_ends = Vec::with_capacity(threads.len());
        for t in threads {
            docs.push_text(&t.question.body.text);
            keys.push(PostKey::Question(t.id));
            for a in &t.answers {
                docs.push_text(&a.body.text);
                keys.push(PostKey::Answer(t.id, a.author));
            }
            thread_ends.push(keys.len());
        }
        docs.shrink_to_fit();
        TokenizedPosts {
            docs,
            keys,
            thread_ends,
        }
    }

    /// Number of threads tokenized.
    pub fn num_threads(&self) -> usize {
        self.thread_ends.len()
    }
}

impl PostTopics {
    /// Tokenizes every post in `history`, builds a pruned vocabulary,
    /// trains LDA with `config`, and records `d(p)` for each post.
    pub fn fit(history: &[Thread], config: &LdaConfig) -> Self {
        PostTopics::fit_prefix(&TokenizedPosts::new(history), history.len(), config)
    }

    /// [`PostTopics::fit`] on the first `num_threads` threads of
    /// `posts`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when `num_threads` exceeds
    /// [`TokenizedPosts::num_threads`].
    pub fn fit_prefix(posts: &TokenizedPosts, num_threads: usize, config: &LdaConfig) -> Self {
        let num_docs = num_threads
            .checked_sub(1)
            .map_or(0, |last| posts.thread_ends[last]);
        let (vocab, corpus) = posts.docs.prefix_view(num_docs, 2, 0.6);
        let lda = LdaModel::train_view(&corpus, config);

        let mut question_docs = HashMap::new();
        let mut answer_docs = HashMap::new();
        for (i, &key) in posts.keys[..num_docs].iter().enumerate() {
            match key {
                PostKey::Question(q) => {
                    question_docs.insert(q, i);
                }
                PostKey::Answer(q, u) => {
                    // A user's duplicate answers (rare, pre-cleaning)
                    // keep the last distribution; preprocessing
                    // removes duplicates anyway.
                    answer_docs.insert((q, u), i);
                }
            }
        }
        PostTopics {
            lda,
            vocab,
            question_docs,
            answer_docs,
        }
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.lda.num_topics()
    }

    /// The underlying LDA model.
    pub fn model(&self) -> &LdaModel {
        &self.lda
    }

    /// Frees every history post's distribution (the model's `θ` and
    /// the post maps), keeping what [`infer`](PostTopics::infer) needs:
    /// [`question`](PostTopics::question) and
    /// [`answer`](PostTopics::answer) return `None` after it.
    pub fn forget_history(&mut self) {
        self.lda.forget_documents();
        self.question_docs = HashMap::new();
        self.answer_docs = HashMap::new();
    }

    /// Topic distribution of a history question.
    pub fn question(&self, q: QuestionId) -> Option<&[f64]> {
        self.question_docs.get(&q).map(|&i| self.lda.doc_topics(i))
    }

    /// Topic distribution of `u`'s answer to history question `q`.
    pub fn answer(&self, q: QuestionId, u: UserId) -> Option<&[f64]> {
        self.answer_docs
            .get(&(q, u))
            .map(|&i| self.lda.doc_topics(i))
    }

    /// Encodes a post body and derives its deterministic fold-in seed
    /// from the token content.
    fn encode_with_seed(&self, body: &PostBody) -> (BagOfWords, u64) {
        let mut ids = Vec::new();
        for_each_filtered_token(&body.text, |tok| ids.extend(self.vocab.id_of(tok)));
        let bow = BagOfWords::from_ids(&ids);
        // Content-derived seed keeps inference deterministic without
        // threading an RNG through every feature computation.
        let seed = bow.iter().fold(0xBADC0FFEu64, |acc, (id, c)| {
            acc.wrapping_mul(31).wrapping_add(id as u64 * 7 + c as u64)
        });
        (bow, seed)
    }

    /// Infers `d(p)` for an arbitrary (held-out) post body via fold-in
    /// Gibbs with the trained topic–word distributions fixed.
    /// Deterministic: the seed is derived from the token content.
    pub fn infer(&self, body: &PostBody) -> Vec<f64> {
        let (bow, seed) = self.encode_with_seed(body);
        self.lda.infer(&bow, seed)
    }
}

#[derive(Debug, Clone, Copy)]
enum PostKey {
    Question(QuestionId),
    Answer(QuestionId, UserId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use forumcast_synth::SynthConfig;

    fn topics_over_small() -> (Vec<Thread>, PostTopics) {
        let ds = SynthConfig::small().with_seed(11).generate();
        let (clean, _) = ds.preprocess();
        let history: Vec<Thread> = clean.threads()[..120].to_vec();
        let pt = PostTopics::fit(&history, &LdaConfig::new(4).with_iterations(40));
        (history, pt)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts two fits equal bit for bit: θ, φ, the vocabulary, and
    /// the question and answer maps.
    fn assert_bitwise_equal(a: &PostTopics, b: &PostTopics) {
        assert_eq!(a.vocab, b.vocab);
        assert_lda_bitwise_equal(&a.lda, &b.lda);
        assert_eq!(a.question_docs, b.question_docs);
        assert_eq!(a.answer_docs, b.answer_docs);
    }

    fn assert_lda_bitwise_equal(a: &LdaModel, b: &LdaModel) {
        assert_eq!(
            (a.num_docs(), a.num_words(), a.num_topics()),
            (b.num_docs(), b.num_words(), b.num_topics())
        );
        for d in 0..a.num_docs() {
            assert_eq!(bits(a.doc_topics(d)), bits(b.doc_topics(d)), "θ of doc {d}");
        }
        for k in 0..a.num_topics() {
            assert_eq!(
                bits(&a.topic_words(k)),
                bits(&b.topic_words(k)),
                "φ of topic {k}"
            );
        }
    }

    #[test]
    fn prefix_fits_match_fitting_each_prefix_alone() {
        let ds = SynthConfig::small().with_seed(11).generate();
        let (clean, _) = ds.preprocess();
        let threads = &clean.threads()[..120];
        let posts = TokenizedPosts::new(threads);
        assert_eq!(posts.num_threads(), 120);
        let config = LdaConfig::new(4).with_iterations(10);
        for n in [0, 1, 37, 80, 120] {
            let prefix = PostTopics::fit_prefix(&posts, n, &config);
            assert_bitwise_equal(&prefix, &PostTopics::fit(&threads[..n], &config));
        }
    }

    /// The stream fit sweeps the interned token stream in place, through
    /// the pruned vocabulary's id map. For every bucket history of a
    /// three-bucket split it equals, bit for bit, training on the
    /// corpus materialized by tokenizing, pruning and encoding that
    /// history's posts, at topic counts on both sides of the tree
    /// draw's threshold, with pruned words and empty documents present.
    #[test]
    fn stream_fit_equals_the_materialized_corpus_fit_on_every_bucket_history() {
        use forumcast_data::Post;
        use forumcast_text::{tokenize_filtered, Corpus};
        let ds = SynthConfig::small().with_seed(11).generate();
        let (clean, _) = ds.preprocess();
        let mut threads: Vec<Thread> = clean.threads()[..120].to_vec();
        // An empty question and answers whose only words are pruned
        // (each in one post), early enough to be in every history.
        let post = |u: u32, text: &str| Post::new(UserId(u), 1.0, 0, PostBody::words(text));
        for (i, at) in [0usize, 30].into_iter().enumerate() {
            let id = 1_000_000 + i as u32;
            let answers = vec![post(1, &format!("zzonce{i}")), post(2, "")];
            threads.insert(at, Thread::new(id, post(0, ""), answers));
        }
        let posts = TokenizedPosts::new(&threads);
        let warmup = threads.len() * 3 / 10;
        let bucket = (threads.len() - warmup).div_ceil(3);
        for k in [1, 4, 23, 24, 64] {
            let config = LdaConfig::new(k).with_iterations(4);
            for n in (0..3).map(|b| warmup + b * bucket) {
                let docs: Vec<Vec<String>> = threads[..n]
                    .iter()
                    .flat_map(|t| t.posts().map(|p| tokenize_filtered(&p.body.text)))
                    .collect();
                let mut vocab = Vocabulary::new();
                for d in &docs {
                    vocab.observe(d);
                }
                let observed = vocab.len();
                vocab.prune(2, 0.6);
                assert!(vocab.len() < observed, "K={k}, {n} threads: no word pruned");
                let corpus = Corpus::from_token_docs(&docs, &vocab);
                assert!(
                    corpus.iter().filter(|d| d.is_empty()).count() >= 4,
                    "K={k}, {n} threads: empty documents missing"
                );
                let stream = PostTopics::fit_prefix(&posts, n, &config);
                assert_eq!(stream.vocab, vocab, "K={k}, {n} threads");
                assert_lda_bitwise_equal(stream.model(), &LdaModel::train(&corpus, &config));
            }
        }
    }

    #[test]
    fn every_history_post_has_a_distribution() {
        let (history, pt) = topics_over_small();
        for t in &history {
            let dq = pt.question(t.id).expect("question distribution");
            assert_eq!(dq.len(), 4);
            assert!((dq.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for a in &t.answers {
                assert!(pt.answer(t.id, a.author).is_some());
            }
        }
    }

    #[test]
    fn repeated_answer_keeps_the_last_posts_row() {
        use forumcast_data::Post;
        let post = |u: u32, text: &str| Post::new(UserId(u), 1.0, 0, PostBody::words(text));
        let history = vec![Thread::new(
            0,
            post(0, "alpha beta alpha beta"),
            vec![post(1, "alpha alpha alpha"), post(1, "beta beta beta")],
        )];
        let pt = PostTopics::fit(&history, &LdaConfig::new(2).with_iterations(5));
        assert_eq!(
            pt.answer(QuestionId(0), UserId(1)),
            Some(pt.model().doc_topics(2))
        );
        assert_eq!(pt.question(QuestionId(0)), Some(pt.model().doc_topics(0)));
    }

    #[test]
    fn unknown_question_returns_none() {
        let (_, pt) = topics_over_small();
        assert!(pt.question(QuestionId(9_999_999)).is_none());
        assert!(pt.answer(QuestionId(9_999_999), UserId(0)).is_none());
    }

    #[test]
    fn inference_is_deterministic_per_content() {
        let (_, pt) = topics_over_small();
        let body = PostBody::words("t0w1 t0w2 t0w3 question error t0w4");
        assert_eq!(pt.infer(&body), pt.infer(&body));
    }

    #[test]
    fn inference_of_empty_body_is_uniform() {
        let (_, pt) = topics_over_small();
        let theta = pt.infer(&PostBody::default());
        assert_eq!(theta, vec![0.25; 4]);
    }

    #[test]
    fn topical_posts_get_nonuniform_distributions() {
        let (_, pt) = topics_over_small();
        // A post hammering one synthetic topic's vocabulary.
        let text = (0..30)
            .map(|i| format!("t2w{}", i % 10))
            .collect::<Vec<_>>()
            .join(" ");
        let theta = pt.infer(&PostBody::words(text));
        let max = theta.iter().cloned().fold(0.0, f64::max);
        // The fitted LDA may split one synthetic theme across two of
        // its topics; "non-uniform" means clearly above the uniform
        // 1/K = 0.25 mass, not necessarily a single dominant topic.
        assert!(max > 0.4, "expected concentration, got {theta:?}");
    }
}
