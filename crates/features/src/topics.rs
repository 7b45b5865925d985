//! Topic distributions `d(p)` for all posts of a history partition.

use std::collections::HashMap;

use forumcast_data::{PostBody, QuestionId, Thread, UserId};
use forumcast_text::{tokenize_filtered, BagOfWords, InternedDocs, Vocabulary};
use forumcast_topics::{LdaConfig, LdaModel};

/// An LDA model fitted on the posts of a history partition, plus the
/// inferred topic distribution of every post in it.
///
/// Mirrors the paper's pipeline: "each post `p` … is treated as a
/// separate document" (Section II-B), trained per partition `Ω` so
/// that no text from evaluation questions leaks into training.
#[derive(Debug, Clone)]
pub struct PostTopics {
    lda: LdaModel,
    vocab: Vocabulary,
    question_topics: HashMap<QuestionId, Vec<f64>>,
    answer_topics: HashMap<(QuestionId, UserId), Vec<f64>>,
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
        let mut docs = InternedDocs::new();
        let mut keys = Vec::new();
        let mut thread_ends = Vec::with_capacity(threads.len());
        for t in threads {
            docs.push(&tokenize_filtered(&t.question.body.text));
            keys.push(PostKey::Question(t.id));
            for a in &t.answers {
                docs.push(&tokenize_filtered(&a.body.text));
                keys.push(PostKey::Answer(t.id, a.author));
            }
            thread_ends.push(keys.len());
        }
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
        let (vocab, lda) = {
            let (vocab, corpus) = posts.docs.prefix_corpus(num_docs, 2, 0.6);
            (vocab, LdaModel::train(&corpus, config))
        };

        let mut question_topics = HashMap::new();
        let mut answer_topics = HashMap::new();
        for (i, &key) in posts.keys[..num_docs].iter().enumerate() {
            let theta = lda.doc_topics(i).to_vec();
            match key {
                PostKey::Question(q) => {
                    question_topics.insert(q, theta);
                }
                PostKey::Answer(q, u) => {
                    // A user's duplicate answers (rare, pre-cleaning)
                    // keep the last distribution; preprocessing
                    // removes duplicates anyway.
                    answer_topics.insert((q, u), theta);
                }
            }
        }
        PostTopics {
            lda,
            vocab,
            question_topics,
            answer_topics,
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

    /// Topic distribution of a history question.
    pub fn question(&self, q: QuestionId) -> Option<&[f64]> {
        self.question_topics.get(&q).map(Vec::as_slice)
    }

    /// Topic distribution of `u`'s answer to history question `q`.
    pub fn answer(&self, q: QuestionId, u: UserId) -> Option<&[f64]> {
        self.answer_topics.get(&(q, u)).map(Vec::as_slice)
    }

    /// Folds new threads into the distribution cache **without
    /// retraining** the topic–word distributions — the online
    /// deployment mode: `φ` stays frozen, new posts get fold-in `θ`s.
    pub fn extend(&mut self, threads: &[Thread]) {
        self.extend_with_threads(threads, forumcast_par::configured_threads());
    }

    /// [`PostTopics::extend`] with an explicit worker-thread count
    /// (`0` = auto). New posts are collected in thread order (first
    /// occurrence wins for duplicates, matching serial behavior),
    /// fold-in inference runs in parallel with per-post
    /// content-derived seeds, and results are inserted in collection
    /// order — bitwise-identical for any thread count.
    pub fn extend_with_threads(&mut self, threads: &[Thread], worker_threads: usize) {
        let mut keys: Vec<PostKey> = Vec::new();
        let mut docs: Vec<(BagOfWords, u64)> = Vec::new();
        let mut pending_q: std::collections::HashSet<QuestionId> = std::collections::HashSet::new();
        let mut pending_a: std::collections::HashSet<(QuestionId, UserId)> =
            std::collections::HashSet::new();
        for t in threads {
            if !self.question_topics.contains_key(&t.id) && pending_q.insert(t.id) {
                keys.push(PostKey::Question(t.id));
                docs.push(self.encode_with_seed(&t.question.body));
            }
            for a in &t.answers {
                let key = (t.id, a.author);
                if !self.answer_topics.contains_key(&key) && pending_a.insert(key) {
                    keys.push(PostKey::Answer(t.id, a.author));
                    docs.push(self.encode_with_seed(&a.body));
                }
            }
        }
        let thetas = self.lda.infer_batch(&docs, worker_threads);
        for (key, theta) in keys.into_iter().zip(thetas) {
            match key {
                PostKey::Question(q) => {
                    self.question_topics.insert(q, theta);
                }
                PostKey::Answer(q, u) => {
                    self.answer_topics.insert((q, u), theta);
                }
            }
        }
    }

    /// Encodes a post body and derives its deterministic fold-in seed
    /// from the token content.
    fn encode_with_seed(&self, body: &PostBody) -> (BagOfWords, u64) {
        let tokens = tokenize_filtered(&body.text);
        let bow = BagOfWords::encode(&tokens, &self.vocab);
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
        fn map_bits<K: Copy + Eq + std::hash::Hash>(
            m: &HashMap<K, Vec<f64>>,
        ) -> HashMap<K, Vec<u64>> {
            m.iter().map(|(&k, v)| (k, bits(v))).collect()
        }
        assert_eq!(a.vocab, b.vocab);
        assert_lda_bitwise_equal(&a.lda, &b.lda);
        assert_eq!(map_bits(&a.question_topics), map_bits(&b.question_topics));
        assert_eq!(map_bits(&a.answer_topics), map_bits(&b.answer_topics));
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
                bits(a.topic_words(k)),
                bits(b.topic_words(k)),
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

    /// The interned fit trains on the very corpus that tokenizing each
    /// post into strings, observing, pruning and encoding gives.
    #[test]
    fn fit_matches_the_string_token_pipeline() {
        use forumcast_text::Corpus;
        let ds = SynthConfig::small().with_seed(11).generate();
        let (clean, _) = ds.preprocess();
        let history = &clean.threads()[..80];
        let config = LdaConfig::new(4).with_iterations(10);
        let docs: Vec<Vec<String>> = history
            .iter()
            .flat_map(|t| t.posts().map(|p| tokenize_filtered(&p.body.text)))
            .collect();
        let mut vocab = Vocabulary::new();
        for d in &docs {
            vocab.observe(d);
        }
        vocab.prune(2, 0.6);
        let reference = LdaModel::train(&Corpus::from_token_docs(&docs, &vocab), &config);
        let fitted = PostTopics::fit(history, &config);
        assert_eq!(fitted.vocab, vocab);
        assert_lda_bitwise_equal(fitted.model(), &reference);
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
    fn extend_bitwise_identical_across_thread_counts() {
        let ds = SynthConfig::small().with_seed(11).generate();
        let (clean, _) = ds.preprocess();
        let history: Vec<Thread> = clean.threads()[..80].to_vec();
        let new_threads: Vec<Thread> = clean.threads()[80..120].to_vec();
        let base = PostTopics::fit(&history, &LdaConfig::new(4).with_iterations(20));

        let mut serial = base.clone();
        serial.extend_with_threads(&new_threads, 1);
        for threads in [2, 7] {
            let mut par = base.clone();
            par.extend_with_threads(&new_threads, threads);
            for t in &new_threads {
                let a = serial.question(t.id).unwrap();
                let b = par.question(t.id).unwrap();
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "question {:?}", t.id);
                }
                for ans in &t.answers {
                    let a = serial.answer(t.id, ans.author).unwrap();
                    let b = par.answer(t.id, ans.author).unwrap();
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
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
