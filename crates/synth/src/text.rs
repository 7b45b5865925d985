//! Topic-conditioned text generation for synthetic posts.

use std::fmt::Write;

use rand::Rng;

/// Generates post bodies whose words are drawn from per-topic
/// vocabularies, so a from-scratch LDA run on the output recovers the
/// latent topics. Each topic owns `words_per_topic` distinctive words
/// (`t3w17`-style) plus a shared pool of generic forum words.
#[derive(Debug, Clone)]
pub struct TextGenerator {
    topic_vocab: Vec<Vec<String>>,
    shared_vocab: Vec<String>,
}

/// Generic forum words mixed into every post.
const SHARED: &[&str] = &[
    "question", "problem", "error", "working", "tried", "example", "function", "value", "result",
    "running", "output", "install", "version", "update", "thanks", "help",
];

impl TextGenerator {
    /// Creates vocabularies for `num_topics` topics.
    ///
    /// # Panics
    ///
    /// Panics when `num_topics == 0` or `words_per_topic == 0`.
    pub fn new(num_topics: usize, words_per_topic: usize) -> Self {
        assert!(num_topics > 0, "need at least one topic");
        assert!(words_per_topic > 0, "need at least one word per topic");
        let topic_vocab = (0..num_topics)
            .map(|t| (0..words_per_topic).map(|w| format!("t{t}w{w}")).collect())
            .collect();
        TextGenerator {
            topic_vocab,
            shared_vocab: SHARED.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Number of topics.
    pub fn num_topics(&self) -> usize {
        self.topic_vocab.len()
    }

    /// Generates natural-language text of roughly `target_chars`
    /// characters from the given topic mixture. 80% of words come
    /// from topic vocabularies (topic chosen by the mixture), 20%
    /// from the shared pool.
    ///
    /// # Panics
    ///
    /// Panics when `mixture.len() != num_topics()`.
    pub fn words<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mixture: &[f64],
        target_chars: usize,
    ) -> String {
        assert_eq!(
            mixture.len(),
            self.topic_vocab.len(),
            "mixture length must equal topic count"
        );
        // The words are drawn first, so the text is allocated once, at
        // its final length. Every word is at least 4 bytes long.
        let mut words: Vec<&str> = Vec::with_capacity(target_chars / 4 + 1);
        let mut len = 0;
        while len < target_chars {
            let word = if rng.gen_bool(0.8) {
                let t = sample_categorical(rng, mixture);
                let v = &self.topic_vocab[t];
                &v[rng.gen_range(0..v.len())]
            } else {
                &self.shared_vocab[rng.gen_range(0..self.shared_vocab.len())]
            };
            len += usize::from(!words.is_empty()) + word.len();
            words.push(word);
        }
        words.join(" ")
    }

    /// Generates a code snippet of roughly `target_chars` characters
    /// (topic-agnostic — code length is a *question* feature, its
    /// content is never topic-modeled).
    pub fn code<R: Rng + ?Sized>(&self, rng: &mut R, target_chars: usize) -> String {
        // Line `i` is `let x{i} = f{d}(y{i});\n` with a one-digit `d`:
        // 15 bytes plus `i`'s digits twice. The lines are counted
        // first, so the snippet is allocated once, at its final length.
        let line_len = |i: usize| 15 + 2 * i.checked_ilog10().map_or(1, |d| d as usize + 1);
        let (mut lines, mut len) = (0, 0);
        while len < target_chars {
            len += line_len(lines);
            lines += 1;
        }
        let mut out = String::with_capacity(len);
        for i in 0..lines {
            writeln!(out, "let x{i} = f{}(y{i});", rng.gen_range(0..9))
                .expect("writing to a String cannot fail");
        }
        debug_assert_eq!(out.len(), len);
        out
    }
}

/// Samples an index from an unnormalized categorical distribution.
/// Falls back to uniform when all weights are zero.
pub fn sample_categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "empty categorical");
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn words_respect_target_length_roughly() {
        let mut rng = StdRng::seed_from_u64(0);
        let gen = TextGenerator::new(4, 20);
        let text = gen.words(&mut rng, &[0.25; 4], 300);
        assert!(text.len() >= 300 && text.len() < 340, "len {}", text.len());
        assert_eq!(text.capacity(), text.len());
    }

    #[test]
    fn concentrated_mixture_uses_that_topics_words() {
        let mut rng = StdRng::seed_from_u64(1);
        let gen = TextGenerator::new(3, 10);
        let text = gen.words(&mut rng, &[0.0, 1.0, 0.0], 400);
        let topic1_words = text
            .split_whitespace()
            .filter(|w| w.starts_with("t1w"))
            .count();
        let other_topic_words = text
            .split_whitespace()
            .filter(|w| w.starts_with("t0w") || w.starts_with("t2w"))
            .count();
        assert!(topic1_words > 10);
        assert_eq!(other_topic_words, 0);
    }

    #[test]
    fn code_is_nonempty_and_long_enough() {
        let mut rng = StdRng::seed_from_u64(2);
        let gen = TextGenerator::new(2, 5);
        let code = gen.code(&mut rng, 100);
        assert!(code.len() >= 100);
        assert!(code.contains("let x0"));
        // Past 10 and 100 lines, the line numbers take more digits.
        let code = gen.code(&mut rng, 2500);
        assert!(code.contains("let x100 = f") && code.len() >= 2500);
        assert_eq!(code.capacity(), code.len());
    }

    #[test]
    fn categorical_follows_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[sample_categorical(&mut rng, &[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0], "{counts:?}");
        assert!((counts[2] as f64 / 3000.0 - 0.7).abs() < 0.05);
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[sample_categorical(&mut rng, &[0.0, 0.0, 0.0])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty categorical")]
    fn empty_weights_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        sample_categorical(&mut rng, &[]);
    }
}
