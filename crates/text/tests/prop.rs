//! Property-based tests for tokenization and bag-of-words invariants.

use proptest::prelude::*;

use forumcast_text::{tokenize, tokenize_filtered, BagOfWords, Corpus, InternedDocs, Vocabulary};

/// Checks every prefix of `docs`: the interned prefix vocabulary
/// (ids, tokens, counts, doc counts) and corpus equal observing the
/// prefix's token documents, pruning, and encoding them.
fn assert_prefixes_match(docs: &[Vec<String>], min_docs: usize, max_doc_frac: f64) {
    let mut interned = InternedDocs::new();
    for d in docs {
        interned.push(d);
    }
    for n in 0..=docs.len() {
        let mut vocab = Vocabulary::new();
        for d in &docs[..n] {
            vocab.observe(d);
        }
        vocab.prune(min_docs, max_doc_frac);
        let corpus = Corpus::from_token_docs(&docs[..n], &vocab);
        let (prefix_vocab, prefix_corpus) = interned.prefix_corpus(n, min_docs, max_doc_frac);
        assert_eq!(prefix_vocab, vocab, "vocabulary of the first {n} docs");
        assert_eq!(prefix_corpus, corpus, "corpus of the first {n} docs");
    }
}

fn docs(words: &[&[&str]]) -> Vec<Vec<String>> {
    words
        .iter()
        .map(|d| d.iter().map(|w| w.to_string()).collect())
        .collect()
}

#[test]
fn prefix_corpus_handles_empty_docs_and_all_pruned_vocabularies() {
    // Empty documents, including a leading one.
    assert_prefixes_match(&docs(&[&[], &["a", "b"], &[], &["b", "a", "a"]]), 2, 0.6);
    // Every token is in one document only: everything prunes.
    let singletons = docs(&[&["a"], &["b", "b"], &["c"]]);
    let (vocab, corpus) = {
        let mut interned = InternedDocs::new();
        for d in &singletons {
            interned.push(d);
        }
        interned.prefix_corpus(3, 2, 0.6)
    };
    assert!(vocab.is_empty());
    assert!(corpus.iter().all(BagOfWords::is_empty));
    assert_prefixes_match(&singletons, 2, 0.6);
    // "c" and "d" are first seen after the shorter prefixes.
    assert_prefixes_match(
        &docs(&[&["a", "b"], &["a"], &["c", "a"], &["c", "d", "b"]]),
        2,
        0.6,
    );
}

proptest! {
    /// Tokens never contain separators and are all lowercase.
    #[test]
    fn tokens_are_clean(text in ".{0,200}") {
        for tok in tokenize(&text) {
            prop_assert!(!tok.is_empty());
            prop_assert!(tok.chars().any(|c| c.is_alphanumeric()));
            prop_assert!(!tok.chars().any(char::is_whitespace));
            prop_assert_eq!(tok.to_lowercase(), tok.clone());
        }
    }

    /// Filtering only removes tokens; it never invents them.
    #[test]
    fn filtered_is_subsequence(text in "[a-zA-Z ]{0,200}") {
        let all = tokenize(&text);
        let filtered = tokenize_filtered(&text);
        prop_assert!(filtered.len() <= all.len());
        let mut it = all.iter();
        for f in &filtered {
            prop_assert!(it.any(|t| t == f), "token {f} out of order");
        }
    }

    /// Tokenization is deterministic.
    #[test]
    fn tokenize_deterministic(text in ".{0,120}") {
        prop_assert_eq!(tokenize(&text), tokenize(&text));
    }

    /// A bag-of-words always preserves the multiset of ids.
    #[test]
    fn bow_preserves_counts(ids in proptest::collection::vec(0usize..50, 0..80)) {
        let bow = BagOfWords::from_ids(&ids);
        prop_assert_eq!(bow.total() as usize, ids.len());
        let mut expanded = bow.to_token_ids();
        expanded.sort_unstable();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        prop_assert_eq!(expanded, sorted);
        // Entries are strictly increasing in id.
        let entries: Vec<_> = bow.iter().collect();
        for w in entries.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    /// Vocabulary ids stay dense and consistent under observation.
    #[test]
    fn vocab_ids_dense(words in proptest::collection::vec("[a-z]{1,6}", 1..60)) {
        let mut v = Vocabulary::new();
        v.observe(&words);
        prop_assert!(v.len() <= words.len());
        for w in &words {
            let id = v.id_of(w).expect("observed word is present");
            prop_assert!(id < v.len());
            prop_assert_eq!(v.token_of(id), w.as_str());
        }
    }

    /// Pruning never increases the vocabulary and keeps ids dense.
    #[test]
    fn prune_shrinks(words in proptest::collection::vec("[a-c]{1,2}", 1..40),
                     min_docs in 1usize..4) {
        let mut v = Vocabulary::new();
        for w in &words {
            v.observe(std::slice::from_ref(w));
        }
        let before = v.len();
        let removed = v.prune(min_docs, 1.0);
        prop_assert_eq!(v.len() + removed, before);
        for id in 0..v.len() {
            let tok = v.token_of(id).to_owned();
            prop_assert_eq!(v.id_of(&tok), Some(id));
        }
    }

    /// Every prefix of interned documents gives the vocabulary and
    /// corpus that observing, pruning and encoding it gives.
    #[test]
    fn interned_prefix_matches_observe_prune_encode(
        docs in proptest::collection::vec(proptest::collection::vec("[a-f]{1,2}", 0..8), 0..16),
        min_docs in 0usize..4,
        max_doc_frac in 0.0f64..=1.0,
    ) {
        assert_prefixes_match(&docs, 2, 0.6);
        assert_prefixes_match(&docs, min_docs, max_doc_frac);
    }
}
