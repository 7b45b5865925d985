//! Property-based tests for tokenization and bag-of-words invariants.

use proptest::prelude::*;

use forumcast_text::{
    for_each_filtered_token, for_each_token, is_stopword, tokenize, tokenize_filtered, BagOfWords,
    Corpus, CorpusView, InternedDocs, Vocabulary,
};

/// The collecting tokenizer the streaming one replaced, kept verbatim
/// as the oracle [`for_each_token`] must reproduce.
fn oracle_tokenize(text: &str) -> Vec<String> {
    fn push_token(tokens: &mut Vec<String>, tok: String) {
        let has_alnum = tok.chars().any(|c| c.is_alphanumeric());
        if !has_alnum {
            return;
        }
        if tok.chars().count() == 1 && tok.chars().all(|c| c.is_alphabetic()) {
            return;
        }
        tokens.push(tok);
    }
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        let is_word_char = ch.is_alphanumeric() || ch == '_' || ch == '+' || ch == '#';
        if is_word_char {
            for lc in ch.to_lowercase() {
                cur.push(lc);
            }
        } else if !cur.is_empty() {
            push_token(&mut tokens, std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        push_token(&mut tokens, cur);
    }
    tokens
}

fn streamed(text: &str, filtered: bool) -> Vec<String> {
    let mut tokens = Vec::new();
    let push = |tok: &str| tokens.push(tok.to_owned());
    if filtered {
        for_each_filtered_token(text, push);
    } else {
        for_each_token(text, push);
    }
    tokens
}

/// Pieces the tokenizer treats specially: `+`, `#`, `_`, separators,
/// digits, single letters, stop words, and letters whose lowercase is
/// more than one `char` (`'İ'` lowercases to `"i\u{307}"`).
const PIECES: &[&str] = &[
    "+", "#", "_", " ", ".", "-", "İ", "ẞ", "Σ", "\u{307}", "0", "7", "a", "Z", "the", "The", "of",
    "is", "C++", "c#", "x_1",
];

/// Text of arbitrary Unicode scalar values mixed with [`PIECES`].
fn tricky_text() -> impl Strategy<Value = String> {
    let piece = (0..PIECES.len() * 2, 0u32..0x11_0000);
    proptest::collection::vec(piece, 0..40).prop_map(|pieces| {
        let mut text = String::new();
        for (i, c) in pieces {
            match PIECES.get(i) {
                Some(p) => text.push_str(p),
                None => text.extend(char::from_u32(c)),
            }
        }
        text
    })
}

/// The documents of a view, collected into a corpus.
fn materialize(view: &CorpusView) -> Corpus {
    let mut corpus = Corpus::new(view.num_words());
    for d in 0..view.num_docs() {
        corpus.push_doc(view.doc(d).map(|w| w as usize));
    }
    corpus
}

/// Checks every prefix of `docs`: the interned prefix vocabulary
/// (ids, tokens, counts, doc counts) and corpus view equal observing
/// the prefix's token documents, pruning, and encoding them, and the
/// view's documents read in the corpus's order.
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
        let (prefix_vocab, view) = interned.prefix_view(n, min_docs, max_doc_frac);
        assert_eq!(prefix_vocab, vocab, "vocabulary of the first {n} docs");
        assert_eq!(
            view.num_tokens(),
            corpus.num_tokens(),
            "tokens of the first {n} docs"
        );
        for (d, words) in corpus.iter().enumerate() {
            assert!(
                view.doc(d).eq(words.iter().copied()),
                "doc {d} of the first {n} docs"
            );
        }
        assert_eq!(materialize(&view), corpus, "corpus of the first {n} docs");
    }
}

fn docs(words: &[&[&str]]) -> Vec<Vec<String>> {
    words
        .iter()
        .map(|d| d.iter().map(|w| w.to_string()).collect())
        .collect()
}

#[test]
fn prefix_view_handles_empty_docs_and_all_pruned_vocabularies() {
    // Empty documents, including a leading one.
    assert_prefixes_match(&docs(&[&[], &["a", "b"], &[], &["b", "a", "a"]]), 2, 0.6);
    // Every token is in one document only: everything prunes.
    let singletons = docs(&[&["a"], &["b", "b"], &["c"]]);
    let (vocab, corpus) = {
        let mut interned = InternedDocs::new();
        for d in &singletons {
            interned.push(d);
        }
        let (vocab, view) = interned.prefix_view(3, 2, 0.6);
        (vocab, materialize(&view))
    };
    assert!(vocab.is_empty());
    assert!(corpus.iter().all(<[u32]>::is_empty));
    assert_prefixes_match(&singletons, 2, 0.6);
    // "c" and "d" are first seen after the shorter prefixes.
    assert_prefixes_match(
        &docs(&[&["a", "b"], &["a"], &["c", "a"], &["c", "d", "b"]]),
        2,
        0.6,
    );
}

#[test]
fn streaming_tokenizer_matches_the_oracle_on_edge_cases() {
    for text in [
        "",
        "a b 1 xy",
        "C# vs C++ vs F# __ ++ ## _x_ x_",
        "İ İstanbul ß ẞ ΣΑΣ",
        "the of is The OF",
        "v2.7 python_3 +1 #1",
    ] {
        assert_eq!(streamed(text, false), oracle_tokenize(text), "{text:?}");
        assert_eq!(tokenize(text), oracle_tokenize(text), "{text:?}");
    }
}

proptest! {
    /// The streaming tokenizer yields the oracle's tokens, and its
    /// filtered form the oracle's tokens without stop words.
    #[test]
    fn streaming_tokenizer_matches_the_oracle(
        text in tricky_text(),
        printable in ".{0,200}",
    ) {
        let text = text + &printable;
        let oracle = oracle_tokenize(&text);
        prop_assert_eq!(&streamed(&text, false), &oracle);
        prop_assert_eq!(&tokenize(&text), &oracle);
        let oracle_filtered: Vec<String> =
            oracle.into_iter().filter(|t| !is_stopword(t)).collect();
        prop_assert_eq!(&streamed(&text, true), &oracle_filtered);
        prop_assert_eq!(&tokenize_filtered(&text), &oracle_filtered);
    }

    /// Interning streamed text builds the same ids, tokens and document
    /// ends as interning the collected filtered tokens.
    #[test]
    fn streamed_interning_matches_collected(
        texts in proptest::collection::vec(tricky_text(), 0..12),
    ) {
        let mut streamed = InternedDocs::new();
        let mut collected = InternedDocs::new();
        for text in &texts {
            streamed.push_text(text);
            collected.push(&tokenize_filtered(text));
        }
        prop_assert_eq!(streamed, collected);
    }

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
        // A corpus document holds the bag's token ids, in its order.
        let mut corpus = Corpus::new(50);
        corpus.push_doc(ids.iter().copied());
        let doc: Vec<usize> = corpus.doc(0).iter().map(|&id| id as usize).collect();
        prop_assert_eq!(doc, bow.to_token_ids());
        prop_assert_eq!(corpus.bag(0), bow);
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
