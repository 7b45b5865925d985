//! Token interning and frequency-based vocabulary pruning.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A vocabulary mapping tokens to dense word ids `0 .. len()`.
///
/// Build it by [`observe`](Vocabulary::observe)-ing token documents,
/// optionally [`prune`](Vocabulary::prune)-ing rare/ubiquitous terms,
/// then use [`id_of`](Vocabulary::id_of) to encode documents.
///
/// # Example
///
/// ```
/// use forumcast_text::Vocabulary;
/// let mut v = Vocabulary::new();
/// v.observe(&["rust".to_string(), "rust".to_string(), "go".to_string()]);
/// assert_eq!(v.len(), 2);
/// assert_eq!(v.count_of("rust"), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vocabulary {
    ids: HashMap<String, usize>,
    tokens: Vec<String>,
    counts: Vec<usize>,
    /// Number of documents each token appeared in.
    doc_counts: Vec<usize>,
    num_docs: usize,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` when the vocabulary has no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Number of documents observed so far.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Records one document's tokens, interning new tokens and
    /// updating term and document frequencies.
    pub fn observe<S: AsRef<str>>(&mut self, doc: &[S]) {
        self.num_docs += 1;
        let mut seen_in_doc: Vec<usize> = Vec::new();
        for tok in doc {
            let tok = tok.as_ref();
            let id = match self.ids.get(tok) {
                Some(&id) => id,
                None => {
                    let id = self.tokens.len();
                    self.ids.insert(tok.to_owned(), id);
                    self.tokens.push(tok.to_owned());
                    self.counts.push(0);
                    self.doc_counts.push(0);
                    id
                }
            };
            self.counts[id] += 1;
            if !seen_in_doc.contains(&id) {
                seen_in_doc.push(id);
                self.doc_counts[id] += 1;
            }
        }
    }

    /// Id of `token`, or `None` if unknown (or pruned).
    pub fn id_of(&self, token: &str) -> Option<usize> {
        self.ids.get(token).copied()
    }

    /// The token with id `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id >= len()`.
    pub fn token_of(&self, id: usize) -> &str {
        &self.tokens[id]
    }

    /// Total occurrences of `token` (0 if unknown).
    pub fn count_of(&self, token: &str) -> usize {
        self.id_of(token).map_or(0, |id| self.counts[id])
    }

    /// Removes tokens appearing in fewer than `min_docs` documents or
    /// in more than `max_doc_frac` of all documents, then re-compacts
    /// ids. Returns the number of tokens removed.
    ///
    /// This mirrors the usual Gensim `filter_extremes` preparation the
    /// paper's pipeline relies on.
    pub fn prune(&mut self, min_docs: usize, max_doc_frac: f64) -> usize {
        let before = self.len();
        let (pruned, _) = Vocabulary::pruned_from(
            &self.tokens,
            &self.counts,
            &self.doc_counts,
            self.num_docs,
            min_docs,
            max_doc_frac,
        );
        *self = pruned;
        before - self.len()
    }

    /// The vocabulary [`prune`](Vocabulary::prune) leaves of one with
    /// these per-id columns over `num_docs` documents, plus the old id
    /// of each kept token in new-id order.
    pub(crate) fn pruned_from(
        tokens: &[String],
        counts: &[usize],
        doc_counts: &[usize],
        num_docs: usize,
        min_docs: usize,
        max_doc_frac: f64,
    ) -> (Vocabulary, Vec<usize>) {
        let max_docs = (max_doc_frac * num_docs as f64).floor() as usize;
        let keep: Vec<usize> = (0..tokens.len())
            .filter(|&id| doc_counts[id] >= min_docs && doc_counts[id] <= max_docs)
            .collect();
        let mut vocab = Vocabulary {
            ids: HashMap::with_capacity(keep.len()),
            tokens: Vec::with_capacity(keep.len()),
            counts: Vec::with_capacity(keep.len()),
            doc_counts: Vec::with_capacity(keep.len()),
            num_docs,
        };
        for (new_id, &old_id) in keep.iter().enumerate() {
            vocab.ids.insert(tokens[old_id].clone(), new_id);
            vocab.tokens.push(tokens[old_id].clone());
            vocab.counts.push(counts[old_id]);
            vocab.doc_counts.push(doc_counts[old_id]);
        }
        (vocab, keep)
    }

    /// Iterates over `(token, term_count)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> {
        self.tokens
            .iter()
            .zip(self.counts.iter())
            .map(|(t, &c)| (t.as_str(), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn observe_interns_and_counts() {
        let mut v = Vocabulary::new();
        v.observe(&doc(&["x", "y", "x"]));
        v.observe(&doc(&["x"]));
        assert_eq!(v.len(), 2);
        assert_eq!(v.count_of("x"), 3);
        assert_eq!(v.count_of("y"), 1);
        assert_eq!(v.count_of("z"), 0);
        assert_eq!(v.num_docs(), 2);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut v = Vocabulary::new();
        v.observe(&doc(&["a0", "b1", "c2"]));
        assert_eq!(v.id_of("a0"), Some(0));
        assert_eq!(v.id_of("b1"), Some(1));
        assert_eq!(v.token_of(2), "c2");
    }

    #[test]
    fn prune_removes_rare_terms() {
        let mut v = Vocabulary::new();
        v.observe(&doc(&["common", "rare"]));
        v.observe(&doc(&["common"]));
        v.observe(&doc(&["common"]));
        let removed = v.prune(2, 1.0);
        assert_eq!(removed, 1);
        assert_eq!(v.id_of("rare"), None);
        assert_eq!(v.id_of("common"), Some(0));
    }

    #[test]
    fn prune_removes_ubiquitous_terms() {
        let mut v = Vocabulary::new();
        for i in 0..10 {
            if i < 3 {
                v.observe(&doc(&["everywhere", "niche"]));
            } else {
                v.observe(&doc(&["everywhere"]));
            }
        }
        // "everywhere" is in 10/10 docs; "niche" in 3/10; cap at 0.9.
        let removed = v.prune(1, 0.9);
        assert_eq!(removed, 1);
        assert!(v.id_of("everywhere").is_none());
        assert!(v.id_of("niche").is_some());
    }

    #[test]
    fn prune_recompacts_ids() {
        let mut v = Vocabulary::new();
        v.observe(&doc(&["a0", "b1"]));
        v.observe(&doc(&["b1"]));
        v.prune(2, 1.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v.id_of("b1"), Some(0));
        assert_eq!(v.token_of(0), "b1");
    }

    #[test]
    fn doc_frequency_counts_each_doc_once() {
        let mut v = Vocabulary::new();
        v.observe(&doc(&["dup", "dup", "dup"]));
        // One doc → doc_count 1; prune(min_docs=2) removes it.
        let removed = v.prune(2, 1.0);
        assert_eq!(removed, 1);
    }

    #[test]
    fn serde_roundtrip() {
        let mut v = Vocabulary::new();
        v.observe(&doc(&["x", "y"]));
        let json = serde_json::to_string(&v).unwrap();
        let back: Vocabulary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id_of("y"), Some(1));
        assert_eq!(back.num_docs(), 1);
    }

    #[test]
    fn empty_vocab_properties() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.iter().count(), 0);
    }
}
