//! Sparse bag-of-words documents and corpora.

use serde::{Deserialize, Serialize};

use crate::vocab::Vocabulary;

/// A sparse bag-of-words document: `(word_id, count)` pairs sorted by
/// word id.
///
/// # Example
///
/// ```
/// use forumcast_text::BagOfWords;
/// let bow = BagOfWords::from_ids(&[2, 0, 2, 2]);
/// assert_eq!(bow.count(2), 3);
/// assert_eq!(bow.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BagOfWords {
    entries: Vec<(usize, u32)>,
}

impl BagOfWords {
    /// Builds a bag from raw word ids (any order, duplicates counted).
    pub fn from_ids(ids: &[usize]) -> Self {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        let mut entries: Vec<(usize, u32)> = Vec::new();
        for id in sorted {
            match entries.last_mut() {
                Some((last, c)) if *last == id => *c += 1,
                _ => entries.push((id, 1)),
            }
        }
        BagOfWords { entries }
    }

    /// Encodes a token document against a vocabulary; unknown tokens
    /// are skipped.
    pub fn encode<S: AsRef<str>>(doc: &[S], vocab: &Vocabulary) -> Self {
        let ids: Vec<usize> = doc.iter().filter_map(|t| vocab.id_of(t.as_ref())).collect();
        BagOfWords::from_ids(&ids)
    }

    /// Count of `word_id` in this document.
    pub fn count(&self, word_id: usize) -> u32 {
        self.entries
            .binary_search_by_key(&word_id, |&(id, _)| id)
            .map(|i| self.entries[i].1)
            .unwrap_or(0)
    }

    /// Total token count (document length).
    pub fn total(&self) -> u32 {
        self.entries.iter().map(|&(_, c)| c).sum()
    }

    /// `true` when the document is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(word_id, count)` in increasing word-id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// Expands back to a flat list of word ids (each repeated by its
    /// count) — the token-level view collapsed Gibbs sampling needs.
    pub fn to_token_ids(&self) -> Vec<usize> {
        let mut ids = Vec::with_capacity(self.total() as usize);
        for (id, c) in self.iter() {
            ids.extend(std::iter::repeat_n(id, c as usize));
        }
        ids
    }
}

/// A collection of bag-of-words documents over one vocabulary size.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Corpus {
    docs: Vec<BagOfWords>,
    num_words: usize,
}

impl Corpus {
    /// Builds a corpus by encoding token documents with `vocab`.
    pub fn from_token_docs<S: AsRef<str>>(docs: &[Vec<S>], vocab: &Vocabulary) -> Self {
        Corpus {
            docs: docs.iter().map(|d| BagOfWords::encode(d, vocab)).collect(),
            num_words: vocab.len(),
        }
    }

    /// Builds a corpus from pre-encoded documents. `num_words` must
    /// exceed every word id used.
    ///
    /// # Panics
    ///
    /// Panics when a document references a word id `>= num_words`.
    pub fn from_bows(docs: Vec<BagOfWords>, num_words: usize) -> Self {
        for d in &docs {
            if let Some((max_id, _)) = d.iter().last() {
                assert!(
                    max_id < num_words,
                    "word id {max_id} out of range (num_words = {num_words})"
                );
            }
        }
        Corpus { docs, num_words }
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Vocabulary size this corpus is encoded against.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// The `i`-th document.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn doc(&self, i: usize) -> &BagOfWords {
        &self.docs[i]
    }

    /// Iterates over documents.
    pub fn iter(&self) -> impl Iterator<Item = &BagOfWords> {
        self.docs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ids_aggregates_and_sorts() {
        let bow = BagOfWords::from_ids(&[5, 1, 5, 1, 5]);
        let entries: Vec<_> = bow.iter().collect();
        assert_eq!(entries, vec![(1, 2), (5, 3)]);
    }

    #[test]
    fn count_and_total() {
        let bow = BagOfWords::from_ids(&[0, 0, 3]);
        assert_eq!(bow.count(0), 2);
        assert_eq!(bow.count(3), 1);
        assert_eq!(bow.count(9), 0);
        assert_eq!(bow.total(), 3);
    }

    #[test]
    fn to_token_ids_roundtrips() {
        let ids = vec![7, 2, 2, 9, 7, 7];
        let bow = BagOfWords::from_ids(&ids);
        let mut expanded = bow.to_token_ids();
        expanded.sort_unstable();
        let mut sorted = ids;
        sorted.sort_unstable();
        assert_eq!(expanded, sorted);
    }

    #[test]
    fn encode_skips_unknown_tokens() {
        let mut v = Vocabulary::new();
        v.observe(&["known".to_string()]);
        let bow = BagOfWords::encode(&["known", "unknown", "known"], &v);
        assert_eq!(bow.total(), 2);
        assert_eq!(bow.count(0), 2);
    }

    #[test]
    fn empty_bow() {
        let bow = BagOfWords::from_ids(&[]);
        assert!(bow.is_empty());
        assert_eq!(bow.total(), 0);
        assert!(bow.to_token_ids().is_empty());
    }

    #[test]
    fn corpus_from_token_docs() {
        let mut v = Vocabulary::new();
        let d1 = vec!["x".to_string(), "y".to_string()];
        let d2 = vec!["y".to_string()];
        v.observe(&d1);
        v.observe(&d2);
        let c = Corpus::from_token_docs(&[d1, d2], &v);
        assert_eq!(c.num_docs(), 2);
        assert_eq!(c.num_words(), 2);
        assert_eq!(c.doc(1).count(v.id_of("y").unwrap()), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn corpus_from_bows_validates_ids() {
        Corpus::from_bows(vec![BagOfWords::from_ids(&[3])], 3);
    }

    #[test]
    fn corpus_serde_roundtrip() {
        let c = Corpus::from_bows(vec![BagOfWords::from_ids(&[0, 1])], 2);
        let json = serde_json::to_string(&c).unwrap();
        let back: Corpus = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
