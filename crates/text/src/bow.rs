//! Sparse bag-of-words documents and flat token corpora.

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

/// Documents over one vocabulary, stored flat (CSR): the word ids of
/// every document in one buffer, plus each document's offset into it.
///
/// Within a document the ids are ascending, with repeats: exactly the
/// order [`BagOfWords::to_token_ids`] gives, so a sampler walking
/// [`ids`](Corpus::ids) sees each token once, in a fixed order.
///
/// # Example
///
/// ```
/// use forumcast_text::Corpus;
/// let mut corpus = Corpus::new(4);
/// corpus.push_doc([3, 1, 3]);
/// corpus.push_doc([]);
/// assert_eq!(corpus.doc(0), &[1, 3, 3]);
/// assert_eq!(corpus.offsets(), &[0, 3, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Corpus {
    ids: Vec<u32>,
    /// `offsets[d]..offsets[d + 1]` is document `d`'s range of `ids`.
    offsets: Vec<usize>,
    num_words: usize,
}

impl Corpus {
    /// An empty corpus over `num_words` word ids.
    pub fn new(num_words: usize) -> Self {
        Corpus {
            ids: Vec::new(),
            offsets: vec![0],
            num_words,
        }
    }

    /// Builds a corpus by encoding token documents with `vocab`;
    /// unknown tokens are skipped.
    pub fn from_token_docs<S: AsRef<str>>(docs: &[Vec<S>], vocab: &Vocabulary) -> Self {
        let mut corpus = Corpus::new(vocab.len());
        for d in docs {
            corpus.push_doc(d.iter().filter_map(|t| vocab.id_of(t.as_ref())));
        }
        corpus
    }

    /// Appends one document of word ids (any order, duplicates
    /// counted).
    ///
    /// # Panics
    ///
    /// Panics when an id is `>= num_words`.
    pub fn push_doc(&mut self, ids: impl IntoIterator<Item = usize>) {
        let start = self.ids.len();
        for id in ids {
            assert!(
                id < self.num_words,
                "word id {id} out of range (num_words = {})",
                self.num_words
            );
            self.ids.push(id as u32);
        }
        self.ids[start..].sort_unstable();
        self.offsets.push(self.ids.len());
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Vocabulary size this corpus is encoded against.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Number of tokens over all documents.
    pub fn num_tokens(&self) -> usize {
        self.ids.len()
    }

    /// Every document's word ids, concatenated in document order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// `num_docs() + 1` offsets into [`ids`](Corpus::ids): document
    /// `d` is `ids()[offsets()[d]..offsets()[d + 1]]`.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The word ids of the `i`-th document, ascending with repeats.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn doc(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The `i`-th document as a bag of words, for fold-in inference.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn bag(&self, i: usize) -> BagOfWords {
        let ids: Vec<usize> = self.doc(i).iter().map(|&id| id as usize).collect();
        BagOfWords::from_ids(&ids)
    }

    /// Iterates over the documents' word ids.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets.windows(2).map(|w| &self.ids[w[0]..w[1]])
    }

    /// The corpus as a [`CorpusView`] that keeps every id.
    pub fn view(&self) -> CorpusView<'_> {
        CorpusView {
            ids: &self.ids,
            offsets: &self.offsets,
            words: None,
            num_words: self.num_words,
            num_tokens: self.ids.len(),
        }
    }
}

/// Documents of word ids read in place from a flat id stream (CSR, as
/// in [`Corpus`]), each stream id taken as is or mapped to a word id or
/// dropped.
///
/// A view over [`InternedDocs`](crate::InternedDocs) maps its ids
/// through the pruned vocabulary: the map keeps ids in order and each
/// document's stream ids ascend, so each document's word ids ascend
/// with repeats, as in a [`Corpus`].
#[derive(Debug, Clone)]
pub struct CorpusView<'a> {
    ids: &'a [u32],
    offsets: &'a [usize],
    /// Stream id → word id, [`CorpusView::DROPPED`] for a dropped id;
    /// `None` keeps every id as its word id.
    words: Option<Vec<u32>>,
    num_words: usize,
    num_tokens: usize,
}

impl<'a> CorpusView<'a> {
    /// The word id of a dropped stream id.
    pub const DROPPED: u32 = u32::MAX;

    /// The view of `ids` split at `offsets`, mapped through `words`, of
    /// `num_tokens` kept tokens over `num_words` word ids.
    pub(crate) fn mapped(
        ids: &'a [u32],
        offsets: &'a [usize],
        words: Vec<u32>,
        num_words: usize,
        num_tokens: usize,
    ) -> Self {
        CorpusView {
            ids,
            offsets,
            words: Some(words),
            num_words,
            num_tokens,
        }
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of word ids.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Number of kept tokens over all documents.
    pub fn num_tokens(&self) -> usize {
        self.num_tokens
    }

    /// The stream ids, every document's back to back, dropped ones
    /// included.
    pub fn ids(&self) -> &'a [u32] {
        self.ids
    }

    /// `num_docs() + 1` offsets into [`ids`](CorpusView::ids).
    pub fn offsets(&self) -> &'a [usize] {
        self.offsets
    }

    /// The stream-id → word-id map ([`CorpusView::DROPPED`] for a
    /// dropped id), or `None` when every id is its own word id.
    pub fn word_map(&self) -> Option<&[u32]> {
        self.words.as_deref()
    }

    /// The word ids of document `d`, in stream order.
    ///
    /// # Panics
    ///
    /// Panics when `d` is out of bounds.
    pub fn doc(&self, d: usize) -> impl Iterator<Item = u32> + '_ {
        let ids = &self.ids[self.offsets[d]..self.offsets[d + 1]];
        ids.iter().filter_map(move |&id| match &self.words {
            None => Some(id),
            Some(words) => Some(words[id as usize]).filter(|&w| w != Self::DROPPED),
        })
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
    fn empty_bow() {
        let bow = BagOfWords::from_ids(&[]);
        assert!(bow.is_empty());
        assert_eq!(bow.total(), 0);
        assert!(bow.to_token_ids().is_empty());
    }

    #[test]
    fn corpus_from_token_docs_skips_unknown_tokens() {
        let mut v = Vocabulary::new();
        let d1 = vec!["x".to_string(), "y".to_string()];
        let d2 = vec!["y".to_string(), "unknown".to_string()];
        v.observe(&d1);
        v.observe(&d2[..1]);
        let c = Corpus::from_token_docs(&[d1, d2], &v);
        assert_eq!(c.num_docs(), 2);
        assert_eq!(c.num_words(), 2);
        assert_eq!(c.num_tokens(), 3);
        assert_eq!(c.doc(1), &[v.id_of("y").unwrap() as u32]);
    }

    #[test]
    fn corpus_docs_are_sorted_token_ids() {
        let mut c = Corpus::new(10);
        c.push_doc([7, 2, 2, 9, 7, 7]);
        c.push_doc([]);
        c.push_doc([0]);
        assert_eq!(c.doc(0), &[2, 2, 7, 7, 7, 9]);
        assert_eq!(c.bag(0).to_token_ids(), vec![2, 2, 7, 7, 7, 9]);
        let docs: Vec<&[u32]> = c.iter().collect();
        assert_eq!(docs, vec![&[2, 2, 7, 7, 7, 9][..], &[], &[0]]);
        assert_eq!(c.offsets(), &[0, 6, 6, 7]);
    }

    #[test]
    fn corpus_view_keeps_every_id() {
        let mut c = Corpus::new(10);
        c.push_doc([7, 2, 2]);
        c.push_doc([]);
        let view = c.view();
        assert_eq!(
            (view.num_docs(), view.num_words(), view.num_tokens()),
            (2, 10, 3)
        );
        assert_eq!(view.word_map(), None);
        assert_eq!(view.doc(0).collect::<Vec<_>>(), [2, 2, 7]);
        assert_eq!(view.doc(1).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn corpus_push_doc_validates_ids() {
        Corpus::new(3).push_doc([3]);
    }

    #[test]
    fn empty_corpus_has_no_docs() {
        let c = Corpus::new(3);
        assert_eq!(c.num_docs(), 0);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn corpus_serde_roundtrip() {
        let mut c = Corpus::new(2);
        c.push_doc([0, 1]);
        let json = serde_json::to_string(&c).unwrap();
        let back: Corpus = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
