//! Token documents interned once, from which the pruned vocabulary
//! and corpus of any prefix of them derive without re-tokenizing.

use std::collections::HashMap;

use crate::bow::{BagOfWords, Corpus};
use crate::vocab::Vocabulary;

/// Token documents stored as one string table plus `u32` token ids
/// per document.
///
/// Ids are assigned in first-seen order, so the distinct tokens of
/// the first `n` documents are exactly ids `0..m` for some `m`. That
/// is what lets [`prefix_corpus`](InternedDocs::prefix_corpus) give,
/// for any prefix, the same vocabulary and corpus as observing,
/// pruning and encoding that prefix's token documents from scratch.
///
/// # Example
///
/// ```
/// use forumcast_text::InternedDocs;
/// let mut docs = InternedDocs::new();
/// docs.push(&["rust", "sort"]);
/// docs.push(&["rust", "vec"]);
/// docs.push(&["sort", "vec"]);
/// // Of the first two documents, only "rust" is in two of them.
/// let (vocab, corpus) = docs.prefix_corpus(2, 2, 1.0);
/// assert_eq!(vocab.len(), 1);
/// assert_eq!(corpus.num_docs(), 2);
/// assert_eq!(corpus.doc(1).count(0), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InternedDocs {
    lookup: HashMap<String, u32>,
    tokens: Vec<String>,
    ids: Vec<u32>,
    /// End offset into `ids` of each document.
    ends: Vec<usize>,
}

impl InternedDocs {
    /// Creates an empty document list.
    pub fn new() -> Self {
        InternedDocs::default()
    }

    /// Appends one document, interning its new tokens.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` distinct tokens.
    pub fn push<S: AsRef<str>>(&mut self, doc: &[S]) {
        for tok in doc {
            let tok = tok.as_ref();
            let id = match self.lookup.get(tok) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(self.tokens.len()).expect("distinct tokens fit in u32");
                    self.lookup.insert(tok.to_owned(), id);
                    self.tokens.push(tok.to_owned());
                    id
                }
            };
            self.ids.push(id);
        }
        self.ends.push(self.ids.len());
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.ends.len()
    }

    /// Token ids of document `i`, in token order.
    fn doc(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.ids[start..self.ends[i]]
    }

    /// The pruned vocabulary and encoded corpus of the first
    /// `num_docs` documents: equal to
    /// [`Vocabulary::observe`]-ing each of them,
    /// [`Vocabulary::prune`]`(min_docs, max_doc_frac)`, then
    /// [`Corpus::from_token_docs`].
    ///
    /// # Panics
    ///
    /// Panics when `num_docs` exceeds [`num_docs`](InternedDocs::num_docs).
    pub fn prefix_corpus(
        &self,
        num_docs: usize,
        min_docs: usize,
        max_doc_frac: f64,
    ) -> (Vocabulary, Corpus) {
        assert!(
            num_docs <= self.num_docs(),
            "prefix of {num_docs} documents out of {}",
            self.num_docs()
        );
        let end = num_docs.checked_sub(1).map_or(0, |last| self.ends[last]);
        let m = self.ids[..end]
            .iter()
            .max()
            .map_or(0, |&id| id as usize + 1);
        let mut counts = vec![0usize; m];
        let mut doc_counts = vec![0usize; m];
        let mut last_doc = vec![usize::MAX; m];
        for d in 0..num_docs {
            for &id in self.doc(d) {
                let id = id as usize;
                counts[id] += 1;
                if last_doc[id] != d {
                    last_doc[id] = d;
                    doc_counts[id] += 1;
                }
            }
        }
        let (vocab, keep) = Vocabulary::pruned_from(
            &self.tokens[..m],
            &counts,
            &doc_counts,
            num_docs,
            min_docs,
            max_doc_frac,
        );

        let mut new_id = vec![None; m];
        for (new, &old) in keep.iter().enumerate() {
            new_id[old] = Some(new);
        }
        let mut kept: Vec<usize> = Vec::new();
        let bows = (0..num_docs)
            .map(|d| {
                kept.clear();
                kept.extend(self.doc(d).iter().filter_map(|&id| new_id[id as usize]));
                BagOfWords::from_ids(&kept)
            })
            .collect();
        let corpus = Corpus::from_bows(bows, vocab.len());
        (vocab, corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_first_appearance() {
        let mut docs = InternedDocs::new();
        docs.push(&["b", "a", "b"]);
        docs.push::<&str>(&[]);
        docs.push(&["c", "a"]);
        assert_eq!(docs.num_docs(), 3);
        assert_eq!(docs.doc(0), &[0, 1, 0]);
        assert!(docs.doc(1).is_empty());
        assert_eq!(docs.doc(2), &[2, 1]);
    }

    #[test]
    fn empty_prefix_is_empty() {
        let mut docs = InternedDocs::new();
        docs.push(&["x"]);
        let (vocab, corpus) = docs.prefix_corpus(0, 2, 0.6);
        assert!(vocab.is_empty());
        assert_eq!(vocab.num_docs(), 0);
        assert_eq!(corpus.num_docs(), 0);
        assert_eq!(corpus.num_words(), 0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn prefix_past_the_end_panics() {
        InternedDocs::new().prefix_corpus(1, 2, 0.6);
    }
}
