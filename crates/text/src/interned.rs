//! Token documents interned once, from which the pruned vocabulary
//! and corpus of any prefix of them derive without re-tokenizing.

use std::collections::HashMap;

use crate::bow::CorpusView;
use crate::tokenizer::for_each_filtered_token;
use crate::vocab::Vocabulary;

/// Token documents stored as one string table plus `u32` token ids
/// per document, each document's ids sorted ascending.
///
/// Ids are assigned in first-seen order, so the distinct tokens of
/// the first `n` documents are exactly ids `0..m` for some `m`. That
/// is what lets [`prefix_view`](InternedDocs::prefix_view) give, for
/// any prefix, the same vocabulary and corpus as observing, pruning
/// and encoding that prefix's token documents from scratch. Pruning
/// keeps ids in order, so it maps ascending ids to ascending word ids
/// and the prefix's corpus is these very ids, read through that map.
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
/// let (vocab, corpus) = docs.prefix_view(2, 2, 1.0);
/// assert_eq!(vocab.len(), 1);
/// assert_eq!(corpus.num_docs(), 2);
/// assert_eq!(corpus.doc(1).collect::<Vec<_>>(), [0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedDocs {
    lookup: HashMap<String, u32>,
    tokens: Vec<String>,
    ids: Vec<u32>,
    /// `offsets[d]..offsets[d + 1]` is document `d`'s range of `ids`.
    offsets: Vec<usize>,
}

impl Default for InternedDocs {
    fn default() -> Self {
        InternedDocs {
            lookup: HashMap::new(),
            tokens: Vec::new(),
            ids: Vec::new(),
            offsets: vec![0],
        }
    }
}

impl InternedDocs {
    /// Creates an empty document list.
    pub fn new() -> Self {
        InternedDocs::default()
    }

    /// Cuts the token storage to the tokens pushed, once the last
    /// document is in.
    pub fn shrink_to_fit(&mut self) {
        self.tokens.shrink_to_fit();
        self.ids.shrink_to_fit();
        self.offsets.shrink_to_fit();
    }

    /// Appends one document, interning its new tokens.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` distinct tokens.
    pub fn push<S: AsRef<str>>(&mut self, doc: &[S]) {
        for tok in doc {
            self.intern(tok.as_ref());
        }
        self.close_doc();
    }

    /// Appends the document of `text`'s
    /// [`tokenize_filtered`](crate::tokenize_filtered) tokens, streamed
    /// from the tokenizer without collecting them: equal to
    /// `push(&tokenize_filtered(text))`.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` distinct tokens.
    pub fn push_text(&mut self, text: &str) {
        for_each_filtered_token(text, |tok| self.intern(tok));
        self.close_doc();
    }

    /// Appends `tok`'s id to the open document, interning it if new.
    fn intern(&mut self, tok: &str) {
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

    /// Sorts the open document's ids and ends it.
    fn close_doc(&mut self) {
        let start = self.offsets[self.offsets.len() - 1];
        self.ids[start..].sort_unstable();
        self.offsets.push(self.ids.len());
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The pruned vocabulary and corpus of the first `num_docs`
    /// documents: equal to [`Vocabulary::observe`]-ing each of them,
    /// [`Vocabulary::prune`]`(min_docs, max_doc_frac)`, then
    /// [`Corpus::from_token_docs`](crate::Corpus::from_token_docs).
    /// The corpus reads these documents' ids in place, through the
    /// pruned vocabulary's id map.
    ///
    /// # Panics
    ///
    /// Panics when `num_docs` exceeds [`num_docs`](InternedDocs::num_docs).
    pub fn prefix_view(
        &self,
        num_docs: usize,
        min_docs: usize,
        max_doc_frac: f64,
    ) -> (Vocabulary, CorpusView<'_>) {
        assert!(
            num_docs <= self.num_docs(),
            "prefix of {num_docs} documents out of {}",
            self.num_docs()
        );
        let offsets = &self.offsets[..=num_docs];
        let ids = &self.ids[..offsets[num_docs]];
        let m = ids.iter().max().map_or(0, |&id| id as usize + 1);
        let mut counts = vec![0usize; m];
        let mut doc_counts = vec![0usize; m];
        for doc in offsets.windows(2).map(|w| &ids[w[0]..w[1]]) {
            // Sorted, so each distinct id opens a run.
            for (i, &id) in doc.iter().enumerate() {
                counts[id as usize] += 1;
                if i == 0 || doc[i - 1] != id {
                    doc_counts[id as usize] += 1;
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
        let mut words = vec![CorpusView::DROPPED; m];
        let mut num_tokens = 0;
        for (word, &id) in keep.iter().enumerate() {
            words[id] = word as u32;
            num_tokens += counts[id];
        }
        let view = CorpusView::mapped(ids, offsets, words, vocab.len(), num_tokens);
        (vocab, view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Token ids of document `i`.
    fn doc(docs: &InternedDocs, i: usize) -> &[u32] {
        &docs.ids[docs.offsets[i]..docs.offsets[i + 1]]
    }

    #[test]
    fn ids_follow_first_appearance_and_each_document_sorts() {
        let mut docs = InternedDocs::new();
        docs.push(&["b", "a", "b"]);
        docs.push::<&str>(&[]);
        docs.push(&["c", "a"]);
        assert_eq!(docs.num_docs(), 3);
        assert_eq!(doc(&docs, 0), &[0, 0, 1]);
        assert!(doc(&docs, 1).is_empty());
        assert_eq!(doc(&docs, 2), &[1, 2]);
    }

    #[test]
    fn push_text_streams_the_filtered_tokens() {
        let mut streamed = InternedDocs::new();
        let mut collected = InternedDocs::new();
        for text in ["Sort the C++ vector", "", "sort a Vec<T> in Rust"] {
            streamed.push_text(text);
            collected.push(&crate::tokenize_filtered(text));
        }
        assert_eq!(streamed, collected);
        assert_eq!(doc(&streamed, 2), &[0, 3, 4]);
    }

    #[test]
    fn pruned_ids_drop_and_kept_ids_renumber_in_order() {
        let mut docs = InternedDocs::new();
        docs.push(&["a", "b", "c"]);
        docs.push(&["c", "a", "a"]);
        docs.push(&["d"]);
        // "b" and "d" are in one document each.
        let (vocab, corpus) = docs.prefix_view(3, 2, 1.0);
        assert_eq!(vocab.id_of("a"), Some(0));
        assert_eq!(vocab.id_of("c"), Some(1));
        assert_eq!(
            corpus.word_map(),
            Some(&[0, CorpusView::DROPPED, 1, CorpusView::DROPPED][..])
        );
        assert_eq!(corpus.num_tokens(), 5);
        let words: Vec<Vec<u32>> = (0..3).map(|d| corpus.doc(d).collect()).collect();
        assert_eq!(words, [vec![0, 1], vec![0, 0, 1], vec![]]);
    }

    #[test]
    fn empty_prefix_is_empty() {
        let mut docs = InternedDocs::new();
        docs.push(&["x"]);
        let (vocab, corpus) = docs.prefix_view(0, 2, 0.6);
        assert!(vocab.is_empty());
        assert_eq!(vocab.num_docs(), 0);
        assert_eq!(corpus.num_docs(), 0);
        assert_eq!(corpus.num_words(), 0);
        assert_eq!(corpus.num_tokens(), 0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn prefix_past_the_end_panics() {
        InternedDocs::new().prefix_view(1, 2, 0.6);
    }
}
