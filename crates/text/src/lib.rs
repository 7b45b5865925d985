//! Text processing substrate for `forumcast`.
//!
//! The paper's topic model (LDA, Section II-B) treats each forum post
//! as a document over its natural-language words `x(p)`. This crate
//! provides the pieces between raw post text and the bag-of-words
//! input LDA expects:
//!
//! * [`for_each_token`] — lowercasing, punctuation-splitting
//!   tokenizer that streams each token as a borrowed `&str`
//!   ([`tokenize`] collects them);
//! * [`stopwords`] — a compact English stop-word list;
//! * [`Vocabulary`] — interning of tokens to dense word ids with
//!   frequency-based pruning;
//! * [`Corpus`] — every document's word ids in one flat buffer, the
//!   input LDA samples over; [`BagOfWords`] — one document's sparse
//!   term counts, for fold-in inference; [`CorpusView`] — documents
//!   read in place from a flat id stream, through an id map;
//! * [`InternedDocs`] — token documents interned once, from which the
//!   pruned vocabulary and corpus view of any prefix derive.
//!
//! # Example
//!
//! ```
//! use forumcast_text::{tokenize, Corpus, Vocabulary};
//!
//! let docs = ["How do I sort a vector?", "Sorting vectors is easy"];
//! let mut vocab = Vocabulary::new();
//! let token_docs: Vec<Vec<String>> = docs.iter().map(|d| tokenize(d)).collect();
//! for doc in &token_docs {
//!     vocab.observe(doc);
//! }
//! let corpus = Corpus::from_token_docs(&token_docs, &vocab);
//! assert_eq!(corpus.num_docs(), 2);
//! ```

pub mod bow;
pub mod interned;
pub mod stopwords;
pub mod tokenizer;
pub mod vocab;

pub use bow::{BagOfWords, Corpus, CorpusView};
pub use interned::InternedDocs;
pub use stopwords::is_stopword;
pub use tokenizer::{for_each_filtered_token, for_each_token, tokenize, tokenize_filtered};
pub use vocab::Vocabulary;
