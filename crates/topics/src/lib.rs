//! Latent Dirichlet Allocation topic modeling for `forumcast`.
//!
//! The paper (Section II-B) infers a topic distribution
//! `d(p) = (d_1(p), …, d_K(p))` for every forum post `p` by running
//! LDA over the post's word text, treating each post as a separate
//! document, with `K = 8` topics by default (varied in Figure 5).
//! The paper uses Gensim's LDA; this crate implements the same model
//! from scratch with **collapsed Gibbs sampling** (see DESIGN.md §3
//! for why the substitution is behavior-preserving).
//!
//! * [`LdaConfig`] — hyperparameters (`K`, `α`, `β`, iterations, seed);
//! * [`LdaModel::train`] — collapsed Gibbs training over a
//!   [`forumcast_text::Corpus`];
//! * [`LdaModel::infer`] — fold-in inference of `d(p)` for held-out
//!   posts with the topic–word distributions held fixed;
//! * [`tv_similarity`] — the total-variation similarity
//!   `1 − ½‖d − d'‖₁` used by features (x), (xi), (xiii).
//!
//! # Example
//!
//! ```
//! use forumcast_text::{tokenize, Corpus, Vocabulary};
//! use forumcast_topics::{LdaConfig, LdaModel};
//!
//! let docs: Vec<Vec<String>> = ["cats purr softly", "dogs bark loudly", "cats and dogs"]
//!     .iter()
//!     .map(|d| tokenize(d))
//!     .collect();
//! let mut vocab = Vocabulary::new();
//! for d in &docs {
//!     vocab.observe(d);
//! }
//! let corpus = Corpus::from_token_docs(&docs, &vocab);
//! let model = LdaModel::train(&corpus, &LdaConfig::new(2).with_iterations(50).with_seed(7));
//! let theta = model.doc_topics(0);
//! assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

pub mod lda;
pub mod similarity;

pub use lda::{LdaConfig, LdaModel};
pub use similarity::{mean_distribution, tv_similarity};
