//! The 20 user / question / user–question / social prediction
//! features of Hansen et al. (ICDCS 2019), Section II-B.
//!
//! For every user–question pair `(u, q)` the paper assembles a vector
//! `x_{u,q}` of dimension `18 + 2K` (two of the twenty logical
//! features are `K`-dimensional topic distributions):
//!
//! | Group | Features |
//! |---|---|
//! | user | (i) answers provided `a_u`, (ii) answer ratio `o_u`, (iii) net answer votes `v_u`, (iv) median response time `r_u`, (v) topics answered `d_u` |
//! | question | (vi) net question votes `v_q`, (vii) word length `x_q`, (viii) code length `c_q`, (ix) topics asked `d_q` |
//! | user–question | (x) topic similarity `s_{u,q}`, (xi) topic-weighted questions answered `g_{u,q}`, (xii) topic-weighted answer votes `e_{u,q}` |
//! | social | (xiii) user–user topic similarity `s_{u,v}`, (xiv) thread co-occurrence `h_{u,v}`, (xv/xviii) closeness `l_u`, (xvi/xix) betweenness `b_u`, (xvii/xx) resource allocation `Re_{u,v}` on `G_QA` and `G_D` |
//!
//! All aggregates are computed over a **history partition** `F(q)` of
//! threads (never the target question itself), which is what the
//! paper's historical-data experiments (Fig. 7) vary.
//!
//! Entry point: [`FeatureExtractor`]. Feature bookkeeping (indices,
//! names, groups, masking for the importance studies of Figs. 6–7)
//! lives in [`layout`]; z-score normalization in [`normalize`].
//!
//! # Example
//!
//! ```
//! use forumcast_features::{ExtractorConfig, FeatureExtractor};
//! use forumcast_synth::SynthConfig;
//!
//! let dataset = SynthConfig::small().generate();
//! let (clean, _) = dataset.preprocess();
//! let history = &clean.threads()[..100];
//! let extractor = FeatureExtractor::fit(history, clean.num_users(), &ExtractorConfig::fast());
//! let target = &clean.threads()[100];
//! let d_q = extractor.question_topics(target);
//! let x = extractor.features(target.answers[0].author, target, &d_q);
//! assert_eq!(x.len(), extractor.dim());
//! ```

pub mod context;
pub mod extractor;
pub mod layout;
pub mod normalize;
pub mod topics;

pub use context::FeatureContext;
pub use extractor::{ExtractorConfig, FeatureExtractor};
// Re-exported so callers can set `ExtractorConfig::lda` without
// depending on `forumcast-topics` directly.
pub use forumcast_topics::LdaConfig;
pub use layout::{feature_dim, feature_names, FeatureGroup, FeatureId, FeatureLayout};
pub use normalize::Normalizer;
pub use topics::{PostTopics, TokenizedPosts};
