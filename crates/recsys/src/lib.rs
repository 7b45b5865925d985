//! Question recommendation for `forumcast` — the paper's Section V.
//!
//! Given the three predictions `â_{u,q′}`, `v̂_{u,q′}`, `r̂_{u,q′}`
//! for a newly posted question `q′`, the paper recommends answerers by
//! solving, over the eligible set `U_{q′} = {u : â ≥ ε}`:
//!
//! ```text
//! maximize   Σ_u (v̂_u − λ_{q′} · r̂_u) · p_u
//! subject to 0 ≤ p_u ≤ c_u − recent load,   Σ_u p_u = 1
//! ```
//!
//! a linear program whose solution is a probability distribution over
//! answerers (rankable and drawable, Section V).
//!
//! This crate provides:
//!
//! * [`routing`] — the specialized exact greedy solver for the
//!   paper's box-plus-simplex structure (its tests cross-check it
//!   against a general simplex solver);
//! * [`router`] — a stateful [`QuestionRouter`] that tracks per-user
//!   load over a sliding window and produces ranked recommendations,
//!   and [`score_candidates`], which turns a question's feature rows
//!   into the router's [`Candidate`]s.
//!
//! # Example
//!
//! ```
//! use forumcast_recsys::{RouterConfig, QuestionRouter, Candidate};
//! use forumcast_data::UserId;
//!
//! let mut router = QuestionRouter::new(RouterConfig::default());
//! let recs = router
//!     .recommend(
//!         0.0, // current time (hours)
//!         1.0, // λ_q′: weight of timing vs quality
//!         &[
//!             Candidate { user: UserId(0), answer_prob: 0.9, votes: 3.0, response_time: 2.0 },
//!             Candidate { user: UserId(1), answer_prob: 0.8, votes: 1.0, response_time: 0.5 },
//!             Candidate { user: UserId(2), answer_prob: 0.1, votes: 9.0, response_time: 0.1 },
//!         ],
//!     )
//!     .expect("feasible");
//! // u2 is filtered out by ε; u0 wins on v̂ − λ·r̂ = 1.0 vs 0.5.
//! assert_eq!(recs.ranking()[0], UserId(0));
//! ```

pub mod router;
pub mod routing;

pub use router::{score_candidates, Candidate, QuestionRouter, Recommendation, RouterConfig};
pub use routing::{solve_routing, RoutingProblem};
