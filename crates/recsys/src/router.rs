//! Stateful question router with sliding-window load constraints.

use serde::{Deserialize, Serialize};

use forumcast_core::ResponsePredictor;
use forumcast_data::{Hours, UserId};

use crate::routing::{solve_routing, RoutingProblem};

/// Router configuration (the knobs of Section V).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Eligibility threshold ε on `â_{u,q′}` — "controls the tradeoff
    /// between conforming to answerer behavior … and the number of
    /// choices available".
    pub epsilon: f64,
    /// Default per-user answer cap `c_u` over the load window.
    pub default_capacity: f64,
    /// Load-window length `I` in hours.
    pub load_window: Hours,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            epsilon: 0.5,
            default_capacity: 1.0,
            load_window: 24.0,
        }
    }
}

/// One candidate answerer with the three model predictions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The user.
    pub user: UserId,
    /// `â_{u,q′}` — predicted answer probability.
    pub answer_prob: f64,
    /// `v̂_{u,q′}` — predicted net votes.
    pub votes: f64,
    /// `r̂_{u,q′}` — predicted response time (hours).
    pub response_time: f64,
}

/// Scores candidate answerers for one question: `rows` pairs each
/// user with their raw feature vector, `window` is the question's
/// observation window in hours, and each candidate carries the
/// predictor's `(â, v̂, r̂)` for its row, in row order.
pub fn score_candidates<X: AsRef<[f64]>>(
    predictor: &ResponsePredictor,
    window: Hours,
    rows: impl IntoIterator<Item = (UserId, X)>,
) -> Vec<Candidate> {
    rows.into_iter()
        .map(|(user, x)| {
            let (answer_prob, votes, response_time) = predictor.predict(x.as_ref(), window);
            Candidate {
                user,
                answer_prob,
                votes,
                response_time,
            }
        })
        .collect()
}

/// A solved recommendation: eligible users with their routing
/// probabilities `p^{q′}_u`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    users: Vec<UserId>,
    probabilities: Vec<f64>,
    objective: f64,
}

impl Recommendation {
    /// Eligible users, aligned with [`probabilities`](Self::probabilities).
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// Routing probabilities (a distribution over [`users`](Self::users)).
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Objective value `Σ (v̂ − λ r̂) p` achieved.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Users ranked by probability (descending), dropping zero-mass
    /// users — "a ranking of potential responders that can be drawn
    /// from several times until an answer is recorded".
    pub fn ranking(&self) -> Vec<UserId> {
        let mut idx: Vec<usize> = (0..self.users.len())
            .filter(|&i| self.probabilities[i] > 1e-12)
            .collect();
        idx.sort_by(|&a, &b| self.probabilities[b].total_cmp(&self.probabilities[a]));
        idx.into_iter().map(|i| self.users[i]).collect()
    }

    /// Draws one user according to the routing distribution.
    pub fn draw<R: rand_like::UniformSource>(&self, rng: &mut R) -> Option<UserId> {
        if self.users.is_empty() {
            return None;
        }
        let mut u = rng.uniform();
        for (i, &p) in self.probabilities.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                return Some(self.users[i]);
            }
        }
        self.ranking().first().copied()
    }
}

/// Minimal uniform-sampling abstraction so this crate does not force
/// a `rand` version on downstream users (C-STABLE): any `FnMut` source
/// of `U(0,1)` values works, and `rand::Rng` adapters are one line.
pub mod rand_like {
    /// A source of uniform `[0, 1)` samples.
    pub trait UniformSource {
        /// Returns the next uniform sample.
        fn uniform(&mut self) -> f64;
    }

    impl<F: FnMut() -> f64> UniformSource for F {
        fn uniform(&mut self) -> f64 {
            self()
        }
    }
}

/// Routes newly posted questions to predicted answerers, enforcing
/// per-user load caps over a sliding window.
#[derive(Debug, Clone)]
pub struct QuestionRouter {
    config: RouterConfig,
    /// Recorded answer events `(time, user)` within the load window.
    recent: Vec<(Hours, UserId)>,
}

impl QuestionRouter {
    /// Creates a router.
    pub fn new(config: RouterConfig) -> Self {
        QuestionRouter {
            config,
            recent: Vec::new(),
        }
    }

    /// Records that `user` answered a recommended question at `time`,
    /// consuming load (the `z_{u,q}` bookkeeping of Equation (2)).
    pub fn record_answer(&mut self, time: Hours, user: UserId) {
        self.recent.push((time, user));
    }

    /// Current load of `user`: answers recorded within the window
    /// ending at `now`.
    pub fn load(&self, now: Hours, user: UserId) -> f64 {
        let from = now - self.config.load_window;
        self.recent
            .iter()
            .filter(|&&(t, u)| u == user && t > from && t <= now)
            .count() as f64
    }

    /// Recommends answerers for a new question at time `now` with
    /// quality/timing tradeoff `lambda` (`λ_{q′}`, "might be set by
    /// the question asker"). Returns `None` when no eligible user has
    /// spare capacity (infeasible LP).
    pub fn recommend(
        &mut self,
        now: Hours,
        lambda: f64,
        candidates: &[Candidate],
    ) -> Option<Recommendation> {
        // Drop stale load records.
        let from = now - self.config.load_window;
        self.recent.retain(|&(t, _)| t > from);

        let eligible: Vec<&Candidate> = candidates
            .iter()
            .filter(|c| c.answer_prob >= self.config.epsilon)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let scores: Vec<f64> = eligible
            .iter()
            .map(|c| c.votes - lambda * c.response_time)
            .collect();
        let capacities: Vec<f64> = eligible
            .iter()
            .map(|c| self.config.default_capacity - self.load(now, c.user))
            .collect();
        let problem = RoutingProblem::new(scores.clone(), capacities);
        let p = solve_routing(&problem)?;
        let objective = p.iter().zip(&scores).map(|(pi, si)| pi * si).sum();
        Some(Recommendation {
            users: eligible.iter().map(|c| c.user).collect(),
            probabilities: p,
            objective,
        })
    }

    /// The router configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forumcast_core::{TrainConfig, TrainingRows};

    #[test]
    fn score_candidates_equals_per_row_predict() {
        let mut rows = TrainingRows::new(2);
        for q in 0..12 {
            let s = q as f64;
            rows.answered(q, vec![1.0 + s, 2.0], 1.0 + s % 3.0, 0.5 + s % 4.0);
            rows.unanswered(q, vec![-1.0, s]);
        }
        let windows: Vec<f64> = (0..12).map(|q| 10.0 + q as f64).collect();
        let model = ResponsePredictor::train(&rows.finish(&windows, 20), &TrainConfig::fast());
        let xs = [vec![3.0, 2.0], vec![-1.0, 4.0], vec![0.0, 0.0]];
        let scored = score_candidates(
            &model,
            12.5,
            xs.iter()
                .enumerate()
                .map(|(i, x)| (UserId(7 - i as u32), x)),
        );
        assert_eq!(scored.len(), xs.len());
        for (i, (c, x)) in scored.iter().zip(&xs).enumerate() {
            let (a, v, r) = model.predict(x, 12.5);
            assert_eq!(c.user, UserId(7 - i as u32));
            assert_eq!(
                [c.answer_prob, c.votes, c.response_time].map(f64::to_bits),
                [a, v, r].map(f64::to_bits)
            );
        }
        assert!(score_candidates(&model, 1.0, Vec::<(UserId, Vec<f64>)>::new()).is_empty());
    }

    fn candidates() -> Vec<Candidate> {
        vec![
            Candidate {
                user: UserId(0),
                answer_prob: 0.9,
                votes: 4.0,
                response_time: 2.0,
            },
            Candidate {
                user: UserId(1),
                answer_prob: 0.7,
                votes: 2.0,
                response_time: 0.5,
            },
            Candidate {
                user: UserId(2),
                answer_prob: 0.2,
                votes: 9.0,
                response_time: 0.1,
            },
        ]
    }

    #[test]
    fn epsilon_filters_unlikely_answerers() {
        let mut router = QuestionRouter::new(RouterConfig::default());
        let rec = router.recommend(0.0, 0.0, &candidates()).unwrap();
        // u2 excluded despite the best score.
        assert!(!rec.users().contains(&UserId(2)));
    }

    #[test]
    fn lambda_trades_quality_for_speed() {
        let mut router = QuestionRouter::new(RouterConfig::default());
        // λ = 0: u0 wins on votes (4 vs 2).
        let rec = router.recommend(0.0, 0.0, &candidates()).unwrap();
        assert_eq!(rec.ranking()[0], UserId(0));
        // λ = 2: u0 scores 0, u1 scores 1 → u1 wins.
        let rec = router.recommend(0.0, 2.0, &candidates()).unwrap();
        assert_eq!(rec.ranking()[0], UserId(1));
    }

    #[test]
    fn load_consumes_capacity() {
        let mut router = QuestionRouter::new(RouterConfig::default());
        router.record_answer(1.0, UserId(0));
        // u0's capacity (1.0) is used up; all mass goes to u1.
        let rec = router.recommend(2.0, 0.0, &candidates()).unwrap();
        let i0 = rec.users().iter().position(|&u| u == UserId(0)).unwrap();
        assert_eq!(rec.probabilities()[i0], 0.0);
        assert_eq!(rec.ranking()[0], UserId(1));
    }

    #[test]
    fn load_expires_outside_window() {
        let mut router = QuestionRouter::new(RouterConfig::default());
        router.record_answer(1.0, UserId(0));
        assert_eq!(router.load(2.0, UserId(0)), 1.0);
        // 30h later the 24h window has passed.
        assert_eq!(router.load(31.0, UserId(0)), 0.0);
        let rec = router.recommend(31.0, 0.0, &candidates()).unwrap();
        assert_eq!(rec.ranking()[0], UserId(0));
    }

    #[test]
    fn infeasible_when_everyone_is_loaded() {
        let mut router = QuestionRouter::new(RouterConfig::default());
        router.record_answer(1.0, UserId(0));
        router.record_answer(1.0, UserId(1));
        assert!(router.recommend(2.0, 0.0, &candidates()).is_none());
    }

    #[test]
    fn no_eligible_candidates_is_none() {
        let mut router = QuestionRouter::new(RouterConfig {
            epsilon: 0.99,
            ..RouterConfig::default()
        });
        assert!(router.recommend(0.0, 0.0, &candidates()).is_none());
    }

    #[test]
    fn capacity_below_one_splits_probability() {
        let mut router = QuestionRouter::new(RouterConfig {
            default_capacity: 0.6,
            ..RouterConfig::default()
        });
        let rec = router.recommend(0.0, 0.0, &candidates()).unwrap();
        let i0 = rec.users().iter().position(|&u| u == UserId(0)).unwrap();
        let i1 = rec.users().iter().position(|&u| u == UserId(1)).unwrap();
        assert!((rec.probabilities()[i0] - 0.6).abs() < 1e-12);
        assert!((rec.probabilities()[i1] - 0.4).abs() < 1e-12);
        assert!((rec.objective() - (0.6 * 4.0 + 0.4 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn draw_respects_distribution() {
        let mut router = QuestionRouter::new(RouterConfig {
            default_capacity: 0.5,
            ..RouterConfig::default()
        });
        let rec = router.recommend(0.0, 0.0, &candidates()).unwrap();
        // Deterministic "rng" sequence.
        let mut seq = [0.25f64, 0.75].iter().cycle().copied();
        let mut src = move || seq.next().unwrap();
        let first = rec.draw(&mut src).unwrap();
        let second = rec.draw(&mut src).unwrap();
        assert_ne!(first, second, "different quantiles hit different users");
    }

    #[test]
    fn empty_recommendation_draw_is_none() {
        let rec = Recommendation {
            users: vec![],
            probabilities: vec![],
            objective: 0.0,
        };
        let mut src = || 0.5;
        assert!(rec.draw(&mut src).is_none());
    }
}
