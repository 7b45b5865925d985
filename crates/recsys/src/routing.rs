//! The specialized exact solver for the Section-V routing LP.

use serde::{Deserialize, Serialize};

/// One instance of the routing LP (Equation (2) of the paper):
/// maximize `Σ score_u · p_u` over probability vectors `p` with
/// per-user box constraints `0 ≤ p_u ≤ capacity_u` and `Σ p_u = 1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingProblem {
    /// Objective coefficients `v̂_u − λ_{q′} · r̂_u` per eligible user.
    pub scores: Vec<f64>,
    /// Remaining capacity `c_u − Σ recent answers`, clamped to `≥ 0`.
    pub capacities: Vec<f64>,
}

impl RoutingProblem {
    /// Creates a problem; negative capacities are clamped to zero
    /// (a user who exceeded their cap simply gets no probability).
    ///
    /// # Panics
    ///
    /// Panics when the two vectors differ in length.
    pub fn new(scores: Vec<f64>, capacities: Vec<f64>) -> Self {
        assert_eq!(
            scores.len(),
            capacities.len(),
            "scores/capacities length mismatch"
        );
        let capacities = capacities.into_iter().map(|c| c.max(0.0)).collect();
        RoutingProblem { scores, capacities }
    }

    /// `true` when `Σ capacities ≥ 1`, i.e. a distribution exists.
    pub fn is_feasible(&self) -> bool {
        self.capacities.iter().sum::<f64>() >= 1.0 - 1e-12
    }
}

/// Solves the routing LP exactly in `O(n log n)`: since the objective
/// is linear and the feasible set is a box intersected with the
/// probability simplex, an optimal solution greedily saturates users
/// in decreasing score order. Returns `None` when infeasible
/// (total capacity < 1).
///
/// # Example
///
/// ```
/// use forumcast_recsys::{solve_routing, RoutingProblem};
/// let p = RoutingProblem::new(vec![3.0, 1.0, 2.0], vec![0.4, 1.0, 1.0]);
/// let x = solve_routing(&p).unwrap();
/// assert_eq!(x, vec![0.4, 0.0, 0.6]); // best user capped, runner-up fills
/// ```
pub fn solve_routing(problem: &RoutingProblem) -> Option<Vec<f64>> {
    if !problem.is_feasible() {
        return None;
    }
    let n = problem.scores.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| problem.scores[b].total_cmp(&problem.scores[a]));
    let mut p = vec![0.0; n];
    let mut remaining = 1.0;
    for &i in &order {
        if remaining <= 1e-15 {
            break;
        }
        let take = problem.capacities[i].min(remaining);
        p[i] = take;
        remaining -= take;
    }
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_puts_all_mass_on_best() {
        let p = RoutingProblem::new(vec![1.0, 5.0, 3.0], vec![1.0, 1.0, 1.0]);
        assert_eq!(solve_routing(&p).unwrap(), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn capped_best_spills_to_next() {
        let p = RoutingProblem::new(vec![5.0, 3.0, 1.0], vec![0.25, 0.5, 1.0]);
        assert_eq!(solve_routing(&p).unwrap(), vec![0.25, 0.5, 0.25]);
    }

    #[test]
    fn infeasible_when_capacity_below_one() {
        let p = RoutingProblem::new(vec![1.0, 1.0], vec![0.3, 0.3]);
        assert!(solve_routing(&p).is_none());
        assert!(!p.is_feasible());
    }

    #[test]
    fn negative_capacities_are_clamped() {
        let p = RoutingProblem::new(vec![2.0, 1.0], vec![-5.0, 1.0]);
        assert_eq!(p.capacities, vec![0.0, 1.0]);
        assert_eq!(solve_routing(&p).unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn solution_is_a_distribution() {
        let p = RoutingProblem::new(
            vec![0.3, -1.2, 2.4, 0.0, 1.1],
            vec![0.2, 0.4, 0.1, 0.9, 0.3],
        );
        let x = solve_routing(&p).unwrap();
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (xi, ci) in x.iter().zip(&p.capacities) {
            assert!(*xi >= 0.0 && xi <= ci);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        RoutingProblem::new(vec![1.0], vec![]);
    }
}
