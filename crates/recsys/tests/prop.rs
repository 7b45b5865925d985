//! Property-based tests: the greedy routing solver is exact
//! (cross-checked against the simplex LP) and always feasible.

mod simplex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use forumcast_recsys::{solve_routing, RoutingProblem};
use simplex::maximize;

/// `p` as a general LP for [`maximize`]: the equality `Σ p_u = 1` as two
/// opposing inequalities, and each box upper bound as a row.
fn simplex_form(p: &RoutingProblem) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = p.scores.len();
    let mut a = vec![vec![1.0; n], vec![-1.0; n]];
    let mut b = vec![1.0, -1.0];
    for i in 0..n {
        let mut row = vec![0.0; n];
        row[i] = 1.0;
        a.push(row);
        b.push(p.capacities[i]);
    }
    (a, b)
}

/// The greedy objective on `p` against the simplex optimum: equal
/// within 1e-6, or both infeasible.
fn greedy_vs_simplex(p: &RoutingProblem) -> Result<(), String> {
    let (a, b) = simplex_form(p);
    match (solve_routing(p), maximize(&p.scores, &a, &b)) {
        (Some(x), Ok(sol)) => {
            let val: f64 = x.iter().zip(&p.scores).map(|(xi, si)| xi * si).sum();
            if (val - sol.objective).abs() < 1e-6 {
                Ok(())
            } else {
                Err(format!("greedy {val} vs simplex {}", sol.objective))
            }
        }
        (None, Err(_)) => Ok(()),
        (g, l) => Err(format!("disagree: greedy {g:?} vs simplex {l:?}")),
    }
}

/// The greedy solver matches the simplex solver on 30 seeded random
/// instances of 2–6 users, scores in [−3, 5) and capacities in [0, 1).
#[test]
fn greedy_matches_simplex_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(33);
    for trial in 0..30 {
        let n = rng.gen_range(2..7);
        let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..5.0)).collect();
        let caps: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        if let Err(e) = greedy_vs_simplex(&RoutingProblem::new(scores, caps)) {
            panic!("trial {trial}: {e}");
        }
    }
}

fn arb_problem() -> impl Strategy<Value = RoutingProblem> {
    (1usize..8).prop_flat_map(|n| {
        (
            proptest::collection::vec(-5.0f64..5.0, n),
            proptest::collection::vec(0.0f64..1.2, n),
        )
            .prop_map(|(scores, caps)| RoutingProblem::new(scores, caps))
    })
}

proptest! {
    /// Greedy solutions are feasible distributions within the box.
    #[test]
    fn greedy_solution_feasible(p in arb_problem()) {
        match solve_routing(&p) {
            Some(x) => {
                prop_assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                for (xi, ci) in x.iter().zip(&p.capacities) {
                    prop_assert!(*xi >= -1e-12 && xi <= &(ci + 1e-12));
                }
            }
            None => prop_assert!(!p.is_feasible()),
        }
    }

    /// The greedy objective matches the general simplex solver.
    #[test]
    fn greedy_matches_simplex(p in arb_problem()) {
        if let Err(e) = greedy_vs_simplex(&p) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Raising one user's score never lowers that user's probability
    /// (monotonicity of the allocation).
    #[test]
    fn allocation_monotone_in_score(p in arb_problem(), idx in 0usize..8, bump in 0.1f64..3.0) {
        let n = p.scores.len();
        let idx = idx % n;
        if let Some(before) = solve_routing(&p) {
            let mut scores = p.scores.clone();
            scores[idx] += bump + 10.0; // make it strictly the best
            let p2 = RoutingProblem::new(scores, p.capacities.clone());
            let after = solve_routing(&p2).expect("same capacities stay feasible");
            prop_assert!(after[idx] >= before[idx] - 1e-12);
        }
    }

    /// The simplex solver on box-only LPs saturates positive scores.
    #[test]
    fn simplex_box_only(scores in proptest::collection::vec(-3.0f64..3.0, 1..5)) {
        let n = scores.len();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..n {
            let mut row = vec![0.0; n];
            row[i] = 1.0;
            a.push(row);
            b.push(1.0);
        }
        let sol = maximize(&scores, &a, &b).expect("feasible");
        let expected: f64 = scores.iter().filter(|s| **s > 0.0).sum();
        prop_assert!((sol.objective - expected).abs() < 1e-7);
    }
}
