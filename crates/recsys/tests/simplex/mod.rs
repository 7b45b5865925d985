//! A dense two-phase simplex solver for small linear programs, the test
//! oracle for `solve_routing`.
//!
//! Solves `maximize cᵀx subject to Ax ≤ b, x ≥ 0` (inequalities with
//! possibly negative `b`, handled by phase-1 artificial variables).
//! Equality constraints are expressed as two opposing inequalities by
//! callers. Sized for the routing LPs of Section V in tests — a few
//! hundred variables at most.

use std::error::Error;
use std::fmt;

/// Errors from [`maximize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// Inconsistent matrix dimensions.
    DimensionMismatch,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::DimensionMismatch => write!(f, "constraint dimensions disagree"),
        }
    }
}

impl Error for LpError {}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal variable assignment.
    pub x: Vec<f64>,
    /// Optimal objective value `cᵀx`.
    pub objective: f64,
}

const EPS: f64 = 1e-9;

/// Maximizes `cᵀx` subject to `Ax ≤ b`, `x ≥ 0` via two-phase
/// simplex with Bland's rule (no cycling).
///
/// # Errors
///
/// * [`LpError::DimensionMismatch`] when a row of `a` does not match
///   `c.len()` or `b.len() != a.len()`;
/// * [`LpError::Infeasible`] / [`LpError::Unbounded`] as diagnosed.
pub fn maximize(c: &[f64], a: &[Vec<f64>], b: &[f64]) -> Result<LpSolution, LpError> {
    let n = c.len();
    let m = a.len();
    if b.len() != m || a.iter().any(|row| row.len() != n) {
        return Err(LpError::DimensionMismatch);
    }

    // Tableau layout: columns = [x (n) | slacks (m) | artificials (k) | rhs].
    // Rows with negative b are flipped so rhs >= 0, turning their
    // slack coefficient to -1 and requiring an artificial variable.
    let mut needs_artificial = Vec::new();
    for (i, &bi) in b.iter().enumerate() {
        if bi < 0.0 {
            needs_artificial.push(i);
        }
    }
    let k = needs_artificial.len();
    let cols = n + m + k + 1;
    let mut t = vec![vec![0.0; cols]; m];
    let mut basis = vec![0usize; m];
    let mut art_idx = 0;
    for i in 0..m {
        let flip = b[i] < 0.0;
        let sign = if flip { -1.0 } else { 1.0 };
        for j in 0..n {
            t[i][j] = sign * a[i][j];
        }
        t[i][n + i] = sign; // slack
        t[i][cols - 1] = sign * b[i];
        if flip {
            let aj = n + m + art_idx;
            t[i][aj] = 1.0;
            basis[i] = aj;
            art_idx += 1;
        } else {
            basis[i] = n + i;
        }
    }

    // Phase 1: minimize sum of artificials (maximize negative sum).
    if k > 0 {
        let mut obj = vec![0.0; cols];
        for v in obj.iter_mut().skip(n + m).take(k) {
            *v = -1.0;
        }
        // Price out basic artificials.
        let mut z = vec![0.0; cols];
        let mut zv = 0.0;
        for i in 0..m {
            if basis[i] >= n + m {
                for j in 0..cols {
                    z[j] += t[i][j];
                }
                zv += t[i][cols - 1];
            }
        }
        let mut reduced: Vec<f64> = (0..cols - 1).map(|j| obj[j] + z[j]).collect();
        let _ = zv;
        run_simplex(&mut t, &mut basis, &mut reduced, n + m + k)?;
        // Check feasibility: all artificials must be zero.
        for i in 0..m {
            if basis[i] >= n + m && t[i][cols - 1] > EPS {
                return Err(LpError::Infeasible);
            }
        }
        // Drive any remaining basic artificials out (degenerate, value 0).
        for i in 0..m {
            if basis[i] >= n + m {
                if let Some(j) = (0..n + m).find(|&j| t[i][j].abs() > EPS) {
                    pivot(&mut t, &mut basis, i, j);
                }
            }
        }
    }

    // Phase 2: maximize c over x columns (artificial columns frozen).
    let mut reduced = vec![0.0; n + m + k];
    for (j, r) in reduced.iter_mut().enumerate().take(n) {
        *r = c[j];
    }
    // Price out the current basis.
    for i in 0..m {
        let bj = basis[i];
        let cb = if bj < n { c[bj] } else { 0.0 };
        if cb != 0.0 {
            for j in 0..n + m + k {
                reduced[j] -= cb * t[i][j];
            }
        }
    }
    // Forbid re-entering artificials.
    for r in reduced.iter_mut().skip(n + m) {
        *r = f64::NEG_INFINITY;
    }
    run_simplex(&mut t, &mut basis, &mut reduced, n + m + k)?;

    let mut x = vec![0.0; n];
    for i in 0..m {
        if basis[i] < n {
            x[basis[i]] = t[i][cols - 1];
        }
    }
    let objective = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();
    Ok(LpSolution { x, objective })
}

/// Standard primal simplex iterations with Bland's rule on `reduced`
/// costs; mutates the tableau/basis until optimal.
fn run_simplex(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    reduced: &mut [f64],
    num_cols: usize,
) -> Result<(), LpError> {
    let m = t.len();
    let rhs = t[0].len() - 1;
    for _iter in 0..10_000 {
        // Bland: smallest index with positive reduced cost.
        let Some(enter) = (0..num_cols).find(|&j| reduced[j] > EPS) else {
            return Ok(());
        };
        // Ratio test.
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for i in 0..m {
            if t[i][enter] > EPS {
                let ratio = t[i][rhs] / t[i][enter];
                if ratio < best - EPS
                    || (ratio < best + EPS && leave.is_none_or(|l| basis[i] < basis[l]))
                {
                    best = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else {
            return Err(LpError::Unbounded);
        };
        let factor = reduced[enter];
        pivot_with_reduced(t, basis, reduced, leave, enter, factor);
    }
    // Bland's rule cannot cycle; hitting the cap means a bug or a
    // pathological input far beyond this solver's intended size.
    Err(LpError::Unbounded)
}

/// Pivot on (row, col), also updating the reduced-cost row.
fn pivot_with_reduced(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    reduced: &mut [f64],
    row: usize,
    col: usize,
    factor: f64,
) {
    pivot(t, basis, row, col);
    for j in 0..reduced.len() {
        if reduced[j].is_finite() {
            reduced[j] -= factor * t[row][j];
        }
    }
}

/// Gaussian pivot on (row, col).
fn pivot(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize) {
    let p = t[row][col];
    debug_assert!(p.abs() > EPS, "pivot on ~zero element");
    for v in &mut t[row] {
        *v /= p;
    }
    for i in 0..t.len() {
        if i != row && t[i][col].abs() > EPS {
            let f = t[i][col];
            for j in 0..t[i].len() {
                t[i][j] -= f * t[row][j];
            }
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }

    #[test]
    fn textbook_two_variable_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → 36 at (2, 6).
        let sol = maximize(
            &[3.0, 5.0],
            &[vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]],
            &[4.0, 12.0, 18.0],
        )
        .unwrap();
        assert_close(sol.objective, 36.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 6.0);
    }

    #[test]
    fn tied_optima_report_the_optimal_value() {
        // max x + y s.t. x + y <= 1, x <= 0.6: every split is optimal.
        let sol = maximize(&[1.0, 1.0], &[vec![1.0, 1.0], vec![1.0, 0.0]], &[1.0, 0.6]).unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn equality_via_opposing_inequalities() {
        // max 2x + y s.t. x + y = 1 (as <= and >=), x <= 0.7 → x=0.7, y=0.3.
        let sol = maximize(
            &[2.0, 1.0],
            &[vec![1.0, 1.0], vec![-1.0, -1.0], vec![1.0, 0.0]],
            &[1.0, -1.0, 0.7],
        )
        .unwrap();
        assert_close(sol.objective, 1.7);
        assert_close(sol.x[0], 0.7);
    }

    #[test]
    fn detects_unbounded() {
        // max x with no constraints binding it above.
        let err = maximize(&[1.0, 0.0], &[vec![0.0, 1.0]], &[1.0]).unwrap_err();
        assert_eq!(err, LpError::Unbounded);
    }

    #[test]
    fn detects_infeasible() {
        // x >= 2 (i.e., -x <= -2) and x <= 1.
        let err = maximize(&[1.0], &[vec![-1.0], vec![1.0]], &[-2.0, 1.0]).unwrap_err();
        assert_eq!(err, LpError::Infeasible);
    }

    #[test]
    fn dimension_mismatch_detected() {
        assert_eq!(
            maximize(&[1.0], &[vec![1.0, 2.0]], &[1.0]).unwrap_err(),
            LpError::DimensionMismatch
        );
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Redundant constraints inducing degeneracy.
        let sol = maximize(
            &[1.0, 1.0],
            &[
                vec![1.0, 0.0],
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 1.0],
            ],
            &[1.0, 1.0, 1.0, 1.0],
        )
        .unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn negative_objective_coefficients() {
        // max -x - y s.t. x + y >= 0.5 → objective -0.5.
        let sol = maximize(&[-1.0, -1.0], &[vec![-1.0, -1.0]], &[-0.5]).unwrap();
        assert_close(sol.objective, -0.5);
    }

    #[test]
    fn lp_error_display() {
        assert_eq!(
            LpError::Infeasible.to_string(),
            "linear program is infeasible"
        );
    }
}
