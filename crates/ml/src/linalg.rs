//! Small dense vector/matrix kernels used across the ML stack.
//!
//! These are the shared inner loops of every trainer in the crate:
//! MLP forward/backward ([`gemv`], [`rank1_accum`], [`gemv_t_accum`]),
//! the GLM fitters and MF/SPARFA ([`dot`], [`axpy`]). They are written
//! as blocked, autovectorizable slice loops with **fixed** blocking,
//! because the blocking determines how floating-point sums associate:
//! changing it changes results bitwise, and the crate's determinism
//! guarantees (1-vs-N-thread parity, bitwise-reproducible folds) assume every
//! code path reduces through these exact kernels.

/// Dot product `aᵀb`.
///
/// Accumulates in four independent lanes (plus a serial tail), combined
/// as `(acc₀+acc₂) + (acc₁+acc₃) + tail`. The 4-lane blocking is part
/// of the function's value contract — all trainers share it, so every
/// forward pass and gradient in the crate associates identically.
///
/// # Panics
///
/// Panics when lengths differ.
///
/// # Example
///
/// ```
/// use forumcast_ml::linalg::dot;
/// assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let split = a.len() - a.len() % 4;
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        tail += x * y;
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// In-place `y += alpha * x`.
///
/// # Panics
///
/// Panics when lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Row-major matrix–vector product with bias:
/// `out[o] = w[o·cols .. (o+1)·cols] · x + bias[o]` — the MLP layer
/// forward kernel (each row reduced by [`dot`]).
///
/// # Panics
///
/// Panics when any slice length disagrees with `rows`/`cols`.
pub fn gemv(w: &[f64], rows: usize, cols: usize, x: &[f64], bias: &[f64], out: &mut [f64]) {
    assert_eq!(w.len(), rows * cols, "gemv: weight shape mismatch");
    assert_eq!(x.len(), cols, "gemv: input length mismatch");
    assert_eq!(bias.len(), rows, "gemv: bias length mismatch");
    assert_eq!(out.len(), rows, "gemv: output length mismatch");
    for ((row, b), z) in w.chunks_exact(cols).zip(bias).zip(out.iter_mut()) {
        *z = dot(row, x) + b;
    }
}

/// Accumulating transposed matrix–vector product `out += wᵀ d` for a
/// row-major `rows × cols` matrix — the backpropagation kernel that
/// pushes a layer's δ back to its input (one [`axpy`] per row, in row
/// order).
///
/// # Panics
///
/// Panics when any slice length disagrees with `rows`/`cols`.
pub fn gemv_t_accum(w: &[f64], rows: usize, cols: usize, d: &[f64], out: &mut [f64]) {
    assert_eq!(w.len(), rows * cols, "gemv_t_accum: weight shape mismatch");
    assert_eq!(d.len(), rows, "gemv_t_accum: delta length mismatch");
    assert_eq!(out.len(), cols, "gemv_t_accum: output length mismatch");
    for (row, &di) in w.chunks_exact(cols).zip(d) {
        axpy(di, row, out);
    }
}

/// Accumulating rank-1 update `gw += d ⊗ x` for a row-major
/// `rows × cols` gradient buffer — the weight-gradient kernel (one
/// [`axpy`] per row, in row order).
///
/// # Panics
///
/// Panics when any slice length disagrees with `rows`/`cols`.
pub fn rank1_accum(gw: &mut [f64], rows: usize, cols: usize, d: &[f64], x: &[f64]) {
    assert_eq!(gw.len(), rows * cols, "rank1_accum: weight shape mismatch");
    assert_eq!(d.len(), rows, "rank1_accum: delta length mismatch");
    assert_eq!(x.len(), cols, "rank1_accum: input length mismatch");
    for (row, &di) in gw.chunks_exact_mut(cols).zip(d) {
        axpy(di, x, row);
    }
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// In-place scaling `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Mean of a slice (0 for empty input).
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Median of a slice (0 for empty input); the paper uses medians for
/// response-time features to resist outliers (footnote 4).
///
/// Uses `select_nth_unstable_by` with the `total_cmp` order (the same
/// tiebreak discipline as the topic crate's `top_words`), so it runs
/// in O(n) instead of a full sort while returning exactly what the
/// sorted definition would — including on ties and signed zeros.
pub fn median(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut v = x.to_vec();
    let n = v.len();
    let (lower, upper, _) = v.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        *upper
    } else {
        // The lower partition holds the multiset of the n/2 smallest
        // elements, so its total_cmp-max is the sorted v[n/2 - 1].
        let low = lower
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .expect("even length >= 2 has a non-empty lower half");
        0.5 * (low + *upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[3.0, 4.0], &[3.0, 4.0]), 25.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn dot_matches_reference_across_remainder_lengths() {
        // Exercise every `len % 4` residue across the blocked path.
        for n in 0..23usize {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.91).cos()).collect();
            let reference: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - reference).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn gemv_matches_per_row_dot() {
        // 3×5 row-major matrix.
        let w: Vec<f64> = (0..15).map(|i| (i as f64 * 0.21).sin()).collect();
        let x: Vec<f64> = (0..5).map(|i| 0.3 * i as f64 - 0.7).collect();
        let bias = [0.1, -0.2, 0.3];
        let mut out = [0.0; 3];
        gemv(&w, 3, 5, &x, &bias, &mut out);
        for o in 0..3 {
            let expected = dot(&w[o * 5..(o + 1) * 5], &x) + bias[o];
            assert_eq!(out[o].to_bits(), expected.to_bits(), "row {o}");
        }
    }

    #[test]
    fn gemv_t_accum_matches_scalar_loops() {
        let w: Vec<f64> = (0..12).map(|i| (i as f64 * 0.53).cos()).collect();
        let d = [0.5, -1.5, 2.0];
        let mut out = vec![0.1; 4];
        let mut expected = out.clone();
        for o in 0..3 {
            for i in 0..4 {
                expected[i] += d[o] * w[o * 4 + i];
            }
        }
        gemv_t_accum(&w, 3, 4, &d, &mut out);
        for (a, e) in out.iter().zip(&expected) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn rank1_accum_matches_scalar_loops() {
        let mut gw = vec![0.25; 6];
        let d = [2.0, -3.0];
        let x = [0.5, 1.5, -0.5];
        let mut expected = gw.clone();
        for o in 0..2 {
            for i in 0..3 {
                expected[o * 3 + i] += d[o] * x[i];
            }
        }
        rank1_accum(&mut gw, 2, 3, &d, &x);
        for (a, e) in gw.iter().zip(&expected) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn gemv_shape_mismatch_panics() {
        let mut out = [0.0; 2];
        gemv(&[1.0; 5], 2, 3, &[0.0; 3], &[0.0; 2], &mut out);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![2.0, -4.0];
        scale(0.5, &mut x);
        assert_eq!(x, vec![1.0, -2.0]);
    }

    #[test]
    fn mean_of_a_slice() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_matches_full_sort_definition() {
        // Includes ties and signed zeros, where the selection path must
        // reproduce the sorted definition bit-for-bit.
        let cases: Vec<Vec<f64>> = vec![
            vec![2.0, 2.0, 2.0, 2.0],
            vec![-0.0, 0.0],
            vec![0.0, -0.0, 1.0, -1.0],
            vec![1.0; 7],
            (0..101).map(|i| ((i * 37) % 101) as f64 - 50.0).collect(),
            (0..100).map(|i| ((i * 13) % 25) as f64).collect(),
        ];
        for case in cases {
            let mut sorted = case.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let n = sorted.len();
            let expected = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
            };
            assert_eq!(median(&case).to_bits(), expected.to_bits(), "case {case:?}");
        }
    }
}
