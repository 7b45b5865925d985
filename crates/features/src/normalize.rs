//! Z-score normalization of feature vectors.

use serde::{Deserialize, Serialize};

/// Per-slot z-score normalizer fitted on a training set. Slots with
/// zero variance pass through unchanged (shifted to 0), so constant
/// features cannot produce NaNs.
///
/// # Example
///
/// ```
/// use forumcast_features::Normalizer;
/// let train = vec![vec![0.0, 10.0], vec![2.0, 10.0], vec![4.0, 10.0]];
/// let norm = Normalizer::fit(&train);
/// let z = norm.transform(&[2.0, 10.0]);
/// assert!(z[0].abs() < 1e-12); // mean maps to 0
/// assert_eq!(z[1], 0.0);       // constant slot maps to 0
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Normalizer {
    /// An identity normalizer (zero means, unit stds): `transform`
    /// returns its input unchanged. Useful where an API expects a
    /// normalizer but raw features are wanted.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`.
    pub fn identity(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Normalizer {
            means: vec![0.0; dim],
            stds: vec![1.0; dim],
        }
    }

    /// Fits means and standard deviations on `rows`.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty or row lengths differ.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a normalizer on no data");
        let dim = rows[0].len();
        let n = rows.len() as f64;
        let mut means = vec![0.0; dim];
        for r in rows {
            assert_eq!(r.len(), dim, "inconsistent row lengths");
            for (m, &v) in means.iter_mut().zip(r) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; dim];
        for r in rows {
            for ((s, &v), &m) in stds.iter_mut().zip(r).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
        }
        Normalizer { means, stds }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Returns the z-scored copy of `x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != dim()`.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "dimension mismatch");
        x.iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((&v, &m), &s)| if s > 1e-12 { (v - m) / s } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transformed_training_set_has_zero_mean_unit_std() {
        let rows = vec![vec![1.0, -3.0], vec![3.0, 0.0], vec![5.0, 3.0]];
        let norm = Normalizer::fit(&rows);
        let z: Vec<Vec<f64>> = rows.iter().map(|r| norm.transform(r)).collect();
        for d in 0..2 {
            let mean: f64 = z.iter().map(|r| r[d]).sum::<f64>() / 3.0;
            let var: f64 = z.iter().map(|r| r[d] * r[d]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_features_map_to_zero() {
        let rows = vec![vec![7.0], vec![7.0]];
        let norm = Normalizer::fit(&rows);
        assert_eq!(norm.transform(&[7.0]), vec![0.0]);
        assert_eq!(norm.transform(&[100.0]), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_fit_panics() {
        Normalizer::fit(&[]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_transform_panics() {
        Normalizer::fit(&[vec![1.0]]).transform(&[1.0, 2.0]);
    }

    #[test]
    fn identity_passes_through() {
        let n = Normalizer::identity(3);
        assert_eq!(n.transform(&[5.0, -2.0, 0.0]), vec![5.0, -2.0, 0.0]);
        assert_eq!(n.dim(), 3);
    }

    #[test]
    fn serde_roundtrip() {
        let norm = Normalizer::fit(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let json = serde_json::to_string(&norm).unwrap();
        let back: Normalizer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, norm);
    }
}
