//! Property-based tests for LDA and topic similarities.

use proptest::prelude::*;

use forumcast_text::{BagOfWords, Corpus};
use forumcast_topics::{mean_distribution, tv_similarity, LdaConfig, LdaModel};

fn arb_distribution(k: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..1.0, k).prop_map(|mut v| {
        let s: f64 = v.iter().sum();
        for x in &mut v {
            *x /= s;
        }
        v
    })
}

proptest! {
    /// TV similarity is in [0, 1], symmetric, and 1 iff identical.
    #[test]
    fn tv_similarity_is_a_similarity(a in arb_distribution(5), b in arb_distribution(5)) {
        let s = tv_similarity(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        prop_assert!((s - tv_similarity(&b, &a)).abs() < 1e-12);
        prop_assert!((tv_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    /// TV similarity satisfies the triangle-style bound derived from
    /// the TV distance metric: d(a,c) ≤ d(a,b) + d(b,c).
    #[test]
    fn tv_triangle_inequality(
        a in arb_distribution(4),
        b in arb_distribution(4),
        c in arb_distribution(4),
    ) {
        let d = |x: &[f64], y: &[f64]| 1.0 - tv_similarity(x, y);
        prop_assert!(d(&a, &c) <= d(&a, &b) + d(&b, &c) + 1e-12);
    }

    /// Mean distributions are valid distributions.
    #[test]
    fn mean_distribution_valid(ds in proptest::collection::vec(arb_distribution(3), 0..6)) {
        let m = mean_distribution(&ds, 3);
        prop_assert_eq!(m.len(), 3);
        prop_assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(m.iter().all(|&p| p >= 0.0));
    }

    /// LDA inference always yields a valid distribution, for any doc.
    #[test]
    fn lda_inference_valid(ids in proptest::collection::vec(0usize..12, 0..40), seed in 0u64..500) {
        // Train once per case on a small fixed corpus (cheap at 10 sweeps).
        let mut corpus = Corpus::new(12);
        for d in 0..6 {
            corpus.push_doc([(d * 2) % 12, (d * 2 + 1) % 12, d % 12]);
        }
        let model = LdaModel::train(&corpus, &LdaConfig::new(3).with_iterations(10));
        let theta = model.infer(&BagOfWords::from_ids(&ids), seed);
        prop_assert_eq!(theta.len(), 3);
        prop_assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(theta.iter().all(|&p| p > 0.0));
    }
}
