//! The metrics `BENCHMARK.json` declares, and the order statistics the
//! benchmark reports them with.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before a change is rejected;
/// per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by every untraced run, for every workload. An "op" is the
/// workload's unit of work: one CV fold, one experiment build, or one
/// route request. Each bound is set from two ten-seed sets (README.md):
/// times drift with the shared host, by up to 22% between sets, so
/// they get the widest bound; the peak heap repeats exactly for one
/// seed and moved by at most 5% between sets of different seeds.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_heap_mb", "MB", Better::Lower, 0.1),
];

/// Reported by every traced run, for every workload. Times and counts
/// are totals over the traced phase: one set-up plus the workload's
/// fixed number of traced ops. Every time is one that all four
/// workloads spend; a layer only some workloads run reports a rate or
/// a share, which is 0 where the layer does not run.
pub const PER_LAYER: &[Metric] = &[
    layer("synth.generate_ms", "ms", Better::Lower),
    layer("data.preprocess_ms", "ms", Better::Lower),
    layer("topics.lda_train_ms", "ms", Better::Lower),
    layer("topics.lda_train_calls", "count", Better::Lower),
    layer("topics.gibbs_tokens", "count", Better::Lower),
    layer("topics.gibbs_mtokens_per_s", "M/s", Better::Higher),
    layer("topics.infer_docs", "count", Better::Lower),
    layer("graph.closeness_ms", "ms", Better::Lower),
    layer("graph.betweenness_ms", "ms", Better::Lower),
    layer("graph.bfs_scratch_reuses", "count", Better::Higher),
    layer("features.assembly_ms", "ms", Better::Lower),
    layer("features.pairs", "count", Better::Lower),
    layer("features.pairs_per_s", "1/s", Better::Higher),
    layer("ml.timing.train_pairs_per_s", "1/s", Better::Higher),
    layer("ml.vote.train_pairs_per_s", "1/s", Better::Higher),
    layer("ml.answer.train_pairs_per_s", "1/s", Better::Higher),
    layer("ml.logistic.epochs", "count", Better::Lower),
    layer("core.predict_calls", "count", Better::Lower),
    layer("core.predict_per_s", "1/s", Better::Higher),
    layer("recsys.recommend_per_s", "1/s", Better::Higher),
    layer("recsys.candidates_per_route", "count", Better::Lower),
    layer("recsys.eligible_frac", "frac", Better::Higher),
    layer("recsys.unrouted", "count", Better::Lower),
    layer("eval.fold_other_frac", "frac", Better::Lower),
    layer("par.tasks", "count", Better::Lower),
    layer("obs.overhead_frac", "frac", Better::Lower),
];

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (0–100, at most one decimal)
/// among `n` samples, in integer arithmetic so that p99.9 of 10,000
/// samples is rank 9,990 exactly.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// Nearest-rank percentile `p` (0–100] of `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least
/// ten of `n` samples beyond it, or `None` when even p90 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| n - rank(p, n) >= 10)
}

/// FNV-1a over a stream of 64-bit words: the informational
/// `output_digest` that shows whether two runs are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.9), 9_990.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn digest_separates_bit_patterns() {
        let hash = |v: f64| {
            let mut d = Digest::default();
            d.f64(v);
            d.finish()
        };
        assert_eq!(hash(1.5), hash(1.5));
        assert_ne!(hash(0.0), hash(-0.0));
    }

    /// `BENCHMARK.json` at the repository root is what the runs are
    /// judged against: its metric names, units, directions and bounds
    /// must be exactly these tables, and its bounds positive.
    #[test]
    fn tables_match_benchmark_json() {
        use crate::{field, number};
        use serde::Value;
        let text = include_str!("../../../../../BENCHMARK.json");
        let root: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let text_of = |v: &Value, key: &str| match field(v, key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("`{key}` is {other:?}, not a string"),
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(declared)) = field(&root, key) else {
                panic!("`{key}` is not an array");
            };
            assert_eq!(declared.len(), table.len(), "{key} count");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(text_of(d, "name"), m.name);
                assert_eq!(text_of(d, "unit"), m.unit, "{}", m.name);
                assert_eq!(text_of(d, "better"), m.better.name(), "{}", m.name);
                let declared = field(d, "bound").and_then(number);
                assert_eq!(declared, m.bound, "{} bound", m.name);
                if let Some(bound) = m.bound {
                    assert!(bound > 0.0, "{} bound {bound}", m.name);
                }
            }
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }
}
