//! Fixed-bucket log-scale (HDR-style) histograms for latency and
//! value distributions.
//!
//! The bucket layout is a pure function of the value, so recording is
//! one index computation plus one increment, the buckets do not depend
//! on the order values arrive in (the collector relies on this for
//! thread-count-independent drains), and memory is a fixed ~15 KB
//! regardless of how many values are recorded.
//!
//! Layout: values below 2⁵ = 32 get exact unit-width buckets; above
//! that, each power-of-two range splits into 32 linear sub-buckets,
//! bounding the relative quantile error at 1/32 ≈ 3.1% across the
//! full `u64` range. This is the classic HDR histogram scheme with 5
//! sub-bucket bits.

/// Number of linear sub-buckets per power-of-two range, as a bit
/// count: 2⁵ = 32 sub-buckets, ≤ 3.1% relative error.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: the exact range `[0, 32)` plus 32 sub-buckets
/// for each of the 59 power-of-two ranges `[2⁵, 2⁶) … [2⁶³, 2⁶⁴)`.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A fixed-bucket log-scale histogram over `u64` values.
///
/// Quantiles come back as the lower bound of the bucket containing
/// the requested rank — deterministic, and within 3.1% of the true
/// value (exact below 32). `max` and `sum` are tracked exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates the fixed bucket array).
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index for `value`: identity below 32, otherwise a
    /// (power-of-two range, linear sub-bucket) pair.
    fn index(value: u64) -> usize {
        if value < SUB as u64 {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros(); // >= SUB_BITS
            let sub = (value >> (msb - SUB_BITS)) as usize - SUB;
            (msb - SUB_BITS + 1) as usize * SUB + sub
        }
    }

    /// The lowest value mapping to bucket `i` — what quantiles report.
    fn floor_of(i: usize) -> u64 {
        if i < SUB {
            i as u64
        } else {
            let range = i / SUB - 1; // 0 => [2^5, 2^6)
            let sub = (i % SUB) as u64;
            (SUB as u64 + sub) << range
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q` in `[0, 1]`: the lower bound of the
    /// bucket holding the `ceil(q · count)`-th smallest observation
    /// (the exact `max` for `q = 1` when that rank is the last).
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            // The last rank is the maximum itself, which is tracked
            // exactly — no reason to report its bucket floor.
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket's floor can undershoot the exact
                // tracked max; never report past it either.
                return Self::floor_of(i).min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(floor value, count)` pairs, in
    /// ascending value order — the deterministic projection used by
    /// canonical lines.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::floor_of(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        for v in 0..32 {
            let rank_q = (v + 1) as f64 / 32.0;
            assert_eq!(h.quantile(rank_q), v, "v={v}");
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.sum(), (0..32).sum::<u64>());
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn large_values_land_within_relative_error() {
        let mut h = Histogram::new();
        for v in [100u64, 1_000, 10_000, 1_000_000, u64::MAX / 2] {
            let i = Histogram::index(v);
            let floor = Histogram::floor_of(i);
            assert!(floor <= v, "floor {floor} > v {v}");
            let err = (v - floor) as f64 / v as f64;
            assert!(err <= 1.0 / 32.0 + 1e-12, "v={v} err={err}");
        }
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(Histogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_floors_are_monotonic_and_consistent() {
        let mut prev = None;
        for i in 0..BUCKETS {
            let floor = Histogram::floor_of(i);
            assert_eq!(
                Histogram::index(floor),
                i,
                "floor of bucket {i} must map back to it"
            );
            if let Some(p) = prev {
                assert!(floor > p, "bucket {i} floor not increasing");
            }
            prev = Some(floor);
        }
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((480..=500).contains(&p50), "p50={p50}");
        assert!((960..=990).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), 1); // rank clamps to the smallest
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }
}
