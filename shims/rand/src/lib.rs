//! Vendored stand-in for the parts of the `rand` crate that forumcast
//! uses. The build environment has no access to crates.io, so the
//! workspace ships this minimal implementation: a seedable
//! xoshiro256++ generator behind the familiar `Rng` / `SeedableRng` /
//! `SliceRandom` traits.
//!
//! The generator is of good statistical quality but its output stream
//! is **not** bit-compatible with upstream `rand 0.8`; all forumcast
//! tests assert statistical or structural properties rather than
//! exact stream values, so this does not matter for correctness.

use std::ops::Range;

/// Core random-number source: a stream of `u64`s.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed. Deterministic.
    fn seed_from_u64(state: u64) -> Self;
}

pub mod rngs {
    //! Concrete generators.

    /// The workspace's standard generator: xoshiro256++ seeded via
    /// SplitMix64. Deterministic, `Clone`, and fast.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl crate::SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion of the seed, as recommended by the
            // xoshiro authors.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl crate::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Uniform sampling of a value of type `T` from the "standard"
/// distribution (all bit patterns for ints, `[0, 1)` for floats).
pub trait StandardSample: Sized {
    /// Draws one value.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random bits into [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for u64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for usize {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

/// Per-type uniform sampling primitives, with Lemire's unbiased
/// method for integers. Mirrors upstream rand's `SampleUniform` so
/// that the blanket [`SampleRange`] impls below unify the sampled
/// type with the range's element type during inference.
pub trait SampleUniform: Sized {
    /// Uniform draw from the half-open interval `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;

    /// Uniform draw from the closed interval `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Uniform sampling from a range expression.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// Unbiased uniform integer in `[0, span)` via Lemire's widening
/// multiply with rejection.
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (span as u128);
    let mut lo = m as u64;
    if lo < span {
        let t = span.wrapping_neg() % span;
        while lo < t {
            x = rng.next_u64();
            m = (x as u128) * (span as u128);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi - lo) as u64;
                lo + uniform_u64(rng, span) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_u64(rng, span + 1) as $t
            }
        }
    )*};
}

impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                lo.wrapping_add(uniform_u64(rng, span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let u = <$t>::standard_sample(rng);
                let v = lo + u * (hi - lo);
                // Guard against rounding up to `hi` for tiny spans.
                if v >= hi {
                    lo
                } else {
                    v
                }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let u = <$t>::standard_sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// Convenience sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard distribution.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        f64::standard_sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    //! Sequence-related random operations.

    use crate::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, or `None` when empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn unit_floats_in_range_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.gen_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..100 {
            let v = rng.gen_range(-3i32..3);
            assert!((-3..3).contains(&v));
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02, "{hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn choose_returns_member() {
        let mut rng = StdRng::seed_from_u64(2);
        let v = [10, 20, 30];
        assert!(v.contains(v.choose(&mut rng).unwrap()));
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn clone_forks_identical_streams() {
        let mut a = StdRng::seed_from_u64(5);
        let _ = a.gen::<u64>();
        let mut b = a.clone();
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
