//! Minimal stand-in for the subset of `rand` 0.8 this workspace uses:
//! `SmallRng`, `SeedableRng::seed_from_u64`, `Rng::gen`, and
//! `Rng::gen_range` over half-open and inclusive integer/float ranges.
//! Vendored in-repo so the build has no registry dependencies.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — the same
//! construction rand's 64-bit `SmallRng` uses — so statistical quality is
//! adequate for the workloads and tests here. Streams are *not*
//! bit-compatible with the real crate; nothing in the workspace asserts
//! exact values drawn from a seed, only determinism per seed.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Core entropy source: 64 random bits at a time.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Values drawable uniformly from the full domain (`rng.gen()`).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Ranges drawable uniformly (`rng.gen_range(lo..hi)` and `lo..=hi`).
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// User-facing convenience methods, blanket-implemented for every rng.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Small fast generator: xoshiro256++ (public-domain algorithm by
    /// Blackman & Vigna), seeded via SplitMix64.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

// ---- Standard draws ---------------------------------------------------------

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for f64 {
    /// Uniform in [0, 1) with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

// ---- range draws ------------------------------------------------------------

/// Types drawable uniformly from a range. The `SampleRange` impls below are
/// generic over this trait — mirroring the real crate's structure — so type
/// inference flows from the use site into untyped range literals
/// (`x + rng.gen_range(0..2)` infers `usize` when `x: usize`).
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty inclusive range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range in gen_range");
        lo + f64::sample(rng) * (hi - lo)
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        Self::sample_half_open(rng, lo, hi)
    }
}

impl SampleUniform for f32 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range in gen_range");
        lo + f32::sample(rng) * (hi - lo)
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        Self::sample_half_open(rng, lo, hi)
    }
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 4 values drawn: {seen:?}");
    }

    #[test]
    fn f64_standard_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} far from 0.5");
    }
}
