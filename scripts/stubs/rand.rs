//! The workspace's `rand`.
//!
//! This file *is* the `rand` crate of the workspace: `[workspace.dependencies]`
//! points `rand` at the manifest beside it, so `cargo` compiles it for
//! `jinjing-wan`, `jinjing-bench` and the `prop_*` suites, and
//! `benchmark/build.sh` compiles the same file (by this path, as
//! `--crate-name rand`) for the ruler. One source, one stream per seed on
//! every build route. It spells exactly the surface those callers use —
//! `rngs::StdRng`, `SeedableRng::seed_from_u64`,
//! `RngExt::{random, random_range}` — as the published crate spells it,
//! over a splitmix64 core: deterministic per seed and statistically fine
//! for workload generation, but **not** the published `rand` (different
//! streams, no cryptographic claims).
//!
//! **The streams are frozen.** The synthetic WANs, perturbations and
//! rollout scripts drawn from them are pinned bit for bit by
//! `benchmark/expected/*`, the committed figures and the suites' fixed
//! seeds, so no existing draw may ever change: not the seeding constant,
//! not the mixer, not how a range or a `Random` type maps a 64-bit draw.
//! New surface is fine — `impl_range!` may gain integer types, `Random`
//! may gain implementors — as long as every draw that exists today stays
//! bit-identical. (It lives under `scripts/stubs/` because
//! `benchmark/build.sh` names that path and only a `[benchmark]` change
//! may edit `benchmark/`.)

#![forbid(unsafe_code)]

/// Concrete generators.
pub mod rngs {
    /// Splitmix64 stand-in for `rand::rngs::StdRng`.
    pub struct StdRng(pub(crate) u64);

    impl StdRng {
        pub(crate) fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Seeding, as the real crate spells it.
pub trait SeedableRng: Sized {
    /// Derive a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(state: u64) -> Self {
        rngs::StdRng(state ^ 0xD6E8_FEB8_6659_FD93)
    }
}

/// Types producible by `RngExt::random`.
pub trait Random: Sized {
    /// Map one uniform 64-bit draw onto `Self`.
    fn from_u64(v: u64) -> Self;
}

impl Random for f64 {
    fn from_u64(v: u64) -> f64 {
        (v >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Random for bool {
    fn from_u64(v: u64) -> bool {
        v & 1 == 1
    }
}

/// Ranges samplable by `RngExt::random_range`.
pub trait SampleRange<T> {
    /// Draw uniformly from the range.
    fn sample(self, rng: &mut rngs::StdRng) -> T;
}

macro_rules! impl_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample(self, rng: &mut rngs::StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut rngs::StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_range!(i32, i64, u32, u64, usize);

/// The modern `rand` method surface (`Rng` in older editions).
pub trait RngExt {
    /// `rng.random::<T>()`.
    fn random<T: Random>(&mut self) -> T;
    /// `rng.random_range(range)`.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
}

impl RngExt for rngs::StdRng {
    fn random<T: Random>(&mut self) -> T {
        T::from_u64(self.next_u64())
    }
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = rngs::StdRng::seed_from_u64(7);
        let mut b = rngs::StdRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = rngs::StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = rngs::StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: usize = r.random_range(3..17);
            assert!((3..17).contains(&x));
            let y: i32 = r.random_range(-5..=5);
            assert!((-5..=5).contains(&y));
            let f: f64 = r.random();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
