//! An offline, API-compatible subset of the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of `rand`'s 0.8 API it actually uses:
//! [`SeedableRng::seed_from_u64`], [`rngs::StdRng`], [`Rng::gen_range`]
//! over half-open ranges of the common numeric types, and
//! [`Rng::gen_bool`].
//!
//! The generator is SplitMix64 — statistically solid for test-data
//! synthesis, deterministic per seed, and trivially portable. It is *not*
//! the same stream as upstream `StdRng` (ChaCha12), which is fine: nothing
//! in the workspace depends on upstream's exact bit stream, only on
//! determinism per seed.

use std::ops::Range;

/// Low-level source of randomness: a stream of `u64`s.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

// The sampling paths are `#[inline]`, as upstream's are: the guided
// search strategies draw millions of values per run, and whether those
// calls inline must not hinge on how the calling crate is partitioned.

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from the half-open `range` (`lo..hi`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Samples a value of a [`StandardDistributed`] type (`f64` in
    /// `[0, 1)`, integers over their full range).
    #[inline]
    fn gen<T: StandardDistributed>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Returns `true` with probability `p` (a Bernoulli draw; the slice of
    /// upstream's `gen_bool` the guided search strategies use).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be drawn uniformly from a range.
pub trait SampleUniform: PartialOrd + Copy {
    /// Draws one value from `[lo, hi)`.
    fn sample_uniform<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// Range shapes accepted by [`Rng::gen_range`].
pub trait SampleRange<T: SampleUniform> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_uniform(self.start, self.end, rng)
    }
}

/// A `u64` in `[0, 2^53)` mapped to `[0, 1)` with full double precision.
#[inline]
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleUniform for f64 {
    fn sample_uniform<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        let x = lo + (hi - lo) * unit_f64(rng);
        // Guard against rounding up to the excluded endpoint.
        if x >= hi {
            lo
        } else {
            x
        }
    }
}

impl SampleUniform for f32 {
    fn sample_uniform<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        let x = lo + (hi - lo) * unit_f64(rng) as f32;
        if x >= hi {
            lo
        } else {
            x
        }
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as i128 - lo as i128) as u128;
                // Modulo bias is ≤ span/2^64 — negligible for test data.
                let offset = (rng.next_u64() as u128) % span;
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types [`Rng::gen`] can produce without an explicit range.
pub trait StandardDistributed {
    /// Draws one standard-distributed value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardDistributed for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

impl StandardDistributed for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardDistributed for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Parameterized distributions, mirroring the `rand`/`rand_distr` API
/// slice the workspace uses: a [`distributions::Distribution`] trait, the
/// exponential distribution behind the serving simulator's
/// Poisson/bursty inter-arrival gaps, and the geometric distribution
/// (the discrete counterpart, kept API-compatible with
/// `rand_distr::Geometric` for count-valued traffic models).
pub mod distributions {
    use super::{unit_f64, RngCore};

    /// Types that can sample values of `T` from an [`RngCore`] — the
    /// upstream `Distribution` contract.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Error constructing a distribution from invalid parameters
    /// (upstream splits these per crate; one shared enum suffices here).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ParamError {
        /// The rate parameter `λ` must be positive and finite.
        LambdaNotPositive,
        /// The success probability `p` must lie in `(0, 1]`.
        ProbabilityInvalid,
    }

    impl std::fmt::Display for ParamError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                ParamError::LambdaNotPositive => write!(f, "λ must be positive and finite"),
                ParamError::ProbabilityInvalid => write!(f, "p must be in (0, 1]"),
            }
        }
    }

    impl std::error::Error for ParamError {}

    /// The exponential distribution `Exp(λ)` with mean `1/λ` — the
    /// inter-arrival law of a Poisson process (API-compatible with
    /// `rand_distr::Exp`).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Exp {
        lambda: f64,
    }

    impl Exp {
        /// An exponential distribution with rate `lambda`.
        pub fn new(lambda: f64) -> Result<Self, ParamError> {
            if lambda > 0.0 && lambda.is_finite() {
                Ok(Exp { lambda })
            } else {
                Err(ParamError::LambdaNotPositive)
            }
        }
    }

    impl Distribution<f64> for Exp {
        /// Inverse-CDF sampling: `-ln(1 - U) / λ` with `U ∈ [0, 1)`, so
        /// the draw is always finite and nonnegative.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            -(1.0 - unit_f64(rng)).ln() / self.lambda
        }
    }

    /// The geometric distribution counting failures before the first
    /// success of a Bernoulli(`p`) trial, supported on `0, 1, 2, …`
    /// (API-compatible with `rand_distr::Geometric`).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Geometric {
        p: f64,
    }

    impl Geometric {
        /// A geometric distribution with success probability `p`.
        pub fn new(p: f64) -> Result<Self, ParamError> {
            if p > 0.0 && p <= 1.0 {
                Ok(Geometric { p })
            } else {
                Err(ParamError::ProbabilityInvalid)
            }
        }
    }

    impl Distribution<u64> for Geometric {
        /// Inverse-CDF sampling: `⌊ln(1 - U) / ln(1 - p)⌋`, exact for the
        /// discrete geometric law; `p = 1` always yields 0.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
            if self.p >= 1.0 {
                return 0;
            }
            let u = unit_f64(rng);
            let k = ((1.0 - u).ln() / (1.0 - self.p).ln()).floor();
            if k >= u64::MAX as f64 {
                u64::MAX
            } else {
                k as u64
            }
        }
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: SplitMix64.
    ///
    /// Passes BigCrush-level smoke statistics, one multiplication and a few
    /// shifts per draw, and — the property the tests rely on — identical
    /// streams for identical seeds on every platform.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0.0..1.0), b.gen_range(0.0..1.0));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&x));
            let n = rng.gen_range(5usize..17);
            assert!((5..17).contains(&n));
            let i = rng.gen_range(-50i64..-40);
            assert!((-50..-40).contains(&i));
        }
    }

    #[test]
    fn gen_bool_matches_its_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_matches_its_rate() {
        use super::distributions::{Distribution, Exp};
        let mut rng = StdRng::seed_from_u64(21);
        let exp = Exp::new(4.0).unwrap();
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = exp.sample(&mut rng);
            assert!(x >= 0.0 && x.is_finite());
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}, expected 1/λ = 0.25");
    }

    #[test]
    fn exponential_is_deterministic_per_seed() {
        use super::distributions::{Distribution, Exp};
        let exp = Exp::new(1.5).unwrap();
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(exp.sample(&mut a), exp.sample(&mut b));
        }
    }

    #[test]
    fn exponential_rejects_bad_rates() {
        use super::distributions::Exp;
        assert!(Exp::new(0.0).is_err());
        assert!(Exp::new(-1.0).is_err());
        assert!(Exp::new(f64::NAN).is_err());
        assert!(Exp::new(f64::INFINITY).is_err());
        assert!(Exp::new(1e-9).is_ok());
    }

    #[test]
    fn geometric_matches_its_mean() {
        use super::distributions::{Distribution, Geometric};
        let mut rng = StdRng::seed_from_u64(8);
        let p = 0.2;
        let geo = Geometric::new(p).unwrap();
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| geo.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        // E[failures before first success] = (1 - p) / p = 4.
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}, expected 4");
    }

    #[test]
    fn geometric_edge_cases() {
        use super::distributions::{Distribution, Geometric};
        let mut rng = StdRng::seed_from_u64(2);
        let sure = Geometric::new(1.0).unwrap();
        for _ in 0..100 {
            assert_eq!(sure.sample(&mut rng), 0, "p = 1 always succeeds immediately");
        }
        assert!(Geometric::new(0.0).is_err());
        assert!(Geometric::new(1.1).is_err());
        assert!(Geometric::new(-0.5).is_err());
    }

    #[test]
    fn works_through_mut_references() {
        fn takes_impl(rng: &mut impl Rng) -> f64 {
            rng.gen_range(0.0..1.0)
        }
        let mut rng = StdRng::seed_from_u64(9);
        let _ = takes_impl(&mut rng);
        let _ = takes_impl(&mut &mut rng);
    }
}
