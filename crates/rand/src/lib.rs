//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the narrow API subset it actually uses: [`RngCore`] / [`SeedableRng`] /
//! [`Rng`] with `gen`, `gen_range` and `gen_bool`, plus
//! [`distributions::Uniform`]. Semantics match `rand 0.8` closely enough
//! for the workspace (deterministic streams given a seed; uniform ranges
//! are unbiased via rejection sampling), but the exact value streams are
//! NOT bit-compatible with crates.io `rand`.

#![warn(missing_docs)]

/// A source of random `u64`s. The only primitive the shim needs.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// RNGs constructible from a small seed.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that [`Rng::gen`] can produce uniformly.
pub trait Standard: Sized {
    /// Draw one uniformly random value.
    fn draw(rng: &mut dyn RngCore) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw(rng: &mut dyn RngCore) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn draw(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn draw(rng: &mut dyn RngCore) -> Self {
        // 53 mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    fn draw(rng: &mut dyn RngCore) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Integer types usable as `gen_range` bounds.
pub trait UniformInt: Copy + PartialOrd {
    /// Widen to u64 (order-preserving within the used domains).
    fn to_u64(self) -> u64;
    /// Narrow back from u64.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn to_u64(self) -> u64 { self as u64 }
            fn from_u64(v: u64) -> Self { v as $t }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

/// Unbiased uniform draw in `[0, span)` by rejection of the biased tail.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    let zone = u64::MAX - (u64::MAX % span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw uniformly from the range.
    fn sample_from(self, rng: &mut dyn RngCore) -> T;
}

impl<T: UniformInt> SampleRange<T> for std::ops::Range<T> {
    fn sample_from(self, rng: &mut dyn RngCore) -> T {
        let (lo, hi) = (self.start.to_u64(), self.end.to_u64());
        assert!(lo < hi, "gen_range: empty range");
        T::from_u64(lo + uniform_below(rng, hi - lo))
    }
}

impl<T: UniformInt> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from(self, rng: &mut dyn RngCore) -> T {
        let (lo, hi) = (self.start().to_u64(), self.end().to_u64());
        assert!(lo <= hi, "gen_range: empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return T::from_u64(rng.next_u64());
        }
        T::from_u64(lo + uniform_below(rng, span + 1))
    }
}

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_from(self, rng: &mut dyn RngCore) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u = f64::draw(rng);
        self.start + (self.end - self.start) * u
    }
}

/// The user-facing convenience trait, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::draw(self)
    }

    /// Uniform value in `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p));
        f64::draw(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// The `rand::distributions` subset: [`distributions::Distribution`] and
/// [`distributions::Uniform`].
pub mod distributions {
    use super::{uniform_below, RngCore, UniformInt};

    /// A sampleable distribution.
    pub trait Distribution<T> {
        /// Draw one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Uniform integer distribution over a fixed range.
    #[derive(Debug, Clone, Copy)]
    pub struct Uniform<T> {
        lo: T,
        /// Exclusive span measured in u64.
        span: u64,
    }

    impl<T: UniformInt> Uniform<T> {
        /// Uniform over `[lo, hi)`.
        pub fn new(lo: T, hi: T) -> Self {
            assert!(lo.to_u64() < hi.to_u64(), "Uniform::new: empty range");
            Uniform {
                lo,
                span: hi.to_u64() - lo.to_u64(),
            }
        }

        /// Uniform over `[lo, hi]`.
        pub fn new_inclusive(lo: T, hi: T) -> Self {
            assert!(lo.to_u64() <= hi.to_u64(), "Uniform::new_inclusive: empty");
            Uniform {
                lo,
                span: hi.to_u64() - lo.to_u64() + 1,
            }
        }
    }

    impl<T: UniformInt> Distribution<T> for Uniform<T> {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
            T::from_u64(self.lo.to_u64() + uniform_below(rng, self.span))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.0
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Counter(42);
        for _ in 0..1000 {
            let v: u32 = r.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: usize = r.gen_range(0..=5);
            assert!(w <= 5);
            let f: f64 = r.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn uniform_distribution_covers_range() {
        use distributions::{Distribution, Uniform};
        let mut r = Counter(7);
        let d = Uniform::new_inclusive(3u32, 5u32);
        let mut seen = [false; 6];
        for _ in 0..200 {
            seen[d.sample(&mut r) as usize] = true;
        }
        assert!(seen[3] && seen[4] && seen[5]);
        assert!(!seen[0] && !seen[1] && !seen[2]);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = Counter(1);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }
}
