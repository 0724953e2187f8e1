//! Vendored, deterministic subset of the `rand` 0.8 API.
//!
//! The workspace builds fully offline; this crate replaces the crates.io
//! `rand` with the small slice of its API the simulators use:
//!
//! * [`rngs::StdRng`] — a xoshiro256++ generator;
//! * [`SeedableRng::seed_from_u64`] — seed-based construction;
//! * [`rngs::Streams`] — counter-based derivation of per-trial stream
//!   generators from one seed (a SplitMix64 key schedule; this is the
//!   workspace extension that makes Monte-Carlo results independent of
//!   thread count);
//! * [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`].
//!
//! Two deliberate omissions enforce the repo's Monte-Carlo determinism
//! policy (see `cargo run -p xtask -- analyze`, rule `XL005`): there is no
//! `thread_rng()` and no `from_entropy()`. Every generator in the
//! workspace must flow from an explicit `u64` seed, so any simulation
//! result is reproducible from its logged seed.
//!
//! The streams produced are *not* bit-compatible with crates.io `rand`'s
//! `StdRng` (ChaCha12); all in-tree expectations are statistical or pinned
//! against this implementation.

/// A source of random 32/64-bit words.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits (upper half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly from an RNG (the `Standard` distribution of
/// crates.io `rand`, restricted to what the workspace uses).
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, bound)` via Lemire's nearly-divisionless
/// multiply-shift rejection (unbiased).
///
/// The common path is a single widening multiply; the `% bound` needed to
/// compute the exact rejection threshold only runs when the low product
/// word falls below `bound` (probability `bound / 2⁶⁴`), so non-power-of-two
/// bounds cost no division in the Monte-Carlo hot loop.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    let mut m = u128::from(rng.next_u64()) * u128::from(bound);
    let mut lo = m as u64;
    if lo < bound {
        // `2⁶⁴ mod bound` values of each residue class are over-represented
        // by the multiply-shift map; reject exactly those.
        let threshold = bound.wrapping_neg() % bound;
        while lo < threshold {
            m = u128::from(rng.next_u64()) * u128::from(bound);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

/// Types with a uniform range sampler (the `SampleUniform` of crates.io
/// `rand`). A single blanket impl over `Range`/`RangeInclusive` keeps type
/// inference identical to the real crate (`gen_range(0..6)` as an index
/// infers `usize`).
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`.
    fn sample_uniform<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                // Two's-complement wrapping makes the span math valid for
                // signed types as well.
                let span = (hi as u64).wrapping_sub(lo as u64);
                if inclusive {
                    let span = span.wrapping_add(1);
                    if span == 0 {
                        // Full-width range: every value is admissible.
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(uniform_below(rng, span) as $t)
                } else {
                    lo.wrapping_add(uniform_below(rng, span) as $t)
                }
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_uniform<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self {
        let u: f64 = Standard::sample(rng);
        let v = lo + (hi - lo) * u;
        // Guard against round-up to the excluded endpoint.
        if !inclusive && v >= hi {
            lo
        } else {
            v
        }
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    // An empty range is a caller bug; the check is debug-only so
    // simulation hot loops stay panic-free in release.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        debug_assert!(self.start < self.end, "gen_range: empty range");
        T::sample_uniform(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    // Same debug-only precondition as `Range` above.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        debug_assert!(lo <= hi, "gen_range: empty range");
        T::sample_uniform(lo, hi, true, rng)
    }
}

/// The user-facing sampling interface (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of an inferred type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// Panics if the range is empty.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} out of range");
        let u: f64 = Standard::sample(self);
        u < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a seed (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed, expanding it with
    /// SplitMix64 so similar seeds give uncorrelated streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ seeded via
    /// SplitMix64 (Blackman & Vigna). Fast, 256-bit state, passes BigCrush.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        #[inline]
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    /// A family of counter-based [`StdRng`] streams derived from one seed.
    ///
    /// `Streams::new(seed).stream(i)` is a pure function of `(seed, i)`:
    /// the seed is scrambled once with SplitMix64, the stream index is
    /// folded in as a Weyl increment (`i · φ`, the SplitMix64 constant),
    /// and the result is expanded into xoshiro256++ state exactly like
    /// [`SeedableRng::seed_from_u64`]. Adjacent indices therefore yield
    /// statistically independent generators, and *which* stream a consumer
    /// draws is decoupled from *who* draws it — the property the
    /// Monte-Carlo driver relies on to make results independent of thread
    /// count and work-assignment order.
    ///
    /// Construction of one stream costs five SplitMix64 rounds (a handful
    /// of multiplies), cheap enough to build a fresh generator per
    /// Monte-Carlo trial.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Streams {
        base: u64,
    }

    impl Streams {
        /// Creates the stream family rooted at `seed`.
        pub fn new(seed: u64) -> Self {
            let mut sm = seed;
            Self {
                base: splitmix64(&mut sm),
            }
        }

        /// The generator for stream `index`.
        #[inline]
        pub fn stream(&self, index: u64) -> StdRng {
            let mut sm = self
                .base
                .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        /// Stream `index`'s *headline* value: one uniform 64-bit draw at a
        /// single SplitMix64 round, without materializing a generator.
        ///
        /// Consumers that can usually decide everything from one uniform —
        /// the Monte-Carlo zero-fault test is the motivating case — call
        /// this first and only pay for [`Self::split_rest`] when they need
        /// more randomness. `(split_first(i), split_rest(i))` together form
        /// one logical per-index stream; it is a *different* stream than
        /// [`Self::stream`]`(i)` (the headline draw is SplitMix64 output 1,
        /// and the tail generator is seeded from outputs 2–5).
        #[inline]
        pub fn split_first(&self, index: u64) -> u64 {
            let mut sm = self
                .base
                .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            splitmix64(&mut sm)
        }

        /// Headline draws ([`Self::split_first`]) for the 64 consecutive
        /// streams `first .. first + 64`, one per output lane.
        ///
        /// Bit-identical to 64 individual `split_first` calls: the
        /// per-stream SplitMix64 key is `base + index·φ`, which advances
        /// by a single Weyl add (`key += φ`) between adjacent indices, so
        /// the block form hoists the index multiply out of the lane loop
        /// and leaves a straight-line add+mix per lane — the shape the
        /// bit-sliced Monte-Carlo kernel wants for classifying a 64-trial
        /// block.
        #[inline]
        pub fn split_first_block(&self, first: u64, out: &mut [u64; 64]) {
            let mut key = self
                .base
                .wrapping_add(first.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for slot in out.iter_mut() {
                let mut sm = key;
                *slot = splitmix64(&mut sm);
                key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
            }
        }

        /// The generator carrying stream `index`'s draws *after* its
        /// [`Self::split_first`] headline value.
        #[inline]
        pub fn split_rest(&self, index: u64) -> StdRng {
            let mut sm = self
                .base
                .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let _first = splitmix64(&mut sm);
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
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

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = StdRng::seed_from_u64(2);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            let v = r.gen_range(0..6usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
        for _ in 0..1_000 {
            let v = r.gen_range(5..=7u8);
            assert!((5..=7).contains(&v));
            let f = r.gen_range(-2.0..3.0f64);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_frequency() {
        let mut r = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        let p = hits as f64 / 10_000.0;
        assert!((p - 0.25).abs() < 0.02, "p {p}");
        let mut r2 = StdRng::seed_from_u64(4);
        assert!((0..100).all(|_| !r2.gen_bool(0.0)));
        let mut r3 = StdRng::seed_from_u64(5);
        assert!((0..100).all(|_| r3.gen_bool(1.0)));
    }

    #[test]
    fn works_through_unsized_refs() {
        // Mirrors the `R: Rng + ?Sized` bounds used across the workspace.
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0..100u64)
        }
        let mut r = StdRng::seed_from_u64(6);
        assert!(draw(&mut r) < 100);
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        use super::rngs::Streams;
        let s = Streams::new(42);
        let mut a = s.stream(7);
        let mut b = Streams::new(42).stream(7);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        // Adjacent indices and adjacent seeds both give different streams.
        assert_ne!(s.stream(7).gen::<u64>(), s.stream(8).gen::<u64>());
        assert_ne!(
            Streams::new(42).stream(0).gen::<u64>(),
            Streams::new(43).stream(0).gen::<u64>()
        );
    }

    #[test]
    fn split_first_block_matches_individual_split_first() {
        // The bit-sliced Monte-Carlo kernel relies on the block form being
        // draw-for-draw identical to the scalar headline draws, including
        // across wrapping key arithmetic.
        use super::rngs::Streams;
        let s = Streams::new(0xDEAD_BEEF);
        for &first in &[0u64, 1, 63, 64, 4096, u64::MAX - 70] {
            let mut block = [0u64; 64];
            s.split_first_block(first, &mut block);
            for (lane, &got) in block.iter().enumerate() {
                let want = s.split_first(first.wrapping_add(lane as u64));
                assert_eq!(got, want, "first {first}, lane {lane}");
            }
        }
    }

    #[test]
    fn streams_statistically_uniform_across_indices() {
        // First draw of consecutive streams must itself look uniform —
        // the Monte-Carlo fast path consumes exactly one draw per trial.
        use super::rngs::Streams;
        let s = Streams::new(9);
        let n = 40_000u64;
        let mean = (0..n)
            .map(|i| {
                let x: f64 = s.stream(i).gen();
                x
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn rejection_sampling_unbiased_small_range() {
        let mut r = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.gen_range(0..3usize)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 10_000.0 - 1.0).abs() < 0.05, "{counts:?}");
        }
    }
}
