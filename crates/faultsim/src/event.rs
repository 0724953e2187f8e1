//! Poisson sampling of fault arrivals over a system lifetime.
//!
//! Faults arrive in each device as a Poisson process with the Table I FIT
//! rates. Rather than drawing per-chip arrival counts (slow for large
//! systems), the sampler draws the *system-wide* fault count from a single
//! Poisson distribution and assigns each fault a uniformly random chip,
//! arrival time and mode — statistically identical because the per-chip
//! processes are i.i.d.

use crate::fault::{Fault, FaultExtent, FaultRange, Persistence};
use crate::fit::{FitRates, HOURS_PER_YEAR};
use crate::geometry::DramGeometry;
use rand::Rng;

/// One fault arrival in the system timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Arrival time, in hours since system start.
    pub time_hours: f64,
    /// Global chip index the fault struck.
    pub chip: u32,
    /// The fault itself.
    pub fault: Fault,
}

impl FaultEvent {
    /// Filler for event-buffer slots that are about to be overwritten
    /// (see [`LifetimeSampler::events_append`]); never part of a timeline.
    const PLACEHOLDER: FaultEvent = FaultEvent {
        time_hours: 0.0,
        chip: 0,
        fault: Fault {
            extent: FaultExtent::Bit,
            persistence: Persistence::Transient,
            range: FaultRange {
                bank: None,
                row: None,
                col: None,
                bit: None,
            },
        },
    };
}

/// Mean above which [`PoissonSampler::sample_split`] splits the draw into
/// independent chunks (`exp(-30)` is still comfortably inside `f64` range;
/// the paper's system means are all below 1).
pub(crate) const POISSON_CHUNK: f64 = 30.0;

/// Knuth's product-of-uniforms method (exact) given the precomputed
/// threshold `l = exp(-lambda)`.
fn poisson_knuth<R: Rng + ?Sized>(rng: &mut R, l: f64) -> u32 {
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// [`poisson_knuth`] with the first uniform supplied by the caller as `p0`
/// (everything after it still comes from `rng`). Same counts from the same
/// uniforms — the split-stream Monte-Carlo path draws the first uniform
/// out-of-band to decide zero-fault trials cheaply.
fn poisson_knuth_from<R: Rng + ?Sized>(p0: f64, rng: &mut R, l: f64) -> u32 {
    let mut k = 0u32;
    let mut p = p0;
    loop {
        if p <= l {
            return k;
        }
        k += 1;
        p *= rng.gen::<f64>();
    }
}

/// A Poisson sampler with its `exp(-λ)` threshold precomputed.
///
/// Knuth's method needs `exp(-λ)`; at Monte-Carlo trial rates (tens of
/// millions of draws per second) that transcendental would dominate the
/// zero-fault path, so it is computed here once per run. Means above
/// `POISSON_CHUNK` (30) are split into chunks, exploiting that sums of
/// independent Poissons are Poisson.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonSampler {
    lambda: f64,
    /// `exp(-lambda)`, valid only when `lambda <= POISSON_CHUNK`.
    exp_neg_lambda: f64,
    /// `(u64 >> 11) < zero_thresh` ⟺ the first uniform is ≤ `exp(-λ)`:
    /// the count-zero test in exact integer form, skipping the int→float
    /// conversion on the dominant zero-fault path. Equals
    /// `⌊exp(-λ)·2⁵³⌋ + 1`, matching the shim's 53-bit `f64` mapping.
    zero_thresh: u64,
}

impl PoissonSampler {
    /// Builds a sampler for mean `lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda` is finite and ≥ 0.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "poisson mean {lambda} must be finite and ≥ 0"
        );
        let exp_neg_lambda = (-lambda.min(POISSON_CHUNK)).exp();
        Self {
            lambda,
            exp_neg_lambda,
            zero_thresh: (exp_neg_lambda * (1u64 << 53) as f64) as u64 + 1,
        }
    }

    /// The configured mean.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// `true` if a trial whose first uniform draw is the 64-bit value `u0`
    /// has a fault count of zero — decidable from `u0` alone whenever
    /// `λ ≤ POISSON_CHUNK` (always, for the paper's systems). For larger
    /// means this conservatively answers `false` and the full
    /// [`Self::sample_split`] decides.
    #[inline]
    pub fn is_zero(&self, u0: u64) -> bool {
        self.lambda <= POISSON_CHUNK && (u0 >> 11) < self.zero_thresh
    }

    /// Lane-transposed form of [`Self::is_zero`]: classifies 64 headline
    /// draws at once, returning a word whose bit `ℓ` is set iff lane `ℓ`
    /// is *not* provably zero-count.
    ///
    /// The λ-range test hoists out of the lane loop, leaving one
    /// shift+compare+or per lane — straight-line, branch-free, and
    /// bit-for-bit equivalent to 64 scalar [`Self::is_zero`] calls. The
    /// bit-sliced Monte-Carlo kernel pops this word to credit a whole
    /// block's zero-fault trials in one tally add and spills only the set
    /// bits to the scalar event machinery.
    #[inline]
    pub fn nonzero_mask(&self, u0s: &[u64; 64]) -> u64 {
        if self.lambda > POISSON_CHUNK {
            // Conservative, like is_zero: a headline draw alone cannot
            // prove a zero count on the chunked large-λ path.
            return u64::MAX;
        }
        let mut mask = 0u64;
        for (lane, &u0) in u0s.iter().enumerate() {
            mask |= u64::from((u0 >> 11) >= self.zero_thresh) << lane;
        }
        mask
    }

    /// Draws one Poisson count with the first uniform supplied as the raw
    /// 64-bit value `u0` and the rest from `rng`.
    ///
    /// Pairing `u0 = Streams::split_first(i)` with
    /// `rng = Streams::split_rest(i)` makes the count (and everything
    /// after it) a pure function of the stream index, while letting the
    /// caller skip building `rng` at all when [`Self::is_zero`]`(u0)`.
    pub fn sample_split<R: Rng + ?Sized>(&self, u0: u64, rng: &mut R) -> u32 {
        let p0 = (u0 >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if self.lambda <= POISSON_CHUNK {
            poisson_knuth_from(p0, rng, self.exp_neg_lambda)
        } else {
            let mut total = poisson_knuth_from(p0, rng, (-POISSON_CHUNK).exp());
            let mut remaining = self.lambda - POISSON_CHUNK;
            while remaining > POISSON_CHUNK {
                total += poisson_knuth(rng, (-POISSON_CHUNK).exp());
                remaining -= POISSON_CHUNK;
            }
            total + poisson_knuth(rng, (-remaining).exp())
        }
    }
}

/// Every extent × persistence pair ([`FaultExtent::ALL`] × 2).
const MAX_MODES: usize = 12;

/// Walker alias-table slots: the smallest power of two ≥ [`MAX_MODES`]
/// (power of two so the slot pick is a mask, not a modulo).
const ALIAS_SLOTS: usize = 16;

/// One slot of the Walker/Vose alias table over fault modes.
///
/// A draw picks a slot from its low bits and compares the remaining 60
/// bits against `thresh`: below takes `primary`, at-or-above takes
/// `alias`. One uniform, one load, one conditional move — no
/// data-dependent branch, unlike a cumulative-weight scan whose exit
/// point is random and mispredicts nearly every event.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AliasSlot {
    /// Acceptance threshold on the 60 high bits of the draw.
    thresh: u64,
    primary: (FaultExtent, Persistence),
    alias: (FaultExtent, Persistence),
}

/// A reusable sampler for full system-fault timelines.
///
/// Precomputes everything that is constant across trials: lifetime hours,
/// the system-wide Poisson mean with its `exp(-λ)`, and the fault-mode
/// distribution compiled into a Walker alias table (one uniform draw and
/// one branch-free table lookup per event, instead of walking the
/// `FitRates` row `Vec`). The per-trial work is only the draws
/// themselves; with a caller-owned event buffer filled by
/// [`LifetimeSampler::events_append`], a trial allocates nothing.
#[derive(Debug, Clone)]
pub struct LifetimeSampler<'a> {
    rates: &'a FitRates,
    geom: DramGeometry,
    total_chips: u32,
    hours: f64,
    poisson: PoissonSampler,
    alias: [AliasSlot; ALIAS_SLOTS],
}

impl<'a> LifetimeSampler<'a> {
    /// Builds a sampler for systems of `total_chips` devices of geometry
    /// `geom` observed for `years` years under `rates`.
    ///
    /// # Panics
    ///
    /// Panics if `rates` carries more than one row per extent (which
    /// [`FitRates::custom`] already rejects).
    pub fn new(rates: &'a FitRates, geom: DramGeometry, total_chips: u32, years: f64) -> Self {
        let hours = years * HOURS_PER_YEAR;
        let lambda = rates.total_fit() * 1e-9 * hours * total_chips as f64;

        // Flatten (extent, persistence, weight) triples, dropping
        // zero-weight modes, then compile them into an alias table with
        // Vose's method. Construction is deterministic (fixed iteration
        // order), so every worker thread builds the identical table.
        let mut weighted: Vec<(f64, FaultExtent, Persistence)> = Vec::with_capacity(MAX_MODES);
        for r in rates.rows() {
            if r.transient_fit > 0.0 {
                weighted.push((r.transient_fit, r.extent, Persistence::Transient));
            }
            if r.permanent_fit > 0.0 {
                weighted.push((r.permanent_fit, r.extent, Persistence::Permanent));
            }
        }
        assert!(weighted.len() <= MAX_MODES, "duplicate extents in rates");
        let total: f64 = weighted.iter().map(|w| w.0).sum();

        const ALWAYS: u64 = 1 << 60; // > any 60-bit draw ⇒ primary always
        let dummy = (FaultExtent::Bit, Persistence::Transient);
        let mut alias = [AliasSlot {
            thresh: ALWAYS,
            primary: dummy,
            alias: dummy,
        }; ALIAS_SLOTS];
        if total > 0.0 {
            let mut scaled = [0.0f64; ALIAS_SLOTS];
            let mut mode = [dummy; ALIAS_SLOTS];
            for (i, (w, extent, persistence)) in weighted.iter().enumerate() {
                scaled[i] = w / total * ALIAS_SLOTS as f64;
                mode[i] = (*extent, *persistence);
            }
            let mut small: Vec<usize> = Vec::with_capacity(ALIAS_SLOTS);
            let mut large: Vec<usize> = Vec::with_capacity(ALIAS_SLOTS);
            for (i, &s) in scaled.iter().enumerate() {
                if s < 1.0 {
                    small.push(i);
                } else {
                    large.push(i);
                }
            }
            while let (Some(s), Some(l)) = (small.pop(), large.last().copied()) {
                alias[s] = AliasSlot {
                    thresh: (scaled[s] * ALWAYS as f64) as u64,
                    primary: mode[s],
                    alias: mode[l],
                };
                scaled[l] = (scaled[l] + scaled[s]) - 1.0;
                if scaled[l] < 1.0 {
                    large.pop();
                    small.push(l);
                }
            }
            // Leftovers (floating-point residue, each ≈ 1) keep their own
            // mode with probability one.
            for i in large.into_iter().chain(small) {
                alias[i] = AliasSlot {
                    thresh: ALWAYS,
                    primary: mode[i],
                    alias: mode[i],
                };
            }
        }
        Self {
            rates,
            geom,
            total_chips,
            hours,
            poisson: PoissonSampler::new(lambda),
            alias,
        }
    }

    /// The system-wide Poisson mean (expected faults per lifetime).
    pub fn lambda(&self) -> f64 {
        self.poisson.lambda()
    }

    /// The configured FIT rates.
    pub fn rates(&self) -> &FitRates {
        self.rates
    }

    /// Samples a fault mode proportionally to its FIT contribution from
    /// the precomputed alias table: one uniform, no data-dependent branch
    /// (the primary/alias pick compiles to an indexed select). An event's
    /// first draw.
    #[inline]
    pub fn sample_mode<R: Rng + ?Sized>(&self, rng: &mut R) -> (FaultExtent, Persistence) {
        let u = rng.next_u64();
        // indexing: masked to ALIAS_SLOTS - 1 (power of two), in bounds.
        let slot = &self.alias[(u & (ALIAS_SLOTS as u64 - 1)) as usize];
        // indexing: a bool (0 or 1) selecting from a two-element array.
        [slot.alias, slot.primary][usize::from(u >> 4 < slot.thresh)]
    }

    /// `true` if a trial whose first uniform draw is `u0` sees no fault at
    /// all — the Monte-Carlo zero-fault fast path (see
    /// [`PoissonSampler::is_zero`]).
    #[inline]
    pub fn is_zero_fault(&self, u0: u64) -> bool {
        self.poisson.is_zero(u0)
    }

    /// Lane-transposed [`Self::is_zero_fault`] over a 64-trial block: bit
    /// `ℓ` of the result is set iff the trial whose headline draw is
    /// `u0s[ℓ]` needs the full event machinery (see
    /// [`PoissonSampler::nonzero_mask`]).
    #[inline]
    pub fn nonzero_mask(&self, u0s: &[u64; 64]) -> u64 {
        self.poisson.nonzero_mask(u0s)
    }

    /// The trial's fault count, with its first uniform supplied as the raw
    /// 64-bit value `u0` (see [`PoissonSampler::sample_split`]); `rng`
    /// carries every draw after it. Callers dispatch on the count before
    /// generating events with [`Self::sample_mode`] /
    /// [`Self::events_append`].
    #[inline]
    pub fn count_split<R: Rng + ?Sized>(&self, u0: u64, rng: &mut R) -> u32 {
        self.poisson.sample_split(u0, rng)
    }

    /// Draws one event's arrival time, in hours: an event's second draw,
    /// after [`Self::sample_mode`].
    ///
    /// The Monte-Carlo single-fault path draws only these two: with no
    /// other active faults, a verdict never depends on *which* chip or
    /// address range the fault hit (see `SchemeModel::evaluate_isolated`),
    /// so those draws are dead and skipped.
    #[inline]
    pub fn sample_time<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.gen::<f64>() * self.hours
    }

    /// Draws exactly `count` fresh events and appends them to `out`
    /// **without clearing or sorting** — the one event generator behind
    /// every timeline (both lifetime kernels, and both rare-event
    /// timelines, which interleave these with forced fault cliques and
    /// order the combined timeline themselves).
    ///
    /// With `elide_bits`, single-bit events are drawn in full (mode, time,
    /// chip and all four range coordinates — the stream contract depends
    /// on every draw) but not kept; returns how many were elided. Callers
    /// set it when the scheme model proves single-bit faults inert
    /// (`SchemeModel::bit_always_benign`): such a fault is always benign,
    /// draws nothing when evaluated, and is invisible to every other
    /// fault's concurrency count, so walking it cannot change a verdict.
    ///
    /// The keep is branch-free. About half of Table I's faults are
    /// single-bit, so a per-event "push or skip" branch would mispredict
    /// about half the time. Instead the buffer is sized once for all
    /// `count` events, every event is written into the next free slot,
    /// and the slot cursor advances only for a kept event; the unused
    /// tail is truncated at the end.
    #[inline]
    pub fn events_append<R: Rng + ?Sized>(
        &self,
        count: u32,
        rng: &mut R,
        out: &mut Vec<FaultEvent>,
        elide_bits: bool,
    ) -> u32 {
        let start = out.len();
        let mut len = start;
        // alloc: amortized reusable-buffer growth (the caller's scratch).
        out.resize(start + count as usize, FaultEvent::PLACEHOLDER);
        for _ in 0..count {
            let (extent, persistence) = self.sample_mode(rng);
            let event = FaultEvent {
                time_hours: self.sample_time(rng),
                chip: rng.gen_range(0..self.total_chips),
                fault: Fault::sample(rng, extent, persistence, &self.geom),
            };
            let keep = !(elide_bits && extent == FaultExtent::Bit);
            // indexing: len ≤ start + (events drawn so far) < start + count
            // = out.len(), since the cursor advances at most once per event.
            out[len] = event;
            len += usize::from(keep);
        }
        out.truncate(len);
        (start + count as usize - len) as u32
    }
}

/// Orders a timeline by arrival time — the one ordering every timeline
/// walk relies on (the lifetime kernels' multi-fault trials and the
/// rare-event timelines).
#[inline]
pub(crate) fn sort_by_arrival(events: &mut [FaultEvent]) {
    if events.len() > 1 {
        events.sort_unstable_by(|a, b| a.time_hours.total_cmp(&b.time_hours));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::LIFETIME_YEARS;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// One count from a fresh headline draw, as the kernels split it.
    fn count(sampler: &PoissonSampler, rng: &mut StdRng) -> u32 {
        let u0 = rng.next_u64();
        sampler.sample_split(u0, rng)
    }

    /// One full timeline, sorted by arrival, as the multi-fault walk sees
    /// it.
    fn lifetime(sampler: &LifetimeSampler<'_>, rng: &mut StdRng) -> Vec<FaultEvent> {
        let u0 = rng.next_u64();
        let n = sampler.count_split(u0, rng);
        let mut events = Vec::new();
        sampler.events_append(n, rng, &mut events, false);
        sort_by_arrival(&mut events);
        events
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let lambda = 3.7;
        let sampler = PoissonSampler::new(lambda);
        let n = 100_000;
        let samples: Vec<u32> = (0..n).map(|_| count(&sampler, &mut rng)).collect();
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 0.05, "mean {mean}");
        assert!((var - lambda).abs() < 0.15, "var {var}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = StdRng::seed_from_u64(2);
        let sampler = PoissonSampler::new(0.0);
        for _ in 0..100 {
            assert_eq!(count(&sampler, &mut rng), 0);
        }
    }

    #[test]
    fn lifetime_event_count_matches_expectation() {
        let mut rng = StdRng::seed_from_u64(3);
        let rates = FitRates::table_i();
        let chips = 72;
        let sampler = LifetimeSampler::new(&rates, DramGeometry::x8_2gb(), chips, LIFETIME_YEARS);
        let runs = 20_000;
        let total: usize = (0..runs).map(|_| lifetime(&sampler, &mut rng).len()).sum();
        let mean = total as f64 / runs as f64;
        // λ = 66.1e-9 · 61320 · 72 ≈ 0.2919
        let expected = 66.1e-9 * LIFETIME_YEARS * HOURS_PER_YEAR * chips as f64;
        assert!(
            (mean - expected).abs() < 0.02,
            "mean {mean} expected {expected}"
        );
    }

    #[test]
    fn events_sorted_and_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let rates = FitRates::table_i();
        // Crank the chip count so most samples have several events.
        let sampler = LifetimeSampler::new(&rates, DramGeometry::x8_2gb(), 100_000, LIFETIME_YEARS);
        for _ in 0..50 {
            let ev = lifetime(&sampler, &mut rng);
            for w in ev.windows(2) {
                assert!(w[0].time_hours <= w[1].time_hours);
            }
            for e in &ev {
                assert!(e.chip < 100_000);
                assert!(e.time_hours >= 0.0 && e.time_hours <= LIFETIME_YEARS * HOURS_PER_YEAR);
            }
        }
    }

    #[test]
    fn poisson_sampler_matches_poisson_distribution() {
        let mut rng = StdRng::seed_from_u64(8);
        let sampler = PoissonSampler::new(0.3);
        let n = 200_000;
        let zeros = (0..n).filter(|_| count(&sampler, &mut rng) == 0).count();
        let p0 = zeros as f64 / n as f64;
        let expected = (-0.3f64).exp(); // ≈ 0.7408
        assert!((p0 - expected).abs() < 0.005, "P(0) {p0} vs {expected}");
    }

    #[test]
    fn zero_fault_fast_path_consumes_one_draw() {
        // With λ = 0 every headline draw proves a zero count, and the
        // count consumes nothing after it.
        let rates = FitRates::custom(vec![]);
        let geom = DramGeometry::x8_2gb();
        let sampler = LifetimeSampler::new(&rates, geom, 72, LIFETIME_YEARS);
        assert_eq!(sampler.lambda(), 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut reference = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let u0 = rng.next_u64();
            assert!(sampler.is_zero_fault(u0));
            assert_eq!(sampler.count_split(u0, &mut rng), 0);
            let _: u64 = reference.gen();
        }
        assert_eq!(rng, reference, "fast path must draw exactly one uniform");
    }

    #[test]
    fn nonzero_mask_agrees_with_scalar_is_zero() {
        // The lane classifier must be bit-for-bit the 64 scalar calls —
        // this is what licenses the bit-sliced kernel's bulk zero-fault
        // credit and spill set.
        let rates = FitRates::table_i();
        let geom = DramGeometry::x8_2gb();
        let sampler = LifetimeSampler::new(&rates, geom, 72, LIFETIME_YEARS);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..200 {
            let mut u0s = [0u64; 64];
            for slot in u0s.iter_mut() {
                *slot = rng.gen::<u64>();
            }
            let mask = sampler.nonzero_mask(&u0s);
            for (lane, &u0) in u0s.iter().enumerate() {
                assert_eq!(
                    mask >> lane & 1 == 1,
                    !sampler.is_zero_fault(u0),
                    "lane {lane}"
                );
            }
        }
        // Large λ: conservative all-ones (headline draw proves nothing).
        let big = PoissonSampler::new(120.0);
        assert_eq!(big.nonzero_mask(&[0u64; 64]), u64::MAX);
    }

    #[test]
    #[should_panic]
    fn poisson_rejects_negative_lambda() {
        PoissonSampler::new(-1.0);
    }

    #[test]
    fn poisson_large_lambda_chunked() {
        let mut rng = StdRng::seed_from_u64(6);
        let lambda = 120.0;
        let sampler = PoissonSampler::new(lambda);
        let n = 20_000;
        let mean = (0..n)
            .map(|_| count(&sampler, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 0.5, "mean {mean}");
    }
}
