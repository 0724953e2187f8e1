//! Importance-sampled rare-event estimation of tail failure probabilities.
//!
//! Plain Monte-Carlo wastes almost every trial on the Table-IV-class
//! schemes: a Double-Chipkill system fails with probability ~10⁻⁸ per
//! lifetime, so resolving it to a usable confidence interval needs ~10¹⁰
//! unweighted trials. This module estimates the same probabilities with
//! two nested variance-reduction layers (derivations in DESIGN.md §14):
//!
//! 1. **Count conditioning.** A scheme that needs at least `k` faults to
//!    fail (see [`min_failing_faults`]) draws its Poisson count from the
//!    truncated distribution `P(N = n | N ≥ k)` and multiplies every
//!    trial's contribution by the analytic factor `P(N ≥ k)`. Trials that
//!    cannot fail are never simulated; the estimator stays exactly
//!    unbiased because those trials contribute zero to the plain-MC mean.
//! 2. **Clique forcing** ([`TailMode::CliqueForced`]). Chipkill-class
//!    failures additionally require `k` *multi-bit* faults on distinct
//!    chips of one protection domain intersecting at a common cache line
//!    (an *A-clique*). The proposal plants such a clique: it tilts `k`
//!    fault modes by their clique weight, places them on distinct chips of
//!    one domain, and conditions their address ranges on sharing a line.
//!    The likelihood ratio is `C(n,k) · ρ / S(x)` where `ρ` — the
//!    probability that `k` independent faults form an A-clique — is exact
//!    and analytic, and `S(x)` counts the A-cliques actually realized in
//!    the trial (≥ 1 by construction).
//!
//! Both layers keep the counter-based `(seed, scheme, trial)` stream
//! discipline of the plain driver and share its work-stealing scheduler
//! and trial timeline walk: every trial's randomness is a pure function of
//! its index, worker partial sums are folded in chunk order, and the
//! resulting [`TailEstimate`] is **bit-identical for any thread count**.

use crate::analytic::p_line_overlap_n;
use crate::engine::Sweep;
use crate::event::{sort_by_arrival, FaultEvent, LifetimeSampler, POISSON_CHUNK};
use crate::fault::{Fault, FaultExtent, FaultRange, Persistence};
use crate::fit::{FitRates, HOURS_PER_YEAR, LIFETIME_YEARS};
use crate::montecarlo::{self, resolve_threads, steal_chunks, walk_timeline, Scratch};
use crate::schemes::{ModelParams, Scheme, SchemeModel, Verdict};
use rand::rngs::{StdRng, Streams};
use rand::Rng;
use std::time::Instant;
use xed_telemetry::registry::metrics;

/// Trials claimed per scheduler steal. Conditioned trials are ~10× the
/// cost of plain ones (no zero-fault fast path), so the chunk is smaller
/// than the plain driver's 4096 while the `fetch_add` stays noise.
const TAIL_CHUNK: u64 = 1024;

/// Largest forced-clique size (Double-Chipkill needs three faults).
const MAX_CLIQUE: usize = 3;

/// The pilot's tuple probe checks whether a propensity has settled after
/// every batch of this many rounds.
const PROBE_BATCH: u32 = 64;
/// Rounds a probe with no failure (or only a few) runs before it stops.
const PROBE_MIN_ROUNDS: u32 = 512;
/// The probe's round budget.
const PROBE_MAX_ROUNDS: u32 = 2048;
/// Failures after which a probe past [`PROBE_MIN_ROUNDS`] stops.
const PROBE_TARGET_FAILURES: u32 = 24;

/// Extra stream-key salt separating the rare-event stream family from the
/// plain Monte-Carlo family of the same `(seed, scheme)` — the two engines
/// must never replay each other's draws. Part of the reproducibility
/// contract, like `Scheme::stream_tag`.
const TAIL_STREAM_SALT: u64 = 0x7A11_5EED_CA5C_ADE5;

/// Ceiling of the truncated-count walk past the conditioning threshold.
/// The Poisson pmf decays faster than geometrically once `n > λ`, so for
/// the λ ≤ 30 regime this is unreachable in practice; it bounds the walk
/// against a floating-point stall where the partial sums converge a ulp
/// below the precomputed `P(N ≥ k)`.
const COUNT_WALK_CAP: u32 = 400;

/// How the rare-event engine conditioned a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailMode {
    /// Count conditioning *and* a forced fault clique: trials draw
    /// `N | N ≥ k` and plant `k` multi-bit faults on distinct chips of
    /// one protection domain at a common cache line, reweighted by the
    /// analytic likelihood ratio. The sharpest estimator; requires a
    /// Chipkill-class scheme (`k ≥ 2`) and scaling faults disabled (with
    /// scaling, a single-bit arrival can complete a failure, so the
    /// clique structure no longer covers every failing trial).
    CliqueForced,
    /// Count conditioning only: trials draw `N | N ≥ k` and are otherwise
    /// unweighted except for the `P(N ≥ k)` factor. Valid for every
    /// scheme and parameter set (with λ ≤ 30).
    CountConditioned,
    /// Plain Monte-Carlo (delegates to the lifetime run): the fallback
    /// when λ exceeds the truncated-walk regime.
    PlainMc,
}

impl TailMode {
    /// Short stable identifier used in reports and JSON sidecars.
    pub fn label(self) -> &'static str {
        match self {
            TailMode::CliqueForced => "clique-forced",
            TailMode::CountConditioned => "count-conditioned",
            TailMode::PlainMc => "plain-mc",
        }
    }
}

/// Rare-event run configuration (the lifetime [`Sweep`]'s fields plus a
/// mode override).
#[derive(Debug, Clone)]
pub struct TailConfig {
    /// Conditioned trials to simulate per scheme.
    pub samples: u64,
    /// Lifetime in years (paper: 7).
    pub years: f64,
    /// Base RNG seed. Results are a pure function of `(seed, scheme,
    /// samples)` — the thread count never changes them.
    pub seed: u64,
    /// Worker threads; `0` = use all available cores.
    pub threads: usize,
    /// Fault-response model parameters.
    pub params: ModelParams,
    /// Per-chip FIT rates.
    pub rates: FitRates,
    /// Force a specific mode instead of auto-selecting the sharpest valid
    /// one. A forced [`TailMode::CliqueForced`] still falls back to
    /// count conditioning when the scheme or parameters make clique
    /// forcing unsound — the override can weaken the estimator, never
    /// bias it.
    pub force_mode: Option<TailMode>,
}

impl Default for TailConfig {
    fn default() -> Self {
        Self {
            samples: 1_000_000,
            years: LIFETIME_YEARS,
            seed: 0x5EED,
            threads: 0,
            params: ModelParams::default(),
            rates: FitRates::table_i(),
            force_mode: None,
        }
    }
}

/// The importance-sampled estimate for one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct TailEstimate {
    /// The estimated scheme.
    pub scheme: Scheme,
    /// Conditioning mode the engine actually ran.
    pub mode: TailMode,
    /// Conditioned trials simulated (for [`TailMode::PlainMc`], plain
    /// trials).
    pub samples: u64,
    /// The conditioning threshold `k`: the minimum number of lifetime
    /// faults a failing trial of this scheme can have (0 for plain MC).
    pub min_faults: u32,
    /// `P(N ≥ k)` under the unconditioned Poisson count (1 for plain MC).
    pub conditioning_probability: f64,
    /// `ρ`: probability that `k` independent faults form an A-clique
    /// (0 unless [`TailMode::CliqueForced`]).
    pub clique_rho: f64,
    /// Estimated lifetime failure probability (DUE + SDC).
    pub p_fail: f64,
    /// Estimated lifetime detected-uncorrectable probability.
    pub p_due: f64,
    /// Estimated lifetime silent-corruption probability.
    pub p_sdc: f64,
    /// Raw failing conditioned trials (unweighted count).
    pub failures: u64,
    /// Sample variance of the `p_fail` estimator,
    /// `s²/T` with `s²` the per-trial weight variance.
    pub variance: f64,
    /// Wall-clock seconds of this invocation (metadata; the estimate
    /// itself is deterministic).
    pub wall_seconds: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl TailEstimate {
    /// Two-sided 95 % confidence half-width on [`Self::p_fail`].
    pub fn ci95(&self) -> f64 {
        1.96 * self.variance.sqrt()
    }

    /// Two-sided 99 % confidence half-width on [`Self::p_fail`].
    pub fn ci99(&self) -> f64 {
        2.576 * self.variance.sqrt()
    }

    /// Relative precision: `ci95 / p_fail` (∞ when no failure was seen).
    pub fn relative_ci95(&self) -> f64 {
        if self.p_fail > 0.0 {
            self.ci95() / self.p_fail
        } else {
            f64::INFINITY
        }
    }

    /// Number of *plain* Monte-Carlo trials that would be needed for the
    /// same variance: `p(1−p)/var`. The effective-throughput multiplier
    /// of the importance sampler is this divided by [`Self::samples`].
    pub fn effective_trials(&self) -> f64 {
        if self.variance > 0.0 {
            self.p_fail * (1.0 - self.p_fail) / self.variance
        } else {
            0.0
        }
    }
}

/// The minimum number of lifetime faults a failing trial of `scheme` can
/// contain, for any [`ModelParams`].
///
/// * 1 for the schemes a single multi-bit chip fault defeats (and NonECC,
///   which even a bit fault defeats);
/// * 2 for the single-erasure/single-symbol schemes: with one lifetime
///   fault the driver's evaluation sees an empty active set, where
///   `SchemeModel::evaluate_isolated` never fails these schemes;
/// * 3 for Double-Chipkill: its budget of two chips means a failure needs
///   `concurrent_chips ≥ 3`, i.e. an arrival plus two active faults.
pub fn min_failing_faults(scheme: Scheme) -> u32 {
    match scheme {
        Scheme::NonEcc | Scheme::EccDimm | Scheme::Xed => 1,
        Scheme::Chipkill | Scheme::ChipkillX4 | Scheme::XedChipkill => 2,
        Scheme::DoubleChipkill => 3,
    }
}

/// Which line-address fields (bank, row, column) a fault extent pins.
/// `Bit` pins like `Word` at line granularity (mirrors
/// [`crate::analytic::p_line_overlap_n`]).
const fn line_pins(e: FaultExtent) -> (bool, bool, bool) {
    match e {
        FaultExtent::Bit | FaultExtent::Word => (true, true, true),
        FaultExtent::Column => (true, false, true),
        FaultExtent::Row => (true, true, false),
        FaultExtent::Bank => (true, false, false),
        FaultExtent::Chip => (false, false, false),
    }
}

/// One fault mode eligible for clique membership, with its probability
/// mass `q = FIT_mode / FIT_total` under the unconditioned mode draw.
#[derive(Debug, Clone, Copy)]
struct CliqueMode {
    q: f64,
    extent: FaultExtent,
    persistence: Persistence,
}

/// Precompiled clique-forcing proposal for one scheme.
#[derive(Debug, Clone)]
struct CliquePlan {
    /// Clique size `k` (2 or 3).
    j: usize,
    /// `ρ = Z · (s−1)⋯(s−k+1) / C^(k−1)`: the probability that `k`
    /// independent, unconditioned faults form an A-clique.
    rho: f64,
    /// `Z = Σ q₁⋯q_k · ov(e₁…e_k)` over ordered mode tuples: the
    /// mode/range part of `ρ`, and the normalizer of the *untilted* tuple
    /// distribution.
    z: f64,
    /// Per-tuple target weight `wᵢ = q₁⋯q_k · ov` (sums to `z`).
    weights: Vec<f64>,
    /// Cumulative **proposal** weights (ascending), scanned with
    /// `partition_point` to draw a tuple. Initially the prefix sums of
    /// `weights`; [`Self::apply_tilt`] rebuilds them as `Σ wᵢ·tᵢ`.
    cum: Vec<f64>,
    /// Per-tuple likelihood-ratio factor replacing `ρ` in the trial
    /// weight: `lrᵢ = chipfactor · W̃ / tᵢ` where `W̃ = Σ wᵢ·tᵢ` is the
    /// tilted normalizer. Untilted (`tᵢ = 1`) this is `ρ` for every
    /// tuple, so tilting is a strict generalization.
    lr: Vec<f64>,
    /// The mode tuple of each `cum` entry (`MAX_CLIQUE` slots; entries
    /// past `j` are padding).
    tuples: Vec<[(FaultExtent, Persistence); MAX_CLIQUE]>,
    /// Chips per protection domain (`s`). Domains are contiguous chip
    /// blocks of this span (rank or channel).
    domain_span: u32,
    /// Whether ranges must share a cache line (strict model) or merely
    /// coexist in the domain (coarse model).
    strict: bool,
    /// Time-ordered, persistence-restricted roles: member slots are
    /// assigned in arrival order and every member except the last must be
    /// a **permanent** fault. Sound only with a zero transient-exposure
    /// window, where the active set the evaluator consults contains
    /// permanent faults exclusively — a failing trial then always
    /// contains a permanent-until-last witness, so `S'` stays ≥ 1 on the
    /// support of `f`. Shrinks `Z` (and hence the weight) by the
    /// transient mass of the non-final slots.
    ordered: bool,
}

impl CliquePlan {
    /// Compiles the clique proposal, or `None` when clique forcing is
    /// unsound or degenerate for this scheme/parameter combination. With
    /// `ordered`, non-final clique slots draw only permanent modes (see
    /// [`Self::ordered`]); the caller must ensure the exposure window is
    /// zero before asking for it.
    fn build(model: &SchemeModel, rates: &FitRates, k: u32, ordered: bool) -> Option<CliquePlan> {
        // With scaling faults enabled a single-bit arrival can complete a
        // failure, so failing trials need not contain an all-multi-bit
        // clique — the structural argument below would be unsound.
        if k < 2 || k as usize > MAX_CLIQUE || model.params().scaling.enabled() {
            return None;
        }
        let total = rates.total_fit();
        if total <= 0.0 {
            return None;
        }
        let all_modes: Vec<CliqueMode> = rates
            .rows()
            .iter()
            .filter(|r| r.extent.is_multi_bit())
            .flat_map(|r| {
                [
                    (r.transient_fit, Persistence::Transient),
                    (r.permanent_fit, Persistence::Permanent),
                ]
                .into_iter()
                .filter(|&(fit, _)| fit > 0.0)
                .map(move |(fit, persistence)| CliqueMode {
                    q: fit / total,
                    extent: r.extent,
                    persistence,
                })
            })
            .collect();
        let perm_modes: Vec<CliqueMode> = all_modes
            .iter()
            .copied()
            .filter(|m| m.persistence == Persistence::Permanent)
            .collect();
        // Per-slot mode pools: ordered mode restricts every slot but the
        // last (the arrival that completes the failure) to permanent
        // faults.
        let slot_modes = |slot: usize| -> &[CliqueMode] {
            if ordered && slot + 1 < k as usize {
                &perm_modes
            } else {
                &all_modes
            }
        };
        if (0..k as usize).any(|slot| slot_modes(slot).is_empty()) {
            return None;
        }
        let config = model.config();
        let domain_span = model.domain_span();
        if domain_span < k {
            return None;
        }
        let strict = model.params().require_line_intersection;
        let j = k as usize;
        let geom = &config.geometry;

        // Enumerate ordered mode j-tuples with an odometer; weight each by
        // ∏ qᵢ times the probability the tuple's ranges share a line.
        let mut cum = Vec::new();
        let mut weights = Vec::new();
        let mut tuples = Vec::new();
        let mut z = 0.0f64;
        let mut idx = [0usize; MAX_CLIQUE];
        let mut extents = [FaultExtent::Chip; MAX_CLIQUE];
        loop {
            let mut w = 1.0f64;
            let mut tuple = [(FaultExtent::Chip, Persistence::Transient); MAX_CLIQUE];
            for slot in 0..j {
                let m = slot_modes(slot)[idx[slot]];
                w *= m.q;
                tuple[slot] = (m.extent, m.persistence);
                extents[slot] = m.extent;
            }
            let ov = if strict {
                p_line_overlap_n(&extents[..j], geom)
            } else {
                1.0
            };
            let w = w * ov;
            if w > 0.0 {
                z += w;
                cum.push(z);
                weights.push(w);
                tuples.push(tuple);
            }
            // Odometer over the per-slot pools, least-significant slot
            // first.
            let mut carry = 0;
            while carry < j {
                idx[carry] += 1;
                if idx[carry] < slot_modes(carry).len() {
                    break;
                }
                idx[carry] = 0;
                carry += 1;
            }
            if carry == j {
                break;
            }
        }
        if z <= 0.0 {
            return None;
        }
        // Chip part: the first clique chip is free (any of the C chips);
        // each further chip must land on a distinct chip of the same
        // domain — (s−1)(s−2)⋯ of the C choices.
        let c_total = config.total_chips() as f64;
        let mut rho = z;
        for i in 1..k {
            rho *= f64::from(domain_span - i) / c_total;
        }
        let lr = vec![rho; tuples.len()];
        Some(CliquePlan {
            j,
            rho,
            z,
            weights,
            cum,
            lr,
            tuples,
            domain_span,
            strict,
            ordered,
        })
    }

    /// Draws one tuple index proportionally to its (possibly tilted)
    /// proposal weight.
    fn draw_index(&self, rng: &mut StdRng) -> usize {
        // invariant: cum is non-empty (build rejects z == 0) and the clamp
        // absorbs the floating-point edge u == total.
        let total = *self.cum.last().expect("build rejects empty tuple sets");
        let u = rng.gen::<f64>() * total;
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }

    /// Re-weights the tuple proposal by per-tuple tilt factors `tᵢ > 0`
    /// (importance tilting): tuples are drawn `∝ wᵢ·tᵢ` and each drawn
    /// tuple's trial weight uses `lrᵢ = chipfactor·W̃/tᵢ` in place of `ρ`.
    /// The estimator stays unbiased for *any* positive tilt because the
    /// support is unchanged and the likelihood ratio is exact; the tilt
    /// only moves variance. Minimal variance sits near `tᵢ ∝ √fᵢ` (the
    /// tuple's conditional failure propensity), which the pilot probe
    /// approximates.
    fn apply_tilt(&mut self, tilts: &[f64]) {
        debug_assert_eq!(tilts.len(), self.weights.len());
        let chip_factor = self.rho / self.z;
        let mut acc = 0.0f64;
        for (i, (&w, &t)) in self.weights.iter().zip(tilts).enumerate() {
            debug_assert!(t > 0.0, "tilt factors must keep the full support");
            acc += w * t;
            self.cum[i] = acc;
        }
        let tilted_norm = acc;
        for (l, &t) in self.lr.iter_mut().zip(tilts) {
            *l = chip_factor * tilted_norm / t;
        }
    }
}

/// Importance tilt over the conditioned fault-count draw, bucketed as
/// `N = k`, `N = k+1`, `N = k+2`, `N ≥ k+3`. Failure propensity usually
/// *rises* with extra unforced faults (any broad-extent arrival can
/// complete a clique), so oversampling the higher buckets — with the
/// exact pmf-ratio reweighting `T̃ / t_b` — trades wasted low-count
/// trials for variance. Unbiased for any positive tilt.
#[derive(Debug, Clone)]
struct CountTilt {
    /// Cumulative tilted bucket masses `Σ P_b·t_b` (ascending).
    cum: [f64; 4],
    /// Per-bucket weight multiplier `T̃ / t_b` applied to the trial weight.
    weight: [f64; 4],
    /// `P(N ≥ k+3)` — normalizer of the lump bucket's in-bucket walk.
    p_lump: f64,
    /// `P(N = k+3)` — the lump walk's starting pmf.
    pmf_lump: f64,
}

/// The per-scheme plan a conditioned run executes.
struct TailPlan<'a> {
    model: SchemeModel,
    sampler: LifetimeSampler<'a>,
    mode: TailMode,
    k: u32,
    /// `P(N ≥ k)`.
    p_ge_k: f64,
    /// `P(N = k)` — the truncated count walk starts here.
    pmf_k: f64,
    lambda: f64,
    hours: f64,
    clique: Option<CliquePlan>,
    /// Count-draw tilt for the clique-forced path (`None` until the pilot
    /// probe installs it, and always `None` for the fallback modes).
    count_tilt: Option<CountTilt>,
}

/// Per-chunk accumulator. Chunks are folded in ascending chunk-id order at
/// the join, so the floating-point sums are bit-identical for any thread
/// count.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkSums {
    y: f64,
    y2: f64,
    due: f64,
    sdc: f64,
    failures: u64,
}

impl<'a> TailPlan<'a> {
    /// Draws from the truncated count distribution `P(N = n | N ≥ k)` by
    /// walking the Poisson pmf upward from `k` (exact inverse-CDF).
    fn draw_count(&self, rng: &mut StdRng) -> u32 {
        let target = rng.gen::<f64>() * self.p_ge_k;
        self.walk_count(self.k, self.pmf_k, target)
    }

    /// The inverse-CDF walk up the Poisson pmf: starting at count `n`
    /// (whose pmf is `pmf`), returns the first count at which the mass
    /// accumulated from `n` exceeds `target`.
    fn walk_count(&self, mut n: u32, mut pmf: f64, target: f64) -> u32 {
        let mut cdf = pmf;
        // invariant: the pmf decays geometrically once n > λ, so the walk
        // terminates; COUNT_WALK_CAP only guards a floating-point stall.
        while cdf <= target && pmf > 0.0 && n < self.k + COUNT_WALK_CAP {
            n += 1;
            pmf *= self.lambda / f64::from(n);
            cdf += pmf;
        }
        n
    }

    /// Draws the conditioned count through the bucket tilt (when
    /// installed), returning `(n, T̃/t_b)` — the count and the exact
    /// likelihood-ratio multiplier for its bucket.
    fn draw_count_tilted(&self, rng: &mut StdRng) -> (u32, f64) {
        let Some(tilt) = &self.count_tilt else {
            return (self.draw_count(rng), 1.0);
        };
        let total = tilt.cum[3];
        let u = rng.gen::<f64>() * total;
        let b = tilt.cum.partition_point(|&c| c <= u).min(3);
        let n = match b {
            0 => self.k,
            1 => self.k + 1,
            2 => self.k + 2,
            _ => {
                // In-bucket draw from `P(N = n | N ≥ k+3)`: the same walk
                // as `draw_count`, started at the lump boundary.
                let target = rng.gen::<f64>() * tilt.p_lump;
                self.walk_count(self.k + 3, tilt.pmf_lump, target)
            }
        };
        // indexing: b is a partition_point over the 4-entry cum array,
        // clamped to 3 = weight.len() - 1.
        (n, tilt.weight[b])
    }

    /// Plants the forced clique: `j` faults with tilted modes, on distinct
    /// chips of one domain, at a shared cache line (strict model). Pushes
    /// the events into `out` and returns the drawn tuple's index (its
    /// likelihood-ratio factor lives in `plan.lr`).
    fn plant_clique(
        &self,
        plan: &CliquePlan,
        rng: &mut StdRng,
        out: &mut Vec<FaultEvent>,
    ) -> usize {
        let config = self.model.config();
        let geom = &config.geometry;
        let tuple_index = plan.draw_index(rng);
        // indexing: draw_index clamps into cum, and tuples is built in
        // lockstep with cum.
        let tuple = plan.tuples[tuple_index];
        // Distinct chips of one domain: the first is any chip of the
        // system; the rest are drawn without replacement from its
        // (contiguous) domain block.
        let chip0 = rng.gen_range(0..config.total_chips());
        let start = self.model.domain_of(chip0) * plan.domain_span;
        let mut offsets = [chip0 - start, 0, 0];
        for i in 1..plan.j {
            // Skip the offsets already taken, in ascending order: at most
            // two, so one compare-swap orders them (an unused second slot
            // is `u32::MAX`, which `t < domain_span` never reaches).
            let t = rng.gen_range(0..plan.domain_span - i as u32);
            let (a, b) = if i == 1 {
                (offsets[0], u32::MAX)
            } else {
                (offsets[0].min(offsets[1]), offsets[0].max(offsets[1]))
            };
            let t = t + u32::from(t >= a);
            // indexing: i < j ≤ MAX_CLIQUE, the length of offsets.
            offsets[i] = t + u32::from(t >= b);
        }
        let mut times = [0.0f64; MAX_CLIQUE];
        for slot in times.iter_mut().take(plan.j) {
            *slot = rng.gen::<f64>() * self.hours;
        }
        if plan.ordered {
            // Role i must arrive i-th: the permanent-restricted slots come
            // first, the unrestricted final slot lands last. Sorting the
            // iid uniforms and assigning them in slot order is exactly the
            // order statistics of j uniform arrivals, so the joint time
            // density is unchanged up to the j! role permutations that the
            // tuple weight (mode product) already accounts for per ordered
            // tuple.
            // A compare-swap network sorts the two or three times.
            compare_swap(&mut times, 0, 1);
            if plan.j == 3 {
                compare_swap(&mut times, 1, 2);
                compare_swap(&mut times, 0, 1);
            }
        }
        if plan.strict {
            // Condition all j ranges on sharing one cache line: draw the
            // line's coordinates once and give them to every member that
            // pins that field. Per field, the unconditioned densities
            // contribute (1/N)^k and the overlap probability divides out
            // (1/N)^(k−1), leaving exactly one uniform draw — so this is
            // the exact conditional distribution given a shared line.
            let bank = rng.gen_range(0..geom.banks);
            let row = rng.gen_range(0..geom.rows);
            let col = rng.gen_range(0..geom.cols);
            for i in 0..plan.j {
                // indexing: i < j ≤ MAX_CLIQUE, the common array length.
                let (extent, persistence) = tuple[i];
                // indexing: i < j ≤ MAX_CLIQUE, the common array length.
                let (time_hours, chip) = (times[i], start + offsets[i]);
                let (pin_bank, pin_row, pin_col) = line_pins(extent);
                out.push(FaultEvent {
                    time_hours,
                    chip,
                    fault: Fault {
                        extent,
                        persistence,
                        range: FaultRange {
                            bank: pin_bank.then_some(bank),
                            row: pin_row.then_some(row),
                            col: pin_col.then_some(col),
                            bit: None,
                        },
                    },
                });
            }
        } else {
            // Coarse model: coexistence in the domain is the whole
            // condition, so ranges stay unconditioned.
            for i in 0..plan.j {
                // indexing: i < j ≤ MAX_CLIQUE, the common array length.
                let (extent, persistence) = tuple[i];
                // indexing: i < j ≤ MAX_CLIQUE, the common array length.
                let (time_hours, chip) = (times[i], start + offsets[i]);
                out.push(FaultEvent {
                    time_hours,
                    chip,
                    fault: Fault::sample(rng, extent, persistence, geom),
                });
            }
        }
        tuple_index
    }

    /// Estimates one tuple's conditional failure propensity `f̂ᵢ` — the
    /// probability a trial fails given the forced clique drew this tuple
    /// and no extra faults arrived — by evaluating a synthetic exact-`k`
    /// timeline in rounds of [`PROBE_BATCH`]. Deterministic verdicts settle
    /// after the first batch; only rng-dependent tuples (e.g. XED's
    /// on-die-miss roll) consume the full budget. Feeds the proposal tilt
    /// only, so estimation error cannot bias the estimator.
    ///
    /// In the strict model the synthetic timeline is the same in every
    /// round, so it is built once. If its first walk leaves the probe
    /// generator where it was, every round would replay that verdict
    /// without a draw, and the round loop would stop at its first
    /// unanimous batch (all failing: 1.0) or at [`PROBE_MIN_ROUNDS`] with
    /// no failure (0.0) — so that value is returned at once, with the
    /// generator in the same state. `probe_tuple_by_rounds`, the plain
    /// round loop, is the test oracle.
    fn probe_tuple(
        &self,
        plan: &CliquePlan,
        index: usize,
        rng: &mut StdRng,
        scratch: &mut Scratch,
    ) -> f64 {
        let (mut failures, mut rounds) = (0u32, 0u32);
        if plan.strict {
            self.probe_timeline(plan, index, rng, &mut scratch.events);
            let before = rng.clone();
            failures = u32::from(self.evaluate_timeline(rng, scratch).is_some());
            rounds = 1;
            if *rng == before {
                return f64::from(failures);
            }
        }
        while !probe_settled(failures, rounds) {
            if !plan.strict {
                self.probe_timeline(plan, index, rng, &mut scratch.events);
            }
            failures += u32::from(self.evaluate_timeline(rng, scratch).is_some());
            rounds += 1;
        }
        f64::from(failures) / f64::from(rounds)
    }

    /// The synthetic exact-`k` timeline of tuple `index` for
    /// [`Self::probe_tuple`]: the tuple's faults on chips `0..j`, arriving
    /// at hours `1..=j`. The strict model puts them on the canonical shared
    /// line and draws nothing; the coarse model draws their ranges.
    fn probe_timeline(
        &self,
        plan: &CliquePlan,
        index: usize,
        rng: &mut StdRng,
        events: &mut Vec<FaultEvent>,
    ) {
        let tuple = plan.tuples[index];
        let geom = &self.model.config().geometry;
        events.clear();
        for (i, &(extent, persistence)) in tuple.iter().enumerate().take(plan.j) {
            let fault = if plan.strict {
                // The canonical shared line: failure propensity is
                // translation-invariant in the line coordinates.
                let (pin_bank, pin_row, pin_col) = line_pins(extent);
                Fault {
                    extent,
                    persistence,
                    range: FaultRange {
                        bank: pin_bank.then_some(0),
                        row: pin_row.then_some(0),
                        col: pin_col.then_some(0),
                        bit: None,
                    },
                }
            } else {
                Fault::sample(rng, extent, persistence, geom)
            };
            // Chips 0..j sit in the first domain block (`domain_span ≥ k`
            // was checked by `build`); slot order = time order, matching
            // the ordered proposal.
            events.push(FaultEvent {
                time_hours: (i + 1) as f64,
                chip: i as u32,
                fault,
            });
        }
    }

    /// Estimates `P(fail | N ∈ bucket)` for one count bucket by full-trial
    /// simulation: plant a clique through the (still untilted) proposal,
    /// append the bucket's unforced faults, and evaluate — the same
    /// machinery as a real trial, minus the weights. `lump` carries
    /// `(P(N ≥ k+3), P(N = k+3))` to draw in-bucket counts for the open
    /// bucket; `None` uses `fixed_n` exactly.
    fn probe_bucket(
        &self,
        plan: &CliquePlan,
        fixed_n: u32,
        lump: Option<(f64, f64)>,
        rng: &mut StdRng,
        scratch: &mut Scratch,
    ) -> f64 {
        const ROUNDS: u32 = 768;
        let mut failures = 0u32;
        for _ in 0..ROUNDS {
            let n = match lump {
                None => fixed_n,
                Some((p_lump, pmf_start)) => {
                    let target = rng.gen::<f64>() * p_lump;
                    self.walk_count(fixed_n, pmf_start, target)
                }
            };
            scratch.events.clear();
            self.plant_clique(plan, rng, &mut scratch.events);
            self.sampler.events_append(
                n - plan.j as u32,
                rng,
                &mut scratch.events,
                self.model.bit_always_benign(),
            );
            self.model.retain_walked(&mut scratch.events);
            sort_by_arrival(&mut scratch.events);
            if self.evaluate_timeline(rng, scratch).is_some() {
                failures += 1;
            }
        }
        f64::from(failures) / f64::from(ROUNDS)
    }

    /// Counts the A-cliques of size `j` among `events`: all members
    /// multi-bit, pairwise-distinct chips, one protection domain, and (in
    /// the strict model) a common cache line. This is the `S(x)` of the
    /// likelihood ratio; computed only for failing trials, on the walked
    /// timeline: a clique lives inside one domain, so the events
    /// `SchemeModel::retain_walked` drops (each alone in its domain) are
    /// never members, and the domain test compares `domain_of` indices.
    ///
    /// In `ordered` mode the clique is a time-ordered witness: `events` is
    /// already sorted by arrival time, and every member except the
    /// latest-arriving one must be permanent (the loops visit subsets in
    /// ascending index = ascending time, so "all but the innermost loop's
    /// member" is exactly "all but the latest").
    fn count_cliques(&self, plan: &CliquePlan, events: &[FaultEvent]) -> u64 {
        let strip = |e: &FaultEvent| FaultRange {
            bit: None,
            ..e.fault.range
        };
        let domain = |e: &FaultEvent| self.model.domain_of(e.chip);
        let compatible = |a: &FaultEvent, b: &FaultEvent| {
            a.chip != b.chip && b.fault.extent.is_multi_bit() && domain(a) == domain(b)
        };
        let is_perm = |e: &FaultEvent| e.fault.persistence == Persistence::Permanent;
        let mut count = 0u64;
        let n = events.len();
        for i in 0..n {
            // indexing: i < n = events.len().
            let a = &events[i];
            if !a.fault.extent.is_multi_bit() {
                continue;
            }
            // `a` is the earliest member of every subset the inner loops
            // complete, so ordered witnesses need it permanent.
            if plan.ordered && !is_perm(a) {
                continue;
            }
            for l in i + 1..n {
                // indexing: l < n = events.len().
                let b = &events[l];
                if !compatible(a, b) {
                    continue;
                }
                // For triples `b` is the middle member (for pairs it is the
                // last, which ordered mode leaves unrestricted).
                if plan.ordered && plan.j == 3 && !is_perm(b) {
                    continue;
                }
                let ab = if plan.strict {
                    let x = strip(a).intersect(&strip(b));
                    if x.is_none() {
                        continue;
                    }
                    x
                } else {
                    None
                };
                if plan.j == 2 {
                    count += 1;
                    continue;
                }
                for c in events.iter().skip(l + 1) {
                    if !compatible(a, c) || c.chip == b.chip {
                        continue;
                    }
                    if plan.strict {
                        // invariant: ab is Some here — the strict arm above
                        // skipped the pair otherwise.
                        let line = ab.as_ref().expect("strict pair intersection");
                        if line.intersect(&strip(c)).is_none() {
                            continue;
                        }
                    }
                    count += 1;
                }
            }
        }
        count
    }

    /// Runs one conditioned trial; returns its weighted contribution
    /// `(y, verdict)` with `y = 0` and no verdict when the trial survives.
    fn run_trial(
        &self,
        trial: u64,
        streams: &Streams,
        scratch: &mut Scratch,
    ) -> (f64, Option<Verdict>) {
        let mut rng = streams.stream(trial);
        match (&self.clique, self.mode) {
            (Some(plan), TailMode::CliqueForced) => {
                let (n, count_weight) = self.draw_count_tilted(&mut rng);
                // invariant: the count draws return n ≥ k = j, so the
                // subtraction cannot underflow.
                let normal = n - plan.j as u32;
                scratch.events.clear();
                let tuple_index = self.plant_clique(plan, &mut rng, &mut scratch.events);
                self.sampler.events_append(
                    normal,
                    &mut rng,
                    &mut scratch.events,
                    self.model.bit_always_benign(),
                );
                self.model.retain_walked(&mut scratch.events);
                sort_by_arrival(&mut scratch.events);
                match self.evaluate_timeline(&mut rng, scratch) {
                    Some(verdict) => {
                        let s = self.count_cliques(plan, &scratch.events).max(1);
                        let pairs = choose(u64::from(n), plan.j as u64);
                        let y = self.p_ge_k * count_weight * pairs as f64
                            // indexing: plant_clique's index; lr is built
                            // in lockstep with the tuple arrays.
                            * plan.lr[tuple_index]
                            / s as f64;
                        (y, Some(verdict))
                    }
                    None => (0.0, None),
                }
            }
            _ => {
                let n = self.draw_count(&mut rng);
                scratch.events.clear();
                self.sampler.events_append(
                    n,
                    &mut rng,
                    &mut scratch.events,
                    self.model.bit_always_benign(),
                );
                self.model.retain_walked(&mut scratch.events);
                sort_by_arrival(&mut scratch.events);
                match self.evaluate_timeline(&mut rng, scratch) {
                    Some(verdict) => (self.p_ge_k, Some(verdict)),
                    None => (0.0, None),
                }
            }
        }
    }

    /// Walks the event timeline against the scheme model — the plain
    /// driver's own multi-fault walk — returning the failing verdict.
    fn evaluate_timeline(&self, rng: &mut StdRng, scratch: &mut Scratch) -> Option<Verdict> {
        walk_timeline(&self.model, rng, scratch, |_, _, _| {}).map(|(verdict, _)| verdict)
    }
}

/// `true` once a tuple probe of `rounds` rounds with `failures` failures
/// is done: at a batch boundary, a unanimous batch (almost surely a
/// deterministic verdict), or past the minimum with no failure or enough
/// of them to resolve the propensity, or out of budget.
fn probe_settled(failures: u32, rounds: u32) -> bool {
    rounds > 0
        && rounds.is_multiple_of(PROBE_BATCH)
        && (failures == rounds
            || rounds >= PROBE_MAX_ROUNDS
            || (rounds >= PROBE_MIN_ROUNDS && (failures == 0 || failures >= PROBE_TARGET_FAILURES)))
}

/// Orders `times[a]` before `times[b]` (the `f64::total_cmp` order a sort
/// would give).
#[inline]
fn compare_swap(times: &mut [f64; MAX_CLIQUE], a: usize, b: usize) {
    // indexing: the callers pass a < b < MAX_CLIQUE.
    if times[b].total_cmp(&times[a]).is_lt() {
        times.swap(a, b);
    }
}

/// `C(n, k)` in `u64` (clique sizes are ≤ 3, counts are small).
fn choose(n: u64, k: u64) -> u64 {
    match k {
        2 => n * (n - 1) / 2,
        3 => n * (n - 1) * (n - 2) / 6,
        _ => {
            debug_assert!(k <= 1);
            if k == 0 {
                1
            } else {
                n
            }
        }
    }
}

/// The rare-event simulator.
#[derive(Debug, Clone)]
pub struct TailSimulator {
    config: TailConfig,
}

impl TailSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: TailConfig) -> Self {
        assert!(config.samples > 0, "need at least one sample");
        assert!(config.years > 0.0, "lifetime must be positive");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TailConfig {
        &self.config
    }

    /// Estimates the tail failure probability of one scheme.
    ///
    /// Auto-selects the sharpest sound mode (clique forcing where valid,
    /// else count conditioning, else plain MC), unless
    /// [`TailConfig::force_mode`] overrides it. The estimate is a pure
    /// function of `(seed, scheme, samples, years, params, rates)` — the
    /// thread count never changes it.
    pub fn run(&self, scheme: Scheme) -> TailEstimate {
        let config = &self.config;
        let model = SchemeModel::new(scheme, config.params);
        let sampler = LifetimeSampler::new(
            &config.rates,
            model.config().geometry,
            model.config().total_chips(),
            config.years,
        );
        let lambda = sampler.lambda();
        let k = min_failing_faults(scheme);

        if lambda > POISSON_CHUNK || config.force_mode == Some(TailMode::PlainMc) {
            return self.run_plain(scheme);
        }
        // xed-lint: allow(XL004) — exact zero-rate sentinel
        if lambda == 0.0 {
            // No faults ever arrive: the tail probability is exactly zero.
            return self.zero_estimate(scheme, k);
        }

        // P(N ≥ k) and P(N = k) for the truncated count draw.
        let exp_neg = (-lambda).exp();
        let mut pmf = exp_neg; // P(N = 0)
        let mut below = 0.0f64;
        for n in 0..k {
            below += pmf;
            pmf *= lambda / f64::from(n + 1);
        }
        let p_ge_k = (1.0 - below).max(0.0);
        // xed-lint: allow(XL004) — clamped to exactly 0 above
        if p_ge_k == 0.0 {
            return self.zero_estimate(scheme, k);
        }

        let clique = match config.force_mode {
            Some(TailMode::CountConditioned) => None,
            _ => {
                // Prefer the time-ordered, persistence-restricted proposal:
                // with a zero exposure window the evaluator's active set
                // holds only permanent faults, so every failing trial
                // carries a permanent-until-last witness and the tighter
                // `Z'` buys variance for free. Any positive window breaks
                // that structural guarantee (a transient can still be
                // active when the completing fault lands), so fall back to
                // unrestricted cliques — which never relied on persistence.
                // xed-lint: allow(XL004) — an exactly-zero configured window
                let restricted = config.params.transient_exposure_hours == 0.0;
                let ordered = if restricted {
                    CliquePlan::build(&model, &config.rates, k, true)
                } else {
                    None
                };
                ordered.or_else(|| CliquePlan::build(&model, &config.rates, k, false))
            }
        };
        let mode = if clique.is_some() {
            TailMode::CliqueForced
        } else {
            TailMode::CountConditioned
        };
        let clique_rho = clique.as_ref().map_or(0.0, |c| c.rho);
        let mut plan = TailPlan {
            model,
            sampler,
            mode,
            k,
            p_ge_k,
            pmf_k: pmf,
            lambda,
            hours: config.years * HOURS_PER_YEAR,
            clique,
            count_tilt: None,
        };

        let threads = resolve_threads(config.threads);
        let streams = Streams::new(
            montecarlo::stream_key(config.seed, scheme).wrapping_add(TAIL_STREAM_SALT),
        );
        let chunks = config.samples.div_ceil(TAIL_CHUNK);

        let start = Instant::now(); // xed-lint: allow(XL005)

        // Pilot probe: tilt both proposals toward where failures actually
        // live (near-optimal tilt is ∝ √f per stratum). Stage 1 measures
        // each tuple's exact-`k` propensity f2ᵢ (e.g. only Word-final
        // tuples can defeat XED's on-die code at N = k); stage 2 measures
        // the per-count-bucket propensity f_b with full trials (extra
        // broad-extent arrivals complete cliques regardless of the forced
        // modes, so propensity rises with N). The tuple tilt uses the
        // composite propensity P(N=k|·)·f2ᵢ + Σ_b P_b·f_b, the count tilt
        // uses √f_b; both carry exact likelihood-ratio reweighting and a
        // floor that keeps the full support, so probe noise moves only
        // variance, never the mean. On schemes where every clique fails
        // deterministically all propensities are 1 and both tilts are the
        // identity. Runs single-threaded on a dedicated deterministic
        // stream (thread-count-invariant), inside the timed region because
        // it is part of the run's cost.
        let pilot: Option<(Vec<f64>, CountTilt)> = plan.clique.as_ref().map(|clique| {
            let mut probe_rng = streams.stream(u64::MAX);
            let mut scratch = Scratch::default();
            // Conditional bucket probabilities P(N ∈ b | N ≥ k) for
            // buckets {k, k+1, k+2, ≥k+3}.
            let pmf_k1 = pmf * lambda / f64::from(k + 1);
            let pmf_k2 = pmf_k1 * lambda / f64::from(k + 2);
            let pmf_k3 = pmf_k2 * lambda / f64::from(k + 3);
            let p_lump = (p_ge_k - pmf - pmf_k1 - pmf_k2).max(0.0);
            let pb = [
                pmf / p_ge_k,
                pmf_k1 / p_ge_k,
                pmf_k2 / p_ge_k,
                p_lump / p_ge_k,
            ];

            // Stage 1: exact-k tuple propensities.
            let f2: Vec<f64> = (0..clique.tuples.len())
                .map(|i| plan.probe_tuple(clique, i, &mut probe_rng, &mut scratch))
                .collect();

            // Stage 2: count-bucket propensities (skip negligible buckets).
            let mut fb = [0.0f64; 4];
            for b in 1..4usize {
                if pb[b] < 1e-6 {
                    continue;
                }
                let fixed_n = k + b as u32;
                let lump = (b == 3).then_some((p_lump, pmf_k3));
                fb[b] = plan.probe_bucket(clique, fixed_n, lump, &mut probe_rng, &mut scratch);
            }

            let rest: f64 = (1..4).map(|b| pb[b] * fb[b]).sum();
            let tilts: Vec<f64> = f2
                .iter()
                .map(|&f| (pb[0] * f + rest).max(1e-4).sqrt())
                .collect();

            // Exact-k bucket propensity under the *tilted* tuple draw.
            let tilted_mass: f64 = clique.weights.iter().zip(&tilts).map(|(w, t)| w * t).sum();
            fb[0] = clique
                .weights
                .iter()
                .zip(&tilts)
                .zip(&f2)
                .map(|((w, t), f)| w * t * f)
                .sum::<f64>()
                / tilted_mass;

            let tb: [f64; 4] = std::array::from_fn(|b| fb[b].max(1e-4).sqrt());
            let mut cum = [0.0f64; 4];
            let mut acc = 0.0;
            for b in 0..4 {
                acc += pb[b] * tb[b];
                cum[b] = acc;
            }
            let weight: [f64; 4] = std::array::from_fn(|b| acc / tb[b]);
            let count_tilt = CountTilt {
                cum,
                weight,
                p_lump,
                pmf_lump: pmf_k3,
            };
            (tilts, count_tilt)
        });
        if xed_telemetry::enabled() && pilot.is_some() {
            // The pilot is the first thing timed from `start`.
            let pilot_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            metrics::FAULTSIM_TAIL_PILOT_NS.record(pilot_ns);
        }
        if let Some((tilts, count_tilt)) = pilot {
            // invariant: the pilot closure is entered only under
            // `plan.clique.is_some()`, so the Option is still populated here.
            plan.clique
                .as_mut()
                .expect("the pilot runs only when the clique exists")
                .apply_tilt(&tilts);
            plan.count_tilt = Some(count_tilt);
        }
        let plan = plan;
        let per_worker = steal_chunks(
            threads,
            chunks,
            || (Vec::new(), Scratch::default()),
            |(out, scratch): &mut (Vec<(u64, ChunkSums)>, Scratch), c| {
                let first = c * TAIL_CHUNK;
                let count = TAIL_CHUNK.min(config.samples - first);
                let mut sums = ChunkSums::default();
                for trial in first..first + count {
                    let (y, verdict) = plan.run_trial(trial, &streams, scratch);
                    if let Some(v) = verdict {
                        sums.y += y;
                        sums.y2 += y * y;
                        sums.failures += 1;
                        if v == Verdict::Due {
                            sums.due += y;
                        } else {
                            sums.sdc += y;
                        }
                    }
                }
                out.push((c, sums));
            },
        );
        let wall_seconds = start.elapsed().as_secs_f64();

        // Deterministic fold: gather every worker's chunk partials, order
        // by chunk id, and sum in that fixed order — the floating-point
        // result is bit-identical for any thread count.
        let mut chunks_sorted: Vec<(u64, ChunkSums)> =
            per_worker.into_iter().flat_map(|(out, _)| out).collect();
        chunks_sorted.sort_unstable_by_key(|&(c, _)| c);
        let mut total = ChunkSums::default();
        for (_, s) in &chunks_sorted {
            total.y += s.y;
            total.y2 += s.y2;
            total.due += s.due;
            total.sdc += s.sdc;
            total.failures += s.failures;
        }

        let t = config.samples as f64;
        let p_fail = total.y / t;
        let variance = if config.samples > 1 {
            (((total.y2 - t * p_fail * p_fail) / (t - 1.0)) / t).max(0.0)
        } else {
            0.0
        };

        if xed_telemetry::enabled() {
            metrics::FAULTSIM_TAIL_RUNS.incr();
            metrics::FAULTSIM_TAIL_TRIALS.add(config.samples);
            if mode == TailMode::CliqueForced {
                metrics::FAULTSIM_TAIL_FORCED_PAIRS.add(config.samples);
            } else if k >= 2 {
                // A Chipkill-class scheme that could not be clique-forced
                // (scaling enabled, degenerate rates, or an override).
                metrics::FAULTSIM_TAIL_FALLBACKS.incr();
            }
        }

        TailEstimate {
            scheme,
            mode,
            samples: config.samples,
            min_faults: k,
            conditioning_probability: p_ge_k,
            clique_rho,
            p_fail,
            p_due: total.due / t,
            p_sdc: total.sdc / t,
            failures: total.failures,
            variance,
            wall_seconds,
            threads,
        }
    }

    /// Estimates every scheme in `schemes`, in order.
    pub fn run_all(&self, schemes: &[Scheme]) -> Vec<TailEstimate> {
        schemes.iter().map(|&s| self.run(s)).collect()
    }

    /// The plain-MC delegate (λ too large for the truncated walk, or an
    /// explicit override).
    fn run_plain(&self, scheme: Scheme) -> TailEstimate {
        let config = &self.config;
        let sweep = Sweep {
            samples: config.samples,
            seed: config.seed,
            years: config.years,
            threads: config.threads,
            params: config.params,
            rates: config.rates.clone(),
        };
        let report = sweep.run_one(scheme);
        if xed_telemetry::enabled() {
            metrics::FAULTSIM_TAIL_RUNS.incr();
            metrics::FAULTSIM_TAIL_TRIALS.add(config.samples);
            metrics::FAULTSIM_TAIL_FALLBACKS.incr();
        }
        let r = &report.result;
        let t = config.samples as f64;
        let p = r.lifetime_failure_probability();
        TailEstimate {
            scheme,
            mode: TailMode::PlainMc,
            samples: config.samples,
            min_faults: 0,
            conditioning_probability: 1.0,
            clique_rho: 0.0,
            p_fail: p,
            p_due: r.due as f64 / t,
            p_sdc: r.sdc as f64 / t,
            failures: r.failures(),
            variance: p * (1.0 - p) / t,
            wall_seconds: report.stats.wall_seconds,
            threads: report.stats.threads,
        }
    }

    /// The exact-zero estimate (no fault can arrive, or `P(N ≥ k) = 0`).
    fn zero_estimate(&self, scheme: Scheme, k: u32) -> TailEstimate {
        if xed_telemetry::enabled() {
            metrics::FAULTSIM_TAIL_RUNS.incr();
        }
        TailEstimate {
            scheme,
            mode: TailMode::CountConditioned,
            samples: self.config.samples,
            min_faults: k,
            conditioning_probability: 0.0,
            clique_rho: 0.0,
            p_fail: 0.0,
            p_due: 0.0,
            p_sdc: 0.0,
            failures: 0,
            variance: 0.0,
            wall_seconds: 0.0,
            threads: resolve_threads(self.config.threads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{p_fail_single_fault, p_fail_triple_fault};

    fn tail(samples: u64) -> TailSimulator {
        TailSimulator::new(TailConfig {
            samples,
            seed: 7,
            ..TailConfig::default()
        })
    }

    #[test]
    fn min_failing_faults_per_scheme() {
        assert_eq!(min_failing_faults(Scheme::NonEcc), 1);
        assert_eq!(min_failing_faults(Scheme::EccDimm), 1);
        assert_eq!(min_failing_faults(Scheme::Xed), 1);
        assert_eq!(min_failing_faults(Scheme::Chipkill), 2);
        assert_eq!(min_failing_faults(Scheme::ChipkillX4), 2);
        assert_eq!(min_failing_faults(Scheme::XedChipkill), 2);
        assert_eq!(min_failing_faults(Scheme::DoubleChipkill), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = tail(20_000);
        let a = sim.run(Scheme::XedChipkill);
        let b = sim.run(Scheme::XedChipkill);
        assert_eq!(a.p_fail.to_bits(), b.p_fail.to_bits());
        assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn thread_count_never_changes_estimates() {
        // Same invariant as the plain driver: chunk-ordered folding makes
        // the floating-point sums bit-identical for any thread count.
        let estimates: Vec<TailEstimate> = [1usize, 2, 5]
            .iter()
            .map(|&threads| {
                TailSimulator::new(TailConfig {
                    samples: 30_000,
                    seed: 7,
                    threads,
                    ..TailConfig::default()
                })
                .run(Scheme::XedChipkill)
            })
            .collect();
        for e in &estimates[1..] {
            assert_eq!(e.p_fail.to_bits(), estimates[0].p_fail.to_bits());
            assert_eq!(e.p_due.to_bits(), estimates[0].p_due.to_bits());
            assert_eq!(e.variance.to_bits(), estimates[0].variance.to_bits());
            assert_eq!(e.failures, estimates[0].failures);
        }
    }

    #[test]
    fn count_conditioned_matches_closed_form_on_ecc_dimm() {
        // Every multi-bit fault defeats SECDED on arrival and bit faults
        // are benign, so the lifetime failure probability is exactly
        // P(≥ 1 large fault) — a closed form the conditioned estimator
        // must reproduce within its own confidence interval.
        let est = tail(150_000).run(Scheme::EccDimm);
        assert_eq!(est.mode, TailMode::CountConditioned);
        assert_eq!(est.min_faults, 1);
        let exact = p_fail_single_fault(&FitRates::table_i(), 72, LIFETIME_YEARS);
        assert!(
            (est.p_fail - exact).abs() < 4.0 * est.ci95().max(1e-6),
            "estimate {} vs exact {exact}",
            est.p_fail
        );
    }

    #[test]
    fn clique_forced_agrees_with_count_conditioned() {
        // The two estimators are unbiased for the same quantity; their
        // estimates must agree within joint confidence bounds.
        let forced = tail(150_000).run(Scheme::XedChipkill);
        assert_eq!(forced.mode, TailMode::CliqueForced);
        let conditioned = TailSimulator::new(TailConfig {
            samples: 2_000_000,
            seed: 11,
            force_mode: Some(TailMode::CountConditioned),
            ..TailConfig::default()
        })
        .run(Scheme::XedChipkill);
        assert_eq!(conditioned.mode, TailMode::CountConditioned);
        assert!(forced.failures > 50, "forced failures {}", forced.failures);
        let joint = (forced.variance + conditioned.variance).sqrt();
        assert!(
            (forced.p_fail - conditioned.p_fail).abs() < 5.0 * joint,
            "forced {} vs conditioned {} (joint σ {joint})",
            forced.p_fail,
            conditioned.p_fail
        );
    }

    #[test]
    fn triple_forcing_brackets_double_chipkill_closed_form() {
        // Double-Chipkill's failure probability (~10⁻⁸) is far beyond
        // plain MC at test budgets; the triple-forced estimator resolves
        // it in 100k trials and must land near the first-order analytic
        // triple-fault probability.
        let est = tail(100_000).run(Scheme::DoubleChipkill);
        assert_eq!(est.mode, TailMode::CliqueForced);
        assert_eq!(est.min_faults, 3);
        assert!(est.failures > 20, "failures {}", est.failures);
        let config = Scheme::DoubleChipkill.system_config();
        let exact = p_fail_triple_fault(
            &FitRates::table_i(),
            &config,
            Scheme::DoubleChipkill.domain_chips(),
            config.total_chips() / Scheme::DoubleChipkill.domain_chips(),
            LIFETIME_YEARS,
        );
        assert!(
            est.p_fail > exact / 4.0 && est.p_fail < exact * 4.0,
            "estimate {} vs analytic {exact}",
            est.p_fail
        );
    }

    #[test]
    fn triple_forcing_agrees_with_count_conditioned() {
        // Cross-check the ordered triple proposal against the
        // proposal-free count-conditioned estimator on Double-Chipkill;
        // both are unbiased for the same tail probability.
        let forced = tail(200_000).run(Scheme::DoubleChipkill);
        assert_eq!(forced.mode, TailMode::CliqueForced);
        let conditioned = TailSimulator::new(TailConfig {
            samples: 3_000_000,
            seed: 23,
            force_mode: Some(TailMode::CountConditioned),
            ..TailConfig::default()
        })
        .run(Scheme::DoubleChipkill);
        assert_eq!(conditioned.mode, TailMode::CountConditioned);
        assert!(forced.failures > 30, "forced failures {}", forced.failures);
        let joint = (forced.variance + conditioned.variance).sqrt();
        assert!(
            (forced.p_fail - conditioned.p_fail).abs() < 5.0 * joint,
            "forced {} vs conditioned {} (joint σ {joint})",
            forced.p_fail,
            conditioned.p_fail
        );
    }

    #[test]
    fn clique_forcing_beats_plain_mc_variance_by_orders_of_magnitude() {
        // The acceptance criterion's engine-level form: effective plain-MC
        // trials per conditioned trial must exceed 100× (the bench
        // measures the wall-clock-normalized version).
        let est = tail(50_000).run(Scheme::XedChipkill);
        assert!(est.p_fail > 0.0);
        let gain = est.effective_trials() / est.samples as f64;
        assert!(gain > 100.0, "effective-trial gain {gain}");
    }

    #[test]
    fn scaling_faults_disable_clique_forcing() {
        use crate::scaling::ScalingFaults;
        let sim = TailSimulator::new(TailConfig {
            samples: 5_000,
            params: ModelParams {
                scaling: ScalingFaults::with_rate(1e-4),
                ..ModelParams::default()
            },
            ..TailConfig::default()
        });
        let est = sim.run(Scheme::XedChipkill);
        assert_eq!(est.mode, TailMode::CountConditioned);
        assert_eq!(est.min_faults, 2);
    }

    #[test]
    fn forced_mode_overrides_are_safe() {
        // Forcing clique mode on a k = 1 scheme falls back to count
        // conditioning instead of producing a biased estimator.
        let sim = TailSimulator::new(TailConfig {
            samples: 5_000,
            force_mode: Some(TailMode::CliqueForced),
            ..TailConfig::default()
        });
        assert_eq!(sim.run(Scheme::EccDimm).mode, TailMode::CountConditioned);
        let plain = TailSimulator::new(TailConfig {
            samples: 5_000,
            force_mode: Some(TailMode::PlainMc),
            ..TailConfig::default()
        });
        assert_eq!(plain.run(Scheme::EccDimm).mode, TailMode::PlainMc);
    }

    #[test]
    fn large_lambda_falls_back_to_plain_mc() {
        use crate::fit::ModeRate;
        let rates = FitRates::custom(vec![ModeRate {
            extent: FaultExtent::Chip,
            transient_fit: 8_000.0,
            permanent_fit: 0.0,
        }]);
        let sampler_lambda = 8_000.0e-9 * LIFETIME_YEARS * HOURS_PER_YEAR * 144.0;
        assert!(sampler_lambda > 30.0, "test premise: λ {sampler_lambda}");
        let sim = TailSimulator::new(TailConfig {
            samples: 2_000,
            rates,
            ..TailConfig::default()
        });
        let est = sim.run(Scheme::DoubleChipkill);
        assert_eq!(est.mode, TailMode::PlainMc);
        assert_eq!(est.conditioning_probability, 1.0);
    }

    #[test]
    fn zero_rates_give_exact_zero() {
        let sim = TailSimulator::new(TailConfig {
            samples: 1_000,
            rates: FitRates::custom(vec![]),
            ..TailConfig::default()
        });
        let est = sim.run(Scheme::XedChipkill);
        assert_eq!(est.p_fail, 0.0);
        assert_eq!(est.failures, 0);
        assert_eq!(est.variance, 0.0);
        assert_eq!(est.conditioning_probability, 0.0);
    }

    #[test]
    fn coarse_intersection_model_supports_clique_forcing() {
        // With require_line_intersection off the clique condition drops
        // the shared-line constraint but the estimator stays valid (and
        // more pessimistic, like the plain driver).
        let coarse = TailSimulator::new(TailConfig {
            samples: 60_000,
            seed: 7,
            params: ModelParams {
                require_line_intersection: false,
                ..ModelParams::default()
            },
            ..TailConfig::default()
        })
        .run(Scheme::XedChipkill);
        assert_eq!(coarse.mode, TailMode::CliqueForced);
        let strict = tail(60_000).run(Scheme::XedChipkill);
        assert!(
            coarse.p_fail > strict.p_fail,
            "coarse {} vs strict {}",
            coarse.p_fail,
            strict.p_fail
        );
    }

    #[test]
    fn estimates_are_pinned_bit_for_bit_in_every_mode() {
        // Golden bits for a fixed seed at 10× Table I rates with a
        // month-long transient window, one per tail mode: a change to the
        // stream keying, the shared scheduler's fold, the timeline walk or
        // the plain-MC delegation shows up here as a bit flip.
        let rows = FitRates::table_i()
            .rows()
            .iter()
            .map(|r| crate::fit::ModeRate {
                transient_fit: r.transient_fit * 10.0,
                permanent_fit: r.permanent_fit * 10.0,
                ..*r
            })
            .collect();
        let config = TailConfig {
            samples: 20_000,
            seed: 7,
            params: ModelParams {
                transient_exposure_hours: 720.0,
                ..ModelParams::default()
            },
            rates: FitRates::custom(rows),
            ..TailConfig::default()
        };
        // (forced mode, mode run, p_fail bits, variance bits, failures);
        // every failure here is a DUE, so p_due == p_fail and p_sdc == 0.
        let pinned = [
            (
                None,
                TailMode::CliqueForced,
                0x3f6b_75f1_fba1_9a5d_u64,
                0x3e50_5a1b_89a1_bb7e_u64,
                968,
            ),
            (
                Some(TailMode::CountConditioned),
                TailMode::CountConditioned,
                0x3f6e_822b_57bd_d4cb,
                0x3e88_66ea_351b_2266,
                76,
            ),
            (
                Some(TailMode::PlainMc),
                TailMode::PlainMc,
                0x3f6b_089a_0275_2546,
                0x3e86_12a5_e042_6f88,
                66,
            ),
        ];
        for (force_mode, mode, p_fail, variance, failures) in pinned {
            let est = TailSimulator::new(TailConfig {
                force_mode,
                ..config.clone()
            })
            .run(Scheme::XedChipkill);
            assert_eq!(est.mode, mode);
            assert_eq!(est.p_fail.to_bits(), p_fail, "{mode:?} p_fail");
            assert_eq!(est.p_due.to_bits(), p_fail, "{mode:?} p_due");
            assert_eq!(est.p_sdc, 0.0, "{mode:?} p_sdc");
            assert_eq!(est.variance.to_bits(), variance, "{mode:?} variance");
            assert_eq!(est.failures, failures, "{mode:?} failures");
        }
    }

    /// Table I rates times ten: more faults per timeline.
    fn rates_x10() -> FitRates {
        FitRates::custom(
            FitRates::table_i()
                .rows()
                .iter()
                .map(|r| crate::fit::ModeRate {
                    transient_fit: r.transient_fit * 10.0,
                    permanent_fit: r.permanent_fit * 10.0,
                    ..*r
                })
                .collect(),
        )
    }

    /// A clique-forced plan over `model` with neither the pilot's tilts
    /// nor a count distribution: enough to plant, probe, walk and count.
    fn bare_plan(model: SchemeModel, rates: &FitRates, k: u32) -> TailPlan<'_> {
        let sampler = LifetimeSampler::new(
            rates,
            model.config().geometry,
            model.config().total_chips(),
            LIFETIME_YEARS,
        );
        TailPlan {
            lambda: sampler.lambda(),
            model,
            sampler,
            mode: TailMode::CliqueForced,
            k,
            p_ge_k: 1.0,
            pmf_k: 0.0,
            hours: LIFETIME_YEARS * HOURS_PER_YEAR,
            clique: None,
            count_tilt: None,
        }
    }

    #[test]
    fn shared_domain_walk_matches_the_full_walk() {
        // `retain_walked` drops every event alone in its domain with a
        // quiet mode. Walking what is left must end exactly like walking
        // everything — same verdict, same failing event, same final RNG
        // state — and S(x) must not change, for every scheme × parameter
        // variant × intersection model, on random timelines and on
        // timelines around a planted clique.
        use crate::scaling::ScalingFaults;
        use rand::SeedableRng;
        let rates = rates_x10();
        let variants = [
            ModelParams::default(),
            ModelParams {
                transient_exposure_hours: 24.0,
                ..ModelParams::default()
            },
            ModelParams {
                on_die_ecc: false,
                ..ModelParams::default()
            },
            ModelParams {
                scaling: ScalingFaults::with_rate(0.9),
                on_die_miss: 0.5,
                dimm_secded_burst_detect: 0.5,
                ..ModelParams::default()
            },
        ];
        let mut rng = StdRng::seed_from_u64(0x5AA1_ED0D);
        let (mut walks, mut dropped, mut kept_loud, mut failed) = (0u32, 0u32, 0u32, 0u32);
        let mut full = Scratch::default();
        let mut walked = Scratch::default();
        for scheme in Scheme::ALL {
            for variant in variants {
                for require_line_intersection in [true, false] {
                    let params = ModelParams {
                        require_line_intersection,
                        ..variant
                    };
                    let model = SchemeModel::new(scheme, params);
                    // S(x) needs a clique plan, which scaling faults rule
                    // out: count on the same scheme without them.
                    let k = min_failing_faults(scheme).max(2);
                    let plain = SchemeModel::new(
                        scheme,
                        ModelParams {
                            scaling: ScalingFaults::none(),
                            ..params
                        },
                    );
                    let cliques = [true, false].map(|ordered| {
                        CliquePlan::build(&plain, &rates, k, ordered).expect("a clique plan")
                    });
                    let elide = model.bit_always_benign();
                    let plan = bare_plan(model, &rates, k);
                    let counter = bare_plan(plain, &rates, k);
                    for round in 0..120u32 {
                        full.events.clear();
                        let clique = &cliques[(round % 2) as usize];
                        if round % 3 != 0 {
                            plan.plant_clique(clique, &mut rng, &mut full.events);
                        }
                        let extra = rng.gen_range(0..=10);
                        plan.sampler
                            .events_append(extra, &mut rng, &mut full.events, elide);
                        walked.events.clone_from(&full.events);
                        plan.model.retain_walked(&mut walked.events);
                        sort_by_arrival(&mut full.events);
                        sort_by_arrival(&mut walked.events);
                        let mut full_rng = StdRng::seed_from_u64(u64::from(round));
                        let mut walked_rng = full_rng.clone();
                        let want =
                            walk_timeline(&plan.model, &mut full_rng, &mut full, |_, _, _| {});
                        let got =
                            walk_timeline(&plan.model, &mut walked_rng, &mut walked, |_, _, _| {});
                        let what = format!("{scheme:?} {params:?} round {round}");
                        assert_eq!(got, want, "{what}: verdict or failing event");
                        assert_eq!(walked_rng, full_rng, "{what}: draws");
                        assert_eq!(
                            counter.count_cliques(clique, &walked.events),
                            counter.count_cliques(clique, &full.events),
                            "{what}: S(x)"
                        );
                        walks += 1;
                        dropped += (full.events.len() - walked.events.len()) as u32;
                        kept_loud += u32::from(
                            walked.events.len() > 1
                                && !plan.model.is_quiet_timeline(&walked.events),
                        );
                        failed += u32::from(want.is_some());
                    }
                }
            }
        }
        assert_eq!(walks, 7 * 4 * 2 * 120);
        assert!(dropped > walks / 2, "only {dropped} events dropped");
        assert!(kept_loud > walks / 2, "only {kept_loud} walks kept work");
        assert!(failed > walks / 4, "only {failed} walks failed");
    }

    /// The tuple probe as a plain round loop: rebuild and walk the
    /// synthetic timeline every round, batch after batch, until a batch
    /// boundary settles the propensity. The oracle for the memoized
    /// [`TailPlan::probe_tuple`].
    fn probe_tuple_by_rounds(
        plan: &TailPlan<'_>,
        clique: &CliquePlan,
        index: usize,
        rng: &mut StdRng,
        scratch: &mut Scratch,
    ) -> f64 {
        let mut failures = 0u32;
        let mut rounds = 0u32;
        while rounds < PROBE_MAX_ROUNDS {
            for _ in 0..PROBE_BATCH {
                plan.probe_timeline(clique, index, rng, &mut scratch.events);
                if plan.evaluate_timeline(rng, scratch).is_some() {
                    failures += 1;
                }
            }
            rounds += PROBE_BATCH;
            if failures == rounds
                || (rounds >= PROBE_MIN_ROUNDS
                    && (failures == 0 || failures >= PROBE_TARGET_FAILURES))
            {
                break;
            }
        }
        f64::from(failures) / f64::from(rounds)
    }

    #[test]
    fn memoized_probe_matches_the_round_loop() {
        // For every tuple of every Chipkill-class scheme, strict and
        // coarse, ordered and not, at the paper's on-die miss and at a
        // coin-flip one: the memoized probe returns the round loop's
        // propensity bit for bit and leaves the probe generator in the
        // same state, whether it took the draw-free shortcut or not.
        use rand::SeedableRng;
        let rates = rates_x10();
        let (mut tuples, mut memoized, mut mixed) = (0u32, 0u32, 0u32);
        let mut scratch = Scratch::default();
        for scheme in [
            Scheme::Chipkill,
            Scheme::ChipkillX4,
            Scheme::XedChipkill,
            Scheme::DoubleChipkill,
        ] {
            for on_die_miss in [0.008, 0.5] {
                for require_line_intersection in [true, false] {
                    let model = SchemeModel::new(
                        scheme,
                        ModelParams {
                            on_die_miss,
                            require_line_intersection,
                            ..ModelParams::default()
                        },
                    );
                    let k = min_failing_faults(scheme);
                    for ordered in [true, false] {
                        let clique =
                            CliquePlan::build(&model, &rates, k, ordered).expect("a clique plan");
                        let plan = bare_plan(model.clone(), &rates, k);
                        for index in 0..clique.tuples.len() {
                            let seed = u64::from(tuples) ^ 0x9_0BE5;
                            let mut want_rng = StdRng::seed_from_u64(seed);
                            let mut got_rng = want_rng.clone();
                            let want = probe_tuple_by_rounds(
                                &plan,
                                &clique,
                                index,
                                &mut want_rng,
                                &mut scratch,
                            );
                            let got = plan.probe_tuple(&clique, index, &mut got_rng, &mut scratch);
                            let what = format!(
                                "{scheme:?} miss {on_die_miss} strict {require_line_intersection} \
                                 ordered {ordered} tuple {index}"
                            );
                            assert_eq!(got.to_bits(), want.to_bits(), "{what}: propensity");
                            assert_eq!(got_rng, want_rng, "{what}: probe generator");
                            tuples += 1;
                            memoized += u32::from(got_rng == StdRng::seed_from_u64(seed));
                            mixed += u32::from(got > 0.0 && got < 1.0);
                        }
                    }
                }
            }
        }
        assert!(memoized > tuples / 4, "{memoized} of {tuples} memoized");
        assert!(mixed > 10, "only {mixed} probes were neither 0 nor 1");
    }

    #[test]
    fn inert_faults_never_change_the_clique_count() {
        // The tail engine leaves inert single-bit faults out of its
        // timelines, and S(x) — the clique count in the likelihood ratio —
        // is read off the elided timeline. It counts multi-bit members
        // only, so it must equal the count over the full timeline. The
        // sampler half of the contract is checked alongside: eliding
        // draws exactly what keeping does, and drops exactly the
        // single-bit events.
        use rand::SeedableRng;
        let rates = rates_x10();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (mut timelines, mut elided_total, mut several) = (0u32, 0u32, 0u32);
        for scheme in [
            Scheme::Chipkill,
            Scheme::ChipkillX4,
            Scheme::XedChipkill,
            Scheme::DoubleChipkill,
        ] {
            for require_line_intersection in [true, false] {
                for ordered in [true, false] {
                    let model = SchemeModel::new(
                        scheme,
                        ModelParams {
                            require_line_intersection,
                            ..ModelParams::default()
                        },
                    );
                    assert!(model.bit_always_benign());
                    let k = min_failing_faults(scheme);
                    let clique = CliquePlan::build(&model, &rates, k, ordered)
                        .expect("a clique plan at default parameters");
                    let plan = bare_plan(model, &rates, k);
                    for _ in 0..100 {
                        let mut full = Vec::new();
                        plan.plant_clique(&clique, &mut rng, &mut full);
                        let mut elided = full.clone();
                        let mut keep_rng = rng.clone();
                        plan.sampler
                            .events_append(16, &mut keep_rng, &mut full, false);
                        let n = plan.sampler.events_append(16, &mut rng, &mut elided, true);
                        assert_eq!(rng, keep_rng, "eliding must draw what keeping draws");
                        full.sort_unstable_by(|a, b| a.time_hours.total_cmp(&b.time_hours));
                        elided.sort_unstable_by(|a, b| a.time_hours.total_cmp(&b.time_hours));
                        let multi_bit: Vec<FaultEvent> = full
                            .iter()
                            .filter(|e| e.fault.extent.is_multi_bit())
                            .copied()
                            .collect();
                        assert_eq!(elided, multi_bit);
                        assert_eq!(n as usize, full.len() - elided.len());
                        let s = plan.count_cliques(&clique, &full);
                        assert!(s >= 1, "{scheme:?}: the planted clique was not counted");
                        assert_eq!(
                            s,
                            plan.count_cliques(&clique, &elided),
                            "{scheme:?} (strict {require_line_intersection}, ordered {ordered})"
                        );
                        timelines += 1;
                        elided_total += n;
                        several += u32::from(s > 1);
                    }
                }
            }
        }
        assert_eq!(timelines, 1_600);
        assert!(elided_total > 1_600, "only {elided_total} faults elided");
        assert!(several > 0, "no timeline held a second clique");
    }

    #[test]
    fn estimate_accessors_are_consistent() {
        let est = tail(40_000).run(Scheme::XedChipkill);
        assert!((est.ci99() / est.ci95() - 2.576 / 1.96).abs() < 1e-12);
        assert!((est.relative_ci95() - est.ci95() / est.p_fail).abs() < 1e-15);
        assert!((est.p_due + est.p_sdc - est.p_fail).abs() < 1e-18);
        assert!(est.clique_rho > 0.0);
        assert!(est.conditioning_probability > 0.0 && est.conditioning_probability < 1.0);
    }
}
