//! The memory-protection schemes the paper compares, and their
//! fault-response models.
//!
//! Each scheme is evaluated FaultSim-style: after every fault arrival the
//! scheme decides whether the system *corrected* the error, suffered a
//! *detected uncorrectable error* (DUE), or suffered *silent data
//! corruption* (SDC). The decision depends on how many distinct chips in
//! the scheme's protection domain hold concurrent faults that intersect a
//! common cache line.
//!
//! | Scheme | Devices | Domain | Tolerates |
//! |---|---|---|---|
//! | `NonEcc` | x8, 8/rank | rank | nothing beyond on-die ECC |
//! | `EccDimm` | x8, 9/rank | rank | 1 bit per 72-bit beat |
//! | `Xed` | x8, 9/rank | rank | 1 chip (erasure via catch-word + parity) |
//! | `Chipkill` | x8, 2 ranks ganged | channel (18 chips) | 1 chip (SSC-DSD) |
//! | `ChipkillX4` | x4, 18/rank | rank | 1 chip (SSC-DSD) |
//! | `XedChipkill` | x4, 18/rank | rank | 2 chips (erasures) |
//! | `DoubleChipkill` | x4, 2 ranks ganged | channel (36 chips) | 2 chips |

use crate::event::FaultEvent;
use crate::fault::{FaultExtent, FaultRange, Persistence};
use crate::scaling::ScalingFaults;
use crate::system::SystemConfig;
use rand::Rng;
use std::fmt;

/// Identifies one of the evaluated protection schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// 8-chip non-ECC DIMM (Figure 1 baseline).
    NonEcc,
    /// 9-chip ECC-DIMM running conventional (72,64) SECDED.
    EccDimm,
    /// XED: 9-chip ECC-DIMM with RAID-3 parity + exposed on-die detection.
    Xed,
    /// Commercial chipkill on x8 parts: two 9-chip ranks ganged (18 chips).
    Chipkill,
    /// Single-Chipkill on x4 parts: one 18-chip rank (Section IX baseline).
    ChipkillX4,
    /// XED on top of single-chipkill hardware: 18 x4 chips, check symbols
    /// used as erasures (Double-Chipkill-level reliability, Section IX-A).
    XedChipkill,
    /// Double-Chipkill: 36 x4 chips across two ganged ranks.
    DoubleChipkill,
}

impl Scheme {
    /// Every scheme, in presentation order.
    pub const ALL: [Scheme; 7] = [
        Scheme::NonEcc,
        Scheme::EccDimm,
        Scheme::Xed,
        Scheme::Chipkill,
        Scheme::ChipkillX4,
        Scheme::XedChipkill,
        Scheme::DoubleChipkill,
    ];

    /// The physical system organization this scheme runs on.
    pub fn system_config(self) -> SystemConfig {
        match self {
            Scheme::NonEcc => SystemConfig::x8_non_ecc(),
            Scheme::EccDimm | Scheme::Xed | Scheme::Chipkill => SystemConfig::x8_ecc_dimm(),
            Scheme::ChipkillX4 | Scheme::XedChipkill | Scheme::DoubleChipkill => {
                SystemConfig::x4_chipkill()
            }
        }
    }

    /// Number of chips that share an ECC codeword (the protection domain).
    pub fn domain_chips(self) -> u32 {
        match self {
            Scheme::NonEcc => 8,
            Scheme::EccDimm | Scheme::Xed => 9,
            Scheme::Chipkill | Scheme::ChipkillX4 | Scheme::XedChipkill => 18,
            Scheme::DoubleChipkill => 36,
        }
    }

    /// `true` if the protection domain spans both ranks of a channel
    /// (rank-ganged schemes).
    pub fn domain_is_channel(self) -> bool {
        matches!(self, Scheme::Chipkill | Scheme::DoubleChipkill)
    }

    /// Stable nonzero tag mixed into Monte-Carlo RNG stream keys, so trial
    /// `i` of one scheme draws randomness independent of trial `i` of every
    /// other scheme (the per-trial stream is keyed by `(seed, scheme,
    /// trial)`; see `montecarlo`).
    ///
    /// The values are part of the reproducibility contract: changing them
    /// changes every seeded simulation result.
    pub const fn stream_tag(self) -> u64 {
        match self {
            Scheme::NonEcc => 1,
            Scheme::EccDimm => 2,
            Scheme::Xed => 3,
            Scheme::Chipkill => 4,
            Scheme::ChipkillX4 => 5,
            Scheme::XedChipkill => 6,
            Scheme::DoubleChipkill => 7,
        }
    }

    /// Short stable identifier used in URLs, JSON payloads and CLI flags.
    ///
    /// [`Scheme::parse`] accepts these (and common alternative spellings)
    /// case- and punctuation-insensitively.
    pub const fn id(self) -> &'static str {
        match self {
            Scheme::NonEcc => "non-ecc",
            Scheme::EccDimm => "ecc-dimm",
            Scheme::Xed => "xed",
            Scheme::Chipkill => "chipkill",
            Scheme::ChipkillX4 => "chipkill-x4",
            Scheme::XedChipkill => "xed-chipkill",
            Scheme::DoubleChipkill => "double-chipkill",
        }
    }

    /// Parses a scheme name, tolerating case, `-`/`_`/space punctuation
    /// and the common alternative spellings (`secded`, `single-chipkill`,
    /// …). Every spelling of one scheme canonicalizes to the same variant,
    /// so semantically-equal queries hash to the same canonical key no
    /// matter how the scheme was written.
    pub fn parse(name: &str) -> Option<Scheme> {
        let mut key = String::with_capacity(name.len());
        for c in name.chars() {
            if c.is_ascii_alphanumeric() {
                key.push(c.to_ascii_lowercase());
            }
        }
        match key.as_str() {
            "nonecc" | "noecc" | "none" => Some(Scheme::NonEcc),
            "eccdimm" | "ecc" | "secded" => Some(Scheme::EccDimm),
            "xed" => Some(Scheme::Xed),
            "chipkill" | "chipkillx8" => Some(Scheme::Chipkill),
            "chipkillx4" | "singlechipkill" => Some(Scheme::ChipkillX4),
            "xedchipkill" | "xedsinglechipkill" => Some(Scheme::XedChipkill),
            "doublechipkill" | "dck" => Some(Scheme::DoubleChipkill),
            _ => None,
        }
    }

    /// Human-readable name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::NonEcc => "Non-ECC DIMM (8 chips)",
            Scheme::EccDimm => "ECC-DIMM SECDED (9 chips)",
            Scheme::Xed => "XED (9 chips)",
            Scheme::Chipkill => "Chipkill (18 chips, x8 ganged)",
            Scheme::ChipkillX4 => "Single-Chipkill (18 chips, x4)",
            Scheme::XedChipkill => "XED + Single-Chipkill (18 chips, x4)",
            Scheme::DoubleChipkill => "Double-Chipkill (36 chips, x4)",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened to the system when a fault arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The fault is invisible outside the chip (on-die ECC absorbs it).
    Benign,
    /// The scheme detected and corrected the error.
    Corrected,
    /// Detected uncorrectable error — system failure.
    Due,
    /// Undetected or mis-corrected error — silent system failure.
    Sdc,
}

impl Verdict {
    /// `true` if the verdict terminates the system (DUE or SDC).
    pub fn is_failure(self) -> bool {
        matches!(self, Verdict::Due | Verdict::Sdc)
    }
}

/// How much the memory controller knows about the *on-die* ECC function.
///
/// XED's baseline (and this repo's default) assumes the vendor's (72,64)
/// code is disclosed. Real on-die ECC is proprietary; `xed_ecc::infer`
/// implements BEER-style recovery of the parity-check matrix from
/// retention-test probes, which either succeeds bit-exactly (up to the
/// unobservable check-column relabeling) or certifies an ambiguity
/// class. This knob propagates that epistemic state into the fault-model
/// scenarios so lifetime/tail estimates can be compared across it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeModel {
    /// The vendor disclosed the code — the paper's assumption.
    Known,
    /// Inference recovered the full matrix (certified bit-exact against
    /// ground truth). Indistinguishable from [`CodeModel::Known`] by
    /// construction: an exactly recovered code predicts the same
    /// detect/miss behavior, so results are bit-identical.
    InferredExact,
    /// Inference was pattern-starved: `unresolved_rows` of the 8 check
    /// rows could not be distinguished. The controller must treat any
    /// syndrome confined to the unresolved subspace as potentially
    /// aliasing, inflating the effective on-die miss probability.
    InferredAmbiguous {
        /// Check rows (of 8) the probe campaign failed to resolve.
        unresolved_rows: u8,
    },
}

impl CodeModel {
    /// Stable discriminant for canonical-key hashing.
    pub(crate) fn key_tag(self) -> (u64, u64) {
        match self {
            CodeModel::Known => (0, 0),
            CodeModel::InferredExact => (1, 0),
            CodeModel::InferredAmbiguous { unresolved_rows } => (2, u64::from(unresolved_rows)),
        }
    }

    /// The on-die miss probability under this knowledge state, given the
    /// known-code baseline `base`.
    ///
    /// With `u` unresolved check rows, the controller can only evaluate
    /// syndromes in the resolved `(8-u)`-dimensional quotient: each of
    /// the `2^u − 1` nonzero unresolved-subspace cosets may collapse a
    /// detectable syndrome onto one of the 73 correctable signatures
    /// (72 single-bit columns + zero), so the escape mass grows as
    /// `(2^u − 1) · 73/256` on top of the code's intrinsic miss:
    /// `effective = base + (1 − base) · min(1, (2^u − 1) · 73/256)`.
    /// `u = 0` (and both fully-known states) return `base` unchanged.
    pub fn effective_on_die_miss(self, base: f64) -> f64 {
        match self {
            CodeModel::Known | CodeModel::InferredExact => base,
            CodeModel::InferredAmbiguous { unresolved_rows } => {
                let cosets = (1u64 << u32::from(unresolved_rows).min(63)) - 1;
                let escape = (cosets as f64 * 73.0 / 256.0).min(1.0);
                base + (1.0 - base) * escape
            }
        }
    }
}

impl fmt::Display for CodeModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeModel::Known => f.write_str("known"),
            CodeModel::InferredExact => f.write_str("inferred"),
            CodeModel::InferredAmbiguous { unresolved_rows } => {
                write!(f, "ambiguous:{unresolved_rows}")
            }
        }
    }
}

/// Tunable response-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Whether devices have on-die ECC (paper default: yes).
    pub on_die_ecc: bool,
    /// Probability that the on-die SECDED fails to flag a multi-bit error
    /// (paper Section VI: 0.8%).
    pub on_die_miss: f64,
    /// Probability that the DIMM-level SECDED *detects* (rather than
    /// silently mis-corrects) the 8-bit burst a faulty chip injects into a
    /// 72-bit beat. Measured from this repo's (72,64) Hamming code under
    /// burst-8 errors (cf. Table II, where the paper reports 50.75%).
    pub dimm_secded_burst_detect: f64,
    /// Scaling (birthtime) fault configuration.
    pub scaling: ScalingFaults,
    /// Whether two faults must intersect at a common cache line to defeat
    /// a scheme (FaultSim's range model, the default), or merely coexist
    /// anywhere in the protection domain (the coarser classical model —
    /// the `ablation_intersection` bench quantifies the difference).
    pub require_line_intersection: bool,
    /// How long a *corrected transient* fault's corruption lingers before
    /// a demand read or patrol scrub cleans it (hours). `0.0` (default)
    /// models immediate read-and-scrub; larger values let two transient
    /// faults coexist and defeat erasure schemes.
    pub transient_exposure_hours: f64,
    /// The controller's knowledge of the on-die ECC function (default:
    /// [`CodeModel::Known`], the paper's assumption). Inflates the
    /// effective on-die miss probability under inferred-code ambiguity;
    /// see [`CodeModel::effective_on_die_miss`].
    pub code_model: CodeModel,
}

impl Default for ModelParams {
    fn default() -> Self {
        Self {
            on_die_ecc: true,
            on_die_miss: 0.008,
            dimm_secded_burst_detect: 0.51,
            scaling: ScalingFaults::none(),
            require_line_intersection: true,
            transient_exposure_hours: 0.0,
            code_model: CodeModel::Known,
        }
    }
}

/// A scheme plus its response-model parameters; evaluates fault arrivals.
#[derive(Debug, Clone)]
pub struct SchemeModel {
    scheme: Scheme,
    params: ModelParams,
    config: SystemConfig,
    /// Precomputed: with on-die ECC present and scaling faults disabled,
    /// *every* single-bit fault is corrected invisibly on die
    /// ([`Self::evaluate_bit_fault`] would return [`Verdict::Benign`]
    /// without consuming randomness). Half of Table I's faults are
    /// single-bit, so the Monte-Carlo hot loop short-circuits on this.
    bit_always_benign: bool,
    /// Chips per protection domain. Domains are contiguous chip blocks
    /// (`[lo, lo + domain_span)` with `lo` a multiple of the span), so
    /// membership is one subtraction and one compare, and a chip's offset
    /// in its domain indexes a `u64` bitmask (the widest domain has 36
    /// chips).
    domain_span: u32,
    /// Precomputed `params.code_model.effective_on_die_miss(on_die_miss)`
    /// — under [`CodeModel::Known`] and [`CodeModel::InferredExact`] this
    /// is exactly `params.on_die_miss`, keeping those runs bit-identical.
    effective_on_die_miss: f64,
    /// `⌈2^DOMAIN_SHIFT / domain_span⌉`: a chip's domain index is
    /// `chip · domain_recip >> DOMAIN_SHIFT`, checked equal to
    /// `chip / domain_span` for every chip of the system in [`Self::new`].
    domain_recip: u32,
    /// Bit [`mode_bit`]`(extent, persistence)` is set iff the mode is
    /// *quiet*: [`Self::evaluate_isolated`] returns [`Verdict::Benign`] or
    /// [`Verdict::Corrected`] for it without drawing. Derived in
    /// [`Self::new`] by probing `evaluate_isolated` with a draw-counting
    /// generator, so it follows the verdict logic rather than restating it.
    quiet_modes: u16,
}

/// Fixed-point shift of [`SchemeModel`]'s division-free domain index.
/// The products stay far inside `u32`: chips number in the hundreds and
/// the reciprocal is at most `2^16 / 8`.
const DOMAIN_SHIFT: u32 = 16;

/// A fault mode's bit in [`SchemeModel`]'s 12-bit quiet-mode mask:
/// `extent · 2 + persistence` (transient 0, permanent 1).
#[inline]
fn mode_bit(extent: FaultExtent, persistence: Persistence) -> u32 {
    extent.index() as u32 * 2 + u32::from(persistence == Persistence::Permanent)
}

/// An all-zero generator that counts its draws: [`SchemeModel::new`]
/// probes [`SchemeModel::evaluate_isolated`] with it to learn which modes
/// decide without drawing. The values it returns are irrelevant — a mode
/// that draws at all is not quiet, whatever it would have drawn.
struct DrawCounter(u32);

impl rand::RngCore for DrawCounter {
    fn next_u64(&mut self) -> u64 {
        self.0 += 1;
        0
    }
}

impl SchemeModel {
    /// Builds the model for a scheme with the given parameters.
    pub fn new(scheme: Scheme, params: ModelParams) -> Self {
        let config = scheme.system_config();
        let domain_span = if scheme.domain_is_channel() {
            config.ranks_per_channel * config.chips_per_rank
        } else {
            config.chips_per_rank
        };
        debug_assert!(
            domain_span <= u64::BITS,
            "domain offsets must fit a u64 mask"
        );
        let total_chips = config.total_chips();
        assert!(
            total_chips.div_ceil(domain_span) <= u64::BITS,
            "{scheme:?}: domain indices must fit a u64 mask"
        );
        let domain_recip = (1u32 << DOMAIN_SHIFT).div_ceil(domain_span);
        assert!(
            (0..total_chips).all(|c| (c * domain_recip) >> DOMAIN_SHIFT == c / domain_span),
            "{scheme:?}: the reciprocal domain index must be exact on every chip"
        );
        let mut model = Self {
            scheme,
            params,
            config,
            bit_always_benign: params.on_die_ecc && !params.scaling.enabled(),
            domain_span,
            effective_on_die_miss: params.code_model.effective_on_die_miss(params.on_die_miss),
            domain_recip,
            quiet_modes: 0,
        };
        for extent in FaultExtent::ALL {
            for persistence in [Persistence::Transient, Persistence::Permanent] {
                let mut probe = DrawCounter(0);
                let verdict = model.evaluate_isolated(&mut probe, extent, persistence);
                let quiet = probe.0 == 0 && !verdict.is_failure();
                model.quiet_modes |= u16::from(quiet) << mode_bit(extent, persistence);
            }
        }
        model
    }

    /// The on-die miss probability actually used by the verdict logic:
    /// the configured baseline, inflated under inferred-code ambiguity.
    pub fn effective_on_die_miss(&self) -> f64 {
        self.effective_on_die_miss
    }

    /// The scheme being modeled.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The underlying system organization.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// `true` if every single-bit fault is inert: always
    /// [`Verdict::Benign`], evaluated without drawing randomness, and
    /// never counted by [`Self::concurrent_chips`] (which sees only
    /// multi-bit faults). Holds with on-die ECC present and scaling faults
    /// disabled — the paper's default parameters. Timeline walks may then
    /// drop single-bit faults without changing any verdict or draw.
    pub(crate) fn bit_always_benign(&self) -> bool {
        self.bit_always_benign
    }

    /// Chips per protection domain (the domain is the contiguous block of
    /// chips `[lo, lo + span)`, `lo` a multiple of the span).
    pub(crate) fn domain_span(&self) -> u32 {
        self.domain_span
    }

    /// The index of `chip`'s protection domain, `chip / domain_span`,
    /// computed as the reciprocal multiply [`Self::new`] checks exact on
    /// every chip of the system. Every domain test goes through it.
    #[inline]
    pub(crate) fn domain_of(&self, chip: u32) -> u32 {
        (chip * self.domain_recip) >> DOMAIN_SHIFT
    }

    /// `true` if chips `a` and `b` share this scheme's protection domain.
    pub fn same_domain(&self, a: u32, b: u32) -> bool {
        self.domain_of(a) == self.domain_of(b)
    }

    /// `true` if the mode `(extent, persistence)` is quiet: evaluated
    /// alone, it is Benign or Corrected without a draw.
    #[inline]
    pub(crate) fn is_quiet(&self, extent: FaultExtent, persistence: Persistence) -> bool {
        self.quiet_modes >> mode_bit(extent, persistence) & 1 != 0
    }

    /// The domain masks of `events`, branch-free: `(seen, shared, modes)`,
    /// where bit `d` of `seen` (`shared`) is set iff one or more (two or
    /// more) events sit in domain `d` (indexed by [`Self::domain_of`]),
    /// and `modes` is the union of the events' mode bits.
    #[inline]
    fn domain_masks(&self, events: &[FaultEvent]) -> (u64, u64, u16) {
        let mut seen = 0u64;
        let mut shared = 0u64;
        let mut modes = 0u16;
        for e in events {
            let domain = 1u64 << self.domain_of(e.chip);
            shared |= seen & domain;
            seen |= domain;
            modes |= 1 << mode_bit(e.fault.extent, e.fault.persistence);
        }
        (seen, shared, modes)
    }

    /// `true` if walking `events` (in any order, under any exposure
    /// window) can only end without a failure and without a draw: no two
    /// events share a protection domain, and every event's mode is quiet.
    ///
    /// With no other fault in its domain, an arrival's `concurrent_chips`
    /// is 1 whatever else is active, so [`Self::evaluate`] equals
    /// [`Self::evaluate_isolated`] in verdict and draws (pinned by the
    /// `evaluation_outside_the_domain_matches_isolated` test) — and a quiet
    /// mode's isolated verdict is Benign or Corrected with no draw. The
    /// lifetime kernels end such a trial before sorting or walking it.
    #[inline]
    pub(crate) fn is_quiet_timeline(&self, events: &[FaultEvent]) -> bool {
        let (_, shared, modes) = self.domain_masks(events);
        shared == 0 && modes & !self.quiet_modes == 0
    }

    /// Drops from `events`, keeping the others in order, every event that
    /// is alone in its protection domain and has a quiet mode.
    ///
    /// This is the per-event form of [`Self::is_quiet_timeline`]: such an
    /// event's evaluation is Benign or Corrected with no draw, and no other
    /// event's evaluation sees it (`concurrent_chips` counts only its own
    /// domain). Walking the rest therefore gives the same verdicts, the
    /// same failing event and the same draws, and a fault clique — which
    /// lives inside one domain — never loses a member. The rare-event
    /// timelines apply it before sorting, so a Chipkill-class walk (every
    /// mode quiet) sees only the domains that hold two or more faults.
    ///
    /// Branch-free like `LifetimeSampler::events_append`: every event is
    /// written into the next free slot and the cursor advances only for a
    /// kept one.
    #[inline]
    pub(crate) fn retain_walked(&self, events: &mut Vec<FaultEvent>) {
        let (seen, shared, _) = self.domain_masks(events);
        if seen == shared {
            // No event is alone in its domain (the common case of a
            // forced clique with nothing else kept): nothing to drop.
            return;
        }
        let mut len = 0;
        for i in 0..events.len() {
            // indexing: len ≤ i < events.len(), since the cursor advances
            // at most once per event.
            let e = events[i];
            let keep = (shared >> self.domain_of(e.chip) & 1 != 0)
                | !self.is_quiet(e.fault.extent, e.fault.persistence);
            // indexing: as above.
            events[len] = e;
            len += usize::from(keep);
        }
        events.truncate(len);
    }

    /// Counts the largest set of distinct chips (including `e.chip`) in
    /// `e`'s protection domain whose *visible* (multi-bit) faults all
    /// intersect one common cache line with `e`'s fault (or, with
    /// `require_line_intersection` disabled, merely coexist in the
    /// domain).
    ///
    /// Neither divides nor allocates per active fault: domain membership
    /// is `chip − lo < span`, and the chips taken so far are a bitmask of
    /// domain offsets with `e`'s own chip preset, so a second fault on an
    /// already-counted chip is skipped by the same test.
    pub fn concurrent_chips(&self, e: &FaultEvent, active: &[FaultEvent]) -> u32 {
        let span = self.domain_span;
        let lo = self.domain_of(e.chip) * span;
        let own = 1u64 << (e.chip - lo);
        if !self.params.require_line_intersection {
            let mut used = own;
            for a in active {
                let off = a.chip.wrapping_sub(lo);
                if off < span && a.fault.extent.is_multi_bit() {
                    used |= 1 << off;
                }
            }
            return used.count_ones();
        }
        let line = FaultRange {
            bit: None,
            ..e.fault.range
        };
        self.widest_common_line(line, active, lo, own)
    }

    /// Subset search behind [`Self::concurrent_chips`]: the most chips
    /// (counting the `used` ones) whose faults share one line of
    /// `current`, extending `used` only by visible faults of `active` on
    /// chips not yet taken. Later subsets start after the fault that
    /// extended the current one, so each subset is visited once; active
    /// sets are a handful of faults, so the brute force is cheap.
    fn widest_common_line(
        &self,
        current: FaultRange,
        active: &[FaultEvent],
        lo: u32,
        used: u64,
    ) -> u32 {
        let mut best = used.count_ones();
        for (i, a) in active.iter().enumerate() {
            let off = a.chip.wrapping_sub(lo);
            if off >= self.domain_span || used >> off & 1 != 0 || !a.fault.extent.is_multi_bit() {
                continue;
            }
            let range = FaultRange {
                bit: None,
                ..a.fault.range
            };
            if let Some(next) = current.intersect(&range) {
                // indexing: i < active.len(), so i + 1 is a valid start.
                let rest = &active[i + 1..];
                best = best.max(self.widest_common_line(next, rest, lo, used | 1 << off));
            }
        }
        best
    }

    /// Evaluates one fault arrival against the currently active faults.
    ///
    /// `active` must contain only faults that are still uncorrected (the
    /// Monte-Carlo driver drops transient faults once a scheme corrects
    /// them, modeling scrub-on-correct).
    #[inline]
    pub fn evaluate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        e: &FaultEvent,
        active: &[FaultEvent],
    ) -> Verdict {
        if e.fault.extent == FaultExtent::Bit {
            if self.bit_always_benign {
                return Verdict::Benign;
            }
            self.evaluate_bit_fault(rng, e, active)
        } else {
            self.evaluate_large_fault(rng, e, active)
        }
    }

    /// Evaluates a fault that arrives with *no* other fault active in its
    /// protection domain, from its mode alone.
    ///
    /// With an empty active set, [`Self::evaluate`]'s verdict never
    /// depends on which chip or address range the fault struck
    /// (`concurrent_chips` is 1 regardless), so the Monte-Carlo driver's
    /// single-fault fast path skips those draws and calls this instead.
    /// Must consume the same randomness and return the same verdict as
    /// `evaluate(rng, e, &[])` for any event of this mode — pinned by the
    /// `isolated_evaluation_matches_general_path` test.
    #[inline]
    pub fn evaluate_isolated<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        extent: FaultExtent,
        persistence: Persistence,
    ) -> Verdict {
        if extent == FaultExtent::Bit {
            if self.bit_always_benign {
                return Verdict::Benign;
            }
            if !self.params.on_die_ecc {
                return match self.scheme {
                    Scheme::NonEcc => Verdict::Sdc,
                    _ => Verdict::Corrected,
                };
            }
            let collides_with_scaling = self.params.scaling.enabled()
                && rng.gen::<f64>() < self.params.scaling.p_word_faulty();
            if !collides_with_scaling {
                return Verdict::Benign;
            }
            return match self.scheme {
                Scheme::NonEcc => Verdict::Sdc,
                Scheme::EccDimm => {
                    if rng.gen::<f64>() < 7.0 / 63.0 {
                        Verdict::Due
                    } else {
                        Verdict::Corrected
                    }
                }
                // One erasure / one garbage symbol: within every other
                // scheme's budget.
                _ => Verdict::Corrected,
            };
        }
        match self.scheme {
            Scheme::NonEcc => Verdict::Sdc,
            Scheme::EccDimm => {
                if rng.gen::<f64>() < self.params.dimm_secded_burst_detect {
                    Verdict::Due
                } else {
                    Verdict::Sdc
                }
            }
            Scheme::Xed => self.xed_single_chip_verdict(rng, extent, persistence),
            // A single faulty chip is within budget for the erasure and
            // symbol-correcting schemes.
            Scheme::XedChipkill
            | Scheme::Chipkill
            | Scheme::ChipkillX4
            | Scheme::DoubleChipkill => Verdict::Corrected,
        }
    }

    /// Response to a single-bit runtime fault.
    fn evaluate_bit_fault<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        e: &FaultEvent,
        active: &[FaultEvent],
    ) -> Verdict {
        if !self.params.on_die_ecc {
            // Without on-die ECC the bit error reaches the bus.
            return match self.scheme {
                Scheme::NonEcc => Verdict::Sdc,
                // Every other scheme corrects a single-bit (single-symbol)
                // error at DIMM level.
                _ => Verdict::Corrected,
            };
        }
        // On-die SECDED corrects an isolated single-bit error invisibly —
        // unless the struck word already holds a scaling fault, making it a
        // 2-bit error the on-die code detects but cannot correct.
        let collides_with_scaling =
            self.params.scaling.enabled() && rng.gen::<f64>() < self.params.scaling.p_word_faulty();
        if !collides_with_scaling {
            return Verdict::Benign;
        }
        match self.scheme {
            Scheme::NonEcc => Verdict::Sdc,
            Scheme::EccDimm => {
                // The chip emits the word with 2 bad bits. They land in the
                // same 72-bit beat with probability 7/63 (2 of 8 beats × 8
                // bits); same beat ⇒ DIMM SECDED flags a DUE, different
                // beats ⇒ two correctable single-bit beats.
                if rng.gen::<f64>() < 7.0 / 63.0 {
                    Verdict::Due
                } else {
                    Verdict::Corrected
                }
            }
            Scheme::Xed | Scheme::XedChipkill => {
                // Catch-word identifies the chip; parity / erasure symbols
                // reconstruct it — unless other chips are concurrently
                // faulty at the same line.
                let n = self.concurrent_chips(e, active);
                if n <= self.erasure_budget() {
                    Verdict::Corrected
                } else {
                    Verdict::Due
                }
            }
            Scheme::Chipkill | Scheme::ChipkillX4 | Scheme::DoubleChipkill => {
                // One garbage symbol: within symbol-correction budget.
                let n = self.concurrent_chips(e, active);
                self.symbol_verdict(n)
            }
        }
    }

    /// Response to a multi-bit (word or larger) fault.
    fn evaluate_large_fault<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        e: &FaultEvent,
        active: &[FaultEvent],
    ) -> Verdict {
        let n = self.concurrent_chips(e, active);
        match self.scheme {
            Scheme::NonEcc => Verdict::Sdc,
            Scheme::EccDimm => {
                // A multi-bit chip fault injects an 8-bit burst into each
                // affected 72-bit beat. The DIMM SECDED usually flags it
                // (DUE); otherwise it silently mis-corrects (SDC).
                if rng.gen::<f64>() < self.params.dimm_secded_burst_detect {
                    Verdict::Due
                } else {
                    Verdict::Sdc
                }
            }
            Scheme::Xed => {
                if n >= 2 {
                    // Two chips faulty at one line: one parity chip cannot
                    // reconstruct both.
                    return Verdict::Due;
                }
                self.xed_single_chip_verdict(rng, e.fault.extent, e.fault.persistence)
            }
            Scheme::XedChipkill => {
                if n > 2 {
                    return Verdict::Due;
                }
                if n == 2 {
                    // Two erasures consume both check symbols; if either
                    // chip's error additionally escapes on-die detection
                    // (possible only for word faults) the erasure set is
                    // wrong and decoding fails.
                    if e.fault.extent == FaultExtent::Word
                        && rng.gen::<f64>() < self.effective_on_die_miss
                    {
                        return Verdict::Due;
                    }
                    return Verdict::Corrected;
                }
                // Single faulty chip: even an on-die miss is recoverable —
                // RS(18,16) corrects one *unknown* symbol error.
                Verdict::Corrected
            }
            Scheme::Chipkill | Scheme::ChipkillX4 | Scheme::DoubleChipkill => {
                self.symbol_verdict(n)
            }
        }
    }

    /// XED's handling of exactly one faulty chip (paper Sections V–VI).
    /// Depends only on the fault's mode, never its location.
    fn xed_single_chip_verdict<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        extent: FaultExtent,
        persistence: Persistence,
    ) -> Verdict {
        if extent.spans_lines() {
            // Column/row/bank/chip faults: even if the on-die ECC misses
            // the requested line (0.8%), DIMM parity flags it and
            // Inter-Line Fault Diagnosis identifies the chip from the
            // neighboring faulty lines; parity reconstructs the data. The
            // residual SDC from diagnosis misidentification is ~1e-12 over
            // 7 years (Table IV) — below Monte-Carlo resolution, tracked
            // analytically instead.
            return Verdict::Corrected;
        }
        // Word fault confined to one line.
        if rng.gen::<f64>() >= self.effective_on_die_miss {
            // Detected on die → catch-word → parity reconstruction.
            return Verdict::Corrected;
        }
        // On-die miss: DIMM parity still detects the mismatch. Inter-line
        // diagnosis finds nothing (neighboring lines are clean); intra-line
        // diagnosis reproduces *permanent* faults only.
        match persistence {
            Persistence::Permanent => Verdict::Corrected,
            Persistence::Transient => Verdict::Due,
        }
    }

    /// Verdict for symbol-correcting codes given `n` concurrently faulty
    /// chips at one line.
    fn symbol_verdict(&self, n: u32) -> Verdict {
        let budget = self.symbol_correct_budget();
        if n <= budget {
            Verdict::Corrected
        } else if n == budget + 1 {
            // Within the guaranteed detection radius.
            Verdict::Due
        } else {
            Verdict::Sdc
        }
    }

    /// Chips correctable when locations are unknown (symbol codes).
    fn symbol_correct_budget(&self) -> u32 {
        match self.scheme {
            Scheme::Chipkill | Scheme::ChipkillX4 => 1,
            Scheme::DoubleChipkill => 2,
            _ => 0,
        }
    }

    /// Chips correctable when locations are known (erasure schemes).
    fn erasure_budget(&self) -> u32 {
        match self.scheme {
            Scheme::Xed => 1,
            Scheme::XedChipkill => 2,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ev(
        chip: u32,
        extent: FaultExtent,
        persistence: Persistence,
        range: FaultRange,
    ) -> FaultEvent {
        FaultEvent {
            time_hours: 0.0,
            chip,
            fault: Fault {
                extent,
                persistence,
                range,
            },
        }
    }

    fn bank_fault(chip: u32, bank: u32) -> FaultEvent {
        ev(
            chip,
            FaultExtent::Bank,
            Persistence::Permanent,
            FaultRange {
                bank: Some(bank),
                row: None,
                col: None,
                bit: None,
            },
        )
    }

    fn chip_fault(chip: u32) -> FaultEvent {
        ev(
            chip,
            FaultExtent::Chip,
            Persistence::Permanent,
            FaultRange::default(),
        )
    }

    fn model(scheme: Scheme) -> SchemeModel {
        SchemeModel::new(scheme, ModelParams::default())
    }

    /// The original concurrency search, kept as the differential oracle
    /// for [`SchemeModel::concurrent_chips`]: domain membership by
    /// dividing chip indices down to ranks or channels, candidates
    /// collected into a `Vec`, and a subset search that tracks used chips
    /// in another `Vec`.
    fn reference_concurrent_chips(m: &SchemeModel, e: &FaultEvent, active: &[FaultEvent]) -> u32 {
        let visible = |a: &&FaultEvent| {
            a.chip != e.chip
                && a.fault.extent.is_multi_bit()
                && reference_same_domain(m, a.chip, e.chip)
        };
        if !m.params().require_line_intersection {
            let mut chips: Vec<u32> = active.iter().filter(visible).map(|a| a.chip).collect();
            chips.sort_unstable();
            chips.dedup();
            return 1 + chips.len() as u32;
        }
        let line = FaultRange {
            bit: None,
            ..e.fault.range
        };
        let cands: Vec<(u32, FaultRange)> = active
            .iter()
            .filter(visible)
            .filter_map(|a| {
                let r = FaultRange {
                    bit: None,
                    ..a.fault.range
                };
                line.intersect(&r).map(|x| (a.chip, x))
            })
            .collect();
        1 + max_chips_with_common_line(&line, &cands)
    }

    fn reference_same_domain(m: &SchemeModel, a: u32, b: u32) -> bool {
        let c = m.config();
        let rank = |chip: u32| chip / c.chips_per_rank;
        if m.scheme().domain_is_channel() {
            rank(a) / c.ranks_per_channel == rank(b) / c.ranks_per_channel
        } else {
            rank(a) == rank(b)
        }
    }

    /// Largest number of distinct chips whose candidate line-ranges
    /// (already intersected with the new fault's line range) share one
    /// common line.
    fn max_chips_with_common_line(base: &FaultRange, cands: &[(u32, FaultRange)]) -> u32 {
        fn rec(
            current: FaultRange,
            cands: &[(u32, FaultRange)],
            used: &mut Vec<u32>,
            best: &mut u32,
        ) {
            *best = (*best).max(used.len() as u32);
            for (i, (chip, range)) in cands.iter().enumerate() {
                if used.contains(chip) {
                    continue;
                }
                if let Some(next) = current.intersect(range) {
                    used.push(*chip);
                    rec(next, &cands[i + 1..], used, best);
                    used.pop();
                }
            }
        }
        let mut best = 0;
        rec(*base, cands, &mut Vec::new(), &mut best);
        best
    }

    #[test]
    fn bit_fault_is_benign_with_on_die() {
        let m = model(Scheme::EccDimm);
        let mut rng = StdRng::seed_from_u64(1);
        let e = ev(
            0,
            FaultExtent::Bit,
            Persistence::Transient,
            FaultRange {
                bank: Some(0),
                row: Some(0),
                col: Some(0),
                bit: Some(0),
            },
        );
        assert_eq!(m.evaluate(&mut rng, &e, &[]), Verdict::Benign);
    }

    #[test]
    fn bit_fault_sdc_on_non_ecc_without_on_die() {
        let params = ModelParams {
            on_die_ecc: false,
            ..ModelParams::default()
        };
        let m = SchemeModel::new(Scheme::NonEcc, params);
        let mut rng = StdRng::seed_from_u64(1);
        let e = ev(
            0,
            FaultExtent::Bit,
            Persistence::Transient,
            FaultRange {
                bank: Some(0),
                row: Some(0),
                col: Some(0),
                bit: Some(0),
            },
        );
        assert_eq!(m.evaluate(&mut rng, &e, &[]), Verdict::Sdc);
    }

    #[test]
    fn large_fault_fails_ecc_dimm() {
        let m = model(Scheme::EccDimm);
        let mut rng = StdRng::seed_from_u64(2);
        let e = bank_fault(0, 3);
        let v = m.evaluate(&mut rng, &e, &[]);
        assert!(v.is_failure());
    }

    #[test]
    fn large_fault_fails_non_ecc_silently() {
        let m = model(Scheme::NonEcc);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(m.evaluate(&mut rng, &bank_fault(0, 3), &[]), Verdict::Sdc);
    }

    #[test]
    fn xed_corrects_single_chip_failure() {
        let m = model(Scheme::Xed);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &[]),
            Verdict::Corrected
        );
        assert_eq!(
            m.evaluate(&mut rng, &bank_fault(5, 0), &[]),
            Verdict::Corrected
        );
    }

    #[test]
    fn xed_two_chips_same_rank_due() {
        let m = model(Scheme::Xed);
        let mut rng = StdRng::seed_from_u64(4);
        let active = [chip_fault(1)];
        assert_eq!(m.evaluate(&mut rng, &chip_fault(0), &active), Verdict::Due);
    }

    #[test]
    fn xed_two_chips_different_rank_independent() {
        let m = model(Scheme::Xed);
        let mut rng = StdRng::seed_from_u64(5);
        // chip 9 is in rank 1; chip 0 in rank 0.
        let active = [chip_fault(9)];
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &active),
            Verdict::Corrected
        );
    }

    #[test]
    fn xed_bank_faults_interact_only_in_same_bank() {
        let m = model(Scheme::Xed);
        let mut rng = StdRng::seed_from_u64(6);
        let active = [bank_fault(1, 2)];
        assert_eq!(
            m.evaluate(&mut rng, &bank_fault(0, 3), &active),
            Verdict::Corrected
        );
        assert_eq!(
            m.evaluate(&mut rng, &bank_fault(0, 2), &active),
            Verdict::Due
        );
    }

    #[test]
    fn xed_transient_word_fault_due_on_miss() {
        let params = ModelParams {
            on_die_miss: 1.0,
            ..ModelParams::default()
        };
        let m = SchemeModel::new(Scheme::Xed, params);
        let mut rng = StdRng::seed_from_u64(7);
        let word = ev(
            0,
            FaultExtent::Word,
            Persistence::Transient,
            FaultRange {
                bank: Some(0),
                row: Some(1),
                col: Some(2),
                bit: None,
            },
        );
        assert_eq!(m.evaluate(&mut rng, &word, &[]), Verdict::Due);
        let word_perm = FaultEvent {
            fault: Fault {
                persistence: Persistence::Permanent,
                ..word.fault
            },
            ..word
        };
        assert_eq!(m.evaluate(&mut rng, &word_perm, &[]), Verdict::Corrected);
    }

    #[test]
    fn chipkill_domain_spans_both_ranks_of_channel() {
        let m = model(Scheme::Chipkill);
        let mut rng = StdRng::seed_from_u64(8);
        // chips 0 (rank 0) and 9 (rank 1) are in the same channel: ganged.
        let active = [chip_fault(9)];
        assert_eq!(m.evaluate(&mut rng, &chip_fault(0), &active), Verdict::Due);
        // chip 18 is channel 1: independent.
        let active = [chip_fault(18)];
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &active),
            Verdict::Corrected
        );
    }

    #[test]
    fn chipkill_single_chip_corrected() {
        let m = model(Scheme::Chipkill);
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &[]),
            Verdict::Corrected
        );
    }

    #[test]
    fn chipkill_three_chips_sdc() {
        let m = model(Scheme::Chipkill);
        let mut rng = StdRng::seed_from_u64(10);
        let active = [chip_fault(1), chip_fault(2)];
        assert_eq!(m.evaluate(&mut rng, &chip_fault(0), &active), Verdict::Sdc);
    }

    #[test]
    fn double_chipkill_corrects_two_fails_at_three() {
        let m = model(Scheme::DoubleChipkill);
        let mut rng = StdRng::seed_from_u64(11);
        let active = [chip_fault(1)];
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &active),
            Verdict::Corrected
        );
        let active = [chip_fault(1), chip_fault(2)];
        assert_eq!(m.evaluate(&mut rng, &chip_fault(0), &active), Verdict::Due);
    }

    #[test]
    fn xed_chipkill_corrects_two_chips() {
        let m = model(Scheme::XedChipkill);
        let mut rng = StdRng::seed_from_u64(12);
        let active = [chip_fault(1)];
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &active),
            Verdict::Corrected
        );
        let active = [chip_fault(1), chip_fault(2)];
        assert_eq!(m.evaluate(&mut rng, &chip_fault(0), &active), Verdict::Due);
    }

    #[test]
    fn concurrency_requires_common_line_not_just_pairwise() {
        // Row faults in three different chips, same bank: row 5, row 5 and a
        // column fault — rows at different rows don't stack.
        let m = model(Scheme::DoubleChipkill);
        let r5 = FaultRange {
            bank: Some(0),
            row: Some(5),
            col: None,
            bit: None,
        };
        let r6 = FaultRange {
            bank: Some(0),
            row: Some(6),
            col: None,
            bit: None,
        };
        let e = ev(0, FaultExtent::Row, Persistence::Permanent, r5);
        let a1 = ev(1, FaultExtent::Row, Persistence::Permanent, r5);
        let a2 = ev(2, FaultExtent::Row, Persistence::Permanent, r6);
        // a2's row 6 never meets row 5: only chips {0,1} share a line.
        assert_eq!(m.concurrent_chips(&e, &[a1, a2]), 2);
        let a3 = ev(3, FaultExtent::Row, Persistence::Permanent, r5);
        assert_eq!(m.concurrent_chips(&e, &[a1, a2, a3]), 3);
    }

    #[test]
    fn bit_faults_do_not_count_as_concurrent() {
        let m = model(Scheme::Xed);
        let bit = ev(
            1,
            FaultExtent::Bit,
            Persistence::Permanent,
            FaultRange {
                bank: Some(0),
                row: Some(0),
                col: Some(0),
                bit: Some(0),
            },
        );
        let e = chip_fault(0);
        assert_eq!(m.concurrent_chips(&e, &[bit]), 1);
    }

    #[test]
    fn multiple_faults_same_chip_count_once() {
        let m = model(Scheme::Xed);
        let active = [bank_fault(1, 0), bank_fault(1, 1), chip_fault(1)];
        assert_eq!(m.concurrent_chips(&chip_fault(0), &active), 2);
    }

    #[test]
    fn concurrent_chips_matches_the_reference_search() {
        // Random active sets of up to 10 faults on a tiny address space
        // (2 banks × 2 rows × 2 columns), so ranges meet often and the
        // subset search has real work. Chips cluster on the domain
        // boundaries — `lo`, `lo + span − 1` and both neighbouring
        // domains' edge chips — and repeat, covering the offset mask's
        // edges and the one-bit-per-chip dedup.
        let tiny = crate::geometry::DramGeometry {
            banks: 2,
            rows: 2,
            cols: 2,
            word_bits: 4,
        };
        let mut rng = StdRng::seed_from_u64(0xC0C0);
        let mut compared = 0u32;
        let mut multi_chip = 0u32;
        // Every scheme: rank domains of 8, 9 and 18 chips, channel
        // domains of 18 and 36.
        for scheme in Scheme::ALL {
            for require_line_intersection in [true, false] {
                let m = SchemeModel::new(
                    scheme,
                    ModelParams {
                        require_line_intersection,
                        ..ModelParams::default()
                    },
                );
                let span = m.domain_span();
                assert_eq!(span, scheme.domain_chips());
                let total = m.config().total_chips();
                // The second domain, so both neighbours exist.
                let lo = span;
                let picks = [
                    lo,
                    lo + 1,
                    lo + span - 1,
                    lo + span - 2,
                    lo - 1,
                    lo + span,
                    0,
                    total - 1,
                ];
                for _ in 0..400 {
                    let draw = |rng: &mut StdRng| {
                        let chip = if rng.gen_bool(0.8) {
                            picks[rng.gen_range(0..picks.len())]
                        } else {
                            rng.gen_range(0..total)
                        };
                        let extent = FaultExtent::ALL[rng.gen_range(0..6)];
                        let persistence = Persistence::Permanent;
                        ev(
                            chip,
                            extent,
                            persistence,
                            FaultRange::sample(rng, extent, &tiny),
                        )
                    };
                    let e = draw(&mut rng);
                    let n = rng.gen_range(0..=10);
                    let active: Vec<FaultEvent> = (0..n).map(|_| draw(&mut rng)).collect();
                    let want = reference_concurrent_chips(&m, &e, &active);
                    assert_eq!(
                        m.concurrent_chips(&e, &active),
                        want,
                        "{scheme:?} (intersection {require_line_intersection}): {e:?} vs {active:?}"
                    );
                    for a in &active {
                        assert_eq!(
                            m.same_domain(a.chip, e.chip),
                            reference_same_domain(&m, a.chip, e.chip)
                        );
                    }
                    compared += 1;
                    multi_chip += u32::from(want >= 3);
                }
            }
        }
        assert_eq!(compared, 5_600);
        assert!(
            multi_chip > 100,
            "only {multi_chip} sets reached three chips"
        );
    }

    #[test]
    fn without_intersection_any_coexisting_pair_counts() {
        let params = ModelParams {
            require_line_intersection: false,
            ..ModelParams::default()
        };
        let m = SchemeModel::new(Scheme::Xed, params);
        let mut rng = StdRng::seed_from_u64(20);
        // Two row faults in *different* banks: disjoint ranges, but the
        // coarse model still counts them as a fatal pair.
        let active = [bank_fault(1, 2)];
        assert_eq!(m.concurrent_chips(&bank_fault(0, 3), &active), 2);
        assert_eq!(
            m.evaluate(&mut rng, &bank_fault(0, 3), &active),
            Verdict::Due
        );
        // The intersection model disagrees (cf. xed_bank_faults test).
        let strict = SchemeModel::new(Scheme::Xed, ModelParams::default());
        assert_eq!(strict.concurrent_chips(&bank_fault(0, 3), &active), 1);
    }

    #[test]
    fn known_and_inferred_exact_code_models_are_bit_identical() {
        // The headline property of exact BEER recovery: a bit-exactly
        // inferred code predicts the same on-die behavior as a disclosed
        // one, so the verdict stream is *identical*, not merely close.
        let known = SchemeModel::new(Scheme::Xed, ModelParams::default());
        let inferred = SchemeModel::new(
            Scheme::Xed,
            ModelParams {
                code_model: CodeModel::InferredExact,
                ..ModelParams::default()
            },
        );
        assert_eq!(
            known.effective_on_die_miss(),
            inferred.effective_on_die_miss()
        );
        for seed in 0..64u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let va = known.evaluate_isolated(&mut a, FaultExtent::Word, Persistence::Transient);
            let vb = inferred.evaluate_isolated(&mut b, FaultExtent::Word, Persistence::Transient);
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn ambiguous_code_model_inflates_the_effective_miss_monotonically() {
        let base = ModelParams::default().on_die_miss;
        let mut prev = CodeModel::Known.effective_on_die_miss(base);
        assert_eq!(prev, base);
        assert_eq!(
            CodeModel::InferredAmbiguous { unresolved_rows: 0 }.effective_on_die_miss(base),
            base
        );
        for u in 1..=8u8 {
            let eff =
                CodeModel::InferredAmbiguous { unresolved_rows: u }.effective_on_die_miss(base);
            // Weakly monotone; strictly while the escape mass has not yet
            // saturated (every syndrome aliasing ⇒ miss pinned at 1).
            assert!(eff >= prev, "u={u}: {eff} < {prev}");
            if prev < 1.0 {
                assert!(eff > prev, "u={u}: {eff} !> {prev}");
            }
            assert!(eff <= 1.0);
            prev = eff;
        }
        // Fully unresolved: every syndrome may alias — miss saturates.
        assert_eq!(
            CodeModel::InferredAmbiguous { unresolved_rows: 8 }.effective_on_die_miss(base),
            1.0
        );
    }

    #[test]
    fn code_model_display_and_key_tags_are_distinct() {
        let models = [
            CodeModel::Known,
            CodeModel::InferredExact,
            CodeModel::InferredAmbiguous { unresolved_rows: 2 },
            CodeModel::InferredAmbiguous { unresolved_rows: 3 },
        ];
        let tags: Vec<(u64, u64)> = models.iter().map(|m| m.key_tag()).collect();
        let shown: Vec<String> = models.iter().map(|m| m.to_string()).collect();
        for (i, t) in tags.iter().enumerate() {
            assert!(!tags[..i].contains(t));
            assert!(!shown[..i].contains(&shown[i]));
        }
        assert_eq!(shown[0], "known");
        assert_eq!(shown[3], "ambiguous:3");
    }

    #[test]
    fn verdict_failure_predicate() {
        assert!(Verdict::Due.is_failure());
        assert!(Verdict::Sdc.is_failure());
        assert!(!Verdict::Corrected.is_failure());
        assert!(!Verdict::Benign.is_failure());
    }

    #[test]
    fn scheme_labels_unique() {
        let labels: Vec<&str> = Scheme::ALL.iter().map(|s| s.label()).collect();
        for (i, l) in labels.iter().enumerate() {
            assert!(!labels[..i].contains(l));
        }
    }

    /// The parameter variants the isolated-evaluation tests cover: the
    /// paper's defaults, no on-die ECC, rare scaling faults, and dense
    /// scaling faults with coin-flip miss and detect probabilities.
    fn isolation_variants() -> [ModelParams; 4] {
        use crate::scaling::ScalingFaults;
        [
            ModelParams::default(),
            ModelParams {
                on_die_ecc: false,
                ..ModelParams::default()
            },
            ModelParams {
                scaling: ScalingFaults::with_rate(1e-4),
                ..ModelParams::default()
            },
            ModelParams {
                scaling: ScalingFaults::with_rate(0.9),
                on_die_miss: 0.5,
                dimm_secded_burst_detect: 0.5,
                ..ModelParams::default()
            },
        ]
    }

    const PERSISTENCES: [Persistence; 2] = [Persistence::Transient, Persistence::Permanent];

    #[test]
    fn isolated_evaluation_matches_general_path() {
        // `evaluate_isolated` promises to return the same verdict *and*
        // consume the same randomness as `evaluate` with an empty active
        // set, for every scheme × mode × parameter variant the engine can
        // reach. Compare both the verdicts and the final RNG states.
        use crate::geometry::DramGeometry;
        let geom = DramGeometry::x8_2gb();
        let mut sample_rng = StdRng::seed_from_u64(99);
        for scheme in Scheme::ALL {
            for params in isolation_variants() {
                let m = SchemeModel::new(scheme, params);
                for extent in FaultExtent::ALL {
                    for persistence in [Persistence::Transient, Persistence::Permanent] {
                        for round in 0..8u64 {
                            let e = FaultEvent {
                                time_hours: 0.0,
                                chip: sample_rng.gen_range(0..m.config().total_chips()),
                                fault: Fault::sample(&mut sample_rng, extent, persistence, &geom),
                            };
                            let seed = round
                                .wrapping_mul(1000)
                                .wrapping_add(scheme.stream_tag() * 100)
                                .wrapping_add(extent.index() as u64);
                            let mut general = StdRng::seed_from_u64(seed);
                            let mut isolated = general.clone();
                            let vg = m.evaluate(&mut general, &e, &[]);
                            let vi = m.evaluate_isolated(&mut isolated, extent, persistence);
                            assert_eq!(
                                vg, vi,
                                "verdict diverged: {scheme:?} {extent:?} {persistence:?} {params:?}"
                            );
                            assert_eq!(
                                general, isolated,
                                "rng consumption diverged: {scheme:?} {extent:?} {persistence:?} {params:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn evaluation_outside_the_domain_matches_isolated() {
        // The premise of the lifetime kernels' quiet exit: when every
        // other multi-bit fault sits in another protection domain,
        // `evaluate` returns the isolated verdict and leaves the same
        // final RNG state as `evaluate_isolated` — for every scheme ×
        // extent × persistence × parameter variant, under both
        // intersection models. Single-bit faults may sit anywhere, the
        // arrival's own domain and chip included: they never count.
        //
        // The moved copy of each active set (its multi-bit faults put on
        // other chips of the arrival's own domain) shows the sets have
        // teeth: there, the count often exceeds one.
        use crate::geometry::DramGeometry;
        let geom = DramGeometry::x8_2gb();
        let mut sample_rng = StdRng::seed_from_u64(0xD0_4A1E);
        let (mut compared, mut teeth) = (0u32, 0u32);
        for scheme in Scheme::ALL {
            for variant in isolation_variants() {
                for require_line_intersection in [true, false] {
                    let params = ModelParams {
                        require_line_intersection,
                        ..variant
                    };
                    let m = SchemeModel::new(scheme, params);
                    let span = m.domain_span();
                    let total = m.config().total_chips();
                    for extent in FaultExtent::ALL {
                        for persistence in PERSISTENCES {
                            for round in 0..4u64 {
                                let chip = sample_rng.gen_range(0..total);
                                let lo = chip - chip % span;
                                let e = FaultEvent {
                                    time_hours: 0.0,
                                    chip,
                                    fault: Fault::sample(
                                        &mut sample_rng,
                                        extent,
                                        persistence,
                                        &geom,
                                    ),
                                };
                                let n = sample_rng.gen_range(1..=6);
                                let mut active = Vec::new();
                                let mut moved = Vec::new();
                                for _ in 0..n {
                                    let a_extent = FaultExtent::ALL[sample_rng.gen_range(0..6)];
                                    let a_persistence = PERSISTENCES[sample_rng.gen_range(0..2)];
                                    let fault = Fault::sample(
                                        &mut sample_rng,
                                        a_extent,
                                        a_persistence,
                                        &geom,
                                    );
                                    let a_chip = if a_extent.is_multi_bit() {
                                        // A whole number of domains away.
                                        (lo + span * sample_rng.gen_range(1..total / span)
                                            + sample_rng.gen_range(0..span))
                                            % total
                                    } else {
                                        sample_rng.gen_range(0..total)
                                    };
                                    assert!(
                                        a_extent == FaultExtent::Bit
                                            || !m.same_domain(a_chip, chip)
                                    );
                                    active.push(FaultEvent {
                                        time_hours: 0.0,
                                        chip: a_chip,
                                        fault,
                                    });
                                    moved.push(FaultEvent {
                                        time_hours: 0.0,
                                        chip: lo + (chip - lo + 1 + a_chip % (span - 1)) % span,
                                        fault,
                                    });
                                }
                                let seed = round
                                    .wrapping_mul(1000)
                                    .wrapping_add(scheme.stream_tag() * 100)
                                    .wrapping_add(extent.index() as u64);
                                let mut general = StdRng::seed_from_u64(seed);
                                let mut isolated = general.clone();
                                let vg = m.evaluate(&mut general, &e, &active);
                                let vi = m.evaluate_isolated(&mut isolated, extent, persistence);
                                let what =
                                    format!("{scheme:?} {extent:?} {persistence:?} {params:?}");
                                assert_eq!(vg, vi, "verdict diverged: {what} vs {active:?}");
                                assert_eq!(general, isolated, "rng consumption diverged: {what}");
                                compared += 1;
                                teeth += u32::from(m.concurrent_chips(&e, &moved) > 1);
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 7 * 4 * 2 * 6 * 2 * 4);
        assert!(
            teeth > compared / 4,
            "only {teeth} of {compared} moved sets clash"
        );
    }

    /// `true` if `mode` is quiet by the definition, measured with real
    /// draws: every one of 16 seeds gives Benign or Corrected and leaves
    /// the generator untouched.
    fn measured_quiet(m: &SchemeModel, extent: FaultExtent, persistence: Persistence) -> bool {
        (0..16u64).all(|seed| {
            let fresh = StdRng::seed_from_u64(seed);
            let mut rng = fresh.clone();
            let verdict = m.evaluate_isolated(&mut rng, extent, persistence);
            rng == fresh && matches!(verdict, Verdict::Benign | Verdict::Corrected)
        })
    }

    #[test]
    fn probed_quiet_modes_are_benign_or_corrected_without_draws() {
        // The mask `new` derives with its draw-counting probe must equal
        // the definition measured with a real generator, for every scheme
        // and parameter variant.
        for scheme in Scheme::ALL {
            for params in isolation_variants() {
                let m = SchemeModel::new(scheme, params);
                for extent in FaultExtent::ALL {
                    for persistence in PERSISTENCES {
                        assert_eq!(
                            m.is_quiet(extent, persistence),
                            measured_quiet(&m, extent, persistence),
                            "{scheme:?} {extent:?} {persistence:?} {params:?}"
                        );
                    }
                }
            }
        }
        // The paper's defaults: every mode of the chipkill and x4 XED
        // schemes is quiet, XED draws only for a word fault's on-die miss,
        // and the SECDED and non-ECC baselines are quiet only for
        // single-bit faults.
        let mask = |scheme| SchemeModel::new(scheme, ModelParams::default()).quiet_modes;
        for scheme in [
            Scheme::Chipkill,
            Scheme::ChipkillX4,
            Scheme::XedChipkill,
            Scheme::DoubleChipkill,
        ] {
            assert_eq!(mask(scheme), 0xFFF, "{scheme:?}");
        }
        assert_eq!(mask(Scheme::Xed), 0xFFF & !0b1100);
        assert_eq!(mask(Scheme::EccDimm), 0b11);
        assert_eq!(mask(Scheme::NonEcc), 0b11);
    }

    #[test]
    fn quiet_timeline_matches_the_pairwise_reference() {
        // `is_quiet_timeline` (reciprocal domain index, branch-free masks)
        // against the definition spelled out: every pair of events in
        // different domains by division, every mode quiet by measurement.
        let geom = crate::geometry::DramGeometry::x8_2gb();
        let mut rng = StdRng::seed_from_u64(0x0_0071E7);
        let (mut quiet, mut loud) = (0u32, 0u32);
        for scheme in Scheme::ALL {
            for params in isolation_variants() {
                let m = SchemeModel::new(scheme, params);
                let total = m.config().total_chips();
                for _ in 0..300 {
                    let n = rng.gen_range(0..=4);
                    let events: Vec<FaultEvent> = (0..n)
                        .map(|_| {
                            let extent = FaultExtent::ALL[rng.gen_range(0..6)];
                            let persistence = PERSISTENCES[rng.gen_range(0..2)];
                            FaultEvent {
                                time_hours: 0.0,
                                chip: rng.gen_range(0..total),
                                fault: Fault::sample(&mut rng, extent, persistence, &geom),
                            }
                        })
                        .collect();
                    let distinct = events.iter().enumerate().all(|(i, a)| {
                        events[i + 1..]
                            .iter()
                            .all(|b| a.chip / m.domain_span() != b.chip / m.domain_span())
                    });
                    let want = distinct
                        && events
                            .iter()
                            .all(|e| measured_quiet(&m, e.fault.extent, e.fault.persistence));
                    assert_eq!(m.is_quiet_timeline(&events), want, "{scheme:?} {events:?}");
                    quiet += u32::from(want && n > 1);
                    loud += u32::from(!want);
                }
            }
        }
        assert!(quiet > 500 && loud > 500, "quiet {quiet}, loud {loud}");
    }

    /// Exhaustively measures the probability modeled by
    /// [`ModelParams::dimm_secded_burst_detect`] against the repo's own
    /// (72,64) Hamming decoder: the fraction of the 9 × 255 chip-aligned
    /// nonzero 8-bit burst patterns that decode as *detected* rather than
    /// clean or (mis-)corrected. The code is linear and decoding is
    /// syndrome-based, so checking each pattern against the all-zeros
    /// codeword covers every codeword.
    fn measured_secded_burst_detect() -> f64 {
        use xed_ecc::secded::{DecodeOutcome, SecDed};
        let code = xed_ecc::Hamming7264::new();
        let clean = code.encode(0);
        let mut detected = 0u32;
        let mut total = 0u32;
        for chip in 0..9u32 {
            for pattern in 1..=255u8 {
                let e = xed_ecc::CodeWord72::error_pattern(
                    (0..8u32)
                        .filter(|j| (pattern >> j) & 1 == 1)
                        .map(|j| 8 * chip + (7 - j)),
                );
                total += 1;
                if code.decode(clean.with_error(e)) == DecodeOutcome::Detected {
                    detected += 1;
                }
            }
        }
        f64::from(detected) / f64::from(total)
    }

    #[test]
    fn measured_burst_detect_matches_paper_census() {
        let m = measured_secded_burst_detect();
        // Paper Table II reports 50.75% burst-8 detection for Hamming;
        // the chip-aligned census of our construction must land nearby.
        assert!((m - 0.5075).abs() < 0.03, "measured {m}");
        // The documented default stays pinned for seeded reproducibility.
        let d = ModelParams::default().dimm_secded_burst_detect;
        assert!((d - 0.51).abs() < 1e-12);
    }

    #[test]
    fn scheme_stream_tags_unique_and_nonzero() {
        let tags: Vec<u64> = Scheme::ALL.iter().map(|s| s.stream_tag()).collect();
        for (i, t) in tags.iter().enumerate() {
            assert_ne!(*t, 0, "{}: zero tag would collide with the bare seed", i);
            assert!(!tags[..i].contains(t));
        }
    }
}
