//! The engine facade: one entry point for every reliability query.
//!
//! Everything that evaluates a `(scheme, FIT table, lifetime, parameters)`
//! configuration — the figure binaries, the benchmark and the `xedd`
//! daemon — funnels through this module, so there is exactly one hot path
//! behind every consumer (DESIGN.md §15). It is the only public way to
//! run a lifetime simulation:
//!
//! * [`Query`] is the normalized request: scheme, sample budget, seed,
//!   model parameters, FIT table and an optional `epsilon` early-stop
//!   target. Execution knobs (threads, streaming block size) ride in
//!   [`Exec`] and are *excluded* from the canonical identity.
//! * [`Query::canonical_key`] derives a 128-bit canonical key over the
//!   canonicalized encoding — sorted FIT rows, canonical scheme tag — so
//!   semantically-equal queries (reordered FIT rows, alternative scheme
//!   spellings) key the same memo-cache slot, and the engine evaluates
//!   the *canonicalized* form, making hash-equal configs bit-identical in
//!   results, not merely cache-compatible.
//! * [`evaluate`] answers a query; [`evaluate_streaming`] additionally
//!   reports a [`Progress`] snapshot after every trial block, each
//!   bit-identical to a batch run of that many samples (the range-run
//!   `merge_from` contract), honoring `epsilon`.
//! * [`Sweep`] is the lifetime run configuration and the batch front door
//!   the figure binaries use for multi-scheme sweeps over one
//!   work-stealing pool ([`Sweep::run_all`], [`Sweep::run_one`]), plus the
//!   single-trial [`Sweep::replay_trial`] behind the golden traces.

use crate::fault::FaultExtent;
use crate::fit::{FitRates, ModeRate, HOURS_PER_YEAR, LIFETIME_YEARS};
use crate::montecarlo::{self, RunReport, RunStats, SchemeResult, TrialKernel, TrialReplay};
use crate::rareevent::{TailConfig, TailEstimate, TailMode, TailSimulator};
use crate::schemes::{CodeModel, ModelParams, Scheme};
use std::fmt;
use xed_telemetry::trace::{self, Phase, SpanCtx, SpanEvent};

/// Trials per streamed partial-confidence block (¼ of the paper-scale
/// second at the measured ~100M samples/sec, and a multiple of both the
/// 64-lane bit-slice blocks and the 4096-trial steal chunks).
pub const DEFAULT_BLOCK: u64 = 1 << 18;

/// Longest lifetime, in years, a query may ask for. The lifetime run
/// keeps one failure counter per simulated year for every worker and
/// scheme, so an unbounded `years` would let one request exhaust memory; a
/// millennium is far beyond any DRAM service life.
pub const MAX_YEARS: f64 = 1_000.0;

/// Most faults a query may expect per trial: the system-wide Poisson
/// mean, FIT total × 10⁻⁹ × lifetime hours × chips. A trial draws every
/// fault of its lifetime and holds them in one buffer, so its time and
/// memory grow with this mean, and a client's FIT table alone could
/// otherwise make one trial take minutes or ask for 10¹² events. The
/// largest in-repo mean is about 834: 10x the Table I rates over
/// [`MAX_YEARS`] on the 144-chip x4 system.
pub const MAX_FAULTS_PER_TRIAL: f64 = 10_000.0;

/// Most trials a query may ask for. A run's time grows linearly with
/// `samples`, so an unbounded count would let one request hold a worker
/// (and every request coalesced onto it) for days: a billion lifetime
/// trials take 10–20 s on one core at the paper's Table I rates and a few
/// minutes at 10x those rates. The largest in-repo query (the `xedd`
/// selftest's slow stream) asks for 8 million.
pub const MAX_SAMPLES: u64 = 1_000_000_000;

/// Most trial blocks a query may be split into. A streamed run emits, and
/// `xedd` caches, one progress line of about 300 bytes per block, so an
/// unbounded `samples / block` would let one request fill the host's
/// memory; 4096 lines hold about 1.2 MB. The default block admits
/// [`MAX_SAMPLES`] in 3815 blocks.
pub const MAX_BLOCKS: u64 = 4096;

/// Most worker threads a query may ask for. An evaluation starts up to
/// this many threads (never more than it has work chunks), so an
/// unbounded count would let one request exhaust the host's threads and
/// memory; 256 is far above any core count the engine is run on.
pub const MAX_THREADS: usize = 256;

/// Version tag absorbed first into every canonical key. Bump whenever the
/// canonical encoding changes meaning, so stale caches can never alias a
/// new encoding. v2: absorbs `ModelParams::code_model` (the inferred-code
/// uncertainty knob).
const KEY_VERSION: u64 = 2;

/// Execution knobs: how a query runs, never *what* it computes. Excluded
/// from [`Query::canonical_key`] — results are thread-count-invariant by
/// the engine's reproducibility contract, and the block size only changes
/// where partials are emitted, not their values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    /// Worker threads; `0` = all available cores.
    pub threads: usize,
    /// Trials per streamed block ([`evaluate_streaming`]).
    pub block: u64,
}

impl Default for Exec {
    fn default() -> Self {
        Self {
            threads: 0,
            block: DEFAULT_BLOCK,
        }
    }
}

/// What kind of estimate the query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Full-lifetime Monte-Carlo failure probability (the [`Sweep`] run).
    Lifetime,
    /// Importance-sampled rare-event tail estimate ([`TailSimulator`]).
    Tail {
        /// Force a specific conditioning mode (`None` = auto-select).
        force: Option<TailMode>,
    },
}

/// A normalized reliability query: the unit of work the engine evaluates
/// and the `xedd` daemon serves, memoizes and coalesces.
#[derive(Debug, Clone)]
pub struct Query {
    /// The scheme under evaluation.
    pub scheme: Scheme,
    /// Estimate kind (lifetime MC or importance-sampled tail).
    pub kind: QueryKind,
    /// Trial budget.
    pub samples: u64,
    /// Lifetime in years (paper: 7).
    pub years: f64,
    /// Base RNG seed; results are a pure function of
    /// `(seed, scheme, trial)`.
    pub seed: u64,
    /// Early-stop target on the relative 95 % CI width (`ci95 / p_fail`):
    /// streaming evaluation stops at the first block boundary where the
    /// width is at or below this. `None` = run the full budget.
    pub epsilon: Option<f64>,
    /// Fault-response model parameters.
    pub params: ModelParams,
    /// Per-chip FIT rates.
    pub rates: FitRates,
    /// Execution knobs (not part of the canonical identity).
    pub exec: Exec,
}

impl Query {
    /// A lifetime Monte-Carlo query with paper-default parameters.
    pub fn lifetime(scheme: Scheme, samples: u64, seed: u64) -> Self {
        Self {
            scheme,
            kind: QueryKind::Lifetime,
            samples,
            years: LIFETIME_YEARS,
            seed,
            epsilon: None,
            params: ModelParams::default(),
            rates: FitRates::table_i(),
            exec: Exec::default(),
        }
    }

    /// Validates the query, returning a human-readable reason when it
    /// cannot be evaluated. The daemon maps this to HTTP 400.
    pub fn validate(&self) -> Result<(), String> {
        if self.samples == 0 {
            return Err("samples must be at least 1".into());
        }
        if self.samples > MAX_SAMPLES {
            return Err(format!(
                "samples must be at most {MAX_SAMPLES}, got {}",
                self.samples
            ));
        }
        if self.exec.block == 0 {
            return Err("block must be at least 1".into());
        }
        let blocks = self.samples.div_ceil(self.exec.block);
        if blocks > MAX_BLOCKS {
            return Err(format!(
                "samples / block must be at most {MAX_BLOCKS} blocks, got {blocks}"
            ));
        }
        if self.exec.threads > MAX_THREADS {
            return Err(format!(
                "threads must be at most {MAX_THREADS}, got {}",
                self.exec.threads
            ));
        }
        if !(self.years.is_finite() && self.years > 0.0) {
            return Err(format!(
                "years must be finite and positive, got {}",
                self.years
            ));
        }
        if self.years > MAX_YEARS {
            return Err(format!(
                "years must be at most {MAX_YEARS}, got {}",
                self.years
            ));
        }
        if let Some(eps) = self.epsilon {
            if !(eps.is_finite() && eps > 0.0) {
                return Err(format!("epsilon must be finite and positive, got {eps}"));
            }
        }
        let p = &self.params;
        for (name, v) in [
            ("on_die_miss", p.on_die_miss),
            ("dimm_secded_burst_detect", p.dimm_secded_burst_detect),
            ("scaling.bit_rate", p.scaling.bit_rate),
        ] {
            if !((0.0..=1.0).contains(&v)) {
                return Err(format!("{name} must be in [0, 1], got {v}"));
            }
        }
        if !(self.params.transient_exposure_hours.is_finite()
            && self.params.transient_exposure_hours >= 0.0)
        {
            return Err("transient_exposure_hours must be finite and non-negative".into());
        }
        if let crate::schemes::CodeModel::InferredAmbiguous { unresolved_rows } =
            self.params.code_model
        {
            if unresolved_rows > 8 {
                return Err(format!(
                    "code_model ambiguity must leave at most 8 unresolved rows, got {unresolved_rows}"
                ));
            }
        }
        for row in self.rates.rows() {
            if !(row.transient_fit.is_finite()
                && row.transient_fit >= 0.0
                && row.permanent_fit.is_finite()
                && row.permanent_fit >= 0.0)
            {
                return Err(format!(
                    "FIT rates for {:?} must be finite and non-negative",
                    row.extent
                ));
            }
        }
        let chips = f64::from(self.scheme.system_config().total_chips());
        let faults = self.rates.total_fit() * 1e-9 * self.years * HOURS_PER_YEAR * chips;
        if !(faults.is_finite() && faults <= MAX_FAULTS_PER_TRIAL) {
            return Err(format!(
                "expected faults per trial (FIT total x lifetime hours x chips) must be at \
                 most {MAX_FAULTS_PER_TRIAL}, got {faults:e}"
            ));
        }
        if matches!(self.kind, QueryKind::Tail { .. }) && self.epsilon.is_some() {
            return Err("epsilon early-stop applies to lifetime queries only".into());
        }
        Ok(())
    }

    /// The canonicalized form: FIT rows sorted by extent. The engine
    /// always evaluates this form, so two queries with equal
    /// [`Query::canonical_key`]s produce **bit-identical** results — row
    /// order would otherwise leak into the mode-sampling alias-table
    /// layout and change individual draws.
    pub fn canonicalized(&self) -> Query {
        let mut rows: Vec<ModeRate> = self.rates.rows().to_vec();
        rows.sort_by_key(|r| r.extent.index());
        Query {
            rates: FitRates::custom(rows),
            ..self.clone()
        }
    }

    /// Derives the 128-bit canonical key of this query's semantic
    /// identity (DESIGN.md §15): two independently-mixed 64-bit lanes
    /// over the canonical word encoding — version, scheme stream tag,
    /// kind, budget, seed, lifetime, epsilon, model parameters, then the
    /// FIT rows *sorted by extent*. Execution knobs are excluded. The
    /// encoding is length-prefixed and every field has a fixed slot, so
    /// distinct configurations cannot collide by field aliasing.
    ///
    /// Allocation-free and panic-free: this runs on the daemon's
    /// memoized request path, where a repeat query must cost O(1).
    pub fn canonical_key(&self) -> CanonicalKey {
        let mut h = KeyHasher::new();
        h.word(KEY_VERSION);
        h.word(self.scheme.stream_tag());
        match self.kind {
            QueryKind::Lifetime => h.word(0),
            QueryKind::Tail { force } => {
                h.word(1);
                h.word(match force {
                    None => 0,
                    Some(TailMode::CliqueForced) => 1,
                    Some(TailMode::CountConditioned) => 2,
                    Some(TailMode::PlainMc) => 3,
                });
            }
        }
        h.word(self.samples);
        h.f64(self.years);
        h.word(self.seed);
        match self.epsilon {
            None => h.word(0),
            Some(eps) => {
                h.word(1);
                h.f64(eps);
            }
        }
        let p = &self.params;
        h.word(u64::from(p.on_die_ecc));
        h.f64(p.on_die_miss);
        h.f64(p.dimm_secded_burst_detect);
        h.f64(p.scaling.bit_rate);
        h.word(u64::from(p.scaling.word_bits));
        h.word(u64::from(p.require_line_intersection));
        h.f64(p.transient_exposure_hours);
        let (code_tag, code_arg) = p.code_model.key_tag();
        h.word(code_tag);
        h.word(code_arg);

        // FIT rows sorted by extent index, via an in-place insertion sort
        // over a fixed-size buffer: extents are unique (asserted by
        // `FitRates::custom`), so a table has at most one row per
        // `FaultExtent` variant — six.
        let rows = self.rates.rows();
        let mut sorted = [ModeRate {
            extent: FaultExtent::Bit,
            transient_fit: 0.0,
            permanent_fit: 0.0,
        }; 6];
        let mut n = 0usize;
        for &row in rows {
            if n == sorted.len() {
                break; // unreachable: at most one row per extent
            }
            let mut i = n;
            // indexing: i ≤ n < sorted.len() on entry and only decreases.
            while i > 0 && sorted[i - 1].extent.index() > row.extent.index() {
                sorted[i] = sorted[i - 1];
                i -= 1;
            }
            // indexing: i ≤ n < sorted.len(), as above.
            sorted[i] = row;
            n += 1;
        }
        h.word(rows.len() as u64);
        // indexing: n counts rows written above, so n ≤ sorted.len().
        for row in &sorted[..n] {
            h.word(row.extent.index() as u64);
            h.f64(row.transient_fit);
            h.f64(row.permanent_fit);
        }
        h.finish()
    }

    /// The lifetime run configuration this (canonicalized) query maps to.
    fn sweep(&self) -> Sweep {
        Sweep {
            samples: self.samples,
            seed: self.seed,
            years: self.years,
            threads: self.exec.threads,
            params: self.params,
            rates: self.rates.clone(),
        }
    }
}

/// The 128-bit canonical identity of a [`Query`]: equal for
/// semantically-equal configurations, collision-resistant across distinct
/// ones (two independently-keyed 64-bit mixes must collide
/// simultaneously). This is the `xedd` memo-cache and coalescing key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CanonicalKey {
    /// First hash lane.
    pub hi: u64,
    /// Second, independently-keyed hash lane.
    pub lo: u64,
}

impl CanonicalKey {
    /// Maps the key onto one of `shards` cache shards (uniform in `hi`).
    pub fn shard(&self, shards: usize) -> usize {
        debug_assert!(shards > 0);
        (self.hi % shards.max(1) as u64) as usize
    }
}

impl fmt::Display for CanonicalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two independently-keyed absorb-mix lanes over a word stream.
#[derive(Debug)]
struct KeyHasher {
    a: u64,
    b: u64,
}

impl KeyHasher {
    fn new() -> Self {
        // Distinct arbitrary offsets (π digits) so the lanes never start
        // aligned.
        Self {
            a: 0x243F_6A88_85A3_08D3,
            b: 0x1319_8A2E_0370_7344,
        }
    }

    /// Absorbs one canonical word into both lanes.
    fn word(&mut self, w: u64) {
        self.a = mix64(self.a ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.b = mix64(self.b.rotate_left(23) ^ w ^ 0x5851_F42D_4C95_7F2D);
    }

    /// Absorbs an IEEE-754 double by bit pattern, with `-0.0` normalized
    /// to `+0.0` (the two compare equal and sample identically).
    fn f64(&mut self, x: f64) {
        let mut bits = x.to_bits();
        if bits == 0x8000_0000_0000_0000 {
            bits = 0;
        }
        self.word(bits);
    }

    fn finish(&self) -> CanonicalKey {
        CanonicalKey {
            hi: mix64(self.a),
            lo: mix64(self.b),
        }
    }
}

/// A completed estimate: what [`evaluate`] returns and the `xedd` memo
/// cache stores.
#[derive(Debug, Clone, PartialEq)]
pub enum Estimate {
    /// Full-lifetime Monte-Carlo outcome.
    Lifetime(RunReport),
    /// Importance-sampled tail outcome.
    Tail(Box<TailEstimate>),
}

impl Estimate {
    /// The evaluated scheme.
    pub fn scheme(&self) -> Scheme {
        match self {
            Estimate::Lifetime(r) => r.result.scheme,
            Estimate::Tail(t) => t.scheme,
        }
    }

    /// Trials the estimate is based on.
    pub fn samples(&self) -> u64 {
        match self {
            Estimate::Lifetime(r) => r.result.samples,
            Estimate::Tail(t) => t.samples,
        }
    }

    /// Estimated lifetime failure probability (DUE + SDC).
    pub fn p_fail(&self) -> f64 {
        match self {
            Estimate::Lifetime(r) => r.result.lifetime_failure_probability(),
            Estimate::Tail(t) => t.p_fail,
        }
    }

    /// Estimated lifetime detected-uncorrectable probability.
    pub fn p_due(&self) -> f64 {
        match self {
            Estimate::Lifetime(r) => r.result.due as f64 / r.result.samples as f64,
            Estimate::Tail(t) => t.p_due,
        }
    }

    /// Estimated lifetime silent-corruption probability.
    pub fn p_sdc(&self) -> f64 {
        match self {
            Estimate::Lifetime(r) => r.result.sdc as f64 / r.result.samples as f64,
            Estimate::Tail(t) => t.p_sdc,
        }
    }

    /// Two-sided 95 % confidence half-width on [`Self::p_fail`].
    pub fn ci95(&self) -> f64 {
        match self {
            Estimate::Lifetime(r) => r.result.confidence95(),
            Estimate::Tail(t) => t.ci95(),
        }
    }

    /// Two-sided 99 % confidence half-width on [`Self::p_fail`].
    pub fn ci99(&self) -> f64 {
        match self {
            Estimate::Lifetime(r) => r.result.confidence99(),
            Estimate::Tail(t) => t.ci99(),
        }
    }

    /// Relative precision `ci95 / p_fail` (∞ when no failure was seen).
    pub fn relative_ci95(&self) -> f64 {
        let p = self.p_fail();
        if p > 0.0 {
            self.ci95() / p
        } else {
            f64::INFINITY
        }
    }
}

/// One streamed partial-confidence snapshot: the estimate after
/// `trials_done` of `total` budgeted trials. Every snapshot is
/// **bit-identical** to what a batch run of exactly `trials_done` samples
/// would report — trial randomness is keyed `(seed, scheme, trial)`, so
/// the block partition cannot leak into any partial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Trials accumulated so far.
    pub trials_done: u64,
    /// The query's full trial budget.
    pub total: u64,
    /// Failure-probability estimate over the accumulated trials.
    pub p_fail: f64,
    /// 95 % confidence half-width at this point.
    pub ci95: f64,
    /// 99 % confidence half-width at this point.
    pub ci99: f64,
    /// Relative precision `ci95 / p_fail` (∞ when no failure yet).
    pub relative_ci95: f64,
}

impl Progress {
    fn from_result(result: &SchemeResult, total: u64) -> Self {
        let p = result.lifetime_failure_probability();
        let ci95 = result.confidence95();
        Progress {
            trials_done: result.samples,
            total,
            p_fail: p,
            ci95,
            ci99: result.confidence99(),
            relative_ci95: if p > 0.0 { ci95 / p } else { f64::INFINITY },
        }
    }
}

/// Evaluates a query to completion (honoring `epsilon` early stop) and
/// returns the estimate. See [`evaluate_streaming`] for the same
/// computation with per-block progress callbacks.
pub fn evaluate(query: &Query) -> Result<Estimate, String> {
    evaluate_streaming(query, |_| {})
}

/// Evaluates a query, invoking `sink` with a [`Progress`] snapshot after
/// every completed trial block (tail queries report a single final
/// snapshot). Stops early at the first block boundary where the relative
/// 95 % CI width meets the query's `epsilon`, if one is set.
///
/// The returned estimate — and every intermediate snapshot — is a pure
/// function of the canonicalized query (thread count and block size never
/// change values), which is the daemon's bit-reproducibility
/// guarantee for streamed responses.
pub fn evaluate_streaming(
    query: &Query,
    mut sink: impl FnMut(&Progress),
) -> Result<Estimate, String> {
    let Some(caller) = trace::current() else {
        return evaluate_streaming_inner(query, &mut sink);
    };
    // Traced request: run under an Evaluate span so the scheduler-chunk
    // spans the workers record nest beneath it, not the caller's span.
    let span_id = trace::next_span_id();
    trace::set_current(Some(SpanCtx {
        trace_id: caller.trace_id,
        span_id,
    }));
    let t_start = trace::now_ns();
    let result = evaluate_streaming_inner(query, &mut sink);
    trace::set_current(Some(caller));
    trace::record_span(SpanEvent {
        trace_id: caller.trace_id,
        span_id,
        parent: caller.span_id,
        phase: Phase::Evaluate,
        a: u64::from(result.is_err()),
        t_start,
        t_end: trace::now_ns(),
    });
    result
}

fn evaluate_streaming_inner(
    query: &Query,
    sink: &mut impl FnMut(&Progress),
) -> Result<Estimate, String> {
    query.validate()?;
    let q = query.canonicalized();
    match q.kind {
        QueryKind::Tail { force } => {
            let sim = TailSimulator::new(TailConfig {
                samples: q.samples,
                years: q.years,
                seed: q.seed,
                threads: q.exec.threads,
                params: q.params,
                rates: q.rates.clone(),
                force_mode: force,
            });
            let est = sim.run(q.scheme);
            sink(&Progress {
                trials_done: est.samples,
                total: q.samples,
                p_fail: est.p_fail,
                ci95: est.ci95(),
                ci99: est.ci99(),
                relative_ci95: est.relative_ci95(),
            });
            Ok(Estimate::Tail(Box::new(est)))
        }
        QueryKind::Lifetime => {
            let sweep = q.sweep();
            let block = q.exec.block;
            let mut acc: Option<(SchemeResult, RunStats)> = None;
            let mut done = 0u64;
            while done < q.samples {
                let n = block.min(q.samples - done);
                let report = montecarlo::run_range(&sweep, q.scheme, done, n);
                done += n;
                let (result, stats) = match acc.take() {
                    Some((mut result, stats)) => {
                        result.merge_from(&report.result);
                        (result, stats.merge(&report.stats))
                    }
                    None => (report.result, report.stats),
                };
                let progress = Progress::from_result(&result, q.samples);
                acc = Some((result, stats));
                sink(&progress);
                if let Some(eps) = q.epsilon {
                    if progress.relative_ci95 <= eps {
                        break;
                    }
                }
            }
            // invariant: samples ≥ 1 (validated), so the loop ran at
            // least once and acc is populated.
            let (result, stats) = acc.expect("at least one trial block");
            Ok(Estimate::Lifetime(RunReport { result, stats }))
        }
    }
}

/// The lifetime run configuration and its batch front door for
/// multi-scheme sweeps: what the figure and bench binaries run through.
/// All schemes share one work-stealing pool, and each per-scheme result is
/// bit-identical to [`evaluate`] on the same scheme's lifetime [`Query`]
/// alone.
///
/// Results are a pure function of `(seed, scheme, samples, years, params,
/// rates)`; the thread count only affects wall time.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Trials per scheme.
    pub samples: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Lifetime in years.
    pub years: f64,
    /// Worker threads; `0` = all available cores.
    pub threads: usize,
    /// Fault-response model parameters.
    pub params: ModelParams,
    /// Per-chip FIT rates.
    pub rates: FitRates,
}

impl Sweep {
    /// A paper-default sweep: Table I rates, 7-year lifetime, all cores.
    pub fn new(samples: u64, seed: u64) -> Self {
        Self {
            samples,
            seed,
            years: LIFETIME_YEARS,
            threads: 0,
            params: ModelParams::default(),
            rates: FitRates::table_i(),
        }
    }

    /// Replaces the model parameters (ablation studies).
    #[must_use]
    pub fn with_params(mut self, params: ModelParams) -> Self {
        self.params = params;
        self
    }

    /// Replaces the FIT table (scaling studies).
    #[must_use]
    pub fn with_rates(mut self, rates: FitRates) -> Self {
        self.rates = rates;
        self
    }

    /// Sets the worker thread count (`0` = all cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs every scheme over one shared work-stealing pool and returns
    /// the results in order, plus aggregate throughput stats. Each result
    /// is bit-identical to a solo [`Self::run_one`] of that scheme.
    pub fn run_all(&self, schemes: &[Scheme]) -> (Vec<SchemeResult>, RunStats) {
        montecarlo::run_many(self, schemes, 0, self.samples, TrialKernel::BitSliced)
    }

    /// Runs one scheme, reporting wall time and samples/sec alongside.
    pub fn run_one(&self, scheme: Scheme) -> RunReport {
        montecarlo::run_range(self, scheme, 0, self.samples)
    }

    /// Replays trial `trial` of `scheme` and returns its full decision
    /// timeline.
    ///
    /// The deterministic single-shot evaluation hook behind the golden
    /// conformance traces (`xed-trace-v1`): it draws from the *same*
    /// counter-based stream as trial `trial` of [`Self::run_one`] and runs
    /// the *same* trial body (zero-fault fast path, isolated-fault fast
    /// path, expiry bookkeeping, stop-at-first-failure) with a recorder
    /// attached, so aggregating `replay_trial` over every trial index
    /// reproduces the aggregate [`SchemeResult`] bit-for-bit.
    pub fn replay_trial(&self, scheme: Scheme, trial: u64) -> TrialReplay {
        montecarlo::replay_trial(self, scheme, trial)
    }
}

/// One point of the inferred-code scenario family: a scheme's lifetime
/// estimate under one controller knowledge state.
#[derive(Debug, Clone)]
pub struct CodeModelPoint {
    /// The knowledge state this point was evaluated under.
    pub code_model: CodeModel,
    /// The lifetime Monte-Carlo outcome.
    pub report: RunReport,
}

/// The inferred-code scenario family (ROADMAP item 2): evaluates one
/// scheme's lifetime estimate under each controller knowledge state in
/// `models`, holding every other knob of `sweep` fixed, so the cost of
/// *not* knowing the vendor's on-die code can be read off directly.
///
/// Two structural guarantees the differential tests pin down:
///
/// * the [`CodeModel::Known`] and [`CodeModel::InferredExact`] points are
///   **bit-identical** — exact BEER recovery is free;
/// * failure probability is monotonically non-decreasing in the number
///   of unresolved check rows (more ambiguity can only hurt).
pub fn code_model_family(
    sweep: &Sweep,
    scheme: Scheme,
    models: &[CodeModel],
) -> Vec<CodeModelPoint> {
    models
        .iter()
        .map(|&code_model| {
            let params = ModelParams {
                code_model,
                ..sweep.params
            };
            CodeModelPoint {
                code_model,
                report: sweep.clone().with_params(params).run_one(scheme),
            }
        })
        .collect()
}

/// The canonical ladder of knowledge states the scenario pack compares:
/// known → inferred-exact → increasingly pattern-starved campaigns.
pub fn code_model_ladder() -> Vec<CodeModel> {
    vec![
        CodeModel::Known,
        CodeModel::InferredExact,
        CodeModel::InferredAmbiguous { unresolved_rows: 1 },
        CodeModel::InferredAmbiguous { unresolved_rows: 2 },
        CodeModel::InferredAmbiguous { unresolved_rows: 4 },
        CodeModel::InferredAmbiguous { unresolved_rows: 8 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::ModeRate;

    fn reversed_table_i() -> FitRates {
        let mut rows: Vec<ModeRate> = FitRates::table_i().rows().to_vec();
        rows.reverse();
        FitRates::custom(rows)
    }

    #[test]
    fn reordered_fit_rows_hash_equal_and_evaluate_bit_identical() {
        let a = Query::lifetime(Scheme::Xed, 20_000, 7);
        let mut b = a.clone();
        b.rates = reversed_table_i();
        assert_eq!(a.canonical_key(), b.canonical_key());
        let ea = evaluate(&a).expect("valid query");
        let eb = evaluate(&b).expect("valid query");
        match (ea, eb) {
            (Estimate::Lifetime(ra), Estimate::Lifetime(rb)) => {
                assert_eq!(
                    ra.result, rb.result,
                    "hash-equal queries must be result-identical"
                );
            }
            _ => panic!("lifetime queries returned tail estimates"),
        }
    }

    #[test]
    fn scheme_spellings_parse_to_the_same_scheme() {
        for (a, b) in [
            ("XED", "xed"),
            ("ecc-dimm", "ECC_DIMM"),
            ("secded", "eccdimm"),
            ("single-chipkill", "chipkill-x4"),
            ("Double Chipkill", "double-chipkill"),
        ] {
            assert_eq!(Scheme::parse(a), Scheme::parse(b), "{a} vs {b}");
            assert!(Scheme::parse(a).is_some(), "{a} must parse");
        }
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::parse(scheme.id()), Some(scheme));
        }
    }

    #[test]
    fn execution_knobs_do_not_change_the_key() {
        let a = Query::lifetime(Scheme::Xed, 20_000, 7);
        let mut b = a.clone();
        b.exec = Exec {
            threads: 3,
            block: 1024,
        };
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn semantic_fields_all_feed_the_key() {
        let base = Query::lifetime(Scheme::Xed, 20_000, 7);
        let key = base.canonical_key();
        let mut variants = Vec::new();
        let mut q = base.clone();
        q.scheme = Scheme::EccDimm;
        variants.push(q);
        let mut q = base.clone();
        q.kind = QueryKind::Tail { force: None };
        variants.push(q);
        let mut q = base.clone();
        q.kind = QueryKind::Tail {
            force: Some(TailMode::CountConditioned),
        };
        variants.push(q);
        let mut q = base.clone();
        q.samples += 1;
        variants.push(q);
        let mut q = base.clone();
        q.years = 5.0;
        variants.push(q);
        let mut q = base.clone();
        q.seed += 1;
        variants.push(q);
        let mut q = base.clone();
        q.epsilon = Some(0.05);
        variants.push(q);
        let mut q = base.clone();
        q.params.on_die_ecc = false;
        variants.push(q);
        let mut q = base.clone();
        q.params.on_die_miss = 0.009;
        variants.push(q);
        let mut q = base.clone();
        q.params.scaling = crate::scaling::ScalingFaults::paper_default();
        variants.push(q);
        let mut q = base.clone();
        let mut rows: Vec<ModeRate> = q.rates.rows().to_vec();
        rows[0].transient_fit += 0.1;
        q.rates = FitRates::custom(rows);
        variants.push(q);
        let mut q = base.clone();
        q.params.code_model = CodeModel::InferredExact;
        variants.push(q);
        let mut q = base.clone();
        q.params.code_model = CodeModel::InferredAmbiguous { unresolved_rows: 2 };
        variants.push(q);
        let mut q = base.clone();
        q.params.code_model = CodeModel::InferredAmbiguous { unresolved_rows: 3 };
        variants.push(q);
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(v.canonical_key(), key, "variant {i} must change the key");
        }
        // Distinct ambiguity depths must also key apart from each other.
        assert_ne!(
            variants[variants.len() - 2].canonical_key(),
            variants[variants.len() - 1].canonical_key()
        );
    }

    #[test]
    fn code_model_validation_rejects_impossible_ambiguity() {
        let mut q = Query::lifetime(Scheme::Xed, 1_000, 7);
        q.params.code_model = CodeModel::InferredAmbiguous { unresolved_rows: 9 };
        assert!(q.validate().is_err());
        q.params.code_model = CodeModel::InferredAmbiguous { unresolved_rows: 8 };
        assert!(q.validate().is_ok());
    }

    #[test]
    fn code_model_family_known_and_inferred_exact_are_bit_identical() {
        let sweep = Sweep::new(20_000, 7);
        let points = code_model_family(
            &sweep,
            Scheme::Xed,
            &[CodeModel::Known, CodeModel::InferredExact],
        );
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[0].report.result, points[1].report.result,
            "exact inference must cost nothing"
        );
    }

    #[test]
    fn code_model_family_failures_grow_with_ambiguity() {
        // More unresolved rows ⇒ higher effective miss ⇒ weakly more
        // failures at fixed seed (the miss threshold only moves one way
        // against the same uniform draws).
        let sweep = Sweep::new(50_000, 7);
        let points = code_model_family(&sweep, Scheme::Xed, &code_model_ladder());
        assert_eq!(points.len(), code_model_ladder().len());
        let fails: Vec<u64> = points.iter().map(|p| p.report.result.failures()).collect();
        assert_eq!(fails[0], fails[1], "known vs inferred-exact");
        assert!(
            fails.windows(2).all(|w| w[0] <= w[1]),
            "failures must be monotone in ambiguity: {fails:?}"
        );
        assert!(
            fails[fails.len() - 1] > fails[0],
            "full ambiguity must visibly hurt XED: {fails:?}"
        );
    }

    #[test]
    fn seeded_sweep_of_distinct_queries_is_collision_free() {
        // Canonical keys over a broad seeded sweep of distinct
        // configurations: all distinct (128-bit keys, two independent
        // lanes — a collision here is a bug, not bad luck).
        let mut keys = std::collections::HashSet::new();
        let mut count = 0usize;
        for scheme in Scheme::ALL {
            for samples in [1_000u64, 10_000, 100_000] {
                for seed in 0..12u64 {
                    for eps in [None, Some(0.1), Some(0.05)] {
                        let mut q = Query::lifetime(scheme, samples, seed);
                        q.epsilon = eps;
                        keys.insert(q.canonical_key());
                        count += 1;
                    }
                }
            }
        }
        assert_eq!(keys.len(), count, "canonical-key collision in sweep");
    }

    #[test]
    fn negative_zero_hashes_like_positive_zero() {
        let a = Query::lifetime(Scheme::Xed, 1_000, 7);
        let mut b = a.clone();
        b.params.transient_exposure_hours = -0.0;
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn streamed_partials_are_bit_identical_to_batch_runs() {
        // Every emitted snapshot must equal a batch run of exactly that
        // many samples — the xedd streaming contract. Block size chosen
        // unaligned to both lanes (64) and steal chunks (4096).
        let mut q = Query::lifetime(Scheme::EccDimm, 10_000, 7);
        q.exec.block = 3_000;
        let mut snapshots = Vec::new();
        let est = evaluate_streaming(&q, |p| snapshots.push(*p)).expect("valid query");
        assert_eq!(snapshots.len(), 4, "10k trials in 3k blocks");
        for p in &snapshots {
            let batch = Query::lifetime(Scheme::EccDimm, p.trials_done, 7);
            let expect = evaluate(&batch).expect("valid query");
            assert_eq!(p.p_fail, expect.p_fail(), "at {} trials", p.trials_done);
            assert_eq!(p.ci95, expect.ci95(), "at {} trials", p.trials_done);
            assert_eq!(p.ci99, expect.ci99(), "at {} trials", p.trials_done);
        }
        match est {
            Estimate::Lifetime(report) => assert_eq!(report.result.samples, 10_000),
            Estimate::Tail(_) => panic!("lifetime query returned a tail estimate"),
        }
    }

    #[test]
    fn epsilon_stops_early_and_matches_the_prefix_run() {
        // A loose epsilon stops at the first block; the result must be
        // bit-identical to a batch run of exactly one block.
        let mut q = Query::lifetime(Scheme::EccDimm, 1_000_000, 7);
        q.exec.block = 10_000;
        q.epsilon = Some(0.5);
        let est = evaluate(&q).expect("valid query");
        assert_eq!(est.samples(), 10_000, "loose epsilon stops after one block");
        let prefix = evaluate(&Query::lifetime(Scheme::EccDimm, 10_000, 7)).expect("valid query");
        assert_eq!(est.p_fail(), prefix.p_fail());
        assert!(est.relative_ci95() <= 0.5);
    }

    #[test]
    fn evaluate_matches_direct_monte_carlo() {
        let q = Query::lifetime(Scheme::Xed, 20_000, 7);
        let direct = q.sweep().run_one(Scheme::Xed).result;
        match evaluate(&q).expect("valid query") {
            Estimate::Lifetime(report) => assert_eq!(report.result, direct),
            Estimate::Tail(_) => panic!("lifetime query returned a tail estimate"),
        }
    }

    #[test]
    fn evaluate_matches_tail_simulator() {
        let q = Query {
            kind: QueryKind::Tail { force: None },
            ..Query::lifetime(Scheme::XedChipkill, 20_000, 7)
        };
        let direct = TailSimulator::new(TailConfig {
            samples: 20_000,
            seed: 7,
            ..TailConfig::default()
        })
        .run(Scheme::XedChipkill);
        match evaluate(&q).expect("valid query") {
            Estimate::Tail(est) => {
                // Wall time is nondeterministic metadata; everything else
                // must match bit for bit.
                let mut est = *est;
                est.wall_seconds = direct.wall_seconds;
                assert_eq!(est, direct);
            }
            Estimate::Lifetime(_) => panic!("tail query returned a lifetime estimate"),
        }
    }

    #[test]
    fn sweep_results_match_per_scheme_queries() {
        // The daemon-side identity of running a scheme under a sweep.
        let sweep = Sweep::new(20_000, 7);
        let query = |scheme| Query {
            scheme,
            kind: QueryKind::Lifetime,
            samples: sweep.samples,
            years: sweep.years,
            seed: sweep.seed,
            epsilon: None,
            params: sweep.params,
            rates: sweep.rates.clone(),
            exec: Exec {
                threads: sweep.threads,
                block: DEFAULT_BLOCK,
            },
        };
        let (results, _) = sweep.run_all(&[Scheme::EccDimm, Scheme::Xed]);
        for result in &results {
            match evaluate(&query(result.scheme)).expect("valid query") {
                Estimate::Lifetime(report) => assert_eq!(&report.result, result),
                Estimate::Tail(_) => panic!("lifetime query returned a tail estimate"),
            }
        }
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let mut q = Query::lifetime(Scheme::Xed, 0, 7);
        assert!(q.validate().is_err(), "zero samples");
        q.samples = 1;
        q.years = f64::NAN;
        assert!(q.validate().is_err(), "NaN years");
        q.years = 7.0;
        q.epsilon = Some(0.0);
        assert!(q.validate().is_err(), "zero epsilon");
        q.epsilon = None;
        q.params.on_die_miss = 1.5;
        assert!(q.validate().is_err(), "miss probability above 1");
        q.params.on_die_miss = 0.008;
        assert!(q.validate().is_ok());
    }

    #[test]
    fn lifetimes_beyond_the_bound_are_rejected_before_any_allocation() {
        // Each worker keeps one failure counter per simulated year, so an
        // absurd lifetime must be a validation error, not an allocation
        // abort inside the run.
        let mut q = Query::lifetime(Scheme::Xed, 1, 7);
        q.years = MAX_YEARS;
        assert!(q.validate().is_ok());
        for years in [MAX_YEARS + 1.0, 1e15, f64::MAX] {
            q.years = years;
            assert!(q.validate().is_err(), "{years} years");
            assert!(evaluate(&q).is_err(), "{years} years");
        }
    }

    #[test]
    fn fault_counts_beyond_the_bound_are_rejected_before_any_trial() {
        // A client's FIT table sets how many faults every trial draws and
        // holds, so an absurd rate must be a validation error, not a hung
        // worker; a sum of finite rates that overflows to infinity too.
        let bit = |fit: f64, extent| ModeRate {
            extent,
            transient_fit: fit,
            permanent_fit: 0.0,
        };
        let mut q = Query::lifetime(Scheme::Xed, 1, 7);
        for rows in [
            vec![bit(1e9, FaultExtent::Bit)],
            vec![bit(1e12, FaultExtent::Bit)],
            vec![bit(1e308, FaultExtent::Bit), bit(1e308, FaultExtent::Chip)],
        ] {
            q.rates = FitRates::custom(rows);
            let err = q.validate().expect_err("absurd FIT table");
            assert!(err.contains("expected faults per trial"), "{err}");
            assert!(evaluate(&q).is_err());
        }
        // Every in-repo workload stays valid: the longest lifetime at 10x
        // the Table I rates on the largest system.
        let mut q = Query::lifetime(Scheme::DoubleChipkill, 1, 7);
        q.years = MAX_YEARS;
        q.rates = FitRates::custom(
            FitRates::table_i()
                .rows()
                .iter()
                .map(|r| ModeRate {
                    transient_fit: 10.0 * r.transient_fit,
                    permanent_fit: 10.0 * r.permanent_fit,
                    ..*r
                })
                .collect(),
        );
        assert!(q.validate().is_ok());
    }

    #[test]
    fn sample_counts_beyond_the_bound_are_rejected_before_any_trial() {
        // A run's time is linear in its trial count, so an absurd count
        // must be a validation error, not a worker held for days. The
        // largest in-repo query stays valid. The same holds for a thread
        // count that would exhaust the host.
        for kind in [QueryKind::Lifetime, QueryKind::Tail { force: None }] {
            let mut q = Query {
                kind,
                ..Query::lifetime(Scheme::Xed, 8_000_000, 41)
            };
            assert!(q.validate().is_ok());
            q.samples = MAX_SAMPLES;
            assert!(q.validate().is_ok());
            for samples in [MAX_SAMPLES + 1, u64::MAX] {
                q.samples = samples;
                assert!(q.validate().is_err(), "{samples} samples");
                assert!(evaluate(&q).is_err(), "{samples} samples");
            }
            // A block size that would split the run into more progress
            // lines than the bound, or into none, is rejected too.
            q.samples = 10_000_000;
            q.exec.block = 10_000_000 / MAX_BLOCKS + 1;
            assert!(q.validate().is_ok());
            for block in [0, 10_000_000 / MAX_BLOCKS, 1] {
                q.exec.block = block;
                let err = q.validate().expect_err("block bound");
                assert!(err.contains("block"), "{block}: {err}");
                assert!(evaluate(&q).is_err(), "{block} block");
            }
            q.exec.block = DEFAULT_BLOCK;
            // Likewise a thread count past the bound is rejected before a
            // single worker starts.
            q.samples = 1;
            q.exec.threads = MAX_THREADS;
            assert!(q.validate().is_ok());
            for threads in [MAX_THREADS + 1, usize::MAX] {
                q.exec.threads = threads;
                assert!(q.validate().is_err(), "{threads} threads");
                assert!(evaluate(&q).is_err(), "{threads} threads");
            }
        }
    }
}
