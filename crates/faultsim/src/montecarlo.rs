//! The threaded Monte-Carlo simulation driver.
//!
//! Reproduces the paper's methodology (Section III): simulate many
//! independent systems over a 7-year lifetime, record whether and when each
//! encounters an uncorrectable (DUE) or silent (SDC) error, and report the
//! probability of system failure as a function of time. The public way to
//! run it is [`crate::engine`] ([`Sweep`], `evaluate`,
//! `evaluate_streaming`); this module holds the machinery behind it.
//!
//! # Engine design (see DESIGN.md §9)
//!
//! * **Counter-based per-trial RNG streams.** Trial `i` of scheme `s`
//!   draws from the split form of stream `i` of `Streams::new(seed ⊕
//!   mix(s))`: `split_first(i)` yields the headline uniform that decides
//!   the zero-fault fast path, and `split_rest(i)` carries any remaining
//!   draws — together one logical stream, a pure function of `(seed,
//!   scheme, trial)`. Randomness is therefore independent of which worker
//!   executes the trial, which makes every [`SchemeResult`]
//!   **bit-identical for any thread count** (enforced by tier-1 tests).
//! * **Work-stealing chunk scheduler.** Workers repeatedly claim the next
//!   `STEAL_CHUNK`-trial slice from a shared atomic counter spanning
//!   *all* schemes of the invocation, so [`Sweep::run_all`] is parallel
//!   across schemes and no core idles at the tail. All accumulators are
//!   `u64` counters (commutative merges), so the claim order cannot
//!   affect results. The rare-event engine reuses the same scheduler.
//! * **Bit-sliced trial classification.** Trials run in 64-lane blocks:
//!   the block's headline draws come from one Weyl-incremented SplitMix64
//!   sweep, the zero-fault decisions transpose into a single `nonzero`
//!   word, one popcount credits the whole block's zero-fault trials, and
//!   only set bits spill to the scalar event machinery — bit-identical to
//!   the scalar loop by construction (see DESIGN.md §14).
//! * **One trial timeline.** Every spilled trial, every replayed trial
//!   ([`Sweep::replay_trial`]) and every rare-event trial walks its faults
//!   through the same loop: expire closed exposure windows, evaluate the
//!   arrival against the active set, stop at the first DUE/SDC.
//! * **Only the work that can change a verdict.** When the model proves
//!   single-bit faults inert (on-die ECC, no scaling faults: always
//!   benign, no draws, invisible to the concurrency count), the sampler
//!   draws them in full but leaves them out of the timeline that is
//!   sorted and walked; the kernels tally them and publish
//!   `faultsim.timeline.inert_elided` at merge. A trial whose kept faults
//!   all sit in distinct protection domains and are all of quiet modes
//!   (benign or corrected in isolation, without a draw) ends before the
//!   sort and the walk (`faultsim.timeline.quiet_trials`). The replay
//!   keeps and walks every fault. The walk hands its active set to the
//!   classifier as a slice, compacting expired faults in place only once
//!   the earliest expiry has passed.
//! * **Allocation-free hot loop.** Each worker owns reusable event and
//!   active-set buffers; `LifetimeSampler::events_append` writes into them,
//!   and the zero-fault fast path draws only the Poisson count (one
//!   uniform) for the ~75 % of lifetimes that see no fault at all.
//! * **Throughput instrumentation.** [`Sweep::run_one`] and
//!   [`Sweep::run_all`] report wall time and samples/sec via
//!   [`RunStats`]; the figure binaries print them as their `[engine]`
//!   footer.

use crate::engine::Sweep;
use crate::event::{sort_by_arrival, FaultEvent, LifetimeSampler};
use crate::fault::Persistence;
use crate::fit::HOURS_PER_YEAR;
use crate::schemes::{Scheme, SchemeModel, Verdict};
use rand::rngs::{StdRng, Streams};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xed_telemetry::registry::metrics;
use xed_telemetry::trace::{self, Phase, SpanEvent};

/// Trials claimed per scheduler steal. Large enough that the atomic
/// `fetch_add` is noise (one per ~4k trials), small enough that the tail
/// imbalance at the end of a run is microseconds. A multiple of [`LANES`],
/// so every full chunk decomposes into whole bit-sliced blocks.
const STEAL_CHUNK: u64 = 4096;

/// Trials per bit-sliced block: one trial per bit of the classification
/// word (see [`TrialKernel::BitSliced`]).
const LANES: u64 = 64;

/// `1 / HOURS_PER_YEAR`: the failure-year bucket divide as a multiply
/// (the hot loop computes it on every recorded failure).
const YEAR_RECIP: f64 = 1.0 / HOURS_PER_YEAR;

/// Which per-trial evaluation kernel [`run_many`] runs.
///
/// Both kernels consume the identical counter-based streams and produce
/// **bit-identical** [`SchemeResult`]s; the choice only affects how fast
/// the ~75 % zero-fault trials are classified. Every public run uses the
/// bit-sliced kernel; the scalar loop is the crate-internal reference the
/// equivalence tests (and the release-mode ci.sh gate) compare it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrialKernel {
    /// 64-lane bit-sliced classification: headline draws for a whole
    /// trial block are generated with one Weyl add + SplitMix64 mix per
    /// lane ([`Streams::split_first_block`]), transposed into a single
    /// `nonzero` word by [`LifetimeSampler::nonzero_mask`], credited to
    /// the zero-fault tally with one popcount, and only the set bits spill
    /// into the scalar event machinery.
    BitSliced,
    /// The straight scalar loop, one trial at a time — the differential
    /// oracle for the bit-sliced path (constructed only by its tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Scalar,
}

/// Aggregated outcome of simulating one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// The simulated scheme.
    pub scheme: Scheme,
    /// Systems simulated.
    pub samples: u64,
    /// Failures (DUE + SDC) whose failure time fell in year `i`
    /// (`failures_by_year[0]` = failures during the first year).
    pub failures_by_year: Vec<u64>,
    /// Total detected-uncorrectable failures.
    pub due: u64,
    /// Total silent failures.
    pub sdc: u64,
    /// Failures attributed to the extent of the fault whose arrival
    /// triggered them, indexed like [`crate::fault::FaultExtent::ALL`].
    pub failures_by_extent: [u64; 6],
}

impl SchemeResult {
    /// Total failed systems.
    pub fn failures(&self) -> u64 {
        self.due + self.sdc
    }

    /// Probability that a system fails within the first `years` years
    /// (cumulative; fractional years round up to the enclosing year bucket).
    pub fn failure_probability(&self, years: f64) -> f64 {
        let buckets = (years.ceil() as usize).min(self.failures_by_year.len());
        let failed: u64 = self.failures_by_year[..buckets].iter().sum();
        failed as f64 / self.samples as f64
    }

    /// Probability that a system fails at any point in the simulated
    /// lifetime (every recorded failure, regardless of year).
    pub fn lifetime_failure_probability(&self) -> f64 {
        self.failures() as f64 / self.samples as f64
    }

    /// Cumulative failure-probability curve, one point per year boundary —
    /// the series plotted in the paper's Figures 1 and 7–10.
    pub fn curve(&self) -> Vec<f64> {
        let mut acc = 0u64;
        self.failures_by_year
            .iter()
            .map(|&f| {
                acc += f;
                acc as f64 / self.samples as f64
            })
            .collect()
    }

    /// Failure share attributed to each triggering fault extent, as
    /// `(extent, count)` pairs in [`crate::fault::FaultExtent::ALL`] order.
    pub fn attribution(&self) -> [(crate::fault::FaultExtent, u64); 6] {
        let mut out = [(crate::fault::FaultExtent::Bit, 0u64); 6];
        for (i, (slot, &count)) in out
            .iter_mut()
            .zip(self.failures_by_extent.iter())
            .enumerate()
        {
            *slot = (crate::fault::FaultExtent::ALL[i], count);
        }
        out
    }

    /// Two-sided 95 % binomial confidence half-width on the lifetime
    /// failure probability: `1.96 · √(p(1−p)/n)` with `p` the observed
    /// [`Self::lifetime_failure_probability`] (normal approximation, which
    /// is comfortably valid at the ≥10⁵-sample counts the driver runs).
    pub fn confidence95(&self) -> f64 {
        let p = self.lifetime_failure_probability();
        1.96 * (p * (1.0 - p) / self.samples as f64).sqrt()
    }

    /// Two-sided 99 % binomial confidence half-width on the lifetime
    /// failure probability: `2.576 · √(p(1−p)/n)`. The analytic oracle in
    /// `xed-testkit` gates the Monte-Carlo estimate against closed-form
    /// probabilities at this stricter bound, so a divergence it reports is
    /// statistically significant, not sampling noise.
    pub fn confidence99(&self) -> f64 {
        let p = self.lifetime_failure_probability();
        2.576 * (p * (1.0 - p) / self.samples as f64).sqrt()
    }

    /// Folds another result for the *same scheme* over a *disjoint trial
    /// range* into this one.
    ///
    /// Every field is a plain `u64` tally, so accumulating the range runs
    /// `[0, B), [B, 2B), …` of `engine::evaluate_streaming`'s trial blocks
    /// is **bit-identical** to one batch run over the union of the ranges
    /// — trial randomness is a pure function of `(seed, scheme, trial)`,
    /// never of how the trial space was partitioned. This is the merge
    /// that backs the streaming engine facade (`faultsim::engine`) and
    /// the `xedd` partial-confidence responses.
    pub fn merge_from(&mut self, other: &SchemeResult) {
        debug_assert_eq!(self.scheme, other.scheme, "merging different schemes");
        debug_assert_eq!(
            self.failures_by_year.len(),
            other.failures_by_year.len(),
            "merging different lifetimes"
        );
        self.samples += other.samples;
        self.due += other.due;
        self.sdc += other.sdc;
        for (a, b) in self
            .failures_by_year
            .iter_mut()
            .zip(&other.failures_by_year)
        {
            *a += b;
        }
        for (a, b) in self
            .failures_by_extent
            .iter_mut()
            .zip(&other.failures_by_extent)
        {
            *a += b;
        }
    }
}

/// One classifier decision inside a replayed trial ([`Sweep::replay_trial`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialStep {
    /// Arrival time of the evaluated fault, in hours since system start.
    pub time_hours: f64,
    /// Global chip index the fault struck; `None` on the isolated-fault
    /// fast path (the verdict is chip-independent there, so the trial
    /// never draws one).
    pub chip: Option<u32>,
    /// Spatial extent of the evaluated fault.
    pub extent: crate::fault::FaultExtent,
    /// Persistence of the evaluated fault.
    pub persistence: Persistence,
    /// Faults still active (unexpired, survived) when this one arrived.
    pub active: usize,
    /// The classifier's verdict for this access.
    pub verdict: Verdict,
}

/// Failure record of a replayed trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialFailure {
    /// `true` for a detected-uncorrectable failure, `false` for silent
    /// data corruption.
    pub due: bool,
    /// Year bucket the failure falls in (clamped like the aggregate run).
    pub year: usize,
    /// Extent index (per [`crate::fault::FaultExtent::ALL`]) of the fault
    /// whose arrival triggered the failure.
    pub extent_index: usize,
}

/// Deterministic single-trial evaluation: the full decision timeline of
/// trial `trial`, exactly as the aggregate run scored it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialReplay {
    /// The replayed scheme.
    pub scheme: Scheme,
    /// The replayed trial index.
    pub trial: u64,
    /// `true` if the lifetime drew zero faults (no steps).
    pub zero_fault: bool,
    /// Every classifier decision, in arrival order. Evaluation stops at
    /// the first failure.
    pub steps: Vec<TrialStep>,
    /// The failure that ended the trial, if any.
    pub failure: Option<TrialFailure>,
}

/// Throughput and scheduler counters for one Monte-Carlo invocation.
///
/// Everything here is *metadata*: the simulated [`SchemeResult`]s are
/// bit-identical regardless of threads or timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Wall-clock duration of the invocation, in seconds.
    pub wall_seconds: f64,
    /// Trials simulated per wall-clock second (all schemes combined).
    pub samples_per_sec: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Total trials simulated (`samples × schemes`).
    pub samples: u64,
    /// Trials that took the zero-fault fast path (drew a Poisson count of
    /// zero and touched no buffer).
    pub zero_fault_samples: u64,
}

impl RunStats {
    /// Combines this invocation's stats with another's, as if the two had
    /// run back to back: wall times and sample counts add, throughput is
    /// recomputed over the combined run. Used by study binaries that sweep
    /// several configurations and report one aggregate footer.
    #[must_use]
    pub fn merge(&self, other: &RunStats) -> RunStats {
        let samples = self.samples + other.samples;
        let wall_seconds = self.wall_seconds + other.wall_seconds;
        RunStats {
            wall_seconds,
            samples_per_sec: samples as f64 / wall_seconds.max(1e-9),
            threads: self.threads.max(other.threads),
            samples,
            zero_fault_samples: self.zero_fault_samples + other.zero_fault_samples,
        }
    }
}

/// A [`SchemeResult`] plus the [`RunStats`] of the invocation that
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The (thread-count-invariant) simulation outcome.
    pub result: SchemeResult,
    /// Timing metadata for this invocation.
    pub stats: RunStats,
}

/// Worker threads a `threads` setting resolves to: `0` means every
/// available core.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// The stream-family key of `(seed, scheme)`: trial `i` of `scheme` draws
/// from stream `i` of `Streams::new(stream_key(seed, scheme))`. Part of
/// the reproducibility contract, like `Scheme::stream_tag`.
pub(crate) fn stream_key(seed: u64, scheme: Scheme) -> u64 {
    seed.wrapping_add(scheme.stream_tag().wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The work-stealing chunk scheduler: `min(threads, chunks)` workers each
/// build their state with `init`, then repeatedly claim the next chunk id
/// of `0..chunks` from one shared atomic counter and hand it to `work`,
/// until the space is exhausted. Returns every worker's final state. The
/// calling thread is worker 0, so only the other workers are spawned (as
/// scoped threads) and a one-worker run spawns none. Which worker ran
/// which chunk is scheduling noise, so callers must fold the states
/// order-independently (or by chunk id).
pub(crate) fn steal_chunks<S: Send>(
    threads: usize,
    chunks: u64,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, u64) + Sync,
) -> Vec<S> {
    debug_assert!(threads > 0, "resolve the thread count first");
    let workers = usize::try_from(chunks).map_or(threads, |c| threads.min(c));
    let next_chunk = AtomicU64::new(0);
    let worker = || {
        let mut state = init();
        loop {
            let c = next_chunk.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break state;
            }
            work(&mut state, c);
        }
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let caller = (workers > 0).then(worker);
        caller
            .into_iter()
            .chain(spawned.into_iter().map(|h| {
                // invariant: workers never panic; a worker panic is a bug
                // in the simulator itself, so propagate it.
                h.join().expect("simulation worker panicked")
            }))
            .collect()
    })
}

/// The sampler and stream family the trials of `model`'s scheme draw from
/// under `sweep`.
fn trial_context<'a>(sweep: &'a Sweep, model: &SchemeModel) -> (LifetimeSampler<'a>, Streams) {
    let sampler = LifetimeSampler::new(
        &sweep.rates,
        model.config().geometry,
        model.config().total_chips(),
        sweep.years,
    );
    (
        sampler,
        Streams::new(stream_key(sweep.seed, model.scheme())),
    )
}

/// Simulates trials `[first, first + count)` of one scheme with the
/// bit-sliced kernel: the range run behind [`Sweep::run_one`], the
/// streamed blocks of `engine::evaluate_streaming` and the rare-event
/// engine's plain-MC fallback. Range boundaries need not align with the
/// 64-lane blocks or the work-stealing chunks.
pub(crate) fn run_range(sweep: &Sweep, scheme: Scheme, first: u64, count: u64) -> RunReport {
    let (mut results, stats) = run_many(sweep, &[scheme], first, count, TrialKernel::BitSliced);
    // invariant: run_many returns exactly one result per input scheme.
    let result = results.pop().expect("one scheme in, one result out");
    RunReport { result, stats }
}

/// The one lifetime run: simulates trials `[first, first + count)` of
/// every scheme in `schemes` under `sweep` (its `samples` field is not
/// consulted) over one work-stealing pool.
///
/// All `schemes.len() × count` trials interleave across the workers, so a
/// seven-scheme sweep saturates the machine instead of running seven
/// serial barriers. Trial randomness is keyed by `(seed, scheme, trial)`
/// — never by worker, batch composition or range partition — so each
/// result is bit-identical to a solo run of its scheme, and accumulating
/// consecutive range runs with [`SchemeResult::merge_from`] reproduces a
/// batch run of the union.
pub(crate) fn run_many(
    sweep: &Sweep,
    schemes: &[Scheme],
    first: u64,
    count: u64,
    kernel: TrialKernel,
) -> (Vec<SchemeResult>, RunStats) {
    assert!(count > 0, "need at least one sample");
    assert!(sweep.years > 0.0, "lifetime must be positive");
    let threads = resolve_threads(sweep.threads);
    let years = sweep.years.ceil() as usize;
    let models: Vec<SchemeModel> = schemes
        .iter()
        .map(|&s| SchemeModel::new(s, sweep.params))
        .collect();
    let contexts: Vec<(LifetimeSampler<'_>, Streams)> =
        models.iter().map(|m| trial_context(sweep, m)).collect();
    let chunks_per_scheme = count.div_ceil(STEAL_CHUNK);
    // invariant: chunks_per_scheme ≤ samples and scheme counts are tiny
    // (≤ dozens), so the chunk-id space cannot overflow u64 for any
    // simulation size a machine can actually run.
    let total_chunks = chunks_per_scheme
        .checked_mul(models.len() as u64)
        .expect("chunk-id space overflow");

    // Capture the caller's span context before fanning out: the caller
    // runs as worker 0, but the spawned workers are fresh threads, so the
    // tracing thread-local does not propagate to them on its own.
    let span_ctx = trace::current();
    // One flag load per run: chunk-grain telemetry costs four atomic
    // updates and two clock reads per STEAL_CHUNK (4096) trials — ~0.1 %
    // of a chunk's work — and vanishes entirely when telemetry is off.
    let telemetry_on = xed_telemetry::enabled();

    // Wall-clock timing is reporting-only metadata; the simulation
    // itself stays deterministic.
    let start = Instant::now(); // xed-analyze: allow(XL005) — reporting only
    let per_worker = steal_chunks(
        threads,
        total_chunks,
        || {
            let partials: Vec<Partial> = models.iter().map(|_| Partial::new(years)).collect();
            (partials, Scratch::default())
        },
        |(partials, scratch), c| {
            // Chunk `c` covers trials `[first + offset ..][..n]` of scheme
            // `c / chunks_per_scheme`.
            let si = (c / chunks_per_scheme) as usize;
            let offset = (c % chunks_per_scheme) * STEAL_CHUNK;
            let n = STEAL_CHUNK.min(count - offset);
            let (sampler, streams) = &contexts[si];
            // Chunk wall time is reporting-only metadata (never fed back
            // into the simulation), same as the outer timer. The clock is
            // also read when the calling request is traced, so each chunk
            // can land in the flight recorder as a SchedulerChunk span.
            let chunk_start = (telemetry_on || span_ctx.is_some()).then(Instant::now); // xed-analyze: allow(XL005) — reporting only
            run_trials(
                &models[si],
                sampler,
                streams,
                kernel,
                first + offset,
                n,
                years,
                &mut partials[si],
                scratch,
            );
            if let Some(start) = chunk_start {
                let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if telemetry_on {
                    metrics::FAULTSIM_STEAL_CHUNKS.incr();
                    metrics::FAULTSIM_STEAL_CHUNK_TRIALS.record(n);
                    metrics::FAULTSIM_CHUNK_NS.record(ns);
                    metrics::FAULTSIM_TRIAL_NS.record(ns / n);
                }
                if let Some(ctx) = span_ctx {
                    let t_end = trace::now_ns();
                    trace::record_span(SpanEvent {
                        trace_id: ctx.trace_id,
                        span_id: trace::next_span_id(),
                        parent: ctx.span_id,
                        phase: Phase::SchedulerChunk,
                        a: n,
                        t_start: t_end.saturating_sub(ns),
                        t_end,
                    });
                }
            }
        },
    );
    let wall_seconds = start.elapsed().as_secs_f64();

    let mut zero_fault_samples = 0u64;
    let mut bitslice_blocks = 0u64;
    let mut bitslice_spills = 0u64;
    let mut inert_elided = 0u64;
    let mut quiet_trials = 0u64;
    let mut quiet_single = 0u64;
    let results: Vec<SchemeResult> = schemes
        .iter()
        .enumerate()
        .map(|(si, &scheme)| {
            let mut total = Partial::new(years);
            for (partials, _) in &per_worker {
                total.merge_from(&partials[si]);
            }
            zero_fault_samples += total.zero_fault;
            bitslice_blocks += total.bitslice_blocks;
            bitslice_spills += total.bitslice_spills;
            inert_elided += total.inert_elided;
            quiet_trials += total.quiet_trials;
            quiet_single += total.quiet_single;
            SchemeResult {
                scheme,
                samples: count,
                failures_by_year: total.failures_by_year,
                due: total.due,
                sdc: total.sdc,
                failures_by_extent: total.by_extent,
            }
        })
        .collect();

    let samples = count * schemes.len() as u64;
    let stats = RunStats {
        wall_seconds,
        samples_per_sec: samples as f64 / wall_seconds.max(1e-9),
        threads,
        samples,
        zero_fault_samples,
    };

    // Publish-at-merge (DESIGN.md §11): the hot loop accumulated into
    // owned partials; the global registry counters are bumped once per
    // invocation, here at the join point.
    if xed_telemetry::enabled() {
        metrics::FAULTSIM_RUNS.incr();
        metrics::FAULTSIM_TRIALS.add(samples);
        metrics::FAULTSIM_ZERO_FAULT_TRIALS.add(zero_fault_samples);
        metrics::FAULTSIM_DUE.add(results.iter().map(|r| r.due).sum());
        metrics::FAULTSIM_SDC.add(results.iter().map(|r| r.sdc).sum());
        metrics::FAULTSIM_BITSLICE_BLOCKS.add(bitslice_blocks);
        metrics::FAULTSIM_BITSLICE_SPILLS.add(bitslice_spills);
        metrics::FAULTSIM_TIMELINE_INERT_ELIDED.add(inert_elided);
        metrics::FAULTSIM_TIMELINE_QUIET_TRIALS.add(quiet_trials);
        metrics::FAULTSIM_TIMELINE_QUIET_SINGLE_TRIALS.add(quiet_single);
    }
    (results, stats)
}

/// Replays trial `trial` of `scheme` under `sweep` through the production
/// trial body, recording every classifier decision (see
/// [`Sweep::replay_trial`]).
pub(crate) fn replay_trial(sweep: &Sweep, scheme: Scheme, trial: u64) -> TrialReplay {
    let years = sweep.years.ceil() as usize;
    let model = SchemeModel::new(scheme, sweep.params);
    let (sampler, streams) = trial_context(sweep, &model);
    let mut partial = Partial::new(years);
    let mut steps = Vec::new();
    run_trial(
        &model,
        &sampler,
        &streams,
        trial,
        streams.split_first(trial),
        years,
        false,
        &mut partial,
        &mut Scratch::default(),
        |step| steps.push(step),
    );
    // A failure can only be the last recorded step; its year bucket is
    // read back from the tally the aggregate run would fold.
    let failure = steps
        .last()
        .filter(|s| s.verdict.is_failure())
        .map(|s| TrialFailure {
            due: s.verdict == Verdict::Due,
            year: partial
                .failures_by_year
                .iter()
                .position(|&n| n > 0)
                .unwrap_or(0),
            extent_index: s.extent.index(),
        });
    TrialReplay {
        scheme,
        trial,
        zero_fault: partial.zero_fault > 0,
        steps,
        failure,
    }
}

/// Per-worker, per-scheme accumulator: plain owned counts whose merge is
/// a commutative add, the foundation of thread-count invariance.
#[derive(Default)]
struct Partial {
    failures_by_year: Vec<u64>,
    due: u64,
    sdc: u64,
    zero_fault: u64,
    /// Failures by extent, indexed like [`crate::fault::FaultExtent::ALL`].
    by_extent: [u64; 6],
    /// 64-lane blocks classified by the bit-sliced kernel.
    bitslice_blocks: u64,
    /// Trials a bit-sliced block spilled to the scalar event machinery
    /// (the popcount of the block's `nonzero` word).
    bitslice_spills: u64,
    /// Single-bit faults sampled but never walked because the model proves
    /// them inert (see [`run_trial`]).
    inert_elided: u64,
    /// Multi-fault trials the kernels ended before the sort and the walk
    /// because their timeline is quiet (see [`run_trial`]).
    quiet_trials: u64,
    /// Single-fault trials the kernels ended at the fault's mode draw
    /// because the mode is quiet (see [`run_trial`]).
    quiet_single: u64,
}

impl Partial {
    fn new(years: usize) -> Self {
        Self {
            failures_by_year: vec![0; years],
            ..Self::default()
        }
    }

    /// Adds `other`'s counts into `self`.
    fn merge_from(&mut self, other: &Partial) {
        for (a, b) in self
            .failures_by_year
            .iter_mut()
            .zip(&other.failures_by_year)
        {
            *a += b;
        }
        for (a, b) in self.by_extent.iter_mut().zip(&other.by_extent) {
            *a += b;
        }
        self.due += other.due;
        self.sdc += other.sdc;
        self.zero_fault += other.zero_fault;
        self.bitslice_blocks += other.bitslice_blocks;
        self.bitslice_spills += other.bitslice_spills;
        self.inert_elided += other.inert_elided;
        self.quiet_trials += other.quiet_trials;
        self.quiet_single += other.quiet_single;
    }
}

/// Reusable per-worker scratch buffers, shared by the lifetime driver and
/// the rare-event engine; allocated once per worker, reused for every
/// trial (the hot loop itself never allocates once they have grown to the
/// largest timeline seen).
#[derive(Default)]
pub(crate) struct Scratch {
    /// Current trial's fault timeline.
    pub(crate) events: Vec<FaultEvent>,
    /// Faults still active during the walk: the slice
    /// `SchemeModel::evaluate` reads, compacted in place as faults expire.
    active: Vec<FaultEvent>,
    /// `expiry[i]` is when `active[i]` stops counting (kept in lockstep):
    /// permanent faults never expire; corrected transient faults linger
    /// for the configured exposure window before a read/scrub cleans them.
    expiry: Vec<f64>,
}

/// Simulates trials `[first, first + count)` of one scheme into `partial`:
/// the bit-sliced kernel takes every whole 64-trial block, and the scalar
/// loop takes whatever is left (all of it under [`TrialKernel::Scalar`]).
#[allow(clippy::too_many_arguments)]
fn run_trials(
    model: &SchemeModel,
    sampler: &LifetimeSampler<'_>,
    streams: &Streams,
    kernel: TrialKernel,
    first: u64,
    count: u64,
    years: usize,
    partial: &mut Partial,
    scratch: &mut Scratch,
) {
    let end = first + count;
    let scalar_from = match kernel {
        TrialKernel::BitSliced => {
            run_trials_bitsliced(model, sampler, streams, first, end, years, partial, scratch)
        }
        TrialKernel::Scalar => first,
    };
    for trial in scalar_from..end {
        // Trial randomness is the split form of stream `trial`: the
        // headline draw decides the zero-fault fast path without paying
        // for generator construction, and `split_rest` carries the (rare)
        // remaining draws. Still a pure function of `(seed, scheme,
        // trial)` — thread-count invariance intact.
        let u0 = streams.split_first(trial);
        run_trial(
            model,
            sampler,
            streams,
            trial,
            u0,
            years,
            true,
            partial,
            scratch,
            |_| {},
        );
    }
}

/// The bit-sliced kernel: classifies the whole 64-trial blocks of
/// `[first, end)` and returns where they stop (the short remainder is left
/// to the scalar loop).
///
/// Per block, one [`Streams::split_first_block`] fills the 64 headline
/// draws (one Weyl add + SplitMix64 mix per lane — the index multiply is
/// hoisted), [`LifetimeSampler::nonzero_mask`] transposes the zero-fault
/// decisions into one word, a single popcount credits the whole block's
/// zero-fault trials to the tally, and only the set bits spill into
/// [`run_trial`]. Spilled lanes consume *exactly* the draws the scalar
/// kernel would — `u0` is handed over, `split_rest` is keyed by trial —
/// so results are bit-identical to [`TrialKernel::Scalar`] by
/// construction.
#[allow(clippy::too_many_arguments)]
fn run_trials_bitsliced(
    model: &SchemeModel,
    sampler: &LifetimeSampler<'_>,
    streams: &Streams,
    first: u64,
    end: u64,
    years: usize,
    partial: &mut Partial,
    scratch: &mut Scratch,
) -> u64 {
    let mut block = first;
    let mut u0s = [0u64; LANES as usize];
    while block + LANES <= end {
        streams.split_first_block(block, &mut u0s);
        let nonzero = sampler.nonzero_mask(&u0s);
        let spills = u64::from(nonzero.count_ones());
        partial.zero_fault += LANES - spills;
        partial.bitslice_blocks += 1;
        partial.bitslice_spills += spills;
        let mut m = nonzero;
        while m != 0 {
            let lane = m.trailing_zeros() as u64;
            m &= m - 1;
            // indexing: lane < 64 (trailing_zeros of a non-zero u64).
            let u0 = u0s[lane as usize];
            run_trial(
                model,
                sampler,
                streams,
                block + lane,
                u0,
                years,
                true,
                partial,
                scratch,
                |_| {},
            );
        }
        block += LANES;
    }
    block
}

/// Evaluates one trial whose headline draw `u0` is already taken,
/// crediting its outcome to `partial` and reporting every classifier
/// decision to `on_step`. The single per-trial body: the scalar kernel
/// calls it for every trial, the bit-sliced kernel only for spilled lanes
/// (where the `is_zero_fault` test is a redundant-but-cheap recheck that
/// keeps the draw sequence identical), both with a no-op `on_step` that
/// monomorphises away; [`replay_trial`] passes a recorder.
///
/// A multi-fault trial draws all its events first, then orders them by
/// arrival and walks them. `elide_inert` (the kernels' setting) cuts
/// trial work in three ways that cannot change a verdict or a draw:
///
/// * a lone fault of a *quiet* mode (Benign or Corrected in isolation,
///   without a draw: [`SchemeModel::is_quiet`]) ends the trial at its mode
///   draw, without a failure, and is tallied in
///   `faultsim.timeline.quiet_single_trials` at merge;
/// * with a model whose single-bit faults are inert
///   ([`SchemeModel::bit_always_benign`]), single-bit faults are drawn in
///   full but left out of the timeline;
/// * a *quiet* timeline — no two kept faults in one protection domain,
///   every kept fault of a quiet mode
///   ([`SchemeModel::is_quiet_timeline`]) — ends the trial right after
///   the draws, without a failure, and is tallied in
///   `faultsim.timeline.quiet_trials` at merge.
///
/// Each skipped evaluation could only have returned Corrected or Benign,
/// and the trial's stream has no later reader. The replay passes `false`,
/// so its steps and active counts still show every fault, and it
/// evaluates every trial in full.
#[allow(clippy::too_many_arguments)]
fn run_trial(
    model: &SchemeModel,
    sampler: &LifetimeSampler<'_>,
    streams: &Streams,
    trial: u64,
    u0: u64,
    years: usize,
    elide_inert: bool,
    partial: &mut Partial,
    scratch: &mut Scratch,
    mut on_step: impl FnMut(TrialStep),
) {
    if sampler.is_zero_fault(u0) {
        partial.zero_fault += 1;
        return;
    }
    let mut rng = streams.split_rest(trial);
    let (verdict, time_hours, extent) = match sampler.count_split(u0, &mut rng) {
        0 => {
            // Unreachable for λ ≤ 30 (is_zero_fault caught it); kept for
            // the chunked large-λ Poisson path, where the headline draw
            // alone cannot prove the count is zero.
            partial.zero_fault += 1;
            return;
        }
        1 => {
            // Single-fault lifetime (~86 % of the non-empty ones): the
            // only evaluation sees an empty active set, where the verdict
            // never depends on the chip or address range the fault struck
            // (`SchemeModel::evaluate_isolated`). Skip those draws, the
            // event buffer, and the active-set bookkeeping entirely.
            let (extent, persistence) = sampler.sample_mode(&mut rng);
            if elide_inert && model.is_quiet(extent, persistence) {
                partial.quiet_single += 1;
                return;
            }
            let time_hours = sampler.sample_time(&mut rng);
            let verdict = model.evaluate_isolated(&mut rng, extent, persistence);
            on_step(TrialStep {
                time_hours,
                chip: None,
                extent,
                persistence,
                active: 0,
                verdict,
            });
            (verdict, time_hours, extent)
        }
        count => {
            let elide_bits = elide_inert && model.bit_always_benign();
            scratch.events.clear();
            let elided = sampler.events_append(count, &mut rng, &mut scratch.events, elide_bits);
            partial.inert_elided += u64::from(elided);
            if elide_inert && model.is_quiet_timeline(&scratch.events) {
                partial.quiet_trials += 1;
                return;
            }
            sort_by_arrival(&mut scratch.events);
            let failed = walk_timeline(model, &mut rng, scratch, |e, active, verdict| {
                on_step(TrialStep {
                    time_hours: e.time_hours,
                    chip: Some(e.chip),
                    extent: e.fault.extent,
                    persistence: e.fault.persistence,
                    active,
                    verdict,
                });
            });
            let Some((verdict, e)) = failed else {
                return;
            };
            (verdict, e.time_hours, e.fault.extent)
        }
    };
    if verdict.is_failure() {
        let year = ((time_hours * YEAR_RECIP) as usize).min(years - 1);
        // indexing: year is clamped to years - 1 above.
        partial.failures_by_year[year] += 1;
        // indexing: FaultExtent has six variants, one per slot.
        partial.by_extent[extent.index()] += 1;
        if verdict == Verdict::Due {
            partial.due += 1;
        } else {
            partial.sdc += 1;
        }
    }
}

/// The trial timeline walk: evaluates the faults of `scratch.events` in
/// arrival order against `model`, first expiring every active fault whose
/// exposure window has closed, and stops at the first DUE/SDC, returning
/// it with the fault that caused it. Each decision is reported to
/// `on_step` as `(fault, faults still active, verdict)`. Corrected and
/// benign faults stay active — permanent ones for good, transient ones for
/// the model's `transient_exposure_hours`.
///
/// The active set is one `Vec` handed to `evaluate` as a slice, with the
/// expiry times alongside; it is compacted in place only when the earliest
/// expiry has passed, which never happens with a zero exposure window
/// (transients then never join, and permanent faults never expire).
///
/// The one copy of this loop: the lifetime driver's multi-fault trials,
/// [`replay_trial`] and the rare-event engine all walk through it.
pub(crate) fn walk_timeline(
    model: &SchemeModel,
    rng: &mut StdRng,
    scratch: &mut Scratch,
    mut on_step: impl FnMut(&FaultEvent, usize, Verdict),
) -> Option<(Verdict, FaultEvent)> {
    let exposure = model.params().transient_exposure_hours;
    let Scratch {
        events,
        active,
        expiry,
    } = scratch;
    active.clear();
    expiry.clear();
    let mut next_expiry = f64::INFINITY;
    for e in events.iter() {
        if next_expiry <= e.time_hours {
            next_expiry = expire(active, expiry, e.time_hours);
        }
        let verdict = model.evaluate(rng, e, active);
        on_step(e, active.len(), verdict);
        let until = match verdict {
            Verdict::Due | Verdict::Sdc => return Some((verdict, *e)),
            Verdict::Corrected | Verdict::Benign => match e.fault.persistence {
                Persistence::Permanent => f64::INFINITY,
                Persistence::Transient if exposure > 0.0 => e.time_hours + exposure,
                Persistence::Transient => continue,
            },
        };
        next_expiry = next_expiry.min(until);
        // The worker's scratch keeps its capacity across trials.
        // alloc: amortized growth of that reused scratch.
        active.push(*e);
        expiry.push(until);
    }
    None
}

/// Drops every active fault whose expiry is at or before `now`, keeping
/// the survivors' order, and returns the earliest remaining expiry.
fn expire(active: &mut Vec<FaultEvent>, expiry: &mut Vec<f64>, now: f64) -> f64 {
    let mut kept = 0;
    let mut next = f64::INFINITY;
    for i in 0..active.len() {
        // indexing: expiry is kept in lockstep with active, and
        // kept ≤ i < active.len().
        let until = expiry[i];
        if until > now {
            // indexing: kept ≤ i < active.len() = expiry.len().
            active[kept] = active[i];
            // indexing: as above.
            expiry[kept] = until;
            kept += 1;
            next = next.min(until);
        }
    }
    active.truncate(kept);
    expiry.truncate(kept);
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{FitRates, ModeRate};
    use crate::schemes::ModelParams;

    fn quick(samples: u64) -> Sweep {
        Sweep::new(samples, 7)
    }

    /// One scheme under `sweep` with an explicit kernel.
    fn run_with(sweep: &Sweep, scheme: Scheme, kernel: TrialKernel) -> SchemeResult {
        let (mut results, _) = run_many(sweep, &[scheme], 0, sweep.samples, kernel);
        results.pop().expect("one scheme in, one result out")
    }

    /// A worn-part configuration that keeps the multi-fault walk and the
    /// transient expiry busy: 10× the Table I FIT rates and a month-long
    /// transient exposure window.
    fn stressed(samples: u64) -> Sweep {
        let rows = FitRates::table_i()
            .rows()
            .iter()
            .map(|r| ModeRate {
                transient_fit: r.transient_fit * 10.0,
                permanent_fit: r.permanent_fit * 10.0,
                ..*r
            })
            .collect();
        quick(samples)
            .with_rates(FitRates::custom(rows))
            .with_params(ModelParams {
                transient_exposure_hours: 30.0 * 24.0,
                ..ModelParams::default()
            })
    }

    /// Every worker's state after a `steal_chunks` run: the thread it was
    /// built on and the chunks it claimed, each checked to run on that
    /// same thread.
    fn claimed_chunks(threads: usize, chunks: u64) -> Vec<(std::thread::ThreadId, Vec<u64>)> {
        steal_chunks(
            threads,
            chunks,
            || (std::thread::current().id(), Vec::new()),
            |(id, seen): &mut (_, Vec<u64>), c| {
                assert_eq!(std::thread::current().id(), *id, "chunk {c}");
                seen.push(c);
            },
        )
    }

    #[test]
    fn one_thread_runs_every_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        for chunks in [1, 5, 64] {
            let states = claimed_chunks(1, chunks);
            assert_eq!(states.len(), 1, "{chunks} chunks");
            assert_eq!(states[0].0, caller, "{chunks} chunks");
            assert_eq!(states[0].1, (0..chunks).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_chunk_is_claimed_exactly_once_by_at_most_min_threads_chunks_workers() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 3, 8] {
            for chunks in [0u64, 1, 5, 64] {
                let states = claimed_chunks(threads, chunks);
                let workers = threads.min(chunks as usize);
                assert!(
                    states.len() <= workers,
                    "{threads} threads, {chunks} chunks"
                );
                // The caller is worker 0; every other worker is its own
                // thread.
                if let Some((id, _)) = states.first() {
                    assert_eq!(*id, caller, "{threads} threads, {chunks} chunks");
                }
                let ids: std::collections::HashSet<_> = states.iter().map(|(id, _)| id).collect();
                assert_eq!(
                    ids.len(),
                    states.len(),
                    "{threads} threads, {chunks} chunks"
                );
                let mut claimed: Vec<u64> = states.into_iter().flat_map(|(_, c)| c).collect();
                claimed.sort_unstable();
                assert_eq!(
                    claimed,
                    (0..chunks).collect::<Vec<_>>(),
                    "{threads} threads, {chunks} chunks"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mc = quick(20_000);
        let a = mc.run_one(Scheme::EccDimm).result;
        let b = mc.run_one(Scheme::EccDimm).result;
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_never_changes_results() {
        // The tentpole invariant: bit-identical SchemeResult for any
        // thread count (work assignment must not leak into randomness).
        for scheme in [Scheme::Xed, Scheme::EccDimm] {
            let results: Vec<SchemeResult> = [1usize, 3, 8]
                .iter()
                .map(|&threads| quick(50_000).with_threads(threads).run_one(scheme).result)
                .collect();
            assert_eq!(results[0], results[1], "{scheme}: 1 vs 3 threads");
            assert_eq!(results[0], results[2], "{scheme}: 1 vs 8 threads");
        }
    }

    /// The kernel's tallies of `scheme`'s trials `[0, sweep.samples)`.
    fn kernel_partial(sweep: &Sweep, scheme: Scheme, kernel: TrialKernel) -> Partial {
        let years = sweep.years.ceil() as usize;
        let model = SchemeModel::new(scheme, sweep.params);
        let (sampler, streams) = trial_context(sweep, &model);
        let mut partial = Partial::new(years);
        run_trials(
            &model,
            &sampler,
            &streams,
            kernel,
            0,
            sweep.samples,
            years,
            &mut partial,
            &mut Scratch::default(),
        );
        partial
    }

    /// What a trial tallies into its `SchemeResult`, plus the zero-fault
    /// count.
    fn outcome(p: &Partial) -> (&[u64], u64, u64, [u64; 6], u64) {
        (&p.failures_by_year, p.due, p.sdc, p.by_extent, p.zero_fault)
    }

    /// For each whole 64-trial block of `scheme`'s trials under `sweep`,
    /// the spilled lanes that end at their mode draw (a lone fault of a
    /// quiet mode) and the ones that go on, derived from the stream
    /// directly rather than through `run_trial`.
    fn lane_split(sweep: &Sweep, scheme: Scheme) -> Vec<(u64, u64)> {
        let model = SchemeModel::new(scheme, sweep.params);
        let (sampler, streams) = trial_context(sweep, &model);
        (0..sweep.samples / LANES)
            .map(|b| {
                let (mut ended, mut went_on) = (0, 0);
                for trial in b * LANES..(b + 1) * LANES {
                    let u0 = streams.split_first(trial);
                    if sampler.is_zero_fault(u0) {
                        continue;
                    }
                    let mut rng = streams.split_rest(trial);
                    let quiet = sampler.count_split(u0, &mut rng) == 1 && {
                        let (extent, persistence) = sampler.sample_mode(&mut rng);
                        model.is_quiet(extent, persistence)
                    };
                    ended += u64::from(quiet);
                    went_on += u64::from(!quiet);
                }
                (ended, went_on)
            })
            .collect()
    }

    #[test]
    fn bit_sliced_kernel_is_bit_identical_to_scalar() {
        // The bit-sliced kernel must reproduce the scalar path bit for
        // bit: same streams, same draws, same verdicts per trial. Sample
        // counts straddle block boundaries (64·k, ±1) so the scalar tail
        // path is exercised too. Combined with
        // `replaying_every_trial_reproduces_the_aggregate_result` (which
        // pins the scalar semantics per trial), aggregate equality here
        // proves the per-trial failure sets are identical — each trial's
        // stream is keyed by (seed, scheme, trial), never by kernel.
        //
        // A spilled lane either ends at its mode draw (a lone fault of a
        // quiet mode) or goes on to the full body, so each set must hold
        // blocks that mix the two; at 10× rates almost every lane spills
        // and most go on.
        for samples in [6_336u64, 6_337, 6_399] {
            for (set, sweep) in [quick(samples), stressed(samples)].iter().enumerate() {
                for scheme in [Scheme::EccDimm, Scheme::Xed, Scheme::XedChipkill] {
                    assert_eq!(
                        run_with(sweep, scheme, TrialKernel::BitSliced),
                        run_with(sweep, scheme, TrialKernel::Scalar),
                        "set {set}: {scheme} at {samples} samples"
                    );
                    let split = lane_split(sweep, scheme);
                    let mixed = split.iter().filter(|&&(e, g)| e > 0 && g > 0).count();
                    assert!(mixed > 0, "set {set}: {scheme} has no mixed block");
                    let kernel = kernel_partial(sweep, scheme, TrialKernel::BitSliced);
                    let ended: u64 = split.iter().map(|&(e, _)| e).sum();
                    let spilled: u64 = split.iter().map(|&(e, g)| e + g).sum();
                    assert_eq!(kernel.bitslice_spills, spilled, "set {set}: {scheme}");
                    // The scalar tail past the last whole block takes the
                    // same exit, so it may add to the blocks' count.
                    assert!(
                        (ended..=ended + samples % LANES).contains(&kernel.quiet_single),
                        "set {set}: {scheme}: {} exits, {ended} in whole blocks",
                        kernel.quiet_single
                    );
                }
            }
        }
    }

    #[test]
    fn single_quiet_fault_exit_matches_the_full_body() {
        // The kernels end a lone fault's trial at its mode draw when the
        // mode is quiet. Against the full count-1 body (arrival time and
        // `evaluate_isolated`, as the replay runs it) on the same trials,
        // for every scheme under four parameter variants: the kernel's
        // tallies are equal, the exit fires on exactly the count-1 trials
        // of a quiet mode, and the full body found each of those Benign
        // or Corrected.
        const TRIALS: u64 = 20_000;
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
                scaling: crate::scaling::ScalingFaults::with_rate(1e-2),
                ..ModelParams::default()
            },
        ];
        for (set, params) in variants.into_iter().enumerate() {
            let sweep = quick(TRIALS).with_params(params);
            let years = sweep.years.ceil() as usize;
            let mut exits = 0;
            for scheme in Scheme::ALL {
                let kernel = kernel_partial(&sweep, scheme, TrialKernel::BitSliced);
                let model = SchemeModel::new(scheme, params);
                let (sampler, streams) = trial_context(&sweep, &model);
                let mut full = Partial::new(years);
                let mut scratch = Scratch::default();
                let mut quiet_singles = 0;
                for trial in 0..TRIALS {
                    let mut steps = 0;
                    let mut last = None;
                    run_trial(
                        &model,
                        &sampler,
                        &streams,
                        trial,
                        streams.split_first(trial),
                        years,
                        false,
                        &mut full,
                        &mut scratch,
                        |step| {
                            steps += 1;
                            last = Some(step);
                        },
                    );
                    // A count-1 trial is one step on no particular chip.
                    let Some(step) = last.filter(|s| steps == 1 && s.chip.is_none()) else {
                        continue;
                    };
                    if model.is_quiet(step.extent, step.persistence) {
                        quiet_singles += 1;
                        assert!(
                            !step.verdict.is_failure(),
                            "set {set}: {scheme} trial {trial}: {step:?}"
                        );
                    }
                }
                assert_eq!(outcome(&kernel), outcome(&full), "set {set}: {scheme}");
                assert_eq!(kernel.quiet_single, quiet_singles, "set {set}: {scheme}");
                assert_eq!(full.quiet_single, 0, "set {set}: {scheme}");
                exits += kernel.quiet_single;
            }
            assert!(exits > 0, "set {set}: no single-fault exit");
        }
    }

    #[test]
    fn merged_range_runs_are_bit_identical_to_one_batch_run() {
        // The streaming contract: accumulating consecutive range runs with
        // merge_from reproduces the batch run of the union bit for bit.
        // Block sizes straddle both the 64-lane bit-sliced blocks and the
        // 4096-trial steal chunks, so unaligned range starts are covered.
        let mc = quick(20_000);
        for scheme in [Scheme::EccDimm, Scheme::Xed] {
            let batch = mc.run_one(scheme).result;
            for block in [1_000u64, 4_096, 4_100, 6_337] {
                let mut done = 0u64;
                let mut acc: Option<SchemeResult> = None;
                while done < 20_000 {
                    let n = block.min(20_000 - done);
                    let part = run_range(&mc, scheme, done, n).result;
                    match acc.as_mut() {
                        Some(acc) => acc.merge_from(&part),
                        None => acc = Some(part),
                    }
                    done += n;
                }
                assert_eq!(
                    acc.expect("at least one block"),
                    batch,
                    "{scheme} at block size {block}"
                );
            }
        }
    }

    #[test]
    fn range_prefix_matches_smaller_batch_run() {
        // A partial estimate after N trials must equal what a batch run of
        // exactly N samples reports — the bit-reproducibility claim xedd
        // makes for every streamed chunk.
        for n in [4_096u64, 5_000, 12_288] {
            let prefix = run_range(&quick(20_000), Scheme::Xed, 0, n).result;
            let batch = quick(n).run_one(Scheme::Xed).result;
            assert_eq!(prefix, batch, "prefix of {n} trials");
        }
    }

    /// What the bit-sliced kernel left out of the timelines of `scheme`
    /// under `sweep`: `(single-bit faults elided, quiet trials ended
    /// before the sort and the walk)`.
    fn timeline_savings(sweep: &Sweep, scheme: Scheme) -> (u64, u64) {
        let partial = kernel_partial(sweep, scheme, TrialKernel::BitSliced);
        (partial.inert_elided, partial.quiet_trials)
    }

    #[test]
    fn replaying_every_trial_reproduces_the_aggregate_result() {
        // replay_trial must consume the identical stream the aggregate
        // run does, so folding all replays together is the aggregate
        // SchemeResult, bit for bit. This is what licenses the golden
        // traces to describe "what the simulator did" for a trial. At
        // Table I rates few trials reach the multi-fault walk and almost
        // none see a transient expire, so the stressed sets pin those
        // paths too — under both kernels, for every scheme.
        //
        // The replay walks every fault, while the kernels leave inert
        // single-bit faults out of their timelines and end quiet trials
        // before the walk; agreement here is what shows the elision and
        // the quiet exit change no verdict and no draw. The last set
        // makes single-bit faults live (scaling faults collide with half
        // the struck words, and the coarse intersection model counts any
        // coexisting fault), so the kernels keep every fault there.
        let live_bits = ModelParams {
            scaling: crate::scaling::ScalingFaults::with_rate(1e-2),
            require_line_intersection: false,
            ..stressed(0).params
        };
        let sets = [
            quick(6_000),
            stressed(6_000),
            stressed(6_000).with_params(live_bits),
        ];
        for (set, mc) in sets.iter().enumerate() {
            let years = mc.years.ceil() as usize;
            let mut multi_fault = 0;
            let mut expiries = 0;
            let mut elided = 0;
            let mut quiet = 0;
            for scheme in Scheme::ALL {
                let mut folded = SchemeResult {
                    scheme,
                    samples: 6_000,
                    failures_by_year: vec![0; years],
                    due: 0,
                    sdc: 0,
                    failures_by_extent: [0; 6],
                };
                for trial in 0..6_000 {
                    let replay = mc.replay_trial(scheme, trial);
                    multi_fault += usize::from(replay.steps.len() > 1);
                    // With a positive exposure window every surviving
                    // fault joins the active set, so a step that sees no
                    // more active faults than its predecessor did follows
                    // an expiry.
                    expiries += replay
                        .steps
                        .windows(2)
                        .filter(|w| w[1].active <= w[0].active)
                        .count();
                    if let Some(f) = replay.failure {
                        folded.failures_by_year[f.year] += 1;
                        folded.failures_by_extent[f.extent_index] += 1;
                        if f.due {
                            folded.due += 1;
                        } else {
                            folded.sdc += 1;
                        }
                    }
                }
                for kernel in [TrialKernel::BitSliced, TrialKernel::Scalar] {
                    let aggregate = run_with(mc, scheme, kernel);
                    assert_eq!(folded, aggregate, "set {set}: {scheme} ({kernel:?})");
                }
                let (e, q) = timeline_savings(mc, scheme);
                elided += e;
                quiet += q;
            }
            assert!(multi_fault > 0, "set {set}: no multi-fault trial");
            if mc.params.transient_exposure_hours > 0.0 {
                assert!(expiries > 0, "set {set}: no transient expired");
            }
            if SchemeModel::new(Scheme::Xed, mc.params).bit_always_benign() {
                assert!(elided > 0, "set {set}: no inert fault elided");
            } else {
                assert_eq!(elided, 0, "set {set}: live single-bit faults elided");
            }
            if mc.params.transient_exposure_hours > 0.0 {
                assert!(quiet > 0, "set {set}: no quiet trial took the exit");
            }
        }
    }

    #[test]
    fn replay_timeline_is_consistent() {
        let mc = quick(4_000);
        for trial in 0..4_000 {
            let replay = mc.replay_trial(Scheme::Xed, trial);
            assert_eq!(replay.zero_fault, replay.steps.is_empty());
            // Evaluation stops at the first failure, so a failure verdict
            // may only appear on the final step.
            for step in &replay.steps[..replay.steps.len().saturating_sub(1)] {
                assert!(matches!(step.verdict, Verdict::Benign | Verdict::Corrected));
            }
            if let Some(f) = replay.failure {
                // invariant: failure implies at least one step, and its
                // verdict must agree with the failure record.
                let last = replay.steps.last().expect("failure without steps");
                assert_eq!(f.due, last.verdict == Verdict::Due);
            }
            // Arrival order is non-decreasing in time.
            for pair in replay.steps.windows(2) {
                assert!(pair[0].time_hours <= pair[1].time_hours);
            }
        }
    }

    #[test]
    fn confidence99_is_wider_than_confidence95_by_z_ratio() {
        let r = SchemeResult {
            scheme: Scheme::EccDimm,
            samples: 1_000_000,
            failures_by_year: vec![],
            due: 300,
            sdc: 100,
            failures_by_extent: [0; 6],
        };
        let ratio = r.confidence99() / r.confidence95();
        assert!((ratio - 2.576 / 1.96).abs() < 1e-12, "ratio {ratio}");
    }

    #[test]
    fn run_all_matches_individual_runs() {
        // Batching schemes into one work-stealing pool must not change any
        // scheme's result (streams are keyed by scheme, not batch).
        let mc = quick(30_000);
        let schemes = [Scheme::EccDimm, Scheme::Xed, Scheme::Chipkill];
        let (batched, _) = mc.run_all(&schemes);
        for (scheme, batched) in schemes.iter().zip(&batched) {
            assert_eq!(*batched, mc.run_one(*scheme).result, "{scheme}");
        }
    }

    #[test]
    fn run_timed_reports_consistent_stats() {
        let mc = quick(40_000);
        let report = mc.run_one(Scheme::EccDimm);
        assert_eq!(report.result, mc.run_one(Scheme::EccDimm).result);
        assert_eq!(report.stats.samples, 40_000);
        assert!(report.stats.wall_seconds > 0.0);
        assert!(report.stats.samples_per_sec > 0.0);
        assert!(report.stats.threads >= 1);
        // λ ≈ 0.29 for a 72-chip system ⇒ ~75 % zero-fault lifetimes.
        let zero_frac = report.stats.zero_fault_samples as f64 / 40_000.0;
        assert!(
            (0.70..0.80).contains(&zero_frac),
            "zero-fault fraction {zero_frac}"
        );
    }

    #[test]
    fn run_stats_merge_adds_and_recomputes_throughput() {
        let a = RunStats {
            wall_seconds: 1.0,
            samples_per_sec: 100.0,
            threads: 2,
            samples: 100,
            zero_fault_samples: 70,
        };
        let b = RunStats {
            wall_seconds: 3.0,
            samples_per_sec: 100.0,
            threads: 4,
            samples: 300,
            zero_fault_samples: 210,
        };
        let m = a.merge(&b);
        assert_eq!(m.samples, 400);
        assert_eq!(m.zero_fault_samples, 280);
        assert_eq!(m.threads, 4);
        assert!((m.wall_seconds - 4.0).abs() < 1e-12);
        assert!((m.samples_per_sec - 100.0).abs() < 1e-9);
    }

    #[test]
    fn confidence95_matches_hand_computed_binomial_half_width() {
        // 400 failures in 10⁴ samples: p = 0.04, and
        // 1.96·√(0.04·0.96/10⁴) = 1.96·1.9595917942…e-3 = 3.8408…e-3.
        let r = SchemeResult {
            scheme: Scheme::EccDimm,
            samples: 10_000,
            failures_by_year: vec![100, 300, 0, 0, 0, 0, 0],
            due: 300,
            sdc: 100,
            failures_by_extent: [0, 0, 0, 0, 400, 0],
        };
        assert_eq!(r.lifetime_failure_probability(), 0.04);
        let expected = 3.840_799_916_684e-3;
        assert!(
            (r.confidence95() - expected).abs() < 1e-9,
            "got {}",
            r.confidence95()
        );
        // And it shrinks with sample count like 1/√n.
        let bigger = SchemeResult {
            samples: 40_000,
            failures_by_year: vec![400, 1200, 0, 0, 0, 0, 0],
            due: 1200,
            sdc: 400,
            ..r.clone()
        };
        assert!((bigger.confidence95() - expected / 2.0).abs() < 1e-9);
    }

    #[test]
    fn ecc_dimm_fails_around_13_percent() {
        // Analytic: P ≈ 1 − exp(−72 · 33.3e-9 · 61320) ≈ 0.137.
        let r = quick(60_000).run_one(Scheme::EccDimm).result;
        let p = r.failure_probability(7.0);
        assert!((0.11..0.16).contains(&p), "p = {p}");
    }

    #[test]
    fn xed_orders_of_magnitude_better_than_ecc_dimm() {
        let mc = quick(120_000);
        let ecc = mc.run_one(Scheme::EccDimm).result.failure_probability(7.0);
        let xed = mc.run_one(Scheme::Xed).result.failure_probability(7.0);
        assert!(xed > 0.0, "xed should see some failures at 120k samples");
        assert!(ecc / xed > 30.0, "ecc {ecc} / xed {xed} = {}", ecc / xed);
    }

    #[test]
    fn chipkill_between_ecc_and_xed() {
        let mc = quick(120_000);
        let ecc = mc.run_one(Scheme::EccDimm).result.failure_probability(7.0);
        let ck = mc.run_one(Scheme::Chipkill).result.failure_probability(7.0);
        let xed = mc.run_one(Scheme::Xed).result.failure_probability(7.0);
        assert!(ck < ecc, "chipkill {ck} vs ecc {ecc}");
        assert!(xed <= ck, "xed {xed} vs chipkill {ck}");
    }

    #[test]
    fn curve_is_monotone() {
        let r = quick(40_000).run_one(Scheme::EccDimm).result;
        let c = r.curve();
        assert_eq!(c.len(), 7);
        assert!(c.windows(2).all(|w| w[0] <= w[1]));
        assert!((c[6] - r.failure_probability(7.0)).abs() < 1e-12);
    }

    #[test]
    fn non_ecc_failures_are_silent() {
        let r = quick(30_000).run_one(Scheme::NonEcc).result;
        assert_eq!(r.due, 0);
        assert!(r.sdc > 0);
    }

    #[test]
    fn double_chipkill_very_reliable() {
        let r = quick(50_000).run_one(Scheme::DoubleChipkill).result;
        assert!(r.failure_probability(7.0) < 2e-3);
    }

    #[test]
    fn coarse_intersection_model_is_more_pessimistic() {
        let strict = quick(400_000)
            .run_one(Scheme::Xed)
            .result
            .failure_probability(7.0);
        let coarse = quick(400_000)
            .with_params(ModelParams {
                require_line_intersection: false,
                ..Default::default()
            })
            .run_one(Scheme::Xed)
            .result
            .failure_probability(7.0);
        assert!(coarse > strict, "coarse {coarse} vs strict {strict}");
    }

    #[test]
    fn transient_exposure_window_increases_failures() {
        let immediate = quick(400_000)
            .run_one(Scheme::Xed)
            .result
            .failure_probability(7.0);
        // A month-long exposure lets transient faults pair up.
        let exposed = quick(400_000)
            .with_params(ModelParams {
                transient_exposure_hours: 30.0 * 24.0,
                ..Default::default()
            })
            .run_one(Scheme::Xed)
            .result
            .failure_probability(7.0);
        assert!(
            exposed >= immediate,
            "exposure must not reduce failures: {exposed} vs {immediate}"
        );
    }
}
