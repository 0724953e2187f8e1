//! The workspace metric registry: every metric is a static, registered
//! exactly once in [`CATALOGUE`] under a stable dotted ID.
//!
//! IDs are namespaced by the crate that owns the *phenomenon* (not the
//! crate that happens to bump the counter): `faultsim.*` for the
//! Monte-Carlo engine, `memsim.*` for the cycle-level simulator,
//! `core.*` for the functional controllers, and `ecc.*` for decode-kernel
//! work. The ECC kernels themselves stay telemetry-free (their per-word
//! throughput is benchmarked to the nanosecond); `ecc.*` counters are
//! bumped by the kernels' *consumers* at batch boundaries.
//!
//! The catalogue below is machine-checked: xed-analyze rule XL010
//! verifies that every ID appears exactly once here, that every
//! `metrics::NAME` referenced from workspace code is registered, and that
//! the DESIGN.md §11 table lists every ID; XA103 rejects a static that no
//! code outside this file reads or writes.

use crate::counter::Counter;
use crate::export::{MetricSample, SampleValue, Snapshot};
use crate::hist::Histogram;

/// Where a metric's live value comes from.
#[derive(Debug, Clone, Copy)]
pub enum MetricSource {
    /// A sharded monotonic counter.
    Counter(&'static Counter),
    /// A log2 histogram.
    Histogram(&'static Histogram),
}

/// One registered metric: stable ID, human help text, live source.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable dotted ID (e.g. `faultsim.trials`). Never renamed; reports
    /// and downstream tooling key on it.
    pub id: &'static str,
    /// One-line description for the table exporter and DESIGN.md §11.
    pub help: &'static str,
    /// The live metric behind the ID.
    pub source: MetricSource,
}

/// The metric statics. Instrumented code reaches these directly
/// (`registry::metrics::FAULTSIM_TRIALS.add(n)`); exporters go through
/// [`CATALOGUE`].
pub mod metrics {
    use crate::counter::Counter;
    use crate::hist::Histogram;

    // -- faultsim: the Monte-Carlo engine ---------------------------------
    pub static FAULTSIM_RUNS: Counter = Counter::new();
    pub static FAULTSIM_TRIALS: Counter = Counter::new();
    pub static FAULTSIM_ZERO_FAULT_TRIALS: Counter = Counter::new();
    pub static FAULTSIM_DUE: Counter = Counter::new();
    pub static FAULTSIM_SDC: Counter = Counter::new();
    pub static FAULTSIM_STEAL_CHUNKS: Counter = Counter::new();
    pub static FAULTSIM_STEAL_CHUNK_TRIALS: Histogram = Histogram::new();
    pub static FAULTSIM_CHUNK_NS: Histogram = Histogram::new();
    pub static FAULTSIM_TRIAL_NS: Histogram = Histogram::new();
    pub static FAULTSIM_BITSLICE_BLOCKS: Counter = Counter::new();
    pub static FAULTSIM_BITSLICE_SPILLS: Counter = Counter::new();
    pub static FAULTSIM_TIMELINE_INERT_ELIDED: Counter = Counter::new();
    pub static FAULTSIM_TIMELINE_QUIET_TRIALS: Counter = Counter::new();
    pub static FAULTSIM_TAIL_RUNS: Counter = Counter::new();
    pub static FAULTSIM_TAIL_TRIALS: Counter = Counter::new();
    pub static FAULTSIM_TAIL_FORCED_PAIRS: Counter = Counter::new();
    pub static FAULTSIM_TAIL_FALLBACKS: Counter = Counter::new();
    pub static FAULTSIM_TAIL_PILOT_NS: Histogram = Histogram::new();

    // -- xedd: the reliability-as-a-service daemon ------------------------
    pub static XEDD_REQUESTS: Counter = Counter::new();
    pub static XEDD_CACHE_HITS: Counter = Counter::new();
    pub static XEDD_CACHE_MISSES: Counter = Counter::new();
    pub static XEDD_CACHE_EVICTIONS: Counter = Counter::new();
    pub static XEDD_COALESCED: Counter = Counter::new();
    pub static XEDD_EVALUATIONS: Counter = Counter::new();
    pub static XEDD_SHED: Counter = Counter::new();
    pub static XEDD_HTTP_ERRORS: Counter = Counter::new();
    pub static XEDD_STREAM_CHUNKS: Counter = Counter::new();
    pub static XEDD_EARLY_STOPS: Counter = Counter::new();
    pub static XEDD_QUEUE_DEPTH: Histogram = Histogram::new();
    pub static XEDD_TTFC_NS: Histogram = Histogram::new();
    pub static XEDD_REQUEST_NS: Histogram = Histogram::new();
    pub static XEDD_FLIGHT_DUMPS: Counter = Counter::new();
    pub static XEDD_PHASE_ADMISSION_NS: Histogram = Histogram::new();
    pub static XEDD_PHASE_CACHE_NS: Histogram = Histogram::new();
    pub static XEDD_PHASE_COALESCE_NS: Histogram = Histogram::new();
    pub static XEDD_PHASE_EVALUATE_NS: Histogram = Histogram::new();
    pub static XEDD_PHASE_STREAM_NS: Histogram = Histogram::new();
    pub static XEDD_ENDPOINT_HEALTHZ_NS: Histogram = Histogram::new();
    pub static XEDD_ENDPOINT_METRICS_NS: Histogram = Histogram::new();
    pub static XEDD_ENDPOINT_QUERY_NS: Histogram = Histogram::new();
    pub static XEDD_ENDPOINT_FLIGHT_NS: Histogram = Histogram::new();

    // -- telemetry: the tracing subsystem's own bookkeeping ----------------
    pub static TELEMETRY_TRACE_SPANS: Counter = Counter::new();
    pub static TELEMETRY_TRACE_DROPPED: Counter = Counter::new();

    // -- memsim: the cycle-level memory simulator -------------------------
    pub static MEMSIM_SCHED_READS_DONE: Counter = Counter::new();
    pub static MEMSIM_SCHED_WRITES_DONE: Counter = Counter::new();
    pub static MEMSIM_SCHED_QUEUE_DEPTH: Histogram = Histogram::new();
    pub static MEMSIM_SCHED_READ_LATENCY: Histogram = Histogram::new();
    pub static MEMSIM_ECCPATH_LINES_DECODED: Counter = Counter::new();
    pub static MEMSIM_ECCPATH_BEATS_CORRECTED: Counter = Counter::new();
    pub static MEMSIM_ECCPATH_DUE_LINES: Counter = Counter::new();

    // -- core: the functional controllers ---------------------------------
    pub static CORE_XED_READS: Counter = Counter::new();
    pub static CORE_XED_WRITES: Counter = Counter::new();
    pub static CORE_XED_CATCH_WORDS: Counter = Counter::new();
    pub static CORE_XED_RECONSTRUCTIONS: Counter = Counter::new();
    pub static CORE_XED_SERIAL_MODES: Counter = Counter::new();
    pub static CORE_XED_CATCHWORD_COLLISIONS: Counter = Counter::new();
    pub static CORE_XED_DIAGNOSIS_RUNS: Counter = Counter::new();
    pub static CORE_XED_DUE: Counter = Counter::new();
    pub static CORE_XED_SCRUB_WRITES: Counter = Counter::new();
    pub static CORE_ALERT_READS: Counter = Counter::new();
    pub static CORE_ALERT_ALERTS: Counter = Counter::new();
    pub static CORE_ALERT_RECONSTRUCTIONS: Counter = Counter::new();
    pub static CORE_ALERT_DIAGNOSES: Counter = Counter::new();
    pub static CORE_ALERT_DUE: Counter = Counter::new();
    pub static CORE_SECDED_READS: Counter = Counter::new();
    pub static CORE_SECDED_CORRECTIONS: Counter = Counter::new();
    pub static CORE_SECDED_DUE: Counter = Counter::new();

    // -- ecc: decode-kernel work, attributed by consumers -----------------
    pub static ECC_LINES_DECODED: Counter = Counter::new();
    pub static ECC_WORDS_DECODED: Counter = Counter::new();
    pub static ECC_CORRECTIONS: Counter = Counter::new();
    pub static ECC_DUE_WORDS: Counter = Counter::new();
    pub static ECC_RS_CORRECTIONS: Counter = Counter::new();
    pub static ECC_RS_ERASURES: Counter = Counter::new();
    pub static ECC_INFER_PROBES: Counter = Counter::new();
    pub static ECC_INFER_RECOVERED: Counter = Counter::new();
    pub static ECC_INFER_AMBIGUOUS: Counter = Counter::new();
}

/// Shorthand for a counter catalogue entry (keeps entries one-line).
const fn c(id: &'static str, help: &'static str, m: &'static Counter) -> MetricDef {
    MetricDef {
        id,
        help,
        source: MetricSource::Counter(m),
    }
}

/// Shorthand for a histogram catalogue entry.
const fn h(id: &'static str, help: &'static str, m: &'static Histogram) -> MetricDef {
    MetricDef {
        id,
        help,
        source: MetricSource::Histogram(m),
    }
}

/// Every metric in the workspace, exactly once, in report order.
///
/// One entry per line, so the ID and its static read together; xed-analyze
/// XL010 parses the entries from the token stream.
#[rustfmt::skip]
pub static CATALOGUE: &[MetricDef] = &[
    c("faultsim.runs", "Monte-Carlo run_many invocations", &metrics::FAULTSIM_RUNS),
    c("faultsim.trials", "Monte-Carlo trials simulated (all schemes)", &metrics::FAULTSIM_TRIALS),
    c("faultsim.zero_fault_trials", "Trials that took the zero-fault fast path", &metrics::FAULTSIM_ZERO_FAULT_TRIALS),
    c("faultsim.due", "Trials ending in a detected-uncorrectable failure", &metrics::FAULTSIM_DUE),
    c("faultsim.sdc", "Trials ending in silent data corruption", &metrics::FAULTSIM_SDC),
    c("faultsim.steal.chunks", "Work-stealing chunks claimed by workers", &metrics::FAULTSIM_STEAL_CHUNKS),
    h("faultsim.steal.chunk_trials", "Trials per claimed work-stealing chunk", &metrics::FAULTSIM_STEAL_CHUNK_TRIALS),
    h("faultsim.chunk_ns", "Wall nanoseconds per work-stealing chunk", &metrics::FAULTSIM_CHUNK_NS),
    h("faultsim.trial_ns", "Average nanoseconds per trial, sampled per chunk", &metrics::FAULTSIM_TRIAL_NS),
    c("faultsim.bitslice.blocks", "64-lane blocks classified by the bit-sliced trial kernel", &metrics::FAULTSIM_BITSLICE_BLOCKS),
    c("faultsim.bitslice.spills", "Trials a bit-sliced block spilled to the scalar event machinery", &metrics::FAULTSIM_BITSLICE_SPILLS),
    c("faultsim.timeline.inert_elided", "Inert single-bit faults the lifetime kernels sampled but left out of the walked timeline", &metrics::FAULTSIM_TIMELINE_INERT_ELIDED),
    c("faultsim.timeline.quiet_trials", "Multi-fault trials the lifetime kernels ended before the sort and walk: faults in distinct domains, every mode quiet", &metrics::FAULTSIM_TIMELINE_QUIET_TRIALS),
    c("faultsim.tail.runs", "Rare-event (importance-sampled) tail-estimation invocations", &metrics::FAULTSIM_TAIL_RUNS),
    c("faultsim.tail.trials", "Conditioned trials simulated by the rare-event engine", &metrics::FAULTSIM_TAIL_TRIALS),
    c("faultsim.tail.forced_pairs", "Rare-event trials using the pair-forced proposal", &metrics::FAULTSIM_TAIL_FORCED_PAIRS),
    c("faultsim.tail.fallbacks", "Tail requests that fell back to count-conditioning or plain MC", &metrics::FAULTSIM_TAIL_FALLBACKS),
    h("faultsim.tail.pilot_ns", "Wall nanoseconds of a clique-forced tail run's single-threaded pilot probe", &metrics::FAULTSIM_TAIL_PILOT_NS),
    c("xedd.requests", "HTTP reliability queries accepted by the daemon", &metrics::XEDD_REQUESTS),
    c("xedd.cache.hits", "Queries answered from the canonical-key memo cache", &metrics::XEDD_CACHE_HITS),
    c("xedd.cache.misses", "Queries whose canonical key was not cached", &metrics::XEDD_CACHE_MISSES),
    c("xedd.cache.evictions", "Cached estimates evicted by the sharded LRU policy", &metrics::XEDD_CACHE_EVICTIONS),
    c("xedd.coalesced", "Requests that attached to an identical in-flight computation", &metrics::XEDD_COALESCED),
    c("xedd.evaluations", "Engine evaluations actually run (misses minus coalesced)", &metrics::XEDD_EVALUATIONS),
    c("xedd.shed", "Requests rejected 503 by admission control (queue full)", &metrics::XEDD_SHED),
    c("xedd.http.errors", "Malformed or invalid requests answered 4xx", &metrics::XEDD_HTTP_ERRORS),
    c("xedd.stream.chunks", "Partial-confidence chunks streamed to clients", &metrics::XEDD_STREAM_CHUNKS),
    c("xedd.early_stops", "Streaming evaluations stopped early by epsilon", &metrics::XEDD_EARLY_STOPS),
    h("xedd.queue.depth", "Accepted-connection queue depth observed at each enqueue", &metrics::XEDD_QUEUE_DEPTH),
    h("xedd.ttfc_ns", "Nanoseconds from request parse to first response chunk", &metrics::XEDD_TTFC_NS),
    h("xedd.request_ns", "Nanoseconds from request parse to response complete", &metrics::XEDD_REQUEST_NS),
    c("xedd.flight.dumps", "Flight-recorder dumps (panic, shed burst, or /debug/flight)", &metrics::XEDD_FLIGHT_DUMPS),
    h("xedd.phase.admission_ns", "Nanoseconds a request waited in the admission queue", &metrics::XEDD_PHASE_ADMISSION_NS),
    h("xedd.phase.cache_ns", "Nanoseconds canonicalizing the query and probing the memo cache", &metrics::XEDD_PHASE_CACHE_NS),
    h("xedd.phase.coalesce_ns", "Nanoseconds a follower waited on a coalesced leader", &metrics::XEDD_PHASE_COALESCE_NS),
    h("xedd.phase.evaluate_ns", "Nanoseconds inside engine evaluation (leader side)", &metrics::XEDD_PHASE_EVALUATE_NS),
    h("xedd.phase.stream_ns", "Nanoseconds streaming partial-confidence chunks to a client", &metrics::XEDD_PHASE_STREAM_NS),
    h("xedd.endpoint.healthz_ns", "Request latency of the /healthz endpoint", &metrics::XEDD_ENDPOINT_HEALTHZ_NS),
    h("xedd.endpoint.metrics_ns", "Request latency of the /metrics endpoint", &metrics::XEDD_ENDPOINT_METRICS_NS),
    h("xedd.endpoint.query_ns", "Request latency of the /v1/query endpoint", &metrics::XEDD_ENDPOINT_QUERY_NS),
    h("xedd.endpoint.flight_ns", "Request latency of the /debug/flight endpoint", &metrics::XEDD_ENDPOINT_FLIGHT_NS),
    c("telemetry.trace.spans", "Span events written into the tracing flight rings", &metrics::TELEMETRY_TRACE_SPANS),
    c("telemetry.trace.dropped", "Span events that overwrote an unread flight-ring slot", &metrics::TELEMETRY_TRACE_DROPPED),
    c("memsim.sched.reads_done", "Demand reads completed by the memory controller", &metrics::MEMSIM_SCHED_READS_DONE),
    c("memsim.sched.writes_done", "Writebacks issued to DRAM", &metrics::MEMSIM_SCHED_WRITES_DONE),
    h("memsim.sched.queue_depth", "Read-queue depth observed at each enqueue", &metrics::MEMSIM_SCHED_QUEUE_DEPTH),
    h("memsim.sched.read_latency", "Per-read latency in memory cycles (enqueue to data)", &metrics::MEMSIM_SCHED_READ_LATENCY),
    c("memsim.eccpath.lines_decoded", "Cache lines pushed through the functional decode stage", &metrics::MEMSIM_ECCPATH_LINES_DECODED),
    c("memsim.eccpath.beats_corrected", "Beats whose single-bit error the (72,64) code corrected", &metrics::MEMSIM_ECCPATH_BEATS_CORRECTED),
    c("memsim.eccpath.due_lines", "Lines with at least one detected-uncorrectable beat", &metrics::MEMSIM_ECCPATH_DUE_LINES),
    c("core.xed.reads", "Cache-line reads served by the XED controller", &metrics::CORE_XED_READS),
    c("core.xed.writes", "Cache-line writes (excluding scrubs and diagnosis)", &metrics::CORE_XED_WRITES),
    c("core.xed.catch_words", "Catch-words observed on the bus", &metrics::CORE_XED_CATCH_WORDS),
    c("core.xed.reconstructions", "Lines erasure-reconstructed from RAID-3 parity", &metrics::CORE_XED_RECONSTRUCTIONS),
    c("core.xed.serial_modes", "Serial-mode episodes (multiple catch-words)", &metrics::CORE_XED_SERIAL_MODES),
    c("core.xed.catchword_collisions", "Catch-word collisions detected and re-keyed", &metrics::CORE_XED_CATCHWORD_COLLISIONS),
    c("core.xed.diagnosis_runs", "Inter-Line plus Intra-Line diagnosis procedures run", &metrics::CORE_XED_DIAGNOSIS_RUNS),
    c("core.xed.due", "Detected-uncorrectable errors reported by XED controllers", &metrics::CORE_XED_DUE),
    c("core.xed.scrub_writes", "Scrub write-backs issued after corrections", &metrics::CORE_XED_SCRUB_WRITES),
    c("core.alert.reads", "Reads served by the ALERT_n-style controller", &metrics::CORE_ALERT_READS),
    c("core.alert.alerts", "ALERT_n assertions observed", &metrics::CORE_ALERT_ALERTS),
    c("core.alert.reconstructions", "Lines the alert controller corrected via parity", &metrics::CORE_ALERT_RECONSTRUCTIONS),
    c("core.alert.diagnoses", "Pattern-diagnosis procedures run (anonymous mode)", &metrics::CORE_ALERT_DIAGNOSES),
    c("core.alert.due", "DUEs reported by the alert controller", &metrics::CORE_ALERT_DUE),
    c("core.secded.reads", "Reads served by the rank-level SEC-DED DIMM", &metrics::CORE_SECDED_READS),
    c("core.secded.corrections", "Single-bit corrections by the rank-level SEC-DED code", &metrics::CORE_SECDED_CORRECTIONS),
    c("core.secded.due", "DUEs reported by the rank-level SEC-DED DIMM", &metrics::CORE_SECDED_DUE),
    c("ecc.lines_decoded", "64-byte lines through the batched decode kernels", &metrics::ECC_LINES_DECODED),
    c("ecc.words_decoded", "Codewords through the word decode kernels", &metrics::ECC_WORDS_DECODED),
    c("ecc.corrections", "Codewords corrected by SEC-DED/CRC8 decode", &metrics::ECC_CORRECTIONS),
    c("ecc.due_words", "Codewords flagged detected-uncorrectable", &metrics::ECC_DUE_WORDS),
    c("ecc.rs.corrections", "Reed-Solomon symbols corrected (chipkill decode)", &metrics::ECC_RS_CORRECTIONS),
    c("ecc.rs.erasures", "Reed-Solomon erasure reconstructions", &metrics::ECC_RS_ERASURES),
    c("ecc.infer.probes", "Retention probes issued by BEER-style code inference", &metrics::ECC_INFER_PROBES),
    c("ecc.infer.recovered", "Inference runs that recovered the full matrix bit-exactly", &metrics::ECC_INFER_RECOVERED),
    c("ecc.infer.ambiguous", "Inference runs ending in a certified ambiguity class", &metrics::ECC_INFER_AMBIGUOUS),
];

/// Looks up a metric definition by ID.
pub fn find(id: &str) -> Option<&'static MetricDef> {
    CATALOGUE.iter().find(|d| d.id == id)
}

/// The live value of a counter metric (None if the ID is unknown or a
/// histogram).
pub fn counter_value(id: &str) -> Option<u64> {
    match find(id)?.source {
        MetricSource::Counter(m) => Some(m.value()),
        MetricSource::Histogram(_) => None,
    }
}

/// Captures every registered metric into an immutable [`Snapshot`].
///
/// Each metric is read atomically per field; a snapshot taken while
/// writers run observes some valid intermediate state of each metric
/// (never torn values), and successive snapshots are monotone.
pub fn snapshot() -> Snapshot {
    let samples = CATALOGUE
        .iter()
        .map(|def| MetricSample {
            id: def.id,
            help: def.help,
            value: match def.source {
                MetricSource::Counter(m) => SampleValue::Counter(m.value()),
                MetricSource::Histogram(m) => SampleValue::Histogram(Box::new(m.sample())),
            },
        })
        .collect();
    Snapshot { samples }
}

/// Zeroes every registered metric. Run-report binaries call this before
/// the measured region so the snapshot covers exactly one run.
pub fn reset_all() {
    for def in CATALOGUE {
        match def.source {
            MetricSource::Counter(m) => m.reset(),
            MetricSource::Histogram(m) => m.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_ids_are_unique_and_dotted() {
        let mut seen = std::collections::HashSet::new();
        for def in CATALOGUE {
            assert!(seen.insert(def.id), "duplicate metric id {}", def.id);
            assert!(def.id.contains('.'), "{} is not dotted", def.id);
            assert!(
                def.id
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{} has chars outside [a-z0-9._]",
                def.id
            );
            assert!(!def.help.is_empty(), "{} has no help text", def.id);
        }
    }

    #[test]
    fn required_ids_are_registered() {
        // The IDs named in ISSUE/DESIGN docs; renaming any of these is a
        // breaking change to the report schema.
        for id in [
            "faultsim.trials",
            "ecc.rs.corrections",
            "memsim.sched.queue_depth",
            "core.xed.catchword_collisions",
            "ecc.lines_decoded",
            "xedd.cache.hits",
            "xedd.coalesced",
            "xedd.shed",
        ] {
            assert!(find(id).is_some(), "required metric {id} missing");
        }
    }

    #[test]
    fn snapshot_covers_the_whole_catalogue() {
        let snap = snapshot();
        assert_eq!(snap.samples.len(), CATALOGUE.len());
        for (s, d) in snap.samples.iter().zip(CATALOGUE.iter()) {
            assert_eq!(s.id, d.id);
        }
    }

    #[test]
    fn counter_value_reads_live_state() {
        // Use a metric no other test touches.
        metrics::CORE_SECDED_READS.reset();
        metrics::CORE_SECDED_READS.add(41);
        metrics::CORE_SECDED_READS.incr();
        assert_eq!(counter_value("core.secded.reads"), Some(42));
        assert_eq!(counter_value("memsim.sched.queue_depth"), None);
        assert_eq!(counter_value("no.such.metric"), None);
        metrics::CORE_SECDED_READS.reset();
    }
}
