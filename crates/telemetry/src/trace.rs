//! Request-scoped tracing: fixed-size span events in per-thread flight
//! rings (DESIGN.md §16).
//!
//! A *span* is one `(trace id, span id, parent, phase, t_start, t_end)`
//! record; a *trace* is every span sharing one 64-bit trace id. `xedd`
//! opens a trace per request (or honors one propagated via the
//! `X-Xedd-Trace` header) and records a span per pipeline phase —
//! admission wait, cache lookup, coalescer handoff, engine evaluation,
//! each work-stealing scheduler chunk — so a slow request decomposes
//! into exactly the stages that cost time.
//!
//! The write path is allocation-free (xed-analyze XL009 and
//! XA100/XA101 over [`record_span`] and [`TraceBuf::record`]): events are
//! fixed-size `Copy` structs written into static ring buffers guarded by
//! per-slot mutexes, with each thread pinned round-robin to one of
//! [`FLIGHT_SLOTS`] slots. The rings double as a **flight recorder**: the
//! last [`TRACE_BUF_EVENTS`] spans per slot survive until overwritten and
//! are dumped on panic, on 503 shed bursts, and on demand via `xedd`'s
//! `/debug/flight` endpoint. Exporting (which allocates) lives in
//! [`crate::export`], never here.
//!
//! Tracing is gated by its own switch, default **off** — independent of
//! the metric switch [`crate::enabled`] — so the always-on counters stay
//! free of tracing costs and the bench suite can bound the traced
//! overhead explicitly.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The pipeline stage a span covers. Every variant is documented in the
/// DESIGN.md §16 phase table — xed-analyze rule XL012 enforces the closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Whole request, accept to last response byte (the root span).
    Request,
    /// Admission-queue wait: accept enqueue to worker dequeue.
    Admission,
    /// Canonicalization plus memo-cache probe.
    CacheLookup,
    /// Leader side of a coalesced evaluation (covers the engine run).
    CoalesceLead,
    /// Follower attached to an in-flight leader; `a` holds the leader's
    /// trace id (the cross-trace handoff edge).
    CoalesceFollow,
    /// One `engine::evaluate_streaming` call.
    Evaluate,
    /// One work-stealing scheduler chunk; `a` holds the trial count.
    SchedulerChunk,
    /// Streamed chunked-transfer replay of partials to the client.
    Stream,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 8] = [
        Phase::Request,
        Phase::Admission,
        Phase::CacheLookup,
        Phase::CoalesceLead,
        Phase::CoalesceFollow,
        Phase::Evaluate,
        Phase::SchedulerChunk,
        Phase::Stream,
    ];

    /// Stable lowercase label (the `name` field in exported traces).
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Request => "request",
            Phase::Admission => "admission",
            Phase::CacheLookup => "cache_lookup",
            Phase::CoalesceLead => "coalesce_lead",
            Phase::CoalesceFollow => "coalesce_follow",
            Phase::Evaluate => "evaluate",
            Phase::SchedulerChunk => "scheduler_chunk",
            Phase::Stream => "stream",
        }
    }
}

/// One recorded span: fixed-size, `Copy`, no payload pointers.
///
/// Times are nanoseconds on the process-local monotonic clock
/// ([`now_ns`]); they order spans within one process and never appear in
/// response bodies (determinism stays untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The request's 64-bit trace id (never 0).
    pub trace_id: u64,
    /// This span's id, unique within the process (never 0).
    pub span_id: u32,
    /// Parent span id; 0 marks a root span.
    pub parent: u32,
    /// The pipeline stage covered.
    pub phase: Phase,
    /// Phase-specific attribute (trial count for `SchedulerChunk`,
    /// leader trace id for `CoalesceFollow`, 0 otherwise).
    pub a: u64,
    /// Monotonic start tick, nanoseconds.
    pub t_start: u64,
    /// Monotonic end tick, nanoseconds.
    pub t_end: u64,
}

impl SpanEvent {
    /// The all-zero placeholder ring slots start as.
    pub const EMPTY: SpanEvent = SpanEvent {
        trace_id: 0,
        span_id: 0,
        parent: 0,
        phase: Phase::Request,
        a: 0,
        t_start: 0,
        t_end: 0,
    };
}

/// Span events retained per flight-recorder slot.
pub const TRACE_BUF_EVENTS: usize = 128;

/// Flight-recorder slots; threads are pinned round-robin, so this bounds
/// write contention, not thread count.
pub const FLIGHT_SLOTS: usize = 32;

/// A fixed-capacity ring of span events: the per-slot flight recorder.
/// Overwrites the oldest event when full; const-capacity, allocation-free.
#[derive(Debug)]
pub struct TraceBuf {
    buf: [SpanEvent; TRACE_BUF_EVENTS],
    /// Next write position (< `TRACE_BUF_EVENTS`).
    head: usize,
    /// Live events (≤ `TRACE_BUF_EVENTS`).
    len: usize,
    /// Lifetime writes, including overwritten ones.
    total: u64,
}

impl TraceBuf {
    /// An empty ring; `const` so slots embed in statics.
    #[must_use]
    pub const fn new() -> Self {
        TraceBuf {
            buf: [SpanEvent::EMPTY; TRACE_BUF_EVENTS],
            head: 0,
            len: 0,
            total: 0,
        }
    }

    /// Records `e`, overwriting the oldest event when full; returns
    /// whether an event was overwritten (lost to the recorder).
    #[inline]
    pub fn record(&mut self, e: SpanEvent) -> bool {
        let overwrote = self.len == TRACE_BUF_EVENTS;
        // indexing: head is kept < TRACE_BUF_EVENTS by the modular bump below.
        self.buf[self.head] = e;
        self.head = (self.head + 1) % TRACE_BUF_EVENTS;
        if self.len < TRACE_BUF_EVENTS {
            self.len += 1;
        }
        self.total += 1;
        overwrote
    }

    /// Iterates the retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanEvent> {
        let start = (self.head + TRACE_BUF_EVENTS - self.len) % TRACE_BUF_EVENTS;
        (0..self.len).map(move |i| {
            // indexing: reduced mod TRACE_BUF_EVENTS, within the buffer.
            &self.buf[(start + i) % TRACE_BUF_EVENTS]
        })
    }

    /// Events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime writes, including overwritten ones.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total
    }
}

impl Default for TraceBuf {
    fn default() -> Self {
        Self::new()
    }
}

/// The static flight-recorder rings, one mutex per slot.
static SLOTS: [Mutex<TraceBuf>; FLIGHT_SLOTS] =
    [const { Mutex::new(TraceBuf::new()) }; FLIGHT_SLOTS];

/// Round-robin slot assignment cursor for new threads.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's pinned slot; `usize::MAX` until first use.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };

    /// The span context engine code inherits ([`current`]/[`set_current`]).
    static CURRENT: Cell<Option<SpanCtx>> = const { Cell::new(None) };
}

/// The tracing switch, independent of the metric switch and default
/// **off**: a daemon opts in at startup, batch binaries stay untraced.
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span recording is enabled — a single relaxed load, the only
/// cost tracing adds when off.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off process-wide. Release pairs with the
/// hot path's Relaxed [`trace_enabled`] loads (XA102 boundary).
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Release);
}

/// Trace-id sequence; mixed through the SplitMix64 finalizer so ids are
/// well-spread 64-bit values, not small integers.
static TRACE_IDS: AtomicU64 = AtomicU64::new(0);

/// Span-id sequence (starts at 1; 0 is the root-parent sentinel).
static SPAN_IDS: AtomicU32 = AtomicU32::new(1);

/// The SplitMix64 output finalizer — the same mixing discipline the
/// workspace RNG streams build on.
const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh process-unique trace id, never 0.
pub fn next_trace_id() -> u64 {
    let n = TRACE_IDS.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
    let mixed = mix64(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    if mixed == 0 {
        1
    } else {
        mixed
    }
}

/// A fresh process-unique span id, never 0.
pub fn next_span_id() -> u32 {
    let raw = SPAN_IDS.fetch_add(1, Ordering::Relaxed);
    if raw == 0 {
        u32::MAX
    } else {
        raw
    }
}

/// The process-local monotonic epoch every `t_start`/`t_end` counts from.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process — the monotonic tick
/// spans are stamped with. Wall time never reaches response bodies.
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now); // xed-analyze: allow(XL005) — span timestamps only
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A propagation handle: the ids a child span needs from its parent.
/// `Copy`, so it crosses thread boundaries by value (thread-locals do
/// not propagate into scoped workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// The request's trace id.
    pub trace_id: u64,
    /// The span to parent new children under.
    pub span_id: u32,
}

/// This thread's inherited span context, if a request set one.
pub fn current() -> Option<SpanCtx> {
    // UFCS so the analyzer resolves these to std::cell::Cell, not to
    // same-named workspace methods.
    CURRENT.with(Cell::get)
}

/// Sets (or clears) this thread's span context for downstream callees.
pub fn set_current(ctx: Option<SpanCtx>) {
    CURRENT.with(|c| Cell::set(c, ctx));
}

/// This thread's flight-recorder slot, assigned round-robin on first use.
fn slot_index() -> usize {
    SLOT.with(|s| {
        // UFCS so the analyzer resolves these to std::cell::Cell, not to
        // same-named workspace methods.
        let mut i = Cell::get(s);
        if i == usize::MAX {
            i = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % FLIGHT_SLOTS;
            Cell::set(s, i);
        }
        i
    })
}

/// Records one span event into this thread's flight ring. The hot write
/// path: one relaxed gate load when tracing is off; a counter bump, an
/// uncontended per-slot mutex and a fixed-size array write when on.
#[inline]
pub fn record_span(e: SpanEvent) {
    if !trace_enabled() {
        return;
    }
    crate::registry::metrics::TELEMETRY_TRACE_SPANS.incr();
    let i = slot_index();
    // indexing: slot_index() reduces modulo FLIGHT_SLOTS.
    let mut buf = match SLOTS[i].lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    if buf.record(e) {
        crate::registry::metrics::TELEMETRY_TRACE_DROPPED.incr();
    }
}

/// Visits every flight-recorder slot in order under its lock — the
/// boundary the exporters and dump paths read through.
pub fn with_slots(mut f: impl FnMut(usize, &TraceBuf)) {
    for (i, slot) in SLOTS.iter().enumerate() {
        let buf = match slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(i, &buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace_id: u64, span_id: u32) -> SpanEvent {
        SpanEvent {
            trace_id,
            span_id,
            parent: 0,
            phase: Phase::Request,
            a: 0,
            t_start: 1,
            t_end: 2,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_reports_it() {
        let mut buf = TraceBuf::new();
        assert!(buf.is_empty());
        for i in 0..TRACE_BUF_EVENTS {
            assert!(
                !buf.record(ev(1, i as u32 + 1)),
                "no overwrite while filling"
            );
        }
        assert_eq!(buf.len(), TRACE_BUF_EVENTS);
        assert!(buf.record(ev(1, 10_000)), "full ring must report overwrite");
        assert_eq!(buf.len(), TRACE_BUF_EVENTS);
        assert_eq!(buf.total_recorded(), TRACE_BUF_EVENTS as u64 + 1);
        let first = buf.iter().next().expect("ring is full");
        assert_eq!(first.span_id, 2, "oldest event (span 1) was evicted");
        let last = buf.iter().last().expect("ring is full");
        assert_eq!(last.span_id, 10_000);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
        let s1 = next_span_id();
        let s2 = next_span_id();
        assert_ne!(s1, 0);
        assert_ne!(s2, 0);
        assert_ne!(s1, s2);
    }

    #[test]
    fn trace_ids_follow_splitmix_mixing() {
        // The generator is the SplitMix64 finalizer over a golden-ratio
        // stepped sequence: consecutive ids must not be consecutive ints.
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(b.wrapping_sub(a) != 1, "ids must be mixed, not sequential");
    }

    #[test]
    fn recording_respects_the_gate_and_lands_in_a_slot() {
        // Serialized via the slot rings themselves: this test owns its
        // thread, and asserts only deltas attributable to its own writes.
        let marker = 0xFEED_FACE_0000_0001;
        set_trace_enabled(false);
        record_span(ev(marker, 1));
        let mut seen = 0usize;
        with_slots(|_, buf| seen += buf.iter().filter(|e| e.trace_id == marker).count());
        assert_eq!(seen, 0, "gated-off record_span must write nothing");

        set_trace_enabled(true);
        record_span(ev(marker, 2));
        set_trace_enabled(false);
        let mut seen = 0usize;
        with_slots(|_, buf| seen += buf.iter().filter(|e| e.trace_id == marker).count());
        assert_eq!(seen, 1, "enabled record_span must land in one slot");
    }

    #[test]
    fn span_ctx_is_thread_local() {
        let ctx = SpanCtx {
            trace_id: 7,
            span_id: 3,
        };
        set_current(Some(ctx));
        assert_eq!(current(), Some(ctx));
        let other = std::thread::spawn(current).join().expect("thread runs");
        assert_eq!(other, None, "span context must not leak across threads");
        set_current(None);
        assert_eq!(current(), None);
    }

    #[test]
    fn every_phase_has_a_distinct_label() {
        let mut labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Phase::ALL.len());
    }
}
