//! Fixture for the xed-analyze integration tests: the full
//! `telemetry-write` hot group, the reconciliation boundaries (one
//! seeded ordering violation), and the metric registry module. This
//! crate is never compiled; only its token stream matters.

pub mod registry;

use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Hot: single Relaxed flag read.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Boundary: publication of the enable flag.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    /// Hot: Relaxed accumulate.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Hot: Relaxed increment.
    pub fn incr(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Boundary — seeded: a Relaxed load where Acquire is required.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed) // seed XA102 (boundary not Acquire)
    }

    /// Boundary: Release clear.
    pub fn reset(&self) {
        self.cell.store(0, Ordering::Release);
    }
}

pub struct Histogram {
    buckets: [AtomicU64; 8],
    total: AtomicU64,
    accum: AtomicU64,
    high: AtomicU64,
}

impl Histogram {
    /// Hot: Relaxed bucket bump.
    pub fn record(&self, v: u64) {
        let b = (v as usize).min(7);
        // indexing: b is clamped to 7, within the 8 fixture buckets.
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.accum.fetch_add(v, Ordering::Relaxed);
        self.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Boundary: Acquire read of one bucket.
    pub fn bucket(&self, i: usize) -> u64 {
        // indexing: i is masked into the 8 fixture buckets.
        self.buckets[i & 7].load(Ordering::Acquire)
    }

    /// Boundary: Acquire totals snapshot.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Acquire)
    }

    /// Boundary: Acquire running sum.
    pub fn sum(&self) -> u64 {
        self.accum.load(Ordering::Acquire)
    }

    /// Boundary: Acquire high-water mark.
    pub fn max(&self) -> u64 {
        self.high.load(Ordering::Acquire)
    }

    /// Boundary: Acquire sample of one bucket.
    pub fn sample(&self, i: usize) -> u64 {
        // indexing: i is masked into the 8 fixture buckets.
        self.buckets[i & 7].load(Ordering::Acquire)
    }

    /// Boundary: Release clear.
    pub fn reset(&self) {
        self.total.store(0, Ordering::Release);
    }
}

/// Hot: free-function count add.
pub fn count(c: &Counter, n: u64) {
    c.add(n);
}

/// Hot: free-function histogram observation.
pub fn observe(h: &Histogram, v: u64) {
    h.record(v);
}

pub struct TraceBuf {
    events: [u64; 4],
    head: usize,
}

impl TraceBuf {
    /// Hot: overwrite-oldest span-event store.
    pub fn record(&mut self, event: u64) {
        // indexing: head is kept < 4 by the wrap below.
        self.events[self.head] = event;
        self.head = (self.head + 1) % 4;
    }
}

/// Hot: free-function span record into a flight ring.
pub fn record_span(buf: &mut TraceBuf, event: u64) {
    buf.record(event);
}
