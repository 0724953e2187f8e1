//! Fixture for the xed-analyze integration tests: the `mc-trial` hot
//! group with seeded XA100/XA101/XA102 violations, a stray `SeqCst`,
//! and the live `metrics::…` references the XA103 closure rule needs.
//! This crate is never compiled; only its token stream matters.

use core::sync::atomic::{AtomicU64, Ordering};

static GLOBAL_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Seeded: an untyped alloc-capable receiver (`scratch.push`).
pub fn run_trials(trials: u64) -> u64 {
    let mut scratch = scratch_buffer();
    scratch.push(trials); // seed XA101 (untyped alloc-capable receiver)
    trials
}

/// `Vec::new()` does not allocate, so this helper must stay clean even
/// though it is inside the `mc-trial` closure.
fn scratch_buffer() -> Vec<u64> {
    Vec::new()
}

pub struct SchemeModel {
    epoch: AtomicU64,
}

impl SchemeModel {
    /// Seeded: a hot-path Acquire load, and an `expect` whose
    /// precondition is not argued anywhere nearby.
    pub fn evaluate(&self, seed: Option<u64>) -> u64 {
        let e = self.epoch.load(Ordering::Acquire); // seed XA102 (hot non-Relaxed)
        e + seed.expect("seed is always set") // seed XA100 (bare expect)
    }

    /// Seeded: a `vec!` allocation and a call the graph cannot resolve.
    pub fn evaluate_isolated(&self, seed: u64) -> u64 {
        let lanes = vec![seed; 4]; // seed XA101 (vec macro)
        mystery_mix(seed) + lanes.len() as u64 // seed XA100 (unresolved hole)
    }
}

/// Hot entry: the 64-lane block kernel. Deliberately clean — exercises
/// registration of a multi-entry group member without a seeded
/// violation.
pub fn run_trials_bitsliced(blocks: u64) -> u64 {
    let mut acc = 0;
    let mut b = 0;
    while b < blocks {
        acc += 1;
        b += 1;
    }
    acc
}

pub struct TailPlan {
    min_faults: u64,
}

impl TailPlan {
    /// Hot entry: one importance-sampled conditioned trial. Clean, like
    /// `run_trials_bitsliced` above.
    pub fn run_trial(&self, draw: u64) -> u64 {
        self.min_faults + draw
    }
}

/// Not on any hot path; its `SeqCst` must still be flagged by the
/// global ordering sweep.
pub fn epoch_now() -> u64 {
    GLOBAL_EPOCH.load(Ordering::SeqCst) // seed XA102 (stray SeqCst)
}

/// Keeps `metrics::TRIALS` and `metrics::LATENCY` live for the
/// registry-closure rule; the dead gauge is deliberately absent here.
pub fn note_trial(now: u64) {
    metrics::TRIALS.incr();
    metrics::LATENCY.record(now);
}

/// The daemon-facing query identity for the `xedd-request` hot group.
pub struct Query {
    seed: u64,
}

pub struct CanonicalKey {
    pub hi: u64,
    pub lo: u64,
}

impl Query {
    /// Hot entry: canonical-key derivation. Deliberately clean — the
    /// repeat-query path must prove panic- and allocation-free.
    pub fn canonical_key(&self) -> CanonicalKey {
        let hi = mix_word(self.seed);
        CanonicalKey {
            hi,
            lo: mix_word(hi),
        }
    }
}

impl CanonicalKey {
    /// In the `xedd-request` closure via the xedd fixture's
    /// `MemoCache::lookup`. Clean.
    pub fn shard(&self, shards: u64) -> u64 {
        self.hi % shards
    }
}

/// Shared by both canonical-key lanes; clean helper in the closure.
fn mix_word(z: u64) -> u64 {
    z ^ (z >> 31)
}

/// A workspace method named `push`: the untyped `scratch.push` seeded in
/// `run_trials` resolves to it by name. XA101 must word that site the
/// same as when no workspace fn shares the name (the analyze fixture
/// tests rename this one away to check).
pub struct EventTape {
    slots: [u64; 4],
    head: usize,
}

impl EventTape {
    /// Clean: a masked store.
    pub fn push(&mut self, v: u64) {
        // indexing: head is masked into the 4 fixture slots.
        self.slots[self.head & 3] = v;
        self.head = self.head.wrapping_add(1);
    }
}
