//! Sharded, lock-free, allocation-free monotonic counters.
//!
//! A [`Counter`] is a fixed array of cache-line-padded `AtomicU64` shards.
//! Each thread is assigned one shard on first use (a round-robin ticket,
//! cached in a thread-local), so concurrent writers on different threads
//! touch different cache lines and an `add` is a single uncontended
//! relaxed `fetch_add`. Reads sum the shards; because every update is an
//! atomic add of the exact amount, the sum over shards is *deterministic*
//! — the same set of `add` calls yields the same total no matter how
//! threads were scheduled or which shards they landed on (proved by the
//! merge-determinism tests below).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of shards per counter. Enough that the 8–16 threads an engine
/// run uses (the caller plus its spawned workers) rarely share a shard;
/// small enough that a `Counter` static is one page-fraction
/// (16 × 64 B = 1 KiB).
pub const SHARDS: usize = 16;

/// One cache line worth of counter, so shards never false-share.
#[repr(align(64))]
#[derive(Debug)]
struct Shard(AtomicU64);

/// Round-robin ticket source for thread → shard assignment.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned once on first use.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// The shard index for the calling thread.
#[inline]
fn shard_index() -> usize {
    MY_SHARD.with(|&i| i)
}

/// A sharded, monotonically increasing event counter.
///
/// `const`-constructible so metrics live in statics; see
/// [`crate::registry`] for the workspace catalogue.
#[derive(Debug)]
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Counter {
    /// A zeroed counter (usable in `static` position).
    pub const fn new() -> Self {
        Self {
            shards: [const { Shard(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// Adds `n` to the calling thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        // indexing: shard_index() is `thread id % SHARDS`, always in bounds.
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total: the wrapping sum over all shards. Concurrent
    /// writers may land between shard loads, so a racing read observes
    /// some value between "all adds that happened-before" and "all adds
    /// so far" — never a torn or decreasing total once writers stop.
    /// Acquire pairs with the hot path's Relaxed adds: any write that
    /// happened-before the snapshot is visible in it (XA102 boundary).
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.0.load(Ordering::Acquire)))
    }

    /// Zeroes every shard (run-report binaries reset before a run).
    /// Release publishes the zeroes to subsequent Acquire snapshots.
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Release);
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_value() {
        let c = Counter::new();
        assert_eq!(c.value(), 0);
        c.add(5);
        c.incr();
        assert_eq!(c.value(), 6);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn merge_is_deterministic_across_thread_counts() {
        // The satellite test: N threads each add a known amount; the
        // shard-sum must be exact for 1, 2, 4, and 8 threads regardless of
        // which shards the threads were ticketed onto.
        for threads in [1usize, 2, 4, 8] {
            let c = Counter::new();
            let per_thread: u64 = 100_000;
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let c = &c;
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            // Mixed add sizes so the totals aren't trivially
                            // symmetric.
                            c.add(1 + ((t as u64 + i) % 3));
                        }
                    });
                }
            });
            let expected: u64 = (0..threads as u64)
                .map(|t| (0..per_thread).map(|i| 1 + ((t + i) % 3)).sum::<u64>())
                .sum();
            assert_eq!(c.value(), expected, "{threads} threads");
        }
    }

    #[test]
    fn more_threads_than_shards_still_exact() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..(2 * SHARDS) {
                let c = &c;
                scope.spawn(move || c.add(7));
            }
        });
        assert_eq!(c.value(), 7 * 2 * SHARDS as u64);
    }
}
