//! The sharded, lock-striped, exact-LRU memo cache.
//!
//! Completed responses are keyed by their query's 128-bit canonical key
//! (DESIGN.md §15). The key space is striped across independently-locked
//! shards — concurrent lookups of different keys contend only when they
//! land on the same stripe — and each shard holds a small fixed-capacity
//! slab with an access clock for exact LRU eviction.
//!
//! The hit path ([`MemoCache::lookup`]) is a registered `xedd-request`
//! hot entry (xed-analyze XA100/XA101): it takes one stripe lock, scans
//! at most `capacity / shards` 16-byte keys linearly (cache-friendlier
//! than hashing at slab sizes, and trivially panic- and allocation-free)
//! and clones an `Arc`. Insertion — off the repeat-query path — may
//! allocate and evict.

use crate::render::CachedResponse;
use std::sync::{Arc, Mutex};
use xed_faultsim::engine::CanonicalKey;
use xed_telemetry::registry::metrics;

/// One cached entry: key, response, last-access tick.
#[derive(Debug)]
struct Slot {
    key: CanonicalKey,
    value: Arc<CachedResponse>,
    tick: u64,
}

/// One lock stripe: a bounded slab plus its monotone access clock.
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Slot>,
    clock: u64,
}

/// The sharded memo cache.
#[derive(Debug)]
pub struct MemoCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
}

impl MemoCache {
    /// A cache holding at most `capacity` responses across `shards`
    /// stripes (both clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        MemoCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard,
        }
    }

    /// Looks up a canonical key, refreshing its LRU position. Records the
    /// `xedd.cache.{hits,misses}` outcome.
    ///
    /// This is the daemon's O(1) repeat-query path: one stripe lock, a
    /// bounded scan, an `Arc` clone — no allocation, no panic path (a
    /// poisoned stripe is recovered, see below).
    pub fn lookup(&self, key: &CanonicalKey) -> Option<Arc<CachedResponse>> {
        let idx = key.shard(self.shards.len());
        // indexing: CanonicalKey::shard reduces modulo the shard count,
        // so idx < self.shards.len() always.
        let mut shard = match self.shards[idx].lock() {
            Ok(guard) => guard,
            // Shard state is plain data and the mutations below cannot
            // panic mid-update, so a poisoned stripe (a panicking thread
            // elsewhere while holding the lock) is still consistent —
            // recover it instead of propagating the poison.
            Err(poisoned) => poisoned.into_inner(),
        };
        shard.clock += 1;
        let now = shard.clock;
        for slot in &mut shard.slots {
            if slot.key == *key {
                slot.tick = now;
                metrics::XEDD_CACHE_HITS.incr();
                return Some(Arc::clone(&slot.value));
            }
        }
        metrics::XEDD_CACHE_MISSES.incr();
        None
    }

    /// Inserts (or refreshes) a response, evicting the stripe's
    /// least-recently-used entry when it is full.
    pub fn insert(&self, key: CanonicalKey, value: Arc<CachedResponse>) {
        let idx = key.shard(self.shards.len());
        // indexing: idx < self.shards.len(), as in lookup.
        let mut shard = match self.shards[idx].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        shard.clock += 1;
        let now = shard.clock;
        if let Some(slot) = shard.slots.iter_mut().find(|s| s.key == key) {
            slot.value = value;
            slot.tick = now;
            return;
        }
        if shard.slots.len() >= self.per_shard {
            // Exact LRU: the slab's ticks are distinct (one monotone
            // clock per stripe), so the minimum is unique.
            if let Some(lru) = shard
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.tick)
                .map(|(i, _)| i)
            {
                shard.slots.swap_remove(lru);
                metrics::XEDD_CACHE_EVICTIONS.incr();
            }
        }
        shard.slots.push(Slot {
            key,
            value,
            tick: now,
        });
    }

    /// Responses currently cached (sums stripe occupancy).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| match s.lock() {
                Ok(guard) => guard.slots.len(),
                Err(poisoned) => poisoned.into_inner().slots.len(),
            })
            .sum()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CanonicalKey {
        CanonicalKey { hi: n, lo: !n }
    }

    fn response(n: u64) -> Arc<CachedResponse> {
        Arc::new(CachedResponse {
            key: key(n),
            progress_lines: Vec::new(),
            body: format!("{{\"n\":{n}}}"),
        })
    }

    #[test]
    fn lookup_returns_inserted_value() {
        let cache = MemoCache::new(16, 4);
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(key(1), response(1));
        let hit = cache.lookup(&key(1)).expect("cached");
        assert_eq!(hit.body, "{\"n\":1}");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn insert_refreshes_existing_key() {
        let cache = MemoCache::new(16, 4);
        cache.insert(key(1), response(1));
        cache.insert(key(1), response(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key(1)).expect("cached").body, "{\"n\":2}");
    }

    #[test]
    fn lru_eviction_is_exact_per_stripe() {
        // One stripe, capacity 2: touching the older entry must flip
        // which one a subsequent insert evicts.
        let cache = MemoCache::new(2, 1);
        cache.insert(key(1), response(1));
        cache.insert(key(2), response(2));
        assert!(cache.lookup(&key(1)).is_some(), "refresh key 1");
        cache.insert(key(3), response(3));
        assert!(cache.lookup(&key(2)).is_none(), "LRU key 2 evicted");
        assert!(cache.lookup(&key(1)).is_some(), "refreshed key 1 kept");
        assert!(cache.lookup(&key(3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_is_clamped_and_sharded() {
        let capacity = |c: &MemoCache| c.per_shard * c.shards.len();
        let cache = MemoCache::new(0, 0);
        assert_eq!(capacity(&cache), 1);
        let cache = MemoCache::new(64, 16);
        assert_eq!(capacity(&cache), 64);
        for n in 0..200 {
            cache.insert(key(n), response(n));
        }
        assert!(cache.len() <= 64, "bounded at capacity");
        assert!(!cache.is_empty());
    }

    #[test]
    fn concurrent_hits_and_inserts_stay_consistent() {
        let cache = Arc::new(MemoCache::new(32, 8));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let n = (t * 500 + i) % 48;
                        cache.insert(key(n), response(n));
                        if let Some(hit) = cache.lookup(&key(n)) {
                            assert_eq!(hit.body, format!("{{\"n\":{n}}}"));
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 32);
    }
}
