//! Byte-budgeted, hash-prefix-sharded LRU cache for hot hub content.
//!
//! The hub's two read-path payloads both land here:
//!
//! * **objects** — content-addressed by SHA-256, so entries are
//!   immutable and never need invalidation; a cached object is correct
//!   forever.
//! * **manifests** — keyed by `manifest:<name>`, and *republish
//!   replaces* published content, so `handle_commit` invalidates the
//!   repo's manifest prefix on every successful publish.
//!
//! Sixteen shards, selected by a hash prefix of the key (an FNV-1a fold
//! masked to the low nibble), each with its own facade mutex, entry
//! map, and LRU tick index — so concurrent readers on different shards
//! never contend, and the per-shard budget is `total / 16`. Values are
//! `Arc<Vec<u8>>`: a cache hit hands the connection a zero-copy
//! reference it can stage in its response while the entry remains (or
//! stops being) cached.
//!
//! An entry larger than its shard's whole budget is never admitted —
//! one giant object must not wipe a shard. Hit/miss/eviction counters
//! and the live byte gauge report through [`CacheMetrics`] handles into
//! the owning server's stats registry (`/metrics`).

use mh_obs::{Counter, Gauge, Registry};
use mh_par::sync::atomic::{AtomicU64, Ordering};
use mh_par::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Metric handles the cache reports through. Handles are `'static`
/// because `mh_obs::Registry` interns its series.
#[derive(Debug, Clone, Copy)]
pub struct CacheMetrics {
    pub hits: &'static Counter,
    pub misses: &'static Counter,
    pub evictions: &'static Counter,
    pub bytes: &'static Gauge,
}

impl CacheMetrics {
    /// Register (or re-fetch) the standard hub cache series on a
    /// registry. Idempotent: the registry interns by name.
    pub fn for_registry(registry: &Registry) -> Self {
        Self {
            hits: registry.counter("hub_cache_hits_total"),
            misses: registry.counter("hub_cache_misses_total"),
            evictions: registry.counter("hub_cache_evictions_total"),
            bytes: registry.gauge("hub_cache_bytes"),
        }
    }
}

#[derive(Debug)]
struct Entry {
    value: Arc<Vec<u8>>,
    tick: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: BTreeMap<String, Entry>,
    /// LRU index: tick → key. Ticks are unique within a shard, so the
    /// smallest tick is always the least-recently-used entry.
    lru: BTreeMap<u64, String>,
    bytes: usize,
    next_tick: u64,
}

impl Shard {
    fn touch(&mut self, key: &str) -> Option<Arc<Vec<u8>>> {
        let entry = self.entries.get_mut(key)?;
        self.lru.remove(&entry.tick);
        entry.tick = self.next_tick;
        self.next_tick = self.next_tick.wrapping_add(1);
        self.lru.insert(entry.tick, key.to_string());
        Some(Arc::clone(&entry.value))
    }

    /// Remove one key; returns the bytes it held.
    fn remove(&mut self, key: &str) -> usize {
        match self.entries.remove(key) {
            Some(old) => {
                self.lru.remove(&old.tick);
                let freed = old.value.len();
                self.bytes = self.bytes.saturating_sub(freed);
                freed
            }
            None => 0,
        }
    }

    /// Evict least-recently-used entries until `bytes <= budget`.
    /// Returns (entries evicted, bytes freed).
    fn evict_to(&mut self, budget: usize) -> (u64, usize) {
        let mut evicted = 0u64;
        let mut freed = 0usize;
        while self.bytes > budget {
            let Some((_, key)) = self.lru.pop_first() else {
                break;
            };
            match self.entries.remove(&key) {
                Some(old) => {
                    let n = old.value.len();
                    self.bytes = self.bytes.saturating_sub(n);
                    freed = freed.saturating_add(n);
                    evicted = evicted.saturating_add(1);
                }
                None => break,
            }
        }
        (evicted, freed)
    }
}

/// The sharded LRU itself. A zero budget disables caching entirely
/// (every `get` is a recorded miss, every `put` a no-op) — that is the
/// behaviour of `hubd --cache-bytes 0`.
#[derive(Debug)]
pub struct ObjectCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    metrics: CacheMetrics,
    /// Invalidation generation: bumped (before any entry is removed) by
    /// [`ObjectCache::invalidate_prefix`]. A reader that fills the cache
    /// from disk snapshots it *before* the read and hands it back to
    /// [`ObjectCache::put_if_current`], which refuses the fill if an
    /// invalidation landed in between — so a publish racing a GET can
    /// never be resurrected as stale cached bytes.
    generation: AtomicU64,
}

const SHARD_COUNT: usize = 16;

/// FNV-1a fold of the key; the low nibble picks the shard.
fn shard_index(key: &str) -> usize {
    let mut h: u32 = 0x811c_9dc5;
    for b in key.bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    (h & 0xF) as usize
}

impl ObjectCache {
    pub fn new(budget_bytes: usize, metrics: CacheMetrics) -> Self {
        let mut shards = Vec::with_capacity(SHARD_COUNT);
        for _ in 0..SHARD_COUNT {
            shards.push(Mutex::new(Shard::default()));
        }
        Self {
            shards,
            shard_budget: budget_bytes / 16,
            metrics,
            generation: AtomicU64::new(0),
        }
    }

    /// Largest entry the cache can ever admit (the per-shard budget).
    /// Anything bigger is served without touching the cache.
    pub fn admissible_max(&self) -> usize {
        self.shard_budget
    }

    /// Current invalidation generation. Snapshot it before reading
    /// backing storage and pass it to [`ObjectCache::put_if_current`] to
    /// make the fill race-safe against invalidation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    fn shard(&self, key: &str) -> Option<&Mutex<Shard>> {
        self.shards.get(shard_index(key))
    }

    /// Look up a key, bumping its recency on hit. Records exactly one
    /// hit or miss per call.
    pub fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        let found = self.shard(key).and_then(|shard| shard.lock().touch(key));
        match found {
            Some(v) => {
                self.metrics.hits.inc();
                Some(v)
            }
            None => {
                self.metrics.misses.inc();
                None
            }
        }
    }

    /// Insert (or refresh) a key. Entries above the per-shard budget
    /// are not admitted; admission may evict older entries.
    pub fn put(&self, key: &str, value: Arc<Vec<u8>>) {
        self.put_guarded(key, value, None);
    }

    /// [`ObjectCache::put`] guarded by an invalidation generation: the
    /// entry is admitted only if no [`ObjectCache::invalidate_prefix`]
    /// ran since `gen` was snapshotted. Use for fills whose source data
    /// can be replaced concurrently (manifests); content-addressed
    /// objects are immutable and use the plain `put`.
    pub fn put_if_current(&self, key: &str, value: Arc<Vec<u8>>, gen: u64) {
        self.put_guarded(key, value, Some(gen));
    }

    fn put_guarded(&self, key: &str, value: Arc<Vec<u8>>, required_gen: Option<u64>) {
        let len = value.len();
        if len == 0 || len > self.shard_budget {
            return;
        }
        let Some(shard) = self.shard(key) else {
            return;
        };
        let mut guard = shard.lock();
        // Checked under the shard lock: an invalidation either bumped the
        // generation before we got the lock (we refuse), or its removal
        // sweep is still ahead of us on this shard (it will remove what
        // we insert). No interleaving caches stale bytes.
        if let Some(gen) = required_gen {
            if self.generation.load(Ordering::SeqCst) != gen {
                return;
            }
        }
        let replaced = guard.remove(key);
        let tick = guard.next_tick;
        guard.next_tick = guard.next_tick.wrapping_add(1);
        guard.lru.insert(tick, key.to_string());
        guard.entries.insert(key.to_string(), Entry { value, tick });
        guard.bytes = guard.bytes.saturating_add(len);
        let (evicted, freed) = guard.evict_to(self.shard_budget);
        drop(guard);
        if evicted > 0 {
            self.metrics.evictions.add(evicted);
        }
        let delta = len as i64 - replaced as i64 - freed as i64;
        self.metrics.bytes.add(delta);
    }

    /// Drop every entry whose key starts with `prefix` (manifest
    /// invalidation on republish). Not counted as evictions — these are
    /// correctness removals, not budget pressure.
    pub fn invalidate_prefix(&self, prefix: &str) {
        // Bump the generation *before* removing: a concurrent guarded
        // fill either sees the new generation and refuses, or inserted
        // before this point and is removed by the sweep below.
        self.generation.fetch_add(1, Ordering::SeqCst);
        let mut freed = 0usize;
        for shard in &self.shards {
            let mut guard = shard.lock();
            let stale: Vec<String> = guard
                .entries
                .range(prefix.to_string()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, _)| k.clone())
                .collect();
            for key in stale {
                freed = freed.saturating_add(guard.remove(&key));
            }
        }
        if freed > 0 {
            self.metrics.bytes.sub(freed as i64);
        }
    }

    /// Live entry count across shards (tests/diagnostics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live bytes across shards (tests/diagnostics; the gauge mirrors
    /// this).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }
}

/// Cache key for a content-addressed object.
pub fn object_key(hash: &str) -> String {
    format!("object:{hash}")
}

/// Cache key for a repo's published manifest response, and the
/// invalidation prefix covering it (which also covers every repo whose
/// name extends this one: over-invalidation is safe).
pub fn manifest_key(name: &str) -> String {
    format!("manifest:{name}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cache(budget: usize) -> (ObjectCache, CacheMetrics) {
        let registry = Registry::new();
        let metrics = CacheMetrics::for_registry(&registry);
        (ObjectCache::new(budget, metrics), metrics)
    }

    fn val(n: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![0xAB; n])
    }

    #[test]
    fn hit_miss_and_byte_accounting() {
        let (c, m) = test_cache(16 * 1024);
        assert!(c.get("object:aa").is_none());
        assert_eq!(m.misses.get(), 1);
        c.put("object:aa", val(100));
        assert_eq!(c.get("object:aa").map(|v| v.len()), Some(100));
        assert_eq!(m.hits.get(), 1);
        assert_eq!(m.bytes.get(), 100);
        assert_eq!(c.bytes(), 100);
        // Replacing a key swaps the bytes, not adds.
        c.put("object:aa", val(40));
        assert_eq!(m.bytes.get(), 40);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_oldest_first_within_budget() {
        // All keys forced into one shard by budget math: shard budget is
        // total/16, so pick values that overflow a single shard. Find 3
        // keys that land in the same shard to make the test deterministic.
        let mut same: Vec<String> = Vec::new();
        let target = shard_index("k0");
        for i in 0..1000 {
            let k = format!("k{i}");
            if shard_index(&k) == target {
                same.push(k);
            }
            if same.len() == 3 {
                break;
            }
        }
        let [a, b, c_key] = &same[..] else {
            panic!("need 3 same-shard keys");
        };
        // Shard budget = 4096/16 = 256 bytes: two 100-byte entries fit,
        // three do not.
        let (c, m) = test_cache(4096);
        c.put(a, val(100));
        c.put(b, val(100));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(c.get(a).is_some());
        c.put(c_key, val(100));
        assert_eq!(m.evictions.get(), 1);
        assert!(c.get(b).is_none(), "LRU entry must be evicted");
        assert!(c.get(a).is_some(), "recently used entry survives");
        assert!(c.get(c_key).is_some(), "new entry admitted");
        assert!(c.bytes() <= 256);
        assert_eq!(m.bytes.get() as usize, c.bytes());
    }

    #[test]
    fn oversized_entries_are_not_admitted() {
        let (c, m) = test_cache(1600); // shard budget 100
        c.put("object:big", val(101));
        assert_eq!(c.len(), 0);
        assert_eq!(m.bytes.get(), 0);
        c.put("object:fits", val(100));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_budget_disables_cache() {
        let (c, m) = test_cache(0);
        c.put("object:aa", val(1));
        assert!(c.get("object:aa").is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(m.misses.get(), 1);
    }

    #[test]
    fn invalidate_prefix_removes_only_matching_keys() {
        let (c, m) = test_cache(16 * 1024);
        c.put(&manifest_key("alexnet"), val(10));
        c.put(&manifest_key("alexnet-v2"), val(10));
        c.put(&manifest_key("resnet"), val(10));
        c.put(&object_key("abcd"), val(10));
        c.invalidate_prefix(&manifest_key("alexnet"));
        // Prefix match: "alexnet" also covers "alexnet-v2" — that is the
        // conservative direction (over-invalidation is safe).
        assert!(c.get(&manifest_key("alexnet")).is_none());
        assert!(c.get(&manifest_key("alexnet-v2")).is_none());
        assert!(c.get(&manifest_key("resnet")).is_some());
        assert!(c.get(&object_key("abcd")).is_some());
        assert_eq!(m.evictions.get(), 0, "invalidations are not evictions");
        assert_eq!(m.bytes.get() as usize, c.bytes());
    }

    #[test]
    fn stale_fill_after_invalidation_is_refused() {
        let (c, _m) = test_cache(16 * 1024);
        // A fill snapshots the generation, reads (old) bytes from disk,
        // loses the race to a publish's invalidation, then tries to cache
        // what it read: the put must be refused.
        let gen = c.generation();
        c.invalidate_prefix(&manifest_key("alexnet"));
        c.put_if_current(&manifest_key("alexnet"), val(10), gen);
        assert!(
            c.get(&manifest_key("alexnet")).is_none(),
            "a fill that raced an invalidation must not be admitted"
        );
        // A fill that snapshotted after the invalidation is admitted.
        let gen = c.generation();
        c.put_if_current(&manifest_key("alexnet"), val(10), gen);
        assert!(c.get(&manifest_key("alexnet")).is_some());
        // Plain puts (content-addressed objects) are unaffected.
        c.invalidate_prefix(&manifest_key("alexnet"));
        c.put(&object_key("abcd"), val(10));
        assert!(c.get(&object_key("abcd")).is_some());
    }

    #[test]
    fn sharding_is_stable_and_covers_range() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..256 {
            let idx = shard_index(&format!("object:{i:02x}"));
            assert!(idx < SHARD_COUNT);
            seen.insert(idx);
        }
        assert!(seen.len() > 8, "FNV prefix should spread keys: {seen:?}");
    }
}
