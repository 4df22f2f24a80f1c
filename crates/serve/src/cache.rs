//! The content-addressed plan cache: N-way sharded, bounded, LRU-evicting.
//!
//! Entries are keyed by [`PlanRequest::cache_key`] — a stable fingerprint of
//! (canonicalized model DAG, effective cluster, constraints) — and store the
//! structured response; plan serialization is deterministic, so a cache hit
//! returns **byte-identical** output to the request that populated it. Beside
//! the entry, each slot keeps the hit-invariant part of its reply line
//! ([`PlanHitBody`]), rendered on the entry's first served hit and spliced
//! into every later one; an entry that is never hit renders and stores
//! nothing, and the rendered bytes go wherever the slot goes — eviction,
//! invalidation, replacement.
//!
//! The map is split into [`CacheConfig::shards`] independently locked shards
//! (selected by an FNV-1a hash of the key), so concurrent hits on different
//! keys scale past one core instead of serialising on a single mutex. Shards
//! are guarded by an `RwLock`: the hit path takes a **read** lock (recency is
//! refreshed through a per-slot atomic stamp, so hits on the *same* shard —
//! and even the same key — also run concurrently); only inserts, evictions
//! and invalidations take the write lock. Each shard holds at most
//! `capacity / shards` entries; inserting past that bound evicts the shard's
//! least-recently-stamped entry (exact, computed under the write lock) and
//! bumps the `evicted` counter.
//!
//! Invalidation is fingerprint-scoped: an elasticity event names a cluster,
//! and only entries planned against that cluster (matched by
//! [`ClusterSpec::fingerprint`](qsync_cluster::topology::ClusterSpec::fingerprint))
//! are evicted; plans for unrelated clusters stay hot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};

use qsync_api::{PlanHitBody, PlanRequest, PlanResponse};
use qsync_graph::PrecisionDag;

pub use qsync_api::CacheStats;

/// One cached plan: the response to replay plus what warm re-planning needs.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The request that populated the entry (re-planned on elasticity events).
    pub request: PlanRequest,
    /// The response as served (with `outcome`/`elapsed_us` of the populating
    /// run). Serialization of `response.plan` is deterministic, which is what
    /// makes repeated hits byte-identical; the serialized copy hits are
    /// spliced from lives beside the entry in its cache slot, not here.
    pub response: PlanResponse,
    /// The inference-device precision assignment — the allocator's warm-start input.
    pub inference_pdag: Option<PrecisionDag>,
    /// Fingerprint of the cluster as requested (elasticity match key).
    pub cluster_fingerprint: u128,
}

/// Sizing of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total entry budget across all shards (rounded up to a multiple of `shards`).
    pub capacity: usize,
    /// Number of independently locked shards.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 1024, shards: 16 }
    }
}

/// One cache slot: the entry, its recency stamp and the rendered middle of
/// its hit reply line. The stamp is atomic and the body fills itself once, so
/// the hit path needs only a shard **read** lock.
#[derive(Debug)]
struct Slot {
    entry: CachedPlan,
    last_used: AtomicU64,
    hit_body: Arc<PlanHitBody>,
}

/// One shard. The LRU victim is found by scanning for the minimum recency
/// stamp under the write lock — O(shard size), but evictions are rare and
/// shards are small, and in exchange the hit path never writes shared state
/// beyond one atomic store. Stamps come from a cache-global atomic counter,
/// so they are unique and the scan is deterministic.
#[derive(Debug, Default)]
struct Shard {
    slots: HashMap<String, Slot>,
}

impl Shard {
    /// The key of the least-recently-stamped slot.
    fn coldest(&self) -> Option<String> {
        self.slots
            .iter()
            .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
            .map(|(key, _)| key.clone())
    }
}

/// Per-shard hit/miss/evict counters, maintained outside the shard lock so
/// the hit path stays lock-free for accounting. Snapshot via
/// [`PlanCache::shard_stats`].
#[derive(Debug, Default)]
struct ShardCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
}

/// Point-in-time view of one shard's counters and occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Hits attributed to keys hashing into this shard.
    pub hits: u64,
    /// Misses attributed to keys hashing into this shard.
    pub misses: u64,
    /// Capacity evictions performed by this shard.
    pub evicted: u64,
    /// Entries currently resident in this shard.
    pub entries: usize,
}

/// A thread-safe, content-addressed, sharded LRU map from cache key to
/// [`CachedPlan`]. Hits take shard read locks, so they scale across cores
/// instead of serialising on one mutex.
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<RwLock<Shard>>,
    counters: Vec<ShardCounters>,
    per_shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    evicted: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_config(CacheConfig::default())
    }
}

impl PlanCache {
    /// An empty cache with the default sizing.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with explicit capacity and shard count.
    pub fn with_config(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard_capacity = config.capacity.max(1).div_ceil(shards);
        PlanCache {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            counters: (0..shards).map(|_| ShardCounters::default()).collect(),
            per_shard_capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// The index of the shard a key lives in (FNV-1a over the key bytes).
    fn shard_index(&self, key: &str) -> usize {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// The shard a key lives in.
    fn shard_of(&self, key: &str) -> &RwLock<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Look up a key, counting a hit or miss.
    pub fn lookup(&self, key: &str) -> Option<CachedPlan> {
        match self.peek(key) {
            Some(entry) => {
                self.note_hit(key);
                Some(entry)
            }
            None => {
                self.note_miss(key);
                None
            }
        }
    }

    /// Look up a key without touching the hit/miss counters (recency is still
    /// refreshed). The engine's single-flight path uses this so that a request
    /// which waits for an in-flight computation still counts as exactly one
    /// hit or miss. Takes only a shard **read** lock.
    pub fn peek(&self, key: &str) -> Option<CachedPlan> {
        self.peek_hit(key).map(|(entry, _)| entry)
    }

    /// [`peek`](Self::peek), plus the slot's [`PlanHitBody`] — read under one
    /// lock, so the body is the one rendered from (or to be rendered from)
    /// exactly the returned entry.
    pub fn peek_hit(&self, key: &str) -> Option<(CachedPlan, Arc<PlanHitBody>)> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_of(key).read().expect("plan cache poisoned");
        shard.slots.get(key).map(|slot| {
            slot.last_used.store(now, Ordering::Relaxed);
            (slot.entry.clone(), Arc::clone(&slot.hit_body))
        })
    }

    /// Count one cache hit against the shard `key` hashes into.
    pub fn note_hit(&self, key: &str) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.counters[self.shard_index(key)].hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one cache miss against the shard `key` hashes into.
    pub fn note_miss(&self, key: &str) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.counters[self.shard_index(key)].misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert (or replace) an entry, evicting the shard's least-recently-used
    /// entries while it sits over its capacity share.
    pub fn insert(&self, key: String, entry: CachedPlan) {
        let last_used = self.clock.fetch_add(1, Ordering::Relaxed);
        let index = self.shard_index(&key);
        let mut shard = self.shards[index].write().expect("plan cache poisoned");
        shard.slots.insert(
            key,
            Slot { entry, last_used: AtomicU64::new(last_used), hit_body: Arc::default() },
        );
        while shard.slots.len() > self.per_shard_capacity {
            let Some(coldest) = shard.coldest() else {
                break;
            };
            shard.slots.remove(&coldest);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            self.counters[index].evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evict every entry planned against the cluster with this fingerprint,
    /// returning the evicted entries (the elasticity layer re-plans them).
    pub fn invalidate_cluster(&self, cluster_fingerprint: u128) -> Vec<(String, CachedPlan)> {
        let mut evicted = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.write().expect("plan cache poisoned");
            let keys: Vec<String> = shard
                .slots
                .iter()
                .filter(|(_, slot)| slot.entry.cluster_fingerprint == cluster_fingerprint)
                .map(|(k, _)| k.clone())
                .collect();
            for key in keys {
                if let Some(slot) = shard.slots.remove(&key) {
                    evicted.push((key, slot.entry));
                }
            }
        }
        self.invalidated.fetch_add(evicted.len() as u64, Ordering::Relaxed);
        // Deterministic re-plan order regardless of shard/HashMap iteration:
        // sort by the cache key, which is unique (request ids are
        // client-chosen and may collide).
        evicted.sort_by(|(a, _), (b, _)| a.cmp(b));
        evicted
    }

    /// Remove one entry by key, returning it if it was resident. Counted as
    /// an invalidation (the replication path uses this to mirror a primary's
    /// evictions key-by-key).
    pub fn remove(&self, key: &str) -> Option<CachedPlan> {
        let mut shard = self.shard_of(key).write().expect("plan cache poisoned");
        let removed = shard.slots.remove(key).map(|slot| slot.entry);
        if removed.is_some() {
            self.invalidated.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Every resident entry, sorted by key — the snapshot writer's source.
    /// Clones under shard read locks; intended for admin-rate paths, not the
    /// hit path.
    pub fn entries(&self) -> Vec<(String, CachedPlan)> {
        let mut entries: Vec<(String, CachedPlan)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("plan cache poisoned")
                    .slots
                    .iter()
                    .map(|(k, slot)| (k.clone(), slot.entry.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Every resident cache key, sorted — the `Resync` reply's payload (a
    /// consumer that lost invalidation events rebuilds its view from this).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read().expect("plan cache poisoned").slots.keys().cloned().collect::<Vec<_>>()
            })
            .collect();
        keys.sort();
        keys
    }

    /// Per-shard counters and occupancy, in shard order. Feeds the metrics
    /// snapshot's per-shard gauges; the sums equal the totals in
    /// [`stats`](Self::stats) (minus invalidations, which are cache-global).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .zip(&self.counters)
            .map(|(shard, counters)| ShardStats {
                hits: counters.hits.load(Ordering::Relaxed),
                misses: counters.misses.load(Ordering::Relaxed),
                evicted: counters.evicted.load(Ordering::Relaxed),
                entries: shard.read().expect("plan cache poisoned").slots.len(),
            })
            .collect()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("plan cache poisoned").slots.len())
            .sum()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_api::{ModelSpec, PlanOutcome};
    use qsync_cluster::topology::ClusterSpec;
    use qsync_core::plan::PrecisionPlan;

    fn entry(id: u64, cluster: &ClusterSpec) -> (String, CachedPlan) {
        let model = ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 };
        let request = PlanRequest::new(id, model.clone(), cluster.clone());
        let dag = model.build();
        let plan = PrecisionPlan::oracle(&dag, cluster);
        let key = request.cache_key();
        let response = PlanResponse {
            id,
            key: key.clone(),
            outcome: PlanOutcome::ColdPlanned,
            plan: plan.clone(),
            predicted_iteration_us: 1.0,
            t_min_us: 1.0,
            promotions_accepted: 0,
            warm_demotions: 0,
            elapsed_us: 0,
            trace_id: None,
        };
        let cluster_fingerprint = request.cluster_fingerprint();
        (
            key,
            CachedPlan { request, response, inference_pdag: None, cluster_fingerprint },
        )
    }

    /// Distinct keys: vary the request's throughput tolerance (hashed verbatim into
    /// the cache key) so the model and cluster stay fixed but every key is unique.
    fn keyed_entries(n: usize, cluster: &ClusterSpec) -> Vec<(String, CachedPlan)> {
        (0..n)
            .map(|i| {
                let (_, mut e) = entry(i as u64, cluster);
                e.request.throughput_tolerance = Some(0.001 + i as f64 * 1e-6);
                (e.request.cache_key(), e)
            })
            .collect()
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = PlanCache::new();
        let (key, e) = entry(1, &ClusterSpec::hybrid_small());
        assert!(cache.lookup(&key).is_none());
        cache.insert(key.clone(), e);
        assert!(cache.lookup(&key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn shard_stats_sum_to_cache_totals() {
        let cluster = ClusterSpec::hybrid_small();
        let cache = PlanCache::with_config(CacheConfig { capacity: 4, shards: 2 });
        let entries = keyed_entries(12, &cluster);
        for (key, e) in &entries {
            cache.insert(key.clone(), e.clone());
        }
        for (key, _) in &entries {
            let _ = cache.lookup(key);
        }
        let totals = cache.stats();
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), totals.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), totals.misses);
        assert_eq!(shards.iter().map(|s| s.evicted).sum::<u64>(), totals.evicted);
        assert_eq!(shards.iter().map(|s| s.entries).sum::<usize>(), totals.entries);
        assert!(totals.evicted > 0, "capacity 4 with 12 inserts must evict");
    }

    #[test]
    fn invalidation_is_scoped_to_one_cluster() {
        let cache = PlanCache::new();
        let a = ClusterSpec::cluster_a(1, 1);
        let b = ClusterSpec::cluster_a(2, 2);
        let (ka, ea) = entry(1, &a);
        let (kb, eb) = entry(2, &b);
        cache.insert(ka.clone(), ea);
        cache.insert(kb.clone(), eb);
        let evicted = cache.invalidate_cluster(a.fingerprint());
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, ka);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&kb).is_some());
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let cluster = ClusterSpec::hybrid_small();
        let cache = PlanCache::with_config(CacheConfig { capacity: 4, shards: 2 });
        for (key, e) in keyed_entries(32, &cluster) {
            cache.insert(key, e);
        }
        assert!(
            cache.len() <= cache.capacity(),
            "{} entries resident with capacity {}",
            cache.len(),
            cache.capacity()
        );
        assert_eq!(cache.stats().evicted as usize, 32 - cache.len());
    }

    #[test]
    fn least_recently_used_entries_are_evicted_first() {
        let cluster = ClusterSpec::hybrid_small();
        // One shard so every entry competes in the same LRU domain.
        let cache = PlanCache::with_config(CacheConfig { capacity: 3, shards: 1 });
        let entries = keyed_entries(4, &cluster);
        for (key, e) in entries.iter().take(3).cloned() {
            cache.insert(key, e);
        }
        // Touch entry 0 so entry 1 becomes the coldest, then overflow.
        assert!(cache.peek(&entries[0].0).is_some());
        cache.insert(entries[3].0.clone(), entries[3].1.clone());
        assert!(cache.peek(&entries[0].0).is_some(), "recently used entry survived");
        assert!(cache.peek(&entries[1].0).is_none(), "coldest entry was evicted");
        assert!(cache.peek(&entries[2].0).is_some());
        assert!(cache.peek(&entries[3].0).is_some());
        assert_eq!(cache.stats().evicted, 1);
    }

    #[test]
    fn concurrent_hits_keep_counters_exact() {
        // 8 threads hammering lookups (read locks) while inserts and
        // invalidations (write locks) interleave: counters must stay exact
        // and the capacity bound must hold.
        let cluster = ClusterSpec::hybrid_small();
        let cache = std::sync::Arc::new(PlanCache::with_config(CacheConfig {
            capacity: 64,
            shards: 4,
        }));
        let entries = keyed_entries(16, &cluster);
        for (key, e) in &entries {
            cache.insert(key.clone(), e.clone());
        }
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = std::sync::Arc::clone(&cache);
                let entries = entries.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        let (key, _) = &entries[(t * 7 + i) % entries.len()];
                        assert!(cache.lookup(key).is_some());
                    }
                });
            }
            // One writer re-inserting resident keys: write locks interleave
            // with the readers, and overwrites must not disturb presence.
            let cache = std::sync::Arc::clone(&cache);
            let entries = entries.clone();
            scope.spawn(move || {
                for i in 0..100 {
                    let (key, e) = &entries[i % entries.len()];
                    cache.insert(key.clone(), e.clone());
                }
            });
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, 8 * 200);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.entries, 16);
    }

    #[test]
    fn remove_and_entries_mirror_the_resident_set() {
        let cluster = ClusterSpec::hybrid_small();
        let cache = PlanCache::with_config(CacheConfig { capacity: 64, shards: 4 });
        let entries = keyed_entries(8, &cluster);
        for (key, e) in &entries {
            cache.insert(key.clone(), e.clone());
        }
        // entries() is key-sorted and complete.
        let listed = cache.entries();
        let mut want: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
        want.sort();
        assert_eq!(listed.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(), want);
        // remove() takes exactly one entry out and counts an invalidation.
        let victim = &entries[3].0;
        assert!(cache.remove(victim).is_some());
        assert!(cache.peek(victim).is_none());
        assert!(cache.remove(victim).is_none(), "double remove finds nothing");
        assert_eq!(cache.stats().invalidated, 1);
        assert_eq!(cache.len(), 7);
    }

    #[test]
    fn shards_spread_keys() {
        let cluster = ClusterSpec::hybrid_small();
        // Capacity well above n: shard load is uneven, and a shard over its share
        // would otherwise evict (capacity is enforced per shard).
        let cache = PlanCache::with_config(CacheConfig { capacity: 256, shards: 8 });
        for (key, e) in keyed_entries(64, &cluster) {
            cache.insert(key, e);
        }
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.read().unwrap().slots.is_empty())
            .count();
        assert!(populated > 1, "FNV sharding left every key in one shard");
        assert_eq!(cache.len(), 64);
    }
}
