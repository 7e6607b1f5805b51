//! The server's two bounded LRU caches, on one shared implementation.
//!
//! **Contexts.** The expensive per-net state of a schedule request — the
//! ECS partition, the non-negative T-invariant basis and the seeded base
//! [`qss::petri::MarkingStore`], bundled as a [`SearchContext`] — depends
//! only on the net. A long-running service therefore keys it by
//! [`qss::LinkedArtifact::fingerprint`] and shares one
//! [`Arc<SearchContext>`] across every request that carries the same net,
//! paying the analyses once per net instead of once per request.
//!
//! Each entry additionally stores the net's *ordered digest*
//! ([`qss::petri::net_ordered_digest`]): the fingerprint is
//! order-independent, so a same-content-different-id-order net would
//! collide with an entry whose id-indexed analyses do not apply to it. A
//! digest mismatch on an otherwise matching fingerprint is counted as a
//! collision and served as a miss — never as silent reuse.
//!
//! **Reports.** Serialized `AnalysisReport`s are keyed by
//! `(fingerprint, ordered digest)` — the report embeds id-indexed facts,
//! so both must match. Analysis is pure and deterministic, so a hit
//! returns bytes identical to a fresh run; the `cached` flag in the
//! response is the only difference.
//!
//! Locking goes through [`crate::util::lock`], which shrugs off
//! poisoning: a panic elsewhere must degrade one request, not silently
//! turn a cache into a permanent miss.

use crate::util::lock;
use qss::remote::CacheStats;
use qss::SearchContext;
use qss_obs::{Counter, Observer};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// A map bounded to `capacity` entries that evicts the least recently
/// used one, with hit/miss/eviction/collision counters
/// ([`qss_obs::Counter`] cells, adoptable into an [`Observer`] registry
/// so `stats` and `metrics` read the same cells).
///
/// Recency is a monotonic tick stamped on every lookup and insert;
/// eviction removes the smallest stamp.
struct Lru<K, V> {
    capacity: usize,
    state: Mutex<LruState<K, V>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    collisions: Counter,
}

struct LruState<K, V> {
    entries: HashMap<K, (V, u64)>,
    tick: u64,
}

impl<K: Copy + Eq + Hash, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            state: Mutex::new(LruState {
                entries: HashMap::new(),
                tick: 0,
            }),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            collisions: Counter::new(),
        }
    }

    /// The value under `key`, if `fits` accepts it; a hit refreshes the
    /// entry's recency. A value `fits` rejects counts as a collision and,
    /// like an absent key, as a miss.
    fn get(&self, key: K, fits: impl FnOnce(&V) -> bool) -> Option<V> {
        let mut state = lock(&self.state);
        state.tick += 1;
        let tick = state.tick;
        match state.entries.get_mut(&key) {
            Some((value, stamp)) if fits(value) => {
                *stamp = tick;
                self.hits.inc();
                return Some(value.clone());
            }
            Some(_) => self.collisions.inc(),
            None => {}
        }
        self.misses.inc();
        None
    }

    /// Stores `value` under `key`. If the key already holds a value `fits`
    /// accepts (a racing thread stored it first), that value is kept,
    /// refreshed and returned instead. A value `fits` rejects is
    /// overwritten in place, so the newer one wins the slot; a new key
    /// evicts the least recently used entry when the map is full. A
    /// zero-capacity map stores nothing.
    fn insert(&self, key: K, value: V, fits: impl FnOnce(&V) -> bool) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        let mut state = lock(&self.state);
        state.tick += 1;
        let tick = state.tick;
        if let Some((held, stamp)) = state.entries.get_mut(&key) {
            *stamp = tick;
            if fits(held) {
                return Some(held.clone());
            }
            *held = value;
            return None;
        }
        if state.entries.len() >= self.capacity {
            let oldest = state
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(key, _)| *key);
            if let Some(oldest) = oldest {
                state.entries.remove(&oldest);
                self.evictions.inc();
            }
        }
        state.entries.insert(key, (value, tick));
        None
    }

    fn len(&self) -> usize {
        lock(&self.state).entries.len()
    }
}

#[derive(Clone)]
struct ContextEntry {
    digest: u64,
    context: Arc<SearchContext>,
}

/// An LRU-bounded map from net fingerprint to shared [`SearchContext`],
/// with hit/miss/eviction/collision counters.
///
/// All methods take `&self`; the cache is shared freely across the
/// server's worker threads.
pub struct ContextCache {
    lru: Lru<u64, ContextEntry>,
}

impl ContextCache {
    /// Creates a cache holding at most `capacity` contexts. A capacity of
    /// zero disables caching entirely (every lookup misses) — the "cold"
    /// configuration the benchmark compares against.
    pub fn new(capacity: usize) -> Self {
        ContextCache {
            lru: Lru::new(capacity),
        }
    }

    /// Registers the cache's counter cells with the observer's registry
    /// (no-op for a disabled observer).
    pub fn adopt_into(&self, observer: &Observer) {
        observer.adopt_counter("context_cache.hits", &self.lru.hits);
        observer.adopt_counter("context_cache.misses", &self.lru.misses);
        observer.adopt_counter("context_cache.evictions", &self.lru.evictions);
        observer.adopt_counter("context_cache.collisions", &self.lru.collisions);
    }

    /// Returns the cached context for `(fingerprint, digest)` or builds,
    /// caches and returns a fresh one. The boolean reports whether this
    /// was a hit.
    ///
    /// `build` runs outside the cache lock, so a slow analysis of one net
    /// never blocks requests for other nets; if two threads race to build
    /// the same context, the first one to finish wins and the loser
    /// adopts the winner's copy (the in-flight coalescing layer upstream
    /// makes this race rare for `schedule` traffic).
    pub fn get_or_build(
        &self,
        fingerprint: u64,
        digest: u64,
        build: impl FnOnce() -> SearchContext,
    ) -> (Arc<SearchContext>, bool) {
        let fits = move |entry: &ContextEntry| entry.digest == digest;
        if let Some(entry) = self.lru.get(fingerprint, fits) {
            return (entry.context, true);
        }
        let context = Arc::new(build());
        let entry = ContextEntry {
            digest,
            context: Arc::clone(&context),
        };
        match self.lru.insert(fingerprint, entry, fits) {
            Some(held) => (held.context, false),
            None => (context, false),
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.lru.hits.get(),
            misses: self.lru.misses.get(),
            evictions: self.lru.evictions.get(),
            collisions: self.lru.collisions.get(),
            entries: self.lru.len() as u64,
            capacity: self.lru.capacity as u64,
        }
    }
}

/// Bounded LRU cache of `AnalysisReport`s serialized as compact JSON,
/// keyed by `(fingerprint, ordered_digest)`. It always holds at least one
/// entry.
pub(crate) struct ReportCache {
    lru: Lru<(u64, u64), String>,
}

impl ReportCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ReportCache {
            lru: Lru::new(capacity.max(1)),
        }
    }

    /// Registers the cache's counter cells with the observer's registry.
    pub(crate) fn adopt_into(&self, observer: &Observer) {
        observer.adopt_counter("report_cache.hits", &self.lru.hits);
        observer.adopt_counter("report_cache.misses", &self.lru.misses);
        observer.adopt_counter("report_cache.evictions", &self.lru.evictions);
    }

    pub(crate) fn get(&self, fingerprint: u64, digest: u64) -> Option<String> {
        self.lru.get((fingerprint, digest), |_| true)
    }

    pub(crate) fn insert(&self, fingerprint: u64, digest: u64, report: String) {
        self.lru.insert((fingerprint, digest), report, |_| true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qss::petri::{NetBuilder, PetriNet, TransitionKind};
    use std::thread;

    fn tiny_net(tag: &str) -> PetriNet {
        let mut b = NetBuilder::new("tiny");
        let p = b.place(format!("p_{tag}"), 0);
        let src = b.transition(format!("in_{tag}"), TransitionKind::UncontrollableSource);
        let t = b.transition(format!("t_{tag}"), TransitionKind::Internal);
        b.arc_t2p(src, p, 1);
        b.arc_p2t(p, t, 1);
        b.build().unwrap()
    }

    fn keyed(tag: &str) -> (u64, u64, PetriNet) {
        let net = tiny_net(tag);
        (
            qss::petri::net_fingerprint(&net),
            qss::petri::net_ordered_digest(&net),
            net,
        )
    }

    #[test]
    fn hit_after_miss_shares_the_context() {
        let cache = ContextCache::new(4);
        let (fp, dg, net) = keyed("a");
        let (first, hit) = cache.get_or_build(fp, dg, || SearchContext::new(&net));
        assert!(!hit);
        let (second, hit) = cache.get_or_build(fp, dg, || panic!("must not rebuild"));
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn digest_mismatch_is_a_counted_collision_not_a_hit() {
        let cache = ContextCache::new(4);
        let (fp, dg, net) = keyed("a");
        cache.get_or_build(fp, dg, || SearchContext::new(&net));
        // Forge a same-fingerprint different-digest key.
        let (ctx, hit) = cache.get_or_build(fp, dg ^ 1, || SearchContext::new(&net));
        assert!(!hit);
        let stats = cache.stats();
        assert_eq!(stats.collisions, 1);
        assert_eq!(stats.misses, 2);
        // The newer digest now owns the slot.
        let (again, hit) = cache.get_or_build(fp, dg ^ 1, || panic!("cached"));
        assert!(hit);
        assert!(Arc::ptr_eq(&ctx, &again));
    }

    #[test]
    fn capacity_is_enforced_lru_first() {
        let cache = ContextCache::new(2);
        let (fp_a, dg_a, net_a) = keyed("a");
        let (fp_b, dg_b, net_b) = keyed("b");
        let (fp_c, dg_c, net_c) = keyed("c");
        cache.get_or_build(fp_a, dg_a, || SearchContext::new(&net_a));
        cache.get_or_build(fp_b, dg_b, || SearchContext::new(&net_b));
        // Touch `a` so `b` is the LRU entry.
        cache.get_or_build(fp_a, dg_a, || panic!("cached"));
        cache.get_or_build(fp_c, dg_c, || SearchContext::new(&net_c));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // `a` survived, `b` was evicted.
        let (_, hit) = cache.get_or_build(fp_a, dg_a, || panic!("a must be cached"));
        assert!(hit);
        let (_, hit) = cache.get_or_build(fp_b, dg_b, || SearchContext::new(&net_b));
        assert!(!hit);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ContextCache::new(0);
        let (fp, dg, net) = keyed("a");
        let (_, hit) = cache.get_or_build(fp, dg, || SearchContext::new(&net));
        assert!(!hit);
        let (_, hit) = cache.get_or_build(fp, dg, || SearchContext::new(&net));
        assert!(!hit);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    fn entry(n: u64) -> String {
        format!("report-{n}")
    }

    #[test]
    fn report_cache_hits_refresh_recency() {
        let cache = ReportCache::new(2);
        cache.insert(1, 1, entry(1));
        cache.insert(2, 2, entry(2));
        // Touch the older entry: it becomes the most recent.
        assert_eq!(cache.get(1, 1), Some(entry(1)));
        // Inserting over capacity now evicts (2, 2), not (1, 1).
        cache.insert(3, 3, entry(3));
        assert_eq!(cache.get(1, 1), Some(entry(1)));
        assert_eq!(cache.get(2, 2), None);
        assert_eq!(cache.get(3, 3), Some(entry(3)));
    }

    #[test]
    fn report_cache_keeps_one_entry_when_the_context_cache_is_off() {
        let cache = ReportCache::new(0);
        cache.insert(1, 1, entry(1));
        assert_eq!(cache.get(1, 1), Some(entry(1)));
        cache.insert(2, 2, entry(2));
        assert_eq!(cache.get(1, 1), None);
        assert_eq!(cache.get(2, 2), Some(entry(2)));
    }

    #[test]
    fn report_cache_keys_on_both_fingerprint_and_digest() {
        let cache = ReportCache::new(4);
        cache.insert(1, 1, entry(1));
        assert_eq!(cache.get(1, 2), None);
        assert_eq!(cache.get(2, 1), None);
        assert_eq!(cache.get(1, 1), Some(entry(1)));
    }

    #[test]
    fn a_poisoned_lock_is_not_a_permanent_cache_miss() {
        let cache = Arc::new(ReportCache::new(2));
        cache.insert(1, 1, entry(1));
        // Poison the mutex: a thread panics while holding the lock.
        let poisoner = Arc::clone(&cache);
        let _ = thread::spawn(move || {
            let _guard = poisoner.lru.state.lock();
            panic!("poison the report cache lock");
        })
        .join();
        // The cache shrugs it off: hits still hit, inserts still land.
        // (This was a real bug: `lock().ok()?` silently disabled the
        // cache forever after any such panic.)
        assert_eq!(cache.get(1, 1), Some(entry(1)));
        cache.insert(2, 2, entry(2));
        assert_eq!(cache.get(2, 2), Some(entry(2)));
    }
}
