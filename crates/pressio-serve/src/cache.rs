//! Sharded, content-hash-keyed LRU cache for features and predictions.
//!
//! Keys are content hashes (SHA-256 of the data buffer plus the scheme and
//! error-affecting compressor settings), so identical buffers queried
//! through different connections share entries. The map is split into
//! shards, each behind its own mutex, so concurrent connections contend
//! only when they hash to the same shard. Eviction is true LRU per shard
//! via a recency index (`BTreeMap<tick, key>`), giving O(log n) touch and
//! eviction with strictly bounded memory.
//!
//! Hit/miss/eviction counts are mirrored into `pressio-obs` counters
//! (`<name>.hit`, `<name>.miss`, `<name>.eviction`) so a `--trace` run
//! shows cache effectiveness alongside the request spans.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Aggregate statistics across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Live entries right now.
    pub len: usize,
}

struct Shard<V> {
    /// key → (recency tick, value). The tick doubles as the index into
    /// `order`, so the pair of maps stays consistent under the shard lock.
    /// Keys are two content hashes long (~150 bytes) and both maps need
    /// them, so an entry holds its key once and the maps share it.
    entries: HashMap<Arc<str>, (u64, V)>,
    /// recency tick → key, oldest first.
    order: BTreeMap<u64, Arc<str>>,
    tick: u64,
}

impl<V> Shard<V> {
    fn new() -> Shard<V> {
        Shard {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
        }
    }

    fn touch(&mut self, key: &str) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((at, _)) = self.entries.get_mut(key) {
            let key = self.order.remove(at).expect("index consistent");
            self.order.insert(tick, key);
            *at = tick;
        }
    }
}

/// A sharded LRU map with per-instance obs counter names.
pub struct ShardedLru<V> {
    shards: Box<[Mutex<Shard<V>>]>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    hit_counter: String,
    miss_counter: String,
    eviction_counter: String,
}

impl<V: Clone> ShardedLru<V> {
    /// A cache named `name` (the obs counter prefix) holding at most
    /// `capacity` entries split over `shards` shards. Capacity is
    /// distributed evenly (rounded up), so total occupancy never exceeds
    /// `max(capacity, shards)`.
    pub fn new(name: &str, shards: usize, capacity: usize) -> ShardedLru<V> {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hit_counter: format!("{name}.hit"),
            miss_counter: format!("{name}.miss"),
            eviction_counter: format!("{name}.eviction"),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard<V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<V> {
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        match shard.entries.get(key).map(|(_, v)| v.clone()) {
            Some(v) => {
                shard.touch(key);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                pressio_obs::add_counter(&self.hit_counter, 1);
                Some(v)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                pressio_obs::add_counter(&self.miss_counter, 1);
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the shard's least-recently-used
    /// entry if the shard is at capacity.
    pub fn insert(&self, key: impl Into<String>, value: V) {
        let key: Arc<str> = key.into().into();
        let mut evicted = 0u64;
        {
            let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
            if shard.entries.contains_key(&*key) {
                shard.touch(&key);
                shard.entries.get_mut(&*key).unwrap().1 = value;
            } else {
                while shard.entries.len() >= self.per_shard_capacity {
                    // oldest tick = least recently used
                    let Some((&old_tick, _)) = shard.order.iter().next() else {
                        break;
                    };
                    let victim = shard.order.remove(&old_tick).expect("index consistent");
                    shard.entries.remove(&*victim);
                    evicted += 1;
                }
                shard.tick += 1;
                let tick = shard.tick;
                shard.order.insert(tick, key.clone());
                shard.entries.insert(key, (tick, value));
            }
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            pressio_obs::add_counter(&self.eviction_counter, evicted as i64);
        }
    }

    /// Remove every entry whose key satisfies `predicate`, returning how
    /// many were removed. Used by model hot-reload: predictions cached
    /// under a superseded model version are invalidated in one sweep
    /// instead of lingering until LRU eviction.
    pub fn purge_where(&self, predicate: impl Fn(&str) -> bool) -> usize {
        let mut removed = 0usize;
        for shard in self.shards.iter() {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            let victims: Vec<(u64, Arc<str>)> = shard
                .entries
                .iter()
                .filter(|(k, _)| predicate(k))
                .map(|(k, (tick, _))| (*tick, k.clone()))
                .collect();
            for (tick, key) in victims {
                shard.order.remove(&tick);
                shard.entries.remove(&key);
                removed += 1;
            }
        }
        if removed > 0 {
            self.evictions.fetch_add(removed as u64, Ordering::Relaxed);
            pressio_obs::add_counter(&self.eviction_counter, removed as i64);
        }
        removed
    }

    /// Drop every entry (counts as evictions).
    pub fn clear(&self) -> usize {
        self.purge_where(|_| true)
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hard occupancy bound (shards × per-shard capacity).
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Aggregate counters plus the current size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_round_trip_and_counters() {
        let c: ShardedLru<u64> = ShardedLru::new("t", 4, 64);
        assert!(c.get("missing").is_none());
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.get("b"), Some(2));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.len), (2, 1, 2, 2));
    }

    #[test]
    fn overwrite_replaces_value_without_growth() {
        let c: ShardedLru<&'static str> = ShardedLru::new("t", 2, 8);
        c.insert("k", "old");
        c.insert("k", "new");
        assert_eq!(c.get("k"), Some("new"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn lru_evicts_oldest_not_hottest() {
        // single shard so the recency order is total
        let c: ShardedLru<u32> = ShardedLru::new("t", 1, 3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        c.get("a"); // refresh a: b is now the LRU
        c.insert("d", 4);
        assert_eq!(c.get("b"), None, "LRU entry must be the victim");
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.get("c"), Some(3));
        assert_eq!(c.get("d"), Some(4));
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn size_stays_bounded_under_churn() {
        let c: ShardedLru<usize> = ShardedLru::new("t", 8, 32);
        for i in 0..10_000 {
            c.insert(format!("k{i}"), i);
        }
        assert!(c.len() <= c.capacity(), "{} > {}", c.len(), c.capacity());
        let s = c.stats();
        assert_eq!(s.insertions, 10_000);
        assert_eq!(s.evictions as usize + s.len, 10_000);
    }

    #[test]
    fn purge_where_removes_only_matching_keys() {
        let c: ShardedLru<u32> = ShardedLru::new("t", 4, 64);
        for i in 0..20 {
            c.insert(format!("p:m@1:{i}"), i);
            c.insert(format!("p:m@2:{i}"), i);
        }
        let removed = c.purge_where(|k| k.starts_with("p:m@1:"));
        assert_eq!(removed, 20);
        assert_eq!(c.len(), 20);
        assert!(c.get("p:m@1:3").is_none());
        assert_eq!(c.get("p:m@2:3"), Some(3));
        // purged slots are reusable and recency stays consistent
        for i in 0..20 {
            c.insert(format!("p:m@3:{i}"), i);
        }
        assert!(c.len() <= c.capacity());
        let live = c.len();
        assert_eq!(c.clear(), live, "clear reports what it removed");
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_clamps_to_one_per_shard() {
        let c: ShardedLru<u8> = ShardedLru::new("t", 4, 0);
        c.insert("a", 1);
        assert_eq!(c.get("a"), Some(1));
        assert!(c.capacity() >= 1);
    }
}
