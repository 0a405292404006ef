//! Sharded, digest-keyed LRU cache for features and predictions.
//!
//! Every key is one 32-byte digest, a [`CacheKey`], built from the raw
//! digests of a request's parts or from a string; identical buffers queried
//! through different connections share entries. The map is split into
//! shards, each behind its own mutex, so concurrent connections contend
//! only when they hash to the same shard.
//!
//! An entry is one hash-map slot — key, recency tick, value — with no
//! recency index beside it: a hit rewrites the tick, and a full shard drops
//! its least-recently-used sixteenth at once, found by one selection over
//! the ticks. Touching is O(1), an eviction O(1) amortised, and memory is
//! strictly bounded.
//!
//! Hit/miss/eviction counts are mirrored into `pressio-obs` counters
//! (`<name>.hit`, `<name>.miss`, `<name>.eviction`) so a `--trace` run
//! shows cache effectiveness alongside the request spans.

use pressio_core::hash::Sha256;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A cache key: one SHA-256 digest, whatever it was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey([u8; 32]);

impl CacheKey {
    /// The digest of `parts`, each prefixed by its length so that no two
    /// lists of parts share a key.
    pub fn of(parts: &[&[u8]]) -> CacheKey {
        let mut h = Sha256::new();
        for part in parts {
            h.update(&(part.len() as u64).to_le_bytes());
            h.update(part);
        }
        CacheKey(h.finalize())
    }
}

impl<S: AsRef<str>> From<S> for CacheKey {
    fn from(key: S) -> CacheKey {
        CacheKey(Sha256::digest(key.as_ref().as_bytes()))
    }
}

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

/// key → (recency tick, value); a larger tick is more recent.
struct Shard<V> {
    entries: HashMap<CacheKey, (u64, V)>,
    tick: u64,
}

impl<V> Shard<V> {
    fn new() -> Shard<V> {
        Shard {
            entries: HashMap::new(),
            tick: 0,
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

    /// The locked shard a key lives in: a digest's leading bytes are
    /// already uniform.
    fn shard(&self, key: &CacheKey) -> std::sync::MutexGuard<'_, Shard<V>> {
        let lead = u64::from_le_bytes(key.0[..8].try_into().expect("8 bytes"));
        let shard = &self.shards[(lead % self.shards.len() as u64) as usize];
        shard.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: impl Into<CacheKey>) -> Option<V> {
        let key = key.into();
        let mut shard = self.shard(&key);
        shard.tick += 1;
        let tick = shard.tick;
        let found = shard.entries.get_mut(&key).map(|(at, v)| {
            *at = tick;
            v.clone()
        });
        drop(shard);
        let (count, counter) = match found {
            Some(_) => (&self.hits, &self.hit_counter),
            None => (&self.misses, &self.miss_counter),
        };
        count.fetch_add(1, Ordering::Relaxed);
        pressio_obs::add_counter(counter, 1);
        found
    }

    /// Insert (or refresh) `key`. A shard at capacity first drops its
    /// least-recently-used sixteenth (at least one entry).
    pub fn insert(&self, key: impl Into<CacheKey>, value: V) {
        let key = key.into();
        let mut shard = self.shard(&key);
        let len = shard.entries.len();
        if len >= self.per_shard_capacity && !shard.entries.contains_key(&key) {
            let mut ticks: Vec<u64> = shard.entries.values().map(|(t, _)| *t).collect();
            let newest_victim = *ticks.select_nth_unstable((len / 16).max(1) - 1).1;
            shard.entries.retain(|_, (t, _)| *t > newest_victim);
        }
        let evicted = len - shard.entries.len();
        shard.tick += 1;
        let tick = shard.tick;
        shard.entries.insert(key, (tick, value));
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evicted(evicted);
    }

    fn evicted(&self, n: usize) {
        if n > 0 {
            self.evictions.fetch_add(n as u64, Ordering::Relaxed);
            pressio_obs::add_counter(&self.eviction_counter, n as i64);
        }
    }

    /// Remove every entry whose value satisfies `predicate`, returning how
    /// many were removed. Used by model hot-reload: predictions a
    /// superseded model version made are invalidated in one sweep instead
    /// of lingering until LRU eviction.
    pub fn purge_where(&self, predicate: impl Fn(&V) -> bool) -> usize {
        let mut removed = 0;
        for shard in self.shards.iter() {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            let before = shard.entries.len();
            shard.entries.retain(|_, (_, v)| !predicate(v));
            removed += before - shard.entries.len();
        }
        self.evicted(removed);
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

    /// Bytes the entries hold: a fixed slot each (key, tick, value) plus
    /// what `heap` says a value owns beyond its slot.
    pub fn bytes(&self, heap: impl Fn(&V) -> usize) -> u64 {
        let slot = std::mem::size_of::<(CacheKey, (u64, V))>();
        let shard_bytes = |s: &Mutex<Shard<V>>| {
            let s = s.lock().unwrap_or_else(|e| e.into_inner());
            s.entries
                .values()
                .map(|(_, v)| slot + heap(v))
                .sum::<usize>()
        };
        self.shards.iter().map(shard_bytes).sum::<usize>() as u64
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
    fn a_full_shard_drops_its_least_recently_used_sixteenth() {
        let c: ShardedLru<usize> = ShardedLru::new("t", 1, 32);
        for i in 0..32 {
            c.insert(format!("k{i}"), i);
        }
        for i in 0..4 {
            c.get(format!("k{i}").as_str()); // now the four most recent
        }
        c.insert("new", 32);
        // 32 / 16 = 2 victims: the two oldest not refreshed
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.len(), 31);
        assert!(c.get("k4").is_none() && c.get("k5").is_none());
        assert!((0..4)
            .chain(6..32)
            .all(|i| c.get(format!("k{i}")) == Some(i)));
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
        // each value records the model that made it, as a cached
        // prediction does; one shard, full, so reuse is visible
        let c: ShardedLru<(u32, u32)> = ShardedLru::new("t", 1, 40);
        for i in 0..20 {
            c.insert(format!("m@1:{i}"), (1, i));
            c.insert(format!("m@2:{i}"), (2, i));
        }
        let removed = c.purge_where(|&(model, _)| model == 1);
        assert_eq!(removed, 20);
        assert_eq!(c.len(), 20);
        assert!((0..20).all(|i| c.get(format!("m@1:{i}")).is_none()));
        assert!((0..20).all(|i| c.get(format!("m@2:{i}")) == Some((2, i))));
        // the purged slots are reused: a full shard again, nothing evicted
        for i in 0..20 {
            c.insert(format!("m@3:{i}"), (3, i));
        }
        assert_eq!((c.len(), c.stats().evictions), (40, 20));
        assert!((0..20).all(|i| c.get(format!("m@2:{i}")) == Some((2, i))));
        assert_eq!(c.clear(), 40, "clear reports what it removed");
        assert!(c.is_empty());
    }

    #[test]
    fn bytes_are_fixed_slots_plus_what_values_own() {
        let c: ShardedLru<Vec<u8>> = ShardedLru::new("t", 4, 64);
        assert_eq!(c.bytes(Vec::len), 0);
        c.insert("a", vec![0; 10]);
        c.insert("b", vec![0; 30]);
        let slot = std::mem::size_of::<(CacheKey, (u64, Vec<u8>))>();
        assert_eq!(c.bytes(Vec::len), 2 * slot as u64 + 40);
    }

    #[test]
    fn string_keys_and_part_lists_are_distinct_digests() {
        assert_eq!(CacheKey::from("ab"), CacheKey::from(String::from("ab")));
        assert_ne!(CacheKey::from("ab"), CacheKey::from("ba"));
        // the length prefix: moving a byte across a part boundary moves the key
        assert_ne!(CacheKey::of(&[b"a", b"bc"]), CacheKey::of(&[b"ab", b"c"]));
    }

    #[test]
    fn zero_capacity_clamps_to_one_per_shard() {
        let c: ShardedLru<u8> = ShardedLru::new("t", 4, 0);
        c.insert("a", 1);
        assert_eq!(c.get("a"), Some(1));
        assert!(c.capacity() >= 1);
    }
}
