//! The bounded, sharded result cache behind the daemon.
//!
//! Keys are pairs of fingerprints: `params` (the job shape — operation,
//! threshold, algorithm, every output-relevant flag) and `content` (the
//! canonical input digest from [`crate::canon`]). A warm hit returns the
//! cached rendered body and stats artifact in O(1) — no parsing beyond
//! the fingerprint, no oracle queries, no engine work. The body is held in
//! wire form, escaped once when it was computed, so the hit's `result`
//! event writes the cached bytes between its frame's head and tail
//! without encoding or copying them.
//!
//! Mine entries additionally retain the mined collection and database
//! ([`MineArtifacts`]), which is what powers the near-miss route: a
//! request whose content digest is missing but whose input's prefix
//! ladder contains a cached entry's digest re-mines *incrementally* from
//! that base instead of from scratch ([`ResultCache::find_mine_base`]).
//!
//! The cache is sharded by the params fingerprint, so concurrent jobs of
//! different shapes never contend on one lock, while all candidates for
//! one shape (every cacheable base for an appended-rows probe) live in
//! one shard and are scanned under a single lock acquisition. Capacity is
//! bounded per shard; eviction is least-recently-used, with recency
//! stamped from one global atomic tick so hits only touch the entry's own
//! stamp.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dualminer_mining::apriori::FrequentSets;
use dualminer_mining::TransactionDb;

use crate::canon::CanonBaskets;

/// Shard count. Power of two, plenty for a worker pool bounded by core
/// count; the shard index is the low bits of the params fingerprint.
const SHARDS: usize = 16;

/// The retained mined state of a complete `mine` job — exactly the two
/// arguments incremental re-mining needs as its base.
#[derive(Debug)]
pub struct MineArtifacts {
    /// The database the cached result was mined from.
    pub db: TransactionDb,
    /// The complete mined collection (itemsets, borders, accounting).
    pub sets: FrequentSets,
}

/// One cached result.
#[derive(Debug)]
pub struct Entry {
    /// Params fingerprint (job shape).
    pub params: u64,
    /// Canonical content fingerprint of the input.
    pub content: u64,
    /// Input rows (basket transactions) for mine entries; 0 otherwise.
    pub rows: u64,
    /// The rendered stdout body in wire form ([`crate::proto::wire_body`]):
    /// the inside of the JSON string literal a `result` event carries, so
    /// it decodes to a cold run's stdout byte for byte. The cache holds
    /// only this form.
    pub body: Arc<str>,
    /// The stats JSON artifact recorded when the entry was computed.
    pub stats: Arc<str>,
    /// The job verdict: 0, or 1 for a `verify-dual` "not dual" answer
    /// (still a complete, cacheable result).
    pub exit: i32,
    /// Mined state for incremental re-mining (mine entries only).
    pub mine: Option<Arc<MineArtifacts>>,
}

/// Cache occupancy and traffic counters, for `server-stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Entries currently resident.
    pub entries: u64,
    /// Exact-key lookup hits.
    pub hits: u64,
    /// Exact-key lookup misses.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

struct Slot {
    entry: Arc<Entry>,
    last_used: u64,
}

type Shard = HashMap<(u64, u64), Slot>;

/// The bounded, sharded, LRU result cache.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry cap (total capacity spread over the shards).
    shard_cap: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache bounded at roughly `capacity` entries (rounded up to the
    /// shard grid; at least one entry per shard).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_cap: capacity.div_ceil(SHARDS).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, params: u64) -> &Mutex<Shard> {
        &self.shards[(params as usize) % SHARDS]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Exact-key lookup; refreshes recency on hit.
    pub fn lookup(&self, params: u64, content: u64) -> Option<Arc<Entry>> {
        let mut shard = self.shard(params).lock().unwrap();
        match shard.get_mut(&(params, content)) {
            Some(slot) => {
                slot.last_used = self.next_tick();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.entry))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The appended-rows probe: among cached mine entries with this exact
    /// `params` whose content digest appears in `canon`'s prefix ladder
    /// (and whose prefix already interned every item — see
    /// [`crate::canon::RowMark::n_items`]), returns the one covering the
    /// most rows, with that row count. The caller re-mines only
    /// `canon.rows_from(rows)` on top of it.
    pub fn find_mine_base(&self, params: u64, canon: &CanonBaskets) -> Option<(Arc<Entry>, usize)> {
        let mut shard = self.shard(params).lock().unwrap();
        let mut best: Option<(&(u64, u64), usize)> = None;
        for (key, slot) in shard.iter() {
            if key.0 != params || slot.entry.mine.is_none() {
                continue;
            }
            let Some(rows) = canon.append_base(slot.entry.content) else {
                continue;
            };
            // A stale entry whose recorded row count disagrees with the
            // ladder position cannot be a base.
            if slot.entry.rows != rows as u64 {
                continue;
            }
            if best.map_or(true, |(_, r)| rows > r) {
                best = Some((key, rows));
            }
        }
        let (key, rows) = best.map(|(k, r)| (*k, r))?;
        let slot = shard.get_mut(&key).expect("picked key is resident");
        slot.last_used = self.next_tick();
        Some((Arc::clone(&slot.entry), rows))
    }

    /// Inserts a complete result, evicting the shard's least-recently-used
    /// entry if it is full. Replaces any existing entry under the same key
    /// (idempotent for the duplicate computations that slip past in-flight
    /// dedup, e.g. a re-run after an eviction).
    pub fn insert(&self, entry: Entry) {
        let key = (entry.params, entry.content);
        let mut shard = self.shard(entry.params).lock().unwrap();
        let fresh = self.next_tick();
        if shard.len() >= self.shard_cap && !shard.contains_key(&key) {
            if let Some(oldest) = shard
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k)
            {
                shard.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(
            key,
            Slot {
                entry: Arc::new(entry),
                last_used: fresh,
            },
        );
    }

    /// Every resident entry, in deterministic `(params, content)` order —
    /// the snapshot writer's view. Shards are drained one lock at a time,
    /// so a concurrent insert may or may not appear; the snapshot is a
    /// point-in-time approximation, which is all crash recovery needs.
    pub fn export(&self) -> Vec<Arc<Entry>> {
        let mut entries: Vec<Arc<Entry>> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap()
                    .values()
                    .map(|slot| Arc::clone(&slot.entry))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by_key(|e| (e.params, e.content));
        entries
    }

    /// Current occupancy and traffic counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap().len() as u64)
                .sum(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canon_baskets;

    fn entry(params: u64, content: u64) -> Entry {
        Entry {
            params,
            content,
            rows: 0,
            body: "body".into(),
            stats: "{}".into(),
            exit: 0,
            mine: None,
        }
    }

    fn mine_entry(params: u64, text: &str) -> Entry {
        let canon = canon_baskets(text).unwrap();
        let (_, db) = canon.build(0);
        let sets = dualminer_mining::apriori::apriori(&db, 1);
        Entry {
            params,
            content: canon.fingerprint,
            rows: canon.rows.len() as u64,
            body: "body".into(),
            stats: "{}".into(),
            exit: 0,
            mine: Some(Arc::new(MineArtifacts { db, sets })),
        }
    }

    #[test]
    fn lookup_hit_and_miss() {
        let cache = ResultCache::new(8);
        cache.insert(entry(1, 10));
        assert!(cache.lookup(1, 10).is_some());
        assert!(cache.lookup(1, 11).is_none());
        assert!(cache.lookup(2, 10).is_none());
        let c = cache.counters();
        assert_eq!((c.entries, c.hits, c.misses, c.evictions), (1, 1, 2, 0));
    }

    #[test]
    fn lru_eviction_within_a_shard() {
        // Same params → same shard; cap 16 entries spread over 16 shards
        // is 1 per shard, so the shard holds exactly one entry.
        let cache = ResultCache::new(16);
        cache.insert(entry(5, 100));
        cache.insert(entry(5, 101));
        assert!(cache.lookup(5, 100).is_none(), "oldest evicted");
        assert!(cache.lookup(5, 101).is_some());
        assert_eq!(cache.counters().evictions, 1);

        // With room for two, a *hit* refreshes recency: the untouched
        // entry is the one to go.
        let cache = ResultCache::new(32);
        cache.insert(entry(5, 100));
        cache.insert(entry(5, 101));
        assert!(cache.lookup(5, 100).is_some());
        cache.insert(entry(5, 102));
        assert!(cache.lookup(5, 100).is_some(), "recently hit survives");
        assert!(cache.lookup(5, 101).is_none(), "LRU evicted");
    }

    #[test]
    fn reinsert_same_key_does_not_evict() {
        let cache = ResultCache::new(16);
        cache.insert(entry(5, 100));
        cache.insert(entry(5, 100));
        let c = cache.counters();
        assert_eq!((c.entries, c.evictions), (1, 0));
    }

    #[test]
    fn export_is_deterministically_ordered() {
        let cache = ResultCache::new(64);
        for (p, c) in [(3u64, 30u64), (1, 11), (2, 20), (1, 10)] {
            cache.insert(entry(p, c));
        }
        let keys: Vec<(u64, u64)> = cache
            .export()
            .iter()
            .map(|e| (e.params, e.content))
            .collect();
        assert_eq!(keys, vec![(1, 10), (1, 11), (2, 20), (3, 30)]);
    }

    #[test]
    fn find_mine_base_picks_the_largest_prefix() {
        const BASE3: &str = "a b\nb c\na\n";
        const BASE4: &str = "a b\nb c\na\nc a\n";
        const EXT: &str = "a b\nb c\na\nc a\nb\n";
        let cache = ResultCache::new(64);
        cache.insert(mine_entry(7, BASE3));
        cache.insert(mine_entry(7, BASE4));
        cache.insert(mine_entry(8, BASE4)); // different job shape: ignored

        let ext = canon_baskets(EXT).unwrap();
        let (base, rows) = cache.find_mine_base(7, &ext).unwrap();
        assert_eq!(rows, 4, "largest covered prefix wins");
        assert_eq!(base.content, canon_baskets(BASE4).unwrap().fingerprint);
        // No base under a params fingerprint never inserted.
        assert!(cache.find_mine_base(9, &ext).is_none());
        // The exact input is not its own append base — but the shorter
        // cached prefix still is (the route a post-eviction rerun takes
        // when the exact-key lookup misses).
        let same = canon_baskets(BASE4).unwrap();
        let (base, rows) = cache.find_mine_base(7, &same).unwrap();
        assert_eq!(rows, 3);
        assert_eq!(base.content, canon_baskets(BASE3).unwrap().fingerprint);
    }
}
