//! The in-memory store engine: a sharded hash table with the memcached
//! verbs MemFS sends (`set`, `add`, `append`, `get`, `delete`), a per-item
//! size limit and a hard memory budget.
//!
//! A store is [`SHARDS`] shards, each `RwLock<HashMap<key, Bytes>>`, and
//! an entry is just its bytes. A `get` is one read lock, a lookup and a
//! refcount bump, so concurrent reads never block each other; each
//! mutation takes its shard's write lock exactly once. There is no eviction and no expiry:
//! the paper sizes the deployment so memcached never evicts (§3.2.1,
//! §4.2.1), and a runtime file system needs a loud
//! [`KvError::OutOfMemory`] rather than a silently dropped stripe.
//!
//! The budget is claimed before any lock is taken, with one
//! compare-and-swap loop on the global byte count, so concurrent writers
//! can never together overshoot it. Bytes and items are also kept per
//! shard in lock-free gauges ([`Store::shard_usage`]) exported through
//! the `stats` command.
//!
//! Every shard-lock acquisition is reported to [`crate::audit`]
//! (`store_read_locks` / `store_write_locks`) so tests can pin the
//! locking discipline — see `tests/store_locks.rs`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{Bytes, BytesMut};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::audit;
use crate::error::{KvError, KvResult};
use crate::stats::StoreStats;

/// Maximum key length, matching memcached's classic limit.
pub const MAX_KEY_LEN: usize = 250;

/// Fixed bookkeeping overhead charged per item against the memory budget
/// (the hash-table slot, the boxed key's and the value's headers —
/// memcached charges a similar item-header cost).
pub const ITEM_OVERHEAD: u64 = 64;

/// Independent shards of a store, each with its own lock.
pub const SHARDS: usize = 16;

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Total memory budget in bytes (values + keys + per-item overhead).
    /// A write that would pass it fails with [`KvError::OutOfMemory`].
    pub memory_budget: u64,
    /// Per-item size limit. Memcached historically caps items (the paper
    /// mentions a 128 MB object limit, §3.2.1); MemFS stripes files so it
    /// never hits this.
    pub max_value_size: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            memory_budget: 4 << 30,                      // 4 GiB
            max_value_size: crate::proto::MAX_VALUE_LEN, // 128 MiB, the paper's figure
        }
    }
}

type Shard = HashMap<Box<[u8]>, Bytes>;

/// Lock-free per-shard occupancy gauges, readable without any lock.
#[derive(Debug, Default)]
struct ShardMeta {
    bytes: AtomicU64,
    items: AtomicU64,
}

/// One shard's point-in-time occupancy ([`Store::shard_usage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardUsage {
    pub bytes: u64,
    pub items: u64,
}

/// A single memcached-style storage server's engine.
///
/// Thread-safe; all operations take `&self`. `append` is atomic with
/// respect to concurrent appends to the same key — the property MemFS'
/// directory protocol builds on. Reads (`get`, `get_many`, `contains`)
/// take shard read locks and never block each other.
pub struct Store {
    config: StoreConfig,
    shards: Vec<RwLock<Shard>>,
    meta: Vec<ShardMeta>,
    stats: StoreStats,
}

impl Store {
    /// Create a store with the given configuration.
    pub fn new(config: StoreConfig) -> Self {
        let shards = (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect();
        let meta = (0..SHARDS).map(|_| ShardMeta::default()).collect();
        Store {
            config,
            shards,
            meta,
            stats: StoreStats::default(),
        }
    }

    /// Create a store with [`StoreConfig::default`].
    pub fn with_defaults() -> Self {
        Store::new(StoreConfig::default())
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Operation counters and occupancy gauges.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Current bytes charged against the budget.
    pub fn bytes_used(&self) -> u64 {
        self.stats.snapshot().bytes_used
    }

    /// Number of live items.
    pub fn item_count(&self) -> u64 {
        self.stats.snapshot().item_count
    }

    /// Per-shard occupancy gauges, read without taking any lock.
    pub fn shard_usage(&self) -> Vec<ShardUsage> {
        self.meta
            .iter()
            .map(|m| ShardUsage {
                bytes: m.bytes.load(Ordering::Relaxed),
                items: m.items.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Recompute `(bytes, items)` by walking every shard under read
    /// locks. Equals `(bytes_used, item_count)` whenever the store is
    /// quiescent — the stress oracle's accounting invariant.
    pub fn charge_audit(&self) -> (u64, u64) {
        let mut bytes = 0u64;
        let mut items = 0u64;
        for i in 0..self.shards.len() {
            for (k, v) in self.read_shard(i).iter() {
                bytes += Self::charge(k, v.len());
                items += 1;
            }
        }
        (bytes, items)
    }

    fn shard_index(&self, key: &[u8]) -> usize {
        // FNV-1a; shard count is small so low bits suffice.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h % self.shards.len() as u64) as usize
    }

    fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, Shard> {
        audit::count_store_read_lock();
        self.shards[i].read()
    }

    fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, Shard> {
        audit::count_store_write_lock();
        self.shards[i].write()
    }

    fn validate_key(key: &[u8]) -> KvResult<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(KvError::KeyTooLong(key.len()));
        }
        if key.is_empty() || key.iter().any(|&b| b <= b' ' || b == 0x7f) {
            return Err(KvError::BadKey);
        }
        Ok(())
    }

    /// A storable `(key, value length)` pair, or why not.
    fn validate_item(&self, key: &[u8], value_len: usize) -> KvResult<()> {
        Self::validate_key(key)?;
        if value_len > self.config.max_value_size {
            return Err(KvError::ValueTooLarge {
                size: value_len,
                limit: self.config.max_value_size,
            });
        }
        Ok(())
    }

    fn charge(key: &[u8], value_len: usize) -> u64 {
        key.len() as u64 + value_len as u64 + ITEM_OVERHEAD
    }

    /// Claim `needed` bytes of the budget, or fail without side effects.
    /// One compare-and-swap loop: two writers can never both see the last
    /// free bytes. Must be called *before* taking any shard lock.
    fn reserve(&self, needed: u64) -> KvResult<()> {
        let budget = self.config.memory_budget;
        self.stats
            .bytes_used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                used.checked_add(needed).filter(|&total| total <= budget)
            })
            .map(drop)
            .map_err(|_| KvError::OutOfMemory { needed, budget })
    }

    /// Return a claim the write it was made for did not use.
    fn unreserve(&self, bytes: u64) {
        StoreStats::sub(&self.stats.bytes_used, bytes);
    }

    /// Book a new item into shard `idx`; its bytes were [`Store::reserve`]d.
    fn added(&self, idx: usize, charge: u64) {
        StoreStats::add(&self.stats.item_count, 1);
        self.meta[idx].items.fetch_add(1, Ordering::Relaxed);
        self.meta[idx].bytes.fetch_add(charge, Ordering::Relaxed);
    }

    /// Release an item removed from (or replaced in) shard `idx`.
    fn removed(&self, idx: usize, charge: u64) {
        self.unreserve(charge);
        StoreStats::sub(&self.stats.item_count, 1);
        self.meta[idx].items.fetch_sub(1, Ordering::Relaxed);
        self.meta[idx].bytes.fetch_sub(charge, Ordering::Relaxed);
    }

    /// Store `value` under `key`, replacing any previous value. The new
    /// item is charged in full before the old one is released, so a
    /// replacement needs room for both for an instant.
    pub fn set(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.validate_item(key, value.len())?;
        StoreStats::bump(&self.stats.set_ops);
        let charge = Self::charge(key, value.len());
        self.reserve(charge)?;
        StoreStats::add(&self.stats.bytes_written, value.len() as u64);
        let idx = self.shard_index(key);
        let old = self.write_shard(idx).insert(key.into(), value);
        self.added(idx, charge);
        if let Some(old) = old {
            self.removed(idx, Self::charge(key, old.len()));
        }
        Ok(())
    }

    /// Store `value` under `key` only if the key does not exist.
    pub fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.validate_item(key, value.len())?;
        StoreStats::bump(&self.stats.add_ops);
        let charge = Self::charge(key, value.len());
        self.reserve(charge)?;
        let idx = self.shard_index(key);
        let len = value.len() as u64;
        {
            let mut shard = self.write_shard(idx);
            if shard.contains_key(key) {
                drop(shard);
                self.unreserve(charge);
                return Err(KvError::Exists);
            }
            shard.insert(key.into(), value);
        }
        StoreStats::add(&self.stats.bytes_written, len);
        self.added(idx, charge);
        Ok(())
    }

    /// Fetch the value stored under `key`. Zero-copy: the returned
    /// [`Bytes`] shares the stored buffer. One shard *read* lock —
    /// concurrent gets never block each other.
    pub fn get(&self, key: &[u8]) -> KvResult<Bytes> {
        Self::validate_key(key)?;
        StoreStats::bump(&self.stats.get_ops);
        let idx = self.shard_index(key);
        let value = self.read_shard(idx).get(key).cloned();
        let value = value.ok_or(KvError::NotFound)?;
        StoreStats::bump(&self.stats.get_hits);
        StoreStats::add(&self.stats.bytes_read, value.len() as u64);
        Ok(value)
    }

    /// Fetch several keys in one call (the engine behind multi-key `get`).
    ///
    /// Per-key counters are maintained exactly as if each key had been
    /// fetched individually — `get_ops` and `get_hits` advance per key —
    /// while `mget_ops` counts the batch itself, which is what makes
    /// "one batched request per server per prefetch window" observable
    /// from server stats.
    ///
    /// Keys are grouped by shard so the batch takes each shard's read
    /// lock once instead of once per key. Results come back in input
    /// order.
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Vec<KvResult<Bytes>> {
        StoreStats::bump(&self.stats.mget_ops);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut out: Vec<KvResult<Bytes>> = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            let key = key.as_ref();
            match Self::validate_key(key) {
                Ok(()) => {
                    groups[self.shard_index(key)].push(i);
                    out.push(Err(KvError::NotFound));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        for (s, idxs) in groups.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let shard = self.read_shard(s);
            for &i in idxs {
                StoreStats::bump(&self.stats.get_ops);
                if let Some(value) = shard.get(keys[i].as_ref()) {
                    StoreStats::bump(&self.stats.get_hits);
                    StoreStats::add(&self.stats.bytes_read, value.len() as u64);
                    out[i] = Ok(value.clone());
                }
            }
        }
        out
    }

    /// Atomically append `suffix` to the value under `key`.
    ///
    /// This is the operation the MemFS directory protocol relies on
    /// (paper §3.2.4: "the Memcached append function that is internally
    /// atomic and synchronized"). Fails with [`KvError::NotFound`] if the
    /// key does not exist, as memcached's `append` does (`NOT_STORED`).
    pub fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        Self::validate_key(key)?;
        StoreStats::bump(&self.stats.append_ops);
        let extra = suffix.len() as u64;
        self.reserve(extra)?;
        let idx = self.shard_index(key);
        let limit = self.config.max_value_size;
        let outcome = match self.write_shard(idx).get_mut(key) {
            None => Err(KvError::NotFound),
            Some(value) if value.len() + suffix.len() > limit => Err(KvError::ValueTooLarge {
                size: value.len() + suffix.len(),
                limit,
            }),
            Some(value) => {
                let mut buf = BytesMut::with_capacity(value.len() + suffix.len());
                buf.extend_from_slice(value);
                buf.extend_from_slice(suffix);
                *value = buf.freeze();
                Ok(())
            }
        };
        match outcome {
            Ok(()) => {
                StoreStats::add(&self.stats.bytes_written, extra);
                self.meta[idx].bytes.fetch_add(extra, Ordering::Relaxed);
            }
            Err(_) => self.unreserve(extra),
        }
        outcome
    }

    /// Remove `key`, freeing its budget charge.
    pub fn delete(&self, key: &[u8]) -> KvResult<()> {
        Self::validate_key(key)?;
        StoreStats::bump(&self.stats.delete_ops);
        let idx = self.shard_index(key);
        let old = self.write_shard(idx).remove(key);
        let old = old.ok_or(KvError::NotFound)?;
        self.removed(idx, Self::charge(key, old.len()));
        Ok(())
    }

    /// Whether `key` currently exists (does not count as a `get`).
    /// Read-lock only.
    pub fn contains(&self, key: &[u8]) -> bool {
        Store::validate_key(key).is_ok() && self.read_shard(self.shard_index(key)).contains_key(key)
    }

    /// List all keys (diagnostic; used by balance tests and the elastic
    /// rebalancer's scans). Order is unspecified.
    pub fn keys(&self) -> Vec<Box<[u8]>> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            out.extend(self.read_shard(i).keys().cloned());
        }
        out
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("items", &self.item_count())
            .field("bytes_used", &self.bytes_used())
            .field("budget", &self.config.memory_budget)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Barrier, Mutex};

    use super::*;

    fn small_store(budget: u64) -> Store {
        Store::new(StoreConfig {
            memory_budget: budget,
            max_value_size: 1024,
        })
    }

    #[test]
    fn set_get_round_trip() {
        let s = Store::with_defaults();
        s.set(b"alpha", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(s.get(b"alpha").unwrap().as_ref(), b"hello");
        assert_eq!(s.item_count(), 1);
    }

    #[test]
    fn get_missing_is_not_found() {
        let s = Store::with_defaults();
        assert!(matches!(s.get(b"nope"), Err(KvError::NotFound)));
        let snap = s.stats().snapshot();
        assert_eq!(snap.get_ops, 1);
        assert_eq!(snap.get_hits, 0);
    }

    #[test]
    fn get_many_mixes_hits_and_misses() {
        let s = Store::with_defaults();
        s.set(b"a", Bytes::from_static(b"1")).unwrap();
        s.set(b"c", Bytes::from_static(b"3")).unwrap();
        let keys = vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()];
        let out = s.get_many(&keys);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].as_ref().unwrap().as_ref(), b"1");
        assert!(matches!(out[1], Err(KvError::NotFound)));
        assert_eq!(out[2].as_ref().unwrap().as_ref(), b"3");
        let snap = s.stats().snapshot();
        assert_eq!(snap.mget_ops, 1);
        assert_eq!(snap.get_ops, 3, "batch still counts per-key get_ops");
        assert_eq!(snap.get_hits, 2);
    }

    #[test]
    fn set_replaces_and_accounts_memory() {
        let s = Store::with_defaults();
        s.set(b"k", Bytes::from(vec![0u8; 100])).unwrap();
        let used_before = s.bytes_used();
        s.set(b"k", Bytes::from(vec![0u8; 10])).unwrap();
        assert_eq!(s.item_count(), 1);
        assert_eq!(s.bytes_used(), used_before - 90);
    }

    #[test]
    fn add_fails_on_existing_key() {
        let s = Store::with_defaults();
        s.add(b"k", Bytes::from_static(b"v1")).unwrap();
        let used = s.bytes_used();
        assert!(matches!(
            s.add(b"k", Bytes::from_static(b"v2")),
            Err(KvError::Exists)
        ));
        assert_eq!(s.get(b"k").unwrap().as_ref(), b"v1");
        assert_eq!(s.bytes_used(), used, "a refused add must not leak budget");
    }

    #[test]
    fn append_extends_existing_value() {
        let s = Store::with_defaults();
        s.set(b"dir", Bytes::from_static(b"+a\n")).unwrap();
        s.append(b"dir", b"+b\n").unwrap();
        s.append(b"dir", b"-a\n").unwrap();
        assert_eq!(s.get(b"dir").unwrap().as_ref(), b"+a\n+b\n-a\n");
    }

    #[test]
    fn append_to_missing_key_fails() {
        let s = Store::with_defaults();
        assert!(matches!(s.append(b"dir", b"x"), Err(KvError::NotFound)));
        // Budget must not leak.
        assert_eq!(s.bytes_used(), 0);
    }

    #[test]
    fn delete_frees_budget() {
        let s = Store::with_defaults();
        s.set(b"k", Bytes::from(vec![1u8; 500])).unwrap();
        assert!(s.bytes_used() > 0);
        s.delete(b"k").unwrap();
        assert_eq!(s.bytes_used(), 0);
        assert_eq!(s.item_count(), 0);
        assert!(matches!(s.delete(b"k"), Err(KvError::NotFound)));
    }

    #[test]
    fn value_size_limit_enforced() {
        let s = small_store(1 << 20);
        let big = Bytes::from(vec![0u8; 2000]);
        assert!(matches!(
            s.set(b"k", big),
            Err(KvError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn append_respects_value_size_limit() {
        let s = small_store(1 << 20);
        s.set(b"k", Bytes::from(vec![0u8; 1000])).unwrap();
        let used = s.bytes_used();
        assert!(matches!(
            s.append(b"k", &[0u8; 100]),
            Err(KvError::ValueTooLarge { .. })
        ));
        assert_eq!(s.bytes_used(), used, "failed append must not leak budget");
    }

    #[test]
    fn key_validation() {
        let s = Store::with_defaults();
        let long = vec![b'a'; 251];
        assert!(matches!(
            s.set(&long, Bytes::new()),
            Err(KvError::KeyTooLong(251))
        ));
        assert!(matches!(
            s.set(b"has space", Bytes::new()),
            Err(KvError::BadKey)
        ));
        assert!(matches!(s.set(b"", Bytes::new()), Err(KvError::BadKey)));
        assert!(matches!(
            s.set(b"ctl\x01", Bytes::new()),
            Err(KvError::BadKey)
        ));
    }

    #[test]
    fn a_full_store_refuses_writes_and_keeps_what_it_holds() {
        let s = small_store(400);
        s.set(b"a", Bytes::from(vec![0u8; 200])).unwrap();
        let used = s.bytes_used();
        let r = s.set(b"b", Bytes::from(vec![0u8; 200]));
        assert!(matches!(r, Err(KvError::OutOfMemory { .. })));
        assert!(matches!(
            s.add(b"b", Bytes::from(vec![0u8; 200])),
            Err(KvError::OutOfMemory { .. })
        ));
        assert!(matches!(
            s.append(b"a", &[0u8; 200]),
            Err(KvError::OutOfMemory { .. })
        ));
        // First item untouched, nothing leaked.
        assert_eq!(s.get(b"a").unwrap().len(), 200);
        assert!(!s.contains(b"b"));
        assert_eq!(s.bytes_used(), used);
        assert_eq!(s.charge_audit(), (used, 1));
    }

    /// The budget is a hard bound with concurrent writers: 8 threads race
    /// bursts of fresh keys into a store with room for `HOLDS` of them,
    /// round after round. Exactly `HOLDS` writes win each round, every
    /// loser is told `OutOfMemory` and left nothing behind, and the budget
    /// holds after every round. (A separate load and add let two writers
    /// see the same last free bytes and both claim them.)
    #[test]
    fn concurrent_writers_never_overshoot_the_budget() {
        const THREADS: usize = 8;
        const BURST: usize = 32;
        const HOLDS: usize = 37;
        const ROUNDS: usize = 300;
        let key = |t: usize, r: usize, i: usize| format!("t{t}:r{r:04}:{i:02}").into_bytes();
        let value = Bytes::from(vec![0u8; 100]);
        let budget = HOLDS as u64 * Store::charge(&key(0, 0, 0), value.len());
        let s = Arc::new(small_store(budget));
        let barrier = Arc::new(Barrier::new(THREADS + 1));
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (s, barrier, outcomes) = (s.clone(), barrier.clone(), outcomes.clone());
                let value = value.clone();
                std::thread::spawn(move || {
                    for r in 0..ROUNDS {
                        barrier.wait();
                        let burst: Vec<_> = (0..BURST)
                            .map(|i| (key(t, r, i), s.set(&key(t, r, i), value.clone())))
                            .collect();
                        outcomes.lock().unwrap().extend(burst);
                        barrier.wait();
                    }
                })
            })
            .collect();
        for r in 0..ROUNDS {
            barrier.wait();
            barrier.wait();
            assert!(s.bytes_used() <= budget, "round {r}: budget overshot");
            let mut won = 0;
            for (k, outcome) in outcomes.lock().unwrap().drain(..) {
                match outcome {
                    Ok(()) => {
                        won += 1;
                        s.delete(&k).unwrap();
                    }
                    Err(KvError::OutOfMemory { .. }) => assert!(!s.contains(&k)),
                    Err(e) => panic!("round {r}: {e}"),
                }
            }
            assert_eq!(
                won, HOLDS,
                "round {r}: {won} writes fit a budget for {HOLDS}"
            );
            assert_eq!((s.bytes_used(), s.item_count()), (0, 0));
        }
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn get_is_zero_copy() {
        let s = Store::with_defaults();
        let payload = Bytes::from(vec![7u8; 1 << 16]);
        s.set(b"k", payload).unwrap();
        let a = s.get(b"k").unwrap();
        let b = s.get(b"k").unwrap();
        // Same backing buffer.
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn concurrent_appends_are_atomic() {
        let s = Arc::new(Store::with_defaults());
        s.set(b"log", Bytes::new()).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let rec = format!("[{t}:{i}]");
                        s.append(b"log", rec.as_bytes()).unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let log = s.get(b"log").unwrap();
        let text = std::str::from_utf8(&log).unwrap();
        // Every record must appear exactly once, untorn.
        for t in 0..8 {
            for i in 0..100 {
                let rec = format!("[{t}:{i}]");
                assert_eq!(text.matches(&rec).count(), 1, "record {rec} torn or lost");
            }
        }
    }

    #[test]
    fn concurrent_set_get_different_keys() {
        let s = Arc::new(Store::with_defaults());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let key = format!("t{t}-k{i}");
                        let val = Bytes::from(format!("v{t}-{i}"));
                        s.set(key.as_bytes(), val.clone()).unwrap();
                        assert_eq!(s.get(key.as_bytes()).unwrap(), val);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(s.item_count(), 8 * 200);
    }

    #[test]
    fn per_shard_accounting_sums_to_totals() {
        let s = Store::with_defaults();
        for i in 0..100u32 {
            s.set(
                format!("key{i}").as_bytes(),
                Bytes::from(vec![0u8; (i % 37) as usize]),
            )
            .unwrap();
        }
        for i in (0..100u32).step_by(3) {
            let _ = s.delete(format!("key{i}").as_bytes());
        }
        for i in (1..100u32).step_by(5) {
            let _ = s.append(format!("key{i}").as_bytes(), b"+rec");
        }
        let usage = s.shard_usage();
        let bytes: u64 = usage.iter().map(|u| u.bytes).sum();
        let items: u64 = usage.iter().map(|u| u.items).sum();
        assert_eq!(bytes, s.bytes_used());
        assert_eq!(items, s.item_count());
        let (audit_bytes, audit_items) = s.charge_audit();
        assert_eq!(audit_bytes, s.bytes_used());
        assert_eq!(audit_items, s.item_count());
    }
}
