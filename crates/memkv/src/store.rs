//! The in-memory store engine: a sharded hash table with memcached
//! semantics, atomic append, CAS, per-item TTLs, per-item size limits and
//! a memory budget with either hard errors or LRU eviction.
//!
//! # Read-mostly hot path (engine round two)
//!
//! The network halves of client and server are evented and run at line
//! rate, which made the original engine's locking the next bottleneck:
//! every `get` took the shard **write** lock (so concurrent readers on
//! the server worker pool serialized per shard) and heap-allocated a
//! boxed key copy just to feed the LRU queue. The engine now splits the
//! paths:
//!
//! * **Reads never block reads.** `get` / `get_many` / `gets` /
//!   `contains` run under the shard *read* lock. Recency is recorded by
//!   stamping the entry's [`Entry::lru_gen`] atomic — no allocation, no
//!   queue traffic, no exclusive lock on a hit.
//! * **Writers feed the LRU queue.** Each mutation pushes one
//!   `(key, gen)` record; [`Entry::queued_gen`] marks the newest queued
//!   record per key so stale duplicates are recognized and compacted.
//! * **Eviction is per-shard with a second chance.** The evictor peeks
//!   every shard's oldest queued record under read locks, then
//!   write-locks only the chosen shard. A record whose entry was
//!   read-touched since it was queued (`lru_gen > queued gen`) is
//!   re-queued instead of evicted — CLOCK-style second chance — so
//!   read-hot items survive without readers ever touching the queue.
//!   The old global victim scan write-locked *all* shards per evicted
//!   item; the new one takes exactly one write lock per victim.
//! * **Reclamation is background-first.** [`StoreConfig::high_watermark`]
//!   / [`StoreConfig::low_watermark`] define a pressure band:
//!   [`Store::maintain`] (driven by the server's timer wheel on its
//!   worker pool, or by any caller) evicts from high down to low and
//!   reaps expired items, so foreground inserts stop paying the
//!   evict-until-fit loop inline. The hard budget is still enforced
//!   inline as a last resort.
//! * **TTL that fires.** `set_ttl`/`add_ttl`/`cas_ttl` attach per-item
//!   expiry (the wire protocol's `exptime`). Expired items are invisible
//!   to reads immediately (lazy check under the read lock) and their
//!   memory is reclaimed by the sweeper or by the next writer that
//!   collides with them.
//! * **Per-shard accounting.** Bytes, items and expiring counts are kept
//!   per shard in lock-free gauges ([`Store::shard_usage`]) and exported
//!   through the `stats` command.
//!
//! Every shard-lock acquisition is reported to [`crate::audit`]
//! (`store_read_locks` / `store_write_locks`) so tests can pin the
//! locking discipline — see `tests/store_locks.rs`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::audit;
use crate::error::{KvError, KvResult};
use crate::stats::StoreStats;

/// Maximum key length, matching memcached's classic limit.
pub const MAX_KEY_LEN: usize = 250;

/// Fixed bookkeeping overhead charged per item against the memory budget
/// (hash-table slot, CAS token, LRU entry — memcached charges a similar
/// item-header cost).
pub const ITEM_OVERHEAD: u64 = 64;

/// Second chances granted within one eviction call before the evictor
/// stops deferring to read-touched items and reclaims the current front.
/// Bounds eviction latency when every resident item is read-hot.
const MAX_SECOND_CHANCES: usize = 64;

/// What to do when an insert would exceed the memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Fail the insert with [`KvError::OutOfMemory`]. This is the mode a
    /// runtime file system needs: silently dropping an intermediate file
    /// would corrupt the workflow, so MemFS prefers a loud error (the
    /// paper runs memcached with eviction effectively never triggering by
    /// sizing the deployment; AMFS *crashes* in the same situation, §4.2.1).
    Error,
    /// Evict least-recently-used items until the new value fits, like a
    /// plain memcached cache deployment. With this policy the watermark
    /// sweeper ([`Store::maintain`]) also reclaims in the background.
    Lru,
}

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Total memory budget in bytes (values + keys + per-item overhead).
    pub memory_budget: u64,
    /// Per-item size limit. Memcached historically caps items (the paper
    /// mentions a 128 MB object limit, §3.2.1); MemFS stripes files so it
    /// never hits this.
    pub max_value_size: usize,
    /// Behaviour when the budget is exhausted.
    pub eviction: EvictionPolicy,
    /// Number of independent shards (power of two recommended).
    pub shards: usize,
    /// Fraction of the budget at which [`Store::maintain`] starts
    /// evicting (LRU policy only). Background reclamation keeps usage
    /// below the hard budget so foreground inserts rarely evict inline.
    pub high_watermark: f64,
    /// Fraction of the budget the sweeper evicts down to once the high
    /// watermark is crossed. Must be `<= high_watermark`.
    pub low_watermark: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            memory_budget: 4 << 30,                      // 4 GiB
            max_value_size: crate::proto::MAX_VALUE_LEN, // 128 MiB, the paper's figure
            eviction: EvictionPolicy::Error,
            shards: 16,
            high_watermark: 0.90,
            low_watermark: 0.80,
        }
    }
}

#[derive(Debug)]
struct Entry {
    value: Bytes,
    cas: u64,
    /// Last-touch stamp. Readers bump it with a relaxed `fetch_max`
    /// under the shard *read* lock — the allocation-free touch.
    lru_gen: AtomicU64,
    /// Generation of this key's newest record in the shard's LRU queue.
    /// Writer-maintained (under the write lock); lets the evictor and
    /// the queue compactor recognize stale duplicate records.
    queued_gen: u64,
    /// Absolute expiry in milliseconds since the store's epoch; 0 means
    /// the item never expires.
    expires_at: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Box<[u8]>, Entry>,
    /// Lazy LRU queue of (key, queued generation). Fed by writers only;
    /// reads stamp [`Entry::lru_gen`] instead and the evictor gives
    /// read-touched fronts a second chance. Stale duplicates (from
    /// overwrites) are skipped at eviction time and compacted when the
    /// queue grows past 2x the live item count.
    lru: VecDeque<(Box<[u8]>, u64)>,
}

/// Lock-free per-shard occupancy gauges, updated at mutation points
/// (which hold the shard write lock) and readable without any lock.
#[derive(Debug, Default)]
struct ShardMeta {
    bytes: AtomicU64,
    items: AtomicU64,
    /// Entries with a nonzero `expires_at` — lets the sweeper skip
    /// shards that hold no TTLs.
    expiring: AtomicU64,
}

/// One shard's point-in-time occupancy ([`Store::shard_usage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardUsage {
    pub bytes: u64,
    pub items: u64,
    pub expiring: u64,
}

/// What one [`Store::maintain`] pass reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintainReport {
    /// Items reaped because their TTL had passed.
    pub expired: u64,
    /// Items evicted bringing usage from the high toward the low
    /// watermark.
    pub evicted: u64,
}

/// A single memcached-style storage server's engine.
///
/// Thread-safe; all operations take `&self`. `append` is atomic with
/// respect to concurrent appends to the same key — the property MemFS'
/// directory protocol builds on. Reads (`get`, `get_many`, `gets`,
/// `contains`) take shard read locks and never block each other.
pub struct Store {
    config: StoreConfig,
    shards: Vec<RwLock<Shard>>,
    meta: Vec<ShardMeta>,
    stats: StoreStats,
    cas_counter: AtomicU64,
    lru_clock: AtomicU64,
    /// TTL reference point: `expires_at` is milliseconds since this.
    epoch: Instant,
}

impl Store {
    /// Create a store with the given configuration.
    ///
    /// # Panics
    /// Panics if `shards == 0` or the watermarks are not
    /// `0 < low <= high <= 1`.
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.shards > 0, "store needs at least one shard");
        assert!(
            config.low_watermark > 0.0
                && config.low_watermark <= config.high_watermark
                && config.high_watermark <= 1.0,
            "watermarks must satisfy 0 < low <= high <= 1"
        );
        let shards = (0..config.shards)
            .map(|_| RwLock::new(Shard::default()))
            .collect();
        let meta = (0..config.shards).map(|_| ShardMeta::default()).collect();
        Store {
            config,
            shards,
            meta,
            stats: StoreStats::default(),
            cas_counter: AtomicU64::new(1),
            lru_clock: AtomicU64::new(1),
            epoch: Instant::now(),
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
                expiring: m.expiring.load(Ordering::Relaxed),
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
            let shard = self.read_shard(i);
            for (k, e) in shard.map.iter() {
                bytes += Self::charge(k, e.value.len());
                items += 1;
            }
        }
        (bytes, items)
    }

    /// The shard index `key` maps to (diagnostic; lets benches build
    /// shard-confined hot sets).
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.shard_index(key)
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

    fn charge(key: &[u8], value_len: usize) -> u64 {
        key.len() as u64 + value_len as u64 + ITEM_OVERHEAD
    }

    /// Milliseconds since the store's epoch (TTL clock).
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Absolute expiry instant for a relative TTL; 0 stays "never".
    fn expiry(&self, ttl_ms: u64) -> u64 {
        if ttl_ms == 0 {
            0
        } else {
            self.now_ms() + ttl_ms
        }
    }

    /// Expiry check. Only consults the clock when the entry carries a
    /// TTL, so TTL-free workloads never pay for `Instant::now`.
    fn live(&self, e: &Entry) -> bool {
        e.expires_at == 0 || self.now_ms() < e.expires_at
    }

    /// Free all accounting for an entry already removed from its map.
    fn uncharge(&self, idx: usize, key_len: usize, e: &Entry) {
        let freed = key_len as u64 + e.value.len() as u64 + ITEM_OVERHEAD;
        StoreStats::sub(&self.stats.bytes_used, freed);
        StoreStats::sub(&self.stats.item_count, 1);
        self.meta[idx].bytes.fetch_sub(freed, Ordering::Relaxed);
        self.meta[idx].items.fetch_sub(1, Ordering::Relaxed);
        if e.expires_at != 0 {
            self.meta[idx].expiring.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Reserve `needed` bytes against the budget, evicting if permitted.
    /// Must be called *before* taking any shard lock. Returns Err without
    /// side effects when the policy is `Error` and the budget is
    /// insufficient. The watermark sweeper keeps usage below the budget
    /// in steady state, so this loop is the inline last resort, not the
    /// common path.
    fn reserve(&self, needed: u64) -> KvResult<()> {
        loop {
            let used = self.stats.bytes_used.load(Ordering::Relaxed);
            if used + needed <= self.config.memory_budget {
                // Optimistically claim; competing writers may overshoot by
                // one item transiently, which mirrors memcached's own
                // slack accounting.
                StoreStats::add(&self.stats.bytes_used, needed);
                return Ok(());
            }
            match self.config.eviction {
                EvictionPolicy::Error => {
                    return Err(KvError::OutOfMemory {
                        needed,
                        budget: self.config.memory_budget,
                    })
                }
                EvictionPolicy::Lru => {
                    if !self.evict_one() {
                        return Err(KvError::OutOfMemory {
                            needed,
                            budget: self.config.memory_budget,
                        });
                    }
                }
            }
        }
    }

    /// Reclaim one item, approximating global LRU: peek every shard's
    /// oldest queued record under *read* locks, write-lock only the
    /// chosen shard, and walk its queue front — skipping stale duplicate
    /// records, re-queueing read-touched entries (second chance) and
    /// reclaiming the first genuine victim. Exactly one shard write lock
    /// is taken per reclaimed item. Returns false when nothing is
    /// evictable anywhere.
    fn evict_one(&self) -> bool {
        let mut chances = 0usize;
        'choose: loop {
            let mut best: Option<(usize, u64)> = None;
            for i in 0..self.shards.len() {
                let front = self.read_shard(i).lru.front().map(|&(_, g)| g);
                if let Some(g) = front {
                    if best.is_none_or(|(_, bg)| g < bg) {
                        best = Some((i, g));
                    }
                }
            }
            let Some((i, _)) = best else {
                return false;
            };
            let mut shard = self.write_shard(i);
            while let Some((key, gen)) = shard.lru.pop_front() {
                enum Verdict {
                    Stale,
                    SecondChance,
                    Expired,
                    Evict,
                }
                let verdict = match shard.map.get(key.as_ref()) {
                    None => Verdict::Stale,
                    Some(e) if e.queued_gen != gen => Verdict::Stale,
                    Some(e) => {
                        if !self.live(e) {
                            Verdict::Expired
                        } else if e.lru_gen.load(Ordering::Relaxed) > gen
                            && chances < MAX_SECOND_CHANCES
                        {
                            Verdict::SecondChance
                        } else {
                            Verdict::Evict
                        }
                    }
                };
                match verdict {
                    Verdict::Stale => continue,
                    Verdict::SecondChance => {
                        // Read-touched since it was queued: re-queue at
                        // the back with a fresh generation and re-pick the
                        // globally oldest front. The popped key box is
                        // reused — no allocation.
                        chances += 1;
                        let ng = self.lru_clock.fetch_add(1, Ordering::Relaxed);
                        shard
                            .map
                            .get_mut(key.as_ref())
                            .expect("second-chance entry is live")
                            .queued_gen = ng;
                        shard.lru.push_back((key, ng));
                        continue 'choose;
                    }
                    Verdict::Expired => {
                        let e = shard.map.remove(key.as_ref()).expect("expired entry live");
                        self.uncharge(i, key.len(), &e);
                        StoreStats::bump(&self.stats.expired);
                        return true;
                    }
                    Verdict::Evict => {
                        let e = shard.map.remove(key.as_ref()).expect("victim entry live");
                        self.uncharge(i, key.len(), &e);
                        StoreStats::bump(&self.stats.evictions);
                        return true;
                    }
                }
            }
            // The chosen shard's queue ran dry (stale records only):
            // every pop shrank it, so re-choosing makes progress.
        }
    }

    /// One background maintenance pass: reap expired items shard by
    /// shard, then — under the LRU policy — evict from the high
    /// watermark down to the low one. Foreground operations keep flowing
    /// while this runs; candidate scans happen under read locks and each
    /// reclaimed item takes exactly one brief shard write lock.
    ///
    /// The server calls this from its own `memkv-srv-maint` thread every
    /// 100 ms; embedded users call it from any thread at their own
    /// cadence.
    pub fn maintain(&self) -> MaintainReport {
        StoreStats::bump(&self.stats.sweeps);
        let mut report = MaintainReport::default();
        let now = self.now_ms();
        for i in 0..self.shards.len() {
            if self.meta[i].expiring.load(Ordering::Relaxed) == 0 {
                continue;
            }
            // Scan under the read lock (readers keep flowing), reap the
            // hits under a brief write lock with a liveness re-check.
            let candidates: Vec<Box<[u8]>> = {
                let shard = self.read_shard(i);
                shard
                    .map
                    .iter()
                    .filter(|(_, e)| e.expires_at != 0 && e.expires_at <= now)
                    .map(|(k, _)| k.clone())
                    .collect()
            };
            if candidates.is_empty() {
                continue;
            }
            let mut shard = self.write_shard(i);
            for key in candidates {
                let still_expired = shard
                    .map
                    .get(&key)
                    .is_some_and(|e| e.expires_at != 0 && e.expires_at <= now);
                if still_expired {
                    let e = shard.map.remove(&key).expect("checked expired");
                    self.uncharge(i, key.len(), &e);
                    StoreStats::bump(&self.stats.expired);
                    report.expired += 1;
                }
            }
        }
        if self.config.eviction == EvictionPolicy::Lru {
            let budget = self.config.memory_budget as f64;
            let high = (budget * self.config.high_watermark) as u64;
            let low = (budget * self.config.low_watermark) as u64;
            if self.stats.bytes_used.load(Ordering::Relaxed) > high {
                while self.stats.bytes_used.load(Ordering::Relaxed) > low {
                    if !self.evict_one() {
                        break;
                    }
                    report.evicted += 1;
                }
            }
        }
        report
    }

    fn next_cas(&self) -> u64 {
        self.cas_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Writer-side LRU touch: stamp the entry and push a fresh queue
    /// record (one boxed key per *mutation* — reads never come here).
    fn touch_exclusive(&self, shard: &mut Shard, key: &[u8]) {
        let gen = self.lru_clock.fetch_add(1, Ordering::Relaxed);
        if let Some(e) = shard.map.get_mut(key) {
            e.lru_gen.store(gen, Ordering::Relaxed);
            e.queued_gen = gen;
        }
        shard.lru.push_back((key.into(), gen));
        // Compact the lazy queue when it is mostly stale duplicates.
        if shard.lru.len() > 64 && shard.lru.len() > 2 * shard.map.len() {
            let map = &shard.map;
            shard
                .lru
                .retain(|(k, g)| map.get(k.as_ref()).is_some_and(|e| e.queued_gen == *g));
        }
    }

    /// Reader-side LRU touch: one relaxed `fetch_max`, no allocation, no
    /// queue traffic. Safe under the shard read lock.
    fn touch_shared(&self, e: &Entry) {
        let gen = self.lru_clock.fetch_add(1, Ordering::Relaxed);
        e.lru_gen.fetch_max(gen, Ordering::Relaxed);
    }

    /// Store `value` under `key`, replacing any previous value.
    pub fn set(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.set_ttl(key, value, 0)
    }

    /// Store `value` under `key` with a relative TTL in milliseconds
    /// (0 = never expires). The protocol's `exptime` seconds land here.
    pub fn set_ttl(&self, key: &[u8], value: Bytes, ttl_ms: u64) -> KvResult<()> {
        Self::validate_key(key)?;
        if value.len() > self.config.max_value_size {
            return Err(KvError::ValueTooLarge {
                size: value.len(),
                limit: self.config.max_value_size,
            });
        }
        StoreStats::bump(&self.stats.set_ops);
        StoreStats::add(&self.stats.bytes_written, value.len() as u64);
        let charge = Self::charge(key, value.len());
        self.reserve(charge)?;
        let cas = self.next_cas();
        let expires_at = self.expiry(ttl_ms);
        let idx = self.shard_index(key);
        let mut shard = self.write_shard(idx);
        let old = shard.map.insert(
            key.into(),
            Entry {
                value,
                cas,
                lru_gen: AtomicU64::new(0),
                queued_gen: 0,
                expires_at,
            },
        );
        match old {
            Some(e) => {
                // We charged for a fresh item; release the replaced one.
                let old_charge = Self::charge(key, e.value.len());
                StoreStats::sub(&self.stats.bytes_used, old_charge);
                self.meta[idx]
                    .bytes
                    .fetch_sub(old_charge, Ordering::Relaxed);
                if e.expires_at != 0 {
                    self.meta[idx].expiring.fetch_sub(1, Ordering::Relaxed);
                }
            }
            None => {
                StoreStats::add(&self.stats.item_count, 1);
                self.meta[idx].items.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.meta[idx].bytes.fetch_add(charge, Ordering::Relaxed);
        if expires_at != 0 {
            self.meta[idx].expiring.fetch_add(1, Ordering::Relaxed);
        }
        self.touch_exclusive(&mut shard, key);
        Ok(())
    }

    /// Store `value` under `key` only if the key does not exist.
    pub fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.add_ttl(key, value, 0)
    }

    /// `add` with a relative TTL in milliseconds (0 = never expires).
    /// An expired occupant does not count as existing: it is reaped and
    /// the add succeeds.
    pub fn add_ttl(&self, key: &[u8], value: Bytes, ttl_ms: u64) -> KvResult<()> {
        Self::validate_key(key)?;
        if value.len() > self.config.max_value_size {
            return Err(KvError::ValueTooLarge {
                size: value.len(),
                limit: self.config.max_value_size,
            });
        }
        StoreStats::bump(&self.stats.add_ops);
        let charge = Self::charge(key, value.len());
        self.reserve(charge)?;
        let cas = self.next_cas();
        let expires_at = self.expiry(ttl_ms);
        let idx = self.shard_index(key);
        let mut shard = self.write_shard(idx);
        match shard.map.get(key) {
            Some(e) if self.live(e) => {
                drop(shard);
                StoreStats::sub(&self.stats.bytes_used, charge);
                return Err(KvError::Exists);
            }
            Some(_) => {
                // Expired occupant: reap it, the slot is free.
                let e = shard.map.remove(key).expect("checked present");
                self.uncharge(idx, key.len(), &e);
                StoreStats::bump(&self.stats.expired);
            }
            None => {}
        }
        StoreStats::add(&self.stats.bytes_written, value.len() as u64);
        shard.map.insert(
            key.into(),
            Entry {
                value,
                cas,
                lru_gen: AtomicU64::new(0),
                queued_gen: 0,
                expires_at,
            },
        );
        StoreStats::add(&self.stats.item_count, 1);
        self.meta[idx].items.fetch_add(1, Ordering::Relaxed);
        self.meta[idx].bytes.fetch_add(charge, Ordering::Relaxed);
        if expires_at != 0 {
            self.meta[idx].expiring.fetch_add(1, Ordering::Relaxed);
        }
        self.touch_exclusive(&mut shard, key);
        Ok(())
    }

    /// Fetch the value stored under `key`. Zero-copy: the returned
    /// [`Bytes`] shares the stored buffer. Runs under the shard *read*
    /// lock — concurrent gets never block each other — and records
    /// recency with one atomic stamp, no allocation.
    pub fn get(&self, key: &[u8]) -> KvResult<Bytes> {
        Self::validate_key(key)?;
        StoreStats::bump(&self.stats.get_ops);
        let idx = self.shard_index(key);
        let shard = self.read_shard(idx);
        match shard.map.get(key) {
            Some(e) if self.live(e) => {
                let value = e.value.clone();
                StoreStats::bump(&self.stats.get_hits);
                StoreStats::add(&self.stats.bytes_read, value.len() as u64);
                self.touch_shared(e);
                Ok(value)
            }
            _ => Err(KvError::NotFound),
        }
    }

    /// Fetch several keys in one call (the engine behind multi-key `get`).
    ///
    /// Per-key counters are maintained exactly as if each key had been
    /// fetched individually — `get_ops` and `get_hits` advance per key —
    /// while `mget_ops` counts the batch itself, which is what makes
    /// "one batched request per server per prefetch window" observable
    /// from server stats.
    ///
    /// Keys are grouped by shard so the batch takes each shard's lock
    /// once instead of once per key — and the lock taken is the *read*
    /// lock, so concurrent batches on the server worker pool proceed in
    /// parallel even when their shard groups overlap. Results come back
    /// in input order.
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Vec<KvResult<Bytes>> {
        StoreStats::bump(&self.stats.mget_ops);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut out: Vec<Option<KvResult<Bytes>>> = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            let key = key.as_ref();
            match Self::validate_key(key) {
                Ok(()) => {
                    groups[self.shard_index(key)].push(i);
                    out.push(None);
                }
                Err(e) => out.push(Some(Err(e))),
            }
        }
        for (s, idxs) in groups.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let shard = self.read_shard(s);
            for &i in idxs {
                let key = keys[i].as_ref();
                StoreStats::bump(&self.stats.get_ops);
                out[i] = Some(match shard.map.get(key) {
                    Some(e) if self.live(e) => {
                        let value = e.value.clone();
                        StoreStats::bump(&self.stats.get_hits);
                        StoreStats::add(&self.stats.bytes_read, value.len() as u64);
                        self.touch_shared(e);
                        Ok(value)
                    }
                    _ => Err(KvError::NotFound),
                });
            }
        }
        out.into_iter()
            .map(|r| r.expect("every key resolved"))
            .collect()
    }

    /// Fetch value and CAS token together (`gets` in the wire protocol).
    /// Read-lock path, like [`Store::get`].
    pub fn gets(&self, key: &[u8]) -> KvResult<(Bytes, u64)> {
        Self::validate_key(key)?;
        StoreStats::bump(&self.stats.get_ops);
        let idx = self.shard_index(key);
        let shard = self.read_shard(idx);
        match shard.map.get(key) {
            Some(e) if self.live(e) => {
                let out = (e.value.clone(), e.cas);
                StoreStats::bump(&self.stats.get_hits);
                StoreStats::add(&self.stats.bytes_read, out.0.len() as u64);
                self.touch_shared(e);
                Ok(out)
            }
            _ => Err(KvError::NotFound),
        }
    }

    /// Atomically append `suffix` to the value under `key`.
    ///
    /// This is the operation the MemFS directory protocol relies on
    /// (paper §3.2.4: "the Memcached append function that is internally
    /// atomic and synchronized"). Fails with [`KvError::NotFound`] if the
    /// key does not exist (or its TTL has passed), as memcached's
    /// `append` does (`NOT_STORED`). Appending preserves the existing
    /// expiry, matching memcached.
    pub fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        Self::validate_key(key)?;
        StoreStats::bump(&self.stats.append_ops);
        let extra = suffix.len() as u64;
        self.reserve(extra)?;
        let cas = self.next_cas();
        let idx = self.shard_index(key);
        let mut shard = self.write_shard(idx);
        let state = shard.map.get(key).map(|e| self.live(e));
        match state {
            None => {
                drop(shard);
                StoreStats::sub(&self.stats.bytes_used, extra);
                return Err(KvError::NotFound);
            }
            Some(false) => {
                // Expired occupant: reap it, report absent.
                let e = shard.map.remove(key).expect("checked present");
                self.uncharge(idx, key.len(), &e);
                StoreStats::bump(&self.stats.expired);
                drop(shard);
                StoreStats::sub(&self.stats.bytes_used, extra);
                return Err(KvError::NotFound);
            }
            Some(true) => {}
        }
        let entry = shard.map.get_mut(key).expect("checked live");
        let new_len = entry.value.len() + suffix.len();
        if new_len > self.config.max_value_size {
            let size = new_len;
            drop(shard);
            StoreStats::sub(&self.stats.bytes_used, extra);
            return Err(KvError::ValueTooLarge {
                size,
                limit: self.config.max_value_size,
            });
        }
        let mut buf = BytesMut::with_capacity(new_len);
        buf.extend_from_slice(&entry.value);
        buf.extend_from_slice(suffix);
        entry.value = buf.freeze();
        entry.cas = cas;
        StoreStats::add(&self.stats.bytes_written, extra);
        self.meta[idx].bytes.fetch_add(extra, Ordering::Relaxed);
        self.touch_exclusive(&mut shard, key);
        Ok(())
    }

    /// Replace the value only if `token` matches the current CAS token.
    pub fn cas(&self, key: &[u8], value: Bytes, token: u64) -> KvResult<()> {
        self.cas_ttl(key, value, token, 0)
    }

    /// `cas` with a relative TTL in milliseconds (0 = never expires); a
    /// successful swap installs the new expiry, memcached-style.
    pub fn cas_ttl(&self, key: &[u8], value: Bytes, token: u64, ttl_ms: u64) -> KvResult<()> {
        Self::validate_key(key)?;
        if value.len() > self.config.max_value_size {
            return Err(KvError::ValueTooLarge {
                size: value.len(),
                limit: self.config.max_value_size,
            });
        }
        StoreStats::bump(&self.stats.cas_ops);
        let charge = Self::charge(key, value.len());
        self.reserve(charge)?;
        let new_cas = self.next_cas();
        let expires_at = self.expiry(ttl_ms);
        let idx = self.shard_index(key);
        let mut shard = self.write_shard(idx);
        let state = shard.map.get(key).map(|e| self.live(e));
        match state {
            None => {
                drop(shard);
                StoreStats::sub(&self.stats.bytes_used, charge);
                return Err(KvError::NotFound);
            }
            Some(false) => {
                let e = shard.map.remove(key).expect("checked present");
                self.uncharge(idx, key.len(), &e);
                StoreStats::bump(&self.stats.expired);
                drop(shard);
                StoreStats::sub(&self.stats.bytes_used, charge);
                return Err(KvError::NotFound);
            }
            Some(true) => {}
        }
        let entry = shard.map.get_mut(key).expect("checked live");
        if entry.cas != token {
            drop(shard);
            StoreStats::sub(&self.stats.bytes_used, charge);
            StoreStats::bump(&self.stats.cas_misses);
            return Err(KvError::CasMismatch);
        }
        let old_charge = Self::charge(key, entry.value.len());
        let old_expiring = entry.expires_at != 0;
        StoreStats::add(&self.stats.bytes_written, value.len() as u64);
        entry.value = value;
        entry.cas = new_cas;
        entry.expires_at = expires_at;
        StoreStats::sub(&self.stats.bytes_used, old_charge);
        self.meta[idx]
            .bytes
            .fetch_sub(old_charge, Ordering::Relaxed);
        self.meta[idx].bytes.fetch_add(charge, Ordering::Relaxed);
        match (old_expiring, expires_at != 0) {
            (false, true) => {
                self.meta[idx].expiring.fetch_add(1, Ordering::Relaxed);
            }
            (true, false) => {
                self.meta[idx].expiring.fetch_sub(1, Ordering::Relaxed);
            }
            _ => {}
        }
        self.touch_exclusive(&mut shard, key);
        Ok(())
    }

    /// Remove `key`, freeing its budget charge. An expired occupant is
    /// reaped but reported as absent.
    pub fn delete(&self, key: &[u8]) -> KvResult<()> {
        Self::validate_key(key)?;
        StoreStats::bump(&self.stats.delete_ops);
        let idx = self.shard_index(key);
        let mut shard = self.write_shard(idx);
        match shard.map.remove(key) {
            Some(e) => {
                let was_live = self.live(&e);
                self.uncharge(idx, key.len(), &e);
                if was_live {
                    Ok(())
                } else {
                    StoreStats::bump(&self.stats.expired);
                    Err(KvError::NotFound)
                }
            }
            None => Err(KvError::NotFound),
        }
    }

    /// Whether `key` currently exists and is unexpired (does not count
    /// as a `get`). Read-lock only.
    pub fn contains(&self, key: &[u8]) -> bool {
        if Store::validate_key(key).is_err() {
            return false;
        }
        let idx = self.shard_index(key);
        self.read_shard(idx)
            .map
            .get(key)
            .is_some_and(|e| self.live(e))
    }

    /// Remove every item (memcached `flush_all`).
    pub fn flush_all(&self) {
        for i in 0..self.shards.len() {
            let mut s = self.write_shard(i);
            let drained: Vec<(Box<[u8]>, Entry)> = s.map.drain().collect();
            for (k, e) in drained {
                self.uncharge(i, k.len(), &e);
            }
            s.lru.clear();
        }
    }

    /// List all unexpired keys (diagnostic; used by balance tests and
    /// the elastic rebalancer's scans). Order is unspecified.
    pub fn keys(&self) -> Vec<Box<[u8]>> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            let shard = self.read_shard(i);
            out.extend(
                shard
                    .map
                    .iter()
                    .filter(|(_, e)| self.live(e))
                    .map(|(k, _)| k.clone()),
            );
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
    use super::*;

    fn small_store(budget: u64, eviction: EvictionPolicy) -> Store {
        Store::new(StoreConfig {
            memory_budget: budget,
            max_value_size: 1024,
            eviction,
            shards: 4,
            ..StoreConfig::default()
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
        assert!(matches!(
            s.add(b"k", Bytes::from_static(b"v2")),
            Err(KvError::Exists)
        ));
        assert_eq!(s.get(b"k").unwrap().as_ref(), b"v1");
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
    fn cas_succeeds_with_token_and_fails_without() {
        let s = Store::with_defaults();
        s.set(b"k", Bytes::from_static(b"v1")).unwrap();
        let (_, token) = s.gets(b"k").unwrap();
        s.cas(b"k", Bytes::from_static(b"v2"), token).unwrap();
        assert!(matches!(
            s.cas(b"k", Bytes::from_static(b"v3"), token),
            Err(KvError::CasMismatch)
        ));
        assert_eq!(s.get(b"k").unwrap().as_ref(), b"v2");
        assert_eq!(s.stats().snapshot().cas_misses, 1);
    }

    #[test]
    fn value_size_limit_enforced() {
        let s = small_store(1 << 20, EvictionPolicy::Error);
        let big = Bytes::from(vec![0u8; 2000]);
        assert!(matches!(
            s.set(b"k", big),
            Err(KvError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn append_respects_value_size_limit() {
        let s = small_store(1 << 20, EvictionPolicy::Error);
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
    fn error_policy_rejects_when_full() {
        let s = small_store(400, EvictionPolicy::Error);
        s.set(b"a", Bytes::from(vec![0u8; 200])).unwrap();
        let r = s.set(b"b", Bytes::from(vec![0u8; 200]));
        assert!(matches!(r, Err(KvError::OutOfMemory { .. })));
        // First item untouched.
        assert_eq!(s.get(b"a").unwrap().len(), 200);
    }

    #[test]
    fn lru_policy_evicts_oldest() {
        // Each item charges 1 (key) + 200 (value) + 64 (overhead) = 265
        // bytes; a 700-byte budget holds two items but not three.
        let s = small_store(700, EvictionPolicy::Lru);
        s.set(b"a", Bytes::from(vec![0u8; 200])).unwrap();
        s.set(b"b", Bytes::from(vec![0u8; 200])).unwrap();
        // Touch "a" so "b" is the LRU victim: the read-side atomic stamp
        // must earn "a" its second chance at eviction time.
        s.get(b"a").unwrap();
        s.set(b"c", Bytes::from(vec![0u8; 200])).unwrap();
        assert!(s.contains(b"a"));
        assert!(s.contains(b"c"));
        assert!(!s.contains(b"b"), "LRU victim should be evicted");
        assert_eq!(s.stats().snapshot().evictions, 1);
    }

    #[test]
    fn lru_eviction_gives_up_when_item_cannot_fit() {
        let s = small_store(300, EvictionPolicy::Lru);
        s.set(b"a", Bytes::from(vec![0u8; 100])).unwrap();
        // 1000-byte value can never fit in a 300-byte budget.
        let r = s.set(b"big", Bytes::from(vec![0u8; 1000]));
        assert!(matches!(r, Err(KvError::OutOfMemory { .. })));
    }

    #[test]
    fn flush_all_clears_everything() {
        let s = Store::with_defaults();
        for i in 0..100u32 {
            s.set(format!("key{i}").as_bytes(), Bytes::from(vec![0u8; 10]))
                .unwrap();
        }
        assert_eq!(s.item_count(), 100);
        s.flush_all();
        assert_eq!(s.item_count(), 0);
        assert_eq!(s.bytes_used(), 0);
        assert!(s.keys().is_empty());
        let usage = s.shard_usage();
        assert!(usage.iter().all(|u| u.bytes == 0 && u.items == 0));
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
        use std::sync::Arc;
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
        use std::sync::Arc;
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

    // ------------------------------------------------------------------
    // Round-two engine: TTL, watermarks, per-shard accounting.
    // ------------------------------------------------------------------

    #[test]
    fn ttl_expires_on_read_and_is_reaped_by_maintain() {
        let s = Store::with_defaults();
        s.set_ttl(b"fleeting", Bytes::from_static(b"v"), 10)
            .unwrap();
        s.set(b"durable", Bytes::from_static(b"v")).unwrap();
        assert_eq!(s.get(b"fleeting").unwrap().as_ref(), b"v");
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Lazily invisible everywhere, memory still charged until reaped.
        assert!(matches!(s.get(b"fleeting"), Err(KvError::NotFound)));
        assert!(!s.contains(b"fleeting"));
        assert!(s.keys().iter().all(|k| k.as_ref() != b"fleeting"));
        assert_eq!(s.item_count(), 2);
        let report = s.maintain();
        assert_eq!(report.expired, 1);
        assert_eq!(s.item_count(), 1);
        assert!(s.contains(b"durable"));
        assert_eq!(s.stats().snapshot().expired, 1);
        let (bytes, items) = s.charge_audit();
        assert_eq!(bytes, s.bytes_used());
        assert_eq!(items, 1);
    }

    #[test]
    fn add_over_expired_occupant_succeeds() {
        let s = Store::with_defaults();
        s.set_ttl(b"k", Bytes::from_static(b"old"), 5).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));
        s.add(b"k", Bytes::from_static(b"new")).unwrap();
        assert_eq!(s.get(b"k").unwrap().as_ref(), b"new");
        assert_eq!(s.item_count(), 1);
        let (bytes, _) = s.charge_audit();
        assert_eq!(bytes, s.bytes_used());
    }

    #[test]
    fn append_and_cas_on_expired_report_not_found_and_free() {
        let s = Store::with_defaults();
        s.set_ttl(b"k", Bytes::from_static(b"old"), 5).unwrap();
        let (_, token) = s.gets(b"k").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));
        assert!(matches!(s.append(b"k", b"x"), Err(KvError::NotFound)));
        assert_eq!(s.bytes_used(), 0, "expired occupant reaped by append");
        s.set_ttl(b"k", Bytes::from_static(b"old"), 5).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));
        assert!(matches!(
            s.cas(b"k", Bytes::from_static(b"new"), token),
            Err(KvError::NotFound)
        ));
        assert_eq!(s.bytes_used(), 0, "expired occupant reaped by cas");
    }

    #[test]
    fn delete_expired_reports_not_found_but_frees() {
        let s = Store::with_defaults();
        s.set_ttl(b"k", Bytes::from_static(b"v"), 5).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));
        assert!(matches!(s.delete(b"k"), Err(KvError::NotFound)));
        assert_eq!(s.bytes_used(), 0);
        assert_eq!(s.item_count(), 0);
    }

    #[test]
    fn maintain_sweeps_from_high_to_low_watermark() {
        let s = Store::new(StoreConfig {
            memory_budget: 10_000,
            max_value_size: 1024,
            eviction: EvictionPolicy::Lru,
            shards: 4,
            high_watermark: 0.70,
            low_watermark: 0.40,
        });
        // Fill to ~80% of budget: above high, below the hard budget, so
        // no inline eviction fired yet.
        for i in 0..30u32 {
            s.set(format!("k{i:03}").as_bytes(), Bytes::from(vec![0u8; 200]))
                .unwrap();
        }
        assert_eq!(s.stats().snapshot().evictions, 0);
        assert!(s.bytes_used() > 7_000);
        let report = s.maintain();
        assert!(report.evicted > 0, "sweeper must fire above high watermark");
        assert!(
            s.bytes_used() <= 4_000,
            "sweeper stops at the low watermark, used={}",
            s.bytes_used()
        );
        assert_eq!(s.stats().snapshot().evictions, report.evicted);
        // Below high: the next pass is a no-op.
        let quiet = s.maintain();
        assert_eq!(quiet.evicted, 0);
    }

    #[test]
    fn per_shard_accounting_sums_to_totals() {
        let s = Store::new(StoreConfig {
            shards: 8,
            ..StoreConfig::default()
        });
        for i in 0..100u32 {
            let ttl = if i % 4 == 0 { 60_000 } else { 0 };
            s.set_ttl(
                format!("key{i}").as_bytes(),
                Bytes::from(vec![0u8; (i % 37) as usize]),
                ttl,
            )
            .unwrap();
        }
        for i in (0..100u32).step_by(3) {
            let _ = s.delete(format!("key{i}").as_bytes());
        }
        let usage = s.shard_usage();
        let bytes: u64 = usage.iter().map(|u| u.bytes).sum();
        let items: u64 = usage.iter().map(|u| u.items).sum();
        let expiring: u64 = usage.iter().map(|u| u.expiring).sum();
        assert_eq!(bytes, s.bytes_used());
        assert_eq!(items, s.item_count());
        assert_eq!(
            expiring,
            (0..100u32).filter(|i| i % 4 == 0 && i % 3 != 0).count() as u64
        );
        let (audit_bytes, audit_items) = s.charge_audit();
        assert_eq!(audit_bytes, s.bytes_used());
        assert_eq!(audit_items, s.item_count());
    }

    #[test]
    fn cas_ttl_adjusts_expiring_gauge() {
        let s = Store::with_defaults();
        s.set(b"k", Bytes::from_static(b"v1")).unwrap();
        let gauge = |s: &Store| -> u64 { s.shard_usage().iter().map(|u| u.expiring).sum() };
        assert_eq!(gauge(&s), 0);
        let (_, token) = s.gets(b"k").unwrap();
        s.cas_ttl(b"k", Bytes::from_static(b"v2"), token, 60_000)
            .unwrap();
        assert_eq!(gauge(&s), 1);
        let (_, token) = s.gets(b"k").unwrap();
        s.cas_ttl(b"k", Bytes::from_static(b"v3"), token, 0)
            .unwrap();
        assert_eq!(gauge(&s), 0);
        // set over a TTL'd entry drops the gauge too.
        s.set_ttl(b"k", Bytes::from_static(b"v4"), 60_000).unwrap();
        assert_eq!(gauge(&s), 1);
        s.set(b"k", Bytes::from_static(b"v5")).unwrap();
        assert_eq!(gauge(&s), 0);
    }

    #[test]
    fn get_many_skips_expired_entries() {
        let s = Store::with_defaults();
        s.set_ttl(b"gone", Bytes::from_static(b"x"), 5).unwrap();
        s.set(b"here", Bytes::from_static(b"y")).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));
        let out = s.get_many(&[b"gone".to_vec(), b"here".to_vec()]);
        assert!(matches!(out[0], Err(KvError::NotFound)));
        assert_eq!(out[1].as_ref().unwrap().as_ref(), b"y");
        let snap = s.stats().snapshot();
        assert_eq!(snap.get_hits, 1);
    }

    #[test]
    fn read_hot_items_survive_sustained_eviction_pressure() {
        // A hot key that is only ever *read* must survive a stream of
        // over-budget inserts: the second-chance evictor has to honor
        // the read-side atomic stamps.
        let s = Store::new(StoreConfig {
            memory_budget: 4_000,
            max_value_size: 1024,
            eviction: EvictionPolicy::Lru,
            shards: 4,
            ..StoreConfig::default()
        });
        s.set(b"hot", Bytes::from(vec![1u8; 100])).unwrap();
        for i in 0..200u32 {
            s.get(b"hot").unwrap();
            s.set(format!("cold{i}").as_bytes(), Bytes::from(vec![0u8; 200]))
                .unwrap();
        }
        assert!(s.contains(b"hot"), "read-hot item evicted under pressure");
        assert!(s.stats().snapshot().evictions > 100);
    }
}
