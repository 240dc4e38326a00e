//! Lock-discipline proof for the read-mostly store engine, built on the
//! process-global audit counters ([`memfs::memkv::audit`]) the same way
//! `tests/zero_copy.rs` pins the byte-copy discipline.
//!
//! What is pinned, by exact counter deltas:
//!
//! * A `get` / `contains` takes exactly one shard **read** lock and zero
//!   write locks (the old engine write-locked per get).
//! * A `get_many` batch takes at most one read lock per shard — never
//!   one per key — and zero write locks.
//! * Eviction write-locks exactly **one** shard per reclaimed item (the
//!   old victim scan write-locked all shards per eviction), with the
//!   victim chosen by read-lock peeks only.
//!
//! The counters are process-global, so this binary holds a single test.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use memfs::memkv::audit::{store_read_locks, store_write_locks};
use memfs::memkv::{EvictionPolicy, Store, StoreConfig};

const SHARDS: usize = 8;

/// Snapshot both lock counters.
fn locks() -> (u64, u64) {
    (store_read_locks(), store_write_locks())
}

#[test]
fn reads_take_read_locks_and_eviction_write_locks_one_shard_per_victim() {
    // --- Read path discipline -----------------------------------------
    let s = Store::new(StoreConfig {
        memory_budget: 1 << 20,
        max_value_size: 4096,
        eviction: EvictionPolicy::Error,
        shards: SHARDS,
        ..StoreConfig::default()
    });
    let keys: Vec<Vec<u8>> = (0..64).map(|i| format!("key{i:03}").into_bytes()).collect();
    for k in &keys {
        s.set(k, Bytes::from(vec![0u8; 100])).unwrap();
    }

    // One multi-get batch over all 64 keys: at most one READ lock per
    // shard, zero write locks. (The pre-watermark engine took the shard
    // WRITE lock here, serializing every reader on the worker pool.)
    let (r0, w0) = locks();
    let out = s.get_many(&keys);
    let (r1, w1) = locks();
    assert!(out.iter().all(|r| r.is_ok()));
    assert_eq!(w1 - w0, 0, "a get_many batch must not take write locks");
    assert!(
        (1..=SHARDS as u64).contains(&(r1 - r0)),
        "64-key batch took {} read locks — expected at most one per shard ({SHARDS})",
        r1 - r0
    );

    // Single-key gets: exactly one read lock each, zero write locks —
    // the allocation-free atomic LRU stamp needs no exclusive access.
    let (r0, w0) = locks();
    for k in keys.iter().take(32) {
        s.get(k).unwrap();
    }
    let (r1, w1) = locks();
    assert_eq!(w1 - w0, 0, "gets must not write-lock");
    assert_eq!(r1 - r0, 32, "one read lock per get");

    // `contains` (the old O(shards) offender's sibling): one read lock.
    let (r0, w0) = locks();
    for k in keys.iter().take(10) {
        assert!(s.contains(k));
    }
    let (r1, w1) = locks();
    assert_eq!(w1 - w0, 0, "contains must not write-lock");
    assert_eq!(r1 - r0, 10, "one read lock per contains");

    // --- Eviction discipline ------------------------------------------
    let shards = 4usize;
    let s = Store::new(StoreConfig {
        memory_budget: 10_000,
        max_value_size: 1024,
        eviction: EvictionPolicy::Lru,
        shards,
        high_watermark: 0.70,
        low_watermark: 0.40,
    });
    // Fill past the high watermark without tripping the hard budget, so
    // only the watermark sweep evicts.
    for i in 0..30u32 {
        s.set(format!("k{i:03}").as_bytes(), Bytes::from(vec![0u8; 200]))
            .unwrap();
    }
    let (r0, w0) = locks();
    let report = s.maintain();
    let (r1, w1) = locks();
    assert!(report.evicted > 0, "sweep above the high watermark evicts");
    // Exactly one shard write lock per reclaimed item. The old engine
    // write-locked ALL shards per victim: that would read `evicted *
    // (shards + 1)` here.
    assert_eq!(
        w1 - w0,
        report.evicted,
        "eviction took {} write locks for {} victims — must be exactly one each",
        w1 - w0,
        report.evicted
    );
    // Victim choice is read-lock peeks: one peek per shard per victim.
    assert_eq!(
        r1 - r0,
        report.evicted * shards as u64,
        "victim selection should peek each shard's queue front under a read lock"
    );
}
