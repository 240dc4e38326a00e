//! Lock-discipline proof for the store engine, built on the process-global
//! audit counters ([`memfs::memkv::audit`]) the same way
//! `tests/zero_copy.rs` pins the byte-copy discipline.
//!
//! What is pinned, by exact counter deltas:
//!
//! * A `get` / `contains` takes exactly one shard **read** lock and zero
//!   write locks.
//! * A `get_many` batch takes at most one read lock per shard — never
//!   one per key — and zero write locks.
//! * A `set` / `add` / `append` / `delete` takes exactly one shard
//!   **write** lock and zero read locks.
//!
//! The counters are process-global, so this binary holds a single test.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use memfs::memkv::audit::{store_read_locks, store_write_locks};
use memfs::memkv::store::SHARDS;
use memfs::memkv::{Store, StoreConfig};

/// A store write applied to one key, for the per-verb lock census.
type Mutation<'a> = &'a dyn Fn(&[u8]);

/// Snapshot both lock counters.
fn locks() -> (u64, u64) {
    (store_read_locks(), store_write_locks())
}

#[test]
fn reads_take_one_read_lock_and_writes_one_write_lock() {
    // --- Read path discipline -----------------------------------------
    let s = Store::new(StoreConfig {
        memory_budget: 1 << 20,
        max_value_size: 4096,
    });
    let keys: Vec<Vec<u8>> = (0..64).map(|i| format!("key{i:03}").into_bytes()).collect();
    for k in &keys {
        s.set(k, Bytes::from(vec![0u8; 100])).unwrap();
    }

    // One multi-get batch over all 64 keys: at most one READ lock per
    // shard, zero write locks.
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

    // Single-key gets: exactly one read lock each, zero write locks.
    let (r0, w0) = locks();
    for k in keys.iter().take(32) {
        s.get(k).unwrap();
    }
    let (r1, w1) = locks();
    assert_eq!(w1 - w0, 0, "gets must not write-lock");
    assert_eq!(r1 - r0, 32, "one read lock per get");

    // `contains`: one read lock.
    let (r0, w0) = locks();
    for k in keys.iter().take(10) {
        assert!(s.contains(k));
    }
    let (r1, w1) = locks();
    assert_eq!(w1 - w0, 0, "contains must not write-lock");
    assert_eq!(r1 - r0, 10, "one read lock per contains");

    // --- Write path discipline ----------------------------------------
    // Each mutation, whatever its outcome, is one write lock and no read
    // lock: the budget is claimed lock-free before the shard is touched.
    let mutations: [(&str, Mutation); 5] = [
        ("set", &|k| s.set(k, Bytes::from_static(b"v")).unwrap()),
        ("add", &|k| {
            assert!(s.add(k, Bytes::from_static(b"v")).is_err())
        }),
        ("append", &|k| s.append(k, b"+rec").unwrap()),
        ("delete", &|k| s.delete(k).unwrap()),
        ("add", &|k| s.add(k, Bytes::from_static(b"v")).unwrap()),
    ];
    for (verb, op) in mutations {
        let (r0, w0) = locks();
        for k in keys.iter().take(16) {
            op(k);
        }
        let (r1, w1) = locks();
        assert_eq!(r1 - r0, 0, "`{verb}` must not read-lock");
        assert_eq!(w1 - w0, 16, "one write lock per `{verb}`");
    }
}
