//! Randomized concurrent stress oracle for the read-mostly store engine:
//! N reader threads + M writer threads hammer one over-budget LRU store
//! with TTLs active while a maintenance thread sweeps, then the test
//! checks the engine's ground-truth invariants:
//!
//! * **No lost or torn updates** — every key's final value is exactly
//!   the owner's last acknowledged write, or absent (evicted / expired /
//!   deleted). Values carry a self-describing header + deterministic
//!   byte pattern, so readers also verify integrity *during* the run: a
//!   torn read, a value bleeding across keys, or a stale CAS ghost all
//!   fail loudly.
//! * **Exact memory accounting** — after quiescing,
//!   `bytes_used == Σ charge(items present)` and `item_count` matches,
//!   recomputed by walking every shard ([`Store::charge_audit`]). Any
//!   leak in an error path, eviction, TTL reap, or replacement breaks
//!   this.
//! * **Deleted stays deleted** — a key whose last operation was `delete`
//!   must be absent.
//!
//! Seeded via `MEMFS_SHAPE_SEED` (printed on entry) so soak failures
//! replay deterministically; wired into `verify.sh --threads`/`--soak`.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use memfs::memkv::testutil::{seed_from_env, Rng};
use memfs::memkv::{EvictionPolicy, KvError, Store, StoreConfig};

const WRITERS: usize = 4;
const READERS: usize = 4;
const KEYS_PER_WRITER: usize = 256;
const OPS_PER_WRITER: usize = 4000;
/// Longest TTL a writer attaches, in ms; the final check sleeps past it.
const MAX_TTL_MS: u64 = 50;

fn key_of(writer: usize, idx: usize) -> Vec<u8> {
    format!("w{writer}:k{idx:04}").into_bytes()
}

/// Self-describing value: `t<w> j<idx> s<seq>;` + `len` pattern bytes,
/// each `(seq + position) % 251`. Verifiable from the bytes alone.
fn value_of(writer: usize, idx: usize, seq: u64, len: usize) -> Vec<u8> {
    let mut v = format!("t{writer} j{idx} s{seq};").into_bytes();
    v.extend((0..len).map(|p| ((seq as usize + p) % 251) as u8));
    v
}

/// Check a fetched value is a well-formed, untorn write for (writer, idx).
fn check_value(writer: usize, idx: usize, v: &[u8]) {
    let semi = v
        .iter()
        .position(|&b| b == b';')
        .unwrap_or_else(|| panic!("value for w{writer}:k{idx} has no header: {v:?}"));
    let head = std::str::from_utf8(&v[..semi]).expect("header is ascii");
    let mut parts = head.split(' ');
    let t: usize = parts.next().unwrap()[1..].parse().expect("t field");
    let j: usize = parts.next().unwrap()[1..].parse().expect("j field");
    let s: u64 = parts.next().unwrap()[1..].parse().expect("s field");
    assert_eq!(
        (t, j),
        (writer, idx),
        "value under w{writer}:k{idx} belongs to w{t}:k{j} — cross-key bleed"
    );
    for (p, &b) in v[semi + 1..].iter().enumerate() {
        assert_eq!(
            b,
            ((s as usize + p) % 251) as u8,
            "torn value for w{writer}:k{idx} seq {s} at payload byte {p}"
        );
    }
}

/// The owner's record of a key's final state.
#[derive(Clone, Default)]
enum Expected {
    #[default]
    Never,
    /// Last op stored these exact bytes (possibly with a short TTL —
    /// either way the key is allowed to be absent at check time).
    Stored(Vec<u8>),
    Deleted,
}

#[test]
fn concurrent_stress_holds_accounting_and_no_lost_updates() {
    let seed = seed_from_env();
    println!("store_stress seed: {seed} (set MEMFS_SHAPE_SEED to replay)");

    let store = Arc::new(Store::new(StoreConfig {
        // Small enough that steady-state traffic sits over the high
        // watermark: eviction (inline + swept) runs for the whole test.
        memory_budget: 256 * 1024,
        max_value_size: 2048,
        eviction: EvictionPolicy::Lru,
        shards: 8,
        high_watermark: 0.85,
        low_watermark: 0.70,
    }));
    let stop = Arc::new(AtomicBool::new(false));

    // Maintenance thread: the background sweeper, on a tight cadence.
    let maintainer = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                store.maintain();
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // Readers: random gets, batched gets, contains — every hit verified
    // for integrity. Misses are legal (eviction/TTL) and uncounted.
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let mut rng = Rng::new(seed ^ (0xB00B5 + r as u64));
            std::thread::spawn(move || {
                let mut hits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let w = rng.gen_range(0, WRITERS as u64) as usize;
                    let i = rng.gen_range(0, KEYS_PER_WRITER as u64) as usize;
                    match rng.gen_range(0, 3) {
                        0 => {
                            if let Ok(v) = store.get(&key_of(w, i)) {
                                check_value(w, i, &v);
                                hits += 1;
                            }
                        }
                        1 => {
                            let keys: Vec<Vec<u8>> = (0..8)
                                .map(|d| key_of(w, (i + d) % KEYS_PER_WRITER))
                                .collect();
                            for (d, res) in store.get_many(&keys).into_iter().enumerate() {
                                if let Ok(v) = res {
                                    check_value(w, (i + d) % KEYS_PER_WRITER, &v);
                                    hits += 1;
                                }
                            }
                        }
                        _ => {
                            let _ = store.contains(&key_of(w, i));
                        }
                    }
                }
                hits
            })
        })
        .collect();

    // Writers: each owns a disjoint keyspace; set / set_ttl / add /
    // delete, tracking the exact expected final state per key.
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            let mut rng = Rng::new(seed ^ (0xD00D + w as u64));
            std::thread::spawn(move || {
                let mut expect: Vec<Expected> = vec![Expected::default(); KEYS_PER_WRITER];
                for seq in 0..OPS_PER_WRITER as u64 {
                    let i = rng.gen_range(0, KEYS_PER_WRITER as u64) as usize;
                    let key = key_of(w, i);
                    match rng.gen_range(0, 10) {
                        0 => {
                            // delete: absent afterward no matter what.
                            let _ = store.delete(&key);
                            expect[i] = Expected::Deleted;
                        }
                        1 => {
                            // TTL'd set: expires within MAX_TTL_MS.
                            let ttl = rng.gen_range(1, MAX_TTL_MS + 1);
                            let len = rng.gen_range(0, 1024) as usize;
                            let v = value_of(w, i, seq, len);
                            store.set_ttl(&key, Bytes::from(v.clone()), ttl).unwrap();
                            expect[i] = Expected::Stored(v);
                        }
                        2 => {
                            // add: succeeds only if the slot is free
                            // (never stored, deleted, evicted or
                            // expired); the outcome says which.
                            let len = rng.gen_range(0, 256) as usize;
                            let v = value_of(w, i, seq, len);
                            match store.add(&key, Bytes::from(v.clone())) {
                                Ok(()) => expect[i] = Expected::Stored(v),
                                Err(KvError::Exists) => {}
                                Err(e) => panic!("add failed oddly: {e}"),
                            }
                        }
                        _ => {
                            let len = rng.gen_range(0, 1024) as usize;
                            let v = value_of(w, i, seq, len);
                            store.set(&key, Bytes::from(v.clone())).unwrap();
                            expect[i] = Expected::Stored(v);
                        }
                    }
                }
                expect
            })
        })
        .collect();

    let expectations: Vec<Vec<Expected>> = writers.into_iter().map(|t| t.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    let total_hits: u64 = readers.into_iter().map(|t| t.join().unwrap()).sum();
    maintainer.join().unwrap();
    assert!(total_hits > 0, "readers never hit — stress proved nothing");

    // Let every outstanding TTL lapse so expiry is unambiguous.
    std::thread::sleep(Duration::from_millis(MAX_TTL_MS + 10));

    // Oracle 1: no lost updates. Every surviving value is exactly the
    // owner's last write; deleted keys are absent; TTL'd writes are by
    // now absent-or-exact (lazy expiry makes them read as misses).
    for (w, expect) in expectations.iter().enumerate() {
        for (i, state) in expect.iter().enumerate() {
            let got = store.get(&key_of(w, i));
            match (state, got) {
                (Expected::Stored(v), Ok(actual)) => {
                    assert_eq!(
                        actual.as_ref(),
                        &v[..],
                        "w{w}:k{i} holds a value that is not the last write"
                    );
                }
                (Expected::Stored(_), Err(KvError::NotFound)) => {} // evicted or expired
                (Expected::Deleted | Expected::Never, Err(KvError::NotFound)) => {}
                (Expected::Deleted, Ok(v)) => {
                    panic!(
                        "w{w}:k{i} was deleted but still readable ({} bytes)",
                        v.len()
                    )
                }
                (Expected::Never, Ok(v)) => {
                    panic!("w{w}:k{i} was never written but holds {} bytes", v.len())
                }
                (_, Err(e)) => panic!("get w{w}:k{i} failed oddly: {e}"),
            }
        }
    }

    // Oracle 2: exact accounting at quiescence — the global gauges, the
    // per-shard gauges, and a full walk must all agree.
    let (audit_bytes, audit_items) = store.charge_audit();
    assert_eq!(
        (audit_bytes, audit_items),
        (store.bytes_used(), store.item_count()),
        "bytes_used/item_count drifted from ground truth after the storm"
    );
    let usage = store.shard_usage();
    assert_eq!(
        usage.iter().map(|u| u.bytes).sum::<u64>(),
        store.bytes_used(),
        "per-shard byte gauges disagree with the global gauge"
    );
    assert_eq!(
        usage.iter().map(|u| u.items).sum::<u64>(),
        store.item_count(),
        "per-shard item gauges disagree with the global gauge"
    );

    // A final sweep reaps the lapsed TTLs; accounting must hold after it
    // too, and the budget must never have been breached at rest.
    store.maintain();
    let (audit_bytes, audit_items) = store.charge_audit();
    assert_eq!(
        (audit_bytes, audit_items),
        (store.bytes_used(), store.item_count()),
        "accounting broke across the final maintenance sweep"
    );
    assert!(
        store.bytes_used() <= store.config().memory_budget,
        "store at rest exceeds its budget"
    );

    let snap = store.stats().snapshot();
    println!(
        "store_stress: hits={total_hits} evictions={} expired={} sweeps={} final_items={}",
        snap.evictions, snap.expired, snap.sweeps, snap.item_count
    );
    assert!(snap.evictions > 0, "stress never drove eviction");
    assert!(snap.expired > 0, "stress never reaped a TTL");
    assert!(snap.sweeps > 0, "maintenance never ran");
}
