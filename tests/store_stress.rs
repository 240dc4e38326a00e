//! Randomized concurrent stress oracle for the store engine: N reader
//! threads + M writer threads hammer one store whose budget is too small
//! for the writers' working set, so a steady share of `set` / `add` /
//! `append` is refused with `OutOfMemory`. The store never evicts or
//! expires, which makes the owner's record of each key exact:
//!
//! * **No lost or torn updates** — every key's final value is exactly
//!   the owner's last acknowledged write, or absent because its last
//!   acknowledged op was a `delete` (or nothing). Absence of a stored key
//!   is a failure. Values are runs of self-describing segments (one per
//!   `set` / `add` / `append`), so readers also verify integrity *during*
//!   the run: a torn read, a torn append, or a value bleeding across keys
//!   fails loudly.
//! * **A refused write changes nothing** — right after any refused
//!   `set` / `add` / `append` the owner reads its key back and finds the
//!   previous value, and `add` / `append` outcomes must agree with the
//!   owner's record (`Exists` only on a stored key, `NotFound` only on an
//!   absent one).
//! * **The budget is a hard bound** — readers sample `bytes_used` while
//!   writers run; it never exceeds `memory_budget`.
//! * **Exact memory accounting** — after quiescing,
//!   `bytes_used == Σ charge(items present)` and `item_count` matches,
//!   recomputed by walking every shard ([`Store::charge_audit`]) and
//!   summed from the per-shard gauges. A leak in any refusal path breaks
//!   this.
//!
//! Seeded via `MEMFS_SHAPE_SEED` (printed on entry) so soak failures
//! replay deterministically; wired into `verify.sh --threads`/`--soak`.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use memfs::memkv::testutil::{seed_from_env, Rng};
use memfs::memkv::{KvError, Store, StoreConfig};

const WRITERS: usize = 4;
const READERS: usize = 4;
const KEYS_PER_WRITER: usize = 256;
const OPS_PER_WRITER: usize = 4000;
/// Small enough that the writers' working set (~1024 keys of ~600 B)
/// cannot fit: the store sits full and refuses writes for most of the run.
const BUDGET: u64 = 256 * 1024;
const MAX_VALUE: usize = 2048;

fn key_of(writer: usize, idx: usize) -> Vec<u8> {
    format!("w{writer}:k{idx:04}").into_bytes()
}

/// One self-describing segment: `t<w> j<idx> s<seq> n<len>;` + `len`
/// pattern bytes, each `(seq + position) % 251`. A value is one or more
/// of these — the first from a `set` / `add`, one more per `append`.
fn segment(writer: usize, idx: usize, seq: u64, len: usize) -> Vec<u8> {
    let mut v = format!("t{writer} j{idx} s{seq} n{len};").into_bytes();
    v.extend((0..len).map(|p| ((seq as usize + p) % 251) as u8));
    v
}

/// Check a fetched value is a whole run of untorn segments, all written
/// for (writer, idx).
fn check_value(writer: usize, idx: usize, mut v: &[u8]) {
    assert!(!v.is_empty(), "w{writer}:k{idx} holds an empty value");
    while !v.is_empty() {
        let semi = v
            .iter()
            .position(|&b| b == b';')
            .unwrap_or_else(|| panic!("segment of w{writer}:k{idx} has no header: {v:?}"));
        let head = std::str::from_utf8(&v[..semi]).expect("header is ascii");
        let field = |name: char| -> u64 {
            head.split(' ')
                .find_map(|f| f.strip_prefix(name))
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("w{writer}:k{idx}: torn header {head:?}"))
        };
        let (t, j, s, n) = (field('t'), field('j'), field('s'), field('n') as usize);
        assert_eq!(
            (t as usize, j as usize),
            (writer, idx),
            "value under w{writer}:k{idx} holds a segment of w{t}:k{j} — cross-key bleed"
        );
        let body = &v[semi + 1..];
        assert!(
            body.len() >= n,
            "w{writer}:k{idx} seq {s}: segment cut short"
        );
        for (p, &b) in body[..n].iter().enumerate() {
            assert_eq!(
                b,
                ((s as usize + p) % 251) as u8,
                "torn value for w{writer}:k{idx} seq {s} at payload byte {p}"
            );
        }
        v = &body[n..];
    }
}

/// The owner's record of a key's state. Exact: nothing but the owner
/// ever changes its keys.
#[derive(Clone, Default)]
enum Expected {
    #[default]
    Absent,
    Stored(Vec<u8>),
}

/// Per-writer tallies, to prove the run exercised both outcomes.
#[derive(Default)]
struct Tally {
    stored: u64,
    refused: u64,
}

#[test]
fn concurrent_stress_holds_accounting_and_no_lost_updates() {
    let seed = seed_from_env();
    println!("store_stress seed: {seed} (set MEMFS_SHAPE_SEED to replay)");

    let store = Arc::new(Store::new(StoreConfig {
        memory_budget: BUDGET,
        max_value_size: MAX_VALUE,
    }));
    let stop = Arc::new(AtomicBool::new(false));

    // Readers: random gets, batched gets, contains — every hit verified
    // for integrity, and the budget sampled as they go.
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
                    let used = store.bytes_used();
                    assert!(
                        used <= BUDGET,
                        "{used} bytes charged to a {BUDGET}-byte budget"
                    );
                }
                hits
            })
        })
        .collect();

    // Writers: each owns a disjoint keyspace; set / add / append / delete,
    // tracking the exact state of every key.
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            let mut rng = Rng::new(seed ^ (0xD00D + w as u64));
            std::thread::spawn(move || {
                let mut expect: Vec<Expected> = vec![Expected::default(); KEYS_PER_WRITER];
                let mut tally = Tally::default();
                for seq in 0..OPS_PER_WRITER as u64 {
                    let i = rng.gen_range(0, KEYS_PER_WRITER as u64) as usize;
                    let key = key_of(w, i);
                    let stored = matches!(expect[i], Expected::Stored(_));
                    let outcome = match rng.gen_range(0, 10) {
                        0 | 1 => {
                            // delete: frees room; NotFound iff absent.
                            match store.delete(&key) {
                                Ok(()) => assert!(stored, "w{w}:k{i}: deleted an absent key"),
                                Err(KvError::NotFound) => {
                                    assert!(!stored, "w{w}:k{i}: stored key not found")
                                }
                                Err(e) => panic!("delete failed oddly: {e}"),
                            }
                            expect[i] = Expected::Absent;
                            continue;
                        }
                        2 | 3 => {
                            // append: the directory-log op.
                            let seg = segment(w, i, seq, rng.gen_range(0, 256) as usize);
                            let outcome = store.append(&key, &seg);
                            match (&outcome, &mut expect[i]) {
                                (Ok(()), Expected::Stored(v)) => v.extend_from_slice(&seg),
                                (Ok(()), Expected::Absent) => {
                                    panic!("w{w}:k{i}: append to an absent key succeeded")
                                }
                                (Err(KvError::NotFound), Expected::Stored(_)) => {
                                    panic!("w{w}:k{i}: append lost a stored key")
                                }
                                (
                                    Err(
                                        KvError::NotFound
                                        | KvError::OutOfMemory { .. }
                                        | KvError::ValueTooLarge { .. },
                                    ),
                                    _,
                                ) => {}
                                (Err(e), _) => panic!("append failed oddly: {e}"),
                            }
                            outcome
                        }
                        4 => {
                            // add: succeeds only on an absent key.
                            let v = segment(w, i, seq, rng.gen_range(0, 256) as usize);
                            let outcome = store.add(&key, Bytes::from(v.clone()));
                            match &outcome {
                                Ok(()) => {
                                    assert!(!stored, "w{w}:k{i}: add over a stored key");
                                    expect[i] = Expected::Stored(v);
                                }
                                Err(KvError::Exists) => {
                                    assert!(stored, "w{w}:k{i}: add refused on an absent key")
                                }
                                Err(KvError::OutOfMemory { .. }) => {}
                                Err(e) => panic!("add failed oddly: {e}"),
                            }
                            outcome
                        }
                        _ => {
                            let v = segment(w, i, seq, rng.gen_range(0, 1024) as usize);
                            let outcome = store.set(&key, Bytes::from(v.clone()));
                            match &outcome {
                                Ok(()) => expect[i] = Expected::Stored(v),
                                Err(KvError::OutOfMemory { .. }) => {}
                                Err(e) => panic!("set failed oddly: {e}"),
                            }
                            outcome
                        }
                    };
                    match outcome {
                        Ok(()) => tally.stored += 1,
                        Err(KvError::OutOfMemory { .. } | KvError::ValueTooLarge { .. }) => {
                            tally.refused += 1;
                            // The refused write left the previous value.
                            match (&expect[i], store.get(&key)) {
                                (Expected::Stored(v), Ok(got)) => assert_eq!(
                                    got.as_ref(),
                                    &v[..],
                                    "w{w}:k{i}: a refused write changed the value"
                                ),
                                (Expected::Absent, Err(KvError::NotFound)) => {}
                                (_, got) => panic!(
                                    "w{w}:k{i}: a refused write changed presence ({:?})",
                                    got.map(|v| v.len())
                                ),
                            }
                        }
                        Err(_) => {}
                    }
                }
                (expect, tally)
            })
        })
        .collect();

    let results: Vec<(Vec<Expected>, Tally)> =
        writers.into_iter().map(|t| t.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    let total_hits: u64 = readers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(total_hits > 0, "readers never hit — stress proved nothing");
    let stored: u64 = results.iter().map(|(_, t)| t.stored).sum();
    let refused: u64 = results.iter().map(|(_, t)| t.refused).sum();
    assert!(stored > 0, "no write was ever stored");
    assert!(
        refused > 0,
        "the budget never refused a write — not sized tight enough"
    );

    // Oracle 1: no lost updates. Nothing evicts, so every stored key
    // reads back exactly its last write and every other key is absent.
    for (w, (expect, _)) in results.iter().enumerate() {
        for (i, state) in expect.iter().enumerate() {
            match (state, store.get(&key_of(w, i))) {
                (Expected::Stored(v), Ok(actual)) => assert_eq!(
                    actual.as_ref(),
                    &v[..],
                    "w{w}:k{i} holds a value that is not the last write"
                ),
                (Expected::Stored(v), Err(e)) => {
                    panic!("w{w}:k{i} lost its {}-byte value: {e}", v.len())
                }
                (Expected::Absent, Err(KvError::NotFound)) => {}
                (Expected::Absent, Ok(v)) => {
                    panic!("w{w}:k{i} should be absent but holds {} bytes", v.len())
                }
                (Expected::Absent, Err(e)) => panic!("get w{w}:k{i} failed oddly: {e}"),
            }
        }
    }

    // Oracle 2: exact accounting at quiescence — the global gauges, the
    // per-shard gauges, and a full walk must all agree, within budget.
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
    assert!(
        store.bytes_used() <= BUDGET,
        "store at rest exceeds its budget"
    );

    println!(
        "store_stress: hits={total_hits} stored={stored} refused={refused} final_items={}",
        store.item_count()
    );
}
