//! Record the read-mostly store engine's numbers to JSON
//! (`BENCH_pr10.json`).
//!
//! Two experiments:
//!
//! 1. **Contended multi-get** — 8 worker threads hammer one store with
//!    `get_many` batches over a 256-key hot set confined to 4 of 16
//!    shards: shard read lock, one atomic recency stamp per hit. The
//!    aggregate keys/s is reported, not gated (the write-locked engine
//!    it replaced is gone from the tree; the 2.1x over it is on record
//!    in the committed `BENCH_pr10.json`).
//!
//! 2. **Over-budget shaped soak** — one shaped server (8 MiB/s pipe)
//!    serves a foreground client while an in-process pressure thread
//!    keeps the store past its high watermark with a 25%-TTL'd write
//!    stream, so the background sweeper (riding the server's timer
//!    wheel + worker pool) evicts and reaps continuously. Bars: RSS
//!    stays within 1.2x of `memory_budget`, foreground GET p99 does not
//!    collapse (>= 70% of the un-evicting baseline phase), and both
//!    evictions and TTL reaps are nonzero.
//!
//! Usage: `cargo run --release -p memfs-bench --bin store_record`
//! (JSON to stdout; `scripts/bench_record.sh` writes `BENCH_pr10.json`
//! and enforces the bars).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs_memkv::client::KvClient;
use memfs_memkv::net::PoolConfig;
use memfs_memkv::testutil::{seed_from_env, Rng, Shape, ShapedCluster};
use memfs_memkv::{EvictionPolicy, Store, StoreConfig};

// --- Experiment 1: contended multi-get ---------------------------------
const SHARDS: usize = 16;
const HOT_SHARDS: usize = 4;
const HOT_KEYS: usize = 256;
const WORKERS: usize = 8;
/// Keys per `get_many` batch — small enough that lock acquisition is a
/// real fraction of each batch, as it is for real mget traffic.
const BATCH: usize = 64;
const CONTEND_SECS: f64 = 1.5;

// --- Experiment 2: over-budget shaped soak -----------------------------
const BUDGET: u64 = 256 << 20;
const PRESSURE_VALUE: usize = 256 * 1024;
const FG_KEYS: usize = 64;
const FG_VALUE: usize = 32 * 1024;
const PIPE_BPS: u64 = 8 << 20;
const BASELINE_SECS: f64 = 3.0;
const SOAK_SECS: f64 = 4.0;

/// A `/proc/self/status` field in KiB (`VmRSS`, `VmHWM`).
fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Keys that all land on the first `HOT_SHARDS` shards — a deliberately
/// skewed hot set, so every batch overlaps every other on its shards.
fn hot_keys(probe: &Store) -> Vec<Vec<u8>> {
    let mut keys = Vec::with_capacity(HOT_KEYS);
    let mut i = 0u64;
    while keys.len() < HOT_KEYS {
        let k = format!("hot{i:012x}").into_bytes();
        if probe.shard_of(&k) < HOT_SHARDS {
            keys.push(k);
        }
        i += 1;
    }
    keys
}

/// Median of three contention trials, so one noisy scheduler window
/// doesn't decide the number.
fn run_contention() -> f64 {
    let mut trials = [contention_trial(), contention_trial(), contention_trial()];
    trials.sort_by(|a, b| a.partial_cmp(b).unwrap());
    trials[1]
}

/// Aggregate keys/second fetched by `WORKERS` threads looping `get_many`
/// over the hot set for `CONTEND_SECS`.
fn contention_trial() -> f64 {
    let store = Arc::new(Store::new(StoreConfig {
        memory_budget: 64 << 20,
        max_value_size: 64 * 1024,
        eviction: EvictionPolicy::Error,
        shards: SHARDS,
        ..StoreConfig::default()
    }));
    let keys = Arc::new(hot_keys(&store));
    for k in keys.iter() {
        store.set(k, Bytes::from(vec![0x5Au8; 1024])).unwrap();
    }
    let barrier = Arc::new(Barrier::new(WORKERS + 1));
    let workers: Vec<std::thread::JoinHandle<u64>> = (0..WORKERS)
        .map(|_| {
            let store = Arc::clone(&store);
            let keys = Arc::clone(&keys);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let stop_at = Instant::now() + Duration::from_secs_f64(CONTEND_SECS);
                let mut fetched = 0u64;
                'outer: loop {
                    for batch in keys.chunks(BATCH) {
                        if Instant::now() >= stop_at {
                            break 'outer;
                        }
                        let out = store.get_many(batch);
                        debug_assert!(out.iter().all(|r| r.is_ok()));
                        fetched += out.len() as u64;
                    }
                }
                fetched
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    let total: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    total as f64 / started.elapsed().as_secs_f64()
}

/// Drive sequential foreground GETs for `secs`; returns (p99 microseconds,
/// ops, hits).
fn foreground_phase(
    client: &Arc<dyn KvClient>,
    keys: &[Bytes],
    secs: f64,
    rng: &mut Rng,
) -> (f64, u64, u64) {
    let mut lat_us: Vec<f64> = Vec::with_capacity(4096);
    let mut hits = 0u64;
    let stop_at = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < stop_at {
        let key = &keys[rng.gen_range(0, keys.len() as u64) as usize];
        let t0 = Instant::now();
        let res = client.get(key);
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if let Ok(v) = res {
            assert_eq!(v.len(), FG_VALUE);
            hits += 1;
        }
    }
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = lat_us[((lat_us.len() as f64 * 0.99) as usize).min(lat_us.len() - 1)];
    (p99, lat_us.len() as u64, hits)
}

struct SoakResult {
    baseline_p99_us: f64,
    baseline_ops: u64,
    soak_p99_us: f64,
    soak_ops: u64,
    soak_hits: u64,
    rss_kib: u64,
    evictions: u64,
    expired: u64,
    sweeps: u64,
}

fn run_soak(seed: u64) -> SoakResult {
    let store = Arc::new(Store::new(StoreConfig {
        memory_budget: BUDGET,
        max_value_size: 1 << 20,
        eviction: EvictionPolicy::Lru,
        shards: SHARDS,
        ..StoreConfig::default()
    }));
    let cluster = {
        let store = Arc::clone(&store);
        ShapedCluster::spawn_with(
            1,
            |_| Shape::throttled(PIPE_BPS),
            move |_| Arc::clone(&store),
        )
    };
    let client = cluster.clients(PoolConfig::default()).remove(0);
    let mut rng = Rng::new(seed ^ 0x50AC);

    // Foreground working set, written once over the wire.
    let fg_keys: Vec<Bytes> = (0..FG_KEYS)
        .map(|i| Bytes::from(format!("fg:{i:04}")))
        .collect();
    for k in &fg_keys {
        client
            .set(k, Bytes::from(vec![0xC3u8; FG_VALUE]))
            .expect("foreground set");
    }

    // Phase A: un-evicting baseline — the store holds only the
    // foreground set, far below the watermark.
    let (baseline_p99_us, baseline_ops, baseline_hits) =
        foreground_phase(&client, &fg_keys, BASELINE_SECS, &mut rng);
    assert_eq!(baseline_ops, baseline_hits, "baseline phase must not miss");
    eprintln!(
        "  baseline: p99 {baseline_p99_us:8.0} us over {baseline_ops} gets, rss {} KiB",
        status_kib("VmRSS")
    );

    // Prefill past the high watermark (in-process — the shaped pipe
    // could never fill a 256 MiB budget in bench time), then keep the
    // pressure on from a paced writer thread: ~50 MiB/s of fresh keys,
    // one in four carrying a 20-150 ms TTL. The server's background
    // sweeper is what must hold the line from here on.
    let target = (BUDGET as f64 * 0.92) as u64;
    let mut j = 0u64;
    while store.bytes_used() < target {
        store
            .set(
                format!("p:{j:08}").as_bytes(),
                Bytes::from(vec![0x7Eu8; PRESSURE_VALUE]),
            )
            .expect("prefill");
        j += 1;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let pressure = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let mut rng = Rng::new(seed ^ 0xF111);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let key = format!("p:{j:08}");
                j += 1;
                let value = Bytes::from(vec![0x7Eu8; PRESSURE_VALUE]);
                if rng.gen_range(0, 4) == 0 {
                    let ttl = rng.gen_range(20, 150);
                    store.set_ttl(key.as_bytes(), value, ttl).expect("pressure");
                } else {
                    store.set(key.as_bytes(), value).expect("pressure");
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    // Phase B: same foreground traffic while the store churns over
    // budget. Hot keys survive eviction via their read stamps (second
    // chance); misses are legal but latency is measured either way.
    let (soak_p99_us, soak_ops, soak_hits) =
        foreground_phase(&client, &fg_keys, SOAK_SECS, &mut rng);
    let rss_kib = status_kib("VmRSS");
    stop.store(true, Ordering::Relaxed);
    pressure.join().expect("pressure thread");
    let snap = store.stats().snapshot();
    eprintln!(
        "  soak:     p99 {soak_p99_us:8.0} us over {soak_ops} gets ({soak_hits} hits), \
         rss {rss_kib} KiB, evictions {}, expired {}, sweeps {}",
        snap.evictions, snap.expired, snap.sweeps
    );

    SoakResult {
        baseline_p99_us,
        baseline_ops,
        soak_p99_us,
        soak_ops,
        soak_hits,
        rss_kib,
        evictions: snap.evictions,
        expired: snap.expired,
        sweeps: snap.sweeps,
    }
}

fn main() {
    let seed = seed_from_env();
    eprintln!("store_record seed: {seed} (set MEMFS_SHAPE_SEED to reproduce)");

    eprintln!(
        "contended get_many: {WORKERS} workers, {HOT_KEYS} keys on {HOT_SHARDS}/{SHARDS} shards"
    );
    let shared_kps = run_contention();
    eprintln!("  read-locked engine: {:9.0} keys/s", shared_kps);

    eprintln!(
        "over-budget soak: {} MiB budget behind a {} MiB/s pipe",
        BUDGET >> 20,
        PIPE_BPS >> 20
    );
    let soak = run_soak(seed);

    let p99_ratio = soak.baseline_p99_us / soak.soak_p99_us;
    let rss_limit_kib = (BUDGET >> 10) as f64 * 1.2;
    let p99_pass = p99_ratio >= 0.70;
    let rss_pass = (soak.rss_kib as f64) <= rss_limit_kib;
    let reclaim_pass = soak.evictions > 0 && soak.expired > 0 && soak.sweeps > 0;
    let pass = p99_pass && rss_pass && reclaim_pass;
    let hwm = status_kib("VmHWM");
    println!(
        "{{\n  \"bench\": \"store_engine\",\n  \
         \"seed\": {seed},\n  \
         \"contended_get\": {{\"workers\": {WORKERS}, \"hot_keys\": {HOT_KEYS}, \
         \"hot_shards\": {HOT_SHARDS}, \"shards\": {SHARDS}, \
         \"shared_keys_per_s\": {shared_kps:.0}}},\n  \
         \"soak\": {{\"memory_budget_bytes\": {BUDGET}, \"pipe_bps\": {PIPE_BPS}, \
         \"pressure_value_bytes\": {PRESSURE_VALUE}, \
         \"baseline_p99_us\": {:.0}, \"baseline_ops\": {}, \
         \"soak_p99_us\": {:.0}, \"soak_ops\": {}, \"soak_hits\": {}, \
         \"rss_kib\": {}, \"vm_hwm_kib\": {hwm}, \
         \"evictions\": {}, \"expired\": {}, \"sweeps\": {}}},\n  \
         \"acceptance\": {{\"metric\": \"soak RSS <= 1.2x budget, p99 >= 70% of baseline, \
         evictions and TTL reaps nonzero\", \
         \"p99_ratio\": {p99_ratio:.3}, \"p99_pass\": {p99_pass}, \
         \"rss_pass\": {rss_pass}, \"reclaim_pass\": {reclaim_pass}, \
         \"pass\": {pass}}}\n}}",
        soak.baseline_p99_us,
        soak.baseline_ops,
        soak.soak_p99_us,
        soak.soak_ops,
        soak.soak_hits,
        soak.rss_kib,
        soak.evictions,
        soak.expired,
        soak.sweeps,
    );
    if !p99_pass {
        eprintln!("FAIL: soak p99 ratio {p99_ratio:.3} (< 0.70)");
    }
    if !rss_pass {
        eprintln!(
            "FAIL: soak rss {} KiB exceeds 1.2x budget ({rss_limit_kib:.0} KiB)",
            soak.rss_kib
        );
    }
    if !reclaim_pass {
        eprintln!(
            "FAIL: reclamation idle — evictions {}, expired {}, sweeps {}",
            soak.evictions, soak.expired, soak.sweeps
        );
    }
    if !pass {
        std::process::exit(1);
    }
}
