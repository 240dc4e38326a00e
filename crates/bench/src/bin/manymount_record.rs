//! Record many-mount scalability of the evented server engine to JSON
//! (`BENCH_pr7.json`).
//!
//! Four shaped storage servers (24 MiB/s each, 96 MiB/s aggregate) are
//! mounted first by 4 concurrent mounts, then by 64 — each mount being
//! its own reactor loop with one connection per server, the per-client
//! deployment shape. Every mount drives balanced set/get rounds of
//! 64 KiB values until a shared deadline; the phase's aggregate
//! throughput is total payload moved over the wall-clock window.
//!
//! Bars:
//!
//! 1. **Fan-in scalability** — 64 mounts (256 server connections) move
//!    ≥ 90% of the 4-mount aggregate. Connection count costs the evented
//!    engine nothing; the shaped pipes stay the bottleneck.
//! 2. **Thread census** — during the 64-mount phase the 4 servers run
//!    exactly 4 `memkv-srv-*` threads, all of them `memkv-srv-loop`, and zero
//!    `memkv-conn` threads (a thread-per-connection engine would sit at
//!    256).
//!
//! RSS (`VmRSS`/`VmHWM` from `/proc/self/status`) is recorded per phase
//! so a memory blow-up under fan-in shows in the artifact.
//!
//! Usage: `cargo run --release -p memfs-bench --bin manymount_record`
//! (JSON to stdout; `scripts/bench_record.sh` writes `BENCH_pr7.json`
//! and enforces the bars).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs_core::{DistributorKind, ServerPool};
use memfs_memkv::net::PoolConfig;
use memfs_memkv::testutil::{seed_from_env, Rng, Shape, ShapedCluster};

const N_SERVERS: usize = 4;
const SERVER_BPS: u64 = 24 << 20;
const VALUE_BYTES: usize = 64 * 1024;
const PHASE_SECS: f64 = 3.0;

/// Live threads of this process whose name starts with `prefix`.
fn named_threads(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|e| std::fs::read_to_string(e.unwrap().path().join("comm")).ok())
        .filter(|name| name.trim_end().starts_with(prefix))
        .count()
}

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

/// `per_server * n_servers` keys, exactly `per_server` placed on each
/// server, namespaced by mount so working sets never collide.
fn balanced_items(
    pool: &ServerPool,
    mount: usize,
    per_server: usize,
    rng: &mut Rng,
) -> Vec<(Bytes, Bytes)> {
    let n = pool.n_servers();
    let mut remaining: Vec<usize> = vec![per_server; n];
    let mut left = n * per_server;
    let mut items = Vec::with_capacity(left);
    let value = Bytes::from(vec![0xA5u8; VALUE_BYTES]);
    while left > 0 {
        let key = Bytes::from(format!("m{mount}:/f{:016x}#0", rng.next_u64()));
        let server = pool.server_for(&key).0;
        if remaining[server] > 0 {
            remaining[server] -= 1;
            left -= 1;
            items.push((key, value.clone()));
        }
    }
    items
}

struct PhaseResult {
    aggregate_bps: f64,
    loops: usize,
    srv_threads: usize,
    conn_threads: usize,
    rss_kib: u64,
}

/// Drive `mounts` concurrent mounts against `cluster` until the deadline;
/// returns aggregate payload throughput plus the mid-phase thread census
/// and end-of-phase RSS.
fn run_phase(cluster: &ShapedCluster, mounts: usize, per_server: usize, seed: u64) -> PhaseResult {
    // Mount (connect) everything before the clock starts: connection
    // setup is deployment cost, not steady-state throughput.
    let pools: Vec<ServerPool> = (0..mounts)
        .map(|_| {
            ServerPool::new(
                cluster.clients(PoolConfig::default()),
                DistributorKind::default(),
            )
        })
        .collect();
    // Every driver warms its working set, then all cross the barrier
    // together and the measured window begins.
    let barrier = Arc::new(std::sync::Barrier::new(mounts + 1));
    let drivers: Vec<std::thread::JoinHandle<u64>> = pools
        .into_iter()
        .enumerate()
        .map(|(m, pool)| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let items = balanced_items(&pool, m, per_server, &mut rng);
                let keys: Vec<Bytes> = items.iter().map(|(k, _)| k.clone()).collect();
                let round_bytes = (items.len() * VALUE_BYTES) as u64;
                pool.set_many(&items).expect("warmup set_many");
                barrier.wait();
                let stop_at = Instant::now() + Duration::from_secs_f64(PHASE_SECS);
                let mut moved = 0u64;
                while Instant::now() < stop_at {
                    pool.set_many(&items).expect("shaped set_many");
                    moved += round_bytes;
                    if Instant::now() >= stop_at {
                        break;
                    }
                    for r in pool.get_many(&keys) {
                        assert_eq!(r.expect("shaped get_many").len(), VALUE_BYTES);
                    }
                    moved += round_bytes;
                }
                moved
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    // Census mid-phase, with every mount connected and traffic flowing.
    std::thread::sleep(Duration::from_secs_f64(PHASE_SECS / 2.0));
    let loops = named_threads("memkv-srv-loop");
    let srv_threads = named_threads("memkv-srv");
    let conn_threads = named_threads("memkv-conn");
    let total: u64 = drivers.into_iter().map(|d| d.join().expect("driver")).sum();
    let aggregate_bps = total as f64 / started.elapsed().as_secs_f64();
    PhaseResult {
        aggregate_bps,
        loops,
        srv_threads,
        conn_threads,
        rss_kib: status_kib("VmRSS"),
    }
}

fn main() {
    let seed = seed_from_env();
    eprintln!("manymount_record seed: {seed} (set MEMFS_SHAPE_SEED to reproduce)");

    let cluster = ShapedCluster::spawn(N_SERVERS, Shape::throttled(SERVER_BPS));
    let cap = (N_SERVERS as u64 * SERVER_BPS) as f64;

    // Phase A: 4 mounts, 32 values per server per round (4 MiB rounds).
    let few = run_phase(&cluster, 4, 16, seed);
    eprintln!(
        "  4 mounts: {:6.1} MB/s aggregate ({:.1}% of cap), rss {} KiB",
        few.aggregate_bps / 1e6,
        100.0 * few.aggregate_bps / cap,
        few.rss_kib,
    );
    // Phase B: 64 mounts, 4 values per server per round (1 MiB rounds,
    // 64 MiB aggregate in flight at most).
    let many = run_phase(&cluster, 64, 4, seed.wrapping_add(1));
    eprintln!(
        " 64 mounts: {:6.1} MB/s aggregate ({:.1}% of cap), rss {} KiB",
        many.aggregate_bps / 1e6,
        100.0 * many.aggregate_bps / cap,
        many.rss_kib,
    );

    let ratio = many.aggregate_bps / few.aggregate_bps;
    let census_pass =
        many.loops == N_SERVERS && many.srv_threads == N_SERVERS && many.conn_threads == 0;
    let ratio_pass = ratio >= 0.90;
    let pass = census_pass && ratio_pass;
    let hwm = status_kib("VmHWM");
    println!(
        "{{\n  \"bench\": \"manymount_server\",\n  \
         \"cluster\": {{\"servers\": {N_SERVERS}, \"transport\": \"tcp\", \
         \"server_bandwidth_bps\": {SERVER_BPS}, \"aggregate_cap_bps\": {cap:.0}}},\n  \
         \"seed\": {seed},\n  \
         \"value_bytes\": {VALUE_BYTES},\n  \
         \"four_mounts\": {{\"mounts\": 4, \"aggregate_bps\": {:.0}, \
         \"rss_kib\": {}}},\n  \
         \"sixty_four_mounts\": {{\"mounts\": 64, \"aggregate_bps\": {:.0}, \
         \"rss_kib\": {}, \"srv_loops\": {}, \"srv_threads\": {}, \
         \"conn_threads\": {}}},\n  \
         \"vm_hwm_kib\": {hwm},\n  \
         \"acceptance\": {{\"metric\": \"64 mounts >= 90% of 4-mount aggregate; census 4 server threads, all loops, 0 conn threads\", \
         \"ratio\": {ratio:.3}, \"census_pass\": {census_pass}, \
         \"ratio_pass\": {ratio_pass}, \"pass\": {pass}}}\n}}",
        few.aggregate_bps,
        few.rss_kib,
        many.aggregate_bps,
        many.rss_kib,
        many.loops,
        many.srv_threads,
        many.conn_threads,
    );
    if !census_pass {
        eprintln!(
            "FAIL: census loops={} srv={} conn={} (want {N_SERVERS}/{N_SERVERS}/0)",
            many.loops, many.srv_threads, many.conn_threads,
        );
    }
    if !ratio_pass {
        eprintln!("FAIL: 64-mount aggregate is {ratio:.3} of the 4-mount aggregate (< 0.90)");
    }
    if !pass {
        std::process::exit(1);
    }
}
