//! Record line-rate efficiency of the finished reactor to JSON
//! (`BENCH_pr6.json`).
//!
//! A single 16-server mount over bandwidth-capped proxies (6 MiB/s per
//! server, 96 MiB/s aggregate) is driven with balanced full-fan-out
//! batches of 64 KiB values on the mount's one reactor loop. The
//! best-of-rounds aggregate write and read throughput is expressed as a
//! fraction of the shaped cap.
//!
//! Bars:
//!
//! 1. **Line rate** — the mount moves ≥ 90% of the aggregate shaped
//!    bandwidth in both directions. The loop (in-loop connects,
//!    one-copy writes) is not the bottleneck; the shaped pipes are.
//! 2. **Thread census** — exactly one `memkv-reactor` thread.
//!
//! Usage: `cargo run --release -p memfs-bench --bin linerate_record`
//! (JSON to stdout; `scripts/bench_record.sh` writes `BENCH_pr6.json`
//! and enforces the bars).

use std::time::Instant;

use bytes::Bytes;
use memfs_core::{DistributorKind, ServerPool};
use memfs_memkv::net::PoolConfig;
use memfs_memkv::testutil::{seed_from_env, Rng, Shape, ShapedCluster};

const N_SERVERS: usize = 16;
const SERVER_BPS: u64 = 6 << 20;
const VALUE_BYTES: usize = 64 * 1024;
const VALUES_PER_SERVER: usize = 48;
const ROUNDS: usize = 3;

/// Live threads named `memkv-reactor*`, polled until stable at
/// `expected` or the deadline passes (threads name themselves on start).
fn reactor_threads(expected: usize) -> usize {
    let count = || {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|e| std::fs::read_to_string(e.unwrap().path().join("comm")).ok())
            .filter(|name| name.trim_end().starts_with("memkv-reactor"))
            .count()
    };
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let n = count();
        if n == expected || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Exactly `VALUES_PER_SERVER` keys per server so a batch saturates the
/// whole cluster at once.
fn balanced_items(pool: &ServerPool, rng: &mut Rng) -> Vec<(Bytes, Bytes)> {
    let n = pool.n_servers();
    let mut remaining: Vec<usize> = vec![VALUES_PER_SERVER; n];
    let mut left = n * VALUES_PER_SERVER;
    let mut items = Vec::with_capacity(left);
    let value = Bytes::from(vec![0xB7u8; VALUE_BYTES]);
    while left > 0 {
        let key = Bytes::from(format!("s:/f{:016x}#0", rng.next_u64()));
        let server = pool.server_for(&key).0;
        if remaining[server] > 0 {
            remaining[server] -= 1;
            left -= 1;
            items.push((key, value.clone()));
        }
    }
    items
}

/// Best-of-rounds aggregate (write_bps, read_bps, reactor thread count).
fn measure(rng: &mut Rng) -> (f64, f64, usize) {
    let mut best_write = 0f64;
    let mut best_read = 0f64;
    let mut threads = 0;
    for _ in 0..ROUNDS {
        let cluster = ShapedCluster::spawn(N_SERVERS, Shape::throttled(SERVER_BPS));
        let pool = ServerPool::new(
            cluster.clients(PoolConfig::default()),
            DistributorKind::default(),
        );
        threads = reactor_threads(1);
        let items = balanced_items(&pool, rng);
        let keys: Vec<Bytes> = items.iter().map(|(k, _)| k.clone()).collect();
        let total = (items.len() * VALUE_BYTES) as f64;

        let start = Instant::now();
        pool.set_many(&items).expect("shaped set_many");
        best_write = best_write.max(total / start.elapsed().as_secs_f64());

        let start = Instant::now();
        for r in pool.get_many(&keys) {
            assert_eq!(r.expect("shaped get_many").len(), VALUE_BYTES);
        }
        best_read = best_read.max(total / start.elapsed().as_secs_f64());
    }
    (best_write, best_read, threads)
}

fn main() {
    let seed = seed_from_env();
    eprintln!("linerate_record seed: {seed} (set MEMFS_SHAPE_SEED to reproduce)");
    let mut rng = Rng::new(seed);

    let cap = (N_SERVERS as u64 * SERVER_BPS) as f64;
    let (write, read, threads) = measure(&mut rng);
    eprintln!(
        "write {:.1} MB/s ({:.1}% of cap), read {:.1} MB/s ({:.1}%), {threads} reactor thread(s)",
        write / 1e6,
        100.0 * write / cap,
        read / 1e6,
        100.0 * read / cap,
    );

    // Efficiency is the weaker of the two directions.
    let eff = (write / cap).min(read / cap);
    let census_pass = threads == 1;
    let linerate_pass = eff >= 0.90;
    let pass = census_pass && linerate_pass;
    println!(
        "{{\n  \"bench\": \"linerate_reactor\",\n  \
         \"cluster\": {{\"servers\": {N_SERVERS}, \"transport\": \"tcp\", \
         \"server_bandwidth_bps\": {SERVER_BPS}, \"aggregate_cap_bps\": {cap:.0}}},\n  \
         \"seed\": {seed},\n  \
         \"value_bytes\": {VALUE_BYTES},\n  \
         \"one_loop\": {{\"threads\": {threads}, \"write_bps\": {write:.0}, \
         \"read_bps\": {read:.0}, \"efficiency\": {eff:.3}}},\n  \
         \"acceptance\": {{\"metric\": \"the mount moves >= 90% of the shaped cap both ways on 1 loop\", \
         \"best_efficiency\": {eff:.3}, \"census_pass\": {census_pass}, \
         \"linerate_pass\": {linerate_pass}, \"pass\": {pass}}}\n}}"
    );
    if !census_pass {
        eprintln!("FAIL: thread census {threads} (want 1)");
    }
    if !linerate_pass {
        eprintln!("FAIL: efficiency {eff:.3} < 0.90 of the shaped cap");
    }
    if !pass {
        std::process::exit(1);
    }
}
