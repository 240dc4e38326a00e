//! Scaling regressions over the shaped-cluster harness: with per-server
//! bandwidth capped (so the servers, not loopback, are the bottleneck),
//!
//! * aggregate batched throughput keeps growing past 4 servers — the
//!   blocking transport plateaued here because a fan-out occupied one
//!   engine worker per server; the evented transport keeps every server's
//!   batch in flight from a single caller thread;
//! * one mount over 16 servers moves at least 90% of their aggregate cap
//!   in both directions on its one reactor loop (line rate);
//! * 64 mounts on 4 servers move at least 90% of what 4 mounts move
//!   (fan-in: a server's connection count costs it nothing).
//!
//! Gated behind `--ignored` (each moves tens of MiB through paced proxies,
//! ~seconds of wall clock); `scripts/verify.sh --threads` runs them. The
//! tests take turns on one lock: the proxies' pacing needs the CPUs. The
//! thread censuses of these shapes are `tests/reactor_threads.rs` (one
//! loop per mount) and `tests/server_threads.rs` (one loop per server).

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs::memfs_core::{DistributorKind, ServerPool};
use memfs::memkv::net::PoolConfig;
use memfs::memkv::testutil::{seed_from_env, Rng};
use memfs_testkit::{Shape, ShapedCluster};

/// Per-server bandwidth cap: slow enough that loopback and protocol
/// overhead vanish next to pacing, fast enough to keep the test short.
const SERVER_BPS: u64 = 6 << 20;
const VALUE_BYTES: usize = 64 * 1024;
const VALUES_PER_SERVER: usize = 16;
const ROUNDS: usize = 2;

/// Held by each test for its whole run.
static SHAPED: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    SHAPED.lock().unwrap_or_else(|e| e.into_inner())
}

/// Build items routing exactly `per_server` values to each server, so
/// the aggregate measurement is symmetric by construction. Keys start
/// with `prefix`, so working sets of different mounts never collide.
fn balanced_items(
    pool: &ServerPool,
    prefix: &str,
    per_server: usize,
    rng: &mut Rng,
) -> Vec<(Bytes, Bytes)> {
    let n = pool.n_servers();
    let mut remaining: Vec<usize> = vec![per_server; n];
    let mut left = n * per_server;
    let mut items = Vec::with_capacity(left);
    let value = Bytes::from(vec![0xB7u8; VALUE_BYTES]);
    while left > 0 {
        let key = Bytes::from(format!("{prefix}:/f{:016x}#0", rng.next_u64()));
        let server = pool.server_for(&key).0;
        if remaining[server] > 0 {
            remaining[server] -= 1;
            left -= 1;
            items.push((key, value.clone()));
        }
    }
    items
}

/// Best-of-rounds aggregate (write_bps, read_bps) for `n` shaped servers.
fn throughput(n: usize, rng: &mut Rng) -> (f64, f64) {
    let mut best_write = 0f64;
    let mut best_read = 0f64;
    for _ in 0..ROUNDS {
        let cluster = ShapedCluster::spawn(n, Shape::throttled(SERVER_BPS));
        let pool = ServerPool::new(
            cluster.clients(PoolConfig::default()),
            DistributorKind::default(),
        );
        let items = balanced_items(&pool, "s", VALUES_PER_SERVER, rng);
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
    (best_write, best_read)
}

#[test]
#[ignore = "moves tens of MiB through paced proxies; run via verify.sh --threads"]
fn eight_shaped_servers_outscale_four_by_1_5x() {
    let _turn = one_at_a_time();
    let seed = seed_from_env();
    eprintln!("shaped_scaling seed: {seed} (set MEMFS_SHAPE_SEED to reproduce)");
    let mut rng = Rng::new(seed);

    let (write4, read4) = throughput(4, &mut rng);
    let (write8, read8) = throughput(8, &mut rng);
    let write_scale = write8 / write4;
    let read_scale = read8 / read4;
    eprintln!(
        "4 servers: write {:.1} MB/s, read {:.1} MB/s; \
         8 servers: write {:.1} MB/s, read {:.1} MB/s \
         (scale {write_scale:.2}x / {read_scale:.2}x)",
        write4 / 1e6,
        read4 / 1e6,
        write8 / 1e6,
        read8 / 1e6,
    );
    assert!(
        write_scale >= 1.5,
        "8-server aggregate write throughput only {write_scale:.2}x the 4-server figure"
    );
    assert!(
        read_scale >= 1.5,
        "8-server aggregate read throughput only {read_scale:.2}x the 4-server figure"
    );
}

#[test]
#[ignore = "moves tens of MiB through paced proxies; run via verify.sh --threads"]
fn one_mount_moves_90_percent_of_sixteen_capped_servers() {
    let _turn = one_at_a_time();
    let seed = seed_from_env();
    eprintln!("shaped_scaling seed: {seed} (set MEMFS_SHAPE_SEED to reproduce)");
    let mut rng = Rng::new(seed);

    let cap = (16 * SERVER_BPS) as f64;
    let (write, read) = throughput(16, &mut rng);
    eprintln!(
        "16 servers: write {:.1} MB/s ({:.2} of cap), read {:.1} MB/s ({:.2})",
        write / 1e6,
        write / cap,
        read / 1e6,
        read / cap,
    );
    assert!(
        write / cap >= 0.90,
        "write moved {:.2} of the shaped cap",
        write / cap
    );
    assert!(
        read / cap >= 0.90,
        "read moved {:.2} of the shaped cap",
        read / cap
    );
}

/// Per-server cap of the fan-in test: four servers, 96 MiB/s aggregate.
const FAN_IN_BPS: u64 = 24 << 20;
const PHASE: Duration = Duration::from_secs(3);

/// Aggregate payload throughput of `mounts` concurrent mounts, each its
/// own reactor loop with one connection per server, driving set/get
/// rounds over `cluster` for one phase.
fn fan_in(cluster: &ShapedCluster, mounts: usize, per_server: usize, seed: u64) -> f64 {
    // Connect every mount before the clock starts: connection setup is
    // deployment cost, not steady-state throughput.
    let pools: Vec<ServerPool> = (0..mounts)
        .map(|_| {
            ServerPool::new(
                cluster.clients(PoolConfig::default()),
                DistributorKind::default(),
            )
        })
        .collect();
    // Every driver warms its working set, then all cross the barrier
    // together and the phase begins.
    let barrier = Arc::new(Barrier::new(mounts + 1));
    let drivers: Vec<std::thread::JoinHandle<u64>> = pools
        .into_iter()
        .enumerate()
        .map(|(m, pool)| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let items = balanced_items(&pool, &format!("m{m}"), per_server, &mut rng);
                let keys: Vec<Bytes> = items.iter().map(|(k, _)| k.clone()).collect();
                let round_bytes = (items.len() * VALUE_BYTES) as u64;
                pool.set_many(&items).expect("warmup set_many");
                barrier.wait();
                let stop_at = Instant::now() + PHASE;
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
    let total: u64 = drivers.into_iter().map(|d| d.join().expect("driver")).sum();
    total as f64 / started.elapsed().as_secs_f64()
}

#[test]
#[ignore = "moves hundreds of MiB through paced proxies; run via verify.sh --threads"]
fn sixty_four_mounts_move_90_percent_of_what_four_move() {
    let _turn = one_at_a_time();
    let seed = seed_from_env();
    eprintln!("shaped_scaling seed: {seed} (set MEMFS_SHAPE_SEED to reproduce)");

    let cluster = ShapedCluster::spawn(4, Shape::throttled(FAN_IN_BPS));
    // 4 mounts with 16 values per server (4 MiB rounds), then 64 with 4
    // (1 MiB rounds, 64 MiB in flight at most).
    let few = fan_in(&cluster, 4, 16, seed);
    let many = fan_in(&cluster, 64, 4, seed.wrapping_add(1));
    let ratio = many / few;
    eprintln!(
        "4 mounts: {:.1} MB/s, 64 mounts: {:.1} MB/s (ratio {ratio:.3})",
        few / 1e6,
        many / 1e6,
    );
    assert!(
        ratio >= 0.90,
        "64 mounts moved only {ratio:.3} of the 4-mount aggregate"
    );
}
