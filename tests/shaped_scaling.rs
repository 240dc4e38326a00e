//! Scaling regression over the shaped-cluster harness: with per-server
//! bandwidth capped (so the servers, not loopback, are the bottleneck),
//! aggregate batched throughput must keep growing past 4 servers. The
//! blocking transport plateaued here because a fan-out occupied one
//! engine worker per server; the evented transport keeps every server's
//! batch in flight from a single caller thread.
//!
//! Gated behind `--ignored` (it moves tens of MiB through paced proxies,
//! ~seconds of wall clock); `scripts/verify.sh --threads` runs it.

use std::time::Instant;

use bytes::Bytes;
use memfs::memfs_core::{DistributorKind, ServerPool};
use memfs::memkv::net::PoolConfig;
use memfs::memkv::testutil::{seed_from_env, Rng, Shape, ShapedCluster};

/// Per-server bandwidth cap: slow enough that loopback and protocol
/// overhead vanish next to pacing, fast enough to keep the test short.
const SERVER_BPS: u64 = 6 << 20;
const VALUE_BYTES: usize = 64 * 1024;
const VALUES_PER_SERVER: usize = 16;
const ROUNDS: usize = 2;

/// Build items routing exactly `VALUES_PER_SERVER` values to each server,
/// so the aggregate measurement is symmetric by construction.
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
    (best_write, best_read)
}

#[test]
#[ignore = "moves tens of MiB through paced proxies; run via verify.sh --threads"]
fn eight_shaped_servers_outscale_four_by_1_5x() {
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
