//! Self-healing replication and elastic membership over the real TCP
//! transport: heartbeat failure detection (reactor link census),
//! degraded-write accounting under a mid-write kill, the full kill →
//! re-replicate → second kill → zero-loss cycle of ROADMAP item 3, and
//! the grow-mid-workload chaos cycle (admit four servers, kill one
//! *during* migration, lose nothing) — all on the shaped-cluster
//! harness.
//!
//! Every test here replays deterministically under `MEMFS_SHAPE_SEED`;
//! `scripts/verify.sh --soak` loops the suite over randomized seeds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use memfs::hashring::ServerId;
use memfs::memfs_core::{DistributorKind, MemFs, MemFsConfig, ServerPool};
use memfs::memkv::net::PoolConfig;
use memfs::memkv::testutil::{seed_from_env, Rng, Shape, ShapedCluster};
use memfs::memkv::{KvClient, ReactorHandle, ServerHealth};

fn heartbeat_pool_config() -> PoolConfig {
    PoolConfig {
        connections: 2,
        timeout: Duration::from_millis(500),
        heartbeat: Some(Duration::from_millis(25)),
        ..PoolConfig::default()
    }
}

/// Poll `pool.health()` until `server` reports the wanted liveness.
fn await_health(pool: &ServerPool, server: usize, want_alive: bool, deadline: Duration) {
    let start = Instant::now();
    loop {
        let alive = pool.health()[server].is_alive();
        if alive == want_alive {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "server {server} never became {} (census: {:?})",
            if want_alive { "alive" } else { "down" },
            pool.health()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn heartbeat_census_sees_a_killed_server_without_foreground_traffic() {
    let cluster = ShapedCluster::spawn(3, Shape::clean());
    let pool = ServerPool::new(
        cluster.clients(heartbeat_pool_config()),
        DistributorKind::default(),
    );
    // A fresh mount reports everything up.
    assert!(pool.health().iter().all(|h| *h == ServerHealth::Up));

    // Kill one server and touch nothing: only the heartbeat probes can
    // notice (an idle pool sends no foreground traffic).
    cluster.proxy(1).kill();
    await_health(&pool, 1, false, Duration::from_secs(5));

    // Revive: the heartbeat re-dials and the census recovers.
    cluster.proxy(1).revive();
    await_health(&pool, 1, true, Duration::from_secs(5));
}

#[test]
fn heartbeat_probe_flags_a_wedged_server() {
    // A stalled server keeps its connections open but never answers —
    // the silent-wedge shape only a probe deadline can detect.
    let cluster = ShapedCluster::spawn(2, Shape::clean());
    let pool = ServerPool::new(
        cluster.clients(heartbeat_pool_config()),
        DistributorKind::default(),
    );
    cluster.proxy(0).stall();
    await_health(&pool, 0, false, Duration::from_secs(5));
    cluster.proxy(0).unstall();
    await_health(&pool, 0, true, Duration::from_secs(5));
}

#[test]
fn a_connect_mount_probes_at_the_repair_interval_and_sees_a_quiet_server_die() {
    let cluster = ShapedCluster::spawn(3, Shape::clean());
    let addrs: Vec<_> = (0..3).map(|i| cluster.proxy(i).addr()).collect();
    let heartbeats = |fs: &MemFs| {
        let stats = fs.pool().client(ServerId(0)).reactor_stats();
        stats.expect("a TCP mount").heartbeats
    };
    // The mount derives its probes from the one knob that needs them:
    // no repair daemon, no probes; a repair daemon, probes at its pace.
    let plain = MemFs::connect(&addrs, MemFsConfig::default()).unwrap();
    let config = MemFsConfig {
        repair_interval_ms: 25,
        ..MemFsConfig::default()
    };
    let fs = MemFs::connect(&addrs, config).unwrap();
    assert!(fs.repair_daemon_running() && !plain.repair_daemon_running());

    let start = Instant::now();
    while heartbeats(&fs) == 0 {
        assert!(start.elapsed() < Duration::from_secs(5), "no probe sent");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(heartbeats(&plain), 0);

    // Kill one server and touch nothing. The daemon scans only members
    // the census calls alive, so once the server is down nothing but a
    // probe's re-dial can find it back.
    cluster.proxy(1).kill();
    await_health(fs.pool(), 1, false, Duration::from_secs(5));
    cluster.proxy(1).revive();
    await_health(fs.pool(), 1, true, Duration::from_secs(5));
}

fn repair_fs_config() -> MemFsConfig {
    MemFsConfig {
        stripe_size: 8192,
        write_buffer_size: 8 * 8192,
        read_cache_size: 8 * 8192,
        io_threads: 2,
        prefetch_window: 2,
        replication: 2,
        repair_interval_ms: 50,
        ..MemFsConfig::default()
    }
}

/// Keep calling `fs.repair_now()` until a pass finds nothing left to
/// move (every key already on its full home set), or panic at deadline.
fn await_converged(fs: &MemFs, deadline: Duration) {
    let start = Instant::now();
    loop {
        let report = fs.repair_now().expect("repair pass");
        if report.under_replicated == 0 && report.unrepairable == 0 {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "repair never converged: {report:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn kill_one_of_eight_mid_workload_heals_within_a_window_and_survives_a_second_kill() {
    let seed = seed_from_env();
    eprintln!("repair soak seed: {seed} (set MEMFS_SHAPE_SEED to reproduce)");
    let mut rng = Rng::new(seed);

    let cluster = ShapedCluster::spawn(8, Shape::clean());
    let fs = MemFs::new(cluster.clients(heartbeat_pool_config()), repair_fs_config()).unwrap();
    assert!(fs.repair_daemon_running());
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    let payload = |rng: &mut Rng| -> Vec<u8> {
        let n = rng.gen_range(20_000, 60_000) as usize;
        let salt = rng.next_u64() as u8;
        (0..n).map(|i| (i as u8).wrapping_add(salt)).collect()
    };

    fs.mkdir_all("/pre").unwrap();
    fs.mkdir_all("/mid").unwrap();

    // Settled files, fully replicated before any failure.
    for i in 0..10 {
        let path = format!("/pre/f{i}");
        let data = payload(&mut rng);
        fs.write_file(&path, &data).unwrap();
        files.push((path, data));
    }

    // Mid-workload kill: streams are open and half-written when the
    // victim dies. Everything already created must finish cleanly —
    // stripe drains and size finalization tolerate a dead replica
    // (degraded writes); only *new* create arbitration is strict.
    let mut streams = Vec::new();
    for i in 0..6 {
        let path = format!("/mid/f{i}");
        let data = payload(&mut rng);
        let mut w = fs.create(&path).unwrap();
        w.write_all(&data[..data.len() / 2]).unwrap();
        streams.push((path, data, w));
    }
    let victim = rng.gen_range(0, 8) as usize;
    eprintln!("killing server {victim} mid-workload");
    cluster.proxy(victim).kill();

    // Zero failed foreground ops from here on: finish the streams...
    for (path, data, mut w) in streams {
        w.write_all(&data[data.len() / 2..]).unwrap();
        w.close().unwrap();
        files.push((path, data));
    }
    // ...and read everything back during the outage.
    for (path, data) in &files {
        assert_eq!(&fs.read_to_vec(path).unwrap(), data, "{path} during outage");
    }
    // The mid-write kill left an audit trail: replicas that missed
    // writes while the key still landed are accounted per server.
    let degraded: u64 = fs
        .pool()
        .stats()
        .snapshot()
        .iter()
        .map(|s| s.degraded_writes)
        .sum();
    assert!(
        degraded > 0,
        "a kill mid-write over r=2 must record degraded writes"
    );

    // Bounded repair window: every stripe back at full strength on the
    // surviving servers (the background daemon is also racing us; both
    // passes are idempotent).
    await_converged(&fs, Duration::from_secs(30));

    // A second, different failure now loses nothing.
    let second = (victim + 1 + rng.gen_range(0, 7) as usize) % 8;
    eprintln!("killing server {second} after repair");
    cluster.proxy(second).kill();
    for (path, data) in &files {
        assert_eq!(
            &fs.read_to_vec(path).unwrap(),
            data,
            "{path} after second kill"
        );
        assert_eq!(fs.stat(path).unwrap().size, data.len() as u64);
    }
}

#[test]
fn grow_to_eight_mid_workload_survives_a_kill_during_migration() {
    let seed = seed_from_env();
    eprintln!("elastic chaos seed: {seed} (set MEMFS_SHAPE_SEED to reproduce)");
    let mut rng = Rng::new(seed);

    // Eight shaped servers on one caller-owned reactor: mount the
    // first four, keep the other four as the admission pool. Migration
    // is driven by hand (`repair_interval_ms: 0`) so the kill lands at
    // a deterministic point in the range schedule.
    let cluster = ShapedCluster::spawn(8, Shape::clean());
    let reactor = ReactorHandle::new().expect("reactor");
    let clients: Vec<Arc<dyn KvClient>> = cluster.clients_on(heartbeat_pool_config(), &reactor);
    let fs = MemFs::new(
        clients[..4].to_vec(),
        MemFsConfig {
            distributor: DistributorKind::Ketama {
                points_per_server: 64,
            },
            repair_interval_ms: 0,
            ..repair_fs_config()
        },
    )
    .unwrap();

    let payload = |rng: &mut Rng| -> Vec<u8> {
        let n = rng.gen_range(20_000, 60_000) as usize;
        let salt = rng.next_u64() as u8;
        (0..n).map(|i| (i as u8).wrapping_add(salt)).collect()
    };
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    fs.mkdir_all("/pre").unwrap();
    fs.mkdir_all("/mid").unwrap();

    // Settled files, fully replicated on the 4-server ring.
    for i in 0..10 {
        let path = format!("/pre/f{i}");
        let data = payload(&mut rng);
        fs.write_file(&path, &data).unwrap();
        files.push((path, data));
    }

    // Streams open and half-written when the cluster grows.
    let mut streams = Vec::new();
    for i in 0..6 {
        let path = format!("/mid/f{i}");
        let data = payload(&mut rng);
        let mut w = fs.create(&path).unwrap();
        w.write_all(&data[..data.len() / 2]).unwrap();
        streams.push((path, data, w));
    }

    // Grow 4 → 8 under the open streams and take one migration step —
    // a pass covers at most 16 of the 64 ranges, so the ring is now
    // genuinely mid-flip: some ranges New, the rest Old or Migrating.
    let added = fs
        .add_servers(clients[4..].to_vec())
        .expect("admit four servers");
    assert_eq!(added.len(), 4);
    assert!(fs.migration_active());
    let first = fs.migrate_now().expect("first migration pass");
    assert!(!first.complete, "one pass cannot drain all 64 ranges");

    // Chaos: kill one of the eight *during* the migration.
    let victim = rng.gen_range(0, 8) as usize;
    eprintln!("killing server {victim} during migration");
    cluster.proxy(victim).kill();

    // Zero failed foreground ops from here on: finish every stream
    // (stripe drains and size finalization tolerate a dead replica)...
    for (path, data, mut w) in streams {
        w.write_all(&data[data.len() / 2..]).unwrap();
        w.close().unwrap();
        files.push((path, data));
    }
    // ...and read everything back while the victim is down and the ring
    // is mid-flip (dual-routed ranges still serve from the old homes).
    for (path, data) in &files {
        assert_eq!(&fs.read_to_vec(path).unwrap(), data, "{path} during kill");
    }

    // Migration passes keep running but must wedge, not flip: a range
    // only goes New once every member scan and every copy succeeded.
    let wedged = fs.migrate_now().expect("wedged migration pass");
    assert!(
        !wedged.complete,
        "migration must not complete around a dead server"
    );

    // Revive the victim; the census recovers and the migration drains.
    cluster.proxy(victim).revive();
    await_health(fs.pool(), victim, true, Duration::from_secs(5));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let rep = fs.migrate_now().expect("migration pass");
        if rep.complete {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "migration never drained: {rep:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!fs.migration_active());
    assert_eq!(fs.pool().members().len(), 8);

    // Repair heals the kill window's degraded writes; afterwards every
    // acked write — pre-grow, mid-grow, mid-kill — is still there.
    await_converged(&fs, Duration::from_secs(30));
    for (path, data) in &files {
        assert_eq!(
            &fs.read_to_vec(path).unwrap(),
            data,
            "{path} after migration"
        );
        assert_eq!(fs.stat(path).unwrap().size, data.len() as u64);
    }

    // The grown mount keeps taking traffic on all eight servers.
    fs.mkdir_all("/post").unwrap();
    let data = payload(&mut rng);
    fs.write_file("/post/f0", &data).unwrap();
    assert_eq!(fs.read_to_vec("/post/f0").unwrap(), data);
}
