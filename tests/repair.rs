//! Self-healing replication and elastic membership over the real TCP
//! transport: failure detection by the repair pass's own scan (a stalled,
//! a closed and a revived member), degraded-write accounting under a
//! mid-write kill, the full kill → re-replicate → second kill → zero-loss
//! cycle of ROADMAP item 3, and the grow-mid-workload chaos cycle (admit
//! four servers, kill one *during* migration, lose nothing) — all on the
//! shaped-cluster harness.
//!
//! Every test here replays deterministically under `MEMFS_SHAPE_SEED`;
//! `scripts/verify.sh --soak` loops the suite over randomized seeds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs::hashring::ServerId;
use memfs::memfs_core::{repair_pass, DistributorKind, MemFs, MemFsConfig, ServerPool};
use memfs::memkv::net::{KvServer, PoolConfig};
use memfs::memkv::testutil::{seed_from_env, Rng};
use memfs::memkv::{KvClient, ReactorHandle, Store};
use memfs_testkit::{Shape, ShapedCluster};

fn pool_config() -> PoolConfig {
    PoolConfig {
        timeout: Duration::from_millis(500),
    }
}

#[test]
fn a_pass_reports_a_stalled_member_down_within_its_timeout_and_up_once_it_answers() {
    // A stalled server keeps its connection open but never answers — the
    // silent wedge only a request deadline can find.
    const TIMEOUT: Duration = Duration::from_millis(250);
    let cluster = ShapedCluster::spawn(2, Shape::clean());
    let pool = ServerPool::new(
        cluster.clients(PoolConfig { timeout: TIMEOUT }),
        DistributorKind::default(),
    );
    let pass = || {
        let start = Instant::now();
        let report = repair_pass(&pool).unwrap();
        (report, start.elapsed())
    };
    cluster.proxy(0).stall();
    let (report, took) = pass();
    assert_eq!(report.servers_down, 1, "{report:?}");
    assert!(took < TIMEOUT + Duration::from_millis(250), "{took:?}");

    // The timeout severed the link; the next pass re-dials it.
    cluster.proxy(0).unstall();
    let (report, _) = pass();
    assert_eq!(report.servers_down, 0, "{report:?}");
}

#[test]
fn passes_over_a_member_whose_listener_closed_cost_no_backoff_wait() {
    let mut servers: Vec<KvServer> = (0..3)
        .map(|_| KvServer::spawn(Arc::new(Store::with_defaults()), "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let fs = MemFs::connect(&addrs, MemFsConfig::default()).unwrap();
    fs.write_file("/f", &[7u8; 4096]).unwrap();
    servers[1].shutdown();

    // Every dial is refused, and the reconnect backoff doubles towards
    // 500 ms; a scan inside it fails at once instead of waiting it out.
    let start = Instant::now();
    for _ in 0..8 {
        let report = fs.repair_now().unwrap();
        assert_eq!(report.servers_down, 1, "{report:?}");
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "eight passes took {took:?}"
    );
}

#[test]
fn a_connect_mount_daemon_redials_a_member_that_returned_while_quiet() {
    let cluster = ShapedCluster::spawn(3, Shape::clean());
    let addrs: Vec<_> = (0..3).map(|i| cluster.proxy(i).addr()).collect();
    let links_up = |fs: &MemFs| fs.pool().reactor_stats()[0].links_up;
    let await_links = |fs: &MemFs, want: usize| {
        let start = Instant::now();
        while links_up(fs) != want {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "links never settled at {want}: {:?}",
                fs.pool().reactor_stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let plain = MemFs::connect(&addrs, MemFsConfig::default()).unwrap();
    let config = MemFsConfig {
        repair_interval_ms: 25,
        ..MemFsConfig::default()
    };
    let fs = MemFs::connect(&addrs, config).unwrap();
    assert!(fs.repair_daemon_running() && !plain.repair_daemon_running());

    // Kill one server and touch nothing: the daemon's scans find its link
    // closed.
    cluster.proxy(1).kill();
    await_links(&fs, 2);

    // Revive it. Only the daemon's scans send anything, so only the
    // daemon's mount dials it back (and keeps it: a dial while the server
    // was dead connected and closed at once). The plain mount, quiet all
    // along, has not yet seen its link close: its next request sees the
    // hang-up before it writes, and dials — so even an `add`, which is
    // never replayed after a write into a dead socket, succeeds.
    cluster.proxy(1).revive();
    await_links(&fs, 3);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(links_up(&fs), 3);
    let value = Bytes::from_static(b"v");
    let plain_server = plain.pool().client(ServerId(1));
    plain_server.add(b"added-after-the-revive", value).unwrap();
    assert_eq!(links_up(&plain), 3);
}

fn repair_fs_config() -> MemFsConfig {
    MemFsConfig {
        stripe_size: 8192,
        write_buffer_size: 8 * 8192,
        read_cache_size: 8 * 8192,
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
    let fs = MemFs::new(cluster.clients(pool_config()), repair_fs_config()).unwrap();
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
    // Let the daemon run passes while the streams are still open: they
    // park failover copies of the open size records, which the degraded
    // `set` at `close` must leave stale — or the second kill below reads
    // a `NotFinalized` record off a failover copy.
    std::thread::sleep(Duration::from_millis(300));

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
    // is driven by hand (`repair_interval_ms: 0`) so the kill lands
    // inside the transition, before its first pass.
    let cluster = ShapedCluster::spawn(8, Shape::clean());
    let reactor = ReactorHandle::new().expect("reactor");
    let clients: Vec<Arc<dyn KvClient>> = cluster.clients_on(pool_config(), &reactor);
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

    // Grow 4 → 8 under the open streams: every write now dual-routes to
    // the current and the target homes until a pass commits the grow.
    let added = fs
        .add_servers(clients[4..].to_vec())
        .expect("admit four servers");
    assert_eq!(added.len(), 4);
    assert!(fs.migration_active());

    // Chaos: kill one of the eight *during* the migration, before its
    // first pass.
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
    // ...and read everything back while the victim is down and the
    // transition is open (reads still serve from the current homes).
    for (path, data) in &files {
        assert_eq!(&fs.read_to_vec(path).unwrap(), data, "{path} during kill");
    }

    // A pass runs. A dead current member wedges the commit: the grow
    // only commits once every member scan and every copy succeeded. A
    // dead joining server wedges nothing — its keys home on the next
    // alive successor — so that grow may commit.
    let pass = fs.repair_now().expect("migration pass during the kill");
    if victim < 4 {
        assert!(
            !pass.complete,
            "migration must not complete around a dead member"
        );
    }

    // Revive the victim; the next pass scans it and the migration drains.
    cluster.proxy(victim).revive();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let rep = fs.repair_now().expect("migration pass");
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
