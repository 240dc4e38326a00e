//! End-to-end test of the genuinely distributed deployment: MemFS mounted
//! over TCP connections to storage servers speaking the memcached text
//! protocol — each server behind a deterministic shaped proxy
//! ([`memfs::memkv::testutil`]) so the traffic crosses a realistically
//! imperfect wire, not just loopback at memory speed.

use std::sync::Arc;
use std::time::Duration;

use memfs::memfs_core::{DistributorKind, MemFs, MemFsConfig};
use memfs::memkv::net::{KvServer, PoolConfig};
use memfs::memkv::testutil::{Shape, ShapedCluster};
use memfs::memkv::{KvClient, ServerHealth, Store};

/// A mild WAN-ish shape: visible per-burst latency, generous bandwidth.
fn shaped_cluster(n: usize) -> (ShapedCluster, Vec<Arc<dyn KvClient>>) {
    let cluster = ShapedCluster::spawn(n, Shape::lagged(Duration::from_millis(1)));
    let clients = cluster.clients(PoolConfig::default());
    (cluster, clients)
}

#[test]
fn memfs_over_tcp_round_trip() {
    let (cluster, clients) = shaped_cluster(3);
    let fs = MemFs::new(
        clients,
        MemFsConfig {
            stripe_size: 64 * 1024,
            ..MemFsConfig::default()
        },
    )
    .unwrap();

    let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    fs.mkdir("/net").unwrap();
    fs.write_file("/net/blob", &data).unwrap();
    assert_eq!(fs.read_to_vec("/net/blob").unwrap(), data);

    // Stripes really landed on multiple servers.
    let populated = (0..cluster.len())
        .filter(|&i| cluster.server(i).store().item_count() > 0)
        .count();
    assert_eq!(populated, 3, "stripes should reach every server");
}

#[test]
fn a_connect_mount_holds_one_socket_per_server() {
    let cluster = ShapedCluster::spawn(4, Shape::clean());
    let addrs: Vec<_> = (0..cluster.len())
        .map(|i| cluster.proxy(i).addr())
        .collect();
    let config = MemFsConfig {
        stripe_size: 64 * 1024,
        ..MemFsConfig::default()
    };
    let fs = MemFs::connect(&addrs, config).unwrap();
    let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    fs.mkdir("/net").unwrap();
    fs.write_file("/net/blob", &data).unwrap();
    assert_eq!(fs.read_to_vec("/net/blob").unwrap(), data);

    // Every server was reached, each over one socket, and the mount's one
    // reactor holds one registration per server.
    for i in 0..cluster.len() {
        let stats = cluster.server(i).server_stats();
        assert!(stats.ops > 0, "server {i} saw no traffic");
        assert_eq!(stats.connections, 1, "server {i}: {stats:?}");
        assert_eq!(stats.total_connections, 1, "server {i}: {stats:?}");
    }
    let reactor = fs.pool().reactor_stats();
    assert_eq!(reactor.len(), 1);
    assert_eq!(reactor[0].registered_connections, 4);
}

#[test]
fn two_tcp_mounts_share_the_namespace() {
    let (_cluster, clients) = shaped_cluster(2);
    // Each mount gets its own TCP connections to the same servers.
    let fs1 = MemFs::new(clients.clone(), MemFsConfig::default()).unwrap();
    let fs2 = MemFs::new(clients, MemFsConfig::default()).unwrap();

    fs1.write_file("/shared.txt", b"written by mount 1")
        .unwrap();
    assert_eq!(
        fs2.read_to_vec("/shared.txt").unwrap(),
        b"written by mount 1"
    );
    // Write-once holds across the wire too.
    assert!(fs2.create("/shared.txt").is_err());
}

#[test]
fn concurrent_tcp_writers() {
    let (_cluster, clients) = shaped_cluster(3);
    let fs = MemFs::new(clients, MemFsConfig::default()).unwrap();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let fs = fs.clone();
            scope.spawn(move || {
                let data = vec![t as u8; 200_000];
                fs.write_file(&format!("/t{t}"), &data).unwrap();
                assert_eq!(fs.read_to_vec(&format!("/t{t}")).unwrap(), data);
            });
        }
    });
    assert_eq!(fs.readdir("/").unwrap().len(), 4);
}

#[test]
fn unlink_frees_deep_zombie_file_under_latency() {
    // A leaked writer leaves a zombie whose length nobody knows; unlink
    // probes forward in delete rounds. With hundreds of stripes behind a
    // laggy wire, those rounds must be pipelined — paying per-stripe (or
    // even strictly per-round) latencies would take seconds here.
    let cluster = ShapedCluster::spawn(4, Shape::lagged(Duration::from_millis(5)));
    let clients = cluster.clients(PoolConfig::default());
    let fs = MemFs::new(
        clients,
        MemFsConfig {
            stripe_size: 4 * 1024,
            ..MemFsConfig::default()
        },
    )
    .unwrap();

    let mut w = fs.create("/zombie").unwrap();
    w.write_all(&vec![3u8; 320 * 4 * 1024]).unwrap();
    w.flush().unwrap();
    std::mem::forget(w); // the writer "crashes": close never runs

    let start = std::time::Instant::now();
    fs.unlink("/zombie").unwrap();
    let elapsed = start.elapsed();
    // 320 stripes at 5 ms injected latency: per-stripe round trips would
    // cost seconds; pipelined probe rounds finish far below that.
    assert!(
        elapsed < Duration::from_millis(1200),
        "zombie unlink not pipelined: {elapsed:?}"
    );

    // Every stripe was reclaimed and the name is reusable.
    let leftover: u64 = (0..cluster.len())
        .map(|i| cluster.server(i).store().bytes_used())
        .sum();
    assert!(
        leftover < 4096,
        "stripes not reclaimed: {leftover} bytes left"
    );
    fs.write_file("/zombie", b"alive").unwrap();
    assert_eq!(fs.read_to_vec("/zombie").unwrap(), b"alive");
}

#[test]
fn mount_survives_one_stalled_server_without_wedging_the_rest() {
    // The acceptance shape for the evented transport: one black-holed
    // server must cost its own keys a timeout, not paralyze the fan-out
    // to the healthy servers.
    let cluster = ShapedCluster::spawn(4, Shape::clean());
    let clients = cluster.clients(PoolConfig {
        timeout: Duration::from_millis(400),
        ..PoolConfig::default()
    });
    let fs = MemFs::new(
        clients,
        MemFsConfig {
            stripe_size: 16 * 1024,
            ..MemFsConfig::default()
        },
    )
    .unwrap();
    let data = vec![0xabu8; 256 * 1024];
    fs.write_file("/pre", &data).unwrap();
    assert_eq!(fs.read_to_vec("/pre").unwrap(), data);

    cluster.proxy(2).stall();
    let start = std::time::Instant::now();
    // 16 stripes spread over 4 servers; server 2's share must fail with a
    // timeout while the others answer, and the whole read must take about
    // one timeout — not one per stripe on the stalled server.
    let err = fs.read_to_vec("/pre").unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(4),
        "stalled server serialized the fan-out: {elapsed:?}"
    );
    drop(err);

    // Healthy after the stall clears: reconnect and read everything.
    cluster.proxy(2).unstall();
    let recovered = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        fs.read_to_vec("/pre").map(|v| v == data).unwrap_or(false)
    });
    assert!(recovered, "mount must recover once the stall clears");
}

/// Servers never cut a quiet mount's connections, so a grow over plain
/// `KvServer`s followed by 600 ms without traffic leaves every link `Up`,
/// and one repair pass scans all four servers and commits the transition.
#[test]
fn a_quiet_mount_commits_a_grow_with_every_server_up() {
    let servers: Vec<KvServer> = (0..4)
        .map(|_| KvServer::spawn(Arc::new(Store::with_defaults()), "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let config = MemFsConfig {
        stripe_size: 64 * 1024,
        distributor: DistributorKind::Ketama {
            points_per_server: 160,
        },
        ..MemFsConfig::default()
    };
    let fs = MemFs::connect(&addrs[..3], config).unwrap();
    let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    fs.mkdir("/quiet").unwrap();
    fs.write_file("/quiet/blob", &data).unwrap();
    fs.admit_server(addrs[3]).unwrap();

    let all_up = |when: &str| {
        let health = fs.pool().health();
        assert_eq!(health, [ServerHealth::Up; 4], "{when}");
    };
    all_up("after the grow");
    std::thread::sleep(Duration::from_millis(600));
    all_up("after 600 ms of quiet");
    let report = fs.repair_now().unwrap();
    assert_eq!(report.servers_down, 0, "{report:?}");
    assert!(report.complete, "{report:?}");
    assert!(!fs.migration_active());
    all_up("after the pass");
    assert_eq!(fs.read_to_vec("/quiet/blob").unwrap(), data);
}
