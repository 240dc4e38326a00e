//! Behavior of the shared per-mount reactor under a shaped cluster:
//! one bad server must not wedge the one loop everyone multiplexes on,
//! and the loop's counters ([`memfs::memkv::ReactorStatsSnapshot`], via
//! `ServerPool::reactor_stats`) must describe what actually happened —
//! wakeups, cross-server completion batches, registered connections,
//! timeouts, reconnects.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs::memfs_core::{DistributorKind, MemFsError, ServerPool};
use memfs::memkv::net::{KvServer, PoolConfig, TcpClient};
use memfs::memkv::{KvClient, KvError, ReactorHandle, Store, StoreConfig};
use memfs_testkit::{Shape, ShapedCluster, ShapedProxy};

const N: usize = 8;

/// One key per server, so a fan-out touches the whole cluster.
fn balanced_keys(pool: &ServerPool) -> Vec<Bytes> {
    let mut keys: Vec<Option<Bytes>> = vec![None; N];
    let mut i = 0u64;
    while keys.iter().any(Option::is_none) {
        let key = Bytes::from(format!("k{i}"));
        let server = pool.server_for(&key).0;
        if keys[server].is_none() {
            keys[server] = Some(key);
        }
        i += 1;
    }
    keys.into_iter().map(Option::unwrap).collect()
}

#[test]
fn stalled_server_is_isolated_and_counted_by_the_shared_loop() {
    let cluster = ShapedCluster::spawn(N, Shape::clean());
    let config = PoolConfig {
        timeout: Duration::from_millis(400),
    };
    let clients = cluster.clients(config.clone());
    let pool = ServerPool::with_replication(clients, DistributorKind::default(), 1);

    // All eight clients share one reactor; its connection census covers
    // the whole mount, one connection per server.
    let snaps = pool.reactor_stats();
    assert_eq!(snaps.len(), 1, "eight clients must dedup to one reactor");
    assert_eq!(
        snaps[0].registered_connections, N,
        "census covers every server's connection"
    );

    let keys = balanced_keys(&pool);
    let payload = Bytes::from(vec![7u8; 32 << 10]);
    for key in &keys {
        pool.set(key, payload.clone()).unwrap();
    }
    for (r, key) in pool.get_many(&keys).iter().zip(&keys) {
        assert!(r.is_ok(), "warm-up read of {key:?} failed: {r:?}");
    }

    // Stall one server mid-mount. The other seven keep streaming through
    // the same epoll loop; only the stalled server's key times out.
    let stalled = 3;
    cluster.proxy(stalled).stall();
    let start = Instant::now();
    let results = pool.get_many(&keys);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(4),
        "stalled server serialized the shared loop: {elapsed:?}"
    );
    // The stalled key's batch was submitted after `start`: its Timeout
    // cannot come before the deadline.
    assert!(
        elapsed >= config.timeout,
        "the stalled key timed out early: {elapsed:?} < {:?}",
        config.timeout
    );
    for (server, result) in results.iter().enumerate() {
        if server == stalled {
            let err = result.as_ref().expect_err("stalled server must time out");
            assert!(
                matches!(err, MemFsError::Storage(KvError::Timeout { .. })),
                "stalled server surfaced {err:?}, not KvError::Timeout"
            );
        } else {
            assert!(
                result.is_ok(),
                "healthy server {server} was dragged down: {result:?}"
            );
        }
    }

    let after = pool.reactor_stats()[0];
    assert!(after.wakeups > 0, "loop never woke: {after:?}");
    assert!(
        after.completions >= (2 * N) as u64,
        "two full fan-outs must complete at least {} exchanges: {after:?}",
        2 * N
    );
    assert!(
        after.completion_batches > 0 && after.completion_batches <= after.completions,
        "batch count out of range: {after:?}"
    );
    assert!(after.timeouts >= 1, "the deadline never fired: {after:?}");
    assert!(
        after.bytes_tx >= (N * payload.len()) as u64,
        "tx byte counter missed the warm-up writes: {after:?}"
    );
    assert!(
        after.bytes_rx >= (N * payload.len()) as u64,
        "rx byte counter missed the warm-up reads: {after:?}"
    );

    // Recovery: once the stall clears, the loop reconnects the poisoned
    // connection and the stalled server's keys come back.
    cluster.proxy(stalled).unstall();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if pool.get(&keys[stalled]).is_ok() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stalled server never recovered after unstall"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let recovered = pool.reactor_stats()[0];
    assert!(
        recovered.reconnects >= 1,
        "recovery must go through a fenced reconnect: {recovered:?}"
    );
    assert_eq!(
        recovered.registered_connections, N,
        "reconnects must not leak or drop registrations"
    );
    assert_eq!(
        recovered.connects_in_flight, 0,
        "settled mount must not report dangling connect attempts: {recovered:?}"
    );
}

#[test]
fn killed_server_fails_fast_without_blocking_siblings() {
    let cluster = ShapedCluster::spawn(N, Shape::clean());
    let config = PoolConfig {
        timeout: Duration::from_millis(400),
    };
    let clients = cluster.clients(config);
    let pool = ServerPool::with_replication(clients, DistributorKind::default(), 1);
    let keys = balanced_keys(&pool);
    for key in &keys {
        pool.set(key, Bytes::from_static(b"v")).unwrap();
    }

    // A killed server severs its sockets: the shared loop fails that
    // server's requests fast (no waiting out the timeout) while the
    // seven others answer normally.
    let dead = 5;
    cluster.proxy(dead).kill();
    let start = Instant::now();
    let results = pool.get_many(&keys);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(4),
        "dead server wedged the shared loop: {elapsed:?}"
    );
    for (server, result) in results.iter().enumerate() {
        if server == dead {
            assert!(result.is_err(), "dead server must error");
        } else {
            assert!(
                result.is_ok(),
                "healthy server {server} failed alongside the dead one: {result:?}"
            );
        }
    }

    cluster.proxy(dead).revive();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if pool.get(&keys[dead]).is_ok() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "killed server never came back after revive"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn clean_traffic_reports_consistent_reactor_counters() {
    let cluster = ShapedCluster::spawn(4, Shape::clean());
    let clients = cluster.clients(PoolConfig::default());
    let pool = ServerPool::with_replication(clients, DistributorKind::default(), 1);

    let keys: Vec<Bytes> = (0..64).map(|i| Bytes::from(format!("c{i}"))).collect();
    for key in &keys {
        pool.set(key, Bytes::from(vec![1u8; 4096])).unwrap();
    }
    for r in pool.get_many(&keys) {
        r.unwrap();
    }

    let s = pool.reactor_stats();
    assert_eq!(s.len(), 1);
    let s = s[0];
    assert_eq!(s.registered_connections, 4);
    assert!(s.wakeups > 0);
    assert!(s.completions > 0);
    assert!(s.completion_batches > 0);
    assert!(
        s.batching_factor() >= 1.0,
        "factor: {}",
        s.batching_factor()
    );
    assert_eq!(s.timeouts, 0, "clean traffic must not time out");
    assert_eq!(s.reconnects, 0, "clean traffic must not reconnect");
    assert_eq!(
        s.connects_in_flight, 0,
        "clean traffic leaves no connects pending"
    );
    // 64 × 4 KiB values moved each way, plus framing.
    assert!(
        s.bytes_tx >= 64 * 4096,
        "tx bytes under the payload floor: {s:?}"
    );
    assert!(
        s.bytes_rx >= 64 * 4096,
        "rx bytes under the payload floor: {s:?}"
    );
}

/// Regression for the reconnect path: with connects running inside the
/// loop, a server whose listener is *gone* (hard `ECONNREFUSED`, not an
/// accept-then-EOF) must fail each request promptly while exponential
/// backoff keeps the loop from hammering connect attempts or spinning
/// hot. The old implementation spawned a `memkv-reconnect` thread per
/// attempt and could error out of the spawn itself under pressure.
#[test]
fn connect_refused_storm_surfaces_errors_and_backs_off() {
    let server = KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0")
        .expect("bind storage server");
    let proxy = ShapedProxy::spawn(server.addr(), Shape::clean());
    let reactor = ReactorHandle::new().expect("spawn reactor");
    let config = PoolConfig {
        timeout: Duration::from_millis(150),
    };
    let client =
        TcpClient::connect_shared(proxy.addr(), config, &reactor).expect("connect through proxy");
    let key = Bytes::from_static(b"storm");
    client.set(&key, Bytes::from_static(b"v")).unwrap();
    assert_eq!(client.get(&key).unwrap(), Bytes::from_static(b"v"));

    // Dropping the proxy closes its listener and severs the live
    // connection: every reconnect from here on is refused outright.
    let before = reactor.stats();
    drop(proxy);

    const STORM: usize = 30;
    let start = Instant::now();
    for i in 0..STORM {
        let got = client.get(&key);
        assert!(got.is_err(), "request {i} silently succeeded: {got:?}");
    }
    let elapsed = start.elapsed();
    // Each request must fail on its own (timeout or refused connect),
    // not queue behind a wedged reconnect loop.
    assert!(
        elapsed < Duration::from_secs(20),
        "refused storm serialized the loop: {elapsed:?}"
    );

    let after = reactor.stats();
    let attempts = after.reconnects - before.reconnects;
    assert!(attempts >= 1, "no reconnect was ever attempted: {after:?}");
    assert!(
        attempts < STORM as u64,
        "backoff failed: {attempts} connect attempts for {STORM} requests"
    );
    assert_eq!(
        after.connects_in_flight, 0,
        "refused connects must be torn down: {after:?}"
    );
    // A hot-spinning loop would rack up orders of magnitude more wakeups
    // than the handful each request needs (submit, timer, connect event).
    let wakeups = after.wakeups - before.wakeups;
    assert!(
        wakeups < 20_000,
        "loop ran hot during backoff: {wakeups} wakeups for {STORM} requests"
    );
}
