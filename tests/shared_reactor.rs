//! Behavior of the shared per-mount reactor under a shaped cluster:
//! one bad server must not wedge the one loop everyone multiplexes on —
//! nor a caller whose answer lands while another caller runs that loop —
//! and the loop's counters ([`memfs::memkv::ReactorStatsSnapshot`], via
//! `ServerPool::reactor_stats`) must describe what actually happened —
//! wakeups, cross-server completion batches, answers delivered on the
//! waiting caller's own thread, registered connections, timeouts,
//! reconnects.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs::memfs_core::{DistributorKind, MemFsError, ServerPool};
use memfs::memkv::net::{KvServer, PoolConfig, TcpClient};
use memfs::memkv::{Batch, KvClient, KvError, ReactorHandle, Store, StoreConfig, StoreVerb};
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

/// Two callers on one loop: caller A waits on a stalled server, and so
/// runs the loop (or parks beside whoever does) for its whole timeout.
/// Caller B's answers from healthy servers land meanwhile, and each must
/// reach B at once — not when A's own answer, or its timeout, comes.
#[test]
fn a_caller_is_answered_while_another_waits_on_a_stalled_server() {
    let cluster = ShapedCluster::spawn(4, Shape::clean());
    let timeout = Duration::from_millis(400);
    let clients = cluster.clients(PoolConfig { timeout });
    for (i, client) in clients.iter().enumerate() {
        client
            .set(format!("k{i}").as_bytes(), Bytes::from_static(b"v"))
            .unwrap();
    }
    let stalled = 0;
    cluster.proxy(stalled).stall();

    let sent = || clients[stalled].reactor_stats().unwrap().bytes_tx;
    let before = sent();
    let (waiting, a_waits) = mpsc::channel();
    let a = {
        let client = Arc::clone(&clients[stalled]);
        std::thread::spawn(move || {
            waiting.send(()).unwrap();
            let start = Instant::now();
            let got = client.get(b"k0");
            (got, start.elapsed())
        })
    };
    a_waits.recv().unwrap();
    // B starts once A's request is on the wire.
    while sent() == before {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut slowest = Duration::ZERO;
    let mut answered = 0;
    while !a.is_finished() {
        for (i, client) in clients.iter().enumerate().skip(1) {
            let start = Instant::now();
            assert_eq!(client.get(format!("k{i}").as_bytes()).unwrap(), &b"v"[..]);
            slowest = slowest.max(start.elapsed());
            answered += 1;
        }
    }
    let (got, a_waited) = a.join().unwrap();
    assert!(
        matches!(got, Err(KvError::Timeout { .. })),
        "the stalled server answered: {got:?}"
    );
    assert!(a_waited >= timeout, "A timed out early: {a_waited:?}");
    assert!(
        answered >= 10,
        "B was answered only {answered} times while A waited {a_waited:?}"
    );
    assert!(
        slowest < timeout / 2,
        "one of B's gets waited {slowest:?}, as if for A's answer"
    );
}

/// A caller waiting on its own request runs the loop itself: on a quiet
/// loop, its answers are read and delivered on its own thread, with no
/// hand-off from another thread.
#[test]
fn sequential_gets_on_a_quiet_loop_are_delivered_on_the_callers_thread() {
    const GETS: u64 = 1000;
    let server = KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0")
        .expect("bind storage server");
    let client = TcpClient::connect(server.addr()).expect("connect");
    client.set(b"k", Bytes::from(vec![1u8; 64])).unwrap();
    let before = client.reactor_stats();
    for _ in 0..GETS {
        assert_eq!(client.get(b"k").unwrap().len(), 64);
    }
    let after = client.reactor_stats();
    let inline = after.inline_completions - before.inline_completions;
    assert_eq!(after.completions - before.completions, GETS);
    assert!(
        inline * 100 >= GETS * 95,
        "only {inline} of {GETS} answers were delivered on the caller's thread: {after:?}"
    );
}

/// A batch nobody waits on does not hold up a waited batch queued behind
/// it on the same connection: the wait turns the loop, which answers both
/// in order.
#[test]
fn a_batch_nobody_waits_on_does_not_hold_up_a_waited_batch_behind_it() {
    let server = KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0")
        .expect("bind storage server");
    let client = TcpClient::connect(server.addr()).expect("connect");
    let (a_keys, b_keys) = ([Bytes::from_static(b"a")], [Bytes::from_static(b"b")]);
    let a = client.start(Batch::Get(&a_keys));
    let start = Instant::now();
    let b = client.start(Batch::Get(&b_keys)).wait();
    let waited = start.elapsed();
    assert!(b.is_ok(), "the waited batch failed: {b:?}");
    assert!(
        waited < Duration::from_secs(1),
        "the waited batch took {waited:?}"
    );
    assert!(a.is_ready(), "the batch ahead of it was not answered");
    assert!(a.wait().is_ok(), "the batch nobody waited on failed");
}

/// The deadline of the tests below: half the time their caller stays away.
const DEADLINE: Duration = Duration::from_millis(200);

/// A client to a loopback server, with a [`DEADLINE`] per request.
fn deadline_client() -> (KvServer, TcpClient) {
    let server = KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0")
        .expect("bind storage server");
    let config = PoolConfig { timeout: DEADLINE };
    let client = TcpClient::connect_with(server.addr(), config).expect("connect");
    (server, client)
}

/// A deadline times a server that stopped answering, not a caller who
/// went away: a reply that sat in the socket while nobody turned the loop
/// is taken by the wait that comes back for it, not timed out.
#[test]
fn a_reply_nobody_waited_on_for_twice_the_deadline_is_not_timed_out() {
    let (_server, client) = deadline_client();
    let item = [(Bytes::from_static(b"k"), Bytes::from_static(b"v"))];
    let before = client.reactor_stats().timeouts;
    let pending = client.start(Batch::Store(StoreVerb::Set, &item));
    std::thread::sleep(2 * DEADLINE);
    let replies = pending.wait();
    assert!(
        matches!(replies.as_deref(), Ok([Ok(_)])),
        "the set failed: {replies:?}"
    );
    assert_eq!(client.reactor_stats().timeouts, before, "a deadline fired");
}

/// Nor is a batch left half-written: 16 MiB is more than both socket
/// buffers take, so most of it is still queued while nobody turns the loop.
#[test]
fn a_set_left_half_written_for_twice_the_deadline_is_not_timed_out() {
    let (_server, client) = deadline_client();
    let value = Bytes::from(vec![7u8; 16 << 20]);
    let item = [(Bytes::from_static(b"big"), value.clone())];
    let pending = client.start(Batch::Store(StoreVerb::Set, &item));
    std::thread::sleep(2 * DEADLINE);
    let replies = pending.wait();
    assert!(
        matches!(replies.as_deref(), Ok([Ok(_)])),
        "the set failed: {replies:?}"
    );
    assert!(client.get(b"big").unwrap() == value, "the value differs");
}
