//! TCP transport failure paths, driven through the deterministic
//! shaped-cluster harness ([`memfs_memkv::testutil`]): server shutdown
//! mid-stream, oversized value rejection, error recovery inside pipelined
//! batches, reconnection after dropped connections, silent stalls that
//! must surface as timeouts, and mid-frame cuts that may only replay
//! idempotent traffic.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs_memkv::net::{KvServer, PoolConfig, TcpClient};
use memfs_memkv::testutil::{Shape, ShapedCluster};
use memfs_memkv::{EvictionPolicy, KvClient, KvError, Store, StoreConfig};

fn config(connections: usize) -> PoolConfig {
    PoolConfig {
        connections,
        max_batch_keys: 64,
        ..PoolConfig::default()
    }
}

/// A config with a short timeout for tests that drive requests into a
/// black hole on purpose.
fn quick_timeout_config(connections: usize) -> PoolConfig {
    PoolConfig {
        connections,
        max_batch_keys: 64,
        timeout: Duration::from_millis(250),
        ..PoolConfig::default()
    }
}

fn spawn_tiny_server(max_value_size: usize) -> KvServer {
    KvServer::spawn(
        Arc::new(Store::new(StoreConfig {
            memory_budget: 64 << 20,
            max_value_size,
            eviction: EvictionPolicy::Error,
            shards: 4,
            ..StoreConfig::default()
        })),
        "127.0.0.1:0",
    )
    .unwrap()
}

#[test]
fn requests_after_server_shutdown_fail_cleanly() {
    let mut server = KvServer::spawn(Arc::new(Store::with_defaults()), "127.0.0.1:0").unwrap();
    let client = TcpClient::connect_with(server.addr(), config(2)).unwrap();
    client.set(b"k", Bytes::from_static(b"v")).unwrap();
    server.shutdown();
    drop(server);
    // Both the in-flight connection death and the failed reconnect must
    // surface as I/O errors, never hangs or panics.
    for _ in 0..3 {
        assert!(matches!(client.get(b"k"), Err(KvError::Io(_))));
    }
    assert!(matches!(
        client.get_many(&[Bytes::from_static(b"k"), Bytes::from_static(b"x")]),
        Err(KvError::Io(_))
    ));
}

#[test]
fn killed_server_behind_live_endpoint_fails_cleanly() {
    let cluster = ShapedCluster::spawn(1, Shape::clean());
    let client = cluster.client(0, quick_timeout_config(1));
    client.set(b"k", Bytes::from_static(b"v")).unwrap();
    cluster.proxy(0).kill();
    // The endpoint still accepts-and-closes (dead process behind a VIP):
    // requests fail with transport errors, and once the server "restarts"
    // the same client recovers without intervention.
    let err = client.get(b"k").unwrap_err();
    assert!(err.is_transport(), "got {err:?}");
    cluster.proxy(0).revive();
    assert_eq!(client.get(b"k").unwrap().as_ref(), b"v");
}

#[test]
fn oversized_value_rejected_connection_survives() {
    let server = spawn_tiny_server(1024);
    let client = TcpClient::connect(server.addr()).unwrap();
    let err = client
        .set(b"big", Bytes::from(vec![0u8; 4096]))
        .unwrap_err();
    assert!(matches!(err, KvError::Protocol(_)), "got {err:?}");
    // The server replied SERVER_ERROR without dropping the connection:
    // follow-up traffic on the same client must work.
    client.set(b"small", Bytes::from_static(b"ok")).unwrap();
    assert_eq!(client.get(b"small").unwrap().as_ref(), b"ok");
    assert_eq!(server.store().item_count(), 1);
}

/// Send `line` on a fresh raw connection and return everything the server
/// says before it closes the connection.
fn raw_exchange(server: &KvServer, line: &[u8]) -> Vec<u8> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(line).unwrap();
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .expect("the server closes the connection behind its error");
    reply
}

#[test]
fn hostile_length_fields_are_refused_and_the_server_survives() {
    // `<bytes>` off the wire used to be `as usize`d and added to: the
    // first line overflowed (a panic in this debug build — on the loop
    // thread, taking the whole server with it), the second parked the
    // connection in `NeedMore` while the peer fed the decoder buffer.
    let server = KvServer::spawn(Arc::new(Store::with_defaults()), "127.0.0.1:0").unwrap();
    for line in [
        &b"set k 0 0 18446744073709551615\r\n"[..],
        b"set k 0 0 9999999999999\r\n",
        b"cas k 0 0 134217729 1\r\n",
    ] {
        assert_eq!(
            raw_exchange(&server, line),
            b"SERVER_ERROR object too large for cache\r\n",
            "{:?}",
            String::from_utf8_lossy(line)
        );
    }
    // `getrange`'s integers go through the same checked parse.
    let reply = raw_exchange(&server, b"getrange k 0 18446744073709551616\r\n");
    assert!(reply.starts_with(b"CLIENT_ERROR "), "{reply:?}");
    // Loop and worker threads are alive: a fresh connection is served,
    // store and all.
    let client = TcpClient::connect(server.addr()).unwrap();
    client.set(b"k", Bytes::from_static(b"0123456789")).unwrap();
    assert_eq!(
        client.get_range(b"k", 8, usize::MAX).unwrap().as_ref(),
        b"89"
    );
    assert_eq!(server.store().item_count(), 1);
}

#[test]
fn pipelined_batch_recovers_past_a_failed_item() {
    let server = spawn_tiny_server(1024);
    let client = TcpClient::connect_with(server.addr(), config(1)).unwrap();
    let items = vec![
        (Bytes::from_static(b"a"), Bytes::from(vec![1u8; 100])),
        (Bytes::from_static(b"big"), Bytes::from(vec![2u8; 4096])), // over the limit
        (Bytes::from_static(b"c"), Bytes::from(vec![3u8; 100])),
    ];
    let results = client.set_many(&items).unwrap();
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(KvError::Protocol(_))));
    assert!(
        results[2].is_ok(),
        "items after the failure must still land"
    );
    assert_eq!(client.get(b"a").unwrap().len(), 100);
    assert!(matches!(client.get(b"big"), Err(KvError::NotFound)));
    assert_eq!(client.get(b"c").unwrap().len(), 100);
}

#[test]
fn client_reconnects_after_connection_drop() {
    let cluster = ShapedCluster::spawn(1, Shape::clean());
    let client = cluster.client(0, config(1));
    client.set(b"k", Bytes::from_static(b"v1")).unwrap();

    cluster.proxy(0).drop_connections();
    // get is idempotent: the client must notice the dead socket, reopen
    // through the still-listening endpoint and replay transparently.
    assert_eq!(client.get(b"k").unwrap().as_ref(), b"v1");

    cluster.proxy(0).drop_connections();
    // Batches replay too, as long as every frame is idempotent.
    let out = client
        .get_many(&[Bytes::from_static(b"k"), Bytes::from_static(b"nope")])
        .unwrap();
    assert_eq!(out[0].as_ref().unwrap().as_ref(), b"v1");
    assert!(matches!(out[1], Err(KvError::NotFound)));

    cluster.proxy(0).drop_connections();
    client.set(b"k", Bytes::from_static(b"v2")).unwrap();
    assert_eq!(client.get(b"k").unwrap().as_ref(), b"v2");
}

#[test]
fn non_idempotent_requests_are_not_replayed() {
    let cluster = ShapedCluster::spawn(1, Shape::clean());
    let client = Arc::new(cluster.client(0, config(1)));
    client.set(b"log", Bytes::from_static(b"seed")).unwrap();

    // Stall the proxy so the append is provably in flight (written by the
    // client, absorbed by the proxy, never delivered), then sever the
    // connection under it. A blind replay would double-apply; the client
    // must surface the I/O error instead.
    cluster.proxy(0).stall();
    let pending = std::thread::spawn({
        let client = Arc::clone(&client);
        move || client.append(b"log", b"+x")
    });
    std::thread::sleep(Duration::from_millis(50));
    cluster.proxy(0).drop_connections();
    let err = pending.join().unwrap().unwrap_err();
    assert!(matches!(err, KvError::Io(_)), "got {err:?}");
    cluster.proxy(0).unstall();

    // The proxy dropped the frame, so the append never applied — and the
    // client reconnects without external intervention.
    assert_eq!(client.get(b"log").unwrap().as_ref(), b"seed");
    client.append(b"log", b"+y").unwrap();
    assert_eq!(client.get(b"log").unwrap().as_ref(), b"seed+y");
}

#[test]
fn stalled_server_surfaces_timeout_not_a_hang() {
    let cluster = ShapedCluster::spawn(1, Shape::clean());
    let client = cluster.client(0, quick_timeout_config(2));
    client.set(b"k", Bytes::from_static(b"v")).unwrap();

    cluster.proxy(0).stall();
    let start = Instant::now();
    let err = client.get(b"k").unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, KvError::Timeout { .. }),
        "stalled request must time out, got {err:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(200) && elapsed < Duration::from_secs(5),
        "timeout must fire near the deadline, took {elapsed:?}"
    );
    // Everything queued behind the stalled frame fails fast (the
    // connection is abandoned), rather than serializing timeouts.
    let start = Instant::now();
    for _ in 0..3 {
        assert!(client.get(b"k").unwrap_err().is_transport());
    }
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "follow-up failures must not each wait a fresh full timeout"
    );

    // Once the stall clears, the client reconnects and recovers.
    cluster.proxy(0).unstall();
    let recovered = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        matches!(client.get(b"k"), Ok(v) if v.as_ref() == b"v")
    });
    assert!(recovered, "client must recover after the stall clears");
}

#[test]
fn mid_frame_cut_replays_idempotent_batches_only() {
    let cluster = ShapedCluster::spawn(1, Shape::clean());
    let client = cluster.client(0, config(1));
    client.set(b"seed", Bytes::from_static(b"s")).unwrap();

    // Cut the client→server stream in the middle of the next batch: an
    // idempotent set_many must be replayed transparently on a fresh
    // connection and still land in full.
    cluster.proxy(0).cut_client_stream_after(64);
    let items: Vec<(Bytes, Bytes)> = (0..8)
        .map(|i| {
            (
                Bytes::from(format!("cut{i}")),
                Bytes::from(vec![b'x'; 2048]),
            )
        })
        .collect();
    let results = client.set_many(&items).unwrap();
    assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
    for (k, _) in &items {
        assert_eq!(client.get(k).unwrap().len(), 2048);
    }

    // The same cut under a non-idempotent frame must surface the error —
    // an append that may or may not have applied cannot be replayed.
    cluster.proxy(0).cut_client_stream_after(16);
    let err = client.append(b"seed", &vec![b'y'; 4096][..]).unwrap_err();
    assert!(matches!(err, KvError::Io(_)), "got {err:?}");
    // And the pool reconnects: next calls work.
    assert_eq!(client.get(b"seed").unwrap().as_ref(), b"s");
}

#[test]
fn connection_churn_under_concurrent_load_is_survivable() {
    let cluster = ShapedCluster::spawn(1, Shape::clean());
    let client = Arc::new(cluster.client(
        0,
        PoolConfig {
            connections: 4,
            max_batch_keys: 32,
            ..PoolConfig::default()
        },
    ));
    client
        .set(b"stable", Bytes::from_static(b"present"))
        .unwrap();

    let workers: Vec<_> = (0..4)
        .map(|t| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                let mut io_errors = 0usize;
                for i in 0..100 {
                    let key = format!("w{t}k{i}");
                    // Sets are idempotent: either they land (possibly via
                    // replay) or the retried connection died too.
                    match client.set(key.as_bytes(), Bytes::from_static(b"x")) {
                        Ok(()) => {}
                        Err(e) if e.is_transport() => io_errors += 1,
                        Err(e) => panic!("unexpected error under churn: {e:?}"),
                    }
                }
                io_errors
            })
        })
        .collect();
    for _ in 0..10 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        cluster.proxy(0).drop_connections();
    }
    for w in workers {
        let _ = w.join().unwrap();
    }
    // After the churn stops, the client must be fully functional again.
    assert_eq!(client.get(b"stable").unwrap().as_ref(), b"present");
    client.set(b"after", Bytes::from_static(b"done")).unwrap();
    assert_eq!(client.get(b"after").unwrap().as_ref(), b"done");
}

/// Regression for the quadratic parse buffer: 10k tiny requests pipelined
/// on a single connection used to `Vec::drain` the receive buffer once per
/// request (O(n²) memmove under deep pipelining). The cursor-based
/// [`RequestDecoder`] makes this linear; the whole burst must clear in
/// well under a second even in debug builds.
#[test]
fn pipelined_10k_requests_on_one_connection_stay_flat() {
    let server = KvServer::spawn(Arc::new(Store::with_defaults()), "127.0.0.1:0").unwrap();
    let client = TcpClient::connect_with(
        server.addr(),
        PoolConfig {
            connections: 1,
            max_batch_keys: 10_000,
            timeout: Duration::from_secs(30),
            ..PoolConfig::default()
        },
    )
    .unwrap();

    let items: Vec<(Bytes, Bytes)> = (0..10_000)
        .map(|i| (Bytes::from(format!("p{i}")), Bytes::from_static(b"v")))
        .collect();
    let start = Instant::now();
    let results = client.set_many(&items).unwrap();
    assert!(results.iter().all(|r| r.is_ok()));
    let keys: Vec<Bytes> = items.iter().map(|(k, _)| k.clone()).collect();
    let got = client.get_many(&keys).unwrap();
    assert_eq!(got.len(), 10_000);
    assert!(got.iter().all(|r| r.as_ref().unwrap().as_ref() == b"v"));
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "20k pipelined requests took {:?} — parse buffer gone quadratic?",
        start.elapsed()
    );
    // 10k pipelined sets are 10k ops; the reads coalesce into a handful
    // of multi-key `get` frames on top.
    assert!(
        server.server_stats().ops >= 10_000,
        "server must have executed the full pipelined burst: {:?}",
        server.server_stats()
    );
}

/// The `max_connections` load-shed: the N+1th connection is accepted just
/// long enough to receive a clean protocol error, then closed — and the
/// slot frees again when an established connection goes away.
#[test]
fn connections_beyond_cap_are_shed_with_protocol_error() {
    use std::io::Read;

    let server = KvServer::spawn_with(
        Arc::new(Store::with_defaults()),
        "127.0.0.1:0",
        memfs_memkv::ServerConfig {
            max_connections: 64,
            ..Default::default()
        },
    )
    .unwrap();

    // Fill the table with 64 raw sockets (no protocol traffic needed —
    // accepting is what occupies a slot).
    let mut held: Vec<std::net::TcpStream> = (0..64)
        .map(|_| std::net::TcpStream::connect(server.addr()).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.server_stats().connections < 64 {
        assert!(Instant::now() < deadline, "server never accepted 64 conns");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The 65th gets the shed message and EOF, never a hang.
    let mut extra = std::net::TcpStream::connect(server.addr()).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = Vec::new();
    extra.read_to_end(&mut buf).unwrap();
    assert_eq!(buf, b"SERVER_ERROR too many connections\r\n");
    assert!(server.server_stats().rejected_connections >= 1);

    // Established connections are untouched by the shedding...
    let mut probe = held.pop().unwrap();
    use std::io::Write;
    probe.write_all(b"version\r\n").unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut line = [0u8; 64];
    let n = probe.read(&mut line).unwrap();
    assert!(line[..n].starts_with(b"VERSION "), "got {:?}", &line[..n]);

    // ...and closing one frees its slot for a newcomer.
    drop(probe);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.server_stats().connections >= 64 {
        assert!(Instant::now() < deadline, "closed conn never reaped");
        std::thread::sleep(Duration::from_millis(5));
    }
    let late = TcpClient::connect_with(server.addr(), config(1)).unwrap();
    late.set(b"late", Bytes::from_static(b"ok")).unwrap();
    assert_eq!(late.get(b"late").unwrap().as_ref(), b"ok");
    drop(held);
}

/// Shutting a server down under an in-flight batch must fail the batch
/// fast (closed connections, cleared job queue) — not let it run out the
/// client timeout.
#[test]
fn in_flight_batch_fails_fast_on_shutdown() {
    // ~256 KiB/s proxy: the 2 MiB batch below would need ~8s to deliver,
    // so the shutdown provably lands mid-transfer.
    let mut cluster = ShapedCluster::spawn(1, Shape::throttled(256 * 1024));
    let client = Arc::new(cluster.client(
        0,
        PoolConfig {
            connections: 1,
            max_batch_keys: 64,
            timeout: Duration::from_secs(30),
            ..PoolConfig::default()
        },
    ));
    client.set(b"warm", Bytes::from_static(b"up")).unwrap();

    let pending = std::thread::spawn({
        let client = Arc::clone(&client);
        move || {
            let items: Vec<(Bytes, Bytes)> = (0..16)
                .map(|i| {
                    (
                        Bytes::from(format!("bulk{i}")),
                        Bytes::from(vec![0u8; 128 * 1024]),
                    )
                })
                .collect();
            let start = Instant::now();
            (client.set_many(&items), start.elapsed())
        }
    });
    std::thread::sleep(Duration::from_millis(300));
    let start = Instant::now();
    cluster.server_mut(0).shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown must not wait out in-flight work, took {:?}",
        start.elapsed()
    );
    let (result, elapsed) = pending.join().unwrap();
    assert!(
        result.is_err(),
        "batch against a dying server must error, got {result:?}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "failure must be fast, not a timeout: {elapsed:?}"
    );

    // Second shutdown is an idempotent no-op.
    cluster.server_mut(0).shutdown();
}

/// A server restarted on the same address (same store) is transparently
/// picked back up by existing clients — reconnect-and-replay, no manual
/// intervention, data intact.
#[test]
fn client_survives_server_restart_on_same_addr() {
    let store = Arc::new(Store::with_defaults());
    let mut server = KvServer::spawn(Arc::clone(&store), "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let client = TcpClient::connect_with(addr, config(2)).unwrap();
    client.set(b"durable", Bytes::from_static(b"v1")).unwrap();

    server.shutdown();
    drop(server);
    assert!(matches!(client.get(b"durable"), Err(KvError::Io(_))));

    // SO_REUSEADDR makes the same-port rebind deterministic despite the
    // TIME_WAIT pairs the old incarnation left behind.
    let server = KvServer::spawn(Arc::clone(&store), addr).unwrap();
    assert_eq!(server.addr(), addr);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.get(b"durable") {
            Ok(v) => {
                assert_eq!(v.as_ref(), b"v1", "store state must survive the restart");
                break;
            }
            Err(e) => {
                assert!(e.is_transport(), "got {e:?}");
                assert!(Instant::now() < deadline, "client never reconnected");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    client.set(b"durable", Bytes::from_static(b"v2")).unwrap();
    assert_eq!(client.get(b"durable").unwrap().as_ref(), b"v2");
}

/// Idle connections are reaped by the timer wheel after `idle_timeout`,
/// and a reaped client reconnects transparently on its next request.
#[test]
fn idle_connections_are_reaped_and_clients_reconnect() {
    let server = KvServer::spawn_with(
        Arc::new(Store::with_defaults()),
        "127.0.0.1:0",
        memfs_memkv::ServerConfig {
            idle_timeout: Duration::from_millis(100),
            ..Default::default()
        },
    )
    .unwrap();
    let client = TcpClient::connect_with(server.addr(), config(1)).unwrap();
    client.set(b"k", Bytes::from_static(b"v")).unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.server_stats();
        if stats.idle_closed >= 1 && stats.connections == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "idle reaper never fired: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The client notices the closed socket and reopens transparently.
    assert_eq!(client.get(b"k").unwrap().as_ref(), b"v");
}
