//! A server's thread census is fixed — one epoll loop that runs every
//! request to completion — no matter how many connections it carries.
//! Neither a thread per accepted socket, an execution pool nor a
//! background maintenance thread may reappear (the retired names are
//! asserted absent). This binary holds exactly one test on purpose — it counts
//! process-wide threads by name, which would race with parallel tests.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs::memkv::net::{KvServer, PoolConfig, TcpClient};
use memfs::memkv::{KvClient, ReactorHandle, Store};

/// Live threads of this process whose name starts with `prefix`
/// (`comm` truncates at 15 chars, so prefixes must fit in that).
fn named_threads(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|e| std::fs::read_to_string(e.unwrap().path().join("comm")).ok())
        .filter(|name| name.trim_end().starts_with(prefix))
        .count()
}

/// Threads name themselves as they start running, so poll briefly instead
/// of racing freshly-created (or freshly-joined) threads.
fn expect_named(prefix: &str, expected: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = named_threads(prefix);
        if n == expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: expected {expected} `{prefix}*` threads, found {n}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn server_census_is_one_loop_regardless_of_connections() {
    assert_eq!(named_threads("memkv-srv"), 0, "clean slate");

    let server = KvServer::spawn(Arc::new(Store::with_defaults()), "127.0.0.1:0").unwrap();
    let census = |what: &str| {
        expect_named("memkv-srv-loop", 1, what);
        expect_named("memkv-srv", 1, what);
        for retired in [
            "memkv-srv-maint",
            "memkv-srv-wkr",
            "memkv-conn",
            "memkv-accept",
        ] {
            assert_eq!(
                named_threads(retired),
                0,
                "{what}: `{retired}` must stay retired"
            );
        }
    };
    census("a fresh server is one loop");

    // 64 raw connections, each exercised with a protocol round trip: the
    // census must not move. (A thread-per-connection engine would sit at
    // 64 `memkv-conn` threads here.)
    let mut raw: Vec<std::net::TcpStream> = (0..64)
        .map(|_| std::net::TcpStream::connect(server.addr()).unwrap())
        .collect();
    for s in &mut raw {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"version\r\n").unwrap();
        let mut buf = [0u8; 64];
        let n = s.read(&mut buf).unwrap();
        assert!(buf[..n].starts_with(b"VERSION "));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.server_stats().connections < 64 {
        assert!(Instant::now() < deadline, "64 connections never registered");
        std::thread::sleep(Duration::from_millis(5));
    }
    census("64 connections still share one loop");

    // Real pipelined traffic through shared-reactor clients on top of the
    // raw sockets: still the same census.
    let reactor = ReactorHandle::new().unwrap();
    let clients: Vec<TcpClient> = (0..4)
        .map(|_| TcpClient::connect_shared(server.addr(), PoolConfig::default(), &reactor).unwrap())
        .collect();
    for (i, c) in clients.iter().enumerate() {
        let items: Vec<(Bytes, Bytes)> = (0..100)
            .map(|k| {
                (
                    Bytes::from(format!("c{i}k{k}")),
                    Bytes::from(vec![b'x'; 512]),
                )
            })
            .collect();
        assert!(c.set_many(&items).unwrap().iter().all(|r| r.is_ok()));
        let keys: Vec<Bytes> = items.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(c.get_many(&keys).unwrap().len(), 100);
    }
    census("traffic must not spawn threads");

    // Shutdown joins the loop, even with 64 live connections and
    // clients still holding sockets.
    drop(clients);
    drop(reactor);
    let mut server = server;
    server.shutdown();
    expect_named("memkv-srv", 0, "shutdown joins the loop");
    // Idempotent: a second shutdown (and the eventual Drop) are no-ops.
    server.shutdown();
    assert_eq!(named_threads("memkv-srv"), 0);
    drop(raw);
}
