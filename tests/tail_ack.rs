//! The tail of a large GET response must be ACKed at once.
//!
//! A response's last segment reaches a client socket that has nothing to
//! send back, so the kernel holds the ACK for its delayed-ACK timer
//! (≥ 40 ms). A rate-based sender (BBR) then measures "one segment per
//! 40 ms", and paces the next response on that connection out over
//! 40–130 ms — the sequential-read stall. The reactor re-arms
//! `TCP_QUICKACK` once a drained socket has taken in a payload-sized
//! amount; this test watches the kernel's own counter, so it guards the
//! fix on hosts whose congestion control would not show the stall.
//!
//! `TcpExt: DelayedACKs` is per network namespace, so this binary holds
//! exactly one test and nothing else that talks TCP.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs::memkv::net::{KvServer, TcpClient};
use memfs::memkv::{KvClient, Store, StoreConfig};

/// 400 stripe-sized values, fetched as 100 four-stripe multi-gets: the
/// shape of a prefetch window's share on one server, and long enough a
/// response (2 MiB) that the server's socket sends its tail as a segment
/// of its own — the segment whose ACK the kernel would hold.
const EXCHANGES: usize = 100;
const STRIPES: usize = 4;
const STRIPE: usize = 512 * 1024;
/// After each burst of eight exchanges on the client's one connection it
/// goes quiet for longer than the delayed-ACK timer, so no later request
/// can carry a tail's ACK: the transport asks for it, or the timer sends
/// it and the kernel counts that.
const BURST: usize = 8;
const QUIET: Duration = Duration::from_millis(50);
/// One pass, so the bar sits between what the schedule counts with the
/// re-arm (0–1) and without it (16–30, every time); the slack is for other
/// sockets in the namespace, which share the counter.
const MAX_DELAYED_ACKS: u64 = 8;
const MAX_EXCHANGE: Duration = Duration::from_millis(30);

/// `TcpExt: DelayedACKs` from `/proc/net/netstat`, `None` if unreadable.
fn delayed_acks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/netstat").ok()?;
    let mut lines = text.lines().filter(|l| l.starts_with("TcpExt:"));
    let names = lines.next()?.split_whitespace();
    let values = lines.next()?.split_whitespace();
    names
        .zip(values)
        .find(|(name, _)| *name == "DelayedACKs")
        .and_then(|(_, value)| value.parse().ok())
}

#[test]
fn large_get_tails_are_acked_without_the_delayed_ack_timer() {
    if delayed_acks().is_none() {
        eprintln!("skipped: /proc/net/netstat has no readable TcpExt DelayedACKs");
        return;
    }
    let mut server = KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0")
        .expect("bind storage server");
    let client = TcpClient::connect(server.addr()).expect("connect");
    let keys: Vec<Bytes> = (0..STRIPES)
        .map(|i| Bytes::from(format!("stripe-{i}")))
        .collect();
    for key in &keys {
        client
            .set(key, Bytes::from(vec![0xA5u8; STRIPE]))
            .expect("set");
    }

    let before = delayed_acks().expect("counter was readable");
    let mut slowest = Duration::ZERO;
    for i in 0..EXCHANGES {
        if i % BURST == 0 {
            std::thread::sleep(QUIET);
        }
        let start = Instant::now();
        let got = client.get_many(&keys).expect("multi-get");
        slowest = slowest.max(start.elapsed());
        assert!(got
            .iter()
            .all(|v| v.as_ref().is_ok_and(|v| v.len() == STRIPE)));
    }
    let delayed = delayed_acks().expect("counter was readable") - before;
    server.shutdown();
    assert!(
        delayed <= MAX_DELAYED_ACKS,
        "{EXCHANGES} sequential {STRIPES}-stripe multi-gets left {delayed} response tails to \
         the delayed-ACK timer (bar: {MAX_DELAYED_ACKS})"
    );
    assert!(
        slowest <= MAX_EXCHANGE,
        "slowest of {EXCHANGES} {STRIPES}-stripe multi-gets took {slowest:?} (bar: {MAX_EXCHANGE:?})"
    );
}
