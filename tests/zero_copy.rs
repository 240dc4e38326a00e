//! Byte-accounting proof of the one-copy write path. The transport's
//! audit counter ([`memfs::memkv::audit::staged_bytes`]) is bumped at
//! every point where a payload byte is *staged* — copied into an
//! intermediate buffer between the caller and the socket. A
//! `Bytes`-backed write of stripe-aligned data must stage (almost)
//! nothing: stripes ride the shared buffer straight into the vectored
//! socket writer. A borrowed-slice write stages each byte exactly once.
//!
//! The counter is process-global, so this binary holds a single test —
//! parallel tests in the same process would race the deltas.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use bytes::Bytes;
use memfs::memfs_core::{MemFs, MemFsConfig};
use memfs::memkv::audit::{rx_copied_bytes, staged_bytes};
use memfs::memkv::net::{KvServer, TcpClient};
use memfs::memkv::{KvClient, Store, StoreConfig};

const STRIPE: usize = 64 * 1024;

/// Slack for metadata traffic (inode and manifest records are small
/// values, which the wire encoder legitimately inlines into the frame
/// head) — well under one stripe.
const SLACK: u64 = 4096;

#[test]
fn bytes_writes_stage_nothing_and_slice_writes_stage_once() {
    let mut servers: Vec<KvServer> = (0..4)
        .map(|_| {
            KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0")
                .expect("bind storage server")
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let config = MemFsConfig {
        stripe_size: STRIPE,
        ..MemFsConfig::default()
    };
    let fs = MemFs::connect(&addrs, config).unwrap();

    let data: Vec<u8> = (0..4 * STRIPE).map(|i| (i % 251) as u8).collect();

    // Stripe-aligned Bytes: zero payload staging. Each 64 KiB stripe is
    // split off the shared buffer (O(1) view), framed as an owned
    // segment, and written to the socket via iovecs.
    let owned = Bytes::from(data.clone());
    let before = staged_bytes();
    fs.write_file_bytes("/zero-copy", owned).unwrap();
    let staged = staged_bytes() - before;
    assert!(
        staged < SLACK,
        "Bytes write of {} payload bytes staged {staged} — a copy crept into the path",
        data.len()
    );

    // Borrowed slice: the caller's buffer must be staged into stripe
    // buffers exactly once — no less (it IS copied) and no more (it is
    // not copied again downstream).
    let before = staged_bytes();
    fs.write_file("/one-copy", &data).unwrap();
    let staged = staged_bytes() - before;
    assert!(
        staged >= data.len() as u64 && staged < data.len() as u64 + SLACK,
        "slice write of {} bytes staged {staged} — expected exactly one copy",
        data.len()
    );

    // A file shorter than a stripe is built as its size record inside the
    // stripe buffer: still one copy, none more to wrap it in the record.
    let small = &data[..STRIPE / 8];
    let before = staged_bytes();
    fs.write_file("/inline", small).unwrap();
    let staged = staged_bytes() - before;
    assert!(
        staged >= small.len() as u64 && staged < small.len() as u64 + SLACK,
        "inline write of {} bytes staged {staged} — expected exactly one copy",
        small.len()
    );

    // The cheap path must still be the correct path.
    assert_eq!(fs.read_to_vec("/zero-copy").unwrap(), data);
    assert_eq!(fs.read_to_vec("/one-copy").unwrap(), data);
    assert_eq!(fs.read_to_vec("/inline").unwrap(), small);
    drop(fs);

    // Read-path audit, small values. A lone value frame of at least 4 KiB
    // hands the receive buffer over as a shared `Bytes` — no memcpy even
    // below the old 64 KiB bar. Truly small values (here 64 B) still copy
    // out on purpose (handing over the buffer would pin its whole
    // allocation behind a tiny cached value), and that copy is the only
    // one — the audit counter must account for it exactly.
    let client = TcpClient::connect(addrs[0]).unwrap();
    let small = Bytes::from(vec![7u8; 4096]);
    let tiny = Bytes::from(vec![9u8; 64]);
    client.set(b"small4k", small.clone()).unwrap();
    client.set(b"tiny", tiny.clone()).unwrap();

    let before = rx_copied_bytes();
    for _ in 0..32 {
        assert_eq!(client.get(b"small4k").unwrap(), small);
    }
    let copied = rx_copied_bytes() - before;
    assert!(
        copied < SLACK,
        "32 lone 4 KiB reads copied {copied} payload bytes — expected zero-copy"
    );

    let before = rx_copied_bytes();
    for _ in 0..32 {
        assert_eq!(client.get(b"tiny").unwrap(), tiny);
    }
    let copied = rx_copied_bytes() - before;
    assert!(
        (32 * 64..32 * 64 + SLACK).contains(&copied),
        "32 tiny reads copied {copied} bytes — expected exactly one copy each"
    );

    for s in &mut servers {
        s.shutdown();
    }
}
