//! The layer ladder: the same logical op — get or set one value — timed at
//! each layer's public entry against the same running servers, at value
//! sizes from 64 B to one 512 KiB stripe. A layer's *self time* is its rung
//! minus the rung below it.
//!
//! ```text
//! fs      MemFs::create / ReadHandle::read_at
//! pool    ServerPool::get / set / get_many / set_many   (4 servers)
//! net     TcpClient::get / set / get_many / set_many    (1 server)
//! proto   encode_request + RequestDecoder, encode_response
//! store   Store::get / set / get_many / append          (in process)
//! ```

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use memfs_core::meta::{encode_add, ChildKind};
use memfs_core::MemFs;
use memfs_memkv::proto::{encode_request, encode_response, Request, RequestDecoder, Response};
use memfs_memkv::{audit, KvClient, Store, StoreConfig, TcpClient};

use crate::cluster::Cluster;
use crate::gen::{Payload, MAX_SLICE};
use crate::metrics::{LADDER_SIZES, PER_LAYER};
use crate::stats::median;

/// Keys each single-key rung cycles over, so a rung touches every server
/// and more than one store shard.
const KEYS: usize = 64;
/// Keys per multi-key call: one 8 MiB file's worth of stripes.
const BATCH_KEYS: usize = 16;

/// Median time of one call of `f` in ns: `reps` calls, timed in batches of
/// `batch` so that a call of a few ns is not lost in the clock's own cost.
fn median_ns(reps: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(reps / batch);
    let mut i = 0;
    while i < reps {
        let t0 = Instant::now();
        for j in 0..batch {
            f(i + j);
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        i += batch;
    }
    median(&per_call)
}

fn keys(prefix: &str, n: usize) -> Vec<Bytes> {
    (0..n)
        .map(|i| Bytes::from(format!("ladder:{prefix}:{i:03}")))
        .collect()
}

/// The per-layer metric called `<prefix>.<size>`.
fn rung_name(prefix: &str, size: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_prefix(prefix).and_then(|r| r.strip_prefix('.')) == Some(size))
        .unwrap_or_else(|| panic!("no metric {prefix}.{size}"))
}

pub fn run(
    fs: &MemFs,
    cluster: &Cluster,
    payload: &Payload,
    quick: bool,
) -> Result<Vec<(&'static str, f64)>, String> {
    let reps = if quick { 64 } else { 2048 };
    let content = payload.file("ladder");
    let value = |size: usize| Bytes::copy_from_slice(content.slice(0, size));
    let stripe = value(MAX_SLICE);
    let mut rungs = std::collections::BTreeMap::<&'static str, f64>::new();
    let mut put = |name: &'static str, v: f64| {
        rungs.insert(name, v);
    };
    let kv = |e: memfs_memkv::KvError| format!("ladder: {e}");
    let mf = |e: memfs_core::MemFsError| format!("ladder: {e}");

    // ---- store: an in-process engine with the daemon's configuration.
    let store = Store::new(StoreConfig::default());
    for (suffix, size) in LADDER_SIZES {
        let (ks, v) = (keys(suffix, KEYS), value(size));
        let t = median_ns(reps, 64, |i| {
            store.set(&ks[i % KEYS], v.clone()).expect("store set");
        });
        put(rung_name("store.set_ns", suffix), t);
        let t = median_ns(reps, 64, |i| {
            black_box(store.get(&ks[i % KEYS]).expect("store get"));
        });
        put(rung_name("store.get_ns", suffix), t);
    }
    let batch = keys("512k", BATCH_KEYS);
    let t = median_ns(reps / BATCH_KEYS, 8, |_| {
        black_box(store.get_many(&batch));
    });
    put("store.get_many_ns_per_key", t / BATCH_KEYS as f64);
    let locks0 = audit::store_read_locks() + audit::store_write_locks();
    for i in 0..reps {
        black_box(store.get(&batch[i % BATCH_KEYS]).expect("store get"));
    }
    let locks = audit::store_read_locks() + audit::store_write_locks() - locks0;
    put("store.locks_per_get", locks as f64 / reps as f64);
    // Appending one 16-byte record to a 1000-entry directory log, which
    // `Store::append` re-copies whole. The log is reset (untimed) every
    // batch so it stays near 1000 entries.
    let dir_log: Vec<u8> = (0..1000)
        .flat_map(|i| encode_add(&format!("f{i:05}_abcd"), ChildKind::File))
        .collect();
    let record = encode_add("f01000_abcdefgh", ChildKind::File);
    let (dir_log, mut appends) = (Bytes::from(dir_log), Vec::new());
    for _ in 0..reps / 64 {
        store
            .set(b"ladder:dir", dir_log.clone())
            .expect("store set");
        appends.push(median_ns(64, 64, |_| {
            store.append(b"ladder:dir", &record).expect("store append");
        }));
    }
    put("store.append_ns.dir1000", median(&appends));

    // ---- proto: render and parse one `set`, render one `get` hit. The
    // response parser is private to the client reactor, so the response
    // rung is the server's half only.
    for (suffix, size) in [LADDER_SIZES[0], LADDER_SIZES[3]] {
        let key = Bytes::from_static(b"ladder:proto:000");
        let request = Request::Set {
            key: key.clone(),
            value: value(size),
            exptime: 0,
        };
        let mut decoder = RequestDecoder::new();
        let t = median_ns(reps, 16, |_| {
            decoder.feed(&encode_request(&request));
            black_box(decoder.next_request().expect("own frame parses"));
        });
        put(rung_name("proto.request_ns", suffix), t);
        let response = Response::Value {
            key,
            value: value(size),
            cas: None,
        };
        let t = median_ns(reps, 16, |_| {
            black_box(encode_response(&response));
        });
        put(rung_name("proto.response_ns", suffix), t);
    }

    // ---- net: one standalone client to one server.
    let net = TcpClient::connect(cluster.addrs[0]).map_err(kv)?;
    for (suffix, size) in LADDER_SIZES {
        let (ks, v) = (keys(suffix, KEYS), value(size));
        for k in &ks {
            net.set(k, v.clone()).map_err(kv)?;
        }
        let t = median_ns(reps, 1, |i| {
            net.set(&ks[i % KEYS], v.clone()).expect("net set");
        });
        put(rung_name("net.set_us", suffix), t / 1e3);
        let t = median_ns(reps, 1, |i| {
            black_box(net.get(&ks[i % KEYS]).expect("net get"));
        });
        put(rung_name("net.get_us", suffix), t / 1e3);
    }
    let items: Vec<(Bytes, Bytes)> = batch.iter().map(|k| (k.clone(), stripe.clone())).collect();
    let t = median_ns(reps / BATCH_KEYS, 1, |_| {
        net.set_many(&items).expect("net set_many");
    });
    put("net.set_many_us_per_key", t / 1e3 / BATCH_KEYS as f64);
    let t = median_ns(reps / BATCH_KEYS, 1, |_| {
        black_box(net.get_many(&batch).expect("net get_many"));
    });
    put("net.get_many_us_per_key", t / 1e3 / BATCH_KEYS as f64);
    for (suffix, _) in LADDER_SIZES {
        let ks = keys(suffix, KEYS);
        for r in net.delete_many(&ks).map_err(kv)? {
            r.map_err(kv)?;
        }
    }
    drop(net);

    // ---- pool: the mount's own pool, routing over all servers.
    let pool = Arc::clone(fs.pool());
    let t = median_ns(reps, 64, |i| {
        black_box(pool.server_for(&batch[i % BATCH_KEYS]));
    });
    put("hashring.lookup_ns", t);
    for (suffix, size) in LADDER_SIZES {
        let (ks, v) = (keys(suffix, KEYS), value(size));
        for k in &ks {
            pool.set(k, v.clone()).map_err(mf)?;
        }
        let t = median_ns(reps, 1, |i| {
            pool.set(&ks[i % KEYS], v.clone()).expect("pool set");
        });
        put(rung_name("pool.set_us", suffix), t / 1e3);
        let t = median_ns(reps, 1, |i| {
            black_box(pool.get(&ks[i % KEYS]).expect("pool get"));
        });
        put(rung_name("pool.get_us", suffix), t / 1e3);
    }
    let t = median_ns(reps / BATCH_KEYS, 1, |_| {
        pool.set_many(&items).expect("pool set_many");
    });
    put("pool.set_many_us_per_key", t / 1e3 / BATCH_KEYS as f64);
    let t = median_ns(reps / BATCH_KEYS, 1, |_| {
        for r in pool.get_many(&batch) {
            black_box(r.expect("pool get_many"));
        }
    });
    put("pool.get_many_us_per_key", t / 1e3 / BATCH_KEYS as f64);
    for (suffix, _) in LADDER_SIZES {
        for r in pool.delete_many(&keys(suffix, KEYS)) {
            r.map_err(mf)?;
        }
    }

    // ---- fs: create (metadata round trips only) and a one-stripe read.
    let creates = reps.min(256);
    fs.mkdir("/ladder").map_err(mf)?;
    let ops_before = server_ops(cluster)?;
    let mut handles = Vec::with_capacity(creates);
    let mut create_ns = Vec::with_capacity(creates);
    for i in 0..creates {
        let t0 = Instant::now();
        let handle = fs.create(&format!("/ladder/c{i:04}")).map_err(mf)?;
        create_ns.push(t0.elapsed().as_nanos() as f64);
        handles.push(handle);
    }
    // The closing sample's own `stats` requests are the only probe ops
    // between the two samples.
    let ops_per_create =
        (server_ops(cluster)? - ops_before - cluster.addrs.len() as u64) as f64 / creates as f64;
    for mut handle in handles {
        handle.close().map_err(mf)?;
    }
    let stripe_files: Vec<String> = (0..KEYS).map(|i| format!("/ladder/s{i:03}")).collect();
    for name in &stripe_files {
        fs.write_file_bytes(name, stripe.clone()).map_err(mf)?;
    }
    let mut buf = vec![0u8; MAX_SLICE];
    let mut read_ns = Vec::with_capacity(reps);
    for i in 0..reps {
        // A fresh handle per read: its cache is empty, the file has one
        // stripe, so the read is exactly one 512 KiB get.
        let handle = fs.open(&stripe_files[i % KEYS]).map_err(mf)?;
        let t0 = Instant::now();
        let n = handle.read_at(0, &mut buf).map_err(mf)?;
        read_ns.push(t0.elapsed().as_nanos() as f64);
        if n != MAX_SLICE || buf[..] != stripe[..] {
            return Err("ladder: one-stripe read returned wrong bytes".into());
        }
    }
    for i in 0..creates {
        fs.unlink(&format!("/ladder/c{i:04}")).map_err(mf)?;
    }
    for name in &stripe_files {
        fs.unlink(name).map_err(mf)?;
    }
    fs.rmdir("/ladder").map_err(mf)?;

    // ---- self times: each rung minus the rung below.
    let r = |name: &str| rungs[name];
    let derived = [
        ("net.rtt_us", r("net.get_us.64")),
        (
            "net.self_us.64",
            r("net.get_us.64")
                - (r("proto.request_ns.64") + r("proto.response_ns.64") + r("store.get_ns.64"))
                    / 1e3,
        ),
        (
            "net.self_us.512k",
            r("net.get_us.512k")
                - (r("proto.request_ns.64") + r("proto.response_ns.512k") + r("store.get_ns.512k"))
                    / 1e3,
        ),
        ("pool.self_us.64", r("pool.get_us.64") - r("net.get_us.64")),
        (
            "pool.self_us.512k",
            r("pool.get_us.512k") - r("net.get_us.512k"),
        ),
        (
            "fs.self_us.create",
            median(&create_ns) / 1e3 - ops_per_create * r("pool.get_us.64"),
        ),
        (
            "fs.self_us.stripe_read",
            median(&read_ns) / 1e3 - r("pool.get_us.512k"),
        ),
    ];
    rungs.extend(derived);
    Ok(rungs.into_iter().collect())
}

/// Σ `server_ops` over the servers (the sample's own requests included).
fn server_ops(cluster: &Cluster) -> Result<u64, String> {
    Ok(cluster
        .stats()
        .map_err(|e| format!("ladder: stats: {e}"))?
        .iter()
        .map(|s| s.get("server_ops").copied().unwrap_or(0))
        .sum())
}
