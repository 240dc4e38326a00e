//! End-to-end striped throughput with and without concurrent per-server
//! fan-out (paper §3.2.2: symmetrical striping should use the bisection
//! bandwidth of *all* N servers at once).
//!
//! A MemFS mount writes and reads an 8 MiB file over 1/2/4/8 in-process
//! servers whose clients are latency/bandwidth-shaped like gigabit
//! Ethernet (200 µs RTT, 117 MB/s per server — unshaped RAM copies are
//! too fast for the network overlap to matter). Each server count is
//! measured twice:
//!
//! * `sequential` — `io_parallelism = 1`, a submit window of one: the
//!   per-server batches are visited one at a time;
//! * `parallel` — `io_parallelism = 0` (auto: unlimited window), every
//!   per-server batch on the wire simultaneously.
//!
//! `BENCH_pr3.json` records parallel reads at ≈ 3.7x sequential at 4
//! servers; that per-server batches really are on the wire together is
//! pinned by `crates/core/tests/fanout.rs`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use memfs_core::{MemFs, MemFsConfig};
use memfs_memkv::client::Shaping;
use memfs_memkv::{KvClient, LocalClient, Store, StoreConfig, ThrottledClient};

const FILE_BYTES: usize = 8 << 20;

fn shaped_servers(n: usize) -> Vec<Arc<dyn KvClient>> {
    (0..n)
        .map(|_| {
            let store = Arc::new(Store::new(StoreConfig::default()));
            Arc::new(ThrottledClient::new(
                LocalClient::new(store),
                Shaping::gbe_like(),
            )) as Arc<dyn KvClient>
        })
        .collect()
}

fn config(io_parallelism: usize) -> MemFsConfig {
    MemFsConfig::default().with_io_parallelism(io_parallelism)
}

fn write_file(fs: &MemFs, path: &str) {
    let payload = vec![0xA5u8; 1 << 20];
    let mut w = fs.create(path).expect("create");
    let mut left = FILE_BYTES;
    while left > 0 {
        let n = left.min(payload.len());
        w.write_all(&payload[..n]).expect("write");
        left -= n;
    }
    w.close().expect("close");
}

fn read_file(fs: &MemFs, path: &str) {
    // Window-sized reads (8 stripes) keep every batch wide enough to span
    // all servers — smaller reads cap the fan-out at the number of
    // stripes the sliding prefetch window advances per call.
    let r = fs.open(path).expect("open");
    let mut buf = vec![0u8; 4 << 20];
    let mut off = 0u64;
    while off < FILE_BYTES as u64 {
        let n = r.read_at(off, &mut buf).expect("read");
        assert!(n > 0);
        off += n as u64;
    }
}

fn bench_fanout(c: &mut Criterion) {
    for (mode, io_parallelism) in [("sequential", 1usize), ("parallel", 0usize)] {
        let mut group = c.benchmark_group(format!("fanout_write_{mode}"));
        group.sample_size(10);
        group.throughput(Throughput::Bytes(FILE_BYTES as u64));
        for n_servers in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::from_parameter(n_servers),
                &n_servers,
                |b, &n| {
                    let mut file = 0usize;
                    b.iter(|| {
                        // Write-once files: fresh path per iteration, fresh
                        // mount so the measurement includes the drain.
                        let fs = MemFs::new(shaped_servers(n), config(io_parallelism))
                            .expect("valid config");
                        file += 1;
                        write_file(&fs, &format!("/w{file}.dat"));
                    })
                },
            );
        }
        group.finish();

        let mut group = c.benchmark_group(format!("fanout_read_{mode}"));
        group.sample_size(10);
        group.throughput(Throughput::Bytes(FILE_BYTES as u64));
        for n_servers in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::from_parameter(n_servers),
                &n_servers,
                |b, &n| {
                    let fs = MemFs::new(shaped_servers(n), config(io_parallelism))
                        .expect("valid config");
                    write_file(&fs, "/r.dat");
                    b.iter(|| {
                        // Each open gets a cold prefetch cache, so every
                        // iteration re-fetches all stripes from the servers.
                        read_file(&fs, "/r.dat");
                    })
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
