//! Record the concurrent fan-out speedup to JSON (`BENCH_pr3.json`).
//!
//! Same experiment as `benches/fanout.rs`, self-timed so CI can run it in
//! seconds and check the acceptance bars: over shaped in-process servers
//! (gigabit-Ethernet-like: 200 µs RTT, 117 MB/s per server), an 8 MiB
//! striped file is written and read with `io_parallelism = 1` (sequential
//! per-server dispatch) and `io_parallelism = 0` (auto: every server's
//! batch in the pool's submit window at once). On a transfer-dominated
//! link the fan-out
//! aggregates the per-server bandwidths, which is exactly the paper's
//! symmetry claim. Bars: at 4 servers, parallel read bandwidth ≥ 2.5x
//! and parallel write bandwidth ≥ 2x sequential.
//!
//! A third experiment reads the file back in single-stripe `read_at`
//! calls: small sequential reads must still engage every server, because
//! each batched read re-issues the full remaining prefetch window. The
//! bar is per-server read-batch balance (max/min ≤ 2) at 4 servers.
//!
//! Usage: `cargo run --release -p memfs-bench --bin fanout_record`
//! (writes the JSON document to stdout; `scripts/bench_record.sh`
//! redirects it to `BENCH_pr3.json` and enforces the bars).

use std::sync::Arc;
use std::time::Instant;

use memfs_core::{MemFs, MemFsConfig};
use memfs_memkv::client::Shaping;
use memfs_memkv::{KvClient, LocalClient, Store, StoreConfig, ThrottledClient};

const FILE_BYTES: usize = 8 << 20;
const SMALL_READ_BYTES: usize = 512 << 10; // one stripe per read_at
const SMALL_FILE_BYTES: usize = 32 << 20; // longer run: stable batch counts
const ROUNDS: usize = 3;

fn shaped_servers(n: usize) -> Vec<Arc<dyn KvClient>> {
    let shaping = Shaping::gbe_like();
    (0..n)
        .map(|_| {
            let store = Arc::new(Store::new(StoreConfig::default()));
            Arc::new(ThrottledClient::new(LocalClient::new(store), shaping)) as Arc<dyn KvClient>
        })
        .collect()
}

/// Best-of-`ROUNDS` write and read bandwidth (bytes/s) for one config.
fn measure(n_servers: usize, io_parallelism: usize) -> (f64, f64) {
    let payload = vec![0xA5u8; 1 << 20];
    let mut best_write = 0f64;
    let mut best_read = 0f64;
    for round in 0..ROUNDS {
        let config = MemFsConfig::default().with_io_parallelism(io_parallelism);
        let fs = MemFs::new(shaped_servers(n_servers), config).expect("valid config");
        let path = format!("/bench{round}.dat");

        let start = Instant::now();
        let mut w = fs.create(&path).expect("create");
        let mut left = FILE_BYTES;
        while left > 0 {
            let n = left.min(payload.len());
            w.write_all(&payload[..n]).expect("write");
            left -= n;
        }
        w.close().expect("close");
        best_write = best_write.max(FILE_BYTES as f64 / start.elapsed().as_secs_f64());

        // Fresh handle => cold prefetch cache; all stripes re-fetched.
        // Window-sized reads (8 stripes) keep every batch wide enough to
        // span all servers — smaller reads cap the fan-out at the number
        // of stripes the sliding prefetch window advances per call.
        let r = fs.open(&path).expect("open");
        let mut buf = vec![0u8; 4 << 20];
        let start = Instant::now();
        let mut off = 0u64;
        while off < FILE_BYTES as u64 {
            let n = r.read_at(off, &mut buf).expect("read");
            assert!(n > 0);
            off += n as u64;
        }
        best_read = best_read.max(FILE_BYTES as f64 / start.elapsed().as_secs_f64());
    }
    (best_write, best_read)
}

/// Sequential single-stripe reads through a cold handle: best-of-rounds
/// bandwidth plus the per-server read-batch counts of the best round.
fn measure_small_read(n_servers: usize) -> (f64, Vec<u64>) {
    let payload = vec![0x5Au8; 1 << 20];
    let mut best = 0f64;
    let mut best_batches: Vec<u64> = Vec::new();
    for round in 0..ROUNDS {
        let fs =
            MemFs::new(shaped_servers(n_servers), MemFsConfig::default()).expect("valid config");
        let path = format!("/small{round}.dat");
        let mut w = fs.create(&path).expect("create");
        let mut left = SMALL_FILE_BYTES;
        while left > 0 {
            let n = left.min(payload.len());
            w.write_all(&payload[..n]).expect("write");
            left -= n;
        }
        w.close().expect("close");

        let r = fs.open(&path).expect("open");
        let mut buf = vec![0u8; SMALL_READ_BYTES];
        let before: Vec<u64> = fs
            .pool()
            .stats()
            .snapshot()
            .iter()
            .map(|s| s.batches)
            .collect();
        let start = Instant::now();
        let mut off = 0u64;
        while off < SMALL_FILE_BYTES as u64 {
            let n = r.read_at(off, &mut buf).expect("read");
            assert!(n > 0);
            off += n as u64;
        }
        let bps = SMALL_FILE_BYTES as f64 / start.elapsed().as_secs_f64();
        let after: Vec<u64> = fs
            .pool()
            .stats()
            .snapshot()
            .iter()
            .map(|s| s.batches)
            .collect();
        if bps > best {
            best = bps;
            best_batches = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        }
    }
    (best, best_batches)
}

fn main() {
    let mut rows = String::new();
    let mut speedup_read_at_4 = 0f64;
    let mut speedup_write_at_4 = 0f64;
    for (i, n) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let (seq_write, seq_read) = measure(n, 1);
        let (par_write, par_read) = measure(n, 0);
        let write_speedup = par_write / seq_write;
        let read_speedup = par_read / seq_read;
        if n == 4 {
            speedup_read_at_4 = read_speedup;
            speedup_write_at_4 = write_speedup;
        }
        eprintln!(
            "servers={n}: write {:.0} -> {:.0} MB/s ({write_speedup:.2}x), \
             read {:.0} -> {:.0} MB/s ({read_speedup:.2}x)",
            seq_write / 1e6,
            par_write / 1e6,
            seq_read / 1e6,
            par_read / 1e6,
        );
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"servers\": {n}, \
             \"write_seq_bps\": {seq_write:.0}, \"write_par_bps\": {par_write:.0}, \
             \"write_speedup\": {write_speedup:.3}, \
             \"read_seq_bps\": {seq_read:.0}, \"read_par_bps\": {par_read:.0}, \
             \"read_speedup\": {read_speedup:.3}}}"
        ));
    }
    let (small_bps, small_batches) = measure_small_read(4);
    let min_b = small_batches.iter().copied().min().unwrap_or(0);
    let max_b = small_batches.iter().copied().max().unwrap_or(0);
    let balance = if min_b > 0 {
        max_b as f64 / min_b as f64
    } else {
        f64::INFINITY
    };
    eprintln!(
        "small reads at 4 servers: {:.0} MB/s, per-server read batches {:?} (balance {balance:.2})",
        small_bps / 1e6,
        small_batches,
    );

    let read_pass = speedup_read_at_4 >= 2.5;
    let write_pass = speedup_write_at_4 >= 2.0;
    let small_pass = min_b > 0 && balance <= 2.0;
    let pass = read_pass && write_pass && small_pass;
    let batches_json = small_batches
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\n  \"bench\": \"fanout\",\n  \"file_bytes\": {FILE_BYTES},\n  \
         \"shaping\": {{\"latency_us\": 200, \"bandwidth_bps\": 117e6}},\n  \
         \"rows\": [\n{rows}\n  ],\n  \
         \"small_read\": {{\"servers\": 4, \"file_bytes\": {SMALL_FILE_BYTES}, \
         \"bytes_per_call\": {SMALL_READ_BYTES}, \
         \"bps\": {small_bps:.0}, \"mget_batches\": [{batches_json}], \
         \"balance\": {balance:.3}, \"bar\": 2.0, \"pass\": {small_pass}}},\n  \
         \"acceptance\": {{\"metric\": \"read/write speedup and small-read balance at 4 servers\", \
         \"read_bar\": 2.5, \"read_speedup\": {speedup_read_at_4:.3}, \
         \"write_bar\": 2.0, \"write_speedup\": {speedup_write_at_4:.3}, \
         \"pass\": {pass}}}\n}}"
    );
    if !read_pass {
        eprintln!("FAIL: read speedup at 4 servers {speedup_read_at_4:.2}x < 2.5x");
    }
    if !write_pass {
        eprintln!("FAIL: write speedup at 4 servers {speedup_write_at_4:.2}x < 2.0x");
    }
    if !small_pass {
        eprintln!(
            "FAIL: small-read batches {small_batches:?} unbalanced (balance {balance:.2} > 2.0)"
        );
    }
    if !pass {
        std::process::exit(1);
    }
}
