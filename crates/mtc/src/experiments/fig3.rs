//! Figure 3 — the MemFS design-decision experiments, run on the **real**
//! engine (`memfs-core` moving actual bytes), with remote-server costs
//! emulated by `memkv`'s latency/bandwidth-shaping client.
//!
//! * Figure 3a: stripe size (128 KB - 1 MB) vs write/read bandwidth —
//!   the sweep behind the paper's 512 KB choice.
//! * Figure 3b: number of buffering/prefetching threads vs bandwidth,
//!   including the no-buffering and no-prefetching baselines.
//!
//! These measure wall-clock time on the host, so absolute numbers depend
//! on the machine; the *shapes* (write bandwidth growing with stripe
//! size, reads flat in stripe size, thread scaling saturating) are the
//! reproduction target.

use std::sync::Arc;
use std::time::Instant;

use memfs_core::{MemFs, MemFsConfig};
use memfs_memkv::client::Shaping;
use memfs_memkv::{KvClient, LocalClient, Store, StoreConfig, ThrottledClient};
use serde::Serialize;

use crate::report;

/// One Figure 3a point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3aRow {
    /// Stripe size in bytes.
    pub stripe_bytes: usize,
    /// Write bandwidth, bytes/s.
    pub write_bw: f64,
    /// Read bandwidth, bytes/s.
    pub read_bw: f64,
}

/// One Figure 3b point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3bRow {
    /// Thread-pool size.
    pub threads: usize,
    /// Write bandwidth with buffering, bytes/s.
    pub write_bw: f64,
    /// Write bandwidth with the buffer reduced to one stripe
    /// (no-buffering baseline), bytes/s.
    pub write_nobuf_bw: f64,
    /// Read bandwidth with prefetching, bytes/s.
    pub read_bw: f64,
    /// Read bandwidth with prefetching disabled, bytes/s.
    pub read_noprefetch_bw: f64,
}

/// Build a pool of `n` shaped in-process servers.
fn shaped_servers(n: usize, shaping: Shaping) -> Vec<Arc<dyn KvClient>> {
    (0..n)
        .map(|_| {
            let store = Arc::new(Store::new(StoreConfig::default()));
            Arc::new(ThrottledClient::new(LocalClient::new(store), shaping)) as Arc<dyn KvClient>
        })
        .collect()
}

/// Measure write and read bandwidth for one configuration.
fn measure(config: MemFsConfig, servers: Vec<Arc<dyn KvClient>>, file_bytes: usize) -> (f64, f64) {
    let fs = MemFs::new(servers, config).expect("valid config");
    let payload = vec![0xA5u8; 1 << 20];
    let mut w = fs.create("/bench.dat").expect("create");
    let mut left = file_bytes;
    let start = Instant::now();
    while left > 0 {
        let n = left.min(payload.len());
        w.write_all(&payload[..n]).expect("write");
        left -= n;
    }
    w.close().expect("close");
    let write_secs = start.elapsed().as_secs_f64();

    // Fresh handle => fresh prefetch cache (a different reader node).
    let r = fs.open("/bench.dat").expect("open");
    let mut buf = vec![0u8; 1 << 20];
    let start = Instant::now();
    let mut off = 0u64;
    while off < file_bytes as u64 {
        let n = r.read_at(off, &mut buf).expect("read");
        assert!(n > 0);
        off += n as u64;
    }
    let read_secs = start.elapsed().as_secs_f64();
    (
        file_bytes as f64 / write_secs,
        file_bytes as f64 / read_secs,
    )
}

/// Run the Figure 3a stripe-size sweep.
pub fn run_fig3a(file_bytes: usize, shaping: Shaping) -> Vec<Fig3aRow> {
    [128usize, 256, 512, 1024]
        .iter()
        .map(|&kib| {
            let stripe = kib << 10;
            let config = MemFsConfig {
                stripe_size: stripe,
                write_buffer_size: 8 << 20,
                read_cache_size: 8 << 20,
                io_threads: 4,
                prefetch_window: 8,
                ..MemFsConfig::default()
            };
            let (write_bw, read_bw) = measure(config, shaped_servers(4, shaping), file_bytes);
            Fig3aRow {
                stripe_bytes: stripe,
                write_bw,
                read_bw,
            }
        })
        .collect()
}

/// Run the Figure 3b thread sweep.
pub fn run_fig3b(file_bytes: usize, shaping: Shaping) -> Vec<Fig3bRow> {
    (1usize..=8)
        .map(|threads| {
            let base = MemFsConfig {
                stripe_size: 512 << 10,
                write_buffer_size: 8 << 20,
                read_cache_size: 8 << 20,
                io_threads: threads,
                prefetch_window: 8,
                ..MemFsConfig::default()
            };
            let (write_bw, read_bw) = measure(base.clone(), shaped_servers(4, shaping), file_bytes);

            // No buffering: the write buffer holds a single stripe, so
            // each stripe is stored synchronously before the next fills.
            let mut nobuf = base.clone();
            nobuf.write_buffer_size = nobuf.stripe_size;
            let (write_nobuf_bw, _) = measure(nobuf, shaped_servers(4, shaping), file_bytes);

            // No prefetching. The figure's baseline is a synchronous
            // reader fetching one stripe per round trip, so pin the
            // dispatcher to sequential dispatch — otherwise a read
            // spanning several stripes fans out to all servers at once
            // and the baseline stops being a no-concurrency reader.
            let noprefetch = base.without_prefetch().with_io_parallelism(1);
            let (_, read_noprefetch_bw) =
                measure(noprefetch, shaped_servers(4, shaping), file_bytes);

            Fig3bRow {
                threads,
                write_bw,
                write_nobuf_bw,
                read_bw,
                read_noprefetch_bw,
            }
        })
        .collect()
}

/// Render Figure 3a.
pub fn render_fig3a(rows: &[Fig3aRow]) -> String {
    let mut out = String::from("Figure 3a: stripe size influence on MemFS I/O (MB/s)\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} KB", r.stripe_bytes >> 10),
                report::mbps(r.write_bw),
                report::mbps(r.read_bw),
            ]
        })
        .collect();
    out.push_str(&report::table(&["Stripe", "Write", "Read"], &table_rows));
    out
}

/// Render Figure 3b.
pub fn render_fig3b(rows: &[Fig3bRow]) -> String {
    let mut out = String::from("Figure 3b: buffering and prefetching effect (MB/s)\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                report::mbps(r.write_bw),
                report::mbps(r.write_nobuf_bw),
                report::mbps(r.read_bw),
                report::mbps(r.read_noprefetch_bw),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "Threads",
            "Write",
            "Write (no buf)",
            "Read",
            "Read (no prefetch)",
        ],
        &table_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fast_shaping() -> Shaping {
        // Keep test wall-time low while still exercising the shaped path.
        Shaping {
            latency: Duration::from_micros(30),
            bandwidth: 2e9,
        }
    }

    #[test]
    fn fig3a_rows_cover_stripe_sizes() {
        let rows = run_fig3a(2 << 20, fast_shaping());
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].stripe_bytes, 128 << 10);
        assert!(rows.iter().all(|r| r.write_bw > 0.0 && r.read_bw > 0.0));
        assert!(render_fig3a(&rows).contains("512 KB"));
    }

    #[test]
    fn fig3b_prefetch_helps_under_latency() {
        // With real per-request latency, prefetching must beat the
        // synchronous read path at >= 4 threads.
        let shaping = Shaping {
            latency: Duration::from_micros(400),
            bandwidth: 2e9,
        };
        let rows = run_fig3b(4 << 20, shaping);
        let r4 = rows.iter().find(|r| r.threads == 4).unwrap();
        assert!(
            r4.read_bw > r4.read_noprefetch_bw,
            "prefetch {} <= sync {}",
            r4.read_bw,
            r4.read_noprefetch_bw
        );
        assert!(render_fig3b(&rows).contains("no prefetch"));
    }
}
