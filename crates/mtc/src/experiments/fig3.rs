//! Figure 3 — the MemFS design-decision experiments, run on the **real**
//! engine (`memfs-core` moving actual bytes) over four in-process servers,
//! each a `memkv` [`SimClient`] behind the DAS4 IPoIB link the simulated
//! figures use ([`NetProfile::das4_ipoib`]: one request cost per batch,
//! payload over the NIC bandwidth, one in-order stream per server), timed
//! on their shared virtual clock.
//!
//! * Figure 3a: stripe size (128 KB - 1 MB) vs write/read bandwidth —
//!   the sweep behind the paper's 512 KB choice.
//! * Figure 3b: buffering and prefetching depth vs bandwidth, including
//!   the no-buffering and no-prefetching baselines. The paper's x-axis is
//!   the thread count of its buffering and prefetching pools; what those
//!   threads bought is stripes in flight per open file, and that is the
//!   axis here — a mount has no I/O threads to count (its transport's
//!   event loop carries every request).
//!
//! Nothing sleeps and no host clock is read, so a figure depends only on
//! the engine and on the link: two runs print the same bytes. The
//! *shapes* (write bandwidth growing with stripe size, depth scaling
//! saturating) are the reproduction target.

use std::sync::Arc;
use std::time::Duration;

use memfs_core::{MemFs, MemFsConfig};
use memfs_memkv::{KvClient, SimClient, SimClock, Store, StoreConfig};
use memfs_netsim::NetProfile;

use crate::report;

/// One Figure 3a point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3aRow {
    /// Stripe size in bytes.
    pub stripe_bytes: usize,
    /// Write bandwidth, bytes/s.
    pub write_bw: f64,
    /// Read bandwidth, bytes/s.
    pub read_bw: f64,
}

/// One Figure 3b point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3bRow {
    /// Stripes in flight per open file: the reader's prefetch window, the
    /// writer's buffer.
    pub depth: usize,
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

/// Measure write and read bandwidth for one configuration over four fresh
/// servers behind the IPoIB link, reading `read_chunk` bytes per
/// `read_at`.
fn measure(config: MemFsConfig, file_bytes: usize, read_chunk: usize) -> (f64, f64) {
    let ipoib = NetProfile::das4_ipoib();
    let request_cost = Duration::from_nanos(ipoib.request_cost().as_nanos());
    let clock = SimClock::default();
    let servers = (0..4)
        .map(|_| {
            let store = Arc::new(Store::new(StoreConfig::default()));
            let link = SimClient::linked(store, &clock, request_cost, ipoib.nic_bw.bytes_per_s());
            Arc::new(link) as Arc<dyn KvClient>
        })
        .collect();
    let fs = MemFs::new(servers, config).expect("valid config");
    let payload = vec![0xA5u8; 1 << 20];
    let mut w = fs.create("/bench.dat").expect("create");
    let mut left = file_bytes;
    let start = clock.now();
    while left > 0 {
        let n = left.min(payload.len());
        w.write_all(&payload[..n]).expect("write");
        left -= n;
    }
    w.close().expect("close");
    let write_secs = (clock.now() - start).as_secs_f64();

    // Fresh handle => fresh prefetch cache (a different reader node).
    let r = fs.open("/bench.dat").expect("open");
    let mut buf = vec![0u8; read_chunk];
    let start = clock.now();
    let mut off = 0u64;
    while off < file_bytes as u64 {
        let n = r.read_at(off, &mut buf).expect("read");
        assert!(n > 0);
        off += n as u64;
    }
    let read_secs = (clock.now() - start).as_secs_f64();
    (
        file_bytes as f64 / write_secs,
        file_bytes as f64 / read_secs,
    )
}

/// Run the Figure 3a stripe-size sweep.
pub fn run_fig3a(file_bytes: usize) -> Vec<Fig3aRow> {
    [128usize, 256, 512, 1024]
        .iter()
        .map(|&kib| {
            let stripe = kib << 10;
            let config = MemFsConfig {
                stripe_size: stripe,
                write_buffer_size: 8 << 20,
                read_cache_size: 8 << 20,
                prefetch_window: 8,
                ..MemFsConfig::default()
            };
            let (write_bw, read_bw) = measure(config, file_bytes, 1 << 20);
            Fig3aRow {
                stripe_bytes: stripe,
                write_bw,
                read_bw,
            }
        })
        .collect()
}

/// Run the Figure 3b depth sweep: k ∈ {1, 2, 4, 8} stripes in flight
/// per open file.
pub fn run_fig3b(file_bytes: usize) -> Vec<Fig3bRow> {
    let stripe = 512 << 10;
    let at_depth = |depth: usize| MemFsConfig {
        stripe_size: stripe,
        write_buffer_size: depth * stripe,
        read_cache_size: 8 << 20,
        prefetch_window: depth,
        ..MemFsConfig::default()
    };
    // No prefetching: the synchronous reader the figure means, one
    // stripe per `read_at` and so one round trip per stripe.
    let noprefetch = at_depth(1).without_prefetch();
    let (_, read_noprefetch_bw) = measure(noprefetch, file_bytes, stripe);
    let measured: Vec<(usize, f64, f64)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&depth| {
            let (write_bw, read_bw) = measure(at_depth(depth), file_bytes, 1 << 20);
            (depth, write_bw, read_bw)
        })
        .collect();
    // No buffering is depth 1: the write buffer holds a single stripe, so
    // each stripe is stored before the one after the next can start.
    let write_nobuf_bw = measured[0].1;
    measured
        .into_iter()
        .map(|(depth, write_bw, read_bw)| Fig3bRow {
            depth,
            write_bw,
            write_nobuf_bw,
            read_bw,
            read_noprefetch_bw,
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
                r.depth.to_string(),
                report::mbps(r.write_bw),
                report::mbps(r.write_nobuf_bw),
                report::mbps(r.read_bw),
                report::mbps(r.read_noprefetch_bw),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "Depth",
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

    #[test]
    fn fig3a_rows_cover_stripe_sizes() {
        let rows = run_fig3a(2 << 20);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].stripe_bytes, 128 << 10);
        assert!(rows.iter().all(|r| r.write_bw > 0.0 && r.read_bw > 0.0));
        assert!(render_fig3a(&rows).contains("512 KB"));
    }

    #[test]
    fn fig3b_prefetch_helps_under_latency() {
        // Prefetching must beat the synchronous read path at 4 stripes in
        // flight.
        let rows = run_fig3b(4 << 20);
        let r4 = rows.iter().find(|r| r.depth == 4).unwrap();
        assert!(
            r4.read_bw > r4.read_noprefetch_bw,
            "prefetch {} <= sync {}",
            r4.read_bw,
            r4.read_noprefetch_bw
        );
        assert!(render_fig3b(&rows).contains("no prefetch"));
    }
}
