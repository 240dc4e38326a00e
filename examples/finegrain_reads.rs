//! The paper's Figure 16 from the real stack: application bandwidth vs
//! system (wire) bandwidth for fine-grain reads. One default mount over
//! four TCP storage servers reads 4 KiB blocks of a 64 MiB file — 4000 at
//! random offsets, then all of them front to back — and prints the bytes
//! the application asked for beside the bytes the mount's sockets received.
//!
//! ```text
//! cargo run --release --example finegrain_reads
//! ```
//!
//! Random reads should move about one wire byte per user byte (a ranged
//! `getrange` per read); the sequential pass moves each 512 KiB stripe
//! once and serves the other 127 reads of it from the prefetch cache.

use std::sync::Arc;
use std::time::Instant;

use memfs::memfs_core::{MemFs, MemFsConfig, ReadHandle};
use memfs::memkv::net::KvServer;
use memfs::memkv::{Store, StoreConfig};

const FILE: usize = 64 << 20;
const BLOCK: usize = 4 << 10;
const READS: usize = 4000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let servers: Vec<KvServer> = (0..4)
        .map(|_| KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let fs = MemFs::connect(&addrs, MemFsConfig::default())?;
    let payload: Vec<u8> = (0..FILE).map(|i| (i * 31 % 251) as u8).collect();
    fs.write_file("/blob", &payload)?;
    let rx = || -> u64 { fs.pool().reactor_stats().iter().map(|r| r.bytes_rx).sum() };

    // Seeded xorshift: block-aligned offsets, uniform over the file.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let random: Vec<usize> = (0..READS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as usize % (FILE / BLOCK)) * BLOCK
        })
        .collect();
    let sequential: Vec<usize> = (0..FILE / BLOCK).map(|i| i * BLOCK).collect();

    println!("4 KiB read_at over 4 TCP servers, 512 KiB stripes:");
    for (name, offsets) in [("random", random), ("sequential", sequential)] {
        let handle: ReadHandle = fs.open("/blob")?;
        let (before, start) = (rx(), Instant::now());
        let mut buf = [0u8; BLOCK];
        for &offset in &offsets {
            assert_eq!(handle.read_at(offset as u64, &mut buf)?, BLOCK);
            assert_eq!(buf[..], payload[offset..offset + BLOCK], "read at {offset}");
        }
        let (secs, wire) = (start.elapsed().as_secs_f64(), (rx() - before) as f64);
        let app = (offsets.len() * BLOCK) as f64;
        println!(
            "  {name:<10} application {:7.1} MiB/s   wire {:7.1} MiB/s   {:6.2} wire bytes per user byte",
            app / secs / (1 << 20) as f64,
            wire / secs / (1 << 20) as f64,
            wire / app,
        );
    }
    Ok(())
}
