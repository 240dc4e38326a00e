//! Quickstart: mount MemFS over a handful of in-process storage servers,
//! write once, read many.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use memfs::memfs_core::{MemFs, MemFsConfig, MemFsError};
use memfs::memkv::{KvClient, SimClient, Store, StoreConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four storage "nodes": each exposes its DRAM through a
    // memcached-style store (paper §3.1.1), reached in process over a
    // link that costs nothing (`SimClient::new`).
    let stores: Vec<Arc<Store>> = (0..4)
        .map(|_| Arc::new(Store::new(StoreConfig::default())))
        .collect();
    let servers: Vec<Arc<dyn KvClient>> = stores
        .iter()
        .map(|s| Arc::new(SimClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
        .collect();

    // Mount. Defaults are the paper's design points: 512 KiB stripes,
    // 8 MiB write buffer and read cache, distributed modulo hashing.
    let fs = MemFs::new(servers, MemFsConfig::default())?;

    // Write once (buffered, striped across all four servers)...
    fs.mkdir("/results")?;
    let mut writer = fs.create("/results/answer.dat")?;
    for chunk in 0..8 {
        let payload = vec![chunk as u8; 256 * 1024];
        writer.write_all(&payload)?;
    }
    writer.close()?; // drains the write buffer, publishes the size

    // ...read many, from any mount, in any order (POSIX reads, §3.2.3).
    let reader = fs.open("/results/answer.dat")?;
    println!("file size: {} bytes", reader.size());
    let mut buf = vec![0u8; 1024];
    let n = reader.read_at(5 * 256 * 1024, &mut buf)?;
    println!(
        "read {} bytes at offset 1.25 MiB: first byte = {}",
        n, buf[0]
    );
    assert_eq!(buf[0], 5);

    // Directory listing comes from the append-only directory log.
    for entry in fs.readdir("/results")? {
        println!("/results/{} ({:?})", entry.name, entry.kind);
    }

    // Write-once is enforced: a second create of the same path fails.
    match fs.create("/results/answer.dat") {
        Err(MemFsError::WriteOnce(path)) => {
            println!("write-once enforced for {path}");
        }
        other => panic!("expected a write-once violation, got {other:?}"),
    }

    // The whole point: the file's stripes are spread evenly, so no node's
    // memory is a hotspot.
    println!("\nper-server bytes stored (symmetric data distribution):");
    for (i, store) in stores.iter().enumerate() {
        println!("  server {}: {} bytes", i, store.bytes_used());
    }
    Ok(())
}
