//! Elastic scale-out — the paper's future-work scenario, working: write a
//! data set through a ketama-hashed mount, admit a storage server into
//! the **live** mount, migrate the minimal set of keys in the
//! background, and keep reading the whole time.
//!
//! ```text
//! cargo run --release --example elastic_scaleout
//! ```

use std::sync::Arc;

use memfs::memfs_core::{DistributorKind, MemFs, MemFsConfig};
use memfs::memkv::{KvClient, SimClient, Store, StoreConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = MemFsConfig {
        distributor: DistributorKind::Ketama {
            points_per_server: 160,
        },
        stripe_size: 64 << 10,
        ..MemFsConfig::default()
    };

    // Day 1: four in-process storage servers, each behind a free link.
    let stores: Vec<Arc<Store>> = (0..5)
        .map(|_| Arc::new(Store::new(StoreConfig::default())))
        .collect();
    let client = |s: &Arc<Store>| -> Arc<dyn KvClient> {
        Arc::new(SimClient::new(Arc::clone(s))) as Arc<dyn KvClient>
    };
    let fs = MemFs::new(stores[..4].iter().map(client).collect(), config)?;

    fs.mkdir("/dataset")?;
    for i in 0..32 {
        let data: Vec<u8> = (0..200_000usize).map(|b| ((b + i) % 251) as u8).collect();
        fs.write_file(&format!("/dataset/part{i:02}"), &data)?;
    }
    println!("wrote 32 files (~6.4 MB) over 4 servers");
    for (i, s) in stores[..4].iter().enumerate() {
        println!("  server {i}: {:>9} bytes", s.bytes_used());
    }

    // Storage pressure grows: admit server 4 into the live mount. Until
    // the migration commits, reads keep flowing from the old homes and
    // writes dual-route to the old and the new ones.
    let id = fs.add_server(client(&stores[4]))?;
    println!("\nadmitted server {} — migrating in the background", id.0);
    let mut moved = 0usize;
    let mut scanned = 0usize;
    let mut copied = 0u64;
    while fs.migration_active() {
        let report = fs.repair_now()?;
        moved += report.under_replicated;
        scanned = scanned.max(report.scanned_keys);
        copied += report.copied_bytes;
        // Live traffic during the migration: every file stays readable.
        let data = fs.read_to_vec("/dataset/part00")?;
        assert_eq!(data.len(), 200_000);
    }
    println!(
        "migrated: {} of {} keys moved ({:.0}%), {:.1} MB copied",
        moved,
        scanned,
        100.0 * moved as f64 / scanned.max(1) as f64,
        copied as f64 / 1e6,
    );

    // The same mount now routes over 5 servers.
    for i in 0..32 {
        let data = fs.read_to_vec(&format!("/dataset/part{i:02}"))?;
        assert_eq!(data.len(), 200_000);
    }
    println!("\nall files verified after scale-out; load now:");
    for (i, s) in stores.iter().enumerate() {
        println!("  server {i}: {:>9} bytes", s.bytes_used());
    }
    println!(
        "\nconsistent hashing moved only ~1/{} of the data — the modulo\n\
         scheme would have moved nearly all of it (see the hashing bench).",
        stores.len()
    );
    Ok(())
}
