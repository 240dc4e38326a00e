//! A genuinely distributed MemFS: four storage servers speaking the
//! memcached text protocol over TCP (localhost), one mount striping files
//! across them through `TcpClient`s — the paper's deployment shape with
//! real sockets.
//!
//! ```text
//! cargo run --release --example tcp_cluster
//! ```

use std::sync::Arc;

use memfs::memfs_core::{MemFs, MemFsConfig};
use memfs::memkv::net::{KvServer, TcpClient};
use memfs::memkv::{Store, StoreConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Start four storage servers on ephemeral localhost ports.
    let mut kv_servers: Vec<KvServer> = (0..4)
        .map(|_| {
            KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0")
                .expect("bind storage server")
        })
        .collect();
    let addrs: Vec<_> = kv_servers.iter().map(|s| s.addr()).collect();
    println!("storage servers listening on:");
    for a in &addrs {
        println!("  {a}");
    }

    // Mount MemFS over TCP — this is the Libmemcached role: the client
    // hashes each stripe key to a server; the servers never talk to each
    // other. Each client keeps one connection per server and pipelines
    // batched requests (prefetch windows and write drains travel as
    // multi-key frames); all of the mount's sockets are multiplexed on
    // one shared reactor loop, which runs on the calling thread.
    let config = MemFsConfig {
        stripe_size: 256 << 10,
        ..MemFsConfig::default()
    };
    let fs = MemFs::connect(&addrs, config)?;

    // Push a 16 MiB file through the wire, striped.
    let payload: Vec<u8> = (0..16usize << 20).map(|i| (i % 253) as u8).collect();
    let start = std::time::Instant::now();
    fs.write_file("/wire.dat", &payload)?;
    let wrote = start.elapsed();

    let start = std::time::Instant::now();
    let back = fs.read_to_vec("/wire.dat")?;
    let read = start.elapsed();
    assert_eq!(back, payload);

    let mb = payload.len() as f64 / 1e6;
    println!(
        "\n16 MiB round trip over TCP: write {:.0} MB/s, read {:.0} MB/s",
        mb / wrote.as_secs_f64(),
        mb / read.as_secs_f64()
    );

    // Ask each server for its memcached-style STAT block.
    println!("\nper-server statistics (via the text protocol):");
    for (i, a) in addrs.iter().enumerate() {
        let probe = TcpClient::connect(a)?;
        let stats = probe.stats()?;
        let get = |k: &str| {
            stats
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.as_str())
                .unwrap_or("?")
                .to_string()
        };
        println!(
            "  server {i}: {} items, {} bytes, {} sets, {} gets, {} batched multi-gets",
            get("curr_items"),
            get("bytes"),
            get("cmd_set"),
            get("cmd_get"),
            get("cmd_mget"),
        );
    }

    for s in &mut kv_servers {
        s.shutdown();
    }
    Ok(())
}
