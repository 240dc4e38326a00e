//! `memfs-cli` — a command-line client for a MemFS cluster.
//!
//! Point it at the storage servers (comma-separated `host:port` list, or
//! the `MEMFS_SERVERS` environment variable) and use familiar verbs:
//!
//! ```text
//! export MEMFS_SERVERS=127.0.0.1:11211,127.0.0.1:11212
//! memfs-cli mkdir /data
//! memfs-cli put local.bin /data/blob
//! memfs-cli ls /data
//! memfs-cli stat /data/blob
//! memfs-cli get /data/blob copy.bin
//! memfs-cli rm /data/blob
//! memfs-cli df
//! ```

use std::io::{Read, Write};

use memfs::memfs_core::{MemFs, MemFsConfig};
use memfs::memkv::net::TcpClient;

fn usage() -> ! {
    eprintln!(
        "memfs-cli — client for a MemFS cluster\n\n\
         usage: memfs-cli [--servers HOST:PORT,...] <command>\n\n\
         commands:\n\
           put <local> <remote>   store a local file (write-once)\n\
           get <remote> <local>   fetch a file\n\
           cat <remote>           print a file to stdout\n\
           ls <dir>               list a directory\n\
           stat <path>            show size/kind\n\
           mkdir <dir>            create a directory (with parents)\n\
           rm <file>              delete a file\n\
           rmdir <dir>            delete an empty directory\n\
           df                     per-server usage statistics\n\n\
         servers come from --servers or $MEMFS_SERVERS"
    );
    std::process::exit(2);
}

fn connect(servers: &str) -> (Vec<String>, MemFs) {
    let addrs: Vec<String> = servers
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if addrs.is_empty() {
        usage();
    }
    // One shared reactor loop, run on this thread, multiplexes every
    // server's sockets.
    let fs = MemFs::connect(&addrs, MemFsConfig::default()).unwrap_or_else(|e| {
        eprintln!("memfs-cli: cannot mount {servers}: {e}");
        std::process::exit(1);
    });
    (addrs, fs)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut servers = std::env::var("MEMFS_SERVERS").unwrap_or_default();
    if args.first().map(String::as_str) == Some("--servers") {
        args.remove(0);
        if args.is_empty() {
            usage();
        }
        servers = args.remove(0);
    }
    if args.is_empty() || servers.is_empty() {
        usage();
    }
    let (addrs, fs) = connect(&servers);

    let result: Result<(), Box<dyn std::error::Error>> = (|| {
        match args[0].as_str() {
            "put" if args.len() == 3 => {
                let data = std::fs::read(&args[1])?;
                let mut w = fs.create(&args[2])?;
                w.write_all(&data)?;
                w.close()?;
                println!("stored {} bytes at {}", data.len(), args[2]);
            }
            "get" if args.len() == 3 => {
                let data = fs.read_to_vec(&args[1])?;
                std::fs::write(&args[2], &data)?;
                println!("fetched {} bytes to {}", data.len(), args[2]);
            }
            "cat" if args.len() == 2 => {
                let mut reader = fs.open(&args[1])?;
                let mut buf = Vec::new();
                reader.read_to_end(&mut buf)?;
                std::io::stdout().write_all(&buf)?;
            }
            "ls" if args.len() == 2 => {
                for entry in fs.readdir(&args[1])? {
                    let marker = match entry.kind {
                        memfs::memfs_core::EntryKind::Dir => "/",
                        memfs::memfs_core::EntryKind::File => "",
                    };
                    println!("{}{marker}", entry.name);
                }
            }
            "stat" if args.len() == 2 => {
                let st = fs.stat(&args[1])?;
                println!(
                    "{}: {:?}, {} bytes, finalized={}",
                    args[1], st.kind, st.size, st.finalized
                );
            }
            "mkdir" if args.len() == 2 => fs.mkdir_all(&args[1])?,
            "rm" if args.len() == 2 => fs.unlink(&args[1])?,
            "rmdir" if args.len() == 2 => fs.rmdir(&args[1])?,
            "df" if args.len() == 1 => {
                for addr in &addrs {
                    let probe = TcpClient::connect(addr.as_str())?;
                    let stats = probe.stats()?;
                    let find = |k: &str| {
                        stats
                            .iter()
                            .find(|(n, _)| n == k)
                            .map(|(_, v)| v.clone())
                            .unwrap_or_default()
                    };
                    println!(
                        "{addr}: {} items, {} bytes used; reads: {} gets, {} multi-gets, \
                         {} ranged ({} bytes)",
                        find("curr_items"),
                        find("bytes"),
                        find("cmd_get"),
                        find("cmd_mget"),
                        find("cmd_getrange"),
                        find("getrange_bytes")
                    );
                }
            }
            _ => usage(),
        }
        Ok(())
    })();

    if let Err(e) = result {
        eprintln!("memfs-cli: {e}");
        std::process::exit(1);
    }
}
