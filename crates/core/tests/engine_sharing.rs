//! The tentpole property of the shared I/O engine: a mount's thread
//! count is set by its config, not by how many files are open. Before
//! the shared engine every mount ran its own writer and prefetcher
//! pools; per-file engines would have been worse still. This binary holds exactly one test on purpose — it counts
//! process-wide threads by name, which would race with parallel tests.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use memfs_core::{MemFs, MemFsConfig};
use memfs_memkv::{KvClient, LocalClient, Store, StoreConfig};

/// Live threads of this process whose name starts with `memfs-io`
/// (engine workers; `comm` truncates at 15 chars, the prefix fits).
fn io_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|e| std::fs::read_to_string(e.unwrap().path().join("comm")).ok())
        .filter(|name| name.trim_end().starts_with("memfs-io"))
        .count()
}

/// A spawned worker names itself when it starts running, so poll briefly
/// instead of racing freshly-created threads.
fn expect_io_threads(expected: usize, what: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let n = io_threads();
        if n == expected {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{what}: expected {expected} engine threads, found {n}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn thirty_two_open_files_share_one_bounded_dispatcher() {
    let servers: Vec<Arc<dyn KvClient>> = (0..4)
        .map(|_| {
            Arc::new(LocalClient::new(Arc::new(Store::new(
                StoreConfig::default(),
            )))) as Arc<dyn KvClient>
        })
        .collect();
    let config = MemFsConfig {
        stripe_size: 4096,
        write_buffer_size: 64 << 10,
        read_cache_size: 64 << 10,
        ..MemFsConfig::default()
    };
    assert_eq!(io_threads(), 0, "no engine threads before the mount");

    let fs = MemFs::new(servers, config.clone()).unwrap();
    // Batched pool calls drive the servers from the caller's thread, so
    // the engine is sized for background jobs only.
    let expected = config.io_threads;
    assert_eq!(fs.engine().size(), expected);
    expect_io_threads(expected, "mounting starts the one engine");

    // 32 files open for reading and 32 more mid-write, all doing I/O
    // that previously would have demanded per-file worker threads.
    for i in 0..32 {
        fs.write_file(&format!("/f{i}"), &vec![i as u8; 40_000])
            .unwrap();
    }
    let readers: Vec<_> = (0..32)
        .map(|i| fs.open(&format!("/f{i}")).unwrap())
        .collect();
    let mut buf = vec![0u8; 40_000];
    for r in &readers {
        assert_eq!(r.read_at(0, &mut buf).unwrap(), 40_000);
    }
    let mut writers: Vec<_> = (0..32)
        .map(|i| {
            let mut w = fs.create(&format!("/w{i}")).unwrap();
            w.write_all(&vec![i as u8; 20_000]).unwrap();
            w
        })
        .collect();
    expect_io_threads(expected, "thread count must not scale with open files");

    for w in &mut writers {
        w.close().unwrap();
    }
    drop(writers);
    drop(readers);
    drop(fs);
    expect_io_threads(0, "dropping the mount joins every worker");
}
