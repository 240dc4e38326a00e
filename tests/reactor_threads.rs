//! A mount owns no thread: its one epoll loop, shared by every server's
//! `TcpClient`, runs only on the callers that submit to it and wait on
//! it, as Libmemcached does its I/O on the calling thread. A standalone
//! `TcpClient`, a 16-server TCP mount and an in-process mount each start
//! no thread, however many files are open (prefetch windows and write
//! drains stay pending in their file handles), and growing a live mount
//! starts none either. This binary holds exactly one test on purpose — it
//! counts process-wide threads, which would race with parallel tests.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use bytes::Bytes;
use memfs::memfs_core::{MemFs, MemFsConfig, ReadHandle, WriteHandle};
use memfs::memkv::net::{KvServer, PoolConfig, TcpClient};
use memfs::memkv::{KvClient, ReactorHandle, SimClient, Store, StoreConfig};

/// Live threads of this process whose name starts with `prefix`
/// (`comm` truncates at 15 chars, so prefixes must fit in that).
fn named_threads(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|e| std::fs::read_to_string(e.unwrap().path().join("comm")).ok())
        .filter(|name| name.trim_end().starts_with(prefix))
        .count()
}

/// The census scenario: 32 files written, open for reading and read
/// through, and 32 more open mid-write, every handle kept open.
fn open_files(fs: &MemFs, tag: &str) -> (Vec<ReadHandle>, Vec<WriteHandle>) {
    for i in 0..32 {
        fs.write_file(&format!("/{tag}-f{i}"), &vec![i as u8; 40_000])
            .unwrap();
    }
    let readers: Vec<ReadHandle> = (0..32)
        .map(|i| fs.open(&format!("/{tag}-f{i}")).unwrap())
        .collect();
    let mut buf = vec![0u8; 40_000];
    for r in &readers {
        assert_eq!(r.read_at(0, &mut buf).unwrap(), 40_000);
    }
    let writers = (0..32)
        .map(|i| {
            let mut w = fs.create(&format!("/{tag}-w{i}")).unwrap();
            w.write_all(&vec![i as u8; 20_000]).unwrap();
            w
        })
        .collect();
    (readers, writers)
}

/// The old transport spawned a short-lived `memkv-reconnect` thread per
/// reconnect attempt. Connects now run inside the loop, so this census
/// must stay at zero forever, including under reconnect pressure.
fn reconnect_threads() -> usize {
    named_threads("memkv-reconnec")
}

/// Every live thread of this process.
fn all_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn sixteen_server_mount_starts_no_thread() {
    let config = MemFsConfig {
        stripe_size: 4096,
        ..MemFsConfig::default()
    };

    // An in-process mount spawns no thread at all, with 64 files open.
    let before = all_threads();
    let local: Vec<Arc<dyn KvClient>> = (0..4)
        .map(|_| {
            let store = Arc::new(Store::new(StoreConfig::default()));
            Arc::new(SimClient::new(store)) as Arc<dyn KvClient>
        })
        .collect();
    let fs = MemFs::new(local, config.clone()).unwrap();
    let (readers, mut writers) = open_files(&fs, "local");
    assert_eq!(
        all_threads(),
        before,
        "an in-process mount spawned a thread"
    );
    for w in &mut writers {
        w.close().unwrap();
    }
    drop((readers, writers, fs));

    let mut servers: Vec<KvServer> = (0..16)
        .map(|_| {
            KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0")
                .expect("bind storage server")
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    // From here on every thread is a server's loop or the test's own.
    let before = all_threads();

    // Standalone clients, one private reactor each: no thread each.
    let standalone: Vec<TcpClient> = addrs
        .iter()
        .map(|a| TcpClient::connect_with(a, PoolConfig::default()).expect("connect"))
        .collect();
    for (client, addr) in standalone.iter().zip(&addrs) {
        client
            .set(addr.to_string().as_bytes(), Bytes::from_static(b"v"))
            .unwrap();
    }
    assert_eq!(
        all_threads(),
        before,
        "a standalone client started a thread"
    );
    drop(standalone);

    // Every client registers with one shared reactor.
    let reactor = ReactorHandle::new().expect("make shared reactor");
    let clients: Vec<Arc<dyn KvClient>> = addrs
        .iter()
        .map(|a| {
            Arc::new(
                TcpClient::connect_shared(a, PoolConfig::default(), &reactor).expect("connect"),
            ) as Arc<dyn KvClient>
        })
        .collect();
    let fs = MemFs::new(clients, config.clone()).unwrap();
    // The single loop really carries traffic for all 16 servers.
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 249) as u8).collect();
    fs.write_file("/one-loop", &data).unwrap();
    assert_eq!(fs.read_to_vec("/one-loop").unwrap(), data);
    assert_eq!(all_threads(), before, "16 shared clients started a thread");
    drop((fs, reactor));

    // `MemFs::connect` wires the same shape end to end.
    let fs = MemFs::connect(&addrs, config.clone()).unwrap();
    // However many files are open, a mount starts no thread.
    let (readers, mut writers) = open_files(&fs, "tcp");
    assert_eq!(all_threads(), before, "64 open files on one mount");
    for w in &mut writers {
        w.close().unwrap();
    }
    drop((readers, writers));
    fs.write_file("/again", &data).unwrap();
    assert_eq!(fs.read_to_vec("/again").unwrap(), data);
    assert_eq!(
        reconnect_threads(),
        0,
        "clean traffic spawned a reconnect thread"
    );

    // Reconnect pressure: kill a server and keep submitting. The loop
    // absorbs every reconnect attempt itself — the per-attempt
    // `memkv-reconnect` helper thread must never reappear.
    servers[0].shutdown();
    // A joined thread can linger in /proc for a moment after the join.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let before = all_threads();
    for _ in 0..6 {
        let _ = fs.read_to_vec("/again");
        assert_eq!(
            reconnect_threads(),
            0,
            "reconnect pressure spawned a helper thread"
        );
    }
    assert_eq!(all_threads(), before, "reconnect pressure started a thread");
    drop(fs);

    // Elastic membership rides the same loop: admitting servers into a
    // live mount and migrating keys onto them spawns nothing — the
    // rebalancer runs inside the caller's thread and every admitted
    // client registers with the mount's existing reactor. (Server 0
    // is already shut down; mount a fresh slice of the survivors.)
    let fs = MemFs::connect(&addrs[1..5], config).unwrap();
    fs.write_file("/elastic", &data).unwrap();
    for (round, addr) in addrs[5..7].iter().enumerate() {
        fs.admit_server(*addr).unwrap();
        assert!(fs.migration_active());
        while fs.migration_active() {
            fs.repair_now().unwrap();
            assert_eq!(
                all_threads(),
                before,
                "a migration pass started a thread (grow round {round})"
            );
            assert_eq!(
                reconnect_threads(),
                0,
                "a migration pass spawned a helper thread (grow round {round})"
            );
        }
    }
    assert_eq!(fs.read_to_vec("/elastic").unwrap(), data);
    assert_eq!(all_threads(), before, "live rebalance adds zero threads");
    drop(fs);

    for s in &mut servers {
        s.shutdown();
    }
}
