//! The tentpole property of the shared per-mount reactor: socket
//! multiplexing costs one thread per *mount*, not one per server. Before
//! the shared reactor every `TcpClient` spawned its own epoll loop, so a
//! 16-server mount burned 16 reactor threads; now all of them register
//! with one [`memfs::memkv::ReactorHandle`]. And that loop is all a mount
//! runs: prefetch windows and write drains stay pending in their file
//! handles, so however many files are open a TCP mount is one
//! `memkv-reactor` thread and an in-process mount is none. This binary
//! holds exactly one test on purpose — it counts process-wide threads,
//! which would race with parallel tests.

#![cfg(target_os = "linux")]

use std::sync::Arc;

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

/// Reactor loops (`memkv-reactor`) — the prefix does not match the
/// retired `memkv-reconnect` helper name.
fn reactor_threads() -> usize {
    named_threads("memkv-reactor")
}

/// The old transport spawned a short-lived `memkv-reconnect` thread per
/// reconnect attempt. Connects now run inside the loop, so this census
/// must stay at zero forever, including under reconnect pressure.
fn reconnect_threads() -> usize {
    named_threads("memkv-reconnec")
}

/// A spawned reactor names itself when it starts running, so poll briefly
/// instead of racing freshly-created (or freshly-joined) threads.
fn expect_reactor_threads(expected: usize, what: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let n = reactor_threads();
        if n == expected {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{what}: expected {expected} reactor threads, found {n}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn sixteen_server_mount_runs_one_reactor_thread() {
    let config = MemFsConfig {
        stripe_size: 4096,
        ..MemFsConfig::default()
    };

    // An in-process mount spawns no thread at all, with 64 files open.
    let all_threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
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
    assert_eq!(reactor_threads(), 0, "no reactor threads before any client");

    // The old shape: standalone clients, one private reactor each.
    let standalone: Vec<TcpClient> = addrs
        .iter()
        .map(|a| TcpClient::connect_with(a, PoolConfig::default()).expect("connect"))
        .collect();
    expect_reactor_threads(16, "one private reactor per standalone client");
    drop(standalone);
    expect_reactor_threads(0, "dropping a client joins its private reactor");

    // The new shape: every client registers with one shared reactor.
    let reactor = ReactorHandle::new().expect("spawn shared reactor");
    let clients: Vec<Arc<dyn KvClient>> = addrs
        .iter()
        .map(|a| {
            Arc::new(
                TcpClient::connect_shared(a, PoolConfig::default(), &reactor).expect("connect"),
            ) as Arc<dyn KvClient>
        })
        .collect();
    let fs = MemFs::new(clients, config.clone()).unwrap();
    expect_reactor_threads(1, "16 shared clients multiplex on one reactor");

    // The single loop really carries traffic for all 16 servers.
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 249) as u8).collect();
    fs.write_file("/one-thread", &data).unwrap();
    assert_eq!(fs.read_to_vec("/one-thread").unwrap(), data);
    expect_reactor_threads(1, "traffic must not spawn more reactors");

    drop(fs);
    expect_reactor_threads(1, "the handle keeps the loop alive without clients");
    drop(reactor);
    expect_reactor_threads(0, "dropping the last handle joins the reactor");

    // `MemFs::connect` wires the same shape end to end: the mount owns
    // the handle, so dropping the mount tears the reactor down too.
    let fs = MemFs::connect(&addrs, config.clone()).unwrap();
    expect_reactor_threads(1, "MemFs::connect mounts on one shared reactor");
    // However many files are open, the reactor is the mount's only thread.
    let (readers, mut writers) = open_files(&fs, "tcp");
    expect_reactor_threads(1, "64 open files on one mount");
    assert_eq!(named_threads("memfs-"), 0, "a mount ran an I/O thread");
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
    for _ in 0..6 {
        let _ = fs.read_to_vec("/again");
        assert_eq!(
            reconnect_threads(),
            0,
            "reconnect pressure spawned a helper thread"
        );
    }
    expect_reactor_threads(1, "reconnect pressure must not change the loop census");
    drop(fs);
    expect_reactor_threads(0, "unmounting joins the mount's reactor");

    // Elastic membership rides the same loop: admitting servers into a
    // live mount and migrating keys onto them spawns nothing — the
    // rebalancer runs inside the caller's thread and every admitted
    // client registers with the mount's existing reactor. (Server 0
    // is already shut down; mount a fresh slice of the survivors.)
    let fs = MemFs::connect(&addrs[1..5], config).unwrap();
    expect_reactor_threads(1, "4-server mount before the grow");
    fs.write_file("/elastic", &data).unwrap();
    for (round, addr) in addrs[5..7].iter().enumerate() {
        fs.admit_server(*addr).unwrap();
        assert!(fs.migration_active());
        while fs.migration_active() {
            fs.repair_now().unwrap();
            assert_eq!(
                reactor_threads(),
                1,
                "a migration pass spawned a reactor (grow round {round})"
            );
            assert_eq!(
                reconnect_threads(),
                0,
                "a migration pass spawned a helper thread (grow round {round})"
            );
        }
    }
    assert_eq!(fs.read_to_vec("/elastic").unwrap(), data);
    expect_reactor_threads(1, "live rebalance adds zero threads");
    drop(fs);
    expect_reactor_threads(0, "unmounting the elastic mount joins its reactor");

    for s in &mut servers {
        s.shutdown();
    }
}
