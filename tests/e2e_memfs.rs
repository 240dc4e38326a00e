//! End-to-end integration tests over the real MemFS engine: multiple
//! in-process storage servers, multiple mounts, concurrent writers and
//! readers — the full §3 data path with real bytes.

use std::sync::Arc;

use memfs::memfs_core::{DistributorKind, MemFs, MemFsConfig, MemFsError};
use memfs::memkv::{KvClient, SimClient, Store, StoreConfig};

fn servers_with_stores(n: usize) -> (Vec<Arc<dyn KvClient>>, Vec<Arc<Store>>) {
    let stores: Vec<Arc<Store>> = (0..n)
        .map(|_| Arc::new(Store::new(StoreConfig::default())))
        .collect();
    let clients = stores
        .iter()
        .map(|s| Arc::new(SimClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
        .collect();
    (clients, stores)
}

fn small_config() -> MemFsConfig {
    MemFsConfig {
        stripe_size: 4096,
        write_buffer_size: 32 * 4096,
        read_cache_size: 32 * 4096,
        prefetch_window: 4,
        ..MemFsConfig::default()
    }
}

#[test]
fn full_lifecycle_across_two_mounts() {
    let (clients, _) = servers_with_stores(5);
    let fs1 = MemFs::new(clients.clone(), small_config()).unwrap();
    let fs2 = MemFs::new(clients, small_config()).unwrap();

    // Mount 1 builds a directory tree and writes files.
    fs1.mkdir_all("/wf/stage1").unwrap();
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 239) as u8).collect();
    fs1.write_file("/wf/stage1/a.out", &data).unwrap();

    // Mount 2 sees everything (shared namespace through the hash ring).
    let entries = fs2.readdir("/wf/stage1").unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(fs2.read_to_vec("/wf/stage1/a.out").unwrap(), data);
    let stat = fs2.stat("/wf/stage1/a.out").unwrap();
    assert_eq!(stat.size, 100_000);

    // Mount 2 deletes; mount 1 notices.
    fs2.unlink("/wf/stage1/a.out").unwrap();
    assert!(matches!(
        fs1.open("/wf/stage1/a.out"),
        Err(MemFsError::NotFound(_))
    ));
    fs2.rmdir("/wf/stage1").unwrap();
    assert!(!fs1.exists("/wf/stage1").unwrap());
}

#[test]
fn pipeline_of_tasks_through_the_fs() {
    // A three-stage pipeline communicates exclusively through MemFS
    // files, like an MTC application would.
    let (clients, _) = servers_with_stores(4);
    let fs = MemFs::new(clients, small_config()).unwrap();
    fs.mkdir("/pipe").unwrap();

    // Stage 1: produce.
    let raw: Vec<u8> = (0..50_000u32).map(|i| (i % 127) as u8).collect();
    fs.write_file("/pipe/raw", &raw).unwrap();

    // Stage 2: transform (read + write through handles).
    let reader = fs.open("/pipe/raw").unwrap();
    let mut writer = fs.create("/pipe/cooked").unwrap();
    let mut buf = vec![0u8; 7_000]; // deliberately not stripe-aligned
    let mut offset = 0u64;
    loop {
        let n = reader.read_at(offset, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        let cooked: Vec<u8> = buf[..n].iter().map(|&b| b.wrapping_mul(3)).collect();
        writer.write_all(&cooked).unwrap();
        offset += n as u64;
    }
    writer.close().unwrap();
    drop(reader);

    // Stage 3: verify.
    let cooked = fs.read_to_vec("/pipe/cooked").unwrap();
    assert_eq!(cooked.len(), raw.len());
    assert!(cooked
        .iter()
        .zip(&raw)
        .all(|(&c, &r)| c == r.wrapping_mul(3)));
}

#[test]
fn concurrent_producers_and_consumers() {
    let (clients, _) = servers_with_stores(4);
    let fs = MemFs::new(clients, small_config()).unwrap();
    fs.mkdir("/conc").unwrap();

    std::thread::scope(|scope| {
        // 4 producers, each writing 8 files.
        for p in 0..4 {
            let fs = fs.clone();
            scope.spawn(move || {
                for i in 0..8 {
                    let data = vec![(p * 8 + i) as u8; 20_000];
                    fs.write_file(&format!("/conc/p{p}_{i}"), &data).unwrap();
                }
            });
        }
    });

    // Consumers read everything back concurrently.
    std::thread::scope(|scope| {
        for c in 0..4 {
            let fs = fs.clone();
            scope.spawn(move || {
                for p in 0..4 {
                    for i in 0..8 {
                        let data = fs.read_to_vec(&format!("/conc/p{p}_{i}")).unwrap();
                        assert_eq!(data, vec![(p * 8 + i) as u8; 20_000], "c{c} p{p} i{i}");
                    }
                }
            });
        }
    });
    assert_eq!(fs.readdir("/conc").unwrap().len(), 32);
}

#[test]
fn storage_balance_matches_the_papers_claim() {
    // Write a workflow's worth of files and verify the symmetric
    // distribution on the actual stores.
    let (clients, stores) = servers_with_stores(8);
    let fs = MemFs::new(clients, small_config()).unwrap();
    for i in 0..64 {
        fs.write_file(&format!("/f{i:03}"), &vec![1u8; 32 * 1024])
            .unwrap();
    }
    let loads: Vec<u64> = stores.iter().map(|s| s.bytes_used()).collect();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    for (i, &l) in loads.iter().enumerate() {
        assert!(
            (l as f64) > 0.5 * mean && (l as f64) < 1.5 * mean,
            "server {i}: {l} vs mean {mean} ({loads:?})"
        );
    }
}

#[test]
fn ketama_mount_round_trips() {
    let (clients, _) = servers_with_stores(4);
    let mut config = small_config();
    config.distributor = DistributorKind::Ketama {
        points_per_server: 64,
    };
    let fs = MemFs::new(clients, config).unwrap();
    let data = vec![9u8; 30_000];
    fs.write_file("/k", &data).unwrap();
    assert_eq!(fs.read_to_vec("/k").unwrap(), data);
}

#[test]
fn server_oom_surfaces_as_storage_error() {
    // A pool of tiny servers cannot absorb a large file; the writer gets
    // a loud storage error instead of silent data loss (paper §3.2.5's
    // rationale for refusing eviction).
    let stores: Vec<Arc<Store>> = (0..2)
        .map(|_| {
            Arc::new(Store::new(StoreConfig {
                memory_budget: 64 * 1024,
                ..StoreConfig::default()
            }))
        })
        .collect();
    let clients: Vec<Arc<dyn KvClient>> = stores
        .iter()
        .map(|s| Arc::new(SimClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
        .collect();
    let fs = MemFs::new(clients, small_config()).unwrap();
    let mut w = fs.create("/too-big").unwrap();
    let result = w.write_all(&vec![0u8; 1 << 20]).and_then(|_| w.close());
    assert!(matches!(result, Err(MemFsError::Storage(_))));
}

#[test]
fn sub_stripe_and_cross_stripe_reads() {
    let (clients, _) = servers_with_stores(3);
    let fs = MemFs::new(clients, small_config()).unwrap();
    let data: Vec<u8> = (0..40_000u32).map(|i| (i % 97) as u8).collect();
    fs.write_file("/r", &data).unwrap();
    let r = fs.open("/r").unwrap();
    // Offsets chosen to hit: inside one stripe, across a boundary, the
    // exact boundary, and the tail.
    for (offset, len) in [(10usize, 100usize), (4000, 200), (4096, 1), (39_990, 100)] {
        let mut buf = vec![0u8; len];
        let n = r.read_at(offset as u64, &mut buf).unwrap();
        let expected = &data[offset..(offset + len).min(data.len())];
        assert_eq!(&buf[..n], expected, "offset {offset} len {len}");
    }
}
