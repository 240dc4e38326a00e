//! Fault-tolerance integration tests: the replication option of paper
//! §3.2.5, implemented and exercised end-to-end with failure injection.

use std::sync::Arc;

use memfs::memfs_core::{MemFs, MemFsConfig, MemFsError};
use memfs::memkv::{KvClient, SimClient, Store, StoreConfig};

fn failable_cluster(n: usize) -> (Vec<Arc<SimClient>>, Vec<Arc<dyn KvClient>>) {
    let failables: Vec<Arc<SimClient>> = (0..n)
        .map(|_| Arc::new(SimClient::new(Arc::new(Store::new(StoreConfig::default())))))
        .collect();
    let clients = failables
        .iter()
        .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
        .collect();
    (failables, clients)
}

fn config(replication: usize) -> MemFsConfig {
    MemFsConfig {
        stripe_size: 4096,
        write_buffer_size: 16 * 4096,
        read_cache_size: 16 * 4096,
        prefetch_window: 2,
        replication,
        ..MemFsConfig::default()
    }
}

#[test]
fn replicated_files_survive_one_server_failure() {
    let (failables, clients) = failable_cluster(4);
    let fs = MemFs::new(clients, config(2)).unwrap();
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 211) as u8).collect();
    fs.write_file("/replicated", &data).unwrap();

    // Kill each server in turn; every stripe has a surviving copy.
    for (victim, failable) in failables.iter().enumerate() {
        failable.set_down(true);
        assert_eq!(
            fs.read_to_vec("/replicated").unwrap(),
            data,
            "read failed with server {victim} down"
        );
        // Metadata (stat/readdir) also survives.
        assert_eq!(fs.stat("/replicated").unwrap().size, 100_000);
        assert_eq!(fs.readdir("/").unwrap().len(), 1);
        failable.set_down(false);
    }
}

#[test]
fn ranged_reads_are_served_by_the_replica_of_a_dead_primary() {
    let (failables, clients) = failable_cluster(4);
    let fs = MemFs::new(clients, config(2)).unwrap();
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 211) as u8).collect();
    fs.write_file("/replicated", &data).unwrap();
    let fallbacks = || -> u64 {
        let snap = fs.pool().stats().snapshot();
        snap.iter().map(|s| s.fallbacks).sum()
    };
    for (victim, failable) in failables.iter().enumerate() {
        // A fresh handle per round: nothing cached, and every read below
        // is a sub-stripe read that continues no stream — a ranged fetch.
        let handle = fs.open("/replicated").unwrap();
        failable.set_down(true);
        let before = fallbacks();
        let mut buf = [0u8; 512];
        for stripe in 1..24 {
            let offset = stripe * 4096 + 1000;
            assert_eq!(handle.read_at(offset as u64, &mut buf).unwrap(), 512);
            assert_eq!(
                buf[..],
                data[offset..offset + 512],
                "stripe {stripe}, server {victim} down"
            );
        }
        assert!(
            fallbacks() > before,
            "no read fell back with server {victim} down"
        );
        failable.set_down(false);
    }
}

#[test]
fn unreplicated_files_do_not_survive() {
    // The control: with the paper's r=1 configuration a failure loses
    // whatever stripes the dead server held.
    let (failables, clients) = failable_cluster(4);
    let fs = MemFs::new(clients, config(1)).unwrap();
    let data = vec![7u8; 100_000];
    fs.write_file("/fragile", &data).unwrap();

    // Some server holds at least one stripe or metadata record; killing
    // all-but-one must break something.
    failables[0].set_down(true);
    failables[1].set_down(true);
    failables[2].set_down(true);
    let read = fs.read_to_vec("/fragile");
    let stat = fs.stat("/fragile");
    assert!(
        read.is_err() || stat.is_err(),
        "r=1 should not survive 3 of 4 servers dying"
    );
}

#[test]
fn two_failures_defeat_two_way_replication() {
    let (failables, clients) = failable_cluster(4);
    let fs = MemFs::new(clients, config(2)).unwrap();
    fs.write_file("/f", &vec![1u8; 50_000]).unwrap();
    // Kill two ADJACENT servers: some key's primary+follower pair.
    failables[0].set_down(true);
    failables[1].set_down(true);
    let outcome = fs.read_to_vec("/f").and(fs.read_to_vec("/f"));
    // With adjacent pairs dead, at least one replica set is fully gone
    // (stripes spread over all pairs for a 13-stripe file).
    assert!(
        outcome.is_err(),
        "r=2 must not survive an adjacent double failure"
    );
}

#[test]
fn three_way_replication_survives_double_failure() {
    let (failables, clients) = failable_cluster(5);
    let fs = MemFs::new(clients, config(3)).unwrap();
    let data: Vec<u8> = (0..60_000u32).map(|i| (i % 199) as u8).collect();
    fs.write_file("/r3", &data).unwrap();
    failables[1].set_down(true);
    failables[2].set_down(true);
    assert_eq!(fs.read_to_vec("/r3").unwrap(), data);
}

#[test]
fn replication_multiplies_stored_bytes() {
    // "the total storage capacity of MemFS would be decreased n times"
    // (§3.2.5): measure it through the whole FS stack.
    let stored = |r: usize| -> u64 {
        let stores: Vec<Arc<Store>> = (0..4)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = stores
            .iter()
            .map(|s| Arc::new(SimClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
            .collect();
        let fs = MemFs::new(clients, config(r)).unwrap();
        fs.write_file("/payload", &vec![0u8; 200_000]).unwrap();
        stores.iter().map(|s| s.bytes_used()).sum()
    };
    let r1 = stored(1);
    let r2 = stored(2);
    let ratio = r2 as f64 / r1 as f64;
    assert!((ratio - 2.0).abs() < 0.1, "r=2 stores {ratio}x of r=1");
}

#[test]
fn write_once_still_enforced_under_replication() {
    let (_, clients) = failable_cluster(3);
    let fs = MemFs::new(clients, config(2)).unwrap();
    fs.write_file("/once", b"first").unwrap();
    assert!(matches!(fs.create("/once"), Err(MemFsError::WriteOnce(_))));
    assert_eq!(fs.read_to_vec("/once").unwrap(), b"first");
}

#[test]
fn writes_stay_available_during_an_outage_and_repair_restores_replication() {
    // Stripe and size-record writes that land on at least one live
    // replica succeed as *degraded* writes (counted per server) instead
    // of failing the file — the write path stays available while a
    // server is down. Metadata arbitration (`add` write-once gates,
    // directory `append`s) stays strict, so the file is created before
    // the failure is injected.
    let (failables, clients) = failable_cluster(4);
    let fs = MemFs::new(clients, config(2)).unwrap();
    let mut w = fs.create("/during-outage").unwrap();

    failables[1].set_down(true);
    let data: Vec<u8> = (0..60_000u32).map(|i| (i % 193) as u8).collect();
    w.write_all(&data).unwrap();
    w.close().unwrap();

    // Data written during the outage is durable and readable now...
    assert_eq!(fs.read_to_vec("/during-outage").unwrap(), data);
    // ...and the dead server's misses are counted against it.
    assert!(
        fs.pool().stats().snapshot()[1].degraded_writes > 0,
        "a 4-server r=2 file must have landed keys on the dead server's chains"
    );

    // Revive the server and run one repair pass: every key back at full
    // strength.
    failables[1].set_down(false);
    let report = fs.repair_now().unwrap();
    assert_eq!(report.repaired_keys, report.under_replicated);
    assert!(report.converged(), "repair must converge: {report:?}");

    // Proof of restored replication: a *different* server dying now
    // loses nothing.
    failables[0].set_down(true);
    assert_eq!(fs.read_to_vec("/during-outage").unwrap(), data);
    assert_eq!(fs.stat("/during-outage").unwrap().size, 60_000);
}

#[test]
fn repair_reroutes_to_surviving_successors_when_the_owner_stays_dead() {
    // Without a revival, repair parks copies on the next alive successor
    // in the candidate chain; the read path's failover walk finds them,
    // so a second failure still loses nothing.
    let (failables, clients) = failable_cluster(5);
    let fs = MemFs::new(clients, config(2)).unwrap();
    let data: Vec<u8> = (0..80_000u32).map(|i| (i % 197) as u8).collect();
    fs.write_file("/rereplicated", &data).unwrap();

    failables[2].set_down(true);
    let report = fs.repair_now().unwrap();
    assert!(report.converged(), "repair must converge: {report:?}");

    failables[3].set_down(true);
    assert_eq!(
        fs.read_to_vec("/rereplicated").unwrap(),
        data,
        "two failures after a repair pass must lose nothing"
    );
}
