//! Integration tests for the pool's windows (paper §3.2.2:
//! symmetrical striping should drive all N servers at once, so a batched
//! call costs `max` of the per-server times).
//!
//! These exercise the `ServerPool` batched calls from the outside — order
//! preservation, failure isolation per server, a rendezvous proof that
//! every server's batch is submitted before the first is waited on, and
//! drop/shutdown draining through a full `MemFs` mount.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs_core::{DistributorKind, MemFs, MemFsConfig, MemFsError, ServerPool};
use memfs_memkv::error::KvError;
use memfs_memkv::{Batch, Deferred, KvClient, LocalClient, SimClient, Store, StoreConfig};

fn local_clients(n: usize) -> (Vec<Arc<dyn KvClient>>, Vec<Arc<Store>>) {
    let stores: Vec<Arc<Store>> = (0..n)
        .map(|_| Arc::new(Store::new(StoreConfig::default())))
        .collect();
    let clients = stores
        .iter()
        .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
        .collect();
    (clients, stores)
}

/// Keys shaped like stripe keys so they spread across servers.
fn stripe_like_keys(n: usize) -> Vec<Bytes> {
    (0..n)
        .map(|i| Bytes::from(format!("s:/fanout/file{}#{}", i % 7, i)))
        .collect()
}

#[test]
fn get_many_preserves_input_order_under_concurrency() {
    let (clients, _stores) = local_clients(4);
    let pool = ServerPool::new(clients, DistributorKind::default());

    let keys = stripe_like_keys(128);
    let items: Vec<(Bytes, Bytes)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), Bytes::from(format!("value-{i}"))))
        .collect();
    pool.set_many(&items).unwrap();

    // Many rounds: the output order must hold every time.
    for _ in 0..50 {
        let out = pool.get_many(&keys);
        assert_eq!(out.len(), keys.len());
        for (i, r) in out.into_iter().enumerate() {
            assert_eq!(
                r.unwrap(),
                Bytes::from(format!("value-{i}")),
                "result {i} out of order"
            );
        }
    }
}

#[test]
fn get_many_handles_duplicate_and_missing_keys_in_order() {
    let (clients, _stores) = local_clients(3);
    let pool = ServerPool::new(clients, DistributorKind::default());
    pool.set(b"dup", Bytes::from_static(b"d")).unwrap();
    pool.set(b"one", Bytes::from_static(b"1")).unwrap();

    let keys = vec![
        Bytes::from_static(b"dup"),
        Bytes::from_static(b"missing"),
        Bytes::from_static(b"one"),
        Bytes::from_static(b"dup"),
    ];
    let out = pool.get_many(&keys);
    assert_eq!(out[0].as_ref().unwrap().as_ref(), b"d");
    assert!(matches!(
        out[1],
        Err(MemFsError::Storage(KvError::NotFound))
    ));
    assert_eq!(out[2].as_ref().unwrap().as_ref(), b"1");
    assert_eq!(out[3].as_ref().unwrap().as_ref(), b"d");
}

#[test]
fn dead_server_degrades_only_its_own_keys() {
    let failables: Vec<Arc<SimClient>> = (0..4)
        .map(|_| Arc::new(SimClient::new(Arc::new(Store::new(StoreConfig::default())))))
        .collect();
    let clients: Vec<Arc<dyn KvClient>> = failables
        .iter()
        .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
        .collect();
    let pool = ServerPool::new(clients, DistributorKind::default());

    let keys = stripe_like_keys(64);
    let items: Vec<(Bytes, Bytes)> = keys
        .iter()
        .map(|k| (k.clone(), Bytes::from_static(b"v")))
        .collect();
    pool.set_many(&items).unwrap();

    let dead = 2usize;
    failables[dead].set_down(true);
    let out = pool.get_many(&keys);
    let mut dead_keys = 0;
    for (k, r) in keys.iter().zip(out) {
        if pool.server_for(k).0 == dead {
            dead_keys += 1;
            assert!(r.is_err(), "key on dead server must fail (no replicas)");
        } else {
            assert_eq!(
                r.unwrap().as_ref(),
                b"v",
                "healthy servers' keys must be untouched by the dead one"
            );
        }
    }
    assert!(
        dead_keys > 0,
        "test needs at least one key on the dead server"
    );

    // Fallbacks were charged to the dead server only.
    let snap = pool.stats().snapshot();
    assert!(snap[dead].fallbacks >= dead_keys as u64);
    for (i, s) in snap.iter().enumerate() {
        if i != dead {
            assert_eq!(s.fallbacks, 0, "server {i} should not have fallen back");
        }
    }
}

#[test]
fn dead_server_is_masked_entirely_with_replication() {
    let failables: Vec<Arc<SimClient>> = (0..4)
        .map(|_| Arc::new(SimClient::new(Arc::new(Store::new(StoreConfig::default())))))
        .collect();
    let clients: Vec<Arc<dyn KvClient>> = failables
        .iter()
        .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
        .collect();
    let pool = ServerPool::with_replication(clients, DistributorKind::default(), 2);

    let keys = stripe_like_keys(48);
    let items: Vec<(Bytes, Bytes)> = keys
        .iter()
        .map(|k| (k.clone(), Bytes::from_static(b"replicated")))
        .collect();
    pool.set_many(&items).unwrap();

    failables[1].set_down(true);
    for r in pool.get_many(&keys) {
        assert_eq!(r.unwrap().as_ref(), b"replicated");
    }
}

#[test]
fn set_many_reports_dead_server_but_stores_the_rest() {
    let failables: Vec<Arc<SimClient>> = (0..4)
        .map(|_| Arc::new(SimClient::new(Arc::new(Store::new(StoreConfig::default())))))
        .collect();
    let clients: Vec<Arc<dyn KvClient>> = failables
        .iter()
        .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
        .collect();
    let pool = ServerPool::new(clients, DistributorKind::default());

    let keys = stripe_like_keys(64);
    let items: Vec<(Bytes, Bytes)> = keys
        .iter()
        .map(|k| (k.clone(), Bytes::from_static(b"w")))
        .collect();

    let dead = 0usize;
    failables[dead].set_down(true);
    // Deterministic: every batch is attempted, the reported error is the
    // dead server's (first in server order), and it is the same each run.
    for _ in 0..10 {
        assert!(pool.set_many(&items).is_err());
    }
    failables[dead].set_down(false);
    for (k, r) in keys.iter().zip(pool.get_many(&keys)) {
        if pool.server_for(k).0 == dead {
            assert!(r.is_err(), "dead server's keys were never stored");
        } else {
            assert_eq!(r.unwrap().as_ref(), b"w", "healthy batches must land");
        }
    }
}

/// A client that counts a batch as arrived when it is *submitted*
/// (`start`) and, when the batch is waited on, records whether all
/// `expected` batches of the call had been submitted by then — proving
/// the per-server batches are in flight simultaneously. A dispatcher that
/// waited on one batch before submitting the next would see a short
/// count at its first wait and trip the assertion.
struct RendezvousClient {
    inner: LocalClient,
    arrived: Arc<AtomicUsize>,
    expected: usize,
    full_house: Arc<AtomicBool>,
}

impl RendezvousClient {
    fn new(store: Arc<Store>, arrived: Arc<AtomicUsize>, expected: usize) -> Self {
        RendezvousClient {
            inner: LocalClient::new(store),
            arrived,
            expected,
            full_house: Arc::new(AtomicBool::new(false)),
        }
    }
}

impl KvClient for RendezvousClient {
    fn start(&self, batch: Batch<'_>) -> Deferred<Bytes> {
        let result = self.inner.start(batch).wait();
        self.arrived.fetch_add(1, Ordering::SeqCst);
        let arrived = Arc::clone(&self.arrived);
        let expected = self.expected;
        let full_house = Arc::clone(&self.full_house);
        Deferred::Polled {
            ready: Box::new(|| true),
            finish: Box::new(move || {
                full_house.store(arrived.load(Ordering::SeqCst) >= expected, Ordering::SeqCst);
                result
            }),
            answered: None,
        }
    }
}

/// `n` rendezvous clients sharing one arrival counter, and a pool over
/// them.
fn rendezvous_pool(n: usize) -> (Vec<Arc<RendezvousClient>>, Arc<AtomicUsize>, ServerPool) {
    let arrived = Arc::new(AtomicUsize::new(0));
    let rendezvous: Vec<Arc<RendezvousClient>> = (0..n)
        .map(|_| {
            Arc::new(RendezvousClient::new(
                Arc::new(Store::new(StoreConfig::default())),
                Arc::clone(&arrived),
                n,
            ))
        })
        .collect();
    let clients: Vec<Arc<dyn KvClient>> = rendezvous
        .iter()
        .map(|c| Arc::clone(c) as Arc<dyn KvClient>)
        .collect();
    let pool = ServerPool::new(clients, DistributorKind::default());
    (rendezvous, arrived, pool)
}

#[test]
fn per_server_batches_really_run_in_parallel() {
    const N: usize = 4;
    let (rendezvous, arrived, pool) = rendezvous_pool(N);

    // Enough keys that every server owns a share of the batch.
    let keys = stripe_like_keys(64);
    for k in &keys {
        assert!(pool.server_for(k).0 < N);
    }
    let occupied: std::collections::HashSet<usize> =
        keys.iter().map(|k| pool.server_for(k).0).collect();
    assert_eq!(occupied.len(), N, "keys must cover all servers");

    // set_many: all four per-server batches must be submitted before the
    // first is waited on.
    let items: Vec<(Bytes, Bytes)> = keys
        .iter()
        .map(|k| (k.clone(), Bytes::from_static(b"x")))
        .collect();
    pool.set_many(&items).unwrap();
    for (i, c) in rendezvous.iter().enumerate() {
        assert!(
            c.full_house.load(Ordering::SeqCst),
            "server {i}'s set batch never saw all {N} batches in flight"
        );
    }

    // Reset and prove the same for get_many.
    arrived.store(0, Ordering::SeqCst);
    for c in &rendezvous {
        c.full_house.store(false, Ordering::SeqCst);
    }
    for r in pool.get_many(&keys) {
        r.unwrap();
    }
    for (i, c) in rendezvous.iter().enumerate() {
        assert!(
            c.full_house.load(Ordering::SeqCst),
            "server {i}'s get batch never saw all {N} batches in flight"
        );
    }
}

#[test]
fn per_server_delete_batches_run_in_parallel() {
    // The unlink path frees stripes via `delete_many`; its per-server
    // batches must overlap just like reads and writes do.
    const N: usize = 4;
    let (rendezvous, arrived, pool) = rendezvous_pool(N);

    let keys = stripe_like_keys(64);
    let items: Vec<(Bytes, Bytes)> = keys
        .iter()
        .map(|k| (k.clone(), Bytes::from_static(b"doomed")))
        .collect();
    pool.set_many(&items).unwrap();
    arrived.store(0, Ordering::SeqCst);
    for c in &rendezvous {
        c.full_house.store(false, Ordering::SeqCst);
    }
    for r in pool.delete_many(&keys) {
        assert!(r.unwrap(), "every key existed and must report deleted");
    }
    for (i, c) in rendezvous.iter().enumerate() {
        assert!(
            c.full_house.load(Ordering::SeqCst),
            "server {i}'s delete batch never saw all {N} batches in flight"
        );
    }
}

/// A client whose batches take `delay` of real time to answer: the store
/// applies each at once, and its reply is ready once the delay has passed
/// (waiting sleeps it out). Callers on several threads then really hold
/// batches in flight at the same time, which virtual time would not make
/// them do.
struct DelayedClient {
    inner: LocalClient,
    delay: Duration,
}

impl KvClient for DelayedClient {
    fn start(&self, batch: Batch<'_>) -> Deferred<Bytes> {
        let result = self.inner.start(batch).wait();
        let due = Instant::now() + self.delay;
        Deferred::Polled {
            ready: Box::new(move || Instant::now() >= due),
            finish: Box::new(move || {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                result
            }),
            answered: None,
        }
    }
}

/// A client over `store` answering after `delay`.
fn delayed(store: &Arc<Store>, delay: Duration) -> Arc<dyn KvClient> {
    Arc::new(DelayedClient {
        inner: LocalClient::new(Arc::clone(store)),
        delay,
    })
}

#[test]
fn in_flight_settles_to_zero_under_concurrent_callers() {
    let (_, stores) = local_clients(4);
    let slow: Vec<Arc<dyn KvClient>> = stores
        .iter()
        .map(|s| delayed(s, Duration::from_micros(200)))
        .collect();
    let pool = Arc::new(ServerPool::new(slow, DistributorKind::default()));
    let keys = Arc::new(stripe_like_keys(64));
    let items: Vec<(Bytes, Bytes)> = keys
        .iter()
        .map(|k| (k.clone(), Bytes::from_static(b"z")))
        .collect();
    pool.set_many(&items).unwrap();

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let keys = Arc::clone(&keys);
            std::thread::spawn(move || {
                for _ in 0..8 {
                    for r in pool.get_many(&keys) {
                        r.unwrap();
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let snap = pool.stats().snapshot();
    let total_batches: u64 = snap.iter().map(|s| s.batches).sum();
    for s in &snap {
        assert_eq!(s.in_flight, 0, "gauge must settle once all callers join");
        assert!(s.max_in_flight <= total_batches as usize);
    }
    // 1 set_many + 4 threads x 8 get_many rounds, each touching all four
    // servers. (Whether batches *stack* on one server is up to the
    // scheduler — the deterministic overlap proof is the rendezvous test.)
    assert_eq!(total_batches, 33 * 4, "every per-server batch accounted");
}

#[test]
fn dropping_the_mount_after_close_loses_no_stripes() {
    // Write through a full MemFs mount over shaped (slow) servers, drop
    // the mount immediately after close, and verify every stripe is on
    // the stores by re-mounting and reading the file back.
    let stores: Vec<Arc<Store>> = (0..4)
        .map(|_| Arc::new(Store::new(StoreConfig::default())))
        .collect();
    let shaped = |stores: &[Arc<Store>]| -> Vec<Arc<dyn KvClient>> {
        stores
            .iter()
            .map(|s| delayed(s, Duration::from_micros(100)))
            .collect()
    };
    let config = MemFsConfig {
        stripe_size: 64 << 10,
        write_buffer_size: 1 << 20,
        read_cache_size: 1 << 20,
        ..MemFsConfig::default()
    };

    let data: Vec<u8> = (0..(1usize << 20) + 12345)
        .map(|i| (i * 31) as u8)
        .collect();
    {
        let fs = MemFs::new(shaped(&stores), config.clone()).unwrap();
        fs.mkdir("/fanout").unwrap();
        let mut w = fs.create("/fanout/drop.dat").unwrap();
        w.write_all(&data).unwrap();
        w.close().unwrap();
        drop(fs);
    }

    let fs = MemFs::new(shaped(&stores), config).unwrap();
    let got = fs.read_to_vec("/fanout/drop.dat").unwrap();
    assert_eq!(got.len(), data.len());
    assert_eq!(got, data, "no stripe may be lost or reordered on shutdown");
}
