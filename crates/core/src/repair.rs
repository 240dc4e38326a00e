//! Self-healing replication: failure detection feeds a repair planner
//! that re-replicates under-replicated keys in the background.
//!
//! The paper runs MemFS on memcached, where a dead storage node simply
//! loses its stripes; §3.2.5 prices replication as the defense. This
//! module closes the loop: with `r`-way replication a key survives a
//! server failure on its surviving replicas, and a **repair pass**
//! ([`repair_pass`]) restores it to full strength instead of leaving it
//! one failure away from loss.
//!
//! A pass is three steps over one [`ServerPool`]:
//!
//! 1. **Census** — [`ServerPool::health`] reports each member's liveness
//!    (for TCP mounts: the reactor's link state kept fresh by heartbeat
//!    probes; in tests: [`memfs_memkv::FailableClient`] injection).
//!    Retired slots — servers a completed membership transition drained
//!    — are not members and are never scanned or counted.
//! 2. **Plan** — every *alive* member's key population is enumerated
//!    ([`memfs_memkv::KvClient::scan_keys`], the same walk the migration
//!    mover rides) and diffed against where each key should live now:
//!    the first `r` alive entries of its candidate chain
//!    ([`ServerPool::replica_candidates`]). While an owner is down the
//!    home set slides onto surviving successors; when it returns the
//!    set converges back and failover copies are retired.
//! 3. **Copy** — each under-replicated key is read from a surviving
//!    holder and written to its missing homes via the shared mover
//!    ([`crate::mover::copy_key`]), throttled by a token bucket
//!    ([`RepairConfig::bandwidth`]) so background repair cannot starve
//!    foreground traffic of the wire.
//!
//! Degraded writes ([`crate::pool::DegradedWrite`], recorded when a
//! `set`/`set_many` lands on only part of its replica set) are drained
//! each pass and carry information the scan cannot recover: a replica
//! that missed a write may still hold a **stale prior value** under the
//! key (a file-size record is created empty and finalized by overwrite),
//! indistinguishable from a fresh copy by presence alone. The pass
//! treats hinted replicas as non-holders and re-copies over them; hints
//! whose replica is still down are re-queued so the stale copy is
//! overwritten when it returns. For *coverage* the scan remains
//! authoritative — any durable key is on at least one alive server, so
//! the scan also finds keys the queue never saw (e.g. keys lost to a
//! failure after a fully-replicated write).
//!
//! While a **membership transition** is migrating, repair stands down
//! ([`RepairReport::skipped`]): the home set is in motion and the two
//! movers would fight over placement. The [`RepairDaemon`] instead
//! spends those ticks driving [`crate::mover::migrate_pass`] under its
//! own budget ([`RepairConfig::migrate_bandwidth`]) — one background
//! thread serves both duties, never two. With
//! [`RepairConfig::evict_grace`] set, the daemon also runs a
//! [`MembershipMonitor`]: a member down past the grace window is
//! auto-evicted and its drain migrated out, after which repair resumes
//! on the shrunken ring.
//!
//! [`RepairDaemon`] runs passes on an interval;
//! [`crate::MemFs::repair_now`] runs one on demand. Repair is idempotent
//! and crash-safe: a pass that dies mid-copy leaves extra-but-valid
//! copies the next pass reconciles. One caveat: a repair copy races with
//! a concurrent `unlink` (read-before-delete, write-after) can resurrect
//! an orphan stripe key; it is invisible to the file system (its file
//! metadata is gone) and reclaimed by eviction, never surfaced to reads.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use memfs_hashring::ServerId;
use memfs_memkv::KvError;

use crate::error::MemFsResult;
use crate::mover::{
    copy_key, try_migrate_pass, CopyMode, CopyOutcome, MembershipMonitor, MigrateConfig,
    TokenBucket,
};
use crate::pool::{DegradedWrite, ServerPool};

/// Tuning for a repair pass (and for the daemon's migration duty).
#[derive(Debug, Clone, Default)]
pub struct RepairConfig {
    /// Token-bucket budget for repair copies, in bytes per second.
    /// `0` means unlimited.
    pub bandwidth: u64,
    /// Token-bucket budget for migration copies when the daemon drives a
    /// membership transition, in bytes per second. `0` means unlimited.
    pub migrate_bandwidth: u64,
    /// Auto-evict a member that stays down this long: the daemon starts
    /// a drain transition for it so the ring heals around the loss.
    /// `None` disables eviction — dead members wait for repair only.
    pub evict_grace: Option<Duration>,
}

/// Outcome of one repair pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// The pass stood down because a membership transition is migrating;
    /// every other field is zero.
    pub skipped: bool,
    /// Members the census reported unreachable.
    pub servers_down: usize,
    /// Distinct keys enumerated across the alive members.
    pub scanned_keys: usize,
    /// Degraded-write hints drained from the pool's queue.
    pub degraded_hints: usize,
    /// Keys found short of their current home set.
    pub under_replicated: usize,
    /// Keys restored to their full home set.
    pub repaired_keys: usize,
    /// Bytes copied to missing homes.
    pub copied_bytes: u64,
    /// Retired copies (on alive servers outside the key's home set —
    /// failover copies whose owner returned, or placement leftovers).
    pub removed_copies: usize,
    /// Keys the pass could not restore (no holder would serve the value,
    /// or a target refused the copy). They stay for the next pass.
    pub unrepairable: usize,
    /// Times the bandwidth token bucket paused the copy loop.
    pub throttle_waits: u64,
}

impl RepairReport {
    /// Whether the pass ran and left every scanned key on its full home
    /// set.
    pub fn converged(&self) -> bool {
        !self.skipped && self.unrepairable == 0 && self.under_replicated == self.repaired_keys
    }
}

/// Run one repair pass over `pool`: census, plan, copy (see the module
/// docs). Returns what it found and moved. Safe to run concurrently with
/// foreground reads and writes; runs on the caller's thread. While a
/// membership transition is migrating the pass stands down immediately
/// ([`RepairReport::skipped`]) — placement is in motion and belongs to
/// the migration mover until the transition commits.
///
/// # Errors
/// Only planner-level failures surface (today: none — a server that
/// fails mid-pass is treated as down and left for the next pass).
/// Per-key copy failures are counted in [`RepairReport::unrepairable`].
pub fn repair_pass(pool: &ServerPool, config: &RepairConfig) -> MemFsResult<RepairReport> {
    let mut report = RepairReport::default();
    // Stand down before touching the degraded queue: hints must survive
    // the migration so the first real pass afterwards still sees them.
    if pool.transition_active() {
        report.skipped = true;
        return Ok(report);
    }
    let member_set: BTreeSet<usize> = pool.members().iter().map(|m| m.0).collect();
    let mut alive: Vec<bool> = pool
        .health()
        .iter()
        .enumerate()
        .map(|(s, h)| member_set.contains(&s) && h.is_alive())
        .collect();

    // Degraded-write hints are more than accounting: a replica that
    // missed a write may still hold a *stale prior value* under the key
    // (e.g. a file-size record created empty and finalized by overwrite),
    // which a presence-based scan cannot tell from a fresh copy. Treat a
    // hinted replica as a non-holder so the pass re-copies over it.
    // Hinted slots that have since been evicted are dropped — a retired
    // server's stale copy left with the server.
    let hints = pool.take_degraded();
    report.degraded_hints = hints.len();
    let mut stale: BTreeMap<&[u8], BTreeSet<usize>> = BTreeMap::new();
    for hint in &hints {
        stale.entry(hint.key.as_ref()).or_default().extend(
            hint.missing
                .iter()
                .map(|id| id.0)
                .filter(|s| member_set.contains(s)),
        );
    }

    // Enumerate every alive member's keys. A member that fails the scan
    // (died after the census) is reclassified as down for this pass.
    let mut holders: BTreeMap<Vec<u8>, BTreeSet<usize>> = BTreeMap::new();
    for (s, up) in alive.iter_mut().enumerate() {
        if !*up {
            continue;
        }
        match pool.client(ServerId(s)).scan_keys() {
            Ok(keys) => {
                for key in keys {
                    holders.entry(key).or_default().insert(s);
                }
            }
            Err(_) => *up = false,
        }
    }
    report.servers_down = member_set.iter().filter(|&&s| !alive[s]).count();
    report.scanned_keys = holders.len();

    let r = pool.replication();
    let mut bucket = TokenBucket::new(config.bandwidth);
    let mut healed: BTreeSet<&[u8]> = BTreeSet::new();
    for (key, have) in &holders {
        // The key's current home set: the first r alive candidates.
        let home: Vec<ServerId> = pool
            .replica_candidates(key)
            .into_iter()
            .filter(|id| alive[id.0])
            .take(r)
            .collect();
        // Holders whose copy is known-fresh: hinted replicas missed the
        // write, so whatever they hold is at best stale.
        let stale_set = stale.get(key.as_slice());
        let fresh: BTreeSet<usize> = have
            .iter()
            .copied()
            .filter(|s| !stale_set.is_some_and(|st| st.contains(s)))
            .collect();
        let missing: Vec<ServerId> = home
            .iter()
            .copied()
            .filter(|id| !fresh.contains(&id.0))
            .collect();
        let mut fully_homed = missing.is_empty();
        if !missing.is_empty() {
            report.under_replicated += 1;
            let (outcome, bytes) = copy_key(
                pool,
                key,
                &fresh,
                &missing,
                CopyMode::Overwrite,
                &mut bucket,
            );
            report.copied_bytes += bytes;
            match outcome {
                CopyOutcome::Copied => {
                    report.repaired_keys += 1;
                    fully_homed = true;
                }
                CopyOutcome::Vanished => continue, // raced an unlink
                CopyOutcome::Failed => {
                    report.unrepairable += 1;
                    continue; // keep every copy we have
                }
            }
        }
        if fully_homed {
            healed.insert(key.as_slice());
            // Retire copies outside the home set (failover copies whose
            // owner returned). Only once the key is at full strength —
            // never trade an existing copy for a hoped-for one.
            let home_set: BTreeSet<usize> = home.iter().map(|id| id.0).collect();
            for &s in have.iter().filter(|s| !home_set.contains(s)) {
                match pool.client(ServerId(s)).delete(key) {
                    Ok(()) | Err(KvError::NotFound) => report.removed_copies += 1,
                    Err(_) => {} // next pass retries
                }
            }
        }
    }
    // Re-queue hints the pass could not resolve: a hinted replica that is
    // still down was not overwritten and may surface its stale copy when
    // it returns; a key that failed to heal keeps its full (member) hint.
    let requeue: Vec<DegradedWrite> = hints
        .into_iter()
        .filter(|hint| holders.contains_key(hint.key.as_ref())) // gone = unlinked
        .filter_map(|hint| {
            let keep: Vec<ServerId> = hint
                .missing
                .iter()
                .copied()
                .filter(|id| member_set.contains(&id.0))
                .filter(|id| !healed.contains(hint.key.as_ref()) || !alive[id.0])
                .collect();
            (!keep.is_empty()).then_some(DegradedWrite {
                key: hint.key,
                missing: keep,
            })
        })
        .collect();
    pool.requeue_degraded(requeue);

    report.throttle_waits = bucket.waits;
    Ok(report)
}

/// Background repair loop: one thread (`memfs-repair`) that each tick
/// either runs [`repair_pass`] or — while a membership transition is
/// migrating — a [`crate::mover::migrate_pass`] under
/// [`RepairConfig::migrate_bandwidth`]. With
/// [`RepairConfig::evict_grace`] set it also auto-evicts members down
/// past the grace window. One thread serves all three duties; elastic
/// membership adds **zero** threads to a mount. Idle passes are cheap
/// only relative to the data volume — the scan walks every alive
/// member's key list — so the interval trades detection latency against
/// enumeration traffic.
pub struct RepairDaemon {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl RepairDaemon {
    /// Spawn the repair thread over `pool`.
    ///
    /// # Panics
    /// Panics if `interval` is zero (use [`repair_pass`] directly for
    /// one-shot repairs) or if the OS refuses the thread.
    pub fn spawn(pool: Arc<ServerPool>, interval: Duration, config: RepairConfig) -> RepairDaemon {
        assert!(!interval.is_zero(), "repair interval must be non-zero");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("memfs-repair".into())
            .spawn(move || {
                let mut monitor = MembershipMonitor::new();
                let migrate = MigrateConfig {
                    bandwidth: config.migrate_bandwidth,
                };
                while !flag.load(Ordering::Relaxed) {
                    // Sleep in slices so stop() never waits a full
                    // interval for the thread to notice.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !flag.load(Ordering::Relaxed) {
                        let slice = (interval - slept).min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    if flag.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Some(grace) = config.evict_grace {
                        let _ = monitor.tick(&pool, grace);
                    }
                    if pool.transition_active() {
                        // try_: a manual migrate_now pass may hold the
                        // mutex; don't stack a second pass behind it.
                        let _ = try_migrate_pass(&pool, &migrate);
                    } else {
                        let _ = repair_pass(&pool, &config);
                    }
                }
            })
            .expect("spawn memfs-repair thread");
        RepairDaemon {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop the loop and join the thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for RepairDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistributorKind;
    use bytes::Bytes;
    use memfs_memkv::{FailableClient, KvClient, LocalClient, Store, StoreConfig};
    use std::time::Instant;

    type FailableHarness = (
        Arc<ServerPool>,
        Vec<Arc<FailableClient<LocalClient>>>,
        Vec<Arc<Store>>,
    );

    fn failable_pool(n: usize, replication: usize) -> FailableHarness {
        let stores: Vec<Arc<Store>> = (0..n)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let failables: Vec<Arc<FailableClient<LocalClient>>> = stores
            .iter()
            .map(|s| Arc::new(FailableClient::new(LocalClient::new(Arc::clone(s)))))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = failables
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
            .collect();
        let pool = Arc::new(ServerPool::with_replication(
            clients,
            DistributorKind::Ketama {
                points_per_server: 64,
            },
            replication,
        ));
        (pool, failables, stores)
    }

    fn seed(pool: &ServerPool, n_keys: usize) -> Vec<Vec<u8>> {
        (0..n_keys)
            .map(|i| {
                let key = format!("s:/data/f{i}#0").into_bytes();
                pool.set(&key, Bytes::from(vec![i as u8; 256])).unwrap();
                key
            })
            .collect()
    }

    /// Count how many alive home-set members hold each key.
    fn fully_replicated(pool: &ServerPool, keys: &[Vec<u8>], alive: &[bool], r: usize) -> bool {
        keys.iter().all(|key| {
            pool.replica_candidates(key)
                .into_iter()
                .filter(|id| alive[id.0])
                .take(r)
                .all(|id| pool.client(id).get_range(key, 0, 0).is_ok())
        })
    }

    #[test]
    fn healthy_pool_repair_is_a_no_op() {
        let (pool, _failables, _stores) = failable_pool(4, 2);
        let keys = seed(&pool, 40);
        let report = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert_eq!(report.servers_down, 0);
        assert_eq!(report.scanned_keys, keys.len());
        assert_eq!(report.under_replicated, 0);
        assert_eq!(report.copied_bytes, 0);
        assert_eq!(report.removed_copies, 0);
        assert!(report.converged());
    }

    #[test]
    fn repair_restores_replication_after_a_failure() {
        let (pool, failables, _stores) = failable_pool(5, 2);
        let keys = seed(&pool, 60);
        failables[1].set_down(true);

        let report = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert_eq!(report.servers_down, 1);
        assert!(report.under_replicated > 0, "server 1 must have owned keys");
        assert_eq!(report.repaired_keys, report.under_replicated);
        assert!(report.converged());
        assert!(report.copied_bytes > 0);

        // Every key now sits on two *alive* servers...
        let alive: Vec<bool> = (0..5).map(|s| s != 1).collect();
        assert!(fully_replicated(&pool, &keys, &alive, 2));
        // ...so a second, different failure loses nothing.
        failables[3].set_down(true);
        for key in &keys {
            pool.get(key).unwrap();
        }
    }

    #[test]
    fn second_pass_after_repair_is_stable() {
        let (pool, failables, _stores) = failable_pool(5, 2);
        seed(&pool, 30);
        failables[0].set_down(true);
        repair_pass(&pool, &RepairConfig::default()).unwrap();
        let second = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert_eq!(second.under_replicated, 0, "repair must converge");
        assert_eq!(second.copied_bytes, 0);
    }

    #[test]
    fn revived_server_gets_its_keys_back_and_failover_copies_retire() {
        let (pool, failables, stores) = failable_pool(4, 2);
        let keys = seed(&pool, 50);
        failables[2].set_down(true);
        repair_pass(&pool, &RepairConfig::default()).unwrap();

        failables[2].set_down(false);
        let report = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert_eq!(report.servers_down, 0);
        assert_eq!(report.repaired_keys, report.under_replicated);
        assert!(
            report.removed_copies > 0,
            "failover copies must retire once the owner returns"
        );

        // Converged back to the true owner placement: every key on
        // exactly its r owners, nowhere else.
        for key in &keys {
            let homes: BTreeSet<usize> = pool.servers_for(key).map(|id| id.0).collect();
            for (s, store) in stores.iter().enumerate() {
                assert_eq!(
                    store.contains(key),
                    homes.contains(&s),
                    "key {} misplaced on server {s}",
                    String::from_utf8_lossy(key)
                );
            }
        }
    }

    #[test]
    fn degraded_writes_during_an_outage_are_healed() {
        let (pool, failables, _stores) = failable_pool(4, 2);
        failables[1].set_down(true);
        // Writes during the outage succeed degraded and queue hints.
        let keys = seed(&pool, 40);
        assert!(pool.degraded_pending() > 0);

        let report = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert!(report.degraded_hints > 0);
        assert!(report.converged());
        let alive: Vec<bool> = (0..4).map(|s| s != 1).collect();
        assert!(fully_replicated(&pool, &keys, &alive, 2));
        // Hints for the still-down replica stay queued: it may hold a
        // stale copy the pass could not overwrite.
        assert!(pool.degraded_pending() > 0);

        // Once the replica returns, the next pass resolves them.
        failables[1].set_down(false);
        repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert_eq!(pool.degraded_pending(), 0, "hints resolve after revival");
    }

    #[test]
    fn stale_overwritten_values_on_a_missed_replica_are_re_copied() {
        // A replica that misses an *overwrite* still holds the prior
        // value — presence-based scanning alone would call it healthy.
        // The degraded-write hint forces a re-copy of the fresh value.
        let (pool, failables, _stores) = failable_pool(4, 2);
        let key = b"f:/stale-check".to_vec();
        pool.set(&key, Bytes::from_static(b"")).unwrap(); // create empty
        let victim = pool.servers_for(&key).last().unwrap();
        failables[victim.0].set_down(true);
        pool.set(&key, Bytes::from_static(b"4096")).unwrap(); // finalize
        assert_eq!(pool.degraded_pending(), 1);

        failables[victim.0].set_down(false);
        let report = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert!(report.converged());
        assert_eq!(pool.degraded_pending(), 0);
        // Every home replica now serves the fresh value — including the
        // one that sat out the overwrite holding the empty record.
        for id in pool.servers_for(&key) {
            let v = pool.client(id).get(&key).unwrap();
            assert_eq!(&v[..], b"4096", "server {} is stale", id.0);
        }
    }

    #[test]
    fn bandwidth_budget_throttles_the_copy_loop() {
        let (pool, failables, _stores) = failable_pool(4, 2);
        seed(&pool, 30); // 30 × 256 B
        failables[0].set_down(true);
        let config = RepairConfig {
            bandwidth: 64 << 10, // 64 KiB/s against ~a few KiB of copies
            ..RepairConfig::default()
        };
        let started = Instant::now();
        let report = repair_pass(&pool, &config).unwrap();
        assert!(report.converged());
        if report.copied_bytes > config.bandwidth {
            assert!(report.throttle_waits > 0);
        }
        // The pass may not beat its own budget.
        let floor = Duration::from_secs_f64(
            report.copied_bytes.saturating_sub(config.bandwidth) as f64 / config.bandwidth as f64,
        );
        assert!(started.elapsed() >= floor);
    }

    #[test]
    fn repair_stands_down_while_a_transition_is_migrating() {
        let (pool, failables, _stores) = failable_pool(4, 2);
        failables[1].set_down(true);
        seed(&pool, 20); // queues degraded hints
        failables[1].set_down(false);
        let pending = pool.degraded_pending();
        assert!(pending > 0);

        let extra = Arc::new(Store::new(StoreConfig::default()));
        pool.begin_add_servers(vec![Arc::new(LocalClient::new(extra)) as Arc<dyn KvClient>])
            .unwrap();
        let report = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert!(report.skipped);
        assert!(!report.converged());
        assert_eq!(report.scanned_keys, 0);
        // The queue survives the stand-down for the pass after commit.
        assert_eq!(pool.degraded_pending(), pending);
    }

    #[test]
    fn daemon_heals_in_the_background_and_stops_cleanly() {
        let (pool, failables, _stores) = failable_pool(5, 2);
        let keys = seed(&pool, 40);
        let mut daemon = RepairDaemon::spawn(
            Arc::clone(&pool),
            Duration::from_millis(10),
            RepairConfig::default(),
        );
        failables[2].set_down(true);

        let alive: Vec<bool> = (0..5).map(|s| s != 2).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !fully_replicated(&pool, &keys, &alive, 2) {
            assert!(
                Instant::now() < deadline,
                "daemon never restored replication"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.stop();
        daemon.stop(); // idempotent
    }

    #[test]
    fn daemon_drives_a_membership_transition_to_completion() {
        let (pool, _failables, _stores) = failable_pool(2, 1);
        let keys = seed(&pool, 60);
        let mut daemon = RepairDaemon::spawn(
            Arc::clone(&pool),
            Duration::from_millis(5),
            RepairConfig::default(),
        );
        let extra: Vec<Arc<dyn KvClient>> = (0..2)
            .map(|_| {
                Arc::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))) as Arc<dyn KvClient>
            })
            .collect();
        pool.begin_add_servers(extra).unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.transition_active() {
            assert!(
                Instant::now() < deadline,
                "daemon never finished the migration"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.stop();
        assert_eq!(pool.members().len(), 4);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(pool.get(key).unwrap(), Bytes::from(vec![i as u8; 256]));
        }
    }

    #[test]
    fn daemon_auto_evicts_a_member_down_past_the_grace_window() {
        let (pool, failables, _stores) = failable_pool(5, 2);
        let keys = seed(&pool, 50);
        let mut daemon = RepairDaemon::spawn(
            Arc::clone(&pool),
            Duration::from_millis(5),
            RepairConfig {
                evict_grace: Some(Duration::from_millis(20)),
                ..RepairConfig::default()
            },
        );
        failables[3].set_down(true);

        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.members().len() == 5 || pool.transition_active() {
            assert!(Instant::now() < deadline, "daemon never evicted server 3");
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.stop();
        assert!(!pool.members().contains(&ServerId(3)));
        // The drain ran without the dead server: every key survives on
        // the shrunken ring at full replication.
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(pool.get(key).unwrap(), Bytes::from(vec![i as u8; 256]));
        }
        let alive: Vec<bool> = (0..5).map(|s| s != 3).collect();
        assert!(fully_replicated(&pool, &keys, &alive, 2));
    }
}
