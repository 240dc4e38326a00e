//! The mover: shared scan/diff/copy machinery behind background data
//! movement, driven by two callers — the repair planner (restore a key's
//! replica set after a failure, `repair.rs`) and the **rebalancer**
//! (migrate key ranges onto a changed membership, [`migrate_pass`]).
//!
//! ## Migration protocol
//!
//! A membership transition (installed by [`ServerPool::begin_add_servers`]
//! / [`ServerPool::begin_remove_server`]) carries a target ring and a
//! per-key-range phase table. Each [`migrate_pass`]:
//!
//! 1. **Open** — flip a batch of `Old` ranges to `Migrating`, then
//!    quiesce: once the gate drains, every in-flight write to those
//!    ranges dual-routes (old ∪ new homes) and every read consults old
//!    homes first. The set of keys reachable only via the old ring is
//!    now closed — nothing new can appear there.
//! 2. **Scan** — enumerate the alive members' keys, keep those in
//!    `Migrating` ranges, and record which servers hold each.
//! 3. **Copy** — for each key missing from one of its target-ring homes,
//!    read a holder and `add` the value to the missing homes under the
//!    token-bucket budget ([`MigrateConfig::bandwidth`]). `add` (not
//!    `set`): a dual-routed foreground write that beat the copy is
//!    *fresher* than the scanned value and must not be clobbered —
//!    `Exists` means the target is already current. A post-copy re-read
//!    of the source closes the dropped-append window (an append that
//!    raced the copy was tolerated as `NotFound` on the target): a grown
//!    source value re-appends its byte suffix (directory logs fold as
//!    order-insensitive idempotent sets, so a duplicate entry is
//!    absorbed), any other change is re-`set` whole. A holder with a
//!    pending degraded-write hint is **stale** — it missed an acked
//!    write and may still serve the prior value — so it neither counts
//!    as holding the key nor serves as a copy source, and its key is
//!    copied with overwrite semantics so the fresh value also replaces
//!    any stale copy sitting on a target home.
//! 4. **Flip** — ranges whose copies all landed flip to `New`; quiesce
//!    again so every dual-routed write has settled, then delete the old
//!    copies that are no longer homes. Ranges with failed copies stay
//!    `Migrating` (dual-routing keeps them correct) for the next pass.
//!    If a *current member* was unscannable, no range flips at all this
//!    pass: flipping without its key census could strand keys behind an
//!    authoritative target-ring `NotFound`. (A **leaving** server is
//!    exempt — eviction drains a dead server precisely when its data
//!    survives on replicas, which the surviving members' scans cover.)
//! 5. **Complete** — when every range is `New`, the transition commits:
//!    the target membership becomes current and leaving slots retire.
//!
//! Keys dual-written *after* the scan leave already-correct copies on
//! both rings; the stale old-home copies are strays the next
//! `repair_pass` retires (out-of-home copies of fully-homed keys).
//! A migration copy racing a concurrent unlink can resurrect an orphan
//! key — same caveat as repair: invisible to the file system, reclaimed
//! by eviction.
//!
//! [`MembershipMonitor`] turns the heartbeat census into membership:
//! a member down past a grace window is auto-evicted (a
//! `begin_remove_server` transition) so the ring heals around it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs_hashring::{range_of, RangePhase, ServerId, MIGRATION_RANGES};
use memfs_memkv::KvError;

use crate::error::MemFsResult;
use crate::pool::ServerPool;

/// How many `Old` ranges one migration pass opens at once. Small enough
/// that only 1/4 of the key space dual-routes at a time; large enough
/// that a transition completes in a handful of passes.
const RANGES_PER_PASS: usize = 16;

/// Tuning for a migration pass.
#[derive(Debug, Clone, Default)]
pub struct MigrateConfig {
    /// Token-bucket budget for migration copies, in bytes per second.
    /// `0` means unlimited.
    pub bandwidth: u64,
}

/// Outcome of one migration pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// A membership transition was in progress when the pass ran.
    pub active: bool,
    /// Total key ranges in the phase table.
    pub ranges_total: usize,
    /// Ranges fully migrated (phase `New`) after this pass.
    pub ranges_completed: usize,
    /// Distinct keys enumerated in the ranges this pass worked on.
    pub scanned_keys: usize,
    /// Keys that needed copies — exactly the scanned keys some target
    /// home did not already hold.
    pub moved_keys: usize,
    /// Bytes copied to target homes.
    pub copied_bytes: u64,
    /// Old-ring copies deleted after their range flipped.
    pub removed_copies: usize,
    /// Keys whose copy failed (their range stays `Migrating`).
    pub failed_copies: usize,
    /// Times the bandwidth token bucket paused the copy loop.
    pub throttle_waits: u64,
    /// The transition finished during this pass (or none was active).
    pub complete: bool,
}

/// Debt-based token bucket: `take` always grants, then sleeps off any
/// debt at `rate` bytes/s — simpler than capacity planning and exact
/// over a whole pass, which is all a background throttle needs.
pub(crate) struct TokenBucket {
    rate: u64,
    tokens: f64,
    last: Instant,
    pub(crate) waits: u64,
}

impl TokenBucket {
    pub(crate) fn new(rate: u64) -> TokenBucket {
        TokenBucket {
            rate,
            tokens: 0.0,
            last: Instant::now(),
            waits: 0,
        }
    }

    fn refill(&mut self) {
        let now = Instant::now();
        let earned = now.duration_since(self.last).as_secs_f64() * self.rate as f64;
        // Cap the balance at one second of budget: an idle stretch must
        // not bank an arbitrarily large burst.
        self.tokens = (self.tokens + earned).min(self.rate as f64);
        self.last = now;
    }

    pub(crate) fn take(&mut self, bytes: u64) {
        if self.rate == 0 || bytes == 0 {
            return;
        }
        self.refill();
        self.tokens -= bytes as f64;
        if self.tokens < 0.0 {
            self.waits += 1;
            std::thread::sleep(Duration::from_secs_f64(-self.tokens / self.rate as f64));
            self.refill();
        }
    }
}

/// How [`copy_key`] places the value on a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CopyMode {
    /// `set` unconditionally — repair's mode: a hinted replica may hold a
    /// stale prior value that must be overwritten.
    Overwrite,
    /// `add`, treating `Exists` as success — migration's mode: a
    /// dual-routed foreground write that beat the copy left a value at
    /// least as fresh, which must not be clobbered. Includes the
    /// post-copy source re-read that carries a raced append across.
    AddIfAbsent,
}

/// Outcome of copying one key to its missing homes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CopyOutcome {
    /// Every missing home took the copy.
    Copied,
    /// Every holder agreed the key is gone: it raced an unlink.
    Vanished,
    /// No holder served the value, or a target refused the copy.
    Failed,
}

/// Read `key` from one of `sources` and place it on every server in
/// `targets`, throttled by `bucket`. Returns the outcome and the bytes
/// actually written.
pub(crate) fn copy_key(
    pool: &ServerPool,
    key: &[u8],
    sources: &BTreeSet<usize>,
    targets: &[ServerId],
    mode: CopyMode,
    bucket: &mut TokenBucket,
) -> (CopyOutcome, u64) {
    let mut value: Option<(usize, Bytes)> = None;
    for &s in sources {
        match pool.client(ServerId(s)).get(key) {
            Ok(v) => {
                value = Some((s, v));
                break;
            }
            Err(KvError::NotFound) => {}
            Err(_) => {} // holder flaked; try the next one
        }
    }
    let Some((source, value)) = value else {
        return if sources.is_empty() {
            (CopyOutcome::Failed, 0)
        } else {
            (CopyOutcome::Vanished, 0)
        };
    };
    let mut copied = 0u64;
    let mut all_written = true;
    for &target in targets {
        bucket.take(value.len() as u64);
        let result = match mode {
            CopyMode::Overwrite => pool.client(target).set(key, value.clone()),
            CopyMode::AddIfAbsent => match pool.client(target).add(key, value.clone()) {
                Err(KvError::Exists) => Ok(()),
                r => r,
            },
        };
        match result {
            Ok(()) => copied += value.len() as u64,
            Err(_) => all_written = false,
        }
    }
    if mode == CopyMode::AddIfAbsent && all_written {
        // Close the dropped-append window: an append issued between the
        // source read and the target `add` landed on the source (old
        // homes route first) but may have been tolerated as `NotFound`
        // on a target the copy had not reached yet. Carry the delta.
        if let Ok(now) = pool.client(ServerId(source)).get(key) {
            if now != value {
                let grown = now.len() > value.len() && now[..value.len()] == value[..];
                for &target in targets {
                    bucket.take((now.len() - if grown { value.len() } else { 0 }) as u64);
                    let r = if grown {
                        // Directory logs fold as order-insensitive
                        // idempotent sets, so re-appending an entry a
                        // dual-routed append already delivered is safe.
                        pool.client(target).append(key, &now[value.len()..])
                    } else {
                        pool.client(target).set(key, now.clone())
                    };
                    match r {
                        Ok(()) => copied += (now.len() - value.len().min(now.len())) as u64,
                        Err(_) => all_written = false,
                    }
                }
            }
        }
    }
    if all_written {
        (CopyOutcome::Copied, copied)
    } else {
        (CopyOutcome::Failed, copied)
    }
}

/// Run one migration pass over `pool` (see the module docs for the
/// protocol). Blocks if another pass is running (daemon vs. manual);
/// returns immediately with `complete: true` when no transition is
/// active. Safe to run concurrently with foreground reads and writes;
/// runs on the caller's thread.
pub fn migrate_pass(pool: &ServerPool, config: &MigrateConfig) -> MemFsResult<MigrationReport> {
    let _pass = pool.migration_mutex().lock();
    run_pass(pool, config)
}

/// [`migrate_pass`] that yields instead of blocking when another pass
/// holds the migration mutex — the repair daemon's entry point.
pub(crate) fn try_migrate_pass(
    pool: &ServerPool,
    config: &MigrateConfig,
) -> Option<MemFsResult<MigrationReport>> {
    let _pass = pool.migration_mutex().try_lock()?;
    Some(run_pass(pool, config))
}

fn run_pass(pool: &ServerPool, config: &MigrateConfig) -> MemFsResult<MigrationReport> {
    let mut report = MigrationReport {
        ranges_total: MIGRATION_RANGES,
        ..Default::default()
    };
    let state = pool.ring_state();
    let Some(t) = &state.transition else {
        report.complete = true;
        report.ranges_completed = MIGRATION_RANGES;
        return Ok(report);
    };
    report.active = true;

    // 1. Open a batch of Old ranges. After the quiesce, every in-flight
    // write to them dual-routes, so the old-ring-only key population is
    // closed and the scan below cannot miss a later write.
    let old = t.ranges.ranges_in(RangePhase::Old);
    if !old.is_empty() {
        for &range in old.iter().take(RANGES_PER_PASS) {
            t.ranges.set_phase(range, RangePhase::Migrating);
        }
        pool.quiesce();
    }
    let working: BTreeSet<usize> = t
        .ranges
        .ranges_in(RangePhase::Migrating)
        .into_iter()
        .collect();
    if working.is_empty() {
        // Every range already flipped: commit the transition.
        report.ranges_completed = MIGRATION_RANGES;
        pool.quiesce();
        pool.complete_transition();
        report.complete = true;
        return Ok(report);
    }

    // 2. Census + scan. A current member that is down or fails its scan
    // wedges every flip this pass (but not the copying): without its key
    // census, flipping a range to New could strand a key it alone holds
    // behind an authoritative target-ring NotFound. A *leaving* member
    // is exempt — draining a dead server is exactly the case where its
    // data must already survive on scanned replicas.
    let alive: Vec<bool> = pool.health().iter().map(|h| h.is_alive()).collect();
    let members: BTreeSet<usize> = state.members.iter().copied().collect();
    let leaving: BTreeSet<usize> = t.leaving.iter().copied().collect();
    let mut relevant: BTreeSet<usize> = members.clone();
    relevant.extend(t.target_members.iter().copied());
    let mut holders: BTreeMap<Vec<u8>, BTreeSet<usize>> = BTreeMap::new();
    let mut scan_failed = false;
    for &s in &relevant {
        let must_scan = members.contains(&s) && !leaving.contains(&s);
        if !alive.get(s).copied().unwrap_or(false) {
            scan_failed |= must_scan;
            continue;
        }
        match pool.client(ServerId(s)).scan_keys() {
            Ok(keys) => {
                for key in keys {
                    if working.contains(&range_of(&key)) {
                        holders.entry(key).or_default().insert(s);
                    }
                }
            }
            Err(_) => scan_failed |= must_scan,
        }
    }
    report.scanned_keys = holders.len();

    // Replicas with a pending degraded-write hint missed an acked write
    // and may still hold the *prior* value under the key. They neither
    // count as holders nor serve as copy sources — copying from one
    // would resurrect the stale value on the new homes while step 4
    // retires the fresh old-home copy, losing the acked write.
    let mut stale: BTreeMap<Vec<u8>, BTreeSet<usize>> = BTreeMap::new();
    for hint in pool.peek_degraded() {
        stale
            .entry(hint.key.as_ref().to_vec())
            .or_default()
            .extend(hint.missing.iter().map(|id| id.0));
    }

    // 3. Copy every key some target home is missing. Keys whose target
    // homes all hold a copy are left untouched — membership changes move
    // exactly the keys whose home set changed.
    let r = pool.replication();
    let mut bucket = TokenBucket::new(config.bandwidth);
    let mut range_failed: BTreeSet<usize> = BTreeSet::new();
    for (key, have) in &holders {
        let stale_set = stale.get(key);
        let fresh: BTreeSet<usize> = match stale_set {
            Some(st) => {
                let fresh: BTreeSet<usize> = have.difference(st).copied().collect();
                // Every holder stale (fresh copy lost with a server):
                // best effort from what survives.
                if fresh.is_empty() {
                    have.clone()
                } else {
                    fresh
                }
            }
            None => have.clone(),
        };
        let missing: Vec<ServerId> = t
            .target
            .replicas_for(key, r)
            .into_iter()
            .filter(|id| !fresh.contains(&id.0))
            .collect();
        if missing.is_empty() {
            continue;
        }
        report.moved_keys += 1;
        // A key with a stale home overwrites (the target may hold the
        // stale prior value); otherwise add-if-absent lets a racing
        // dual-routed write win.
        let mode = if stale_set.is_some() {
            CopyMode::Overwrite
        } else {
            CopyMode::AddIfAbsent
        };
        let (outcome, bytes) = copy_key(pool, key, &fresh, &missing, mode, &mut bucket);
        report.copied_bytes += bytes;
        match outcome {
            CopyOutcome::Copied => {}
            CopyOutcome::Vanished => {} // raced an unlink; nothing to place
            CopyOutcome::Failed => {
                report.failed_copies += 1;
                range_failed.insert(range_of(key));
            }
        }
    }

    // 4. Flip clean ranges to New, wait out the last dual-routed writes,
    // then retire the old-ring copies that are no longer homes.
    if !scan_failed {
        let flipped: BTreeSet<usize> = working
            .iter()
            .copied()
            .filter(|range| !range_failed.contains(range))
            .collect();
        if !flipped.is_empty() {
            for &range in &flipped {
                t.ranges.set_phase(range, RangePhase::New);
            }
            pool.quiesce();
            for (key, have) in &holders {
                if !flipped.contains(&range_of(key)) {
                    continue;
                }
                let homes: BTreeSet<usize> = t
                    .target
                    .replicas_for(key, r)
                    .into_iter()
                    .map(|id| id.0)
                    .collect();
                for &s in have.iter().filter(|s| !homes.contains(s)) {
                    match pool.client(ServerId(s)).delete(key) {
                        Ok(()) | Err(KvError::NotFound) => report.removed_copies += 1,
                        Err(_) => {} // post-transition repair retires strays
                    }
                }
            }
        }
    }

    report.ranges_completed = t.ranges.ranges_in(RangePhase::New).len();
    report.throttle_waits = bucket.waits;

    // 5. Commit once every range reached New.
    if t.ranges.all_new() {
        pool.quiesce();
        pool.complete_transition();
        report.complete = true;
    }
    Ok(report)
}

/// Heartbeat census → membership: tracks how long each member has been
/// down and auto-evicts one that stays down past the grace window by
/// starting a drain transition for it. Driven by the repair daemon's
/// tick; holds no thread of its own.
#[derive(Debug, Default)]
pub struct MembershipMonitor {
    down_since: HashMap<usize, Instant>,
}

impl MembershipMonitor {
    /// A fresh monitor with no down history.
    pub fn new() -> MembershipMonitor {
        MembershipMonitor::default()
    }

    /// Observe the pool's health census once. Returns the member this
    /// tick evicted, if any. Eviction starts only when no transition is
    /// active and enough members would remain to satisfy the replication
    /// factor; a candidate that stays down keeps its timer and is
    /// retried next tick.
    pub fn tick(&mut self, pool: &ServerPool, grace: Duration) -> Option<ServerId> {
        let members = pool.members();
        let health = pool.health();
        let member_set: BTreeSet<usize> = members.iter().map(|m| m.0).collect();
        self.down_since.retain(|s, _| member_set.contains(s));
        let now = Instant::now();
        for m in &members {
            if health.get(m.0).is_some_and(|h| h.is_alive()) {
                self.down_since.remove(&m.0);
            } else {
                self.down_since.entry(m.0).or_insert(now);
            }
        }
        if pool.transition_active() || members.len() <= pool.replication() {
            return None;
        }
        let victim = self
            .down_since
            .iter()
            .filter(|(_, since)| now.duration_since(**since) >= grace)
            .map(|(&s, _)| s)
            .min()?;
        match pool.begin_remove_server(ServerId(victim)) {
            Ok(()) => {
                self.down_since.remove(&victim);
                Some(ServerId(victim))
            }
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistributorKind;
    use memfs_memkv::{FailableClient, KvClient, LocalClient, Store, StoreConfig};
    use std::sync::Arc;

    use memfs_hashring::{Distributor, KetamaRing};

    const POINTS: usize = 32;

    fn stores(n: usize) -> Vec<Arc<Store>> {
        (0..n)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect()
    }

    fn local(s: &Arc<Store>) -> Arc<dyn KvClient> {
        Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>
    }

    fn ketama_pool(backing: &[Arc<Store>], replication: usize) -> ServerPool {
        ServerPool::with_replication(
            backing.iter().map(local).collect(),
            DistributorKind::Ketama {
                points_per_server: POINTS,
            },
            replication,
        )
    }

    fn drive_to_completion(pool: &ServerPool, config: &MigrateConfig) -> MigrationReport {
        let mut total = MigrationReport::default();
        for _ in 0..(MIGRATION_RANGES + 2) {
            let rep = migrate_pass(pool, config).unwrap();
            total.scanned_keys += rep.scanned_keys;
            total.moved_keys += rep.moved_keys;
            total.copied_bytes += rep.copied_bytes;
            total.removed_copies += rep.removed_copies;
            total.failed_copies += rep.failed_copies;
            total.complete = rep.complete;
            if rep.complete {
                return total;
            }
        }
        panic!("migration never completed: {total:?}");
    }

    #[test]
    fn pass_without_a_transition_is_complete_and_inactive() {
        let backing = stores(3);
        let pool = ketama_pool(&backing, 1);
        let rep = migrate_pass(&pool, &MigrateConfig::default()).unwrap();
        assert!(!rep.active);
        assert!(rep.complete);
        assert_eq!(rep.moved_keys, 0);
    }

    #[test]
    fn grow_moves_exactly_the_remapped_keys_and_matches_a_fresh_ring() {
        let backing = stores(4);
        let pool = ketama_pool(&backing[..2], 1);
        let keys: Vec<Vec<u8>> = (0..200)
            .map(|i| format!("s:/data/f{i}#0").into_bytes())
            .collect();
        for (i, key) in keys.iter().enumerate() {
            pool.set(key, Bytes::from(vec![i as u8; 128])).unwrap();
        }
        let ids = pool
            .begin_add_servers(backing[2..].iter().map(local).collect())
            .unwrap();
        assert_eq!(ids, vec![ServerId(2), ServerId(3)]);

        let old_ring = KetamaRing::with_members(&[0, 1], POINTS);
        let new_ring = KetamaRing::with_members(&[0, 1, 2, 3], POINTS);
        let expected_moves = keys
            .iter()
            .filter(|k| old_ring.server_for(k) != new_ring.server_for(k))
            .count();

        let total = drive_to_completion(&pool, &MigrateConfig::default());
        assert!(total.complete);
        assert_eq!(total.failed_copies, 0);
        assert_eq!(
            total.moved_keys, expected_moves,
            "a grow must move exactly the keys whose home changed"
        );
        assert!(!pool.transition_active());
        assert_eq!(pool.members().len(), 4);

        // Post-migration placement equals a fresh ring's: every key on
        // exactly its new home, nowhere else, values intact.
        for (i, key) in keys.iter().enumerate() {
            let home = new_ring.server_for(key);
            assert_eq!(pool.server_for(key), home);
            for (s, store) in backing.iter().enumerate() {
                assert_eq!(
                    store.contains(key),
                    s == home.0,
                    "key {} misplaced on server {s}",
                    String::from_utf8_lossy(key)
                );
            }
            assert_eq!(pool.get(key).unwrap(), Bytes::from(vec![i as u8; 128]));
        }
    }

    #[test]
    fn shrink_drains_the_leaving_server_completely() {
        let backing = stores(3);
        let pool = ketama_pool(&backing, 2);
        let keys: Vec<Vec<u8>> = (0..120)
            .map(|i| format!("s:/data/g{i}#0").into_bytes())
            .collect();
        for key in &keys {
            pool.set(key, Bytes::from_static(b"payload")).unwrap();
        }
        pool.begin_remove_server(ServerId(2)).unwrap();
        let total = drive_to_completion(&pool, &MigrateConfig::default());
        assert!(total.complete);
        assert_eq!(pool.members(), vec![ServerId(0), ServerId(1)]);
        assert_eq!(
            backing[2].item_count(),
            0,
            "the drained server must hold nothing"
        );
        let fresh = KetamaRing::with_members(&[0, 1], POINTS);
        for key in &keys {
            assert_eq!(pool.get(key).unwrap().as_ref(), b"payload");
            let homes: BTreeSet<usize> = fresh
                .replicas_for(key, 2)
                .into_iter()
                .map(|id| id.0)
                .collect();
            for (s, store) in backing.iter().enumerate() {
                assert_eq!(store.contains(key), homes.contains(&s));
            }
        }
    }

    #[test]
    fn unscannable_member_wedges_flips_but_dual_routing_keeps_serving() {
        let backing = stores(3);
        let failables: Vec<Arc<FailableClient<LocalClient>>> = backing
            .iter()
            .map(|s| Arc::new(FailableClient::new(LocalClient::new(Arc::clone(s)))))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = failables
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
            .collect();
        let pool = ServerPool::with_replication(
            clients[..2].to_vec(),
            DistributorKind::Ketama {
                points_per_server: POINTS,
            },
            2,
        );
        let keys: Vec<Vec<u8>> = (0..60).map(|i| format!("k{i}").into_bytes()).collect();
        for key in &keys {
            pool.set(key, Bytes::from_static(b"v")).unwrap();
        }
        pool.begin_add_servers(vec![Arc::clone(&clients[2])])
            .unwrap();
        failables[0].set_down(true);
        let rep = migrate_pass(&pool, &MigrateConfig::default()).unwrap();
        assert_eq!(
            rep.ranges_completed, 0,
            "no range may flip while a member is unscannable"
        );
        assert!(!rep.complete);
        // Reads still serve through the surviving old home.
        for key in &keys {
            assert_eq!(pool.get(key).unwrap().as_ref(), b"v");
        }
        // Revive and finish.
        failables[0].set_down(false);
        let total = drive_to_completion(&pool, &MigrateConfig::default());
        assert!(total.complete);
        for key in &keys {
            assert_eq!(pool.get(key).unwrap().as_ref(), b"v");
        }
    }

    #[test]
    fn migration_budget_throttles_the_copy_loop() {
        let backing = stores(4);
        let pool = ketama_pool(&backing[..2], 1);
        for i in 0..40 {
            pool.set(format!("b{i}").as_bytes(), Bytes::from(vec![0u8; 4096]))
                .unwrap();
        }
        pool.begin_add_servers(backing[2..].iter().map(local).collect())
            .unwrap();
        let config = MigrateConfig {
            bandwidth: 64 << 10,
        };
        let started = Instant::now();
        let total = drive_to_completion(&pool, &config);
        assert!(total.complete);
        // The pass may not beat its own budget (one second of burst is
        // banked, so subtract it).
        let floor = Duration::from_secs_f64(
            total.copied_bytes.saturating_sub(config.bandwidth) as f64 / config.bandwidth as f64,
        );
        assert!(started.elapsed() >= floor);
    }

    #[test]
    fn migration_never_copies_from_a_stale_holder() {
        // A degraded write leaves server 0 holding the *prior* value
        // with a pending hint. The grow migration must copy the acked
        // value from the fresh holder — and overwrite any stale copy on
        // a target home — never resurrect the old one.
        let backing = stores(3);
        let failables: Vec<Arc<FailableClient<LocalClient>>> = backing
            .iter()
            .map(|s| Arc::new(FailableClient::new(LocalClient::new(Arc::clone(s)))))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = failables
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
            .collect();
        let pool = ServerPool::with_replication(
            clients[..2].to_vec(),
            DistributorKind::Ketama {
                points_per_server: POINTS,
            },
            2,
        );
        // Pick a key whose home set actually changes when server 2
        // joins, so the mover must move it.
        let new_ring = KetamaRing::with_members(&[0, 1, 2], POINTS);
        let key = (0..)
            .map(|i| format!("f:/stale{i}").into_bytes())
            .find(|k| new_ring.replicas_for(k, 2).contains(&ServerId(2)))
            .unwrap();

        pool.set(&key, Bytes::from_static(b"old")).unwrap();
        failables[0].set_down(true);
        pool.set(&key, Bytes::from_static(b"new")).unwrap();
        assert!(pool.degraded_pending() > 0, "the miss must leave a hint");
        failables[0].set_down(false);
        assert_eq!(
            pool.client(ServerId(0)).get(&key).unwrap().as_ref(),
            b"old",
            "server 0 must still hold the stale prior value"
        );

        pool.begin_add_servers(vec![Arc::clone(&clients[2])])
            .unwrap();
        let total = drive_to_completion(&pool, &MigrateConfig::default());
        assert!(total.complete);

        // The acked value survived on every new home; the stale value is
        // nowhere the reader can see it.
        let homes: BTreeSet<usize> = new_ring
            .replicas_for(&key, 2)
            .into_iter()
            .map(|id| id.0)
            .collect();
        for &s in &homes {
            assert_eq!(
                pool.client(ServerId(s)).get(&key).unwrap().as_ref(),
                b"new",
                "home {s} must hold the acked value"
            );
        }
        assert_eq!(pool.get(&key).unwrap().as_ref(), b"new");
    }

    #[test]
    fn monitor_evicts_a_member_down_past_the_grace_window() {
        let backing = stores(5);
        let failables: Vec<Arc<FailableClient<LocalClient>>> = backing
            .iter()
            .map(|s| Arc::new(FailableClient::new(LocalClient::new(Arc::clone(s)))))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = failables
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
            .collect();
        let pool = ServerPool::with_replication(
            clients,
            DistributorKind::Ketama {
                points_per_server: POINTS,
            },
            2,
        );
        for i in 0..80 {
            pool.set(format!("m{i}").as_bytes(), Bytes::from_static(b"v"))
                .unwrap();
        }
        let mut monitor = MembershipMonitor::new();
        assert_eq!(monitor.tick(&pool, Duration::ZERO), None, "all healthy");
        failables[3].set_down(true);
        let evicted = monitor.tick(&pool, Duration::ZERO);
        assert_eq!(evicted, Some(ServerId(3)));
        assert!(pool.transition_active());
        // No second eviction while the drain is in flight.
        failables[4].set_down(true);
        assert_eq!(monitor.tick(&pool, Duration::ZERO), None);
        failables[4].set_down(false);
        // The drain completes without the dead server (its data lives on
        // the surviving replicas).
        let total = drive_to_completion(&pool, &MigrateConfig::default());
        assert!(total.complete);
        assert_eq!(pool.members().len(), 4);
        assert!(!pool.members().contains(&ServerId(3)));
        for i in 0..80 {
            assert_eq!(pool.get(format!("m{i}").as_bytes()).unwrap().as_ref(), b"v");
        }
    }
}
