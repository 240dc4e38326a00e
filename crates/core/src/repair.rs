//! Self-healing replication and elastic membership: one background pass
//! that puts every key on its home set.
//!
//! The paper runs MemFS on memcached, where a dead storage node simply
//! loses its stripes; §3.2.5 prices replication as the defense. With
//! `r`-way replication a key survives a server failure on its surviving
//! replicas, and a **repair pass** ([`repair_pass`]) restores it to full
//! strength instead of leaving it one failure away from loss. The same
//! pass migrates key ranges onto a changed membership (installed by
//! [`ServerPool::begin_add_servers`] / [`ServerPool::begin_remove_server`]):
//! a transition only changes which ring a key's homes come from.
//!
//! A pass holds the pool's migration mutex and runs five steps:
//!
//! 1. **Census and scan** — during a transition, first quiesce: no
//!    operation routed by the pre-transition snapshot is still unanswered,
//!    so every write the scan can miss dual-routes (current ∪ target
//!    homes). Then enumerate the keys of every alive slot of members ∪
//!    target members ([`memfs_memkv::KvClient::scan_keys`]). A slot that
//!    fails its scan counts as down. A *current member* that is not
//!    leaving and cannot be scanned blocks the commit this pass: without
//!    its key census a commit could strand a key it alone holds behind an
//!    authoritative target-ring `NotFound`.
//! 2. **Hints** — drain the degraded-write queue. A hint names the servers
//!    that took the key's write ([`DegradedWrite::written`]); for a hinted
//!    key only those copies are fresh, and every other copy is suspect —
//!    it may hold a prior value (a file-size record is created empty and
//!    finalized by `set`), indistinguishable from a fresh copy by
//!    presence.
//! 3. **Homes and copies** — a key's homes are the first `r` alive servers
//!    of its failover walk (`replica.rs`: the target ring's successors
//!    during a transition, the current ring's otherwise), the walk a
//!    failed read takes too. While an owner is down the home set slides
//!    onto surviving successors; when it returns it converges back. A
//!    fresh holder's value is copied over every stale holder (`set`) and
//!    onto every home that holds nothing (`add`:
//!    `Exists` means a racing foreground write already made it current).
//!    During a transition the source is then re-read, so a dual-routed
//!    append that raced the copy is carried across too. Copies run under
//!    a token bucket ([`RepairConfig::bandwidth`]). A key with no alive
//!    fresh holder cannot be repaired this pass; its hint stays queued.
//! 4. **Commit** (transition only) — once no current non-leaving member
//!    failed its scan and every key reached its homes, the target ring
//!    becomes current (`ServerPool::complete_transition`), then quiesce:
//!    no read still trusts a pre-commit home.
//! 5. **Retire and requeue** — unless a transition is still open, delete
//!    the copies of each key fully homed on fresh copies that lie outside
//!    its homes: failover copies whose owner returned, and a migrated
//!    key's old homes. Then requeue the unresolved hints.
//!
//! [`RepairDaemon`] runs passes on an interval; [`crate::MemFs::repair_now`]
//! runs one on demand. A member that is down is routed and repaired
//! around; only [`crate::MemFs::remove_server`] takes it off the ring. A
//! pass is idempotent and crash-safe: one that dies mid-copy leaves
//! extra-but-valid copies the next pass reconciles. One
//! caveat: a copy racing a concurrent `unlink` (read-before-delete,
//! write-after) can resurrect an orphan key; it is invisible to the file
//! system (its file metadata is gone) and never surfaced to reads.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs_hashring::ServerId;
use memfs_memkv::KvError;

use crate::error::MemFsResult;
use crate::pool::ServerPool;
use crate::replica::{is_fresh, DegradedWrite};
use crate::ring::RingState;

/// Tuning for a repair pass.
#[derive(Debug, Clone, Default)]
pub struct RepairConfig {
    /// Token-bucket budget for a pass's copies, in bytes per second.
    /// `0` means unlimited.
    pub bandwidth: u64,
}

/// Outcome of one repair pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Members and target members the census reported unreachable.
    pub servers_down: usize,
    /// Distinct keys enumerated across the alive slots.
    pub scanned_keys: usize,
    /// Degraded-write hints drained from the pool's queue.
    pub degraded_hints: usize,
    /// Keys that needed copies: a home without a fresh copy, or a stale
    /// holder. During a grow or shrink these are exactly the keys whose
    /// home set changed.
    pub under_replicated: usize,
    /// Keys whose copies all landed.
    pub repaired_keys: usize,
    /// Bytes copied.
    pub copied_bytes: u64,
    /// Retired copies (on alive servers outside the key's home set).
    pub removed_copies: usize,
    /// Keys the pass could not restore (no alive fresh holder, or a
    /// target refused the copy). They stay for the next pass, and so
    /// does the commit of an open transition.
    pub unrepairable: usize,
    /// Times the bandwidth token bucket paused the copy loop.
    pub throttle_waits: u64,
    /// No membership transition is left: this pass committed it, or none
    /// was active.
    pub complete: bool,
}

impl RepairReport {
    /// Whether the pass left every scanned key on its full home set.
    pub fn converged(&self) -> bool {
        self.unrepairable == 0 && self.under_replicated == self.repaired_keys
    }
}

/// Debt-based token bucket: `take` always grants, then sleeps off any
/// debt at `rate` bytes/s — simpler than capacity planning and exact
/// over a whole pass, which is all a background throttle needs.
struct TokenBucket {
    rate: u64,
    tokens: f64,
    last: Instant,
    waits: u64,
}

impl TokenBucket {
    fn new(rate: u64) -> TokenBucket {
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

    fn take(&mut self, bytes: u64) {
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

/// Outcome of copying one key to its targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyOutcome {
    /// Every target took the copy.
    Copied,
    /// Every source agreed the key is gone: it raced an unlink.
    Vanished,
    /// No source served the value, or a target refused the copy.
    Failed,
}

/// Read `key` from one of the fresh `sources` and place it on every
/// server in `targets` — `set` over a server in `have` (a stale holder),
/// `add` on one that holds nothing — throttled by `bucket`. While
/// `migrating` (a transition is open), then re-read the source: a
/// dual-routed append that raced the copy landed on the source but may
/// have been tolerated as `NotFound` on a target-only home the copy had
/// not reached (nowhere else can a write miss a home without failing or
/// leaving a hint). A grown value re-appends its suffix (directory logs fold as
/// order-insensitive idempotent sets, so a duplicate entry is absorbed);
/// any other change is re-`set` whole. Returns the outcome and the bytes
/// written.
fn copy_key(
    state: &RingState,
    key: &[u8],
    sources: &BTreeSet<usize>,
    have: &BTreeSet<usize>,
    targets: &[ServerId],
    migrating: bool,
    bucket: &mut TokenBucket,
) -> (CopyOutcome, u64) {
    let mut value: Option<(usize, Bytes)> = None;
    for &s in sources {
        if let Ok(v) = state.client(ServerId(s)).get(key) {
            value = Some((s, v));
            break;
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
        let client = state.client(target);
        let result = if have.contains(&target.0) {
            client.set(key, value.clone())
        } else {
            match client.add(key, value.clone()) {
                Err(KvError::Exists) => Ok(()),
                r => r,
            }
        };
        match result {
            Ok(()) => copied += value.len() as u64,
            Err(_) => all_written = false,
        }
    }
    if all_written && migrating {
        if let Ok(now) = state.client(ServerId(source)).get(key) {
            if now != value {
                let grown = now.len() > value.len() && now[..value.len()] == value[..];
                let delta = if grown {
                    now.slice(value.len()..now.len())
                } else {
                    now
                };
                for &target in targets {
                    bucket.take(delta.len() as u64);
                    let client = state.client(target);
                    let r = if grown {
                        client.append(key, &delta)
                    } else {
                        client.set(key, delta.clone())
                    };
                    match r {
                        Ok(()) => copied += delta.len() as u64,
                        Err(_) => all_written = false,
                    }
                }
            }
        }
    }
    let outcome = if all_written {
        CopyOutcome::Copied
    } else {
        CopyOutcome::Failed
    };
    (outcome, copied)
}

/// Run one pass over `pool` (see the module docs): census, copy, commit
/// a finished transition, retire. Blocks while another pass
/// holds the pool's migration mutex. Safe to run concurrently with
/// foreground reads and writes; runs on the caller's thread.
///
/// # Errors
/// None today: a server that fails mid-pass is treated as down and left
/// for the next pass, and per-key copy failures are counted in
/// [`RepairReport::unrepairable`].
pub fn repair_pass(pool: &ServerPool, config: &RepairConfig) -> MemFsResult<RepairReport> {
    let _pass = pool.migration_mutex().lock();
    let state = pool.ring_state();
    let t = state.transition.as_ref();
    let mut report = RepairReport::default();

    // 1. Census and scan, behind every pre-transition operation.
    if t.is_some() {
        pool.quiesce();
    }
    let members: BTreeSet<usize> = state.members.iter().copied().collect();
    let mut slots = members.clone();
    slots.extend(t.iter().flat_map(|t| t.target_members.iter().copied()));
    let mut alive = vec![false; state.clients.len()];
    let mut holders: BTreeMap<Vec<u8>, BTreeSet<usize>> = BTreeMap::new();
    let mut scan_failed = false;
    for &s in &slots {
        let client = &state.clients[s];
        if client.health().is_alive() {
            if let Ok(keys) = client.scan_keys() {
                for key in keys {
                    holders.entry(key).or_default().insert(s);
                }
                alive[s] = true;
            }
        }
        let leaving = t.is_some_and(|t| t.leaving.contains(&s));
        scan_failed |= !alive[s] && members.contains(&s) && !leaving;
    }
    report.servers_down = slots.iter().filter(|&&s| !alive[s]).count();
    report.scanned_keys = holders.len();

    // 2. Hints: a key's last hint is its latest hinted write.
    let hints = pool.take_degraded();
    report.degraded_hints = hints.len();
    let mut latest: BTreeMap<Vec<u8>, DegradedWrite> = BTreeMap::new();
    for hint in hints {
        latest.insert(hint.key.to_vec(), hint);
    }

    // 3. Homes and copies.
    let r = pool.replication();
    let migrating = t.is_some();
    let mut bucket = TokenBucket::new(config.bandwidth);
    let mut homed: BTreeMap<&[u8], Vec<ServerId>> = BTreeMap::new();
    for (key, have) in &holders {
        let homes = state.rings().repair_homes(key, r, |id| alive[id.0]);
        if homes.is_empty() {
            // Every home is down: nothing to copy to, and nothing retires.
            report.unrepairable += 1;
            continue;
        }
        let hint = latest.get(key.as_slice());
        let fresh: BTreeSet<usize> = have
            .iter()
            .copied()
            .filter(|&s| is_fresh(hint, ServerId(s)))
            .collect();
        let stale = have.difference(&fresh).map(|&s| ServerId(s));
        let targets: Vec<ServerId> = homes
            .iter()
            .copied()
            .filter(|id| !have.contains(&id.0))
            .chain(stale)
            .collect();
        if !targets.is_empty() {
            report.under_replicated += 1;
            let (outcome, bytes) =
                copy_key(&state, key, &fresh, have, &targets, migrating, &mut bucket);
            report.copied_bytes += bytes;
            match outcome {
                CopyOutcome::Copied => report.repaired_keys += 1,
                CopyOutcome::Vanished => continue, // raced an unlink
                CopyOutcome::Failed => {
                    report.unrepairable += 1;
                    continue; // keep every copy we have
                }
            }
        }
        homed.insert(key, homes);
    }

    // 4. Commit once every key reached its target homes.
    let committed = migrating && !scan_failed && report.unrepairable == 0;
    if committed {
        pool.complete_transition();
        pool.quiesce();
    }

    // 5. Retire copies outside the homes — only once the key is at full
    // strength, never trading an existing copy for a hoped-for one, and
    // never while a transition is open, whose current homes still serve
    // reads.
    if !migrating || committed {
        for (key, homes) in &homed {
            for &s in &holders[*key] {
                if homes.contains(&ServerId(s)) {
                    continue;
                }
                match state.client(ServerId(s)).delete(key) {
                    Ok(()) | Err(KvError::NotFound) => report.removed_copies += 1,
                    Err(_) => {} // next pass retries
                }
            }
        }
    }

    // A hint resolves once its key is fully homed (or gone) and every
    // slot was scanned: a slot that is down may hold a stale copy that
    // must not pass for fresh when it returns. A requeued hint of a homed
    // key names the copies that are fresh now.
    let all_scanned = report.servers_down == 0;
    let requeue: Vec<DegradedWrite> = latest
        .into_values()
        .filter_map(|mut hint| {
            let have = holders.get(hint.key.as_ref());
            let homes = homed.get(hint.key.as_ref());
            if all_scanned && (homes.is_some() || have.is_none()) {
                return None;
            }
            if let (Some(have), Some(homes)) = (have, homes) {
                hint.written
                    .extend(have.iter().map(|&s| ServerId(s)).chain(homes.clone()));
                hint.written.sort_unstable();
                hint.written.dedup();
            }
            Some(hint)
        })
        .collect();
    pool.requeue_degraded(requeue);
    report.complete = !pool.transition_active();
    report.throttle_waits = bucket.waits;
    Ok(report)
}

/// Background repair loop: one thread (`memfs-repair`) that runs
/// [`repair_pass`] each tick — repair and migration alike, under one
/// [`RepairConfig::bandwidth`]. Elastic membership adds **zero** threads
/// to a mount. Idle passes are cheap
/// only relative to the data volume — the scan walks every alive slot's
/// key list — so the interval trades detection latency against
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
                    let _ = repair_pass(&pool, &config);
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
    use memfs_hashring::{Distributor, KetamaRing};
    use memfs_memkv::{KvClient, LocalClient, SimClient, Store, StoreConfig};

    type FailableHarness = (Arc<ServerPool>, Vec<Arc<SimClient>>, Vec<Arc<Store>>);

    /// `n` failable in-process servers, the first `members` of them
    /// mounted as a ketama pool (the rest left to admit).
    fn failable_servers(
        n: usize,
        members: usize,
        replication: usize,
        points_per_server: usize,
    ) -> FailableHarness {
        let stores: Vec<Arc<Store>> = (0..n)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let failables: Vec<Arc<SimClient>> = stores
            .iter()
            .map(|s| Arc::new(SimClient::new(Arc::clone(s))))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = failables[..members]
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
            .collect();
        let pool = Arc::new(ServerPool::with_replication(
            clients,
            DistributorKind::Ketama { points_per_server },
            replication,
        ));
        (pool, failables, stores)
    }

    fn failable_pool(n: usize, replication: usize) -> FailableHarness {
        failable_servers(n, n, replication, 64)
    }

    fn client(f: &Arc<SimClient>) -> Arc<dyn KvClient> {
        Arc::clone(f) as Arc<dyn KvClient>
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

    /// Run passes until the transition commits; the passes' reports
    /// summed.
    fn drive_to_completion(pool: &ServerPool, config: &RepairConfig) -> RepairReport {
        let mut total = RepairReport::default();
        for _ in 0..4 {
            let rep = repair_pass(pool, config).unwrap();
            total.scanned_keys += rep.scanned_keys;
            total.under_replicated += rep.under_replicated;
            total.copied_bytes += rep.copied_bytes;
            total.removed_copies += rep.removed_copies;
            total.unrepairable += rep.unrepairable;
            total.complete = rep.complete;
            if rep.complete {
                return total;
            }
        }
        panic!("migration never completed: {total:?}");
    }

    /// Every key sits on exactly its homes in a fresh ring over
    /// `members`, and nowhere else.
    fn placed_like_a_fresh_ring(
        stores: &[Arc<Store>],
        keys: &[Vec<u8>],
        members: &[usize],
        r: usize,
    ) {
        let fresh = KetamaRing::with_members(members, 64);
        for key in keys {
            let homes: BTreeSet<usize> = fresh
                .replicas_for(key, r)
                .into_iter()
                .map(|id| id.0)
                .collect();
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
        placed_like_a_fresh_ring(&stores, &keys, &[0, 1, 2, 3], 2);
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
    fn a_failover_copy_made_before_a_degraded_overwrite_is_never_served() {
        // The failover copy placed while the first owner is down holds the
        // empty record. The overwrite that follows reaches only the second
        // owner; its hint must mark the failover copy stale too, or losing
        // the second owner serves the empty record.
        let (pool, failables, _stores) = failable_pool(4, 2);
        let key = b"f:/failover".to_vec();
        pool.set(&key, Bytes::from_static(b"")).unwrap();
        let owners: Vec<ServerId> = pool.servers_for(&key).collect();
        failables[owners[0].0].set_down(true);
        repair_pass(&pool, &RepairConfig::default()).unwrap();
        pool.set(&key, Bytes::from_static(b"4096")).unwrap();
        assert_eq!(pool.degraded_pending(), 1, "the overwrite is degraded");
        repair_pass(&pool, &RepairConfig::default()).unwrap();
        failables[owners[1].0].set_down(true);
        assert_eq!(&pool.get(&key).unwrap()[..], b"4096");
    }

    #[test]
    fn bandwidth_budget_throttles_the_copy_loop() {
        let (pool, failables, _stores) = failable_pool(4, 2);
        seed(&pool, 30); // 30 × 256 B
        failables[0].set_down(true);
        let config = RepairConfig {
            bandwidth: 64 << 10, // 64 KiB/s against ~a few KiB of copies
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
    fn a_failure_during_a_stuck_grow_is_healed() {
        // Member 0 dies mid-grow: the grow cannot commit without its
        // census, but the pass still restores every key to two alive
        // homes, so a second failure loses nothing.
        let (pool, failables, _stores) = failable_servers(5, 4, 2, 64);
        let keys = seed(&pool, 200);
        pool.begin_add_servers(vec![client(&failables[4])]).unwrap();
        failables[0].set_down(true);
        for _ in 0..10 {
            let report = repair_pass(&pool, &RepairConfig::default()).unwrap();
            assert!(!report.complete, "no commit around a dead member");
        }
        failables[1].set_down(true);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(pool.get(key).unwrap(), Bytes::from(vec![i as u8; 256]));
        }
    }

    #[test]
    fn a_joining_server_that_dies_does_not_block_a_grow() {
        let (pool, failables, stores) = failable_servers(3, 2, 1, 64);
        let keys = seed(&pool, 60);
        pool.begin_add_servers(vec![client(&failables[2])]).unwrap();
        failables[2].set_down(true);
        // Every key reads after every pass: once the grow commits, reads
        // fail over along the new ring, where the pass put the copies.
        let mut passes = 0;
        loop {
            let report = repair_pass(&pool, &RepairConfig::default()).unwrap();
            assert_eq!(report.unrepairable, 0);
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(pool.get(key).unwrap(), Bytes::from(vec![i as u8; 256]));
            }
            if report.complete {
                break;
            }
            passes += 1;
            assert!(passes < 4, "the grow never committed");
        }
        assert_eq!(pool.members().len(), 3);
        // Back up, it takes its keys over from the failover homes.
        failables[2].set_down(false);
        for _ in 0..3 {
            repair_pass(&pool, &RepairConfig::default()).unwrap();
        }
        assert!(repair_pass(&pool, &RepairConfig::default())
            .unwrap()
            .converged());
        placed_like_a_fresh_ring(&stores, &keys, &[0, 1, 2], 1);
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

    // ---- membership transitions ----

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

    #[test]
    fn pass_without_a_transition_is_complete_and_inactive() {
        let backing = stores(3);
        let pool = ketama_pool(&backing, 1);
        let rep = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert!(!pool.transition_active());
        assert!(rep.complete);
        assert_eq!(rep.under_replicated, 0);
    }

    #[test]
    fn a_healthy_grow_and_shrink_commit_in_one_pass() {
        let (pool, failables, backing) = failable_servers(4, 3, 2, 64);
        let keys = seed(&pool, 120);
        pool.begin_add_servers(vec![client(&failables[3])]).unwrap();
        let grow = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert!(grow.complete, "the grow took more than one pass: {grow:?}");
        placed_like_a_fresh_ring(&backing, &keys, &[0, 1, 2, 3], 2);

        pool.begin_remove_server(ServerId(1)).unwrap();
        let shrink = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert!(
            shrink.complete,
            "the shrink took more than one pass: {shrink:?}"
        );
        assert_eq!(pool.members(), vec![ServerId(0), ServerId(2), ServerId(3)]);
        placed_like_a_fresh_ring(&backing, &keys, &[0, 2, 3], 2);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(pool.get(key).unwrap(), Bytes::from(vec![i as u8; 256]));
        }
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

        let total = drive_to_completion(&pool, &RepairConfig::default());
        assert!(total.complete);
        assert_eq!(total.unrepairable, 0);
        assert_eq!(
            total.under_replicated, expected_moves,
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
        let total = drive_to_completion(&pool, &RepairConfig::default());
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
    fn unscannable_member_wedges_the_commit_but_dual_routing_keeps_serving() {
        let (pool, failables, _stores) = failable_servers(3, 2, 2, POINTS);
        let keys: Vec<Vec<u8>> = (0..60).map(|i| format!("k{i}").into_bytes()).collect();
        for key in &keys {
            pool.set(key, Bytes::from_static(b"v")).unwrap();
        }
        pool.begin_add_servers(vec![client(&failables[2])]).unwrap();
        failables[0].set_down(true);
        let rep = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert!(
            pool.transition_active(),
            "no commit while a member is unscannable"
        );
        assert!(!rep.complete);
        // Reads still serve through the surviving old home.
        for key in &keys {
            assert_eq!(pool.get(key).unwrap().as_ref(), b"v");
        }
        // Revive and finish.
        failables[0].set_down(false);
        let total = drive_to_completion(&pool, &RepairConfig::default());
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
        let config = RepairConfig {
            bandwidth: 64 << 10,
        };
        let started = Instant::now();
        let total = drive_to_completion(&pool, &config);
        assert!(total.complete);
        // The passes may not beat their own budget (one second of burst
        // is banked, so subtract it).
        let floor = Duration::from_secs_f64(
            total.copied_bytes.saturating_sub(config.bandwidth) as f64 / config.bandwidth as f64,
        );
        assert!(started.elapsed() >= floor);
    }

    #[test]
    fn migration_never_copies_from_a_stale_holder() {
        // A degraded write leaves server 0 holding the *prior* value
        // with a pending hint. The grow must copy the acked value from
        // the fresh holder — and overwrite any stale copy — never
        // resurrect the old one.
        let (pool, failables, _stores) = failable_servers(3, 2, 2, POINTS);
        // Pick a key whose home set actually changes when server 2
        // joins, so the pass must move it.
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

        pool.begin_add_servers(vec![client(&failables[2])]).unwrap();
        let total = drive_to_completion(&pool, &RepairConfig::default());
        assert!(total.complete);

        // The acked value survived on every new home; the stale value is
        // nowhere the reader can see it.
        for id in new_ring.replicas_for(&key, 2) {
            assert_eq!(
                pool.client(id).get(&key).unwrap().as_ref(),
                b"new",
                "home {} must hold the acked value",
                id.0
            );
        }
        assert_eq!(pool.get(&key).unwrap().as_ref(), b"new");
    }

    #[test]
    fn a_stale_old_home_during_a_transition_is_overwritten() {
        // An old home that missed a dual-routed overwrite and is no
        // target home is no copy target and gets no retire while the
        // transition is open (a member down elsewhere keeps it from
        // committing) — but it is where reads fail over to once the other
        // old home dies, so the pass must overwrite its stale copy.
        let (pool, failables, _stores) = failable_servers(5, 4, 2, 64);
        let current = KetamaRing::with_members(&[0, 1, 2, 3], 64);
        let target = KetamaRing::with_members(&[0, 1, 2, 3, 4], 64);
        let (key, old, other) = (0..)
            .find_map(|i| {
                let key = format!("f:/old{i}").into_bytes();
                let old = current.replicas_for(&key, 2);
                let new = target.replicas_for(&key, 2);
                let other =
                    (0..4).find(|&s| !old.contains(&ServerId(s)) && !new.contains(&ServerId(s)));
                (!new.contains(&old[1])).then_some((key, old, other?))
            })
            .unwrap();
        pool.set(&key, Bytes::from_static(b"")).unwrap();
        pool.begin_add_servers(vec![client(&failables[4])]).unwrap();

        failables[old[1].0].set_down(true);
        pool.set(&key, Bytes::from_static(b"4096")).unwrap();
        assert_eq!(pool.degraded_pending(), 1, "the overwrite is degraded");
        failables[old[1].0].set_down(false);
        failables[other].set_down(true);
        repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert!(pool.transition_active());
        failables[old[0].0].set_down(true);
        assert_eq!(&pool.get(&key).unwrap()[..], b"4096");
    }

    /// A member that is down stays a member — no pass evicts it — until
    /// it is removed by hand; the drain then completes without it, every
    /// key restored from the surviving replicas.
    #[test]
    fn removing_a_dead_member_drains_it_from_the_surviving_replicas() {
        let (pool, failables, _stores) = failable_servers(5, 5, 2, POINTS);
        for i in 0..80 {
            pool.set(format!("m{i}").as_bytes(), Bytes::from_static(b"v"))
                .unwrap();
        }
        failables[3].set_down(true);
        let rep = repair_pass(&pool, &RepairConfig::default()).unwrap();
        assert_eq!(rep.servers_down, 1);
        assert_eq!(pool.members().len(), 5, "a down member is not evicted");
        pool.begin_remove_server(ServerId(3)).unwrap();
        let total = drive_to_completion(&pool, &RepairConfig::default());
        assert!(total.complete);
        assert_eq!(pool.members().len(), 4);
        assert!(!pool.members().contains(&ServerId(3)));
        for i in 0..80 {
            assert_eq!(pool.get(format!("m{i}").as_bytes()).unwrap().as_ref(), b"v");
        }
    }
}
