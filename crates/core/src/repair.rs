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
//! A pass holds the pool's migration mutex and runs four steps:
//!
//! 1. **Census and scan** — during a transition, first quiesce: no
//!    operation routed by the pre-transition snapshot is still unanswered,
//!    so every write the scan can miss dual-routes (current ∪ target
//!    homes). Then enumerate the keys of every slot of members ∪ target
//!    members ([`memfs_memkv::KvClient::scan_keys`]). The scan is the
//!    census: a slot is alive for this pass exactly when its scan answers,
//!    and nothing else is consulted — a member found dead by an earlier
//!    request is scanned (and so re-dialed) like any other. A slot that
//!    fails its scan counts as down. A *current member* that is not
//!    leaving and cannot be scanned blocks the commit this pass: without
//!    its key census a commit could strand a key it alone holds behind an
//!    authoritative target-ring `NotFound`.
//! 2. **Homes and copies** — a key's homes are the first `r` alive
//!    servers of the failover walk a failed read takes (`replica.rs`):
//!    they slide onto successors while an owner is down and converge back
//!    when it returns. Which copies are current is read off the copies
//!    (DESIGN.md §4i): every copy of a stripe or directory key; of a file
//!    record held more than once, those the record rule
//!    (`replica::current_records`) picks from the holders' heads,
//!    read in one batch per holder. A record with an unread head is not
//!    judged this pass: the unread copy may be the current one. A current
//!    copy is `set` over each stale holder and `add`ed onto each empty
//!    home (`Exists`: a racing write made it current); during a transition
//!    the source is re-read, so a raced dual-routed append is carried
//!    across too. Copies are not paced. A key is skipped as unlinked only
//!    when every current holder answers `NotFound`; a key left unjudged,
//!    unserved or with a failed re-read waits for the next pass, and so
//!    does the commit.
//! 3. **Commit** (transition only) — once no current non-leaving member
//!    failed its scan and every key reached its homes, the target ring
//!    becomes current (`ServerPool::complete_transition`), then quiesce:
//!    no read still trusts a pre-commit home.
//! 4. **Retire** — unless a transition is still open, delete the copies
//!    of each key fully homed on current copies that lie outside its
//!    homes: failover copies whose owner returned, and a migrated key's
//!    old homes.
//!
//! [`RepairDaemon`] runs passes on an interval; [`crate::MemFs::repair_now`]
//! runs one on demand. A member that is down is routed and repaired
//! around; only [`crate::MemFs::remove_server`] takes it off the ring. A
//! pass is idempotent and crash-safe: one that dies mid-copy leaves
//! extra-but-valid copies the next pass reconciles. What a copy racing an
//! `unlink`, or a replica that missed one, leaves: DESIGN.md §4i.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use memfs_hashring::schema::FILE_PREFIX;
use memfs_hashring::ServerId;
use memfs_memkv::{Batch, KvError};

use crate::error::MemFsResult;
use crate::meta::{self, Record};
use crate::pool::ServerPool;
use crate::replica::current_records;
use crate::ring::RingState;

/// Outcome of one repair pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Members and target members whose scan failed this pass.
    pub servers_down: usize,
    /// Distinct keys enumerated across the alive slots.
    pub scanned_keys: usize,
    /// Keys that needed copies: a home without a current copy, or a stale
    /// holder. During a grow or shrink these are exactly the keys whose
    /// home set changed.
    pub under_replicated: usize,
    /// Keys whose copies all landed.
    pub repaired_keys: usize,
    /// Bytes copied.
    pub copied_bytes: u64,
    /// Retired copies (on alive servers outside the key's home set).
    pub removed_copies: usize,
    /// Keys the pass could not restore (a file record's head went unread,
    /// no current holder served the value, a target refused the copy, or
    /// the source's re-read failed). They stay for the next pass, and so
    /// does the commit of an open transition.
    pub unrepairable: usize,
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

/// Outcome of copying one key to its targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyOutcome {
    /// Every target took the copy.
    Copied,
    /// Every source answered `NotFound`: the key raced an unlink.
    Vanished,
    /// No source served the value, a target refused the copy, or the
    /// re-read of the source failed.
    Failed,
}

/// Read `key` from one of the current `sources` and place it on every
/// server in `targets` — `set` over a server in `have` (a stale holder),
/// `add` on one that holds nothing. While
/// `migrating` (a transition is open), then re-read the source: a
/// dual-routed append that raced the copy landed on the source but may
/// have been tolerated as `NotFound` on a target-only home the copy had
/// not reached (nowhere else can an append miss a home without failing).
/// A grown value re-appends its suffix (directory logs fold as
/// order-insensitive idempotent sets, so a duplicate entry is absorbed);
/// any other change is re-`set` whole. A source that fails a read (not
/// `NotFound`) may still hold the key, and a failed re-read may hide a
/// raced append: either fails the copy, so no commit can drop the key.
/// Returns the outcome and the bytes written.
fn copy_key(
    state: &RingState,
    key: &[u8],
    sources: &BTreeSet<usize>,
    have: &BTreeSet<usize>,
    targets: &[ServerId],
    migrating: bool,
) -> (CopyOutcome, u64) {
    let mut value: Option<(usize, Bytes)> = None;
    let mut vanished = !sources.is_empty();
    for &s in sources {
        match state.client(ServerId(s)).get(key) {
            Ok(v) => {
                value = Some((s, v));
                break;
            }
            Err(KvError::NotFound) => {}
            Err(_) => vanished = false,
        }
    }
    let Some((source, value)) = value else {
        let outcome = if vanished {
            CopyOutcome::Vanished
        } else {
            CopyOutcome::Failed
        };
        return (outcome, 0);
    };
    let mut copied = 0u64;
    let mut all_written = true;
    for &target in targets {
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
        match state.client(ServerId(source)).get(key) {
            Ok(now) if now != value => {
                let grown = now.len() > value.len() && now[..value.len()] == value[..];
                let delta = if grown {
                    now.slice(value.len()..now.len())
                } else {
                    now
                };
                for &target in targets {
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
            // Unchanged, or unlinked since the copy (see the module docs'
            // caveat on a copy racing an unlink).
            Ok(_) | Err(KvError::NotFound) => {}
            Err(_) => all_written = false,
        }
    }
    let outcome = if all_written {
        CopyOutcome::Copied
    } else {
        CopyOutcome::Failed
    };
    (outcome, copied)
}

/// Each file record's heads, by key and holder: `None` for a head that
/// does not decode; a holder whose read failed (`NotFound` too) is absent.
type Heads<'a> = BTreeMap<(&'a [u8], usize), Option<Record>>;

/// Read the head of every copy of every file record held more than once,
/// one [`Batch::GetRange`] per holder, all started before any is awaited.
fn read_heads<'a>(state: &RingState, holders: &'a BTreeMap<Vec<u8>, BTreeSet<usize>>) -> Heads<'a> {
    let mut asks: BTreeMap<usize, Vec<&'a [u8]>> = BTreeMap::new();
    for (key, have) in holders {
        if have.len() > 1 && key.starts_with(FILE_PREFIX.as_bytes()) {
            have.iter()
                .for_each(|&s| asks.entry(s).or_default().push(key));
        }
    }
    let mut started = Vec::new();
    for (s, keys) in asks {
        let head = |k: &&[u8]| (Bytes::copy_from_slice(k), 0, meta::RECORD_HEAD);
        let ranges: Vec<_> = keys.iter().map(head).collect();
        let reply = state.client(ServerId(s)).start(Batch::GetRange(&ranges));
        started.push((s, reply, keys));
    }
    let mut heads = Heads::new();
    for (s, reply, keys) in started {
        for (key, head) in keys.into_iter().zip(reply.wait().into_iter().flatten()) {
            let Ok(head) = head else { continue };
            let record = meta::decode_head(&head, &String::from_utf8_lossy(key));
            heads.insert((key, s), record.ok());
        }
    }
    heads
}

/// The holders of `key` whose copy is current: of a file record held more
/// than once, those the record rule picks from `heads` in read order (a
/// head that does not decode is stale), or `None` when a head went unread
/// and the key cannot be judged; of any other key, every holder.
fn current_holders(
    state: &RingState,
    key: &[u8],
    have: &BTreeSet<usize>,
    heads: &Heads<'_>,
    r: usize,
) -> Option<BTreeSet<usize>> {
    if have.len() < 2 || !key.starts_with(FILE_PREFIX.as_bytes()) {
        return Some(have.clone());
    }
    let walk = state.rings().read_walk(key, r);
    let holders = walk.order().iter().filter(|id| have.contains(&id.0));
    let copies = holders.map(|&id| Some((id, *heads.get(&(key, id.0))?)));
    let current = current_records(&copies.collect::<Option<Vec<_>>>()?);
    Some(current.into_iter().map(|id| id.0).collect())
}

/// Run one pass over `pool` (see the module docs): census, copy, commit
/// a finished transition, retire. Blocks while another pass
/// holds the pool's migration mutex. Safe to run concurrently with
/// foreground reads and writes; runs on the caller's thread.
///
/// # Errors
/// Only a commit the routing snapshot refuses: a server that fails
/// mid-pass is treated as down and left for the next pass, and per-key
/// copy failures are counted in [`RepairReport::unrepairable`].
pub fn repair_pass(pool: &ServerPool) -> MemFsResult<RepairReport> {
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
        if let Ok(keys) = state.clients[s].scan_keys() {
            for key in keys {
                holders.entry(key).or_default().insert(s);
            }
            alive[s] = true;
        }
        let leaving = t.is_some_and(|t| t.leaving.contains(&s));
        scan_failed |= !alive[s] && members.contains(&s) && !leaving;
    }
    report.servers_down = slots.iter().filter(|&&s| !alive[s]).count();
    report.scanned_keys = holders.len();

    // 2. Homes and copies, judged by what the copies hold.
    let r = pool.replication();
    let migrating = t.is_some();
    let heads = read_heads(&state, &holders);
    let mut homed: BTreeMap<&[u8], Vec<ServerId>> = BTreeMap::new();
    for (key, have) in &holders {
        let homes = state.rings().repair_homes(key, r, |id| alive[id.0]);
        if homes.is_empty() {
            // Every home is down: nothing to copy to, and nothing retires.
            report.unrepairable += 1;
            continue;
        }
        let Some(fresh) = current_holders(&state, key, have, &heads, r) else {
            report.unrepairable += 1;
            continue; // a head went unread: keep every copy we have
        };
        let stale = have.difference(&fresh).map(|&s| ServerId(s));
        let targets: Vec<ServerId> = homes
            .iter()
            .copied()
            .filter(|id| !have.contains(&id.0))
            .chain(stale)
            .collect();
        if !targets.is_empty() {
            report.under_replicated += 1;
            let (outcome, bytes) = copy_key(&state, key, &fresh, have, &targets, migrating);
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

    // 3. Commit once every key reached its target homes.
    let committed = migrating && !scan_failed && report.unrepairable == 0;
    if committed {
        pool.complete_transition()?;
        pool.quiesce();
    }

    // 4. Retire copies outside the homes — only once the key is at full
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

    report.complete = !pool.transition_active();
    Ok(report)
}

/// Background repair loop: one thread (`memfs-repair`) that runs
/// [`repair_pass`] each tick — repair and migration alike. Its copies are
/// not paced, so a pass competes with foreground traffic for the servers'
/// bandwidth while it copies. Elastic membership adds **zero** threads
/// to a mount. Idle passes are cheap only relative to the data volume —
/// the scan walks every slot's key list, and each server answers one
/// batch of record heads — so the interval trades detection latency
/// against enumeration traffic.
pub struct RepairDaemon {
    /// Dropped to stop the loop: the thread's wait then ends at once.
    stop: Option<mpsc::Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl RepairDaemon {
    /// Spawn the repair thread over `pool`.
    ///
    /// # Panics
    /// Panics if `interval` is zero (use [`repair_pass`] directly for
    /// one-shot repairs) or if the OS refuses the thread.
    pub fn spawn(pool: Arc<ServerPool>, interval: Duration) -> RepairDaemon {
        assert!(!interval.is_zero(), "repair interval must be non-zero");
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("memfs-repair".into())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    let _ = repair_pass(&pool);
                }
            })
            .expect("spawn memfs-repair thread");
        RepairDaemon {
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Stop the loop and join the thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.take();
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
    use memfs_memkv::{Deferred, KvClient, SimClient, Store, StoreConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

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
    fn drive_to_completion(pool: &ServerPool) -> RepairReport {
        let mut total = RepairReport::default();
        for _ in 0..4 {
            let rep = repair_pass(pool).unwrap();
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
        let report = repair_pass(&pool).unwrap();
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

        let report = repair_pass(&pool).unwrap();
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
        repair_pass(&pool).unwrap();
        let second = repair_pass(&pool).unwrap();
        assert_eq!(second.under_replicated, 0, "repair must converge");
        assert_eq!(second.copied_bytes, 0);
    }

    #[test]
    fn revived_server_gets_its_keys_back_and_failover_copies_retire() {
        let (pool, failables, stores) = failable_pool(4, 2);
        let keys = seed(&pool, 50);
        failables[2].set_down(true);
        repair_pass(&pool).unwrap();

        failables[2].set_down(false);
        let report = repair_pass(&pool).unwrap();
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
        // Writes during the outage succeed degraded.
        let keys = seed(&pool, 40);

        let report = repair_pass(&pool).unwrap();
        assert!(report.converged());
        let alive: Vec<bool> = (0..4).map(|s| s != 1).collect();
        assert!(fully_replicated(&pool, &keys, &alive, 2));

        // Once the replica returns, the next pass takes it back in.
        failables[1].set_down(false);
        assert!(repair_pass(&pool).unwrap().converged());
    }

    /// The generation of the file records below.
    const G: u64 = 7;

    /// A file record of generation [`G`], open.
    fn open_record() -> Bytes {
        Bytes::from(crate::meta::encode_open(G))
    }

    /// The same file record, closed at 4096 bytes.
    fn closed_record() -> Bytes {
        Bytes::from(crate::meta::encode_size(G, 4096))
    }

    #[test]
    fn stale_overwritten_values_on_a_missed_replica_are_re_copied() {
        // A replica that misses an *overwrite* still holds the prior
        // value — presence-based scanning alone would call it healthy.
        // The record rule (closed over open) forces a re-copy of the
        // fresh value.
        let (pool, failables, _stores) = failable_pool(4, 2);
        let key = b"f:/stale-check".to_vec();
        pool.set(&key, open_record()).unwrap(); // create
        let victim = pool.servers_for(&key).last().unwrap();
        failables[victim.0].set_down(true);
        pool.set(&key, closed_record()).unwrap(); // finalize

        failables[victim.0].set_down(false);
        let report = repair_pass(&pool).unwrap();
        assert!(report.converged());
        // Every home replica now serves the fresh value — including the
        // one that sat out the overwrite holding the open record.
        for id in pool.servers_for(&key) {
            let v = pool.client(id).get(&key).unwrap();
            assert_eq!(v, closed_record(), "server {} is stale", id.0);
        }
    }

    #[test]
    fn a_failover_copy_made_before_a_degraded_overwrite_is_never_served() {
        // The failover copy placed while the first owner is down holds the
        // open record. The overwrite that follows reaches only the second
        // owner; the record rule must mark the failover copy stale too, or
        // losing the second owner serves the open record.
        let (pool, failables, _stores) = failable_pool(4, 2);
        let key = b"f:/failover".to_vec();
        pool.set(&key, open_record()).unwrap();
        let owners: Vec<ServerId> = pool.servers_for(&key).collect();
        failables[owners[0].0].set_down(true);
        repair_pass(&pool).unwrap();
        pool.set(&key, closed_record()).unwrap();
        repair_pass(&pool).unwrap();
        failables[owners[1].0].set_down(true);
        assert_eq!(pool.get(&key).unwrap(), closed_record());
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
            let report = repair_pass(&pool).unwrap();
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
            let report = repair_pass(&pool).unwrap();
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
            repair_pass(&pool).unwrap();
        }
        assert!(repair_pass(&pool).unwrap().converged());
        placed_like_a_fresh_ring(&stores, &keys, &[0, 1, 2], 1);
    }

    #[test]
    fn daemon_heals_in_the_background_and_stops_cleanly() {
        let (pool, failables, _stores) = failable_pool(5, 2);
        let keys = seed(&pool, 40);
        let mut daemon = RepairDaemon::spawn(Arc::clone(&pool), Duration::from_millis(10));
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
        let mut daemon = RepairDaemon::spawn(Arc::clone(&pool), Duration::from_millis(5));
        let extra: Vec<Arc<dyn KvClient>> = (0..2)
            .map(|_| {
                Arc::new(SimClient::new(Arc::new(Store::new(StoreConfig::default()))))
                    as Arc<dyn KvClient>
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
        Arc::new(SimClient::new(Arc::clone(s))) as Arc<dyn KvClient>
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
        let rep = repair_pass(&pool).unwrap();
        assert!(!pool.transition_active());
        assert!(rep.complete);
        assert_eq!(rep.under_replicated, 0);
    }

    #[test]
    fn a_healthy_grow_and_shrink_commit_in_one_pass() {
        let (pool, failables, backing) = failable_servers(4, 3, 2, 64);
        let keys = seed(&pool, 120);
        pool.begin_add_servers(vec![client(&failables[3])]).unwrap();
        let grow = repair_pass(&pool).unwrap();
        assert!(grow.complete, "the grow took more than one pass: {grow:?}");
        placed_like_a_fresh_ring(&backing, &keys, &[0, 1, 2, 3], 2);

        pool.begin_remove_server(ServerId(1)).unwrap();
        let shrink = repair_pass(&pool).unwrap();
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

        let total = drive_to_completion(&pool);
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
        let total = drive_to_completion(&pool);
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
        let rep = repair_pass(&pool).unwrap();
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
        let total = drive_to_completion(&pool);
        assert!(total.complete);
        for key in &keys {
            assert_eq!(pool.get(key).unwrap().as_ref(), b"v");
        }
    }

    #[test]
    fn migration_never_copies_from_a_stale_holder() {
        // A degraded write leaves server 0 holding the *prior* value. The
        // grow must copy the acked value from the fresh holder — and
        // overwrite any stale copy — never resurrect the old one.
        let (pool, failables, _stores) = failable_servers(3, 2, 2, POINTS);
        // Pick a key whose home set actually changes when server 2
        // joins, so the pass must move it.
        let new_ring = KetamaRing::with_members(&[0, 1, 2], POINTS);
        let key = (0..)
            .map(|i| format!("f:/stale{i}").into_bytes())
            .find(|k| new_ring.replicas_for(k, 2).contains(&ServerId(2)))
            .unwrap();

        pool.set(&key, open_record()).unwrap();
        failables[0].set_down(true);
        pool.set(&key, closed_record()).unwrap();
        failables[0].set_down(false);
        assert_eq!(
            pool.client(ServerId(0)).get(&key).unwrap(),
            open_record(),
            "server 0 must still hold the stale prior value"
        );

        pool.begin_add_servers(vec![client(&failables[2])]).unwrap();
        let total = drive_to_completion(&pool);
        assert!(total.complete);

        // The acked value survived on every new home; the stale value is
        // nowhere the reader can see it.
        for id in new_ring.replicas_for(&key, 2) {
            assert_eq!(
                pool.client(id).get(&key).unwrap(),
                closed_record(),
                "home {} must hold the acked value",
                id.0
            );
        }
        assert_eq!(pool.get(&key).unwrap(), closed_record());
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
        pool.set(&key, open_record()).unwrap();
        pool.begin_add_servers(vec![client(&failables[4])]).unwrap();

        failables[old[1].0].set_down(true);
        pool.set(&key, closed_record()).unwrap();
        failables[old[1].0].set_down(false);
        failables[other].set_down(true);
        repair_pass(&pool).unwrap();
        assert!(pool.transition_active());
        failables[old[0].0].set_down(true);
        assert_eq!(pool.get(&key).unwrap(), closed_record());
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
        let rep = repair_pass(&pool).unwrap();
        assert_eq!(rep.servers_down, 1);
        assert_eq!(pool.members().len(), 5, "a down member is not evicted");
        pool.begin_remove_server(ServerId(3)).unwrap();
        let total = drive_to_completion(&pool);
        assert!(total.complete);
        assert_eq!(pool.members().len(), 4);
        assert!(!pool.members().contains(&ServerId(3)));
        for i in 0..80 {
            assert_eq!(pool.get(format!("m{i}").as_bytes()).unwrap().as_ref(), b"v");
        }
    }

    // ---- a source that answers its scan but fails its reads ----

    /// A server that answers `scan_keys` from its store but fails every
    /// read past the first `reads_left` with a reset connection: a member
    /// whose census succeeds and whose data cannot be fetched.
    struct FlakyReads {
        inner: SimClient,
        reads_left: AtomicUsize,
    }

    impl FlakyReads {
        fn fail_reads_after(&self, n: usize) {
            self.reads_left.store(n, Ordering::SeqCst);
        }
    }

    impl KvClient for FlakyReads {
        fn start(&self, batch: Batch<'_>) -> Deferred<Bytes> {
            let read = matches!(batch, Batch::Get(_) | Batch::GetRange(_));
            if read
                && self
                    .reads_left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_err()
            {
                let reset = std::io::Error::from(std::io::ErrorKind::ConnectionReset);
                return Deferred::Ready(Err(KvError::Io(reset)));
            }
            self.inner.start(batch)
        }
        fn scan_keys(&self) -> memfs_memkv::error::KvResult<Vec<Vec<u8>>> {
            self.inner.scan_keys()
        }
    }

    /// `n` flaky servers (none failing yet), the first `members` of them
    /// mounted as a ketama pool with `POINTS` points each, one copy a key.
    fn flaky_servers(n: usize, members: usize) -> (Arc<ServerPool>, Vec<Arc<FlakyReads>>) {
        flaky_replicas(n, members, 1)
    }

    /// [`flaky_servers`] with `replication` copies of each key.
    fn flaky_replicas(
        n: usize,
        members: usize,
        replication: usize,
    ) -> (Arc<ServerPool>, Vec<Arc<FlakyReads>>) {
        let flaky: Vec<Arc<FlakyReads>> = (0..n)
            .map(|_| {
                Arc::new(FlakyReads {
                    inner: SimClient::new(Arc::new(Store::new(StoreConfig::default()))),
                    reads_left: AtomicUsize::new(usize::MAX),
                })
            })
            .collect();
        let clients = flaky[..members]
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
            .collect();
        let pool = ServerPool::with_replication(
            clients,
            DistributorKind::Ketama {
                points_per_server: POINTS,
            },
            replication,
        );
        (Arc::new(pool), flaky)
    }

    #[test]
    fn a_shrink_whose_leaving_server_fails_its_reads_does_not_commit() {
        let (pool, flaky) = flaky_servers(3, 3);
        let keys = seed(&pool, 30);
        let on_2 = keys
            .iter()
            .filter(|k| pool.server_for(k) == ServerId(2))
            .count();
        assert!(on_2 > 0, "server 2 must hold some keys");
        pool.begin_remove_server(ServerId(2)).unwrap();
        flaky[2].fail_reads_after(0);

        let rep = repair_pass(&pool).unwrap();
        assert_eq!(rep.under_replicated, on_2, "{rep:?}");
        assert_eq!(rep.unrepairable, on_2, "{rep:?}");
        assert!(
            !rep.complete,
            "a shrink committed past unread keys: {rep:?}"
        );
        assert!(pool.transition_active());

        // Once its reads answer again, the drain completes and loses nothing.
        flaky[2].fail_reads_after(usize::MAX);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(pool.get(key).unwrap(), Bytes::from(vec![i as u8; 256]));
        }
        assert!(drive_to_completion(&pool).complete);
        assert_eq!(pool.members(), vec![ServerId(0), ServerId(1)]);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(pool.get(key).unwrap(), Bytes::from(vec![i as u8; 256]));
        }
    }

    #[test]
    fn a_grow_whose_source_fails_its_re_read_does_not_commit() {
        // One key, moving to the joining server: the pass reads it from
        // its old home, copies it, and then cannot re-read the source — a
        // dual-routed append may have landed there unseen.
        let (pool, flaky) = flaky_servers(3, 2);
        let target = KetamaRing::with_members(&[0, 1, 2], POINTS);
        let key = (0..)
            .map(|i| format!("d:/grow{i}").into_bytes())
            .find(|k| target.server_for(k) == ServerId(2))
            .unwrap();
        pool.set(&key, Bytes::from_static(b"+a\n")).unwrap();
        let source = pool.server_for(&key);
        pool.begin_add_servers(vec![Arc::clone(&flaky[2]) as Arc<dyn KvClient>])
            .unwrap();
        flaky[source.0].fail_reads_after(1);

        let rep = repair_pass(&pool).unwrap();
        assert_eq!(rep.under_replicated, 1, "{rep:?}");
        assert_eq!(rep.unrepairable, 1, "{rep:?}");
        assert!(
            !rep.complete,
            "a grow committed past a failed re-read: {rep:?}"
        );
        assert!(pool.transition_active());

        flaky[source.0].fail_reads_after(usize::MAX);
        assert!(drive_to_completion(&pool).complete);
        assert_eq!(pool.get(&key).unwrap().as_ref(), b"+a\n");
    }

    #[test]
    fn a_record_whose_primary_head_goes_unread_is_not_overwritten() {
        // The primary holds the closed record and the follower the open
        // one of the same generation (a close the follower missed). A pass
        // that cannot read the primary's head cannot tell which copy is
        // current, so it must write neither over the other.
        let (pool, flaky) = flaky_replicas(4, 4, 2);
        let key = b"f:/closed-under-a-partition".to_vec();
        pool.set(&key, open_record()).unwrap();
        let owners: Vec<ServerId> = pool.servers_for(&key).collect();
        pool.client(owners[0]).set(&key, closed_record()).unwrap();
        flaky[owners[0].0].fail_reads_after(0);

        let rep = repair_pass(&pool).unwrap();
        assert_eq!(rep.unrepairable, 1, "{rep:?}");
        assert_eq!(rep.under_replicated, 0, "{rep:?}");
        flaky[owners[0].0].fail_reads_after(usize::MAX);
        assert_eq!(pool.client(owners[0]).get(&key).unwrap(), closed_record());
        assert_eq!(pool.client(owners[1]).get(&key).unwrap(), open_record());

        // Once the primary answers, the closed record wins on both homes.
        assert!(repair_pass(&pool).unwrap().converged());
        for id in owners {
            assert_eq!(pool.client(id).get(&key).unwrap(), closed_record());
        }
    }
}
