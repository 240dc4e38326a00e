//! The server pool: the Libmemcached role (paper §3.1.2).
//!
//! Holds the routing snapshot (`ring.rs`) over one [`KvClient`] per
//! storage server; every operation hashes its key to pick the server. All
//! MemFS mounts with the same server list and distributor agree on
//! placement — that is what lets any compute node read any file without
//! coordination. Which servers hold a key, the order a read walks them in
//! and how their replies settle are the replica rules of `replica.rs`;
//! this module puts requests on the wire and hands the rules the replies.
//!
//! Every request has one dispatch path, in two halves (DESIGN.md §4c). A
//! call holds the quiescence gate and reads one snapshot at once
//! (`Live::enter`), routes by it, and `start` puts every server's batch
//! on the wire at once through [`KvClient::start`] (paper §3.2.2:
//! symmetrical striping drives all N servers at once); it returns a [`Window`] of per-server [`Share`]s, and
//! settling a share turns its replies into results on whichever thread
//! needs them. The blocking calls — the single-key calls are those with
//! one entry — start a window and settle its shares in arrival order, so
//! a call costs `max(server RTT)` and occupies no thread but the caller's;
//! a prefetch window or a write drain keeps its shares pending in its file
//! handle instead. The replica walk of a failed read and the followers of
//! an arbitration request are windows of one request. A window's gate
//! hold is released by the transport as each share is *answered*
//! ([`Deferred::when_answered`]), never by the settler. Membership
//! changes swap in the snapshot [`RingState::next`] builds.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use memfs_hashring::ServerId;
use memfs_memkv::error::KvResult;
use memfs_memkv::{
    Batch, Deferred, KvClient, KvError, ReactorStatsSnapshot, ServerHealth, StoreVerb,
};
use parking_lot::{Mutex, RwLock};

use crate::config::DistributorKind;
use crate::error::{MemFsError, MemFsResult};
use crate::replica::{DegradedWrite, KeyReplies};
use crate::ring::{Change, Hold, Live, RingState};

/// One server's part of a batched call before it is started: the original
/// input indices paired with the entries themselves (keys, or key/value
/// items), kept together so settling can write results back in input
/// order.
type ServerBatch<K> = (Vec<usize>, Vec<K>);

/// An operation: its gate hold and the snapshot it routes by.
type Op = (Hold, Arc<RingState>);

/// What a routed read wants of a value: `None` for all of it, or
/// `(offset, len)` — the `getrange` clamping rules, see
/// [`Batch::GetRange`]. The replica walk is the same either way; only the
/// fetch at each home differs.
pub(crate) type ByteRange = Option<(u64, usize)>;

/// One request of a started read: a key and what of its value to read.
pub(crate) type ReadReq = (Bytes, ByteRange);

/// One server's part of a started [`Window`]: the input positions it
/// resolves, its entries, and the reply on its way. Its gate hold and
/// in-flight gauge went to the transport with the batch and are dropped
/// as the answer lands; settling the share (`ServerPool::settle_read`,
/// `ServerPool::finish_writes`) runs on whichever thread needs the
/// results, possibly much later.
pub(crate) struct Share<K> {
    server: usize,
    idx: Vec<usize>,
    entries: Vec<K>,
    reply: Deferred<Bytes>,
}

impl<K> Share<K> {
    /// The input positions this share resolves, in entry order.
    pub(crate) fn positions(&self) -> &[usize] {
        &self.idx
    }

    /// Whether the server has answered: settling would not wait for it.
    pub(crate) fn is_answered(&self) -> bool {
        self.reply.is_ready()
    }

    /// Wait for the answer: each entry with its input position and its
    /// reply. A whole-batch failure is every entry's error.
    fn replies(self) -> impl Iterator<Item = (usize, K, KvResult<Bytes>)> {
        let replies = match self.reply.wait() {
            Ok(replies) => replies,
            Err(e) => self.idx.iter().map(|_| Err(e.duplicate())).collect(),
        };
        let entries = self.idx.into_iter().zip(self.entries);
        entries
            .zip(replies)
            .map(|((i, entry), reply)| (i, entry, reply))
    }
}

/// A batched call on the wire: one [`Share`] per server it reached.
pub(crate) struct Window<K> {
    /// Input entries of the call.
    len: usize,
    shares: Vec<Share<K>>,
}

impl<K> Window<K> {
    /// The next share to settle, in arrival order: one already answered
    /// if there is one, else the oldest — a slow server holds up only its
    /// own share.
    fn next(&mut self) -> Option<Share<K>> {
        let pos = self.shares.iter().position(Share::is_answered);
        (!self.shares.is_empty()).then(|| self.shares.remove(pos.unwrap_or(0)))
    }

    /// The shares, for a caller that keeps them pending.
    pub(crate) fn into_shares(self) -> Vec<Share<K>> {
        self.shares
    }

    /// Settle every share of a replicated call, in arrival order, into
    /// one fold of replica replies per input entry, beside the entry.
    fn fold(mut self) -> Vec<(K, KeyReplies)> {
        let mut folds: Vec<Option<(K, KeyReplies)>> = (0..self.len).map(|_| None).collect();
        while let Some(share) = self.next() {
            let server = ServerId(share.server);
            for (i, entry, reply) in share.replies() {
                let fold = folds[i].get_or_insert_with(|| (entry, KeyReplies::default()));
                fold.1.record(server, reply);
            }
        }
        let routed = |fold: Option<_>| fold.expect("every entry has a home");
        folds.into_iter().map(routed).collect()
    }
}

/// Group `entries` into one batch per server slot of `state`, each entry
/// in the batch of every server `to` names for it.
fn group<K: Clone>(
    state: &RingState,
    entries: impl IntoIterator<Item = K>,
    to: impl Fn(&K) -> Vec<ServerId>,
) -> impl Iterator<Item = (usize, ServerBatch<K>)> {
    let mut batches: Vec<ServerBatch<K>> = vec![(Vec::new(), Vec::new()); state.clients.len()];
    for (i, entry) in entries.into_iter().enumerate() {
        for id in to(&entry) {
            batches[id.0].0.push(i);
            batches[id.0].1.push(entry.clone());
        }
    }
    batches.into_iter().enumerate()
}

/// One server's read batch: a `Get` when no request names a range, a
/// `GetRange` otherwise.
fn read_batch(client: &dyn KvClient, reqs: &[ReadReq]) -> Deferred<Bytes> {
    if reqs.iter().all(|(_, range)| range.is_none()) {
        let keys: Vec<Bytes> = reqs.iter().map(|(key, _)| key.clone()).collect();
        return client.start(Batch::Get(&keys));
    }
    let ranges: Vec<(Bytes, u64, usize)> = reqs
        .iter()
        .map(|(key, range)| {
            let (offset, len) = range.unwrap_or((0, usize::MAX));
            (key.clone(), offset, len)
        })
        .collect();
    client.start(Batch::GetRange(&ranges))
}

/// Per-server I/O counters, updated by every batched dispatch.
///
/// `in_flight` is a live gauge (batches currently on the wire to that
/// server); `max_in_flight` is its high-water mark. With symmetrical
/// striping working as the paper claims, a batched call over N servers
/// should drive `max_in_flight` to 1 on *every* server at once rather than
/// serially — that is what makes the symmetry observable.
#[derive(Debug, Default)]
struct ServerIo {
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
    batches: AtomicU64,
    keys: AtomicU64,
    fallbacks: AtomicU64,
    degraded: AtomicU64,
}

impl ServerIo {
    /// Count a batch of `nkeys` as in flight until the guard drops.
    fn track(self: &Arc<Self>, nkeys: usize) -> InFlightGuard {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_in_flight.fetch_max(now, Ordering::SeqCst);
        self.batches.fetch_add(1, Ordering::SeqCst);
        self.keys.fetch_add(nkeys as u64, Ordering::SeqCst);
        InFlightGuard(Arc::clone(self))
    }
}

struct InFlightGuard(Arc<ServerIo>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Point-in-time copy of one server's I/O counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerIoSnapshot {
    /// Batches on the wire to this server right now.
    pub in_flight: usize,
    /// High-water mark of `in_flight`.
    pub max_in_flight: usize,
    /// Total batched calls dispatched to this server.
    pub batches: u64,
    /// Total keys carried by those batches.
    pub keys: u64,
    /// Keys that needed the replica-chain fallback.
    pub fallbacks: u64,
    /// Replica writes this server missed while the key still landed on a
    /// surviving replica (degraded writes handed to the repair queue).
    pub degraded_writes: u64,
}

/// Per-server dispatch accounting for the whole pool. Transport-level
/// reactor counters (epoll wakeups, completion batching, timeouts,
/// reconnects) live one layer down — [`ServerPool::reactor_stats`]
/// aggregates them per distinct reactor. Grows (never shrinks) when
/// servers are admitted, so snapshots stay indexed by [`ServerId`].
#[derive(Debug, Default)]
pub struct PoolStats {
    servers: RwLock<Vec<Arc<ServerIo>>>,
}

impl PoolStats {
    /// Extend the counter table to `n` slots (admitting servers).
    fn grow_to(&self, n: usize) {
        let mut servers = self.servers.write();
        while servers.len() < n {
            servers.push(Arc::new(ServerIo::default()));
        }
    }

    /// The counter block for one server slot (shared, lock held only for
    /// the lookup).
    fn io(&self, server: usize) -> Arc<ServerIo> {
        Arc::clone(&self.servers.read()[server])
    }

    /// Snapshot every server's counters, indexed by [`ServerId`].
    pub fn snapshot(&self) -> Vec<ServerIoSnapshot> {
        self.servers
            .read()
            .iter()
            .map(|s| ServerIoSnapshot {
                in_flight: s.in_flight.load(Ordering::SeqCst),
                max_in_flight: s.max_in_flight.load(Ordering::SeqCst),
                batches: s.batches.load(Ordering::SeqCst),
                keys: s.keys.load(Ordering::SeqCst),
                fallbacks: s.fallbacks.load(Ordering::SeqCst),
                degraded_writes: s.degraded.load(Ordering::SeqCst),
            })
            .collect()
    }
}

/// A hash-routed pool of storage servers with optional n-way replication,
/// whose batched calls keep every server's batch in flight at once.
///
/// Replication is the fault-tolerance mechanism the paper sketches but
/// defers ("assuming the replication factor is n, then the total storage
/// capacity of MemFS would be decreased n times and n times more data will
/// flow through the network", §3.2.5). With `replication = r`, each key
/// lands on the `r` **distinct successors** the distributor reports
/// ([`memfs_hashring::Distributor::replicas_for`]): ring successors under
/// ketama (stable under membership change, failover load spread over many
/// servers), index successors under modulo. Reads try the primary first
/// and walk on to the followers, so the system tolerates `r - 1` server
/// failures.
///
/// The membership is elastic: [`ServerPool::begin_add_servers`] /
/// [`ServerPool::begin_remove_server`] install a *transition* toward a
/// target ring, and while it is installed writers dual-route every key to
/// the union of its current and target homes and readers consult the
/// current homes first (authoritative) and the target-only homes second.
/// The repair pass (`repair.rs`) commits it.
///
/// Caveat (documented, matching the paper's decision not to productize
/// this): replicated `append` applies to each copy in turn, so two
/// *concurrent* appends to one key may order differently across replicas.
/// MemFS' directory logs are order-insensitive sets, so folding still
/// converges; applications needing ordered replicated appends should keep
/// `replication = 1`.
pub struct ServerPool {
    /// The live routing snapshot and the quiescence gate.
    live: Live,
    /// How to rebuild rings on membership changes.
    kind: DistributorKind,
    replication: usize,
    stats: PoolStats,
    /// Keys whose last write landed on some replicas but not all — the
    /// hand-off point between the degraded write path and the repair
    /// planner ([`ServerPool::take_degraded`]). May contain duplicates
    /// when a key is written degraded repeatedly; repair dedups on drain.
    degraded: Mutex<VecDeque<DegradedWrite>>,
    /// Serializes repair passes (each holds this across the pass).
    migration: Mutex<()>,
}

impl ServerPool {
    /// Build a pool over `clients` with the configured distributor and no
    /// replication.
    ///
    /// # Panics
    /// Panics on an empty client list.
    pub fn new(clients: Vec<Arc<dyn KvClient>>, kind: DistributorKind) -> Self {
        Self::with_replication(clients, kind, 1)
    }

    /// Build a pool that writes each key to `replication` consecutive
    /// servers.
    ///
    /// # Panics
    /// Panics on an empty client list, `replication == 0`, or a
    /// replication factor exceeding the server count.
    pub fn with_replication(
        clients: Vec<Arc<dyn KvClient>>,
        kind: DistributorKind,
        replication: usize,
    ) -> Self {
        assert!(!clients.is_empty(), "server pool needs at least one server");
        assert!(
            replication >= 1 && replication <= clients.len(),
            "replication factor {replication} invalid for {} servers",
            clients.len()
        );
        let stats = PoolStats::default();
        stats.grow_to(clients.len());
        ServerPool {
            live: Live::new(RingState::new(clients, &kind)),
            kind,
            replication,
            stats,
            degraded: Mutex::new(VecDeque::new()),
            migration: Mutex::new(()),
        }
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Per-server dispatch counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Transport reactor counters, one snapshot per distinct reactor
    /// (clients sharing one reactor — the per-mount deployment shape —
    /// are deduped by [`ReactorStatsSnapshot::reactor_id`], so a shared
    /// reactor reports once). Empty for in-process transports. Exposes
    /// epoll wakeups, completions and the cross-server batching factor,
    /// registered connections, timeouts fired, and reconnect attempts.
    pub fn reactor_stats(&self) -> Vec<ReactorStatsSnapshot> {
        let mut seen = std::collections::HashSet::new();
        self.ring_state()
            .clients
            .iter()
            .filter_map(|c| c.reactor_stats())
            .filter(|s| seen.insert(s.reactor_id))
            .collect()
    }

    /// The servers holding `key`, primary first (the distributor's
    /// distinct-successor walk; during a transition, the current homes
    /// followed by the target ring's extra homes).
    pub fn servers_for(&self, key: &[u8]) -> impl Iterator<Item = ServerId> + '_ {
        let (homes, _) = self.ring_state().rings().homes(key, self.replication);
        homes.into_iter()
    }

    /// The key's failover walk: every distinct successor in the order
    /// the repair pass homes it and a failed read walks on. The repair
    /// pass takes the first `replication()` *alive* entries as the key's
    /// home set, so copies migrate to surviving successors while owners
    /// are down and converge back when they return.
    pub fn replica_candidates(&self, key: &[u8]) -> Vec<ServerId> {
        self.ring_state().rings().walk(key)
    }

    /// Per-server health census, indexed by [`ServerId`]: each client's
    /// current liveness view (for TCP clients, the reactor's link state
    /// plus heartbeat probes; in-process clients are always `Up` unless a
    /// test injects failure). Retired slots report `Down`.
    pub fn health(&self) -> Vec<ServerHealth> {
        self.ring_state()
            .clients
            .iter()
            .map(|c| c.health())
            .collect()
    }

    /// Drain the degraded-write queue: every key a write left
    /// under-replicated since the last drain, in write order (duplicates
    /// possible — dedup on use).
    pub fn take_degraded(&self) -> Vec<DegradedWrite> {
        self.degraded.lock().drain(..).collect()
    }

    /// Number of degraded writes currently queued for repair.
    pub fn degraded_pending(&self) -> usize {
        self.degraded.lock().len()
    }

    /// Put unresolved degraded-write hints back at the *front* of the
    /// queue, ahead of any hint a write queued meanwhile: the last hint
    /// of a key must stay its latest write's.
    pub(crate) fn requeue_degraded(&self, hints: Vec<DegradedWrite>) {
        let mut queue = self.degraded.lock();
        for hint in hints.into_iter().rev() {
            queue.push_front(hint);
        }
    }

    /// Number of server *slots* (including joining and retired ones —
    /// slot ids are stable for the life of the pool).
    pub fn n_servers(&self) -> usize {
        self.ring_state().clients.len()
    }

    /// The current member slots, sorted. Joining servers appear once
    /// their admission transition completes; drained servers disappear
    /// when theirs does.
    pub fn members(&self) -> Vec<ServerId> {
        self.ring_state()
            .members
            .iter()
            .map(|&m| ServerId(m))
            .collect()
    }

    /// Whether a membership transition is in progress.
    pub fn transition_active(&self) -> bool {
        self.ring_state().transition.is_some()
    }

    /// Admit new servers: append their clients to the slot table and
    /// install a transition whose target ring includes them. Data starts
    /// moving when the repair pass next runs; until it commits, writes
    /// also reach the target homes and reads keep trusting the current
    /// ones, so the call itself never disturbs foreground traffic.
    ///
    /// Returns the slot ids assigned to the new servers. Fails with
    /// [`MemFsError::MembershipBusy`] while another transition is in
    /// flight, or [`MemFsError::UnsupportedTopology`] if the distributor
    /// cannot express the target membership.
    pub fn begin_add_servers(
        &self,
        new_clients: Vec<Arc<dyn KvClient>>,
    ) -> MemFsResult<Vec<ServerId>> {
        if new_clients.is_empty() {
            return Ok(Vec::new());
        }
        let count = new_clients.len();
        let state = self.change(Change::Admit(new_clients))?;
        let slots = state.clients.len();
        Ok((slots - count..slots).map(ServerId).collect())
    }

    /// Drain a member server: install a transition whose target ring
    /// excludes it. The slot keeps serving reads (and receiving
    /// dual-routed writes) until every key has migrated off it;
    /// completion replaces the slot's client with a retired tombstone.
    ///
    /// Fails with [`MemFsError::MembershipBusy`] while another transition
    /// is in flight, [`MemFsError::UnknownServer`] if `id` is not a
    /// member, or [`MemFsError::UnsupportedTopology`] if removal would
    /// leave fewer members than the replication factor (or a slot-table
    /// hole the distributor cannot express).
    pub fn begin_remove_server(&self, id: ServerId) -> MemFsResult<()> {
        self.change(Change::Drain(id)).map(drop)
    }

    /// Finish the in-progress transition: the target membership becomes
    /// current and leaving slots are tombstoned. The repair pass calls
    /// this once every key reached its target homes; a no-op without an
    /// active transition.
    pub(crate) fn complete_transition(&self) {
        self.change(Change::Commit).expect("committing never fails");
    }

    /// Swap in the snapshot after `change`, with a counter block for
    /// every slot it has.
    fn change(&self, change: Change) -> MemFsResult<Arc<RingState>> {
        self.live.swap(|state| {
            let next = state.next(change, &self.kind, self.replication)?;
            self.stats.grow_to(next.clients.len());
            Ok(next)
        })
    }

    /// The live routing snapshot (for the repair pass and in-crate tests).
    pub(crate) fn ring_state(&self) -> Arc<RingState> {
        self.live.snapshot()
    }

    /// Wait until every operation that entered before this call has
    /// been answered, so a snapshot published before the call is the one
    /// all in-flight routing uses. Called by the repair pass between a
    /// membership change and acting on it.
    pub(crate) fn quiesce(&self) {
        self.live.quiesce();
    }

    /// Serializes repair passes across threads (daemon vs. manual
    /// `repair_now`).
    pub(crate) fn migration_mutex(&self) -> &Mutex<()> {
        &self.migration
    }

    /// The server a key routes to (exposed for balance diagnostics and the
    /// simulation models, which share this placement logic).
    pub fn server_for(&self, key: &[u8]) -> ServerId {
        self.ring_state().primary(key)
    }

    /// The client for a given server id (a snapshot — the slot may retire
    /// later, at which point calls on the old handle fail cleanly).
    pub fn client(&self, id: ServerId) -> Arc<dyn KvClient> {
        Arc::clone(&self.ring_state().clients[id.0])
    }

    /// Routed `set`: [`ServerPool::set_many`] with one item — every
    /// replica's request on the wire in one step. A key that lands on at
    /// least one replica is durable — partial failures are recorded as a
    /// degraded write and queued for repair rather than surfaced as an
    /// error, so the write path stays available while a server is down.
    /// Only a key every replica rejected is an error.
    pub fn set(&self, key: &[u8], value: Bytes) -> MemFsResult<()> {
        self.set_many(&[(Bytes::copy_from_slice(key), value)])
    }

    /// Routed `add`: the primary arbitrates existence (its atomic `add` is
    /// the write-once gate); followers receive plain `set`s. During a
    /// transition the *current* primary stays the arbiter (every client
    /// routes current-homes-first, so the gate is unambiguous); the target
    /// homes receive follower `set`s like any replica.
    pub fn add(&self, key: &[u8], value: Bytes) -> MemFsResult<()> {
        self.store_beside(StoreVerb::Add, key, value, || ()).0
    }

    /// The one body of the arbitration requests [`ServerPool::add`] and
    /// [`ServerPool::append`], with room for something beside them. The
    /// first home's request goes on the wire through [`KvClient::start`],
    /// counted by [`PoolStats`] like a one-key batch and held in flight
    /// until it is settled; `beside` — a pool call that does not depend on
    /// the outcome — runs on the caller's thread (a batched one starts its
    /// own window); then the request is settled and, if it succeeded,
    /// applied to the remaining homes in turn, each a window of one
    /// request. A follower's failure is the caller's error, except a
    /// target-only home's `NotFound` to an `append`: the suffix is durable
    /// on the current homes, and the repair pass's post-copy re-read
    /// carries it across before the transition commits.
    pub fn store_beside<R>(
        &self,
        verb: StoreVerb,
        key: &[u8],
        value: Bytes,
        beside: impl FnOnce() -> R,
    ) -> (MemFsResult<()>, R) {
        let op = self.live.enter();
        let (homes, auth) = op.1.rings().homes(key, self.replication);
        let guard = self.stats.io(homes[0].0).track(1);
        let item = [(Bytes::copy_from_slice(key), value)];
        let deferred = op.1.client(homes[0]).start(Batch::Store(verb, &item));
        let other = beside();
        let reply = deferred.wait();
        drop(guard);
        let first =
            reply.and_then(|mut reply| reply.pop().expect("one reply per request").map(drop));
        let follower = if verb == StoreVerb::Append {
            verb
        } else {
            StoreVerb::Set
        };
        let [item] = item;
        let rest = |(i, &id): (usize, &ServerId)| {
            let store = |client: &dyn KvClient, items: &[(Bytes, Bytes)]| {
                client.start(Batch::Store(follower, items))
            };
            match self.call(&op, id, item.clone(), store) {
                Err(KvError::NotFound) if i >= auth => Ok(()),
                r => r.map(drop),
            }
        };
        let result = first.and_then(|()| homes.iter().enumerate().skip(1).try_for_each(rest));
        (result.map_err(Into::into), other)
    }

    /// Routed `get`: [`ServerPool::get_many`] with one key — primary
    /// first, the replica walk on failure.
    pub fn get(&self, key: &[u8]) -> MemFsResult<Bytes> {
        let mut replies = self.get_many(&[Bytes::copy_from_slice(key)]);
        replies.pop().expect("one reply per key")
    }

    /// Routed `get` that maps a missing key to `None`.
    pub fn try_get(&self, key: &[u8]) -> MemFsResult<Option<Bytes>> {
        match self.get(key) {
            Ok(v) => Ok(Some(v)),
            Err(MemFsError::Storage(KvError::NotFound)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Batched routed `get`: keys are grouped by primary server, each
    /// group travels as **one** multi-get ([`Batch::Get`]), and the
    /// groups are on the wire **concurrently** — a window of `w` stripes
    /// over `n` servers costs one parallel round trip (`max` of the
    /// per-server times), not `n` sequential ones. Results come back in
    /// input order.
    ///
    /// A transport failure (of the whole batch or a single key) walks
    /// that key's replicas when that server's share settles
    /// ([`ServerPool::settle_read`]), so a dead server degrades only its
    /// own keys while the healthy servers' batches proceed.
    pub fn get_many(&self, keys: &[Bytes]) -> Vec<MemFsResult<Bytes>> {
        let reqs = keys.iter().map(|key| (key.clone(), None)).collect();
        self.finish_reads(self.start_reads(reqs))
    }

    /// Batched routed *ranged* `get`: for each `(key, offset, len)` the
    /// bytes `[offset, offset + len)` of the key's value, clamped to it
    /// ([`Batch::GetRange`]) — a fine-grain read moves the range, not the
    /// stripe. Routing, dispatch, accounting and the replica walk are
    /// [`ServerPool::get_many`]'s. Requests pair with results by
    /// position, so one key may appear with several ranges.
    pub fn get_range_many(&self, reqs: &[(Bytes, u64, usize)]) -> Vec<MemFsResult<Bytes>> {
        let reqs = reqs
            .iter()
            .map(|(key, offset, len)| (key.clone(), Some((*offset, *len))))
            .collect();
        self.finish_reads(self.start_reads(reqs))
    }

    /// Start a read of `reqs`, grouped by primary server.
    pub(crate) fn start_reads(&self, reqs: Vec<ReadReq>) -> Window<ReadReq> {
        let op = self.live.enter();
        let len = reqs.len();
        let batches = group(&op.1, reqs, |(key, _)| vec![op.1.primary(key)]);
        self.start(&op, len, batches, read_batch)
    }

    /// Settle every share of a started read, in arrival order, into
    /// results in input order.
    fn finish_reads(&self, mut window: Window<ReadReq>) -> Vec<MemFsResult<Bytes>> {
        let mut out: Vec<Option<MemFsResult<Bytes>>> = (0..window.len).map(|_| None).collect();
        while let Some(share) = window.next() {
            for (i, r) in self.settle_read(share) {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every request grouped exactly once"))
            .collect()
    }

    /// Batched routed `set`: items are grouped per replica-holding server
    /// and each group travels as one pipelined [`Batch::Store`], all
    /// groups on the wire **concurrently** (replica batches to different
    /// servers overlap too). Every batch is always attempted.
    ///
    /// A key stored on at least one replica is durable; if some replicas
    /// failed it, it is recorded in the repair queue with the missing
    /// servers ([`ServerPool::take_degraded`]). Only a key that failed on
    /// *every* replica is an error, and the first such error in input
    /// order is returned.
    pub fn set_many(&self, items: &[(Bytes, Bytes)]) -> MemFsResult<()> {
        self.finish_writes(self.start_writes(items))
            .into_iter()
            .collect()
    }

    /// Start a replicated `set` of `items`: one batch per server across
    /// every item's homes.
    pub(crate) fn start_writes(&self, items: &[(Bytes, Bytes)]) -> Window<(Bytes, Bytes)> {
        let op = self.live.enter();
        let homes = |(key, _): &(Bytes, Bytes)| op.1.rings().homes(key, self.replication).0;
        let batches = group(&op.1, items.iter().cloned(), homes);
        self.start(&op, items.len(), batches, |client, items| {
            client.start(Batch::Store(StoreVerb::Set, items))
        })
    }

    /// Settle every share of a started write, in arrival order, into one
    /// result per key, in input order: `Err` only for a key every replica
    /// failed ([`ServerPool::set_many`]). A degraded key's repair hint is
    /// queued here, on the settling thread.
    pub(crate) fn finish_writes(&self, window: Window<(Bytes, Bytes)>) -> Vec<MemFsResult<()>> {
        let settle = |((key, _), replies): ((Bytes, Bytes), KeyReplies)| {
            if let Some(hint) = replies.settle_write(key)? {
                for id in &hint.missing {
                    self.stats.io(id.0).degraded.fetch_add(1, Ordering::SeqCst);
                }
                self.degraded.lock().push_back(hint);
            }
            Ok(())
        };
        window.fold().into_iter().map(settle).collect()
    }

    /// Routed atomic `append`, applied to every replica (see the ordering
    /// caveat in the type docs and [`ServerPool::store_beside`]).
    pub fn append(&self, key: &[u8], suffix: &[u8]) -> MemFsResult<()> {
        let suffix = Bytes::copy_from_slice(suffix);
        self.store_beside(StoreVerb::Append, key, suffix, || ()).0
    }

    /// Routed `delete`: [`ServerPool::delete_many`] with one key; missing
    /// keys and dead replicas are ignored (idempotent cleanup).
    pub fn delete_quiet(&self, key: &[u8]) -> MemFsResult<()> {
        let mut outcomes = self.delete_many(&[Bytes::copy_from_slice(key)]);
        outcomes.pop().expect("one outcome per key").map(drop)
    }

    /// Batched routed `delete`: keys are grouped per replica-holding
    /// server, each group travels as one pipelined [`Batch::Delete`], and
    /// the groups are on the wire concurrently — freeing a striped file
    /// costs one parallel round trip per chunk instead of one round trip
    /// per stripe.
    ///
    /// Per key: `Ok(true)` if any replica deleted the key, `Ok(false)` if
    /// every live replica reported it missing, `Err` only if all replicas
    /// failed.
    pub fn delete_many(&self, keys: &[Bytes]) -> Vec<MemFsResult<bool>> {
        let op = self.live.enter();
        let homes = |key: &Bytes| op.1.rings().homes(key, self.replication).0;
        let batches = group(&op.1, keys.iter().cloned(), homes);
        let window = self.start(&op, keys.len(), batches, |client, keys| {
            client.start(Batch::Delete(keys))
        });
        drop(op); // the shares hold the gate until answered, not settled
        let resolve = |(_, replies): (Bytes, KeyReplies)| replies.resolve_delete();
        window.fold().into_iter().map(resolve).collect()
    }

    /// Put each non-empty batch of `batches` (`len` input entries routed
    /// by `op`'s snapshot) on the wire at once, through `submit`: the
    /// dispatch half of every request, on the caller's thread. Each share
    /// holds a clone of `op`'s gate hold and its server's in-flight gauge
    /// until its answer — the transport drops both
    /// ([`Deferred::when_answered`]), so a window left unsettled in an
    /// idle handle stalls neither [`ServerPool::quiesce`] nor the gauge.
    fn start<K>(
        &self,
        (hold, state): &Op,
        len: usize,
        batches: impl IntoIterator<Item = (usize, ServerBatch<K>)>,
        submit: impl Fn(&dyn KvClient, &[K]) -> Deferred<Bytes>,
    ) -> Window<K> {
        let mut shares = Vec::new();
        for (server, (idx, entries)) in batches {
            if entries.is_empty() {
                continue;
            }
            let in_flight = self.stats.io(server).track(entries.len());
            let mut reply = submit(&*state.clients[server], &entries);
            let hold = Arc::clone(hold);
            reply.when_answered(move || drop((in_flight, hold)));
            shares.push(Share {
                server,
                idx,
                entries,
                reply,
            });
        }
        Window { len, shares }
    }

    /// One request of `entry` to `server` through [`ServerPool::start`],
    /// waited on: a window of one, counted like any other.
    fn call<K>(
        &self,
        op: &Op,
        server: ServerId,
        entry: K,
        submit: impl Fn(&dyn KvClient, &[K]) -> Deferred<Bytes>,
    ) -> KvResult<Bytes> {
        let batch = (server.0, (vec![0], vec![entry]));
        let mut shares = self.start(op, 1, [batch], submit).shares;
        let share = shares.pop().expect("a one-request window");
        share.replies().next().expect("one reply per request").2
    }

    /// Settle one read share on the caller's thread: its results, paired
    /// with their input positions. An entry whose server failed — the
    /// whole batch or just that entry — takes the replica walk
    /// ([`crate::replica::ReadWalk::after`], the failed server skipped)
    /// under the ring as it is *now*, in a gate hold of its own: the
    /// window's went with its answer. Replicas (if any) thus serve a dead
    /// server's keys while the other servers' shares settle untouched.
    pub(crate) fn settle_read(&self, share: Share<ReadReq>) -> Vec<(usize, MemFsResult<Bytes>)> {
        let failed = share.server;
        let walk_on = |req: &ReadReq, err: KvError| {
            self.stats
                .io(failed)
                .fallbacks
                .fetch_add(1, Ordering::SeqCst);
            let op = self.live.enter();
            let walk = op.1.rings().read_walk(&req.0, self.replication);
            walk.after(ServerId(failed), err, |id| {
                self.call(&op, id, req.clone(), read_batch)
            })
        };
        let settle = |(i, req, reply): (usize, ReadReq, KvResult<Bytes>)| {
            let result = match reply {
                Err(e) if !matches!(e, KvError::NotFound) => walk_on(&req, e),
                reply => reply,
            };
            (i, result.map_err(Into::into))
        };
        share.replies().map(settle).collect()
    }
}

impl std::fmt::Debug for ServerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.ring_state();
        f.debug_struct("ServerPool")
            .field("n_servers", &state.clients.len())
            .field("members", &state.members.len())
            .field("transition", &state.transition.is_some())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use memfs_memkv::{LocalClient, SimClient, Store, StoreConfig};
    use std::time::Duration;

    fn pool(n: usize) -> (ServerPool, Vec<Arc<Store>>) {
        let stores: Vec<Arc<Store>> = (0..n)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = stores
            .iter()
            .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
            .collect();
        (ServerPool::new(clients, DistributorKind::default()), stores)
    }

    #[test]
    fn routed_round_trip() {
        let (p, _) = pool(4);
        p.set(b"k1", Bytes::from_static(b"v1")).unwrap();
        assert_eq!(p.get(b"k1").unwrap().as_ref(), b"v1");
        assert_eq!(p.try_get(b"missing").unwrap(), None);
    }

    #[test]
    fn keys_spread_across_servers() {
        let (p, stores) = pool(4);
        for i in 0..200 {
            let key = format!("s:/file{i}#0");
            p.set(key.as_bytes(), Bytes::from_static(b"x")).unwrap();
        }
        for (i, s) in stores.iter().enumerate() {
            assert!(
                s.item_count() > 20,
                "server {i} got {} items",
                s.item_count()
            );
        }
    }

    #[test]
    fn get_many_issues_one_batch_per_server() {
        let (p, stores) = pool(4);
        let keys: Vec<Bytes> = (0..64).map(|i| Bytes::from(format!("s:/f{i}#0"))).collect();
        let items: Vec<(Bytes, Bytes)> = keys
            .iter()
            .map(|k| {
                (
                    k.clone(),
                    Bytes::from(format!("v{}", String::from_utf8_lossy(k))),
                )
            })
            .collect();
        p.set_many(&items).unwrap();
        let out = p.get_many(&keys);
        for (k, r) in keys.iter().zip(out) {
            assert_eq!(
                r.unwrap(),
                Bytes::from(format!("v{}", String::from_utf8_lossy(k)))
            );
        }
        // Each server that owns any of the keys saw exactly ONE batched
        // multi-get — the acceptance criterion for windowed prefetching.
        for s in &stores {
            if s.item_count() > 0 {
                assert_eq!(s.stats().snapshot().mget_ops, 1);
            }
        }
    }

    #[test]
    fn get_many_misses_are_per_key() {
        let (p, _) = pool(3);
        p.set(b"present", Bytes::from_static(b"yes")).unwrap();
        let out = p.get_many(&[
            Bytes::from_static(b"present"),
            Bytes::from_static(b"absent"),
        ]);
        assert_eq!(out[0].as_ref().unwrap().as_ref(), b"yes");
        assert!(matches!(
            out[1],
            Err(MemFsError::Storage(KvError::NotFound))
        ));
    }

    #[test]
    fn get_many_falls_back_to_replicas_when_primary_dies() {
        let failables: Vec<Arc<SimClient>> = (0..3)
            .map(|_| Arc::new(SimClient::new(Arc::new(Store::new(StoreConfig::default())))))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = failables
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
            .collect();
        let p = ServerPool::with_replication(clients, DistributorKind::default(), 2);
        let keys: Vec<Bytes> = (0..24).map(|i| Bytes::from(format!("k{i}"))).collect();
        for k in &keys {
            p.set(k, Bytes::from_static(b"replicated")).unwrap();
        }
        // Kill one server: every key it owned as primary must still be
        // served by its follower through the batched path.
        failables[0].set_down(true);
        for r in p.get_many(&keys) {
            assert_eq!(r.unwrap().as_ref(), b"replicated");
        }
        // A ranged read takes the same walk and is counted the same way.
        let before: u64 = p.stats().snapshot().iter().map(|s| s.fallbacks).sum();
        let ranges: Vec<(Bytes, u64, usize)> = keys.iter().map(|k| (k.clone(), 2, 4)).collect();
        for r in p.get_range_many(&ranges) {
            assert_eq!(r.unwrap().as_ref(), b"plic");
        }
        let after: u64 = p.stats().snapshot().iter().map(|s| s.fallbacks).sum();
        assert!(after > before, "the dead primary's ranges fell back");
    }

    #[test]
    fn get_range_many_pairs_results_by_position_and_counts_its_batches() {
        let (p, _) = pool(4);
        let keys: Vec<Bytes> = (0..16).map(|i| Bytes::from(format!("k{i}"))).collect();
        for (i, k) in keys.iter().enumerate() {
            p.set(k, Bytes::from(vec![i as u8; 100])).unwrap();
        }
        let mut reqs: Vec<(Bytes, u64, usize)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u64 * 10, 10))
            .collect();
        reqs.push((Bytes::from_static(b"missing"), 0, 10));
        reqs.push((keys[3].clone(), 95, 10)); // a second, clamped range of k3
        let before = p.stats().snapshot();
        let out = p.get_range_many(&reqs);
        for (i, r) in out[..16].iter().enumerate() {
            let want = if i < 10 { 10 } else { 0 }; // offsets >= 100 read empty
            assert_eq!(r.as_ref().unwrap().as_ref(), &vec![i as u8; want][..]);
        }
        assert!(matches!(
            out[16],
            Err(MemFsError::Storage(KvError::NotFound))
        ));
        assert_eq!(out[17].as_ref().unwrap().as_ref(), &[3u8; 5][..]);
        // Same dispatch, same accounting as `get_many`: one batch per
        // server that owns a key, every request counted.
        let snap = p.stats().snapshot();
        let delta = |f: fn(&ServerIoSnapshot) -> u64| -> Vec<u64> {
            let pairs = snap.iter().zip(&before);
            pairs.map(|(now, was)| f(now) - f(was)).collect()
        };
        assert_eq!(delta(|s| s.keys).iter().sum::<u64>(), 18);
        assert!(delta(|s| s.batches).iter().all(|&batches| batches <= 1));
        assert!(snap.iter().all(|s| s.in_flight == 0));
    }

    #[test]
    fn set_many_respects_replication() {
        use memfs_memkv::{LocalClient, Store, StoreConfig};
        let stores: Vec<Arc<Store>> = (0..4)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = stores
            .iter()
            .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
            .collect();
        let p = ServerPool::with_replication(clients, DistributorKind::default(), 2);
        let items: Vec<(Bytes, Bytes)> = (0..16)
            .map(|i| (Bytes::from(format!("k{i}")), Bytes::from_static(b"x")))
            .collect();
        p.set_many(&items).unwrap();
        let copies: u64 = stores.iter().map(|s| s.item_count()).sum();
        assert_eq!(copies, 32, "16 items x 2 replicas");
        for (k, _) in &items {
            assert_eq!(p.get(k).unwrap().as_ref(), b"x");
        }
    }

    #[test]
    fn placement_is_stable_across_pool_instances() {
        let (p1, _) = pool(8);
        let (p2, _) = pool(8);
        for i in 0..100 {
            let key = format!("s:/f{i}#3");
            assert_eq!(p1.server_for(key.as_bytes()), p2.server_for(key.as_bytes()));
        }
    }

    #[test]
    fn delete_many_reports_per_key_outcomes() {
        let (p, stores) = pool(4);
        let keys: Vec<Bytes> = (0..32).map(|i| Bytes::from(format!("s:/f{i}#0"))).collect();
        for k in &keys {
            p.set(k, Bytes::from_static(b"v")).unwrap();
        }
        // First pass deletes everything; second pass finds nothing.
        for r in p.delete_many(&keys) {
            assert!(r.unwrap());
        }
        for r in p.delete_many(&keys) {
            assert!(!r.unwrap());
        }
        assert!(stores.iter().all(|s| s.item_count() == 0));
    }

    #[test]
    fn delete_many_mixed_hits_and_misses() {
        let (p, _) = pool(3);
        p.set(b"present", Bytes::from_static(b"v")).unwrap();
        let out = p.delete_many(&[
            Bytes::from_static(b"present"),
            Bytes::from_static(b"absent"),
        ]);
        assert!(out[0].as_ref().unwrap());
        assert!(!out[1].as_ref().unwrap());
    }

    #[test]
    fn delete_many_survives_a_dead_replica() {
        let failables: Vec<Arc<SimClient>> = (0..3)
            .map(|_| Arc::new(SimClient::new(Arc::new(Store::new(StoreConfig::default())))))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = failables
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
            .collect();
        let p = ServerPool::with_replication(clients, DistributorKind::default(), 2);
        let keys: Vec<Bytes> = (0..24).map(|i| Bytes::from(format!("k{i}"))).collect();
        for k in &keys {
            p.set(k, Bytes::from_static(b"v")).unwrap();
        }
        failables[0].set_down(true);
        // Every key still has a live replica: the delete succeeds.
        for r in p.delete_many(&keys) {
            assert!(r.unwrap());
        }
    }

    #[test]
    fn delete_quiet_is_idempotent() {
        let (p, _) = pool(2);
        p.set(b"k", Bytes::from_static(b"v")).unwrap();
        p.delete_quiet(b"k").unwrap();
        p.delete_quiet(b"k").unwrap();
        assert_eq!(p.try_get(b"k").unwrap(), None);
    }

    #[test]
    fn ketama_pool_works() {
        let stores: Vec<Arc<dyn KvClient>> = (0..4)
            .map(|_| {
                Arc::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))) as Arc<dyn KvClient>
            })
            .collect();
        let p = ServerPool::new(
            stores,
            DistributorKind::Ketama {
                points_per_server: 64,
            },
        );
        p.set(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(p.get(b"k").unwrap().as_ref(), b"v");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_panics() {
        ServerPool::new(Vec::new(), DistributorKind::default());
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn oversized_replication_panics() {
        let (p, _) = pool(2);
        drop(p);
        let stores: Vec<Arc<dyn KvClient>> = (0..2)
            .map(|_| {
                Arc::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))) as Arc<dyn KvClient>
            })
            .collect();
        ServerPool::with_replication(stores, DistributorKind::default(), 3);
    }

    #[test]
    fn replicated_writes_land_on_consecutive_servers() {
        let stores: Vec<Arc<Store>> = (0..4)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = stores
            .iter()
            .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
            .collect();
        let p = ServerPool::with_replication(clients, DistributorKind::default(), 2);
        p.set(b"k", Bytes::from_static(b"v")).unwrap();
        let holders = stores.iter().filter(|s| s.contains(b"k")).count();
        assert_eq!(holders, 2);
        let expected: Vec<usize> = p.servers_for(b"k").map(|s| s.0).collect();
        for &i in &expected {
            assert!(stores[i].contains(b"k"));
        }
    }

    #[test]
    fn replicated_reads_survive_a_dead_primary() {
        let failables: Vec<Arc<SimClient>> = (0..3)
            .map(|_| Arc::new(SimClient::new(Arc::new(Store::new(StoreConfig::default())))))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = failables
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
            .collect();
        let p = ServerPool::with_replication(clients, DistributorKind::default(), 2);
        p.set(b"k", Bytes::from_static(b"survives")).unwrap();
        // Take the primary down: reads fall back to the follower.
        let primary = p.servers_for(b"k").next().unwrap();
        failables[primary.0].set_down(true);
        assert_eq!(p.get(b"k").unwrap().as_ref(), b"survives");
        // With the follower down too, the read fails loudly.
        let follower = p.servers_for(b"k").nth(1).unwrap();
        failables[follower.0].set_down(true);
        assert!(p.get(b"k").is_err());
    }

    #[test]
    fn replication_costs_capacity_as_the_paper_predicts() {
        // "the total storage capacity of MemFS would be decreased n times"
        let total_bytes = |r: usize| -> u64 {
            let stores: Vec<Arc<Store>> = (0..4)
                .map(|_| Arc::new(Store::new(StoreConfig::default())))
                .collect();
            let clients: Vec<Arc<dyn KvClient>> = stores
                .iter()
                .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
                .collect();
            let p = ServerPool::with_replication(clients, DistributorKind::default(), r);
            for i in 0..32 {
                p.set(format!("k{i}").as_bytes(), Bytes::from(vec![0u8; 1000]))
                    .unwrap();
            }
            stores.iter().map(|s| s.bytes_used()).sum()
        };
        let single = total_bytes(1);
        let double = total_bytes(2);
        assert!(
            (double as f64 / single as f64 - 2.0).abs() < 0.05,
            "2x replication should store ~2x: {single} -> {double}"
        );
    }

    /// What every [`SubmitProbe`] sharing the log saw, in order: each
    /// batch (a single-key call is a batch of one) when it is submitted
    /// (`true`) and when it settles or is dropped unsettled (`false`),
    /// with its requests named as on the wire (`add f:/a`,
    /// `getrange d:/ 0 0`).
    #[derive(Default)]
    pub(crate) struct ProbeLog(Mutex<Vec<(bool, Vec<String>)>>);

    impl ProbeLog {
        fn push(&self, submitted: bool, requests: &[String]) {
            let mut log = self.0.lock();
            log.push((submitted, requests.to_vec()));
        }

        /// Batches `(in flight at the end of the log, at its high-water
        /// mark)`.
        fn in_flight(&self) -> (usize, usize) {
            let log = self.0.lock();
            log.iter().fold((0, 0), |(now, max), (submitted, _)| {
                let now = if *submitted { now + 1 } else { now - 1 };
                (now, max.max(now))
            })
        }

        /// Drain the log into *steps* of requests: batches submitted
        /// while another was still in flight share a step (sorted by
        /// name), a batch submitted with nothing in flight opens the next
        /// — `[[a, b], [c]]` reads "a and b on the wire together, c only
        /// after both settled".
        pub(crate) fn take_steps(&self) -> Vec<Vec<String>> {
            let mut steps: Vec<Vec<String>> = Vec::new();
            let mut in_flight = 0usize;
            for (submitted, requests) in self.0.lock().drain(..) {
                if !submitted {
                    in_flight -= 1;
                    continue;
                }
                if in_flight == 0 {
                    steps.push(Vec::new());
                }
                in_flight += 1;
                steps.last_mut().unwrap().extend(requests);
            }
            assert_eq!(in_flight, 0, "a batch never settled");
            steps.iter_mut().for_each(|step| step.sort());
            steps
        }
    }

    /// Wrapper around a [`LocalClient`] that records every request in a
    /// [`ProbeLog`]: a batch is logged when it is started and stays in
    /// flight until the pool waits on it (or drops it unsettled) — so the
    /// log shows the windows the pool actually keeps open.
    struct SubmitProbe {
        inner: LocalClient,
        log: Arc<ProbeLog>,
    }

    /// Logs its batch as settled when it goes, waited on or not.
    struct Settles(Arc<ProbeLog>, Vec<String>);

    impl Drop for Settles {
        fn drop(&mut self) {
            self.0.push(false, &self.1);
        }
    }

    fn named(verb: &str, key: &[u8]) -> String {
        format!("{verb} {}", String::from_utf8_lossy(key))
    }

    impl KvClient for SubmitProbe {
        fn start(&self, batch: Batch<'_>) -> Deferred<Bytes> {
            let requests: Vec<String> = match batch {
                Batch::Get(keys) => keys.iter().map(|k| named("get", k)).collect(),
                Batch::GetRange(ranges) => ranges
                    .iter()
                    .map(|(k, off, len)| named("getrange", k) + &format!(" {off} {len}"))
                    .collect(),
                Batch::Store(verb, items) => {
                    let verb = format!("{verb:?}").to_lowercase();
                    items.iter().map(|(k, _)| named(&verb, k)).collect()
                }
                Batch::Delete(keys) => keys.iter().map(|k| named("delete", k)).collect(),
            };
            let result = self.inner.start(batch).wait();
            self.log.push(true, &requests);
            let settles = Settles(Arc::clone(&self.log), requests);
            Deferred::Polled {
                ready: Box::new(|| false),
                finish: Box::new(move || {
                    drop(settles);
                    result
                }),
                answered: None,
            }
        }
    }

    /// One recording client per store, all writing one log.
    pub(crate) fn probe_clients(stores: &[Arc<Store>]) -> (Vec<Arc<dyn KvClient>>, Arc<ProbeLog>) {
        let log = Arc::new(ProbeLog::default());
        let probe = |store: &Arc<Store>| {
            Arc::new(SubmitProbe {
                inner: LocalClient::new(Arc::clone(store)),
                log: Arc::clone(&log),
            }) as Arc<dyn KvClient>
        };
        (stores.iter().map(probe).collect(), log)
    }

    fn probe_pool(n: usize) -> (ServerPool, Arc<ProbeLog>) {
        let stores: Vec<Arc<Store>> = (0..n)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let (clients, log) = probe_clients(&stores);
        (ServerPool::new(clients, DistributorKind::default()), log)
    }

    #[test]
    fn every_batch_of_a_call_is_on_the_wire_at_once() {
        // Enough keys that all 6 servers get a batch.
        let keys: Vec<Bytes> = (0..96).map(|i| Bytes::from(format!("s:/f{i}#0"))).collect();
        let items: Vec<(Bytes, Bytes)> = keys
            .iter()
            .map(|k| (k.clone(), Bytes::from_static(b"v")))
            .collect();
        let (p, log) = probe_pool(6);
        p.set_many(&items).unwrap();
        assert_eq!(log.in_flight(), (0, 6));
        for r in p.get_many(&keys) {
            r.unwrap();
        }
        for r in p.delete_many(&keys) {
            assert!(r.unwrap());
        }
        let steps = log.take_steps();
        assert_eq!(steps.len(), 3, "one step per call");
        assert!(steps.iter().all(|step| step.len() == 96));
    }

    #[test]
    fn an_arbitration_request_rides_beside_one_window_and_is_counted() {
        let (p, log) = probe_pool(4);
        let keys: Vec<Bytes> = (0..8).map(|i| Bytes::from(format!("k{i}"))).collect();
        let (added, got) =
            p.store_beside(StoreVerb::Add, b"gate", Bytes::new(), || p.get_many(&keys));
        added.unwrap();
        assert_eq!(got.len(), 8);
        let steps = log.take_steps();
        assert_eq!(steps.len(), 1, "{steps:?}");
        assert_eq!(steps[0].len(), 9);
        assert!(steps[0].contains(&"add gate".to_string()));
        // Counted like a one-key batch, and the gauge settles.
        let snap = p.stats().snapshot();
        assert_eq!(snap.iter().map(|s| s.keys).sum::<u64>(), 9);
        assert_eq!(snap.iter().map(|s| s.batches).sum::<u64>(), 5);
        assert_eq!(snap[p.server_for(b"gate").0].max_in_flight, 2);
        assert!(snap.iter().all(|s| s.in_flight == 0));
        // The refusal is the verb's own: `Exists` for `add`, `NotFound`
        // for an `append` to a key that is not there.
        let (again, ()) = p.store_beside(StoreVerb::Add, b"gate", Bytes::new(), || ());
        assert!(matches!(again, Err(MemFsError::Storage(KvError::Exists))));
        assert!(matches!(
            p.append(b"nowhere", b"x"),
            Err(MemFsError::Storage(KvError::NotFound))
        ));
        p.append(b"gate", b"x").unwrap();
        assert_eq!(p.get(b"gate").unwrap().as_ref(), b"x");
        log.take_steps();
    }

    pub(crate) fn failable_pool(n: usize, replication: usize) -> (ServerPool, Vec<Arc<SimClient>>) {
        let failables: Vec<Arc<SimClient>> = (0..n)
            .map(|_| Arc::new(SimClient::new(Arc::new(Store::new(StoreConfig::default())))))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = failables
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn KvClient>)
            .collect();
        (
            ServerPool::with_replication(clients, DistributorKind::default(), replication),
            failables,
        )
    }

    #[test]
    fn single_key_calls_are_their_batches_with_one_entry() {
        let stores: Vec<Arc<Store>> = (0..2)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let (clients, log) = probe_clients(&stores);
        let p = ServerPool::with_replication(clients, DistributorKind::default(), 2);
        let value = Bytes::from_static(b"v");
        // r = 2: both replicas' requests are on the wire before either
        // settles — one step, not one round trip per replica.
        p.set(b"k", value.clone()).unwrap();
        assert_eq!(log.take_steps(), [["set k", "set k"]]);
        assert_eq!(p.get(b"k").unwrap(), value);
        assert_eq!(log.take_steps(), [["get k"]]);
        p.delete_quiet(b"k").unwrap();
        assert_eq!(log.take_steps(), [["delete k", "delete k"]]);
        p.delete_quiet(b"k").unwrap(); // a miss on every replica is fine
        log.take_steps();
        // Each request went through the window as a batch of one key.
        let snap = p.stats().snapshot();
        assert_eq!(snap.iter().map(|s| s.batches).sum::<u64>(), 2 + 1 + 2 + 2);
        assert!(snap.iter().all(|s| s.keys == s.batches && s.in_flight == 0));
        assert!(snap.iter().all(|s| s.max_in_flight == 1));

        // One replica down: the write is durable and degraded, exactly as
        // its batched form reports it; the delete is quiet about it.
        let (p, failables) = failable_pool(2, 2);
        failables[0].set_down(true);
        p.set(b"k", value.clone()).unwrap();
        let hint = DegradedWrite {
            key: Bytes::from_static(b"k"),
            written: vec![ServerId(1)],
            missing: vec![ServerId(0)],
        };
        assert_eq!(p.take_degraded(), [hint]);
        assert_eq!(p.stats().snapshot()[0].degraded_writes, 1);
        assert_eq!(p.get(b"k").unwrap(), value);
        p.delete_quiet(b"k").unwrap();
        // Both down: the transport error is what each call returns.
        failables[1].set_down(true);
        let transport =
            |r: MemFsResult<()>| matches!(r, Err(MemFsError::Storage(e)) if e.is_transport());
        assert!(transport(p.set(b"k", value.clone())));
        assert!(transport(p.delete_quiet(b"k")));
        assert!(transport(p.get(b"k").map(drop)));
        assert_eq!(
            p.degraded_pending(),
            0,
            "a write that landed nowhere is not degraded"
        );
    }

    #[test]
    fn set_many_records_degraded_outcomes_and_queues_repair() {
        let (p, failables) = failable_pool(3, 2);
        failables[0].set_down(true);
        let items: Vec<(Bytes, Bytes)> = (0..24)
            .map(|i| (Bytes::from(format!("k{i}")), Bytes::from_static(b"v")))
            .collect();
        // One of two replicas is down for some keys: every write must
        // still succeed (durable on the survivor)...
        let outcomes = p.finish_writes(p.start_writes(&items));
        assert!(
            outcomes.iter().all(Result::is_ok),
            "writes must stay available"
        );
        let on_0: Vec<&Bytes> = items
            .iter()
            .map(|(key, _)| key)
            .filter(|key| p.servers_for(key).any(|s| s.0 == 0))
            .collect();
        assert!(!on_0.is_empty(), "server 0 must own some replicas");
        // ...and exactly the keys server 0 missed are recorded for the
        // repair planner, in write order.
        assert_eq!(p.degraded_pending(), on_0.len());
        let queued = p.take_degraded();
        assert_eq!(queued.iter().map(|d| &d.key).collect::<Vec<_>>(), on_0);
        assert!(queued.iter().all(|d| d.missing == [ServerId(0)]));
        assert!(queued.iter().all(|d| d.written.len() == 1));
        assert_eq!(p.degraded_pending(), 0);
        assert_eq!(p.stats().snapshot()[0].degraded_writes, on_0.len() as u64);
        // Every key reads back even while the server is still down.
        failables[0].set_down(true);
        for (key, value) in &items {
            assert_eq!(&p.get(key).unwrap(), value);
        }
    }

    #[test]
    fn writes_fail_only_when_every_replica_fails() {
        let (p, failables) = failable_pool(3, 2);
        failables[0].set_down(true);
        failables[1].set_down(true);
        let items: Vec<(Bytes, Bytes)> = (0..24)
            .map(|i| (Bytes::from(format!("k{i}")), Bytes::from_static(b"v")))
            .collect();
        let outcomes = p.finish_writes(p.start_writes(&items));
        let mut fully_failed = 0usize;
        for ((key, _), outcome) in items.iter().zip(outcomes) {
            let chain: Vec<usize> = p.servers_for(key).map(|s| s.0).collect();
            if chain.iter().all(|&s| s != 2) {
                // Both replicas down: the write must fail loudly.
                assert!(outcome.is_err(), "key {key:?} lost silently");
                fully_failed += 1;
            } else {
                assert!(outcome.is_ok(), "key {key:?} has a live replica");
            }
        }
        assert!(fully_failed > 0, "some chain must be fully down");
        // single-key set agrees with the batched contract.
        assert!(
            p.set(b"k0", Bytes::from_static(b"v")).is_err()
                == p.servers_for(b"k0").all(|s| s.0 != 2)
        );
    }

    #[test]
    fn health_reflects_injected_failures() {
        use memfs_memkv::ServerHealth;
        let (p, failables) = failable_pool(3, 2);
        assert_eq!(p.health(), vec![ServerHealth::Up; 3]);
        failables[1].set_down(true);
        assert_eq!(
            p.health(),
            vec![ServerHealth::Up, ServerHealth::Down, ServerHealth::Up]
        );
    }

    #[test]
    fn pool_stats_count_batches_and_settle_to_zero_in_flight() {
        let (p, _) = pool(4);
        let keys: Vec<Bytes> = (0..64).map(|i| Bytes::from(format!("s:/f{i}#0"))).collect();
        let items: Vec<(Bytes, Bytes)> = keys
            .iter()
            .map(|k| (k.clone(), Bytes::from_static(b"v")))
            .collect();
        p.set_many(&items).unwrap();
        for r in p.get_many(&keys) {
            r.unwrap();
        }
        let snap = p.stats().snapshot();
        let total_keys: u64 = snap.iter().map(|s| s.keys).sum();
        assert_eq!(total_keys, 128, "64 set + 64 get keys accounted");
        for s in &snap {
            assert_eq!(s.in_flight, 0, "gauge must settle after the calls");
            if s.batches > 0 {
                assert!(s.max_in_flight >= 1);
            }
            assert_eq!(s.fallbacks, 0);
        }
    }

    // ---- elastic membership ----

    fn local_client() -> Arc<dyn KvClient> {
        Arc::new(LocalClient::new(Arc::new(Store::new(
            StoreConfig::default(),
        )))) as Arc<dyn KvClient>
    }

    fn ketama_pool(n: usize, replication: usize) -> (ServerPool, Vec<Arc<Store>>) {
        let stores: Vec<Arc<Store>> = (0..n)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = stores
            .iter()
            .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
            .collect();
        let p = ServerPool::with_replication(
            clients,
            DistributorKind::Ketama {
                points_per_server: 32,
            },
            replication,
        );
        (p, stores)
    }

    #[test]
    fn begin_add_servers_installs_a_transition_and_rejects_overlap() {
        let (p, _) = ketama_pool(4, 2);
        assert_eq!(p.members().len(), 4);
        assert!(!p.transition_active());
        let ids = p
            .begin_add_servers(vec![local_client(), local_client()])
            .unwrap();
        assert_eq!(ids, vec![ServerId(4), ServerId(5)]);
        assert!(p.transition_active());
        assert_eq!(p.n_servers(), 6);
        assert_eq!(
            p.members().len(),
            4,
            "joining servers become members only when the transition completes"
        );
        assert!(matches!(
            p.begin_add_servers(vec![local_client()]),
            Err(MemFsError::MembershipBusy)
        ));
        assert!(matches!(
            p.begin_remove_server(ServerId(0)),
            Err(MemFsError::MembershipBusy)
        ));
    }

    #[test]
    fn remove_below_replication_is_rejected() {
        let (p, _) = ketama_pool(2, 2);
        assert!(matches!(
            p.begin_remove_server(ServerId(1)),
            Err(MemFsError::UnsupportedTopology { .. })
        ));
        assert!(!p.transition_active());
    }

    #[test]
    fn remove_of_a_non_member_is_rejected() {
        let (p, _) = ketama_pool(3, 1);
        assert!(matches!(
            p.begin_remove_server(ServerId(7)),
            Err(MemFsError::UnknownServer { server: 7 })
        ));
    }

    #[test]
    fn modulo_only_supports_contiguous_membership() {
        let (p, _) = pool(3);
        // Removing a non-tail slot would leave a hole modulo placement
        // cannot express.
        assert!(matches!(
            p.begin_remove_server(ServerId(0)),
            Err(MemFsError::UnsupportedTopology { .. })
        ));
        // The tail slot keeps 0..n contiguous: allowed.
        p.begin_remove_server(ServerId(2)).unwrap();
        assert!(p.transition_active());
    }

    #[test]
    fn a_transition_dual_routes_writes_and_reads_current_copies() {
        let (p, stores) = ketama_pool(2, 1);
        // Keys written before the grow live only on their old homes.
        let pre: Vec<Bytes> = (0..24).map(|i| Bytes::from(format!("pre{i}"))).collect();
        for k in &pre {
            p.set(k, Bytes::from_static(b"old")).unwrap();
        }
        let new_store = Arc::new(Store::new(StoreConfig::default()));
        p.begin_add_servers(vec![
            Arc::new(LocalClient::new(Arc::clone(&new_store))) as Arc<dyn KvClient>
        ])
        .unwrap();
        let state = p.ring_state();
        let t = state.transition.as_ref().unwrap();
        // Reads during migration serve the old copy even though the new
        // home has nothing yet (NotFound from a target-only home is not
        // authoritative).
        for k in &pre {
            assert_eq!(p.get(k).unwrap().as_ref(), b"old");
        }
        // Writes dual-route: both the old home and the target home hold
        // the new value.
        let mut moved = 0usize;
        for i in 0..48 {
            let key = Bytes::from(format!("mid{i}"));
            p.set(&key, Bytes::from_static(b"dual")).unwrap();
            let old = state.current.replicas_for(&key, 1)[0];
            let new = t.target.replicas_for(&key, 1)[0];
            assert!(stores.get(old.0).is_none_or(|s| s.contains(&key)));
            if new.0 == 2 {
                assert!(new_store.contains(&key), "dual write missed the target");
                moved += 1;
            }
            assert_eq!(p.get(&key).unwrap().as_ref(), b"dual");
        }
        assert!(moved > 0, "some key must move to the new server");
    }

    #[test]
    fn ranged_reads_during_a_transition_do_not_trust_a_target_only_miss() {
        let (p, failables) = failable_pool(2, 1);
        let pre: Vec<(Bytes, u64, usize)> = (0..24)
            .map(|i| (Bytes::from(format!("pre{i}")), 4, 5))
            .collect();
        for (k, ..) in &pre {
            p.set(k, Bytes::from_static(b"old-value")).unwrap();
        }
        p.begin_add_servers(vec![local_client()]).unwrap();
        let state = p.ring_state();
        let t = state.transition.as_ref().unwrap();
        let moving = pre
            .iter()
            .filter(|(k, ..)| t.target.replicas_for(k, 1)[0].0 == 2)
            .count();
        assert!(moving > 0, "some key must gain a target-only home");
        // The old homes answer, whatever the empty target home would say.
        for r in p.get_range_many(&pre) {
            assert_eq!(r.unwrap().as_ref(), b"value");
        }
        // Old homes down: the target-only home's `NotFound` only means
        // the copy has not landed, so the transport error surfaces.
        failables.iter().for_each(|f| f.set_down(true));
        for r in p.get_range_many(&pre) {
            assert!(
                matches!(&r, Err(MemFsError::Storage(e)) if e.is_transport()),
                "got {r:?}"
            );
        }
    }

    #[test]
    fn completing_a_transition_retires_leaving_slots() {
        let (p, _) = ketama_pool(3, 1);
        p.begin_remove_server(ServerId(2)).unwrap();
        p.complete_transition();
        assert!(!p.transition_active());
        assert_eq!(p.members(), vec![ServerId(0), ServerId(1)]);
        assert_eq!(p.n_servers(), 3, "slot ids never renumber");
        assert_eq!(p.health()[2], ServerHealth::Down, "retired slot is down");
        for i in 0..50 {
            let key = format!("k{i}");
            assert_ne!(p.server_for(key.as_bytes()), ServerId(2));
            p.set(key.as_bytes(), Bytes::from_static(b"v")).unwrap();
        }
        // A straggler handle to the retired slot fails cleanly.
        assert!(p.client(ServerId(2)).get(b"k0").is_err());
    }

    #[test]
    fn quiesce_waits_for_in_flight_operations() {
        use std::sync::atomic::AtomicBool;
        let (p, _) = ketama_pool(2, 1);
        let p = Arc::new(p);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let p = Arc::clone(&p);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let key = format!("spin{}", i % 64);
                    p.set(key.as_bytes(), Bytes::from_static(b"v")).unwrap();
                    i += 1;
                }
            })
        };
        // Quiescing under live traffic must not deadlock or starve.
        for _ in 0..50 {
            p.quiesce();
        }
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
    }

    // ---- the gate rule: a window holds the gate until it is answered ----

    /// Answers held back: every batch of every [`LatchClient`] sharing it
    /// is applied at once but answered only when the latch opens.
    #[derive(Default)]
    struct Latch {
        state: Mutex<(bool, Vec<memfs_memkv::AnswerHook>)>,
        opened: parking_lot::Condvar,
    }

    impl Latch {
        fn open(&self) {
            let hooks = {
                let mut state = self.state.lock();
                state.0 = true;
                std::mem::take(&mut state.1)
            };
            self.opened.notify_all();
            hooks.into_iter().for_each(|hook| hook());
        }
    }

    struct LatchClient {
        inner: LocalClient,
        latch: Arc<Latch>,
    }

    impl KvClient for LatchClient {
        fn start(&self, batch: Batch<'_>) -> Deferred<Bytes> {
            let result = self.inner.start(batch).wait();
            let (ready, finish, answered) = (
                Arc::clone(&self.latch),
                Arc::clone(&self.latch),
                Arc::clone(&self.latch),
            );
            Deferred::Polled {
                ready: Box::new(move || ready.state.lock().0),
                finish: Box::new(move || {
                    let mut state = finish.state.lock();
                    while !state.0 {
                        finish.opened.wait(&mut state);
                    }
                    result
                }),
                answered: Some(Box::new(move |hook| {
                    let mut state = answered.state.lock();
                    if state.0 {
                        drop(state);
                        hook();
                    } else {
                        state.1.push(hook);
                    }
                })),
            }
        }
    }

    /// `pool.quiesce()` on a thread of its own; the receiver hears when it
    /// returns.
    fn quiesce_in_background(pool: &Arc<ServerPool>) -> std::sync::mpsc::Receiver<()> {
        let (done, returned) = std::sync::mpsc::channel();
        let pool = Arc::clone(pool);
        std::thread::spawn(move || {
            pool.quiesce();
            let _ = done.send(());
        });
        returned
    }

    #[test]
    fn quiesce_waits_for_a_window_until_it_is_answered_not_settled() {
        let latch = Arc::new(Latch::default());
        let clients = (0..3)
            .map(|_| {
                let store = Arc::new(Store::new(StoreConfig::default()));
                Arc::new(LatchClient {
                    inner: LocalClient::new(store),
                    latch: Arc::clone(&latch),
                }) as Arc<dyn KvClient>
            })
            .collect();
        let p = Arc::new(ServerPool::new(clients, DistributorKind::default()));
        let keys: Vec<Bytes> = (0..12).map(|i| Bytes::from(format!("k{i}"))).collect();
        let items: Vec<(Bytes, Bytes)> = keys.iter().map(|k| (k.clone(), k.clone())).collect();
        let writes = p.start_writes(&items);
        // No server has answered: a membership change must wait.
        let quiesced = quiesce_in_background(&p);
        let short = Duration::from_millis(100);
        assert!(
            quiesced.recv_timeout(short).is_err(),
            "quiesce passed a window on the wire"
        );
        assert!(p.stats().snapshot().iter().any(|s| s.in_flight > 0));
        // Answered and still unsettled: nothing is left to wait for.
        latch.open();
        quiesced.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(p.stats().snapshot().iter().all(|s| s.in_flight == 0));
        let reads = p.start_reads(keys.iter().map(|k| (k.clone(), None)).collect());
        quiesce_in_background(&p)
            .recv_timeout(Duration::from_secs(10))
            .unwrap();
        // Settling afterwards still delivers every result.
        assert!(p.finish_writes(writes).iter().all(|o| o.is_ok()));
        for (key, value) in keys.iter().zip(p.finish_reads(reads)) {
            assert_eq!(&value.unwrap(), key);
        }
    }

    #[test]
    fn a_timed_out_or_severed_exchange_releases_the_gate() {
        use memfs_memkv::{PoolConfig, TcpClient};
        use std::net::TcpListener;
        let config = PoolConfig {
            timeout: Duration::from_millis(200),
            ..PoolConfig::default()
        };
        let one_client_pool = |listener: &TcpListener| {
            let addr = listener.local_addr().unwrap();
            let client = TcpClient::connect_with(addr, config.clone()).unwrap();
            let pool = ServerPool::new(vec![Arc::new(client)], DistributorKind::default());
            let accepted = listener.accept().unwrap().0;
            (Arc::new(pool), accepted)
        };
        let transport =
            |r: &MemFsResult<Bytes>| matches!(r, Err(MemFsError::Storage(e)) if e.is_transport());
        let get_k = || vec![(Bytes::from_static(b"k"), None)];

        // A server that accepts and never answers: the deadline answers.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let (p, _held_open) = one_client_pool(&silent);
        let window = p.start_reads(get_k());
        quiesce_in_background(&p)
            .recv_timeout(Duration::from_secs(10))
            .expect("a timed-out exchange kept the gate");
        let results = p.finish_reads(window);
        assert!(transport(&results[0]), "{:?}", results[0]);

        // A server that goes away mid-request: the severed connection
        // answers (after one refused replay).
        let doomed = TcpListener::bind("127.0.0.1:0").unwrap();
        let (p, accepted) = one_client_pool(&doomed);
        let window = p.start_reads(get_k());
        drop((accepted, doomed));
        quiesce_in_background(&p)
            .recv_timeout(Duration::from_secs(10))
            .expect("a severed exchange kept the gate");
        let results = p.finish_reads(window);
        assert!(transport(&results[0]), "{:?}", results[0]);
    }
}
