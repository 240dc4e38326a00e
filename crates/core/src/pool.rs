//! The server pool: the Libmemcached role (paper §3.1.2).
//!
//! Holds one [`KvClient`] per storage server plus a [`Distributor`]; every
//! operation hashes its key to pick the server. All MemFS mounts with the
//! same server list and distributor agree on placement — that is what lets
//! any compute node read any file without coordination.
//!
//! Batched operations have one dispatch path, in two halves (DESIGN.md
//! §4c). `start` routes a call, enters the quiescence gate and puts every
//! server's batch on the wire at once through [`KvClient::start`] (paper
//! §3.2.2: symmetrical striping drives all N servers at once); it returns
//! a [`Window`] of per-server [`Share`]s, and settling a share turns its
//! replies into results on whichever thread needs them. The blocking calls
//! — the single-key calls are those with one entry — start a window and
//! settle its shares in arrival order, so a call costs `max(server RTT)`
//! and occupies no thread but the caller's; a prefetch window or a write
//! drain keeps its shares pending in its file handle instead. The window's
//! gate entry is released by the transport as its last share is
//! *answered* ([`Deferred::when_answered`]), never by the settler.
//!
//! ## Elastic membership
//!
//! The server set is dynamic. Routing state lives in an immutable
//! [`RingState`] snapshot behind an `RwLock<Arc<_>>`; every operation
//! clones the `Arc` once and routes by that snapshot for its whole
//! lifetime. [`ServerPool::begin_add_servers`] /
//! [`ServerPool::begin_remove_server`] install a *transition*: a target
//! ring. While it is installed, writers dual-route every key to the union
//! of its current and target homes and readers consult the current homes
//! first (authoritative) and the target-only homes second. The repair
//! pass (`repair.rs`) commits the transition once every key reached its
//! target homes, and separates the snapshots with a quiescence barrier
//! ([`GenGate`]) so no in-flight operation still routes by the previous
//! one when the pass acts on the change. Server slots are never
//! renumbered: a drained server's slot is replaced by a [`RetiredClient`]
//! tombstone so `ServerId`s stay stable forever.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use memfs_hashring::{Distributor, KetamaRing, ModuloRing, ServerId};
use memfs_memkv::error::KvResult;
use memfs_memkv::{
    Batch, Deferred, KvClient, KvError, ReactorStatsSnapshot, Replies, ServerHealth, StoreVerb,
};
use parking_lot::{Mutex, RwLock};

use crate::config::DistributorKind;
use crate::error::{MemFsError, MemFsResult};

/// One server's part of a batched call before it is started: the original
/// input indices paired with the entries themselves (keys, or key/value
/// items), kept together so settling can write results back in input
/// order.
type ServerBatch<K> = (Vec<usize>, Vec<K>);

/// What a routed read wants of a value: `None` for all of it, or
/// `(offset, len)` — the `getrange` clamping rules, see
/// [`Batch::GetRange`]. The replica walk is the same either way; only the
/// fetch at each home differs.
pub(crate) type ByteRange = Option<(u64, usize)>;

/// One request of a started read: a key and what of its value to read.
pub(crate) type ReadReq = (Bytes, ByteRange);

/// One server's part of a started [`Window`]: the input positions it
/// resolves, its entries, and the reply on its way. Its gate token and
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
}

/// A batched call on the wire: one [`Share`] per server it reached.
pub(crate) struct Window<K> {
    /// Input entries of the call.
    len: usize,
    shares: Vec<Share<K>>,
    /// The snapshot the call was routed by: a degraded write's hint names
    /// the homes that took it under exactly this routing.
    state: Arc<RingState>,
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
}

/// One `get` of `key` — whole, or just `range` of it — from one server.
fn fetch_from(client: &dyn KvClient, key: &[u8], range: ByteRange) -> KvResult<Bytes> {
    match range {
        None => client.get(key),
        Some((offset, len)) => client.get_range(key, offset, len),
    }
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

    fn bump_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::SeqCst);
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
    fn new(n: usize) -> Self {
        PoolStats {
            servers: RwLock::new((0..n).map(|_| Arc::new(ServerIo::default())).collect()),
        }
    }

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

    fn bump_degraded(&self, server: usize) {
        self.servers.read()[server]
            .degraded
            .fetch_add(1, Ordering::SeqCst);
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

/// A generation-counted quiescence gate: operations `enter()` cheaply
/// (two atomic RMWs), and the repair pass's `advance_and_wait()` bumps the
/// generation then waits until every operation that entered under the old
/// generation has finished. Two slot counters alternate by generation
/// parity; `enter` re-checks the generation after incrementing so it
/// never settles into a slot being drained. Advances are serialized by
/// the pool's migration mutex, so parity reuse (gen and gen+2) cannot
/// race: a stale increment is always undone before its slot is waited on
/// again.
#[derive(Debug, Default)]
struct GenGate {
    gen: AtomicU64,
    counts: [AtomicUsize; 2],
}

/// An owned gate entry: a started window hands it to the transport, which
/// drops it once the window's last share is answered.
struct GateGuard {
    gate: Arc<GenGate>,
    slot: usize,
}

impl GenGate {
    fn enter(self: &Arc<Self>) -> GateGuard {
        loop {
            let g = self.gen.load(Ordering::Acquire);
            let slot = (g & 1) as usize;
            self.counts[slot].fetch_add(1, Ordering::AcqRel);
            if self.gen.load(Ordering::Acquire) == g {
                return GateGuard {
                    gate: Arc::clone(self),
                    slot,
                };
            }
            // The generation advanced between the load and the increment:
            // undo and re-enter under the new generation.
            self.counts[slot].fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Bump the generation and wait for every operation that entered
    /// under the previous one to drain. On return, every in-flight
    /// operation observes state published before this call.
    fn advance_and_wait(&self) {
        let old = self.gen.fetch_add(1, Ordering::AcqRel);
        let slot = (old & 1) as usize;
        while self.counts[slot].load(Ordering::Acquire) != 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

impl GateGuard {
    /// Another hold on this same entry (its slot is held, so no advance
    /// can drain it meanwhile): one per share of a window.
    fn share(&self) -> GateGuard {
        self.gate.counts[self.slot].fetch_add(1, Ordering::AcqRel);
        GateGuard {
            gate: Arc::clone(&self.gate),
            slot: self.slot,
        }
    }
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        self.gate.counts[self.slot].fetch_sub(1, Ordering::AcqRel);
    }
}

/// The in-progress half of a membership change: where the ring is going.
pub(crate) struct TransitionState {
    /// Member slot ids once the transition completes (sorted).
    pub(crate) target_members: Vec<usize>,
    /// The ring the target membership routes by.
    pub(crate) target: Arc<dyn Distributor>,
    /// Member slots this transition drains.
    pub(crate) leaving: Vec<usize>,
}

/// One immutable routing snapshot: the client table, the current member
/// set and ring, and the optional in-progress transition. Operations
/// clone the `Arc` once and route by it unchanged for their lifetime;
/// membership calls swap in a new snapshot.
pub(crate) struct RingState {
    pub(crate) clients: Vec<Arc<dyn KvClient>>,
    /// Member slot ids (sorted). Slots outside this list are either
    /// joining (during a grow transition) or retired tombstones.
    pub(crate) members: Vec<usize>,
    /// The ring the current membership routes by.
    pub(crate) current: Arc<dyn Distributor>,
    pub(crate) transition: Option<TransitionState>,
    /// Bumped on every membership snapshot swap.
    pub(crate) version: u64,
}

impl RingState {
    pub(crate) fn client(&self, id: ServerId) -> &Arc<dyn KvClient> {
        &self.clients[id.0]
    }

    /// The homes of `key` under `r`-way replication, primary first,
    /// plus how many of them are *authoritative* for `NotFound`: during
    /// a transition the current homes (which every dual-routed write
    /// reached) come first and are authoritative, and the target ring's
    /// extra homes follow as read fallbacks whose misses only mean the
    /// background copy has not landed yet.
    pub(crate) fn route_with_auth(&self, key: &[u8], r: usize) -> (Vec<ServerId>, usize) {
        let mut homes = self.current.replicas_for(key, r);
        let auth = homes.len();
        if let Some(t) = &self.transition {
            for id in t.target.replicas_for(key, r) {
                if !homes.contains(&id) {
                    homes.push(id);
                }
            }
        }
        (homes, auth)
    }

    /// The homes of `key` (write set = read set), primary first.
    pub(crate) fn route(&self, key: &[u8], r: usize) -> Vec<ServerId> {
        self.route_with_auth(key, r).0
    }

    /// The primary home of `key` — cheap (no allocation): the current
    /// ring's pick, transition or not. Always equals `route(key, r)[0]`.
    pub(crate) fn primary(&self, key: &[u8]) -> ServerId {
        self.current.server_for(key)
    }

    /// The ring keys are homed by — where the repair pass puts its
    /// copies: the target ring during a transition, the current ring
    /// otherwise.
    pub(crate) fn home_ring(&self) -> &Arc<dyn Distributor> {
        match &self.transition {
            Some(t) => &t.target,
            None => &self.current,
        }
    }

    /// The key's full failover candidate chain: every distinct successor
    /// of the [`RingState::home_ring`] in walk order — where the repair
    /// pass parks its copies — then any extra successors the current ring
    /// adds during a transition.
    pub(crate) fn candidates(&self, key: &[u8]) -> Vec<ServerId> {
        let n = self.clients.len();
        let mut chain = self.home_ring().replicas_for(key, n);
        if self.transition.is_some() {
            for id in self.current.replicas_for(key, n) {
                if !chain.contains(&id) {
                    chain.push(id);
                }
            }
        }
        chain
    }
}

/// Build the ring for a member set. Ketama handles arbitrary (sparse)
/// membership; modulo placement is only defined for a contiguous
/// `0..n` slot table, so any membership change that would leave a hole
/// is rejected — the caller keeps its current topology.
fn ring_for(
    kind: &DistributorKind,
    members: &[usize],
    from: usize,
) -> MemFsResult<Arc<dyn Distributor>> {
    match kind {
        DistributorKind::Ketama { points_per_server } => Ok(Arc::new(KetamaRing::with_members(
            members,
            *points_per_server,
        ))),
        DistributorKind::Modulo => {
            if members.iter().enumerate().all(|(i, &m)| i == m) {
                Ok(Arc::new(ModuloRing::new(members.len())))
            } else {
                Err(MemFsError::UnsupportedTopology {
                    from,
                    to: members.len(),
                })
            }
        }
    }
}

/// Tombstone client occupying a drained server's slot so `ServerId`s
/// never renumber. Nothing routes here once the transition that retired
/// the slot completed; a straggler (stale failover walk) gets a clean
/// transport error, and the health census reports the slot `Down`.
struct RetiredClient;

impl KvClient for RetiredClient {
    fn start(&self, _batch: Batch<'_>) -> Deferred<Bytes> {
        Deferred::Ready(Err(KvError::Io(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "server slot retired from the pool",
        ))))
    }
    fn health(&self) -> ServerHealth {
        ServerHealth::Down
    }
}

/// Map one server's `set_many` replies to per-key outcomes: `None` for a
/// stored key, `Some(err)` for a failed one. A whole-batch transport
/// failure maps its error onto every key, exactly like [`finish_erase`].
fn finish_store(batch_len: usize, result: Replies) -> Vec<Option<MemFsError>> {
    match result {
        Ok(results) => results
            .into_iter()
            .map(|r| r.err().map(Into::into))
            .collect(),
        Err(e) => (0..batch_len).map(|_| Some(e.duplicate().into())).collect(),
    }
}

/// Map one server's `delete_many` replies to per-key [`Erase`] outcomes.
fn finish_erase(batch_len: usize, result: Replies) -> Vec<Erase> {
    let map = |r: KvResult<Bytes>| match r {
        Ok(_) => Erase::Deleted,
        Err(KvError::NotFound) => Erase::Missing,
        Err(e) => Erase::Failed(e.into()),
    };
    match result {
        Ok(results) => results.into_iter().map(map).collect(),
        Err(e) => (0..batch_len)
            .map(|_| Erase::Failed(e.duplicate().into()))
            .collect(),
    }
}

/// Per-replica outcome of deleting one key on one server.
enum Erase {
    Deleted,
    Missing,
    Failed(MemFsError),
}

/// Cross-replica aggregate for one `delete_many` input key.
#[derive(Default)]
struct EraseAgg {
    deleted: bool,
    missing: bool,
    err: Option<MemFsError>,
}

impl EraseAgg {
    fn merge(&mut self, outcome: Erase) {
        match outcome {
            Erase::Deleted => self.deleted = true,
            Erase::Missing => self.missing = true,
            Erase::Failed(e) => self.err = Some(e),
        }
    }

    /// Any replica deleting wins, a clean miss on a live replica is
    /// `Ok(false)`, and only a key whose every replica erred is an error.
    fn resolve(self) -> MemFsResult<bool> {
        if self.deleted {
            Ok(true)
        } else if self.missing {
            Ok(false)
        } else {
            Err(self.err.expect("replication >= 1"))
        }
    }
}

/// A key the last write left under-replicated: the repair pass's work
/// unit (drained via [`ServerPool::take_degraded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedWrite {
    /// The short-written key.
    pub key: Bytes,
    /// The replicas that took the write: the only copies known to hold
    /// the acked value. Every other copy of the key is suspect.
    pub written: Vec<ServerId>,
    /// The replicas that missed the write.
    pub missing: Vec<ServerId>,
}

/// Cross-replica aggregate for one `set_many` input key (the write-side
/// sibling of [`EraseAgg`]).
#[derive(Default)]
struct StoreAgg {
    key: Bytes,
    written: usize,
    missing: Vec<ServerId>,
    err: Option<MemFsError>,
}

impl StoreAgg {
    fn merge(&mut self, server: usize, key: &Bytes, outcome: Option<MemFsError>) {
        self.key = key.clone();
        match outcome {
            None => self.written += 1,
            Some(e) => {
                self.missing.push(ServerId(server));
                self.err = Some(e);
            }
        }
    }
}

/// A hash-routed pool of storage servers with optional n-way replication,
/// whose batched calls keep every server's batch in flight at once.
///
/// Replication is the fault-tolerance mechanism the paper sketches but
/// defers ("assuming the replication factor is n, then the total storage
/// capacity of MemFS would be decreased n times and n times more data will
/// flow through the network", §3.2.5). With `replication = r`, each key is
/// written to `r` consecutive servers on the ring (primary + followers);
/// reads try the primary first and fall back to the followers, so the
/// system tolerates `r - 1` server failures. The capacity/traffic cost the
/// paper predicts is measured by the `replication` bench. With `replication
/// = r`, each key lands on the `r` **distinct successors** the distributor
/// reports ([`Distributor::replicas_for`]): ring successors under ketama
/// (stable under membership change, failover load spread over many
/// servers), index successors under modulo.
///
/// Caveat (documented, matching the paper's decision not to productize
/// this): replicated `append` applies to each copy in turn, so two
/// *concurrent* appends to one key may order differently across replicas.
/// MemFS' directory logs are order-insensitive sets, so folding still
/// converges; applications needing ordered replicated appends should keep
/// `replication = 1`.
pub struct ServerPool {
    /// The live routing snapshot; swapped whole on membership changes.
    ring: RwLock<Arc<RingState>>,
    /// How to rebuild rings on membership changes.
    kind: DistributorKind,
    replication: usize,
    stats: PoolStats,
    /// Keys whose last write landed on some replicas but not all — the
    /// hand-off point between the degraded write path and the repair
    /// planner ([`ServerPool::take_degraded`]). May contain duplicates
    /// when a key is written degraded repeatedly; repair dedups on drain.
    degraded: Mutex<VecDeque<DegradedWrite>>,
    /// Quiescence gate separating membership snapshot swaps from
    /// in-flight operations routed by the previous snapshot.
    gate: Arc<GenGate>,
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
        let members: Vec<usize> = (0..clients.len()).collect();
        let current = ring_for(&kind, &members, clients.len())
            .expect("contiguous initial membership is always supported");
        let stats = PoolStats::new(clients.len());
        let state = Arc::new(RingState {
            clients,
            members,
            current,
            transition: None,
            version: 0,
        });
        ServerPool {
            ring: RwLock::new(state),
            kind,
            replication,
            stats,
            degraded: Mutex::new(VecDeque::new()),
            gate: Arc::default(),
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
        self.ring_state().route(key, self.replication).into_iter()
    }

    /// The key's full failover candidate chain: its `replication()`
    /// owners first, then every further distinct successor in walk
    /// order. The repair pass takes the first `r` *alive* entries as the
    /// key's home set, so copies migrate to surviving successors while
    /// owners are down and converge back when they return.
    pub fn replica_candidates(&self, key: &[u8]) -> Vec<ServerId> {
        self.ring_state().candidates(key)
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
        let mut ring = self.ring.write();
        let state = &**ring;
        if state.transition.is_some() {
            return Err(MemFsError::MembershipBusy);
        }
        let base = state.clients.len();
        let joining: Vec<usize> = (base..base + new_clients.len()).collect();
        let mut target_members = state.members.clone();
        target_members.extend(joining.iter().copied());
        target_members.sort_unstable();
        let target = ring_for(&self.kind, &target_members, state.members.len())?;
        let mut clients = state.clients.clone();
        clients.extend(new_clients);
        self.stats.grow_to(clients.len());
        *ring = Arc::new(RingState {
            clients,
            members: state.members.clone(),
            current: Arc::clone(&state.current),
            transition: Some(TransitionState {
                target_members,
                target,
                leaving: Vec::new(),
            }),
            version: state.version + 1,
        });
        Ok(joining.into_iter().map(ServerId).collect())
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
        let mut ring = self.ring.write();
        let state = &**ring;
        if state.transition.is_some() {
            return Err(MemFsError::MembershipBusy);
        }
        if !state.members.contains(&id.0) {
            return Err(MemFsError::UnknownServer { server: id.0 });
        }
        let target_members: Vec<usize> = state
            .members
            .iter()
            .copied()
            .filter(|&m| m != id.0)
            .collect();
        if target_members.len() < self.replication {
            return Err(MemFsError::UnsupportedTopology {
                from: state.members.len(),
                to: target_members.len(),
            });
        }
        let target = ring_for(&self.kind, &target_members, state.members.len())?;
        *ring = Arc::new(RingState {
            clients: state.clients.clone(),
            members: state.members.clone(),
            current: Arc::clone(&state.current),
            transition: Some(TransitionState {
                target_members,
                target,
                leaving: vec![id.0],
            }),
            version: state.version + 1,
        });
        Ok(())
    }

    /// The live routing snapshot (for the repair pass and in-crate tests).
    pub(crate) fn ring_state(&self) -> Arc<RingState> {
        Arc::clone(&self.ring.read())
    }

    /// Wait until every operation that entered before this call has
    /// been answered, so a snapshot published before the call is the one
    /// all in-flight routing uses. Called by the repair pass between a
    /// membership change and acting on it.
    pub(crate) fn quiesce(&self) {
        self.gate.advance_and_wait();
    }

    /// Serializes repair passes across threads (daemon vs. manual
    /// `repair_now`).
    pub(crate) fn migration_mutex(&self) -> &Mutex<()> {
        &self.migration
    }

    /// Finish the in-progress transition: the target membership becomes
    /// current and leaving slots are tombstoned. The repair pass calls
    /// this once every key reached its target homes; a no-op without an
    /// active transition.
    pub(crate) fn complete_transition(&self) {
        let mut ring = self.ring.write();
        let state = &**ring;
        let Some(t) = &state.transition else {
            return;
        };
        let mut clients = state.clients.clone();
        for &l in &t.leaving {
            clients[l] = Arc::new(RetiredClient) as Arc<dyn KvClient>;
        }
        let members = t.target_members.clone();
        *ring = Arc::new(RingState {
            clients,
            members,
            current: Arc::clone(&t.target),
            transition: None,
            version: state.version + 1,
        });
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

    /// Resolve one key's cross-replica write aggregate, routed by
    /// `state`: full, degraded (recorded + queued for repair), or failed
    /// everywhere.
    fn settle_write(&self, state: &RingState, agg: StoreAgg) -> MemFsResult<()> {
        if agg.written == 0 {
            return Err(agg.err.expect("replication >= 1"));
        }
        if agg.missing.is_empty() {
            return Ok(());
        }
        for id in &agg.missing {
            self.stats.bump_degraded(id.0);
        }
        let written = state
            .route(&agg.key, self.replication)
            .into_iter()
            .filter(|id| !agg.missing.contains(id))
            .collect();
        self.degraded.lock().push_back(DegradedWrite {
            key: agg.key,
            written,
            missing: agg.missing,
        });
        Ok(())
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
    /// counted by [`PoolStats`] like a one-key batch; `beside` — a pool
    /// call that does not depend on the outcome — runs on the caller's
    /// thread (a batched one starts its own window); then the request is
    /// settled and, if it succeeded, applied to the remaining homes in
    /// turn.
    pub fn store_beside<R>(
        &self,
        verb: StoreVerb,
        key: &[u8],
        value: Bytes,
        beside: impl FnOnce() -> R,
    ) -> (MemFsResult<()>, R) {
        let (_gate, state) = self.begin_op();
        let (homes, auth) = state.route_with_auth(key, self.replication);
        let guard = self.stats.io(homes[0].0).track(1);
        let item = [(Bytes::copy_from_slice(key), value)];
        let deferred = state.client(homes[0]).start(Batch::Store(verb, &item));
        let other = beside();
        let reply = deferred.wait();
        drop(guard);
        let first =
            reply.and_then(|mut reply| reply.pop().expect("one reply per request").map(drop));
        let [(_, value)] = item;
        let rest = |(i, id): (usize, &ServerId)| match verb {
            StoreVerb::Append => match state.client(*id).append(key, &value) {
                Err(KvError::NotFound) if i >= auth => Ok(()),
                r => r,
            },
            StoreVerb::Add | StoreVerb::Set => state.client(*id).set(key, value.clone()),
        };
        let result = first.and_then(|()| homes.iter().enumerate().skip(1).try_for_each(rest));
        (result.map_err(Into::into), other)
    }

    /// Routed `get`: [`ServerPool::get_many`] with one key — primary
    /// first, surviving replicas on failure. Only transport/server errors
    /// trigger fallback — `NotFound` is authoritative from any live
    /// replica (but *not* from a target-only home during a transition,
    /// where the key's copy may simply not have landed yet).
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
    /// Fallback mirrors [`ServerPool::get`]: a transport failure (of the
    /// whole batch or a single key) retries that key through the replica
    /// chain when that server's share settles, so a dead server degrades
    /// only its own keys while the healthy servers' batches proceed.
    pub fn get_many(&self, keys: &[Bytes]) -> Vec<MemFsResult<Bytes>> {
        let reqs = keys.iter().map(|key| (key.clone(), None)).collect();
        self.finish_reads(self.start_reads(reqs))
    }

    /// Batched routed *ranged* `get`: for each `(key, offset, len)` the
    /// bytes `[offset, offset + len)` of the key's value, clamped to it
    /// ([`Batch::GetRange`]) — a fine-grain read moves the range, not the
    /// stripe. Routing, dispatch and accounting are
    /// [`ServerPool::get_many`]'s: grouped by primary, one batch per
    /// server in one window, and the same replica walk on failure
    /// (`NotFound` final only from an authoritative home, the failed
    /// server skipped, failover copies past the owner set consulted last).
    /// Requests pair with results by position, so one key may appear with
    /// several ranges.
    pub fn get_range_many(&self, reqs: &[(Bytes, u64, usize)]) -> Vec<MemFsResult<Bytes>> {
        let reqs = reqs
            .iter()
            .map(|(key, offset, len)| (key.clone(), Some((*offset, *len))))
            .collect();
        self.finish_reads(self.start_reads(reqs))
    }

    /// Start a read of `reqs`, grouped by primary server: one `Get` batch
    /// per server when no request names a range, one `GetRange` batch
    /// otherwise.
    pub(crate) fn start_reads(&self, reqs: Vec<ReadReq>) -> Window<ReadReq> {
        let op = self.begin_op();
        let mut batches: Vec<ServerBatch<ReadReq>> =
            vec![(Vec::new(), Vec::new()); op.1.clients.len()];
        let len = reqs.len();
        for (i, req) in reqs.into_iter().enumerate() {
            let (idx, batch) = &mut batches[op.1.primary(&req.0).0];
            idx.push(i);
            batch.push(req);
        }
        self.start(op, len, batches, |client, reqs| {
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
        })
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

    /// Start a replicated `set` of `items`. With replication each item
    /// lands on `r` ring-successor servers, so this builds one batch per
    /// *target* server across all replicas.
    pub(crate) fn start_writes(&self, items: &[(Bytes, Bytes)]) -> Window<(Bytes, Bytes)> {
        let op = self.begin_op();
        let mut batches: Vec<ServerBatch<(Bytes, Bytes)>> =
            vec![(Vec::new(), Vec::new()); op.1.clients.len()];
        for (i, (key, value)) in items.iter().enumerate() {
            for id in op.1.route(key, self.replication) {
                batches[id.0].0.push(i);
                batches[id.0].1.push((key.clone(), value.clone()));
            }
        }
        self.start(op, items.len(), batches, |client, items| {
            client.start(Batch::Store(StoreVerb::Set, items))
        })
    }

    /// Settle every share of a started write, in arrival order, into one
    /// result per key, in input order: `Err` only for a key every replica
    /// failed ([`ServerPool::set_many`]). A degraded key's repair hint is
    /// queued here, on the settling thread.
    pub(crate) fn finish_writes(&self, mut window: Window<(Bytes, Bytes)>) -> Vec<MemFsResult<()>> {
        let mut agg: Vec<StoreAgg> = (0..window.len).map(|_| StoreAgg::default()).collect();
        while let Some(share) = window.next() {
            let outcomes = finish_store(share.entries.len(), share.reply.wait());
            for ((&i, (key, _)), o) in share.idx.iter().zip(&share.entries).zip(outcomes) {
                agg[i].merge(share.server, key, o);
            }
        }
        let state = window.state;
        agg.into_iter()
            .map(|a| self.settle_write(&state, a))
            .collect()
    }

    /// Routed atomic `append`, applied to every replica (see the ordering
    /// caveat in the type docs). On a transition's *target-only* homes a
    /// `NotFound` is tolerated: the suffix is durable on the current
    /// homes, and the repair pass's post-copy re-read carries it across
    /// before the transition commits.
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
        let op = self.begin_op();
        // One batch per *target* server across all replicas; each entry
        // remembers which input key it resolves.
        let mut batches: Vec<ServerBatch<Bytes>> =
            vec![(Vec::new(), Vec::new()); op.1.clients.len()];
        for (i, key) in keys.iter().enumerate() {
            for id in op.1.route(key, self.replication) {
                batches[id.0].0.push(i);
                batches[id.0].1.push(key.clone());
            }
        }
        let mut window = self.start(op, keys.len(), batches, |client, keys| {
            client.start(Batch::Delete(keys))
        });
        let mut agg: Vec<EraseAgg> = (0..keys.len()).map(|_| EraseAgg::default()).collect();
        while let Some(share) = window.next() {
            let outcomes = finish_erase(share.entries.len(), share.reply.wait());
            for (&i, o) in share.idx.iter().zip(outcomes) {
                agg[i].merge(o);
            }
        }
        agg.into_iter().map(EraseAgg::resolve).collect()
    }

    /// Enter the quiescence gate, then snapshot the ring. The gate is
    /// entered *first* so that once [`GenGate::advance_and_wait`]
    /// returns, no operation still works from a snapshot taken before
    /// the membership the repair pass just published.
    fn begin_op(&self) -> (GateGuard, Arc<RingState>) {
        let gate = self.gate.enter();
        let state = self.ring_state();
        (gate, state)
    }

    /// Put one batch per non-empty slot of `batches` (`len` input entries
    /// routed by `op`'s snapshot) on the wire at once, through `submit`:
    /// the dispatch half of every batched call, on the caller's thread.
    /// The window holds `op`'s gate entry until its last share is
    /// answered, and each share its server's in-flight gauge until its own
    /// answer — the transport drops both ([`Deferred::when_answered`]), so
    /// a window left unsettled in an idle handle stalls neither
    /// [`ServerPool::quiesce`] nor the gauge.
    fn start<K>(
        &self,
        (gate, state): (GateGuard, Arc<RingState>),
        len: usize,
        batches: Vec<ServerBatch<K>>,
        submit: impl Fn(&dyn KvClient, &[K]) -> Deferred<Bytes>,
    ) -> Window<K> {
        let mut shares = Vec::new();
        for (server, (idx, entries)) in batches.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let in_flight = self.stats.io(server).track(entries.len());
            let mut reply = submit(&*state.clients[server], &entries);
            let gate = gate.share();
            reply.when_answered(move || drop((in_flight, gate)));
            shares.push(Share {
                server,
                idx,
                entries,
                reply,
            });
        }
        Window { len, shares, state }
    }

    /// The one replica walk behind every routed read: try `key`'s homes
    /// primary first. `NotFound` is final from an authoritative home but
    /// not from a target-only home during a transition, where absence
    /// only means the background copy has not landed yet.
    ///
    /// The per-key fallback of a failed batch passes the server that
    /// failed as `skip` and its error as `last_err`: retrying that server
    /// per key would multiply its failure latency by the batch size (fatal
    /// when the failure is a response timeout), and without a surviving
    /// replica the batch's own error is what surfaces.
    fn get_routed(
        &self,
        state: &RingState,
        key: &[u8],
        range: ByteRange,
        skip: Option<usize>,
        mut last_err: Option<KvError>,
    ) -> MemFsResult<Bytes> {
        let (homes, auth) = state.route_with_auth(key, self.replication);
        for (i, id) in homes.iter().enumerate() {
            if Some(id.0) == skip {
                continue;
            }
            match fetch_from(state.client(*id), key, range) {
                Ok(v) => return Ok(v),
                Err(e @ KvError::NotFound) if i < auth => return Err(e.into()),
                Err(KvError::NotFound) => {}
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            Some(err) => self.get_failover(state, key, range, skip, err),
            // Every authoritative home that was tried either returned
            // above or left its error in `last_err`, and `auth >= 1`
            // whenever `homes` is non-empty: unreachable unless `homes`
            // is empty.
            None => Err(KvError::NotFound.into()),
        }
    }

    /// Every owner failed with a transport error: extend the candidate
    /// walk past the owner set, where the repair planner parks failover
    /// copies while owners are down. `NotFound` is not authoritative out
    /// here — absence on a successor just means repair never placed a
    /// copy there — so the owners' transport error is what surfaces when
    /// the whole chain comes up empty.
    fn get_failover(
        &self,
        state: &RingState,
        key: &[u8],
        range: ByteRange,
        skip: Option<usize>,
        err: KvError,
    ) -> MemFsResult<Bytes> {
        let owners = self.replication.min(state.members.len());
        for id in state.candidates(key).into_iter().skip(owners) {
            if Some(id.0) == skip {
                continue;
            }
            if let Ok(v) = fetch_from(state.client(id), key, range) {
                return Ok(v);
            }
        }
        Err(err.into())
    }

    /// Settle one read share on the caller's thread: its results, paired
    /// with their input positions. An entry whose server failed — the
    /// whole batch or just that entry — walks its replica chain
    /// ([`ServerPool::get_routed`], the failed server skipped) under the
    /// ring as it is *now*, in a gate entry of its own: the window's
    /// entry went with its answer. Replicas (if any) thus serve a dead
    /// server's keys while the other servers' shares settle untouched.
    pub(crate) fn settle_read(&self, share: Share<ReadReq>) -> Vec<(usize, MemFsResult<Bytes>)> {
        let Share {
            server,
            idx,
            entries,
            reply,
        } = share;
        let fall_back = |(key, range): &ReadReq, e: KvError| {
            self.stats.io(server).bump_fallback();
            let (_gate, state) = self.begin_op();
            self.get_routed(&state, key, *range, Some(server), Some(e))
        };
        let results: Vec<MemFsResult<Bytes>> = match reply.wait() {
            Ok(replies) => entries
                .iter()
                .zip(replies)
                .map(|(req, r)| match r {
                    Ok(v) => Ok(v),
                    Err(KvError::NotFound) => Err(KvError::NotFound.into()),
                    Err(e) => fall_back(req, e),
                })
                .collect(),
            Err(e) => entries
                .iter()
                .map(|req| fall_back(req, e.duplicate()))
                .collect(),
        };
        idx.into_iter().zip(results).collect()
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
    use memfs_memkv::{LocalClient, Store, StoreConfig};

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
        use memfs_memkv::{FailableClient, LocalClient, Store, StoreConfig};
        let failables: Vec<Arc<FailableClient<LocalClient>>> = (0..3)
            .map(|_| {
                Arc::new(FailableClient::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))))
            })
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
        use memfs_memkv::FailableClient;
        let failables: Vec<Arc<FailableClient<LocalClient>>> = (0..3)
            .map(|_| {
                Arc::new(FailableClient::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))))
            })
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
        use memfs_memkv::FailableClient;
        let failables: Vec<Arc<FailableClient<LocalClient>>> = (0..3)
            .map(|_| {
                Arc::new(FailableClient::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))))
            })
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

    pub(crate) fn failable_pool(
        n: usize,
        replication: usize,
    ) -> (
        ServerPool,
        Vec<Arc<memfs_memkv::FailableClient<LocalClient>>>,
    ) {
        use memfs_memkv::FailableClient;
        let failables: Vec<Arc<FailableClient<LocalClient>>> = (0..n)
            .map(|_| {
                Arc::new(FailableClient::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))))
            })
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
