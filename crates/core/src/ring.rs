//! Routing snapshots and the quiescence gate (DESIGN.md §4j).
//!
//! Routing state lives in an immutable [`RingState`] snapshot: the client
//! table, the member set and its ring, and an optional in-progress
//! *transition* toward a target ring. Every operation reads the snapshot
//! once, beside a hold on the gate's current token, and routes by it for
//! its whole lifetime ([`Live::enter`]). A membership change builds the
//! next snapshot ([`RingState::next`]) and swaps it in whole; the repair
//! pass then [`Live::quiesce`]s — swaps the token and waits for the old
//! one's holders — so no operation still routes by the snapshot it
//! replaced. Server slots are never renumbered: a drained server's slot
//! is replaced by a [`RetiredClient`] tombstone so `ServerId`s stay stable
//! forever.

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use memfs_hashring::{Distributor, KetamaRing, ModuloRing, ServerId};
use memfs_memkv::{Batch, Deferred, KvClient, KvError};
use parking_lot::RwLock;

use crate::config::DistributorKind;
use crate::error::{MemFsError, MemFsResult};
use crate::replica::Rings;

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
/// set and ring, and the optional in-progress transition.
pub(crate) struct RingState {
    pub(crate) clients: Vec<Arc<dyn KvClient>>,
    /// Member slot ids (sorted). Slots outside this list are either
    /// joining (during a grow transition) or retired tombstones.
    pub(crate) members: Vec<usize>,
    /// The ring the current membership routes by.
    pub(crate) current: Arc<dyn Distributor>,
    pub(crate) transition: Option<TransitionState>,
}

/// A membership change, as [`RingState::next`] applies it.
pub(crate) enum Change {
    /// Append these clients to the slot table and install a transition
    /// whose target ring includes them.
    Admit(Vec<Arc<dyn KvClient>>),
    /// Install a transition whose target ring excludes this member.
    Drain(ServerId),
    /// Make the transition's target current and tombstone its leaving
    /// slots; without a transition, nothing changes.
    Commit,
}

impl RingState {
    /// The first snapshot: every client a member, no transition.
    pub(crate) fn new(clients: Vec<Arc<dyn KvClient>>, kind: &DistributorKind) -> RingState {
        let members: Vec<usize> = (0..clients.len()).collect();
        let current = ring_for(kind, &members, clients.len())
            .expect("contiguous initial membership is always supported");
        RingState {
            clients,
            members,
            current,
            transition: None,
        }
    }

    pub(crate) fn client(&self, id: ServerId) -> &Arc<dyn KvClient> {
        &self.clients[id.0]
    }

    /// The primary home of `key` — cheap (no allocation): the current
    /// ring's pick, transition or not. A read's batch goes here.
    pub(crate) fn primary(&self, key: &[u8]) -> ServerId {
        self.current.server_for(key)
    }

    /// The rings the replica rules route by.
    pub(crate) fn rings(&self) -> Rings<'_> {
        Rings {
            current: &*self.current,
            target: self.transition.as_ref().map(|t| &*t.target),
        }
    }

    /// The snapshot after `change`. Admitting or draining fails with
    /// [`MemFsError::MembershipBusy`] while a transition is installed; a
    /// drain fails with [`MemFsError::UnknownServer`] for a non-member and
    /// [`MemFsError::UnsupportedTopology`] below `replication` members;
    /// either fails with the latter for a membership the distributor
    /// cannot express.
    pub(crate) fn next(
        &self,
        change: Change,
        kind: &DistributorKind,
        replication: usize,
    ) -> MemFsResult<RingState> {
        let mut clients = self.clients.clone();
        let mut members = self.members.clone();
        let mut current = Arc::clone(&self.current);
        let from = members.len();
        // The target members and leaving slots of the transition to install.
        let toward: Option<(Vec<usize>, Vec<usize>)> = match (change, &self.transition) {
            (Change::Commit, None) => None,
            (Change::Commit, Some(t)) => {
                for &l in &t.leaving {
                    clients[l] = Arc::new(RetiredClient) as Arc<dyn KvClient>;
                }
                members.clone_from(&t.target_members);
                current = Arc::clone(&t.target);
                None
            }
            (_, Some(_)) => return Err(MemFsError::MembershipBusy),
            (Change::Admit(joining), None) => {
                // Joining slots number past every member: still sorted.
                let slots = clients.len()..clients.len() + joining.len();
                clients.extend(joining);
                Some((members.iter().copied().chain(slots).collect(), Vec::new()))
            }
            (Change::Drain(id), None) if !members.contains(&id.0) => {
                return Err(MemFsError::UnknownServer { server: id.0 })
            }
            (Change::Drain(_), None) if from - 1 < replication => {
                return Err(MemFsError::UnsupportedTopology { from, to: from - 1 })
            }
            (Change::Drain(id), None) => {
                let rest = members.iter().copied().filter(|&m| m != id.0);
                Some((rest.collect(), vec![id.0]))
            }
        };
        let transition = match toward {
            None => None,
            Some((target_members, leaving)) => Some(TransitionState {
                target: ring_for(kind, &target_members, from)?,
                target_members,
                leaving,
            }),
        };
        Ok(RingState {
            clients,
            members,
            current,
            transition,
        })
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
/// transport error.
struct RetiredClient;

impl KvClient for RetiredClient {
    fn start(&self, _batch: Batch<'_>) -> Deferred<Bytes> {
        Deferred::Ready(Err(KvError::Io(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "server slot retired from the pool",
        ))))
    }
}

/// An operation's hold on the quiescence gate: a clone of the token that
/// was current when it read its snapshot. A started window hands one to
/// the transport per share, dropped as that share is answered.
pub(crate) type Hold = Arc<()>;

/// The live snapshot and the gate's current token, under one lock so an
/// operation reads both at once.
pub(crate) struct Live(RwLock<(Arc<RingState>, Hold)>);

impl Live {
    pub(crate) fn new(state: RingState) -> Live {
        Live(RwLock::new((Arc::new(state), Hold::default())))
    }

    /// Hold the gate and read the snapshot to route by.
    pub(crate) fn enter(&self) -> (Hold, Arc<RingState>) {
        let live = self.0.read();
        (Arc::clone(&live.1), Arc::clone(&live.0))
    }

    /// The snapshot, without a hold (for the repair pass and reports).
    pub(crate) fn snapshot(&self) -> Arc<RingState> {
        Arc::clone(&self.0.read().0)
    }

    /// Swap in the snapshot `next` builds from the current one, under
    /// the write lock; on `Err` nothing changes.
    pub(crate) fn swap(
        &self,
        next: impl FnOnce(&RingState) -> MemFsResult<RingState>,
    ) -> MemFsResult<Arc<RingState>> {
        let mut live = self.0.write();
        live.0 = Arc::new(next(&live.0)?);
        Ok(Arc::clone(&live.0))
    }

    /// Swap in a fresh token and wait until every hold on the old one is
    /// dropped: on return, no operation still routes by a snapshot read
    /// before this call. A hold is only ever cloned from another hold, so
    /// the old token's count cannot climb back once it reads 1. A hold
    /// rides a batch until it is answered, and a transport may answer a
    /// batch nobody waits on only while some call turns its loop:
    /// `progress` is that call, made between checks.
    pub(crate) fn quiesce(&self, progress: impl Fn()) {
        let old = std::mem::take(&mut self.0.write().1);
        while Arc::strong_count(&old) > 1 {
            progress();
            std::thread::sleep(Duration::from_micros(50));
        }
        // Pairs with the release decrement of the last hold dropped.
        fence(Ordering::Acquire);
    }
}
