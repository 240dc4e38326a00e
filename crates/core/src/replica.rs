//! The replica rules (paper §3.2.5), each a function of plain data: where
//! a key's copies live, the order a read walks them in, how one key's
//! replica replies settle a write or a delete, and which copies of a file
//! record are current. Nothing here talks to a server. The pool and the
//! repair pass hand these rules the rings of one routing snapshot and the
//! replies they got, so a harness can drive them with plain values. That
//! a reply may be judged whenever it is read rests on BlobSeer's
//! immutable-once-published rule (PAPERS.md): a published value never
//! changes under it. A stripe key names its file's generation, so every
//! copy of it holds the same bytes; only a file record is rewritten in
//! place (open, then closed), and its copies say themselves which is
//! current ([`current_records`]).

use bytes::Bytes;
use memfs_hashring::{Distributor, ServerId};
use memfs_memkv::error::KvResult;
use memfs_memkv::KvError;

use crate::error::{MemFsError, MemFsResult};
use crate::meta::{Record, SizeRecord};

/// The rings of one routing snapshot: the current ring and, while a
/// membership transition is installed, its target ring.
pub(crate) struct Rings<'a> {
    pub(crate) current: &'a dyn Distributor,
    pub(crate) target: Option<&'a dyn Distributor>,
}

impl Rings<'_> {
    /// The homes of `key` under `r`-way replication, primary first —
    /// writes and deletes reach all of them — and how many lead as
    /// *authoritative*: only those may answer `NotFound` for good. During
    /// a transition that is the current homes, which every dual-routed
    /// write reached; the target ring's extra homes follow, where a miss
    /// only means the background copy has not landed yet.
    pub(crate) fn homes(&self, key: &[u8], r: usize) -> (Vec<ServerId>, usize) {
        let mut homes = self.current.replicas_for(key, r);
        let auth = homes.len();
        if let Some(target) = self.target {
            merge(&mut homes, target.replicas_for(key, r));
        }
        (homes, auth)
    }

    /// The failover walk order: every successor of the ring keys are
    /// homed by — the target ring during a transition, the current ring
    /// otherwise — then the current ring's extra successors.
    pub(crate) fn walk(&self, key: &[u8]) -> Vec<ServerId> {
        let mut walk = self
            .target
            .unwrap_or(self.current)
            .replicas_for(key, usize::MAX);
        if self.target.is_some() {
            merge(&mut walk, self.current.replicas_for(key, usize::MAX));
        }
        walk
    }

    /// The repair home set: the first `r` servers of the failover walk
    /// that are `alive`. While an owner is down the set slides onto
    /// surviving successors, where a read walks on to; when it returns
    /// the set converges back.
    pub(crate) fn repair_homes(
        &self,
        key: &[u8],
        r: usize,
        alive: impl Fn(ServerId) -> bool,
    ) -> Vec<ServerId> {
        let walk = self.walk(key).into_iter();
        walk.filter(|&id| alive(id)).take(r).collect()
    }

    /// A read's candidates: its homes, then the rest of the failover walk.
    pub(crate) fn read_walk(&self, key: &[u8], r: usize) -> ReadWalk {
        let (mut order, auth) = self.homes(key, r);
        let homes = order.len();
        merge(&mut order, self.walk(key));
        ReadWalk { order, auth, homes }
    }
}

/// Append the servers of `more` that `into` lacks, in order.
fn merge(into: &mut Vec<ServerId>, more: Vec<ServerId>) {
    for id in more {
        if !into.contains(&id) {
            into.push(id);
        }
    }
}

/// The candidates a read tries, in order: `order[..auth]` authoritative
/// homes, `order[auth..homes]` a transition's target-only homes, then
/// the failover successors where the repair pass parks copies while
/// owners are down.
pub(crate) struct ReadWalk {
    order: Vec<ServerId>,
    auth: usize,
    homes: usize,
}

impl ReadWalk {
    /// Every candidate, in the order a read tries them.
    pub(crate) fn order(&self) -> &[ServerId] {
        &self.order
    }

    /// Walk on after `failed` (the primary, read in its batch) answered
    /// `err`, trying each other candidate once through `fetch`. A value
    /// ends the walk; so does `NotFound` from an authoritative home. A
    /// walk starts only after an error, so it always goes on past the
    /// homes, where a miss or an error means only that no copy is there:
    /// the homes' last error is what surfaces when nothing answers.
    pub(crate) fn after<T>(
        &self,
        failed: ServerId,
        mut err: KvError,
        mut fetch: impl FnMut(ServerId) -> KvResult<T>,
    ) -> KvResult<T> {
        for (i, &id) in self.order.iter().enumerate() {
            if id == failed {
                continue;
            }
            match fetch(id) {
                Ok(v) => return Ok(v),
                Err(e @ KvError::NotFound) if i < self.auth => return Err(e),
                Err(KvError::NotFound) => {}
                Err(e) if i < self.homes => err = e,
                Err(_) => {}
            }
        }
        Err(err)
    }
}

/// The record rule: which holders of one file record hold the current
/// copy. `copies` are the holders in the order a read tries them, each
/// with its decoded head (`None` where it could not be read or decoded:
/// never current). The first decoded copy names the generation — the
/// primary's, where `create`'s `add` arbitrates, whenever it holds one;
/// otherwise the copy a read that fails over reaches first. Of that
/// generation's copies the closed ones are current if there are any,
/// else the open ones. Every other copy is stale.
pub(crate) fn current_records(copies: &[(ServerId, Option<Record>)]) -> Vec<ServerId> {
    let decoded = copies
        .iter()
        .filter_map(|&(id, record)| Some((id, record?)));
    let Some((_, lead)) = decoded.clone().next() else {
        return Vec::new();
    };
    let ours: Vec<_> = decoded
        .filter(|(_, r)| r.generation == lead.generation)
        .collect();
    let closed = |r: &Record| r.state != SizeRecord::Open;
    let best = ours.iter().any(|(_, r)| closed(r));
    let current = ours.into_iter().filter(|(_, r)| closed(r) == best);
    current.map(|(id, _)| id).collect()
}

/// What the replicas of one key answered to a write or a delete.
#[derive(Default)]
pub(crate) struct KeyReplies {
    took: Vec<ServerId>,
    refused: Vec<ServerId>,
    absent: bool,
    /// The last refusal.
    err: Option<KvError>,
}

impl KeyReplies {
    /// Fold in `server`'s reply.
    pub(crate) fn record(&mut self, server: ServerId, reply: KvResult<Bytes>) {
        match reply {
            Ok(_) => self.took.push(server),
            Err(e) => {
                self.absent |= matches!(e, KvError::NotFound);
                self.refused.push(server);
                self.err = Some(e);
            }
        }
    }

    /// Write settlement: a key no replica took fails with the last
    /// refusal; otherwise it is durable, and the homes that missed it are
    /// returned (none when every replica took it).
    pub(crate) fn settle_write(self) -> MemFsResult<Vec<ServerId>> {
        if self.took.is_empty() {
            return Err(self.refusal());
        }
        Ok(self.refused)
    }

    /// Delete resolution: any replica deleting wins (`true`), a clean
    /// miss on a live replica is `false`, and only a key whose every
    /// replica erred is an error.
    pub(crate) fn resolve_delete(self) -> MemFsResult<bool> {
        if !self.took.is_empty() {
            Ok(true)
        } else if self.absent {
            Ok(false)
        } else {
            Err(self.refusal())
        }
    }

    /// The last refusal, or — for a key no reply reached at all — that
    /// nothing answered for it.
    fn refusal(self) -> MemFsError {
        match self.err {
            Some(e) => e.into(),
            None => KvError::Protocol("no replica answered for the key".into()).into(),
        }
    }
}

#[cfg(test)]
mod tests {
    //! One table per rule, over plain replies: no store, no client. Each
    //! row is a case an oracle for a deterministic simulator can replay.
    use super::*;
    use memfs_hashring::KetamaRing;
    use std::collections::HashMap;

    fn ids(v: &[usize]) -> Vec<ServerId> {
        v.iter().copied().map(ServerId).collect()
    }

    fn down() -> KvError {
        KvError::Io(std::io::ErrorKind::ConnectionRefused.into())
    }

    /// One key's replies, `(server, reply)` in arrival order.
    type Replies = Vec<(usize, KvResult<Bytes>)>;

    fn fold(replies: Replies) -> KeyReplies {
        let mut fold = KeyReplies::default();
        for (server, reply) in replies {
            fold.record(ServerId(server), reply);
        }
        fold
    }

    fn took() -> KvResult<Bytes> {
        Ok(Bytes::new())
    }

    #[test]
    fn write_settlement_table() {
        // (replies in arrival order, expected outcome: the homes missed)
        let table: Vec<(Replies, MemFsResult<Vec<ServerId>>)> = vec![
            // Full: every home took it, none missed.
            (vec![(2, took()), (0, took())], Ok(vec![])),
            // Degraded: durable, and the homes that missed it, in arrival
            // order.
            (
                vec![(3, took()), (1, Err(down())), (0, took())],
                Ok(ids(&[1])),
            ),
            (
                vec![(2, Err(down())), (1, took()), (0, Err(down()))],
                Ok(ids(&[2, 0])),
            ),
            // Every home failed: the last refusal is the error.
            (
                vec![(0, Err(down())), (1, Err(KvError::Protocol("full".into())))],
                Err(MemFsError::Storage(KvError::Protocol("full".into()))),
            ),
            // No reply reached the key at all: an error, not a panic.
            (
                vec![],
                Err(MemFsError::Storage(KvError::Protocol(
                    "no replica answered for the key".into(),
                ))),
            ),
        ];
        for (replies, want) in table {
            let got = fold(replies).settle_write();
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn record_rule_table() {
        let open = |generation| {
            Some(Record {
                generation,
                state: SizeRecord::Open,
            })
        };
        let closed = |generation| {
            Some(Record {
                generation,
                state: SizeRecord::Striped(4096),
            })
        };
        // (holders in read order with their heads, the current holders)
        type Row = (Vec<(usize, Option<Record>)>, Vec<usize>);
        let table: Vec<Row> = vec![
            // One generation: the closed copy over the open one, wherever
            // each sits.
            (vec![(0, closed(1)), (1, open(1))], vec![0]),
            (vec![(0, open(1)), (1, closed(1)), (2, open(1))], vec![1]),
            (vec![(0, closed(1)), (1, closed(1))], vec![0, 1]),
            (vec![(0, open(1)), (1, open(1))], vec![0, 1]),
            // Two generations: the first copy's wins, even open over a
            // closed copy of the other generation.
            (vec![(0, closed(2)), (1, closed(1))], vec![0]),
            (vec![(0, open(2)), (1, closed(1)), (2, open(2))], vec![0, 2]),
            // The primary holds none: the first copy a read reaches.
            (vec![(2, closed(1)), (3, open(2))], vec![2]),
            // Unreadable heads are never current, and never lead.
            (vec![(0, None), (1, open(3)), (2, closed(3))], vec![2]),
            (vec![(0, None)], vec![]),
            (vec![], vec![]),
        ];
        for (copies, want) in table {
            let copies: Vec<_> = copies.into_iter().map(|(s, r)| (ServerId(s), r)).collect();
            assert_eq!(current_records(&copies), ids(&want), "{copies:?}");
        }
    }

    #[test]
    fn delete_resolution_table() {
        let table: Vec<(Replies, Result<bool, ()>)> = vec![
            (vec![(0, took()), (1, took())], Ok(true)),
            // One replica deleting wins over a miss or a dead replica.
            (vec![(0, Err(KvError::NotFound)), (1, took())], Ok(true)),
            (vec![(0, Err(down())), (1, took())], Ok(true)),
            // A clean miss on a live replica: gone already.
            (vec![(0, Err(KvError::NotFound))], Ok(false)),
            (
                vec![(0, Err(down())), (1, Err(KvError::NotFound))],
                Ok(false),
            ),
            // Only a key every replica failed is an error.
            (vec![(0, Err(down())), (1, Err(down()))], Err(())),
        ];
        for (row, (replies, want)) in table.into_iter().enumerate() {
            match (fold(replies).resolve_delete(), want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "row {row}"),
                (Err(MemFsError::Storage(e)), Err(())) => assert!(e.is_transport()),
                (got, want) => panic!("row {row}: got {got:?}, want {want:?}"),
            }
        }
    }

    /// A transition on four current members growing to six, r = 2: a key
    /// with a target-only home and a target ring that differs in order.
    fn grow() -> (KetamaRing, KetamaRing, Vec<u8>) {
        let current = KetamaRing::with_members(&[0, 1, 2, 3], 64);
        let target = KetamaRing::with_members(&[0, 1, 2, 3, 4, 5], 64);
        let key = (0..)
            .map(|i| format!("s:/f{i}#0").into_bytes())
            .find(|k| {
                let old = current.replicas_for(k, 2);
                target.replicas_for(k, 2).iter().all(|id| !old.contains(id))
            })
            .unwrap();
        (current, target, key)
    }

    #[test]
    fn read_walk_across_a_transition_table() {
        let (current, target, key) = grow();
        let rings = Rings {
            current: &current,
            target: Some(&target),
        };
        let walk = rings.read_walk(&key, 2);
        let (old, new) = (current.replicas_for(&key, 2), target.replicas_for(&key, 2));
        // Homes: current first (authoritative), then target-only ones,
        // then every other server once.
        assert_eq!(walk.order[..2], old[..]);
        assert_eq!(walk.order[2..4], new[..]);
        assert_eq!((walk.auth, walk.homes, walk.order.len()), (2, 4, 6));
        let spare = walk.order[4];

        let found = || Ok(Bytes::from_static(b"v"));
        let missing = || Err(KvError::NotFound);
        // (what each server answers, expected outcome, servers tried)
        type Answer = fn() -> KvResult<Bytes>;
        type Row = (
            Vec<(ServerId, Answer)>,
            Result<&'static [u8], &'static str>,
            usize,
        );
        let table: Vec<Row> = vec![
            // The follower holds it.
            (vec![(old[1], found)], Ok(b"v"), 1),
            // An authoritative miss is final: nothing past it is asked.
            (vec![(old[1], missing)], Err("miss"), 1),
            // Follower down: a target-only home's miss is not final, the
            // other target home serves.
            (vec![(new[0], missing), (new[1], found)], Ok(b"v"), 3),
            // Nothing at any home: the failover copy past them serves.
            (
                vec![(new[0], missing), (new[1], missing), (spare, found)],
                Ok(b"v"),
                4,
            ),
            // Nowhere at all: the homes' error, not a miss, surfaces.
            (vec![(new[0], missing), (new[1], missing)], Err("down"), 5),
        ];
        for (answers, want, tried) in table {
            let answers: HashMap<ServerId, Answer> = answers.into_iter().collect();
            let mut asked = Vec::new();
            let got = walk.after(old[0], down(), |id| {
                asked.push(id);
                answers.get(&id).map_or_else(|| Err(down()), |a| a())
            });
            assert_eq!(asked.len(), tried, "{asked:?}");
            assert!(!asked.contains(&old[0]), "the failed primary is skipped");
            match (got, want) {
                (Ok(v), Ok(want)) => assert_eq!(&v[..], want),
                (Err(KvError::NotFound), Err("miss")) => {}
                (Err(e), Err("down")) => assert!(e.is_transport()),
                (got, want) => panic!("got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn home_set_with_down_servers_table() {
        let ring = KetamaRing::with_members(&[0, 1, 2, 3, 4], 64);
        let key = b"s:/data/f7#0";
        let rings = Rings {
            current: &ring,
            target: None,
        };
        let walk = ring.replicas_for(key, 5);
        assert_eq!(rings.walk(key), walk);
        // (down servers, expected homes) for r = 2.
        let table: Vec<(Vec<ServerId>, Vec<ServerId>)> = vec![
            (vec![], walk[..2].to_vec()),
            // The primary down: the home slides onto the next successor.
            (vec![walk[0]], walk[1..3].to_vec()),
            (vec![walk[1]], vec![walk[0], walk[2]]),
            (vec![walk[0], walk[1], walk[2]], walk[3..5].to_vec()),
            // Fewer alive than r: every alive server.
            (walk[..4].to_vec(), vec![walk[4]]),
            (walk.clone(), vec![]),
        ];
        for (down, want) in table {
            assert_eq!(rings.repair_homes(key, 2, |id| !down.contains(&id)), want);
        }
        // During a transition the target ring leads the walk; its extra
        // successors (a leaving server) come last.
        let target = KetamaRing::with_members(&[0, 1, 2, 3], 64);
        let shrinking = Rings {
            current: &ring,
            target: Some(&target),
        };
        let mut want = target.replicas_for(key, 4);
        want.push(ServerId(4));
        assert_eq!(shrinking.walk(key), want);
        assert_eq!(shrinking.repair_homes(key, 2, |_| true), want[..2]);
    }
}
