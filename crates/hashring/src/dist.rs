//! Key-to-server distributors: the modulo scheme MemFS uses, and a
//! ketama-style consistent-hash ring for elastic membership.

use crate::hash::{fnv1a_32, md5};
use crate::schema::KeySchema;

/// Index of a storage server within the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub usize);

/// Maps keys to servers. Implementations must be pure functions of the key
/// and the configured membership so every client agrees on placement; both
/// here hash the key's [`KeySchema::placement`], so a stripe's generation
/// never moves it.
pub trait Distributor: Send + Sync {
    /// The server that owns `key`.
    fn server_for(&self, key: &[u8]) -> ServerId;
    /// Number of servers in the pool.
    fn n_servers(&self) -> usize;

    /// The `r` distinct servers holding `key`'s replicas, primary first.
    /// `r` is clamped to the pool size.
    ///
    /// The default walks index-successors `(primary + i) % n` — the only
    /// notion of adjacency a geometry-free scheme like [`ModuloRing`]
    /// has (and modulo remaps nearly every key on membership change
    /// anyway, so index adjacency costs it nothing extra). Ring-based
    /// schemes must override this with their own successor walk:
    /// index-adjacency on a consistent-hash ring both changes the
    /// replica set of keys whose primary did not move when the cluster
    /// grows, and funnels every key of a dead primary onto the single
    /// next-index server instead of spreading the failover load.
    fn replicas_for(&self, key: &[u8], r: usize) -> Vec<ServerId> {
        let n = self.n_servers();
        let primary = self.server_for(key).0;
        (0..r.min(n)).map(|i| ServerId((primary + i) % n)).collect()
    }
}

/// The paper's scheme: `hash(key) mod N` (§3.1.2), with FNV-1a —
/// libmemcached's default hash. Perfectly balanced for uniformly hashed
/// keys; remaps almost everything when `N` changes.
#[derive(Debug, Clone)]
pub struct ModuloRing {
    n: usize,
}

impl ModuloRing {
    /// A modulo distributor over `n` servers.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one server");
        ModuloRing { n }
    }
}

impl Distributor for ModuloRing {
    fn server_for(&self, key: &[u8]) -> ServerId {
        ServerId((fnv1a_32(KeySchema::placement(key)) as usize) % self.n)
    }

    fn n_servers(&self) -> usize {
        self.n
    }
}

/// Ketama-style consistent hashing: each server contributes `points`
/// virtual positions on a 32-bit ring (derived from MD5, four points per
/// digest as in libmemcached); a key maps to the first point at or after
/// its own hash position.
///
/// The paper leaves elastic membership to future work but names consistent
/// hashing as the mechanism; the remapping bound (only ~1/N of keys move
/// when a server joins) is asserted by this crate's property tests.
#[derive(Debug, Clone)]
pub struct KetamaRing {
    /// Sorted (point, server) pairs.
    ring: Vec<(u32, ServerId)>,
    /// Slot-table size: one past the highest member id, so callers may
    /// index per-server vectors by `ServerId` even when membership is
    /// sparse (mid-transition rings skip drained slots).
    n: usize,
    /// Number of distinct members actually on the ring (replica clamp).
    distinct: usize,
}

impl KetamaRing {
    /// Build a ring for servers named `names` with `points` virtual points
    /// each (`points` is rounded up to a multiple of 4).
    ///
    /// # Panics
    /// Panics on an empty server list or zero points.
    pub fn new(names: &[String], points: usize) -> Self {
        let labelled: Vec<(String, ServerId)> = names
            .iter()
            .enumerate()
            .map(|(idx, name)| (name.clone(), ServerId(idx)))
            .collect();
        Self::from_labelled(&labelled, points, names.len())
    }

    /// Build a ring for `n` anonymous servers (named `server-<i>`).
    pub fn with_n_servers(n: usize, points: usize) -> Self {
        let members: Vec<usize> = (0..n).collect();
        KetamaRing::with_members(&members, points)
    }

    /// Build a ring over an arbitrary set of member slots: member `id`
    /// contributes points named `server-<id>` mapped to `ServerId(id)`.
    ///
    /// With contiguous members `0..n` this is bit-identical to
    /// [`with_n_servers`](Self::with_n_servers) — the invariant elastic
    /// membership relies on: once a transition completes, placement
    /// equals a fresh ring built over the surviving members.
    ///
    /// # Panics
    /// Panics on an empty member list or zero points.
    pub fn with_members(members: &[usize], points: usize) -> Self {
        let mut ids: Vec<usize> = members.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let labelled: Vec<(String, ServerId)> = ids
            .iter()
            .map(|&id| (format!("server-{id}"), ServerId(id)))
            .collect();
        let n = ids.last().map_or(0, |&max| max + 1);
        Self::from_labelled(&labelled, points, n)
    }

    fn from_labelled(servers: &[(String, ServerId)], points: usize, n: usize) -> Self {
        assert!(!servers.is_empty(), "need at least one server");
        assert!(points > 0, "need at least one point per server");
        let digests_per_server = points.div_ceil(4);
        let mut ring = Vec::with_capacity(servers.len() * digests_per_server * 4);
        for (name, sid) in servers {
            for d in 0..digests_per_server {
                let digest = md5(format!("{name}-{d}").as_bytes());
                for p in 0..4 {
                    let o = p * 4;
                    let point = u32::from_le_bytes([
                        digest[o],
                        digest[o + 1],
                        digest[o + 2],
                        digest[o + 3],
                    ]);
                    ring.push((point, *sid));
                }
            }
        }
        ring.sort_unstable();
        ring.dedup_by_key(|e| e.0);
        KetamaRing {
            ring,
            n,
            distinct: servers.len(),
        }
    }

    /// Number of live virtual points (diagnostic).
    pub fn n_points(&self) -> usize {
        self.ring.len()
    }
}

impl KetamaRing {
    /// Index of the first ring point at or after `key`'s hash position,
    /// wrapping to the start.
    fn start_point(&self, key: &[u8]) -> usize {
        let digest = md5(KeySchema::placement(key));
        let h = u32::from_le_bytes([digest[0], digest[1], digest[2], digest[3]]);
        match self.ring.binary_search_by(|(p, _)| p.cmp(&h)) {
            Ok(i) => i,
            Err(i) if i == self.ring.len() => 0,
            Err(i) => i,
        }
    }
}

impl Distributor for KetamaRing {
    fn server_for(&self, key: &[u8]) -> ServerId {
        self.ring[self.start_point(key)].1
    }

    fn n_servers(&self) -> usize {
        self.n
    }

    /// Distinct-successor walk: continue around the ring from the key's
    /// position, collecting the first `r` *distinct* servers encountered.
    /// This is the classic consistent-hashing replica rule — a key's
    /// replica set only changes when new virtual points land inside its
    /// successor window, so growing the cluster perturbs placement by
    /// ~`r/n` instead of rewriting the follower of every key, and a dead
    /// primary's keys fail over to many different successors instead of
    /// all piling onto one index neighbour.
    fn replicas_for(&self, key: &[u8], r: usize) -> Vec<ServerId> {
        let r = r.min(self.distinct);
        let start = self.start_point(key);
        let mut out = Vec::with_capacity(r);
        for off in 0..self.ring.len() {
            let sid = self.ring[(start + off) % self.ring.len()].1;
            if !out.contains(&sid) {
                out.push(sid);
                if out.len() == r {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("/data/file{i}.fits#{}", i % 8))
            .collect()
    }

    #[test]
    fn modulo_covers_all_servers() {
        let d = ModuloRing::new(8);
        let mut seen = [false; 8];
        for k in keys(1000) {
            let s = d.server_for(k.as_bytes());
            assert!(s.0 < 8);
            seen[s.0] = true;
        }
        assert!(seen.iter().all(|&s| s), "every server should receive keys");
    }

    #[test]
    fn modulo_is_deterministic_across_instances() {
        let a = ModuloRing::new(16);
        let b = ModuloRing::new(16);
        for k in keys(200) {
            assert_eq!(a.server_for(k.as_bytes()), b.server_for(k.as_bytes()));
        }
    }

    #[test]
    fn ketama_covers_all_servers() {
        // libmemcached's `MEMCACHED_POINTS_PER_SERVER_KETAMA` (40 digests
        // x 4 points).
        let d = KetamaRing::with_n_servers(8, 160);
        let mut counts = [0usize; 8];
        for k in keys(4000) {
            counts[d.server_for(k.as_bytes()).0] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "server {i} received no keys");
        }
    }

    #[test]
    fn a_stripes_generation_never_moves_it() {
        let modulo = ModuloRing::new(7);
        let ketama = KetamaRing::with_n_servers(7, 160);
        for i in 0..200 {
            let path = format!("/data/file{i}.fits");
            let key = |generation| KeySchema::stripe_key(&path, generation, i % 9);
            let distributors: [&dyn Distributor; 2] = [&modulo, &ketama];
            for d in distributors {
                assert_eq!(d.replicas_for(&key(0), 3), d.replicas_for(&key(i), 3));
                assert_eq!(d.server_for(&key(0)), d.server_for(&key(u64::MAX)));
            }
        }
    }

    #[test]
    fn ketama_ring_size() {
        let d = KetamaRing::with_n_servers(4, 160);
        // 4 servers x 160 points, minus rare dedup collisions.
        assert!(d.n_points() > 600 && d.n_points() <= 640);
        assert_eq!(d.n_servers(), 4);
    }

    #[test]
    fn ketama_remaps_few_keys_on_grow() {
        let before = KetamaRing::with_n_servers(8, 160);
        let after = KetamaRing::with_n_servers(9, 160);
        let ks = keys(5000);
        let moved = ks
            .iter()
            .filter(|k| before.server_for(k.as_bytes()) != after.server_for(k.as_bytes()))
            .count();
        // Ideal is 1/9 ≈ 11%; allow generous slack for virtual-point noise.
        let frac = moved as f64 / ks.len() as f64;
        assert!(
            frac < 0.25,
            "consistent hashing moved {:.0}% of keys",
            frac * 100.0
        );
        assert!(frac > 0.02, "growing the ring must move some keys");
    }

    #[test]
    fn modulo_remaps_most_keys_on_grow() {
        // The contrast motivating ketama for elasticity.
        let before = ModuloRing::new(8);
        let after = ModuloRing::new(9);
        let ks = keys(5000);
        let moved = ks
            .iter()
            .filter(|k| before.server_for(k.as_bytes()) != after.server_for(k.as_bytes()))
            .count();
        assert!(moved as f64 / ks.len() as f64 > 0.7);
    }

    #[test]
    fn replicas_are_distinct_and_led_by_the_primary() {
        let ks = keys(500);
        let dists: Vec<Box<dyn Distributor>> = vec![
            Box::new(ModuloRing::new(5)),
            Box::new(KetamaRing::with_n_servers(5, 160)),
        ];
        for d in &dists {
            for r in 1..=5 {
                for k in &ks {
                    let reps = d.replicas_for(k.as_bytes(), r);
                    assert_eq!(reps.len(), r);
                    assert_eq!(reps[0], d.server_for(k.as_bytes()));
                    let mut uniq = reps.clone();
                    uniq.sort_unstable();
                    uniq.dedup();
                    assert_eq!(uniq.len(), r, "replica set has duplicates");
                }
            }
        }
        // Oversized r clamps to the pool.
        let d = KetamaRing::with_n_servers(3, 160);
        assert_eq!(d.replicas_for(b"k", 10).len(), 3);
    }

    #[test]
    fn ketama_failover_spreads_over_many_successors() {
        // The load-concentration half of the index-adjacency bug: with
        // `(primary + 1) % n`, every key of a dead primary fails over to
        // the same server. The ring walk must spread them widely.
        let d = KetamaRing::with_n_servers(8, 160);
        let ks = keys(4000);
        let mut followers_of_0 = std::collections::HashSet::new();
        for k in &ks {
            let reps = d.replicas_for(k.as_bytes(), 2);
            if reps[0] == ServerId(0) {
                followers_of_0.insert(reps[1]);
            }
        }
        assert!(
            followers_of_0.len() >= 5,
            "server 0's keys fail over to only {} servers",
            followers_of_0.len()
        );
    }

    #[test]
    fn ketama_replica_sets_stay_put_when_the_cluster_grows() {
        // The placement-stability half: growing 8 -> 9 servers must not
        // churn the replica set of a key whose primary did not move,
        // except where the *new* server legitimately takes over a
        // successor slot. Index-adjacency fails this: the follower index
        // changes without the new server being involved at all.
        let before = KetamaRing::with_n_servers(8, 160);
        let after = KetamaRing::with_n_servers(9, 160);
        let new_server = ServerId(8);
        let ks = keys(5000);
        let mut stable_primary = 0usize;
        let mut churned = 0usize;
        for k in &ks {
            let old = before.replicas_for(k.as_bytes(), 2);
            let new = after.replicas_for(k.as_bytes(), 2);
            if old[0] != new[0] {
                continue; // primary moved; replica change is expected
            }
            stable_primary += 1;
            if old != new {
                churned += 1;
                // Any change must be explained by the new server joining
                // the successor window — never a reshuffle of old servers.
                assert!(
                    new.contains(&new_server),
                    "replica set of {k} changed ({old:?} -> {new:?}) without \
                     involving the new server"
                );
            }
        }
        let frac = churned as f64 / stable_primary as f64;
        assert!(
            frac < 0.25,
            "grow churned {:.0}% of stable-primary replica sets",
            frac * 100.0
        );
    }

    #[test]
    fn with_members_matches_with_n_servers_for_contiguous_ids() {
        // The elastic-membership invariant: finishing a transition must
        // leave placement identical to a fresh ring over the survivors.
        let contiguous = KetamaRing::with_n_servers(6, 160);
        let members = KetamaRing::with_members(&[0, 1, 2, 3, 4, 5], 160);
        assert_eq!(contiguous.n_points(), members.n_points());
        for k in keys(2000) {
            assert_eq!(
                contiguous.server_for(k.as_bytes()),
                members.server_for(k.as_bytes())
            );
            assert_eq!(
                contiguous.replicas_for(k.as_bytes(), 3),
                members.replicas_for(k.as_bytes(), 3)
            );
        }
    }

    #[test]
    fn sparse_membership_routes_only_to_members() {
        let d = KetamaRing::with_members(&[0, 2, 5, 7], 160);
        assert_eq!(d.n_servers(), 8, "slot table spans the highest id");
        let members = [ServerId(0), ServerId(2), ServerId(5), ServerId(7)];
        for k in keys(2000) {
            let reps = d.replicas_for(k.as_bytes(), 3);
            assert_eq!(reps.len(), 3);
            for sid in &reps {
                assert!(members.contains(sid), "{sid:?} is not a member");
            }
        }
        // Replica clamp follows the member count, not the slot table.
        assert_eq!(d.replicas_for(b"k", 10).len(), 4);
    }

    #[test]
    fn dropping_a_member_moves_only_its_keys() {
        // Draining server 2 from {0,1,2,3}: keys whose home set did not
        // include 2 must not move at all.
        let before = KetamaRing::with_members(&[0, 1, 2, 3], 160);
        let after = KetamaRing::with_members(&[0, 1, 3], 160);
        for k in keys(3000) {
            let old = before.replicas_for(k.as_bytes(), 2);
            let new = after.replicas_for(k.as_bytes(), 2);
            if !old.contains(&ServerId(2)) {
                assert_eq!(old, new, "key {k} moved without involving the leaver");
            } else {
                assert!(!new.contains(&ServerId(2)));
            }
        }
    }

    #[test]
    fn single_server_takes_everything() {
        let m = ModuloRing::new(1);
        let k = KetamaRing::with_n_servers(1, 16);
        for key in keys(50) {
            assert_eq!(m.server_for(key.as_bytes()), ServerId(0));
            assert_eq!(k.server_for(key.as_bytes()), ServerId(0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        ModuloRing::new(0);
    }
}
