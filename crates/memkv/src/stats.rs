//! Lock-free statistics counters for a [`crate::Store`] plus the serving
//! counters of the evented server engine ([`ServerStats`]).
//!
//! The paper's evaluation repeatedly reasons from these numbers: "Memcached
//! is reported to perform better for get rather than set" (§4.1) and the
//! memory-balance comparisons of Figure 9 / Table 3. Counters are plain
//! relaxed atomics — they are monotonic tallies, not synchronization.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Monotonic operation counters plus current occupancy gauges.
#[derive(Debug, Default)]
pub struct StoreStats {
    pub(crate) get_ops: AtomicU64,
    pub(crate) get_hits: AtomicU64,
    /// Batched multi-get *requests* (each also bumps `get_ops` once per
    /// key, so `get_misses = get_ops - get_hits` stays well-defined).
    pub(crate) mget_ops: AtomicU64,
    /// `getrange` requests (each also bumps `get_ops`, and `get_hits` on
    /// a hit) and the bytes their replies carried — the fine-grain read
    /// traffic, next to the whole values `bytes_read` counts.
    pub(crate) getrange_ops: AtomicU64,
    pub(crate) getrange_bytes: AtomicU64,
    pub(crate) set_ops: AtomicU64,
    pub(crate) add_ops: AtomicU64,
    pub(crate) append_ops: AtomicU64,
    pub(crate) delete_ops: AtomicU64,
    pub(crate) cas_ops: AtomicU64,
    pub(crate) cas_misses: AtomicU64,
    pub(crate) evictions: AtomicU64,
    /// Items reclaimed because their TTL had passed (lazily by a
    /// colliding writer or in bulk by [`crate::Store::maintain`]).
    pub(crate) expired: AtomicU64,
    /// Background maintenance passes run ([`crate::Store::maintain`]).
    pub(crate) sweeps: AtomicU64,
    pub(crate) bytes_used: AtomicU64,
    pub(crate) item_count: AtomicU64,
    pub(crate) bytes_written: AtomicU64,
    pub(crate) bytes_read: AtomicU64,
}

/// A point-in-time copy of the counters, cheap to pass around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub get_ops: u64,
    pub get_hits: u64,
    /// Batched multi-get requests served (one per `get k1 k2 …` frame).
    pub mget_ops: u64,
    /// Ranged reads served (`getrange` frames).
    pub getrange_ops: u64,
    /// Payload bytes those ranged reads returned.
    pub getrange_bytes: u64,
    pub set_ops: u64,
    pub add_ops: u64,
    pub append_ops: u64,
    pub delete_ops: u64,
    pub cas_ops: u64,
    pub cas_misses: u64,
    pub evictions: u64,
    /// Items reaped after their TTL passed.
    pub expired: u64,
    /// Background maintenance passes run.
    pub sweeps: u64,
    pub bytes_used: u64,
    pub item_count: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
}

impl StoreStats {
    /// Take a consistent-enough snapshot (each counter individually exact).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            get_ops: self.get_ops.load(Ordering::Relaxed),
            get_hits: self.get_hits.load(Ordering::Relaxed),
            mget_ops: self.mget_ops.load(Ordering::Relaxed),
            getrange_ops: self.getrange_ops.load(Ordering::Relaxed),
            getrange_bytes: self.getrange_bytes.load(Ordering::Relaxed),
            set_ops: self.set_ops.load(Ordering::Relaxed),
            add_ops: self.add_ops.load(Ordering::Relaxed),
            append_ops: self.append_ops.load(Ordering::Relaxed),
            delete_ops: self.delete_ops.load(Ordering::Relaxed),
            cas_ops: self.cas_ops.load(Ordering::Relaxed),
            cas_misses: self.cas_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
            bytes_used: self.bytes_used.load(Ordering::Relaxed),
            item_count: self.item_count.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn sub(counter: &AtomicU64, n: u64) {
        counter.fetch_sub(n, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Fraction of `get` operations that found their key (1.0 when no gets
    /// have happened — "nothing missed yet").
    pub fn hit_rate(&self) -> f64 {
        if self.get_ops == 0 {
            1.0
        } else {
            self.get_hits as f64 / self.get_ops as f64
        }
    }

    /// All mutation operations combined.
    pub fn total_writes(&self) -> u64 {
        self.set_ops + self.add_ops + self.append_ops + self.cas_ops
    }
}

/// Cap on distinct tenants tracked per server; traffic beyond it is
/// charged to the `~other` bucket so a key-space scan cannot balloon the
/// stats map.
const MAX_TENANTS: usize = 64;

/// Serving-layer counters for one evented [`crate::net::KvServer`]:
/// connection census, wire traffic, and per-tenant operation tallies.
/// Store-level counters (hits, evictions, occupancy) stay in
/// [`StoreStats`] — a server snapshot complements, not replaces, the
/// store's.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Currently open connections (gauge).
    pub(crate) connections: AtomicU64,
    /// Connections accepted and registered over the server's lifetime.
    pub(crate) total_connections: AtomicU64,
    /// Connections shed at the `max_connections` cap.
    pub(crate) rejected_connections: AtomicU64,
    /// Requests executed (every verb, including `stats` itself).
    pub(crate) ops: AtomicU64,
    /// Response bytes written to sockets.
    pub(crate) bytes_tx: AtomicU64,
    /// Request bytes read from sockets.
    pub(crate) bytes_rx: AtomicU64,
    /// Connections closed by the idle-timeout wheel.
    pub(crate) idle_closed: AtomicU64,
    /// Ops per tenant. The tenant of a request is its first key's prefix
    /// up to the first `:` (memfs stripe keys look like `s:/path#n`, so
    /// every mount's files share the `s` tenant; benchmarks and
    /// multi-tenant deployments get real separation by prefixing keys).
    tenants: Mutex<HashMap<Box<[u8]>, u64>>,
}

impl ServerStats {
    /// Charge one executed op against `key`'s tenant.
    pub(crate) fn charge_tenant(&self, key: &[u8]) {
        let tenant = match key.iter().position(|&b| b == b':') {
            Some(i) => &key[..i],
            None => b"-".as_slice(),
        };
        let mut tenants = self.tenants.lock();
        if let Some(count) = tenants.get_mut(tenant) {
            *count += 1;
        } else if tenants.len() < MAX_TENANTS {
            tenants.insert(tenant.into(), 1);
        } else {
            *tenants.entry(b"~other".as_slice().into()).or_insert(0) += 1;
        }
    }

    /// Take a point-in-time copy; tenant tallies come out sorted by name
    /// so snapshots render deterministically.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        let mut tenant_ops: Vec<(String, u64)> = self
            .tenants
            .lock()
            .iter()
            .map(|(k, &v)| (String::from_utf8_lossy(k).into_owned(), v))
            .collect();
        tenant_ops.sort();
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            total_connections: self.total_connections.load(Ordering::Relaxed),
            rejected_connections: self.rejected_connections.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            tenant_ops,
        }
    }
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    pub connections: u64,
    pub total_connections: u64,
    pub rejected_connections: u64,
    pub ops: u64,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    pub idle_closed: u64,
    /// `(tenant, ops)` sorted by tenant name.
    pub tenant_ops: Vec<(String, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = StoreStats::default();
        StoreStats::bump(&s.get_ops);
        StoreStats::bump(&s.get_ops);
        StoreStats::bump(&s.get_hits);
        StoreStats::add(&s.bytes_used, 100);
        StoreStats::sub(&s.bytes_used, 40);
        let snap = s.snapshot();
        assert_eq!(snap.get_ops, 2);
        assert_eq!(snap.get_hits, 1);
        assert_eq!(snap.bytes_used, 60);
        assert!((snap.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_empty_is_one() {
        assert_eq!(StatsSnapshot::default().hit_rate(), 1.0);
    }

    #[test]
    fn total_writes_sums_mutations() {
        let snap = StatsSnapshot {
            set_ops: 1,
            add_ops: 2,
            append_ops: 3,
            cas_ops: 4,
            ..Default::default()
        };
        assert_eq!(snap.total_writes(), 10);
    }

    #[test]
    fn tenant_charges_split_on_colon_and_cap_to_other() {
        let s = ServerStats::default();
        s.charge_tenant(b"s:/file#0");
        s.charge_tenant(b"s:/file#1");
        s.charge_tenant(b"acct9:/x");
        s.charge_tenant(b"nocolon");
        // Overflow past the tenant cap lands in `~other`, not the map.
        for i in 0..(MAX_TENANTS * 2) {
            s.charge_tenant(format!("t{i}:/k").as_bytes());
        }
        let snap = s.snapshot();
        let find = |name: &str| {
            snap.tenant_ops
                .iter()
                .find(|(t, _)| t == name)
                .map(|&(_, n)| n)
        };
        assert_eq!(find("s"), Some(2));
        assert_eq!(find("acct9"), Some(1));
        assert_eq!(find("-"), Some(1), "colonless keys charge the `-` tenant");
        assert!(find("~other").unwrap_or(0) >= MAX_TENANTS as u64);
        assert!(snap.tenant_ops.len() <= MAX_TENANTS + 1);
        let total: u64 = snap.tenant_ops.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 4 + (MAX_TENANTS as u64 * 2));
    }
}
