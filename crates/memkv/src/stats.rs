//! Lock-free statistics counters for a [`crate::Store`] plus the serving
//! counters of the evented server engine ([`ServerStats`]).
//!
//! The paper's evaluation repeatedly reasons from these numbers: "Memcached
//! is reported to perform better for get rather than set" (§4.1) and the
//! memory-balance comparisons of Figure 9 / Table 3. Counters are plain
//! relaxed atomics — they are monotonic tallies, not synchronization.

use std::sync::atomic::{AtomicU64, Ordering};

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
}

/// Serving-layer counters for one evented [`crate::net::KvServer`]:
/// connection census and wire traffic. Store-level counters (hits,
/// occupancy) stay in
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
    /// Connections closed by the idle timeout.
    pub(crate) idle_closed: AtomicU64,
}

impl ServerStats {
    /// Take a point-in-time copy.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            total_connections: self.total_connections.load(Ordering::Relaxed),
            rejected_connections: self.rejected_connections.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
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
}
