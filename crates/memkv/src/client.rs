//! Client-side access abstraction.
//!
//! MemFS programs against [`KvClient`], mirroring the role Libmemcached
//! plays in the paper: the client owns data placement, the servers are
//! passive. Implementations:
//!
//! * [`LocalClient`] — direct in-process calls into a [`Store`] (a MemFS
//!   node talking to the server in its own DRAM);
//! * [`ThrottledClient`] — wraps any client with a real-time latency and
//!   bandwidth shaper, so single-machine benchmarks reproduce the *shape*
//!   of remote-server behaviour (used for the Figure 3 experiments);
//! * [`crate::net::TcpClient`] — the memcached text protocol over TCP, for
//!   genuinely distributed deployments.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::KvResult;
use crate::proto::slice_range;
use crate::store::Store;

/// A batched operation that may still be in flight.
///
/// Returned by the `start_*` methods on [`KvClient`]: the submission half
/// has already run (for an evented transport the requests are on the
/// wire), and [`Deferred::wait`] blocks only for the completion half.
/// This is what lets one caller thread keep batches in flight on every
/// server of a pool simultaneously — submit to all, then wait.
///
/// Transports without a split submit path run eagerly and return
/// [`Deferred::Ready`]; callers cannot tell the difference, they just get
/// no overlap.
pub enum Deferred<T> {
    /// The operation already completed (eager transports).
    Ready(KvResult<Vec<KvResult<T>>>),
    /// In flight with a readiness probe: `ready` answers "has this
    /// completed?" without blocking or consuming, `finish` blocks for the
    /// result. Lets a sliding-window driver settle completions in
    /// *arrival* order across servers instead of submission order.
    Polled {
        /// Non-blocking completion probe.
        ready: Box<dyn Fn() -> bool + Send>,
        /// Blocks until the batch completes.
        finish: Box<dyn FnOnce() -> KvResult<Vec<KvResult<T>>> + Send>,
    },
}

impl<T> Deferred<T> {
    /// Block until the batch completes and return its per-key results.
    pub fn wait(self) -> KvResult<Vec<KvResult<T>>> {
        match self {
            Deferred::Ready(result) => result,
            Deferred::Polled { finish, .. } => finish(),
        }
    }

    /// Whether [`Deferred::wait`] would return without blocking.
    pub fn is_ready(&self) -> bool {
        match self {
            Deferred::Ready(_) => true,
            Deferred::Polled { ready, .. } => ready(),
        }
    }
}

/// A client's current liveness view of its storage server — the unit of
/// the failure-detection census the repair planner queries.
///
/// For the evented TCP transport this is derived from the reactor's
/// per-connection link state machine (Down/Connecting/Up) kept fresh by
/// traffic and by wheel-armed heartbeat probes; for in-process transports
/// it is always [`ServerHealth::Up`] unless a test wrapper injects
/// failure. `Down` is a *view*, not ground truth: a server is `Down` when
/// no connection to it is currently established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerHealth {
    /// Every pooled connection is established.
    Up,
    /// Some connections are established, some are not (flapping link,
    /// partial reconnect after a restart).
    Degraded,
    /// No connection is established.
    Down,
}

impl ServerHealth {
    /// Whether the server is reachable at all (Up or Degraded).
    pub fn is_alive(self) -> bool {
        !matches!(self, ServerHealth::Down)
    }
}

/// Which storage command a [`KvClient::start_store_many`] batch carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreVerb {
    /// [`KvClient::set`]: store, replacing any existing value.
    Set,
    /// [`KvClient::add`]: store only if absent (else an inner `Exists`).
    Add,
    /// [`KvClient::append`]: extend a value (inner `NotFound` if missing).
    Append,
}

/// The operations MemFS needs from a storage server. All methods are
/// `&self` and implementations must be thread-safe: the write-buffer and
/// prefetch pools issue concurrent requests.
pub trait KvClient: Send + Sync {
    /// Store a value, replacing any existing one.
    fn set(&self, key: &[u8], value: Bytes) -> KvResult<()>;
    /// Store a value only if absent.
    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()>;
    /// Fetch a value.
    fn get(&self, key: &[u8]) -> KvResult<Bytes>;
    /// Atomically append to an existing value.
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()>;
    /// Remove a key.
    fn delete(&self, key: &[u8]) -> KvResult<()>;
    /// Fetch several keys in one round trip, returning one result per key
    /// in request order. The outer `Err` is a transport-level failure (no
    /// per-key information); per-key misses surface as inner
    /// [`KvError::NotFound`](crate::error::KvError::NotFound).
    ///
    /// Keys travel as [`Bytes`] so the fan-out dispatcher's per-server
    /// batches are assembled by reference-count bumps, never key copies.
    ///
    /// Provided: [`KvClient::start_get_many`] is the half a transport
    /// overrides; this is always that call, waited on.
    fn get_many(&self, keys: &[Bytes]) -> KvResult<Vec<KvResult<Bytes>>> {
        self.start_get_many(keys).wait()
    }
    /// Store several key/value pairs, returning one result per pair in
    /// request order. Same error split as [`KvClient::get_many`];
    /// provided over [`KvClient::start_store_many`].
    fn set_many(&self, items: &[(Bytes, Bytes)]) -> KvResult<Vec<KvResult<()>>> {
        self.start_store_many(StoreVerb::Set, items).wait()
    }
    /// Remove several keys in one round trip, returning one result per key
    /// in request order. Same error split as [`KvClient::get_many`];
    /// per-key misses surface as inner
    /// [`KvError::NotFound`](crate::error::KvError::NotFound). Provided
    /// over [`KvClient::start_delete_many`].
    fn delete_many(&self, keys: &[Bytes]) -> KvResult<Vec<KvResult<()>>> {
        self.start_delete_many(keys).wait()
    }
    /// Whether a key exists (no read traffic accounted).
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_ok()
    }
    /// Begin a [`KvClient::get_many`] — the one batched surface a
    /// transport overrides. The default loops over [`KvClient::get`]
    /// eagerly; batching transports override it ([`LocalClient`]
    /// dispatches one engine batch) and evented ones put the batch on the
    /// wire and return without blocking ([`crate::net::TcpClient`] sends
    /// pipelined multi-key `get` frames).
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        Deferred::Ready(Ok(keys.iter().map(|k| self.get(k)).collect()))
    }
    /// Begin a batch of `verb` commands, one per `(key, value)` item — a
    /// [`KvClient::set_many`], or an `add` / `append` a caller wants on
    /// the wire without waiting for it. Same contract as
    /// [`KvClient::start_get_many`], per-item outcomes as the verb's
    /// blocking method reports them. The default loops over that method;
    /// pipelining transports write every frame before reading any reply,
    /// and a wrapper must forward this call or the overlap is lost.
    fn start_store_many(&self, verb: StoreVerb, items: &[(Bytes, Bytes)]) -> Deferred<()> {
        Deferred::Ready(Ok(items
            .iter()
            .map(|(k, v)| match verb {
                StoreVerb::Set => self.set(k, v.clone()),
                StoreVerb::Add => self.add(k, v.clone()),
                StoreVerb::Append => self.append(k, v),
            })
            .collect()))
    }
    /// Begin a [`KvClient::delete_many`]; same contract as
    /// [`KvClient::start_get_many`]. The default loops over
    /// [`KvClient::delete`]; pipelining transports override it — freeing a
    /// striped file's stripes should not cost one round trip each.
    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
        Deferred::Ready(Ok(keys.iter().map(|k| self.delete(k)).collect()))
    }
    /// Begin a batch of *ranged* reads: for each `(key, offset, len)`, the
    /// `len` bytes of `key`'s value from `offset`, both clamped to the
    /// value (so a range past the end reads empty); a missing key is an
    /// inner [`KvError::NotFound`](crate::error::KvError::NotFound).
    /// Results pair with requests by position — two ranges of one key may
    /// share a batch. Same error split and deferral contract as
    /// [`KvClient::start_get_many`].
    ///
    /// The default fetches each value whole and slices it here, so every
    /// client is correct without knowing the `getrange` verb; a transport
    /// that has it ([`crate::net::TcpClient`]) moves only the range, and a
    /// wrapper must forward this call or that saving is lost behind the
    /// default.
    fn start_get_range_many(&self, reqs: &[(Bytes, u64, usize)]) -> Deferred<Bytes> {
        Deferred::Ready(Ok(reqs
            .iter()
            .map(|(key, offset, len)| Ok(slice_range(&self.get(key)?, *offset, *len)))
            .collect()))
    }
    /// Enumerate every key on the server — needed by the elastic
    /// rebalancer. Default: unsupported (transports without the `keys`
    /// protocol extension).
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        Err(crate::error::KvError::Protocol(
            "key enumeration not supported by this client".into(),
        ))
    }
    /// Counters of the reactor driving this client's connections, if it
    /// has one. Clients sharing a reactor return snapshots with the same
    /// [`ReactorStatsSnapshot::reactor_id`]
    /// ([`crate::reactor::ReactorStatsSnapshot`]); aggregators dedup on
    /// it. Default: `None` (in-process transports have no reactor).
    fn reactor_stats(&self) -> Option<crate::reactor::ReactorStatsSnapshot> {
        None
    }
    /// This client's liveness view of its server (see [`ServerHealth`]).
    /// Default: always `Up` — in-process transports cannot lose their
    /// server. The TCP client reports the reactor's link census.
    fn health(&self) -> ServerHealth {
        ServerHealth::Up
    }
}

/// Direct in-process access to a [`Store`].
#[derive(Clone)]
pub struct LocalClient {
    store: Arc<Store>,
}

impl LocalClient {
    /// Wrap a shared store.
    pub fn new(store: Arc<Store>) -> Self {
        LocalClient { store }
    }

    /// The underlying store (for stats inspection in tests/benches).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }
}

impl KvClient for LocalClient {
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        Ok(self
            .store
            .keys()
            .into_iter()
            .map(|k| k.into_vec())
            .collect())
    }

    fn set(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.store.set(key, value)
    }
    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.store.add(key, value)
    }
    fn get(&self, key: &[u8]) -> KvResult<Bytes> {
        self.store.get(key)
    }
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        Deferred::Ready(Ok(self.store.get_many(keys)))
    }
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        self.store.append(key, suffix)
    }
    fn delete(&self, key: &[u8]) -> KvResult<()> {
        self.store.delete(key)
    }
    fn contains(&self, key: &[u8]) -> bool {
        self.store.contains(key)
    }
}

/// Wall-clock traffic shaping parameters for [`ThrottledClient`].
#[derive(Debug, Clone, Copy)]
pub struct Shaping {
    /// Fixed cost added to every request (round-trip latency).
    pub latency: Duration,
    /// Payload bandwidth in bytes per second (`f64::INFINITY` disables).
    pub bandwidth: f64,
}

impl Shaping {
    /// A profile resembling IP-over-InfiniBand: 60 µs RTT, 1 GB/s.
    pub fn ipoib_like() -> Self {
        Shaping {
            latency: Duration::from_micros(60),
            bandwidth: 1e9,
        }
    }

    /// A profile resembling gigabit Ethernet: 200 µs RTT, 117 MB/s.
    pub fn gbe_like() -> Self {
        Shaping {
            latency: Duration::from_micros(200),
            bandwidth: 117e6,
        }
    }
}

/// Adds real-time latency/bandwidth costs to an inner client by sleeping.
///
/// The delay model is per-request: `latency + payload / bandwidth`. This
/// yields the right *per-stream* behaviour for the single-machine design
/// experiments (stripe-size sweeps, buffering/prefetching thread scaling)
/// where the point is overlapping many shaped streams.
pub struct ThrottledClient<C> {
    inner: C,
    shaping: Shaping,
}

impl<C: KvClient> ThrottledClient<C> {
    /// Shape `inner` with `shaping`.
    pub fn new(inner: C, shaping: Shaping) -> Self {
        ThrottledClient { inner, shaping }
    }

    /// The wrapped client.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Shaped wall-clock cost of one round trip carrying `payload_bytes`.
    fn cost(&self, payload_bytes: usize) -> Duration {
        let mut d = self.shaping.latency;
        if self.shaping.bandwidth.is_finite() && self.shaping.bandwidth > 0.0 {
            d += Duration::from_secs_f64(payload_bytes as f64 / self.shaping.bandwidth);
        }
        d
    }

    fn delay(&self, payload_bytes: usize) {
        let d = self.cost(payload_bytes);
        if d > Duration::ZERO {
            precise_sleep(d);
        }
    }

    /// Build the deferred half of a shaped batch: the inner operation has
    /// already run (memory-speed for the intended [`LocalClient`] inner),
    /// the shaped cost is a wall-clock deadline. `ready` polls the clock;
    /// `finish` sleeps out the remainder. Because the deadline starts at
    /// submission, N servers' costs elapse concurrently — the fan-out
    /// pays `max(cost)`, not `sum(cost)`, exactly like real shaped links.
    fn shaped_deferred<T: Send + 'static>(
        &self,
        payload_bytes: usize,
        result: KvResult<Vec<KvResult<T>>>,
    ) -> Deferred<T> {
        let deadline = Instant::now() + self.cost(payload_bytes);
        Deferred::Polled {
            ready: Box::new(move || Instant::now() >= deadline),
            finish: Box::new(move || {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining > Duration::ZERO {
                    precise_sleep(remaining);
                }
                result
            }),
        }
    }
}

/// Bytes a batched read returned — what a shaped link charges for it.
fn payload_len(out: &KvResult<Vec<KvResult<Bytes>>>) -> usize {
    let hits = out.iter().flatten().flatten();
    hits.map(|value| value.len()).sum()
}

/// Sleep with sub-millisecond fidelity: OS sleep for the bulk, then spin
/// for the tail. OS timers routinely overshoot by ~50 µs, which would
/// swamp the microsecond-scale latencies being modelled.
fn precise_sleep(d: Duration) {
    let start = Instant::now();
    if d > Duration::from_micros(200) {
        std::thread::sleep(d - Duration::from_micros(150));
    }
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

impl<C: KvClient> KvClient for ThrottledClient<C> {
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        self.inner.scan_keys()
    }

    fn set(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.delay(value.len());
        self.inner.set(key, value)
    }
    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.delay(value.len());
        self.inner.add(key, value)
    }
    fn get(&self, key: &[u8]) -> KvResult<Bytes> {
        let out = self.inner.get(key);
        self.delay(out.as_ref().map(|v| v.len()).unwrap_or(0));
        out
    }
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        self.delay(suffix.len());
        self.inner.append(key, suffix)
    }
    fn delete(&self, key: &[u8]) -> KvResult<()> {
        self.delay(0);
        self.inner.delete(key)
    }
    fn contains(&self, key: &[u8]) -> bool {
        self.inner.contains(key)
    }
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        // One round trip for the whole batch: a single latency charge plus
        // bandwidth on the combined payload — the cost model that makes
        // batching worth doing over a shaped link.
        let out = self.inner.get_many(keys);
        self.shaped_deferred(payload_len(&out), out)
    }
    fn start_get_range_many(&self, reqs: &[(Bytes, u64, usize)]) -> Deferred<Bytes> {
        // Charged like `start_get_many`, on the bytes the ranges return —
        // not on the values they were cut from.
        let out = self.inner.start_get_range_many(reqs).wait();
        self.shaped_deferred(payload_len(&out), out)
    }
    fn start_store_many(&self, verb: StoreVerb, items: &[(Bytes, Bytes)]) -> Deferred<()> {
        let total: usize = items.iter().map(|(_, v)| v.len()).sum();
        let out = self.inner.start_store_many(verb, items).wait();
        self.shaped_deferred(total, out)
    }
    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
        // Deletes carry no payload: latency only.
        let out = self.inner.delete_many(keys);
        self.shaped_deferred(0, out)
    }
    fn reactor_stats(&self) -> Option<crate::reactor::ReactorStatsSnapshot> {
        self.inner.reactor_stats()
    }
    fn health(&self) -> ServerHealth {
        self.inner.health()
    }
}

/// A failure-injection wrapper: while marked down, every operation fails
/// with an I/O error, emulating a crashed or partitioned storage server.
/// Used by the fault-tolerance tests to exercise MemFS' replication path
/// (the paper defers fault tolerance to future work, §3.2.5; this crate
/// implements the replication option it sketches).
pub struct FailableClient<C> {
    inner: C,
    down: std::sync::atomic::AtomicBool,
}

impl<C: KvClient> FailableClient<C> {
    /// Wrap `inner`, initially up.
    pub fn new(inner: C) -> Self {
        FailableClient {
            inner,
            down: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Mark the server down (true) or back up (false).
    pub fn set_down(&self, down: bool) {
        self.down.store(down, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether the server is currently down.
    pub fn is_down(&self) -> bool {
        self.down.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn check(&self) -> KvResult<()> {
        if self.is_down() {
            Err(crate::error::KvError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "server down (injected failure)",
            )))
        } else {
            Ok(())
        }
    }
}

impl<C: KvClient> KvClient for FailableClient<C> {
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        self.check()?;
        self.inner.scan_keys()
    }

    fn set(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.check()?;
        self.inner.set(key, value)
    }
    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.check()?;
        self.inner.add(key, value)
    }
    fn get(&self, key: &[u8]) -> KvResult<Bytes> {
        self.check()?;
        self.inner.get(key)
    }
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        self.check()?;
        self.inner.append(key, suffix)
    }
    fn delete(&self, key: &[u8]) -> KvResult<()> {
        self.check()?;
        self.inner.delete(key)
    }
    fn contains(&self, key: &[u8]) -> bool {
        !self.is_down() && self.inner.contains(key)
    }
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        match self.check() {
            Ok(()) => self.inner.start_get_many(keys),
            Err(e) => Deferred::Ready(Err(e)),
        }
    }
    fn start_get_range_many(&self, reqs: &[(Bytes, u64, usize)]) -> Deferred<Bytes> {
        match self.check() {
            Ok(()) => self.inner.start_get_range_many(reqs),
            Err(e) => Deferred::Ready(Err(e)),
        }
    }
    fn start_store_many(&self, verb: StoreVerb, items: &[(Bytes, Bytes)]) -> Deferred<()> {
        match self.check() {
            Ok(()) => self.inner.start_store_many(verb, items),
            Err(e) => Deferred::Ready(Err(e)),
        }
    }
    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
        match self.check() {
            Ok(()) => self.inner.start_delete_many(keys),
            Err(e) => Deferred::Ready(Err(e)),
        }
    }
    fn reactor_stats(&self) -> Option<crate::reactor::ReactorStatsSnapshot> {
        self.inner.reactor_stats()
    }
    /// An injected failure is a dead server as far as the census is
    /// concerned — this is what lets repair-planner tests model failure
    /// detection without a TCP cluster.
    fn health(&self) -> ServerHealth {
        if self.is_down() {
            ServerHealth::Down
        } else {
            self.inner.health()
        }
    }
}

/// Blanket impls so `Arc<C>` and `&C` are clients too — MemFS holds its
/// server pool behind `Arc`s.
impl<C: KvClient + ?Sized> KvClient for Arc<C> {
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        (**self).scan_keys()
    }

    fn set(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        (**self).set(key, value)
    }
    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        (**self).add(key, value)
    }
    fn get(&self, key: &[u8]) -> KvResult<Bytes> {
        (**self).get(key)
    }
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        (**self).append(key, suffix)
    }
    fn delete(&self, key: &[u8]) -> KvResult<()> {
        (**self).delete(key)
    }
    fn contains(&self, key: &[u8]) -> bool {
        (**self).contains(key)
    }
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        (**self).start_get_many(keys)
    }
    fn start_get_range_many(&self, reqs: &[(Bytes, u64, usize)]) -> Deferred<Bytes> {
        (**self).start_get_range_many(reqs)
    }
    fn start_store_many(&self, verb: StoreVerb, items: &[(Bytes, Bytes)]) -> Deferred<()> {
        (**self).start_store_many(verb, items)
    }
    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
        (**self).start_delete_many(keys)
    }
    fn reactor_stats(&self) -> Option<crate::reactor::ReactorStatsSnapshot> {
        (**self).reactor_stats()
    }
    fn health(&self) -> ServerHealth {
        (**self).health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    fn local() -> LocalClient {
        LocalClient::new(Arc::new(Store::new(StoreConfig::default())))
    }

    #[test]
    fn local_client_round_trip() {
        let c = local();
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v");
        assert!(c.contains(b"k"));
        c.delete(b"k").unwrap();
        assert!(!c.contains(b"k"));
    }

    #[test]
    fn get_many_and_set_many_defaults() {
        let c = local();
        let items = vec![
            (Bytes::from_static(b"a"), Bytes::from_static(b"1")),
            (Bytes::from_static(b"b"), Bytes::from_static(b"2")),
        ];
        for r in c.set_many(&items).unwrap() {
            r.unwrap();
        }
        let out = c
            .get_many(&[
                Bytes::from_static(b"a"),
                Bytes::from_static(b"missing"),
                Bytes::from_static(b"b"),
            ])
            .unwrap();
        assert_eq!(out[0].as_ref().unwrap().as_ref(), b"1");
        assert!(out[1].is_err());
        assert_eq!(out[2].as_ref().unwrap().as_ref(), b"2");
        // LocalClient routes the batch through the engine's batched path.
        assert_eq!(c.store().stats().snapshot().mget_ops, 1);
    }

    #[test]
    fn delete_many_default_reports_per_key() {
        let c = local();
        c.set(b"a", Bytes::from_static(b"1")).unwrap();
        c.set(b"b", Bytes::from_static(b"2")).unwrap();
        let out = c
            .delete_many(&[
                Bytes::from_static(b"a"),
                Bytes::from_static(b"missing"),
                Bytes::from_static(b"b"),
            ])
            .unwrap();
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(crate::error::KvError::NotFound)));
        assert!(out[2].is_ok());
        assert!(!c.contains(b"a") && !c.contains(b"b"));
    }

    #[test]
    fn get_range_many_default_slices_whole_values() {
        // No transport support needed: the default is `get` + slice, with
        // results paired to requests by position.
        let c = local();
        c.set(b"k", Bytes::from_static(b"0123456789")).unwrap();
        let k = Bytes::from_static(b"k");
        let out = c
            .start_get_range_many(&[
                (k.clone(), 2, 3),
                (Bytes::from_static(b"missing"), 0, 4),
                (k.clone(), 8, 100),
                (k.clone(), 2, 3),
                (k, 50, 1),
            ])
            .wait()
            .unwrap();
        assert_eq!(out[0].as_ref().unwrap().as_ref(), b"234");
        assert!(matches!(out[1], Err(crate::error::KvError::NotFound)));
        assert_eq!(out[2].as_ref().unwrap().as_ref(), b"89");
        assert_eq!(out[3].as_ref().unwrap().as_ref(), b"234");
        assert_eq!(out[4].as_ref().unwrap().as_ref(), b"");
    }

    #[test]
    fn throttled_client_charges_the_range_not_the_value() {
        let shaped = ThrottledClient::new(
            local(),
            Shaping {
                latency: Duration::ZERO,
                bandwidth: 1e6, // 1 MB/s: the whole value would cost 1 s
            },
        );
        shaped
            .inner()
            .set(b"k", Bytes::from(vec![7u8; 1_000_000]))
            .unwrap();
        let start = Instant::now();
        let out = shaped
            .start_get_range_many(&[(Bytes::from_static(b"k"), 500_000, 20_000)])
            .wait()
            .unwrap();
        let took = start.elapsed();
        assert_eq!(out[0].as_ref().unwrap().len(), 20_000);
        assert!(took >= Duration::from_millis(19), "{took:?}"); // 20 ms
        assert!(took < Duration::from_millis(500), "{took:?}");
    }

    /// Counts how the storage verbs reach it: as batches through the
    /// `start_store_many` override, or one by one.
    struct CountingStores {
        inner: LocalClient,
        batches: std::sync::atomic::AtomicUsize,
        singles: std::sync::atomic::AtomicUsize,
    }

    impl CountingStores {
        fn single(&self) -> &LocalClient {
            self.singles
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            &self.inner
        }
    }

    impl KvClient for CountingStores {
        fn set(&self, key: &[u8], value: Bytes) -> KvResult<()> {
            self.single().set(key, value)
        }
        fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
            self.single().add(key, value)
        }
        fn get(&self, key: &[u8]) -> KvResult<Bytes> {
            self.inner.get(key)
        }
        fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
            self.single().append(key, suffix)
        }
        fn delete(&self, key: &[u8]) -> KvResult<()> {
            self.inner.delete(key)
        }
        fn start_store_many(&self, verb: StoreVerb, items: &[(Bytes, Bytes)]) -> Deferred<()> {
            self.batches
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.start_store_many(verb, items)
        }
    }

    #[test]
    fn every_wrapper_forwards_the_batched_store_call() {
        use crate::error::KvError;
        use std::sync::atomic::Ordering::SeqCst;
        // Behind `Arc<dyn KvClient>` an unforwarded `start_store_many`
        // would fall back to the eager default: one `add` per item, and
        // over a shaped link one latency charge per item.
        let inner = Arc::new(CountingStores {
            inner: local(),
            batches: Default::default(),
            singles: Default::default(),
        });
        let failable = Arc::new(FailableClient::new(Arc::clone(&inner)));
        let latency = Duration::from_millis(50);
        let shaping = Shaping {
            latency,
            bandwidth: f64::INFINITY,
        };
        let client: Arc<dyn KvClient> =
            Arc::new(ThrottledClient::new(Arc::clone(&failable), shaping));
        let item = |k: &'static str, v: &'static str| (Bytes::from(k), Bytes::from(v));

        let start = Instant::now();
        let adds = [
            item("a", "1"),
            item("b", "2"),
            item("a", "3"),
            item("c", "4"),
        ];
        let out = client
            .start_store_many(StoreVerb::Add, &adds)
            .wait()
            .unwrap();
        let took = start.elapsed();
        assert!(matches!(
            out[..],
            [Ok(()), Ok(()), Err(KvError::Exists), Ok(())]
        ));
        assert!(took >= latency, "{took:?}");
        assert!(took < 3 * latency, "one shaped delay per batch: {took:?}");

        let appends = [item("a", "+"), item("missing", "+"), item("b", "+")];
        let out = client
            .start_store_many(StoreVerb::Append, &appends)
            .wait()
            .unwrap();
        assert!(matches!(out[..], [Ok(()), Err(KvError::NotFound), Ok(())]));
        assert_eq!(client.get(b"a").unwrap().as_ref(), b"1+");
        assert!(!client.contains(b"missing"));
        assert_eq!(inner.batches.load(SeqCst), 2, "once per batch");
        assert_eq!(inner.singles.load(SeqCst), 0, "never once per item");

        failable.set_down(true);
        assert!(client
            .start_store_many(StoreVerb::Add, &adds)
            .wait()
            .is_err());
        assert!(client
            .start_store_many(StoreVerb::Append, &appends)
            .wait()
            .is_err());
        assert_eq!(inner.batches.load(SeqCst), 2, "a down server sees nothing");
    }

    #[test]
    fn failable_client_blocks_batches_too() {
        let c = FailableClient::new(local());
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        c.set_down(true);
        assert!(c.get_many(&[Bytes::from_static(b"k")]).is_err());
        assert!(c
            .start_get_range_many(&[(Bytes::from_static(b"k"), 0, 1)])
            .wait()
            .is_err());
        assert!(c
            .set_many(&[(Bytes::from_static(b"k"), Bytes::new())])
            .is_err());
    }

    #[test]
    fn arc_blanket_impl_works() {
        let c: Arc<dyn KvClient> = Arc::new(local());
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v");
    }

    #[test]
    fn throttled_client_adds_latency() {
        let shaped = ThrottledClient::new(
            local(),
            Shaping {
                latency: Duration::from_millis(2),
                bandwidth: f64::INFINITY,
            },
        );
        let start = Instant::now();
        shaped.set(b"k", Bytes::from_static(b"v")).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn throttled_client_charges_bandwidth() {
        let shaped = ThrottledClient::new(
            local(),
            Shaping {
                latency: Duration::ZERO,
                bandwidth: 1e6, // 1 MB/s
            },
        );
        let start = Instant::now();
        shaped.set(b"k", Bytes::from(vec![0u8; 10_000])).unwrap(); // 10 ms
        assert!(start.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn failable_client_toggles() {
        let c = FailableClient::new(local());
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        c.set_down(true);
        assert!(matches!(c.get(b"k"), Err(crate::error::KvError::Io(_))));
        assert!(matches!(
            c.set(b"x", Bytes::new()),
            Err(crate::error::KvError::Io(_))
        ));
        assert!(!c.contains(b"k"));
        c.set_down(false);
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v");
        assert!(c.contains(b"k"));
    }

    #[test]
    fn throttled_semantics_pass_through() {
        let shaped = ThrottledClient::new(
            local(),
            Shaping {
                latency: Duration::ZERO,
                bandwidth: f64::INFINITY,
            },
        );
        shaped.set(b"dir", Bytes::from_static(b"a")).unwrap();
        shaped.append(b"dir", b"b").unwrap();
        assert_eq!(shaped.get(b"dir").unwrap().as_ref(), b"ab");
        assert!(shaped.get(b"missing").is_err());
    }
}
