//! Client-side access abstraction.
//!
//! MemFS programs against [`KvClient`], mirroring the role Libmemcached
//! plays in the paper: the client owns data placement, the servers are
//! passive. A client has **one** way to reach its server,
//! [`KvClient::start`]: it takes one homogeneous [`Batch`] — keys to get,
//! ranges to read, items to store, keys to delete — puts it on the wire
//! and returns a [`Deferred`] the caller waits on when it needs the
//! replies. Everything else a caller can spell (`get`, `set`, `add`,
//! `append`, `delete`, `get_range`, `get_many`, `set_many`,
//! `delete_many`) is written once, on the trait, over that method — a
//! single-key call is a batch of one — so an implementation is `start`
//! plus whichever of the three side methods (`scan_keys`, `health`,
//! `reactor_stats`) it has something to say about. Implementations:
//!
//! * [`LocalClient`] — direct in-process calls into a [`Store`] (a MemFS
//!   node talking to the server in its own DRAM);
//! * [`ThrottledClient`] — wraps any client with a real-time latency and
//!   bandwidth shaper, so single-machine benchmarks reproduce the *shape*
//!   of remote-server behaviour (used for the Figure 3 experiments);
//! * [`FailableClient`] — wraps any client with an injected outage;
//! * [`crate::net::TcpClient`] — the memcached text protocol over TCP, for
//!   genuinely distributed deployments.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::{KvError, KvResult};
use crate::proto::slice_range;
use crate::store::Store;

/// A batch that may still be in flight.
///
/// Returned by [`KvClient::start`]: the submission half has already run
/// (for an evented transport the requests are on the wire), and
/// [`Deferred::wait`] blocks only for the completion half. This is what
/// lets one caller thread keep batches in flight on every server of a
/// pool simultaneously — submit to all, then wait.
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

/// Which storage command a [`Batch::Store`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreVerb {
    /// [`KvClient::set`]: store, replacing any existing value.
    Set,
    /// [`KvClient::add`]: store only if absent (else an inner `Exists`).
    Add,
    /// [`KvClient::append`]: extend a value (inner `NotFound` if missing).
    Append,
}

/// One homogeneous batch of requests for one server — the argument of
/// [`KvClient::start`]. Keys and values travel as [`Bytes`], so a pool
/// assembles its per-server batches by reference-count bumps, never
/// copies.
///
/// Every batch is answered with one result per entry, in request order: a
/// read's result is the bytes read, a store's or delete's
/// acknowledgement is an empty [`Bytes`]. The outer `Err` of the reply is
/// a transport-level failure (no per-entry information); what one entry
/// met is its inner result.
#[derive(Clone, Copy)]
pub enum Batch<'a> {
    /// Fetch each key's value; a missing key is an inner
    /// [`KvError::NotFound`].
    Get(&'a [Bytes]),
    /// For each `(key, offset, len)`, the `len` bytes of `key`'s value
    /// from `offset`, both clamped to the value (so a range past the end
    /// reads empty); a missing key is an inner [`KvError::NotFound`].
    /// Results pair with requests by position — two ranges of one key may
    /// share a batch.
    GetRange(&'a [(Bytes, u64, usize)]),
    /// Apply the verb to each `(key, value)` item. The verb's own refusal
    /// is the inner error: [`KvError::Exists`] for an `Add` of a present
    /// key, [`KvError::NotFound`] for an `Append` to a missing one.
    Store(StoreVerb, &'a [(Bytes, Bytes)]),
    /// Remove each key; a missing key is an inner [`KvError::NotFound`].
    Delete(&'a [Bytes]),
}

/// The reply to a [`Batch`]: a result per entry, or the transport's failure.
pub type Replies = KvResult<Vec<KvResult<Bytes>>>;

/// The reply to a batch of one.
fn only(reply: Deferred<Bytes>) -> KvResult<Bytes> {
    reply.wait()?.pop().expect("one reply per request")
}

/// Per-entry acknowledgements, with the empty payloads dropped.
fn acks(reply: Deferred<Bytes>) -> KvResult<Vec<KvResult<()>>> {
    let results = reply.wait()?;
    Ok(results.into_iter().map(|r| r.map(drop)).collect())
}

/// The operations MemFS needs from a storage server. All methods are
/// `&self` and implementations must be thread-safe: the write-buffer and
/// prefetch pools issue concurrent requests.
///
/// [`KvClient::start`] is the only method through which a request reaches
/// a store or a socket, and the only data method an implementation
/// writes; the blocking calls below it are provided over it and
/// `scripts/verify.sh` refuses an `impl` that overrides one.
pub trait KvClient: Send + Sync {
    /// Begin `batch`: submit it without waiting for the replies. An
    /// evented transport ([`crate::net::TcpClient`]) returns as soon as
    /// the frames are queued — pipelined on one connection, a `Get` packed
    /// into multi-key lines — and the caller overlaps batches to many
    /// servers by starting them all before waiting on any; an in-process
    /// one completes inside the call. See [`Batch`] for what each kind
    /// asks and how it is answered.
    fn start(&self, batch: Batch<'_>) -> Deferred<Bytes>;

    /// Fetch a value.
    fn get(&self, key: &[u8]) -> KvResult<Bytes> {
        only(self.start(Batch::Get(&[Bytes::copy_from_slice(key)])))
    }
    /// Fetch `len` bytes of a value from `offset`, clamped to the value.
    fn get_range(&self, key: &[u8], offset: u64, len: usize) -> KvResult<Bytes> {
        let range = (Bytes::copy_from_slice(key), offset, len);
        only(self.start(Batch::GetRange(&[range])))
    }
    /// Store a value, replacing any existing one.
    fn set(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        let item = (Bytes::copy_from_slice(key), value);
        only(self.start(Batch::Store(StoreVerb::Set, &[item]))).map(drop)
    }
    /// Store a value only if absent.
    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        let item = (Bytes::copy_from_slice(key), value);
        only(self.start(Batch::Store(StoreVerb::Add, &[item]))).map(drop)
    }
    /// Atomically append to an existing value.
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        let item = (Bytes::copy_from_slice(key), Bytes::copy_from_slice(suffix));
        only(self.start(Batch::Store(StoreVerb::Append, &[item]))).map(drop)
    }
    /// Remove a key.
    fn delete(&self, key: &[u8]) -> KvResult<()> {
        only(self.start(Batch::Delete(&[Bytes::copy_from_slice(key)]))).map(drop)
    }
    /// Fetch several keys in one round trip, returning one result per key
    /// in request order ([`Batch::Get`], waited on).
    fn get_many(&self, keys: &[Bytes]) -> Replies {
        self.start(Batch::Get(keys)).wait()
    }
    /// Store several key/value pairs, returning one result per pair in
    /// request order ([`Batch::Store`] with [`StoreVerb::Set`]).
    fn set_many(&self, items: &[(Bytes, Bytes)]) -> KvResult<Vec<KvResult<()>>> {
        acks(self.start(Batch::Store(StoreVerb::Set, items)))
    }
    /// Remove several keys in one round trip, returning one result per key
    /// in request order ([`Batch::Delete`]).
    fn delete_many(&self, keys: &[Bytes]) -> KvResult<Vec<KvResult<()>>> {
        acks(self.start(Batch::Delete(keys)))
    }

    /// Enumerate every key on the server — needed by the elastic
    /// rebalancer. Default: unsupported (transports without the `keys`
    /// protocol extension).
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        Err(KvError::Protocol(
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
    fn start(&self, batch: Batch<'_>) -> Deferred<Bytes> {
        let store = &self.store;
        let ack = |stored: KvResult<()>| stored.map(|()| Bytes::new());
        Deferred::Ready(Ok(match batch {
            // One key is a plain `get`, as on the server: only a real
            // batch counts as one (`mget_ops`).
            Batch::Get([key]) => vec![store.get(key)],
            Batch::Get(keys) => store.get_many(keys),
            Batch::GetRange(ranges) => ranges
                .iter()
                .map(|(key, offset, len)| Ok(slice_range(&store.get(key)?, *offset, *len)))
                .collect(),
            Batch::Store(verb, items) => items
                .iter()
                .map(|(key, value)| {
                    ack(match verb {
                        StoreVerb::Set => store.set(key, value.clone()),
                        StoreVerb::Add => store.add(key, value.clone()),
                        StoreVerb::Append => store.append(key, value),
                    })
                })
                .collect(),
            Batch::Delete(keys) => keys.iter().map(|key| ack(store.delete(key))).collect(),
        }))
    }

    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        Ok(self
            .store
            .keys()
            .into_iter()
            .map(|k| k.into_vec())
            .collect())
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
/// The delay model is per-batch: `latency + payload / bandwidth`, one
/// round trip however many requests ride in it — the cost model that
/// makes batching worth doing over a shaped link. This yields the right
/// *per-stream* behaviour for the single-machine design experiments
/// (stripe-size sweeps, buffering/prefetching thread scaling) where the
/// point is overlapping many shaped streams.
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
    /// The inner batch runs at once (memory-speed for the intended
    /// [`LocalClient`] inner); its shaped cost — one latency charge plus
    /// bandwidth on the payload sent and the payload that came back, so a
    /// ranged read pays for the range, not for the value it was cut from —
    /// is a wall-clock deadline counted from submission. `ready` polls the
    /// clock, `finish` sleeps out the remainder: N servers' costs elapse
    /// concurrently and a fan-out pays `max(cost)`, not `sum(cost)`,
    /// exactly like real shaped links.
    fn start(&self, batch: Batch<'_>) -> Deferred<Bytes> {
        let submitted = Instant::now();
        let sent: usize = match batch {
            Batch::Store(_, items) => items.iter().map(|(_, value)| value.len()).sum(),
            _ => 0,
        };
        let reply = self.inner.start(batch).wait();
        let received: usize = reply
            .iter()
            .flatten()
            .flatten()
            .map(|value| value.len())
            .sum();
        let deadline = submitted + self.cost(sent + received);
        Deferred::Polled {
            ready: Box::new(move || Instant::now() >= deadline),
            finish: Box::new(move || {
                precise_sleep(deadline.saturating_duration_since(Instant::now()));
                reply
            }),
        }
    }
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        self.inner.scan_keys()
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
            Err(KvError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "server down (injected failure)",
            )))
        } else {
            Ok(())
        }
    }
}

impl<C: KvClient> KvClient for FailableClient<C> {
    fn start(&self, batch: Batch<'_>) -> Deferred<Bytes> {
        match self.check() {
            Ok(()) => self.inner.start(batch),
            Err(e) => Deferred::Ready(Err(e)),
        }
    }
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        self.check()?;
        self.inner.scan_keys()
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

/// `Arc<C>` is a client too — MemFS holds its server pool behind `Arc`s.
impl<C: KvClient + ?Sized> KvClient for Arc<C> {
    fn start(&self, batch: Batch<'_>) -> Deferred<Bytes> {
        (**self).start(batch)
    }
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        (**self).scan_keys()
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
    use crate::net::{KvServer, TcpClient};
    use crate::store::StoreConfig;

    fn local() -> LocalClient {
        LocalClient::new(Arc::new(Store::new(StoreConfig::default())))
    }

    fn unshaped() -> Shaping {
        Shaping {
            latency: Duration::ZERO,
            bandwidth: f64::INFINITY,
        }
    }

    #[test]
    fn local_client_round_trip() {
        let c = local();
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v");
        assert_eq!(c.get_range(b"k", 0, 0).unwrap().as_ref(), b"");
        c.delete(b"k").unwrap();
        assert!(matches!(c.get(b"k"), Err(KvError::NotFound)));
        // One key is a plain `get` to the store, several are one batch.
        c.get_many(&[Bytes::from_static(b"a"), Bytes::from_static(b"b")])
            .unwrap();
        let stats = c.store().stats().snapshot();
        assert_eq!((stats.mget_ops, stats.get_ops), (1, 5));
    }

    /// A batch's reply with each entry reduced to what every transport
    /// must agree on: the bytes, or which refusal it was.
    fn outcomes(reply: Deferred<Bytes>) -> Vec<Result<Vec<u8>, String>> {
        let entry = |r: KvResult<Bytes>| match r {
            Ok(bytes) => Ok(bytes.to_vec()),
            Err(KvError::NotFound) => Err("NotFound".to_string()),
            Err(KvError::Exists) => Err("Exists".to_string()),
            Err(other) => Err(format!("{other:?}")),
        };
        let reply = reply.wait().expect("the transport is up");
        reply.into_iter().map(entry).collect()
    }

    fn hit(bytes: &str) -> Result<Vec<u8>, String> {
        Ok(bytes.as_bytes().to_vec())
    }

    fn refused(why: &str) -> Result<Vec<u8>, String> {
        Err(why.to_string())
    }

    /// The one script every client must answer identically, batch kind by
    /// batch kind, on an empty server.
    fn conforms(name: &str, c: &dyn KvClient) {
        let key = |k: &'static str| Bytes::from_static(k.as_bytes());
        let item = |k: &'static str, v: &'static str| (key(k), key(v));
        let ack = || hit("");

        let sets = [item("a", "1"), item("b", "0123456789")];
        let got = outcomes(c.start(Batch::Store(StoreVerb::Set, &sets)));
        assert_eq!(got, [ack(), ack()], "{name}: set");
        // `Add` on an existing key is the verb's own refusal, per item.
        let adds = [item("a", "x"), item("c", "3"), item("c", "4")];
        let got = outcomes(c.start(Batch::Store(StoreVerb::Add, &adds)));
        assert_eq!(
            got,
            [refused("Exists"), ack(), refused("Exists")],
            "{name}: add"
        );
        // So is `Append` on a missing one.
        let appends = [item("a", "+"), item("missing", "+"), item("a", "+")];
        let got = outcomes(c.start(Batch::Store(StoreVerb::Append, &appends)));
        assert_eq!(got, [ack(), refused("NotFound"), ack()], "{name}: append");

        // Hits, a miss, and a key asked twice in one `Get`.
        let got = outcomes(c.start(Batch::Get(&[key("a"), key("missing"), key("c"), key("a")])));
        let want = [hit("1++"), refused("NotFound"), hit("3"), hit("1++")];
        assert_eq!(got, want, "{name}: get");
        assert_eq!(
            outcomes(c.start(Batch::Get(&[key("b")]))),
            [hit("0123456789")]
        );
        let got = outcomes(c.start(Batch::Get(&[key("missing")])));
        assert_eq!(got, [refused("NotFound")], "{name}: lone miss");

        // Ranges pair with results by position and clamp at, and past,
        // the value's end; two ranges of one key share the batch.
        let ranges = [
            (key("b"), 2, 3),
            (key("missing"), 0, 4),
            (key("b"), 8, 100),
            (key("b"), 2, 3),
            (key("b"), 10, 5),
            (key("b"), 50, 1),
            (key("b"), 4, 0),
            (key("b"), 0, usize::MAX),
        ];
        let got = outcomes(c.start(Batch::GetRange(&ranges)));
        let want = [
            hit("234"),
            refused("NotFound"),
            hit("89"),
            hit("234"),
            hit(""),
            hit(""),
            hit(""),
            hit("0123456789"),
        ];
        assert_eq!(got, want, "{name}: getrange");

        let got = outcomes(c.start(Batch::Delete(&[key("a"), key("missing"), key("c")])));
        assert_eq!(got, [ack(), refused("NotFound"), ack()], "{name}: delete");
        assert_eq!(
            outcomes(c.start(Batch::Get(&[key("a"), key("c")]))).len(),
            2
        );

        // An empty batch of any kind is answered with no entries.
        for empty in [
            Batch::Get(&[]),
            Batch::GetRange(&[]),
            Batch::Store(StoreVerb::Set, &[]),
            Batch::Delete(&[]),
        ] {
            assert!(outcomes(c.start(empty)).is_empty(), "{name}: empty batch");
        }

        // The provided calls are those batches: one entry, or waited on.
        c.set(b"p", key("v")).unwrap();
        assert!(matches!(c.add(b"p", key("w")), Err(KvError::Exists)));
        assert!(matches!(c.append(b"q", b"+"), Err(KvError::NotFound)));
        c.append(b"p", b"+").unwrap();
        assert_eq!(c.get(b"p").unwrap().as_ref(), b"v+", "{name}");
        assert_eq!(c.get_range(b"p", 1, 9).unwrap().as_ref(), b"+", "{name}");
        assert!(matches!(c.get_range(b"q", 0, 1), Err(KvError::NotFound)));
        let stored = c.set_many(&[item("q", "1"), item("r", "2")]).unwrap();
        assert!(matches!(stored[..], [Ok(()), Ok(())]), "{name}");
        let got = c.get_many(&[key("r"), key("s"), key("q")]).unwrap();
        assert!(matches!(got[1], Err(KvError::NotFound)), "{name}");
        assert_eq!(got[0].as_ref().unwrap().as_ref(), b"2", "{name}");
        assert_eq!(got[2].as_ref().unwrap().as_ref(), b"1", "{name}");
        let gone = c.delete_many(&[key("q"), key("s"), key("r")]).unwrap();
        assert!(matches!(gone[..], [Ok(()), Err(KvError::NotFound), Ok(())]));
        c.delete(b"p").unwrap();
        assert!(matches!(c.delete(b"p"), Err(KvError::NotFound)), "{name}");
        assert!(matches!(c.get(b"p"), Err(KvError::NotFound)), "{name}");
        assert_eq!(c.health(), ServerHealth::Up, "{name}");
    }

    #[test]
    fn every_client_answers_every_batch_kind_alike() {
        conforms("local", &local());
        conforms("throttled", &ThrottledClient::new(local(), unshaped()));
        conforms("failable", &FailableClient::new(local()));
        let shared: Arc<dyn KvClient> = Arc::new(local());
        conforms("arc<dyn>", &shared);
        let store = Arc::new(Store::new(StoreConfig::default()));
        let server = KvServer::spawn(store, "127.0.0.1:0").unwrap();
        conforms("tcp", &TcpClient::connect(server.addr()).unwrap());

        // A down server answers no kind at all, and says so to the census.
        let inner = Arc::new(local());
        let failable = FailableClient::new(Arc::clone(&inner));
        failable.set_down(true);
        let (keys, ranges) = (
            [Bytes::from_static(b"k")],
            [(Bytes::from_static(b"k"), 0, 1)],
        );
        let items = [(Bytes::from_static(b"k"), Bytes::new())];
        for batch in [
            Batch::Get(&keys),
            Batch::GetRange(&ranges),
            Batch::Store(StoreVerb::Set, &items),
            Batch::Store(StoreVerb::Add, &items),
            Batch::Store(StoreVerb::Append, &items),
            Batch::Delete(&keys),
        ] {
            assert!(matches!(failable.start(batch).wait(), Err(KvError::Io(_))));
        }
        assert_eq!(failable.health(), ServerHealth::Down);
        assert_eq!(inner.store().item_count(), 0, "a down server sees nothing");

        // A shaped link charges one latency per batch, however many items
        // ride in it...
        let latency = Duration::from_millis(50);
        let shaping = Shaping {
            latency,
            bandwidth: f64::INFINITY,
        };
        let shaped: Arc<dyn KvClient> = Arc::new(ThrottledClient::new(local(), shaping));
        let adds: Vec<(Bytes, Bytes)> = (0..4)
            .map(|i| (Bytes::from(format!("k{i}")), Bytes::new()))
            .collect();
        let start = Instant::now();
        shaped
            .start(Batch::Store(StoreVerb::Add, &adds))
            .wait()
            .unwrap();
        let took = start.elapsed();
        assert!(took >= latency && took < 3 * latency, "{took:?}");
        // ...and a ranged read for the range, not for the value.
        let shaping = Shaping {
            latency: Duration::ZERO,
            bandwidth: 1e6, // 1 MB/s: the whole value would cost 1 s
        };
        let shaped = ThrottledClient::new(local(), shaping);
        let value = Bytes::from(vec![7u8; 1_000_000]);
        shaped.inner().set(b"k", value).unwrap();
        let start = Instant::now();
        let out = shaped.get_range(b"k", 500_000, 20_000).unwrap();
        let took = start.elapsed();
        assert_eq!(out.len(), 20_000);
        assert!(took >= Duration::from_millis(19), "{took:?}"); // 20 ms
        assert!(took < Duration::from_millis(500), "{took:?}");
    }

    #[test]
    fn failable_client_blocks_batches_too() {
        let c = FailableClient::new(local());
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        c.set_down(true);
        assert!(c.get_many(&[Bytes::from_static(b"k")]).is_err());
        assert!(c.get_range(b"k", 0, 1).is_err());
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
        assert!(matches!(c.get(b"k"), Err(KvError::Io(_))));
        assert!(matches!(c.set(b"x", Bytes::new()), Err(KvError::Io(_))));
        c.set_down(false);
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v");
    }

    #[test]
    fn throttled_semantics_pass_through() {
        let shaped = ThrottledClient::new(local(), unshaped());
        shaped.set(b"dir", Bytes::from_static(b"a")).unwrap();
        shaped.append(b"dir", b"b").unwrap();
        assert_eq!(shaped.get(b"dir").unwrap().as_ref(), b"ab");
        assert!(shaped.get(b"missing").is_err());
    }
}
