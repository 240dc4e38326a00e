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
//! * [`SimClient`] — a [`Store`] behind a simulated link on a virtual
//!   clock, with an injectable outage (the Figure 3 experiments and the
//!   fault-tolerance tests);
//! * [`crate::net::TcpClient`] — the memcached text protocol over TCP, for
//!   genuinely distributed deployments.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

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
        /// Registers a hook to run, on the answering thread, once the
        /// batch is answered; `None` when `start` already applied it.
        answered: Option<Box<dyn FnOnce(AnswerHook) + Send>>,
    },
}

/// What [`Deferred::when_answered`] runs: cheap, and never waiting on a
/// caller (it may run on a transport's event loop).
pub type AnswerHook = Box<dyn FnOnce() + Send>;

impl<T> Deferred<T> {
    /// Run `hook` once the batch is answered, waited on or not: now, if
    /// `start` applied it, else on the thread that delivers the answer, on
    /// every path a transport ends a batch (reply, timeout, severed
    /// connection, shutdown). At most one hook per batch.
    pub fn when_answered(&mut self, hook: impl FnOnce() + Send + 'static) {
        let register = match self {
            Deferred::Polled { answered, .. } => answered.take(),
            Deferred::Ready(_) => None,
        };
        match register {
            Some(register) => register(Box::new(hook)),
            None => hook(),
        }
    }

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
/// A TCP client is one pipelined connection per server, and its health is
/// that link's state in the reactor (Down/Connecting/Up), kept fresh by
/// traffic and by heartbeat probes: `Up` means the one link is
/// established. A link severed by a timeout or an error reads `Down` until
/// the next call or heartbeat redials it. In-process transports are always
/// [`ServerHealth::Up`] unless a [`SimClient`] is set down. `Down` is a
/// *view*, not ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerHealth {
    /// The connection is established.
    Up,
    /// The connection is not established.
    Down,
}

impl ServerHealth {
    /// Whether the server is reachable (`Up`).
    pub fn is_alive(self) -> bool {
        self == ServerHealth::Up
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
/// `&self` and implementations must be thread-safe: every thread of an
/// application reading and writing through one mount issues requests
/// concurrently.
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
    /// Counters of the reactor driving this client's connection, if it
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

/// The virtual clock a pool's [`SimClient`]s share: time counted from
/// zero that moves only when a caller waits on a batch due later than now.
/// Clones share one clock.
#[derive(Clone, Default)]
pub struct SimClock(Arc<AtomicU64>);

impl SimClock {
    /// Virtual time since the clock was made.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::SeqCst))
    }

    fn advance_to(&self, t: Duration) {
        self.0.fetch_max(t.as_nanos() as u64, Ordering::SeqCst);
    }
}

/// An in-process [`Store`] behind a simulated link, timed on a
/// [`SimClock`].
///
/// A batch costs one request charge, plus its payload — the values sent
/// and the values that came back, so a ranged read pays for the range, not
/// for the value it was cut from — over the link bandwidth, and it queues
/// behind the batches before it on the server's one in-order stream. The
/// store applies it inside `start`; its [`Deferred`] is ready once the
/// clock reaches the batch's due time, and waiting on it moves the clock
/// there. Batches to different servers overlap, so a fan-out costs the
/// max of its batches, not the sum, and nothing sleeps.
///
/// [`SimClient::new`] is the zero-cost link. [`SimClient::set_down`]
/// injects an outage: the fault-tolerance tests use it to exercise the
/// replication path (the paper defers fault tolerance to future work,
/// §3.2.5; this crate implements the replication option it sketches).
pub struct SimClient {
    local: LocalClient,
    clock: SimClock,
    request_cost: Duration,
    /// Bytes per second; `f64::INFINITY` charges nothing for payload.
    bandwidth: f64,
    /// When the server's stream is free: the due time of its last batch.
    stream: Mutex<Duration>,
    down: AtomicBool,
}

impl SimClient {
    /// `store` behind a link that costs nothing, on a clock of its own.
    pub fn new(store: Arc<Store>) -> Self {
        Self::linked(store, &SimClock::default(), Duration::ZERO, f64::INFINITY)
    }

    /// `store` behind a link that charges `request_cost` per batch and
    /// moves `bandwidth` bytes per second (positive), timed on `clock`.
    pub fn linked(
        store: Arc<Store>,
        clock: &SimClock,
        request_cost: Duration,
        bandwidth: f64,
    ) -> Self {
        SimClient {
            local: LocalClient::new(store),
            clock: clock.clone(),
            request_cost,
            bandwidth,
            stream: Mutex::new(Duration::ZERO),
            down: AtomicBool::new(false),
        }
    }

    /// Mark the server down (true) or back up (false). While it is down,
    /// every batch and [`KvClient::scan_keys`] fails with an I/O error
    /// before the store sees it, and [`KvClient::health`] reads `Down`: a
    /// crashed or partitioned server.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    fn check(&self) -> KvResult<()> {
        if self.down.load(Ordering::SeqCst) {
            return Err(KvError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "server down (injected failure)",
            )));
        }
        Ok(())
    }
}

impl KvClient for SimClient {
    fn start(&self, batch: Batch<'_>) -> Deferred<Bytes> {
        if let Err(e) = self.check() {
            return Deferred::Ready(Err(e));
        }
        let sent: usize = match batch {
            Batch::Store(_, items) => items.iter().map(|(_, value)| value.len()).sum(),
            _ => 0,
        };
        let reply = self.local.start(batch).wait();
        let received: usize = reply.iter().flatten().flatten().map(Bytes::len).sum();
        let cost =
            self.request_cost + Duration::from_secs_f64((sent + received) as f64 / self.bandwidth);
        let due = {
            let mut stream = self.stream.lock();
            *stream = (*stream).max(self.clock.now()) + cost;
            *stream
        };
        let (clock, waited) = (self.clock.clone(), self.clock.clone());
        Deferred::Polled {
            ready: Box::new(move || clock.now() >= due),
            finish: Box::new(move || {
                waited.advance_to(due);
                reply
            }),
            answered: None,
        }
    }
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        self.check()?;
        self.local.scan_keys()
    }
    fn health(&self) -> ServerHealth {
        match self.check() {
            Ok(()) => ServerHealth::Up,
            Err(_) => ServerHealth::Down,
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

    /// What every client must answer when the store has no room: the
    /// store's own refusal, whatever the transport.
    fn refuses_when_full(name: &str, c: &dyn KvClient) {
        let items = [(Bytes::from_static(b"big"), Bytes::from(vec![7u8; 1000]))];
        let got = outcomes(c.start(Batch::Store(StoreVerb::Set, &items)));
        let needed = 3 + 1000 + crate::store::ITEM_OVERHEAD;
        let full = format!(
            "{:?}",
            KvError::OutOfMemory {
                needed,
                budget: 300
            }
        );
        assert_eq!(got, [refused(&full)], "{name}: full store");
    }

    fn tiny_store() -> Arc<Store> {
        Arc::new(Store::new(StoreConfig {
            memory_budget: 300,
            ..StoreConfig::default()
        }))
    }

    #[test]
    fn every_client_answers_every_batch_kind_alike() {
        conforms("local", &local());
        conforms("sim", &SimClient::new(store()));
        let clock = SimClock::default();
        let linked = SimClient::linked(store(), &clock, Duration::from_micros(55), 1e9);
        conforms("sim over a link", &linked);
        assert!(clock.now() > Duration::ZERO, "the link charged its batches");
        let shared: Arc<dyn KvClient> = Arc::new(local());
        conforms("arc<dyn>", &shared);
        let server = KvServer::spawn(store(), "127.0.0.1:0").unwrap();
        conforms("tcp", &TcpClient::connect(server.addr()).unwrap());

        // A full store's refusal reads the same in process and over TCP.
        refuses_when_full("local", &LocalClient::new(tiny_store()));
        refuses_when_full("sim", &SimClient::new(tiny_store()));
        let server = KvServer::spawn(tiny_store(), "127.0.0.1:0").unwrap();
        refuses_when_full("tcp", &TcpClient::connect(server.addr()).unwrap());

        // A down server answers no kind at all, and says so to the census.
        let store = store();
        let down = SimClient::new(Arc::clone(&store));
        down.set_down(true);
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
            assert!(matches!(down.start(batch).wait(), Err(KvError::Io(_))));
        }
        assert!(matches!(down.scan_keys(), Err(KvError::Io(_))));
        assert_eq!(down.health(), ServerHealth::Down);
        assert_eq!(store.item_count(), 0, "a down server sees nothing");
    }

    fn store() -> Arc<Store> {
        Arc::new(Store::new(StoreConfig::default()))
    }

    /// A client on a fresh clock over a link of `request_cost` and
    /// `bandwidth`, and that clock.
    fn linked(request_cost: Duration, bandwidth: f64) -> (SimClient, SimClock) {
        let clock = SimClock::default();
        (
            SimClient::linked(store(), &clock, request_cost, bandwidth),
            clock,
        )
    }

    #[test]
    fn sim_client_charges_one_request_cost_per_batch() {
        let cost = Duration::from_millis(2);
        let (c, clock) = linked(cost, f64::INFINITY);
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(clock.now(), cost);
        // However many items ride in the batch.
        let adds: Vec<(Bytes, Bytes)> = (0..4)
            .map(|i| (Bytes::from(format!("k{i}")), Bytes::new()))
            .collect();
        c.start(Batch::Store(StoreVerb::Add, &adds)).wait().unwrap();
        assert_eq!(clock.now(), 2 * cost);
    }

    #[test]
    fn sim_client_charges_payload_both_ways_over_the_bandwidth() {
        let (c, clock) = linked(Duration::ZERO, 1e6); // 1 MB/s: 1 µs a byte
        c.set(b"k", Bytes::from(vec![7u8; 1_000_000])).unwrap();
        assert_eq!(clock.now(), Duration::from_secs(1));
        // A ranged read pays for the range, not for the value.
        let out = c.get_range(b"k", 500_000, 20_000).unwrap();
        assert_eq!(out.len(), 20_000);
        assert_eq!(clock.now(), Duration::from_millis(1020));
    }

    #[test]
    fn a_fan_out_costs_its_slowest_batch_and_one_stream_queues() {
        let clock = SimClock::default();
        let cost = |ms| Duration::from_millis(ms);
        let fast = SimClient::linked(store(), &clock, cost(1), f64::INFINITY);
        let slow = SimClient::linked(store(), &clock, cost(3), f64::INFINITY);
        let keys = [Bytes::from_static(b"k")];
        let (a, b) = (fast.start(Batch::Get(&keys)), slow.start(Batch::Get(&keys)));
        assert!(!a.is_ready() && !b.is_ready(), "nothing is due at start");
        a.wait().unwrap();
        assert!(!b.is_ready());
        b.wait().unwrap();
        assert_eq!(clock.now(), cost(3), "max of the batches, not the sum");
        // Two batches on one server: the second waits for the first.
        let (a, b) = (fast.start(Batch::Get(&keys)), fast.start(Batch::Get(&keys)));
        b.wait().unwrap();
        assert!(a.is_ready(), "an in-order stream answers the first first");
        assert_eq!(clock.now(), cost(5));
    }

    #[test]
    fn a_down_sim_client_refuses_batches_until_it_is_up_again() {
        let store = store();
        let c = SimClient::new(Arc::clone(&store));
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        c.set_down(true);
        assert!(matches!(c.get(b"k"), Err(KvError::Io(_))));
        assert!(matches!(c.set(b"x", Bytes::new()), Err(KvError::Io(_))));
        assert!(c.get_many(&[Bytes::from_static(b"k")]).is_err());
        assert!(c.get_range(b"k", 0, 1).is_err());
        assert!(c
            .set_many(&[(Bytes::from_static(b"k"), Bytes::new())])
            .is_err());
        c.set_down(false);
        assert_eq!(c.health(), ServerHealth::Up);
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v");
        assert!(!store.contains(b"x"), "a refused batch was never applied");
    }

    #[test]
    fn arc_blanket_impl_works() {
        let c: Arc<dyn KvClient> = Arc::new(local());
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v");
    }
}
