//! Evented memkv server engine: one epoll loop plus a small worker pool
//! replaces the old thread-per-connection server.
//!
//! The client went fully evented in PRs 4–6, but every server still
//! spawned one blocking OS thread per accepted connection — the paper's
//! "thousands of concurrent mounts per server" dies there. This module
//! ports the reactor architecture server-side:
//!
//! * **One loop thread** (`memkv-srv-loop`) owns the listening socket and
//!   a token-slab of non-blocking connection state machines. Accepts run
//!   in-loop via `accept4(SOCK_NONBLOCK)`; a 64-connection server runs a
//!   fixed census of 1 loop + [`ServerConfig::workers`] worker threads.
//! * **Incremental parsing** with a cursor ([`RequestDecoder`]): no
//!   `Vec::drain` memmove per pipelined request.
//! * **Vectored zero-copy responses**: value payloads ride as
//!   refcount-bumped [`Bytes`] iovec segments straight from the store to
//!   `writev`, never copied into an encode buffer.
//! * **Backpressure per connection**: queued response bytes are bounded
//!   ([`ServerConfig::max_pending_bytes`]); past the bound the loop stops
//!   reading from that socket (EPOLLIN dropped) and drains via
//!   EPOLLOUT-driven flushes until the client catches up. A slow reader
//!   can stall only itself.
//! * **Worker pool hand-off**: parsed requests accumulate in a per-
//!   connection backlog; at most one job per connection is in flight in
//!   the pool, so responses stay in pipeline order while one slow
//!   multi-key batch cannot stall the loop or other connections.
//! * **Idle-connection timeouts** on the shared [`TimerWheel`]: lazily
//!   re-armed, so busy connections never touch the wheel per request.
//! * **Load shedding**: beyond [`ServerConfig::max_connections`] an
//!   accepted socket gets a best-effort `SERVER_ERROR` line and is
//!   closed, leaving established mounts untouched.
//!
//! Observability flows through [`ServerStats`] (connection census, ops,
//! wire bytes, queue depth, idle closes, per-tenant op counts), exposed
//! both programmatically ([`KvServer::server_stats`]) and over the wire:
//! the `stats` protocol command now appends the serving-layer pairs to
//! the store's counters.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, FromRawFd, IntoRawFd, OwnedFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::error::{KvError, KvResult};
use crate::poll::{Poller, WAKE_TOKEN};
use crate::proto::{
    slice_range, stats_pairs, write_response, write_value_header, Request, RequestDecoder,
    Response, ValueItem,
};
use crate::stats::StoreStats;
use crate::stats::{ServerStats, ServerStatsSnapshot};
use crate::store::Store;
use crate::wheel::{TimerId, TimerWheel};

/// Version string reported to `version` commands.
pub const SERVER_VERSION: &str = "memkv/0.1 (memcached text protocol)";

/// epoll token reserved for the listening socket (`WAKE_TOKEN - 1`).
const LISTEN_TOKEN: u64 = u64::MAX - 1;
/// Timer-wheel payload marking the recurring maintenance tick (real
/// connection timers carry a slab index, which can never be this).
const MAINT_SENTINEL: usize = usize::MAX;
/// Max iovec entries per `writev` — matches the kernel's UIO_FASTIOV.
const MAX_IOV: usize = 8;
/// Read granularity for request bytes.
const READ_CHUNK: usize = 64 * 1024;
/// Values at least this large become their own zero-copy out-segments;
/// smaller ones are inlined into the header scratch (mirrors the client
/// encoder's split).
const SEGMENT_THRESHOLD: usize = 4 * 1024;
/// Cap on parsed-but-undispatched requests per connection; past it the
/// loop stops reading from the socket until the worker pool catches up.
const MAX_BACKLOG: usize = 4096;
/// Sent (best effort) to a connection shed at the `max_connections` cap.
const SHED_MESSAGE: &[u8] = b"SERVER_ERROR too many connections\r\n";

/// Sizing and policy knobs for a [`KvServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Store-execution worker threads (minimum 1). The loop thread never
    /// touches the store, so the census is exactly `1 + workers`.
    pub workers: usize,
    /// Connections accepted concurrently before new ones are shed with a
    /// protocol error. Generous by default — the cap is a safety rail,
    /// not a tuning knob.
    pub max_connections: usize,
    /// Close connections with no traffic for this long. `Duration::ZERO`
    /// disables idle reaping.
    pub idle_timeout: Duration,
    /// Bound on queued unsent response bytes per connection before the
    /// loop stops reading more requests from that socket.
    pub max_pending_bytes: usize,
    /// Cadence of background store maintenance ([`Store::maintain`]):
    /// TTL reaping plus watermark eviction, run as a worker-pool job so
    /// the loop thread never touches the store. `Duration::ZERO`
    /// disables the sweeper (embedders drive `maintain` themselves).
    pub maintenance_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            max_connections: 1024,
            idle_timeout: Duration::from_secs(300),
            max_pending_bytes: 8 * 1024 * 1024,
            maintenance_interval: Duration::from_millis(100),
        }
    }
}

/// State shared between the loop thread, the worker pool, and the
/// [`KvServer`] handle. Lives in an `Arc` so a worker finishing a job
/// after the loop exited can still touch the poller safely (no fd-reuse
/// hazard: the epoll/eventfd descriptors close only when the last owner
/// drops).
struct Engine {
    poller: Poller,
    shutdown: AtomicBool,
    stats: ServerStats,
    store: Arc<Store>,
    config: ServerConfig,
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// True while a maintenance job is queued or running; the wheel tick
    /// skips enqueueing another so a slow sweep cannot pile up jobs.
    maint_inflight: AtomicBool,
}

/// A unit of work for the worker pool.
enum Job {
    /// One connection's pipelined run of requests, executed as a unit.
    Conn {
        token: usize,
        generation: u64,
        reqs: Vec<Request>,
    },
    /// A background store-maintenance pass (TTL reap + watermark sweep),
    /// driven by the loop's timer wheel. Does not count toward
    /// `queue_depth` and produces no completion.
    Maintain,
}

/// The responses for one [`Job`], in request order.
struct Completion {
    token: usize,
    generation: u64,
    resps: Vec<Response>,
}

/// A running evented TCP storage server.
pub struct KvServer {
    store: Arc<Store>,
    addr: SocketAddr,
    engine: Arc<Engine>,
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl KvServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `store` with [`ServerConfig::default`].
    pub fn spawn(store: Arc<Store>, addr: impl ToSocketAddrs) -> KvResult<KvServer> {
        KvServer::spawn_with(store, addr, ServerConfig::default())
    }

    /// Bind `addr` and start serving `store` with an explicit config.
    pub fn spawn_with(
        store: Arc<Store>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> KvResult<KvServer> {
        let config = ServerConfig {
            workers: config.workers.max(1),
            max_connections: config.max_connections.max(1),
            ..config
        };
        let listener = bind_reuseaddr(addr).map_err(KvError::Io)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(Engine {
            poller: Poller::new().map_err(KvError::Io)?,
            shutdown: AtomicBool::new(false),
            stats: ServerStats::default(),
            store: Arc::clone(&store),
            config,
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            maint_inflight: AtomicBool::new(false),
        });
        engine
            .poller
            .add(listener.as_raw_fd(), LISTEN_TOKEN, libc::EPOLLIN)
            .map_err(KvError::Io)?;

        let mut server = KvServer {
            store,
            addr,
            engine: Arc::clone(&engine),
            loop_thread: None,
            workers: Vec::new(),
        };
        for i in 0..engine.config.workers {
            let worker_engine = Arc::clone(&engine);
            let handle = std::thread::Builder::new()
                .name(format!("memkv-srv-wkr/{i}"))
                .spawn(move || worker_loop(worker_engine));
            match handle {
                Ok(h) => server.workers.push(h),
                Err(e) => {
                    server.shutdown();
                    return Err(KvError::Io(e));
                }
            }
        }
        let loop_engine = Arc::clone(&engine);
        match std::thread::Builder::new()
            .name("memkv-srv-loop".into())
            .spawn(move || ServerLoop::new(loop_engine, listener).run())
        {
            Ok(h) => server.loop_thread = Some(h),
            Err(e) => {
                server.shutdown();
                return Err(KvError::Io(e));
            }
        }
        Ok(server)
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store this server fronts.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Serving-layer counters (connections, ops, wire bytes, queue depth,
    /// per-tenant ops). Store counters live on [`Store::stats`].
    pub fn server_stats(&self) -> ServerStatsSnapshot {
        self.engine.stats.snapshot()
    }

    /// Stop the server: close the listener and every connection, fail
    /// queued-but-unexecuted jobs fast, and join the loop and worker
    /// threads. Idempotent — later calls are no-ops.
    pub fn shutdown(&mut self) {
        self.engine.shutdown.store(true, Ordering::SeqCst);
        self.engine.poller.notify();
        self.engine.jobs_cv.notify_all();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for KvServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `socket + SO_REUSEADDR + bind + listen`, returning a non-blocking
/// listener. `SO_REUSEADDR` matters for restart semantics: a server
/// respawned on the same port must not fail on lingering TIME_WAIT pairs
/// from its previous life.
fn bind_reuseaddr(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    let mut last: Option<io::Error> = None;
    for a in addr.to_socket_addrs()? {
        match bind_one(&a) {
            Ok(l) => return Ok(l),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}

fn bind_one(addr: &SocketAddr) -> io::Result<TcpListener> {
    let domain = match addr {
        SocketAddr::V4(_) => libc::AF_INET,
        SocketAddr::V6(_) => libc::AF_INET6,
    };
    // SAFETY: `socket` takes no pointers; the result is checked before use.
    let raw = unsafe {
        libc::socket(
            domain,
            libc::SOCK_STREAM | libc::SOCK_NONBLOCK | libc::SOCK_CLOEXEC,
            0,
        )
    };
    if raw < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `raw` is a fresh, open descriptor nothing else owns, so the
    // `OwnedFd` is its sole owner (and closes it on every error return).
    let fd = unsafe { OwnedFd::from_raw_fd(raw) };
    let one: libc::c_int = 1;
    // SAFETY: `fd` is open, and `optval` points at a live `c_int` whose
    // size is passed as `optlen`.
    let rc = unsafe {
        libc::setsockopt(
            fd.as_raw_fd(),
            libc::SOL_SOCKET,
            libc::SO_REUSEADDR,
            (&one as *const libc::c_int).cast(),
            std::mem::size_of::<libc::c_int>() as libc::socklen_t,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let rc = match addr {
        SocketAddr::V4(a) => {
            let sin = libc::sockaddr_in {
                sin_family: libc::AF_INET as libc::sa_family_t,
                sin_port: a.port().to_be(),
                sin_addr: libc::in_addr {
                    s_addr: u32::from_ne_bytes(a.ip().octets()),
                },
                sin_zero: [0; 8],
            };
            // SAFETY: `sin` is a live, fully initialised `sockaddr_in`
            // whose exact size is passed as the address length.
            unsafe {
                libc::bind(
                    fd.as_raw_fd(),
                    (&sin as *const libc::sockaddr_in).cast(),
                    std::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t,
                )
            }
        }
        SocketAddr::V6(a) => {
            let sin6 = libc::sockaddr_in6 {
                sin6_family: libc::AF_INET6 as libc::sa_family_t,
                sin6_port: a.port().to_be(),
                sin6_flowinfo: a.flowinfo(),
                sin6_addr: libc::in6_addr {
                    s6_addr: a.ip().octets(),
                },
                sin6_scope_id: a.scope_id(),
            };
            // SAFETY: `sin6` is a live, fully initialised `sockaddr_in6`
            // whose exact size is passed as the address length.
            unsafe {
                libc::bind(
                    fd.as_raw_fd(),
                    (&sin6 as *const libc::sockaddr_in6).cast(),
                    std::mem::size_of::<libc::sockaddr_in6>() as libc::socklen_t,
                )
            }
        }
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `listen` takes no pointers and `fd` is open.
    if unsafe { libc::listen(fd.as_raw_fd(), 1024) } < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `into_raw_fd` gives up the `OwnedFd`'s ownership, so the
    // `TcpListener` becomes the sole owner of an open, listening socket.
    Ok(unsafe { TcpListener::from_raw_fd(fd.into_raw_fd()) })
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(engine: Arc<Engine>) {
    loop {
        let job = {
            let mut jobs = engine.jobs.lock();
            loop {
                if engine.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                engine.jobs_cv.wait(&mut jobs);
            }
        };
        match job {
            Job::Conn {
                token,
                generation,
                reqs,
            } => {
                let resps: Vec<Response> = reqs
                    .into_iter()
                    .map(|req| execute_traced(&engine, req))
                    .collect();
                engine.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                engine.completions.lock().push(Completion {
                    token,
                    generation,
                    resps,
                });
                engine.poller.notify();
            }
            Job::Maintain => {
                engine.store.maintain();
                engine.maint_inflight.store(false, Ordering::Release);
            }
        }
    }
}

/// Execute one request with serving-layer accounting; `stats` gets the
/// server pairs appended to the store's.
fn execute_traced(engine: &Engine, req: Request) -> Response {
    engine.stats.ops.fetch_add(1, Ordering::Relaxed);
    if let Some(key) = first_key(&req) {
        engine.stats.charge_tenant(key);
    }
    match req {
        Request::Stats => {
            let mut pairs = store_stats_pairs(&engine.store);
            let snap = engine.stats.snapshot();
            pairs.push(("curr_connections".into(), snap.connections.to_string()));
            pairs.push((
                "total_connections".into(),
                snap.total_connections.to_string(),
            ));
            pairs.push((
                "rejected_connections".into(),
                snap.rejected_connections.to_string(),
            ));
            pairs.push(("server_ops".into(), snap.ops.to_string()));
            pairs.push(("bytes_tx".into(), snap.bytes_tx.to_string()));
            pairs.push(("bytes_rx".into(), snap.bytes_rx.to_string()));
            pairs.push(("queue_depth".into(), snap.queue_depth.to_string()));
            pairs.push(("idle_closed".into(), snap.idle_closed.to_string()));
            pairs.push(("workers".into(), engine.config.workers.to_string()));
            for (tenant, ops) in snap.tenant_ops {
                pairs.push((format!("tenant:{tenant}:ops"), ops.to_string()));
            }
            Response::Stats(pairs)
        }
        other => execute(&engine.store, other),
    }
}

fn first_key(req: &Request) -> Option<&[u8]> {
    match req {
        Request::Set { key, .. }
        | Request::Add { key, .. }
        | Request::Append { key, .. }
        | Request::Cas { key, .. }
        | Request::GetRange { key, .. }
        | Request::Delete { key } => Some(key),
        Request::Get { keys } | Request::Gets { keys } => keys.first().map(|k| k.as_ref()),
        _ => None,
    }
}

/// Store-level `STAT` pairs: the counter snapshot plus per-shard
/// occupancy gauges (`shard:N:bytes` / `shard:N:items` /
/// `shard:N:expiring`), read lock-free from the shard meta.
fn store_stats_pairs(store: &Store) -> Vec<(String, String)> {
    let mut pairs = stats_pairs(&store.stats().snapshot());
    for (i, u) in store.shard_usage().iter().enumerate() {
        pairs.push((format!("shard:{i}:bytes"), u.bytes.to_string()));
        pairs.push((format!("shard:{i}:items"), u.items.to_string()));
        pairs.push((format!("shard:{i}:expiring"), u.expiring.to_string()));
    }
    pairs
}

/// The wire protocol's `exptime` (relative seconds) as store TTL
/// milliseconds.
fn ttl_ms(exptime: u32) -> u64 {
    exptime as u64 * 1000
}

/// Apply one request to the store, mapping engine errors to protocol
/// responses exactly as memcached does.
pub fn execute(store: &Store, req: Request) -> Response {
    match req {
        Request::Set {
            key,
            value,
            exptime,
        } => match store.set_ttl(&key, value, ttl_ms(exptime)) {
            Ok(()) => Response::Stored,
            Err(e) => storage_error(e),
        },
        Request::Add {
            key,
            value,
            exptime,
        } => match store.add_ttl(&key, value, ttl_ms(exptime)) {
            Ok(()) => Response::Stored,
            Err(KvError::Exists) => Response::NotStored,
            Err(e) => storage_error(e),
        },
        Request::Append { key, value } => match store.append(&key, &value) {
            Ok(()) => Response::Stored,
            Err(KvError::NotFound) => Response::NotStored,
            Err(e) => storage_error(e),
        },
        Request::Cas {
            key,
            value,
            token,
            exptime,
        } => match store.cas_ttl(&key, value, token, ttl_ms(exptime)) {
            Ok(()) => Response::Stored,
            Err(KvError::CasMismatch) => Response::Exists,
            Err(KvError::NotFound) => Response::NotFound,
            Err(e) => storage_error(e),
        },
        Request::Get { keys } => {
            if keys.len() == 1 {
                // Single-key fast path; does not count as a batch.
                let key = keys.into_iter().next().expect("one key");
                return match store.get(&key) {
                    Ok(value) => Response::Value {
                        key,
                        value,
                        cas: None,
                    },
                    Err(_) => Response::End,
                };
            }
            let results = store.get_many(&keys);
            let items: Vec<ValueItem> = keys
                .into_iter()
                .zip(results)
                .filter_map(|(key, r)| {
                    r.ok().map(|value| ValueItem {
                        key,
                        value,
                        cas: None,
                    })
                })
                .collect();
            values_response(items)
        }
        Request::Gets { keys } => {
            if keys.len() == 1 {
                let key = keys.into_iter().next().expect("one key");
                return match store.gets(&key) {
                    Ok((value, cas)) => Response::Value {
                        key,
                        value,
                        cas: Some(cas),
                    },
                    Err(_) => Response::End,
                };
            }
            let items: Vec<ValueItem> = keys
                .into_iter()
                .filter_map(|key| {
                    store.gets(&key).ok().map(|(value, cas)| ValueItem {
                        key,
                        value,
                        cas: Some(cas),
                    })
                })
                .collect();
            values_response(items)
        }
        // The same read as a single-key `get` (read lock, recency stamp,
        // `get_ops`/`get_hits`), answered with a refcounted slice: the
        // response writer sends it as its own iovec, nothing is copied.
        Request::GetRange { key, offset, len } => {
            let stats = store.stats();
            StoreStats::bump(&stats.getrange_ops);
            match store.get(&key) {
                Ok(value) => {
                    let value = slice_range(&value, offset, len);
                    StoreStats::add(&stats.getrange_bytes, value.len() as u64);
                    Response::Value {
                        key,
                        value,
                        cas: None,
                    }
                }
                Err(_) => Response::End,
            }
        }
        Request::Delete { key } => match store.delete(&key) {
            Ok(()) => Response::Deleted,
            Err(_) => Response::NotFound,
        },
        Request::FlushAll => {
            store.flush_all();
            Response::Ok
        }
        Request::Stats => Response::Stats(store_stats_pairs(store)),
        Request::Keys => {
            Response::KeyList(store.keys().into_iter().map(|k| k.into_vec()).collect())
        }
        Request::Version => Response::Version(SERVER_VERSION.to_string()),
        Request::Quit => Response::Ok, // handled by the connection loop
    }
}

/// Collapse a multi-get's hits into the smallest correct response frame:
/// misses-only → bare `END`, one hit → a plain `VALUE` block, several →
/// consecutive blocks. All three produce memcached-compatible wire bytes.
fn values_response(mut items: Vec<ValueItem>) -> Response {
    match items.len() {
        0 => Response::End,
        1 => {
            let item = items.pop().expect("one item");
            Response::Value {
                key: item.key,
                value: item.value,
                cas: item.cas,
            }
        }
        _ => Response::Values(items),
    }
}

fn storage_error(e: KvError) -> Response {
    match e {
        KvError::ValueTooLarge { .. } | KvError::OutOfMemory { .. } => {
            Response::ServerError(e.to_string())
        }
        other => Response::ClientError(other.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// One slot of the connection slab. Slots are reused through a freelist;
/// `generation` fences stale worker completions and timer firings after
/// a slot's previous occupant closed.
struct Conn {
    stream: Option<TcpStream>,
    generation: u64,
    decoder: RequestDecoder,
    /// Parsed requests not yet handed to the worker pool.
    backlog: Vec<Request>,
    /// At most one job per connection sits in the pool, preserving
    /// pipeline order without per-connection worker affinity.
    job_in_flight: bool,
    /// Unsent response segments (zero-copy `Bytes`), plus the byte offset
    /// already written of the front segment.
    out: VecDeque<Bytes>,
    out_off: usize,
    /// Total unsent bytes across `out` — the backpressure gauge.
    pending_out: usize,
    /// Stop reading: backlog or pending_out hit their bound.
    paused_read: bool,
    /// `quit` seen: close once earlier responses have drained.
    quit: bool,
    /// Parse failure waiting to be reported (as this response) once
    /// in-order; the connection closes behind it.
    pending_error: Option<Response>,
    /// Send nothing more after the out queue drains; then close.
    close_after_flush: bool,
    /// Interest mask currently registered with epoll.
    interest: u32,
    last_activity: Instant,
    idle_timer: Option<TimerId>,
}

impl Conn {
    fn vacant(now: Instant) -> Conn {
        Conn {
            stream: None,
            generation: 0,
            decoder: RequestDecoder::new(),
            backlog: Vec::new(),
            job_in_flight: false,
            out: VecDeque::new(),
            out_off: 0,
            pending_out: 0,
            paused_read: false,
            quit: false,
            pending_error: None,
            close_after_flush: false,
            interest: 0,
            last_activity: now,
            idle_timer: None,
        }
    }
}

struct ServerLoop {
    engine: Arc<Engine>,
    listener: TcpListener,
    conns: Vec<Conn>,
    free: Vec<usize>,
    wheel: TimerWheel<(usize, u64)>,
}

impl ServerLoop {
    fn new(engine: Arc<Engine>, listener: TcpListener) -> ServerLoop {
        ServerLoop {
            engine,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(Instant::now()),
        }
    }

    fn run(mut self) {
        let mut events: Vec<(u64, u32)> = Vec::new();
        let mut chunk = vec![0u8; READ_CHUNK];
        self.arm_maintenance(Instant::now());
        loop {
            if self.engine.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            for fired in self.wheel.advance(now) {
                if fired.0 == MAINT_SENTINEL {
                    self.maintenance_fired(now);
                } else {
                    self.idle_fired(fired, now);
                }
            }
            let timeout = self
                .wheel
                .next_wake()
                .map(|w| w.saturating_duration_since(Instant::now()));
            if self.engine.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for &(token, ev) in events.iter() {
                match token {
                    WAKE_TOKEN => self.engine.poller.drain_wake(),
                    LISTEN_TOKEN => self.accept_ready(),
                    t => {
                        let idx = t as usize;
                        if idx >= self.conns.len() || self.conns[idx].stream.is_none() {
                            continue;
                        }
                        if ev & libc::EPOLLOUT != 0 {
                            self.flush_conn(idx);
                        }
                        if ev & (libc::EPOLLIN | libc::EPOLLRDHUP | libc::EPOLLERR | libc::EPOLLHUP)
                            != 0
                        {
                            self.conn_readable(idx, &mut chunk);
                        } else {
                            self.advance_conn(idx);
                        }
                    }
                }
            }
            self.drain_completions();
        }
        self.teardown();
    }

    /// Drain the accept queue (level-triggered listener).
    fn accept_ready(&mut self) {
        loop {
            // SAFETY: the listener is open for the life of the loop, and
            // null `addr` / `addrlen` are the documented way to decline
            // the peer address.
            let raw = unsafe {
                libc::accept4(
                    self.listener.as_raw_fd(),
                    std::ptr::null_mut(),
                    std::ptr::null_mut(),
                    libc::SOCK_NONBLOCK | libc::SOCK_CLOEXEC,
                )
            };
            if raw < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                // EAGAIN (queue drained) and transient per-connection
                // errors (ECONNABORTED) both end this round.
                return;
            }
            // SAFETY: `raw` is non-negative here, i.e. a fresh connected
            // socket nothing else owns; the `TcpStream` is its sole owner.
            let stream = unsafe { TcpStream::from_raw_fd(raw) };
            let open = self.engine.stats.connections.load(Ordering::Relaxed);
            if open as usize >= self.engine.config.max_connections {
                // Shed: tell the client why, best effort on a fresh
                // socket whose buffer is certainly empty, then close.
                self.engine
                    .stats
                    .rejected_connections
                    .fetch_add(1, Ordering::Relaxed);
                let _ = (&stream).write(SHED_MESSAGE);
                continue;
            }
            let _ = stream.set_nodelay(true);
            let now = Instant::now();
            let idx = match self.free.pop() {
                Some(i) => i,
                None => {
                    self.conns.push(Conn::vacant(now));
                    self.conns.len() - 1
                }
            };
            let interest = libc::EPOLLIN | libc::EPOLLRDHUP;
            if self
                .engine
                .poller
                .add(stream.as_raw_fd(), idx as u64, interest)
                .is_err()
            {
                self.free.push(idx);
                continue; // drop closes the socket
            }
            let conn = &mut self.conns[idx];
            conn.stream = Some(stream);
            conn.interest = interest;
            conn.last_activity = now;
            self.engine
                .stats
                .connections
                .fetch_add(1, Ordering::Relaxed);
            self.engine
                .stats
                .total_connections
                .fetch_add(1, Ordering::Relaxed);
            let deadline = now + self.engine.config.idle_timeout;
            self.arm_idle(idx, deadline);
        }
    }

    /// Arm the next maintenance tick (no-op when disabled).
    fn arm_maintenance(&mut self, now: Instant) {
        let interval = self.engine.config.maintenance_interval;
        if interval.is_zero() {
            return;
        }
        self.wheel.arm(now + interval, (MAINT_SENTINEL, 0));
    }

    /// The maintenance timer fired: re-arm it and hand a sweep to the
    /// worker pool — unless the previous sweep is still queued or
    /// running, in which case this tick is skipped (the store never has
    /// more than one sweeper at a time).
    fn maintenance_fired(&mut self, now: Instant) {
        self.arm_maintenance(now);
        if self.engine.maint_inflight.swap(true, Ordering::AcqRel) {
            return;
        }
        self.engine.jobs.lock().push_back(Job::Maintain);
        self.engine.jobs_cv.notify_one();
    }

    fn arm_idle(&mut self, idx: usize, deadline: Instant) {
        if self.engine.config.idle_timeout.is_zero() {
            return;
        }
        let generation = self.conns[idx].generation;
        let id = self.wheel.arm(deadline, (idx, generation));
        self.conns[idx].idle_timer = Some(id);
    }

    /// An idle timer fired. Timers are lazy: traffic only refreshes
    /// `last_activity`, and the wheel is consulted at most once per
    /// timeout window per connection — a busy socket costs zero wheel
    /// churn. On firing, either the connection is genuinely idle (close
    /// it) or the timer re-arms at the earliest future instant it could
    /// be.
    fn idle_fired(&mut self, (idx, generation): (usize, u64), now: Instant) {
        let Some(conn) = self.conns.get_mut(idx) else {
            return;
        };
        if conn.stream.is_none() || conn.generation != generation {
            return;
        }
        conn.idle_timer = None;
        let timeout = self.engine.config.idle_timeout;
        let deadline = conn.last_activity + timeout;
        let busy = conn.job_in_flight || !conn.out.is_empty() || !conn.backlog.is_empty();
        if now >= deadline && !busy {
            self.engine
                .stats
                .idle_closed
                .fetch_add(1, Ordering::Relaxed);
            self.close_conn(idx);
        } else {
            let next = if now >= deadline {
                now + timeout
            } else {
                deadline
            };
            self.arm_idle(idx, next);
        }
    }

    fn conn_readable(&mut self, idx: usize, chunk: &mut [u8]) {
        loop {
            let conn = &mut self.conns[idx];
            let Some(stream) = conn.stream.as_ref() else {
                return;
            };
            if conn.paused_read {
                break;
            }
            let mut sref = stream;
            match sref.read(chunk) {
                Ok(0) => {
                    self.close_conn(idx);
                    return;
                }
                Ok(n) => {
                    self.engine
                        .stats
                        .bytes_rx
                        .fetch_add(n as u64, Ordering::Relaxed);
                    let conn = &mut self.conns[idx];
                    conn.last_activity = Instant::now();
                    conn.decoder.feed(&chunk[..n]);
                    self.parse_conn(idx);
                    self.dispatch(idx);
                    self.update_pause(idx);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        self.advance_conn(idx);
    }

    /// Decode as many pipelined requests as the buffer holds into the
    /// backlog. A `quit` or protocol error poisons further decoding; the
    /// verdict is delivered in order by [`ServerLoop::dispatch`] once
    /// earlier requests have answered.
    fn parse_conn(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        if conn.stream.is_none()
            || conn.quit
            || conn.pending_error.is_some()
            || conn.close_after_flush
        {
            conn.decoder.reset();
            return;
        }
        while conn.backlog.len() < MAX_BACKLOG {
            match conn.decoder.next_request() {
                Ok(Some(Request::Quit)) => {
                    conn.quit = true;
                    conn.decoder.reset();
                    break;
                }
                Ok(Some(req)) => conn.backlog.push(req),
                Ok(None) => break,
                Err(e) => {
                    conn.pending_error = Some(match e {
                        // memcached's own words for a data block above
                        // the item limit.
                        KvError::ValueTooLarge { .. } => {
                            Response::ServerError("object too large for cache".into())
                        }
                        e => Response::ClientError(e.to_string()),
                    });
                    conn.decoder.reset();
                    break;
                }
            }
        }
    }

    /// Hand the backlog to the worker pool (one job in flight per
    /// connection), or — once the pipeline has fully drained — deliver a
    /// pending protocol error / `quit` close.
    fn dispatch(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        if conn.stream.is_none() || conn.job_in_flight || conn.close_after_flush {
            return;
        }
        if !conn.backlog.is_empty() {
            let reqs = std::mem::take(&mut conn.backlog);
            conn.job_in_flight = true;
            self.engine
                .stats
                .queue_depth
                .fetch_add(1, Ordering::Relaxed);
            self.engine.jobs.lock().push_back(Job::Conn {
                token: idx,
                generation: conn.generation,
                reqs,
            });
            self.engine.jobs_cv.notify_one();
        } else if let Some(resp) = conn.pending_error.take() {
            enqueue_response(conn, &resp);
            conn.close_after_flush = true;
        } else if conn.quit {
            conn.close_after_flush = true;
        }
    }

    /// Flush queued response segments with vectored writes until the
    /// socket pushes back.
    fn flush_conn(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        let Some(stream) = conn.stream.as_ref() else {
            return;
        };
        if conn.out.is_empty() {
            return;
        }
        match write_out(stream, &mut conn.out, &mut conn.out_off) {
            Ok(n) => {
                conn.pending_out -= n as usize;
                self.engine.stats.bytes_tx.fetch_add(n, Ordering::Relaxed);
            }
            Err(_) => self.close_conn(idx),
        }
    }

    /// Post-I/O bookkeeping: decode/dispatch anything newly available,
    /// flush, close if the drain condition is met, and resync epoll
    /// interest with the connection's state.
    fn advance_conn(&mut self, idx: usize) {
        if self.conns[idx].stream.is_none() {
            return;
        }
        self.parse_conn(idx);
        self.dispatch(idx);
        self.flush_conn(idx);
        let Some(conn) = self.conns.get(idx) else {
            return;
        };
        if conn.stream.is_none() {
            return;
        }
        if conn.close_after_flush && conn.out.is_empty() {
            self.close_conn(idx);
            return;
        }
        self.update_pause(idx);
        self.update_interest(idx);
    }

    /// Backpressure policy: stop reading when queued responses or the
    /// backlog pass their bounds; resume at half the byte bound so the
    /// interest mask does not flap around the threshold.
    fn update_pause(&mut self, idx: usize) {
        let max_pending = self.engine.config.max_pending_bytes;
        let conn = &mut self.conns[idx];
        if conn.stream.is_none() {
            return;
        }
        if conn.paused_read {
            if conn.pending_out <= max_pending / 2 && conn.backlog.len() < MAX_BACKLOG {
                conn.paused_read = false;
            }
        } else if conn.pending_out > max_pending || conn.backlog.len() >= MAX_BACKLOG {
            conn.paused_read = true;
        }
    }

    /// Register exactly the interest the state machine needs: EPOLLIN
    /// unless paused, EPOLLOUT only while unsent segments exist.
    fn update_interest(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        let Some(stream) = conn.stream.as_ref() else {
            return;
        };
        let mut interest = 0u32;
        if !conn.paused_read {
            interest |= libc::EPOLLIN | libc::EPOLLRDHUP;
        }
        if !conn.out.is_empty() {
            interest |= libc::EPOLLOUT;
        }
        if interest != conn.interest {
            let fd = stream.as_raw_fd();
            if self.engine.poller.modify(fd, idx as u64, interest).is_ok() {
                conn.interest = interest;
            } else {
                self.close_conn(idx);
            }
        }
    }

    /// Deliver finished jobs back to their connections. Generation
    /// fencing drops completions for slots whose occupant died while the
    /// job ran.
    fn drain_completions(&mut self) {
        let completions: Vec<Completion> = std::mem::take(&mut *self.engine.completions.lock());
        for c in completions {
            let Some(conn) = self.conns.get_mut(c.token) else {
                continue;
            };
            if conn.stream.is_none() || conn.generation != c.generation {
                continue;
            }
            conn.job_in_flight = false;
            conn.last_activity = Instant::now();
            for resp in &c.resps {
                enqueue_response(conn, resp);
            }
            self.advance_conn(c.token);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        let Some(stream) = conn.stream.take() else {
            return;
        };
        let _ = self.engine.poller.delete(stream.as_raw_fd());
        if let Some(id) = conn.idle_timer.take() {
            self.wheel.cancel(id);
        }
        // Fence any in-flight job's completion and any stale timer.
        conn.generation += 1;
        conn.decoder.reset();
        conn.backlog.clear();
        conn.job_in_flight = false;
        conn.out.clear();
        conn.out_off = 0;
        conn.pending_out = 0;
        conn.paused_read = false;
        conn.quit = false;
        conn.pending_error = None;
        conn.close_after_flush = false;
        conn.interest = 0;
        self.engine
            .stats
            .connections
            .fetch_sub(1, Ordering::Relaxed);
        self.free.push(idx);
        // dropping `stream` closes the fd
    }

    /// Fail-fast shutdown: close every connection (in-flight batches die
    /// with their sockets; clients replay idempotent work elsewhere or
    /// surface the error) and clear jobs the pool never started.
    fn teardown(&mut self) {
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
        let cleared = self
            .engine
            .jobs
            .lock()
            .drain(..)
            .filter(|j| matches!(j, Job::Conn { .. }))
            .count();
        self.engine
            .stats
            .queue_depth
            .fetch_sub(cleared as u64, Ordering::Relaxed);
    }
}

/// Append one response to the connection's out-queue. Header bytes build
/// in a scratch that becomes one segment; values at or above
/// [`SEGMENT_THRESHOLD`] ride as their own refcount-bumped segments, so
/// stripe-sized payloads go store → `writev` with zero copies.
fn enqueue_response(conn: &mut Conn, resp: &Response) {
    let mut head: Vec<u8> = Vec::new();
    match resp {
        Response::Value { key, value, cas } => {
            write_value_header(&mut head, key, value.len(), *cas);
            stage_value(conn, &mut head, value);
            head.extend_from_slice(b"\r\nEND\r\n");
        }
        Response::Values(items) => {
            for item in items {
                write_value_header(&mut head, &item.key, item.value.len(), item.cas);
                stage_value(conn, &mut head, &item.value);
                head.extend_from_slice(b"\r\n");
            }
            head.extend_from_slice(b"END\r\n");
        }
        other => write_response(other, &mut head),
    }
    push_segment(conn, Bytes::from(head));
}

fn stage_value(conn: &mut Conn, head: &mut Vec<u8>, value: &Bytes) {
    if value.len() >= SEGMENT_THRESHOLD {
        let flushed = std::mem::take(head);
        push_segment(conn, Bytes::from(flushed));
        push_segment(conn, value.clone());
    } else {
        head.extend_from_slice(value);
    }
}

fn push_segment(conn: &mut Conn, seg: Bytes) {
    if !seg.is_empty() {
        conn.pending_out += seg.len();
        conn.out.push_back(seg);
    }
}

/// Write as much of `out` as the socket accepts, vectored. Returns the
/// bytes written; `WouldBlock` ends the round without error.
fn write_out(stream: &TcpStream, out: &mut VecDeque<Bytes>, off: &mut usize) -> io::Result<u64> {
    let mut total: u64 = 0;
    loop {
        if out.is_empty() {
            *off = 0;
            return Ok(total);
        }
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOV.min(out.len()));
        for (i, seg) in out.iter().enumerate() {
            if slices.len() == MAX_IOV {
                break;
            }
            let start = if i == 0 { *off } else { 0 };
            slices.push(IoSlice::new(&seg[start..]));
        }
        let mut sref = stream;
        let mut n = match sref.write_vectored(&slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write response",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(total),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        total += n as u64;
        while n > 0 {
            let front_len = out.front().expect("bytes written to empty queue").len() - *off;
            if n >= front_len {
                n -= front_len;
                out.pop_front();
                *off = 0;
            } else {
                *off += n;
                n = 0;
            }
        }
    }
}
