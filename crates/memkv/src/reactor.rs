//! Evented transport core: one shared epoll reactor drives every
//! registered connection — to any number of servers — without blocking
//! callers on socket I/O.
//!
//! The blocking client parked one OS thread per in-flight call — a mount
//! fanning out to `n` servers needed `n` engine workers just to keep the
//! sockets busy, so aggregate bandwidth plateaued at the worker count
//! instead of the server count (the paper's full-bisection claim, §3.2,
//! needs *every* server streaming concurrently). The first evented cut
//! fixed that but spent one reactor thread per [`crate::net::TcpClient`]:
//! a 64-server mount burned 64 epoll threads, each draining completions
//! for its own server in isolation.
//!
//! Now the reactor is a process-wide resource shared through a
//! [`ReactorHandle`]. Each `TcpClient` *registers* its pre-connected
//! sockets with a handle and gets back a [`Registration`] — a set of
//! tokens naming its connections inside the shared loop. One reactor
//! thread multiplexes every server's sockets, so:
//!
//! * a 16-server mount runs **one** reactor thread instead of 16;
//! * one epoll wake drains completions for *all* servers, delivering them
//!   to waiting callers in cross-server batches (the pool's sliding
//!   window observes completions as they land anywhere in the cluster);
//! * deadlines live in one hierarchical [`TimerWheel`] per loop: O(1)
//!   arm/cancel, and an idle loop sleeps precisely until the next armed
//!   timer instead of scanning every connection's queue front.
//!
//! Semantics carried over from the per-client reactor:
//!
//! * **Pipelining** — all frames of a batch are queued on one connection
//!   and answered in order; concurrent batches interleave at frame
//!   granularity on the same socket without head-of-line blocking between
//!   connections.
//! * **Idempotent-only retry** — a batch that dies with the connection is
//!   replayed once after a reconnect, but only if every request in it is
//!   idempotent (`add`/`append`/`cas` batches surface the I/O error).
//! * **Reconnect** — a dead connection is reopened *inside the loop*: a
//!   non-blocking `connect()` parks as [`Link::Connecting`] until epoll
//!   reports writability and `SO_ERROR` renders the verdict. No helper
//!   thread is ever spawned. Failed attempts back off exponentially
//!   (10 ms doubling to 500 ms), so a refused storm costs a bounded
//!   trickle of syscalls instead of a hot spin.
//! * **Deadlines** — a per-call timeout
//!   ([`crate::net::PoolConfig::timeout`], stored per registration). A
//!   server that accepts and then never answers is timed out, the
//!   connection severed (the FIFO response alignment is unrecoverable
//!   once a reply is abandoned), and the caller gets
//!   [`KvError::Timeout`]. A stalled server only stalls its own
//!   connections: the shared loop keeps every other server streaming.
//!
//! Lifecycle: the reactor thread starts with the first handle and exits
//! when the last handle drops ([`ReactorHandle`] is an `Arc` in a
//! trenchcoat). Dropping a `Registration` deregisters its connections —
//! queued batches fail with `NotConnected` and the token slots return to
//! a free list for the next registration.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::error::{KvError, KvResult};
use crate::net::{try_parse_response, ParseStep, SEGMENT_THRESHOLD};
use crate::poll::{Poller, WAKE_TOKEN};
use crate::proto::Response;
use crate::wheel::{TimerId, TimerWheel};

/// Max iovec entries per `writev` — matches the kernel's UIO_FASTIOV.
const MAX_IOV: usize = 8;
/// Spare `inbuf` capacity a `read` is offered while the parser has not
/// announced a payload: room for any header line or small reply. It *is*
/// [`crate::net`]'s zero-copy bar: a lone value frame's buffer then never
/// exceeds `max(2 * MIN_SPARE, frame length)`, which keeps the "payload
/// fills at least half the buffer" hand-over rule true for every value of
/// that size and up.
const MIN_SPARE: usize = SEGMENT_THRESHOLD;
/// Bytes a connection takes in between two `TCP_QUICKACK` re-arms. Keyed
/// on what the socket *received* — a payload-sized amount, i.e. a response
/// whose last segment the peer's congestion control will time — never on
/// which call or workload produced it. Replies smaller than this leave
/// the kernel's delayed ACK alone: the next request carries their ACK.
const QUICKACK_REARM_BYTES: usize = 64 * 1024;
/// First reconnect backoff after a failed connect attempt.
const MIN_BACKOFF: Duration = Duration::from_millis(10);
/// Backoff ceiling — an unreachable server is probed at most ~2/s.
const MAX_BACKOFF: Duration = Duration::from_millis(500);
/// Floor for the connect deadline, mirroring the old helper-thread
/// `connect_timeout` floor.
const MIN_CONNECT_TIMEOUT: Duration = Duration::from_millis(50);

/// Where [`pin_malloc_thresholds`] holds glibc's `M_MMAP_THRESHOLD` and
/// `M_TRIM_THRESHOLD`: the top of the range its own dynamic adjustment
/// moves them in (`DEFAULT_MMAP_THRESHOLD_MAX` on 64-bit, and twice that).
#[cfg(target_env = "gnu")]
const MALLOC_MMAP_THRESHOLD: libc::c_int = 32 << 20;
#[cfg(target_env = "gnu")]
const MALLOC_TRIM_THRESHOLD: libc::c_int = 64 << 20;

/// Pin glibc malloc's `mmap` and trim thresholds, once per process; a
/// no-op under any other C library.
///
/// A process that starts a reactor — or a storage server
/// (`KvServer::spawn_with` calls this too) — is about to move
/// stripe-sized buffers (512 KiB stripes, multi-stripe reply frames, the
/// stored values themselves) through `malloc` at line rate, and two
/// thresholds decide what each one costs: a request at or
/// above `M_MMAP_THRESHOLD` is a fresh `mmap` — zero-filled page by page
/// as it is first written, unmapped on free, ≈ 130 µs per stripe — and
/// free heap beyond `M_TRIM_THRESHOLD` goes back to the kernel, to be
/// faulted in again by the next file. By default both *move with what the
/// process happened to free first* (each freed `mmap`ped chunk raises
/// them) and whether a freed buffer reaches the heap top depends on which
/// small allocation landed above it, so one mount in one process settles
/// in any of three regimes — and stays there: buffers recycled (0 page
/// faults per 256 MiB written and read back), read frames faulted in anew
/// (≈ 60 k, reads at ⅔ speed) or write buffers too (≈ 110 k, writes at ⅗
/// speed). Which one was decided by the order of unrelated allocations,
/// so it differed from run to run and moved with every code change
/// (DESIGN.md §4l). Pinned, every such buffer is heap memory that stays
/// mapped: the first regime, always. The cost is up to the trim
/// threshold of freed heap per arena kept instead of returned; a server
/// keeps the heap its deleted values lived in, as memcached keeps its
/// slabs, and the next file written to it faults nothing in.
pub(crate) fn pin_malloc_thresholds() {
    #[cfg(target_env = "gnu")]
    {
        static PINNED: std::sync::Once = std::sync::Once::new();
        // SAFETY: `mallopt` takes two integers and is thread-safe (it
        // locks the main arena); setting either parameter turns the
        // dynamic adjustment off.
        PINNED.call_once(|| unsafe {
            // Out of range on 32-bit glibc, where the call changes
            // nothing; the trim threshold alone would freeze the `mmap`
            // threshold at its 128 KiB default, so it is set only behind
            // a successful first call.
            if libc::mallopt(libc::M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD) == 1 {
                libc::mallopt(libc::M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD);
            }
        });
    }
}

/// Reactor observability counters, updated by the loop thread and read
/// by [`ReactorHandle::stats`] without synchronization beyond atomics.
#[derive(Default)]
struct ReactorStats {
    /// `epoll_wait` returns (including pure command wakes).
    wakeups: AtomicU64,
    /// Batches completed (delivered to a waiting caller), ok or err.
    completions: AtomicU64,
    /// Loop iterations that delivered at least one completion. The ratio
    /// `completions / completion_batches` is the cross-server batching
    /// factor: how many callers one wake unblocks on average.
    completion_batches: AtomicU64,
    /// Connections currently registered (across all clients).
    registered_connections: AtomicUsize,
    /// Request deadlines fired (each severs its connection).
    timeouts: AtomicU64,
    /// Connect attempts started by the loop (lazy reconnects and
    /// post-failure retries; initial registrations arrive pre-connected).
    reconnects: AtomicU64,
    /// Non-blocking connects currently parked on EPOLLOUT (gauge).
    connects_in_flight: AtomicUsize,
    /// Timer-wheel entries demoted a level by cascading.
    timer_cascades: AtomicU64,
    /// Payload + frame bytes written to sockets.
    bytes_tx: AtomicU64,
    /// Bytes read from sockets.
    bytes_rx: AtomicU64,
    /// Liveness probes submitted on idle connections.
    heartbeats: AtomicU64,
    /// Registered connections whose link is currently established
    /// (gauge). `links_up < registered_connections` means some server is
    /// unreachable — the failure-detection census in one number.
    links_up: AtomicUsize,
}

/// Point-in-time copy of a reactor's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactorStatsSnapshot {
    /// Identity of the reactor these counters belong to. Clients sharing
    /// one reactor report the same id — dedup on it when aggregating.
    pub reactor_id: usize,
    /// `epoll_wait` returns.
    pub wakeups: u64,
    /// Batches completed (ok or err).
    pub completions: u64,
    /// Loop iterations that delivered ≥ 1 completion.
    pub completion_batches: u64,
    /// Connections currently registered.
    pub registered_connections: usize,
    /// Request deadlines fired.
    pub timeouts: u64,
    /// Connect attempts started by the loop.
    pub reconnects: u64,
    /// Non-blocking connects currently awaiting EPOLLOUT.
    pub connects_in_flight: usize,
    /// Timer-wheel cascade moves so far.
    pub timer_cascades: u64,
    /// Bytes written to sockets.
    pub bytes_tx: u64,
    /// Bytes read from sockets.
    pub bytes_rx: u64,
    /// Liveness probes submitted on idle connections.
    pub heartbeats: u64,
    /// Registered connections whose link is currently established.
    pub links_up: usize,
}

impl ReactorStatsSnapshot {
    /// Average completions delivered per completion-bearing wake (> 1
    /// means one epoll wake routinely unblocks callers waiting on
    /// different servers).
    pub fn batching_factor(&self) -> f64 {
        if self.completion_batches == 0 {
            0.0
        } else {
            self.completions as f64 / self.completion_batches as f64
        }
    }
}

impl ReactorStats {
    fn snapshot(&self, reactor_id: usize) -> ReactorStatsSnapshot {
        ReactorStatsSnapshot {
            reactor_id,
            wakeups: self.wakeups.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            completion_batches: self.completion_batches.load(Ordering::Relaxed),
            registered_connections: self.registered_connections.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            connects_in_flight: self.connects_in_flight.load(Ordering::Relaxed),
            timer_cascades: self.timer_cascades.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            links_up: self.links_up.load(Ordering::Relaxed),
        }
    }
}

/// Connection census of one registration, shared between the loop thread
/// and the registering client: of `total` registered connections, how
/// many currently hold an established stream. The loop writes at link
/// transitions (adopt / close / release); the client reads it to answer
/// [`crate::client::KvClient::health`] without a reactor round trip.
pub(crate) struct LinkHealth {
    up: AtomicUsize,
    total: AtomicUsize,
}

impl LinkHealth {
    fn new(total: usize) -> LinkHealth {
        LinkHealth {
            up: AtomicUsize::new(0),
            total: AtomicUsize::new(total),
        }
    }

    /// `(established, registered)` connection counts.
    pub(crate) fn census(&self) -> (usize, usize) {
        (
            self.up.load(Ordering::Relaxed),
            self.total.load(Ordering::Relaxed),
        )
    }
}

/// Completion slot shared between a submitter and the reactor.
struct CallShared {
    state: Mutex<Option<KvResult<Vec<Response>>>>,
    cv: Condvar,
}

/// Handle to one in-flight pipelined batch. [`PendingExchange::wait`]
/// parks the caller until the reactor delivers the responses (or the
/// failure) — this is the completion half of the split submit/completion
/// path.
pub(crate) struct PendingExchange {
    done: Arc<CallShared>,
}

impl PendingExchange {
    pub(crate) fn wait(self) -> KvResult<Vec<Response>> {
        let mut state = self.done.state.lock();
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            self.done.cv.wait(&mut state);
        }
    }

    /// A non-consuming readiness probe: `true` once the reactor has
    /// delivered this batch's result, so a sliding-window driver can
    /// settle completions in arrival order instead of submission order.
    pub(crate) fn probe(&self) -> Box<dyn Fn() -> bool + Send> {
        let done = Arc::clone(&self.done);
        Box::new(move || done.state.lock().is_some())
    }
}

/// One pipelined batch owned by the reactor: pre-encoded wire segments, a
/// write cursor, and the responses collected so far.
struct Exchange {
    /// Encoded frames. Headers are coalesced; stripe-sized payloads ride
    /// as their own zero-copy segments. Never contains an empty segment.
    segments: Vec<Bytes>,
    /// Write cursor: next segment index / offset within it.
    seg: usize,
    off: usize,
    /// Responses expected (one per request in the batch).
    expect: usize,
    got: Vec<Response>,
    /// Whether the whole batch may be replayed after a connection drop.
    idempotent: bool,
    /// A batch is replayed at most once.
    retried: bool,
    deadline: Instant,
    done: Arc<CallShared>,
}

impl Exchange {
    fn deliver(done: &CallShared, result: KvResult<Vec<Response>>) {
        *done.state.lock() = Some(result);
        done.cv.notify_all();
    }

    fn finish_ok(self, stats: &ReactorStats) {
        stats.completions.fetch_add(1, Ordering::Relaxed);
        let Exchange { got, done, .. } = self;
        Self::deliver(&done, Ok(got));
    }

    fn finish_err(self, err: KvError, stats: &ReactorStats) {
        stats.completions.fetch_add(1, Ordering::Relaxed);
        Self::deliver(&self.done, Err(err));
    }

    /// Bytes of this batch still unwritten?
    fn unwritten(&self) -> bool {
        self.seg < self.segments.len()
    }
}

/// Reply slot for the synchronous [`Command::Register`] round trip.
struct RegisterReply {
    state: Mutex<Option<io::Result<Vec<usize>>>>,
    cv: Condvar,
}

impl RegisterReply {
    fn new() -> RegisterReply {
        RegisterReply {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) -> io::Result<Vec<usize>> {
        let mut state = self.state.lock();
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            self.cv.wait(&mut state);
        }
    }

    fn set(&self, result: io::Result<Vec<usize>>) {
        *self.state.lock() = Some(result);
        self.cv.notify_all();
    }
}

enum Command {
    /// Adopt pre-connected streams into the loop, allocating one token
    /// slot per stream. Answered through `reply` (registration is the
    /// only synchronous round trip — it happens once per client).
    Register {
        addr: SocketAddr,
        streams: Vec<TcpStream>,
        timeout: Duration,
        heartbeat: Option<Duration>,
        health: Arc<LinkHealth>,
        reply: Arc<RegisterReply>,
    },
    /// Release token slots: queued batches fail with `NotConnected`, any
    /// in-flight connect is abandoned, and the slots return to the free
    /// list. Fire-and-forget — a dropping client does not wait on the
    /// loop.
    Deregister {
        tokens: Vec<usize>,
    },
    Submit {
        conn: usize,
        call: Exchange,
    },
}

struct Inbox {
    commands: Vec<Command>,
    shutdown: bool,
}

struct Shared {
    poller: Poller,
    inbox: Mutex<Inbox>,
    stats: ReactorStats,
}

/// What a timer firing means for its connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimerKind {
    /// The front exchange's deadline passed.
    Deadline,
    /// A non-blocking connect never became writable.
    ConnectTimeout,
    /// Backoff elapsed; a parked queue may try connecting again.
    ConnectRetry,
    /// Periodic liveness tick: probe an idle Up link with `version`, or
    /// re-attempt the connect of a Down one. Keeps the health census
    /// fresh between real calls.
    Heartbeat,
}

/// Transport state of one connection slot.
enum Link {
    /// No socket. Submits park on the queue and (re)connect lazily.
    Down,
    /// Non-blocking connect in flight, fd registered for EPOLLOUT.
    Connecting(OwnedFd),
    /// Established stream registered for EPOLLIN.
    Up(TcpStream),
}

/// Per-connection state, owned exclusively by the reactor thread. Slots
/// are reused across registrations. Stale timers cannot cross
/// incarnations: every teardown cancels the slot's armed timers, and
/// [`TimerId`]s are generation-checked besides.
struct ConnState {
    link: Link,
    /// In-flight batches in submission order. The wire answers in the same
    /// order, so the front batch owns the next parsed response.
    queue: VecDeque<Exchange>,
    /// Accumulated unparsed response bytes.
    inbuf: Vec<u8>,
    /// `inbuf` length below which the front frame is known incomplete (the
    /// parser's last `More` hint): no re-parse and, for an announced value
    /// payload, one exact reservation instead of chunked growth.
    need: usize,
    /// Bytes received since `TCP_QUICKACK` was last re-armed.
    rx_since_quickack: usize,
    /// Whether EPOLLOUT is currently registered (established links).
    want_write: bool,
    /// Server this slot connects to (meaningless while unregistered).
    addr: SocketAddr,
    /// Per-request deadline for this slot's registration.
    timeout: Duration,
    /// Slot is owned by a live [`Registration`].
    registered: bool,
    /// Armed wheel timer for the front exchange's deadline. The front has
    /// the earliest deadline (FIFO submission, uniform timeout), so one
    /// timer per connection suffices; re-armed on every front change.
    deadline_timer: Option<TimerId>,
    /// Armed `ConnectTimeout` (while `Connecting`) or `ConnectRetry`
    /// (while `Down` in backoff) — exclusive by link state.
    connect_timer: Option<TimerId>,
    /// Current reconnect backoff; zero after a successful connect.
    backoff: Duration,
    /// Earliest instant the next connect attempt may start.
    retry_at: Option<Instant>,
    /// Health census cell of this slot's registration (None while free).
    health: Option<Arc<LinkHealth>>,
    /// Whether this slot currently counts as established in the census.
    up_gauge: bool,
    /// Liveness probe interval (None: heartbeats disabled for this slot).
    heartbeat: Option<Duration>,
    /// Armed [`TimerKind::Heartbeat`] timer.
    heartbeat_timer: Option<TimerId>,
}

impl ConnState {
    fn new() -> ConnState {
        ConnState {
            link: Link::Down,
            queue: VecDeque::new(),
            inbuf: Vec::with_capacity(MIN_SPARE),
            need: 0,
            rx_since_quickack: 0,
            want_write: false,
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
            timeout: Duration::from_secs(10),
            registered: false,
            deadline_timer: None,
            connect_timer: None,
            backoff: Duration::ZERO,
            retry_at: None,
            health: None,
            up_gauge: false,
            heartbeat: None,
            heartbeat_timer: None,
        }
    }

    fn stream(&self) -> Option<&TcpStream> {
        match &self.link {
            Link::Up(stream) => Some(stream),
            _ => None,
        }
    }

    /// Forget buffered response bytes and the receive bookkeeping that
    /// describes them (a new or torn-down stream starts clean).
    fn reset_inbuf(&mut self) {
        self.inbuf.clear();
        self.need = 0;
        self.rx_since_quickack = 0;
    }
}

struct HandleInner {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for HandleInner {
    fn drop(&mut self) {
        self.shared.inbox.lock().shutdown = true;
        self.shared.poller.notify();
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
    }
}

/// Cloneable owner of one shared reactor thread. Clients register their
/// connections with [`TcpClient::connect_shared`]
/// (`crate::net::TcpClient`); every clone refers to the same loop, and
/// the thread exits when the last clone (including those held by live
/// registrations) drops.
#[derive(Clone)]
pub struct ReactorHandle {
    inner: Arc<HandleInner>,
}

impl ReactorHandle {
    /// Spawn the reactor thread (named `memkv-reactor`) with no
    /// registered connections. The first call in a process also pins
    /// glibc malloc's `mmap` and trim thresholds, so that what a
    /// stripe-sized buffer costs does not depend on the process's
    /// allocation history.
    pub fn new() -> KvResult<ReactorHandle> {
        pin_malloc_thresholds();
        let poller = Poller::new()?;
        let shared = Arc::new(Shared {
            poller,
            inbox: Mutex::new(Inbox {
                commands: Vec::new(),
                shutdown: false,
            }),
            stats: ReactorStats::default(),
        });
        let event_loop = EventLoop {
            shared: Arc::clone(&shared),
            conns: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(Instant::now()),
        };
        let thread = std::thread::Builder::new()
            .name("memkv-reactor".into())
            .spawn(move || event_loop.run())
            .map_err(KvError::Io)?;
        Ok(ReactorHandle {
            inner: Arc::new(HandleInner {
                shared,
                thread: Mutex::new(Some(thread)),
            }),
        })
    }

    /// Current counters for this reactor.
    pub fn stats(&self) -> ReactorStatsSnapshot {
        let shared = &self.inner.shared;
        shared.stats.snapshot(Arc::as_ptr(shared) as usize)
    }

    fn command(&self, cmd: Command) {
        self.inner.shared.inbox.lock().commands.push(cmd);
        self.inner.shared.poller.notify();
    }

    /// Adopt pre-connected `streams` (switched to non-blocking inside the
    /// loop) as one client's connections to the server at `addr`. With
    /// `heartbeat` set, each connection is probed at that interval while
    /// idle, keeping the registration's health census fresh without
    /// foreground traffic.
    pub(crate) fn register(
        &self,
        addr: SocketAddr,
        streams: Vec<TcpStream>,
        timeout: Duration,
        heartbeat: Option<Duration>,
    ) -> KvResult<Registration> {
        let reply = Arc::new(RegisterReply::new());
        let health = Arc::new(LinkHealth::new(streams.len()));
        self.command(Command::Register {
            addr,
            streams,
            timeout,
            heartbeat,
            health: Arc::clone(&health),
            reply: Arc::clone(&reply),
        });
        // The loop cannot shut down while this handle is alive, so the
        // reply always arrives.
        let tokens = reply.wait().map_err(KvError::Io)?;
        Ok(Registration {
            handle: self.clone(),
            tokens,
            timeout,
            health,
        })
    }

    /// Queue one pre-encoded batch on connection `token` and return the
    /// completion handle. Never blocks on the network.
    fn submit(
        &self,
        token: usize,
        segments: Vec<Bytes>,
        expect: usize,
        idempotent: bool,
        timeout: Duration,
    ) -> PendingExchange {
        let done = Arc::new(CallShared {
            state: Mutex::new(None),
            cv: Condvar::new(),
        });
        if expect == 0 {
            Exchange::deliver(&done, Ok(Vec::new()));
            return PendingExchange { done };
        }
        debug_assert!(segments.iter().all(|s| !s.is_empty()));
        let call = Exchange {
            segments,
            seg: 0,
            off: 0,
            expect,
            got: Vec::with_capacity(expect),
            idempotent,
            retried: false,
            deadline: Instant::now() + timeout,
            done: Arc::clone(&done),
        };
        self.command(Command::Submit { conn: token, call });
        PendingExchange { done }
    }
}

/// One client's set of connections inside a shared reactor. Dropping it
/// deregisters the connections (queued batches fail with `NotConnected`)
/// and keeps the reactor alive for other registrants.
pub(crate) struct Registration {
    handle: ReactorHandle,
    tokens: Vec<usize>,
    timeout: Duration,
    health: Arc<LinkHealth>,
}

impl Registration {
    pub(crate) fn len(&self) -> usize {
        self.tokens.len()
    }

    pub(crate) fn handle(&self) -> &ReactorHandle {
        &self.handle
    }

    /// `(established, registered)` connection counts for this
    /// registration, maintained by the loop at link transitions.
    pub(crate) fn health_census(&self) -> (usize, usize) {
        self.health.census()
    }

    /// Submit on the `slot`-th registered connection.
    pub(crate) fn submit(
        &self,
        slot: usize,
        segments: Vec<Bytes>,
        expect: usize,
        idempotent: bool,
    ) -> PendingExchange {
        self.handle.submit(
            self.tokens[slot],
            segments,
            expect,
            idempotent,
            self.timeout,
        )
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.handle.command(Command::Deregister {
            tokens: std::mem::take(&mut self.tokens),
        });
    }
}

/// Duplicate an `io::Error` (needed to fan one failure out to a whole
/// queue of batches).
fn dup_io(err: &io::Error) -> io::Error {
    io::Error::new(err.kind(), err.to_string())
}

/// Outcome of starting a non-blocking `connect()`.
enum ConnectStart {
    /// Completed synchronously (possible on loopback).
    Connected(OwnedFd),
    /// `EINPROGRESS`: park on EPOLLOUT for the verdict.
    InProgress(OwnedFd),
}

/// `socket(SOCK_NONBLOCK) + connect()`, never blocking the loop.
fn start_nonblocking_connect(addr: &SocketAddr) -> io::Result<ConnectStart> {
    let domain = match addr {
        SocketAddr::V4(_) => libc::AF_INET,
        SocketAddr::V6(_) => libc::AF_INET6,
    };
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
    let fd = unsafe { OwnedFd::from_raw_fd(raw) };
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
            unsafe {
                libc::connect(
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
            unsafe {
                libc::connect(
                    fd.as_raw_fd(),
                    (&sin6 as *const libc::sockaddr_in6).cast(),
                    std::mem::size_of::<libc::sockaddr_in6>() as libc::socklen_t,
                )
            }
        }
    };
    if rc == 0 {
        return Ok(ConnectStart::Connected(fd));
    }
    let err = io::Error::last_os_error();
    match err.raw_os_error() {
        Some(code) if code == libc::EINPROGRESS || code == libc::EINTR => {
            Ok(ConnectStart::InProgress(fd))
        }
        _ => Err(err),
    }
}

/// Pending error on a connecting socket (`SO_ERROR`), 0 when connected.
fn connect_so_error(fd: RawFd) -> io::Result<i32> {
    let mut err: libc::c_int = 0;
    let mut len = std::mem::size_of::<libc::c_int>() as libc::socklen_t;
    let rc = unsafe {
        libc::getsockopt(
            fd,
            libc::SOL_SOCKET,
            libc::SO_ERROR,
            (&mut err as *mut libc::c_int).cast(),
            &mut len,
        )
    };
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(err)
    }
}

struct EventLoop {
    shared: Arc<Shared>,
    /// Token-indexed connection slab.
    conns: Vec<ConnState>,
    /// Deregistered slots available for reuse.
    free: Vec<usize>,
    /// All armed timers of this loop: request deadlines, connect
    /// timeouts, reconnect backoffs.
    wheel: TimerWheel<(usize, TimerKind)>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<(u64, u32)> = Vec::new();
        loop {
            // Completions delivered by this iteration — commands, expired
            // timers and socket events alike — count as one wake batch.
            let before = self.shared.stats.completions.load(Ordering::Relaxed);
            let (commands, shutdown) = {
                let mut inbox = self.shared.inbox.lock();
                (std::mem::take(&mut inbox.commands), inbox.shutdown)
            };
            for cmd in commands {
                self.handle_command(cmd);
            }
            if shutdown {
                self.abort_all();
                return;
            }
            for (idx, kind) in self.wheel.advance(Instant::now()) {
                self.handle_timer(idx, kind);
            }
            self.shared
                .stats
                .timer_cascades
                .store(self.wheel.cascades(), Ordering::Relaxed);
            let poll_timeout = self
                .wheel
                .next_wake()
                .map(|d| d.saturating_duration_since(Instant::now()));
            if self.shared.poller.wait(&mut events, poll_timeout).is_err() {
                // Transient poll failure: retry; timers still advance.
                continue;
            }
            self.shared.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            for &(token, ev) in events.iter() {
                if token == WAKE_TOKEN {
                    self.shared.poller.drain_wake();
                    continue;
                }
                let idx = token as usize;
                if idx >= self.conns.len() {
                    continue;
                }
                if matches!(self.conns[idx].link, Link::Connecting(_)) {
                    // Writable or error: either way SO_ERROR renders the
                    // verdict on the in-flight connect.
                    if ev & (libc::EPOLLOUT | libc::EPOLLERR | libc::EPOLLHUP) != 0 {
                        self.finish_connect(idx);
                    }
                    continue;
                }
                if ev & (libc::EPOLLERR | libc::EPOLLHUP) != 0 {
                    self.kill_conn(
                        idx,
                        io::Error::new(io::ErrorKind::ConnectionReset, "connection error"),
                    );
                    continue;
                }
                if ev & (libc::EPOLLIN | libc::EPOLLRDHUP) != 0 {
                    self.handle_readable(idx);
                }
                if ev & libc::EPOLLOUT != 0 {
                    self.flush_conn(idx);
                }
            }
            let delivered = self.shared.stats.completions.load(Ordering::Relaxed) - before;
            if delivered > 0 {
                self.shared
                    .stats
                    .completion_batches
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn handle_command(&mut self, cmd: Command) {
        match cmd {
            Command::Register {
                addr,
                streams,
                timeout,
                heartbeat,
                health,
                reply,
            } => self.handle_register(addr, streams, timeout, heartbeat, &health, &reply),
            Command::Deregister { tokens } => {
                for token in tokens {
                    self.release_slot(token);
                }
            }
            Command::Submit { conn, call } => {
                self.conns[conn].queue.push_back(call);
                if self.conns[conn].queue.len() == 1 {
                    self.arm_front_deadline(conn);
                }
                if matches!(self.conns[conn].link, Link::Up(_)) {
                    self.flush_conn(conn);
                } else if matches!(self.conns[conn].link, Link::Down) {
                    // Lazy reconnect: a connection that died idle (server
                    // restart between calls) comes back on first use. A
                    // pending connect needs nothing — its completion
                    // flushes the queue.
                    self.maybe_connect(conn);
                }
            }
        }
    }

    fn handle_timer(&mut self, idx: usize, kind: TimerKind) {
        match kind {
            TimerKind::Deadline => {
                self.conns[idx].deadline_timer = None;
                let now = Instant::now();
                let expired = self.conns[idx]
                    .queue
                    .front()
                    .is_some_and(|ex| ex.deadline <= now);
                if !expired {
                    // Wheel ticks round up, so this is unreachable in
                    // practice; re-arm defensively rather than drop a
                    // deadline.
                    self.arm_front_deadline(idx);
                    return;
                }
                let front = self.conns[idx].queue.pop_front().expect("front expired");
                let after = self.conns[idx].timeout;
                // Count before delivering: a caller that observed the
                // Timeout error must also observe the counter.
                self.shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                front.finish_err(KvError::Timeout { after }, &self.shared.stats);
                self.kill_conn(
                    idx,
                    io::Error::new(
                        io::ErrorKind::TimedOut,
                        "connection abandoned after request timeout",
                    ),
                );
            }
            TimerKind::ConnectTimeout => {
                self.conns[idx].connect_timer = None;
                if matches!(self.conns[idx].link, Link::Connecting(_)) {
                    self.connect_failed(
                        idx,
                        io::Error::new(io::ErrorKind::TimedOut, "connect timed out"),
                    );
                }
            }
            TimerKind::ConnectRetry => {
                self.conns[idx].connect_timer = None;
                let wants_connect = self.conns[idx].registered
                    && matches!(self.conns[idx].link, Link::Down)
                    && !self.conns[idx].queue.is_empty();
                if wants_connect {
                    self.begin_connect(idx);
                }
            }
            TimerKind::Heartbeat => {
                self.conns[idx].heartbeat_timer = None;
                if !self.conns[idx].registered {
                    return;
                }
                match self.conns[idx].link {
                    // An idle Up link gets a probe; pending foreground
                    // traffic already proves (or disproves) liveness.
                    Link::Up(_) if self.conns[idx].queue.is_empty() => self.submit_probe(idx),
                    Link::Up(_) | Link::Connecting(_) => {}
                    // A Down link is re-dialed even with nothing queued,
                    // so a revived server is noticed without waiting for
                    // a caller to submit.
                    Link::Down => {
                        let now = Instant::now();
                        let in_backoff = matches!(self.conns[idx].retry_at, Some(at) if at > now);
                        if self.conns[idx].connect_timer.is_none() && !in_backoff {
                            self.begin_connect(idx);
                        }
                    }
                }
                self.arm_heartbeat(idx);
            }
        }
    }

    /// Arm the next heartbeat tick for `idx`, when enabled.
    fn arm_heartbeat(&mut self, idx: usize) {
        let Some(interval) = self.conns[idx].heartbeat else {
            return;
        };
        if let Some(id) = self.conns[idx].heartbeat_timer.take() {
            self.wheel.cancel(id);
        }
        let id = self
            .wheel
            .arm(Instant::now() + interval, (idx, TimerKind::Heartbeat));
        self.conns[idx].heartbeat_timer = Some(id);
    }

    /// Queue an internal `version` probe on an idle Up link. Nobody waits
    /// on its completion slot — the probe exists to force traffic so a
    /// dead peer is detected (EOF, RST or deadline) between real calls,
    /// which keeps the link gauge honest while the mount is quiet.
    fn submit_probe(&mut self, idx: usize) {
        self.shared.stats.heartbeats.fetch_add(1, Ordering::Relaxed);
        let done = Arc::new(CallShared {
            state: Mutex::new(None),
            cv: Condvar::new(),
        });
        let probe = Exchange {
            segments: vec![Bytes::from_static(b"version\r\n")],
            seg: 0,
            off: 0,
            expect: 1,
            got: Vec::with_capacity(1),
            idempotent: true,
            retried: false,
            deadline: Instant::now() + self.conns[idx].timeout,
            done,
        };
        self.conns[idx].queue.push_back(probe);
        self.arm_front_deadline(idx); // queue was empty: probe is the front
        self.flush_conn(idx);
    }

    /// (Re)arm `idx`'s deadline timer for its current queue front.
    fn arm_front_deadline(&mut self, idx: usize) {
        if let Some(id) = self.conns[idx].deadline_timer.take() {
            self.wheel.cancel(id);
        }
        if let Some(deadline) = self.conns[idx].queue.front().map(|ex| ex.deadline) {
            let id = self.wheel.arm(deadline, (idx, TimerKind::Deadline));
            self.conns[idx].deadline_timer = Some(id);
        }
    }

    /// Allocate one slot per stream, wire the fds into epoll, and answer
    /// the registering client with the tokens. Partial failure rolls the
    /// already-adopted streams back.
    fn handle_register(
        &mut self,
        addr: SocketAddr,
        streams: Vec<TcpStream>,
        timeout: Duration,
        heartbeat: Option<Duration>,
        health: &Arc<LinkHealth>,
        reply: &RegisterReply,
    ) {
        let mut tokens = Vec::with_capacity(streams.len());
        let mut failure: Option<io::Error> = None;
        for stream in streams {
            let token = self.alloc_slot();
            {
                let conn = &mut self.conns[token];
                conn.addr = addr;
                conn.timeout = timeout;
                conn.registered = true;
                conn.health = Some(Arc::clone(health));
                conn.heartbeat = heartbeat;
            }
            self.shared
                .stats
                .registered_connections
                .fetch_add(1, Ordering::Relaxed);
            match self.adopt_stream(token, stream) {
                Ok(()) => {
                    self.arm_heartbeat(token);
                    tokens.push(token);
                }
                Err(err) => {
                    self.release_slot(token);
                    failure = Some(err);
                    break;
                }
            }
        }
        match failure {
            None => reply.set(Ok(tokens)),
            Some(err) => {
                for token in tokens {
                    self.release_slot(token);
                }
                reply.set(Err(err));
            }
        }
    }

    fn alloc_slot(&mut self) -> usize {
        match self.free.pop() {
            Some(token) => token,
            None => {
                self.conns.push(ConnState::new());
                self.conns.len() - 1
            }
        }
    }

    /// Deregister one slot: fail its queue, abandon any in-flight
    /// connect, cancel its timers, and free the token.
    fn release_slot(&mut self, token: usize) {
        if !self.conns[token].registered {
            return;
        }
        self.close_stream(token);
        let queue = std::mem::take(&mut self.conns[token].queue);
        for ex in queue {
            ex.finish_err(
                KvError::Io(io::Error::new(io::ErrorKind::NotConnected, "client closed")),
                &self.shared.stats,
            );
        }
        self.arm_front_deadline(token); // queue empty: cancels the timer
        if let Some(id) = self.conns[token].heartbeat_timer.take() {
            self.wheel.cancel(id);
        }
        let conn = &mut self.conns[token];
        conn.registered = false;
        conn.backoff = Duration::ZERO;
        conn.retry_at = None;
        conn.health = None;
        conn.heartbeat = None;
        self.shared
            .stats
            .registered_connections
            .fetch_sub(1, Ordering::Relaxed);
        self.free.push(token);
    }

    fn adopt_stream(&mut self, idx: usize, stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        self.shared.poller.add(
            stream.as_raw_fd(),
            idx as u64,
            libc::EPOLLIN | libc::EPOLLRDHUP,
        )?;
        let conn = &mut self.conns[idx];
        conn.link = Link::Up(stream);
        conn.want_write = false;
        conn.reset_inbuf();
        self.set_link_gauge(idx, true);
        Ok(())
    }

    /// Record a link transition in the registration's health census and
    /// the reactor-wide `links_up` gauge. Idempotent per direction.
    fn set_link_gauge(&mut self, idx: usize, up: bool) {
        let conn = &mut self.conns[idx];
        if conn.up_gauge == up {
            return;
        }
        conn.up_gauge = up;
        if up {
            if let Some(health) = &conn.health {
                health.up.fetch_add(1, Ordering::Relaxed);
            }
            self.shared.stats.links_up.fetch_add(1, Ordering::Relaxed);
        } else {
            if let Some(health) = &conn.health {
                health.up.fetch_sub(1, Ordering::Relaxed);
            }
            self.shared.stats.links_up.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Start connecting `idx` now if allowed, or park behind a
    /// `ConnectRetry` timer while backoff from the last failure runs.
    fn maybe_connect(&mut self, idx: usize) {
        let conn = &self.conns[idx];
        if !conn.registered || !matches!(conn.link, Link::Down) {
            return;
        }
        if conn.connect_timer.is_some() {
            return; // a retry is already scheduled
        }
        let now = Instant::now();
        match conn.retry_at {
            Some(at) if at > now => {
                let id = self.wheel.arm(at, (idx, TimerKind::ConnectRetry));
                self.conns[idx].connect_timer = Some(id);
            }
            _ => self.begin_connect(idx),
        }
    }

    /// Issue the non-blocking connect and park it on EPOLLOUT.
    fn begin_connect(&mut self, idx: usize) {
        debug_assert!(matches!(self.conns[idx].link, Link::Down));
        let addr = self.conns[idx].addr;
        self.shared.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        match start_nonblocking_connect(&addr) {
            Ok(ConnectStart::Connected(fd)) => match self.adopt_stream(idx, TcpStream::from(fd)) {
                Ok(()) => {
                    self.connect_succeeded(idx);
                }
                Err(err) => self.fail_queue(idx, err),
            },
            Ok(ConnectStart::InProgress(fd)) => {
                if let Err(err) = self
                    .shared
                    .poller
                    .add(fd.as_raw_fd(), idx as u64, libc::EPOLLOUT)
                {
                    self.record_connect_failure(idx, err);
                    return;
                }
                self.shared
                    .stats
                    .connects_in_flight
                    .fetch_add(1, Ordering::Relaxed);
                let deadline = Instant::now() + self.conns[idx].timeout.max(MIN_CONNECT_TIMEOUT);
                let id = self.wheel.arm(deadline, (idx, TimerKind::ConnectTimeout));
                let conn = &mut self.conns[idx];
                conn.link = Link::Connecting(fd);
                conn.connect_timer = Some(id);
            }
            Err(err) => self.record_connect_failure(idx, err),
        }
    }

    /// EPOLLOUT (or an error event) on a `Connecting` fd: read the
    /// verdict from `SO_ERROR` and either adopt the stream or fail.
    fn finish_connect(&mut self, idx: usize) {
        let raw = match &self.conns[idx].link {
            Link::Connecting(fd) => fd.as_raw_fd(),
            _ => return,
        };
        match connect_so_error(raw) {
            Ok(0) => {
                let fd = self
                    .teardown_connecting(idx)
                    .expect("link checked Connecting");
                match self.adopt_stream(idx, TcpStream::from(fd)) {
                    Ok(()) => {
                        self.connect_succeeded(idx);
                        self.flush_conn(idx);
                    }
                    Err(err) => self.fail_queue(idx, err),
                }
            }
            Ok(code) => self.connect_failed(idx, io::Error::from_raw_os_error(code)),
            Err(err) => self.connect_failed(idx, err),
        }
    }

    fn connect_succeeded(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        conn.backoff = Duration::ZERO;
        conn.retry_at = None;
    }

    /// Abandon the in-flight connect (if any), note the backoff, and
    /// surface `err` to every queued batch — the replay budget of
    /// anything that made it here is already spent.
    fn connect_failed(&mut self, idx: usize, err: io::Error) {
        self.teardown_connecting(idx);
        self.record_connect_failure(idx, err);
    }

    fn record_connect_failure(&mut self, idx: usize, err: io::Error) {
        let conn = &mut self.conns[idx];
        conn.backoff = if conn.backoff.is_zero() {
            MIN_BACKOFF
        } else {
            (conn.backoff * 2).min(MAX_BACKOFF)
        };
        conn.retry_at = Some(Instant::now() + conn.backoff);
        self.fail_queue(idx, err);
    }

    /// Drop a `Connecting` fd: deregister from epoll, cancel the connect
    /// (or retry) timer, and settle the in-flight gauge. Returns the fd
    /// when the link really was connecting.
    fn teardown_connecting(&mut self, idx: usize) -> Option<OwnedFd> {
        if let Some(id) = self.conns[idx].connect_timer.take() {
            self.wheel.cancel(id);
        }
        if !matches!(self.conns[idx].link, Link::Connecting(_)) {
            return None;
        }
        let Link::Connecting(fd) = std::mem::replace(&mut self.conns[idx].link, Link::Down) else {
            unreachable!("link checked above");
        };
        let _ = self.shared.poller.delete(fd.as_raw_fd());
        self.shared
            .stats
            .connects_in_flight
            .fetch_sub(1, Ordering::Relaxed);
        Some(fd)
    }

    /// Tear the link down without touching the queue.
    fn close_stream(&mut self, idx: usize) {
        drop(self.teardown_connecting(idx));
        if let Link::Up(stream) = std::mem::replace(&mut self.conns[idx].link, Link::Down) {
            let _ = self.shared.poller.delete(stream.as_raw_fd());
            drop(stream);
        }
        self.set_link_gauge(idx, false);
        let conn = &mut self.conns[idx];
        conn.reset_inbuf();
        conn.want_write = false;
    }

    /// The connection failed: idempotent batches that have not burned
    /// their replay yet stay queued (with reset cursors) for the
    /// reconnect; everything else completes with the I/O error.
    fn kill_conn(&mut self, idx: usize, err: io::Error) {
        self.close_stream(idx);
        let queue = std::mem::take(&mut self.conns[idx].queue);
        let mut keep = VecDeque::new();
        for mut ex in queue {
            if ex.idempotent && !ex.retried {
                ex.retried = true;
                ex.seg = 0;
                ex.off = 0;
                ex.got.clear();
                keep.push_back(ex);
            } else {
                ex.finish_err(KvError::Io(dup_io(&err)), &self.shared.stats);
            }
        }
        self.conns[idx].queue = keep;
        self.arm_front_deadline(idx);
        if !self.conns[idx].queue.is_empty() {
            self.maybe_connect(idx);
        }
    }

    /// Complete every queued batch with `err` (terminal — no retry).
    fn fail_queue(&mut self, idx: usize, err: io::Error) {
        self.close_stream(idx);
        let queue = std::mem::take(&mut self.conns[idx].queue);
        for ex in queue {
            ex.finish_err(KvError::Io(dup_io(&err)), &self.shared.stats);
        }
        self.arm_front_deadline(idx); // queue empty: cancels the timer
    }

    /// Read until the socket is drained, straight into `inbuf`'s spare
    /// capacity (no bounce buffer), parsing as frames complete.
    fn handle_readable(&mut self, idx: usize) {
        loop {
            let conn = &mut self.conns[idx];
            let Some(fd) = conn.stream().map(AsRawFd::as_raw_fd) else {
                return;
            };
            // An announced value payload gets its remainder in one exact
            // reservation — the frame then fills the buffer to the byte
            // and is handed over whole; anything else reads into a small
            // amortized tail.
            let missing = conn.need.saturating_sub(conn.inbuf.len());
            let reserved = if missing > MIN_SPARE {
                conn.inbuf.try_reserve_exact(missing)
            } else if conn.inbuf.capacity() - conn.inbuf.len() < MIN_SPARE {
                conn.inbuf.try_reserve(MIN_SPARE)
            } else {
                Ok(())
            };
            if reserved.is_err() {
                self.poison_conn(
                    idx,
                    KvError::Protocol("response frame too large to buffer".into()),
                );
                return;
            }
            let spare = conn.inbuf.spare_capacity_mut();
            let offered = spare.len();
            // SAFETY: `spare` is `offered` writable bytes owned by `inbuf`,
            // and `fd` is this connection's open socket (the `TcpStream` in
            // `conn.link` outlives the call); `read` writes at most
            // `offered` bytes and needs no initialised input.
            let n = unsafe { libc::read(fd, spare.as_mut_ptr().cast(), offered) };
            if n < 0 {
                let err = io::Error::last_os_error();
                match err.kind() {
                    io::ErrorKind::WouldBlock => {
                        self.ack_tail(idx);
                        return;
                    }
                    io::ErrorKind::Interrupted => continue,
                    _ => {
                        self.kill_conn(idx, err);
                        return;
                    }
                }
            }
            let n = n as usize;
            if n == 0 {
                if conn.queue.is_empty() {
                    // Idle EOF: the server went away between calls.
                    // Close quietly; the next submit reconnects.
                    self.close_stream(idx);
                } else {
                    self.kill_conn(
                        idx,
                        io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"),
                    );
                }
                return;
            }
            // SAFETY: the kernel just initialised the first `n <= offered`
            // bytes of the spare capacity, so `len + n` is within capacity
            // and every byte below it is initialised.
            unsafe { conn.inbuf.set_len(conn.inbuf.len() + n) };
            conn.rx_since_quickack += n;
            self.shared
                .stats
                .bytes_rx
                .fetch_add(n as u64, Ordering::Relaxed);
            if let Err(err) = self.drain_inbuf(idx) {
                self.poison_conn(idx, err);
                return;
            }
            if n < offered {
                // A short read drained the socket; level-triggered epoll
                // reports whatever arrives later (EOF included).
                self.ack_tail(idx);
                return;
            }
        }
    }

    /// The socket is drained. If a payload-sized amount arrived since the
    /// last time, make the kernel ACK it now rather than after its
    /// delayed-ACK timer (≥ 40 ms): a reply's last segment meets a socket
    /// with nothing to send, and a rate-based sender (BBR) reads the late
    /// ACK as a bandwidth sample of a few MB/s and paces the *next* reply
    /// out over 40–130 ms. `TCP_QUICKACK` is not sticky — the kernel
    /// leaves quick-ACK mode after a handful of ACKs — hence the re-arm.
    /// Failure is harmless (the ACK is merely late), so it is ignored.
    fn ack_tail(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        if conn.rx_since_quickack < QUICKACK_REARM_BYTES {
            return;
        }
        let Some(fd) = conn.stream().map(AsRawFd::as_raw_fd) else {
            return;
        };
        conn.rx_since_quickack = 0;
        let on: libc::c_int = 1;
        // SAFETY: `fd` is this connection's open socket, and `optval`
        // points at a live `c_int` whose size is passed as `optlen`.
        unsafe {
            libc::setsockopt(
                fd,
                libc::IPPROTO_TCP,
                libc::TCP_QUICKACK,
                (&on as *const libc::c_int).cast(),
                std::mem::size_of::<libc::c_int>() as libc::socklen_t,
            );
        }
    }

    /// Parse as many complete responses as the buffer holds, completing
    /// front-of-queue batches as their counts fill.
    fn drain_inbuf(&mut self, idx: usize) -> KvResult<()> {
        let mut front_changed = false;
        let result = loop {
            let conn = &mut self.conns[idx];
            if conn.inbuf.is_empty() || conn.inbuf.len() < conn.need {
                break Ok(());
            }
            if conn.queue.is_empty() {
                break Err(KvError::Protocol(
                    "unsolicited response bytes from server".into(),
                ));
            }
            match try_parse_response(&mut conn.inbuf) {
                Err(err) => break Err(err),
                Ok(ParseStep::More(hint)) => {
                    // No wrap: the parser bounds a frame's end in `usize`.
                    conn.need = conn.inbuf.len() + hint;
                    break Ok(());
                }
                Ok(ParseStep::Done(resp)) => {
                    conn.need = 0;
                    let front = conn.queue.front_mut().expect("queue checked non-empty");
                    front.got.push(resp);
                    if front.got.len() == front.expect {
                        let ex = conn.queue.pop_front().expect("front exists");
                        ex.finish_ok(&self.shared.stats);
                        front_changed = true;
                    }
                }
            }
        };
        if front_changed {
            self.arm_front_deadline(idx);
        }
        result
    }

    /// A protocol-level breach: the front batch gets the parse error, the
    /// connection is unusable (framing lost) so the rest rides the normal
    /// kill path.
    fn poison_conn(&mut self, idx: usize, err: KvError) {
        if let Some(front) = self.conns[idx].queue.pop_front() {
            front.finish_err(err, &self.shared.stats);
        }
        self.kill_conn(
            idx,
            io::Error::new(
                io::ErrorKind::InvalidData,
                "connection closed after protocol error",
            ),
        );
    }

    fn flush_conn(&mut self, idx: usize) {
        match write_queued(&mut self.conns[idx]) {
            Ok(written) => {
                if written > 0 {
                    self.shared
                        .stats
                        .bytes_tx
                        .fetch_add(written, Ordering::Relaxed);
                }
                self.update_write_interest(idx);
            }
            Err(err) => self.kill_conn(idx, err),
        }
    }

    /// Keep EPOLLOUT registered exactly while unwritten bytes exist
    /// (level-triggered — leaving it on would spin the reactor).
    fn update_write_interest(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        let want = conn.queue.iter().any(Exchange::unwritten);
        let Some(stream) = conn.stream() else {
            return;
        };
        if want != conn.want_write {
            let mut interest = libc::EPOLLIN | libc::EPOLLRDHUP;
            if want {
                interest |= libc::EPOLLOUT;
            }
            let fd = stream.as_raw_fd();
            if self.shared.poller.modify(fd, idx as u64, interest).is_ok() {
                self.conns[idx].want_write = want;
            }
        }
    }

    fn abort_all(&mut self) {
        for idx in 0..self.conns.len() {
            self.close_stream(idx);
            let queue = std::mem::take(&mut self.conns[idx].queue);
            for ex in queue {
                ex.finish_err(
                    KvError::Io(io::Error::new(
                        io::ErrorKind::NotConnected,
                        "client shut down",
                    )),
                    &self.shared.stats,
                );
            }
        }
    }
}

/// Write queued batches in FIFO order with vectored non-blocking writes,
/// stopping at `WouldBlock`; returns the bytes written. Zero-copy: iovecs
/// point straight into the pre-encoded segments (stripe payloads
/// included) — this is the single-copy write path's last hop.
fn write_queued(conn: &mut ConnState) -> io::Result<u64> {
    let mut total: u64 = 0;
    loop {
        let Some(mut writer) = conn.stream() else {
            return Ok(total);
        };
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOV);
        for ex in conn.queue.iter() {
            let mut off = ex.off;
            for seg in ex.segments.iter().skip(ex.seg) {
                if slices.len() == MAX_IOV {
                    break;
                }
                if off < seg.len() {
                    slices.push(IoSlice::new(&seg[off..]));
                }
                off = 0;
            }
            if slices.len() == MAX_IOV {
                break;
            }
        }
        if slices.is_empty() {
            return Ok(total);
        }
        let mut n = match writer.write_vectored(&slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write frame",
                ))
            }
            Ok(n) => n,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(total),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        };
        total += n as u64;
        drop(slices);
        for ex in conn.queue.iter_mut() {
            while n > 0 && ex.seg < ex.segments.len() {
                let avail = ex.segments[ex.seg].len() - ex.off;
                if n >= avail {
                    n -= avail;
                    ex.seg += 1;
                    ex.off = 0;
                } else {
                    ex.off += n;
                    n = 0;
                }
            }
            if n == 0 {
                break;
            }
        }
    }
}
