//! Evented transport core: one epoll reactor thread drives every
//! registered connection — to any number of servers — and no caller
//! blocks on socket I/O.
//!
//! The reactor is a process-wide resource shared through a
//! [`ReactorHandle`]. Each [`crate::net::TcpClient`] *registers* its
//! pre-connected sockets with a handle and gets back a [`Registration`] —
//! a set of tokens naming its connections inside the shared loop. A call
//! is a pre-encoded batch handed to the loop through its inbox (one lock,
//! one eventfd wake); the loop writes it, parses the replies and fills the
//! batch's completion slot, on which the caller parks. One thread
//! multiplexes every server's sockets, so:
//!
//! * a mount runs **one** reactor thread whatever its server count, and
//!   still keeps every server streaming at once (the paper's
//!   full-bisection claim, §3.2) — no thread is parked per in-flight call;
//! * one epoll wake drains completions for *all* servers, delivering them
//!   to waiting callers in cross-server batches (the pool's sliding
//!   window observes completions as they land anywhere in the cluster);
//! * deadlines live in one hierarchical [`TimerWheel`] per loop: O(1)
//!   arm/cancel, and an idle loop sleeps precisely until the next armed
//!   timer instead of scanning every connection's queue front.
//!
//! Per connection:
//!
//! * **Pipelining** — all frames of a batch are queued on one connection
//!   and answered in order; concurrent batches interleave at frame
//!   granularity on the same socket without head-of-line blocking between
//!   connections.
//! * **Idempotent-only retry** — a batch that dies with the connection is
//!   replayed once after a reconnect, but only if every request in it is
//!   idempotent (`add`/`append`/`cas` batches surface the I/O error). An
//!   established link is a [`Conn`] (the connection type the server loop
//!   uses too): its receive buffer and send queue die with the stream,
//!   and the stream adopted next is handed every queued batch whole.
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
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::conn::{connect_nonblocking, Conn, TxQueue};
use crate::error::{KvError, KvResult};
use crate::net::next_response;
use crate::poll::{Poller, WAKE_TOKEN};
use crate::proto::Response;
use crate::wheel::{TimerId, TimerWheel};

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
/// (DESIGN.md §4b, "Under the sockets"). Pinned, every such buffer is
/// heap memory that stays mapped: the first regime, always. The cost is
/// up to the trim threshold of freed heap per arena kept instead of
/// returned; a server keeps the heap its deleted values lived in, as
/// memcached keeps its slabs, and the next file written to it faults
/// nothing in.
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

/// A slot the loop fills once and one caller empties: the completion of a
/// batch, the reply to a registration.
struct OneShot<T> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> OneShot<T> {
    fn new() -> Arc<OneShot<T>> {
        Arc::new(OneShot {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn set(&self, value: T) {
        *self.slot.lock() = Some(value);
        self.cv.notify_all();
    }

    fn wait(&self) -> T {
        let mut slot = self.slot.lock();
        loop {
            if let Some(value) = slot.take() {
                return value;
            }
            self.cv.wait(&mut slot);
        }
    }
}

/// Handle to one in-flight pipelined batch. [`PendingExchange::wait`]
/// parks the caller until the reactor delivers the responses (or the
/// failure) — this is the completion half of the split submit/completion
/// path.
pub(crate) struct PendingExchange {
    done: Arc<OneShot<KvResult<Vec<Response>>>>,
}

impl PendingExchange {
    pub(crate) fn wait(self) -> KvResult<Vec<Response>> {
        self.done.wait()
    }

    /// A non-consuming readiness probe: `true` once the reactor has
    /// delivered this batch's result, so a sliding-window driver can
    /// settle completions in arrival order instead of submission order.
    pub(crate) fn probe(&self) -> Box<dyn Fn() -> bool + Send> {
        let done = Arc::clone(&self.done);
        Box::new(move || done.slot.lock().is_some())
    }
}

/// One pipelined batch owned by the reactor: pre-encoded wire segments
/// and the responses collected so far.
struct Exchange {
    /// Encoded frames (headers coalesced, stripe-sized payloads as their
    /// own zero-copy segments), held while the batch may still have to go
    /// out: until a stream's send queue takes them, and through the one
    /// replay for a batch that has one.
    segments: Vec<Bytes>,
    /// Responses expected (one per request in the batch).
    expect: usize,
    got: Vec<Response>,
    /// Whether the whole batch may be replayed after a connection drop.
    idempotent: bool,
    /// A batch is replayed at most once.
    retried: bool,
    deadline: Instant,
    done: Arc<OneShot<KvResult<Vec<Response>>>>,
}

impl Exchange {
    fn new(segments: Vec<Bytes>, expect: usize, idempotent: bool, timeout: Duration) -> Exchange {
        debug_assert!(segments.iter().all(|s| !s.is_empty()));
        Exchange {
            segments,
            expect,
            got: Vec::with_capacity(expect),
            idempotent,
            retried: false,
            deadline: Instant::now() + timeout,
            done: OneShot::new(),
        }
    }

    /// Queue the batch's frames, whole, on a stream's send queue. They are
    /// kept only if a dropped connection may still replay them.
    fn enqueue(&mut self, tx: &mut TxQueue) {
        if self.idempotent && !self.retried {
            self.segments.iter().for_each(|s| tx.push(s.clone()));
        } else {
            std::mem::take(&mut self.segments)
                .into_iter()
                .for_each(|s| tx.push(s));
        }
    }

    fn finish_ok(self, stats: &ReactorStats) {
        stats.completions.fetch_add(1, Ordering::Relaxed);
        self.done.set(Ok(self.got));
    }

    fn finish_err(self, err: KvError, stats: &ReactorStats) {
        stats.completions.fetch_add(1, Ordering::Relaxed);
        self.done.set(Err(err));
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
        reply: Arc<OneShot<io::Result<Vec<usize>>>>,
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
    /// Non-blocking connect in flight, registered for EPOLLOUT.
    Connecting(TcpStream),
    /// Established stream: its receive buffer and send queue live and die
    /// with it, so a new stream (or a new registrant of the slot) starts
    /// with neither a stale reply byte nor a half-written frame.
    Up(Conn),
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
    /// Bytes received since `TCP_QUICKACK` was last re-armed.
    rx_since_quickack: usize,
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
            rx_since_quickack: 0,
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
        let reply = OneShot::new();
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

    /// Queue one pre-encoded batch on the `slot`-th registered connection
    /// and return the completion handle. Never blocks on the network.
    pub(crate) fn submit(
        &self,
        slot: usize,
        segments: Vec<Bytes>,
        expect: usize,
        idempotent: bool,
    ) -> PendingExchange {
        let call = Exchange::new(segments, expect, idempotent, self.timeout);
        let done = Arc::clone(&call.done);
        if expect == 0 {
            done.set(Ok(Vec::new()));
        } else {
            let conn = self.tokens[slot];
            self.handle.command(Command::Submit { conn, call });
        }
        PendingExchange { done }
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
            Command::Submit { conn, mut call } => {
                let state = &mut self.conns[conn];
                if let Link::Up(up) = &mut state.link {
                    call.enqueue(&mut up.tx);
                }
                state.queue.push_back(call);
                if state.queue.len() == 1 {
                    self.arm_front_deadline(conn);
                }
                match self.conns[conn].link {
                    Link::Up(_) => self.flush_conn(conn),
                    // Lazy reconnect: a connection that died idle (server
                    // restart between calls) comes back on first use.
                    Link::Down => self.maybe_connect(conn),
                    // The connect's completion adopts the stream, which
                    // queues and flushes every waiting batch.
                    Link::Connecting(_) => {}
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
        let segments = vec![Bytes::from_static(b"version\r\n")];
        let probe = Exchange::new(segments, 1, true, self.conns[idx].timeout);
        self.handle_command(Command::Submit {
            conn: idx,
            call: probe,
        });
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
        reply: &OneShot<io::Result<Vec<usize>>>,
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
        self.fail_queue(
            token,
            io::Error::new(io::ErrorKind::NotConnected, "client closed"),
        );
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

    /// Make `stream` slot `idx`'s link. Every batch waiting in the queue
    /// — parked while the link was down, or kept for its replay — goes
    /// onto the new stream's send queue, whole, and out.
    fn adopt_stream(&mut self, idx: usize, stream: TcpStream) -> io::Result<()> {
        let mut conn = Conn::adopt(stream, &self.shared.poller, idx as u64)?;
        let state = &mut self.conns[idx];
        for ex in state.queue.iter_mut() {
            ex.enqueue(&mut conn.tx);
        }
        state.link = Link::Up(conn);
        state.rx_since_quickack = 0;
        self.set_link_gauge(idx, true);
        self.flush_conn(idx);
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
        match connect_nonblocking(&addr) {
            Ok((stream, true)) => self.connect_succeeded(idx, stream),
            Ok((stream, false)) => {
                if let Err(err) =
                    self.shared
                        .poller
                        .add(stream.as_raw_fd(), idx as u64, libc::EPOLLOUT)
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
                conn.link = Link::Connecting(stream);
                conn.connect_timer = Some(id);
            }
            Err(err) => self.record_connect_failure(idx, err),
        }
    }

    /// EPOLLOUT (or an error event) on a `Connecting` socket: read the
    /// verdict from `SO_ERROR` and either adopt the stream or fail.
    fn finish_connect(&mut self, idx: usize) {
        let Link::Connecting(stream) = &self.conns[idx].link else {
            return;
        };
        match stream.take_error() {
            Ok(None) => {
                let stream = self
                    .teardown_connecting(idx)
                    .expect("link checked Connecting");
                self.connect_succeeded(idx, stream);
            }
            Ok(Some(err)) | Err(err) => self.connect_failed(idx, err),
        }
    }

    fn connect_succeeded(&mut self, idx: usize, stream: TcpStream) {
        let conn = &mut self.conns[idx];
        conn.backoff = Duration::ZERO;
        conn.retry_at = None;
        if let Err(err) = self.adopt_stream(idx, stream) {
            self.fail_queue(idx, err);
        }
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

    /// Drop a `Connecting` socket: deregister from epoll, cancel the
    /// connect (or retry) timer, and settle the in-flight gauge. Returns
    /// the socket when the link really was connecting.
    fn teardown_connecting(&mut self, idx: usize) -> Option<TcpStream> {
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

    /// Tear the link down without touching the queue. What the stream had
    /// received and not parsed, and queued and not sent, goes with it.
    fn close_stream(&mut self, idx: usize) {
        drop(self.teardown_connecting(idx));
        if let Link::Up(conn) = std::mem::replace(&mut self.conns[idx].link, Link::Down) {
            conn.close(&self.shared.poller);
        }
        self.set_link_gauge(idx, false);
    }

    /// The connection failed: idempotent batches that have not burned
    /// their replay yet stay queued, to be sent whole on the stream the
    /// reconnect adopts; everything else completes with the I/O error.
    fn kill_conn(&mut self, idx: usize, err: io::Error) {
        self.close_stream(idx);
        let queue = std::mem::take(&mut self.conns[idx].queue);
        let mut keep = VecDeque::new();
        for mut ex in queue {
            if ex.idempotent && !ex.retried {
                ex.retried = true;
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

    /// Read until the socket is drained, parsing as frames complete.
    fn handle_readable(&mut self, idx: usize) {
        loop {
            let state = &mut self.conns[idx];
            let Link::Up(conn) = &mut state.link else {
                return;
            };
            let (n, drained) = match conn.fill(usize::MAX) {
                Ok(read) => read,
                // Idle EOF: the server went away between calls. Close
                // quietly; the next submit reconnects.
                Err(err)
                    if err.kind() == io::ErrorKind::UnexpectedEof && state.queue.is_empty() =>
                {
                    return self.close_stream(idx);
                }
                Err(err) => return self.kill_conn(idx, err),
            };
            state.rx_since_quickack += n;
            self.shared
                .stats
                .bytes_rx
                .fetch_add(n as u64, Ordering::Relaxed);
            if let Err(err) = self.drain_inbuf(idx) {
                return self.poison_conn(idx, err);
            }
            if drained {
                // Level-triggered epoll reports whatever arrives later
                // (EOF included).
                return self.ack_tail(idx);
            }
        }
    }

    /// The socket is drained. If a payload-sized amount arrived since the
    /// last time, make the kernel ACK it now rather than after its
    /// delayed-ACK timer (≥ 40 ms): a reply's last segment meets a socket
    /// with nothing to send, and a rate-based sender (BBR) reads the late
    /// ACK as a bandwidth sample of a few MB/s and paces the *next* reply
    /// out over 40–130 ms.
    fn ack_tail(&mut self, idx: usize) {
        let state = &mut self.conns[idx];
        if state.rx_since_quickack < QUICKACK_REARM_BYTES {
            return;
        }
        if let Link::Up(conn) = &state.link {
            state.rx_since_quickack = 0;
            conn.quickack();
        }
    }

    /// Parse as many complete responses as the buffer holds, completing
    /// front-of-queue batches as their counts fill.
    fn drain_inbuf(&mut self, idx: usize) -> KvResult<()> {
        let mut front_changed = false;
        let result = loop {
            let state = &mut self.conns[idx];
            let Link::Up(conn) = &mut state.link else {
                break Ok(());
            };
            if !conn.rx.ready() {
                break Ok(());
            }
            let Some(front) = state.queue.front_mut() else {
                break Err(KvError::Protocol(
                    "unsolicited response bytes from server".into(),
                ));
            };
            match next_response(&mut conn.rx) {
                Err(err) => break Err(err),
                Ok(None) => break Ok(()),
                Ok(Some(resp)) => {
                    front.got.push(resp);
                    if front.got.len() == front.expect {
                        let ex = state.queue.pop_front().expect("front exists");
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

    /// Write what the link's send queue holds until the socket pushes
    /// back, and keep EPOLLOUT registered exactly while some is left.
    fn flush_conn(&mut self, idx: usize) {
        let Link::Up(conn) = &mut self.conns[idx].link else {
            return;
        };
        let flushed = conn.flush().and_then(|written| {
            conn.sync_interest(&self.shared.poller, true)?;
            Ok(written)
        });
        match flushed {
            Ok(written) => {
                self.shared
                    .stats
                    .bytes_tx
                    .fetch_add(written as u64, Ordering::Relaxed);
            }
            Err(err) => self.kill_conn(idx, err),
        }
    }

    fn abort_all(&mut self) {
        for idx in 0..self.conns.len() {
            self.fail_queue(
                idx,
                io::Error::new(io::ErrorKind::NotConnected, "client shut down"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::TcpListener;

    use super::*;

    const TIMEOUT: Duration = Duration::from_secs(10);

    fn listener() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    /// One connection to `addr`, registered with `reactor`.
    fn register(reactor: &ReactorHandle, addr: SocketAddr, timeout: Duration) -> Registration {
        let stream = TcpStream::connect(addr).unwrap();
        reactor.register(addr, vec![stream], timeout, None).unwrap()
    }

    /// A 16 MiB batch in 32 segments — more than the socket buffers of a
    /// peer that reads little or nothing take, so part of it is still in
    /// the send queue, cut inside a segment, when the test strikes.
    fn big_batch() -> (Vec<Bytes>, Vec<u8>) {
        let segments: Vec<Bytes> = (0..32u8)
            .map(|i| Bytes::from(vec![i; 512 * 1024]))
            .collect();
        let wire = segments.concat();
        (segments, wire)
    }

    /// Whether anything more arrives on `stream` within 200 ms.
    fn goes_quiet(stream: &mut TcpStream) -> bool {
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        !matches!(stream.read(&mut [0u8; 1]), Ok(n) if n > 0)
    }

    /// Whether nobody dials `listener` within 200 ms.
    fn nobody_dials(listener: &TcpListener) -> bool {
        listener.set_nonblocking(true).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        listener.accept().is_err()
    }

    #[test]
    fn an_idempotent_batch_caught_half_written_is_resent_whole_exactly_once() {
        let (listener, addr) = listener();
        let reactor = ReactorHandle::new().unwrap();
        let reg = register(&reactor, addr, TIMEOUT);
        let (segments, wire) = big_batch();
        let total = wire.len();
        let server = std::thread::spawn(move || {
            // The head of the batch arrives; the connection dies under
            // the rest.
            let (mut first, _) = listener.accept().unwrap();
            first.read_exact(&mut vec![0u8; 100_000]).unwrap();
            drop(first);
            let (mut second, _) = listener.accept().unwrap();
            let mut got = vec![0u8; total];
            second.read_exact(&mut got).unwrap();
            second.write_all(b"STORED\r\n").unwrap();
            // One whole copy, and nothing after it — here or elsewhere.
            assert!(goes_quiet(&mut second), "bytes followed the replayed batch");
            assert!(nobody_dials(&listener), "a second replay dialed in");
            got
        });
        let replies = reg.submit(0, segments, 1, true).wait().unwrap();
        assert_eq!(replies, vec![Response::Stored]);
        assert!(
            server.join().unwrap() == wire,
            "the replay differs from the batch"
        );
    }

    #[test]
    fn a_batch_holding_an_append_surfaces_the_io_error_and_is_never_resent() {
        let (listener, addr) = listener();
        let reactor = ReactorHandle::new().unwrap();
        let reg = register(&reactor, addr, TIMEOUT);
        let server = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            first.read_exact(&mut vec![0u8; 100_000]).unwrap();
            drop(first);
            assert!(
                nobody_dials(&listener),
                "a non-idempotent batch was replayed"
            );
        });
        // `add` / `append` / `cas` make a batch non-idempotent
        // (`net::is_idempotent`); the reactor sees only the flag.
        let err = reg.submit(0, big_batch().0, 1, false).wait().unwrap_err();
        assert!(matches!(err, KvError::Io(_)), "got {err:?}");
        server.join().unwrap();
    }

    #[test]
    fn a_timed_out_front_exchange_severs_the_connection_and_clears_its_send_queue() {
        let (listener, addr) = listener();
        let reactor = ReactorHandle::new().unwrap();
        let reg = register(&reactor, addr, Duration::from_millis(300));
        let server = std::thread::spawn(move || {
            // A server that accepts and never reads: most of the batch
            // stays in the client's send queue.
            let (stalled, _) = listener.accept().unwrap();
            let (mut second, _) = listener.accept().unwrap();
            let mut request = [0u8; 64];
            let n = second.read(&mut request).unwrap();
            assert_eq!(
                &request[..n],
                b"get k\r\n",
                "the dead stream's queue leaked"
            );
            assert!(goes_quiet(&mut second));
            second.write_all(b"END\r\n").unwrap();
            drop(stalled);
        });
        let err = reg.submit(0, big_batch().0, 1, true).wait().unwrap_err();
        assert!(matches!(err, KvError::Timeout { .. }), "got {err:?}");
        assert_eq!(reactor.stats().timeouts, 1);
        // The next batch finds the link down, redials, and is all that
        // the new stream carries.
        let get = vec![Bytes::from_static(b"get k\r\n")];
        assert_eq!(reg.submit(0, get, 1, true).wait().unwrap(), [Response::End]);
        server.join().unwrap();
    }

    #[test]
    fn a_deregistered_slot_leaves_no_bytes_behind_for_the_next_registrant() {
        const PARTIAL: &[u8] = b"VALUE k 0 100\r\nabc";
        let (listener, addr) = listener();
        let reactor = ReactorHandle::new().unwrap();
        let (release, held) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            // Answer half a reply, read none of what follows.
            let (mut stream, _) = listener.accept().unwrap();
            stream.read_exact(&mut [0u8; 7]).unwrap();
            stream.write_all(PARTIAL).unwrap();
            let _ = held.recv();
        });
        let first = register(&reactor, addr, TIMEOUT);
        let get = first.submit(0, vec![Bytes::from_static(b"get k\r\n")], 1, true);
        let set = first.submit(0, big_batch().0, 1, true);
        let deadline = Instant::now() + TIMEOUT;
        while reactor.stats().bytes_rx < PARTIAL.len() as u64 {
            assert!(Instant::now() < deadline, "the partial reply never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The slot now holds a partial frame with a hint, and a send
        // queue cut mid-segment. Its owner goes away.
        let tokens = first.tokens.clone();
        drop(first);
        for pending in [get, set] {
            let err = pending.wait().unwrap_err();
            assert!(matches!(err, KvError::Io(_)), "got {err:?}");
        }
        let server2 =
            crate::KvServer::spawn(Arc::new(crate::Store::with_defaults()), "127.0.0.1:0").unwrap();
        let second = register(&reactor, server2.addr(), TIMEOUT);
        assert_eq!(second.tokens, tokens, "the freed slot is reused");
        let version = vec![Bytes::from_static(b"version\r\n")];
        let replies = second.submit(0, version, 1, true).wait().unwrap();
        assert!(matches!(replies[..], [Response::Version(_)]), "{replies:?}");
        release.send(()).unwrap();
        server.join().unwrap();
    }
}
