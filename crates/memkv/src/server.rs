//! The memkv storage server: one epoll loop that runs every request to
//! completion on the thread that read it. A server is that one thread.
//!
//! This is memcached's shape — a passive server whose event thread
//! decodes, executes and answers each request where it arrived. A store
//! call costs under half a microsecond (`get` ≈ 70 ns, `set` ≈ 220 ns at
//! any size, a directory `append` ≈ 380 ns) while the socket reads, the
//! parse and the response encoding around it were always the loop's, so
//! handing requests to other threads would buy no parallelism and cost
//! two thread hops per batch.
//!
//! * **One loop thread** (`memkv-srv-loop`) owns the listening socket and
//!   a token-slab of non-blocking connections. Accepts run in-loop; the
//!   thread census is this loop alone at any connection count — the
//!   store never evicts or expires, so there is nothing to sweep.
//! * **Run to completion, in order.** `parse_conn` is the one place a
//!   request is handled: decode at the receive buffer's cursor (no
//!   memmove per pipelined request), execute against the store, queue
//!   the response. Pipeline order is a property of that loop. A `quit`
//!   or a decode error queues its verdict behind the earlier responses;
//!   the connection closes once they are sent.
//! * **Vectored zero-copy responses**: value payloads ride as
//!   refcount-bumped `Bytes` segments straight from the store to the
//!   connection's `writev`, never copied into an encode buffer. (The
//!   buffers and the socket I/O are [`crate::conn`]'s, shared with the
//!   client reactor; this file is the loop and its policy.)
//! * **A connection's turn is bounded.** It ends at the first short read,
//!   at [`MAX_PENDING_BYTES`] of queued output, or after [`TURN_READS`]
//!   reads, whichever comes first; level-triggered epoll reports the
//!   socket again next round, so nothing is lost and nothing is re-armed.
//!   A peer that keeps its socket full therefore holds the loop for at
//!   most `TURN_READS × READ_CHUNK` bytes of requests at a time. The
//!   slowest single request is a 4096-key `get` (≈ 0.4 ms) or the
//!   operator verb `keys`, which is O(items).
//! * **Backpressure per connection**: past [`MAX_PENDING_BYTES`] of unsent
//!   response bytes the loop stops reading and executing for that socket
//!   (EPOLLIN dropped; undecoded requests wait in the receive buffer)
//!   and drains via EPOLLOUT until the peer has caught up to half the
//!   bound. A slow reader can stall only itself.
//! * **Value memory is recycled, not returned.** The first server of a
//!   process pins glibc malloc's `mmap` and trim thresholds (the reactor's
//!   `pin_malloc_thresholds`), so a stripe-sized value is heap memory and
//!   the heap a deleted file lived in stays mapped for the next one —
//!   memcached's slabs by other means. Unpinned, whether a server kept
//!   or re-faulted that memory (a 2× difference in write speed) was
//!   decided by which small allocation sat on top of its heap.
//! * **No timers.** The loop waits on epoll with no timeout and keeps no
//!   deadline: a quiet mount keeps its connection for as long as it
//!   likes, as memcached's does. A peer that vanished without a FIN is
//!   found by TCP keepalive, which the listener turns on for every
//!   accepted socket ([`crate::conn`]): its socket reports an error
//!   within about 90 s and the slot is freed like any closed one.
//! * **Load shedding**: beyond [`MAX_CONNECTIONS`] an accepted socket
//!   gets a best-effort `SERVER_ERROR` line and is closed, leaving
//!   established mounts untouched.
//! * **Why one loop and not N.** The paper runs one storage server per
//!   node beside the application's tasks, and every `recv`/`send`, copy
//!   and parse of this server always ran on one thread. N loops over
//!   `SO_REUSEPORT` can be added if a many-core server ever shows one
//!   loop saturated.
//!
//! Observability flows through [`ServerStats`] (connection census, ops,
//! wire bytes), exposed both
//! programmatically ([`KvServer::server_stats`]) and over the wire: the
//! `stats` protocol command appends the serving-layer pairs to the
//! store's counters.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::conn::{Conn, TxQueue};
use crate::error::{KvError, KvResult};
use crate::poll::{Poller, WAKE_TOKEN};
use crate::proto::{
    next_request, slice_range, stats_pairs, store_full, write_response, write_value_header,
    Request, Response, ValueItem,
};
use crate::stats::StoreStats;
use crate::stats::{ServerStats, ServerStatsSnapshot};
use crate::store::Store;

/// Version string reported to `version` commands.
pub const SERVER_VERSION: &str = "memkv/0.1 (memcached text protocol)";

/// epoll token reserved for the listening socket (`WAKE_TOKEN - 1`).
const LISTEN_TOKEN: u64 = u64::MAX - 1;
/// Most request bytes one read takes.
const READ_CHUNK: usize = 64 * 1024;
/// Reads one connection gets per turn on the loop (1 MiB of requests)
/// before the other ready connections have theirs.
const TURN_READS: usize = 16;
/// Bound on queued unsent response bytes per connection before the loop
/// stops reading and executing requests from that socket.
const MAX_PENDING_BYTES: usize = 8 * 1024 * 1024;
/// Connections served at once; the next one is shed with a protocol
/// error. A safety rail, not a tuning knob: a mount holds one connection
/// per server.
pub const MAX_CONNECTIONS: usize = 1024;
/// Sent (best effort) to a connection shed at [`MAX_CONNECTIONS`].
const SHED_MESSAGE: &[u8] = b"SERVER_ERROR too many connections\r\n";

/// State shared between the loop thread and the [`KvServer`] handle
/// (whose `shutdown` wakes the loop).
struct Engine {
    poller: Poller,
    shutdown: AtomicBool,
    stats: ServerStats,
    store: Arc<Store>,
}

/// A running evented TCP storage server.
pub struct KvServer {
    store: Arc<Store>,
    addr: SocketAddr,
    engine: Arc<Engine>,
    thread: Option<JoinHandle<()>>,
}

impl KvServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `store`. The first server (or reactor) of a process also
    /// pins glibc malloc's `mmap` and trim thresholds, so that what storing
    /// a stripe-sized value costs does not depend on the process's
    /// allocation history.
    pub fn spawn(store: Arc<Store>, addr: impl ToSocketAddrs) -> KvResult<KvServer> {
        crate::reactor::pin_malloc_thresholds();
        let listener = crate::conn::listen(addr).map_err(KvError::Io)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(Engine {
            poller: Poller::new().map_err(KvError::Io)?,
            shutdown: AtomicBool::new(false),
            stats: ServerStats::default(),
            store: Arc::clone(&store),
        });
        engine
            .poller
            .add(listener.as_raw_fd(), LISTEN_TOKEN, libc::EPOLLIN)
            .map_err(KvError::Io)?;

        let loop_engine = Arc::clone(&engine);
        let thread = std::thread::Builder::new()
            .name("memkv-srv-loop".into())
            .spawn(move || ServerLoop::new(loop_engine, listener).run())
            .map_err(KvError::Io)?;
        Ok(KvServer {
            store,
            addr,
            engine,
            thread: Some(thread),
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store this server fronts.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Serving-layer counters (connections, ops, wire bytes). Store
    /// counters live on [`Store::stats`].
    pub fn server_stats(&self) -> ServerStatsSnapshot {
        self.engine.stats.snapshot()
    }

    /// Stop the server: close the listener and every connection (requests
    /// not yet read die with their sockets) and join the loop thread.
    /// Idempotent — later calls are no-ops.
    pub fn shutdown(&mut self) {
        self.engine.shutdown.store(true, Ordering::SeqCst);
        self.engine.poller.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for KvServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Execute one request with serving-layer accounting; `stats` gets the
/// server pairs appended to the store's.
fn execute_traced(engine: &Engine, req: Request) -> Response {
    engine.stats.ops.fetch_add(1, Ordering::Relaxed);
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
            Response::Stats(pairs)
        }
        other => execute(&engine.store, other),
    }
}

/// Store-level `STAT` pairs: the counter snapshot plus per-shard
/// occupancy gauges (`shard:N:bytes` / `shard:N:items`), read lock-free
/// from the shard meta.
fn store_stats_pairs(store: &Store) -> Vec<(String, String)> {
    let mut pairs = stats_pairs(&store.stats().snapshot());
    for (i, u) in store.shard_usage().iter().enumerate() {
        pairs.push((format!("shard:{i}:bytes"), u.bytes.to_string()));
        pairs.push((format!("shard:{i}:items"), u.items.to_string()));
    }
    pairs
}

/// Apply one request to the store, mapping engine errors to protocol
/// responses exactly as memcached does.
pub fn execute(store: &Store, req: Request) -> Response {
    match req {
        // Items never expire, so a write asking for a TTL is refused
        // rather than stored forever.
        Request::Set { exptime: 1.., .. } | Request::Add { exptime: 1.., .. } => {
            Response::ClientError("exptime must be 0: items never expire".into())
        }
        Request::Set { key, value, .. } => match store.set(&key, value) {
            Ok(()) => Response::Stored,
            Err(e) => storage_error(e),
        },
        Request::Add { key, value, .. } => match store.add(&key, value) {
            Ok(()) => Response::Stored,
            Err(KvError::Exists) => Response::NotStored,
            Err(e) => storage_error(e),
        },
        Request::Append { key, value } => match store.append(&key, &value) {
            Ok(()) => Response::Stored,
            Err(KvError::NotFound) => Response::NotStored,
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
        // The same read as a single-key `get` (one read lock,
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
        KvError::OutOfMemory { needed, budget } => store_full(needed, budget),
        KvError::ValueTooLarge { .. } => Response::ServerError(e.to_string()),
        other => Response::ClientError(other.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// One slot of the connection slab. Slots are reused through a freelist;
/// nothing refers to an occupant once `close_conn` took it, so a slot
/// needs no generation of its own.
#[derive(Default)]
struct Slot {
    /// The occupant: stream, receive buffer, send queue, epoll interest.
    conn: Option<Conn>,
    /// Stop reading and executing: the send queue passed its bound.
    paused_read: bool,
    /// A `quit` or a decode error was seen: send nothing more after the
    /// send queue drains; then close.
    close_after_flush: bool,
}

struct ServerLoop {
    engine: Arc<Engine>,
    listener: TcpListener,
    conns: Vec<Slot>,
    free: Vec<usize>,
}

impl ServerLoop {
    fn new(engine: Arc<Engine>, listener: TcpListener) -> ServerLoop {
        ServerLoop {
            engine,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
        }
    }

    fn run(mut self) {
        let mut events: Vec<(u64, u32)> = Vec::new();
        loop {
            if self.engine.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if self.engine.poller.wait(&mut events, None).is_err() {
                break;
            }
            for &(token, ev) in events.iter() {
                match token {
                    WAKE_TOKEN => self.engine.poller.drain_wake(),
                    LISTEN_TOKEN => self.accept_ready(),
                    t => {
                        let idx = t as usize;
                        if idx >= self.conns.len() || self.conns[idx].conn.is_none() {
                            continue;
                        }
                        if ev & (libc::EPOLLIN | libc::EPOLLRDHUP | libc::EPOLLERR | libc::EPOLLHUP)
                            != 0
                        {
                            self.conn_readable(idx);
                        } else {
                            self.advance_conn(idx);
                        }
                    }
                }
            }
        }
        // Fail-fast shutdown: in-flight batches die with their sockets;
        // clients replay idempotent work elsewhere or surface the error.
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
    }

    /// Drain the accept queue (level-triggered, non-blocking listener).
    fn accept_ready(&mut self) {
        // `WouldBlock` (queue drained) and transient per-connection errors
        // (`ECONNABORTED`) both end this round.
        while let Ok((stream, _)) = self.listener.accept() {
            let open = self.engine.stats.connections.load(Ordering::Relaxed);
            if open as usize >= MAX_CONNECTIONS {
                // Shed: tell the client why, best effort on a fresh
                // socket whose buffer is certainly empty, then close.
                self.engine
                    .stats
                    .rejected_connections
                    .fetch_add(1, Ordering::Relaxed);
                let _ = (&stream).write(SHED_MESSAGE);
                continue;
            }
            let idx = match self.free.pop() {
                Some(i) => i,
                None => {
                    self.conns.push(Slot::default());
                    self.conns.len() - 1
                }
            };
            let Ok(conn) = Conn::adopt(stream, &self.engine.poller, idx as u64) else {
                self.free.push(idx);
                continue; // the socket closed with the failed adoption
            };
            self.conns[idx].conn = Some(conn);
            self.engine
                .stats
                .connections
                .fetch_add(1, Ordering::Relaxed);
            self.engine
                .stats
                .total_connections
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One connection's turn: read and run requests until a short read,
    /// the output bound, or [`TURN_READS`] reads. Level-triggered epoll
    /// reports whatever is left next round.
    fn conn_readable(&mut self, idx: usize) {
        for _ in 0..TURN_READS {
            let slot = &mut self.conns[idx];
            let Some(conn) = slot.conn.as_mut() else {
                return;
            };
            if slot.paused_read {
                break;
            }
            let Ok((n, drained)) = conn.fill(READ_CHUNK) else {
                return self.close_conn(idx);
            };
            if n > 0 {
                self.engine
                    .stats
                    .bytes_rx
                    .fetch_add(n as u64, Ordering::Relaxed);
                self.parse_conn(idx);
            }
            if drained {
                break;
            }
        }
        self.advance_conn(idx);
    }

    /// The one place a request is handled: decode, execute and queue the
    /// response of every complete pipelined request the buffer holds, in
    /// order, until the output bound pauses the connection (the rest wait
    /// in the receive buffer for [`ServerLoop::advance_conn`]). A `quit`
    /// or a decode error queues its verdict behind the earlier responses
    /// and ends the connection once they are sent; later input is dropped.
    fn parse_conn(&mut self, idx: usize) {
        let slot = &mut self.conns[idx];
        let Some(conn) = slot.conn.as_mut() else {
            return;
        };
        while !slot.close_after_flush {
            if conn.tx.pending() > MAX_PENDING_BYTES {
                slot.paused_read = true;
                return;
            }
            let verdict = match next_request(&mut conn.rx) {
                Ok(Some(Request::Quit)) => None,
                Ok(Some(req)) => {
                    enqueue_response(&mut conn.tx, &execute_traced(&self.engine, req));
                    continue;
                }
                Ok(None) => return,
                // memcached's own words for a data block above the item
                // limit.
                Err(KvError::ValueTooLarge { .. }) => {
                    Some(Response::ServerError("object too large for cache".into()))
                }
                Err(e) => Some(Response::ClientError(e.to_string())),
            };
            if let Some(resp) = verdict {
                enqueue_response(&mut conn.tx, &resp);
            }
            slot.close_after_flush = true;
        }
        conn.rx.reset();
    }

    /// Post-I/O bookkeeping: flush, resume a paused connection once the
    /// peer has drained to half the bound (so the interest mask does not
    /// flap around the threshold), close if the drain condition is met,
    /// and resync epoll interest with the connection's state: readable
    /// unless paused, writable only while unsent segments exist.
    fn advance_conn(&mut self, idx: usize) {
        loop {
            let slot = &mut self.conns[idx];
            let Some(conn) = slot.conn.as_mut() else {
                return;
            };
            match conn.flush() {
                Ok(n) => self
                    .engine
                    .stats
                    .bytes_tx
                    .fetch_add(n as u64, Ordering::Relaxed),
                Err(_) => return self.close_conn(idx),
            };
            if !slot.paused_read || conn.tx.pending() > MAX_PENDING_BYTES / 2 {
                break;
            }
            // The flush after this may drain everything again, and a
            // paused connection with nothing to send would wait on no
            // event at all: go round until the buffer holds no complete
            // request or the socket pushes back.
            slot.paused_read = false;
            self.parse_conn(idx);
        }
        let slot = &mut self.conns[idx];
        let Some(conn) = slot.conn.as_mut() else {
            return;
        };
        if (slot.close_after_flush && conn.tx.is_empty())
            || conn
                .sync_interest(&self.engine.poller, !slot.paused_read)
                .is_err()
        {
            self.close_conn(idx);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let slot = &mut self.conns[idx];
        let Some(conn) = slot.conn.take() else {
            return;
        };
        conn.close(&self.engine.poller);
        slot.paused_read = false;
        slot.close_after_flush = false;
        self.engine
            .stats
            .connections
            .fetch_sub(1, Ordering::Relaxed);
        self.free.push(idx);
    }
}

/// Append one response to a connection's send queue: header lines and
/// small values build one segment, stripe-sized values ride as their own
/// refcount-bumped segments ([`TxQueue::value`]), store → `writev` with
/// zero copies.
fn enqueue_response(tx: &mut TxQueue, resp: &Response) {
    match resp {
        Response::Value { key, value, cas } => {
            write_value_header(tx.head(), key, value.len(), *cas);
            tx.value(value);
            tx.head().extend_from_slice(b"\r\nEND\r\n");
        }
        Response::Values(items) => {
            for item in items {
                write_value_header(tx.head(), &item.key, item.value.len(), item.cas);
                tx.value(&item.value);
                tx.head().extend_from_slice(b"\r\n");
            }
            tx.head().extend_from_slice(b"END\r\n");
        }
        other => write_response(other, tx.head()),
    }
    tx.seal();
}

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::net::TcpStream;
    use std::time::Duration;

    use super::*;

    const BIG: usize = 512 * 1024;

    fn spawn() -> KvServer {
        KvServer::spawn(Arc::new(Store::with_defaults()), "127.0.0.1:0").unwrap()
    }

    fn raw(server: &KvServer) -> TcpStream {
        let s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s
    }

    fn set_frame(key: &str, value: &[u8]) -> Vec<u8> {
        let mut wire = format!("set {key} 0 0 {}\r\n", value.len()).into_bytes();
        wire.extend_from_slice(value);
        wire.extend_from_slice(b"\r\n");
        wire
    }

    fn value_frame(key: &str, value: &[u8]) -> Vec<u8> {
        let mut wire = format!("VALUE {key} 0 {}\r\n", value.len()).into_bytes();
        wire.extend_from_slice(value);
        wire.extend_from_slice(b"\r\nEND\r\n");
        wire
    }

    /// A distinguishable `len`-byte payload.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn expect_reply(s: &mut TcpStream, want: &[u8]) {
        let mut got = vec![0u8; want.len()];
        s.read_exact(&mut got).unwrap();
        assert!(got == want, "reply differs from the expected frame");
    }

    /// Tentpole 4: a peer that keeps its socket full gets
    /// `TURN_READS × READ_CHUNK` bytes per turn, never the whole transfer.
    /// The loop is driven by hand, so a turn is one `conn_readable` call.
    #[test]
    fn one_connections_turn_on_the_loop_is_bounded() {
        const FRAMES: usize = 128;
        let listener = crate::conn::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let engine = Arc::new(Engine {
            poller: Poller::new().unwrap(),
            shutdown: AtomicBool::new(false),
            stats: ServerStats::default(),
            store: Arc::new(Store::with_defaults()),
        });
        let mut lp = ServerLoop::new(Arc::clone(&engine), listener);

        // 64 MiB of pipelined `set`s, written as fast as the socket takes
        // them; the writer never reads a reply.
        let frame = set_frame("k", &pattern(BIG));
        let total = (FRAMES * frame.len()) as u64;
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            for _ in 0..FRAMES {
                s.write_all(&frame).unwrap();
            }
            s
        });
        while lp.conns.is_empty() {
            lp.accept_ready();
            std::thread::sleep(Duration::from_millis(1));
        }

        let turn = (TURN_READS * READ_CHUNK) as u64;
        let (mut received, mut full_turns) = (0u64, 0u32);
        while received < total {
            lp.conn_readable(0);
            let now = engine.stats.bytes_rx.load(Ordering::Relaxed);
            let got = now - received;
            received = now;
            assert!(got <= turn, "one turn read {got} bytes, bound {turn}");
            full_turns += u32::from(got == turn);
            if got == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(
            full_turns > 0,
            "the writer never kept the socket full: the bound was not exercised"
        );
        assert_eq!(engine.stats.ops.load(Ordering::Relaxed), FRAMES as u64);
        assert_eq!(engine.store.get(b"k").unwrap(), pattern(BIG));
        // Every `STORED` went out in order behind its request.
        let mut s = writer.join().unwrap();
        expect_reply(&mut s, &b"STORED\r\n".repeat(FRAMES));
    }

    /// A peer that pipelines 32 MiB of responses and reads none of them
    /// gets `MAX_PENDING_BYTES` (+ the response that crossed it) queued in
    /// the server, not all 32 MiB; once it reads, every value arrives
    /// bit-exact and in order.
    #[test]
    fn backpressure_bounds_the_responses_queued_for_a_peer_that_does_not_read() {
        const GETS: u64 = 64;
        let server = spawn();
        let mut s = raw(&server);
        let value = pattern(BIG);
        s.write_all(&set_frame("big", &value)).unwrap();
        expect_reply(&mut s, b"STORED\r\n");
        s.write_all(&b"get big\r\n".repeat(GETS as usize)).unwrap();

        // Let the server run into the bound and the socket fill up.
        let mut stats = server.server_stats();
        loop {
            std::thread::sleep(Duration::from_millis(200));
            let next = server.server_stats();
            if next == stats {
                break;
            }
            stats = next;
        }
        let reply = value_frame("big", &value);
        let executed = stats.ops - 1;
        let queued = executed * reply.len() as u64 + 8 - stats.bytes_tx;
        assert!(executed < GETS, "all {GETS} gets ran: no backpressure");
        assert!(
            queued <= (MAX_PENDING_BYTES + reply.len()) as u64,
            "{queued} response bytes queued behind a peer that reads nothing"
        );

        for _ in 0..GETS {
            expect_reply(&mut s, &reply);
        }
        assert_eq!(server.server_stats().ops, GETS + 1);
    }

    /// Items never expire: a `set` / `add` with a non-zero `exptime` is
    /// refused with `CLIENT_ERROR`, stores nothing, and — the frame having
    /// parsed cleanly — leaves the connection serving the next request.
    #[test]
    fn a_nonzero_exptime_is_refused_and_the_connection_stays_open() {
        let server = spawn();
        let mut s = raw(&server);
        for verb in ["set", "add"] {
            s.write_all(format!("{verb} k 0 5 1\r\nv\r\nget k\r\n").as_bytes())
                .unwrap();
            let mut line = Vec::new();
            let mut byte = [0u8; 1];
            while !line.ends_with(b"\r\n") {
                s.read_exact(&mut byte).unwrap();
                line.push(byte[0]);
            }
            assert!(line.starts_with(b"CLIENT_ERROR "), "{verb}: {line:?}");
            expect_reply(&mut s, b"END\r\n");
        }
        assert!(!server.store().contains(b"k"));
        assert_eq!(server.store().bytes_used(), 0);
    }

    /// A decode error or a `quit` answers behind the earlier responses —
    /// however large — then the connection closes; what follows it on the
    /// wire is never answered.
    #[test]
    fn verdicts_queue_behind_earlier_responses_and_end_the_connection() {
        let server = spawn();
        let (big, small) = (pattern(BIG), pattern(100));
        let mut s = raw(&server);
        s.write_all(&[set_frame("big", &big), set_frame("small", &small)].concat())
            .unwrap();
        expect_reply(&mut s, b"STORED\r\nSTORED\r\n");
        let replies = [value_frame("big", &big), value_frame("small", &small)].concat();

        for (verdict, error_line) in [("bogus verb", true), ("quit", false)] {
            let mut s = raw(&server);
            s.write_all(format!("get big\r\nget small\r\n{verdict}\r\nget small\r\n").as_bytes())
                .unwrap();
            let mut got = Vec::new();
            s.read_to_end(&mut got).unwrap();
            assert!(got.starts_with(&replies), "{verdict}: replies out of order");
            let rest = &got[replies.len()..];
            if error_line {
                assert!(rest.starts_with(b"CLIENT_ERROR "), "{verdict}: {rest:?}");
                assert_eq!(rest.iter().filter(|&&b| b == b'\n').count(), 1);
            } else {
                assert!(rest.is_empty(), "{verdict}: {rest:?}");
            }
        }
    }
}
