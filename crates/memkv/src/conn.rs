//! One connection under both event loops.
//!
//! MemFS is symmetrical (paper §3.1): every node is a storage server and
//! a client, and both ends move the same stripe-sized frames over one
//! text protocol. So there is one connection, not two: the client reactor
//! ([`crate::reactor`]) and the server loop ([`crate::server`]) differ in
//! *policy* — deadlines, backoff, heartbeats and replay on one side,
//! accept, admission and turn bounds on the other — and each keeps its own
//! `run`, but every byte either of them moves between a non-blocking
//! socket and a parser or encoder goes through this module (memcached's
//! `conn`: one `rbuf`, one iov list, fed by either side):
//!
//! * [`RxBuf`] — the receive buffer. The kernel writes straight into its
//!   spare capacity (no bounce buffer); parsed frames advance a cursor and
//!   the dead prefix is compacted lazily (no memmove per frame); the
//!   parser's [`Need`] hint holds the next parse until the frame can be
//!   complete and reserves an announced payload once; a whole frame can
//!   leave as one [`Bytes`] without a copy.
//! * [`TxQueue`] — the send queue: a FIFO of [`Bytes`] segments built under
//!   one staging rule ([`SEGMENT_THRESHOLD`]) and drained by `writev` with
//!   partial-write resume.
//! * [`Conn`] — a stream with both, plus the epoll interest mask it is
//!   registered under.
//!
//! The socket calls `std` has no safe form of live here too, so `unsafe`
//! in this crate is this file, [`crate::poll`] and one `mallopt` call.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::linux::net::TcpStreamExt;

use bytes::Bytes;

use crate::error::{KvError, KvResult};
use crate::poll::Poller;
use crate::proto::{Need, MAX_LINE_LEN, MAX_VALUE_LEN};

/// Payloads at or above this size travel as their own refcounted segment;
/// smaller ones are cheaper to copy behind their header line than to pay
/// an iovec entry for.
pub(crate) const SEGMENT_THRESHOLD: usize = 4 * 1024;
/// Max iovec entries per `writev` — matches the kernel's UIO_FASTIOV.
const MAX_IOV: usize = 8;
/// Spare capacity a read is offered while no payload is announced: room
/// for any header line or small frame. It *is* the client parser's
/// zero-copy bar: a lone value frame's buffer then never exceeds
/// `max(2 * MIN_SPARE, frame length)`, which keeps "payload fills at least
/// half the buffer" true for every value of that size and up.
const MIN_SPARE: usize = SEGMENT_THRESHOLD;
/// Payload above which a parsed frame always leaves as the buffer itself.
const HAND_OVER_BYTES: usize = 64 * 1024;
/// Compact mid-burst once this many consumed bytes sit in front of the
/// cursor; smaller prefixes wait for the next parse stall, so a pipelined
/// run never pays a memmove per frame.
const COMPACT_BYTES: usize = 256 * 1024;
/// Capacity an *empty* buffer may keep — two default stripes with their
/// headers, so steady stripe-sized frames never reallocate. Above it the
/// excess goes back to the allocator: connection slots live as long as the
/// process, and one [`MAX_VALUE_LEN`] frame must not leave 128 MiB behind.
const KEEP_BYTES: usize = 1024 * 1024;
/// Accept backlog of a server's listener. `std` listens with 128; in
/// `manymount_record` 64 mounts with one connection each dial every server
/// at once (64 per server), and a connection the backlog drops costs its
/// mount a SYN retransmit (1 s) at start-up.
const LISTEN_BACKLOG: libc::c_int = 1024;
/// TCP keepalive on a server's sockets, as memcached sets `SO_KEEPALIVE`:
/// a peer silent for [`KEEPALIVE_IDLE_S`] is probed every
/// [`KEEPALIVE_INTERVAL_S`], and after [`KEEPALIVE_PROBES`] unanswered
/// probes (about 90 s in all) its socket reports an error, so a client
/// that vanished without a FIN loses its slot. A live idle mount answers
/// the probes in its kernel and is never cut.
const KEEPALIVE_IDLE_S: libc::c_int = 60;
const KEEPALIVE_INTERVAL_S: libc::c_int = 10;
const KEEPALIVE_PROBES: libc::c_int = 3;

/// The receive half: bytes off the socket, waiting for a parser.
#[derive(Debug, Default)]
pub(crate) struct RxBuf {
    buf: Vec<u8>,
    /// Read cursor: `buf[..pos]` belongs to frames already parsed.
    pos: usize,
    /// Unparsed length below which the front frame is known incomplete
    /// (the parser's last hint); 0 while nothing is known.
    need: usize,
    /// Unparsed length the front frame is known to reach (at least
    /// `need`): what the next read makes room for.
    reserve: usize,
}

impl RxBuf {
    /// The received bytes no parser has consumed yet.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a parse attempt can get anywhere: there are bytes, and as
    /// many as the last attempt said it lacked.
    pub(crate) fn ready(&self) -> bool {
        self.len() > 0 && self.len() >= self.need
    }

    /// Append bytes that did not come off a socket (decoder callers,
    /// tests).
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One `read` of at most `cap` bytes straight into spare capacity.
    /// Returns the bytes received and whether the socket is drained (the
    /// read came back short, or had nothing); a closed peer is an
    /// `UnexpectedEof` error. An announced payload gets its remainder in
    /// one exact reservation — the frame then fills the buffer to the byte
    /// and can leave whole — anything else reads into a small amortized
    /// tail.
    pub(crate) fn read(&mut self, stream: &TcpStream, cap: usize) -> io::Result<(usize, bool)> {
        let missing = self.reserve.saturating_sub(self.len());
        let reserved = if missing > MIN_SPARE {
            self.buf.try_reserve_exact(missing)
        } else if self.buf.capacity() - self.buf.len() < MIN_SPARE {
            self.buf.try_reserve(MIN_SPARE)
        } else {
            Ok(())
        };
        reserved.map_err(|_| io::ErrorKind::OutOfMemory)?;
        let spare = self.buf.spare_capacity_mut();
        let offered = spare.len().min(cap);
        loop {
            // SAFETY: `spare` is at least `offered` writable bytes owned by
            // `buf`, and the borrowed `stream` keeps its descriptor open
            // for the call; `read` writes at most `offered` bytes and needs
            // no initialised input.
            let n = unsafe { libc::read(stream.as_raw_fd(), spare.as_mut_ptr().cast(), offered) };
            if n < 0 {
                let err = io::Error::last_os_error();
                match err.kind() {
                    io::ErrorKind::Interrupted => continue,
                    io::ErrorKind::WouldBlock => return Ok((0, true)),
                    _ => return Err(err),
                }
            }
            let n = n as usize;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed the connection",
                ));
            }
            // SAFETY: the kernel just initialised the first `n <= offered`
            // bytes of the spare capacity, so `len + n` is within capacity
            // and every byte below it is initialised.
            unsafe { self.buf.set_len(self.buf.len() + n) };
            return Ok((n, n < offered));
        }
    }

    /// A parser took the `n`-byte frame at the cursor.
    pub(crate) fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        self.pos += n;
        (self.need, self.reserve) = (0, 0);
        if self.pos >= self.buf.len() {
            self.reset();
        } else if self.pos >= COMPACT_BYTES {
            self.compact();
        }
    }

    /// The frame at the cursor is incomplete and `need` says what it
    /// lacks: no parse attempt before that much arrived. This is where
    /// both directions refuse what could balloon the buffer — a line past
    /// [`MAX_LINE_LEN`] with no CRLF in sight, a data block announced
    /// above [`MAX_VALUE_LEN`] — as framing errors: the caller gives the
    /// connection up. A line of exactly the limit whose CR is in, waiting
    /// for its LF, is held: whole, it would have parsed.
    pub(crate) fn hold(&mut self, need: Need) -> KvResult<()> {
        let cr_in = usize::from(self.bytes().ends_with(b"\r"));
        let (what, len, limit) = match need {
            Need::Line(len) => ("line", len, MAX_LINE_LEN + cr_in),
            Need::Data { value, .. } => ("data block", value, MAX_VALUE_LEN),
        };
        if len > limit {
            return Err(KvError::Protocol(format!(
                "{what} of {len} bytes, limit {limit}"
            )));
        }
        // The partial frame moves to the front once, while it is short.
        self.compact();
        self.need = self.len().saturating_add(need.missing());
        self.reserve = self.len().saturating_add(need.reserve());
        Ok(())
    }

    /// Whether the `n`-byte frame at the cursor, `payload` bytes of it
    /// values, should leave by [`RxBuf::take_frame`] rather than be copied
    /// out. Always for big (stripe-sized) payloads: it halves the memory
    /// traffic of a multi-megabyte window. For smaller ones only if the
    /// frame ends the buffer and its payload is at least segment-sized
    /// and fills half the buffer's capacity — a lone stripe-read reply
    /// costs no memcpy at any size, while a small frame inside a large
    /// pipelined buffer is copied on purpose: handing the allocation to
    /// one `Bytes` would pin buffer-sized memory behind a tiny cached
    /// value.
    pub(crate) fn hands_over(&self, n: usize, payload: usize) -> bool {
        payload >= HAND_OVER_BYTES
            || (n == self.len()
                && payload >= SEGMENT_THRESHOLD
                && payload.saturating_mul(2) >= self.buf.capacity())
    }

    /// Hand the `n`-byte frame at the cursor over as one shared [`Bytes`]:
    /// the buffer itself becomes the `Bytes`, nothing is copied but
    /// whatever followed the frame (it starts the next buffer).
    pub(crate) fn take_frame(&mut self, n: usize) -> Bytes {
        let end = self.pos + n;
        let mut frame = std::mem::take(&mut self.buf);
        self.buf.extend_from_slice(&frame[end..]);
        frame.truncate(end);
        let start = std::mem::take(&mut self.pos);
        (self.need, self.reserve) = (0, 0);
        Bytes::from(frame).slice(start..end)
    }

    /// Drop all buffered bytes (teardown, slot reuse, a poisoned stream)
    /// and any capacity above [`KEEP_BYTES`].
    pub(crate) fn reset(&mut self) {
        self.buf.clear();
        self.buf.shrink_to(KEEP_BYTES);
        self.pos = 0;
        (self.need, self.reserve) = (0, 0);
    }

    fn compact(&mut self) {
        if self.pos == 0 {
            return;
        }
        self.buf.copy_within(self.pos.., 0);
        self.buf.truncate(self.buf.len() - self.pos);
        self.pos = 0;
    }
}

/// The send half: encoded segments waiting for the socket.
///
/// Encoders write command and header lines (and payloads under
/// [`SEGMENT_THRESHOLD`]) into [`TxQueue::head`], pass payloads to
/// [`TxQueue::value`], and [`TxQueue::seal`] what they built; no queued
/// segment is ever empty.
#[derive(Debug, Default)]
pub(crate) struct TxQueue {
    segments: VecDeque<Bytes>,
    /// Bytes of the front segment already written.
    off: usize,
    /// Unsent bytes across `segments` — the backpressure gauge.
    pending: usize,
    /// The segment under construction.
    head: Vec<u8>,
}

impl TxQueue {
    /// Scratch for the lines of the segment under construction.
    pub(crate) fn head(&mut self) -> &mut Vec<u8> {
        &mut self.head
    }

    /// Stage one payload: at [`SEGMENT_THRESHOLD`] and up it rides as its
    /// own refcount-bumped segment (a stripe goes store → `writev`, or
    /// caller → `writev`, with zero copies), below it is copied behind its
    /// line. Returns the bytes copied.
    pub(crate) fn value(&mut self, value: &Bytes) -> usize {
        if value.len() >= SEGMENT_THRESHOLD {
            self.seal();
            self.push(value.clone());
            0
        } else {
            self.head.extend_from_slice(value);
            value.len()
        }
    }

    /// Queue what [`TxQueue::head`] holds as one segment.
    pub(crate) fn seal(&mut self) {
        if !self.head.is_empty() {
            let head = std::mem::take(&mut self.head);
            self.push(Bytes::from(head));
        }
    }

    /// Queue an encoded segment.
    pub(crate) fn push(&mut self, segment: Bytes) {
        if !segment.is_empty() {
            self.pending += segment.len();
            self.segments.push_back(segment);
        }
    }

    /// Unsent bytes queued.
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The queued segments, for an encoder that builds a batch away from
    /// its connection.
    pub(crate) fn into_segments(mut self) -> Vec<Bytes> {
        self.seal();
        self.segments.into()
    }

    /// Write as much as the socket accepts, at most [`MAX_IOV`] segments
    /// per `writev`, resuming inside a segment a short write cut. Returns
    /// the bytes written; `WouldBlock` ends the round without error.
    pub(crate) fn write_to(&mut self, mut stream: &TcpStream) -> io::Result<usize> {
        let mut total = 0;
        while !self.segments.is_empty() {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let mut count = 0;
            for (slot, segment) in iov.iter_mut().zip(&self.segments) {
                let start = if count == 0 { self.off } else { 0 };
                *slot = IoSlice::new(&segment[start..]);
                count += 1;
            }
            let n = match stream.write_vectored(&iov[..count]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            total += n;
            self.pending -= n;
            self.off += n;
            while self.segments.front().is_some_and(|s| self.off >= s.len()) {
                self.off -= self.segments.pop_front().map_or(0, |s| s.len());
            }
        }
        Ok(total)
    }
}

/// One established non-blocking stream registered with a loop's poller:
/// the stream, its two buffers, and the interest mask in force.
pub(crate) struct Conn {
    stream: TcpStream,
    token: u64,
    /// Interest mask currently registered with epoll.
    interest: u32,
    pub(crate) rx: RxBuf,
    pub(crate) tx: TxQueue,
}

impl Conn {
    /// Take over a connected stream: no Nagle, non-blocking, registered
    /// for reading under `token`.
    pub(crate) fn adopt(stream: TcpStream, poller: &Poller, token: u64) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let interest = libc::EPOLLIN | libc::EPOLLRDHUP;
        poller.add(stream.as_raw_fd(), token, interest)?;
        Ok(Conn {
            stream,
            token,
            interest,
            rx: RxBuf::default(),
            tx: TxQueue::default(),
        })
    }

    /// [`RxBuf::read`] from this connection's socket.
    pub(crate) fn fill(&mut self, cap: usize) -> io::Result<(usize, bool)> {
        self.rx.read(&self.stream, cap)
    }

    /// [`TxQueue::write_to`] this connection's socket.
    pub(crate) fn flush(&mut self) -> io::Result<usize> {
        self.tx.write_to(&self.stream)
    }

    /// Register exactly the interest the connection has: readable while
    /// its loop wants requests or replies from it (`read`), writable only
    /// while unsent segments exist — level-triggered, so leaving EPOLLOUT
    /// on would spin the loop.
    pub(crate) fn sync_interest(&mut self, poller: &Poller, read: bool) -> io::Result<()> {
        let mut interest = 0;
        if read {
            interest |= libc::EPOLLIN | libc::EPOLLRDHUP;
        }
        if !self.tx.is_empty() {
            interest |= libc::EPOLLOUT;
        }
        if interest != self.interest {
            poller.modify(self.stream.as_raw_fd(), self.token, interest)?;
            self.interest = interest;
        }
        Ok(())
    }

    /// Make the kernel ACK what just arrived now rather than after its
    /// delayed-ACK timer. Not sticky — the kernel leaves quick-ACK mode
    /// after a handful of ACKs — and harmless when it fails (the ACK is
    /// merely late), so the result is ignored.
    pub(crate) fn quickack(&self) {
        let _ = self.stream.set_quickack(true);
    }

    /// Deregister and close; whatever both buffers held goes with it.
    pub(crate) fn close(self, poller: &Poller) {
        let _ = poller.delete(self.stream.as_raw_fd());
    }
}

/// `socket(SOCK_NONBLOCK) + connect()`, never blocking the caller. The
/// flag says whether the connect already completed (possible on
/// loopback); otherwise it is in flight (`EINPROGRESS`): wait for the
/// socket to turn writable and read the verdict with `take_error`.
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<(TcpStream, bool)> {
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
            // SAFETY: `sin6` is a live, fully initialised `sockaddr_in6`
            // whose exact size is passed as the address length.
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
        return Ok((TcpStream::from(fd), true));
    }
    let err = io::Error::last_os_error();
    match err.raw_os_error() {
        Some(libc::EINPROGRESS | libc::EINTR) => Ok((TcpStream::from(fd), false)),
        _ => Err(err),
    }
}

/// A non-blocking listener on the first of `addr`'s addresses that binds.
/// `TcpListener::bind` sets `SO_REUSEADDR` (a server respawned on its port
/// must not fail on TIME_WAIT pairs from its previous life); listening
/// again only raises the backlog to [`LISTEN_BACKLOG`]. The keepalive
/// options are set on the listener, and every socket it accepts inherits
/// them.
pub(crate) fn listen(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    for (level, name, value) in [
        (libc::SOL_SOCKET, libc::SO_KEEPALIVE, 1),
        (libc::IPPROTO_TCP, libc::TCP_KEEPIDLE, KEEPALIVE_IDLE_S),
        (libc::IPPROTO_TCP, libc::TCP_KEEPINTVL, KEEPALIVE_INTERVAL_S),
        (libc::IPPROTO_TCP, libc::TCP_KEEPCNT, KEEPALIVE_PROBES),
    ] {
        // SAFETY: `value` is a live `c_int` whose exact size is passed as
        // the option length, and the borrowed listener keeps its
        // descriptor open for the call.
        let rc = unsafe {
            libc::setsockopt(
                listener.as_raw_fd(),
                level,
                name,
                (&value as *const libc::c_int).cast(),
                std::mem::size_of::<libc::c_int>() as libc::socklen_t,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    // SAFETY: `listen` takes no pointers, and the borrowed listener keeps
    // its descriptor open for the call.
    if unsafe { libc::listen(listener.as_raw_fd(), LISTEN_BACKLOG) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(listener)
}

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::time::Duration;

    use super::*;
    use crate::net::next_response;
    use crate::proto::tests::{every_reply_kind, every_request_kind};
    use crate::proto::{encode_request, encode_response, next_request, Request};
    use crate::testutil::{seed_from_env, Rng};

    #[test]
    fn decoder_compacts_instead_of_growing_without_bound() {
        // 10k tiny pipelined requests fed in bursts: the internal buffer
        // must stay near one burst's size, not accumulate the whole
        // stream (and per-request consumption must not memmove — this is
        // the regression test for the old `drain(..consumed)` path).
        let mut rx = RxBuf::default();
        let frame = b"version\r\n";
        let mut parsed = 0usize;
        for _ in 0..100 {
            let mut burst = Vec::new();
            for _ in 0..100 {
                burst.extend_from_slice(frame);
            }
            rx.feed(&burst);
            while let Some(req) = next_request(&mut rx).unwrap() {
                assert_eq!(req, Request::Version);
                parsed += 1;
            }
            assert_eq!(rx.len(), 0);
            assert!(
                rx.buf.capacity() < COMPACT_BYTES,
                "buffer grew past the compaction bound: {}",
                rx.buf.capacity()
            );
        }
        assert_eq!(parsed, 10_000);
    }

    /// A `set` frame the way the server sees it: 64 KiB reads, a parse
    /// attempt after each.
    fn feed_set(rx: &mut RxBuf, value_len: usize) {
        let mut wire = format!("set k 0 0 {value_len}\r\n").into_bytes();
        wire.resize(wire.len() + value_len, b'v');
        wire.extend_from_slice(b"\r\n");
        let mut got = 0;
        for piece in wire.chunks(64 * 1024) {
            rx.feed(piece);
            while let Some(req) = next_request(rx).unwrap() {
                assert!(matches!(req, Request::Set { value, .. } if value.len() == value_len));
                got += 1;
            }
        }
        assert_eq!((got, rx.len()), (1, 0));
    }

    #[test]
    fn decoder_gives_back_the_buffer_of_an_oversized_request() {
        let mut rx = RxBuf::default();
        feed_set(&mut rx, 4 << 20);
        assert!(
            rx.buf.capacity() <= KEEP_BYTES,
            "an empty decoder kept {} bytes",
            rx.buf.capacity()
        );
        // Teardown with a large partial frame buffered gives it back too.
        rx.feed(format!("set k 0 0 {}\r\n", 8 << 20).as_bytes());
        rx.feed(&vec![b'v'; 4 << 20]);
        assert_eq!(next_request(&mut rx).unwrap(), None);
        assert!(rx.buf.capacity() > KEEP_BYTES);
        rx.reset();
        assert_eq!(rx.len(), 0);
        assert!(rx.buf.capacity() <= KEEP_BYTES);
    }

    #[test]
    fn steady_stripe_sized_sets_reuse_one_decoder_buffer() {
        let mut rx = RxBuf::default();
        feed_set(&mut rx, 512 * 1024);
        let (ptr, cap) = (rx.buf.as_ptr(), rx.buf.capacity());
        assert!(cap > 512 * 1024);
        for _ in 0..32 {
            feed_set(&mut rx, 512 * 1024);
            assert_eq!((rx.buf.as_ptr(), rx.buf.capacity()), (ptr, cap));
        }
    }

    /// A connected loopback pair: (non-blocking, blocking).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        near.set_nonblocking(true).unwrap();
        (near, listener.accept().unwrap().0)
    }

    /// A server socket has keepalive on with the listener's timing: it is
    /// set once on the listener and every accepted socket inherits it.
    #[test]
    fn accepted_sockets_inherit_the_listeners_keepalive() {
        let listener = listen("127.0.0.1:0").unwrap();
        let _near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let accepted = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Err(e) => panic!("accept: {e}"),
            }
        };
        let read_back = |level, name| {
            let mut value: libc::c_int = -1;
            let mut len = std::mem::size_of::<libc::c_int>() as libc::socklen_t;
            // SAFETY: `value` and `len` are live locals sized for one
            // `c_int`, and `accepted` keeps its descriptor open.
            let rc = unsafe {
                libc::getsockopt(
                    accepted.as_raw_fd(),
                    level,
                    name,
                    (&mut value as *mut libc::c_int).cast(),
                    &mut len,
                )
            };
            assert_eq!(rc, 0, "getsockopt: {}", io::Error::last_os_error());
            value
        };
        assert_eq!(
            [
                read_back(libc::SOL_SOCKET, libc::SO_KEEPALIVE),
                read_back(libc::IPPROTO_TCP, libc::TCP_KEEPIDLE),
                read_back(libc::IPPROTO_TCP, libc::TCP_KEEPINTVL),
                read_back(libc::IPPROTO_TCP, libc::TCP_KEEPCNT),
            ],
            [1, KEEPALIVE_IDLE_S, KEEPALIVE_INTERVAL_S, KEEPALIVE_PROBES]
        );
    }

    #[test]
    fn a_read_goes_straight_into_the_buffer_up_to_the_callers_cap() {
        let (near, mut far) = pair();
        let mut rx = RxBuf::default();
        assert_eq!(rx.read(&near, 1024).unwrap(), (0, true), "nothing sent yet");
        far.write_all(&[7u8; 3000]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // The cap bounds one read; a read that got all it was offered says
        // the socket may hold more, a short one that it is drained.
        assert_eq!(rx.read(&near, 1024).unwrap(), (1024, false));
        assert_eq!(rx.read(&near, 64 * 1024).unwrap(), (1976, true));
        assert_eq!(rx.bytes(), &[7u8; 3000][..]);
        // An announced payload is reserved to the byte, once.
        rx.reset();
        rx.feed(b"VALUE k 0 100000\r\n");
        assert_eq!(next_response(&mut rx).unwrap(), None);
        assert_eq!(rx.read(&near, usize::MAX).unwrap(), (0, true));
        assert_eq!(
            rx.buf.capacity(),
            b"VALUE k 0 100000\r\n".len() + 100_000 + 7
        );
        drop(far);
        std::thread::sleep(Duration::from_millis(50));
        let err = rx.read(&near, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_partial_writev_resumes_across_more_segments_than_one_call_takes() {
        // 40 segments from 1 byte to 512 KiB, ≈ 5 MiB: more than the
        // socket buffers hold, so `write_to` is cut inside segments again
        // and again while the peer reads in small sips.
        let mut rng = Rng::new(7);
        let mut tx = TxQueue::default();
        let mut sent = Vec::new();
        for i in 0..40usize {
            let len = [1, 3, 100, SEGMENT_THRESHOLD, 300_000, 512 * 1024][i % 6];
            let segment: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            sent.extend_from_slice(&segment);
            tx.push(Bytes::from(segment));
        }
        tx.push(Bytes::new()); // an empty segment is never queued
        assert!(tx.segments.len() == 40 && tx.segments.len() > MAX_IOV);
        assert_eq!(tx.pending(), sent.len());

        let (near, mut far) = pair();
        let total = sent.len();
        let reader = std::thread::spawn(move || {
            let mut got = Vec::with_capacity(total);
            let mut sip = vec![0u8; 48 * 1024];
            while got.len() < total {
                let n = far.read(&mut sip).unwrap();
                assert!(n > 0, "writer closed after {} of {total} bytes", got.len());
                got.extend_from_slice(&sip[..n]);
                std::thread::sleep(Duration::from_micros(200));
            }
            got
        });
        let (mut written, mut blocked) = (0, 0);
        while !tx.is_empty() {
            let n = tx.write_to(&near).unwrap();
            written += n;
            assert_eq!(tx.pending(), total - written);
            if n == 0 {
                blocked += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(
            blocked > 0,
            "the socket never pushed back: no resume exercised"
        );
        assert_eq!((tx.pending(), tx.off), (0, 0));
        assert!(reader.join().unwrap() == sent, "bytes differ end to end");
    }

    #[test]
    fn payloads_are_staged_under_one_threshold() {
        let mut tx = TxQueue::default();
        let small = Bytes::from(vec![1u8; SEGMENT_THRESHOLD - 1]);
        let large = Bytes::from(vec![2u8; SEGMENT_THRESHOLD]);
        tx.head().extend_from_slice(b"a\r\n");
        assert_eq!(tx.value(&small), small.len(), "below the bar: copied");
        tx.head().extend_from_slice(b"\r\nb\r\n");
        assert_eq!(tx.value(&large), 0, "at the bar: its own segment");
        tx.head().extend_from_slice(b"\r\n");
        let segments = tx.into_segments();
        let lens: Vec<usize> = segments.iter().map(Bytes::len).collect();
        assert_eq!(lens, [3 + small.len() + 5, large.len(), 2]);
        assert_eq!(segments[1].as_ptr(), large.as_ptr(), "not copied");
    }

    /// A frame of either direction.
    #[derive(Debug, PartialEq)]
    enum Frame {
        Request(Request),
        Reply(crate::proto::Response),
    }

    /// Pull the next frame off `rx` with the parser of its direction.
    fn next_frame(rx: &mut RxBuf, request: bool) -> KvResult<Option<Frame>> {
        Ok(if request {
            next_request(rx)?.map(Frame::Request)
        } else {
            next_response(rx)?.map(Frame::Reply)
        })
    }

    /// Every request kind and every reply kind with its wire form.
    fn every_frame() -> Vec<(Frame, Vec<u8>)> {
        let requests = every_request_kind()
            .into_iter()
            .map(|r| (encode_request(&r), Frame::Request(r)));
        let replies = every_reply_kind()
            .into_iter()
            .map(|r| (encode_response(&r), Frame::Reply(r)));
        requests.chain(replies).map(|(w, f)| (f, w)).collect()
    }

    #[test]
    fn every_frame_of_both_directions_completes_from_any_split_through_one_buffer() {
        // One buffer for the whole run: nothing a frame leaves behind —
        // cursor, hint, capacity — may disturb the next, whichever parser
        // reads it.
        let mut rx = RxBuf::default();
        for (frame, wire) in every_frame() {
            let request = matches!(frame, Frame::Request(_));
            // One byte at a time: nothing until the last byte.
            for (i, byte) in wire.iter().enumerate() {
                rx.feed(std::slice::from_ref(byte));
                let got = next_frame(&mut rx, request).unwrap();
                if i + 1 < wire.len() {
                    assert_eq!(
                        got,
                        None,
                        "{frame:?} from {} of {} bytes",
                        i + 1,
                        wire.len()
                    );
                    assert_eq!(rx.bytes(), &wire[..=i], "a partial frame stays in place");
                } else {
                    assert_eq!(got.as_ref(), Some(&frame));
                }
            }
            // Cut in two at every point, behind a frame already parsed.
            for cut in 0..=wire.len() {
                rx.feed(b"version\r\n");
                rx.feed(&wire[..cut]);
                let version = Some(Frame::Request(Request::Version));
                assert_eq!(next_frame(&mut rx, true).unwrap(), version);
                if cut < wire.len() {
                    assert_eq!(next_frame(&mut rx, request).unwrap(), None, "{frame:?}");
                }
                rx.feed(&wire[cut..]);
                let got = next_frame(&mut rx, request).unwrap();
                assert_eq!(got.as_ref(), Some(&frame), "cut at {cut}");
                assert_eq!(rx.len(), 0);
            }
        }
    }

    #[test]
    fn corrupted_frames_never_panic_a_parser_or_grow_the_buffer() {
        let seed = seed_from_env();
        println!("MEMFS_SHAPE_SEED={seed}");
        let mut rng = Rng::new(seed);
        let (requests, replies): (Vec<_>, Vec<_>) = every_frame()
            .into_iter()
            .partition(|(frame, _)| matches!(frame, Frame::Request(_)));
        let pick = |rng: &mut Rng, n: usize| rng.gen_range(0, n as u64) as usize;
        let mut rx = RxBuf::default();
        let (mut parsed, mut refused) = (0u32, 0u32);
        for round in 0..20_000 {
            // 10 k frames through each parser.
            let request = round % 2 == 0;
            let frames = if request { &requests } else { &replies };
            let mut wire = frames[pick(&mut rng, frames.len())].1.clone();
            for _ in 0..=pick(&mut rng, 3) {
                if wire.len() < 2 {
                    break;
                }
                let at = pick(&mut rng, wire.len());
                match pick(&mut rng, 5) {
                    0 => wire[at] = rng.next_u64() as u8,
                    1 => wire[at] ^= 1 << pick(&mut rng, 8),
                    2 => wire.insert(at, b"0123456789 \r\n"[pick(&mut rng, 13)]),
                    3 => drop(wire.remove(at)),
                    _ => wire.truncate(at.max(1)),
                }
            }
            let mut fed = 0;
            let verdict = loop {
                match next_frame(&mut rx, request) {
                    Ok(Some(_)) => parsed += 1,
                    Ok(None) if fed == wire.len() => break Ok(()),
                    Ok(None) => {
                        let n = 1 + pick(&mut rng, wire.len() - fed);
                        rx.feed(&wire[fed..fed + n]);
                        fed += n;
                    }
                    Err(err) => break Err(err),
                }
                // What the next read would reserve is bounded whatever
                // length the frame claimed, and so is what is held.
                assert!(rx.reserve <= rx.len() + MAX_VALUE_LEN + MAX_LINE_LEN);
                assert!(rx.buf.capacity() <= KEEP_BYTES, "round {round}");
            };
            // Either loop gives the connection up on an error, and a
            // frame cut short leaves a partial one: start clean.
            refused += u32::from(verdict.is_err());
            rx.reset();
        }
        assert!(
            parsed > 1000 && refused > 1000,
            "{parsed} parsed, {refused} refused"
        );
    }
}
