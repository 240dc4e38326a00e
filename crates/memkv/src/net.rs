//! TCP transport: the evented memkv server ([`KvServer`], re-exported
//! from [`crate::server`]) speaking the memcached text protocol, and a
//! matching client implementing [`KvClient`].
//!
//! This is what turns `memkv` into a real distributed deployment: one
//! [`KvServer`] per storage node, a [`TcpClient`] per server inside every
//! MemFS mount (the Libmemcached role). The `tcp_cluster` example runs a
//! whole striped file system over localhost sockets.
//!
//! The client is **one connection** per server, as Libmemcached keeps one
//! socket per server, and every request batch is **pipelined** on it: the
//! frames of every batch are queued on that socket and the replies are
//! read back in order. Connections are
//! driven by a shared epoll reactor ([`crate::reactor`]): submitting a
//! batch never blocks on the socket, and the caller waits on a completion
//! handle only when it actually needs the responses — so one thread can
//! keep batches in flight on every server of a pool concurrently
//! ([`KvClient::start`] is that split). A mount
//! registers all of its `TcpClient`s on one [`ReactorHandle`]
//! ([`TcpClient::connect_shared`]), so a single loop drives the whole
//! cluster and drains completions for all servers per turn — run by the
//! waiting caller itself while nobody else runs it. Value
//! payloads travel as their own zero-copy iovec segments in both
//! directions, so stripe-sized values are never copied into an
//! intermediate wire buffer.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use bytes::Bytes;

use crate::client::{Batch, Deferred, KvClient, Replies, StoreVerb};
use crate::conn::{RxBuf, TxQueue};
use crate::error::{KvError, KvResult};
use crate::proto::{
    line_end, parse_len, parse_store_full, parse_u64, write_request_line, Need, Request, Response,
    ValueItem, MAX_LINE_LEN,
};
use crate::reactor::{PendingExchange, ReactorHandle, ReactorStatsSnapshot, Registration};

// The server engine lives in `crate::server`; re-export its surface here
// so `net` stays the one-stop transport module.
pub use crate::server::{execute, KvServer, MAX_CONNECTIONS, SERVER_VERSION};

/// Upper bound on keys packed into one multi-key `get` line; larger
/// batches are split into pipelined frames on the same connection.
const MAX_BATCH_KEYS: usize = 64;

/// The deadline of a [`TcpClient`]'s connection. Nothing probes a quiet
/// connection: a server is found dead by the next request sent to it.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Response deadline per batch. A server that accepts a request and
    /// never answers fails the call with [`KvError::Timeout`] instead of
    /// parking the caller forever; the silent connection is severed.
    pub timeout: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            timeout: Duration::from_secs(10),
        }
    }
}

/// An evented TCP client for one server, implementing [`KvClient`].
///
/// Holds one non-blocking connection registered with an epoll reactor
/// ([`crate::reactor`]) — the socket Libmemcached keeps per server in the
/// paper's deployment, minus the thread-per-call cost: submitting a batch
/// only encodes it and hands it to the reactor, so any number of batches
/// (across any number of `TcpClient`s) stay in flight while a single
/// caller thread waits.
/// [`TcpClient::connect_shared`] registers on a caller-owned
/// [`ReactorHandle`] so every client of a mount shares one reactor
/// thread; [`TcpClient::connect_with`] spins up a private one.
///
/// Every request is a batch ([`KvClient::start`]; a single-key call is a
/// batch of one) and every batch is *pipelined*: its frames are queued on
/// the connection behind those of earlier batches, and the replies are
/// read back in order.
///
/// A connection that dies mid-call is reopened; the request is retried
/// once, transparently, when it is idempotent (`get`/`set`/`delete`…).
/// Non-idempotent verbs (`add`/`append`) surface the I/O error
/// instead — retrying those could double-apply. Calls unanswered past
/// [`PoolConfig::timeout`] fail with [`KvError::Timeout`]. After a failed
/// dial, calls fail at once with [`KvError::Io`] until the reconnect
/// backoff (10 ms doubling to 500 ms) has run out; the next call dials.
pub struct TcpClient {
    registration: Registration,
    addr: SocketAddr,
}

/// Whether a request may be transparently resent after a connection drop.
fn is_idempotent(req: &Request) -> bool {
    !matches!(req, Request::Add { .. } | Request::Append { .. })
}

/// Encode a pipelined batch into wire segments for the reactor: command
/// lines (and small payloads) coalesce into shared header buffers, large
/// payloads ride as refcount-bumped [`Bytes`] segments — the send queue's
/// one staging rule. No segment is ever empty.
fn encode_batch(reqs: &[Request]) -> Vec<Bytes> {
    let mut tx = TxQueue::default();
    for req in reqs {
        if let Some(value) = write_request_line(req, tx.head()) {
            crate::audit::count_staged(tx.value(value));
            tx.head().extend_from_slice(b"\r\n");
        }
    }
    tx.into_segments()
}

impl TcpClient {
    /// Connect to a server with the default [`PoolConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> KvResult<TcpClient> {
        Self::connect_with(addr, PoolConfig::default())
    }

    /// Connect to a server with an explicit [`PoolConfig`] on a private
    /// reactor (this client is the reactor's only registrant).
    ///
    /// # Panics
    /// Panics if `config.timeout` is zero.
    pub fn connect_with(addr: impl ToSocketAddrs, config: PoolConfig) -> KvResult<TcpClient> {
        let reactor = ReactorHandle::new()?;
        Self::connect_shared(addr, config, &reactor)
    }

    /// Connect to a server and register the connection with an existing
    /// shared reactor — the per-mount deployment shape: every server's
    /// `TcpClient` rides one epoll thread, so completions land in
    /// cross-server batches and thread count stays constant in cluster
    /// size. The client keeps the reactor alive for as long as it lives.
    ///
    /// # Panics
    /// Panics if `config.timeout` is zero.
    pub fn connect_shared(
        addr: impl ToSocketAddrs,
        config: PoolConfig,
        reactor: &ReactorHandle,
    ) -> KvResult<TcpClient> {
        assert!(
            config.timeout > Duration::ZERO,
            "response deadline must be non-zero"
        );
        // Connect eagerly and synchronously so an unreachable server is
        // reported here, not on the first call.
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        let registration = reactor.register(addr, stream, config.timeout)?;
        Ok(TcpClient { registration, addr })
    }

    /// Peer address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters of the reactor driving this client's connection. Shared
    /// reactors report aggregate numbers across every registrant; dedup
    /// on [`ReactorStatsSnapshot::reactor_id`] when summing over clients.
    pub fn reactor_stats(&self) -> ReactorStatsSnapshot {
        self.registration.handle().stats()
    }

    /// Submit one pipelined batch to the reactor and return its
    /// completion handle. Never blocks on the network.
    fn submit_batch(&self, reqs: &[Request]) -> PendingExchange {
        let segments = encode_batch(reqs);
        let idempotent = reqs.iter().all(is_idempotent);
        self.registration.submit(segments, reqs.len(), idempotent)
    }

    /// Submit `reqs` as one pipelined batch; `decode` turns the replies,
    /// which arrive in request order, into the batch's per-entry results.
    fn start_with(
        &self,
        reqs: Vec<Request>,
        decode: impl FnOnce(Vec<Response>) -> Replies + Send + 'static,
    ) -> Deferred<Bytes> {
        if reqs.is_empty() {
            return Deferred::Ready(Ok(Vec::new()));
        }
        let pending = self.submit_batch(&reqs);
        Deferred::Polled {
            ready: pending.probe(),
            answered: Some(pending.hook()),
            finish: Box::new(move || decode(pending.wait()?)),
        }
    }

    /// Pack keys into multi-key `get` lines (bounded by both key count and
    /// line length), one request per chunk. `Bytes` keys make every chunk
    /// push a refcount bump, not a copy.
    fn chunk_get_requests(keys: &[Bytes]) -> Vec<Request> {
        let mut reqs: Vec<Request> = Vec::new();
        let mut chunk: Vec<Bytes> = Vec::new();
        let mut line_len = "get".len();
        for key in keys {
            let full = chunk.len() >= MAX_BATCH_KEYS || line_len + 1 + key.len() + 2 > MAX_LINE_LEN;
            if full && !chunk.is_empty() {
                reqs.push(Request::Get {
                    keys: std::mem::take(&mut chunk),
                });
                line_len = "get".len();
            }
            line_len += 1 + key.len();
            chunk.push(key.clone());
        }
        if !chunk.is_empty() {
            reqs.push(Request::Get { keys: chunk });
        }
        reqs
    }

    /// Issue a request and wait for its response.
    pub fn call(&self, req: &Request) -> KvResult<Response> {
        let mut resps = self.submit_batch(std::slice::from_ref(req)).wait()?;
        Ok(resps.pop().expect("one response per request"))
    }

    /// Fetch server statistics.
    pub fn stats(&self) -> KvResult<Vec<(String, String)>> {
        match self.call(&Request::Stats)? {
            Response::Stats(pairs) => Ok(pairs),
            other => Err(KvError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// List all keys on the server (the `keys` protocol extension).
    pub fn keys(&self) -> KvResult<Vec<Vec<u8>>> {
        match self.call(&Request::Keys)? {
            Response::KeyList(keys) => Ok(keys),
            // An empty key list is a bare `END`, indistinguishable on the
            // wire from a get miss.
            Response::End => Ok(Vec::new()),
            other => Err(KvError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }
}

/// Outcome of one parse attempt over the accumulated response bytes.
pub(crate) enum ParseStep {
    /// A complete response was consumed from the buffer.
    Done(Response),
    /// The frame is incomplete and was left in place; this is what it
    /// lacks. [`next_response`] hands it to [`RxBuf::hold`], and nothing
    /// parses again before that much arrived, so it must never overstate:
    /// `VALUE` framing knows the payload remainder, a line without its
    /// CRLF may lack only the `\n`.
    More(Need),
}

/// Try to parse one response from the front of `rx`, consuming it. The
/// reactor ([`crate::reactor`]) receives into one [`RxBuf`] per
/// connection and parses it incrementally. Lines are
/// matched on the borrowed bytes: the one-word replies that make up most
/// small-op traffic cost no allocation.
pub(crate) fn try_parse_response(rx: &mut RxBuf) -> KvResult<ParseStep> {
    let buf = rx.bytes();
    let line_end = match line_end(buf) {
        Ok(end) => end,
        Err(need) => return Ok(ParseStep::More(need)),
    };
    let line = &buf[..line_end];
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let resp = match line {
        b"STORED" => Response::Stored,
        b"NOT_STORED" => Response::NotStored,
        b"NOT_FOUND" => Response::NotFound,
        b"DELETED" => Response::Deleted,
        b"OK" => Response::Ok,
        b"END" => Response::End,
        _ => {
            if let Some(v) = line.strip_prefix(b"VERSION ") {
                Response::Version(text(v))
            } else if let Some(msg) = line.strip_prefix(b"SERVER_ERROR ") {
                Response::ServerError(text(msg))
            } else if let Some(msg) = line.strip_prefix(b"CLIENT_ERROR ") {
                Response::ClientError(text(msg))
            } else if line.starts_with(b"KEY ") {
                let entry = |k: &[u8]| k.to_vec();
                return parse_lines(rx, b"KEY ", "malformed key list", entry, Response::KeyList);
            } else if line.starts_with(b"STAT ") {
                let entry = |kv: &[u8]| {
                    let kv = String::from_utf8_lossy(kv);
                    let (k, v) = kv.split_once(' ').unwrap_or((&kv, ""));
                    (k.to_string(), v.to_string())
                };
                return parse_lines(
                    rx,
                    b"STAT ",
                    "malformed stats block",
                    entry,
                    Response::Stats,
                );
            } else if line.starts_with(b"VALUE ") {
                return parse_values(rx);
            } else {
                return Err(KvError::Protocol(format!(
                    "unrecognized response line {:?}",
                    String::from_utf8_lossy(line)
                )));
            }
        }
    };
    rx.consume(line_end + 2);
    Ok(ParseStep::Done(resp))
}

/// Parse the next complete response off a receive buffer, if it holds
/// one — the reply-side twin of [`crate::proto::next_request`]. An
/// incomplete frame is left in place and the buffer told what it lacks;
/// an `Err` means the framing is lost and the connection with it.
pub(crate) fn next_response(rx: &mut RxBuf) -> KvResult<Option<Response>> {
    if !rx.ready() {
        return Ok(None);
    }
    match try_parse_response(rx)? {
        ParseStep::Done(resp) => Ok(Some(resp)),
        ParseStep::More(need) => {
            rx.hold(need)?;
            Ok(None)
        }
    }
}

/// Collect `<prefix><entry>` lines until `END` (the `keys` and `stats`
/// replies) and consume the block as `wrap(entries)` once it is complete.
fn parse_lines<T>(
    rx: &mut RxBuf,
    prefix: &[u8],
    malformed: &str,
    entry: impl Fn(&[u8]) -> T,
    wrap: impl FnOnce(Vec<T>) -> Response,
) -> KvResult<ParseStep> {
    let buf = rx.bytes();
    let mut entries = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &buf[pos..];
        let le = match line_end(rest) {
            Ok(end) => end,
            Err(need) => return Ok(ParseStep::More(need)),
        };
        let l = &rest[..le];
        pos += le + 2;
        if l == b"END" {
            rx.consume(pos);
            return Ok(ParseStep::Done(wrap(entries)));
        }
        let Some(body) = l.strip_prefix(prefix) else {
            return Err(KvError::Protocol(malformed.into()));
        };
        entries.push(entry(body));
    }
}

/// One or more `VALUE <key> <flags> <bytes> [cas]\r\n<data>\r\n` blocks
/// terminated by `END\r\n` — a (multi-)get reply.
///
/// Scans in two passes: the first only records item boundaries, so the
/// retries the reactor makes while a large pipelined frame trickles in
/// stay cheap (no per-attempt data copies — copying each value on every
/// attempt would make a `w`-stripe window quadratic in its payload
/// size). Values are materialized once, after `END` proves the frame is
/// complete.
fn parse_values(rx: &mut RxBuf) -> KvResult<ParseStep> {
    struct RawItem {
        key: (usize, usize),
        data: (usize, usize),
        cas: Option<u64>,
    }
    const END: &[u8] = b"END\r\n";
    let buf = rx.bytes();
    let mut raw: Vec<RawItem> = Vec::new();
    let mut pos = 0usize;
    let frame_end = loop {
        let rest = &buf[pos..];
        let le = match line_end(rest) {
            Ok(end) => end,
            Err(need) => return Ok(ParseStep::More(need)),
        };
        let l = &rest[..le];
        let data_start = pos + le + 2;
        if l == b"END" {
            break data_start;
        }
        let Some(header) = l.strip_prefix(b"VALUE ") else {
            return Err(KvError::Protocol("malformed VALUE framing".into()));
        };
        let mut toks = header.split(|&b| b == b' ');
        let (Some(key), Some(_flags), Some(nbytes)) = (toks.next(), toks.next(), toks.next())
        else {
            return Err(KvError::Protocol("malformed VALUE line".into()));
        };
        let key_start = pos + b"VALUE ".len();
        let nbytes =
            parse_len(nbytes).map_err(|_| KvError::Protocol("bad VALUE byte count".into()))?;
        let cas = match toks.next() {
            Some(tok) => {
                Some(parse_u64(tok).map_err(|_| KvError::Protocol("bad VALUE cas".into()))?)
            }
            None => None,
        };
        // Data block + CRLF, then at least `END`. The length comes off
        // the wire, so no wrapping arithmetic.
        let Some(with_end) = data_start
            .checked_add(nbytes)
            .and_then(|n| n.checked_add(2 + END.len()))
        else {
            return Err(KvError::Protocol("bad VALUE byte count".into()));
        };
        let need = with_end - END.len();
        if buf.len() < need {
            // The terminator is checked as soon as it is in; reserving
            // the `END` that must follow too makes the buffer take a
            // single-value frame to the byte, once.
            return Ok(ParseStep::More(Need::Data {
                value: nbytes,
                missing: need - buf.len(),
                reserve: with_end - buf.len(),
            }));
        }
        if &buf[data_start + nbytes..need] != b"\r\n" {
            return Err(KvError::Protocol("malformed VALUE framing".into()));
        }
        raw.push(RawItem {
            key: (key_start, key_start + key.len()),
            data: (data_start, data_start + nbytes),
            cas,
        });
        pos = need;
    };
    // Materialize the values: big frames, and lone ones that fill their
    // buffer, leave as slices of the receive buffer itself; small ones
    // are copied out ([`RxBuf::hands_over`] has the rule and its reason).
    let payload: usize = raw.iter().map(|r| r.data.1 - r.data.0).sum();
    let zero_copy = rx.hands_over(frame_end, payload);
    let mut items: Vec<ValueItem> = if zero_copy {
        let frame = rx.take_frame(frame_end);
        raw.into_iter()
            .map(|r| ValueItem {
                // Keys ride the same shared frame as the values: a
                // refcount bump each, no per-key allocation.
                key: frame.slice(r.key.0..r.key.1),
                value: frame.slice(r.data.0..r.data.1),
                cas: r.cas,
            })
            .collect()
    } else {
        crate::audit::count_rx_copied(payload);
        let items = raw
            .into_iter()
            .map(|r| ValueItem {
                key: Bytes::copy_from_slice(&buf[r.key.0..r.key.1]),
                value: Bytes::copy_from_slice(&buf[r.data.0..r.data.1]),
                cas: r.cas,
            })
            .collect();
        rx.consume(frame_end);
        items
    };
    let resp = if items.len() == 1 {
        let item = items.pop().expect("one item");
        Response::Value {
            key: item.key,
            value: item.value,
            cas: item.cas,
        }
    } else {
        Response::Values(items)
    };
    Ok(ParseStep::Done(resp))
}

impl KvClient for TcpClient {
    /// One pipelined batch on one connection. A `Get` packs its keys into
    /// multi-key lines and aligns the hits back onto them; every other
    /// kind is one frame per entry whose replies pair with the entries by
    /// position, not by an echoed key — two ranges of one key in a batch
    /// must both resolve. A batch holding an `add` or `append` is never
    /// replayed on a fresh connection (`is_idempotent`); the rest are.
    fn start(&self, batch: Batch<'_>) -> Deferred<Bytes> {
        fn each(decode: impl Fn(Response) -> KvResult<Bytes>, resps: Vec<Response>) -> Replies {
            Ok(resps.into_iter().map(decode).collect())
        }
        match batch {
            Batch::Get(keys) => {
                let keys = keys.to_vec();
                let reqs = Self::chunk_get_requests(&keys);
                self.start_with(reqs, move |resps| decode_get_responses(&keys, resps))
            }
            Batch::GetRange(ranges) => {
                let reqs = ranges.iter().map(|(key, offset, len)| Request::GetRange {
                    key: key.clone(),
                    offset: *offset,
                    len: *len,
                });
                self.start_with(reqs.collect(), |resps| each(ranged, resps))
            }
            Batch::Store(verb, items) => {
                let reqs = items
                    .iter()
                    .map(|(key, value)| store_request(verb, key.clone(), value.clone()));
                self.start_with(reqs.collect(), move |resps| {
                    each(|resp| stored(verb, resp), resps)
                })
            }
            Batch::Delete(keys) => {
                let reqs = keys.iter().map(|key| Request::Delete { key: key.clone() });
                self.start_with(reqs.collect(), |resps| each(deleted, resps))
            }
        }
    }

    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        self.keys()
    }

    fn reactor_stats(&self) -> Option<ReactorStatsSnapshot> {
        Some(TcpClient::reactor_stats(self))
    }
}

/// Align multi-get replies back onto the requested keys, in order.
fn decode_get_responses(keys: &[Bytes], resps: Vec<Response>) -> Replies {
    let mut hits: HashMap<Bytes, Bytes> = HashMap::with_capacity(keys.len());
    for resp in resps {
        match resp {
            Response::End => {}
            Response::Value { key, value, .. } => {
                hits.insert(key, value);
            }
            Response::Values(items) => {
                for item in items {
                    hits.insert(item.key, item.value);
                }
            }
            other => return Err(response_error(other)),
        }
    }
    Ok(keys
        .iter()
        .map(|k| hits.get(k).cloned().ok_or(KvError::NotFound))
        .collect())
}

fn store_request(verb: StoreVerb, key: Bytes, value: Bytes) -> Request {
    match verb {
        StoreVerb::Set => Request::Set {
            key,
            value,
            exptime: 0,
        },
        StoreVerb::Add => Request::Add {
            key,
            value,
            exptime: 0,
        },
        StoreVerb::Append => Request::Append { key, value },
    }
}

/// What the reply to a storage command means: `NOT_STORED` is the verb's
/// own refusal — the key exists (`add`) or does not (`append`).
fn stored(verb: StoreVerb, resp: Response) -> KvResult<Bytes> {
    match (resp, verb) {
        (Response::Stored, _) => Ok(Bytes::new()),
        (Response::NotStored, StoreVerb::Add) => Err(KvError::Exists),
        (Response::NotStored, StoreVerb::Append) => Err(KvError::NotFound),
        (other, _) => Err(response_error(other)),
    }
}

/// What the reply to a `getrange` means.
fn ranged(resp: Response) -> KvResult<Bytes> {
    match resp {
        Response::Value { value, .. } => Ok(value),
        Response::End => Err(KvError::NotFound),
        other => Err(response_error(other)),
    }
}

/// What the reply to a `delete` means.
fn deleted(resp: Response) -> KvResult<Bytes> {
    match resp {
        Response::Deleted => Ok(Bytes::new()),
        Response::NotFound => Err(KvError::NotFound),
        other => Err(response_error(other)),
    }
}

fn response_error(resp: Response) -> KvError {
    match resp {
        Response::ServerError(msg) => parse_store_full(&msg).unwrap_or(KvError::Protocol(msg)),
        Response::ClientError(msg) => KvError::Protocol(msg),
        other => KvError::Protocol(format!("unexpected reply {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::proto::tests::every_reply_kind;
    use crate::store::{Store, StoreConfig};

    fn spawn_server() -> KvServer {
        KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn tcp_round_trip() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        client.set(b"k", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(client.get(b"k").unwrap().as_ref(), b"hello");
        client.append(b"k", b" world").unwrap();
        assert_eq!(client.get(b"k").unwrap().as_ref(), b"hello world");
        client.delete(b"k").unwrap();
        assert!(matches!(client.get(b"k"), Err(KvError::NotFound)));
    }

    #[test]
    fn tcp_add_semantics() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        client.add(b"k", Bytes::from_static(b"1")).unwrap();
        assert!(matches!(
            client.add(b"k", Bytes::from_static(b"2")),
            Err(KvError::Exists)
        ));
    }

    #[test]
    fn tcp_binary_values_with_crlf() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        let payload = Bytes::from_static(b"line1\r\nline2\0bin");
        client.set(b"bin", payload.clone()).unwrap();
        assert_eq!(client.get(b"bin").unwrap(), payload);
    }

    #[test]
    fn tcp_large_value() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        let payload = Bytes::from(vec![0xAB; 2 << 20]); // 2 MiB stripe-ish
        client.set(b"stripe", payload.clone()).unwrap();
        assert_eq!(client.get(b"stripe").unwrap(), payload);
    }

    #[test]
    fn tcp_stats_reflect_traffic() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        client.set(b"k", Bytes::from_static(b"v")).unwrap();
        client.get(b"k").unwrap();
        let stats = client.stats().unwrap();
        let get = |name: &str| {
            stats
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        assert_eq!(get("cmd_set"), "1");
        assert_eq!(get("cmd_get"), "1");
        assert_eq!(get("curr_items"), "1");
    }

    #[test]
    fn multiple_clients_share_server() {
        let server = spawn_server();
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let client = TcpClient::connect(addr).unwrap();
                    for i in 0..50 {
                        let key = format!("t{t}k{i}");
                        client
                            .set(key.as_bytes(), Bytes::from(format!("v{i}")))
                            .unwrap();
                        assert_eq!(
                            client.get(key.as_bytes()).unwrap(),
                            Bytes::from(format!("v{i}"))
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.store().item_count(), 200);
    }

    #[test]
    fn tcp_keys_extension_lists_everything() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        for i in 0..10 {
            client
                .set(format!("key{i}").as_bytes(), Bytes::from_static(b"x"))
                .unwrap();
        }
        let mut keys = client.keys().unwrap();
        keys.sort();
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[0], b"key0".to_vec());
        // Empty server lists nothing.
        for key in keys {
            client.delete(&key).unwrap();
        }
        assert!(client.keys().unwrap().is_empty());
    }

    #[test]
    fn server_shutdown_is_idempotent() {
        let mut server = spawn_server();
        server.shutdown();
        server.shutdown();
    }

    #[test]
    fn tcp_multi_get_mixes_hits_and_misses() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        client.set(b"a", Bytes::from_static(b"1")).unwrap();
        client.set(b"c", Bytes::from_static(b"3")).unwrap();
        let out = client
            .get_many(&[
                Bytes::from_static(b"a"),
                Bytes::from_static(b"b"),
                Bytes::from_static(b"c"),
            ])
            .unwrap();
        assert_eq!(out[0].as_ref().unwrap().as_ref(), b"1");
        assert!(matches!(out[1], Err(KvError::NotFound)));
        assert_eq!(out[2].as_ref().unwrap().as_ref(), b"3");
        // The whole batch travelled as ONE multi-key get frame.
        assert_eq!(server.store().stats().snapshot().mget_ops, 1);
    }

    #[test]
    fn tcp_multi_get_all_misses_and_empty() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        assert!(client.get_many(&[]).unwrap().is_empty());
        let out = client
            .get_many(&[Bytes::from_static(b"x"), Bytes::from_static(b"y")])
            .unwrap();
        assert!(out.iter().all(|r| matches!(r, Err(KvError::NotFound))));
    }

    #[test]
    fn tcp_batched_add_and_append_report_the_verbs_refusal_per_item() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        let item = |k: &'static str, v: &'static str| (Bytes::from(k), Bytes::from(v));
        // One pipelined batch per call; `NOT_STORED` means `Exists` to an
        // `add` and `NotFound` to an `append`, reply by reply.
        let adds = [item("a", "1"), item("b", "2"), item("a", "3")];
        let out = client.start(Batch::Store(StoreVerb::Add, &adds)).wait();
        let out = out.unwrap();
        assert!(matches!(out[..], [Ok(_), Ok(_), Err(KvError::Exists)]));
        let appends = [item("a", "+"), item("missing", "+"), item("a", "+")];
        let out = client
            .start(Batch::Store(StoreVerb::Append, &appends))
            .wait();
        let out = out.unwrap();
        assert!(matches!(out[..], [Ok(_), Err(KvError::NotFound), Ok(_)]));
        assert_eq!(client.get(b"a").unwrap().as_ref(), b"1++");
        assert_eq!(client.get(b"b").unwrap().as_ref(), b"2");
        assert!(matches!(client.get(b"missing"), Err(KvError::NotFound)));
        // `Set` is the `set_many` it always was.
        let out = client.set_many(&adds).unwrap();
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(client.get(b"a").unwrap().as_ref(), b"3");
    }

    #[test]
    fn tcp_getrange_serves_clamped_ranges_by_position() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        let value: Vec<u8> = (0..100u8).collect();
        client.set(b"k", Bytes::from(value.clone())).unwrap();
        let k = Bytes::from_static(b"k");
        let reqs = [
            (k.clone(), 10, 20), // inside
            (k.clone(), 80, 20), // ending at the value's end
            (k.clone(), 90, 20), // straddling it
            (k.clone(), 100, 5), // starting at it
            (k.clone(), 150, 5), // starting past it
            (k.clone(), 5, 0),   // zero length
            (Bytes::from_static(b"missing"), 0, 8),
            (k.clone(), 10, 20), // a second range of one key...
            (k.clone(), 0, 1),   // ...and a third
            (k, 0, usize::MAX),
        ];
        let out = client.start(Batch::GetRange(&reqs)).wait().unwrap();
        let expect: [Option<&[u8]>; 10] = [
            Some(&value[10..30]),
            Some(&value[80..]),
            Some(&value[90..]),
            Some(&[]),
            Some(&[]),
            Some(&[]),
            None,
            Some(&value[10..30]),
            Some(&value[..1]),
            Some(&value[..]),
        ];
        for (i, (got, want)) in out.iter().zip(expect).enumerate() {
            match want {
                Some(bytes) => assert_eq!(got.as_ref().unwrap().as_ref(), bytes, "range {i}"),
                None => assert!(matches!(got, Err(KvError::NotFound)), "range {i}"),
            }
        }
        assert!(client
            .start(Batch::GetRange(&[]))
            .wait()
            .unwrap()
            .is_empty());
        // An operator sees the fine-grain traffic next to `cmd_mget`; each
        // ranged read is also a `get` to the hit/miss counters.
        let stats = client.stats().unwrap();
        let stat = |name: &str| {
            let (_, v) = stats.iter().find(|(k, _)| k == name).expect(name);
            v.parse::<u64>().unwrap()
        };
        assert_eq!(stat("cmd_getrange"), 10);
        assert_eq!(stat("getrange_bytes"), 20 + 20 + 10 + 20 + 1 + 100);
        assert_eq!(stat("cmd_get"), 10);
        assert_eq!(stat("get_misses"), 1);
        assert_eq!(stat("cmd_mget"), 0);
    }

    #[test]
    fn tcp_getrange_moves_the_range_not_the_value() {
        let server = spawn_server();
        // Through `Arc<dyn KvClient>`, as a mount holds it.
        let client: Arc<dyn KvClient> = Arc::new(TcpClient::connect(server.addr()).unwrap());
        let value: Vec<u8> = (0..512 * 1024).map(|i| (i * 7 % 251) as u8).collect();
        client.set(b"stripe", Bytes::from(value.clone())).unwrap();
        let rx = || client.reactor_stats().expect("a TCP client").bytes_rx;
        let before = rx();
        let out = client.get_range(b"stripe", 3 * 65_536, 65_536).unwrap();
        assert_eq!(out.as_ref(), &value[3 * 65_536..4 * 65_536]);
        let moved = rx() - before;
        assert!(
            (65_536..70 * 1024).contains(&moved),
            "a 64 KiB range of a 512 KiB value moved {moved} bytes"
        );
    }

    #[test]
    fn tcp_multi_get_large_batch_chunks_frames() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        let n = 3 * MAX_BATCH_KEYS + 5;
        let keys: Vec<Bytes> = (0..n).map(|i| Bytes::from(format!("k{i}"))).collect();
        let items: Vec<(Bytes, Bytes)> = keys
            .iter()
            .map(|k| {
                (
                    k.clone(),
                    Bytes::from(format!("v-{}", String::from_utf8_lossy(k))),
                )
            })
            .collect();
        for r in client.set_many(&items).unwrap() {
            r.unwrap();
        }
        let out = client.get_many(&keys).unwrap();
        for (k, r) in keys.iter().zip(out) {
            assert_eq!(
                r.unwrap(),
                Bytes::from(format!("v-{}", String::from_utf8_lossy(k)))
            );
        }
        // One multi-get line per `MAX_BATCH_KEYS` keys, all pipelined.
        assert_eq!(
            server.store().stats().snapshot().mget_ops,
            n.div_ceil(MAX_BATCH_KEYS) as u64
        );
    }

    #[test]
    fn tcp_delete_many_pipelines_and_reports_misses() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        client.set(b"a", Bytes::from_static(b"1")).unwrap();
        client.set(b"b", Bytes::from_static(b"2")).unwrap();
        let out = client
            .delete_many(&[
                Bytes::from_static(b"a"),
                Bytes::from_static(b"missing"),
                Bytes::from_static(b"b"),
            ])
            .unwrap();
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(KvError::NotFound)));
        assert!(out[2].is_ok());
        assert_eq!(server.store().item_count(), 0);
        // All three deletes travelled as pipelined frames on one socket.
        assert_eq!(server.store().stats().snapshot().delete_ops, 3);
    }

    #[test]
    fn tcp_set_many_pipelines_on_one_connection() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        let items: Vec<(Bytes, Bytes)> = (0..50)
            .map(|i| {
                (
                    Bytes::from(format!("s{i}")),
                    Bytes::from(vec![i as u8; 100]),
                )
            })
            .collect();
        let results = client.set_many(&items).unwrap();
        assert_eq!(results.len(), 50);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(server.store().item_count(), 50);
    }

    #[test]
    fn one_client_connection_is_shared_across_threads() {
        let server = spawn_server();
        let client = Arc::new(TcpClient::connect(server.addr()).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let key = format!("t{t}k{i}");
                        client
                            .set(key.as_bytes(), Bytes::from(format!("v{i}")))
                            .unwrap();
                        assert_eq!(
                            client.get(key.as_bytes()).unwrap(),
                            Bytes::from(format!("v{i}"))
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.store().item_count(), 400);
        // Eight callers' batches queued behind each other on one socket.
        assert_eq!(server.server_stats().total_connections, 1);
    }

    #[test]
    fn two_clients_share_one_reactor_and_deregister_independently() {
        let server_a = spawn_server();
        let server_b = spawn_server();
        let reactor = crate::reactor::ReactorHandle::new().unwrap();
        let a =
            TcpClient::connect_shared(server_a.addr(), PoolConfig::default(), &reactor).unwrap();
        let b =
            TcpClient::connect_shared(server_b.addr(), PoolConfig::default(), &reactor).unwrap();
        // Same loop: both clients' snapshots carry the same reactor id,
        // and the census covers both registrations, one connection each.
        assert_eq!(a.reactor_stats().reactor_id, b.reactor_stats().reactor_id);
        assert_eq!(a.reactor_stats().registered_connections, 2);

        a.set(b"ka", Bytes::from_static(b"va")).unwrap();
        b.set(b"kb", Bytes::from_static(b"vb")).unwrap();
        assert_eq!(a.get(b"ka").unwrap(), Bytes::from_static(b"va"));
        assert_eq!(b.get(b"kb").unwrap(), Bytes::from_static(b"vb"));

        // Dropping one client releases only its own slots; the survivor
        // keeps working on the still-running shared loop.
        drop(a);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while b.reactor_stats().registered_connections != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "deregistration never drained: {:?}",
                b.reactor_stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(b.get(b"kb").unwrap(), Bytes::from_static(b"vb"));
    }

    #[test]
    fn parser_asks_for_more_at_every_split_point() {
        for resp in every_reply_kind() {
            let wire = crate::proto::encode_response(&resp);
            let mut buf = RxBuf::default();
            for (i, byte) in wire.iter().enumerate() {
                buf.feed(std::slice::from_ref(byte));
                let step = try_parse_response(&mut buf).unwrap();
                if i + 1 < wire.len() {
                    // The hint is a lower bound on what is still missing:
                    // the reactor may skip re-parsing until it arrived.
                    let ParseStep::More(need) = step else {
                        panic!("{resp:?} parsed from {} of {} bytes", i + 1, wire.len());
                    };
                    let hint = need.missing();
                    assert!(
                        (1..=wire.len() - buf.len()).contains(&hint),
                        "{resp:?}: hint {hint} with {} bytes missing",
                        wire.len() - buf.len()
                    );
                    assert_eq!(
                        buf.bytes(),
                        &wire[..=i],
                        "an incomplete frame is left in place"
                    );
                } else {
                    assert!(matches!(step, ParseStep::Done(ref got) if *got == resp));
                    assert_eq!(buf.len(), 0);
                }
            }
        }
    }

    /// Feed `wire` the way the reactor receives it, until a verdict.
    fn parse_fed(rx: &mut RxBuf, wire: &[u8]) -> KvResult<Response> {
        for piece in wire.chunks(4096) {
            rx.feed(piece);
            if let Some(resp) = next_response(rx)? {
                return Ok(resp);
            }
        }
        panic!("{} bytes fed and no verdict", wire.len());
    }

    #[test]
    fn a_reply_line_with_no_crlf_is_refused_at_the_line_bound() {
        // A server that never ends its line used to grow the receive
        // buffer without limit, rescanned whole on every read.
        let mut rx = RxBuf::default();
        let err = parse_fed(&mut rx, &vec![b'S'; 4 * MAX_LINE_LEN]).unwrap_err();
        assert!(matches!(err, KvError::Protocol(_)), "got {err:?}");
        assert!(
            rx.len() <= MAX_LINE_LEN + 4096,
            "{} bytes buffered",
            rx.len()
        );
        // So is an over-long line inside a multi-line reply; a long reply
        // of short lines is not.
        let mut wire = b"STAT pid 1\r\nSTAT ".to_vec();
        wire.resize(wire.len() + 2 * MAX_LINE_LEN, b'x');
        let err = parse_fed(&mut RxBuf::default(), &wire).unwrap_err();
        assert!(matches!(err, KvError::Protocol(_)), "got {err:?}");
        let keys = Response::KeyList(vec![vec![b'k'; 100]; 4 * MAX_LINE_LEN / 100]);
        let wire = crate::proto::encode_response(&keys);
        assert_eq!(parse_fed(&mut RxBuf::default(), &wire).unwrap(), keys);
    }

    #[test]
    fn a_value_announced_above_the_limit_is_refused_at_its_header() {
        use crate::proto::MAX_VALUE_LEN;
        // `usize::MAX` used to reach the reactor's `try_reserve_exact`.
        for announced in [MAX_VALUE_LEN + 1, usize::MAX / 2, usize::MAX] {
            let wire = format!("VALUE k 0 {announced}\r\nxxxx");
            let err = parse_fed(&mut RxBuf::default(), wire.as_bytes()).unwrap_err();
            assert!(matches!(err, KvError::Protocol(_)), "{announced}: {err:?}");
        }
        // The limit itself is a legal announcement.
        let mut rx = RxBuf::default();
        rx.feed(format!("VALUE k 0 {MAX_VALUE_LEN}\r\n").as_bytes());
        assert_eq!(next_response(&mut rx).unwrap(), None);
    }

    /// A data block followed by two bytes that are not its CRLF is refused
    /// as soon as those two bytes are in, not once the `END` the buffer
    /// makes room for could have arrived too: a stream that stops there
    /// fails at once instead of waiting out its deadline.
    #[test]
    fn a_bad_block_terminator_is_refused_as_soon_as_it_arrives() {
        let wire = b"VALUE k 0 3\r\nabcXY";
        let mut rx = RxBuf::default();
        for (i, byte) in wire.iter().enumerate() {
            rx.feed(std::slice::from_ref(byte));
            let step = next_response(&mut rx);
            if i + 1 < wire.len() {
                assert!(matches!(step, Ok(None)), "byte {i}: {step:?}");
            } else {
                assert!(matches!(step, Err(KvError::Protocol(_))), "{step:?}");
            }
        }
    }

    /// A seeded fuzz of the reply decoder, the twin of the request
    /// decoder's in `proto`: streams of every reply kind, cut at random
    /// reads, damaged, and plain noise.
    mod fuzz {
        use super::*;
        use crate::proto::tests::fuzz::{cuts, mutate, pick};
        use crate::proto::{encode_response, store_full, MAX_VALUE_LEN};
        use crate::testutil::{seed_from_env, Rng};

        /// `lo..hi` bytes of `alphabet`.
        fn some(rng: &mut Rng, alphabet: &[u8], lo: u64, hi: u64) -> Vec<u8> {
            let len = rng.gen_range(lo, hi);
            (0..len).map(|_| pick(rng, alphabet)).collect()
        }

        fn word(rng: &mut Rng) -> String {
            let bytes = some(rng, b"abcdefghijklmnopqrstuvwxyz0123456789:/#_.-", 1, 24);
            String::from_utf8(bytes).expect("ascii")
        }

        fn text(rng: &mut Rng) -> String {
            let bytes = some(rng, b"abc xyz 0123456789:.-", 0, 40);
            String::from_utf8(bytes).expect("ascii")
        }

        fn item(rng: &mut Rng) -> ValueItem {
            ValueItem {
                key: Bytes::from(word(rng)),
                // Any bytes, CR and LF included.
                value: Bytes::from(some(rng, b"\r\n \x00\xffVALUEND", 0, 65)),
                cas: [None, Some(rng.next_u64())][rng.gen_range(0, 2) as usize],
            }
        }

        /// A reply of any kind, parsed back as itself. One in twenty is a
        /// `SERVER_ERROR` whose line is within a few hundred bytes of
        /// [`MAX_LINE_LEN`], either side.
        fn reply(rng: &mut Rng) -> Response {
            match rng.gen_range(0, 20) {
                0 => Response::Stored,
                1 => Response::NotStored,
                2 => Response::NotFound,
                3 => Response::Deleted,
                4 => Response::Ok,
                5 => Response::End,
                6 => Response::Version(text(rng)),
                7 => Response::ServerError(text(rng)),
                8 => store_full(rng.next_u64(), rng.next_u64()),
                9 => Response::ClientError(text(rng)),
                10..=12 => {
                    let item = item(rng);
                    Response::Value {
                        key: item.key,
                        value: item.value,
                        cas: item.cas,
                    }
                }
                13..=15 => Response::Values((0..rng.gen_range(2, 6)).map(|_| item(rng)).collect()),
                16 => Response::Stats(
                    (0..rng.gen_range(1, 5))
                        .map(|_| (word(rng), text(rng)))
                        .collect(),
                ),
                17 | 18 => Response::KeyList(
                    (0..rng.gen_range(1, 6))
                        .map(|_| word(rng).into_bytes())
                        .collect(),
                ),
                _ => {
                    let len = MAX_LINE_LEN - 300 + rng.gen_range(0, 600) as usize;
                    Response::ServerError("x".repeat(len - "SERVER_ERROR ".len()))
                }
            }
        }

        /// While the decoder waits, what it holds is whole lines and one
        /// partial line no longer than [`MAX_LINE_LEN`] (its CR perhaps
        /// arrived), or a frame awaiting a data block announced at no more
        /// than [`MAX_VALUE_LEN`].
        fn assert_bounded(rx: &RxBuf) {
            let held = rx.bytes();
            let mut probe = RxBuf::default();
            probe.feed(held);
            match try_parse_response(&mut probe) {
                Ok(ParseStep::Done(resp)) => panic!("held a whole reply {resp:?}"),
                Ok(ParseStep::More(Need::Data { value, .. })) => {
                    assert!(value <= MAX_VALUE_LEN, "a {value}-byte block awaited")
                }
                // A partial line.
                _ => {
                    let lines = held.windows(2).rposition(|w| w == b"\r\n");
                    let tail = held.len() - lines.map_or(0, |at| at + 2);
                    assert!(tail <= MAX_LINE_LEN + 1, "a {tail}-byte line held");
                }
            }
        }

        /// What a client fed `wire` cut at `cuts` makes of it: every reply
        /// up to the first error, whether there was one, and the bytes it
        /// still holds otherwise.
        fn decode(wire: &[u8], cuts: &[usize]) -> (Vec<Response>, bool, usize) {
            let mut rx = RxBuf::default();
            let mut got = Vec::new();
            let mut from = 0;
            for &to in cuts.iter().chain([&wire.len()]) {
                rx.feed(&wire[from..to]);
                from = to;
                loop {
                    match next_response(&mut rx) {
                        Ok(Some(resp)) => got.push(resp),
                        Ok(None) => break,
                        Err(_) => return (got, true, 0),
                    }
                }
                assert_bounded(&rx);
            }
            (got, false, rx.len())
        }

        #[test]
        fn the_reply_decoder_survives_random_and_damaged_streams() {
            let seed = seed_from_env();
            println!("MEMFS_SHAPE_SEED={seed}");
            let mut rng = Rng::new(seed);
            for round in 0..400 {
                let mut wire = Vec::new();
                let mut valid = Vec::new();
                let mut line_too_long = false;
                for _ in 0..rng.gen_range(1, 24) {
                    let resp = reply(&mut rng);
                    let frame = encode_response(&resp);
                    line_too_long |= crate::proto::find_crlf(&frame).unwrap() > MAX_LINE_LEN;
                    if !line_too_long {
                        valid.push(resp);
                    }
                    wire.extend_from_slice(&frame);
                }
                // However a stream is cut, it decodes as it does whole; a
                // valid one to its replies, one with an over-long line to
                // those before it and an error.
                let whole = decode(&wire, &[]);
                assert_eq!(whole, (valid, line_too_long, 0), "round {round}");
                let c = cuts(&mut rng, wire.len());
                assert_eq!(decode(&wire, &c), whole, "round {round} cut at {c:?}");
                // Damaged, or plain noise: no panic, bounded, and cut-blind.
                let damaged = mutate(&mut rng, wire, b"\r\n 0123456789\xffVALUEND");
                let c = cuts(&mut rng, damaged.len());
                assert_eq!(decode(&damaged, &c), decode(&damaged, &[]), "round {round}");
                let noise: Vec<u8> = (0..rng.gen_range(0, 3 * MAX_LINE_LEN as u64))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                let c = cuts(&mut rng, noise.len());
                assert_eq!(decode(&noise, &c), decode(&noise, &[]), "round {round}");
            }
        }
    }

    #[test]
    fn replies_delivered_one_byte_at_a_time_complete() {
        // A reply can be cut anywhere — a partial `writev`, a segment
        // boundary — so the last byte of any frame may arrive alone.
        use std::io::{Read, Write};
        let replies = every_reply_kind();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let wires: Vec<Vec<u8>> = replies.iter().map(crate::proto::encode_response).collect();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            for wire in wires {
                let mut request = [0u8; 64];
                let n = stream.read(&mut request).unwrap();
                assert_eq!(&request[..n], b"version\r\n");
                for byte in wire {
                    stream.write_all(&[byte]).unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        let config = PoolConfig {
            timeout: Duration::from_secs(3),
        };
        let client = TcpClient::connect_with(addr, config).unwrap();
        for resp in replies {
            assert_eq!(client.call(&Request::Version).unwrap(), resp);
        }
        server.join().unwrap();
    }
}
