//! The memcached **text protocol** — the wire format spoken by
//! [`crate::net::KvServer`] and [`crate::net::TcpClient`].
//!
//! Supported commands (the subset MemFS uses, plus diagnostics):
//!
//! ```text
//! set/add/append <key> <flags> <exptime> <bytes>\r\n<data>\r\n
//! get <key> [key ...]\r\n  getrange <key> <offset> <length>\r\n
//! delete <key>\r\n         keys\r\n            stats\r\n
//! version\r\n              quit\r\n
//! ```
//!
//! Multi-key `get` follows memcached semantics: the server answers with one
//! `VALUE <key> <flags> <bytes>\r\n<data>\r\n` block per *hit*, in request
//! order, then a single `END\r\n`. Misses are silently omitted — the client
//! matches replies to keys by the echoed key, so a batch with misses still
//! frames correctly. This is the transport primitive behind MemFS' batched
//! prefetching: one request fetches a whole prefetch window from a server.
//!
//! Divergence from memcached: `flags` is parsed and accepted but not stored
//! — MemFS always sends zero, and responses echo `flags = 0`. Items never
//! expire: a `set` / `add` with a non-zero `exptime` is answered with
//! `CLIENT_ERROR` and stores nothing (the connection stays open — the frame
//! parsed fine). `append` parses `exptime` and ignores it, as memcached
//! does. `cas`, `gets` and `flush_all` are not served.
//!
//! Two verbs are not memcached's. `keys` (enumeration, for the elastic
//! rebalancer) was the first; `getrange` follows its precedent. It reads a
//! piece of one value without moving the rest — a 64 KiB `read_at` inside
//! a 512 KiB stripe — and answers with an ordinary `VALUE <key> 0 <n>`
//! frame whose data is `value[min(off, |v|) .. min(off + len, |v|)]`
//! (clamped, possibly empty), or a bare `END` on a miss. Because the reply
//! is a `VALUE` frame the client needs no second reply parser; because the
//! verb takes one key per line, a batch is pipelined lines (like `delete`)
//! and replies pair with requests by position, so two ranges of one key
//! can share a batch.
//!
//! Integers off the wire are never trusted: every length goes through
//! [`parse_len`] (`usize::try_from`, no `as`), frame ends are
//! `checked_add`ed, and a storage command announcing more than
//! [`MAX_VALUE_LEN`] bytes is refused at its command line
//! ([`KvError::ValueTooLarge`]) instead of being buffered toward. What an
//! incomplete frame still lacks travels as a [`Need`] to the receive
//! buffer (`conn::RxBuf::hold`), which refuses over-long lines and
//! over-large announcements for requests and replies alike.

use std::fmt::Write as _;

use bytes::Bytes;

use crate::conn::RxBuf;
use crate::error::{KvError, KvResult};
use crate::stats::StatsSnapshot;

/// A parsed client request.
///
/// Keys are [`Bytes`] so a client batching thousands of stripe keys can
/// build request frames by reference-count bumps instead of deep copies —
/// the hot path of the fan-out dispatcher's per-server batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Set {
        key: Bytes,
        value: Bytes,
        /// memcached's relative TTL. Must be 0: the server refuses any
        /// other value with `CLIENT_ERROR`.
        exptime: u32,
    },
    Add {
        key: Bytes,
        value: Bytes,
        /// As for [`Request::Set`]: must be 0.
        exptime: u32,
    },
    Append {
        key: Bytes,
        value: Bytes,
    },
    /// One or more keys; replies carry one `VALUE` block per hit.
    Get {
        keys: Vec<Bytes>,
    },
    /// Non-standard extension: `len` bytes of `key`'s value starting at
    /// `offset`, both clamped to the value ([`slice_range`]). One key per
    /// line; replies are ordinary `VALUE` frames.
    GetRange {
        key: Bytes,
        offset: u64,
        len: usize,
    },
    Delete {
        key: Bytes,
    },
    Stats,
    Version,
    Quit,
    /// Non-standard extension: list all keys (`keys\r\n`). memcached has
    /// no portable enumeration command; MemFS' elastic rebalancer needs
    /// one, so our server adds it.
    Keys,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Stored,
    NotStored,
    NotFound,
    Deleted,
    Ok,
    /// `VALUE` + `END` for a single-key `get`. `cas` is memcached's
    /// optional fifth `VALUE` field; this server never sends one.
    Value {
        key: Bytes,
        value: Bytes,
        cas: Option<u64>,
    },
    /// Two or more `VALUE` blocks before the `END` — a multi-key `get`
    /// with several hits. (Zero hits is a bare [`Response::End`]; exactly
    /// one hit parses as [`Response::Value`] — the wire format cannot
    /// distinguish them, and callers that issued the batch reassemble
    /// per-key results by the echoed keys.)
    Values(Vec<ValueItem>),
    /// Bare `END` — `get` miss.
    End,
    Version(String),
    Stats(Vec<(String, String)>),
    /// Reply to [`Request::Keys`]: `KEY <key>` lines terminated by `END`.
    KeyList(Vec<Vec<u8>>),
    ServerError(String),
    ClientError(String),
}

/// One `VALUE` block of a (multi-)get reply. The key is [`Bytes`] so the
/// client's zero-copy frame parser can hand out slices of the receive
/// buffer for keys as well as values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueItem {
    pub key: Bytes,
    pub value: Bytes,
    /// Always `None` from this server; see [`Response::Value`].
    pub cas: Option<u64>,
}

/// Outcome of trying to parse one request from a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Parsed {
    /// A complete request consuming `n` bytes of the buffer.
    Done(Request, usize),
    /// The buffer does not yet hold a complete request.
    NeedMore(Need),
}

/// What an incomplete frame still lacks: the parsers' hint to the receive
/// buffer, which does not parse again before that much arrived and is
/// where [`MAX_LINE_LEN`] and [`MAX_VALUE_LEN`] bound what a peer can make
/// it hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    /// The CRLF of a line this many bytes long so far.
    Line(usize),
    /// `missing` more bytes of a frame whose data block was announced as
    /// `value` bytes. Never more than is really missing: the frame is not
    /// looked at again before they arrived, so `missing` ends at the
    /// block's terminator, where a bad one is refused. `reserve` (at least
    /// `missing`) is what the rest of the frame is known to take, a
    /// reply's closing `END` included: the buffer makes room for it in
    /// one exact reservation.
    Data {
        value: usize,
        missing: usize,
        reserve: usize,
    },
}

impl Need {
    /// A lower bound on the bytes still to arrive: a line without its
    /// CRLF may lack only the `\n`.
    pub fn missing(self) -> usize {
        match self {
            Need::Line(_) => 1,
            Need::Data { missing, .. } => missing,
        }
    }

    /// The bytes worth making room for at once: at least [`Need::missing`].
    pub fn reserve(self) -> usize {
        match self {
            Need::Line(_) => 1,
            Need::Data { reserve, .. } => reserve,
        }
    }
}

/// Longest accepted line (bytes before its CRLF), command or reply. Leaves
/// ample headroom for multi-key gets: a full prefetch window of stripe
/// keys is well under 2 KiB.
pub const MAX_LINE_LEN: usize = 16 * 1024;

/// Largest data block a frame may announce — the store's default per-item
/// limit (128 MiB, the paper's figure). A bigger `<bytes>` is refused at
/// its line: the data block is never buffered, so a peer cannot balloon
/// the receive buffer by promising one.
pub const MAX_VALUE_LEN: usize = 128 << 20;

pub(crate) fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// The length of the line at the front of `buf` (before its CRLF), or —
/// the line is incomplete — what it lacks. Only a line of at most
/// [`MAX_LINE_LEN`] bytes is ever complete: the search stops past that,
/// and a longer one comes back as a need the receive buffer refuses
/// (`conn::RxBuf::hold`), whether its CRLF has arrived or not. So a
/// stream frames the same however its reads were cut.
pub(crate) fn line_end(buf: &[u8]) -> Result<usize, Need> {
    let searched = &buf[..buf.len().min(MAX_LINE_LEN + 2)];
    find_crlf(searched).ok_or(Need::Line(buf.len()))
}

pub(crate) fn parse_u64(tok: &[u8]) -> KvResult<u64> {
    std::str::from_utf8(tok)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| KvError::Protocol(format!("bad integer {:?}", String::from_utf8_lossy(tok))))
}

/// A length or count off the wire, checked into `usize`.
pub(crate) fn parse_len(tok: &[u8]) -> KvResult<usize> {
    usize::try_from(parse_u64(tok)?).map_err(|_| {
        KvError::Protocol(format!(
            "length {:?} out of range",
            String::from_utf8_lossy(tok)
        ))
    })
}

/// The bytes a `getrange` answers with: `value[off..off + len]`, both ends
/// clamped to the value. A refcounted slice — nothing is copied.
pub(crate) fn slice_range(value: &Bytes, offset: u64, len: usize) -> Bytes {
    let start = usize::try_from(offset).map_or(value.len(), |o| o.min(value.len()));
    value.slice(start..start.saturating_add(len).min(value.len()))
}

/// Try to parse one request from the front of `buf`.
///
/// Returns [`Parsed::NeedMore`] with what is missing if the command line
/// or its data block is still incomplete; protocol violations yield
/// [`KvError::Protocol`], a data block announced above [`MAX_VALUE_LEN`]
/// yields [`KvError::ValueTooLarge`].
pub fn parse_request(buf: &[u8]) -> KvResult<Parsed> {
    let line_end = match line_end(buf) {
        Ok(end) => end,
        Err(need) => return Ok(Parsed::NeedMore(need)),
    };
    let line = &buf[..line_end];
    let after_line = line_end + 2;
    let toks: Vec<&[u8]> = line
        .split(|&b| b == b' ')
        .filter(|t| !t.is_empty())
        .collect();
    let verb = *toks
        .first()
        .ok_or_else(|| KvError::Protocol("empty command".into()))?;
    let args = &toks[1..];

    match verb {
        b"set" | b"add" | b"append" => {
            // `<key> <flags> <exptime> <bytes>` followed by a data block.
            let [key, flags, exptime, nbytes] = args else {
                return Err(KvError::Protocol(format!(
                    "storage command expects 4 arguments, got {}",
                    args.len()
                )));
            };
            let _flags = parse_u64(flags)?;
            let exptime = parse_u64(exptime)?.min(u32::MAX as u64) as u32;
            let nbytes = parse_len(nbytes)?;
            if nbytes > MAX_VALUE_LEN {
                return Err(KvError::ValueTooLarge {
                    size: nbytes,
                    limit: MAX_VALUE_LEN,
                });
            }
            let need = after_line
                .checked_add(nbytes)
                .and_then(|n| n.checked_add(2))
                .ok_or_else(|| KvError::Protocol("data block length overflows".into()))?;
            if buf.len() < need {
                let missing = need - buf.len();
                return Ok(Parsed::NeedMore(Need::Data {
                    value: nbytes,
                    missing,
                    reserve: missing,
                }));
            }
            if &buf[after_line + nbytes..need] != b"\r\n" {
                return Err(KvError::Protocol("data block not CRLF-terminated".into()));
            }
            let key = Bytes::copy_from_slice(key);
            // The one copy of a stored value: it must own only its bytes.
            let value = Bytes::copy_from_slice(&buf[after_line..after_line + nbytes]);
            let req = match verb {
                b"set" => Request::Set {
                    key,
                    value,
                    exptime,
                },
                b"add" => Request::Add {
                    key,
                    value,
                    exptime,
                },
                // memcached: append ignores flags/exptime.
                _ => Request::Append { key, value },
            };
            Ok(Parsed::Done(req, need))
        }
        b"get" => {
            if args.is_empty() {
                return Err(KvError::Protocol("get takes at least one key".into()));
            }
            let keys = args.iter().map(|k| Bytes::copy_from_slice(k)).collect();
            Ok(Parsed::Done(Request::Get { keys }, after_line))
        }
        b"getrange" => {
            let [key, offset, len] = args else {
                return Err(KvError::Protocol(
                    "getrange takes <key> <offset> <length>".into(),
                ));
            };
            Ok(Parsed::Done(
                Request::GetRange {
                    key: Bytes::copy_from_slice(key),
                    offset: parse_u64(offset)?,
                    len: parse_len(len)?,
                },
                after_line,
            ))
        }
        b"delete" => {
            if args.len() != 1 {
                return Err(KvError::Protocol("delete takes exactly one key".into()));
            }
            Ok(Parsed::Done(
                Request::Delete {
                    key: Bytes::copy_from_slice(args[0]),
                },
                after_line,
            ))
        }
        b"keys" => Ok(Parsed::Done(Request::Keys, after_line)),
        b"stats" => Ok(Parsed::Done(Request::Stats, after_line)),
        b"version" => Ok(Parsed::Done(Request::Version, after_line)),
        b"quit" => Ok(Parsed::Done(Request::Quit, after_line)),
        other => Err(KvError::Protocol(format!(
            "unknown command {:?}",
            String::from_utf8_lossy(other)
        ))),
    }
}

/// Parse the next complete request off a receive buffer, if it holds one.
/// An incomplete frame is left in place and the buffer told what it lacks.
///
/// Protocol errors poison the connection's framing (the cursor cannot
/// resynchronize), so callers should stop decoding after an `Err`.
pub(crate) fn next_request(rx: &mut RxBuf) -> KvResult<Option<Request>> {
    if !rx.ready() {
        return Ok(None);
    }
    match parse_request(rx.bytes())? {
        Parsed::Done(req, consumed) => {
            rx.consume(consumed);
            Ok(Some(req))
        }
        Parsed::NeedMore(need) => {
            rx.hold(need)?;
            Ok(None)
        }
    }
}

/// Incremental request decoder for callers that have bytes rather than a
/// socket: the server's receive buffer ([`RxBuf`]: a read cursor, lazy
/// compaction, no parse before an announced data block arrived) fed by
/// hand.
#[derive(Debug, Default)]
pub struct RequestDecoder {
    rx: RxBuf,
}

impl RequestDecoder {
    pub fn new() -> RequestDecoder {
        RequestDecoder::default()
    }

    /// Append freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.rx.feed(bytes);
    }

    /// Bytes received but not yet consumed by a parsed request.
    pub fn buffered(&self) -> usize {
        self.rx.len()
    }

    /// Parse the next complete request, if the buffer holds one; see
    /// [`next_request`].
    pub fn next_request(&mut self) -> KvResult<Option<Request>> {
        next_request(&mut self.rx)
    }

    /// Drop all buffered bytes and any capacity above the keep bound.
    pub fn reset(&mut self) {
        self.rx.reset();
    }
}

// ---------------------------------------------------------------------------
// Encoding. Every encoder *appends* to a caller-supplied buffer so that
// connections can reuse one scratch allocation across calls; the old
// `encode_*` entry points remain as allocating wrappers.
// ---------------------------------------------------------------------------

fn write_decimal(out: &mut Vec<u8>, n: u64) {
    let mut s = String::new();
    let _ = write!(s, "{n}");
    out.extend_from_slice(s.as_bytes());
}

/// Append a request's command *line* (including its CRLF) to `out`.
///
/// For storage verbs the data block is **not** appended; the payload is
/// returned instead so transports can transmit it with a vectored write
/// (header + value + CRLF) and skip copying stripe-sized values through
/// the scratch buffer. `None` means the line is the whole frame.
pub fn write_request_line<'r>(req: &'r Request, out: &mut Vec<u8>) -> Option<&'r Bytes> {
    fn storage<'r>(
        out: &mut Vec<u8>,
        verb: &str,
        key: &[u8],
        value: &'r Bytes,
        exptime: u32,
    ) -> Option<&'r Bytes> {
        out.extend_from_slice(verb.as_bytes());
        out.push(b' ');
        out.extend_from_slice(key);
        out.extend_from_slice(b" 0 ");
        write_decimal(out, exptime as u64);
        out.push(b' ');
        write_decimal(out, value.len() as u64);
        out.extend_from_slice(b"\r\n");
        Some(value)
    }
    match req {
        Request::Set {
            key,
            value,
            exptime,
        } => storage(out, "set", key, value, *exptime),
        Request::Add {
            key,
            value,
            exptime,
        } => storage(out, "add", key, value, *exptime),
        Request::Append { key, value } => storage(out, "append", key, value, 0),
        Request::Get { keys } => {
            out.extend_from_slice(b"get");
            for key in keys {
                out.push(b' ');
                out.extend_from_slice(key);
            }
            out.extend_from_slice(b"\r\n");
            None
        }
        Request::GetRange { key, offset, len } => {
            out.extend_from_slice(b"getrange ");
            out.extend_from_slice(key);
            out.push(b' ');
            write_decimal(out, *offset);
            out.push(b' ');
            write_decimal(out, *len as u64);
            out.extend_from_slice(b"\r\n");
            None
        }
        Request::Delete { key } => {
            out.extend_from_slice(b"delete ");
            out.extend_from_slice(key);
            out.extend_from_slice(b"\r\n");
            None
        }
        Request::Keys => {
            out.extend_from_slice(b"keys\r\n");
            None
        }
        Request::Stats => {
            out.extend_from_slice(b"stats\r\n");
            None
        }
        Request::Version => {
            out.extend_from_slice(b"version\r\n");
            None
        }
        Request::Quit => {
            out.extend_from_slice(b"quit\r\n");
            None
        }
    }
}

/// Append a full request frame (line plus any data block) to `out`.
pub fn write_request(req: &Request, out: &mut Vec<u8>) {
    if let Some(value) = write_request_line(req, out) {
        out.extend_from_slice(value);
        out.extend_from_slice(b"\r\n");
    }
}

/// Encode a request into a fresh buffer (client side).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_request(req, &mut out);
    out
}

/// Append a `VALUE <key> 0 <bytes> [cas]\r\n` header to `out`. The caller
/// follows it with the value bytes, a CRLF, and eventually `END\r\n`.
pub fn write_value_header(out: &mut Vec<u8>, key: &[u8], len: usize, cas: Option<u64>) {
    out.extend_from_slice(b"VALUE ");
    out.extend_from_slice(key);
    out.extend_from_slice(b" 0 ");
    write_decimal(out, len as u64);
    if let Some(t) = cas {
        out.push(b' ');
        write_decimal(out, t);
    }
    out.extend_from_slice(b"\r\n");
}

/// Append a full response frame to `out`.
pub fn write_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Stored => out.extend_from_slice(b"STORED\r\n"),
        Response::NotStored => out.extend_from_slice(b"NOT_STORED\r\n"),
        Response::NotFound => out.extend_from_slice(b"NOT_FOUND\r\n"),
        Response::Deleted => out.extend_from_slice(b"DELETED\r\n"),
        Response::Ok => out.extend_from_slice(b"OK\r\n"),
        Response::End => out.extend_from_slice(b"END\r\n"),
        Response::Value { key, value, cas } => {
            write_value_header(out, key, value.len(), *cas);
            out.extend_from_slice(value);
            out.extend_from_slice(b"\r\nEND\r\n");
        }
        Response::Values(items) => {
            for item in items {
                write_value_header(out, &item.key, item.value.len(), item.cas);
                out.extend_from_slice(&item.value);
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"END\r\n");
        }
        Response::Version(v) => {
            out.extend_from_slice(b"VERSION ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        Response::Stats(pairs) => {
            for (k, v) in pairs {
                out.extend_from_slice(b"STAT ");
                out.extend_from_slice(k.as_bytes());
                out.push(b' ');
                out.extend_from_slice(v.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"END\r\n");
        }
        Response::KeyList(keys) => {
            for k in keys {
                out.extend_from_slice(b"KEY ");
                out.extend_from_slice(k);
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"END\r\n");
        }
        Response::ServerError(msg) => {
            out.extend_from_slice(b"SERVER_ERROR ");
            out.extend_from_slice(msg.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        Response::ClientError(msg) => {
            out.extend_from_slice(b"CLIENT_ERROR ");
            out.extend_from_slice(msg.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
    }
}

/// Encode a response into a fresh buffer (server side).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    write_response(resp, &mut out);
    out
}

/// The three pieces of the `SERVER_ERROR` text a full store answers a
/// write with, around its two numbers.
const STORE_FULL: [&str; 3] = ["store full: need ", " bytes, budget ", " bytes"];

/// The reply to a write a full store refused ([`KvError::OutOfMemory`]):
/// `SERVER_ERROR store full: need N bytes, budget B bytes`.
pub(crate) fn store_full(needed: u64, budget: u64) -> Response {
    let [head, mid, tail] = STORE_FULL;
    Response::ServerError(format!("{head}{needed}{mid}{budget}{tail}"))
}

/// The refusal a [`store_full`] message carries, so a full store reads
/// the same over TCP as in process; `None` for any other message.
pub(crate) fn parse_store_full(msg: &str) -> Option<KvError> {
    let [head, mid, tail] = STORE_FULL;
    let (needed, budget) = msg
        .strip_prefix(head)?
        .strip_suffix(tail)?
        .split_once(mid)?;
    Some(KvError::OutOfMemory {
        needed: needed.parse().ok()?,
        budget: budget.parse().ok()?,
    })
}

/// Render a stats snapshot as memcached-style `STAT` pairs.
pub fn stats_pairs(snap: &StatsSnapshot) -> Vec<(String, String)> {
    vec![
        ("cmd_get".into(), snap.get_ops.to_string()),
        ("get_hits".into(), snap.get_hits.to_string()),
        (
            "get_misses".into(),
            (snap.get_ops - snap.get_hits).to_string(),
        ),
        ("cmd_mget".into(), snap.mget_ops.to_string()),
        ("cmd_getrange".into(), snap.getrange_ops.to_string()),
        ("getrange_bytes".into(), snap.getrange_bytes.to_string()),
        ("cmd_set".into(), snap.set_ops.to_string()),
        ("cmd_add".into(), snap.add_ops.to_string()),
        ("cmd_append".into(), snap.append_ops.to_string()),
        ("cmd_delete".into(), snap.delete_ops.to_string()),
        ("bytes".into(), snap.bytes_used.to_string()),
        ("curr_items".into(), snap.item_count.to_string()),
        ("bytes_written".into(), snap.bytes_written.to_string()),
        ("bytes_read".into(), snap.bytes_read.to_string()),
    ]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn done(buf: &[u8]) -> (Request, usize) {
        match parse_request(buf).unwrap() {
            Parsed::Done(r, n) => (r, n),
            Parsed::NeedMore(need) => panic!("unexpected NeedMore({need:?})"),
        }
    }

    #[test]
    fn parse_set_round_trips_through_encode() {
        let req = Request::Set {
            key: Bytes::from_static(b"file#0"),
            value: Bytes::from_static(b"hello world"),
            exptime: 0,
        };
        let wire = encode_request(&req);
        let (parsed, n) = done(&wire);
        assert_eq!(parsed, req);
        assert_eq!(n, wire.len());
    }

    /// One request of every kind the protocol has (and a few shapes of
    /// the busier ones).
    pub(crate) fn every_request_kind() -> Vec<Request> {
        vec![
            Request::Add {
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b"v"),
                exptime: 0,
            },
            Request::Append {
                key: Bytes::from_static(b"dir"),
                value: Bytes::from_static(b"+x"),
            },
            Request::Set {
                key: Bytes::from_static(b"fleeting"),
                value: Bytes::from_static(b"v"),
                exptime: 30,
            },
            Request::Add {
                key: Bytes::from_static(b"fleeting"),
                value: Bytes::from_static(b"v"),
                exptime: 86_400,
            },
            Request::Get {
                keys: vec![Bytes::from_static(b"k")],
            },
            Request::Get {
                keys: vec![
                    Bytes::from_static(b"k1"),
                    Bytes::from_static(b"k2"),
                    Bytes::from_static(b"k3"),
                ],
            },
            Request::GetRange {
                key: Bytes::from_static(b"s:/f#3"),
                offset: 65_536,
                len: 4096,
            },
            Request::GetRange {
                key: Bytes::from_static(b"k"),
                offset: u64::MAX,
                len: usize::MAX,
            },
            Request::Delete {
                key: Bytes::from_static(b"k"),
            },
            Request::Keys,
            Request::Stats,
            Request::Version,
            Request::Quit,
        ]
    }

    /// One reply of every kind the parser knows, as sent on the wire.
    pub(crate) fn every_reply_kind() -> Vec<Response> {
        let item = |key: &'static [u8], value: &'static [u8], cas| ValueItem {
            key: Bytes::from_static(key),
            value: Bytes::from_static(value),
            cas,
        };
        vec![
            Response::Stored,
            Response::NotStored,
            Response::NotFound,
            Response::Deleted,
            Response::Ok,
            Response::End,
            Response::Version("1.2.3".into()),
            Response::ServerError("out of memory".into()),
            store_full(1067, 300),
            Response::ClientError("bad data chunk".into()),
            Response::Value {
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b"a\r\nb"),
                cas: None,
            },
            Response::Value {
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b""),
                cas: Some(7),
            },
            Response::Values(vec![item(b"k1", b"abc", None), item(b"k2", b"\r", None)]),
            Response::Stats(vec![
                ("pid".into(), "1".into()),
                ("uptime".into(), "2".into()),
            ]),
            Response::KeyList(vec![b"a".to_vec(), b"bb".to_vec()]),
        ]
    }

    #[test]
    fn a_full_store_reply_parses_back_to_its_refusal() {
        let Response::ServerError(msg) = store_full(1067, 300) else {
            panic!("a full store answers SERVER_ERROR");
        };
        let refusal = KvError::OutOfMemory {
            needed: 1067,
            budget: 300,
        };
        assert_eq!(msg, refusal.to_string(), "the text operators already see");
        let parsed = parse_store_full(&msg);
        assert!(matches!(
            parsed,
            Some(KvError::OutOfMemory {
                needed: 1067,
                budget: 300
            })
        ));
        for other in [
            "out of memory",
            "store full: need x bytes, budget 1 bytes",
            "store full: need 1 bytes, budget 2 bytes!",
        ] {
            assert!(parse_store_full(other).is_none(), "{other}");
        }
    }

    #[test]
    fn parse_all_verbs_round_trip() {
        for req in every_request_kind() {
            let wire = encode_request(&req);
            let (parsed, n) = done(&wire);
            assert_eq!(parsed, req);
            assert_eq!(n, wire.len());
        }
    }

    #[test]
    fn exptime_rides_the_wire() {
        // The exptime field still parses (so the server can refuse a
        // non-zero one with CLIENT_ERROR instead of losing the framing).
        let req = Request::Set {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"hello"),
            exptime: 300,
        };
        let wire = encode_request(&req);
        assert_eq!(wire, b"set k 0 300 5\r\nhello\r\n".to_vec());
        let (parsed, n) = done(&wire);
        assert_eq!(parsed, req);
        assert_eq!(n, wire.len());
        // Append discards its exptime like memcached does.
        let (parsed, _) = done(b"append k 0 60 2\r\nvv\r\n");
        assert_eq!(
            parsed,
            Request::Append {
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b"vv"),
            }
        );
    }

    #[test]
    fn incomplete_command_needs_more() {
        let need = |buf: &[u8]| match parse_request(buf).unwrap() {
            Parsed::NeedMore(need) => need,
            Parsed::Done(req, _) => panic!("{req:?} parsed from a partial frame"),
        };
        assert_eq!(need(b"set k 0 0 5"), Need::Line(11));
        let data = |missing| Need::Data {
            value: 5,
            missing,
            reserve: missing,
        };
        assert_eq!(need(b"set k 0 0 5\r\nhel"), data(4));
        // Data present but missing trailing CRLF.
        assert_eq!(need(b"set k 0 0 5\r\nhello"), data(2));
        assert_eq!(need(b"set k 0 0 5\r\nhello\r"), data(1));
    }

    /// The request side's twin of the reply decoder's terminator check: a
    /// data block followed by two bytes that are not its CRLF is refused
    /// as soon as those two bytes are in.
    #[test]
    fn a_bad_block_terminator_is_refused_as_soon_as_it_arrives() {
        let wire = b"set k 0 0 3\r\nabcXY";
        let mut dec = RequestDecoder::new();
        for (i, byte) in wire.iter().enumerate() {
            dec.feed(std::slice::from_ref(byte));
            let step = dec.next_request();
            if i + 1 < wire.len() {
                assert!(matches!(step, Ok(None)), "byte {i}: {step:?}");
            } else {
                assert!(matches!(step, Err(KvError::Protocol(_))), "{step:?}");
            }
        }
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let mut wire = encode_request(&Request::Set {
            key: Bytes::from_static(b"a"),
            value: Bytes::from_static(b"1"),
            exptime: 0,
        });
        wire.extend(encode_request(&Request::Get {
            keys: vec![Bytes::from_static(b"a")],
        }));
        let (r1, n1) = done(&wire);
        assert!(matches!(r1, Request::Set { .. }));
        let (r2, _) = done(&wire[n1..]);
        assert_eq!(
            r2,
            Request::Get {
                keys: vec![Bytes::from_static(b"a")]
            }
        );
    }

    #[test]
    fn binary_safe_values() {
        // Values may contain CRLF; the byte count disambiguates.
        let req = Request::Set {
            key: Bytes::from_static(b"bin"),
            value: Bytes::from_static(b"a\r\nb\0c"),
            exptime: 0,
        };
        let wire = encode_request(&req);
        let (parsed, n) = done(&wire);
        assert_eq!(parsed, req);
        assert_eq!(n, wire.len());
    }

    #[test]
    fn protocol_errors() {
        assert!(parse_request(b"bogus cmd\r\n").is_err());
        assert!(parse_request(b"set k x 0 5\r\nhello\r\n").is_err());
        assert!(parse_request(b"set k 0 0 5 junk extra\r\nhello\r\n").is_err());
        assert!(parse_request(b"get\r\n").is_err());
        // Verbs this server does not serve are unknown commands.
        for verb in [
            &b"gets k\r\n"[..],
            b"flush_all\r\n",
            b"cas k 0 0 1 9\r\nv\r\n",
        ] {
            assert!(matches!(parse_request(verb), Err(KvError::Protocol(_))));
        }
        // Data block with wrong terminator.
        assert!(parse_request(b"set k 0 0 5\r\nhelloXX").is_err());
    }

    #[test]
    fn getrange_wire_form_and_malformed_lines() {
        let req = Request::GetRange {
            key: Bytes::from_static(b"k"),
            offset: 10,
            len: 20,
        };
        assert_eq!(encode_request(&req), b"getrange k 10 20\r\n".to_vec());
        for bad in [
            &b"getrange\r\n"[..],
            b"getrange k\r\n",
            b"getrange k 1\r\n",
            b"getrange k 1 2 3\r\n",
            b"getrange k x 2\r\n",
            b"getrange k 1 y\r\n",
            b"getrange k -1 2\r\n",
            b"getrange k 1 18446744073709551616\r\n",
        ] {
            assert!(
                matches!(parse_request(bad), Err(KvError::Protocol(_))),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn slice_range_clamps_both_ends() {
        let v = Bytes::from_static(b"0123456789");
        assert_eq!(slice_range(&v, 2, 3).as_ref(), b"234");
        assert_eq!(slice_range(&v, 7, 3).as_ref(), b"789");
        assert_eq!(slice_range(&v, 8, 5).as_ref(), b"89");
        assert_eq!(slice_range(&v, 10, 5).as_ref(), b"");
        assert_eq!(slice_range(&v, 11, 5).as_ref(), b"");
        assert_eq!(slice_range(&v, 4, 0).as_ref(), b"");
        assert_eq!(slice_range(&v, u64::MAX, usize::MAX).as_ref(), b"");
        assert_eq!(slice_range(&v, 1, usize::MAX).as_ref(), b"123456789");
    }

    /// Storage command lines whose `<bytes>` must be refused outright: the
    /// first used to overflow `after_line + nbytes + 2` (a panic in debug
    /// builds, a wrap in release), the others to answer `NeedMore` until
    /// the peer had ballooned the decoder by that much.
    const HOSTILE_SETS: [&[u8]; 3] = [
        b"set k 0 0 18446744073709551615\r\n",
        b"set k 0 0 9999999999999\r\n",
        b"append k 0 0 134217729\r\n",
    ];

    #[test]
    fn oversized_data_blocks_are_refused_at_the_command_line() {
        for line in HOSTILE_SETS {
            let name = String::from_utf8_lossy(line);
            assert!(
                matches!(
                    parse_request(line),
                    Err(KvError::ValueTooLarge {
                        limit: MAX_VALUE_LEN,
                        ..
                    })
                ),
                "{name}"
            );
            // One byte at a time: nothing to say until the line is whole,
            // then the refusal — never a wait for the data block.
            let mut dec = RequestDecoder::new();
            for (i, byte) in line.iter().enumerate() {
                dec.feed(std::slice::from_ref(byte));
                let step = dec.next_request();
                if i + 1 < line.len() {
                    assert!(matches!(step, Ok(None)), "{name} after {} bytes", i + 1);
                } else {
                    assert!(matches!(step, Err(KvError::ValueTooLarge { .. })), "{name}");
                }
            }
        }
        // The limit itself is still a legal announcement, and a count
        // past u64 is a plain protocol error.
        assert_eq!(
            parse_request(b"set k 0 0 134217728\r\n").unwrap(),
            Parsed::NeedMore(Need::Data {
                value: MAX_VALUE_LEN,
                missing: MAX_VALUE_LEN + 2,
                reserve: MAX_VALUE_LEN + 2,
            })
        );
        assert!(matches!(
            parse_request(b"set k 0 0 99999999999999999999\r\n"),
            Err(KvError::Protocol(_))
        ));
    }

    #[test]
    fn oversized_garbage_line_rejected() {
        // The line bound is the receive buffer's, shared with the reply
        // parser: the limit itself may still grow a CRLF, a byte more
        // may not.
        let mut dec = RequestDecoder::new();
        dec.feed(&vec![b'x'; MAX_LINE_LEN]);
        assert!(matches!(dec.next_request(), Ok(None)));
        dec.feed(b"x");
        assert!(matches!(dec.next_request(), Err(KvError::Protocol(_))));
    }

    #[test]
    fn multi_key_get_parses_and_encodes() {
        let (req, n) = done(b"get s:/f#0 s:/f#1 s:/f#2\r\n");
        assert_eq!(
            req,
            Request::Get {
                keys: vec![
                    Bytes::from_static(b"s:/f#0"),
                    Bytes::from_static(b"s:/f#1"),
                    Bytes::from_static(b"s:/f#2")
                ],
            }
        );
        assert_eq!(n, 26);
        assert_eq!(
            encode_request(&req),
            b"get s:/f#0 s:/f#1 s:/f#2\r\n".to_vec()
        );
    }

    #[test]
    fn values_response_encodes_value_blocks_then_end() {
        let resp = Response::Values(vec![
            ValueItem {
                key: Bytes::from_static(b"a"),
                value: Bytes::from_static(b"xx"),
                cas: None,
            },
            ValueItem {
                key: Bytes::from_static(b"b"),
                value: Bytes::from_static(b"yyy"),
                cas: Some(9),
            },
        ]);
        assert_eq!(
            encode_response(&resp),
            b"VALUE a 0 2\r\nxx\r\nVALUE b 0 3 9\r\nyyy\r\nEND\r\n".to_vec()
        );
        // Zero hits collapse onto the same wire bytes as a plain miss.
        assert_eq!(
            encode_response(&Response::Values(vec![])),
            b"END\r\n".to_vec()
        );
    }

    #[test]
    fn write_request_reuses_caller_buffer() {
        let mut scratch = Vec::with_capacity(64);
        scratch.extend_from_slice(b"junk-from-last-call");
        scratch.clear();
        let req = Request::Set {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"hello"),
            exptime: 0,
        };
        let payload = write_request_line(&req, &mut scratch);
        assert_eq!(scratch, b"set k 0 0 5\r\n".to_vec());
        assert_eq!(payload.map(|b| &b[..]), Some(&b"hello"[..]));
        assert_eq!(encode_request(&req), b"set k 0 0 5\r\nhello\r\n".to_vec());
    }

    #[test]
    fn encode_value_response_includes_cas_for_gets() {
        let with = encode_response(&Response::Value {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"vv"),
            cas: Some(7),
        });
        assert_eq!(with, b"VALUE k 0 2 7\r\nvv\r\nEND\r\n".to_vec());
        let without = encode_response(&Response::Value {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"vv"),
            cas: None,
        });
        assert_eq!(without, b"VALUE k 0 2\r\nvv\r\nEND\r\n".to_vec());
    }

    #[test]
    fn stats_pairs_render() {
        let snap = StatsSnapshot {
            get_ops: 10,
            get_hits: 8,
            ..Default::default()
        };
        let pairs = stats_pairs(&snap);
        assert!(pairs.contains(&("cmd_get".to_string(), "10".to_string())));
        assert!(pairs.contains(&("get_misses".to_string(), "2".to_string())));
    }

    #[test]
    fn decoder_streams_requests_across_arbitrary_chunk_boundaries() {
        // Build a pipelined burst and replay it into the decoder at every
        // awkward granularity; the decoded sequence must be identical.
        let reqs: Vec<Request> = (0..50)
            .map(|i| match i % 4 {
                0 => Request::Set {
                    key: Bytes::from(format!("k{i}").into_bytes()),
                    value: Bytes::from(vec![b'v'; i % 7 + 1]),
                    exptime: (i % 5) as u32,
                },
                1 => Request::Get {
                    keys: vec![Bytes::from(format!("k{i}").into_bytes())],
                },
                2 => Request::GetRange {
                    key: Bytes::from(format!("k{i}").into_bytes()),
                    offset: i as u64 * 1000,
                    len: i,
                },
                _ => Request::Version,
            })
            .collect();
        let mut wire = Vec::new();
        for r in &reqs {
            write_request(r, &mut wire);
        }
        for chunk in [1usize, 3, 7, wire.len()] {
            let mut dec = RequestDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.feed(piece);
                while let Some(req) = dec.next_request().unwrap() {
                    got.push(req);
                }
            }
            assert_eq!(got, reqs, "chunk size {chunk}");
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn a_line_is_held_to_the_limit_however_it_is_cut() {
        // `delete <key>` padded with spaces to `len` bytes before its CRLF.
        let line = |len: usize| {
            let mut wire = b"delete k".to_vec();
            wire.resize(len, b' ');
            wire.extend_from_slice(b"\r\n");
            wire
        };
        for (len, ok) in [(MAX_LINE_LEN, true), (MAX_LINE_LEN + 1, false)] {
            let wire = line(len);
            // Whole, cut after the CR, cut before it.
            for cut in [wire.len(), len + 1, len] {
                let mut dec = RequestDecoder::new();
                dec.feed(&wire[..cut]);
                let first = dec.next_request();
                dec.feed(&wire[cut..]);
                let got = first.and_then(|r| r.map_or_else(|| dec.next_request(), |r| Ok(Some(r))));
                assert_eq!(got.is_ok(), ok, "{len}-byte line cut at {cut}: {got:?}");
            }
        }
    }

    pub(crate) mod fuzz {
        use super::*;
        use crate::testutil::{seed_from_env, Rng};

        pub(crate) fn pick(rng: &mut Rng, from: &[u8]) -> u8 {
            from[rng.gen_range(0, from.len() as u64) as usize]
        }

        fn key(rng: &mut Rng, max: u64) -> Bytes {
            let len = rng.gen_range(1, max + 1);
            let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789:/#_.-";
            Bytes::from((0..len).map(|_| pick(rng, alphabet)).collect::<Vec<u8>>())
        }

        /// Any bytes, CR and LF included.
        fn value(rng: &mut Rng) -> Bytes {
            let len = rng.gen_range(0, 65);
            let bytes = b"\r\n \x00\xffvVALUEset";
            Bytes::from((0..len).map(|_| pick(rng, bytes)).collect::<Vec<u8>>())
        }

        /// A request of any kind. One in twenty is a `get` whose line is
        /// within a few hundred bytes of [`MAX_LINE_LEN`], either side.
        fn request(rng: &mut Rng) -> Request {
            let exptime = rng.gen_range(0, 3) as u32;
            match rng.gen_range(0, 20) {
                0..=2 => Request::Set {
                    key: key(rng, 40),
                    value: value(rng),
                    exptime,
                },
                3 => Request::Add {
                    key: key(rng, 40),
                    value: value(rng),
                    exptime,
                },
                4 => Request::Append {
                    key: key(rng, 40),
                    value: value(rng),
                },
                5..=7 => Request::Get {
                    keys: (0..rng.gen_range(1, 6)).map(|_| key(rng, 40)).collect(),
                },
                8..=10 => Request::GetRange {
                    key: key(rng, 40),
                    offset: [0, rng.gen_range(0, 1 << 20), rng.next_u64()]
                        [rng.gen_range(0, 3) as usize],
                    len: rng.gen_range(0, 1 << 20) as usize,
                },
                11..=13 => Request::Delete { key: key(rng, 40) },
                14 => Request::Stats,
                15 => Request::Version,
                16 => Request::Keys,
                17 => Request::Quit,
                _ => {
                    let target = MAX_LINE_LEN - 300 + rng.gen_range(0, 600) as usize;
                    let mut keys = Vec::new();
                    let mut line = "get".len();
                    while line < target {
                        let k = key(rng, (target - line).clamp(1, 200) as u64);
                        line += 1 + k.len();
                        keys.push(k);
                    }
                    Request::Get { keys }
                }
            }
        }

        /// Damage `wire` a few times: flip, insert, delete or repeat bytes,
        /// the bytes put in drawn from `interesting`.
        pub(crate) fn mutate(rng: &mut Rng, mut wire: Vec<u8>, interesting: &[u8]) -> Vec<u8> {
            for _ in 0..rng.gen_range(1, 4) {
                let at = rng.gen_range(0, wire.len() as u64 + 1) as usize;
                match rng.gen_range(0, 4) {
                    0 if at < wire.len() => wire[at] = pick(rng, interesting),
                    1 => wire.insert(at, pick(rng, interesting)),
                    2 if at < wire.len() => {
                        wire.remove(at);
                    }
                    _ => {
                        let end = (at + rng.gen_range(1, 32) as usize).min(wire.len());
                        let piece = wire[at..end].to_vec();
                        wire.splice(at..at, piece);
                    }
                }
            }
            wire
        }

        /// While a decoder waits, what it holds is one incomplete frame: a
        /// line no longer than [`MAX_LINE_LEN`] (its CR perhaps arrived),
        /// or a complete storage line and part of a data block no larger
        /// than [`MAX_VALUE_LEN`].
        fn assert_bounded(dec: &RequestDecoder) {
            let held = dec.rx.bytes();
            let Some(end) = find_crlf(held) else {
                assert!(
                    held.len() <= MAX_LINE_LEN + 1,
                    "{} line bytes held",
                    held.len()
                );
                return;
            };
            assert!(end <= MAX_LINE_LEN, "a {end}-byte line held");
            match parse_request(held) {
                Ok(Parsed::NeedMore(Need::Data { value, missing, .. })) => {
                    assert!(value <= MAX_VALUE_LEN);
                    assert_eq!(held.len() + missing, end + 2 + value + 2);
                }
                other => panic!("held {} bytes that parse as {other:?}", held.len()),
            }
        }

        /// What a decoder fed `wire` cut at `cuts` makes of it: every
        /// request up to the first error, whether there was one, and the
        /// bytes it still holds otherwise.
        fn decode(wire: &[u8], cuts: &[usize]) -> (Vec<Request>, bool, usize) {
            let mut dec = RequestDecoder::new();
            let mut got = Vec::new();
            let mut from = 0;
            for &to in cuts.iter().chain([&wire.len()]) {
                dec.feed(&wire[from..to]);
                from = to;
                loop {
                    match dec.next_request() {
                        Ok(Some(req)) => got.push(req),
                        Ok(None) => break,
                        Err(_) => return (got, true, 0),
                    }
                }
                assert_bounded(&dec);
            }
            (got, false, dec.buffered())
        }

        /// Up to a dozen random read boundaries in a `len`-byte stream.
        pub(crate) fn cuts(rng: &mut Rng, len: usize) -> Vec<usize> {
            let mut cuts: Vec<usize> = (0..rng.gen_range(0, 12))
                .map(|_| rng.gen_range(0, len as u64 + 1) as usize)
                .collect();
            cuts.sort_unstable();
            cuts
        }

        #[test]
        fn the_request_decoder_survives_random_and_damaged_streams() {
            let seed = seed_from_env();
            println!("MEMFS_SHAPE_SEED={seed}");
            let mut rng = Rng::new(seed);
            for round in 0..400 {
                let reqs: Vec<Request> = (0..rng.gen_range(1, 24))
                    .map(|_| request(&mut rng))
                    .collect();
                let mut wire = Vec::new();
                let mut valid = Vec::new();
                let mut line_too_long = false;
                for req in &reqs {
                    let start = wire.len();
                    write_request(req, &mut wire);
                    line_too_long |= find_crlf(&wire[start..]).unwrap() > MAX_LINE_LEN;
                    if !line_too_long {
                        valid.push(req.clone());
                    }
                }
                // However a stream is cut, it decodes as it does whole; a
                // valid one to its requests, one with an over-long line to
                // those before it and an error.
                let whole = decode(&wire, &[]);
                assert_eq!(whole, (valid, line_too_long, 0), "round {round}");
                let c = cuts(&mut rng, wire.len());
                assert_eq!(decode(&wire, &c), whole, "round {round} cut at {c:?}");
                // Damaged, or plain noise: no panic, bounded, cut-blind.
                let damaged = mutate(&mut rng, wire, b"\r\n 0123456789\xffsetgetrange");
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
    fn decoder_surfaces_protocol_errors_and_resets_clean() {
        let mut dec = RequestDecoder::new();
        dec.feed(b"get k\r\nbogus verb\r\n");
        assert!(matches!(dec.next_request(), Ok(Some(Request::Get { .. }))));
        assert!(dec.next_request().is_err());
        dec.reset();
        assert_eq!(dec.buffered(), 0);
        dec.feed(b"version\r\n");
        assert!(matches!(dec.next_request(), Ok(Some(Request::Version))));
    }
}
