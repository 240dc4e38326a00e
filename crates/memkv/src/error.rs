//! Error type shared by the store engine, the wire protocol and the
//! network clients.

use std::fmt;
use std::io;

/// Errors returned by key-value operations.
#[derive(Debug)]
pub enum KvError {
    /// `get`/`append`/`delete` on a key that does not exist.
    NotFound,
    /// `add` on a key that already exists.
    Exists,
    /// Value would exceed the per-item size limit (memcached's classic
    /// item limit — the reason MemFS stripes files, paper §3.2.1).
    ValueTooLarge {
        /// Size the operation attempted to store.
        size: usize,
        /// The configured per-item limit.
        limit: usize,
    },
    /// Key exceeds the maximum key length (250 bytes, as in memcached).
    KeyTooLong(usize),
    /// Key contains bytes illegal in the text protocol (space/control).
    BadKey,
    /// The store's memory budget has no room for the write (the store
    /// never evicts to make some).
    OutOfMemory {
        /// Bytes the operation needed.
        needed: u64,
        /// The configured memory budget.
        budget: u64,
    },
    /// Malformed wire-protocol input.
    Protocol(String),
    /// Transport failure (TCP client/server paths only).
    Io(io::Error),
    /// The server did not answer within the transport's response deadline
    /// (evented TCP client only). Distinct from [`KvError::Io`]: the
    /// connection was up but silent — a stalled or wedged server — and the
    /// client severed it rather than park a caller forever.
    Timeout {
        /// The deadline that expired.
        after: std::time::Duration,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::NotFound => write!(f, "key not found"),
            KvError::Exists => write!(f, "key already exists"),
            KvError::ValueTooLarge { size, limit } => {
                write!(
                    f,
                    "value of {size} bytes exceeds item limit of {limit} bytes"
                )
            }
            KvError::KeyTooLong(n) => write!(f, "key of {n} bytes exceeds 250-byte limit"),
            KvError::BadKey => write!(f, "key contains space or control bytes"),
            KvError::OutOfMemory { needed, budget } => {
                write!(f, "store full: need {needed} bytes, budget {budget} bytes")
            }
            KvError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            KvError::Io(e) => write!(f, "I/O error: {e}"),
            KvError::Timeout { after } => write!(f, "request timed out after {after:?}"),
        }
    }
}

impl KvError {
    /// A fresh error equivalent to this one. `KvError` is not `Clone`
    /// (it owns an [`io::Error`]), but one transport failure routinely
    /// has to be reported for every key of a batch; this produces the
    /// per-key copies.
    pub fn duplicate(&self) -> KvError {
        match self {
            KvError::NotFound => KvError::NotFound,
            KvError::Exists => KvError::Exists,
            KvError::ValueTooLarge { size, limit } => KvError::ValueTooLarge {
                size: *size,
                limit: *limit,
            },
            KvError::KeyTooLong(n) => KvError::KeyTooLong(*n),
            KvError::BadKey => KvError::BadKey,
            KvError::OutOfMemory { needed, budget } => KvError::OutOfMemory {
                needed: *needed,
                budget: *budget,
            },
            KvError::Protocol(msg) => KvError::Protocol(msg.clone()),
            KvError::Io(e) => KvError::Io(io::Error::new(e.kind(), e.to_string())),
            KvError::Timeout { after } => KvError::Timeout { after: *after },
        }
    }

    /// Whether this error means the transport (not the data) failed — the
    /// errors worth retrying on another replica.
    pub fn is_transport(&self) -> bool {
        matches!(self, KvError::Io(_) | KvError::Timeout { .. })
    }
}

impl std::error::Error for KvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for KvError {
    fn from(e: io::Error) -> Self {
        KvError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type KvResult<T> = Result<T, KvError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(KvError::NotFound.to_string().contains("not found"));
        assert!(KvError::ValueTooLarge { size: 10, limit: 5 }
            .to_string()
            .contains("exceeds item limit"));
        assert!(KvError::OutOfMemory {
            needed: 1,
            budget: 0
        }
        .to_string()
        .contains("store full"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: KvError = io::Error::new(io::ErrorKind::BrokenPipe, "pipe").into();
        assert!(matches!(e, KvError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&KvError::NotFound).is_none());
    }
}
