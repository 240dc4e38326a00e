//! MemFS error type.

use std::fmt;

use memfs_memkv::KvError;

/// Errors returned by MemFS operations.
#[derive(Debug)]
pub enum MemFsError {
    /// Path does not exist.
    NotFound(String),
    /// Path already exists (create/mkdir on an existing name).
    AlreadyExists(String),
    /// Write-once violation: writing to a file that was already written
    /// and closed, or re-creating it (paper §3.2.3).
    WriteOnce(String),
    /// Non-sequential write: MemFS only supports sequential writes
    /// (paper §3.2.3).
    NonSequentialWrite {
        /// The path being written.
        path: String,
        /// Offset the caller asked for.
        requested: u64,
        /// The current end of the file.
        expected: u64,
    },
    /// Opening a file for reading before its writer closed it — the size
    /// record is still empty.
    NotFinalized(String),
    /// Operation on the wrong entry kind (readdir on a file, open on a
    /// directory, …).
    NotADirectory(String),
    /// Like above, the other way.
    IsADirectory(String),
    /// Directory is not empty (rmdir).
    DirectoryNotEmpty(String),
    /// Parent directory missing.
    ParentNotFound(String),
    /// Path contains bytes the key-value layer cannot carry (whitespace or
    /// control characters) or is not absolute.
    InvalidPath(String),
    /// The mount configuration is invalid: a [`crate::MemFsConfig`] that
    /// fails its own validation, an empty server list, or a replication
    /// factor above the server count.
    InvalidConfig(String),
    /// Handle already closed.
    Closed,
    /// The storage layer failed (out of memory, value limits, transport).
    Storage(KvError),
    /// Metadata record corrupt (should never happen; indicates a bug or a
    /// foreign writer in the key space).
    CorruptMetadata(String),
    /// A topology change the elastic machinery cannot perform — e.g.
    /// rebalancing onto a pool that omits source servers (a shrink would
    /// orphan the data they hold).
    UnsupportedTopology {
        /// Servers in the source pool.
        from: usize,
        /// Servers in the target pool.
        to: usize,
    },
    /// A membership change was requested while another transition is
    /// still migrating; finish (or wait out) the current one first.
    MembershipBusy,
    /// A membership change named a server slot that is not a member.
    UnknownServer {
        /// The slot id that was named.
        server: usize,
    },
}

impl fmt::Display for MemFsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFsError::NotFound(p) => write!(f, "{p}: no such file or directory"),
            MemFsError::AlreadyExists(p) => write!(f, "{p}: already exists"),
            MemFsError::WriteOnce(p) => {
                write!(f, "{p}: write-once violation (file already written)")
            }
            MemFsError::NonSequentialWrite {
                path,
                requested,
                expected,
            } => write!(
                f,
                "{path}: non-sequential write at {requested}, expected {expected}"
            ),
            MemFsError::NotFinalized(p) => {
                write!(f, "{p}: file still open for writing (size not finalized)")
            }
            MemFsError::NotADirectory(p) => write!(f, "{p}: not a directory"),
            MemFsError::IsADirectory(p) => write!(f, "{p}: is a directory"),
            MemFsError::DirectoryNotEmpty(p) => write!(f, "{p}: directory not empty"),
            MemFsError::ParentNotFound(p) => write!(f, "{p}: parent directory missing"),
            MemFsError::InvalidPath(p) => write!(f, "{p}: invalid path"),
            MemFsError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            MemFsError::Closed => write!(f, "handle already closed"),
            MemFsError::Storage(e) => write!(f, "storage error: {e}"),
            MemFsError::CorruptMetadata(msg) => write!(f, "corrupt metadata: {msg}"),
            MemFsError::UnsupportedTopology { from, to } => write!(
                f,
                "unsupported topology change: {from} -> {to} servers \
                 (below the replication factor, or a slot layout this \
                 distributor cannot express)"
            ),
            MemFsError::MembershipBusy => {
                write!(f, "a membership transition is already in progress")
            }
            MemFsError::UnknownServer { server } => {
                write!(f, "server {server} is not a member of the pool")
            }
        }
    }
}

impl std::error::Error for MemFsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MemFsError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KvError> for MemFsError {
    fn from(e: KvError) -> Self {
        MemFsError::Storage(e)
    }
}

/// Convenience alias.
pub type MemFsResult<T> = Result<T, MemFsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_path() {
        let e = MemFsError::NotFound("/a/b".into());
        assert!(e.to_string().contains("/a/b"));
        let e = MemFsError::NonSequentialWrite {
            path: "/f".into(),
            requested: 10,
            expected: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("10") && msg.contains('4'));
    }

    #[test]
    fn unsupported_topology_names_both_sizes() {
        let e = MemFsError::UnsupportedTopology { from: 8, to: 4 };
        let msg = e.to_string();
        assert!(msg.contains('8') && msg.contains('4'));
    }

    #[test]
    fn membership_errors_render() {
        assert!(MemFsError::MembershipBusy.to_string().contains("progress"));
        let e = MemFsError::UnknownServer { server: 5 };
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn storage_errors_wrap_and_chain() {
        let e: MemFsError = KvError::NotFound.into();
        assert!(matches!(e, MemFsError::Storage(KvError::NotFound)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
