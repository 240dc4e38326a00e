//! # memfs-core
//!
//! **MemFS**: an in-memory runtime file system with symmetrical data
//! distribution — the primary contribution of the reproduced paper.
//!
//! MemFS stores the intermediate files of many-task computing (MTC)
//! applications in the aggregated DRAM of all compute nodes. Unlike
//! locality-based designs (AMFS, HyCache+, FusionFS), it deliberately
//! ignores locality: every file is cut into fixed-size stripes and the
//! stripes are spread over *all* storage servers by a distributed hash
//! function. On networks with full bisection bandwidth this converts every
//! read and write into many parallel streams, balances memory consumption
//! across nodes, and makes task placement irrelevant to I/O performance.
//!
//! ## Architecture (paper §3)
//!
//! * [`pool::ServerPool`] — the Libmemcached role: routes each key to a
//!   storage server via [`memfs_hashring`], and puts every server's batch
//!   of a call on the wire at once; the replica rules it applies live in
//!   `replica.rs`, its routing snapshots and quiescence gate in `ring.rs`;
//! * [`layout::StripeLayout`] — the striping mechanism (default 512 KiB
//!   stripes, the paper's measured optimum);
//! * [`bufwrite`] — the write-buffering protocol: an 8 MiB per-file buffer
//!   whose drains stay in flight while the writer fills the next batch;
//!   `close()`/`flush()` block until it is empty;
//! * [`prefetch`] — the sequential-read prefetcher filling an 8 MiB
//!   per-file read cache from windows that stay in flight until a read
//!   needs them;
//! * [`meta`] — file-size records and append-only directory logs over
//!   atomic KV `append`;
//! * [`fs::MemFs`] — the mount: create/open/read/write/close/mkdir/
//!   readdir/unlink with **write-once, read-many** semantics (§3.2.3).
//!
//! The paper runs buffering and prefetching on thread pools (§3.2.2).
//! Here a mount runs no I/O thread of its own: every request travels
//! through the transport's event loop (one per TCP mount, run by the
//! threads that call into it; none in process), and the application
//! thread that needs a drain or a window settles it. (The opt-in repair daemon is the one thread a mount may
//! add.)
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use memfs_core::{MemFs, MemFsConfig};
//! use memfs_memkv::{KvClient, SimClient, Store, StoreConfig};
//!
//! // Four in-process "storage nodes".
//! let servers: Vec<Arc<dyn KvClient>> = (0..4)
//!     .map(|_| {
//!         Arc::new(SimClient::new(Arc::new(Store::new(StoreConfig::default()))))
//!             as Arc<dyn KvClient>
//!     })
//!     .collect();
//! let fs = MemFs::new(servers, MemFsConfig::default()).unwrap();
//!
//! // Write once...
//! let mut w = fs.create("/results.dat").unwrap();
//! w.write_all(b"many-task computing output").unwrap();
//! w.close().unwrap();
//!
//! // ...read many.
//! let data = fs.read_to_vec("/results.dat").unwrap();
//! assert_eq!(data, b"many-task computing output");
//! ```

pub mod bufwrite;
pub mod config;
pub mod error;
pub mod fs;
pub mod layout;
pub mod meta;
pub mod path;
pub mod pool;
pub mod prefetch;
pub mod repair;
mod replica;
mod ring;

pub use config::{DistributorKind, MemFsConfig};
pub use error::{MemFsError, MemFsResult};
pub use fs::{DirEntry, EntryKind, FileStat, MemFs, ReadHandle, WriteHandle};
pub use pool::{PoolStats, ServerIoSnapshot, ServerPool};
pub use repair::{repair_pass, RepairDaemon, RepairReport};
