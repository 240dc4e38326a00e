//! # MemFS — facade crate
//!
//! Re-exports the full MemFS reproduction workspace behind one dependency:
//! the MemFS file system itself ([`memfs_core`]), the memcached-style
//! storage engine ([`memkv`]), key distribution ([`hashring`]), and the
//! simulation substrate used to reproduce the paper's cluster/cloud
//! experiments ([`simcore`], [`netsim`], [`cluster`], [`mtc`]); the AMFS
//! locality-based baseline is modelled in [`mtc`].
//!
//! See the repository README for a quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-versus-measured record.

pub use memfs_cluster as cluster;
pub use memfs_core;
pub use memfs_hashring as hashring;
pub use memfs_memkv as memkv;
pub use memfs_mtc as mtc;
pub use memfs_netsim as netsim;
pub use memfs_simcore as simcore;

/// Commonly used types, re-exported for examples and downstream users.
pub mod prelude {
    pub use memfs_core::{DirEntry, EntryKind, FileStat, MemFs, MemFsConfig, MemFsError};
    pub use memfs_hashring::Distributor;
    pub use memfs_memkv::{KvClient, SimClient, Store, StoreConfig};
}
