//! # memfs-memkv
//!
//! A from-scratch, memcached-style in-memory key-value store — the storage
//! layer of the MemFS reproduction (the paper uses Memcached \[27\] +
//! Libmemcached \[28\]; see DESIGN.md §3 for the substitution notes).
//!
//! The crate provides exactly the semantics MemFS relies on:
//!
//! * simple key-value commands: `set`, `add`, `get`, `append`, `delete`,
//!   `cas` — with **atomic, internally synchronized `append`** (the paper's
//!   directory-metadata protocol depends on it, §3.2.4);
//! * servers that do not communicate with each other and know nothing about
//!   data distribution — the *client* places data (§3.1.1);
//! * a per-item size limit (memcached's classic item limit motivates
//!   MemFS' striping, §3.2.1) and a configurable memory budget with either
//!   memcached-style LRU eviction or hard `OutOfMemory` errors (the mode a
//!   runtime file system needs);
//! * detailed statistics (`get` vs `set` counts, hit rate, bytes stored)
//!   used by the balance experiments.
//!
//! Three ways to reach a store:
//!
//! * [`Store`] — direct, in-process (what a MemFS server embeds);
//! * [`client::KvClient`] — the client abstraction MemFS programs against,
//!   with [`client::LocalClient`] and a latency/bandwidth-shaping
//!   [`client::ThrottledClient`] used to emulate remote servers in the
//!   real-engine benchmarks (Figure 3);
//! * [`net::KvServer`]/[`net::TcpClient`] — an actual TCP deployment
//!   speaking the memcached text protocol in [`proto`], for running a real
//!   distributed MemFS across processes.

pub mod audit;
pub mod client;
mod conn;
pub mod error;
pub mod net;
mod poll;
pub mod proto;
mod reactor;
mod server;
pub mod stats;
pub mod store;
pub mod testutil;
pub mod wheel;

pub use client::{
    Batch, Deferred, FailableClient, KvClient, LocalClient, Replies, ServerHealth, StoreVerb,
    ThrottledClient,
};
pub use error::KvError;
pub use net::{KvServer, PoolConfig, ServerConfig, TcpClient};
pub use reactor::{ReactorHandle, ReactorStatsSnapshot};
pub use stats::{ServerStatsSnapshot, StoreStats};
pub use store::{EvictionPolicy, Store, StoreConfig};
