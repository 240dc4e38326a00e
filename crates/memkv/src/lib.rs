//! # memfs-memkv
//!
//! A from-scratch, memcached-style in-memory key-value store — the storage
//! layer of the MemFS reproduction (the paper uses Memcached \[27\] +
//! Libmemcached \[28\]; see DESIGN.md §3 for the substitution notes).
//!
//! The crate provides exactly the semantics MemFS relies on:
//!
//! * the key-value commands MemFS sends: `set`, `add`, `get`, `getrange`,
//!   `append`, `delete` — with **atomic, internally synchronized `append`**
//!   (the paper's directory-metadata protocol depends on it, §3.2.4);
//! * servers that do not communicate with each other and know nothing about
//!   data distribution — the *client* places data (§3.1.1);
//! * a per-item size limit (memcached's classic item limit motivates
//!   MemFS' striping, §3.2.1) and a hard memory budget: a full store
//!   answers `OutOfMemory` and never evicts or expires anything (the
//!   paper sizes memcached so it never evicts, §3.2.1 / §4.2.1);
//! * detailed statistics (`get` vs `set` counts, hit rate, bytes stored)
//!   used by the balance experiments.
//!
//! Three ways to reach a store:
//!
//! * [`Store`] — direct, in-process (what a MemFS server embeds);
//! * [`client::KvClient`] — the client abstraction MemFS programs against,
//!   with [`client::LocalClient`] and [`client::SimClient`], a store
//!   behind a simulated latency/bandwidth link on a virtual clock, which
//!   times the real engine for Figure 3 and injects outages in the
//!   fault-tolerance tests;
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

pub use client::{
    AnswerHook, Batch, Deferred, KvClient, LocalClient, Replies, ServerHealth, SimClient, SimClock,
    StoreVerb,
};
pub use error::KvError;
pub use net::{KvServer, PoolConfig, TcpClient};
pub use reactor::{ReactorHandle, ReactorStatsSnapshot};
pub use stats::{ServerStatsSnapshot, StoreStats};
pub use store::{Store, StoreConfig};
