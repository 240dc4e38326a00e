//! # memfs-hashring
//!
//! Client-side data distribution for MemFS — the role Libmemcached \[28\]
//! plays in the paper (§3.1.2): given a key, decide which storage server
//! holds it. Servers never talk to each other; every client computes the
//! same placement independently.
//!
//! Two schemes, as in Libmemcached:
//!
//! * [`ModuloRing`] — FNV-1a `hash(key) mod N`, the scheme the paper
//!   selects ("a simple hashing scheme that assigns each object to a
//!   storage server in a circular fashion, guaranteeing a balanced data
//!   distribution");
//! * [`KetamaRing`] — MD5-based consistent hashing with virtual points,
//!   the scheme the paper reserves for elastic node membership (future
//!   work there; implemented here and exercised by the remapping tests and
//!   the hashing ablation bench). A membership change in `memfs-core` is
//!   just two rings — the current one and the target one — until its
//!   migration commits; this crate holds no migration state.
//!
//! [`schema`] defines MemFS' key naming: stripe keys are the file path
//! concatenated with the stripe number (paper §3.1.2), followed by the
//! file's generation, plus file-size and directory metadata keys
//! (§3.2.4). Both distributors place a stripe key without its generation.
//! [`balance`] quantifies placement
//! uniformity for the load-balance experiments.

pub mod balance;
pub mod dist;
pub mod hash;
pub mod schema;

pub use dist::{Distributor, KetamaRing, ModuloRing, ServerId};
pub use schema::KeySchema;
