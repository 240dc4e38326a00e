//! # memfs-simcore
//!
//! A small, deterministic discrete-event simulation (DES) engine used as the
//! substrate for the MemFS reproduction.
//!
//! The MemFS paper evaluates the file system on a 64-node cluster (DAS4) and
//! on 32 Amazon EC2 virtual machines. This crate provides the building blocks
//! with which those platforms are simulated:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock,
//! * [`EventQueue`] — a deterministic calendar queue (ties broken by
//!   insertion order, so identical runs replay identically),
//! * [`PsResource`] — a processor-sharing resource with an arbitrary
//!   concurrency-efficiency curve (used e.g. for the FUSE mount-point
//!   spinlock model of Figure 10),
//! * [`units`] — byte-size and bandwidth constants and conversions.
//!
//! The engine is intentionally event-driven rather than process-driven: the
//! higher layers (`memfs-netsim`, `memfs-mtc`) model network transfers and
//! task execution analytically as *flows* with remaining work, which is both
//! orders of magnitude faster than packet-level simulation and sufficient to
//! capture every contention phenomenon the paper reports.

pub mod queue;
pub mod resource;
pub mod time;
pub mod units;

pub use queue::{EventEntry, EventQueue};
pub use resource::{EfficiencyCurve, JobId, PsResource};
pub use time::{SimDuration, SimTime};
