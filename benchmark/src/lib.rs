//! The MemFS benchmark: four workloads through one real TCP mount, measured
//! from outside — by timing calls into each layer's public functions and
//! reading its public counters. See `benchmark/README.md`.

pub mod alloc;
pub mod baseline;
pub mod cli;
pub mod cluster;
pub mod compare;
pub mod gen;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod ops;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
