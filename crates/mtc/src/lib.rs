//! # memfs-mtc
//!
//! The many-task-computing layer of the MemFS reproduction: workflow
//! models (Montage, BLAST), task schedulers (uniform vs. AMFS-Shell-style
//! locality-aware), the cluster-scale simulation engine, the analytic MTC
//! Envelope model, and one experiment driver per table/figure of the
//! paper's evaluation.
//!
//! ## Two evaluation paths
//!
//! * **Real engine** (`memfs-core` running actual bytes in-process) —
//!   used for the design-decision experiments that are machine-local in
//!   the paper too (Figure 3), and by the integration tests.
//! * **Simulation** ([`engine::WorkflowSim`] over `memfs-netsim` +
//!   `memfs-cluster`) — used for everything that needs 8-64 DAS4 nodes or
//!   8-32 EC2 instances. MemFS placement reuses the *real* placement code
//!   (`memfs-hashring`), so its distribution behaviour is identical to the
//!   implementation; only time is modelled. AMFS, the locality-based
//!   baseline, exists only as a model: [`fsmodel`]'s
//!   `FsModelKind::Amfs` with [`sched`]'s locality-aware scheduler in the
//!   simulation, and [`envelope`]'s AMFS metrics (its software multicast
//!   is `EnvelopeModel::amfs_read_n_1`).
//!
//! Calibration constants live in [`calibrate`] and are documented against
//! the paper's reported numbers; EXPERIMENTS.md records paper-vs-measured
//! for every artifact.

pub mod blast;
pub mod calibrate;
pub mod engine;
pub mod envelope;
pub mod experiments;
pub mod fsmodel;
pub mod montage;
pub mod report;
pub mod sched;
pub mod workflow;

pub use engine::{RunResult, WorkflowSim};
pub use envelope::{EnvelopeModel, EnvelopePoint, FsKind};
pub use sched::SchedulerKind;
pub use workflow::{FileId, StageStats, TaskId, TaskSpec, Workflow};
