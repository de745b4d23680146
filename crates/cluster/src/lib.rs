//! Cluster infrastructure simulation.
//!
//! The paper's recovery flows are distributed protocols between worker
//! ranks and the cluster control plane (§3.2–§3.3, §4.3): healthy ranks
//! checkpoint and notify the scheduler; the scheduler waits for at least
//! one data-parallel replica of *each* pipeline stage and tensor-parallel
//! partition to acknowledge, kills the job, and reschedules it on a node
//! set that excludes the failed GPUs. This crate provides that substrate:
//!
//! * [`topology`] — node/GPU inventory with health tracking and
//!   exclusion-aware allocation;
//! * [`store`] — the shared checkpoint store (blob/NFS equivalent) with
//!   corruption and incomplete-write simulation;
//! * [`injector`] — scripted, phase-precise failure injection plus Poisson
//!   traces;
//! * [`scheduler`] — job lifecycle: allocation, failure notifications,
//!   per-stage/partition checkpoint quorum, and rescheduling.

pub mod injector;
pub mod scheduler;
pub mod store;
pub mod topology;

pub use injector::FailureInjector;
pub use scheduler::{CheckpointAck, Scheduler};
pub use store::{SharedStore, StorageBackend};
pub use topology::{Cluster, Node};
