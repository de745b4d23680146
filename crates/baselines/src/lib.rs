//! Periodic checkpointing baselines (§6.3 of the paper): restart
//! recovery, in which every rank restarts from the last periodic
//! checkpoint and re-executes (wastes) every iteration since — the cost
//! JIT checkpointing eliminates. The job and the four mechanisms live in
//! `jitckpt` ([`jitckpt::run_job`] under [`jitckpt::Policy::Periodic`],
//! and [`PolicyKind`]); this crate re-exports them, holds the
//! CheckFreq-style interval tuner, and keeps the benchmark's shims until
//! ROADMAP item 3 step 1.

pub mod periodic;

pub use periodic::{
    blocking_overhead, run_periodic_job, PeriodicConfig, PeriodicOutcome, PolicyKind,
};
