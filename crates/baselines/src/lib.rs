//! Periodic checkpointing baselines (§6.3 of the paper).
//!
//! Four mechanisms, in increasing sophistication:
//!
//! * **PC_disk** — `torch.save()` to persistent disk in the critical
//!   path: the job stalls for serialization + GPU→host copy + disk write.
//! * **PC_mem** — Nebula-style: write to a tmpfs mount (host memory) in
//!   the critical path, drain to persistent storage asynchronously; the
//!   stall excludes the persistent-store leg.
//! * **CheckFreq** — pipelined snapshotting: the GPU→host copy overlaps
//!   the next iteration's forward pass, so only the un-overlappable
//!   fraction stalls the job.
//! * **PC_1/day** — low-frequency periodic checkpointing meant to run
//!   *alongside* JIT checkpointing for catastrophic multi-node failures.
//!
//! All four share the JIT checkpoint file format
//! ([`jitckpt::checkpoint`]), which is what makes the combined JIT + PC
//! mode work: recovery simply takes the newest complete checkpoint of
//! either kind.
//!
//! [`run_periodic_job`] is classic restart recovery, on the same restart
//! launcher as user-level JIT ([`jitckpt::launcher`]): on failure the
//! monitoring plane kills the job, and every rank restarts from the last
//! periodic checkpoint, re-executing (wasting) all iterations since — the
//! cost JIT checkpointing eliminates.

pub mod periodic;

pub use periodic::{
    blocking_overhead, run_periodic_job, PeriodicConfig, PeriodicOutcome, PolicyKind,
};
