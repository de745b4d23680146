//! **Just-In-Time Checkpointing** — the paper's primary contribution.
//!
//! Instead of checkpointing periodically, checkpoint *after a failure is
//! detected*, exploiting two domain properties of synchronous distributed
//! DNN training: (1) model/optimizer state mutates only inside the short
//! optimizer step, behind a gradient all-reduce that acts as a barrier,
//! so when any rank fails every healthy rank is parked with unmodified
//! state; and (2) data parallelism replicates that state, so a failed
//! GPU's state is always recoverable from a replica. Recovery then costs
//! at most one minibatch of redone work instead of half a checkpoint
//! interval across every GPU.
//!
//! Two designs, as in the paper:
//!
//! * [`user_level`] (§3) — a library jobs link against: on a collective
//!   hang it calls the job's `save_checkpoint` while the training thread
//!   is parked, writes rank-dependent checkpoint
//!   files with completion metadata, notifies the scheduler, and on
//!   restart [`checkpoint::jit_get_checkpoint_path`] assembles a
//!   consistent checkpoint from any healthy data-parallel replica.
//! * [`transparent`] (§4) — a recovery engine plugged into the device
//!   proxy's interception layer: errors never reach the framework;
//!   the rank a fault reached resets its GPU state to minibatch start (in
//!   place, via proxy restart, from a replica, or by migrating to a fresh
//!   GPU under a CRIU-preserved worker) and replays the logged device
//!   APIs, while every other rank keeps its minibatch and retries, as a
//!   pure `decide` function plans from what every rank reported.
//!
//! Plus:
//!
//! * [`launcher`] — [`run_job`], the one job entry point: a job under any
//!   [`Policy`], one [`JobOutcome`], one restart loop;
//! * [`periodic`] — periodic checkpointing's mechanisms and hooks;
//! * [`checkpoint`] — the shared checkpoint format/naming/assembly
//!   protocol (§3.2–§3.3), also used by periodic checkpointing;
//! * [`pipeline`] — write-behind checkpoint persistence: bounded-queue
//!   async uploads with per-job admission control, so shard puts overlap
//!   shard encode/CRC instead of stalling the training thread;
//! * [`stream`] — pipelined replica-to-replica recovery state transfer
//!   (CRC-framed codec shards rank-to-rank, replacing the per-rank
//!   store round-trip on restore) and the recovery chain that falls back
//!   from it to the store;
//! * [`restore`] — the parallel restore plane: bounded shard fetch pool
//!   with in-order fan-in verify/decode, delta-chain prefetch, and
//!   multi-source striping across placed storage nodes;
//! * [`analysis`] — the §5 wasted-work model (optimal frequency,
//!   eq. 1–10, dollar costs);
//! * [`workloads`] — the Table 2 workload catalog with calibration.

pub mod analysis;
pub mod checkpoint;
mod decide;
pub mod launcher;
pub mod periodic;
pub mod pipeline;
pub mod restore;
pub mod stream;
pub mod transparent;
pub mod user_level;
pub mod workloads;

pub use checkpoint::{jit_get_checkpoint_path, CkptKind};
pub use launcher::{run_job, JobOutcome, Policy};
pub use periodic::{blocking_overhead, PolicyKind};
pub use pipeline::{CkptTicket, JobGate, WriteBehind, WriteBehindConfig};
pub use restore::{load_for_rank_parallel, read_checkpoint_parallel, RestoreConfig, RestoreStats};
pub use transparent::{RecoveryReport, TransparentEngine};
pub use user_level::JitUserConfig;
pub use workloads::{catalog, Workload};
