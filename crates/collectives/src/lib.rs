//! Collective communication — the NCCL substitute.
//!
//! The whole JIT-checkpointing design hinges on one property of collective
//! operations in synchronous data-parallel training (§3.1, §4.2 of the
//! paper):
//!
//! > *Each worker rank cannot exit from the collective operation till all
//! > others have reached it (so it is a barrier synchronization across all
//! > GPUs). In case of an error in any GPU, all other GPUs will be blocked
//! > at the collective operation, thus ensuring that they have not
//! > modified their parameter and optimizer state.*
//!
//! This crate reproduces those semantics with real blocking: a rank that
//! never arrives leaves every peer parked on a condition variable until the
//! communicator is aborted (the `ncclCommAbort` equivalent) — which is
//! exactly the hang the paper's watchdog thread detects by timeout, and
//! the simulation proves at once from the fact that the missing rank is
//! gone. Completion advances every participant's virtual clock to
//! `max(arrival) + cost`, the cost being the communicator's schedule's.
//!
//! Modules:
//!
//! * [`comm`] — communicators and the rendezvous of their collective
//!   operations: the slot table, arrival, parking and completion, abort,
//!   transient faults, the liveness proof, and the replay cache;
//! * `plane` — the one data plane: member-order streaming folds for
//!   reductions, chunked across a bounded worker pool, and the assembly of
//!   every other kind's result;
//! * `schedule` — the cost schedules ([`CollEngine`]: flat ring or
//!   two-level hierarchy over the group's node placement), which decide
//!   only how much simulated time a collective costs;
//! * [`world`] — the process-wide registry ([`CommWorld`]) with communicator
//!   lifecycle (create / abort / recreate-with-rendezvous), fault
//!   injection, and p2p send/recv for pipeline parallelism;
//! * [`group`] — NCCL-style `commSplit` process groups over a parent
//!   communicator (color/key remapping, parent→child abort and fault
//!   propagation);
//! * [`ledger`] — the Checkmate-style in-network gradient tap
//!   ([`GradLedger`]), which no job attaches: passive bounded retention
//!   of the shard slices a rank holds when a generation completes, and
//!   the reconstruction of a dead member's result from survivors;
//! * [`observer`] — the interception hook ([`CollectiveObserver`]) that
//!   stands in for the user-level watch-list of §3.1;
//! * `liveness` — the per-world record of what is known of its ranks
//!   ([`RankFacts`]: departed, stuck, acted), from which a parked rank
//!   proves its wait hung instead of guessing it from elapsed time, and
//!   on which a job's own waits end.

pub mod comm;
pub mod group;
pub mod ledger;
pub(crate) mod liveness;
pub mod observer;
pub(crate) mod plane;
pub(crate) mod schedule;
pub mod world;

pub use comm::{CollKind, Communicator, ReduceOp, RECOVERY_GEN_BASE};
pub use group::SplitKey;
pub use ledger::{GradLedger, LedgerConfig};
pub use liveness::RankFacts;
pub use observer::{CollectiveObserver, CollectiveTicket, NullObserver};
pub use schedule::{CollEngine, RingConfig};
pub use world::{CommId, CommWorld};
