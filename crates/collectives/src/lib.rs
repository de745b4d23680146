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
//! exactly the hang the watchdog thread detects, by timeout in the paper
//! and, where the simulation can prove that the missing rank is gone, at
//! once. Completion advances every
//! participant's virtual clock to `max(arrival) + α–β cost`.
//!
//! Modules:
//!
//! * [`comm`] — communicators, the collective operations, and p2p
//!   send/recv for pipeline parallelism;
//! * [`world`] — the process-wide registry ([`CommWorld`]) with communicator
//!   lifecycle (create / abort / recreate-with-rendezvous) and fault
//!   injection;
//! * [`ring`] — the chunked ring and hierarchical data-plane engines
//!   (zero-copy chunk slices, parallel per-chunk reduction, ring-hop link
//!   classes, two-level intra/inter-node schedules);
//! * [`group`] — NCCL-style `commSplit` process groups over a parent
//!   communicator (color/key remapping, parent→child abort and fault
//!   propagation);
//! * [`ledger`] — the Checkmate-style in-network gradient tap
//!   ([`GradLedger`]): passive bounded retention of the shard slices a
//!   rank already holds when a generation completes, and the
//!   reconstruction of a dead member's result from survivors;
//! * [`observer`] — the interception hook ([`CollectiveObserver`]) from
//!   which the user-level watch-list / watchdog of §3.1 is built;
//! * `liveness` — the per-world table of ranks that will never contribute
//!   again, from which a parked rank proves its wait hung instead of
//!   leaving the watchdog to guess it from elapsed time.

pub mod comm;
pub mod group;
pub mod ledger;
pub(crate) mod liveness;
pub mod observer;
pub mod ring;
pub mod world;

pub use comm::{CollKind, Communicator, ReduceOp};
pub use group::SplitKey;
pub use ledger::{GradLedger, LedgerConfig};
pub use observer::{CollectiveObserver, CollectiveTicket, NullObserver};
pub use ring::{CollEngine, RingConfig};
pub use world::{CommId, CommWorld};
