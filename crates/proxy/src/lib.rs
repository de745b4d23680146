//! Device proxy and interception layer.
//!
//! The transparent JIT design (§4, Figure 2 of the paper) separates the
//! worker CPU process from all GPU/driver state by routing every device
//! API through a *device proxy server*. The client side intercepts calls,
//! hands the application **virtual handles**, and logs every call (with
//! input values) into a per-minibatch **replay log**. That buys three
//! capabilities:
//!
//! 1. restarting the proxy server clears corrupted GPU/driver state
//!    without touching worker CPU state (which CRIU can then migrate);
//! 2. recovery can reset the GPU to minibatch start and *replay* the log,
//!    remapping virtual handles onto freshly created physical objects;
//! 3. errors never reach the framework/application — the interception
//!    layer catches them, runs a pluggable [`RecoveryHandler`], and
//!    returns the original call's result as if nothing happened.
//!
//! Modules:
//!
//! * [`executor`] — the [`Executor`] trait (the seam the training
//!   framework runs against) and [`DirectExecutor`] (no interception —
//!   the baseline and user-level-JIT path, which recovers by restart and
//!   so keeps no replay state);
//! * [`server`] — the restartable device server behind [`ProxyClient`],
//!   reached through [`ProxyClient::gpu`], and its batched wire format
//!   ([`encode_batch`], [`decode_batch`]);
//! * [`oplog`] — the replay log, its records, and the virtual-handle
//!   table;
//! * [`client`] — [`ProxyClient`]: interception, logging, replay, and
//!   replay-log correctness verification (§4.1);
//! * [`watchdog`] — real-time hang detection over registered operations,
//!   which no job runs (a job's hangs are proven by the collective layer).

pub mod client;
pub mod executor;
pub mod oplog;
pub mod server;
pub mod watchdog;

pub use client::{MinibatchPosition, ProxyClient, RecoveryHandler, RecoveryOutcome};
pub use executor::{CommToken, DirectExecutor, Executor, PendingOp};
pub use oplog::OpLog;
pub use server::{decode_batch, encode_batch, BATCH_SHARD_BYTES};
pub use watchdog::Watchdog;
