//! Reproduction suite for *Just-In-Time Checkpointing: Low Cost Error
//! Recovery from Deep Learning Training Failures* (EuroSys '24).
//!
//! This crate is the workspace umbrella: it hosts the runnable examples
//! (`examples/`) and the cross-crate integration tests (`tests/`), and
//! re-exports the member crates for convenience. See the repository
//! README and DESIGN.md for the full map.
//!
//! * [`jitckpt`] — the paper's contribution (user-level + transparent JIT
//!   checkpointing, §5 analytical model, workload catalog);
//! * [`dltrain`] — the mini distributed training framework;
//! * [`proxy`] — the device-proxy interception layer;
//! * [`collectives`] — the NCCL-substitute collective layer;
//! * [`simgpu`] — the simulated GPU device;
//! * [`cluster`] — scheduler, shared store, failure injection;
//! * [`baselines`] — periodic checkpointing baselines;
//! * [`simcore`] — virtual time, cost models, codec.

pub use baselines;
pub use cluster;
pub use collectives;
pub use dltrain;
pub use jitckpt;
pub use proxy;
pub use simcore;
pub use simgpu;
