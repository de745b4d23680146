//! A miniature distributed deep-learning training framework — the
//! PyTorch/Megatron/DeepSpeed substitute for the JIT-checkpointing
//! reproduction.
//!
//! The framework exists to give the paper's mechanisms the exact
//! structure they exploit:
//!
//! * synchronous minibatch iterations: forward → backward → gradient
//!   all-reduce (a barrier) → optimizer step, with persistent state
//!   (params + optimizer moments) mutated *only* inside the optimizer;
//! * data parallelism with bit-identical replicas (same init, averaged
//!   gradients), Megatron-style tensor-parallel MLP blocks (all-reduce
//!   sync points in both passes), GPipe-style pipeline stages (p2p
//!   activations/gradients), and FSDP-style hybrid sharding (all-gather
//!   params / reduce-scatter grads within a shard group, replicas across
//!   groups);
//! * Figure-3 stream/event traffic: compute and comm streams with
//!   `EventRecord`/`StreamWaitEvent` ordering around bucketed gradient
//!   all-reduces — the calls the user-level interception layer watches;
//! * full determinism: seeded init, stateless-deterministic data loading,
//!   fixed reduction order — so loss trajectories are bit-comparable with
//!   and without failure recovery (§6.2).
//!
//! Everything runs against the [`proxy::Executor`] seam, so the same
//! training code runs direct (user-level JIT / baselines) or intercepted
//! (transparent JIT) — no application change, as the paper requires.

pub mod data;
pub mod model;
pub mod optim;
pub mod setup;
pub mod trainer;

pub use data::DataLoader;
pub use model::ModelConfig;
pub use optim::OptimizerKind;
pub use setup::{build_comms, JobComms, JobSetup};
pub use trainer::{run_ranks, RankTokens, RankTrainer, TrainConfig, TrainState};
