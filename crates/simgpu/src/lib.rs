//! A simulated GPU device layer — the CUDA substitute for the JIT
//! checkpointing reproduction.
//!
//! The paper's mechanisms live entirely at the device-API boundary:
//! interception of `cudaStreamWaitEvent`/`cudaEventRecord`, replay of
//! logged API calls, freeing of non-parameter buffers, re-creation of
//! streams/events, and error codes that poison a context. None of that
//! requires silicon — it requires *faithful API semantics*. This crate
//! provides them:
//!
//! * [`buffer`] — device memory with a real allocator, allocation-site
//!   identity (§4.3's call-stack-hash naming scheme), and buffer tags;
//! * [`stream`] — streams and events with per-stream virtual timelines and
//!   `stream_wait_event` ordering semantics;
//! * [`kernel`] — executable compute kernels (matmul, bias, relu, softmax
//!   cross-entropy, SGD/Adam, …) that really compute on `f32` data, plus
//!   FLOP counts feeding the cost model;
//! * [`device`] — the [`device::Gpu`] object tying it together, with an
//!   injectable [`health::GpuHealth`] state machine that reproduces
//!   transient, sticky, driver-corruption, and hard failure behaviours;
//! * [`state`] — the checkpoint state codec: one encoder over a borrowed
//!   [`state::StateView`] of a device or a host copy, one decoder into a
//!   host copy or straight into a device;
//! * [`api`] — the serializable [`api::DeviceCall`] surface that the device
//!   proxy logs and replays.

pub mod api;
pub mod buffer;
pub mod device;
pub mod health;
pub mod kernel;
pub mod state;
pub mod stream;

pub use api::{CallResult, DeviceCall};
pub use buffer::{AllocSite, BufferId, BufferTag};
pub use device::Gpu;
pub use health::GpuHealth;
pub use kernel::KernelKind;
pub use state::{decode_state, StateSink, StateView};
pub use stream::{EventId, StreamId};
