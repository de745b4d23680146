//! Common error type for the simulation stack.
//!
//! The workspace avoids `thiserror` (not in the approved dependency set),
//! so the error enum implements `Display`/`Error` by hand. Variants mirror
//! the failure surfaces of the real stack the paper targets: CUDA error
//! codes, NCCL aborts, storage failures, and protocol violations.

use crate::ids::{GpuId, RankId};
use std::fmt;

/// Result alias used across the simulation crates.
pub type SimResult<T> = Result<T, SimError>;

/// Errors surfaced by the simulated device, network, and cluster layers.
///
/// These play the role of CUDA error codes, NCCL failures, and
/// infrastructure faults in the real system. The transparent JIT layer
/// catches them below the framework; the user-level layer lets them reach
/// the training script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A device API failed because the GPU has a hard (unrecoverable)
    /// hardware fault. Equivalent to e.g. an uncorrectable ECC error.
    GpuHardware(GpuId),
    /// A device API failed with a CUDA "sticky" error: the context is
    /// poisoned and every subsequent call fails until the driver state is
    /// cleared (proxy-server restart).
    CudaSticky(GpuId),
    /// GPU or NIC driver state is suspected to be corrupted; the device is
    /// still accessible but unreliable.
    DriverCorrupted(GpuId),
    /// A transient network fault interrupted a collective.
    NetworkTransient,
    /// A collective was aborted (e.g. by the watchdog after a hang).
    CollectiveAborted,
    /// A collective timed out waiting for a peer: the signature of a
    /// failure on some *other* rank.
    CollectiveTimeout { rank: RankId },
    /// An invalid handle (buffer, stream, event, communicator) was used.
    InvalidHandle(String),
    /// Out of simulated device memory.
    OutOfMemory { requested: u64, available: u64 },
    /// The shared checkpoint store rejected or lost an object.
    Storage(String),
    /// A checkpoint file exists but is incomplete or corrupt (metadata
    /// sidecar missing or checksum mismatch).
    CorruptCheckpoint(String),
    /// No usable checkpoint could be assembled for recovery.
    NoCheckpointAvailable(String),
    /// The binary codec met malformed input.
    Codec(String),
    /// A protocol invariant was violated (bug surface, kept as an error so
    /// tests can assert on it rather than panicking the whole harness).
    Protocol(String),
    /// The scheduler could not satisfy an allocation request.
    Scheduling(String),
    /// The worker process was killed (simulated SIGKILL from the launcher).
    WorkerKilled(RankId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::GpuHardware(g) => write!(f, "hard GPU hardware error on {g}"),
            SimError::CudaSticky(g) => write!(f, "sticky CUDA error on {g} (context poisoned)"),
            SimError::DriverCorrupted(g) => write!(f, "driver state corruption suspected on {g}"),
            SimError::NetworkTransient => write!(f, "transient network fault"),
            SimError::CollectiveAborted => write!(f, "collective operation aborted"),
            SimError::CollectiveTimeout { rank } => {
                write!(f, "collective timed out on {rank} (peer failure suspected)")
            }
            SimError::InvalidHandle(s) => write!(f, "invalid handle: {s}"),
            SimError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes, {available} available"
            ),
            SimError::Storage(s) => write!(f, "storage error: {s}"),
            SimError::CorruptCheckpoint(s) => write!(f, "corrupt checkpoint: {s}"),
            SimError::NoCheckpointAvailable(s) => write!(f, "no checkpoint available: {s}"),
            SimError::Codec(s) => write!(f, "codec error: {s}"),
            SimError::Protocol(s) => write!(f, "protocol violation: {s}"),
            SimError::Scheduling(s) => write!(f, "scheduling error: {s}"),
            SimError::WorkerKilled(r) => write!(f, "worker process for {r} was killed"),
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// Returns true when the error indicates the GPU itself is unusable and
    /// the rank must migrate to a replacement device (§4.3 of the paper).
    pub fn is_hard(&self) -> bool {
        matches!(self, SimError::GpuHardware(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardness_classification() {
        assert!(SimError::GpuHardware(GpuId(0)).is_hard());
    }

    #[test]
    fn display_is_informative() {
        let e = SimError::OutOfMemory {
            requested: 100,
            available: 10,
        };
        let s = e.to_string();
        assert!(s.contains("100"));
        assert!(s.contains("10"));
    }
}
