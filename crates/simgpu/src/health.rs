//! GPU health state machine and fault injection.
//!
//! Reproduces the observable behaviour of each failure class from the
//! paper's taxonomy (§1, Table 1, §4.2–§4.3):
//!
//! * **Transient network** — the GPU itself stays [`GpuHealth::Healthy`];
//!   the fault lives on the link and is injected at the collectives layer.
//! * **Driver corruption** — device APIs still succeed and memory remains
//!   readable, but the device is flagged suspect; clearing requires a
//!   proxy-server restart.
//! * **Sticky CUDA error** — the first API call fails and *every*
//!   subsequent call fails too (the context is poisoned), exactly like a
//!   real sticky error; memory is unreadable.
//! * **Hardware failure** — permanent; the device can never be used again
//!   and the rank must migrate.

use simcore::failure::FailureKind;
use simcore::{GpuId, SimError, SimResult};

/// Health state of a simulated GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuHealth {
    /// Fully operational.
    Healthy,
    /// Driver state suspected corrupt: APIs succeed, memory readable, but
    /// the device must be reset (proxy restart) before trusting it again.
    DriverSuspect,
    /// Sticky CUDA error: all APIs fail until the context is reset.
    Sticky,
    /// Permanent hardware failure.
    HardwareFailed,
}

impl GpuHealth {
    /// Applies an injected fault, returning the new health. Transient
    /// network faults do not change GPU health (they live on the link).
    pub fn inject(self, kind: FailureKind) -> GpuHealth {
        match kind {
            FailureKind::TransientNetwork => self,
            FailureKind::DriverCorruption => match self {
                GpuHealth::HardwareFailed => self,
                _ => GpuHealth::DriverSuspect,
            },
            FailureKind::StickyCuda => match self {
                GpuHealth::HardwareFailed => self,
                _ => GpuHealth::Sticky,
            },
            FailureKind::GpuHardware | FailureKind::NodeFailure => GpuHealth::HardwareFailed,
        }
    }

    /// Result of attempting a device API call in this state.
    ///
    /// `DriverSuspect` deliberately lets calls *succeed* — that is what
    /// makes driver corruption insidious and why recovery must copy state
    /// out before resetting (§4.2.1 case 2).
    pub fn check_api(self, gpu: GpuId) -> SimResult<()> {
        match self {
            GpuHealth::Healthy | GpuHealth::DriverSuspect => Ok(()),
            GpuHealth::Sticky => Err(SimError::CudaSticky(gpu)),
            GpuHealth::HardwareFailed => Err(SimError::GpuHardware(gpu)),
        }
    }

    /// Whether device memory can still be read in this state (drives the
    /// recovery-path choice in §4.2.1).
    pub fn memory_readable(self) -> bool {
        matches!(self, GpuHealth::Healthy | GpuHealth::DriverSuspect)
    }

    /// Whether a context reset (proxy-server restart) returns the device
    /// to service.
    pub fn reset_recovers(self) -> bool {
        matches!(
            self,
            GpuHealth::Healthy | GpuHealth::DriverSuspect | GpuHealth::Sticky
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_transitions() {
        let h = GpuHealth::Healthy;
        assert_eq!(h.inject(FailureKind::TransientNetwork), GpuHealth::Healthy);
        assert_eq!(
            h.inject(FailureKind::DriverCorruption),
            GpuHealth::DriverSuspect
        );
        assert_eq!(h.inject(FailureKind::StickyCuda), GpuHealth::Sticky);
        assert_eq!(
            h.inject(FailureKind::GpuHardware),
            GpuHealth::HardwareFailed
        );
        // Hardware failure is absorbing.
        let dead = GpuHealth::HardwareFailed;
        assert_eq!(
            dead.inject(FailureKind::StickyCuda),
            GpuHealth::HardwareFailed
        );
        assert_eq!(
            dead.inject(FailureKind::DriverCorruption),
            GpuHealth::HardwareFailed
        );
    }

    #[test]
    fn sticky_errors_poison_all_calls() {
        let h = GpuHealth::Healthy.inject(FailureKind::StickyCuda);
        let e1 = h.check_api(GpuId(0)).unwrap_err();
        let e2 = h.check_api(GpuId(0)).unwrap_err();
        assert_eq!(e1, e2);
        assert!(matches!(e1, SimError::CudaSticky(_)));
    }

    #[test]
    fn driver_suspect_calls_still_succeed() {
        let h = GpuHealth::Healthy.inject(FailureKind::DriverCorruption);
        assert!(h.check_api(GpuId(1)).is_ok());
        assert!(h.memory_readable());
        assert!(h.reset_recovers());
    }

    #[test]
    fn hardware_failure_is_terminal() {
        let h = GpuHealth::HardwareFailed;
        assert!(h.check_api(GpuId(2)).is_err());
        assert!(!h.memory_readable());
        assert!(!h.reset_recovers());
    }
}
