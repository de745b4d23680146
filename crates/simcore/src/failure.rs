//! Failure taxonomy and injection.
//!
//! The paper's failure study (§1, §5.1) finds that most training failures
//! are single-GPU or single-network-device faults — transient network
//! issues, driver-state corruption, sticky CUDA errors, or hard hardware
//! faults — while simultaneous multi-node failures are extremely rare.
//! This module encodes that taxonomy and provides both scripted failure
//! schedules (for deterministic tests) and Poisson/MTBF trace generation
//! (for the wasted-work analysis and randomized property tests).

use crate::ids::RankId;
use crate::rng::DetRng;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// The kind of fault injected into a device or link.
///
/// Maps to the recovery-solution matrix in Table 1 and the case analysis of
/// §4.2–§4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureKind {
    /// Transient network fault (e.g. InfiniBand congestion/flap). The GPU
    /// is healthy; the in-flight collective fails or hangs. Recoverable in
    /// place without copying any state (§4.2.1 case 1).
    TransientNetwork,
    /// GPU or NIC driver state corruption. GPU memory is still readable,
    /// but driver state must be cleared by restarting the device proxy
    /// (§4.2.1 case 2).
    DriverCorruption,
    /// CUDA "sticky" error: GPU state is inaccessible, every subsequent
    /// API fails, but the hardware is fine. Cleared by a proxy restart;
    /// state is refilled from a data-parallel replica (§4.2.1 case 3).
    StickyCuda,
    /// Unrecoverable GPU hardware error; the rank must migrate to a
    /// replacement GPU, possibly on another node (§4.3).
    GpuHardware,
    /// Whole-node failure (rare). All ranks on the node are lost.
    NodeFailure,
}

impl FailureKind {
    /// All kinds, for exhaustive sweeps in tests and benches.
    pub fn all() -> [FailureKind; 5] {
        [
            FailureKind::TransientNetwork,
            FailureKind::DriverCorruption,
            FailureKind::StickyCuda,
            FailureKind::GpuHardware,
            FailureKind::NodeFailure,
        ]
    }
}

/// Phase of a minibatch iteration at which a failure strikes.
///
/// The phase determines which recovery path runs: failures at or before the
/// gradient all-reduce roll *back* to minibatch `i` (healthy replicas are
/// parked at the barrier with unmodified state), failures inside the
/// optimizer step roll *forward* to minibatch `i+1` (§3.3, §4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// During the forward pass.
    Forward,
    /// During the backward pass.
    Backward,
    /// While the gradient all-reduce is in flight.
    AllReduce,
    /// Inside the optimizer step (parameters possibly half-updated).
    OptimizerStep,
    /// Between iterations (after post-step bookkeeping, before the next
    /// forward). Equivalent to `OptimizerStep` for recovery purposes.
    BetweenIterations,
}

impl Phase {
    /// All phases, for exhaustive sweeps.
    pub fn all() -> [Phase; 5] {
        [
            Phase::Forward,
            Phase::Backward,
            Phase::AllReduce,
            Phase::OptimizerStep,
            Phase::BetweenIterations,
        ]
    }
}

/// A scripted failure: at iteration `iteration`, while `rank` is in
/// `phase`, inject `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureSpec {
    /// Minibatch iteration (0-based) at which the fault fires.
    pub iteration: u64,
    /// Execution phase within that iteration.
    pub phase: Phase,
    /// The victim rank.
    pub rank: RankId,
    /// Fault class.
    pub kind: FailureKind,
}

impl FailureSpec {
    /// Convenience constructor.
    pub fn new(iteration: u64, phase: Phase, rank: RankId, kind: FailureKind) -> Self {
        FailureSpec {
            iteration,
            phase,
            rank,
            kind,
        }
    }
}

/// Failure-rate model: exponential (Poisson process) per-GPU failures.
///
/// `f` in the paper's analysis is the per-GPU failure frequency; the job
/// failure rate is `N·f`. The OPT-175B run saw ≈2 failures/day on 992
/// GPUs, i.e. `f ≈ 2e-3` per GPU per day.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FailureRate {
    /// Failures per GPU per second.
    pub per_gpu_per_sec: f64,
}

impl FailureRate {
    /// From failures per GPU per day.
    pub fn per_gpu_per_day(f: f64) -> Self {
        FailureRate {
            per_gpu_per_sec: f / 86_400.0,
        }
    }

    /// Job-level failure rate for `n` GPUs (failures per second).
    pub fn job_rate(&self, n: usize) -> f64 {
        self.per_gpu_per_sec * n as f64
    }
}

/// One event in a generated failure trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulated time of the failure.
    pub at: SimTime,
    /// Victim rank (uniform over the job).
    pub rank: RankId,
    /// Fault class (drawn from the observed mix).
    pub kind: FailureKind,
}

/// Generates a Poisson failure trace for a job of `n_ranks` GPUs over
/// `horizon` of simulated time.
///
/// The kind mix follows the paper's observation that most faults are
/// single-GPU/network and node failures are rare: 40% transient network,
/// 20% driver corruption, 20% sticky CUDA, 19% GPU hardware, 1% node.
pub fn poisson_trace(
    rate: FailureRate,
    n_ranks: usize,
    horizon: SimTime,
    rng: &mut DetRng,
) -> Vec<TraceEvent> {
    let lambda = rate.job_rate(n_ranks);
    let mut events = Vec::new();
    if lambda <= 0.0 {
        return events;
    }
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival via inverse CDF.
        let u: f64 = rng.uniform();
        t += -u.max(1e-300).ln() / lambda;
        if t >= horizon.as_secs() {
            break;
        }
        let rank = RankId((rng.uniform() * n_ranks as f64) as u32 % n_ranks as u32);
        let k: f64 = rng.uniform();
        let kind = if k < 0.40 {
            FailureKind::TransientNetwork
        } else if k < 0.60 {
            FailureKind::DriverCorruption
        } else if k < 0.80 {
            FailureKind::StickyCuda
        } else if k < 0.99 {
            FailureKind::GpuHardware
        } else {
            FailureKind::NodeFailure
        };
        events.push(TraceEvent {
            at: SimTime::from_secs(t),
            rank,
            kind,
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_trace_is_deterministic_and_sorted() {
        let rate = FailureRate::per_gpu_per_day(0.5);
        let mut r1 = DetRng::new(42);
        let mut r2 = DetRng::new(42);
        let t1 = poisson_trace(rate, 64, SimTime::from_secs(86_400.0 * 10.0), &mut r1);
        let t2 = poisson_trace(rate, 64, SimTime::from_secs(86_400.0 * 10.0), &mut r2);
        assert_eq!(t1.len(), t2.len());
        assert!(!t1.is_empty());
        for (a, b) in t1.iter().zip(&t2) {
            assert_eq!(a, b);
        }
        for w in t1.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn poisson_trace_rate_roughly_matches() {
        // With λ·T expected events, the sample count should be within a
        // loose band (this is a smoke test, not a statistics exam).
        let rate = FailureRate::per_gpu_per_day(2e-3);
        let n = 1000;
        let days = 100.0;
        let mut rng = DetRng::new(7);
        let tr = poisson_trace(rate, n, SimTime::from_secs(86_400.0 * days), &mut rng);
        let expected = rate.job_rate(n) * 86_400.0 * days;
        let got = tr.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.25,
            "expected ~{expected}, got {got}"
        );
    }
}
