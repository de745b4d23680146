//! Phase-precise failure injection.
//!
//! Deterministic tests need failures that fire at an exact (iteration,
//! phase, rank) coordinate; the scaling analysis needs randomized Poisson
//! traces. [`FailureInjector`] holds a scripted schedule shared between
//! the harness and all rank threads; each rank polls it at phase
//! boundaries and applies the fault to its own device or communicator
//! (that is also where real faults manifest — at the next device/NCCL
//! call).

use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::sync::Mutex;
use simcore::RankId;
use std::sync::Arc;

/// Shared, consumable schedule of scripted failures.
#[derive(Debug)]
pub struct FailureInjector {
    pending: Mutex<Vec<FailureSpec>>,
    fired: Mutex<Vec<FailureSpec>>,
}

impl FailureInjector {
    /// Creates an empty injector (no failures ever fire).
    pub fn none() -> Arc<Self> {
        FailureInjector::with_specs(Vec::new())
    }

    /// Creates an injector with a scripted schedule.
    pub fn with_specs(specs: Vec<FailureSpec>) -> Arc<Self> {
        Arc::new(FailureInjector {
            pending: Mutex::new(specs),
            fired: Mutex::new(Vec::new()),
        })
    }

    /// Adds a failure to the schedule at runtime.
    pub fn schedule(&self, spec: FailureSpec) {
        self.pending.lock().push(spec);
    }

    /// Polled by rank `rank` entering `phase` of `iteration`: returns the
    /// fault to apply, if one is scheduled. Consumes the spec (one-shot).
    pub fn poll(&self, rank: RankId, iteration: u64, phase: Phase) -> Option<FailureKind> {
        let mut pending = self.pending.lock();
        let idx = pending
            .iter()
            .position(|s| s.rank == rank && s.iteration == iteration && s.phase == phase)?;
        let spec = pending.remove(idx);
        self.fired.lock().push(spec);
        Some(spec.kind)
    }

    /// Number of failures not yet fired.
    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// Failures that have fired, in firing order.
    pub fn fired(&self) -> Vec<FailureSpec> {
        self.fired.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_at_the_scripted_coordinate() {
        let inj = FailureInjector::with_specs(vec![FailureSpec::new(
            3,
            Phase::Backward,
            RankId(1),
            FailureKind::StickyCuda,
        )]);
        assert_eq!(inj.poll(RankId(1), 3, Phase::Forward), None);
        assert_eq!(inj.poll(RankId(0), 3, Phase::Backward), None);
        assert_eq!(inj.poll(RankId(1), 2, Phase::Backward), None);
        assert_eq!(
            inj.poll(RankId(1), 3, Phase::Backward),
            Some(FailureKind::StickyCuda)
        );
        // Consumed.
        assert_eq!(inj.poll(RankId(1), 3, Phase::Backward), None);
        assert_eq!(inj.pending_count(), 0);
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn multiple_failures_fire_independently() {
        let inj = FailureInjector::with_specs(vec![
            FailureSpec::new(1, Phase::Forward, RankId(0), FailureKind::TransientNetwork),
            FailureSpec::new(5, Phase::OptimizerStep, RankId(2), FailureKind::GpuHardware),
        ]);
        assert_eq!(
            inj.poll(RankId(0), 1, Phase::Forward),
            Some(FailureKind::TransientNetwork)
        );
        assert_eq!(inj.pending_count(), 1);
        assert_eq!(
            inj.poll(RankId(2), 5, Phase::OptimizerStep),
            Some(FailureKind::GpuHardware)
        );
        assert_eq!(inj.pending_count(), 0);
    }

    #[test]
    fn runtime_scheduling_works() {
        let inj = FailureInjector::none();
        assert_eq!(inj.poll(RankId(0), 0, Phase::Forward), None);
        inj.schedule(FailureSpec::new(
            0,
            Phase::AllReduce,
            RankId(0),
            FailureKind::DriverCorruption,
        ));
        assert_eq!(
            inj.poll(RankId(0), 0, Phase::AllReduce),
            Some(FailureKind::DriverCorruption)
        );
    }
}

/// Converts a Poisson failure trace into scripted specs against a job's
/// iteration schedule, given the minibatch duration: each trace event
/// lands in the iteration running at its timestamp, at a phase drawn from
/// the event's fault class (transient network faults manifest at the
/// all-reduce; everything else at a uniformly chosen phase). Public for
/// ROADMAP item 8's Poisson-trace fault schedules.
pub fn specs_from_trace(
    trace: &[simcore::failure::TraceEvent],
    minibatch_secs: f64,
    rng: &mut simcore::rng::DetRng,
) -> Vec<FailureSpec> {
    trace
        .iter()
        .map(|ev| {
            let iteration = (ev.at.as_secs() / minibatch_secs.max(1e-9)) as u64;
            let phase = match ev.kind {
                FailureKind::TransientNetwork => Phase::AllReduce,
                _ => {
                    let all = [
                        Phase::Forward,
                        Phase::Backward,
                        Phase::AllReduce,
                        Phase::OptimizerStep,
                    ];
                    all[rng.below(all.len() as u64) as usize]
                }
            };
            FailureSpec::new(iteration, phase, ev.rank, ev.kind)
        })
        .collect()
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use simcore::failure::{poisson_trace, FailureRate};
    use simcore::rng::DetRng;
    use simcore::SimTime;

    #[test]
    fn trace_conversion_is_deterministic_and_ordered() {
        let rate = FailureRate::per_gpu_per_day(0.2);
        let mut rng = DetRng::new(5);
        let trace = poisson_trace(rate, 16, SimTime::from_secs(86_400.0), &mut rng);
        assert!(!trace.is_empty());
        let mut r1 = DetRng::new(9);
        let mut r2 = DetRng::new(9);
        let s1 = specs_from_trace(&trace, 0.5, &mut r1);
        let s2 = specs_from_trace(&trace, 0.5, &mut r2);
        assert_eq!(s1, s2);
        for w in s1.windows(2) {
            assert!(w[0].iteration <= w[1].iteration);
        }
        // Transient faults always land at the all-reduce.
        for s in &s1 {
            if s.kind == FailureKind::TransientNetwork {
                assert_eq!(s.phase, Phase::AllReduce);
            }
        }
    }
}
