//! Periodic checkpointing's benchmark shims and interval tuner. The job,
//! the mechanisms and their cost live in `jitckpt`: [`run_job`] under
//! [`Policy::Periodic`], and [`jitckpt::periodic`].

use cluster::{FailureInjector, Scheduler, SharedStore};
use dltrain::TrainConfig;
use jitckpt::checkpoint;
use jitckpt::launcher::{run_job, JobOutcome, Policy};
use simcore::cost::CostModel;
use simcore::SimResult;
use std::sync::Arc;
use std::time::Duration;

pub use jitckpt::periodic::{blocking_overhead, PolicyKind};

/// Configuration of a periodic-checkpointing run: [`Policy::Periodic`]
/// without its scheduler.
#[derive(Debug, Clone)]
pub struct PeriodicConfig {
    /// Mechanism.
    pub kind: PolicyKind,
    /// Checkpoint every `every_iters` iterations.
    pub every_iters: u64,
    /// The monitoring plane's hang timeout.
    pub monitor_timeout: Duration,
    /// Sharded-write tuning of each cell's checkpoint.
    pub shards: checkpoint::ShardConfig,
}

impl PeriodicConfig {
    /// A policy checkpointing every `k` iterations.
    pub fn every(kind: PolicyKind, k: u64) -> Self {
        PeriodicConfig {
            kind,
            every_iters: k,
            monitor_timeout: Duration::from_millis(1500),
            shards: checkpoint::ShardConfig::default(),
        }
    }
}

/// The outcome of [`run_periodic_job`]. A benchmark shim: it goes at
/// ROADMAP item 3 step 1, when the benchmark calls [`run_job`].
pub type PeriodicOutcome = JobOutcome;

/// [`run_job`] under [`Policy::Periodic`]. A benchmark shim: it goes at
/// ROADMAP item 3 step 1, when the benchmark calls [`run_job`].
pub fn run_periodic_job(
    cfg: TrainConfig,
    cost: CostModel,
    injector: Arc<FailureInjector>,
    scheduler: Arc<Scheduler>,
    store: Arc<SharedStore>,
    p: PeriodicConfig,
    iters: u64,
) -> SimResult<PeriodicOutcome> {
    let policy = Policy::Periodic {
        scheduler,
        kind: p.kind,
        every_iters: p.every_iters,
        monitor_timeout: p.monitor_timeout,
        shards: p.shards,
    };
    run_job(cfg, cost, injector, store, iters, policy)
}

/// CheckFreq-style frequency auto-tuning: converts the analytically
/// optimal checkpoint frequency (eq. 3) into a whole number of iterations
/// given the measured minibatch time — the paper's baseline tunes its
/// frequency at run time from profiled values. Public for ROADMAP item
/// 8, which runs the periodic baseline at this c* interval.
pub fn tuned_interval_iters(
    kind: PolicyKind,
    state_bytes: u64,
    cost: &CostModel,
    ranks_per_node: usize,
    n_gpus: usize,
    failures_per_gpu_day: f64,
    minibatch_secs: f64,
) -> u64 {
    let o = blocking_overhead(kind, state_bytes, cost, ranks_per_node).as_secs();
    let p = jitckpt::analysis::JobParams::new(o, failures_per_gpu_day, 0.0, n_gpus, minibatch_secs);
    let c = jitckpt::analysis::optimal_frequency(&p); // per second
    let interval_secs = 1.0 / c.max(1e-12);
    (interval_secs / minibatch_secs.max(1e-9)).round().max(1.0) as u64
}

#[cfg(test)]
mod tuning_tests {
    use super::*;

    #[test]
    fn tuned_interval_matches_paper_scale() {
        // BERT-L-PT-ish: ~4.7 GB/rank, 0.418 s minibatch, N = 1024,
        // f = 2/day/992 → paper says ~11 minutes between checkpoints,
        // i.e. a few thousand minibatches.
        let cost = CostModel::v100();
        let iters = tuned_interval_iters(
            PolicyKind::PcDisk,
            (4.7e9) as u64,
            &cost,
            8,
            1024,
            2.0 / 992.0,
            0.418,
        );
        assert!((500..10_000).contains(&iters), "{iters}");
    }

    #[test]
    fn tuned_interval_shrinks_with_more_gpus() {
        let cost = CostModel::v100();
        let args = |n| tuned_interval_iters(PolicyKind::PcMem, 4 << 30, &cost, 8, n, 2e-3, 0.4);
        assert!(args(8192) < args(64), "more GPUs → checkpoint more often");
    }

    #[test]
    fn cheaper_mechanisms_tune_to_higher_frequency() {
        let cost = CostModel::v100();
        let disk = tuned_interval_iters(PolicyKind::PcDisk, 8 << 30, &cost, 8, 1024, 2e-3, 0.5);
        let cf = tuned_interval_iters(PolicyKind::CheckFreq, 8 << 30, &cost, 8, 1024, 2e-3, 0.5);
        assert!(
            cf < disk,
            "CheckFreq's lower stall affords more checkpoints"
        );
    }
}
