//! Periodic checkpointing (§5, §6.3): the mechanisms, their blocking
//! cost, and the monitor's hang action and scheduled-write step hook the
//! launcher runs [`Policy::Periodic`](crate::launcher::Policy::Periodic)
//! with. Every mechanism writes the JIT checkpoint format, so a restart
//! takes the newest complete checkpoint of either kind (JIT + PC).

use crate::checkpoint::{self, CkptKind, ShardConfig, ShardPlan};
use cluster::scheduler::CheckpointAck;
use cluster::SharedStore;
use collectives::CommWorld;
use dltrain::RankTrainer;
use proxy::{DirectExecutor, Executor};
use simcore::cost::{CostModel, StorageTier};
use simcore::layout::GridCoord;
use simcore::{JobId, SimResult, SimTime};
use std::sync::Arc;
use std::time::Duration;

/// Periodic checkpointing mechanism (§6.3), in increasing sophistication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// `torch.save()` to persistent disk in the critical path: the job
    /// stalls for serialization, the GPU→host copy and the disk write.
    PcDisk,
    /// Nebula-style: a blocking write to a tmpfs mount (host memory),
    /// drained to persistent storage asynchronously.
    PcMem,
    /// CheckFreq's pipelined snapshotting: the GPU→host copy overlaps the
    /// next iteration's forward pass, so only the rest stalls the job.
    CheckFreq,
    /// Low-frequency (once a day) checkpointing, run alongside JIT
    /// checkpointing for catastrophic multi-node failures.
    PcDaily,
}

/// Fraction of the GPU→host snapshot that CheckFreq cannot overlap with
/// the next iteration's compute (its measured stall is roughly half of a
/// blocking in-memory checkpoint — Table 3's CheckFreq ≈ PC_mem / 2).
const CHECKFREQ_STALL_FRACTION: f64 = 0.5;

/// The *blocking* (critical-path) cost of one checkpoint of
/// `state_bytes` under a policy — the `o` that enters the §5 analysis.
pub fn blocking_overhead(
    kind: PolicyKind,
    state_bytes: u64,
    cost: &CostModel,
    ranks_per_node: usize,
) -> SimTime {
    match kind {
        PolicyKind::PcDisk | PolicyKind::PcDaily => {
            cost.checkpoint_write(state_bytes, StorageTier::Disk, ranks_per_node)
        }
        PolicyKind::PcMem => {
            cost.checkpoint_write(state_bytes, StorageTier::HostMemory, ranks_per_node)
        }
        PolicyKind::CheckFreq => {
            let full = cost.checkpoint_write(state_bytes, StorageTier::HostMemory, ranks_per_node);
            SimTime::from_secs(full.as_secs() * CHECKFREQ_STALL_FRACTION)
        }
    }
}

/// The job monitoring plane's hang action: kill the job (no checkpoint —
/// that is the difference from JIT). A real monitor lets the rank at
/// clock slot `clock_idx` sit in the hung collective for `timeout` first;
/// that is charged to its virtual clock here, once, on the proof of the
/// hang.
pub(crate) fn monitor_action(
    world: Arc<CommWorld>,
    clock_idx: usize,
    timeout: Duration,
) -> impl FnOnce() -> Option<(CheckpointAck, SimTime)> + Send {
    move || {
        world
            .clock()
            .advance(clock_idx, SimTime::from_secs(timeout.as_secs_f64()));
        world.abort_all();
        None
    }
}

/// A periodic job's writes: what, how often, where, and at what price.
#[derive(Clone)]
pub(crate) struct Schedule {
    pub(crate) kind: PolicyKind,
    pub(crate) every_iters: u64,
    pub(crate) shards: ShardConfig,
    pub(crate) ranks_per_node: usize,
    pub(crate) store: Arc<SharedStore>,
    pub(crate) cost: CostModel,
}

impl Schedule {
    /// The step hook of the rank of `exec` at `coord`: at every scheduled
    /// boundary, each cell's dp-0 replica writes the cell's checkpoint
    /// and every replica is charged the blocking stall. It reports
    /// whether this rank wrote.
    pub(crate) fn step_hook(
        &self,
        job: JobId,
        exec: &DirectExecutor,
        coord: GridCoord,
    ) -> impl FnMut(&mut RankTrainer<DirectExecutor>) -> SimResult<bool> {
        let (rank, i) = (exec.rank(), exec.clock_idx());
        let sched = self.clone();
        let mut at_start = true;
        move |tr: &mut RankTrainer<DirectExecutor>| {
            // A generation starts at iteration 0 or at the checkpoint it
            // resumed from: nothing to write there.
            if std::mem::take(&mut at_start) || !tr.iteration().is_multiple_of(sched.every_iters) {
                return Ok(false);
            }
            // Data parallelism replicates the state, so a cell's dp-0
            // replica writes it for the cell, encoded straight from the
            // device and written once it is released. A synchronous
            // checkpoint ends in a barrier: every replica pays the stall.
            let GridCoord { dp, stage, part } = coord;
            let (logical_bytes, plan) = tr.with_state(|state| {
                let plan = (dp == 0).then(|| {
                    ShardPlan::encode(
                        job,
                        CkptKind::Periodic,
                        rank,
                        stage,
                        part,
                        dp,
                        state,
                        sched.shards.shard_bytes,
                    )
                });
                (state.logical_bytes, plan)
            })?;
            let t = blocking_overhead(sched.kind, logical_bytes, &sched.cost, sched.ranks_per_node);
            tr.exec.clock().advance(i, t);
            let Some(plan) = plan else {
                return Ok(false);
            };
            checkpoint::write_encoded(&*sched.store, plan, &sched.shards)?;
            Ok(true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launcher::{run_job, HangObserver, JobOutcome, Policy};
    use cluster::{Cluster, FailureInjector, Scheduler};
    use dltrain::JobSetup;
    use simcore::cost::GpuGeneration;
    use simcore::failure::{FailureKind, FailureSpec, Phase};
    use simcore::{GpuId, RankId, SimError};
    use simgpu::Gpu;

    fn scheduler() -> Arc<Scheduler> {
        Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)))
    }

    /// `kind` every `k` iterations, with the monitor's default timeout.
    fn every(scheduler: Arc<Scheduler>, kind: PolicyKind, k: u64) -> Policy {
        Policy::Periodic {
            scheduler,
            kind,
            every_iters: k,
            monitor_timeout: Duration::from_millis(1500),
            shards: ShardConfig::default(),
        }
    }

    /// A periodic `tiny_dp(dp)` job of `iters` iterations under `policy`.
    fn run(
        dp: usize,
        faults: Vec<FailureSpec>,
        policy: Policy,
        iters: u64,
    ) -> SimResult<JobOutcome> {
        run_job(
            dltrain::TrainConfig::tiny_dp(dp),
            CostModel::v100(),
            FailureInjector::with_specs(faults),
            Arc::new(SharedStore::new()),
            iters,
            policy,
        )
    }

    #[test]
    fn blocking_overheads_are_ordered() {
        let cost = CostModel::v100();
        let bytes = 4 << 30;
        let disk = blocking_overhead(PolicyKind::PcDisk, bytes, &cost, 8);
        let mem = blocking_overhead(PolicyKind::PcMem, bytes, &cost, 8);
        let cf = blocking_overhead(PolicyKind::CheckFreq, bytes, &cost, 8);
        assert!(disk > mem, "disk slower than tmpfs");
        assert!(mem > cf, "CheckFreq stalls less than blocking PC_mem");
    }

    #[test]
    fn failure_free_periodic_run_writes_checkpoints() -> SimResult<()> {
        let out = run(2, Vec::new(), every(scheduler(), PolicyKind::PcDisk, 3), 9)?;
        assert_eq!(out.restarts, 0);
        assert_eq!(out.wasted_iterations, 0);
        // One cell, written by its dp-0 replica, at iterations 3, 6 and
        // 9: 1 × 3 (the dp-1 replica writes none).
        assert_eq!(out.checkpoints_written, 3);
        assert!(out.losses[0].iter().all(|l| l.is_finite()));
        Ok(())
    }

    #[test]
    fn periodic_restart_replays_lost_iterations() -> SimResult<()> {
        // Failure at iteration 7 with checkpoints every 3 → resume from 6,
        // wasting ~1-2 iterations of work (vs JIT's sub-minibatch cost).
        let fault = FailureSpec::new(7, Phase::Backward, RankId(1), FailureKind::StickyCuda);
        let out = run(2, vec![fault], every(scheduler(), PolicyKind::PcMem, 3), 10)?;
        assert_eq!(out.restarts, 1);
        assert!(out.wasted_iterations >= 1, "{}", out.wasted_iterations);
        // Semantics preserved: the resumed trajectory is complete & finite.
        assert!(out.losses[0].iter().all(|l| l.is_finite()));
        // And equals a failure-free run bit-for-bit.
        let clean = run(2, Vec::new(), every(scheduler(), PolicyKind::PcMem, 3), 10)?;
        assert_eq!(out.losses, clean.losses);
        Ok(())
    }

    /// A timeout no test could wait out: detection has to come from the
    /// proof of the hang.
    const TIMEOUT: Duration = Duration::from_secs(60);

    #[test]
    fn proven_hang_restarts_without_waiting_out_the_timeout() -> SimResult<()> {
        let patient = || Policy::Periodic {
            scheduler: scheduler(),
            kind: PolicyKind::PcMem,
            every_iters: 3,
            monitor_timeout: TIMEOUT,
            shards: ShardConfig::default(),
        };
        let started = std::time::Instant::now();
        let fault = FailureSpec::new(4, Phase::Backward, RankId(0), FailureKind::StickyCuda);
        let faulty = run(2, vec![fault], patient(), 8)?;
        assert!(started.elapsed() < TIMEOUT / 2, "{:?}", started.elapsed());
        assert_eq!(faulty.restarts, 1);
        let clean = run(2, Vec::new(), patient(), 8)?;
        assert_eq!(clean.restarts, 0);
        assert_eq!(faulty.losses, clean.losses);
        Ok(())
    }

    #[test]
    fn proven_hang_charges_the_monitor_timeout_before_the_abort() -> SimResult<()> {
        let cfg = dltrain::TrainConfig::tiny_dp(2);
        let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
        let (world, clock) = (setup.world.clone(), setup.clock.clone());
        let gpu = Gpu::new(GpuId(1), CostModel::v100());
        let mut exec = DirectExecutor::new(RankId(1), 1, gpu, world.clone());
        let kill = monitor_action(world.clone(), 1, TIMEOUT);
        let monitor = HangObserver::new(move || {
            kill();
        });
        exec.set_observer(monitor.clone());
        let global = exec.register_comm(setup.per_rank[1].global.clone());
        // Rank 0's thread is gone; rank 1 walks into a barrier with it and
        // is released by its own monitor.
        drop(world.departure_guard(RankId(0)));
        let parked_at = clock.now(1);
        assert_eq!(exec.barrier(global), Err(SimError::CollectiveAborted));
        assert!(monitor.fired());
        let charged = parked_at + SimTime::from_secs(TIMEOUT.as_secs_f64());
        assert_eq!(clock.now(1), charged);
        Ok(())
    }

    #[test]
    fn failure_before_first_checkpoint_restarts_from_scratch() -> SimResult<()> {
        let fault = FailureSpec::new(1, Phase::Forward, RankId(0), FailureKind::GpuHardware);
        let out = run(2, vec![fault], every(scheduler(), PolicyKind::PcDisk, 5), 6)?;
        assert_eq!(out.restarts, 1);
        assert!(out.losses[0].iter().all(|l| l.is_finite()));
        Ok(())
    }

    #[test]
    fn zero_interval_is_refused_before_the_job_is_submitted() -> SimResult<()> {
        let scheduler = scheduler();
        let err = run(
            2,
            Vec::new(),
            every(scheduler.clone(), PolicyKind::PcMem, 0),
            4,
        )
        .err();
        assert!(
            matches!(&err, Some(SimError::Protocol(m)) if m.contains("every_iters")),
            "{err:?}"
        );
        // Nothing was submitted: the next job is still the first.
        let layout = dltrain::TrainConfig::tiny_dp(2).layout;
        assert_eq!(scheduler.submit(layout)?.0, simcore::JobId(0));
        Ok(())
    }

    #[test]
    fn restarted_generation_is_charged_its_placement() -> SimResult<()> {
        // Eight ranks fill node 0 of two. A hardware failure on rank 3
        // takes GPU 3, and first-fit places the restarted job on GPUs 0–2,
        // 4–7 and 8: one rank on node 1, so every data-parallel ring
        // crosses nodes. No checkpoint precedes the failure, so the
        // restarted generation is a fresh run on that placement and must
        // cost what a fault-free job placed there does.
        let run = |cluster: Cluster, faults: Vec<FailureSpec>| {
            let policy = every(Arc::new(Scheduler::new(cluster)), PolicyKind::PcMem, 100);
            run(8, faults, policy, 3)
        };
        let two_nodes = || Cluster::new(GpuGeneration::V100_32G, 2);
        let fault = FailureSpec::new(1, Phase::Forward, RankId(3), FailureKind::GpuHardware);
        let restarted = run(two_nodes(), vec![fault])?;
        assert_eq!(restarted.restarts, 1);
        let mut without_gpu_3 = two_nodes();
        without_gpu_3.mark_gpu_failed(GpuId(3));
        let placed = run(without_gpu_3, Vec::new())?;
        let on_one_node = run(two_nodes(), Vec::new())?;
        assert!(placed.finish_times[0] > on_one_node.finish_times[0]);
        assert_eq!(restarted.finish_times, placed.finish_times);
        assert_eq!(restarted.losses, on_one_node.losses);
        Ok(())
    }
}
