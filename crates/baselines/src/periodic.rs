//! Periodic checkpointing policies and the periodic job, which runs on
//! the restart launcher ([`jitckpt::launcher`]).

use cluster::scheduler::CheckpointAck;
use cluster::{FailureInjector, Scheduler, SharedStore};
use collectives::CommWorld;
use dltrain::{RankTrainer, TrainConfig};
use jitckpt::checkpoint::{self, CkptKind, ShardPlan};
use jitckpt::launcher::run_restart_job;
use jitckpt::JitUserConfig;
use proxy::{DirectExecutor, Executor};
use simcore::cost::{CostModel, StorageTier};
use simcore::{SimError, SimResult, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Periodic checkpointing mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Blocking write to persistent disk (`torch.save`).
    PcDisk,
    /// Blocking write to host memory (tmpfs), asynchronous persistence.
    PcMem,
    /// CheckFreq-style pipelined snapshotting.
    CheckFreq,
    /// Low-frequency (once/day) checkpointing to pair with JIT.
    PcDaily,
}

impl PolicyKind {
    /// Human-readable label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::PcDisk => "PC_disk",
            PolicyKind::PcMem => "PC_mem",
            PolicyKind::CheckFreq => "CheckFreq",
            PolicyKind::PcDaily => "PC_1/day",
        }
    }

    /// All policies, for sweeps.
    pub fn all() -> [PolicyKind; 4] {
        [
            PolicyKind::PcDisk,
            PolicyKind::PcMem,
            PolicyKind::CheckFreq,
            PolicyKind::PcDaily,
        ]
    }
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

/// Configuration of a periodic-checkpointing run.
#[derive(Debug, Clone)]
pub struct PeriodicConfig {
    /// Mechanism.
    pub kind: PolicyKind,
    /// Checkpoint every `every_iters` iterations.
    pub every_iters: u64,
    /// Hang-detection timeout of the job monitoring plane: charged to the
    /// parked rank's virtual clock when a hang is detected, and the
    /// real-time deadline for hangs the collective layer cannot prove.
    pub monitor_timeout: Duration,
    /// Sharded-write tuning of each cell's checkpoint (shard size,
    /// worker pool, delta mode). On a live job delta mode reuses
    /// nothing: every optimizer step rewrites every parameter and moment,
    /// so no shard of one generation equals the last one's.
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

/// Result of a periodic-checkpointing job run.
#[derive(Debug)]
pub struct PeriodicOutcome {
    /// Per-rank loss trajectories.
    pub losses: Vec<Vec<f32>>,
    /// Restarts performed.
    pub restarts: u32,
    /// Total iterations re-executed after restarts (the wasted work the
    /// paper's analysis charges as half the checkpoint interval per
    /// failure, per GPU).
    pub wasted_iterations: u64,
    /// Checkpoints written: one per cell and scheduled boundary, by the
    /// cell's dp-0 replica (data parallelism replicates the state, so the
    /// other replicas write nothing).
    pub checkpoints_written: u64,
    /// Per-rank virtual completion time of the final generation.
    pub finish_times: Vec<SimTime>,
}

/// The job monitoring plane's hang action: kill the job (no checkpoint —
/// that is the difference from JIT). The rank at clock slot `clock_idx`
/// sat in the hung collective for `timeout` first; that is charged to its
/// virtual clock here, once, whether the monitor waited it out in real
/// time or the collective layer proved the hang at once.
fn monitor_action(
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

/// Classic periodic checkpointing with restart recovery: checkpoints on a
/// schedule; on failure the monitor kills the job and every rank restarts
/// from the newest complete checkpoint, re-executing everything since.
/// Runs on the restart launcher, with the monitor's kill as the hang
/// action and the scheduled write as the step hook: each cell's dp-0
/// replica writes, every replica is charged the blocking stall, and every
/// rank restores its cell's one checkpoint from the store. A zero
/// interval is refused before the job is submitted.
pub fn run_periodic_job(
    cfg: TrainConfig,
    cost: CostModel,
    injector: Arc<FailureInjector>,
    scheduler: Arc<Scheduler>,
    store: Arc<SharedStore>,
    pcfg: PeriodicConfig,
    target_iters: u64,
) -> SimResult<PeriodicOutcome> {
    let PeriodicConfig {
        kind,
        every_iters,
        monitor_timeout,
        shards,
    } = pcfg;
    if every_iters == 0 {
        return Err(SimError::Protocol(
            "PeriodicConfig::every_iters must be at least 1".into(),
        ));
    }
    let lib = JitUserConfig {
        watchdog_timeout: monitor_timeout,
        tier: StorageTier::Disk,
        shards,
        stream_recovery: false,
        ..JitUserConfig::default()
    };
    let written = Arc::new(AtomicU64::new(0));
    let (layout, rpn) = (cfg.layout, cfg.ranks_per_node);
    let (counts, writes_to, charges) = (written.clone(), store.clone(), cost.clone());
    let arm = move |job, world: &Arc<CommWorld>, exec: &DirectExecutor| {
        let (rank, i) = (exec.rank(), exec.clock_idx());
        let coord = layout.coord(rank);
        let (store, cost, written) = (writes_to.clone(), charges.clone(), counts.clone());
        let mut at_start = true;
        let write_on_schedule = move |tr: &mut RankTrainer<DirectExecutor>| {
            // A generation starts at iteration 0 or at the checkpoint it
            // resumed from: nothing to write there.
            if std::mem::take(&mut at_start) || !tr.iteration().is_multiple_of(every_iters) {
                return Ok(());
            }
            // Data parallelism replicates the state, so a cell's dp-0
            // replica writes it for the cell, encoded straight from the
            // device and written once it is released. A synchronous
            // checkpoint ends in a barrier: every replica pays the stall.
            let (stage, part, dp) = (coord.stage, coord.part, coord.dp);
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
                        shards.shard_bytes,
                    )
                });
                (state.logical_bytes, plan)
            })?;
            let t = blocking_overhead(kind, logical_bytes, &cost, rpn);
            tr.exec.clock().advance(i, t);
            if let Some(plan) = plan {
                checkpoint::write_encoded(&*store, plan, &shards)?;
                written.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        };
        (
            monitor_action(world.clone(), i, monitor_timeout),
            write_on_schedule,
        )
    };
    let out = run_restart_job(
        cfg,
        cost,
        injector,
        scheduler,
        store,
        lib,
        target_iters,
        arm,
    )?;
    Ok(PeriodicOutcome {
        losses: out.losses,
        restarts: out.restarts,
        wasted_iterations: out.wasted_iterations,
        checkpoints_written: written.load(Ordering::Relaxed),
        finish_times: out.finish_times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::Cluster;
    use dltrain::JobSetup;
    use proxy::Watchdog;
    use simcore::cost::GpuGeneration;
    use simcore::failure::{FailureKind, FailureSpec, Phase};
    use simcore::{GpuId, RankId};
    use simgpu::Gpu;

    fn scheduler() -> Arc<Scheduler> {
        Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)))
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
        let cfg = dltrain::TrainConfig::tiny_dp(2);
        let out = run_periodic_job(
            cfg,
            CostModel::v100(),
            FailureInjector::none(),
            scheduler(),
            Arc::new(SharedStore::new()),
            PeriodicConfig::every(PolicyKind::PcDisk, 3),
            9,
        )?;
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
        let cfg = dltrain::TrainConfig::tiny_dp(2);
        let injector = FailureInjector::with_specs(vec![FailureSpec::new(
            7,
            Phase::Backward,
            RankId(1),
            FailureKind::StickyCuda,
        )]);
        let out = run_periodic_job(
            cfg.clone(),
            CostModel::v100(),
            injector,
            scheduler(),
            Arc::new(SharedStore::new()),
            PeriodicConfig::every(PolicyKind::PcMem, 3),
            10,
        )?;
        assert_eq!(out.restarts, 1);
        assert!(out.wasted_iterations >= 1, "{}", out.wasted_iterations);
        // Semantics preserved: the resumed trajectory is complete & finite.
        assert!(out.losses[0].iter().all(|l| l.is_finite()));
        // And equals a failure-free run bit-for-bit.
        let clean = run_periodic_job(
            cfg,
            CostModel::v100(),
            FailureInjector::none(),
            scheduler(),
            Arc::new(SharedStore::new()),
            PeriodicConfig::every(PolicyKind::PcMem, 3),
            10,
        )?;
        assert_eq!(out.losses, clean.losses);
        Ok(())
    }

    /// A timeout no test could wait out: detection has to come from the
    /// proof of the hang.
    const TIMEOUT: Duration = Duration::from_secs(60);

    #[test]
    fn proven_hang_restarts_without_waiting_out_the_timeout() -> SimResult<()> {
        let run = |faults: Vec<FailureSpec>| {
            run_periodic_job(
                dltrain::TrainConfig::tiny_dp(2),
                CostModel::v100(),
                FailureInjector::with_specs(faults),
                scheduler(),
                Arc::new(SharedStore::new()),
                PeriodicConfig {
                    monitor_timeout: TIMEOUT,
                    ..PeriodicConfig::every(PolicyKind::PcMem, 3)
                },
                8,
            )
        };
        let started = std::time::Instant::now();
        let faulty = run(vec![FailureSpec::new(
            4,
            Phase::Backward,
            RankId(0),
            FailureKind::StickyCuda,
        )])?;
        assert!(started.elapsed() < TIMEOUT / 2, "{:?}", started.elapsed());
        assert_eq!(faulty.restarts, 1);
        let clean = run(Vec::new())?;
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
        let monitor = Watchdog::spawn(TIMEOUT, move || {
            kill();
        })?;
        exec.set_observer(monitor.observer());
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
        let cfg = dltrain::TrainConfig::tiny_dp(2);
        let injector = FailureInjector::with_specs(vec![FailureSpec::new(
            1,
            Phase::Forward,
            RankId(0),
            FailureKind::GpuHardware,
        )]);
        let out = run_periodic_job(
            cfg,
            CostModel::v100(),
            injector,
            scheduler(),
            Arc::new(SharedStore::new()),
            PeriodicConfig::every(PolicyKind::PcDisk, 5),
            6,
        )?;
        assert_eq!(out.restarts, 1);
        assert!(out.losses[0].iter().all(|l| l.is_finite()));
        Ok(())
    }

    #[test]
    fn zero_interval_is_refused_before_the_job_is_submitted() -> SimResult<()> {
        let cfg = dltrain::TrainConfig::tiny_dp(2);
        let scheduler = scheduler();
        let err = run_periodic_job(
            cfg.clone(),
            CostModel::v100(),
            FailureInjector::none(),
            scheduler.clone(),
            Arc::new(SharedStore::new()),
            PeriodicConfig::every(PolicyKind::PcMem, 0),
            4,
        )
        .err();
        assert!(
            matches!(&err, Some(SimError::Protocol(m)) if m.contains("every_iters")),
            "{err:?}"
        );
        // Nothing was submitted: the next job is still the first.
        assert_eq!(scheduler.submit(cfg.layout)?.0, simcore::JobId(0));
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
        let cfg = dltrain::TrainConfig::tiny_dp(8);
        let run = |cluster: Cluster, faults: Vec<FailureSpec>| {
            run_periodic_job(
                cfg.clone(),
                CostModel::v100(),
                FailureInjector::with_specs(faults),
                Arc::new(Scheduler::new(cluster)),
                Arc::new(SharedStore::new()),
                PeriodicConfig::every(PolicyKind::PcMem, 100),
                3,
            )
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

/// CheckFreq-style frequency auto-tuning: converts the analytically
/// optimal checkpoint frequency (eq. 3) into a whole number of iterations
/// given the measured minibatch time — the paper's baseline tunes its
/// frequency at run time from profiled values.
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
