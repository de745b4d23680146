//! Periodic checkpointing policies and the restart-recovery launcher.

use cluster::{FailureInjector, Scheduler, SharedStore};
use dltrain::{JobSetup, RankTrainer, TrainConfig};
use jitckpt::checkpoint::{self, CkptKind};
use proxy::{DirectExecutor, Executor, Watchdog};
use simcore::cost::{CostModel, StorageTier};
use simcore::sync::Mutex;
use simcore::{RankId, SimError, SimResult, SimTime};
use simgpu::Gpu;
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
    /// Sharded-write tuning (shard size, worker pool, delta mode). Delta
    /// pays off especially here: periodic checkpoints of adjacent
    /// generations share most of their bytes.
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
    /// Total checkpoints written (all ranks).
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
    world: Arc<collectives::CommWorld>,
    clock_idx: usize,
    timeout: Duration,
) -> impl FnOnce() + Send {
    move || {
        world
            .clock()
            .advance(clock_idx, SimTime::from_secs(timeout.as_secs_f64()));
        world.abort_all();
    }
}

/// Classic periodic checkpointing with restart recovery: checkpoints on a
/// schedule; on failure the monitor kills the job and every rank restarts
/// from the newest complete checkpoint, re-executing everything since.
pub fn run_periodic_job(
    cfg: TrainConfig,
    cost: CostModel,
    injector: Arc<FailureInjector>,
    scheduler: Arc<Scheduler>,
    store: Arc<SharedStore>,
    pcfg: PeriodicConfig,
    target_iters: u64,
) -> SimResult<PeriodicOutcome> {
    let layout = cfg.layout;
    let n = layout.world_size();
    let (job, mut assignment) = scheduler.submit(layout)?;
    let mut final_losses: Vec<Vec<f32>> = vec![vec![f32::NAN; target_iters as usize]; n];
    let mut restarts = 0u32;
    let mut wasted_iterations = 0u64;
    let checkpoints_written = Arc::new(Mutex::new(0u64));
    let max_generations = injector.pending_count() as u32 + 2;
    let mut finish_times = vec![SimTime::ZERO; n];
    // Resolved once per (re)start: the plan the ranks restore from is
    // also what the wasted-work accounting below measures against.
    let mut resume = checkpoint::assemble(&store, job, &layout).ok();
    loop {
        let setup = JobSetup::build(layout, cost.clone(), cfg.ranks_per_node);
        let world = setup.world.clone();
        let clock = setup.clock.clone();
        let per_rank = setup.per_rank.clone();
        let gen_results = {
            let resume = resume.clone();
            let cfg = cfg.clone();
            let cost = cost.clone();
            let injector = injector.clone();
            let store = store.clone();
            let pcfg = pcfg.clone();
            let assignment_now = assignment.clone();
            let ckpts = checkpoints_written.clone();
            dltrain::run_ranks(n, move |i| {
                let rank = RankId(i as u32);
                // First, so that it drops last: peers learn that this rank
                // is gone only after its trainer, monitor and device are.
                let _departure = world.departure_guard(rank);
                let gpu = Gpu::new(assignment_now[i], cost.clone());
                let mut exec = DirectExecutor::new(rank, i, gpu, world.clone());
                let monitor = Watchdog::spawn(
                    pcfg.monitor_timeout,
                    monitor_action(world.clone(), i, pcfg.monitor_timeout),
                )?;
                exec.set_observer(monitor.observer());
                let mut tr = RankTrainer::new(exec, cfg.clone(), &per_rank[i], injector.clone())?;
                let mut resumed_from = 0u64;
                let coord = layout.coord(rank);
                if let Some(choice) = resume
                    .as_ref()
                    .and_then(|plan| plan.get(&(coord.stage, coord.part)))
                {
                    let (state, meta, _rstats) = jitckpt::restore::read_checkpoint_parallel(
                        store.as_ref(),
                        job,
                        choice.kind,
                        choice.iteration,
                        coord.stage,
                        coord.part,
                        choice.dp,
                        &jitckpt::restore::RestoreConfig::default(),
                    )?;
                    let t_restore = cost.process_restart
                        + cost.checkpoint_read(
                            meta.logical_bytes,
                            StorageTier::Disk,
                            cfg.ranks_per_node,
                        );
                    tr.exec.clock().advance(i, t_restore);
                    tr.restore(&state)?;
                    resumed_from = state.iteration;
                }
                let mut losses: Vec<(u64, f32)> = Vec::new();
                let mut failure: Option<SimError> = None;
                let mut reached = resumed_from;
                for it in resumed_from..target_iters {
                    match tr.train_step() {
                        Ok(l) => {
                            losses.push((it, l.unwrap_or(f32::NAN)));
                            reached = it + 1;
                        }
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                    // Periodic checkpoint at the schedule boundary.
                    if (it + 1) % pcfg.every_iters == 0 {
                        let state = tr.state_snapshot()?;
                        let t = blocking_overhead(
                            pcfg.kind,
                            state.logical_bytes,
                            &cost,
                            cfg.ranks_per_node,
                        );
                        tr.exec.clock().advance(i, t);
                        checkpoint::write_checkpoint_with(
                            &store,
                            job,
                            CkptKind::Periodic,
                            rank,
                            coord.stage,
                            coord.part,
                            coord.dp,
                            &state,
                            // Auto-size the pool for this state's shard
                            // count (same policy as the JIT writer).
                            &pcfg.shards.auto_sized_for(&state),
                        )?;
                        *ckpts.lock() += 1;
                    }
                }
                Ok::<_, SimError>((losses, failure, assignment_now[i], resumed_from, reached))
            })
        };
        let mut any_failure = false;
        let mut min_resumed = u64::MAX;
        let mut max_reached = 0u64;
        for (i, res) in gen_results.into_iter().enumerate() {
            let (losses, failure, gpu_id, resumed_from, reached) = res?;
            for (it, l) in losses {
                final_losses[i][it as usize] = l;
            }
            min_resumed = min_resumed.min(resumed_from);
            max_reached = max_reached.max(reached);
            finish_times[i] = clock.now(i);
            if let Some(err) = failure {
                any_failure = true;
                if err.is_hard() {
                    scheduler.report_gpu_failure(job, gpu_id)?;
                }
            }
        }
        if !any_failure {
            break;
        }
        restarts += 1;
        // Wasted work: everything since the checkpoint the next
        // generation will resume from gets re-executed.
        resume = checkpoint::assemble(&store, job, &layout).ok();
        let resume_at = resume
            .as_ref()
            .and_then(|plan| plan.values().next())
            .map_or(0, |c| c.iteration);
        wasted_iterations += max_reached.saturating_sub(resume_at);
        if restarts > max_generations {
            return Err(SimError::Protocol(format!(
                "periodic job did not converge after {restarts} restarts"
            )));
        }
        assignment = scheduler.reschedule(job)?;
    }
    let checkpoints_total = *checkpoints_written.lock();
    Ok(PeriodicOutcome {
        losses: final_losses,
        restarts,
        wasted_iterations,
        checkpoints_written: checkpoints_total,
        finish_times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::Cluster;
    use simcore::cost::GpuGeneration;
    use simcore::failure::{FailureKind, FailureSpec, Phase};

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
        // 2 ranks × 3 checkpoints (it 3, 6, 9).
        assert_eq!(out.checkpoints_written, 6);
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
        let gpu = Gpu::new(simcore::GpuId(1), CostModel::v100());
        let mut exec = DirectExecutor::new(RankId(1), 1, gpu, world.clone());
        let monitor = Watchdog::spawn(TIMEOUT, monitor_action(world.clone(), 1, TIMEOUT))?;
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
