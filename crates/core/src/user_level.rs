//! User-level just-in-time checkpointing (§3).
//!
//! The job links a small library and provides a `save_checkpoint`
//! function; everything else is automatic:
//!
//! 1. the interception layer watches the `cudaEventRecord` /
//!    `cudaStreamWaitEvent` traffic around collectives (here: collective
//!    tickets) and detects hangs (§3.1). A real rank has a watchdog
//!    thread wait a timeout out to call a collective hung; here the
//!    collective layer proves the hang the moment the failed rank's
//!    thread has returned (or its peer is stuck on it), and the timeout
//!    is charged to the parked rank's virtual clock — the paper's
//!    detection cost at no wall-clock cost. Nothing runs on a timer: a
//!    wait nobody can prove hung is not a hang;
//! 2. on a hang, the rank's collective observer calls `save_checkpoint`
//!    from *inside* the hung collective, while the training thread stays
//!    parked in it — the simulation analogue of the paper's
//!    release-the-GIL + new-CUDA-stream dance (§3.2);
//! 3. the checkpoint goes to a rank-dependent path with a metadata
//!    completion marker, the scheduler is acked, and the job is torn down
//!    once the acks cover every cell or nobody is left to ack;
//! 4. on restart, each rank restores the checkpoint of *any* data-parallel
//!    replica of its cell (§3.3, [`crate::checkpoint::jit_get_checkpoint_path`]),
//!    streamed from the replica that wrote it or read from the store.
//!
//! This module is the library: its configuration, its hang action and
//! the iteration register its step hook keeps. The loop around them is
//! [`run_job`] under [`Policy::UserLevel`].

use crate::checkpoint::{self, CkptKind, ShardPlan};
use crate::launcher::{run_job, JobOutcome, Policy};
use cluster::scheduler::CheckpointAck;
use cluster::{FailureInjector, Scheduler, SharedStore};
use dltrain::TrainConfig;
use proxy::{DirectExecutor, Executor};
use simcore::cost::{CostModel, StorageTier};
use simcore::layout::{GridCoord, ParallelLayout};
use simcore::{JobId, RankId, SimResult, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the user-level JIT library: its detection charge,
/// checkpoint writes and restore legs. The periodic baseline runs the
/// restart launcher under one too, with streaming off.
#[derive(Debug, Clone)]
pub struct JitUserConfig {
    /// The paper's watchdog hang timeout, in virtual time only: what a
    /// proven hang costs the parked rank before its checkpoint is written.
    /// No real-time deadline comes with it; a hang is detected when the
    /// collective layer proves it.
    pub watchdog_timeout: Duration,
    /// Storage tier JIT checkpoints are written to.
    pub tier: StorageTier,
    /// Sharded-write tuning (shard size, worker pool, delta mode).
    pub shards: checkpoint::ShardConfig,
    /// Restore non-owner replicas by streaming state rank-to-rank from
    /// the replica that owns the chosen checkpoint ([`crate::stream`]),
    /// falling back to the store on any stream failure. Off = every
    /// rank pays the store round-trip (the §3.3 baseline).
    pub stream_recovery: bool,
    /// Real-time patience per stream frame before declaring the sending
    /// replica dead and falling back to the store: the last resort, since
    /// a sender that departed, or is stuck in a provably hung wait, ends
    /// the wait at once.
    pub stream_patience: Duration,
    /// Fault injection: when set, the streaming replica "dies" after
    /// emitting this many frames of each recovery stream (see
    /// [`crate::stream::send_state_truncated`]) and cuts the stream, so
    /// each receiver's wait ends on the cut at once and it falls back to
    /// the store. `None` = healthy sender.
    pub stream_truncate: Option<usize>,
}

impl Default for JitUserConfig {
    fn default() -> Self {
        JitUserConfig {
            watchdog_timeout: Duration::from_millis(1500),
            tier: StorageTier::Disk,
            shards: checkpoint::ShardConfig::default(),
            stream_recovery: true,
            stream_patience: Duration::from_secs(2),
            stream_truncate: None,
        }
    }
}

/// Timing record of one JIT checkpoint or restore event (Table 4 data).
/// Public because [`JobOutcome::events`](crate::JobOutcome::events) holds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Rank involved.
    pub rank: RankId,
    /// Virtual seconds spent writing the JIT checkpoint (0 for restores).
    pub checkpoint_time: SimTime,
    /// Virtual seconds spent restoring (0 for checkpoint events).
    pub restore_time: SimTime,
    /// Iteration the event refers to.
    pub iteration: u64,
}

/// Shared cell the trainer thread updates at each minibatch boundary so
/// the hang action knows which iteration a checkpoint represents (the
/// library's equivalent of the user script passing the step counter).
#[derive(Debug, Default)]
pub(crate) struct IterationCell {
    it: AtomicU64,
    opt_t: AtomicU64,
}

impl IterationCell {
    /// Records the (iteration, optimizer timestep) at a minibatch boundary.
    pub(crate) fn note(&self, iteration: u64, opt_t: u32) {
        self.it.store(iteration, Ordering::Release);
        self.opt_t.store(opt_t as u64, Ordering::Release);
    }

    /// Reads the current coordinates.
    pub(crate) fn get(&self) -> (u64, u32) {
        (
            self.it.load(Ordering::Acquire),
            self.opt_t.load(Ordering::Acquire) as u32,
        )
    }
}

/// The user-level library's hang action for the rank of `exec` — its
/// call into the user's `save_checkpoint`, running while the trainer
/// thread is parked. A real rank sits in the hung collective for the
/// timeout before anybody looks: charged first, once, on the proof of the
/// hang (§6.4 leaves it out of the recovery figures, and so does the
/// write cost returned beside the scheduler's acknowledgement). The checkpoint
/// is encoded straight from the device, under its lock, and written once
/// the lock is released; a rank whose memory is unreadable writes
/// nothing, and a replica will.
pub(crate) fn save_checkpoint(
    exec: &DirectExecutor,
    cfg: &JitUserConfig,
    job: JobId,
    layout: ParallelLayout,
    store: Arc<SharedStore>,
    cell: Arc<IterationCell>,
) -> impl FnOnce() -> Option<(CheckpointAck, SimTime)> + Send + 'static {
    let (gpu, clock, i, rank) = (
        exec.shared_gpu(),
        exec.clock(),
        exec.clock_idx(),
        exec.rank(),
    );
    let cost = exec.with_gpu(|g| g.cost_model().clone());
    let GridCoord { dp, stage, part } = layout.coord(rank);
    let cfg = cfg.clone();
    move || {
        clock.advance(i, SimTime::from_secs(cfg.watchdog_timeout.as_secs_f64()));
        let (iteration, opt_t) = cell.get();
        let plan = {
            let g = gpu.lock();
            let state = g.state_view(iteration, opt_t).ok()?;
            ShardPlan::encode(
                job,
                CkptKind::Jit,
                rank,
                stage,
                part,
                dp,
                &state,
                cfg.shards.shard_bytes,
            )
        };
        let t = cost.checkpoint_write(plan.logical_bytes, cfg.tier, cost.gpu.gpus_per_node());
        clock.advance(i, t);
        // A write that fails acks nothing: the quorum waits for a replica.
        checkpoint::write_encoded(&*store, plan, &cfg.shards).ok()?;
        let ack = CheckpointAck {
            rank,
            iteration,
            stage,
            part,
        };
        Some((ack, t))
    }
}

/// The outcome of [`run_user_level_job`]. A benchmark shim: it goes at
/// ROADMAP item 3 step 1, when the benchmark calls [`run_job`].
pub type UserLevelOutcome = JobOutcome;

/// [`run_job`] under [`Policy::UserLevel`]. A benchmark shim: it goes at
/// ROADMAP item 3 step 1, when the benchmark calls [`run_job`].
pub fn run_user_level_job(
    cfg: TrainConfig,
    cost: CostModel,
    injector: Arc<FailureInjector>,
    scheduler: Arc<Scheduler>,
    store: Arc<SharedStore>,
    jit: JitUserConfig,
    iters: u64,
) -> SimResult<UserLevelOutcome> {
    let policy = Policy::UserLevel { scheduler, jit };
    run_job(cfg, cost, injector, store, iters, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launcher::HangObserver;
    use cluster::Cluster;
    use dltrain::{JobSetup, RankTrainer};
    use simcore::cost::GpuGeneration;
    use simcore::failure::{FailureKind, FailureSpec, Phase};
    use simcore::sync::Mutex;
    use simcore::SimError;
    use simgpu::Gpu;

    #[test]
    fn iteration_cell_is_a_simple_register() {
        let c = IterationCell::default();
        assert_eq!(c.get(), (0, 0));
        c.note(7, 7);
        assert_eq!(c.get(), (7, 7));
        c.note(8, 8);
        assert_eq!(c.get(), (8, 8));
    }

    #[test]
    fn default_config_uses_disk_tier() {
        let cfg = JitUserConfig::default();
        assert_eq!(cfg.tier, StorageTier::Disk);
        assert!(cfg.watchdog_timeout.as_millis() >= 100);
    }

    /// A timeout no test could wait out: detection has to come from the
    /// proof of the hang.
    const TIMEOUT: Duration = Duration::from_secs(60);

    fn patient() -> JitUserConfig {
        JitUserConfig {
            watchdog_timeout: TIMEOUT,
            ..JitUserConfig::default()
        }
    }

    #[test]
    fn failure_free_job_never_restarts_or_checkpoints() -> SimResult<()> {
        let cfg = dltrain::TrainConfig::tiny_dp(2);
        let scheduler = Arc::new(cluster::Scheduler::new(Cluster::new(
            GpuGeneration::V100_32G,
            1,
        )));
        let store = Arc::new(SharedStore::new());
        let out = run_job(
            cfg,
            CostModel::v100(),
            FailureInjector::none(),
            store.clone(),
            5,
            Policy::UserLevel {
                scheduler,
                jit: patient(),
            },
        )?;
        assert_eq!(out.restarts, 0);
        assert!(out.events.is_empty());
        assert!(store.is_empty(), "no JIT checkpoints without failures");
        assert!(out.losses[0].iter().all(|l| l.is_finite()));
        Ok(())
    }

    /// One injected fault under the 60 s timeout: recovered at once, once,
    /// and onto the fault-free trajectory bit for bit.
    fn recovers_without_waiting(cfg: dltrain::TrainConfig, fault: FailureSpec) -> SimResult<()> {
        let run = |faults: Vec<FailureSpec>| {
            run_job(
                cfg.clone(),
                CostModel::v100(),
                FailureInjector::with_specs(faults),
                Arc::new(SharedStore::new()),
                6,
                Policy::UserLevel {
                    scheduler: Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
                    jit: patient(),
                },
            )
        };
        let started = std::time::Instant::now();
        let faulty = run(vec![fault])?;
        assert!(started.elapsed() < TIMEOUT / 2, "{:?}", started.elapsed());
        assert_eq!(faulty.restarts, 1);
        let clean = run(Vec::new())?;
        assert_eq!(clean.restarts, 0);
        let bits = |out: &JobOutcome| -> Vec<Vec<u32>> {
            let row = |r: &Vec<f32>| r.iter().map(|l| l.to_bits()).collect();
            out.losses.iter().map(row).collect()
        };
        assert_eq!(bits(&faulty), bits(&clean));
        Ok(())
    }

    #[test]
    fn proven_hang_recovers_without_waiting_out_the_timeout() -> SimResult<()> {
        recovers_without_waiting(
            dltrain::TrainConfig::tiny_dp(2),
            FailureSpec::new(3, Phase::Backward, RankId(0), FailureKind::StickyCuda),
        )
    }

    #[test]
    fn proof_reaches_the_stage_behind_a_stuck_replica() -> SimResult<()> {
        // 2 replicas × 2 stages, a stage-0 rank dies: its replica is
        // proven hung on the dead rank, and the two stage-1 ranks only
        // through ranks that are themselves stuck.
        let mut cfg = dltrain::TrainConfig::tiny_dp(1);
        cfg.layout = simcore::layout::ParallelLayout::three_d(2, 2, 1);
        recovers_without_waiting(
            cfg,
            FailureSpec::new(3, Phase::Forward, RankId(0), FailureKind::GpuHardware),
        )
    }

    #[test]
    fn proven_hang_charges_the_timeout_then_the_checkpoint_write() -> SimResult<()> {
        let cfg = dltrain::TrainConfig::tiny_dp(2);
        let cost = CostModel::v100();
        let setup = JobSetup::build(cfg.layout, cost.clone(), cfg.ranks_per_node);
        let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 1)));
        let (job, assignment) = scheduler.submit(cfg.layout)?;
        let gpu = Gpu::new(assignment[1], cost.clone());
        let mut exec = DirectExecutor::new(RankId(1), 1, gpu, setup.world.clone());
        let store = Arc::new(SharedStore::new());
        let cell = Arc::default();
        let save = save_checkpoint(&exec, &patient(), job, cfg.layout, store, cell);
        let writes = Arc::new(Mutex::new(Vec::new()));
        let (acks, written) = (scheduler.clone(), writes.clone());
        let observer = HangObserver::new(move || {
            if let Some((ack, write)) = save() {
                written.lock().push(write);
                let _ = acks.ack_checkpoint(job, ack);
            }
        });
        exec.set_observer(observer.clone());
        let tr = RankTrainer::new(exec, cfg, &setup.per_rank[1], FailureInjector::none())?;
        // Rank 0's thread is gone; rank 1 walks into a barrier with it.
        drop(setup.world.departure_guard(RankId(0)));
        let parked_at = setup.clock.now(1);
        let token = tr.tokens().global;
        let rank1 = std::thread::spawn(move || {
            let mut tr = tr;
            tr.exec.barrier(token)
        });
        let deadline = std::time::Instant::now() + TIMEOUT / 2;
        while scheduler.checkpoint_quorum(job)?.is_none() {
            assert!(std::time::Instant::now() < deadline, "no checkpoint ack");
            std::thread::yield_now();
        }
        assert!(observer.fired());
        let writes = writes.lock().clone();
        assert_eq!(writes.len(), 1);
        let write = writes[0];
        assert!(
            write > SimTime::ZERO,
            "the write cost alone, and not nothing"
        );
        assert!(write < SimTime::from_secs(TIMEOUT.as_secs_f64()));
        // The parked trainer's clock moves by the hang action's charges only.
        let charged = parked_at + SimTime::from_secs(TIMEOUT.as_secs_f64()) + write;
        assert_eq!(setup.clock.now(1), charged);
        setup.world.abort_all();
        let released = rank1
            .join()
            .map_err(|_| SimError::Protocol("rank thread panicked".into()))?;
        assert_eq!(released, Err(SimError::CollectiveAborted));
        Ok(())
    }

    #[test]
    fn jit_checkpoint_files_follow_rank_dependent_paths() -> SimResult<()> {
        let cfg = dltrain::TrainConfig::tiny_dp(2);
        let scheduler = Arc::new(cluster::Scheduler::new(Cluster::new(
            GpuGeneration::V100_32G,
            2,
        )));
        let store = Arc::new(SharedStore::new());
        let injector = FailureInjector::with_specs(vec![FailureSpec::new(
            2,
            Phase::Backward,
            RankId(0),
            FailureKind::StickyCuda,
        )]);
        let jit = JitUserConfig::default();
        run_job(
            cfg,
            CostModel::v100(),
            injector,
            store.clone(),
            5,
            Policy::UserLevel { scheduler, jit },
        )?;
        // The healthy replica (rank 1 → dp1) wrote under its own path.
        let paths = store.list("ckpt/");
        assert!(
            paths.iter().any(|p| p.contains("/dp1/")),
            "rank-dependent directory expected: {paths:?}"
        );
        Ok(())
    }
}
