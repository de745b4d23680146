//! User-level just-in-time checkpointing (§3).
//!
//! The job links a small library and provides a `save_checkpoint`
//! function; everything else is automatic:
//!
//! 1. the interception layer watches the `cudaEventRecord` /
//!    `cudaStreamWaitEvent` traffic around collectives (here: collective
//!    tickets) and a **watchdog thread** detects hangs (§3.1). A real
//!    rank has to wait a timeout out to call a collective hung; here the
//!    collective layer proves the hang the moment the failed rank's
//!    thread has returned, the watchdog fires at once, and the timeout is
//!    charged to the parked rank's virtual clock — the paper's detection
//!    cost at no wall-clock cost. Real time is only the backstop;
//! 2. on a hang, the watchdog calls `save_checkpoint` *from its own
//!    thread* while the training thread stays parked in the hung
//!    collective — the simulation analogue of the paper's
//!    release-the-GIL + new-CUDA-stream dance (§3.2);
//! 3. the checkpoint goes to a rank-dependent path with a metadata
//!    completion marker, the scheduler is acked, and the job is torn down;
//! 4. on restart, each rank loads the checkpoint of *any* data-parallel
//!    replica of its cell via [`crate::checkpoint::jit_get_checkpoint_path`]
//!    (§3.3).
//!
//! [`run_user_level_job`] is the full launcher loop (submit → train →
//! fail → JIT checkpoint → quorum → reschedule → restore → continue)
//! used by tests, examples, and the Table 4 bench.

use crate::checkpoint::{self, CkptKind};
use crate::stream;
use cluster::scheduler::CheckpointAck;
use cluster::{FailureInjector, Scheduler, SharedStore};
use dltrain::{JobSetup, RankTrainer, TrainConfig, TrainState};
use proxy::{DirectExecutor, Executor, Watchdog};
use simcore::cost::{CostModel, StorageTier};
use simcore::sync::{Condvar, Mutex};
use simcore::time::ClockBoard;
use simcore::{GpuId, JobId, RankId, SimError, SimResult, SimTime};
use simgpu::Gpu;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the user-level JIT library.
#[derive(Debug, Clone)]
pub struct JitUserConfig {
    /// Watchdog hang timeout: what a detected hang costs the parked rank
    /// in virtual time, and the real-time deadline by which a hang the
    /// collective layer cannot prove is detected anyway.
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
    /// replica dead and falling back to the store.
    pub stream_patience: Duration,
    /// Fault injection: when set, the streaming replica "dies" after
    /// emitting this many frames of each recovery stream (see
    /// [`stream::send_state_truncated`]) — receivers must time out and
    /// fall back to the store. `None` = healthy sender.
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

/// Shared cell the trainer thread updates at each minibatch start so the
/// watchdog knows which iteration a checkpoint represents (the library's
/// equivalent of the user script passing the step counter).
#[derive(Debug, Default)]
pub struct IterationCell {
    it: AtomicU64,
    opt_t: AtomicU64,
}

impl IterationCell {
    /// Records the (iteration, optimizer timestep) at minibatch start.
    pub fn note(&self, iteration: u64, opt_t: u32) {
        self.it.store(iteration, Ordering::Release);
        self.opt_t.store(opt_t as u64, Ordering::Release);
    }

    /// Reads the current coordinates.
    pub fn get(&self) -> (u64, u32) {
        (
            self.it.load(Ordering::Acquire),
            self.opt_t.load(Ordering::Acquire) as u32,
        )
    }
}

/// The per-rank user-level JIT client: owns the armed watchdog.
pub struct JitUserClient {
    /// Iteration cell the training loop must update each minibatch.
    pub cell: Arc<IterationCell>,
    watchdog: Watchdog,
}

impl JitUserClient {
    /// Arms user-level JIT checkpointing on a rank: installs the
    /// collective observer on `exec` and spawns the watchdog whose hang
    /// action snapshots GPU state, writes the checkpoint + metadata, and
    /// hands the scheduler's acknowledgement to `ack`.
    pub fn arm(
        exec: &mut DirectExecutor,
        cfg: &JitUserConfig,
        job: JobId,
        layout: simcore::layout::ParallelLayout,
        store: Arc<SharedStore>,
        ack: impl FnOnce(CheckpointAck) + Send + 'static,
        events: Arc<Mutex<Vec<RecoveryEvent>>>,
    ) -> SimResult<JitUserClient> {
        let rank = exec.rank();
        let clock_idx = exec.clock_idx();
        let clock = exec.clock();
        let gpu = exec.shared_gpu();
        let cell = Arc::new(IterationCell::default());
        let cell_w = cell.clone();
        let coord = layout.coord(rank);
        let cost = exec.with_gpu(|g| g.cost_model().clone());
        let tier = cfg.tier;
        let shards = cfg.shards;
        let timeout = cfg.watchdog_timeout;
        let watchdog = Watchdog::spawn(timeout, move || {
            // The hang action — the library's call into the user's
            // save_checkpoint, running while the trainer thread is parked.
            // The rank sat in the hung collective for the timeout before
            // anybody looked: charged here, once, however the watchdog
            // came due (§6.4 leaves it out of the recovery figures, and so
            // does `RecoveryEvent::checkpoint_time`).
            clock.advance(clock_idx, SimTime::from_secs(timeout.as_secs_f64()));
            let result = save_checkpoint_from_watchdog(
                &gpu,
                &cell_w,
                &store,
                job,
                rank,
                coord.stage,
                coord.part,
                coord.dp,
                &cost,
                tier,
                &shards,
                &clock,
                clock_idx,
                &events,
            );
            if let Ok(done) = result {
                ack(done);
            }
            // NOTE: the watchdog does NOT kill the job — §3 step 3 has
            // the *scheduler* kill it only after the checkpoint quorum,
            // so that every healthy rank gets to save first.
        })?;
        exec.set_observer(watchdog.observer());
        Ok(JitUserClient { cell, watchdog })
    }

    /// True once the watchdog detected a hang and checkpointed.
    pub fn fired(&self) -> bool {
        self.watchdog.fired()
    }
}

#[allow(clippy::too_many_arguments)]
fn save_checkpoint_from_watchdog(
    gpu: &Arc<Mutex<Gpu>>,
    cell: &IterationCell,
    store: &SharedStore,
    job: JobId,
    rank: RankId,
    stage: usize,
    part: usize,
    dp: usize,
    cost: &CostModel,
    tier: StorageTier,
    shards: &checkpoint::ShardConfig,
    clock: &ClockBoard,
    clock_idx: usize,
    events: &Mutex<Vec<RecoveryEvent>>,
) -> SimResult<CheckpointAck> {
    let (buffers, logical_bytes) = {
        let g = gpu.lock();
        if !g.health().memory_readable() {
            // This rank is itself broken; it cannot contribute a
            // checkpoint (a replica will).
            return Err(SimError::CudaSticky(g.id));
        }
        g.snapshot_persistent()
    };
    let (iteration, opt_t) = cell.get();
    let state = TrainState {
        iteration,
        opt_t,
        buffers,
        logical_bytes,
    };
    let t = cost.checkpoint_write(logical_bytes, tier, cost.gpu.gpus_per_node());
    clock.advance(clock_idx, t);
    checkpoint::write_checkpoint_with(
        store,
        job,
        CkptKind::Jit,
        rank,
        stage,
        part,
        dp,
        &state,
        // Pool width keyed to the actual shard count of this state.
        &shards.auto_sized_for(&state),
    )?;
    events.lock().push(RecoveryEvent {
        rank,
        checkpoint_time: t,
        restore_time: SimTime::ZERO,
        iteration,
    });
    Ok(CheckpointAck {
        rank,
        iteration,
        stage,
        part,
    })
}

/// Result of a complete user-level job run.
#[derive(Debug)]
pub struct UserLevelOutcome {
    /// Final per-rank loss trajectories, indexed `[rank][iteration]`
    /// (`NaN` on ranks that never see the loss).
    pub losses: Vec<Vec<f32>>,
    /// Number of restarts (failure recoveries) performed.
    pub restarts: u32,
    /// Checkpoint/restore timing events.
    pub events: Vec<RecoveryEvent>,
}

/// The launcher loop for a user-level JIT job: runs `target_iters`
/// iterations to completion, recovering from every injected failure by
/// JIT checkpoint → quorum → reschedule → restore.
pub fn run_user_level_job(
    cfg: TrainConfig,
    cost: CostModel,
    injector: Arc<FailureInjector>,
    scheduler: Arc<Scheduler>,
    store: Arc<SharedStore>,
    jit: JitUserConfig,
    target_iters: u64,
) -> SimResult<UserLevelOutcome> {
    let layout = cfg.layout;
    let n = layout.world_size();
    let (job, mut assignment) = scheduler.submit(layout)?;
    let events: Arc<Mutex<Vec<RecoveryEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let mut final_losses: Vec<Vec<f32>> = vec![vec![f32::NAN; target_iters as usize]; n];
    let mut restarts = 0u32;
    let max_generations = injector.pending_count() as u32 + 2;
    loop {
        let setup = placed_setup(&cfg, &cost, &scheduler, &assignment)?;
        let world = setup.world.clone();
        let per_rank = setup.per_rank.clone();
        let resume = checkpoint::assemble(&store, job, &layout).ok();
        let monitor = Arc::new(Monitor::default());
        let gen_results = {
            let cfg = cfg.clone();
            let cost = cost.clone();
            let injector = injector.clone();
            let scheduler2 = scheduler.clone();
            let store = store.clone();
            let events = events.clone();
            let jit = jit.clone();
            let assignment_now = assignment.clone();
            let world = world.clone();
            let monitor2 = monitor.clone();
            spawn_and_monitor(n, world.clone(), monitor, move |i| {
                let rank = RankId(i as u32);
                // First, so that it drops last: peers learn that this
                // rank is gone only after its trainer, watchdog and
                // device memory are.
                let _departure = world.departure_guard(rank);
                let gpu = Gpu::new(assignment_now[i], cost.clone());
                let mut exec = DirectExecutor::new(rank, i, gpu, world.clone());
                let (scheduler, monitor) = (scheduler2.clone(), monitor2.clone());
                let client = JitUserClient::arm(
                    &mut exec,
                    &jit,
                    job,
                    layout,
                    store.clone(),
                    move |ack| {
                        let _ = scheduler.ack_checkpoint(job, ack);
                        let quorum = scheduler.checkpoint_quorum(job).ok().flatten();
                        monitor.update(|p| p.quorum |= quorum.is_some());
                    },
                    events.clone(),
                )?;
                let mut tr = RankTrainer::new(exec, cfg.clone(), &per_rank[i], injector.clone())?;
                // Resume from the checkpoint the launcher resolved
                // for this restart, if one exists, paying the fixed
                // restart + read costs (the `r` of §5): ranks read
                // their cell's choice directly, nobody resolves
                // again. With stream recovery, only the replica that
                // owns the chosen checkpoint reads the store; the
                // cell's other replicas receive the state as a
                // pipelined rank-to-rank shard stream and fall back
                // to the store if the owner is dead.
                if let Some(plan) = resume.as_ref() {
                    let coord = layout.coord(rank);
                    let choice = plan[&(coord.stage, coord.part)];
                    let owner = layout.rank_at(simcore::layout::GridCoord {
                        dp: choice.dp,
                        stage: coord.stage,
                        part: coord.part,
                    });
                    let gpn = cost.gpu.gpus_per_node();
                    let read_choice = || {
                        crate::restore::read_checkpoint_parallel(
                            store.as_ref(),
                            job,
                            choice.kind,
                            choice.iteration,
                            coord.stage,
                            coord.part,
                            choice.dp,
                            &crate::restore::RestoreConfig::default(),
                        )
                    };
                    if !jit.stream_recovery || rank == owner {
                        let (state, meta, _rstats) = read_choice()?;
                        let t_restore = cost.process_restart
                            + cost.checkpoint_read(
                                meta.logical_bytes,
                                jit.tier,
                                cfg.ranks_per_node,
                            );
                        tr.exec.clock().advance(i, t_restore);
                        if jit.stream_recovery {
                            for dp in 0..layout.dp {
                                if dp == choice.dp {
                                    continue;
                                }
                                let peer = layout.rank_at(simcore::layout::GridCoord {
                                    dp,
                                    stage: coord.stage,
                                    part: coord.part,
                                });
                                let sn = assignment_now[i].0 as usize / gpn
                                    == assignment_now[peer.index()].0 as usize / gpn;
                                match jit.stream_truncate {
                                    None => stream::send_state(
                                        &world,
                                        &cost,
                                        rank,
                                        i,
                                        peer,
                                        sn,
                                        &state,
                                        jit.shards.shard_bytes,
                                    )?,
                                    Some(keep) => stream::send_state_truncated(
                                        &world,
                                        &cost,
                                        rank,
                                        i,
                                        peer,
                                        sn,
                                        &state,
                                        jit.shards.shard_bytes,
                                        keep,
                                    )?,
                                };
                            }
                        }
                        tr.restore(&state)?;
                        events.lock().push(RecoveryEvent {
                            rank,
                            checkpoint_time: SimTime::ZERO,
                            restore_time: t_restore,
                            iteration: state.iteration,
                        });
                    } else {
                        tr.exec.clock().advance(i, cost.process_restart);
                        let before = tr.exec.clock().now(i);
                        let state = match stream::recv_state(
                            &world,
                            &cost,
                            owner,
                            rank,
                            i,
                            jit.stream_patience,
                        ) {
                            Ok(state) => state,
                            Err(_) => {
                                // Dead or corrupt replica stream:
                                // §3.3 store round-trip instead,
                                // through the parallel fetch plane.
                                let (state, meta, _rstats) = read_choice()?;
                                tr.exec.clock().advance(
                                    i,
                                    cost.checkpoint_read(
                                        meta.logical_bytes,
                                        jit.tier,
                                        cfg.ranks_per_node,
                                    ),
                                );
                                state
                            }
                        };
                        let t_restore = cost.process_restart + (tr.exec.clock().now(i) - before);
                        tr.restore(&state)?;
                        events.lock().push(RecoveryEvent {
                            rank,
                            checkpoint_time: SimTime::ZERO,
                            restore_time: t_restore,
                            iteration: state.iteration,
                        });
                    }
                }
                let start = tr.iteration();
                let mut losses: Vec<(u64, f32)> = Vec::new();
                let mut failure: Option<SimError> = None;
                for it in start..target_iters {
                    client.cell.note(tr.iteration(), tr.opt_t());
                    match tr.train_step() {
                        Ok(l) => losses.push((it, l.unwrap_or(f32::NAN))),
                        Err(e) => {
                            failure = Some(e);
                            monitor2.update(|p| p.failed = true);
                            break;
                        }
                    }
                }
                Ok::<_, SimError>((losses, failure, assignment_now[i]))
            })
        };
        let mut any_failure = false;
        for (i, res) in gen_results.into_iter().enumerate() {
            let (losses, failure, gpu_id) = res?;
            for (it, l) in losses {
                final_losses[i][it as usize] = l;
            }
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
        if restarts > max_generations {
            return Err(SimError::Protocol(format!(
                "job did not converge after {restarts} restarts"
            )));
        }
        assignment = scheduler.reschedule(job)?;
    }
    let events = events.lock().clone();
    Ok(UserLevelOutcome {
        losses: final_losses,
        restarts,
        events,
    })
}

/// What the launcher waits on, updated by the rank threads and their
/// watchdogs; every update wakes it.
#[derive(Default)]
struct Monitor {
    progress: Mutex<Progress>,
    changed: Condvar,
}

#[derive(Default)]
struct Progress {
    /// Rank threads that have returned (or unwound).
    exited: usize,
    /// A rank's training step failed.
    failed: bool,
    /// The scheduler's checkpoint quorum is reached (§3, step 3).
    quorum: bool,
}

impl Monitor {
    fn update(&self, f: impl FnOnce(&mut Progress)) {
        let mut p = self.progress.lock();
        f(&mut p);
        self.changed.notify_all();
    }
}

/// Records a rank thread's exit when dropped, so a panicking rank is
/// counted too.
struct Exit(Arc<Monitor>);

impl Drop for Exit {
    fn drop(&mut self) {
        self.0.update(|p| p.exited += 1);
    }
}

/// Spawns rank threads and plays the scheduler's monitoring role: once a
/// rank reports a failure, wait for the checkpoint quorum (§3, step 3 —
/// at least one data-parallel replica of every pipeline stage and tensor
/// partition acknowledged) for at most 10 s, then kill the job by
/// aborting its communicators so parked ranks release, and join everyone
/// once every rank has exited.
fn spawn_and_monitor<T, F>(
    n: usize,
    world: Arc<collectives::CommWorld>,
    monitor: Arc<Monitor>,
    f: F,
) -> Vec<SimResult<T>>
where
    T: Send + 'static,
    F: Fn(usize) -> SimResult<T> + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let (f, exit) = (f.clone(), Exit(monitor.clone()));
        let spawned = std::thread::Builder::new()
            .name(format!("rank{i}"))
            // `exit` drops after everything `f` owned, the rank's
            // departure guard included.
            .spawn(move || {
                let _exit = exit;
                f(i)
            });
        match spawned {
            Ok(h) => handles.push(h),
            Err(e) => {
                // A partial world can only hang: release any ranks
                // already parked in collectives, then fail every slot.
                world.abort_all();
                for h in handles {
                    let _ = h.join();
                }
                return (0..n)
                    .map(|_| {
                        Err(SimError::Protocol(format!(
                            "failed to spawn rank thread: {e}"
                        )))
                    })
                    .collect();
            }
        }
    }
    let mut kill_at: Option<std::time::Instant> = None;
    let mut killed = false;
    let mut p = monitor.progress.lock();
    while p.exited < n {
        if !p.failed || killed {
            monitor.changed.wait(&mut p);
            continue;
        }
        let now = std::time::Instant::now();
        let deadline = *kill_at.get_or_insert(now + Duration::from_secs(10));
        if p.quorum || now >= deadline {
            drop(p);
            world.abort_all();
            killed = true;
            p = monitor.progress.lock();
        } else {
            monitor.changed.wait_for(&mut p, deadline - now);
        }
    }
    drop(p);
    handles
        .into_iter()
        .map(|h| match h.join() {
            Ok(r) => r,
            Err(_) => Err(SimError::Protocol("rank thread panicked".into())),
        })
        .collect()
}

/// The job's communicators over its current GPU placement (the
/// scheduler's cluster view) rather than the contiguous-placement default:
/// a data-parallel group whose replicas land on different nodes pays NIC
/// ring hops even when its rank indices are adjacent, and the
/// hierarchical schedule's per-node group sizes follow the actual
/// placement.
fn placed_setup(
    cfg: &TrainConfig,
    cost: &CostModel,
    scheduler: &Scheduler,
    assignment: &[GpuId],
) -> SimResult<JobSetup> {
    let node_of = scheduler.with_cluster(|cl| cl.node_assignment(assignment))?;
    Ok(JobSetup::build_with(
        cfg.layout,
        cost.clone(),
        cfg.ranks_per_node,
        0,
        Some(node_of),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::Cluster;
    use simcore::cost::GpuGeneration;
    use simcore::failure::{FailureKind, FailureSpec, Phase};

    #[test]
    fn placed_groups_stay_children_of_the_world_comm() -> SimResult<()> {
        // 2D-2P-2T: the real placement must leave the 12 dp, tp and pp
        // groups split off the world communicator, so that one world
        // rendezvous bootstraps all of them and the world's abort reaches
        // each.
        let mut cfg = TrainConfig::tiny_dp(1);
        cfg.layout = simcore::layout::ParallelLayout::three_d(2, 2, 2);
        let scheduler = Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2));
        let (_, assignment) = scheduler.submit(cfg.layout)?;
        let cost = CostModel::v100();
        let setup = placed_setup(&cfg, &cost, &scheduler, &assignment)?;
        let global = setup.per_rank[0].global.clone();
        let g = global.clone();
        dltrain::run_ranks(8, move |r| {
            g.rendezvous(RankId::from(r), 0, &collectives::NullObserver)
        })
        .into_iter()
        .collect::<SimResult<Vec<()>>>()?;
        let world_and_groups = cost.comm_init.as_secs() * 13.0;
        assert_eq!(setup.clock.now(0).as_secs(), world_and_groups);
        global.abort();
        for bundle in &setup.per_rank {
            for group in [&bundle.dp, &bundle.tp, &bundle.pp] {
                assert!(group.as_ref().is_some_and(|g| g.is_aborted()));
            }
        }
        Ok(())
    }

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
        let out = run_user_level_job(
            cfg,
            CostModel::v100(),
            FailureInjector::none(),
            scheduler,
            store.clone(),
            patient(),
            5,
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
            run_user_level_job(
                cfg.clone(),
                CostModel::v100(),
                FailureInjector::with_specs(faults),
                Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
                Arc::new(SharedStore::new()),
                patient(),
                6,
            )
        };
        let started = std::time::Instant::now();
        let faulty = run(vec![fault])?;
        assert!(started.elapsed() < TIMEOUT / 2, "{:?}", started.elapsed());
        assert_eq!(faulty.restarts, 1);
        let clean = run(Vec::new())?;
        assert_eq!(clean.restarts, 0);
        let bits = |out: &UserLevelOutcome| -> Vec<Vec<u32>> {
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
        let events = Arc::new(Mutex::new(Vec::new()));
        let gpu = Gpu::new(assignment[1], cost.clone());
        let mut exec = DirectExecutor::new(RankId(1), 1, gpu, setup.world.clone());
        let acks = scheduler.clone();
        let client = JitUserClient::arm(
            &mut exec,
            &patient(),
            job,
            cfg.layout,
            Arc::new(SharedStore::new()),
            move |ack| {
                let _ = acks.ack_checkpoint(job, ack);
            },
            events.clone(),
        )?;
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
        assert!(client.fired());
        let events = events.lock().clone();
        assert_eq!(events.len(), 1);
        let write = events[0].checkpoint_time;
        assert!(
            write > SimTime::ZERO,
            "the write cost alone, and not nothing"
        );
        assert!(write < SimTime::from_secs(TIMEOUT.as_secs_f64()));
        // The parked trainer's clock moves by the watchdog's charges only.
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
        run_user_level_job(
            cfg,
            CostModel::v100(),
            injector,
            scheduler,
            store.clone(),
            JitUserConfig::default(),
            5,
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
