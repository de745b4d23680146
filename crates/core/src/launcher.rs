//! The one job entry point, [`run_job`], and its one outcome,
//! [`JobOutcome`], for the three designs the paper compares on wasted
//! work (Table 1, §5); a [`Policy`] picks one.
//!
//! Transparent JIT (§4) never restarts ([`crate::transparent`]).
//! User-level JIT (§3) and periodic checkpointing (§5, §6.3) restart
//! alike — detect the hang, kill the job, reschedule around a failed GPU,
//! restore the newest complete checkpoint of either kind, train on — and
//! differ only in *when* the state is written. Their restart loop here
//! owns all they share, the count of checkpoint writes included, and
//! takes per rank only their two differences:
//!
//! * the **hang action**, run by the rank's [`HangObserver`] once the
//!   collective layer proves a wait of the rank hung, while its trainer
//!   stays parked in the hung call: user-level JIT's `save_checkpoint`,
//!   or the periodic monitor's kill. It returns the checkpoint it wrote,
//!   if any, with its virtual cost; the launcher records the event and
//!   acks the scheduler (§3, step 3);
//! * the **step hook**, run on the rank's thread at every minibatch
//!   boundary a generation stands on: user-level JIT notes the iteration
//!   there; the periodic hook writes on schedule and reports each write.
//!
//! No wait here ends on the wall clock ([`spawn_and_monitor`]). A hang
//! action runs only on a proof, and every proven hang ends its
//! generation, so no ack outlives its incident. The kill ends on the
//! world's record of its ranks ([`collectives::RankFacts`]): the quorum,
//! or every rank departed or done with its hang action.
//!
//! Every restarted rank restores through
//! [`stream::restore_with_fallback`]: its first leg, the gradient-ledger
//! one, has no producer and fails at once; the streamed-replica leg
//! serves a replica that does not own its cell's chosen checkpoint (when
//! `stream_recovery` is on), and the store leg serves everyone else and
//! every fallback. A leg yields the
//! state as verified chunks — the checkpoint's shards or the stream's
//! frame payloads — and succeeds only if they decode; the winner's
//! chunks are decoded straight into the rank's device.

use crate::checkpoint::{self, CellChoice, ShardConfig};
use crate::periodic::{self, PolicyKind, Schedule};
use crate::restore::{read_counted, RestoreConfig};
use crate::stream;
use crate::transparent::{self, RecoveryReport};
use crate::user_level::{save_checkpoint, IterationCell, JitUserConfig, RecoveryEvent};
use cluster::scheduler::CheckpointAck;
use cluster::{FailureInjector, Scheduler, SharedStore};
use collectives::{CollectiveObserver, CollectiveTicket, CommWorld};
use dltrain::{JobSetup, RankTrainer, TrainConfig};
use proxy::{DirectExecutor, Executor};
use simcore::cost::{CostModel, StorageTier};
use simcore::layout::GridCoord;
use simcore::sync::Mutex;
use simcore::{GpuId, JobId, RankId, SimError, SimResult, SimTime};
use simgpu::Gpu;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a job recovers from a failure.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Transparent JIT (§4): the recovery engine, attached to every
    /// rank's proxy client, replaces a lost GPU itself.
    Transparent {
        /// Framework process groups per rank (Megatron/DeepSpeed-style)
        /// that every recovery rebuilds: the Table 7 knob.
        extra_comms: usize,
    },
    /// User-level JIT (§3): on a hang each healthy rank writes its
    /// checkpoint, and the restarted job restores any replica's.
    UserLevel {
        /// Submits, kills and reschedules the job.
        scheduler: Arc<Scheduler>,
        /// The library's detection charge, write and restore legs.
        jit: JitUserConfig,
    },
    /// Periodic checkpointing: each cell's dp-0 replica writes on
    /// schedule while every replica pays the stall; after a hang every
    /// rank restarts from its cell's newest checkpoint. A zero interval
    /// is refused before the job is submitted.
    Periodic {
        /// Submits, kills and reschedules the job.
        scheduler: Arc<Scheduler>,
        /// The mechanism, which prices the stall.
        kind: PolicyKind,
        /// Checkpoint every `every_iters` iterations.
        every_iters: u64,
        /// The monitoring plane's hang timeout: what a proven hang
        /// charges the parked rank's virtual clock before the kill.
        monitor_timeout: Duration,
        /// Sharded-write tuning of each cell's checkpoint.
        shards: ShardConfig,
    },
}

/// What a job run by [`run_job`] did. Every field means the same under
/// every [`Policy`], and is 0 or empty where a policy has none of it.
#[derive(Debug, Default)]
pub struct JobOutcome {
    /// Per-rank loss trajectories, indexed `[rank][iteration]` (`NaN` on
    /// ranks that never see the loss), under every policy.
    pub losses: Vec<Vec<f32>>,
    /// Per-rank virtual time at the end of the run; under a restart
    /// policy, of its final generation, whose clocks start at zero.
    pub finish_times: Vec<SimTime>,
    /// Restarts (failure recoveries) performed: 0 under transparent JIT.
    pub restarts: u32,
    /// Transparent recovery rounds performed: 0 under a restart policy.
    pub rounds: u64,
    /// Every checkpoint a hang action wrote (user-level JIT) and every
    /// restore (both restart policies). Empty under transparent JIT.
    pub events: Vec<RecoveryEvent>,
    /// Per-rank reports of every transparent recovery round (Tables 5–7
    /// raw data). Empty under a restart policy.
    pub reports: Vec<RecoveryReport>,
    /// Whole iterations re-executed after restarts: per restart, how far
    /// past the checkpoint the next generation resumes from the furthest
    /// rank had got (the wasted work §5 charges). 0 under transparent
    /// JIT, which redoes at most the open minibatch.
    pub wasted_iterations: u64,
    /// Checkpoints written: one per rank and incident under user-level
    /// JIT, one per cell and scheduled boundary under periodic
    /// checkpointing, 0 under transparent JIT.
    pub checkpoints_written: u64,
    /// Per-rank device-API calls logged for replay under transparent JIT;
    /// 0 on every rank of a restart job, whose executors log nothing.
    pub logged_calls: Vec<u64>,
}

/// Runs `iters` iterations of `cfg` to completion under `policy`,
/// recovering from every failure `injector` fires. `store` holds the
/// job's checkpoints (restart policies) or §4.3 frames (transparent).
pub fn run_job(
    cfg: TrainConfig,
    cost: CostModel,
    injector: Arc<FailureInjector>,
    store: Arc<SharedStore>,
    iters: u64,
    policy: Policy,
) -> SimResult<JobOutcome> {
    let (scheduler, lib, schedule) = match policy {
        Policy::Transparent { extra_comms } => {
            return transparent::run(cfg, cost, injector, store, iters, extra_comms);
        }
        Policy::UserLevel { scheduler, jit } => (scheduler, jit, None),
        Policy::Periodic {
            scheduler,
            kind,
            every_iters,
            monitor_timeout,
            shards,
        } => {
            if every_iters == 0 {
                return Err(SimError::Protocol(
                    "Policy::Periodic every_iters must be at least 1".into(),
                ));
            }
            let lib = JitUserConfig {
                watchdog_timeout: monitor_timeout,
                tier: StorageTier::Disk,
                shards,
                stream_recovery: false,
                ..JitUserConfig::default()
            };
            let schedule = Schedule {
                kind,
                every_iters,
                shards,
                ranks_per_node: cfg.ranks_per_node,
                store: store.clone(),
                cost: cost.clone(),
            };
            (scheduler, lib, Some(schedule))
        }
    };
    // A restart policy: generations until one completes. `schedule` is
    // `None` under user-level JIT, which writes on a hang.
    let layout = cfg.layout;
    let n = layout.world_size();
    let (id, mut assignment) = scheduler.submit(layout)?;
    let job = Arc::new(Job {
        id,
        cfg,
        cost,
        lib,
        injector,
        scheduler,
        store,
        target_iters: iters,
        schedule,
        record: Arc::default(),
    });
    let mut out = JobOutcome {
        losses: vec![vec![f32::NAN; iters as usize]; n],
        finish_times: vec![SimTime::ZERO; n],
        logged_calls: vec![0; n],
        ..JobOutcome::default()
    };
    let max_generations = job.injector.pending_count() as u32 + 2;
    // The furthest minibatch boundary a rank of the last generation reached.
    let mut reached = 0u64;
    loop {
        // The communicators over the job's current GPU placement (the
        // scheduler's cluster view), not the contiguous default: a
        // data-parallel group whose replicas a reschedule spread over two
        // nodes pays NIC ring hops even when its rank indices are
        // adjacent.
        let node_of = job
            .scheduler
            .with_cluster(|cl| cl.node_assignment(&assignment))?;
        let rpn = job.cfg.ranks_per_node;
        // Resolved once per (re)start, on the driver: every rank restores
        // its cell's choice, and the wasted work is measured against it.
        let resume = checkpoint::assemble(&job.store, id, &layout).ok();
        let resume_at = resume
            .as_ref()
            .and_then(|plan| plan.values().next())
            .map_or(0, |c| c.iteration);
        out.wasted_iterations += reached.saturating_sub(resume_at);
        let gen = Arc::new(Generation {
            setup: JobSetup::build_with(layout, job.cost.clone(), rpn, 0, Some(node_of)),
            assignment: assignment.clone(),
            resume,
        });
        let results = {
            let (scheduler, world) = (job.scheduler.clone(), gen.setup.world.clone());
            let quorum = move || scheduler.checkpoint_quorum(id).is_ok_and(|q| q.is_some());
            let (job, gen) = (job.clone(), gen.clone());
            spawn_and_monitor(n, world, quorum, move |i| job.run_rank(&gen, i))?
        };
        reached = 0;
        let mut any_failure = false;
        for (i, res) in results.into_iter().enumerate() {
            let (losses, failure, rank_reached) = res?;
            for (it, l) in losses {
                out.losses[i][it as usize] = l;
            }
            reached = reached.max(rank_reached);
            out.finish_times[i] = gen.setup.clock.now(i);
            if let Some(err) = failure {
                any_failure = true;
                if err.is_hard() {
                    job.scheduler.report_gpu_failure(id, assignment[i])?;
                }
            }
        }
        if !any_failure {
            break;
        }
        out.restarts += 1;
        if out.restarts > max_generations {
            return Err(SimError::Protocol(format!(
                "job did not converge after {} restarts",
                out.restarts
            )));
        }
        assignment = job.scheduler.reschedule(id)?;
    }
    out.events = job.record.events.lock().clone();
    out.checkpoints_written = job.record.written.load(Ordering::Relaxed);
    Ok(out)
}

/// A rank's hang action: it returns the checkpoint it wrote, if any, with
/// the write's virtual cost.
type HangAction = Box<dyn FnOnce() -> Option<(CheckpointAck, SimTime)> + Send>;

/// A rank's step hook: it reports whether it wrote a checkpoint.
type StepHook = Box<dyn FnMut(&mut RankTrainer<DirectExecutor>) -> SimResult<bool>>;

/// What every generation of one job shares.
struct Job {
    id: JobId,
    cfg: TrainConfig,
    cost: CostModel,
    lib: JitUserConfig,
    injector: Arc<FailureInjector>,
    scheduler: Arc<Scheduler>,
    store: Arc<SharedStore>,
    target_iters: u64,
    schedule: Option<Schedule>,
    record: Arc<Record>,
}

/// Every generation's events and checkpoint writes.
#[derive(Default)]
struct Record {
    events: Mutex<Vec<RecoveryEvent>>,
    written: AtomicU64,
}

impl Record {
    /// Counts one checkpoint write, by a hang action (with its event) or
    /// a step hook.
    fn wrote(&self, event: Option<RecoveryEvent>) {
        self.written.fetch_add(1, Ordering::Relaxed);
        self.events.lock().extend(event);
    }
}

/// What the rank threads of one generation share.
struct Generation {
    setup: JobSetup,
    assignment: Vec<GpuId>,
    /// The checkpoint every cell restores, if there is one.
    resume: Option<BTreeMap<(usize, usize), CellChoice>>,
}

/// One rank's generation: its `(iteration, loss)` pairs, the error that
/// ended it early, and the minibatch boundary it reached.
type RankRun = (Vec<(u64, f32)>, Option<SimError>, u64);

impl Job {
    fn run_rank(&self, gen: &Generation, i: usize) -> SimResult<RankRun> {
        let (rank, world) = (RankId::from(i), &gen.setup.world);
        let gpu = Gpu::new(gen.assignment[i], self.cost.clone());
        let mut exec = DirectExecutor::new(rank, i, gpu, world.clone());
        let (hang, mut step_hook) = self.hooks(world, &exec);
        let (job, scheduler, record) = (self.id, self.scheduler.clone(), self.record.clone());
        exec.set_observer(HangObserver::new(move || {
            if let Some((ack, write)) = hang() {
                record.wrote(Some(RecoveryEvent {
                    rank: ack.rank,
                    checkpoint_time: write,
                    restore_time: SimTime::ZERO,
                    iteration: ack.iteration,
                }));
                // The job is not killed here: the launcher kills it only
                // once every cell has a checkpoint, or nobody is left to
                // write one, so that every healthy rank gets to save first.
                // The rank's `acted` mark, recorded once this returns,
                // wakes the launcher to ask for the quorum.
                let _ = scheduler.ack_checkpoint(job, ack);
            }
        }));
        let comms = &gen.setup.per_rank[i];
        let mut tr = RankTrainer::new(exec, self.cfg.clone(), comms, self.injector.clone())?;
        if let Some(plan) = &gen.resume {
            self.restore(gen, &mut tr, plan)?;
        }
        let start = tr.iteration();
        let mut losses = Vec::new();
        let mut failure = None;
        let mut at_boundary = |tr: &mut RankTrainer<DirectExecutor>| -> SimResult<()> {
            if step_hook(tr)? {
                self.record.wrote(None);
            }
            Ok(())
        };
        at_boundary(&mut tr)?;
        for it in start..self.target_iters {
            match tr.train_step() {
                Ok(l) => losses.push((it, l.unwrap_or(f32::NAN))),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            at_boundary(&mut tr)?;
        }
        Ok((losses, failure, tr.iteration()))
    }

    /// The hang action and step hook of the rank of `exec`: user-level
    /// JIT's checkpoint and iteration note, or the periodic monitor's kill
    /// and scheduled write.
    fn hooks(&self, world: &Arc<CommWorld>, exec: &DirectExecutor) -> (HangAction, StepHook) {
        let Some(schedule) = &self.schedule else {
            let cell = Arc::new(IterationCell::default());
            let (layout, store) = (self.cfg.layout, self.store.clone());
            let save = save_checkpoint(exec, &self.lib, self.id, layout, store, cell.clone());
            let note = move |tr: &mut RankTrainer<DirectExecutor>| {
                cell.note(tr.iteration(), tr.opt_t());
                Ok(false)
            };
            return (Box::new(save), Box::new(note));
        };
        let timeout = self.lib.watchdog_timeout;
        let kill = periodic::monitor_action(world.clone(), exec.clock_idx(), timeout);
        let write = schedule.step_hook(self.id, exec, self.cfg.layout.coord(exec.rank()));
        (Box::new(kill), Box::new(write))
    }

    /// Restores a restarted rank from its cell's choice in `plan`, paying
    /// the fixed restart cost (the `r` of §5) and whatever each leg it
    /// tries costs. The ranks read the driver's choice directly;
    /// nobody resolves again. With stream recovery only the replica that
    /// owns the choice reads the store, and streams the state from its
    /// restored device to the cell's other replicas once its clock has
    /// paid for the read.
    fn restore(
        &self,
        gen: &Generation,
        tr: &mut RankTrainer<DirectExecutor>,
        plan: &BTreeMap<(usize, usize), CellChoice>,
    ) -> SimResult<()> {
        let (rank, i) = (tr.exec.rank(), tr.exec.clock_idx());
        let layout = self.cfg.layout;
        let coord = layout.coord(rank);
        let choice = plan[&(coord.stage, coord.part)];
        let owner = layout.rank_at(GridCoord {
            dp: choice.dp,
            ..coord
        });
        let clock = tr.exec.clock();
        let restart = self.cost.process_restart;
        // A replica that tries the owner's stream pays the restart first;
        // every other rank adds restart + read to its clock as one sum.
        let streams = self.lib.stream_recovery && rank != owner;
        let restarted = streams.then(|| clock.advance(i, restart));
        let mut read = SimTime::ZERO;
        let (chunks, _) = stream::restore_with_fallback(
            || Err(SimError::Protocol("no ledger attached".into())),
            || {
                if !streams {
                    return Err(SimError::Protocol("no replica streams to this rank".into()));
                }
                let patience = self.lib.stream_patience;
                stream::recv_verified(&gen.setup.world, &self.cost, owner, rank, i, patience)
            },
            || {
                let (shards, meta) = read_counted(
                    &*self.store,
                    self.id,
                    choice.kind,
                    choice.iteration,
                    coord.stage,
                    coord.part,
                    choice.dp,
                    &RestoreConfig::default(),
                )
                .0?;
                let (bytes, rpn) = (meta.logical_bytes, self.cfg.ranks_per_node);
                read = self.cost.checkpoint_read(bytes, self.lib.tier, rpn);
                Ok(shards)
            },
        )?;
        let restore_time = match restarted {
            Some(restarted) => restart + (clock.advance(i, read) - restarted),
            None => {
                clock.advance(i, restart + read);
                restart + read
            }
        };
        tr.restore_encoded(&chunks)?;
        if self.lib.stream_recovery && rank == owner {
            let gpn = self.cost.gpu.gpus_per_node();
            let node = |r: RankId| gen.assignment[r.index()].0 as usize / gpn;
            let shard_bytes = self.lib.shards.shard_bytes;
            let header = tr.with_state(|state| stream::stream_header(state, shard_bytes))?;
            for dp in (0..layout.dp).filter(|&dp| dp != choice.dp) {
                let peer = layout.rank_at(GridCoord { dp, ..coord });
                stream::send_state_frames(
                    &gen.setup.world,
                    &self.cost,
                    rank,
                    i,
                    peer,
                    node(rank) == node(peer),
                    header,
                    |k| tr.with_state(|state| stream::state_frame(state, k, shard_bytes)),
                    self.lib.stream_truncate,
                )?;
            }
        }
        self.record.events.lock().push(RecoveryEvent {
            rank,
            checkpoint_time: SimTime::ZERO,
            restore_time,
            iteration: tr.iteration(),
        });
        Ok(())
    }
}

/// A restart job's collective observer on one rank: the first wait the
/// collective layer proves hung runs the rank's hang action, on the
/// parked rank's own thread with no collectives lock held, while the
/// trainer stays parked in it (§3.2). When it returns the world records
/// that the rank acted; the rank can ack no more.
pub(crate) struct HangObserver {
    action: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl HangObserver {
    pub(crate) fn new(action: impl FnOnce() + Send + 'static) -> Arc<Self> {
        Arc::new(HangObserver {
            action: Mutex::new(Some(Box::new(action))),
        })
    }
}

impl CollectiveObserver for HangObserver {
    fn collective_started(&self, _ticket: &CollectiveTicket) {}
    fn collective_finished(&self, _ticket: &CollectiveTicket) {}
    fn collective_hung(&self, _ticket: &CollectiveTicket) {
        // Take the action out, *then* run it: `if let` would extend the
        // `action` lock's temporary guard across the body.
        let action = self.action.lock().take();
        if let Some(action) = action {
            action();
        }
    }
}

/// Spawns rank threads, each holding its one departure guard, and plays
/// the scheduler's monitoring role on the world's record of its ranks:
/// kill the job by aborting its communicators, so parked ranks release,
/// once `quorum` holds (§3, step 3 — at least one data-parallel replica
/// of every pipeline stage and tensor partition acknowledged) or every
/// rank has departed or acted on a proven hang, so no further ack can
/// come; then join everyone once every rank has departed. A rank still
/// running its hang action is stuck but has not acted, so it holds the
/// kill back until it has acked. A job whose ranks run no hang action
/// (the transparent one, which recovers in place) is only joined.
pub(crate) fn spawn_and_monitor<T, F>(
    n: usize,
    world: Arc<CommWorld>,
    quorum: impl Fn() -> bool,
    f: F,
) -> SimResult<Vec<SimResult<T>>>
where
    T: Send + 'static,
    F: Fn(usize) -> SimResult<T> + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let (f, departure) = (f.clone(), world.departure_guard(RankId::from(i)));
        let spawned = std::thread::Builder::new()
            .name(format!("rank{i}"))
            // The guard drops after everything `f` owned, the rank's
            // trainer and device included, and on a panic too.
            .spawn(move || {
                let _departure = departure;
                f(i)
            });
        match spawned {
            Ok(h) => handles.push(h),
            Err(e) => {
                // A partial world can only hang: release any ranks
                // already parked in collectives, then fail the job.
                world.abort_all();
                for h in handles {
                    let _ = h.join();
                }
                let msg = format!("failed to spawn rank thread: {e}");
                return Err(SimError::Protocol(msg));
            }
        }
    }
    // Each fact is read before `quorum` is asked, and an ack precedes its
    // rank's `acted` mark, whose wake-up ends the next wait: none is lost.
    let mut killed = false;
    let mut ranks = world.await_ranks(None, None);
    while ranks.departed.len() < n {
        if !killed && (ranks.departed.union(&ranks.acted).count() >= n || quorum()) {
            world.abort_all();
            killed = true;
        }
        ranks = world.await_ranks(Some(ranks.epoch), None);
    }
    Ok(handles
        .into_iter()
        .map(|h| match h.join() {
            Ok(r) => r,
            Err(_) => Err(SimError::Protocol("rank thread panicked".into())),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::Receiver;

    impl HangObserver {
        /// True once the hang action has run.
        pub(crate) fn fired(&self) -> bool {
            self.action.lock().is_none()
        }
    }

    type Results = SimResult<Vec<SimResult<()>>>;

    /// Runs a two-rank generation on its own thread: rank 0 fails before
    /// it trains (say, in its restore) and returns its error; rank 1 walks
    /// into a barrier with it, is proven hung, and runs `action` as its
    /// hang action. Returns the world, rank 1's world communicator, and
    /// where [`spawn_and_monitor`]'s results arrive.
    fn erring_generation(
        quorum: impl Fn() -> bool + Send + 'static,
        action: impl Fn() + Clone + Send + Sync + 'static,
    ) -> (
        Arc<CommWorld>,
        Arc<collectives::Communicator>,
        Receiver<Results>,
    ) {
        let cfg = dltrain::TrainConfig::tiny_dp(2);
        let cost = CostModel::v100();
        let setup = JobSetup::build(cfg.layout, cost.clone(), cfg.ranks_per_node);
        let (world, global) = (setup.world.clone(), setup.per_rank[1].global.clone());
        let (job_world, job_global) = (world.clone(), global.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rank_world = job_world.clone();
            let rank = move |i: usize| {
                if i == 0 {
                    return Err(SimError::Protocol("restore failed".into()));
                }
                let gpu = Gpu::new(GpuId(1), cost.clone());
                let mut exec = DirectExecutor::new(RankId::from(i), i, gpu, rank_world.clone());
                exec.set_observer(HangObserver::new(action.clone()));
                let global = exec.register_comm(job_global.clone());
                exec.barrier(global)
            };
            let _ = tx.send(spawn_and_monitor(2, job_world, quorum, rank));
        });
        (world, global, rx)
    }

    /// What the generation of [`erring_generation`] returns once killed.
    fn killed() -> Vec<SimResult<()>> {
        vec![
            Err(SimError::Protocol("restore failed".into())),
            Err(SimError::CollectiveAborted),
        ]
    }

    #[test]
    fn a_rank_that_errs_outside_its_step_still_gets_the_job_killed() -> SimResult<()> {
        // Rank 1's hang action acks nothing. Nothing can ack any more, so
        // the job must be killed and rank 1 released.
        let (_, _, rx) = erring_generation(|| false, || {});
        let results = rx
            .recv_timeout(Duration::from_secs(5))
            .map_err(|_| SimError::Protocol("the job was never killed".into()))??;
        assert_eq!(results, killed());
        Ok(())
    }

    #[test]
    fn a_rank_still_in_its_hang_action_holds_the_kill_back() -> SimResult<()> {
        // Rank 1 is stuck from the moment its barrier is proven hung, but
        // until its hang action returns it may still ack: the job must not
        // be killed before, and must be killed after. The launcher asks
        // for the quorum each time it weighs the kill and does not kill.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let (asked_tx, asked) = std::sync::mpsc::channel();
        let quorum = move || {
            let _ = asked_tx.send(());
            false
        };
        let action = {
            let gate = gate.clone();
            move || {
                gate.wait();
            }
        };
        let (world, global, rx) = erring_generation(quorum, action);
        let wait = Duration::from_secs(5);
        let mut facts = world.await_ranks(None, None);
        while facts.departed.is_empty() || facts.stuck.is_empty() {
            let next = world.await_ranks(Some(facts.epoch), Some(wait));
            assert!(next.epoch > facts.epoch, "rank 1 never stuck: {facts:?}");
            facts = next;
        }
        assert!(facts.acted.is_empty(), "{facts:?}");
        // Twice more, woken each time: the second weighs facts read after
        // rank 1 was seen stuck.
        for _ in asked.try_iter() {}
        for _ in 0..2 {
            world.wake_waiters();
            let weighed = asked.recv_timeout(wait);
            assert!(weighed.is_ok(), "killed while rank 1's hang action ran");
        }
        assert!(
            !global.is_aborted() && rx.try_recv().is_err(),
            "killed early"
        );
        gate.wait();
        let results = rx
            .recv_timeout(wait)
            .map_err(|_| SimError::Protocol("the job was never killed".into()))??;
        assert_eq!(results, killed());
        assert_eq!(world.await_ranks(None, None).acted.len(), 1);
        Ok(())
    }
}
