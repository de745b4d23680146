//! Transparent just-in-time error recovery (§4).
//!
//! [`TransparentEngine`] is the [`proxy::RecoveryHandler`] plugged into
//! every rank's interception client. When any intercepted operation
//! fails, the failing rank enters the engine; the engine aborts the
//! communication world so every peer parked in a hung collective surfaces
//! too (the per-rank watchdogs do the same for hangs the engine hasn't
//! seen yet). Once **all** ranks have arrived, the last arrival decides
//! the round with [`crate::decide`] — minibatch replay (§4.2.1), roll
//! forward (§4.2.2) or migration (§4.3) — and every rank executes its
//! share of the plan. Every step's duration is charged to the rank's
//! virtual clock and recorded in a [`RecoveryReport`] — the raw data
//! behind Tables 5–7.

use crate::decide::{decide, Action, RankStatus, RecoveryPlan};
use cluster::SharedStore;
use dltrain::{build_comms, JobComms};
use proxy::{
    CommToken, Executor, PendingOp, ProxyClient, RecoveryHandler, RecoveryOutcome, Watchdog,
};
use simcore::cost::StorageTier;
use simcore::layout::ParallelLayout;
use simcore::sync::{Condvar, Mutex, MutexGuard};
use simcore::{GpuId, RankId, SimError, SimResult, SimTime};
use simgpu::{Gpu, GpuHealth};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::decide::RecoveryMode;

/// One step of a recovery, with its virtual duration (Table 7 rows).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryStep {
    /// Step label (matches the paper's breakdown).
    pub name: String,
    /// Virtual duration.
    pub time: SimTime,
}

fn step(name: &str, time: SimTime) -> RecoveryStep {
    RecoveryStep {
        name: name.into(),
        time,
    }
}

/// Virtual time `client` spent since `t0`.
fn since(client: &ProxyClient, t0: SimTime) -> SimTime {
    client.now().saturating_sub(t0)
}

/// Timing report for one rank's recovery (Tables 5–7).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The recovering rank.
    pub rank: RankId,
    /// Recovery mode of the round.
    pub mode: RecoveryMode,
    /// Whether this rank's GPU was the failed one.
    pub was_victim: bool,
    /// Whether a hard (migration) path ran.
    pub hard: bool,
    /// Per-step durations.
    pub steps: Vec<RecoveryStep>,
    /// Total recovery time for this rank.
    pub total: SimTime,
}

/// Generous real-time hang threshold: on an oversubscribed host a healthy
/// collective can easily stall for hundreds of milliseconds, and the paper
/// excludes detection latency from its recovery measurements anyway (§6.4).
const WATCHDOG_TIMEOUT: Duration = Duration::from_millis(1500);

struct RoundPlan {
    decision: RecoveryPlan,
    /// Fresh communicator bundles (per rank).
    new_comms: Vec<JobComms>,
}

struct CoordState {
    /// Rounds completed so far.
    round: u64,
    /// Keyed by rank, so a full quorum lists statuses in rank order.
    arrived: BTreeMap<RankId, RankStatus>,
    /// The round's verdict once the last rank arrived: the plan, or why
    /// there is none. Every rank of the round reads the same one.
    plan: Option<SimResult<Arc<RoundPlan>>>,
    finished: usize,
    /// `(round, stage, part)` of every cell whose §4.3 buffer files some
    /// healthy replica has finished writing.
    hard_written: HashSet<(u64, usize, usize)>,
}

/// Per-job transparent recovery engine (shared by all rank clients).
pub struct TransparentEngine {
    layout: ParallelLayout,
    world: Arc<collectives::CommWorld>,
    state: Mutex<CoordState>,
    cv: Condvar,
    arrive_timeout: Duration,
    watchdogs: Mutex<HashMap<RankId, Watchdog>>,
    reports: Mutex<Vec<RecoveryReport>>,
    /// Store used for the §4.3 hard-error buffer files.
    store: Arc<SharedStore>,
    /// Replacement-GPU allocator for hard errors (returns a fresh device
    /// on a healthy node, as the scheduler would).
    gpu_allocator: Mutex<Box<dyn FnMut(RankId) -> Gpu + Send>>,
    /// Framework extra process groups per rank (must match the job
    /// setup's `extra_comms` so recovery rebuilds the same set).
    extra_comms: usize,
}

impl TransparentEngine {
    /// Creates the engine for a job.
    pub fn new(
        layout: ParallelLayout,
        world: Arc<collectives::CommWorld>,
        store: Arc<SharedStore>,
        gpu_allocator: impl FnMut(RankId) -> Gpu + Send + 'static,
    ) -> Arc<Self> {
        Self::with_extra_comms(layout, world, store, gpu_allocator, 0)
    }

    /// [`TransparentEngine::new`] for jobs whose setup registered
    /// `extra_comms` additional framework process groups.
    pub fn with_extra_comms(
        layout: ParallelLayout,
        world: Arc<collectives::CommWorld>,
        store: Arc<SharedStore>,
        gpu_allocator: impl FnMut(RankId) -> Gpu + Send + 'static,
        extra_comms: usize,
    ) -> Arc<Self> {
        Arc::new(TransparentEngine {
            layout,
            world,
            state: Mutex::new(CoordState {
                round: 0,
                arrived: BTreeMap::new(),
                plan: None,
                finished: 0,
                hard_written: HashSet::new(),
            }),
            cv: Condvar::new(),
            arrive_timeout: Duration::from_secs(30),
            watchdogs: Mutex::new(HashMap::new()),
            reports: Mutex::new(Vec::new()),
            store,
            gpu_allocator: Mutex::new(Box::new(gpu_allocator)),
            extra_comms,
        })
    }

    /// Attaches the engine to a rank's client: installs the recovery
    /// handler and arms this rank's hang watchdog.
    pub fn attach(self: &Arc<Self>, client: &mut ProxyClient) -> SimResult<()> {
        client.set_handler(self.clone());
        self.arm_watchdog(client)
    }

    fn arm_watchdog(&self, client: &mut ProxyClient) -> SimResult<()> {
        let world = self.world.clone();
        let wd = Watchdog::spawn(WATCHDOG_TIMEOUT, move || {
            // A hang means some peer failed: abort everything so all
            // parked ranks surface into the recovery engine.
            world.abort_all();
        })?;
        client.set_observer(wd.observer());
        // The watchdog this one replaces is dropped, and its thread
        // joined, only once the table's lock is released.
        let replaced = self.watchdogs.lock().insert(client.rank(), wd);
        drop(replaced);
        Ok(())
    }

    /// Recovery rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.state.lock().round
    }

    /// All per-rank recovery reports recorded so far.
    pub fn reports(&self) -> Vec<RecoveryReport> {
        self.reports.lock().clone()
    }

    /// The §4.3 buffer-file path for a (cell, storage key) pair: identical
    /// on every data-parallel replica of the cell.
    fn hard_path(round: u64, stage: usize, part: usize, key: &str) -> String {
        format!("hard/r{round}/s{stage}p{part}/{key}")
    }

    /// Rank-enter protocol: register status, make sure everyone else will
    /// surface, wait for the full quorum, and have the last arrival decide
    /// the round. A round [`decide`] rejects fails on every rank at once.
    fn rank_enter(&self, rank: RankId, status: RankStatus) -> SimResult<(u64, Arc<RoundPlan>)> {
        // Ensure every peer surfaces (idempotent with watchdog aborts).
        self.world.abort_all();
        let n = self.layout.world_size();
        let mut st = self.state.lock();
        let round = st.round;
        st.arrived.insert(rank, status);
        if st.arrived.len() == n {
            let statuses: Vec<RankStatus> = st.arrived.values().copied().collect();
            st.plan = Some(decide(&self.layout, &statuses).map(|d| Arc::new(self.plan_round(d))));
            self.cv.notify_all();
        }
        self.wait_until(&mut st, |s| s.plan.is_some());
        match &st.plan {
            Some(verdict) => verdict.clone().map(|plan| (round, plan)),
            None => Err(SimError::Protocol(format!(
                "recovery quorum timeout: {}/{n} ranks arrived in round {round}",
                st.arrived.len()
            ))),
        }
    }

    /// Marks a rank done with the round; the last one resets round state.
    /// The others wait for that, so a rank cannot race ahead and trip a
    /// new round against stragglers of this one.
    fn rank_finish(&self) -> SimResult<()> {
        let n = self.layout.world_size();
        let mut st = self.state.lock();
        let round = st.round;
        st.finished += 1;
        if st.finished == n {
            st.round += 1;
            st.arrived.clear();
            st.plan = None;
            st.finished = 0;
            self.cv.notify_all();
        }
        if !self.wait_until(&mut st, |s| s.round != round) {
            return Err(SimError::Protocol(format!(
                "recovery round {round} never closed: {}/{n} ranks finished",
                st.finished
            )));
        }
        Ok(())
    }

    /// Waits on the engine's condvar until `done` holds of the round
    /// state; false if `arrive_timeout` passes first.
    fn wait_until(
        &self,
        st: &mut MutexGuard<'_, CoordState>,
        done: impl Fn(&CoordState) -> bool,
    ) -> bool {
        let deadline = Instant::now() + self.arrive_timeout;
        while !done(st) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.cv.wait_for(st, deadline - now);
        }
        true
    }

    /// The round's side effects: rebuild the communication layer, extra
    /// process groups included, on a clean world. Each rank's rebind makes
    /// the new communicators adopt their predecessors' completed-slot
    /// caches, so replayed operations need no re-participation.
    fn plan_round(&self, decision: RecoveryPlan) -> RoundPlan {
        self.world.reset();
        let mut new_comms = build_comms(&self.layout, &self.world);
        let n = self.layout.world_size();
        let all: Vec<RankId> = (0..n).map(|i| RankId(i as u32)).collect();
        let idx: Vec<usize> = (0..n).collect();
        for _ in 0..self.extra_comms {
            let c = self.world.create_comm(all.clone(), idx.clone());
            for bundle in &mut new_comms {
                bundle.extras.push(c.clone());
            }
        }
        RoundPlan {
            decision,
            new_comms,
        }
    }

    /// Swaps the client's registered communicators for the freshly built
    /// ones, matching by member set (tokens stay stable, like virtual
    /// handles).
    fn rebind_comms(
        &self,
        client: &mut ProxyClient,
        bundle: &JobComms,
    ) -> SimResult<Vec<CommToken>> {
        let world_ranks: Vec<RankId> = (0..self.layout.world_size())
            .map(|i| RankId(i as u32))
            .collect();
        let tokens = client.comm_tokens();
        // World-spanning tokens map, in token order, onto [global,
        // extras...] — token numbering is SPMD-identical across ranks, so
        // every rank pairs the same token with the same instance.
        let mut world_pool: Vec<Arc<collectives::Communicator>> =
            std::iter::once(bundle.global.clone())
                .chain(bundle.extras.iter().cloned())
                .collect();
        world_pool.reverse(); // pop() yields global first
        for token in &tokens {
            let old_arc = client.comm(*token)?;
            let old = old_arc.ranks().to_vec();
            // Specific groups first: in pure data parallelism the dp
            // group's member set equals the world group's, and the dp
            // token must keep its own (cache-bearing) instance.
            let replacement = if let Some(dp) = bundle.dp.as_ref().filter(|c| c.ranks() == old) {
                dp.clone()
            } else if let Some(tp) = bundle.tp.as_ref().filter(|c| c.ranks() == old) {
                tp.clone()
            } else if let Some(pp) = bundle.pp.as_ref().filter(|c| c.ranks() == old) {
                pp.clone()
            } else if old == world_ranks {
                world_pool.pop().ok_or_else(|| {
                    SimError::Protocol("more world-group tokens than rebuilt comms".into())
                })?
            } else {
                return Err(SimError::Protocol(format!(
                    "no rebuilt communicator matches member set {old:?}"
                )));
            };
            // Carry the completed-slot cache forward so replayed
            // operations can be served without re-participation.
            replacement.adopt_completed_from(&old_arc);
            client.replace_comm(*token, replacement);
        }
        Ok(tokens)
    }

    /// The hard-error path for a *healthy* rank: write every persistent
    /// buffer to the shared store under the cross-rank-stable key, and
    /// take a CRIU checkpoint of the worker CPU state (§4.3).
    fn hard_healthy_side(&self, client: &mut ProxyClient, round: u64) -> SimResult<RecoveryStep> {
        let coord = self.layout.coord(client.rank());
        let t0 = client.now();
        let (snap, bytes) = client.snapshot_persistent_to_host()?;
        let cost = client.server().gpu().cost_model().clone();
        for (key, _tag, data) in &snap {
            let framed = simcore::codec::encode_framed(data);
            self.store
                .put(Self::hard_path(round, coord.stage, coord.part, key), framed)?;
        }
        {
            // The cell's files are all there: tell a victim waiting for them.
            let mut st = self.state.lock();
            st.hard_written.insert((round, coord.stage, coord.part));
            self.cv.notify_all();
        }
        client.charge(cost.checkpoint_write(bytes, StorageTier::Disk, cost.gpu.gpus_per_node()));
        // CRIU checkpoint + restore of the worker CPU process. The image
        // really carries the interception state (replay log, iteration,
        // communicator generations); the worker heap's logical size is a
        // fixed multi-GB footprint for cost purposes.
        let image = client.worker_cpu_state()?;
        let criu_bytes = 2 << 30;
        client.charge(cost.criu(criu_bytes));
        client.restore_worker_cpu_state(&image)?;
        // Restore on the new node, then read the GPU state back there.
        client.charge(cost.criu(criu_bytes));
        client.charge(cost.checkpoint_read(bytes, StorageTier::Disk, cost.gpu.gpus_per_node()));
        Ok(step("JIT checkpoint + CRIU + restore", since(client, t0)))
    }

    /// The hard-error path for the *victim*: migrate to a replacement GPU
    /// under the CRIU-preserved worker, re-create persistent objects, and
    /// fill them from the buffer files the replicas wrote.
    fn hard_victim_side(&self, client: &mut ProxyClient, round: u64) -> SimResult<RecoveryStep> {
        let coord = self.layout.coord(client.rank());
        let t0 = client.now();
        let new_gpu = (self.gpu_allocator.lock())(client.rank());
        let cost = new_gpu.cost_model().clone();
        // CRIU image taken before migration, restored on the new node —
        // the replay log and interception state survive the move.
        let image = client.worker_cpu_state()?;
        client.migrate_to_gpu(new_gpu)?;
        client.restore_worker_cpu_state(&image)?;
        client.charge(cost.criu(2 << 30));
        // Read every persistent buffer from a replica's files, matched by
        // the allocation-site storage key (§4.3's naming scheme).
        let (local, bytes) = client.server().gpu().snapshot_persistent();
        // Replicas write these files concurrently with this rank's
        // migration; wait (bounded) until one of them says its set is
        // complete, then read each file once.
        let no_replica =
            |path: &str| SimError::NoCheckpointAvailable(format!("no replica wrote {path}"));
        let cell = (round, coord.stage, coord.part);
        let dir = Self::hard_path(round, coord.stage, coord.part, "");
        if !self.wait_until(&mut self.state.lock(), |s| s.hard_written.contains(&cell)) {
            return Err(no_replica(&dir));
        }
        let mut restored = Vec::with_capacity(local.len());
        for (key, tag, data) in local {
            let path = Self::hard_path(round, coord.stage, coord.part, &key);
            let framed = self.store.get(&path).map_err(|_| no_replica(&path))?;
            let replica_data: Vec<f32> = simcore::codec::decode_framed(&framed)?;
            if replica_data.len() != data.len() {
                return Err(SimError::CorruptCheckpoint(format!(
                    "{path}: length {} vs local layout {}",
                    replica_data.len(),
                    data.len()
                )));
            }
            restored.push((key, tag, replica_data));
        }
        let gpu = client.server_mut().gpu_mut();
        gpu.restore_persistent(&restored)?;
        client.charge(cost.checkpoint_read(bytes, StorageTier::Disk, cost.gpu.gpus_per_node()));
        let name = "migrate + CRIU restore + read replica buffers";
        Ok(step(name, since(client, t0)))
    }
}

impl RecoveryHandler for TransparentEngine {
    fn handle(
        &self,
        client: &mut ProxyClient,
        _op: &PendingOp,
        err: &SimError,
    ) -> SimResult<RecoveryOutcome> {
        let rank = client.rank();
        let health = client.health();
        let status = RankStatus {
            health,
            is_victim: health != GpuHealth::Healthy || matches!(err, SimError::NetworkTransient),
            position: client.position(),
        };
        // Silence this rank's watchdog for the duration of recovery: the
        // recovery collectives (rendezvous, replica sync, replay) run at
        // coordination pace and must not be mistaken for hangs.
        client.set_observer(Arc::new(collectives::NullObserver));
        let (round, plan) = self.rank_enter(rank, status)?;
        let mine = &plan.decision.ranks[rank.index()];
        let mut actions = mine.actions.iter().copied().peekable();
        let mut steps: Vec<RecoveryStep> = Vec::new();

        // Step 1: delete communicators and GPU handles.
        let t0 = client.now();
        let cost = client.server().gpu().cost_model().clone();
        client.charge(cost.comm_teardown);
        steps.push(step(
            "Delete communicators and GPU handles",
            since(client, t0),
        ));

        // Step 2 (ordering): per-rank state reset BEFORE the collective
        // rendezvous, so every rank arrives at the rendezvous ready.
        let t0 = client.now();
        while let Some(action) =
            actions.next_if(|a| !matches!(a, Action::CopyFromReplica { .. } | Action::Replay))
        {
            self.execute(client, round, action, &[], &mut steps)?;
        }
        steps.push(step("Reset GPU buffers", since(client, t0)));

        // Step 3: recreate communicators (rendezvous per group — the
        // dominant cost, Table 7). The step is reported at its intrinsic
        // cost (bootstrap time × groups); the virtual clock additionally
        // absorbs barrier waits for straggling peers, which the paper's
        // per-rank measurements exclude.
        let bundle = plan.new_comms[rank.index()].clone();
        let tokens = self.rebind_comms(client, &bundle)?;
        for token in &tokens {
            client.rendezvous_comm(*token)?;
        }
        let comm_init = client.server().gpu().cost_model().comm_init;
        steps.push(step(
            "Recreate NCCL communicators",
            SimTime::from_secs(comm_init.as_secs() * tokens.len() as f64),
        ));

        // Step 4: replica state sync for cells that lost state.
        while let Some(action) = actions.next_if(|a| matches!(a, Action::CopyFromReplica { .. })) {
            self.execute(client, round, action, &tokens, &mut steps)?;
        }

        // Step 5: recreate GPU handles happened inside reset_with_restart;
        // charge a nominal entry for the in-place case to keep reports
        // uniform.
        steps.push(step("Recreate GPU handles", SimTime::from_millis(5.0)));
        client.charge(SimTime::from_millis(5.0));

        // Step 6: replay the minibatch device APIs (a roll-forward round
        // reports the step at zero).
        if !mine.actions.contains(&Action::Replay) {
            steps.push(step("Replay minibatch APIs", SimTime::ZERO));
        }
        for action in actions {
            self.execute(client, round, action, &tokens, &mut steps)?;
        }

        // Per-rank recovery time = this rank's own work (Σ steps), the
        // paper's Table 5/6 metric.
        let total = steps.iter().fold(SimTime::ZERO, |acc, s| acc + s.time);
        self.reports.lock().push(RecoveryReport {
            rank,
            mode: plan.decision.mode,
            was_victim: status.is_victim,
            hard: plan.decision.hard,
            steps,
            total,
        });
        // Re-arm this rank's watchdog for the next failure.
        self.arm_watchdog(client)?;
        self.rank_finish()?;
        Ok(mine.outcome)
    }
}

impl TransparentEngine {
    /// Runs one action of this rank's plan. `tokens` are the rebuilt
    /// communicators (empty before the rendezvous).
    fn execute(
        &self,
        client: &mut ProxyClient,
        round: u64,
        action: Action,
        tokens: &[CommToken],
        steps: &mut Vec<RecoveryStep>,
    ) -> SimResult<()> {
        match action {
            Action::ResetInPlace { charged } => {
                client.reset_in_place()?;
                if charged {
                    client.charge(SimTime::from_millis(1.0));
                }
            }
            Action::HostRoundTrip => {
                let (snap, bytes) = client.snapshot_persistent_to_host()?;
                client.reset_with_restart()?;
                client.restore_persistent_from_host(&snap, bytes)?;
            }
            Action::Restart => client.reset_with_restart()?,
            Action::Migrate => steps.push(self.hard_victim_side(client, round)?),
            Action::WriteHardFiles => steps.push(self.hard_healthy_side(client, round)?),
            Action::CopyFromReplica { root } => {
                let t0 = client.now();
                // Use the data-parallel communicator for the copy.
                let dp_group = self.layout.dp_group_of(client.rank());
                let dp_token = tokens
                    .iter()
                    .find(|t| client.comm(**t).is_ok_and(|c| c.ranks() == dp_group))
                    .copied()
                    .ok_or_else(|| {
                        SimError::Protocol("no data-parallel communicator for replica sync".into())
                    })?;
                client.sync_persistent_from_replica(dp_token, root)?;
                steps.push(step("Copy state from replica", since(client, t0)));
            }
            Action::Replay => {
                let t0 = client.now();
                client.replay()?;
                steps.push(step("Replay minibatch APIs", since(client, t0)));
            }
        }
        Ok(())
    }

    /// Helper used by harnesses that allocate replacement GPUs from a
    /// simple counter.
    pub fn counter_gpu_allocator(
        start_id: u32,
        cost: simcore::cost::CostModel,
    ) -> impl FnMut(RankId) -> Gpu + Send {
        let mut next = start_id;
        move |_rank| {
            let g = Gpu::new(GpuId(next), cost.clone());
            next += 1;
            g
        }
    }
}

/// Result of a complete transparent-JIT job run.
#[derive(Debug)]
pub struct TransparentOutcome {
    /// Per-rank loss trajectories (NaN on ranks that never see the loss).
    pub losses: Vec<Vec<f32>>,
    /// Recovery rounds performed.
    pub rounds: u64,
    /// Per-rank recovery reports (Tables 5–7 raw data).
    pub reports: Vec<RecoveryReport>,
    /// Per-rank virtual completion time.
    pub finish_times: Vec<SimTime>,
    /// Per-rank logged device-API counts (steady-state overhead metric).
    pub logged_calls: Vec<u64>,
}

/// Runs a training job under transparent JIT: every rank trains through a
/// [`ProxyClient`] with the engine attached; injected failures are
/// recovered without the "application" (the trainer) ever seeing an
/// error. The launcher loop of the user-level design disappears — that is
/// the point of §4.
pub fn run_transparent_job(
    cfg: dltrain::TrainConfig,
    cost: simcore::cost::CostModel,
    injector: Arc<cluster::FailureInjector>,
    store: Arc<SharedStore>,
    target_iters: u64,
) -> SimResult<TransparentOutcome> {
    run_transparent_job_with(cfg, cost, injector, store, target_iters, 0)
}

/// [`run_transparent_job`] with `extra_comms` additional framework
/// process groups per rank (Megatron/DeepSpeed-style), which recovery
/// must rebuild — the Table 7 communicator-count knob.
pub fn run_transparent_job_with(
    cfg: dltrain::TrainConfig,
    cost: simcore::cost::CostModel,
    injector: Arc<cluster::FailureInjector>,
    store: Arc<SharedStore>,
    target_iters: u64,
    extra_comms: usize,
) -> SimResult<TransparentOutcome> {
    use dltrain::{JobSetup, RankTrainer};
    let layout = cfg.layout;
    let n = layout.world_size();
    let setup = JobSetup::build_with_extras(layout, cost.clone(), cfg.ranks_per_node, extra_comms);
    let world = setup.world.clone();
    let per_rank = setup.per_rank.clone();
    let engine = TransparentEngine::with_extra_comms(
        layout,
        world.clone(),
        store,
        TransparentEngine::counter_gpu_allocator(10_000, cost.clone()),
        extra_comms,
    );
    let engine2 = engine.clone();
    let clock = setup.clock.clone();
    let results = dltrain::run_ranks(n, move |i| {
        let rank = RankId(i as u32);
        let gpu = Gpu::new(GpuId(i as u32), cost.clone());
        let mut client = ProxyClient::new(rank, i, gpu, world.clone());
        engine2.attach(&mut client)?;
        let mut tr = RankTrainer::new(client, cfg.clone(), &per_rank[i], injector.clone())?;
        let losses = tr.train(target_iters)?;
        Ok::<_, SimError>((losses, tr.exec.logged_calls()))
    });
    let mut losses = Vec::with_capacity(n);
    let mut logged = Vec::with_capacity(n);
    for r in results {
        let (l, c) = r?;
        losses.push(l);
        logged.push(c);
    }
    Ok(TransparentOutcome {
        losses,
        rounds: engine.rounds(),
        reports: engine.reports(),
        finish_times: (0..n).map(|i| clock.now(i)).collect(),
        logged_calls: logged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::cost::CostModel;

    #[test]
    fn hard_paths_are_cell_scoped_and_round_scoped() {
        let a = TransparentEngine::hard_path(0, 1, 2, "model.w-abc-s0-n16");
        let b = TransparentEngine::hard_path(0, 1, 3, "model.w-abc-s0-n16");
        let c = TransparentEngine::hard_path(1, 1, 2, "model.w-abc-s0-n16");
        assert_ne!(a, b, "different partitions never collide");
        assert_ne!(a, c, "different rounds never collide");
        assert!(a.contains("s1p2"));
    }

    #[test]
    fn counter_allocator_hands_out_fresh_gpus() {
        let mut alloc = TransparentEngine::counter_gpu_allocator(100, CostModel::v100());
        let a = alloc(RankId(0));
        let b = alloc(RankId(0));
        assert_eq!(a.id, GpuId(100));
        assert_eq!(b.id, GpuId(101));
    }

    #[test]
    fn a_rank_left_alone_in_a_round_gets_a_protocol_error() -> SimResult<()> {
        let layout = ParallelLayout::data_parallel(2);
        let world = dltrain::JobSetup::build(layout, CostModel::v100(), 8).world;
        let mut engine = TransparentEngine::new(
            layout,
            world,
            Arc::new(SharedStore::new()),
            TransparentEngine::counter_gpu_allocator(0, CostModel::v100()),
        );
        Arc::get_mut(&mut engine)
            .ok_or_else(|| SimError::Protocol("engine is shared".into()))?
            .arrive_timeout = Duration::from_millis(20);
        // Rank 0 finishes round 0; rank 1 never does.
        assert_eq!(
            engine.rank_finish(),
            Err(SimError::Protocol(
                "recovery round 0 never closed: 1/2 ranks finished".into()
            ))
        );
        Ok(())
    }
}
