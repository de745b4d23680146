//! Transparent just-in-time error recovery (§4).
//!
//! [`TransparentEngine`] is the [`proxy::RecoveryHandler`] plugged into
//! every rank's interception client. When any intercepted operation
//! fails, the failing rank enters the engine; the engine aborts the
//! communication world so every peer parked in a hung collective surfaces
//! too. The engine is also every rank's collective observer: a collective
//! the world's liveness table proves hung aborts the world the same way,
//! with no timer and no thread. Once **all** ranks have arrived, the last
//! arrival decides the round with [`crate::decide`] — minibatch replay
//! (§4.2.1), roll forward (§4.2.2) or migration (§4.3) — and every rank
//! runs its share of the plan: each [`Action`] in the order `decide`
//! listed it, teardown, rendezvous and handle recreation included. Each
//! action is charged to the rank's virtual clock and recorded once in a
//! [`RecoveryReport`] — the raw data behind Tables 5–7.
//!
//! A whole job is [`crate::launcher::run_job`]'s transparent arm, `run`,
//! whose ranks stay in the job until all are done training. An engine
//! wait parks on the world's wake-up path and ends on arrivals, or at
//! once when the world records that a rank it needs departed. Only an
//! `attach` caller whose rank threads hold no departure guard can meet
//! the deadline, [`LAST_RESORT`].

use crate::checkpoint::ShardConfig;
use crate::decide::{decide, RankStatus, RecoveryPlan};
use crate::launcher::{spawn_and_monitor, JobOutcome};
use crate::stream::{open_frame, state_frame, stream_header};
use cluster::SharedStore;
use collectives::{CollectiveObserver, CollectiveTicket, RankFacts};
use dltrain::{build_comms, JobComms, JobSetup, RankTrainer};
use proxy::{CommToken, Executor, PendingOp, ProxyClient, RecoveryHandler, RecoveryOutcome};
use simcore::cost::StorageTier;
use simcore::layout::ParallelLayout;
use simcore::sync::Mutex;
use simcore::{GpuId, RankId, SimError, SimResult, SimTime};
use simgpu::{Gpu, GpuHealth};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::decide::{Action, RecoveryMode};

/// Timing report for one rank's recovery (Tables 5–7).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The recovering rank.
    pub rank: RankId,
    /// Recovery mode of the round.
    pub mode: RecoveryMode,
    /// Whether this rank's GPU was the failed one.
    pub was_victim: bool,
    /// The actions that ran, in order, each with its virtual duration
    /// (Table 7 rows).
    pub steps: Vec<(Action, SimTime)>,
    /// Total recovery time for this rank: the sum of `steps`.
    pub total: SimTime,
}

/// How long an engine wait lasts when no fact ends it: only when a rank it
/// needs holds no departure guard (an `attach` caller other than `run`).
const LAST_RESORT: Duration = Duration::from_secs(30);

struct RoundPlan {
    round: u64,
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
    /// Ranks done with the open round.
    finished: BTreeSet<RankId>,
    /// `(round, stage, part)` of every cell whose §4.3 frames some
    /// healthy replica has finished writing in the open round, with how
    /// many frames the cell has.
    hard_written: HashMap<(u64, usize, usize), usize>,
    /// Ranks done training.
    trained: BTreeSet<RankId>,
}

/// Per-job transparent recovery engine (shared by all rank clients).
pub struct TransparentEngine {
    layout: ParallelLayout,
    world: Arc<collectives::CommWorld>,
    state: Mutex<CoordState>,
    reports: Mutex<Vec<RecoveryReport>>,
    /// Store used for the §4.3 hard-error frames.
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
    pub(crate) fn with_extra_comms(
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
                finished: BTreeSet::new(),
                hard_written: HashMap::new(),
                trained: BTreeSet::new(),
            }),
            reports: Mutex::new(Vec::new()),
            store,
            gpu_allocator: Mutex::new(Box::new(gpu_allocator)),
            extra_comms,
        })
    }

    /// Attaches the engine to a rank's client, as its recovery handler
    /// and as its collective observer.
    pub fn attach(self: &Arc<Self>, client: &mut ProxyClient) -> SimResult<()> {
        client.set_handler(self.clone());
        client.set_observer(self.clone());
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

    /// The directory of a round's §4.3 frames.
    fn hard_dir(round: u64) -> String {
        format!("hard/r{round}/")
    }

    /// The path of a cell's §4.3 frame `i`: identical on every
    /// data-parallel replica of the cell.
    fn hard_path(round: u64, stage: usize, part: usize, i: usize) -> String {
        format!("{}s{stage}p{part}/f{i:05}", Self::hard_dir(round))
    }

    /// Rank-enter protocol: register status, make sure everyone else will
    /// surface, wait for the full quorum, and have the last arrival decide
    /// the round. A round [`decide`] rejects fails on every rank at once,
    /// and so does one a rank departed from.
    fn rank_enter(&self, rank: RankId, status: RankStatus) -> SimResult<Arc<RoundPlan>> {
        // Ensure every peer surfaces (idempotent with hang aborts).
        self.world.abort_all();
        let n = self.layout.world_size();
        let mut st = self.state.lock();
        st.arrived.insert(rank, status);
        if st.arrived.len() == n {
            let statuses: Vec<RankStatus> = st.arrived.values().copied().collect();
            let verdict = decide(&self.layout, &statuses);
            st.plan = Some(verdict.map(|d| Arc::new(self.plan_round(st.round, d))));
        }
        drop(st);
        // Every arrival wakes the ranks done training: the round needs them.
        self.world.wake_waiters();
        self.wait(|s, _| s.plan.clone(), "no quorum")?
    }

    /// Marks `rank` done with the round; the last one resets round state
    /// and deletes the round's §4.3 frames, which every victim has read
    /// by then. The others wait for the reset, so a rank cannot race ahead
    /// and trip a new round against stragglers of this one. The round's
    /// recovery generations (its rendezvous and replica sync) need no
    /// dropping here: the last member to pick each one up dropped it, so
    /// none is cached once every rank is done with the round.
    fn rank_finish(&self, rank: RankId) -> SimResult<()> {
        let n = self.layout.world_size();
        let (round, last) = {
            let mut st = self.state.lock();
            st.finished.insert(rank);
            (st.round, st.finished.len() == n)
        };
        if last {
            self.update(|st| {
                st.round += 1;
                st.plan = None;
                st.arrived.clear();
                st.finished.clear();
                st.hard_written.clear();
            });
        }
        self.wait(|s, _| (s.round != round).then_some(()), "no close")?;
        if last {
            self.store.delete_prefix(Self::hard_dir(round));
        }
        Ok(())
    }

    /// Changes the engine's state with `change`, then wakes every engine
    /// wait through the world's one wake-up path.
    fn update<T>(&self, change: impl FnOnce(&mut CoordState) -> T) -> T {
        let got = change(&mut self.state.lock());
        self.world.wake_waiters();
        got
    }

    /// Waits on the world's wake-up path until `ready` yields, given the
    /// engine's state and the world's record of its ranks. Fails, saying
    /// `what` never came, at once when a rank that has not finished the
    /// open round departed (it can never end the wait), and after
    /// [`LAST_RESORT`].
    fn wait<T>(
        &self,
        ready: impl Fn(&CoordState, &RankFacts) -> Option<T>,
        what: &str,
    ) -> SimResult<T> {
        let deadline = Instant::now() + LAST_RESORT;
        // Read before the state it is checked with, so a wake-up after
        // the check ends the park at once.
        let mut ranks = self.world.await_ranks(None, None);
        loop {
            let st = self.state.lock();
            if let Some(got) = ready(&st, &ranks) {
                return Ok(got);
            }
            let now = Instant::now();
            let why = match ranks.departed.iter().find(|r| !st.finished.contains(r)) {
                Some(gone) => format!("{gone} departed"),
                None if now >= deadline => format!("{LAST_RESORT:?} passed"),
                None => {
                    drop(st);
                    ranks = self
                        .world
                        .await_ranks(Some(ranks.epoch), Some(deadline - now));
                    continue;
                }
            };
            let (a, f, n) = (
                st.arrived.len(),
                st.finished.len(),
                self.layout.world_size(),
            );
            return Err(SimError::Protocol(format!(
                "{what} in recovery round {} ({a}/{n} ranks arrived, {f} finished), and {why}",
                st.round
            )));
        }
    }

    /// Keeps a rank done training in the job until every rank is done or
    /// departed, entering each round that opens meanwhile as a healthy
    /// rank, through [`RecoveryHandler::handle`]'s `recover`.
    fn finish_training(&self, client: &mut ProxyClient) -> SimResult<()> {
        let n = self.layout.world_size();
        self.update(|st| st.trained.insert(client.rank()));
        // `true` once a round opened, `false` once every rank is done.
        let next = |s: &CoordState, r: &RankFacts| {
            let opened = !s.arrived.is_empty();
            (opened || s.trained.union(&r.departed).count() == n).then_some(opened)
        };
        while self.wait(next, "no end of training")? {
            let status = RankStatus {
                health: client.health(),
                is_victim: false,
                position: client.position(),
            };
            self.recover(client, status)?;
        }
        Ok(())
    }

    /// The round's side effects: rebuild the communication layer, extra
    /// process groups included, on a clean world. Each rank's rebind makes
    /// the new communicators adopt their predecessors' completed-slot
    /// caches, so replayed operations need no re-participation.
    fn plan_round(&self, round: u64, decision: RecoveryPlan) -> RoundPlan {
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
            round,
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

    /// The hard-error path for a *healthy* rank: park the recovery
    /// stream's frames of its persistent state in the shared store, each
    /// encoded straight from the device ([`state_frame`]), and take a
    /// CRIU checkpoint of the worker CPU state (§4.3).
    fn hard_healthy_side(&self, client: &mut ProxyClient, round: u64) -> SimResult<()> {
        let coord = self.layout.coord(client.rank());
        client.flush_pending()?;
        let gpu = client.gpu();
        let cost = gpu.cost_model().clone();
        let shard_bytes = ShardConfig::default().shard_bytes;
        // The victim loads the buffers only: iteration and step are not read.
        let view = gpu.state_view(0, 0)?;
        let n = stream_header(&view, shard_bytes).n_shards as usize;
        for i in 0..n {
            let path = Self::hard_path(round, coord.stage, coord.part, i);
            self.store.put(path, state_frame(&view, i, shard_bytes))?;
        }
        let bytes = view.logical_bytes;
        // The device → host copy the frames are written from.
        client.charge(cost.memcpy(bytes));
        // The cell's frames are all there: tell a victim waiting for them.
        self.update(|st| st.hard_written.insert((round, coord.stage, coord.part), n));
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
        Ok(())
    }

    /// The hard-error path for the *victim*: migrate to a replacement GPU
    /// under the CRIU-preserved worker, re-create persistent objects, and
    /// decode a replica's frames into them with one [`Gpu::load_state`],
    /// which matches each buffer by its allocation-site storage key
    /// (§4.3's naming scheme). Every frame is checked, and every key, tag
    /// and length, before any buffer is written: a missing or bad frame
    /// fails the round with the fresh device untouched.
    fn hard_victim_side(&self, client: &mut ProxyClient, round: u64) -> SimResult<()> {
        let coord = self.layout.coord(client.rank());
        let new_gpu = (self.gpu_allocator.lock())(client.rank());
        let cost = new_gpu.cost_model().clone();
        // CRIU image taken before migration, restored on the new node —
        // the replay log and interception state survive the move.
        let image = client.worker_cpu_state()?;
        client.migrate_to_gpu(new_gpu)?;
        client.restore_worker_cpu_state(&image)?;
        client.charge(cost.criu(2 << 30));
        // Replicas write the frames concurrently with this rank's
        // migration; wait until one of them says how many the cell has,
        // then read each once.
        let cell = (round, coord.stage, coord.part);
        let frames = |s: &CoordState, _: &RankFacts| s.hard_written.get(&cell).copied();
        let n = self.wait(frames, "no §4.3 frames for a victim")?;
        let frames = (0..n)
            .map(|i| {
                let path = Self::hard_path(round, coord.stage, coord.part, i);
                let gone = |_| SimError::NoCheckpointAvailable(format!("no replica wrote {path}"));
                open_frame(&path, self.store.get(&path).map_err(gone)?, i as u64)
            })
            .collect::<SimResult<Vec<_>>>()?;
        let gpu = client.gpu_mut();
        let bytes = gpu.persistent().map(|b| b.logical_bytes).sum();
        gpu.load_state(&frames)?;
        client.charge(cost.checkpoint_read(bytes, StorageTier::Disk, cost.gpu.gpus_per_node()));
        Ok(())
    }
}

impl RecoveryHandler for TransparentEngine {
    fn handle(
        &self,
        client: &mut ProxyClient,
        _op: &PendingOp,
        err: &SimError,
    ) -> SimResult<RecoveryOutcome> {
        let health = client.health();
        let status = RankStatus {
            health,
            is_victim: health != GpuHealth::Healthy || matches!(err, SimError::NetworkTransient),
            position: client.position(),
        };
        self.recover(client, status)
    }
}

/// The engine as every rank's collective observer: a collective proven
/// hung aborts the world, so every parked rank surfaces into the engine.
impl CollectiveObserver for TransparentEngine {
    fn collective_started(&self, _ticket: &CollectiveTicket) {}
    fn collective_finished(&self, _ticket: &CollectiveTicket) {}
    fn collective_hung(&self, _ticket: &CollectiveTicket) {
        self.world.abort_all();
    }
}

impl TransparentEngine {
    /// One rank's part in a recovery round: enter it with `status`, run
    /// this rank's share of the plan, record its report, and finish.
    fn recover(&self, client: &mut ProxyClient, status: RankStatus) -> SimResult<RecoveryOutcome> {
        let rank = client.rank();
        let plan = self.rank_enter(rank, status)?;
        let mine = &plan.decision.ranks[rank.index()];
        let mut steps = Vec::with_capacity(mine.actions.len());
        for &action in &mine.actions {
            steps.push((action, self.execute(client, &plan, action)?));
        }
        // Per-rank recovery time = this rank's own work (Σ steps), the
        // paper's Table 5/6 metric.
        let total = steps.iter().fold(SimTime::ZERO, |acc, &(_, t)| acc + t);
        self.reports.lock().push(RecoveryReport {
            rank,
            mode: plan.decision.mode,
            was_victim: status.is_victim,
            steps,
            total,
        });
        self.rank_finish(rank)?;
        Ok(mine.outcome)
    }

    /// Runs one action of this rank's plan and returns its virtual
    /// duration: the clock's advance, except where the rendezvous and the
    /// handle step report their intrinsic cost.
    fn execute(
        &self,
        client: &mut ProxyClient,
        plan: &RoundPlan,
        action: Action,
    ) -> SimResult<SimTime> {
        let t0 = client.now();
        match action {
            Action::Teardown => {
                let teardown = client.gpu().cost_model().comm_teardown;
                client.charge(teardown);
            }
            Action::ResetInPlace { charged } => {
                client.reset_in_place()?;
                if charged {
                    client.charge(SimTime::from_millis(1.0));
                }
            }
            Action::HostRoundTrip => {
                // The restart frees everything but the persistent state
                // anyway: free it first, so the host snapshot does not sit
                // beside the minibatch's gradients.
                client.reset_in_place()?;
                let (snap, bytes) = client.snapshot_persistent_to_host()?;
                client.reset_with_restart()?;
                client.restore_persistent_from_host(&snap, bytes)?;
            }
            Action::Restart => client.reset_with_restart()?,
            Action::Migrate => self.hard_victim_side(client, plan.round)?,
            Action::WriteHardFiles => self.hard_healthy_side(client, plan.round)?,
            Action::Rendezvous => {
                // One rendezvous per group — the dominant cost (Table 7).
                // It is reported at its intrinsic cost (bootstrap time ×
                // groups); the clock also absorbs barrier waits for
                // straggling peers, which the paper's per-rank figures
                // exclude. Tokens bound to one instance (the world and dp
                // groups of a DP-only job) bootstrap it once.
                let bundle = &plan.new_comms[client.rank().index()];
                let tokens = self.rebind_comms(client, bundle)?;
                let mut met = Vec::with_capacity(tokens.len());
                for token in &tokens {
                    let id = client.comm(*token)?.id;
                    if !met.contains(&id) {
                        met.push(id);
                        client.rendezvous_comm(*token)?;
                    }
                }
                let comm_init = client.gpu().cost_model().comm_init;
                return Ok(SimTime::from_secs(
                    comm_init.as_secs() * tokens.len() as f64,
                ));
            }
            Action::CopyFromReplica { root } => {
                // Use the data-parallel communicator for the copy.
                let dp_group = self.layout.dp_group_of(client.rank());
                let dp_token = client
                    .comm_tokens()
                    .into_iter()
                    .find(|t| client.comm(*t).is_ok_and(|c| c.ranks() == dp_group))
                    .ok_or_else(|| {
                        SimError::Protocol("no data-parallel communicator for replica sync".into())
                    })?;
                client.sync_persistent_from_replica(dp_token, root)?;
            }
            Action::RecreateHandles => {
                // Handles were recreated inside any restart or migration;
                // the step charges a nominal 5 ms and reports exactly that,
                // not the clock's advance, which rounds differently at the
                // clock's post-rendezvous magnitude.
                let nominal = SimTime::from_millis(5.0);
                client.charge(nominal);
                return Ok(nominal);
            }
            Action::Replay => {
                client.replay()?;
            }
        }
        Ok(client.now().saturating_sub(t0))
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

/// A transparent job: every rank trains through a [`ProxyClient`] with
/// the engine attached, so the trainer never sees a failure and nothing
/// restarts (§4). Lost GPUs are replaced from 10 000 up.
pub(crate) fn run(
    cfg: dltrain::TrainConfig,
    cost: simcore::cost::CostModel,
    injector: Arc<cluster::FailureInjector>,
    store: Arc<SharedStore>,
    target_iters: u64,
    extra_comms: usize,
) -> SimResult<JobOutcome> {
    let (layout, n) = (cfg.layout, cfg.layout.world_size());
    let JobSetup {
        world,
        clock,
        per_rank,
        ..
    } = JobSetup::build_with(layout, cost.clone(), cfg.ranks_per_node, extra_comms, None);
    let alloc = TransparentEngine::counter_gpu_allocator(10_000, cost.clone());
    let engine =
        TransparentEngine::with_extra_comms(layout, world.clone(), store, alloc, extra_comms);
    // Each rank thread takes its own first communicators and drops them
    // once its client holds them: a round replaces them, and what they
    // cached goes with them.
    let per_rank: Vec<Mutex<Option<JobComms>>> =
        per_rank.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let (rank_world, attach) = (world.clone(), engine.clone());
    let rank = move |i: usize| {
        let rank = RankId::from(i);
        let comms = per_rank[i].lock().take();
        let comms = comms.ok_or_else(|| SimError::Protocol(format!("{rank} spawned twice")))?;
        let gpu = Gpu::new(GpuId(i as u32), cost.clone());
        let mut client = ProxyClient::new(rank, i, gpu, rank_world.clone());
        attach.attach(&mut client)?;
        let mut tr = RankTrainer::new(client, cfg.clone(), &comms, injector.clone())?;
        drop(comms);
        let losses = tr.train(target_iters)?;
        attach.finish_training(&mut tr.exec)?;
        Ok((losses, tr.exec.logged_calls()))
    };
    // Nobody acks a checkpoint: the job is only joined.
    let results = spawn_and_monitor(n, world, || false, rank)?;
    let ranks = results.into_iter().collect::<SimResult<Vec<_>>>()?;
    let (losses, logged_calls) = ranks.into_iter().unzip();
    Ok(JobOutcome {
        losses,
        rounds: engine.rounds(),
        reports: engine.reports(),
        finish_times: (0..n).map(|i| clock.now(i)).collect(),
        logged_calls,
        ..JobOutcome::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dltrain::model::{alloc_buf, upload};
    use proxy::Executor;
    use simcore::cost::CostModel;
    use simgpu::BufferTag;

    #[test]
    fn hard_paths_are_cell_scoped_and_round_scoped() {
        let a = TransparentEngine::hard_path(0, 1, 2, 3);
        let b = TransparentEngine::hard_path(0, 1, 3, 3);
        let c = TransparentEngine::hard_path(1, 1, 2, 3);
        assert_ne!(a, b, "different partitions never collide");
        assert_ne!(a, c, "different rounds never collide");
        assert_eq!(a, "hard/r0/s1p2/f00003");
    }

    #[test]
    fn closing_a_round_deletes_its_files_and_no_other() -> SimResult<()> {
        let layout = ParallelLayout::data_parallel(2);
        let world = dltrain::JobSetup::build(layout, CostModel::v100(), 8).world;
        let store = Arc::new(SharedStore::new());
        let engine = TransparentEngine::new(
            layout,
            world,
            store.clone(),
            TransparentEngine::counter_gpu_allocator(0, CostModel::v100()),
        );
        let file = |round| TransparentEngine::hard_path(round, 0, 0, 0);
        for round in 0..2 {
            store.put(file(round), bytes::Bytes::from_static(b"frame"))?;
        }
        engine.state.lock().hard_written.insert((0, 0, 0), 1);
        // Both ranks finish round 0.
        std::thread::scope(|s| {
            let peer = s.spawn(|| engine.rank_finish(RankId(1)));
            let mine = engine.rank_finish(RankId(0));
            let peer = peer
                .join()
                .map_err(|_| SimError::Protocol("rank 1 panicked".into()))?;
            mine.and(peer)
        })?;
        assert_eq!(store.list("hard/"), vec![file(1)]);
        assert!(engine.state.lock().hard_written.is_empty());
        assert_eq!(engine.rounds(), 1);
        Ok(())
    }

    /// Elements in each of a test rank's three persistent buffers: 8.4 MB
    /// of state, three frames at the default 4 MiB.
    const ELEMS: usize = 700_000;

    /// A DP = 2 rank's client whose three persistent buffers were created
    /// and filled, each rank's differently, before its first minibatch.
    fn rank_client(world: &Arc<collectives::CommWorld>, rank: u32) -> SimResult<ProxyClient> {
        let gpu = Gpu::new(GpuId(rank), CostModel::v100());
        let mut client = ProxyClient::new(RankId(rank), rank as usize, gpu, world.clone());
        for (k, path) in ["model.a", "model.b", "adam.m"].into_iter().enumerate() {
            let tag = [BufferTag::Param, BufferTag::Param, BufferTag::OptimState][k];
            let buf = alloc_buf(&mut client, path, ELEMS, 1.0, tag)?;
            let data = (0..ELEMS).map(|i| (i * 3 + k) as f32 * (rank + 1) as f32);
            upload(&mut client, buf, data.collect())?;
        }
        client.begin_minibatch(0)?;
        Ok(client)
    }

    #[test]
    fn a_missing_or_bad_frame_leaves_the_migrated_device_untouched() -> SimResult<()> {
        let layout = ParallelLayout::data_parallel(2);
        let world = dltrain::JobSetup::build(layout, CostModel::v100(), 8).world;
        // Every buffer's checksum, in id order.
        let sums = |c: &ProxyClient| -> Vec<u64> { c.gpu().checksum_all().into_values().collect() };
        // What the victim's device holds after migrating, before any load.
        let mut twin = rank_client(&world, 0)?;
        twin.migrate_to_gpu(Gpu::new(GpuId(100), CostModel::v100()))?;
        let fresh = sums(&twin);
        for case in ["intact", "corrupt the last frame", "delete the first frame"] {
            let store = Arc::new(SharedStore::new());
            let alloc = TransparentEngine::counter_gpu_allocator(100, CostModel::v100());
            let engine = TransparentEngine::new(layout, world.clone(), store.clone(), alloc);
            let mut healthy = rank_client(&world, 1)?;
            engine.hard_healthy_side(&mut healthy, 0)?;
            let frames = store.list("hard/");
            assert_eq!(frames.len(), 3, "{case}");
            match case {
                // Frame 2 holds the end of the last buffer.
                "corrupt the last frame" => store.corrupt(&frames[2])?,
                "delete the first frame" => store.delete(&frames[0]),
                _ => {}
            }
            let mut victim = rank_client(&world, 0)?;
            let loaded = engine.hard_victim_side(&mut victim, 0);
            let have = sums(&victim);
            if case == "intact" {
                loaded?;
                assert_eq!(have, sums(&healthy));
                assert_ne!(have, fresh);
                continue;
            }
            let err = loaded.err();
            assert!(
                matches!(
                    err,
                    Some(SimError::Codec(_) | SimError::NoCheckpointAvailable(_))
                ),
                "{case}: {err:?}"
            );
            assert_eq!(have, fresh, "{case}: a refused frame set wrote a buffer");
        }
        Ok(())
    }

    #[test]
    fn every_dp_only_round_bootstraps_each_distinct_communicator_once() -> SimResult<()> {
        // Three DP-only rounds through the engine's quorum, plan and
        // close, rank 1 hit by a sticky error in each. Both of a rank's
        // tokens (world and dp) are bound to the one rebuilt dp
        // communicator, so each rank's clock passes the later arrival at
        // the rendezvous by one bootstrap, in every round.
        let layout = ParallelLayout::data_parallel(2);
        let setup = dltrain::JobSetup::build(layout, CostModel::v100(), 8);
        let engine = TransparentEngine::new(
            layout,
            setup.world.clone(),
            Arc::new(SharedStore::new()),
            TransparentEngine::counter_gpu_allocator(0, CostModel::v100()),
        );
        let arrivals = Mutex::new([SimTime::ZERO; 2]);
        let both_arrived = std::sync::Barrier::new(2);
        let rank = |r: usize| -> SimResult<Vec<f64>> {
            let mut client = rank_client(&setup.world, r as u32)?;
            let bundle = &setup.per_rank[r];
            for comm in std::iter::once(&bundle.global).chain(&bundle.dp) {
                client.register_comm(comm.clone());
            }
            let mut past_later_arrival = Vec::new();
            for _ in 0..3 {
                if r == 1 {
                    let gpu = client.gpu_mut();
                    gpu.inject(simcore::failure::FailureKind::StickyCuda);
                }
                let health = client.health();
                let is_victim = health != GpuHealth::Healthy;
                let position = client.position();
                let status = RankStatus {
                    health,
                    is_victim,
                    position,
                };
                let plan = engine.rank_enter(RankId(r as u32), status)?;
                for &action in &plan.decision.ranks[r].actions {
                    if action != Action::Rendezvous {
                        engine.execute(&mut client, &plan, action)?;
                        continue;
                    }
                    arrivals.lock()[r] = client.now();
                    both_arrived.wait();
                    engine.execute(&mut client, &plan, action)?;
                    let later = arrivals
                        .lock()
                        .iter()
                        .map(|t| t.as_secs())
                        .fold(0.0, f64::max);
                    past_later_arrival.push(client.now().as_secs() - later);
                }
                engine.rank_finish(RankId(r as u32))?;
            }
            Ok(past_later_arrival)
        };
        let (healthy, victim) = std::thread::scope(|s| {
            let victim = s.spawn(|| rank(1));
            (rank(0), victim.join())
        });
        let victim = victim.map_err(|_| SimError::Protocol("rank 1 panicked".into()))?;
        let bootstrap = CostModel::v100().comm_init.as_secs();
        for (who, past) in [("healthy", healthy?), ("victim", victim?)] {
            assert_eq!(past.len(), 3, "{who}: one rendezvous step per round");
            for (round, t) in past.into_iter().enumerate() {
                assert!((t - bootstrap).abs() < 1e-9, "{who}, round {round}: {t} s");
            }
        }
        assert_eq!(engine.rounds(), 3);
        Ok(())
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
    fn only_a_rank_without_a_guard_leaves_an_engine_wait_to_its_last_resort() -> SimResult<()> {
        // Rank 0 finishes round 0 and waits for rank 1 to close it. While
        // rank 1's thread holds its departure guard, rank 0 waits; once
        // the thread returns, rank 0 learns at once that the round can
        // never close. A rank thread that holds no guard never departs:
        // only rank 1 finishing the round, or `LAST_RESORT`, ends the wait.
        let layout = ParallelLayout::data_parallel(2);
        let wait = Duration::from_secs(5);
        for guarded in [true, false] {
            let world = dltrain::JobSetup::build(layout, CostModel::v100(), 8).world;
            let engine = TransparentEngine::new(
                layout,
                world.clone(),
                Arc::new(SharedStore::new()),
                TransparentEngine::counter_gpu_allocator(0, CostModel::v100()),
            );
            let guard = guarded.then(|| world.departure_guard(RankId(1)));
            let (tx, rx) = std::sync::mpsc::channel();
            let finisher = engine.clone();
            std::thread::spawn(move || tx.send(finisher.rank_finish(RankId(0))));
            let parked = Duration::from_millis(100);
            assert!(rx.recv_timeout(parked).is_err(), "guarded {guarded}");
            drop(guard);
            if guarded {
                let got = rx.recv_timeout(wait).map_err(|_| {
                    SimError::Protocol("a departure left the wait to its last resort".into())
                })?;
                let why = "no close in recovery round 0 (0/2 ranks arrived, 1 finished), \
                           and rank1 departed";
                assert_eq!(got, Err(SimError::Protocol(why.into())));
                continue;
            }
            assert!(rx.recv_timeout(parked).is_err(), "a guardless wait ended");
            engine.rank_finish(RankId(1))?;
            rx.recv_timeout(wait)
                .map_err(|_| SimError::Protocol("the round never closed".into()))??;
        }
        Ok(())
    }

    #[test]
    fn a_rank_left_alone_in_a_round_gets_a_protocol_error() {
        let layout = ParallelLayout::data_parallel(2);
        let world = dltrain::JobSetup::build(layout, CostModel::v100(), 8).world;
        let engine = TransparentEngine::new(
            layout,
            world.clone(),
            Arc::new(SharedStore::new()),
            TransparentEngine::counter_gpu_allocator(0, CostModel::v100()),
        );
        // Rank 1 departs without finishing round 0; rank 0 finishes it and
        // learns at once that the round can never close.
        drop(world.departure_guard(RankId(1)));
        assert_eq!(
            engine.rank_finish(RankId(0)),
            Err(SimError::Protocol(
                "no close in recovery round 0 (0/2 ranks arrived, 1 finished), and rank1 departed"
                    .into()
            ))
        );
    }

    #[test]
    fn a_collective_that_needs_a_departed_rank_fails_the_round_at_once() -> SimResult<()> {
        // Rank 1's thread has returned. Rank 0's barrier is proven hung,
        // the engine (its observer) aborts the world, and the round rank 0
        // then enters has no quorum to wait for.
        let layout = ParallelLayout::data_parallel(2);
        let setup = dltrain::JobSetup::build(layout, CostModel::v100(), 8);
        let engine = TransparentEngine::new(
            layout,
            setup.world.clone(),
            Arc::new(SharedStore::new()),
            TransparentEngine::counter_gpu_allocator(0, CostModel::v100()),
        );
        drop(setup.world.departure_guard(RankId(1)));
        let mut client = rank_client(&setup.world, 0)?;
        engine.attach(&mut client)?;
        let token = client.register_comm(setup.per_rank[0].global.clone());
        assert_eq!(
            client.barrier(token),
            Err(SimError::Protocol(
                "no quorum in recovery round 0 (1/2 ranks arrived, 0 finished), and rank1 departed"
                    .into()
            ))
        );
        Ok(())
    }
}
