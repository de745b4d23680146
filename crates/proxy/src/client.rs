//! The proxy client: interception, replay logging, recovery primitives,
//! and replay-log correctness verification.
//!
//! [`ProxyClient`] implements [`Executor`], so the training framework runs
//! against it unchanged. Every call is:
//!
//! 1. translated from virtual to physical handles through one table of
//!    `(kind, physical id)` per virtual id, which refuses a handle of one
//!    kind passed as another and forgets, at each minibatch boundary,
//!    every object destroyed before it,
//! 2. executed on the proxy server that owns the device,
//! 3. logged (with input values) into the per-minibatch replay log —
//!    from the first minibatch on: what runs before it is never
//!    replayed — and
//! 4. — on failure — routed to the installed [`RecoveryHandler`] instead
//!    of the application. If the handler recovers, the call is retried (or
//!    skipped, for the optimizer-step case of §4.2.2) and the application
//!    never observes the error.
//!
//! A collective is the same value [`crate::DirectExecutor`] runs — the
//! kind with its operands — logged with its communicator and generation;
//! the live call and its replay execute that one record.
//!
//! The client also provides the recovery primitives the handler composes:
//! reset-to-minibatch-start (in place, or via proxy-server restart with
//! object re-creation), host round-trips of persistent state, replica
//! state sync over a communicator, and log replay. Replay charges only
//! CPU dispatch cost per call — re-submission is asynchronous and GPU
//! re-execution overlaps, which is why the paper measures replay in
//! milliseconds (Table 7) — while still re-executing the math for real so
//! recovered state is bit-identical.

use crate::executor::{
    check_comm_health, Coll, CommPlane, CommToken, Executor, PendingOp, PersistentSnapshot,
};
use crate::oplog::{destroyed_by, handle_of, LoggedColl, LoggedOp, OpLog, VirtualMap};
use crate::server::{encode_batch, ProxyServer, BATCH_SHARD_BYTES};
use collectives::{
    CollectiveObserver, CommId, CommWorld, Communicator, ReduceOp, RECOVERY_GEN_BASE,
};
use simcore::failure::FailureKind;
use simcore::time::ClockBoard;
use simcore::{RankId, SimError, SimResult, SimTime};
use simgpu::buffer::DeviceBuffer;
use simgpu::{BufferId, BufferTag, CallResult, DeviceCall, Gpu, GpuHealth};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Where a rank is within its current minibatch — the coordinate that
/// picks the recovery direction (§3.3/§4.2.2): before the optimizer the
/// persistent state is still minibatch-start (roll back); at or past the
/// optimizer the replicas' state is already next-minibatch (roll forward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinibatchPosition {
    /// In the forward/backward/all-reduce window.
    FwdBwd,
    /// Inside the optimizer step.
    Optimizer,
    /// After the optimizer, before the next `begin_minibatch`.
    AfterOptimizer,
}

/// What the recovery handler decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Recovery succeeded; retry the failed operation.
    Retry,
    /// Recovery rolled this rank *forward* to the next minibatch
    /// (optimizer-step failures, §4.2.2); ignore device APIs until the
    /// next `begin_minibatch`.
    SkipToNextMinibatch,
}

/// Recovery policy invoked on the rank thread when an intercepted
/// operation fails. Implemented by the transparent JIT engine in the
/// `jitckpt` crate.
pub trait RecoveryHandler: Send + Sync {
    /// Attempts recovery. Runs on the failing rank's thread with full
    /// access to the client's recovery primitives.
    fn handle(
        &self,
        client: &mut ProxyClient,
        op: &PendingOp,
        err: &SimError,
    ) -> SimResult<RecoveryOutcome>;
}

/// Shard payload size for the CRIU-style CPU-state image: small enough to
/// bound staging memory while streaming a large replay log, large enough
/// that the per-shard frame overhead stays negligible.
const CPU_STATE_SHARD_BYTES: usize = 256 * 1024;

/// Default number of deferred calls staged before a flush. The capacity
/// sweep recorded in EXPERIMENTS.md ("Flush-capacity sweep") shows per-op
/// overhead knees at 64 (926 ns at 1, 449 ns at 64) with diminishing
/// returns beyond — a larger batch only adds staging memory, so 64 is the
/// default.
const DEFAULT_BATCH_CAPACITY: usize = 64;

/// The per-rank interception client (Figure 2's "device proxy client").
pub struct ProxyClient {
    plane: CommPlane,
    server: ProxyServer,
    vmap: VirtualMap,
    /// Each persistent object's creating call and virtual id, in
    /// creation order.
    creation_log: Vec<(DeviceCall, u64)>,
    /// How many `creation_log` entries precede the current minibatch:
    /// the objects a restart re-creates.
    creation_boundary: usize,
    /// Virtual ids whose destroy was logged since the last minibatch
    /// boundary; the next boundary forgets them.
    destroyed: Vec<u64>,
    replay_log: OpLog,
    /// Whether a minibatch has begun. Before the first one nothing goes
    /// into the replay log: that boundary clears it unread.
    began: bool,
    /// Translated (physical-id) deferred calls awaiting one batched round
    /// trip to the server; flushed when `batch_capacity` are staged and at
    /// every synchronization point.
    pending: Vec<DeviceCall>,
    batch_capacity: usize,
    iteration: u64,
    position: MinibatchPosition,
    skip_rest: bool,
    replay_mode: bool,
    in_recovery: bool,
    handler: Option<Arc<dyn RecoveryHandler>>,
    logged_calls: u64,
    /// The next recovery generation of each bound communicator instance:
    /// two tokens bound to one instance share one count.
    rendezvous_gens: HashMap<CommId, u64>,
    verify_at: Option<u64>,
    verify_every: Option<u64>,
    last_verify_ok: Option<bool>,
}

impl ProxyClient {
    /// Creates a client for `rank` over a fresh server on `gpu`.
    pub fn new(rank: RankId, clock_idx: usize, gpu: Gpu, world: Arc<CommWorld>) -> Self {
        ProxyClient {
            plane: CommPlane::new(rank, clock_idx, world),
            server: ProxyServer::new(gpu),
            vmap: VirtualMap::new(),
            creation_log: Vec::new(),
            creation_boundary: 0,
            destroyed: Vec::new(),
            replay_log: OpLog::new(),
            began: false,
            pending: Vec::new(),
            batch_capacity: DEFAULT_BATCH_CAPACITY,
            iteration: 0,
            position: MinibatchPosition::FwdBwd,
            skip_rest: false,
            replay_mode: false,
            in_recovery: false,
            handler: None,
            logged_calls: 0,
            rendezvous_gens: HashMap::new(),
            verify_at: Some(5),
            verify_every: None,
            last_verify_ok: None,
        }
    }

    /// Installs the recovery handler (the transparent JIT engine).
    pub fn set_handler(&mut self, handler: Arc<dyn RecoveryHandler>) {
        self.handler = Some(handler);
    }

    /// Installs the collective observer (the transparent engine).
    pub fn set_observer(&mut self, obs: Arc<dyn CollectiveObserver>) {
        self.plane.observer = obs;
    }

    /// Configures replay-log verification: first at iteration `first`,
    /// then every `every` iterations (§4.1: once at the 5th minibatch and
    /// then every N). Pass `None, None` to disable. Named only by the
    /// benchmark; it goes at ROADMAP item 3 step 1.
    pub fn set_verify_schedule(&mut self, first: Option<u64>, every: Option<u64>) {
        self.verify_at = first;
        self.verify_every = every;
    }

    /// Result of the most recent replay-log verification, if any ran.
    /// Named only by the benchmark; it goes at ROADMAP item 3 step 1.
    pub fn last_verify(&self) -> Option<bool> {
        self.last_verify_ok
    }

    /// Number of device APIs logged so far (steady-state overhead metric).
    pub fn logged_calls(&self) -> u64 {
        self.logged_calls
    }

    /// Length of the current replay log.
    pub fn replay_log_len(&self) -> usize {
        self.replay_log.len()
    }

    /// Number of virtual handles bound (diagnostics): the objects alive
    /// now, plus those destroyed since the last minibatch boundary.
    pub fn live_handles(&self) -> usize {
        self.vmap.len()
    }

    /// Alias of [`ProxyClient::replay_log_len`]: the log is replayed as
    /// logged, nothing is compacted away. Named only by the benchmark
    /// (its `compacted_kept_ratio` reads 1); it goes at ROADMAP item 3
    /// step 1.
    pub fn compacted_log_len(&self) -> usize {
        self.replay_log_len()
    }

    /// Reconfigures the deferred-call staging capacity (flush batch
    /// size). Capacity 1 degenerates to one framed round trip per call —
    /// the unbatched baseline. Flushes anything currently staged first.
    pub fn set_batch_capacity(&mut self, cap: usize) -> SimResult<()> {
        self.flush_pending()?;
        self.batch_capacity = cap;
        Ok(())
    }

    /// Position within the current minibatch (framework hooks §4.2.2).
    pub fn position(&self) -> MinibatchPosition {
        self.position
    }

    /// The communication world.
    pub fn world(&self) -> &Arc<CommWorld> {
        &self.plane.world
    }

    /// The device behind the proxy server, read-only.
    pub fn gpu(&self) -> &Gpu {
        self.server.gpu()
    }

    /// The device behind the proxy server, mutable (recovery resets,
    /// fault injection).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        self.server.gpu_mut()
    }

    /// Registered communicator tokens, sorted.
    pub fn comm_tokens(&self) -> Vec<CommToken> {
        self.plane.tokens()
    }

    /// The communicator behind a token.
    pub fn comm(&self, token: CommToken) -> SimResult<Arc<Communicator>> {
        self.plane.comm(token)
    }

    /// Swaps the communicator behind a token (recovery re-creation: the
    /// token — like a virtual handle — stays stable for the application
    /// and the replay log).
    pub fn replace_comm(&mut self, token: CommToken, comm: Arc<Communicator>) {
        self.plane.replace(token, comm);
        // A replaced instance is never used again: forget its count.
        let bound: Vec<CommId> = (self.plane.tokens().into_iter())
            .filter_map(|t| Some(self.plane.comm(t).ok()?.id))
            .collect();
        self.rendezvous_gens.retain(|id, _| bound.contains(id));
    }

    /// Rendezvous on a registered communicator (recovery's NCCL
    /// bootstrap; charges the comm-init cost, not logged).
    pub fn rendezvous_comm(&mut self, token: CommToken) -> SimResult<()> {
        let comm = self.plane.comm(token)?;
        // Rendezvous generations live in their own (high-bit) space: a
        // recovery rendezvous must never occupy the generation that the
        // interrupted data operation will retry with.
        let counter = self.rendezvous_gens.entry(comm.id).or_insert(0);
        let gen = (RECOVERY_GEN_BASE << 1) | *counter;
        comm.rendezvous(self.plane.rank, gen, self.plane.observer.as_ref())?;
        *counter += 1;
        Ok(())
    }

    /// Advances this rank's virtual clock (recovery-step accounting).
    pub fn charge(&self, t: SimTime) {
        self.plane.advance(t);
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> SimTime {
        self.plane.clock.now(self.plane.clock_idx)
    }

    fn cost_model(&self) -> simcore::cost::CostModel {
        self.server.gpu().cost_model().clone()
    }

    /// Executes a virtual-form device call on the server, virtualizing any
    /// returned handle. Charges full cost in normal mode, dispatch cost in
    /// replay mode.
    fn exec_virtual(&mut self, vcall: &DeviceCall) -> SimResult<CallResult> {
        let pcall = self.vmap.to_physical(vcall)?;
        let (res, cost) = self.server.exec(&pcall)?;
        let charge = if self.replay_mode {
            self.cost_model().replay_dispatch
        } else {
            cost + self.cost_model().effective_log_overhead()
        };
        self.charge(charge);
        Ok(self.vmap.bind(res))
    }

    /// Whether a call may be deferred into the batched round trip: it
    /// returns no result, so the application cannot observe that it has
    /// not reached the device yet (the CUDA-async submission model).
    fn is_deferrable(call: &DeviceCall) -> bool {
        matches!(
            call,
            DeviceCall::Upload { .. }
                | DeviceCall::CopyD2D { .. }
                | DeviceCall::Launch { .. }
                | DeviceCall::Free { .. }
        )
    }

    /// Stages a deferrable call instead of a per-call round trip:
    /// translates it to physical handles *now* (binding errors stay
    /// synchronous), logs it (the log records submission order, which is
    /// what recovery replays), and charges only the log overhead. The
    /// device cost is charged when the batch flushes, so virtual-time
    /// totals at every synchronization point match per-call execution.
    fn defer(&mut self, vcall: &DeviceCall) -> SimResult<CallResult> {
        let pcall = self.vmap.to_physical(vcall)?;
        if self.pending.len() >= self.batch_capacity {
            self.flush_pending()?;
            // The flush may have routed a failure to the recovery
            // handler and rolled this rank forward past the minibatch.
            if self.skip_rest {
                return Ok(CallResult::None);
            }
        }
        self.pending.push(pcall);
        self.log_device(vcall, &CallResult::None);
        self.charge(self.cost_model().effective_log_overhead());
        Ok(CallResult::None)
    }

    /// Sends every staged call to the server in one framed round trip
    /// and charges the summed device cost. On failure the remaining
    /// staged calls are *discarded*, not retried: they are already in
    /// the replay log, so the recovery handler's reset + replay
    /// regenerates their effects (re-executing here would double-apply
    /// whatever part of the batch ran before the fault).
    pub fn flush_pending(&mut self) -> SimResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let frame = encode_batch(&self.pending, BATCH_SHARD_BYTES);
        let first = self.pending.drain(..).next();
        match self.server.exec_batch(&frame) {
            Ok((_, cost)) => {
                self.charge(cost);
                Ok(())
            }
            Err(e) => {
                let op = PendingOp::Device(first.unwrap_or(DeviceCall::DeviceSync));
                match self.dispatch_handler(op, e)? {
                    RecoveryOutcome::Retry => Ok(()),
                    RecoveryOutcome::SkipToNextMinibatch => {
                        self.skip_rest = true;
                        Ok(())
                    }
                }
            }
        }
    }

    fn record_creation(&mut self, vcall: &DeviceCall, vid: u64) {
        let persistent = match vcall {
            DeviceCall::Malloc { tag, .. } => tag.is_persistent(),
            DeviceCall::StreamCreate | DeviceCall::EventCreate => true,
            _ => false,
        };
        if persistent {
            self.creation_log.push((vcall.clone(), vid));
        }
    }

    fn log_device(&mut self, vcall: &DeviceCall, res: &CallResult) {
        let result_vid = handle_of(res).map(|(_, vid)| vid);
        if let Some(vid) = result_vid {
            self.record_creation(vcall, vid);
        }
        self.destroyed.extend(destroyed_by(vcall));
        if self.began {
            self.replay_log.push_device(vcall, result_vid);
        }
        self.logged_calls += 1;
    }

    fn log_op(&mut self, op: LoggedOp) {
        if self.began {
            self.replay_log.push(&op);
        }
        self.logged_calls += 1;
        self.charge(self.cost_model().effective_log_overhead());
    }

    fn synthesize(&self, vcall: &DeviceCall) -> CallResult {
        match vcall {
            DeviceCall::EventQuery { .. } => CallResult::Bool(true),
            DeviceCall::Download { .. } => CallResult::Data(Vec::new()),
            _ => CallResult::None,
        }
    }

    fn dispatch_handler(&mut self, op: PendingOp, err: SimError) -> SimResult<RecoveryOutcome> {
        if self.in_recovery || self.replay_mode {
            return Err(err);
        }
        let handler = match &self.handler {
            Some(h) => h.clone(),
            None => return Err(err),
        };
        self.in_recovery = true;
        let outcome = handler.handle(self, &op, &err);
        self.in_recovery = false;
        outcome
    }

    /// The one interception loop every application-visible operation
    /// goes through. An ignorable (`skippable`) operation returns `None`
    /// while the rank is rolled forward past its minibatch (§4.2.2); a
    /// synchronization point (`flush`) first drains the staged batch,
    /// whose own recovery may start that roll-forward. Then `attempt`
    /// runs until it succeeds: each failure goes to the recovery handler,
    /// which either recovers (retry) or rolls this rank forward (`None`,
    /// and the rest of the minibatch is ignored). With no handler, or
    /// inside recovery or replay, the error surfaces unchanged.
    fn intercept<T>(
        &mut self,
        skippable: bool,
        flush: bool,
        pending: impl Fn() -> PendingOp,
        mut attempt: impl FnMut(&mut Self) -> SimResult<T>,
    ) -> SimResult<Option<T>> {
        if self.skip_rest && skippable {
            return Ok(None);
        }
        if flush {
            self.flush_pending()?;
            if self.skip_rest && skippable {
                return Ok(None);
            }
        }
        loop {
            match attempt(self) {
                Ok(res) => return Ok(Some(res)),
                Err(e) => match self.dispatch_handler(pending(), e)? {
                    RecoveryOutcome::Retry => continue,
                    RecoveryOutcome::SkipToNextMinibatch => {
                        self.skip_rest = true;
                        return Ok(None);
                    }
                },
            }
        }
    }

    /// A network operation through [`ProxyClient::intercept`]. `build`
    /// runs once, after the flush, with the current generation of `comm`
    /// (collectives only), so every retry re-attempts the very same op at
    /// the same generation. On success the generation advances exactly
    /// once and the op is logged.
    fn intercept_network(
        &mut self,
        pending: PendingOp,
        comm: Option<CommToken>,
        check_health: bool,
        build: impl Fn(u64) -> LoggedOp,
    ) -> SimResult<()> {
        let mut logged = None;
        let done = self.intercept(
            true,
            true,
            || pending.clone(),
            |c| {
                let op = logged.get_or_insert_with(|| build(comm.map_or(0, |t| c.plane.gen_of(t))));
                if check_health {
                    check_comm_health(c.server.gpu())?;
                }
                c.exec_logged(op)
            },
        )?;
        if let (Some(()), Some(op)) = (done, logged) {
            if let Some(token) = comm {
                self.plane.bump_gen(token);
            }
            self.log_op(op);
        }
        Ok(())
    }

    /// A collective through [`ProxyClient::intercept_network`]; every
    /// kind that moves data consults device health first.
    fn intercept_collective(&mut self, comm: CommToken, coll: Coll) -> SimResult<()> {
        let pending = PendingOp::Collective {
            comm,
            op: coll.name(),
        };
        self.intercept_network(pending, Some(comm), coll.buffers().is_some(), |gen| {
            LoggedOp::Collective(LoggedColl { comm, gen, coll })
        })
    }

    // ------------------------------------------------------------------
    // Recovery primitives (used by RecoveryHandler implementations).
    // ------------------------------------------------------------------

    /// Reset to minibatch start *in place* (§4.2.1 case 1): keep the
    /// server and all persistent buffers; drop everything replay will
    /// regenerate.
    pub fn reset_in_place(&mut self) -> SimResult<()> {
        self.pending.clear();
        let gpu = self.server.gpu_mut();
        gpu.free_non_persistent();
        gpu.commit_frees();
        Ok(())
    }

    /// Reset via proxy-server restart (§4.2.1 cases 2–3): clears all
    /// driver/GPU state, then re-creates every persistent object that
    /// existed at minibatch start and rebinds its virtual handle. Param
    /// and optimizer buffer *contents* must then be restored, either from
    /// a host snapshot taken before the restart or from a replica.
    pub fn reset_with_restart(&mut self) -> SimResult<()> {
        self.pending.clear();
        let t = self.server.restart()?;
        self.charge(t);
        self.recreate_persistent_objects()
    }

    /// Migrates this rank to a replacement GPU (hard errors, §4.3), then
    /// re-creates persistent objects on it.
    pub fn migrate_to_gpu(&mut self, gpu: Gpu) -> SimResult<()> {
        self.pending.clear();
        self.server.attach_new_gpu(gpu);
        self.recreate_persistent_objects()
    }

    fn recreate_persistent_objects(&mut self) -> SimResult<()> {
        // Every physical object died with the old context; forget every
        // binding so a handle can never silently alias a fresh object.
        self.vmap.clear();
        // Rebind the objects alive at minibatch start: created before the
        // boundary, which forgot every object destroyed before it. Replay
        // rebinds the rest as it re-executes their creation.
        let handle_cost = self.cost_model().handle_create;
        for (call, vid) in &self.creation_log[..self.creation_boundary] {
            let (res, _) = self.server.exec(call)?;
            if !self.vmap.rebind(*vid, &res) {
                return Err(SimError::Protocol(format!(
                    "creation replay returned {res:?}"
                )));
            }
            self.charge(handle_cost);
        }
        Ok(())
    }

    /// Copies persistent state to host memory (before clearing a
    /// driver-corrupted device), charging the PCIe cost.
    pub fn snapshot_persistent_to_host(&mut self) -> SimResult<PersistentSnapshot> {
        self.flush_pending()?;
        let view = self.server.gpu().state_view(0, 0)?;
        let (snap, bytes) = ((&view).into(), view.logical_bytes);
        self.charge(self.cost_model().memcpy(bytes));
        Ok((snap, bytes))
    }

    /// Restores persistent state from a host snapshot, charging PCIe cost.
    pub fn restore_persistent_from_host(
        &mut self,
        snap: &[(String, BufferTag, Vec<f32>)],
        bytes: u64,
    ) -> SimResult<()> {
        self.server.gpu_mut().restore_persistent(snap)?;
        self.charge(self.cost_model().memcpy(bytes));
        Ok(())
    }

    /// Synchronizes persistent state from `root`'s replica over a
    /// communicator (§4.2.1 case 3 / §4.2.2): every member calls this; the
    /// root supplies its state, everyone else overwrites theirs. Relies on
    /// the cross-rank-stable buffer ordering guaranteed by allocation-site
    /// naming. Not logged.
    ///
    /// The state moves one buffer at a time, in recovery generations of
    /// the communicator, so no member ever holds a second copy of the
    /// whole state. The first generation is the root's layout, each
    /// buffer's length, and is charged as one broadcast of the whole
    /// state; a receiver checks that its own layout matches before a byte
    /// is written. Then each of the root's buffers is copied once into its
    /// own generation ([`Communicator::broadcast_part`], uncharged) and
    /// once out of it into each receiver's buffer. The last member to pick
    /// a part up drops its slot, so besides the state the sync holds only
    /// the part a receiver is loading and the next one the root sends. A
    /// receiver whose layout does not match still takes every part,
    /// writing nothing, so the root and the other receivers finish the
    /// sync, and then reports the mismatch.
    pub fn sync_persistent_from_replica(
        &mut self,
        token: CommToken,
        root: RankId,
    ) -> SimResult<()> {
        // The root's contribution must reflect every submitted call.
        // (Recovery enters with nothing staged, so this is a no-op there.)
        self.flush_pending()?;
        let bufs: Vec<&DeviceBuffer> = self.server.gpu().persistent().collect();
        let bytes = bufs.iter().map(|b| b.logical_bytes).sum();
        let layout: Vec<(BufferId, usize)> = bufs.iter().map(|b| (b.id, b.data.len())).collect();
        let is_root = self.plane.rank == root;
        let lens = match is_root {
            true => Some(encode_lens(&layout)?),
            false => None,
        };
        // Recovery-time state sync uses its own generation space (like
        // rendezvous): it must not occupy the generation of the data
        // operation being retried. Not one of the application's
        // collectives: it goes straight to the communicator, as a
        // rendezvous does.
        let (comm, rank, obs) = (
            self.plane.comm(token)?,
            self.plane.rank,
            self.plane.observer.as_ref(),
        );
        let first = *self.rendezvous_gens.entry(comm.id).or_insert(0);
        let gen = |k: usize| RECOVERY_GEN_BASE | (first + k as u64);
        let theirs = comm.broadcast_shared(rank, gen(0), root, lens, bytes, obs)?;
        let theirs: Vec<usize> = theirs.iter().map(|w| w.to_bits() as usize).collect();
        let refused = match is_root {
            true => None,
            false => layout_mismatch(&layout, &theirs),
        };
        // The buffer each part is read from (the root) or written to (a
        // receiver whose layout matches); none for a receiver that refused.
        let ids: Vec<Option<BufferId>> = match refused {
            None => layout.iter().map(|&(id, _)| Some(id)).collect(),
            Some(_) => vec![None; theirs.len()],
        };
        for (k, id) in ids.into_iter().enumerate() {
            let part = match (is_root, id) {
                (true, Some(id)) => Some(self.server.gpu().buffer(id)?.data.clone()),
                _ => None,
            };
            let got = comm.broadcast_part(rank, gen(k + 1), root, part, obs)?;
            if let (false, Some(id)) = (is_root, id) {
                self.server.gpu_mut().load_buffer(id, &got)?;
            }
        }
        self.rendezvous_gens
            .insert(comm.id, first + 1 + theirs.len() as u64);
        refused.map_or(Ok(()), |why| Err(SimError::Protocol(why.into())))
    }

    /// Serializes the worker's CRIU-relevant CPU state: iteration,
    /// minibatch position, the replay log, and the per-communicator
    /// generation counters — everything the interception layer needs to
    /// resume on a replacement node (§4.3). The paper's CRIU image
    /// contains the whole process; this is the part our simulation's
    /// correctness depends on, and it round-trips through the same
    /// sharded, per-shard-checksummed container as checkpoints: the
    /// state streams through [`simcore::codec::Encoder`], so a large
    /// replay log never forms a second monolithic copy and corruption in
    /// transit is reported by shard index.
    pub fn worker_cpu_state(&mut self) -> SimResult<bytes::Bytes> {
        // Deferred calls are part of the log but not yet of device
        // state; an image must capture a synchronized worker.
        self.flush_pending()?;
        let mut enc = simcore::codec::Encoder::new(CPU_STATE_SHARD_BYTES);
        enc.write(&self.iteration);
        enc.write(&self.skip_rest);
        enc.write(&self.replay_log);
        enc.write(&self.plane.gens());
        Ok(simcore::codec::concat_shards(&enc.finish()))
    }

    /// Restores the CRIU-relevant CPU state captured by
    /// [`ProxyClient::worker_cpu_state`]. All or nothing: an image that
    /// does not decode exactly, to its last byte, leaves the client as it
    /// was.
    pub fn restore_worker_cpu_state(&mut self, image: &bytes::Bytes) -> SimResult<()> {
        use simcore::codec::Decode;
        let mut buf = simcore::codec::split_shards(image)?;
        let iteration = u64::decode(&mut buf)?;
        let skip_rest = bool::decode(&mut buf)?;
        let replay_log = OpLog::decode(&mut buf)?;
        let gens = Vec::decode(&mut buf)?;
        if !buf.is_empty() {
            return Err(SimError::Codec(format!(
                "{} trailing bytes after decode",
                buf.len()
            )));
        }
        self.iteration = iteration;
        self.skip_rest = skip_rest;
        self.replay_log = replay_log;
        self.plane.set_gens(gens);
        Ok(())
    }

    /// Replays the current minibatch's logged operations, every one of
    /// them and in log order (device calls at dispatch cost,
    /// collectives/p2p for real). Returns the number of ops replayed.
    pub fn replay(&mut self) -> SimResult<usize> {
        // Deferred-but-unflushed calls are already in the log; replay
        // regenerates their effects, so whatever is staged is discarded.
        self.pending.clear();
        let ops = self.replay_log.ops()?;
        self.replay_mode = true;
        let result = ops.iter().try_for_each(|op| self.exec_logged(op));
        self.replay_mode = false;
        result.map(|()| ops.len())
    }

    fn exec_logged(&mut self, op: &LoggedOp) -> SimResult<()> {
        match op {
            LoggedOp::Device { call, result_vid } => {
                let pcall = self.vmap.to_physical(call)?;
                let (res, _) = self.server.exec(&pcall)?;
                self.charge(self.cost_model().replay_dispatch);
                if let Some(vid) = result_vid {
                    self.vmap.rebind(*vid, &res);
                }
                Ok(())
            }
            LoggedOp::Collective(c) => {
                if self.replay_mode {
                    self.charge(self.cost_model().replay_dispatch);
                }
                self.exec_collective(c)
            }
            LoggedOp::Send {
                dst,
                tag,
                seq,
                buf,
                same_node,
            } => {
                let (data, logical) = self.fetch(self.vmap.resolve(*buf)?)?;
                self.plane.send(*dst, *tag, *seq, data, logical, *same_node)
            }
            LoggedOp::Recv { src, tag, seq, buf } => {
                let p = self.vmap.resolve(*buf)?;
                let data = self.plane.recv(*src, *tag, *seq)?;
                self.server.gpu_mut().load_buffer(p, &data)
            }
        }
    }

    fn fetch(&self, phys: BufferId) -> SimResult<(Vec<f32>, u64)> {
        let b = self.server.gpu().buffer(phys)?;
        Ok((b.data.clone(), b.logical_bytes))
    }

    /// Runs a logged collective at its logged generation: translate the
    /// buffers, fetch the contribution, hand it to the plane, load the
    /// shared result. A barrier moves no data.
    fn exec_collective(&mut self, &LoggedColl { comm, gen, coll }: &LoggedColl) -> SimResult<()> {
        let Some((src, dst)) = coll.buffers() else {
            return self
                .plane
                .collective(comm, gen, coll, Vec::new(), 0)
                .map(drop);
        };
        let (ps, pd) = (self.vmap.resolve(src)?, self.vmap.resolve(dst)?);
        let (data, logical) = self.fetch(ps)?;
        let out = self.plane.collective(comm, gen, coll, data, logical)?;
        self.server.gpu_mut().load_buffer(pd, &out)
    }

    /// Checksums of all live buffers keyed by *virtual* id (stable across
    /// replay, unlike physical ids).
    fn checksum_by_virtual(&self) -> BTreeMap<u64, u64> {
        let gpu = self.server.gpu();
        let checksum = |(vid, phys)| Some((vid, gpu.buffer(phys).ok()?.checksum()));
        self.vmap.buffers().filter_map(checksum).collect()
    }

    /// §4.1 replay-log correctness verification. Called at the end of the
    /// backward pass (pre-optimizer): checksums all buffers, resets to
    /// minibatch start, replays the log, and compares. All ranks must run
    /// verification at the same iteration (replayed collectives
    /// rendezvous across ranks). Returns true when the log reproduces the
    /// state exactly.
    pub fn verify_replay_log(&mut self) -> SimResult<bool> {
        self.flush_pending()?;
        let before = self.checksum_by_virtual();
        self.reset_in_place()?;
        self.replay()?;
        let after = self.checksum_by_virtual();
        let ok = before == after;
        self.last_verify_ok = Some(ok);
        Ok(ok)
    }

    fn verification_due(&self) -> bool {
        if Some(self.iteration) == self.verify_at {
            return true;
        }
        if let (Some(first), Some(every)) = (self.verify_at, self.verify_every) {
            if self.iteration > first && (self.iteration - first).is_multiple_of(every) {
                return true;
            }
        }
        false
    }
}

/// A replica's layout as its sync broadcasts it: each persistent buffer's
/// length, as the bits of one `f32` word.
fn encode_lens(layout: &[(BufferId, usize)]) -> SimResult<Vec<f32>> {
    let word = |&(id, len): &(BufferId, usize)| {
        let len = u32::try_from(len)
            .map_err(|_| SimError::Protocol(format!("{id} is too long to sync")))?;
        Ok(f32::from_bits(len))
    };
    layout.iter().map(word).collect()
}

/// Why a receiver with `layout` refuses a replica whose buffers have the
/// lengths `theirs`, if it does.
fn layout_mismatch(layout: &[(BufferId, usize)], theirs: &[usize]) -> Option<&'static str> {
    let mine: usize = layout.iter().map(|&(_, len)| len).sum();
    let total: usize = theirs.iter().sum();
    if mine > total {
        Some("replica state shorter than local layout")
    } else if mine < total {
        Some("replica state longer than local layout")
    } else if !layout
        .iter()
        .map(|&(_, len)| len)
        .eq(theirs.iter().copied())
    {
        Some("replica buffers cut differently from local layout")
    } else {
        None
    }
}

impl Executor for ProxyClient {
    fn rank(&self) -> RankId {
        self.plane.rank
    }

    fn clock_idx(&self) -> usize {
        self.plane.clock_idx
    }

    fn clock(&self) -> Arc<ClockBoard> {
        self.plane.clock.clone()
    }

    fn call(&mut self, vcall: DeviceCall) -> SimResult<CallResult> {
        let skippable = !vcall.creates_object();
        let pending = || PendingOp::Device(vcall.clone());
        let res = if Self::is_deferrable(&vcall) {
            // Staged, and logged at submission by `defer` itself.
            self.intercept(skippable, false, pending, |c| c.defer(&vcall))?
        } else {
            // Every non-deferrable call is a synchronization point: the
            // staged batch must reach the device first.
            self.intercept(skippable, true, pending, |c| {
                let res = c.exec_virtual(&vcall)?;
                c.log_device(&vcall, &res);
                Ok(res)
            })?
        };
        Ok(res.unwrap_or_else(|| self.synthesize(&vcall)))
    }

    fn register_comm(&mut self, comm: Arc<Communicator>) -> CommToken {
        self.plane.register(comm)
    }

    fn all_reduce(&mut self, comm: CommToken, buf: BufferId, op: ReduceOp) -> SimResult<()> {
        self.intercept_collective(comm, Coll::AllReduce { buf, op })
    }

    fn all_gather_into(&mut self, comm: CommToken, src: BufferId, dst: BufferId) -> SimResult<()> {
        self.intercept_collective(comm, Coll::AllGather { src, dst })
    }

    fn reduce_scatter_into(
        &mut self,
        comm: CommToken,
        src: BufferId,
        dst: BufferId,
        op: ReduceOp,
    ) -> SimResult<()> {
        self.intercept_collective(comm, Coll::ReduceScatter { src, dst, op })
    }

    fn broadcast(&mut self, comm: CommToken, root: RankId, buf: BufferId) -> SimResult<()> {
        self.intercept_collective(comm, Coll::Broadcast { root, buf })
    }

    fn barrier(&mut self, comm: CommToken) -> SimResult<()> {
        self.intercept_collective(comm, Coll::Barrier)
    }

    fn send(
        &mut self,
        dst: RankId,
        tag: u64,
        seq: u64,
        buf: BufferId,
        same_node: bool,
    ) -> SimResult<()> {
        self.intercept_network(PendingOp::P2p { peer: dst, tag }, None, false, |_| {
            LoggedOp::Send {
                dst,
                tag,
                seq,
                buf,
                same_node,
            }
        })
    }

    fn recv_into(&mut self, src: RankId, tag: u64, seq: u64, buf: BufferId) -> SimResult<()> {
        self.intercept_network(PendingOp::P2p { peer: src, tag }, None, false, |_| {
            LoggedOp::Recv { src, tag, seq, buf }
        })
    }

    fn begin_minibatch(&mut self, iteration: u64) -> SimResult<()> {
        // Deferred calls belong to the *ending* minibatch: they must hit
        // the device (and their Frees reach the graveyard) before the
        // boundary commits frees and clears the log.
        self.flush_pending()?;
        self.iteration = iteration;
        self.skip_rest = false;
        self.position = MinibatchPosition::FwdBwd;
        self.server.gpu_mut().commit_frees();
        // Every object destroyed before this boundary is gone for good:
        // no reset reaches back past it, so neither its creation entry
        // nor its binding is needed again.
        let gone: HashSet<u64> = self.destroyed.drain(..).collect();
        self.creation_log.retain(|(_, vid)| !gone.contains(vid));
        self.creation_boundary = self.creation_log.len();
        for vid in gone {
            self.vmap.unbind(vid);
        }
        self.replay_log.clear();
        self.began = true;
        self.plane.commit(iteration);
        Ok(())
    }

    fn pre_optimizer(&mut self) -> SimResult<()> {
        if self.skip_rest {
            return Ok(());
        }
        self.flush_pending()?;
        if self.verification_due() {
            let ok = self.verify_replay_log()?;
            if !ok {
                // §4.1: implicit device inputs detected — transparent JIT
                // must be disabled; surface loudly.
                return Err(SimError::Protocol(
                    "replay-log verification failed: implicit device inputs detected".into(),
                ));
            }
        }
        self.position = MinibatchPosition::Optimizer;
        Ok(())
    }

    fn post_optimizer(&mut self) -> SimResult<()> {
        self.flush_pending()?;
        self.position = MinibatchPosition::AfterOptimizer;
        Ok(())
    }

    fn with_device<R>(&mut self, f: impl FnOnce(&mut Gpu) -> R) -> SimResult<R> {
        self.flush_pending()?;
        Ok(f(self.server.gpu_mut()))
    }

    fn inject(&mut self, kind: FailureKind) {
        self.server.gpu_mut().inject(kind);
    }

    fn inject_transient(&mut self, comm: CommToken) -> SimResult<()> {
        self.plane.inject_transient(comm)
    }

    fn health(&self) -> GpuHealth {
        self.server.gpu().health()
    }

    fn iteration(&self) -> u64 {
        self.iteration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::cost::CostModel;
    use simcore::GpuId;
    use simgpu::{AllocSite, KernelKind};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn client() -> ProxyClient {
        let clock = Arc::new(ClockBoard::new(1));
        let world = CommWorld::new(clock, CostModel::v100(), 8);
        ProxyClient::new(RankId(0), 0, Gpu::new(GpuId(0), CostModel::v100()), world)
    }

    #[test]
    fn default_batch_capacity_is_the_sweep_knee() {
        // The recorded capacity sweep (EXPERIMENTS.md) knees at 64; pin
        // the default so it cannot silently regress to the unbatched (or
        // oversized) configurations.
        assert_eq!(DEFAULT_BATCH_CAPACITY, 64);
        assert_eq!(client().batch_capacity, DEFAULT_BATCH_CAPACITY);
    }

    fn alloc(
        c: &mut ProxyClient,
        path: &str,
        data: Vec<f32>,
        tag: BufferTag,
    ) -> SimResult<BufferId> {
        let n = data.len() as u64;
        let b = c
            .call(DeviceCall::Malloc {
                site: AllocSite::new(path, n),
                elems: n,
                logical_bytes: n * 4,
                tag,
            })?
            .buffer()?;
        c.call(DeviceCall::Upload { buf: b, data })?;
        Ok(b)
    }

    fn download(c: &mut ProxyClient, b: BufferId) -> SimResult<Vec<f32>> {
        c.call(DeviceCall::Download { buf: b })?.data()
    }

    #[test]
    fn handles_are_virtualized() -> SimResult<()> {
        let mut c = client();
        let b = alloc(&mut c, "w", vec![1.0], BufferTag::Param)?;
        assert!(b.0 >= 1 << 32, "application sees virtual ids");
        assert_eq!(download(&mut c, b)?, vec![1.0]);
        Ok(())
    }

    #[test]
    fn replay_log_clears_at_minibatch_start() -> SimResult<()> {
        let mut c = client();
        alloc(&mut c, "w", vec![1.0], BufferTag::Param)?;
        // Before the first minibatch nothing is logged for replay, but
        // every call is counted.
        assert_eq!((c.replay_log_len(), c.logged_calls()), (0, 2));
        c.begin_minibatch(0)?;
        assert_eq!(c.replay_log_len(), 0);
        alloc(&mut c, "act", vec![0.0], BufferTag::Activation)?;
        assert_eq!(c.replay_log_len(), 2); // malloc + upload
        Ok(())
    }

    #[test]
    fn reset_in_place_plus_replay_reproduces_state() -> SimResult<()> {
        let mut c = client();
        let s = c.call(DeviceCall::StreamCreate)?.stream()?;
        let w = alloc(&mut c, "w", vec![1.0, 2.0], BufferTag::Param)?;
        c.begin_minibatch(0)?;
        let act = alloc(&mut c, "act", vec![3.0, 4.0], BufferTag::Activation)?;
        c.call(DeviceCall::Launch {
            stream: s,
            kernel: KernelKind::Axpy {
                alpha: 2.0,
                x: w,
                y: act,
            },
        })?;
        assert_eq!(download(&mut c, act)?, vec![5.0, 8.0]);
        // Reset drops the activation; replay regenerates it.
        c.reset_in_place()?;
        c.replay()?;
        assert_eq!(download(&mut c, act)?, vec![5.0, 8.0]);
        assert_eq!(download(&mut c, w)?, vec![1.0, 2.0]);
        Ok(())
    }

    #[test]
    fn proxied_upload_past_one_frame_lands_bit_for_bit_and_replays() -> SimResult<()> {
        let mut c = client();
        c.begin_minibatch(0)?;
        // 80 000 bytes: more than one 64 KiB batch shard. NaN payloads,
        // −0.0 and subnormals must survive the batch and the replay log.
        let data: Vec<f32> = (0..20_000u32)
            .map(|i| {
                f32::from_bits(match i % 5 {
                    0 => 0x7fc0_0000 | i,
                    1 => 0xff80_0001 | (i << 3),
                    2 => 0x8000_0000,
                    3 => i,
                    _ => i.wrapping_mul(0x9E37_79B9),
                })
            })
            .collect();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        // The upload is deferred; the download flushes it through
        // `encode_batch` → `ProxyServer::exec_batch`.
        let b = alloc(&mut c, "act", data.clone(), BufferTag::Activation)?;
        assert_eq!(bits(&download(&mut c, b)?), bits(&data));
        c.reset_in_place()?;
        assert_eq!(c.gpu().buffer_count(), 0, "the reset dropped it");
        c.replay()?;
        assert_eq!(bits(&download(&mut c, b)?), bits(&data));
        Ok(())
    }

    #[test]
    fn verify_replay_log_passes_on_faithful_log() -> SimResult<()> {
        let mut c = client();
        let s = c.call(DeviceCall::StreamCreate)?.stream()?;
        let w = alloc(&mut c, "w", vec![1.0; 8], BufferTag::Param)?;
        c.begin_minibatch(0)?;
        let act = alloc(&mut c, "act", vec![0.5; 8], BufferTag::Activation)?;
        c.call(DeviceCall::Launch {
            stream: s,
            kernel: KernelKind::Axpy {
                alpha: 1.5,
                x: w,
                y: act,
            },
        })?;
        assert!(c.verify_replay_log()?);
        assert_eq!(c.last_verify(), Some(true));
        Ok(())
    }

    #[test]
    fn scheduled_verification_runs_in_pre_optimizer() -> SimResult<()> {
        let mut c = client();
        c.set_verify_schedule(Some(1), None);
        // Realistic shape: params are only read during the fwd/bwd window
        // (replay must be idempotent over that window, which is exactly
        // what verification checks).
        let w = alloc(&mut c, "w", vec![1.0, -1.0], BufferTag::Param)?;
        let s = c.call(DeviceCall::StreamCreate)?.stream()?;
        for it in 0..3 {
            c.begin_minibatch(it)?;
            let act = alloc(&mut c, "act", vec![0.0, 0.0], BufferTag::Activation)?;
            c.call(DeviceCall::Launch {
                stream: s,
                kernel: KernelKind::Relu { x: w, out: act },
            })?;
            c.pre_optimizer()?;
            c.post_optimizer()?;
            // Framework discipline: activations are released at minibatch
            // end (the Free defers to the graveyard until the next
            // minibatch commits).
            c.call(DeviceCall::Free { buf: act })?;
        }
        assert_eq!(c.last_verify(), Some(true));
        Ok(())
    }

    #[test]
    fn reset_with_restart_recreates_persistent_objects() -> SimResult<()> {
        let mut c = client();
        let s = c.call(DeviceCall::StreamCreate)?.stream()?;
        let w = alloc(&mut c, "w", vec![7.0, 8.0], BufferTag::Param)?;
        c.begin_minibatch(0)?;
        // Take a host snapshot, corrupt driver, restart, restore.
        let (snap, bytes) = c.snapshot_persistent_to_host()?;
        c.inject(FailureKind::DriverCorruption);
        c.reset_with_restart()?;
        assert_eq!(c.health(), GpuHealth::Healthy);
        // Virtual handles survived; contents restored from host.
        c.restore_persistent_from_host(&snap, bytes)?;
        assert_eq!(download(&mut c, w)?, vec![7.0, 8.0]);
        // Stream handle also still valid.
        c.call(DeviceCall::StreamSync { stream: s })?;
        Ok(())
    }

    #[test]
    fn a_restart_recreates_an_object_made_by_the_last_op_before_the_boundary() -> SimResult<()> {
        let mut c = client();
        let s = c.call(DeviceCall::StreamCreate)?.stream()?;
        c.begin_minibatch(0)?;
        c.reset_with_restart()?;
        c.call(DeviceCall::StreamSync { stream: s })?;
        Ok(())
    }

    #[test]
    fn skip_mode_synthesizes_until_next_minibatch() -> SimResult<()> {
        let mut c = client();
        let s = c.call(DeviceCall::StreamCreate)?.stream()?;
        let w = alloc(&mut c, "w", vec![1.0], BufferTag::Param)?;
        c.begin_minibatch(0)?;
        // Enter skip mode (as the §4.2.2 recovery path would).
        c.skip_rest = true;
        c.call(DeviceCall::Launch {
            stream: s,
            kernel: KernelKind::Scale { alpha: 10.0, x: w },
        })?;
        // The launch was ignored.
        c.skip_rest = false;
        assert_eq!(download(&mut c, w)?, vec![1.0]);
        // Next minibatch clears skip mode.
        c.skip_rest = true;
        c.begin_minibatch(1)?;
        c.call(DeviceCall::Launch {
            stream: s,
            kernel: KernelKind::Scale { alpha: 10.0, x: w },
        })?;
        assert_eq!(download(&mut c, w)?, vec![10.0]);
        Ok(())
    }

    struct CountingHandler {
        calls: AtomicUsize,
    }

    impl RecoveryHandler for CountingHandler {
        fn handle(
            &self,
            client: &mut ProxyClient,
            _op: &PendingOp,
            _err: &SimError,
        ) -> SimResult<RecoveryOutcome> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            // Clear the sticky error by restarting the server, restore
            // nothing (test uses no persistent data dependence).
            client.reset_with_restart()?;
            client.replay()?;
            Ok(RecoveryOutcome::Retry)
        }
    }

    #[test]
    fn handler_recovers_sticky_error_transparently() -> SimResult<()> {
        let mut c = client();
        let handler = Arc::new(CountingHandler {
            calls: AtomicUsize::new(0),
        });
        c.set_handler(handler.clone());
        let s = c.call(DeviceCall::StreamCreate)?.stream()?;
        let w = alloc(&mut c, "w", vec![2.0], BufferTag::Param)?;
        c.begin_minibatch(0)?;
        let g = alloc(&mut c, "g", vec![1.0], BufferTag::Gradient)?;
        // Poison the context mid-minibatch.
        c.inject(FailureKind::StickyCuda);
        // The launch is deferred; the fault surfaces inside the batched
        // flush at the next synchronization point (the download below),
        // the handler recovers, and the "application" never sees an
        // error.
        c.call(DeviceCall::Launch {
            stream: s,
            kernel: KernelKind::Axpy {
                alpha: 1.0,
                x: g,
                y: w,
            },
        })?;
        assert_eq!(handler.calls.load(Ordering::SeqCst), 0);
        // Param buffer contents were wiped by the context teardown in this
        // minimal handler (no replica restore), but the object exists and
        // the replayed upload of `g` reproduced the gradient. The full
        // restore path is exercised by the jitckpt engine's tests.
        assert_eq!(download(&mut c, g)?, vec![1.0]);
        assert_eq!(handler.calls.load(Ordering::SeqCst), 1);
        Ok(())
    }

    #[test]
    fn without_handler_errors_surface() {
        let mut c = client();
        c.inject(FailureKind::StickyCuda);
        let err = c.call(DeviceCall::DeviceSync).unwrap_err();
        assert!(matches!(err, SimError::CudaSticky(_)));
    }

    #[test]
    fn logged_calls_count_grows() -> SimResult<()> {
        let mut c = client();
        let before = c.logged_calls();
        alloc(&mut c, "w", vec![1.0], BufferTag::Param)?;
        assert_eq!(c.logged_calls(), before + 2);
        Ok(())
    }

    /// A fixed minibatch touching every logged-op family: object
    /// creation, uploads, launches on two streams joined by an event
    /// edge, a copy, a free, a download and one collective.
    fn golden_program(c: &mut ProxyClient) -> SimResult<()> {
        let comm = c.world().create_comm(vec![RankId(0)], vec![0]);
        let token = c.register_comm(comm);
        let w = alloc(c, "w", vec![1.0, -2.0, 3.0, -4.0], BufferTag::Param)?;
        c.begin_minibatch(7)?;
        let s1 = c.call(DeviceCall::StreamCreate)?.stream()?;
        let s2 = c.call(DeviceCall::StreamCreate)?.stream()?;
        let e = c.call(DeviceCall::EventCreate)?.event()?;
        let act = alloc(c, "act", vec![0.5; 4], BufferTag::Activation)?;
        let out = alloc(c, "out", vec![0.0; 4], BufferTag::Gradient)?;
        c.call(DeviceCall::Launch {
            stream: s1,
            kernel: KernelKind::Axpy {
                alpha: 1.5,
                x: w,
                y: act,
            },
        })?;
        c.call(DeviceCall::EventRecord {
            stream: s1,
            event: e,
        })?;
        c.call(DeviceCall::StreamWaitEvent {
            stream: s2,
            event: e,
        })?;
        c.call(DeviceCall::Launch {
            stream: s2,
            kernel: KernelKind::MatMul {
                a: act,
                b: w,
                out,
                m: 2,
                k: 2,
                n: 2,
                trans_a: false,
                trans_b: true,
            },
        })?;
        c.call(DeviceCall::CopyD2D { src: out, dst: act })?;
        c.call(DeviceCall::Free { buf: act })?;
        c.all_reduce(token, out, ReduceOp::Sum)?;
        assert_eq!(download(c, out)?, vec![7.0, 16.0, 16.0, 37.0]);
        Ok(())
    }

    #[test]
    fn worker_cpu_state_image_is_byte_stable_across_commits() -> SimResult<()> {
        // The image is what a replacement node restores (§4.3): however
        // the log is held in memory, these bytes must not move without a
        // `SCHEMA_VERSION` bump.
        let mut c = client();
        golden_program(&mut c)?;
        let image = c.worker_cpu_state()?;
        assert_eq!(
            (
                c.replay_log_len(),
                image.len(),
                simcore::codec::crc64(&image)
            ),
            (15, 458, 0x3266_aac1_4fbf_e178)
        );
        Ok(())
    }

    /// `golden_program`, then every other logged-op kind on its
    /// one-rank communicator: an all-gather, a reduce-scatter per
    /// `ReduceOp`, a broadcast, a barrier, and a send to self received
    /// back.
    fn every_kind_program(c: &mut ProxyClient) -> SimResult<()> {
        golden_program(c)?;
        let token = c.comm_tokens()[0];
        let src = alloc(c, "src", vec![1.5, -0.0, 3.0, -2.5], BufferTag::Activation)?;
        let dst = alloc(c, "dst", vec![0.0; 4], BufferTag::Activation)?;
        c.all_gather_into(token, src, dst)?;
        for op in [ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max] {
            c.reduce_scatter_into(token, dst, src, op)?;
        }
        c.broadcast(token, RankId(0), src)?;
        c.barrier(token)?;
        c.send(RankId(0), 5, 7, src, true)?;
        c.recv_into(RankId(0), 5, 7, dst)?;
        assert_eq!(download(c, dst)?, vec![1.5, -0.0, 3.0, -2.5]);
        Ok(())
    }

    #[test]
    fn every_logged_op_kind_has_a_byte_stable_image() -> SimResult<()> {
        // Each kind's fields, in their wire order, are part of the image a
        // replacement node restores (§4.3).
        let mut c = client();
        every_kind_program(&mut c)?;
        let image = c.worker_cpu_state()?;
        assert_eq!(
            (
                c.replay_log_len(),
                image.len(),
                simcore::codec::crc64(&image)
            ),
            (28, 887, 0x3edf_771e_8c1f_6029)
        );
        Ok(())
    }

    #[test]
    fn restoring_a_bad_image_is_refused_and_changes_nothing() -> SimResult<()> {
        use simcore::codec::{concat_shards, split_shards, Encoder};
        let mut donor = client();
        golden_program(&mut donor)?;
        let image = donor.worker_cpu_state()?;
        let inner = split_shards(&image)?;
        // The shard container of every image below checks out; only the
        // stream inside it is short, long or malformed.
        let reframe = |inner: &[u8]| {
            let mut enc = Encoder::new(CPU_STATE_SHARD_BYTES);
            inner.iter().for_each(|byte| enc.write(byte));
            concat_shards(&enc.finish())
        };
        assert_eq!(reframe(&inner), image);

        let mut c = client();
        let comm = c.world().create_comm(vec![RankId(0)], vec![0]);
        let token = c.register_comm(comm);
        c.begin_minibatch(3)?;
        c.barrier(token)?;
        let state =
            |c: &ProxyClient| (c.iteration, c.skip_rest, c.replay_log_len(), c.plane.gens());
        let before = state(&c);
        assert_eq!(before, (3, false, 1, vec![(token.0, 1)]));

        let mut bad: Vec<Vec<u8>> = (0..inner.len()).map(|cut| inner[..cut].to_vec()).collect();
        bad.push([&inner[..], &[0]].concat());
        let mut flag = inner.to_vec();
        flag[8] = 2; // the `skip_rest` byte follows the u64 iteration
        bad.push(flag);
        for stream in &bad {
            let err = c.restore_worker_cpu_state(&reframe(stream));
            assert!(matches!(err, Err(SimError::Codec(_))), "{err:?}");
            assert_eq!(state(&c), before, "a refused image must not be applied");
        }

        c.restore_worker_cpu_state(&image)?;
        assert_eq!(state(&c), state(&donor));
        assert_eq!(c.replay_log.ops()?, donor.replay_log.ops()?);
        Ok(())
    }

    /// A client of `world` holding one `Param` buffer per length in
    /// `lens`, element `i` of each filled with `fill(i)`.
    fn replica(
        rank: u32,
        world: &Arc<CommWorld>,
        lens: &[usize],
        fill: fn(usize) -> f32,
    ) -> SimResult<ProxyClient> {
        let gpu = Gpu::new(GpuId(rank), CostModel::v100());
        let mut c = ProxyClient::new(RankId(rank), rank as usize, gpu, world.clone());
        for (b, &len) in lens.iter().enumerate() {
            let data = (0..len).map(fill).collect();
            alloc(&mut c, &format!("w{b}"), data, BufferTag::Param)?;
        }
        c.flush_pending()?;
        Ok(c)
    }

    /// Quiet and signalling NaN payloads of both signs, −0.0, subnormals
    /// and ordinary values, by element index.
    fn special(i: usize) -> f32 {
        let i = i as u32;
        f32::from_bits(match i % 5 {
            0 => 0x7fc0_0000 | i,
            1 => 0xff80_0001 | (i << 3),
            2 => 0x8000_0000,
            3 => i,
            _ => i.wrapping_mul(0x9E37_79B9),
        })
    }

    /// Rank 1, holding buffers of the `receiver` lengths, syncs from rank
    /// 0, holding the `root` lengths of `special` values, on a fresh
    /// two-rank world. Returns the receiver's checksums before the sync,
    /// the receiver, and what its sync returned.
    fn sync_into(
        root: &[usize],
        receiver: &[usize],
    ) -> SimResult<(BTreeMap<BufferId, u64>, ProxyClient, SimResult<()>)> {
        let world = CommWorld::new(Arc::new(ClockBoard::new(2)), CostModel::v100(), 8);
        let comm = world.create_comm(vec![RankId(0), RankId(1)], vec![0, 1]);
        let c0 = replica(0, &world, root, special)?;
        let c1 = replica(1, &world, receiver, |_| 1.5)?;
        let before = c1.gpu().checksum_all();
        let sync = |mut c: ProxyClient| {
            let comm = comm.clone();
            std::thread::spawn(move || {
                let token = c.register_comm(comm);
                let res = c.sync_persistent_from_replica(token, RankId(0));
                (c, res)
            })
        };
        let (h0, h1) = (sync(c0), sync(c1));
        let panicked = |_| SimError::Protocol("a rank panicked".into());
        h0.join().map_err(panicked)?.1?;
        let (c1, res) = h1.join().map_err(panicked)?;
        Ok((before, c1, res))
    }

    #[test]
    fn sync_persistent_from_replica_checks_the_layout_then_copies_every_bit() -> SimResult<()> {
        let root = [3, 5];
        // A receiver one element short of the root's layout, then one
        // element long: refused before a byte of it is written.
        for (receiver, err) in [
            ([3, 4], "replica state longer than local layout"),
            ([3, 6], "replica state shorter than local layout"),
        ] {
            let (before, c1, res) = sync_into(&root, &receiver)?;
            assert_eq!(res, Err(SimError::Protocol(err.into())), "{receiver:?}");
            assert_eq!(c1.gpu().checksum_all(), before, "{receiver:?}");
        }
        let (_, c1, res) = sync_into(&root, &root)?;
        res?;
        let bits = |data: &[f32]| data.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        let view = c1.gpu().state_view(0, 0)?;
        let got: Vec<Vec<u32>> = view.buffers.iter().map(|(_, _, data)| bits(data)).collect();
        let want: Vec<Vec<u32>> = root
            .iter()
            .map(|&n| bits(&(0..n).map(special).collect::<Vec<f32>>()))
            .collect();
        assert_eq!(got, want);
        Ok(())
    }

    /// Each persistent buffer's bits, in buffer order.
    fn state_bits(c: &ProxyClient) -> SimResult<Vec<Vec<u32>>> {
        let view = c.gpu().state_view(0, 0)?;
        let bits = |d: &[f32]| d.iter().map(|f| f.to_bits()).collect();
        Ok(view.buffers.iter().map(|(_, _, d)| bits(d)).collect())
    }

    #[test]
    fn a_three_member_sync_copies_every_bit_to_both_receivers() -> SimResult<()> {
        let lens = [3, 7, 2];
        let world = CommWorld::new(Arc::new(ClockBoard::new(3)), CostModel::v100(), 8);
        let comm = world.create_comm((0..3).map(RankId).collect(), vec![0, 1, 2]);
        let root = replica(0, &world, &lens, special)?;
        let want = state_bits(&root)?;
        let handles: Vec<_> = [root, replica(1, &world, &lens, |_| 1.5)?]
            .into_iter()
            .chain([replica(2, &world, &lens, |i| -(i as f32))?])
            .map(|mut c| {
                let comm = comm.clone();
                std::thread::spawn(move || {
                    let token = c.register_comm(comm);
                    c.sync_persistent_from_replica(token, RankId(0)).map(|()| c)
                })
            })
            .collect();
        for h in handles {
            let c = h
                .join()
                .map_err(|_| SimError::Protocol("a rank panicked".into()))??;
            assert_eq!(state_bits(&c)?, want, "{}", c.rank());
        }
        assert_eq!(comm.completed_slots(), 0, "every part was dropped");
        Ok(())
    }

    /// The transparent engine's answer to a proven hang: abort the world.
    struct AbortOnHang(Arc<CommWorld>);

    impl CollectiveObserver for AbortOnHang {
        fn collective_started(&self, _: &collectives::CollectiveTicket) {}
        fn collective_finished(&self, _: &collectives::CollectiveTicket) {}
        fn collective_hung(&self, _: &collectives::CollectiveTicket) {
            self.0.abort_all();
        }
    }

    #[test]
    fn a_root_departing_mid_sync_ends_every_receivers_wait_at_once() -> SimResult<()> {
        let lens = [3, 7, 2];
        let world = CommWorld::new(Arc::new(ClockBoard::new(3)), CostModel::v100(), 8);
        let comm = world.create_comm((0..3).map(RankId).collect(), vec![0, 1, 2]);
        let (tx, rx) = std::sync::mpsc::channel();
        for rank in 1..3 {
            let mut c = replica(rank, &world, &lens, |_| 1.5)?;
            c.set_observer(Arc::new(AbortOnHang(world.clone())));
            let (comm, tx) = (comm.clone(), tx.clone());
            std::thread::spawn(move || {
                let token = c.register_comm(comm);
                tx.send(c.sync_persistent_from_replica(token, RankId(0)))
            });
        }
        // The root sends its layout and its first buffer, then its thread
        // returns.
        let root = replica(0, &world, &lens, special)?;
        let (w, c) = (world.clone(), comm.clone());
        std::thread::spawn(move || -> SimResult<()> {
            let _guard = w.departure_guard(RankId(0));
            let layout: Vec<(BufferId, usize)> = (root.gpu().persistent())
                .map(|b| (b.id, b.data.len()))
                .collect();
            let (r0, obs) = (RankId(0), &collectives::NullObserver);
            c.broadcast_shared(
                r0,
                RECOVERY_GEN_BASE,
                r0,
                Some(encode_lens(&layout)?),
                48,
                obs,
            )?;
            let part = root.gpu().buffer(layout[0].0)?.data.clone();
            c.broadcast_part(r0, RECOVERY_GEN_BASE | 1, r0, Some(part), obs)?;
            Ok(())
        })
        .join()
        .map_err(|_| SimError::Protocol("the root panicked".into()))??;
        for _ in 1..3 {
            let got = rx
                .recv_timeout(std::time::Duration::from_millis(500))
                .map_err(|_| SimError::Protocol("a receiver still waits".into()))?;
            assert_eq!(got, Err(SimError::CollectiveAborted));
        }
        Ok(())
    }
}

#[cfg(test)]
mod verification_tests {
    use super::*;
    use simcore::cost::CostModel;
    use simcore::GpuId;
    use simgpu::{AllocSite, KernelKind};

    fn client() -> ProxyClient {
        let clock = Arc::new(ClockBoard::new(1));
        let world = CommWorld::new(clock, CostModel::v100(), 8);
        ProxyClient::new(RankId(0), 0, Gpu::new(GpuId(0), CostModel::v100()), world)
    }

    #[test]
    fn verification_catches_implicit_device_inputs() -> SimResult<()> {
        // §4.1: "it is theoretically possible for the host CPU process to
        // send implicit input arguments ... without device APIs being
        // invoked ... in the unlikely case of such implicit communication,
        // we need to disable the transparent mechanism". Simulate exactly
        // that — mutate device memory behind the interception layer — and
        // assert verification FAILS rather than silently passing.
        let mut c = client();
        let s = c.call(DeviceCall::StreamCreate)?.stream()?;
        let w = c
            .call(DeviceCall::Malloc {
                site: AllocSite::new("w", 4),
                elems: 4,
                logical_bytes: 16,
                tag: BufferTag::Param,
            })?
            .buffer()?;
        c.call(DeviceCall::Upload {
            buf: w,
            data: vec![1.0; 4],
        })?;
        c.begin_minibatch(0)?;
        let act = c
            .call(DeviceCall::Malloc {
                site: AllocSite::new("act", 4),
                elems: 4,
                logical_bytes: 16,
                tag: BufferTag::Activation,
            })?
            .buffer()?;
        c.call(DeviceCall::Upload {
            buf: act,
            data: vec![0.5; 4],
        })?;
        // The implicit channel: host pokes a value into the activation
        // buffer WITHOUT a logged Upload, then a logged kernel consumes
        // it. (Like any host access to device memory, the poke requires
        // the submission queue to be drained first.)
        c.flush_pending()?;
        let phys_ids = c.gpu().checksum_all();
        let phys_act = *phys_ids
            .keys()
            .last()
            .ok_or_else(|| SimError::Protocol("no physical ids".into()))?;
        c.gpu_mut().load_buffer(phys_act, &[9.0, 9.0, 9.0, 9.0])?;
        c.call(DeviceCall::Launch {
            stream: s,
            kernel: KernelKind::Axpy {
                alpha: 1.0,
                x: w,
                y: act,
            },
        })?;
        // Replay reproduces Upload(0.5) + Axpy → 1.5, not 10.0: mismatch.
        assert!(!c.verify_replay_log()?);
        assert_eq!(c.last_verify(), Some(false));
        Ok(())
    }

    #[test]
    fn scheduled_verification_failure_surfaces_as_protocol_error() -> SimResult<()> {
        let mut c = client();
        c.set_verify_schedule(Some(0), None);
        let s = c.call(DeviceCall::StreamCreate)?.stream()?;
        let w = c
            .call(DeviceCall::Malloc {
                site: AllocSite::new("w", 2),
                elems: 2,
                logical_bytes: 8,
                tag: BufferTag::Param,
            })?
            .buffer()?;
        c.call(DeviceCall::Upload {
            buf: w,
            data: vec![1.0, 2.0],
        })?;
        c.begin_minibatch(0)?;
        // Mutating a Param inside the fwd/bwd window is exactly the kind
        // of behaviour replay cannot reproduce idempotently.
        c.call(DeviceCall::Launch {
            stream: s,
            kernel: KernelKind::Scale { alpha: 2.0, x: w },
        })?;
        let err = c.pre_optimizer().unwrap_err();
        assert!(matches!(err, SimError::Protocol(_)), "{err}");
        Ok(())
    }
}

/// The interception contract, once, for every network operation: the
/// seven ops share one loop, so they share one table.
#[cfg(test)]
mod intercept_contract {
    use super::*;
    use collectives::{CollectiveTicket, CommId};
    use simcore::cost::CostModel;
    use simcore::sync::Mutex;
    use simcore::GpuId;
    use simgpu::{AllocSite, KernelKind, StreamId};

    const ME: RankId = RankId(0);
    const TAG: u64 = 7;
    const SEQ: u64 = 3;

    /// Generations of every real collective attempt (the p2p
    /// pseudo-tickets excluded), in order.
    #[derive(Default)]
    struct Attempts(Mutex<Vec<u64>>);

    impl CollectiveObserver for Attempts {
        fn collective_started(&self, t: &CollectiveTicket) {
            if t.comm != CommId(u64::MAX) {
                self.0.lock().push(t.generation);
            }
        }
        fn collective_finished(&self, _: &CollectiveTicket) {}
    }

    /// Records what reached it, repairs the network unless told to roll
    /// forward, and answers with the scripted outcome.
    struct Scripted {
        outcome: RecoveryOutcome,
        token: CommToken,
        seen: Mutex<Vec<String>>,
    }

    impl RecoveryHandler for Scripted {
        fn handle(
            &self,
            client: &mut ProxyClient,
            op: &PendingOp,
            _err: &SimError,
        ) -> SimResult<RecoveryOutcome> {
            self.seen.lock().push(format!("{op:?}"));
            if self.outcome == RecoveryOutcome::Retry {
                // A transient fault sticks to its generation on the old
                // communicator, so recovery swaps in a fresh one; an
                // aborted world is reset; the peer's message arrives.
                let world = client.world().clone();
                world.reset();
                client.replace_comm(self.token, world.create_comm(vec![ME], vec![0]));
                post_message(&world)?;
            }
            Ok(self.outcome)
        }
    }

    fn post_message(world: &CommWorld) -> SimResult<()> {
        world.send(ME, 0, ME, TAG, SEQ, vec![9.0; 4], 16, true)
    }

    struct Fixture {
        c: ProxyClient,
        token: CommToken,
        stream: StreamId,
        a: BufferId,
        b: BufferId,
        attempts: Arc<Attempts>,
    }

    /// A one-rank world (every collective completes on arrival), two
    /// generations into its communicator, at the start of a minibatch.
    fn fixture() -> SimResult<Fixture> {
        let world = CommWorld::new(Arc::new(ClockBoard::new(1)), CostModel::v100(), 8);
        let gpu = Gpu::new(GpuId(0), CostModel::v100());
        let mut c = ProxyClient::new(ME, 0, gpu, world.clone());
        let token = c.register_comm(world.create_comm(vec![ME], vec![0]));
        let stream = c.call(DeviceCall::StreamCreate)?.stream()?;
        let mut buf = |path: &str| -> SimResult<BufferId> {
            let b = c
                .call(DeviceCall::Malloc {
                    site: AllocSite::new(path, 4),
                    elems: 4,
                    logical_bytes: 16,
                    tag: BufferTag::Param,
                })?
                .buffer()?;
            let data = vec![1.0, 2.0, 3.0, 4.0];
            c.call(DeviceCall::Upload { buf: b, data })?;
            Ok(b)
        };
        let (a, b) = (buf("a")?, buf("b")?);
        c.barrier(token)?;
        c.barrier(token)?;
        c.begin_minibatch(0)?;
        let attempts = Arc::new(Attempts::default());
        c.set_observer(attempts.clone());
        Ok(Fixture {
            c,
            token,
            stream,
            a,
            b,
            attempts,
        })
    }

    /// An intercepted network operation: its `PendingOp` label, whether
    /// it is a collective, and how to issue it.
    type Row = (&'static str, bool, fn(&mut Fixture) -> SimResult<()>);

    const ROWS: [Row; 7] = [
        ("all_reduce", true, |f| {
            f.c.all_reduce(f.token, f.a, ReduceOp::Sum)
        }),
        ("all_gather", true, |f| {
            f.c.all_gather_into(f.token, f.a, f.b)
        }),
        ("reduce_scatter", true, |f| {
            f.c.reduce_scatter_into(f.token, f.a, f.b, ReduceOp::Max)
        }),
        ("broadcast", true, |f| f.c.broadcast(f.token, ME, f.a)),
        ("barrier", true, |f| f.c.barrier(f.token)),
        ("send", false, |f| f.c.send(ME, TAG, SEQ, f.a, true)),
        ("recv_into", false, |f| f.c.recv_into(ME, TAG, SEQ, f.b)),
    ];

    impl Fixture {
        fn script(&mut self, outcome: RecoveryOutcome) -> Arc<Scripted> {
            let h = Arc::new(Scripted {
                outcome,
                token: self.token,
                seen: Mutex::new(Vec::new()),
            });
            self.c.set_handler(h.clone());
            h
        }

        fn gen(&self) -> u64 {
            self.c.plane.gen_of(self.token)
        }

        /// Stages a launch that the next synchronization point flushes.
        fn stage_launch(&mut self) -> SimResult<()> {
            let kernel = KernelKind::Scale {
                alpha: 2.0,
                x: self.a,
            };
            let stream = self.stream;
            self.c.call(DeviceCall::Launch { stream, kernel })?;
            Ok(())
        }

        /// Makes the next attempt of `row`'s op fail, and says how.
        fn arm(&mut self, row: &Row) -> SimResult<SimError> {
            if row.1 {
                self.c.inject_transient(self.token)?;
                Ok(SimError::NetworkTransient)
            } else {
                self.c.world().abort_all();
                Ok(SimError::CollectiveAborted)
            }
        }

        /// What the handler must be told failed.
        fn pending(&self, row: &Row) -> String {
            let comm = self.token;
            match row {
                (op, true, _) => format!("{:?}", PendingOp::Collective { comm, op }),
                _ => format!("{:?}", PendingOp::P2p { peer: ME, tag: TAG }),
            }
        }

        /// Nothing was attempted, logged or advanced since `before`.
        fn untouched(&self, before: (usize, u64), what: &str) {
            assert_eq!((self.c.replay_log_len(), self.gen()), before, "{what}");
            assert!(self.attempts.0.lock().is_empty(), "{what}: attempted");
        }
    }

    #[test]
    fn skip_rest_short_circuits_before_the_flush() -> SimResult<()> {
        for row in &ROWS {
            let mut f = fixture()?;
            let handler = f.script(RecoveryOutcome::Retry);
            f.stage_launch()?; // must stay staged: skipping comes first
            let (staged, before) = (f.c.pending.len(), (f.c.replay_log_len(), f.gen()));
            f.c.skip_rest = true;
            f.arm(row)?;
            (row.2)(&mut f)?;
            assert_eq!(f.c.pending.len(), staged, "{}: flushed", row.0);
            f.untouched(before, row.0);
            assert!(handler.seen.lock().is_empty(), "{}: dispatched", row.0);
        }
        Ok(())
    }

    #[test]
    fn skip_rest_short_circuits_after_the_flush() -> SimResult<()> {
        for row in &ROWS {
            let mut f = fixture()?;
            // The staged launch fails inside the op's flush; that
            // recovery rolls the rank forward, so the op itself is never
            // attempted.
            let handler = f.script(RecoveryOutcome::SkipToNextMinibatch);
            f.stage_launch()?;
            f.c.inject(FailureKind::StickyCuda);
            let before = (f.c.replay_log_len(), f.gen());
            (row.2)(&mut f)?;
            assert!(f.c.skip_rest, "{}", row.0);
            f.untouched(before, row.0);
            let seen = handler.seen.lock();
            assert_eq!(seen.len(), 1, "{}: only the flush dispatches", row.0);
            assert!(
                seen[0].starts_with("Device(Launch"),
                "{}: {}",
                row.0,
                seen[0]
            );
        }
        Ok(())
    }

    #[test]
    fn retry_reattempts_the_same_op_and_success_logs_it_once() -> SimResult<()> {
        for row in &ROWS {
            // The fault-free twin: what the op logs, and where it leaves
            // the generation, when nothing goes wrong.
            let mut twin = fixture()?;
            post_message(twin.c.world())?;
            (row.2)(&mut twin)?;

            let mut f = fixture()?;
            let handler = f.script(RecoveryOutcome::Retry);
            let gen = f.gen();
            f.arm(row)?;
            (row.2)(&mut f)?;
            assert_eq!(*handler.seen.lock(), vec![f.pending(row)], "{}", row.0);
            let (ops, expect) = (f.c.replay_log.ops()?, twin.c.replay_log.ops()?);
            assert_eq!(expect.len(), 1, "{}: one op logged", row.0);
            assert_eq!(ops, expect, "{}: logged as if nothing happened", row.0);
            assert_eq!(f.gen(), gen + row.1 as u64, "{}: bumped once", row.0);
            if row.1 {
                assert_eq!(*f.attempts.0.lock(), vec![gen, gen], "{}", row.0);
                let logged = format!("{:?}", ops[0]);
                assert!(logged.contains(&format!("gen: {gen}")), "{logged}");
            }
            assert!(!f.c.skip_rest, "{}", row.0);
        }
        Ok(())
    }

    #[test]
    fn skip_to_next_minibatch_logs_nothing() -> SimResult<()> {
        for row in &ROWS {
            let mut f = fixture()?;
            let handler = f.script(RecoveryOutcome::SkipToNextMinibatch);
            let before = (f.c.replay_log_len(), f.gen());
            f.arm(row)?;
            (row.2)(&mut f)?;
            assert_eq!(*handler.seen.lock(), vec![f.pending(row)], "{}", row.0);
            assert!(f.c.skip_rest, "{}", row.0);
            assert_eq!((f.c.replay_log_len(), f.gen()), before, "{}", row.0);
        }
        Ok(())
    }

    #[test]
    fn errors_surface_unchanged_when_nothing_may_handle_them() -> SimResult<()> {
        // No handler installed; a handler installed but recovery already
        // running; a handler installed but the log being replayed.
        type Mode = (&'static str, fn(&mut ProxyClient));
        let modes: [Mode; 3] = [
            ("no handler", |c| c.handler = None),
            ("in recovery", |c| c.in_recovery = true),
            ("replay mode", |c| c.replay_mode = true),
        ];
        for row in &ROWS {
            for (mode, enter) in &modes {
                let mut f = fixture()?;
                let handler = f.script(RecoveryOutcome::Retry);
                enter(&mut f.c);
                let before = (f.c.replay_log_len(), f.gen());
                let injected = f.arm(row)?;
                let surfaced = (row.2)(&mut f).err();
                assert_eq!(surfaced, Some(injected), "{} ({mode})", row.0);
                assert_eq!((f.c.replay_log_len(), f.gen()), before, "{}", row.0);
                assert!(!f.c.skip_rest, "{} ({mode})", row.0);
                assert!(handler.seen.lock().is_empty(), "{} ({mode})", row.0);
            }
        }
        Ok(())
    }
}

/// DESIGN.md §9's table of which network op consults device health
/// before it touches the network, as a test: under `DriverCorruption`
/// (device calls still succeed, §4.2.1 case 2) each executor refuses
/// exactly the ops its column marks "yes".
#[cfg(test)]
mod health_table {
    use super::*;
    use crate::executor::DirectExecutor;
    use simcore::cost::CostModel;
    use simcore::GpuId;
    use simgpu::AllocSite;

    const ME: RankId = RankId(0);
    const TAG: u64 = 7;
    const SEQ: u64 = 3;

    /// `(op, DirectExecutor, ProxyClient live, ProxyClient replay)`.
    const TABLE: [(&str, bool, bool, bool); 7] = [
        ("all_reduce", true, true, false),
        ("all_gather_into", true, true, false),
        ("reduce_scatter_into", true, true, false),
        ("broadcast", true, true, false),
        ("barrier", false, false, false),
        ("send", true, false, false),
        ("recv_into", true, false, false),
    ];

    fn world() -> Arc<CommWorld> {
        CommWorld::new(Arc::new(ClockBoard::new(1)), CostModel::v100(), 8)
    }

    fn gpu() -> Gpu {
        Gpu::new(GpuId(0), CostModel::v100())
    }

    /// Registers a one-rank communicator and two `Param` buffers, and
    /// posts the message `recv_into` reads, so no op can block.
    fn setup<E: Executor>(e: &mut E, world: &CommWorld) -> SimResult<(CommToken, [BufferId; 2])> {
        let token = e.register_comm(world.create_comm(vec![ME], vec![0]));
        let mut bufs = [BufferId(0); 2];
        for (i, b) in bufs.iter_mut().enumerate() {
            *b = e
                .call(DeviceCall::Malloc {
                    site: AllocSite::new(format!("p{i}"), 4),
                    elems: 4,
                    logical_bytes: 16,
                    tag: BufferTag::Param,
                })?
                .buffer()?;
            let data = vec![1.0, 2.0, 3.0, 4.0];
            e.call(DeviceCall::Upload { buf: *b, data })?;
        }
        world.send(ME, 0, ME, TAG, SEQ, vec![9.0; 4], 16, true)?;
        Ok((token, bufs))
    }

    fn issue<E: Executor>(
        e: &mut E,
        op: &str,
        t: CommToken,
        [a, b]: [BufferId; 2],
    ) -> SimResult<()> {
        match op {
            "all_reduce" => e.all_reduce(t, a, ReduceOp::Sum),
            "all_gather_into" => e.all_gather_into(t, a, b),
            "reduce_scatter_into" => e.reduce_scatter_into(t, a, b, ReduceOp::Max),
            "broadcast" => e.broadcast(t, ME, a),
            "barrier" => e.barrier(t),
            "send" => e.send(ME, TAG, SEQ, a, true),
            "recv_into" => e.recv_into(ME, TAG, SEQ, b),
            other => Err(SimError::Protocol(format!("no op {other}"))),
        }
    }

    /// What a refusal looks like, or success.
    fn expect(refused: bool) -> SimResult<()> {
        if refused {
            Err(SimError::DriverCorrupted(GpuId(0)))
        } else {
            Ok(())
        }
    }

    #[test]
    fn each_executor_refuses_exactly_the_ops_the_health_table_marks() -> SimResult<()> {
        for (op, direct, live, replay) in TABLE {
            let world = world();
            let mut e = DirectExecutor::new(ME, 0, gpu(), world.clone());
            let (t, bufs) = setup(&mut e, &world)?;
            e.inject(FailureKind::DriverCorruption);
            assert_eq!(issue(&mut e, op, t, bufs), expect(direct), "{op}: direct");

            let world = self::world();
            let mut c = ProxyClient::new(ME, 0, gpu(), world.clone());
            let (t, bufs) = setup(&mut c, &world)?;
            c.inject(FailureKind::DriverCorruption);
            assert_eq!(issue(&mut c, op, t, bufs), expect(live), "{op}: live");

            // Logged while healthy, replayed on the corrupted device.
            let world = self::world();
            let mut c = ProxyClient::new(ME, 0, gpu(), world.clone());
            let (t, bufs) = setup(&mut c, &world)?;
            c.begin_minibatch(0)?;
            issue(&mut c, op, t, bufs)?;
            c.inject(FailureKind::DriverCorruption);
            c.reset_in_place()?;
            assert_eq!(c.replay().map(drop), expect(replay), "{op}: replay");
        }
        Ok(())
    }
}
