//! The [`Executor`] trait — the seam between the training framework and
//! the device, and its direct (non-intercepting) implementation.
//!
//! The training framework (`dltrain`) is generic over `Executor`, so the
//! *same* training code runs either directly against the device (baseline
//! and user-level JIT, where failures surface to "user code") or through
//! the [`crate::ProxyClient`] interception layer (transparent JIT, where
//! they do not). This mirrors the paper's claim that transparent JIT
//! requires no application change: swapping the executor is a deployment
//! choice, not a code change.

use collectives::{CollectiveObserver, CommWorld, Communicator, NullObserver, ReduceOp};
use simcore::failure::FailureKind;
use simcore::sync::Mutex;
use simcore::time::ClockBoard;
use simcore::{RankId, SimError, SimResult, SimTime};
use simgpu::{BufferId, BufferTag, CallResult, DeviceCall, Gpu, GpuHealth};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Token for a registered communicator (virtualized: survives communicator
/// re-creation during recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommToken(pub u64);

/// Description of an in-flight operation, given to recovery handlers.
#[derive(Debug, Clone)]
pub enum PendingOp {
    /// A device API call.
    Device(DeviceCall),
    /// A collective operation on a registered communicator.
    Collective {
        /// Communicator token.
        comm: CommToken,
        /// Human-readable op name.
        op: &'static str,
    },
    /// A point-to-point transfer.
    P2p {
        /// Peer rank.
        peer: RankId,
        /// Message tag.
        tag: u64,
    },
}

/// A snapshot of persistent (param/optimizer) state — storage key, tag,
/// and contents per buffer — plus the logical byte size used for cost
/// accounting. The payload of a JIT checkpoint.
pub type PersistentSnapshot = (Vec<(String, BufferTag, Vec<f32>)>, u64);

/// Device + communication interface the training framework runs against.
///
/// All buffer/stream/event ids a caller sees may be virtual; they remain
/// stable across recovery.
pub trait Executor: Send {
    /// This executor's global rank.
    fn rank(&self) -> RankId;
    /// Clock-board slot of this rank.
    fn clock_idx(&self) -> usize;
    /// The shared virtual clock board.
    fn clock(&self) -> Arc<ClockBoard>;

    /// Issues a device API call.
    fn call(&mut self, call: DeviceCall) -> SimResult<CallResult>;

    /// Registers a communicator, returning a stable token.
    fn register_comm(&mut self, comm: Arc<Communicator>) -> CommToken;

    /// All-reduce the contents of `buf` in place across the group.
    fn all_reduce(&mut self, comm: CommToken, buf: BufferId, op: ReduceOp) -> SimResult<()>;

    /// All-reduce a gradient bucket — several buffers fused into one
    /// collective launch — in place across the group. Backends that can
    /// fuse override this; the default preserves per-buffer semantics.
    /// Either way the result is bit-identical: fusing only concatenates
    /// independent elementwise reductions.
    fn all_reduce_bucket(
        &mut self,
        comm: CommToken,
        bufs: &[BufferId],
        op: ReduceOp,
    ) -> SimResult<()> {
        for b in bufs {
            self.all_reduce(comm, *b, op)?;
        }
        Ok(())
    }

    /// All-gather `src` (equal shards) into `dst` on every rank.
    fn all_gather_into(&mut self, comm: CommToken, src: BufferId, dst: BufferId) -> SimResult<()>;

    /// Reduce-scatter `src` into this rank's shard `dst`.
    fn reduce_scatter_into(
        &mut self,
        comm: CommToken,
        src: BufferId,
        dst: BufferId,
        op: ReduceOp,
    ) -> SimResult<()>;

    /// Broadcast `buf` from `root` (contents overwritten on non-roots).
    fn broadcast(&mut self, comm: CommToken, root: RankId, buf: BufferId) -> SimResult<()>;

    /// Barrier across the group.
    fn barrier(&mut self, comm: CommToken) -> SimResult<()>;

    /// Sends `buf` to `dst` (pipeline activations/gradients). `seq` is
    /// the sender's minibatch iteration: p2p pairing is by deterministic
    /// key, making replays idempotent.
    fn send(
        &mut self,
        dst: RankId,
        tag: u64,
        seq: u64,
        buf: BufferId,
        same_node: bool,
    ) -> SimResult<()>;

    /// Receives `(src, tag, seq)` into `buf`.
    fn recv_into(&mut self, src: RankId, tag: u64, seq: u64, buf: BufferId) -> SimResult<()>;

    /// Marks the start of minibatch `iteration`: commits deferred frees
    /// and (under interception) clears the replay log (§4.1).
    fn begin_minibatch(&mut self, iteration: u64) -> SimResult<()>;

    /// Pre-optimizer-step hook (§4.2.2's framework callback).
    fn pre_optimizer(&mut self) -> SimResult<()>;

    /// Post-optimizer-step hook.
    fn post_optimizer(&mut self) -> SimResult<()>;

    /// Snapshot of persistent (param/optimizer) state with its logical
    /// byte size — the payload of a JIT checkpoint.
    fn persistent_snapshot(&mut self) -> SimResult<PersistentSnapshot>;

    /// Restores persistent state from a snapshot (by storage key).
    fn restore_persistent(&mut self, snap: &[(String, BufferTag, Vec<f32>)]) -> SimResult<()>;

    /// Applies an injected fault to this rank's device.
    fn inject(&mut self, kind: FailureKind);

    /// Arms a one-shot transient network fault on a communicator.
    fn inject_transient(&mut self, comm: CommToken) -> SimResult<()>;

    /// Device health as seen by this rank.
    fn health(&self) -> GpuHealth;

    /// Current iteration number (as tracked by `begin_minibatch`).
    fn iteration(&self) -> u64;
}

/// Network operations consult device health first: driver corruption
/// surfaces there even though plain device calls still appear to succeed
/// (§4.2.1 case 2).
pub(crate) fn check_comm_health(gpu: &Gpu) -> SimResult<()> {
    match gpu.health() {
        GpuHealth::DriverSuspect => Err(SimError::DriverCorrupted(gpu.id)),
        h => h.check_api(gpu.id),
    }
}

/// The persistent state of a device whose memory can still be read —
/// the payload of a JIT checkpoint.
pub(crate) fn readable_snapshot(gpu: &Gpu) -> SimResult<PersistentSnapshot> {
    if !gpu.health().memory_readable() {
        return Err(SimError::CudaSticky(gpu.id));
    }
    Ok(gpu.snapshot_persistent())
}

/// One of the five collective kinds, without its buffers: what
/// [`CommPlane::collective`] needs beyond the contribution itself.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Coll {
    AllReduce(ReduceOp),
    AllGather,
    ReduceScatter(ReduceOp),
    /// Broadcast from the given root.
    Broadcast(RankId),
    Barrier,
}

/// The communication plane of one rank: everything [`DirectExecutor`]
/// and [`crate::ProxyClient`] do identically on the network side. It
/// owns the token table (tokens survive communicator re-creation), the
/// per-token generation counters, the collective observer, and the
/// collective / p2p protocol at an explicit generation. The executors
/// keep only how a buffer is fetched from and loaded onto the device —
/// and, for the proxy, virtualisation, logging and recovery.
pub(crate) struct CommPlane {
    pub(crate) rank: RankId,
    pub(crate) clock_idx: usize,
    pub(crate) clock: Arc<ClockBoard>,
    pub(crate) world: Arc<CommWorld>,
    pub(crate) observer: Arc<dyn CollectiveObserver>,
    comms: BTreeMap<CommToken, Arc<Communicator>>,
    next_token: u64,
    gens: BTreeMap<CommToken, u64>,
}

impl CommPlane {
    pub(crate) fn new(rank: RankId, clock_idx: usize, world: Arc<CommWorld>) -> Self {
        CommPlane {
            rank,
            clock_idx,
            clock: world.clock().clone(),
            world,
            observer: Arc::new(NullObserver),
            comms: BTreeMap::new(),
            next_token: 1,
            gens: BTreeMap::new(),
        }
    }

    /// Advances this rank's virtual clock.
    pub(crate) fn advance(&self, t: SimTime) {
        self.clock.advance(self.clock_idx, t);
    }

    pub(crate) fn register(&mut self, comm: Arc<Communicator>) -> CommToken {
        let token = CommToken(self.next_token);
        self.next_token += 1;
        self.comms.insert(token, comm);
        token
    }

    /// Swaps the communicator behind a token (recovery re-creation).
    pub(crate) fn replace(&mut self, token: CommToken, comm: Arc<Communicator>) {
        self.comms.insert(token, comm);
    }

    /// Registered tokens, sorted.
    pub(crate) fn tokens(&self) -> Vec<CommToken> {
        self.comms.keys().copied().collect()
    }

    pub(crate) fn comm(&self, token: CommToken) -> SimResult<Arc<Communicator>> {
        self.comms
            .get(&token)
            .cloned()
            .ok_or_else(|| SimError::InvalidHandle(format!("comm token {token:?}")))
    }

    /// Current operation sequence number for a token. It advances only
    /// on success ([`CommPlane::bump_gen`]), so a failed or aborted
    /// attempt is retried — and a logged one replayed — at the same
    /// generation (idempotent pairing; see the collectives crate docs).
    pub(crate) fn gen_of(&self, token: CommToken) -> u64 {
        self.gens.get(&token).copied().unwrap_or(0)
    }

    pub(crate) fn bump_gen(&mut self, token: CommToken) {
        *self.gens.entry(token).or_insert(0) += 1;
    }

    /// The generation counters as sorted `(token, generation)` pairs —
    /// the part of this plane a CRIU image must carry.
    pub(crate) fn gens(&self) -> Vec<(u64, u64)> {
        self.gens.iter().map(|(t, g)| (t.0, *g)).collect()
    }

    pub(crate) fn set_gens(&mut self, gens: Vec<(u64, u64)>) {
        self.gens = gens.into_iter().map(|(t, g)| (CommToken(t), g)).collect();
    }

    /// Runs one collective at generation `gen` and returns the result
    /// every member shares (this rank's shard for reduce-scatter, empty
    /// for a barrier). `data` is this rank's contribution; a broadcast
    /// uses it on the root only and a barrier not at all. The generation
    /// is the caller's to advance.
    pub(crate) fn collective(
        &self,
        token: CommToken,
        gen: u64,
        coll: Coll,
        data: Vec<f32>,
        logical: u64,
    ) -> SimResult<Arc<Vec<f32>>> {
        let comm = self.comm(token)?;
        let (rank, obs) = (self.rank, self.observer.as_ref());
        match coll {
            Coll::AllReduce(op) => comm.all_reduce_shared(rank, gen, data, op, logical, obs),
            Coll::AllGather => comm.all_gather_shared(rank, gen, data, logical, obs),
            Coll::ReduceScatter(op) => comm
                .reduce_scatter(rank, gen, data, op, logical, obs)
                .map(Arc::new),
            Coll::Broadcast(root) => {
                let contribution = (rank == root).then_some(data);
                comm.broadcast_shared(rank, gen, root, contribution, logical, obs)
            }
            Coll::Barrier => comm.barrier(rank, gen, obs).map(|()| Arc::default()),
        }
    }

    pub(crate) fn send(
        &self,
        dst: RankId,
        tag: u64,
        seq: u64,
        data: Vec<f32>,
        logical: u64,
        same_node: bool,
    ) -> SimResult<()> {
        self.world.send(
            self.rank,
            self.clock_idx,
            dst,
            tag,
            seq,
            data,
            logical,
            same_node,
        )
    }

    /// Blocking receive of `(src, tag, seq)`. A pipeline recv blocks
    /// exactly like a collective when the peer stage has failed, so the
    /// world announces it to the hang watch-list like one.
    pub(crate) fn recv(&self, src: RankId, tag: u64, seq: u64) -> SimResult<Vec<f32>> {
        let obs = self.observer.as_ref();
        self.world
            .recv(src, self.rank, self.clock_idx, tag, seq, obs)
    }

    pub(crate) fn inject_transient(&self, token: CommToken) -> SimResult<()> {
        self.comm(token)?.inject_transient_fault(self.rank);
        Ok(())
    }
}

/// Direct executor: no interception, no logging. Failures surface to the
/// caller ("user code"), which is exactly the failure model the
/// user-level JIT solution (§3) and the periodic-checkpointing baselines
/// operate under. Every network operation except `barrier` consults
/// device health first.
pub struct DirectExecutor {
    plane: CommPlane,
    gpu: Arc<Mutex<Gpu>>,
    iteration: u64,
}

impl DirectExecutor {
    /// Creates a direct executor for `rank` over `gpu`.
    pub fn new(rank: RankId, clock_idx: usize, gpu: Gpu, world: Arc<CommWorld>) -> Self {
        DirectExecutor {
            plane: CommPlane::new(rank, clock_idx, world),
            gpu: Arc::new(Mutex::new(gpu)),
            iteration: 0,
        }
    }

    /// Installs a collective observer (the user-level JIT watch-list hook).
    pub fn set_observer(&mut self, obs: Arc<dyn CollectiveObserver>) {
        self.plane.observer = obs;
    }

    /// Shared handle to the device. The user-level JIT watchdog holds a
    /// clone so it can snapshot GPU state from its own thread while the
    /// rank thread is parked in a hung collective — the analogue of the
    /// paper's checkpoint-on-a-new-CUDA-stream trick (§3.2). The lock is
    /// never held across a blocking collective wait.
    pub fn shared_gpu(&self) -> Arc<Mutex<Gpu>> {
        self.gpu.clone()
    }

    /// Runs a closure with exclusive device access.
    pub fn with_gpu<R>(&self, f: impl FnOnce(&mut Gpu) -> R) -> R {
        f(&mut self.gpu.lock())
    }

    /// Health check, then the buffer's contents and logical size. The
    /// device lock is released before the caller blocks on the network.
    fn fetch(&self, buf: BufferId) -> SimResult<(Vec<f32>, u64)> {
        let gpu = self.gpu.lock();
        check_comm_health(&gpu)?;
        let b = gpu.buffer(buf)?;
        Ok((b.data.clone(), b.logical_bytes))
    }

    /// A data collective: fetch `src`, run at the token's current
    /// generation, advance it, load the result into `dst`.
    fn collective(
        &mut self,
        token: CommToken,
        coll: Coll,
        src: BufferId,
        dst: BufferId,
    ) -> SimResult<()> {
        let (data, logical) = self.fetch(src)?;
        let gen = self.plane.gen_of(token);
        let out = self.plane.collective(token, gen, coll, data, logical)?;
        self.plane.bump_gen(token);
        self.gpu.lock().load_buffer(dst, &out)
    }
}

impl Executor for DirectExecutor {
    fn rank(&self) -> RankId {
        self.plane.rank
    }

    fn clock_idx(&self) -> usize {
        self.plane.clock_idx
    }

    fn clock(&self) -> Arc<ClockBoard> {
        self.plane.clock.clone()
    }

    fn call(&mut self, call: DeviceCall) -> SimResult<CallResult> {
        let (res, cost) = self.gpu.lock().exec(&call)?;
        self.plane.advance(cost);
        Ok(res)
    }

    fn register_comm(&mut self, comm: Arc<Communicator>) -> CommToken {
        self.plane.register(comm)
    }

    fn all_reduce(&mut self, comm: CommToken, buf: BufferId, op: ReduceOp) -> SimResult<()> {
        self.collective(comm, Coll::AllReduce(op), buf, buf)
    }

    fn all_reduce_bucket(
        &mut self,
        comm: CommToken,
        bufs: &[BufferId],
        op: ReduceOp,
    ) -> SimResult<()> {
        if bufs.is_empty() {
            return Ok(());
        }
        // Fuse the bucket into one collective: concatenate in caller
        // order, reduce once, scatter the slices back. One generation per
        // bucket keeps retry idempotent at bucket granularity. (A bucket
        // of one is exactly `all_reduce`.)
        let mut fused = Vec::new();
        let mut lens = Vec::with_capacity(bufs.len());
        let mut logical = 0u64;
        {
            let gpu = self.gpu.lock();
            check_comm_health(&gpu)?;
            for buf in bufs {
                let b = gpu.buffer(*buf)?;
                lens.push(b.data.len());
                logical += b.logical_bytes;
                fused.extend_from_slice(&b.data);
            }
        }
        let gen = self.plane.gen_of(comm);
        let out = self
            .plane
            .collective(comm, gen, Coll::AllReduce(op), fused, logical)?;
        self.plane.bump_gen(comm);
        let mut gpu = self.gpu.lock();
        let mut off = 0usize;
        for (buf, len) in bufs.iter().zip(lens) {
            gpu.load_buffer(*buf, &out[off..off + len])?;
            off += len;
        }
        Ok(())
    }

    fn all_gather_into(&mut self, comm: CommToken, src: BufferId, dst: BufferId) -> SimResult<()> {
        self.collective(comm, Coll::AllGather, src, dst)
    }

    fn reduce_scatter_into(
        &mut self,
        comm: CommToken,
        src: BufferId,
        dst: BufferId,
        op: ReduceOp,
    ) -> SimResult<()> {
        self.collective(comm, Coll::ReduceScatter(op), src, dst)
    }

    fn broadcast(&mut self, comm: CommToken, root: RankId, buf: BufferId) -> SimResult<()> {
        self.collective(comm, Coll::Broadcast(root), buf, buf)
    }

    fn barrier(&mut self, comm: CommToken) -> SimResult<()> {
        let gen = self.plane.gen_of(comm);
        self.plane
            .collective(comm, gen, Coll::Barrier, Vec::new(), 0)?;
        self.plane.bump_gen(comm);
        Ok(())
    }

    fn send(
        &mut self,
        dst: RankId,
        tag: u64,
        seq: u64,
        buf: BufferId,
        same_node: bool,
    ) -> SimResult<()> {
        let (data, logical) = self.fetch(buf)?;
        self.plane.send(dst, tag, seq, data, logical, same_node)
    }

    fn recv_into(&mut self, src: RankId, tag: u64, seq: u64, buf: BufferId) -> SimResult<()> {
        check_comm_health(&self.gpu.lock())?;
        let data = self.plane.recv(src, tag, seq)?;
        self.gpu.lock().load_buffer(buf, &data)
    }

    fn begin_minibatch(&mut self, iteration: u64) -> SimResult<()> {
        self.iteration = iteration;
        self.gpu.lock().commit_frees();
        Ok(())
    }

    fn pre_optimizer(&mut self) -> SimResult<()> {
        Ok(())
    }

    fn post_optimizer(&mut self) -> SimResult<()> {
        Ok(())
    }

    fn persistent_snapshot(&mut self) -> SimResult<PersistentSnapshot> {
        readable_snapshot(&self.gpu.lock())
    }

    fn restore_persistent(&mut self, snap: &[(String, BufferTag, Vec<f32>)]) -> SimResult<()> {
        self.gpu.lock().restore_persistent(snap)
    }

    fn inject(&mut self, kind: FailureKind) {
        self.gpu.lock().inject(kind);
    }

    fn inject_transient(&mut self, comm: CommToken) -> SimResult<()> {
        self.plane.inject_transient(comm)
    }

    fn health(&self) -> GpuHealth {
        self.gpu.lock().health()
    }

    fn iteration(&self) -> u64 {
        self.iteration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::cost::CostModel;
    use simgpu::AllocSite;
    use std::thread;

    fn setup(n: usize) -> (Arc<CommWorld>, Vec<DirectExecutor>) {
        let clock = Arc::new(ClockBoard::new(n));
        let world = CommWorld::new(clock, CostModel::v100(), 8);
        let execs = (0..n)
            .map(|i| {
                let gpu = Gpu::new(simcore::GpuId(i as u32), CostModel::v100());
                DirectExecutor::new(RankId(i as u32), i, gpu, world.clone())
            })
            .collect();
        (world, execs)
    }

    fn alloc(
        e: &mut DirectExecutor,
        path: &str,
        data: Vec<f32>,
        tag: BufferTag,
    ) -> SimResult<BufferId> {
        let n = data.len() as u64;
        let b = e
            .call(DeviceCall::Malloc {
                site: AllocSite::new(path, n),
                elems: n,
                logical_bytes: n * 4,
                tag,
            })?
            .buffer()?;
        e.call(DeviceCall::Upload { buf: b, data })?;
        Ok(b)
    }

    #[test]
    fn device_calls_advance_the_clock() -> SimResult<()> {
        let (_, mut execs) = setup(1);
        let e = &mut execs[0];
        let before = e.clock().now(0);
        alloc(e, "x", vec![1.0; 64], BufferTag::Param)?;
        assert!(e.clock().now(0) > before);
        Ok(())
    }

    #[test]
    fn all_reduce_through_executors() -> SimResult<()> {
        let (world, mut execs) = setup(2);
        let comm = world.create_comm(vec![RankId(0), RankId(1)], vec![0, 1]);
        let handles: Vec<_> = execs
            .drain(..)
            .enumerate()
            .map(|(i, mut e)| {
                let comm = comm.clone();
                thread::spawn(move || -> SimResult<Vec<f32>> {
                    let t = e.register_comm(comm);
                    let b = alloc(&mut e, "g", vec![(i + 1) as f32; 4], BufferTag::Gradient)?;
                    e.all_reduce(t, b, ReduceOp::Sum)?;
                    e.call(DeviceCall::Download { buf: b })?.data()
                })
            })
            .collect();
        for h in handles {
            let joined = h
                .join()
                .map_err(|_| SimError::Protocol("rank panicked".into()))??;
            assert_eq!(joined, vec![3.0; 4]);
        }
        Ok(())
    }

    #[test]
    fn failed_device_refuses_collectives() -> SimResult<()> {
        let (world, mut execs) = setup(1);
        let comm = world.create_comm(vec![RankId(0)], vec![0]);
        let e = &mut execs[0];
        let t = e.register_comm(comm);
        let b = alloc(e, "g", vec![1.0], BufferTag::Gradient)?;
        e.inject(FailureKind::StickyCuda);
        let err = e.all_reduce(t, b, ReduceOp::Sum).unwrap_err();
        assert!(matches!(err, SimError::CudaSticky(_)));
        Ok(())
    }

    #[test]
    fn send_recv_between_executors() -> SimResult<()> {
        let (_, mut execs) = setup(2);
        let mut e1 = execs
            .pop()
            .ok_or_else(|| SimError::Protocol("missing exec".into()))?;
        let mut e0 = execs
            .pop()
            .ok_or_else(|| SimError::Protocol("missing exec".into()))?;
        let src = alloc(&mut e0, "act", vec![5.0, 6.0], BufferTag::Activation)?;
        let dst = alloc(&mut e1, "act_in", vec![0.0, 0.0], BufferTag::Activation)?;
        e0.send(RankId(1), 0, 0, src, true)?;
        e1.recv_into(RankId(0), 0, 0, dst)?;
        assert_eq!(
            e1.call(DeviceCall::Download { buf: dst })?.data()?,
            vec![5.0, 6.0]
        );
        Ok(())
    }

    #[test]
    fn persistent_snapshot_excludes_activations() -> SimResult<()> {
        let (_, mut execs) = setup(1);
        let e = &mut execs[0];
        alloc(e, "w", vec![1.0; 4], BufferTag::Param)?;
        alloc(e, "act", vec![2.0; 4], BufferTag::Activation)?;
        let (snap, bytes) = e.persistent_snapshot()?;
        assert_eq!(snap.len(), 1);
        assert_eq!(bytes, 16);
        Ok(())
    }

    #[test]
    fn snapshot_fails_when_memory_unreadable() -> SimResult<()> {
        let (_, mut execs) = setup(1);
        let e = &mut execs[0];
        alloc(e, "w", vec![1.0; 4], BufferTag::Param)?;
        e.inject(FailureKind::StickyCuda);
        assert!(e.persistent_snapshot().is_err());
        Ok(())
    }
}
