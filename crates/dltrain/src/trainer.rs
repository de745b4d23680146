//! The per-rank training loop.
//!
//! [`RankTrainer`] drives one rank of a (dp × pp × tp) job: deterministic
//! data loading, forward/backward through this rank's pipeline stage of
//! tensor-parallel blocks, bucketed data-parallel gradient all-reduces
//! overlapped Figure-3 style (event record on the comm stream, stream-wait
//! on the compute stream), and the optimizer step bracketed by the
//! pre/post-optimizer hooks of §4.2.2.
//!
//! Failure injection is polled at every phase boundary — exactly the
//! coordinates (`iteration`, [`Phase`], rank) the paper's case analysis
//! distinguishes — and applies the fault to this rank's device or
//! communicator, after which it manifests at the next device/NCCL call
//! like a real fault would.

use crate::data::DataLoader;
use crate::model::{
    alloc_buf, download, launch, upload, Block, BlockActs, BlockGrads, Head, ModelConfig,
};
use crate::optim::{OptimizerKind, RankOptimizer};
use crate::setup::JobComms;
use bytes::{Buf, Bytes};
use cluster::FailureInjector;
use collectives::ReduceOp;
use proxy::{CommToken, Executor};
use simcore::codec::{Decode, Encode};
use simcore::failure::{FailureKind, Phase};
use simcore::layout::{GridCoord, ParallelLayout};
use simcore::{RankId, SimError, SimResult};
use simgpu::{BufferId, BufferTag, DeviceCall, StateSink, StateView, StreamId};
use std::borrow::Cow;
use std::sync::Arc;

/// Per-job training configuration (identical on every rank).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Parallelism layout.
    pub layout: ParallelLayout,
    /// Model hyperparameters.
    pub model: ModelConfig,
    /// Per-replica batch size.
    pub batch: usize,
    /// Optimizer settings.
    pub optimizer: OptimizerKind,
    /// Global seed (init + data).
    pub seed: u64,
    /// GPUs per node (p2p routing).
    pub ranks_per_node: usize,
    /// Treat the `tp` dimension as an FSDP hybrid-shard group instead of
    /// Megatron tensor parallelism.
    pub fsdp: bool,
}

impl TrainConfig {
    /// Small pure-data-parallel config for tests.
    pub fn tiny_dp(dp: usize) -> Self {
        TrainConfig {
            layout: ParallelLayout::data_parallel(dp),
            model: ModelConfig::tiny(),
            batch: 4,
            optimizer: OptimizerKind::sgd(0.05),
            seed: 1234,
            ranks_per_node: 8,
            fsdp: false,
        }
    }
}

/// Reserved p2p tags: activations flow forward, gradients backward.
const TAG_ACT: u64 = 1;
const TAG_GRAD: u64 = 2;

/// Default gradient-bucket capacity in logical bytes. Backward-pass
/// gradients accumulate until this much is pending, then the bucket's
/// fused all-reduce launches on the comm stream — DDP-style overlap of
/// communication with the rest of backward (Figure 3). Setting the
/// trainer's bucket size to 0 restores the eager per-buffer reference
/// path.
pub const DEFAULT_BUCKET_BYTES: u64 = 4 << 20;

/// Pending data-parallel gradients for one backward pass: buffers in
/// parameter-completion order plus their accumulated logical size.
#[derive(Debug, Default)]
struct GradBucket {
    bufs: Vec<BufferId>,
    bytes: u64,
}

/// Registered communicator tokens for one rank. Public because
/// [`RankTrainer::tokens`] returns it.
#[derive(Debug, Clone, Copy)]
pub struct RankTokens {
    /// World group.
    pub global: CommToken,
    /// Data-parallel group.
    pub dp: Option<CommToken>,
    /// Tensor-parallel / FSDP shard group.
    pub tp: Option<CommToken>,
    /// Pipeline column group (all stages of this replica/partition).
    pub pp: Option<CommToken>,
}

/// One FSDP-sharded parameter: the rank's persistent flat shard plus the
/// full-tensor dimensions needed to materialize it each minibatch.
#[derive(Debug, Clone)]
struct FsdpParam {
    /// Persistent shard buffer (`full_elems / shard_group` elements).
    shard: BufferId,
    /// Elements of the full (gathered) tensor.
    full_elems: usize,
    /// Stable name for temp-buffer allocation sites.
    name: String,
}

/// One rank's trainer.
pub struct RankTrainer<E: Executor> {
    /// The executor (public so harnesses can reach the device layer).
    pub exec: E,
    cfg: TrainConfig,
    coord: GridCoord,
    tokens: RankTokens,
    prev: Option<RankId>,
    next: Option<RankId>,
    prev_same_node: bool,
    next_same_node: bool,
    blocks: Vec<Block>,
    head: Option<Head>,
    /// FSDP hybrid sharding: per-parameter shards in registration order
    /// (empty when FSDP is off).
    fsdp_params: Vec<FsdpParam>,
    opt: RankOptimizer,
    loader: DataLoader,
    compute: StreamId,
    comm_stream: StreamId,
    /// Gradient-bucket fill threshold in logical bytes (`0` selects the
    /// eager per-buffer reference path).
    bucket_bytes: u64,
    iteration: u64,
    /// Per-iteration losses observed by this rank (`NaN` on stages that
    /// never see the loss).
    pub losses: Vec<f32>,
    injector: Arc<FailureInjector>,
}

impl<E: Executor> RankTrainer<E> {
    /// Builds a trainer for `exec.rank()` and registers its communicators.
    pub fn new(
        mut exec: E,
        cfg: TrainConfig,
        comms: &JobComms,
        injector: Arc<FailureInjector>,
    ) -> SimResult<Self> {
        let rank = exec.rank();
        let coord = cfg.layout.coord(rank);
        let global = exec.register_comm(comms.global.clone());
        let dp = comms.dp.as_ref().map(|c| exec.register_comm(c.clone()));
        let tp = comms.tp.as_ref().map(|c| exec.register_comm(c.clone()));
        let pp = comms.pp.as_ref().map(|c| exec.register_comm(c.clone()));
        // Framework extras participate in recovery teardown/rendezvous
        // even though the training loop never issues collectives on them.
        for extra in &comms.extras {
            exec.register_comm(extra.clone());
        }
        let tokens = RankTokens { global, dp, tp, pp };
        let compute = exec.call(DeviceCall::StreamCreate)?.stream()?;
        let comm_stream = exec.call(DeviceCall::StreamCreate)?.stream()?;
        // This stage's block range.
        assert!(
            cfg.model.blocks.is_multiple_of(cfg.layout.pp),
            "blocks must divide by pp"
        );
        let bps = cfg.model.blocks / cfg.layout.pp;
        let tp_degree = if cfg.fsdp { 1 } else { cfg.layout.tp };
        let part = if cfg.fsdp { 0 } else { coord.part };
        let mut blocks = Vec::with_capacity(bps);
        for b in 0..bps {
            let index = coord.stage * bps + b;
            blocks.push(Block::init(
                &mut exec, &cfg.model, index, part, tp_degree, cfg.seed,
            )?);
        }
        let head = (coord.stage + 1 == cfg.layout.pp)
            .then(|| Head::init(&mut exec, &cfg.model, cfg.seed))
            .transpose()?;
        // Register parameters with the optimizer in forward order.
        let mut params: Vec<(BufferId, usize, String)> = Vec::new();
        for blk in &blocks {
            params.push((blk.a, blk.d * blk.h_local, format!("block{}.a", blk.index)));
            params.push((
                blk.bias_a,
                blk.h_local,
                format!("block{}.bias_a", blk.index),
            ));
            params.push((blk.b, blk.h_local * blk.d, format!("block{}.b", blk.index)));
            params.push((blk.gamma, blk.d, format!("block{}.gamma", blk.index)));
            params.push((blk.beta, blk.d, format!("block{}.beta", blk.index)));
        }
        if let Some(h) = &head {
            params.push((h.w, h.d * h.classes, "head.w".to_string()));
        }
        // FSDP hybrid sharding: convert each full parameter into this
        // rank's flat shard (the persistent, checkpointable state); the
        // full tensors become per-minibatch temporaries re-gathered from
        // the shard group.
        let fsdp_group = if cfg.fsdp { cfg.layout.tp } else { 1 };
        let mut fsdp_params: Vec<FsdpParam> = Vec::new();
        if fsdp_group > 1 {
            let g = coord.part;
            for (full, elems, name) in &params {
                assert!(
                    elems % fsdp_group == 0,
                    "FSDP shard size must divide parameter {name}"
                );
                let shard_elems = elems / fsdp_group;
                let data = download(&mut exec, *full)?;
                let shard = alloc_buf(
                    &mut exec,
                    &format!("fsdp.{name}.shard"),
                    shard_elems,
                    cfg.model.phantom_scale,
                    BufferTag::Param,
                )?;
                upload(
                    &mut exec,
                    shard,
                    data[g * shard_elems..(g + 1) * shard_elems].to_vec(),
                )?;
                exec.call(DeviceCall::Free { buf: *full })?;
                fsdp_params.push(FsdpParam {
                    shard,
                    full_elems: *elems,
                    name: name.clone(),
                });
            }
            // The optimizer steps on the shards.
            params = fsdp_params
                .iter()
                .map(|p| (p.shard, p.full_elems / fsdp_group, p.name.clone()))
                .collect();
        }
        let opt = RankOptimizer::init(&mut exec, cfg.optimizer, &params, cfg.model.phantom_scale)?;
        // Under hybrid sharding the shard group is also a data-parallel
        // dimension: every rank reads a distinct data shard.
        let data_replica = if cfg.fsdp {
            coord.dp * cfg.layout.tp + coord.part
        } else {
            coord.dp
        };
        let loader = DataLoader::new(
            cfg.seed,
            data_replica,
            cfg.batch,
            cfg.model.input_dim,
            cfg.model.classes,
        );
        let rpn = cfg.ranks_per_node;
        let same_node = |a: RankId, b: RankId| a.index() / rpn == b.index() / rpn;
        let prev_same_node = comms.prev.map(|p| same_node(rank, p)).unwrap_or(true);
        let next_same_node = comms.next.map(|p| same_node(rank, p)).unwrap_or(true);
        Ok(RankTrainer {
            exec,
            cfg,
            coord,
            tokens,
            prev: comms.prev,
            next: comms.next,
            prev_same_node,
            next_same_node,
            blocks,
            head,
            fsdp_params,
            opt,
            loader,
            compute,
            comm_stream,
            bucket_bytes: DEFAULT_BUCKET_BYTES,
            iteration: 0,
            losses: Vec::new(),
            injector,
        })
    }

    /// Current iteration number.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Optimizer timestep (checkpointed CPU state).
    pub fn opt_t(&self) -> u32 {
        self.opt.t
    }

    /// Grid coordinates of this rank.
    pub fn coord(&self) -> GridCoord {
        self.coord
    }

    /// Registered communicator tokens.
    pub fn tokens(&self) -> RankTokens {
        self.tokens
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    fn poll_inject(&mut self, phase: Phase) -> SimResult<()> {
        if let Some(kind) = self.injector.poll(self.exec.rank(), self.iteration, phase) {
            match kind {
                FailureKind::TransientNetwork => {
                    // A link fault: fail the next collective on the group
                    // this rank synchronizes through.
                    let token = self
                        .tokens
                        .dp
                        .or(self.tokens.tp)
                        .unwrap_or(self.tokens.global);
                    self.exec.inject_transient(token)?;
                }
                other => self.exec.inject(other),
            }
        }
        Ok(())
    }

    /// Figure-3 ordering traffic around one bucket all-reduce: event on
    /// the comm stream, stream-wait on the compute stream. These are the
    /// calls the user-level watch-list intercepts.
    fn bucket_sync_events(&mut self) -> SimResult<()> {
        let ev = self.exec.call(DeviceCall::EventCreate)?.event()?;
        self.exec.call(DeviceCall::EventRecord {
            stream: self.comm_stream,
            event: ev,
        })?;
        self.exec.call(DeviceCall::StreamWaitEvent {
            stream: self.compute,
            event: ev,
        })?;
        self.exec.call(DeviceCall::EventDestroy { event: ev })?;
        Ok(())
    }

    /// FSDP prologue: all-gather every parameter shard into a fresh full
    /// temporary on the shard group and point the blocks/head at the
    /// gathered tensors for this minibatch.
    fn materialize_fsdp(&mut self, scratch: &mut Vec<BufferId>) -> SimResult<()> {
        let tp = self.tokens.tp.expect("FSDP requires a shard group");
        let ps = self.cfg.model.phantom_scale;
        let params = self.fsdp_params.clone();
        let mut temps = Vec::with_capacity(params.len());
        for p in &params {
            let temp = alloc_buf(
                &mut self.exec,
                &format!("fsdp.{}.full", p.name),
                p.full_elems,
                ps,
                BufferTag::Workspace,
            )?;
            self.exec.all_gather_into(tp, p.shard, temp)?;
            scratch.push(temp);
            temps.push(temp);
        }
        // Rebind the model views onto the gathered tensors.
        let d = self.cfg.model.input_dim;
        let h = self.cfg.model.hidden;
        for (i, blk) in self.blocks.iter_mut().enumerate() {
            blk.a = temps[5 * i];
            blk.bias_a = temps[5 * i + 1];
            blk.b = temps[5 * i + 2];
            blk.gamma = temps[5 * i + 3];
            blk.beta = temps[5 * i + 4];
            blk.d = d;
            blk.h_local = h;
        }
        if let Some(head) = &mut self.head {
            head.w = *temps.last().expect("head param gathered");
        }
        Ok(())
    }

    /// FSDP epilogue: reduce-scatter every full gradient to this rank's
    /// shard (averaging over the shard group, which is also a data
    /// dimension under hybrid sharding), returning the shard gradients in
    /// registration order.
    fn fsdp_shard_grads(
        &mut self,
        full_grads: &[BufferId],
        scratch: &mut Vec<BufferId>,
    ) -> SimResult<Vec<BufferId>> {
        let tp = self.tokens.tp.expect("FSDP requires a shard group");
        let g = self.cfg.layout.tp;
        let ps = self.cfg.model.phantom_scale;
        let params = self.fsdp_params.clone();
        let mut shard_grads = Vec::with_capacity(params.len());
        for (p, full) in params.iter().zip(full_grads) {
            let shard_g = alloc_buf(
                &mut self.exec,
                &format!("fsdp.{}.grad_shard", p.name),
                p.full_elems / g,
                ps,
                BufferTag::Gradient,
            )?;
            self.exec
                .reduce_scatter_into(tp, *full, shard_g, ReduceOp::Avg)?;
            scratch.push(shard_g);
            shard_grads.push(shard_g);
        }
        Ok(shard_grads)
    }

    /// Sets the gradient-bucket fill threshold in logical bytes. `0`
    /// disables bucketing and restores the eager per-buffer all-reduce
    /// path (the bit-identity reference).
    pub fn set_bucket_bytes(&mut self, bytes: u64) {
        self.bucket_bytes = bytes;
    }

    /// Data-parallel gradient all-reduce for one bucket (averaging), with
    /// the Figure-3 event pattern — the eager per-buffer reference path
    /// used when bucketing is disabled.
    fn dp_all_reduce_bucket(&mut self, grads: &[BufferId]) -> SimResult<()> {
        if let Some(dp) = self.tokens.dp {
            for g in grads {
                self.exec.all_reduce(dp, *g, ReduceOp::Avg)?;
            }
            self.bucket_sync_events()?;
        }
        Ok(())
    }

    /// Queues one gradient group (`elems` logical elements) on the
    /// data-parallel bucket, launching the fused bucket all-reduce as
    /// soon as the bucket fills. Accumulation order is the caller's
    /// issue order, so the fused reduction is bit-identical to the eager
    /// path (each buffer reduces independently either way).
    fn bucket_grads(
        &mut self,
        bucket: &mut GradBucket,
        grads: &[BufferId],
        elems: usize,
    ) -> SimResult<()> {
        if self.tokens.dp.is_none() {
            return Ok(());
        }
        if self.bucket_bytes == 0 {
            return self.dp_all_reduce_bucket(grads);
        }
        bucket.bufs.extend_from_slice(grads);
        bucket.bytes += ((elems * 4) as f64 * self.cfg.model.phantom_scale).ceil() as u64;
        if bucket.bytes >= self.bucket_bytes {
            self.flush_bucket(bucket)?;
        }
        Ok(())
    }

    /// Launches the pending bucket's fused all-reduce (no-op when
    /// empty). The final flush runs immediately before `pre_optimizer`,
    /// so a bucketed minibatch still ends at the single observable
    /// optimizer-step barrier JIT hang detection keys on.
    fn flush_bucket(&mut self, bucket: &mut GradBucket) -> SimResult<()> {
        if bucket.bufs.is_empty() {
            return Ok(());
        }
        let dp = self.tokens.dp.expect("bucket only fills with a dp group");
        self.exec
            .all_reduce_bucket(dp, &bucket.bufs, ReduceOp::Avg)?;
        self.bucket_sync_events()?;
        bucket.bufs.clear();
        bucket.bytes = 0;
        Ok(())
    }

    /// Runs one minibatch iteration. Returns the loss on ranks that
    /// compute it (last pipeline stage), `None` elsewhere.
    pub fn train_step(&mut self) -> SimResult<Option<f32>> {
        let it = self.iteration;
        let m = self.cfg.batch;
        let d = self.cfg.model.input_dim;
        let ps = self.cfg.model.phantom_scale;
        self.exec.begin_minibatch(it)?;
        self.poll_inject(Phase::Forward)?;
        let mut scratch: Vec<BufferId> = Vec::new();
        let fsdp_mode = !self.fsdp_params.is_empty();
        if fsdp_mode {
            self.materialize_fsdp(&mut scratch)?;
        }
        let mb = self.loader.minibatch(it);
        // Input activations: loaded on stage 0, received on later stages.
        // Inputs and cross-stage activation gradients are batch-sized.
        let x0 = alloc_buf(&mut self.exec, "act.input", m * d, 1.0, BufferTag::Input)?;
        scratch.push(x0);
        if self.coord.stage == 0 {
            upload(&mut self.exec, x0, mb.inputs.clone())?;
        } else {
            let prev = self.prev.expect("non-first stage has prev");
            self.exec.recv_into(prev, TAG_ACT, it, x0)?;
        }
        // Forward through this stage's blocks.
        let mut cur = x0;
        let mut acts: Vec<(BufferId, BlockActs)> = Vec::new();
        let blocks = self.blocks.clone();
        for blk in &blocks {
            let a = blk.forward(&mut self.exec, self.compute, cur, m, ps, &mut scratch)?;
            if let (false, Some(tp)) = (self.cfg.fsdp, self.tokens.tp) {
                self.exec.all_reduce(tp, a.y, ReduceOp::Sum)?;
            }
            // Residual: y ← y + x (applied after the group reduction so
            // it is added exactly once on every rank).
            launch(
                &mut self.exec,
                self.compute,
                simgpu::KernelKind::Axpy {
                    alpha: 1.0,
                    x: cur,
                    y: a.y,
                },
            )?;
            acts.push((cur, a.clone()));
            cur = a.y;
        }
        // Stage boundary / head.
        let mut bucket = GradBucket::default();
        let mut grads_rev: Vec<[BufferId; 5]> = Vec::new();
        let mut head_grad: Option<BufferId> = None;
        let mut loss_val: Option<f32> = None;
        if let Some(head) = self.head.clone() {
            // Last stage: loss + start of backward.
            let labels = alloc_buf(&mut self.exec, "act.labels", m, 1.0, BufferTag::Input)?;
            scratch.push(labels);
            upload(&mut self.exec, labels, mb.labels.clone())?;
            let (loss_buf, probs, _logits) = head.forward_loss(
                &mut self.exec,
                self.compute,
                cur,
                labels,
                m,
                ps,
                &mut scratch,
            )?;
            self.poll_inject(Phase::Backward)?;
            let (dw, mut dy) = head.backward(
                &mut self.exec,
                self.compute,
                cur,
                labels,
                probs,
                m,
                ps,
                &mut scratch,
            )?;
            head_grad = Some(dw);
            // Backward through blocks (reverse), overlapping dp bucket
            // all-reduces per block as its gradients complete (Figure 3).
            for (blk, (x_in, a)) in blocks.iter().rev().zip(acts.iter().rev()) {
                let g = BlockGrads::alloc(&mut self.exec, blk, ps, &mut scratch)?;
                let dln =
                    blk.backward_mlp(&mut self.exec, self.compute, a, dy, m, ps, &g, &mut scratch)?;
                if let (false, Some(tp)) = (self.cfg.fsdp, self.tokens.tp) {
                    // Reduce the pre-LN gradient across the group; the
                    // LayerNorm backward then derives identical dγ/dβ on
                    // every part without extra synchronization.
                    self.exec.all_reduce(tp, dln, ReduceOp::Sum)?;
                }
                let dx = blk.backward_ln(
                    &mut self.exec,
                    self.compute,
                    *x_in,
                    a,
                    dy,
                    dln,
                    m,
                    ps,
                    &g,
                    &mut scratch,
                )?;
                self.poll_inject(Phase::AllReduce)?;
                if !fsdp_mode {
                    let elems = 2 * blk.d * blk.h_local + blk.h_local + 2 * blk.d;
                    self.bucket_grads(&mut bucket, &g.list(), elems)?;
                }
                grads_rev.push(g.list());
                dy = dx;
            }
            if !fsdp_mode {
                self.bucket_grads(&mut bucket, &[dw], head.d * head.classes)?;
            }
            if let Some(prev) = self.prev {
                self.exec
                    .send(prev, TAG_GRAD, it, dy, self.prev_same_node)?;
            }
            loss_val = Some(download(&mut self.exec, loss_buf)?[0]);
        } else {
            // Middle/first stage: ship activations forward, then wait for
            // the gradient from the next stage.
            let next = self.next.expect("non-last stage has next");
            self.exec
                .send(next, TAG_ACT, it, cur, self.next_same_node)?;
            self.poll_inject(Phase::Backward)?;
            let dy_in = alloc_buf(
                &mut self.exec,
                "grad.stage_in",
                m * d,
                1.0,
                BufferTag::Gradient,
            )?;
            scratch.push(dy_in);
            self.exec.recv_into(next, TAG_GRAD, it, dy_in)?;
            let mut dy = dy_in;
            for (blk, (x_in, a)) in blocks.iter().rev().zip(acts.iter().rev()) {
                let g = BlockGrads::alloc(&mut self.exec, blk, ps, &mut scratch)?;
                let dln =
                    blk.backward_mlp(&mut self.exec, self.compute, a, dy, m, ps, &g, &mut scratch)?;
                if let (false, Some(tp)) = (self.cfg.fsdp, self.tokens.tp) {
                    // Reduce the pre-LN gradient across the group; the
                    // LayerNorm backward then derives identical dγ/dβ on
                    // every part without extra synchronization.
                    self.exec.all_reduce(tp, dln, ReduceOp::Sum)?;
                }
                let dx = blk.backward_ln(
                    &mut self.exec,
                    self.compute,
                    *x_in,
                    a,
                    dy,
                    dln,
                    m,
                    ps,
                    &g,
                    &mut scratch,
                )?;
                self.poll_inject(Phase::AllReduce)?;
                if !fsdp_mode {
                    let elems = 2 * blk.d * blk.h_local + blk.h_local + 2 * blk.d;
                    self.bucket_grads(&mut bucket, &g.list(), elems)?;
                }
                grads_rev.push(g.list());
                dy = dx;
            }
            if let Some(prev) = self.prev {
                self.exec
                    .send(prev, TAG_GRAD, it, dy, self.prev_same_node)?;
            }
        }
        // Optimizer step: assemble gradients in parameter registration
        // order (forward block order, then head).
        let mut grad_list: Vec<BufferId> = Vec::new();
        for g in grads_rev.iter().rev() {
            grad_list.extend_from_slice(g);
        }
        if let Some(dw) = head_grad {
            grad_list.push(dw);
        }
        if fsdp_mode {
            // Hybrid sharding: reduce-scatter within the shard group,
            // then average shard gradients across the replica groups.
            let shard_grads = self.fsdp_shard_grads(&grad_list, &mut scratch)?;
            self.poll_inject(Phase::AllReduce)?;
            let g = self.cfg.layout.tp;
            let elems: usize = self.fsdp_params.iter().map(|p| p.full_elems / g).sum();
            self.bucket_grads(&mut bucket, &shard_grads, elems)?;
            grad_list = shard_grads;
        }
        // Drain any straggler gradients before the optimizer barrier.
        self.flush_bucket(&mut bucket)?;
        self.exec.pre_optimizer()?;
        self.poll_inject(Phase::OptimizerStep)?;
        self.opt.step(&mut self.exec, self.compute, &grad_list)?;
        self.exec.post_optimizer()?;
        // Release per-minibatch buffers (deferred until the next
        // minibatch commits, so resets can resurrect them).
        for b in scratch {
            self.exec.call(DeviceCall::Free { buf: b })?;
        }
        self.poll_inject(Phase::BetweenIterations)?;
        self.iteration += 1;
        self.losses.push(loss_val.unwrap_or(f32::NAN));
        Ok(loss_val)
    }

    /// Runs `n` iterations, returning the per-iteration losses seen by
    /// this rank.
    pub fn train(&mut self, n: u64) -> SimResult<Vec<f32>> {
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(self.train_step()?.unwrap_or(f32::NAN));
        }
        Ok(out)
    }

    /// Runs `f` over this rank's training state — iteration, optimizer
    /// timestep, and every persistent device buffer, borrowed straight
    /// from the device: what a (JIT or periodic) checkpoint encodes. A
    /// device whose memory cannot be read has no state to give.
    pub fn with_state<R>(&mut self, f: impl FnOnce(&StateView<'_>) -> R) -> SimResult<R> {
        let (iteration, opt_t) = (self.iteration, self.opt.t);
        self.exec
            .with_device(|g| g.state_view(iteration, opt_t).map(|view| f(&view)))?
    }

    /// A host copy of this rank's training state ([`Self::with_state`]).
    pub fn state_snapshot(&mut self) -> SimResult<TrainState> {
        self.with_state(|view| TrainState::from(view))
    }

    /// Restores this rank from a snapshot (resume-from-checkpoint path).
    /// The snapshot must cover every persistent buffer exactly
    /// ([`simgpu::Gpu::restore_persistent`]); one that does not is
    /// refused before any buffer is written.
    pub fn restore(&mut self, state: &TrainState) -> SimResult<()> {
        self.exec
            .with_device(|g| g.restore_persistent(&state.buffers))??;
        self.iteration = state.iteration;
        self.opt.t = state.opt_t;
        Ok(())
    }

    /// Restores this rank from an encoded state held in `chunks` — the
    /// verified shards of a checkpoint or the payloads of a recovery
    /// stream, in order — decoded straight into the device's buffers
    /// ([`simgpu::Gpu::load_state`]): no host copy of the state is made.
    pub fn restore_encoded(&mut self, chunks: &[Bytes]) -> SimResult<()> {
        let (iteration, opt_t) = self.exec.with_device(|g| g.load_state(chunks))??;
        self.iteration = iteration;
        self.opt.t = opt_t;
        Ok(())
    }
}

/// A rank's checkpointable training state, held on the host. Its codec is
/// the state codec ([`simgpu::state`]): it encodes through a
/// [`StateView`] of itself and decodes as a [`StateSink`], so a host copy
/// and the device it came from encode to the same bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainState {
    /// Next iteration to execute.
    pub iteration: u64,
    /// Optimizer timestep.
    pub opt_t: u32,
    /// Persistent buffers: (storage key, tag, payload).
    pub buffers: Vec<(String, BufferTag, Vec<f32>)>,
    /// Logical checkpoint size in bytes (cost accounting).
    pub logical_bytes: u64,
}

impl<'a> From<&'a TrainState> for StateView<'a> {
    fn from(state: &'a TrainState) -> StateView<'a> {
        StateView {
            iteration: state.iteration,
            opt_t: state.opt_t,
            logical_bytes: state.logical_bytes,
            buffers: state
                .buffers
                .iter()
                .map(|(key, tag, data)| (Cow::Borrowed(key.as_str()), *tag, &data[..]))
                .collect(),
        }
    }
}

impl From<&StateView<'_>> for TrainState {
    /// A host copy of the viewed state.
    fn from(view: &StateView<'_>) -> TrainState {
        TrainState {
            iteration: view.iteration,
            opt_t: view.opt_t,
            buffers: view.into(),
            logical_bytes: view.logical_bytes,
        }
    }
}

impl Encode for TrainState {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        StateView::from(self).encode(buf);
    }

    fn size_hint(&self) -> usize {
        self.encoded_len()
    }
}

/// Decoding into an empty `TrainState` fills it: the layout sizes each
/// buffer (a length the bytes present have already backed), and the
/// payload extends it.
impl StateSink for TrainState {
    type Out = TrainState;

    fn layout(
        &mut self,
        iteration: u64,
        opt_t: u32,
        logical_bytes: u64,
        buffers: &[(String, BufferTag, usize)],
    ) -> SimResult<()> {
        self.iteration = iteration;
        self.opt_t = opt_t;
        self.logical_bytes = logical_bytes;
        self.buffers = buffers
            .iter()
            .map(|(key, tag, len)| (key.clone(), *tag, Vec::with_capacity(*len)))
            .collect();
        Ok(())
    }

    fn data(&mut self, i: usize, _at: usize, le: &[u8]) {
        self.buffers[i].2.extend(
            le.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
    }

    fn finish(self) -> TrainState {
        self
    }
}

/// A state stream holds one state and nothing after it: `decode` takes
/// the whole of `buf`.
impl Decode for TrainState {
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        let (state, _) = simgpu::decode_state(std::slice::from_ref(buf), TrainState::default())?;
        buf.advance(buf.len());
        Ok(state)
    }
}

impl TrainState {
    /// CRC-64 of the state's encoding, for telling two states apart: the
    /// payload CRC [`encode_framed`](simcore::codec::encode_framed) writes
    /// as its frame's trailer, read back rather than computed twice.
    pub fn checksum(&self) -> u64 {
        let framed = simcore::codec::encode_framed(self);
        framed.slice(framed.len() - 8..).get_u64_le()
    }

    /// Exact number of bytes `encode` will produce, so writers can size
    /// the staging buffer once instead of growing it through a realloc
    /// chain while tens of MiB stream in.
    pub fn encoded_len(&self) -> usize {
        StateView::from(self).size_hint()
    }
}

/// Spawns one thread per rank, each building a trainer via `make` and
/// running `body`. Returns each rank's result in rank order. The harness
/// used by tests, examples, and benches.
pub fn run_ranks<T, F>(n: usize, f: F) -> Vec<SimResult<T>>
where
    T: Send + 'static,
    F: Fn(usize) -> SimResult<T> + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let f = f.clone();
            std::thread::Builder::new()
                .name(format!("rank{i}"))
                .spawn(move || f(i))
                .expect("spawn rank thread")
        })
        .collect();
    handles
        .into_iter()
        .map(|h| match h.join() {
            Ok(r) => r,
            Err(_) => Err(SimError::Protocol("rank thread panicked".into())),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::JobSetup;
    use proxy::DirectExecutor;
    use simcore::cost::CostModel;
    use simcore::GpuId;
    use simgpu::Gpu;

    /// Runs an n-rank job to completion and returns each rank's losses.
    fn run_job(cfg: TrainConfig, iters: u64) -> Vec<Vec<f32>> {
        let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
        let world = setup.world.clone();
        let per_rank = setup.per_rank.clone();
        let results = run_ranks(cfg.layout.world_size(), move |i| {
            let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
            let exec = DirectExecutor::new(RankId(i as u32), i, gpu, world.clone());
            let mut tr =
                RankTrainer::new(exec, cfg.clone(), &per_rank[i], FailureInjector::none())?;
            tr.train(iters)
        });
        results.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn single_rank_loss_decreases() {
        let mut cfg = TrainConfig::tiny_dp(1);
        cfg.optimizer = OptimizerKind::adam(0.01);
        let losses = run_job(cfg, 30).remove(0);
        let head: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = losses[25..].iter().sum::<f32>() / 5.0;
        assert!(
            tail < head,
            "loss should decrease: head {head}, tail {tail}"
        );
    }

    #[test]
    fn training_is_deterministic_across_runs() {
        let cfg = TrainConfig::tiny_dp(2);
        let a = run_job(cfg.clone(), 8);
        let b = run_job(cfg, 8);
        assert_eq!(a, b, "bit-identical reruns");
    }

    #[test]
    fn dp_replicas_share_parameters_after_steps() {
        // After averaging gradients, replicas must hold identical params.
        let cfg = TrainConfig::tiny_dp(2);
        let setup = JobSetup::build(cfg.layout, CostModel::v100(), 8);
        let world = setup.world.clone();
        let per_rank = setup.per_rank.clone();
        let results = run_ranks(2, move |i| {
            let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
            let exec = DirectExecutor::new(RankId(i as u32), i, gpu, world.clone());
            let mut tr =
                RankTrainer::new(exec, cfg.clone(), &per_rank[i], FailureInjector::none())?;
            tr.train(5)?;
            tr.state_snapshot()
        });
        let snaps: Vec<TrainState> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(snaps[0].iteration, snaps[1].iteration);
        assert_eq!(snaps[0].buffers.len(), snaps[1].buffers.len());
        for (a, b) in snaps[0].buffers.iter().zip(&snaps[1].buffers) {
            assert_eq!(a.0, b.0, "storage keys match across replicas");
            assert_eq!(a.2, b.2, "replica state bit-identical for {}", a.0);
        }
    }

    #[test]
    fn tp_matches_single_rank_numerics() {
        // A 2-way tensor-parallel run computes the same math as the
        // single-rank run; partial sums associate differently, so the
        // comparison is up-to-f32-rounding across layouts, and bit-exact
        // between the two parts (identical reductions).
        let mut single = TrainConfig::tiny_dp(1);
        single.optimizer = OptimizerKind::sgd(0.05);
        let base = run_job(single, 6).remove(0);
        let mut tp = TrainConfig::tiny_dp(1);
        tp.layout = ParallelLayout::three_d(1, 1, 2);
        tp.optimizer = OptimizerKind::sgd(0.05);
        let tp_losses = run_job(tp, 6);
        assert_eq!(tp_losses[0], tp_losses[1], "parts must agree bit-for-bit");
        for (a, b) in base.iter().zip(&tp_losses[0]) {
            assert!((a - b).abs() <= a.abs().max(1.0) * 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn pp_matches_single_rank_numerics() {
        let mut single = TrainConfig::tiny_dp(1);
        single.optimizer = OptimizerKind::sgd(0.05);
        let base = run_job(single, 6).remove(0);
        let mut pp = TrainConfig::tiny_dp(1);
        pp.layout = ParallelLayout::three_d(1, 2, 1);
        pp.optimizer = OptimizerKind::sgd(0.05);
        let pp_losses = run_job(pp, 6);
        // Last stage (rank 1) sees the loss; first stage sees NaN.
        assert!(pp_losses[0].iter().all(|l| l.is_nan()));
        assert_eq!(base, pp_losses[1]);
    }

    #[test]
    fn full_3d_job_runs_and_replicas_agree() {
        let mut cfg = TrainConfig::tiny_dp(1);
        cfg.layout = ParallelLayout::three_d(2, 2, 2);
        let losses = run_job(cfg, 4);
        assert_eq!(losses.len(), 8);
        // Loss-bearing ranks: stage 1 cells → ranks with coord.stage==1.
        let layout = ParallelLayout::three_d(2, 2, 2);
        for (r, rank_losses) in losses.iter().enumerate() {
            let c = layout.coord(RankId(r as u32));
            if c.stage == 1 {
                assert!(rank_losses.iter().all(|l| l.is_finite()), "rank {r}");
            } else {
                assert!(rank_losses.iter().all(|l| l.is_nan()), "rank {r}");
            }
        }
        // TP parts of the same replica see identical losses.
        let a = layout.rank_at(GridCoord {
            dp: 0,
            stage: 1,
            part: 0,
        });
        let b = layout.rank_at(GridCoord {
            dp: 0,
            stage: 1,
            part: 1,
        });
        assert_eq!(losses[a.index()], losses[b.index()]);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // Train 3, snapshot, train 3 more; vs restore into a fresh job and
        // train the same 3 — trajectories must match bit-for-bit.
        let cfg = TrainConfig::tiny_dp(1);
        let setup = JobSetup::build(cfg.layout, CostModel::v100(), 8);
        let gpu = Gpu::new(GpuId(0), CostModel::v100());
        let exec = DirectExecutor::new(RankId(0), 0, gpu, setup.world.clone());
        let mut tr = RankTrainer::new(
            exec,
            cfg.clone(),
            &setup.per_rank[0],
            FailureInjector::none(),
        )
        .unwrap();
        tr.train(3).unwrap();
        let snap = tr.state_snapshot().unwrap();
        let ahead = tr.train(3).unwrap();

        let setup2 = JobSetup::build(cfg.layout, CostModel::v100(), 8);
        let gpu2 = Gpu::new(GpuId(0), CostModel::v100());
        let exec2 = DirectExecutor::new(RankId(0), 0, gpu2, setup2.world.clone());
        let mut tr2 = RankTrainer::new(
            exec2,
            cfg.clone(),
            &setup2.per_rank[0],
            FailureInjector::none(),
        )
        .unwrap();
        tr2.restore(&snap).unwrap();
        let resumed = tr2.train(3).unwrap();
        assert_eq!(ahead, resumed);
    }

    #[test]
    fn train_state_codec_round_trip() {
        let state = TrainState {
            iteration: 42,
            opt_t: 42,
            buffers: vec![
                ("w".into(), BufferTag::Param, vec![1.0, -2.0]),
                ("m".into(), BufferTag::OptimState, vec![0.5]),
            ],
            logical_bytes: 12,
        };
        let framed = simcore::codec::encode_framed(&state);
        let back: TrainState = simcore::codec::decode_framed(&framed).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.checksum(), state.checksum());
    }

    #[test]
    fn injected_hardware_fault_surfaces_on_direct_executor() {
        let cfg = TrainConfig::tiny_dp(1);
        let inj = FailureInjector::with_specs(vec![simcore::failure::FailureSpec::new(
            2,
            Phase::Forward,
            RankId(0),
            FailureKind::GpuHardware,
        )]);
        let setup = JobSetup::build(cfg.layout, CostModel::v100(), 8);
        let gpu = Gpu::new(GpuId(0), CostModel::v100());
        let exec = DirectExecutor::new(RankId(0), 0, gpu, setup.world.clone());
        let mut tr = RankTrainer::new(exec, cfg, &setup.per_rank[0], inj).unwrap();
        assert!(tr.train_step().is_ok());
        assert!(tr.train_step().is_ok());
        let err = tr.train_step().unwrap_err();
        assert!(matches!(err, SimError::GpuHardware(_)), "{err}");
    }

    /// Completed collective results cached across the job's
    /// communicators after `iters` iterations of `tiny_dp(2)`, through
    /// the proxy client or the direct executor.
    fn cached_results_after(proxied: bool, iters: u64) -> usize {
        let cfg = TrainConfig::tiny_dp(2);
        let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
        let world = setup.world.clone();
        let per_rank = setup.per_rank.clone();
        let results = run_ranks(2, move |i| {
            let (rank, world) = (RankId(i as u32), world.clone());
            let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
            let (cfg, comms, none) = (cfg.clone(), &per_rank[i], FailureInjector::none());
            if proxied {
                let exec = proxy::ProxyClient::new(rank, i, gpu, world);
                RankTrainer::new(exec, cfg, comms, none)?.train(iters)
            } else {
                let exec = DirectExecutor::new(rank, i, gpu, world);
                RankTrainer::new(exec, cfg, comms, none)?.train(iters)
            }
        });
        for r in results {
            r.unwrap();
        }
        let comms = &setup.per_rank[0];
        let dp = comms.dp.as_ref().expect("dp group");
        comms.global.completed_slots() + dp.completed_slots()
    }

    #[test]
    fn cached_collective_results_do_not_grow_with_the_step_count() {
        // Each minibatch commit drops the results no replay can read
        // again, so the proxied cache holds the live minibatch whatever
        // the step.
        let early = cached_results_after(true, 3);
        assert!(early > 0, "the live minibatch stays cached");
        assert_eq!(cached_results_after(true, 12), early);
        // A direct job never replays: each result is freed by the last
        // member to leave its collective.
        assert_eq!(cached_results_after(false, 3), 0);
        assert_eq!(cached_results_after(false, 12), 0);
    }

    /// `(bound virtual handles, live device buffers)` of each rank's
    /// proxy client once `iters` minibatches of `tiny_dp(2)` are done and
    /// the next one has begun.
    fn handles_after(iters: u64) -> Vec<(usize, usize)> {
        let cfg = TrainConfig::tiny_dp(2);
        let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
        let world = setup.world.clone();
        let per_rank = setup.per_rank.clone();
        let results = run_ranks(2, move |i| {
            let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
            let exec = proxy::ProxyClient::new(RankId(i as u32), i, gpu, world.clone());
            let none = FailureInjector::none();
            let mut tr = RankTrainer::new(exec, cfg.clone(), &per_rank[i], none)?;
            tr.train(iters)?;
            tr.exec.begin_minibatch(iters)?;
            let buffers = tr.exec.gpu().buffer_count();
            Ok((tr.exec.live_handles(), buffers))
        });
        results.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn the_proxy_handle_table_holds_only_live_handles() {
        // Every step creates and destroys scratch buffers and a bucket
        // event; the boundary after it forgets their handles, so the
        // table holds each live buffer and the two streams, whatever the
        // step.
        let early = handles_after(3);
        for &(handles, buffers) in &early {
            assert_eq!(handles, buffers + 2);
        }
        assert_eq!(handles_after(12), early);
    }

    #[test]
    fn minibatch_time_accumulates_on_virtual_clock() {
        let cfg = TrainConfig::tiny_dp(1);
        let setup = JobSetup::build(cfg.layout, CostModel::v100(), 8);
        let gpu = Gpu::new(GpuId(0), CostModel::v100());
        let exec = DirectExecutor::new(RankId(0), 0, gpu, setup.world.clone());
        let clock = setup.clock.clone();
        let mut tr =
            RankTrainer::new(exec, cfg, &setup.per_rank[0], FailureInjector::none()).unwrap();
        let t0 = clock.now(0);
        tr.train_step().unwrap();
        let t1 = clock.now(0);
        assert!(t1 > t0, "a minibatch must take virtual time");
    }
}

#[cfg(test)]
mod fsdp_tests {
    use super::*;
    use crate::setup::JobSetup;
    use proxy::DirectExecutor;
    use simcore::cost::CostModel;
    use simcore::GpuId;
    use simgpu::Gpu;

    fn run_job(cfg: TrainConfig, iters: u64) -> Vec<Vec<f32>> {
        let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
        let world = setup.world.clone();
        let per_rank = setup.per_rank.clone();
        let results = run_ranks(cfg.layout.world_size(), move |i| {
            let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
            let exec = DirectExecutor::new(RankId(i as u32), i, gpu, world.clone());
            let mut tr =
                RankTrainer::new(exec, cfg.clone(), &per_rank[i], FailureInjector::none())?;
            tr.train(iters)
        });
        results.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn fsdp_matches_plain_data_parallel_numerics() {
        // Hybrid sharding over a 2-rank shard group must produce exactly
        // the losses of plain 2-way data parallelism: same data shards,
        // same averaged gradients, same updates.
        let dp = TrainConfig::tiny_dp(2);
        let dp_losses = run_job(dp, 6);
        let mut fsdp = TrainConfig::tiny_dp(1);
        fsdp.layout = ParallelLayout::three_d(1, 1, 2);
        fsdp.fsdp = true;
        let fsdp_losses = run_job(fsdp, 6);
        assert_eq!(dp_losses[0], fsdp_losses[0]);
        assert_eq!(dp_losses[1], fsdp_losses[1]);
    }

    #[test]
    fn hybrid_shard_replicas_hold_identical_shards() {
        // dp=2 replica groups × shard group of 2: replicas of the same
        // partition must hold bit-identical shard state (the redundancy
        // JIT recovery uses), and different partitions distinct state.
        let mut cfg = TrainConfig::tiny_dp(1);
        cfg.layout = ParallelLayout::three_d(2, 1, 2);
        cfg.fsdp = true;
        let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
        let world = setup.world.clone();
        let per_rank = setup.per_rank.clone();
        let results = run_ranks(4, move |i| {
            let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
            let exec = DirectExecutor::new(RankId(i as u32), i, gpu, world.clone());
            let mut tr =
                RankTrainer::new(exec, cfg.clone(), &per_rank[i], FailureInjector::none())?;
            tr.train(4)?;
            tr.state_snapshot()
        });
        let snaps: Vec<TrainState> = results.into_iter().map(|r| r.unwrap()).collect();
        // Layout 2D-1P-2T: rank = dp*2 + part. Replicas of part 0: ranks
        // 0 and 2; of part 1: ranks 1 and 3.
        assert_eq!(snaps[0].buffers, snaps[2].buffers, "part-0 replicas match");
        assert_eq!(snaps[1].buffers, snaps[3].buffers, "part-1 replicas match");
        assert_ne!(snaps[0].buffers, snaps[1].buffers, "partitions differ");
    }

    #[test]
    fn fsdp_training_reduces_loss() {
        let mut cfg = TrainConfig::tiny_dp(1);
        cfg.layout = ParallelLayout::three_d(2, 1, 2);
        cfg.fsdp = true;
        cfg.optimizer = OptimizerKind::adam(0.01);
        let losses = run_job(cfg, 25);
        let head: f32 = losses[0][..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = losses[0][20..].iter().sum::<f32>() / 5.0;
        assert!(tail < head, "head {head} tail {tail}");
    }
}
