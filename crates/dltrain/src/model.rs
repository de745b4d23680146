//! Model definition: Megatron-style tensor-parallel pre-LN MLP blocks
//! plus a classifier head.
//!
//! Each block computes the transformer MLP sublayer
//! `y = x + relu(LN_γβ(x)·A + b_A)·B`, with `A` column-sharded and `B`
//! row-sharded across the tensor-parallel group — exactly the Megatron
//! MLP partitioning, which needs only all-reduce sync points: one on the
//! sublayer output in the forward pass, one on the pre-LN input gradient
//! in the backward pass. Those sync points are the hang-detection targets
//! that make JIT checkpointing "compatible with large-scale training
//! techniques such as 3D parallelism" (§3.1). LayerNorm parameters and
//! the residual are replicated across the group (their gradients are
//! computed from already-reduced quantities, so every part derives
//! identical values without extra synchronization).
//!
//! Parameters are initialized from per-(block, parameter) derived RNG
//! streams, so data-parallel replicas are bit-identical and tensor
//! shards are distinct — the state-redundancy structure recovery relies
//! on.

use proxy::Executor;
use simcore::rng::DetRng;
use simcore::SimResult;
use simgpu::{AllocSite, BufferId, BufferTag, DeviceCall, KernelKind, StreamId};

/// Model hyperparameters (pre-sharding, whole-model sizes).
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Input/embedding width `d` (also every block's in/out width).
    pub input_dim: usize,
    /// Block hidden width (split across tensor-parallel ranks).
    pub hidden: usize,
    /// Number of MLP blocks (split across pipeline stages).
    pub blocks: usize,
    /// Output classes.
    pub classes: usize,
    /// Phantom scaling: logical bytes per actual parameter byte (1.0 =
    /// unscaled). Lets a laptop-sized payload carry paper-scale state
    /// sizes for the cost model (see DESIGN.md).
    pub phantom_scale: f64,
}

impl ModelConfig {
    /// A small config for tests.
    pub fn tiny() -> Self {
        ModelConfig {
            input_dim: 8,
            hidden: 16,
            blocks: 2,
            classes: 4,
            phantom_scale: 1.0,
        }
    }

    /// Actual parameter count of the whole (unsharded) model. Named only
    /// by the benchmark; it goes at ROADMAP item 3 step 1.
    pub fn param_count(&self) -> usize {
        self.blocks * (self.input_dim * self.hidden + self.hidden + self.hidden * self.input_dim)
            + self.input_dim * self.classes
    }
}

/// Allocates a device buffer through the executor.
///
/// Phantom-scaling policy: persistent state (params, optimizer moments)
/// and parameter-shaped gradients carry the workload's phantom factor so
/// checkpoint sizes and gradient all-reduce volumes match paper scale;
/// activation-shaped buffers (and their gradients) scale with the batch,
/// not the parameter count, and are allocated at their actual size.
pub fn alloc_buf<E: Executor>(
    exec: &mut E,
    path: &str,
    elems: usize,
    phantom_scale: f64,
    tag: BufferTag,
) -> SimResult<BufferId> {
    let logical = ((elems * 4) as f64 * phantom_scale).ceil() as u64;
    exec.call(DeviceCall::Malloc {
        site: AllocSite::new(path, elems as u64),
        elems: elems as u64,
        logical_bytes: logical,
        tag,
    })?
    .buffer()
}

/// Uploads data into a buffer.
pub fn upload<E: Executor>(exec: &mut E, buf: BufferId, data: Vec<f32>) -> SimResult<()> {
    exec.call(DeviceCall::Upload { buf, data })?;
    Ok(())
}

/// Downloads a buffer's contents.
pub fn download<E: Executor>(exec: &mut E, buf: BufferId) -> SimResult<Vec<f32>> {
    exec.call(DeviceCall::Download { buf })?.data()
}

/// Launches a kernel on a stream.
pub fn launch<E: Executor>(exec: &mut E, stream: StreamId, kernel: KernelKind) -> SimResult<()> {
    exec.call(DeviceCall::Launch { stream, kernel })?;
    Ok(())
}

/// One tensor-parallel pre-LN MLP block's parameters on one rank.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Column shard of `A`: `[d × h_local]`.
    pub a: BufferId,
    /// Shard of `A`'s bias: `[h_local]`.
    pub bias_a: BufferId,
    /// Row shard of `B`: `[h_local × d]`.
    pub b: BufferId,
    /// LayerNorm scale `γ` `[d]` (replicated across the group).
    pub gamma: BufferId,
    /// LayerNorm shift `β` `[d]` (replicated).
    pub beta: BufferId,
    /// Width `d`.
    pub d: usize,
    /// Local hidden width `hidden / tp`.
    pub h_local: usize,
    /// Global block index (naming / init streams).
    pub index: usize,
}

/// Activations a block's forward pass produces (needed by backward).
#[derive(Debug, Clone)]
pub(crate) struct BlockActs {
    /// LayerNorm output.
    pub ln: BufferId,
    /// Saved LayerNorm row means.
    pub mean: BufferId,
    /// Saved LayerNorm row reciprocal standard deviations.
    pub rstd: BufferId,
    /// Pre-activation `LN(x)·A + b_A`.
    pub h_pre: BufferId,
    /// Post-relu hidden.
    pub h: BufferId,
    /// Sublayer output (partial until all-reduced; the residual is added
    /// by the trainer after the reduction).
    pub y: BufferId,
}

impl Block {
    /// Allocates and initializes one block's shard for tensor-parallel
    /// partition `part` of `tp`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn init<E: Executor>(
        exec: &mut E,
        cfg: &ModelConfig,
        index: usize,
        part: usize,
        tp: usize,
        seed: u64,
    ) -> SimResult<Block> {
        let d = cfg.input_dim;
        let h_local = cfg.hidden / tp;
        assert!(cfg.hidden.is_multiple_of(tp), "hidden must divide by tp");
        let a = alloc_buf(
            exec,
            &format!("model.block{index}.a"),
            d * h_local,
            cfg.phantom_scale,
            BufferTag::Param,
        )?;
        let bias_a = alloc_buf(
            exec,
            &format!("model.block{index}.bias_a"),
            h_local,
            cfg.phantom_scale,
            BufferTag::Param,
        )?;
        let b = alloc_buf(
            exec,
            &format!("model.block{index}.b"),
            h_local * d,
            cfg.phantom_scale,
            BufferTag::Param,
        )?;
        let gamma = alloc_buf(
            exec,
            &format!("model.block{index}.gamma"),
            d,
            cfg.phantom_scale,
            BufferTag::Param,
        )?;
        let beta = alloc_buf(
            exec,
            &format!("model.block{index}.beta"),
            d,
            cfg.phantom_scale,
            BufferTag::Param,
        )?;
        upload(exec, gamma, vec![1.0; d])?;
        upload(exec, beta, vec![0.0; d])?;
        // Init streams keyed by (block, param, shard): identical across
        // data-parallel replicas, distinct per shard.
        let root = DetRng::new(seed);
        let scale_a = 1.0 / (d as f32).sqrt();
        let scale_b = 1.0 / (cfg.hidden as f32).sqrt();
        // The full A is [d × hidden]; this rank holds columns
        // [part·h_local, (part+1)·h_local). Generate the full column set
        // deterministically and slice, so shards compose to the same full
        // matrix regardless of tp degree.
        let mut rng_a = root.derive((index as u64) << 8 | 1);
        let mut full_a = vec![0f32; d * cfg.hidden];
        for v in &mut full_a {
            *v = rng_a.uniform_symmetric(scale_a);
        }
        let mut shard_a = vec![0f32; d * h_local];
        for r in 0..d {
            for c in 0..h_local {
                shard_a[r * h_local + c] = full_a[r * cfg.hidden + part * h_local + c];
            }
        }
        upload(exec, a, shard_a)?;
        let mut rng_bias = root.derive((index as u64) << 8 | 2);
        let full_bias: Vec<f32> = (0..cfg.hidden)
            .map(|_| rng_bias.uniform_symmetric(0.01))
            .collect();
        upload(
            exec,
            bias_a,
            full_bias[part * h_local..(part + 1) * h_local].to_vec(),
        )?;
        let mut rng_b = root.derive((index as u64) << 8 | 3);
        let full_b: Vec<f32> = (0..cfg.hidden * d)
            .map(|_| rng_b.uniform_symmetric(scale_b))
            .collect();
        // Full B is [hidden × d]; this rank holds rows
        // [part·h_local, (part+1)·h_local) — contiguous in row-major.
        upload(
            exec,
            b,
            full_b[part * h_local * d..(part + 1) * h_local * d].to_vec(),
        )?;
        Ok(Block {
            a,
            bias_a,
            b,
            gamma,
            beta,
            d,
            h_local,
            index,
        })
    }

    /// Forward pass of the pre-LN MLP sublayer: computes the *partial*
    /// output (pre all-reduce). The caller all-reduces `y` across the
    /// tensor-parallel group and then adds the residual `x`.
    pub(crate) fn forward<E: Executor>(
        &self,
        exec: &mut E,
        stream: StreamId,
        x: BufferId,
        batch: usize,
        phantom_scale: f64,
        scratch: &mut Vec<BufferId>,
    ) -> SimResult<BlockActs> {
        let _ = phantom_scale; // activations are batch-sized, not param-sized
        let (m, d, h) = (batch, self.d, self.h_local);
        let ln = alloc_buf(
            exec,
            &format!("act.block{}.ln", self.index),
            m * d,
            1.0,
            BufferTag::Activation,
        )?;
        let mean = alloc_buf(
            exec,
            &format!("act.block{}.ln_mean", self.index),
            m,
            1.0,
            BufferTag::Activation,
        )?;
        let rstd = alloc_buf(
            exec,
            &format!("act.block{}.ln_rstd", self.index),
            m,
            1.0,
            BufferTag::Activation,
        )?;
        let h_pre = alloc_buf(
            exec,
            &format!("act.block{}.h_pre", self.index),
            m * h,
            1.0,
            BufferTag::Activation,
        )?;
        let hbuf = alloc_buf(
            exec,
            &format!("act.block{}.h", self.index),
            m * h,
            1.0,
            BufferTag::Activation,
        )?;
        let y = alloc_buf(
            exec,
            &format!("act.block{}.y", self.index),
            m * d,
            1.0,
            BufferTag::Activation,
        )?;
        scratch.extend([ln, mean, rstd, h_pre, hbuf, y]);
        launch(
            exec,
            stream,
            KernelKind::LayerNormFwd {
                x,
                gamma: self.gamma,
                beta: self.beta,
                out: ln,
                mean,
                rstd,
                rows: m as u32,
                cols: d as u32,
            },
        )?;
        launch(
            exec,
            stream,
            KernelKind::MatMul {
                a: ln,
                b: self.a,
                out: h_pre,
                m: m as u32,
                k: d as u32,
                n: h as u32,
                trans_a: false,
                trans_b: false,
            },
        )?;
        launch(
            exec,
            stream,
            KernelKind::BiasAdd {
                x: h_pre,
                bias: self.bias_a,
                rows: m as u32,
                cols: h as u32,
            },
        )?;
        launch(
            exec,
            stream,
            KernelKind::Relu {
                x: h_pre,
                out: hbuf,
            },
        )?;
        launch(
            exec,
            stream,
            KernelKind::MatMul {
                a: hbuf,
                b: self.b,
                out: y,
                m: m as u32,
                k: h as u32,
                n: d as u32,
                trans_a: false,
                trans_b: false,
            },
        )?;
        Ok(BlockActs {
            ln,
            mean,
            rstd,
            h_pre,
            h: hbuf,
            y,
        })
    }

    /// First half of the backward pass: from the sublayer-output gradient
    /// `dy` `[m × d]` through the MLP, writing the shard gradients
    /// (`dA`, `dbias_A`, `dB`) and returning the *partial* gradient at
    /// the LayerNorm output. The caller all-reduces it across the
    /// tensor-parallel group, then calls [`Block::backward_ln`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward_mlp<E: Executor>(
        &self,
        exec: &mut E,
        stream: StreamId,
        acts: &BlockActs,
        dy: BufferId,
        batch: usize,
        phantom_scale: f64,
        grads: &BlockGrads,
        scratch: &mut Vec<BufferId>,
    ) -> SimResult<BufferId> {
        let (m, d, h) = (batch, self.d, self.h_local);
        // dB = h^T · dy.
        launch(
            exec,
            stream,
            KernelKind::MatMul {
                a: acts.h,
                b: dy,
                out: grads.db,
                m: h as u32,
                k: m as u32,
                n: d as u32,
                trans_a: true,
                trans_b: false,
            },
        )?;
        // dh = dy · B^T.
        let _ = phantom_scale; // activation gradients are batch-sized
        let dh = alloc_buf(
            exec,
            &format!("grad.block{}.dh", self.index),
            m * h,
            1.0,
            BufferTag::Gradient,
        )?;
        scratch.push(dh);
        launch(
            exec,
            stream,
            KernelKind::MatMul {
                a: dy,
                b: self.b,
                out: dh,
                m: m as u32,
                k: d as u32,
                n: h as u32,
                trans_a: false,
                trans_b: true,
            },
        )?;
        // Through the relu.
        let dh_pre = alloc_buf(
            exec,
            &format!("grad.block{}.dh_pre", self.index),
            m * h,
            1.0,
            BufferTag::Gradient,
        )?;
        scratch.push(dh_pre);
        launch(
            exec,
            stream,
            KernelKind::ReluBwd {
                x: acts.h_pre,
                dy: dh,
                dx: dh_pre,
            },
        )?;
        // dbias_A = colsum(dh_pre).
        launch(
            exec,
            stream,
            KernelKind::BiasGrad {
                dy: dh_pre,
                dbias: grads.dbias_a,
                rows: m as u32,
                cols: h as u32,
            },
        )?;
        // dA = LN(x)^T · dh_pre.
        launch(
            exec,
            stream,
            KernelKind::MatMul {
                a: acts.ln,
                b: dh_pre,
                out: grads.da,
                m: d as u32,
                k: m as u32,
                n: h as u32,
                trans_a: true,
                trans_b: false,
            },
        )?;
        // dln_partial = dh_pre · A^T.
        let dln = alloc_buf(
            exec,
            &format!("grad.block{}.dln", self.index),
            m * d,
            1.0,
            BufferTag::Gradient,
        )?;
        scratch.push(dln);
        launch(
            exec,
            stream,
            KernelKind::MatMul {
                a: dh_pre,
                b: self.a,
                out: dln,
                m: m as u32,
                k: h as u32,
                n: d as u32,
                trans_a: false,
                trans_b: true,
            },
        )?;
        Ok(dln)
    }

    /// Second half of the backward pass: through the LayerNorm (using the
    /// group-reduced `dln`), writing `dγ`/`dβ` into `grads`, then adding
    /// the residual branch's gradient `dy` — returns the full input
    /// gradient `dx = dy + LN'(dln)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward_ln<E: Executor>(
        &self,
        exec: &mut E,
        stream: StreamId,
        x: BufferId,
        acts: &BlockActs,
        dy: BufferId,
        dln: BufferId,
        batch: usize,
        phantom_scale: f64,
        grads: &BlockGrads,
        scratch: &mut Vec<BufferId>,
    ) -> SimResult<BufferId> {
        let _ = phantom_scale;
        let (m, d) = (batch, self.d);
        let dx = alloc_buf(
            exec,
            &format!("grad.block{}.dx", self.index),
            m * d,
            1.0,
            BufferTag::Gradient,
        )?;
        scratch.push(dx);
        launch(
            exec,
            stream,
            KernelKind::LayerNormBwd {
                x,
                gamma: self.gamma,
                dy: dln,
                mean: acts.mean,
                rstd: acts.rstd,
                dx,
                dgamma: grads.dgamma,
                dbeta: grads.dbeta,
                rows: m as u32,
                cols: d as u32,
            },
        )?;
        // Residual branch: dx += dy.
        launch(
            exec,
            stream,
            KernelKind::Axpy {
                alpha: 1.0,
                x: dy,
                y: dx,
            },
        )?;
        Ok(dx)
    }
}

/// Gradient buffers for one block (allocated fresh each minibatch so
/// replay regenerates them).
#[derive(Debug, Clone)]
pub(crate) struct BlockGrads {
    /// Gradient of `A` shard.
    pub da: BufferId,
    /// Gradient of `A`'s bias shard.
    pub dbias_a: BufferId,
    /// Gradient of `B` shard.
    pub db: BufferId,
    /// Gradient of the LayerNorm scale `γ`.
    pub dgamma: BufferId,
    /// Gradient of the LayerNorm shift `β`.
    pub dbeta: BufferId,
}

impl BlockGrads {
    /// Allocates gradient buffers for `block`.
    pub(crate) fn alloc<E: Executor>(
        exec: &mut E,
        block: &Block,
        phantom_scale: f64,
        scratch: &mut Vec<BufferId>,
    ) -> SimResult<BlockGrads> {
        let da = alloc_buf(
            exec,
            &format!("grad.block{}.da", block.index),
            block.d * block.h_local,
            phantom_scale,
            BufferTag::Gradient,
        )?;
        let dbias_a = alloc_buf(
            exec,
            &format!("grad.block{}.dbias_a", block.index),
            block.h_local,
            phantom_scale,
            BufferTag::Gradient,
        )?;
        let db = alloc_buf(
            exec,
            &format!("grad.block{}.db", block.index),
            block.h_local * block.d,
            phantom_scale,
            BufferTag::Gradient,
        )?;
        let dgamma = alloc_buf(
            exec,
            &format!("grad.block{}.dgamma", block.index),
            block.d,
            phantom_scale,
            BufferTag::Gradient,
        )?;
        let dbeta = alloc_buf(
            exec,
            &format!("grad.block{}.dbeta", block.index),
            block.d,
            phantom_scale,
            BufferTag::Gradient,
        )?;
        scratch.extend([da, dbias_a, db, dgamma, dbeta]);
        Ok(BlockGrads {
            da,
            dbias_a,
            db,
            dgamma,
            dbeta,
        })
    }

    /// The gradient buffers in parameter order.
    pub(crate) fn list(&self) -> [BufferId; 5] {
        [self.da, self.dbias_a, self.db, self.dgamma, self.dbeta]
    }
}

/// Classifier head (replicated across the tensor-parallel group; its
/// gradients are identical on every part, so no sync is needed).
#[derive(Debug, Clone)]
pub(crate) struct Head {
    /// Weights `[d × classes]`.
    pub w: BufferId,
    /// Width `d`.
    pub d: usize,
    /// Classes.
    pub classes: usize,
}

impl Head {
    /// Allocates and initializes the head.
    pub(crate) fn init<E: Executor>(exec: &mut E, cfg: &ModelConfig, seed: u64) -> SimResult<Head> {
        let w = alloc_buf(
            exec,
            "model.head.w",
            cfg.input_dim * cfg.classes,
            cfg.phantom_scale,
            BufferTag::Param,
        )?;
        let mut rng = DetRng::new(seed).derive(0x4845_4144); // "HEAD"
        let scale = 1.0 / (cfg.input_dim as f32).sqrt();
        let data: Vec<f32> = (0..cfg.input_dim * cfg.classes)
            .map(|_| rng.uniform_symmetric(scale))
            .collect();
        upload(exec, w, data)?;
        Ok(Head {
            w,
            d: cfg.input_dim,
            classes: cfg.classes,
        })
    }

    /// Forward + loss. Returns `(loss_buf, probs, logits)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_loss<E: Executor>(
        &self,
        exec: &mut E,
        stream: StreamId,
        x: BufferId,
        labels: BufferId,
        batch: usize,
        phantom_scale: f64,
        scratch: &mut Vec<BufferId>,
    ) -> SimResult<(BufferId, BufferId, BufferId)> {
        let _ = phantom_scale;
        let m = batch;
        let logits = alloc_buf(
            exec,
            "act.head.logits",
            m * self.classes,
            1.0,
            BufferTag::Activation,
        )?;
        let probs = alloc_buf(
            exec,
            "act.head.probs",
            m * self.classes,
            1.0,
            BufferTag::Activation,
        )?;
        let loss = alloc_buf(exec, "act.head.loss", 1, 1.0, BufferTag::Activation)?;
        scratch.extend([logits, probs, loss]);
        launch(
            exec,
            stream,
            KernelKind::MatMul {
                a: x,
                b: self.w,
                out: logits,
                m: m as u32,
                k: self.d as u32,
                n: self.classes as u32,
                trans_a: false,
                trans_b: false,
            },
        )?;
        launch(
            exec,
            stream,
            KernelKind::SoftmaxXentFwd {
                logits,
                labels,
                probs,
                loss,
                rows: m as u32,
                cols: self.classes as u32,
            },
        )?;
        Ok((loss, probs, logits))
    }

    /// Backward: returns `(dw, dx)` where `dx` is the gradient flowing
    /// into the last block.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward<E: Executor>(
        &self,
        exec: &mut E,
        stream: StreamId,
        x: BufferId,
        labels: BufferId,
        probs: BufferId,
        batch: usize,
        phantom_scale: f64,
        scratch: &mut Vec<BufferId>,
    ) -> SimResult<(BufferId, BufferId)> {
        let m = batch;
        let dlogits = alloc_buf(
            exec,
            "grad.head.dlogits",
            m * self.classes,
            1.0,
            BufferTag::Gradient,
        )?;
        // The head weight gradient is parameter-shaped: phantom-scaled.
        let dw = alloc_buf(
            exec,
            "grad.head.dw",
            self.d * self.classes,
            phantom_scale,
            BufferTag::Gradient,
        )?;
        let dx = alloc_buf(exec, "grad.head.dx", m * self.d, 1.0, BufferTag::Gradient)?;
        scratch.extend([dlogits, dw, dx]);
        launch(
            exec,
            stream,
            KernelKind::SoftmaxXentBwd {
                probs,
                labels,
                dlogits,
                rows: m as u32,
                cols: self.classes as u32,
            },
        )?;
        launch(
            exec,
            stream,
            KernelKind::MatMul {
                a: x,
                b: dlogits,
                out: dw,
                m: self.d as u32,
                k: m as u32,
                n: self.classes as u32,
                trans_a: true,
                trans_b: false,
            },
        )?;
        launch(
            exec,
            stream,
            KernelKind::MatMul {
                a: dlogits,
                b: self.w,
                out: dx,
                m: m as u32,
                k: self.classes as u32,
                n: self.d as u32,
                trans_a: false,
                trans_b: true,
            },
        )?;
        Ok((dw, dx))
    }
}
