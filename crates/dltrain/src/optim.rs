//! Optimizers: SGD with momentum, and Adam.
//!
//! Optimizer state (momentum / first and second moments) lives in
//! [`BufferTag::OptimState`] device buffers, making it part of the
//! persistent set that JIT checkpointing captures and replicas can
//! supply. The step launches one fused kernel per parameter — the short
//! mutation window at the end of the minibatch that the whole recovery
//! design is built around.

use crate::model::{alloc_buf, launch};
use proxy::Executor;
use simcore::SimResult;
use simgpu::{BufferId, BufferTag, KernelKind, StreamId};

/// Optimizer hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// SGD with momentum.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        momentum: f32,
        /// Weight decay.
        weight_decay: f32,
    },
    /// Adam (decoupled weight decay).
    Adam {
        /// Learning rate.
        lr: f32,
        /// β₁.
        beta1: f32,
        /// β₂.
        beta2: f32,
        /// ε.
        eps: f32,
        /// Weight decay.
        weight_decay: f32,
    },
}

impl OptimizerKind {
    /// Default SGD settings used in tests.
    pub fn sgd(lr: f32) -> Self {
        OptimizerKind::Sgd {
            lr,
            momentum: 0.9,
            weight_decay: 0.0,
        }
    }

    /// Default Adam settings used in tests.
    pub fn adam(lr: f32) -> Self {
        OptimizerKind::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }

    /// Bytes of optimizer state per parameter byte (1 slot for SGD, 2 for
    /// Adam) — used when sizing checkpoints analytically.
    pub fn state_slots(&self) -> usize {
        match self {
            OptimizerKind::Sgd { .. } => 1,
            OptimizerKind::Adam { .. } => 2,
        }
    }
}

#[derive(Debug, Clone)]
struct ParamState {
    param: BufferId,
    s1: BufferId,
    s2: Option<BufferId>,
}

/// Per-rank optimizer: one state entry per local parameter shard.
#[derive(Debug, Clone)]
pub(crate) struct RankOptimizer {
    kind: OptimizerKind,
    states: Vec<ParamState>,
    /// 1-based Adam timestep (part of checkpointed CPU state).
    pub t: u32,
}

impl RankOptimizer {
    /// Allocates optimizer state for `params` (`(buffer, elems, name)`).
    pub(crate) fn init<E: Executor>(
        exec: &mut E,
        kind: OptimizerKind,
        params: &[(BufferId, usize, String)],
        phantom_scale: f64,
    ) -> SimResult<RankOptimizer> {
        let mut states = Vec::with_capacity(params.len());
        for (param, elems, name) in params {
            let s1 = alloc_buf(
                exec,
                &format!("optim.{name}.s1"),
                *elems,
                phantom_scale,
                BufferTag::OptimState,
            )?;
            let s2 = match kind {
                OptimizerKind::Adam { .. } => Some(alloc_buf(
                    exec,
                    &format!("optim.{name}.s2"),
                    *elems,
                    phantom_scale,
                    BufferTag::OptimState,
                )?),
                OptimizerKind::Sgd { .. } => None,
            };
            states.push(ParamState {
                param: *param,
                s1,
                s2,
            });
        }
        Ok(RankOptimizer { kind, states, t: 0 })
    }

    /// Applies one optimizer step. `grads[i]` must be the gradient of the
    /// i-th registered parameter.
    pub(crate) fn step<E: Executor>(
        &mut self,
        exec: &mut E,
        stream: StreamId,
        grads: &[BufferId],
    ) -> SimResult<()> {
        if grads.len() != self.states.len() {
            return Err(simcore::SimError::Protocol(format!(
                "optimizer got {} grads for {} params",
                grads.len(),
                self.states.len()
            )));
        }
        self.t += 1;
        for (st, g) in self.states.iter().zip(grads) {
            let kernel = match self.kind {
                OptimizerKind::Sgd {
                    lr,
                    momentum,
                    weight_decay,
                } => KernelKind::SgdStep {
                    param: st.param,
                    grad: *g,
                    momentum: st.s1,
                    lr,
                    mu: momentum,
                    weight_decay,
                },
                OptimizerKind::Adam {
                    lr,
                    beta1,
                    beta2,
                    eps,
                    weight_decay,
                } => KernelKind::AdamStep {
                    param: st.param,
                    grad: *g,
                    m: st.s1,
                    v: st.s2.expect("adam state allocated"),
                    lr,
                    beta1,
                    beta2,
                    eps,
                    t: self.t,
                    weight_decay,
                },
            };
            launch(exec, stream, kernel)?;
        }
        Ok(())
    }
}
