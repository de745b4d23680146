//! Executable compute kernels.
//!
//! Kernels really compute on `f32` device buffers, which is what makes the
//! reproduction's correctness claims checkable: after any failure/recovery
//! sequence the training loss trajectory must match the failure-free run
//! bit-for-bit (§6.2 of the paper validates "exact floating point match").
//! Every kernel is deterministic (fixed iteration order, no atomics), and
//! the order is part of its definition: each reduction adds its terms in
//! one documented sequence with one rounding per operation, so a faster
//! loop nest may change which independent outputs are in flight together
//! but never the bits of any of them. Kernels run in place on device
//! memory — inputs borrowed, outputs written where they live — after
//! validating every handle and shape (`KernelKind::execute`).
//!
//! Each kernel also reports a FLOP count so the cost model can time it at
//! the *logical* (paper-scale) size independent of the actual payload.

use crate::buffer::{BufferId, DeviceBuffer};
use simcore::codec::{Decode, Encode};
use simcore::{SimError, SimResult};
use std::collections::HashMap;

/// A compute kernel launch, as recorded in the device-API replay log.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelKind {
    /// `out[m×n] = op(a)[m×k] · op(b)[k×n]`, with optional transposes.
    MatMul {
        /// Left operand.
        a: BufferId,
        /// Right operand.
        b: BufferId,
        /// Output buffer.
        out: BufferId,
        /// Rows of the output.
        m: u32,
        /// Inner dimension.
        k: u32,
        /// Columns of the output.
        n: u32,
        /// Interpret `a` as transposed (stored `k×m`).
        trans_a: bool,
        /// Interpret `b` as transposed (stored `n×k`).
        trans_b: bool,
    },
    /// `x[r×c] += bias[c]` broadcast over rows, in place.
    BiasAdd {
        /// Activations, modified in place.
        x: BufferId,
        /// Bias vector.
        bias: BufferId,
        /// Rows.
        rows: u32,
        /// Columns.
        cols: u32,
    },
    /// `dbias[c] = Σ_r dy[r×c]` (bias gradient; overwrites).
    BiasGrad {
        /// Upstream gradient.
        dy: BufferId,
        /// Output bias gradient.
        dbias: BufferId,
        /// Rows.
        rows: u32,
        /// Columns.
        cols: u32,
    },
    /// `out = max(x, 0)`.
    Relu {
        /// Input.
        x: BufferId,
        /// Output.
        out: BufferId,
    },
    /// `dx = dy ⊙ (x > 0)`.
    ReluBwd {
        /// Forward input.
        x: BufferId,
        /// Upstream gradient.
        dy: BufferId,
        /// Output gradient.
        dx: BufferId,
    },
    /// Fused softmax + cross-entropy forward: writes per-row probabilities
    /// and the scalar mean loss.
    SoftmaxXentFwd {
        /// Logits `[rows × cols]`.
        logits: BufferId,
        /// Labels as class indices stored in `f32` (`[rows]`).
        labels: BufferId,
        /// Output probabilities `[rows × cols]`.
        probs: BufferId,
        /// Output scalar mean loss (`[1]`).
        loss: BufferId,
        /// Rows (batch).
        rows: u32,
        /// Columns (classes).
        cols: u32,
    },
    /// Softmax cross-entropy backward: `dlogits = (probs − onehot) / rows`.
    SoftmaxXentBwd {
        /// Probabilities from the forward pass.
        probs: BufferId,
        /// Labels.
        labels: BufferId,
        /// Output logit gradients.
        dlogits: BufferId,
        /// Rows.
        rows: u32,
        /// Columns.
        cols: u32,
    },
    /// Layer normalization forward (per row): saves the row means and
    /// reciprocal standard deviations for the backward pass.
    LayerNormFwd {
        /// Input `[rows × cols]`.
        x: BufferId,
        /// Scale `γ` `[cols]`.
        gamma: BufferId,
        /// Shift `β` `[cols]`.
        beta: BufferId,
        /// Output `[rows × cols]`.
        out: BufferId,
        /// Saved row means `[rows]`.
        mean: BufferId,
        /// Saved row reciprocal standard deviations `[rows]`.
        rstd: BufferId,
        /// Rows.
        rows: u32,
        /// Columns.
        cols: u32,
    },
    /// Layer normalization backward: writes `dx`, `dγ`, `dβ`.
    LayerNormBwd {
        /// Forward input.
        x: BufferId,
        /// Scale `γ`.
        gamma: BufferId,
        /// Upstream gradient.
        dy: BufferId,
        /// Saved row means.
        mean: BufferId,
        /// Saved row reciprocal standard deviations.
        rstd: BufferId,
        /// Output input-gradient.
        dx: BufferId,
        /// Output `γ` gradient (overwrites).
        dgamma: BufferId,
        /// Output `β` gradient (overwrites).
        dbeta: BufferId,
        /// Rows.
        rows: u32,
        /// Columns.
        cols: u32,
    },
    /// `buf = 0`.
    Zero {
        /// Buffer to clear.
        buf: BufferId,
    },
    /// `buf = value` elementwise.
    Fill {
        /// Buffer to fill.
        buf: BufferId,
        /// Fill value.
        value: f32,
    },
    /// `y += alpha · x`.
    Axpy {
        /// Scale factor.
        alpha: f32,
        /// Source.
        x: BufferId,
        /// Destination (accumulated in place).
        y: BufferId,
    },
    /// `x *= alpha`.
    Scale {
        /// Scale factor.
        alpha: f32,
        /// Buffer scaled in place.
        x: BufferId,
    },
    /// SGD with momentum:
    /// `mom = mu·mom + grad + wd·param; param −= lr·mom`.
    SgdStep {
        /// Parameters (updated in place).
        param: BufferId,
        /// Gradients.
        grad: BufferId,
        /// Momentum state (updated in place).
        momentum: BufferId,
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        mu: f32,
        /// Weight decay.
        weight_decay: f32,
    },
    /// Adam step with bias correction (`t` is the 1-based step count).
    AdamStep {
        /// Parameters (updated in place).
        param: BufferId,
        /// Gradients.
        grad: BufferId,
        /// First-moment state.
        m: BufferId,
        /// Second-moment state.
        v: BufferId,
        /// Learning rate.
        lr: f32,
        /// β₁.
        beta1: f32,
        /// β₂.
        beta2: f32,
        /// ε.
        eps: f32,
        /// 1-based timestep for bias correction.
        t: u32,
        /// Weight decay (decoupled, AdamW-style).
        weight_decay: f32,
    },
}

/// Most buffer operands any variant names (`LayerNormBwd`).
const MAX_OPERANDS: usize = 8;

impl KernelKind {
    /// FLOP count for the cost model, computed at logical scale via
    /// `scale`: the ratio of logical elements to actual payload elements
    /// (1.0 for unscaled buffers).
    pub fn flops(&self, scale: f64) -> f64 {
        let raw = match self {
            KernelKind::MatMul { m, k, n, .. } => 2.0 * *m as f64 * *k as f64 * *n as f64,
            KernelKind::BiasAdd { rows, cols, .. } => (*rows as f64) * (*cols as f64),
            KernelKind::BiasGrad { rows, cols, .. } => (*rows as f64) * (*cols as f64),
            KernelKind::Relu { .. } | KernelKind::ReluBwd { .. } => 1.0,
            KernelKind::SoftmaxXentFwd { rows, cols, .. } => 5.0 * (*rows as f64) * (*cols as f64),
            KernelKind::SoftmaxXentBwd { rows, cols, .. } => 2.0 * (*rows as f64) * (*cols as f64),
            KernelKind::LayerNormFwd { rows, cols, .. } => 8.0 * (*rows as f64) * (*cols as f64),
            KernelKind::LayerNormBwd { rows, cols, .. } => 14.0 * (*rows as f64) * (*cols as f64),
            KernelKind::Zero { .. } | KernelKind::Fill { .. } => 1.0,
            KernelKind::Axpy { .. } | KernelKind::Scale { .. } => 2.0,
            KernelKind::SgdStep { .. } => 6.0,
            KernelKind::AdamStep { .. } => 12.0,
        };
        raw * scale
    }

    /// The buffer operands of this launch, in declaration order and by
    /// mutable reference: the one table of which fields of each variant
    /// name device memory (dimensions, transposes and hyper-parameters are
    /// not operands). Handle translation rewrites a launch through it; a
    /// reader walks a clone, which copies a few words. Allocation-free.
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut BufferId> {
        fn slots<const N: usize>(
            named: [&mut BufferId; N],
        ) -> [Option<&mut BufferId>; MAX_OPERANDS] {
            const { assert!(N <= MAX_OPERANDS) };
            let mut named = named.into_iter();
            std::array::from_fn(|_| named.next())
        }
        let slots = match self {
            KernelKind::MatMul { a, b, out, .. } => slots([a, b, out]),
            KernelKind::BiasAdd { x, bias, .. } => slots([x, bias]),
            KernelKind::BiasGrad { dy, dbias, .. } => slots([dy, dbias]),
            KernelKind::Relu { x, out } => slots([x, out]),
            KernelKind::ReluBwd { x, dy, dx } => slots([x, dy, dx]),
            KernelKind::SoftmaxXentFwd {
                logits,
                labels,
                probs,
                loss,
                ..
            } => slots([logits, labels, probs, loss]),
            KernelKind::SoftmaxXentBwd {
                probs,
                labels,
                dlogits,
                ..
            } => slots([probs, labels, dlogits]),
            KernelKind::LayerNormFwd {
                x,
                gamma,
                beta,
                out,
                mean,
                rstd,
                ..
            } => slots([x, gamma, beta, out, mean, rstd]),
            KernelKind::LayerNormBwd {
                x,
                gamma,
                dy,
                mean,
                rstd,
                dx,
                dgamma,
                dbeta,
                ..
            } => slots([x, gamma, dy, mean, rstd, dx, dgamma, dbeta]),
            KernelKind::Zero { buf } | KernelKind::Fill { buf, .. } => slots([buf]),
            KernelKind::Axpy { x, y, .. } => slots([x, y]),
            KernelKind::Scale { x, .. } => slots([x]),
            KernelKind::SgdStep {
                param,
                grad,
                momentum,
                ..
            } => slots([param, grad, momentum]),
            KernelKind::AdamStep {
                param, grad, m, v, ..
            } => slots([param, grad, m, v]),
        };
        slots.into_iter().flatten()
    }

    /// All buffers this kernel reads or writes (used by replay validation
    /// and by tests asserting the log captures complete inputs).
    pub fn buffers(&self) -> Vec<BufferId> {
        self.clone().operands_mut().map(|id| *id).collect()
    }

    /// Executes the kernel in place on device memory.
    ///
    /// The contract every arm keeps (DESIGN.md §5):
    ///
    /// * **Validate, then mutate.** Handles and shapes are checked before
    ///   the first store, so a launch that errors leaves `mem` exactly as
    ///   it was.
    /// * **No copies.** Inputs are borrowed as slices and outputs are
    ///   written where they live; an output is only reallocated when the
    ///   kernel changes its length.
    /// * **Full overwrite.** Every element of every buffer an arm stores
    ///   into is stored: no output is left partly written.
    /// * **Fixed arithmetic.** The per-element expression and the order of
    ///   every reduction are part of the kernel's definition — a replayed
    ///   minibatch must reproduce the original to the bit, on any build.
    pub(crate) fn execute(&self, mem: &mut HashMap<BufferId, DeviceBuffer>) -> SimResult<()> {
        match *self {
            KernelKind::MatMul {
                a,
                b,
                out,
                m,
                k,
                n,
                trans_a,
                trans_b,
            } => {
                let (m, k, n) = (m as usize, k as usize, n as usize);
                bind(mem, [a, b], [out], |[av, bv], [o]| {
                    if av.len() != m * k || bv.len() != k * n {
                        return Err(SimError::Protocol(format!(
                            "matmul shape mismatch: a={} (want {}), b={} (want {})",
                            av.len(),
                            m * k,
                            bv.len(),
                            k * n
                        )));
                    }
                    o.resize(m * n, 0.0);
                    matmul(av, bv, o, (m, k, n), trans_a, trans_b);
                    Ok(())
                })
            }
            KernelKind::BiasAdd {
                x,
                bias,
                rows,
                cols,
            } => {
                let (rows, cols) = (rows as usize, cols as usize);
                bind(mem, [bias], [x], |[bv], [xv]| {
                    if xv.len() != rows * cols || bv.len() != cols {
                        return Err(SimError::Protocol("bias_add shape mismatch".into()));
                    }
                    for r in 0..rows {
                        for (xi, bi) in xv[r * cols..(r + 1) * cols].iter_mut().zip(bv) {
                            *xi += bi;
                        }
                    }
                    Ok(())
                })
            }
            KernelKind::BiasGrad {
                dy,
                dbias,
                rows,
                cols,
            } => {
                let (rows, cols) = (rows as usize, cols as usize);
                bind(mem, [dy], [dbias], |[dyv], [db]| {
                    if dyv.len() != rows * cols {
                        return Err(SimError::Protocol("bias_grad shape mismatch".into()));
                    }
                    zeroed(db, cols);
                    for r in 0..rows {
                        for (d, g) in db.iter_mut().zip(&dyv[r * cols..(r + 1) * cols]) {
                            *d += g;
                        }
                    }
                    Ok(())
                })
            }
            KernelKind::Relu { x, out } => bind(mem, [x], [out], |[xv], [o]| {
                o.resize(xv.len(), 0.0);
                for (oi, &xi) in o.iter_mut().zip(xv) {
                    *oi = xi.max(0.0);
                }
                Ok(())
            }),
            KernelKind::ReluBwd { x, dy, dx } => bind(mem, [x, dy], [dx], |[xv, dyv], [o]| {
                if xv.len() != dyv.len() {
                    return Err(SimError::Protocol("relu_bwd shape mismatch".into()));
                }
                o.resize(xv.len(), 0.0);
                for ((oi, &xi), &gi) in o.iter_mut().zip(xv).zip(dyv) {
                    *oi = if xi > 0.0 { gi } else { 0.0 };
                }
                Ok(())
            }),
            KernelKind::SoftmaxXentFwd {
                logits,
                labels,
                probs,
                loss,
                rows,
                cols,
            } => {
                let (rows, cols) = (rows as usize, cols as usize);
                bind(
                    mem,
                    [logits, labels],
                    [probs, loss],
                    |[lv, yv], [pv, out]| {
                        if lv.len() != rows * cols || yv.len() != rows {
                            return Err(SimError::Protocol("softmax_xent shape mismatch".into()));
                        }
                        check_labels(yv, cols)?;
                        pv.resize(rows * cols, 0.0);
                        let mut total = 0f32;
                        for (r, &label) in yv.iter().enumerate() {
                            let row = &lv[r * cols..(r + 1) * cols];
                            let prow = &mut pv[r * cols..(r + 1) * cols];
                            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                            let mut denom = 0f32;
                            for (p, &l) in prow.iter_mut().zip(row) {
                                let e = (l - mx).exp();
                                *p = e;
                                denom += e;
                            }
                            for p in prow.iter_mut() {
                                *p /= denom;
                            }
                            total += -(prow[label as usize].max(1e-30)).ln();
                        }
                        out.clear();
                        out.push(total / rows as f32);
                        Ok(())
                    },
                )
            }
            KernelKind::SoftmaxXentBwd {
                probs,
                labels,
                dlogits,
                rows,
                cols,
            } => {
                let (rows, cols) = (rows as usize, cols as usize);
                bind(mem, [probs, labels], [dlogits], |[pv, yv], [dv]| {
                    if pv.len() != rows * cols || yv.len() != rows {
                        return Err(SimError::Protocol("softmax_xent bwd shape mismatch".into()));
                    }
                    check_labels(yv, cols)?;
                    dv.resize(rows * cols, 0.0);
                    dv.copy_from_slice(pv);
                    for (r, &label) in yv.iter().enumerate() {
                        dv[r * cols + label as usize] -= 1.0;
                    }
                    let inv = 1.0 / rows as f32;
                    for v in dv.iter_mut() {
                        *v *= inv;
                    }
                    Ok(())
                })
            }
            KernelKind::LayerNormFwd {
                x,
                gamma,
                beta,
                out,
                mean,
                rstd,
                rows,
                cols,
            } => {
                let (rows, cols) = (rows as usize, cols as usize);
                bind(
                    mem,
                    [x, gamma, beta],
                    [out, mean, rstd],
                    |[xv, g, b], [o, mu, rs]| {
                        if xv.len() != rows * cols || g.len() != cols || b.len() != cols {
                            return Err(SimError::Protocol("layernorm shape mismatch".into()));
                        }
                        const EPS: f32 = 1e-5;
                        o.resize(rows * cols, 0.0);
                        mu.resize(rows, 0.0);
                        rs.resize(rows, 0.0);
                        for (r, (mu, rs)) in mu.iter_mut().zip(rs.iter_mut()).enumerate() {
                            let row = &xv[r * cols..(r + 1) * cols];
                            let orow = &mut o[r * cols..(r + 1) * cols];
                            let m = row.iter().sum::<f32>() / cols as f32;
                            let var =
                                row.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / cols as f32;
                            let inv = 1.0 / (var + EPS).sqrt();
                            *mu = m;
                            *rs = inv;
                            for (((oi, &xi), &gi), &bi) in orow.iter_mut().zip(row).zip(g).zip(b) {
                                *oi = (xi - m) * inv * gi + bi;
                            }
                        }
                        Ok(())
                    },
                )
            }
            KernelKind::LayerNormBwd {
                x,
                gamma,
                dy,
                mean,
                rstd,
                dx,
                dgamma,
                dbeta,
                rows,
                cols,
            } => {
                let (rows, cols) = (rows as usize, cols as usize);
                bind(
                    mem,
                    [x, gamma, dy, mean, rstd],
                    [dx, dgamma, dbeta],
                    |[xv, g, dyv, mu, rs], [dxv, dg, db]| {
                        if xv.len() != rows * cols
                            || dyv.len() != rows * cols
                            || g.len() != cols
                            || mu.len() != rows
                            || rs.len() != rows
                        {
                            return Err(SimError::Protocol("layernorm bwd shape mismatch".into()));
                        }
                        dxv.resize(rows * cols, 0.0);
                        zeroed(dg, cols);
                        zeroed(db, cols);
                        let n = cols as f32;
                        for (r, (&m, &inv)) in mu.iter().zip(rs).enumerate() {
                            let row = &xv[r * cols..(r + 1) * cols];
                            let dyr = &dyv[r * cols..(r + 1) * cols];
                            let dxr = &mut dxv[r * cols..(r + 1) * cols];
                            // x̂ and dx̂ = dy ⊙ γ.
                            let mut sum_dxhat = 0f32;
                            let mut sum_dxhat_xhat = 0f32;
                            for ((((&xi, &dyi), &gi), dgi), dbi) in row
                                .iter()
                                .zip(dyr)
                                .zip(g)
                                .zip(dg.iter_mut())
                                .zip(db.iter_mut())
                            {
                                let xhat = (xi - m) * inv;
                                let dxhat = dyi * gi;
                                sum_dxhat += dxhat;
                                sum_dxhat_xhat += dxhat * xhat;
                                *dgi += dyi * xhat;
                                *dbi += dyi;
                            }
                            for (((dxi, &xi), &dyi), &gi) in dxr.iter_mut().zip(row).zip(dyr).zip(g)
                            {
                                let xhat = (xi - m) * inv;
                                let dxhat = dyi * gi;
                                *dxi = inv * (dxhat - sum_dxhat / n - xhat * sum_dxhat_xhat / n);
                            }
                        }
                        Ok(())
                    },
                )
            }
            KernelKind::Zero { buf } => bind(mem, [], [buf], |[], [v]| {
                v.fill(0.0);
                Ok(())
            }),
            KernelKind::Fill { buf, value } => bind(mem, [], [buf], |[], [v]| {
                v.fill(value);
                Ok(())
            }),
            KernelKind::Axpy { alpha, x, y } => bind(mem, [x], [y], |[xv], [yv]| {
                if xv.len() != yv.len() {
                    return Err(SimError::Protocol("axpy shape mismatch".into()));
                }
                for (yi, xi) in yv.iter_mut().zip(xv) {
                    *yi += alpha * xi;
                }
                Ok(())
            }),
            KernelKind::Scale { alpha, x } => bind(mem, [], [x], |[], [xv]| {
                for v in xv.iter_mut() {
                    *v *= alpha;
                }
                Ok(())
            }),
            KernelKind::SgdStep {
                param,
                grad,
                momentum,
                lr,
                mu,
                weight_decay,
            } => bind(mem, [grad], [param, momentum], |[g], [p, mom]| {
                if p.len() != g.len() || p.len() != mom.len() {
                    return Err(SimError::Protocol("sgd shape mismatch".into()));
                }
                for ((pi, &gi), mi) in p.iter_mut().zip(g).zip(mom.iter_mut()) {
                    *mi = mu * *mi + gi + weight_decay * *pi;
                    *pi -= lr * *mi;
                }
                Ok(())
            }),
            KernelKind::AdamStep {
                param,
                grad,
                m,
                v,
                lr,
                beta1,
                beta2,
                eps,
                t,
                weight_decay,
            } => bind(mem, [grad], [param, m, v], |[g], [p, mv, vv]| {
                if p.len() != g.len() || p.len() != mv.len() || p.len() != vv.len() {
                    return Err(SimError::Protocol("adam shape mismatch".into()));
                }
                let bc1 = 1.0 - beta1.powi(t as i32);
                let bc2 = 1.0 - beta2.powi(t as i32);
                for (((pi, &gi), mi), vi) in
                    p.iter_mut().zip(g).zip(mv.iter_mut()).zip(vv.iter_mut())
                {
                    *mi = beta1 * *mi + (1.0 - beta1) * gi;
                    *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                    let mhat = *mi / bc1;
                    let vhat = *vi / bc2;
                    *pi -= lr * (mhat / (vhat.sqrt() + eps) + weight_decay * *pi);
                }
                Ok(())
            }),
        }
    }
}

/// Borrows a launch's buffers out of device memory for the kernel body:
/// `ro` as slices, `rw` as the `Vec`s the kernel stores into. The `rw`
/// payloads leave `mem` for the duration and go back — in `rw` order, so
/// the last store to an id named twice wins — whether or not the body
/// fails; a body that returns its error before its first store therefore
/// leaves `mem` untouched.
///
/// Every role sees pre-launch contents. An id that is written and named in
/// a second role (`Axpy { x == y }`, `Relu { x == out }`) is the one case
/// that copies a payload: the later role gets a private copy of what the
/// buffer held before the launch. No trainer emits such a launch.
fn bind<const R: usize, const W: usize>(
    mem: &mut HashMap<BufferId, DeviceBuffer>,
    ro: [BufferId; R],
    rw: [BufferId; W],
    body: impl FnOnce([&[f32]; R], &mut [Vec<f32>; W]) -> SimResult<()>,
) -> SimResult<()> {
    if let Some(id) = ro.iter().chain(&rw).find(|id| !mem.contains_key(id)) {
        return Err(SimError::InvalidHandle(id.to_string()));
    }
    let aliased: [Option<Vec<f32>>; R] = std::array::from_fn(|i| {
        let written = rw.contains(&ro[i]);
        written.then(|| mem.get(&ro[i]).map_or(Vec::new(), |b| b.data.to_vec()))
    });
    let mut taken: [Vec<f32>; W] = std::array::from_fn(|_| Vec::new());
    for j in 0..W {
        taken[j] = match rw[..j].iter().position(|id| *id == rw[j]) {
            Some(first) => taken[first].to_vec(),
            None => mem
                .get_mut(&rw[j])
                .map_or(Vec::new(), |b| std::mem::take(&mut b.data)),
        };
    }
    let views: [&[f32]; R] = std::array::from_fn(|i| match &aliased[i] {
        Some(copy) => copy.as_slice(),
        None => mem.get(&ro[i]).map_or(&[][..], |b| b.data.as_slice()),
    });
    let result = body(views, &mut taken);
    for (id, data) in rw.iter().zip(taken) {
        if let Some(b) = mem.get_mut(id) {
            b.data = data;
        }
    }
    result
}

/// Makes `v` exactly `len` zeros, reusing its allocation.
fn zeroed(v: &mut Vec<f32>, len: usize) {
    v.clear();
    v.resize(len, 0.0);
}

/// Labels are class indices stored as `f32`; the first one that does not
/// name a column is the launch's error.
fn check_labels(labels: &[f32], cols: usize) -> SimResult<()> {
    match labels.iter().find(|&&l| l as usize >= cols) {
        Some(&l) => Err(SimError::Protocol(format!(
            "label {} out of range",
            l as usize
        ))),
        None => Ok(()),
    }
}

/// `o[m×n] = op(a)[m×k] · op(b)[k×n]`. Whatever the loop nest, each output
/// element is accumulated from `0f32` over `p = 0..k` ascending with one
/// rounding per multiply and one per add — the loop order only decides
/// which independent elements are in flight together.
fn matmul(
    a: &[f32],
    b: &[f32],
    o: &mut [f32],
    (m, k, n): (usize, usize, usize),
    trans_a: bool,
    trans_b: bool,
) {
    if k == 0 || n == 0 {
        o.fill(0.0);
        return;
    }
    match (trans_a, trans_b) {
        (false, false) => matmul_b_rows(|i, p| a[i * k + p], b, o, n),
        (true, false) => matmul_b_rows(|i, p| a[p * m + i], b, o, n),
        (false, true) => matmul_b_cols(|i, p| a[i * k + p], b, o, k, n),
        (true, true) => matmul_b_cols(|i, p| a[p * m + i], b, o, k, n),
    }
}

/// `b` stored `k×n`: row-axpy `o[i,·] += a[i,p] · b[p,·]`, which walks `b`
/// and `o` contiguously and vectorises across `j`.
#[inline(always)]
fn matmul_b_rows(a: impl Fn(usize, usize) -> f32, b: &[f32], o: &mut [f32], n: usize) {
    for (i, o_row) in o.chunks_exact_mut(n).enumerate() {
        o_row.fill(0.0);
        for (p, b_row) in b.chunks_exact(n).enumerate() {
            let x = a(i, p);
            for (oj, bj) in o_row.iter_mut().zip(b_row) {
                *oj += x * bj;
            }
        }
    }
}

/// `b` stored `n×k`: each output is a dot product of two contiguous rows —
/// a dependent add chain — and no two outputs share a contiguous axis to
/// vectorise along. So a `PB×JB` tile of `b` is turned on the stack
/// (`tile[p][j]`), which makes `JB` neighbouring outputs one vector lane
/// each, and is reused for every row `i`; the outputs themselves carry the
/// partial sums from one tile to the next, which is exact. At `m = 1` the
/// turn costs what the vector lanes save; from `m = 4` up it is a third of
/// the scalar chains' time.
#[inline(always)]
fn matmul_b_cols(a: impl Fn(usize, usize) -> f32, b: &[f32], o: &mut [f32], k: usize, n: usize) {
    const JB: usize = 8;
    const PB: usize = 64;
    let m = o.len() / n;
    o.fill(0.0);
    // Lanes past a narrow last block keep an earlier block's values; they
    // are computed on and never stored.
    let mut tile = [[0f32; JB]; PB];
    for (jb, b_blk) in b.chunks(JB * k).enumerate() {
        let (j0, width) = (jb * JB, b_blk.len() / k);
        for p0 in (0..k).step_by(PB) {
            let depth = PB.min(k - p0);
            for (jj, b_row) in b_blk.chunks_exact(k).enumerate() {
                for (pp, &v) in b_row[p0..p0 + depth].iter().enumerate() {
                    tile[pp][jj] = v;
                }
            }
            for i in 0..m {
                let o_blk = &mut o[i * n + j0..][..width];
                let mut acc = [0f32; JB];
                acc[..width].copy_from_slice(o_blk);
                // Exactly `depth` steps: a padded step would add `x · 0`,
                // which is not a no-op for `-0.0`, `inf` or NaN.
                for (pp, t) in tile[..depth].iter().enumerate() {
                    let x = a(i, p0 + pp);
                    for (acc, bj) in acc.iter_mut().zip(t) {
                        *acc += x * bj;
                    }
                }
                o_blk.copy_from_slice(&acc[..width]);
            }
        }
    }
}

impl Encode for KernelKind {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        match *self {
            KernelKind::MatMul {
                a,
                b,
                out,
                m,
                k,
                n,
                trans_a,
                trans_b,
            } => {
                0u8.encode(buf);
                a.encode(buf);
                b.encode(buf);
                out.encode(buf);
                m.encode(buf);
                k.encode(buf);
                n.encode(buf);
                trans_a.encode(buf);
                trans_b.encode(buf);
            }
            KernelKind::BiasAdd {
                x,
                bias,
                rows,
                cols,
            } => {
                1u8.encode(buf);
                x.encode(buf);
                bias.encode(buf);
                rows.encode(buf);
                cols.encode(buf);
            }
            KernelKind::BiasGrad {
                dy,
                dbias,
                rows,
                cols,
            } => {
                2u8.encode(buf);
                dy.encode(buf);
                dbias.encode(buf);
                rows.encode(buf);
                cols.encode(buf);
            }
            KernelKind::Relu { x, out } => {
                3u8.encode(buf);
                x.encode(buf);
                out.encode(buf);
            }
            KernelKind::ReluBwd { x, dy, dx } => {
                4u8.encode(buf);
                x.encode(buf);
                dy.encode(buf);
                dx.encode(buf);
            }
            KernelKind::SoftmaxXentFwd {
                logits,
                labels,
                probs,
                loss,
                rows,
                cols,
            } => {
                5u8.encode(buf);
                logits.encode(buf);
                labels.encode(buf);
                probs.encode(buf);
                loss.encode(buf);
                rows.encode(buf);
                cols.encode(buf);
            }
            KernelKind::SoftmaxXentBwd {
                probs,
                labels,
                dlogits,
                rows,
                cols,
            } => {
                6u8.encode(buf);
                probs.encode(buf);
                labels.encode(buf);
                dlogits.encode(buf);
                rows.encode(buf);
                cols.encode(buf);
            }
            KernelKind::Zero { buf: b } => {
                7u8.encode(buf);
                b.encode(buf);
            }
            KernelKind::LayerNormFwd {
                x,
                gamma,
                beta,
                out,
                mean,
                rstd,
                rows,
                cols,
            } => {
                13u8.encode(buf);
                x.encode(buf);
                gamma.encode(buf);
                beta.encode(buf);
                out.encode(buf);
                mean.encode(buf);
                rstd.encode(buf);
                rows.encode(buf);
                cols.encode(buf);
            }
            KernelKind::LayerNormBwd {
                x,
                gamma,
                dy,
                mean,
                rstd,
                dx,
                dgamma,
                dbeta,
                rows,
                cols,
            } => {
                14u8.encode(buf);
                x.encode(buf);
                gamma.encode(buf);
                dy.encode(buf);
                mean.encode(buf);
                rstd.encode(buf);
                dx.encode(buf);
                dgamma.encode(buf);
                dbeta.encode(buf);
                rows.encode(buf);
                cols.encode(buf);
            }
            KernelKind::Fill { buf: b, value } => {
                8u8.encode(buf);
                b.encode(buf);
                value.encode(buf);
            }
            KernelKind::Axpy { alpha, x, y } => {
                9u8.encode(buf);
                alpha.encode(buf);
                x.encode(buf);
                y.encode(buf);
            }
            KernelKind::Scale { alpha, x } => {
                10u8.encode(buf);
                alpha.encode(buf);
                x.encode(buf);
            }
            KernelKind::SgdStep {
                param,
                grad,
                momentum,
                lr,
                mu,
                weight_decay,
            } => {
                11u8.encode(buf);
                param.encode(buf);
                grad.encode(buf);
                momentum.encode(buf);
                lr.encode(buf);
                mu.encode(buf);
                weight_decay.encode(buf);
            }
            KernelKind::AdamStep {
                param,
                grad,
                m,
                v,
                lr,
                beta1,
                beta2,
                eps,
                t,
                weight_decay,
            } => {
                12u8.encode(buf);
                param.encode(buf);
                grad.encode(buf);
                m.encode(buf);
                v.encode(buf);
                lr.encode(buf);
                beta1.encode(buf);
                beta2.encode(buf);
                eps.encode(buf);
                t.encode(buf);
                weight_decay.encode(buf);
            }
        }
    }
}

impl Decode for KernelKind {
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        let tag = u8::decode(buf)?;
        Ok(match tag {
            0 => KernelKind::MatMul {
                a: BufferId::decode(buf)?,
                b: BufferId::decode(buf)?,
                out: BufferId::decode(buf)?,
                m: u32::decode(buf)?,
                k: u32::decode(buf)?,
                n: u32::decode(buf)?,
                trans_a: bool::decode(buf)?,
                trans_b: bool::decode(buf)?,
            },
            1 => KernelKind::BiasAdd {
                x: BufferId::decode(buf)?,
                bias: BufferId::decode(buf)?,
                rows: u32::decode(buf)?,
                cols: u32::decode(buf)?,
            },
            2 => KernelKind::BiasGrad {
                dy: BufferId::decode(buf)?,
                dbias: BufferId::decode(buf)?,
                rows: u32::decode(buf)?,
                cols: u32::decode(buf)?,
            },
            3 => KernelKind::Relu {
                x: BufferId::decode(buf)?,
                out: BufferId::decode(buf)?,
            },
            4 => KernelKind::ReluBwd {
                x: BufferId::decode(buf)?,
                dy: BufferId::decode(buf)?,
                dx: BufferId::decode(buf)?,
            },
            5 => KernelKind::SoftmaxXentFwd {
                logits: BufferId::decode(buf)?,
                labels: BufferId::decode(buf)?,
                probs: BufferId::decode(buf)?,
                loss: BufferId::decode(buf)?,
                rows: u32::decode(buf)?,
                cols: u32::decode(buf)?,
            },
            6 => KernelKind::SoftmaxXentBwd {
                probs: BufferId::decode(buf)?,
                labels: BufferId::decode(buf)?,
                dlogits: BufferId::decode(buf)?,
                rows: u32::decode(buf)?,
                cols: u32::decode(buf)?,
            },
            7 => KernelKind::Zero {
                buf: BufferId::decode(buf)?,
            },
            8 => KernelKind::Fill {
                buf: BufferId::decode(buf)?,
                value: f32::decode(buf)?,
            },
            9 => KernelKind::Axpy {
                alpha: f32::decode(buf)?,
                x: BufferId::decode(buf)?,
                y: BufferId::decode(buf)?,
            },
            10 => KernelKind::Scale {
                alpha: f32::decode(buf)?,
                x: BufferId::decode(buf)?,
            },
            11 => KernelKind::SgdStep {
                param: BufferId::decode(buf)?,
                grad: BufferId::decode(buf)?,
                momentum: BufferId::decode(buf)?,
                lr: f32::decode(buf)?,
                mu: f32::decode(buf)?,
                weight_decay: f32::decode(buf)?,
            },
            12 => KernelKind::AdamStep {
                param: BufferId::decode(buf)?,
                grad: BufferId::decode(buf)?,
                m: BufferId::decode(buf)?,
                v: BufferId::decode(buf)?,
                lr: f32::decode(buf)?,
                beta1: f32::decode(buf)?,
                beta2: f32::decode(buf)?,
                eps: f32::decode(buf)?,
                t: u32::decode(buf)?,
                weight_decay: f32::decode(buf)?,
            },
            13 => KernelKind::LayerNormFwd {
                x: BufferId::decode(buf)?,
                gamma: BufferId::decode(buf)?,
                beta: BufferId::decode(buf)?,
                out: BufferId::decode(buf)?,
                mean: BufferId::decode(buf)?,
                rstd: BufferId::decode(buf)?,
                rows: u32::decode(buf)?,
                cols: u32::decode(buf)?,
            },
            14 => KernelKind::LayerNormBwd {
                x: BufferId::decode(buf)?,
                gamma: BufferId::decode(buf)?,
                dy: BufferId::decode(buf)?,
                mean: BufferId::decode(buf)?,
                rstd: BufferId::decode(buf)?,
                dx: BufferId::decode(buf)?,
                dgamma: BufferId::decode(buf)?,
                dbeta: BufferId::decode(buf)?,
                rows: u32::decode(buf)?,
                cols: u32::decode(buf)?,
            },
            other => return Err(SimError::Codec(format!("bad kernel tag {other}"))),
        })
    }
}

#[cfg(test)]
mod oracle {
    //! The clone-in / collect-writes protocol [`KernelKind::execute`]
    //! replaced, kept verbatim as the reference the in-place kernels are
    //! proptested against: every input is fetched as a private copy, every
    //! output is built in a fresh `Vec` and stored afterwards, and the
    //! matmul is the scalar i-j-p triple loop.

    use super::*;

    /// Test-side device memory: payloads only.
    pub(super) type Mem = HashMap<BufferId, Vec<f32>>;

    /// One launch under the old device protocol: stores are collected and
    /// applied only if the kernel succeeds, in store order.
    pub(super) fn launch(kernel: &KernelKind, mem: &Mem) -> SimResult<Mem> {
        let mut fetch = |id: BufferId| {
            mem.get(&id)
                .cloned()
                .ok_or_else(|| SimError::InvalidHandle(id.to_string()))
        };
        let mut writes: Vec<(BufferId, Vec<f32>)> = Vec::new();
        let mut store = |id: BufferId, data: Vec<f32>| {
            writes.push((id, data));
            Ok(())
        };
        execute(kernel, &mut fetch, &mut store)?;
        let mut after = mem.clone();
        for (id, data) in writes {
            match after.get_mut(&id) {
                Some(slot) => *slot = data,
                None => return Err(SimError::InvalidHandle(id.to_string())),
            }
        }
        Ok(after)
    }

    fn execute(
        kernel: &KernelKind,
        fetch: &mut dyn FnMut(BufferId) -> SimResult<Vec<f32>>,
        store: &mut dyn FnMut(BufferId, Vec<f32>) -> SimResult<()>,
    ) -> SimResult<()> {
        match *kernel {
            KernelKind::MatMul {
                a,
                b,
                out,
                m,
                k,
                n,
                trans_a,
                trans_b,
            } => {
                let (m, k, n) = (m as usize, k as usize, n as usize);
                let av = fetch(a)?;
                let bv = fetch(b)?;
                if av.len() != m * k || bv.len() != k * n {
                    return Err(SimError::Protocol(format!(
                        "matmul shape mismatch: a={} (want {}), b={} (want {})",
                        av.len(),
                        m * k,
                        bv.len(),
                        k * n
                    )));
                }
                let mut o = vec![0f32; m * n];
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0f32;
                        for p in 0..k {
                            let x = if trans_a {
                                av[p * m + i]
                            } else {
                                av[i * k + p]
                            };
                            let y = if trans_b {
                                bv[j * k + p]
                            } else {
                                bv[p * n + j]
                            };
                            acc += x * y;
                        }
                        o[i * n + j] = acc;
                    }
                }
                store(out, o)
            }
            KernelKind::BiasAdd {
                x,
                bias,
                rows,
                cols,
            } => {
                let mut xv = fetch(x)?;
                let bv = fetch(bias)?;
                let (rows, cols) = (rows as usize, cols as usize);
                if xv.len() != rows * cols || bv.len() != cols {
                    return Err(SimError::Protocol("bias_add shape mismatch".into()));
                }
                for r in 0..rows {
                    for c in 0..cols {
                        xv[r * cols + c] += bv[c];
                    }
                }
                store(x, xv)
            }
            KernelKind::BiasGrad {
                dy,
                dbias,
                rows,
                cols,
            } => {
                let dyv = fetch(dy)?;
                let (rows, cols) = (rows as usize, cols as usize);
                if dyv.len() != rows * cols {
                    return Err(SimError::Protocol("bias_grad shape mismatch".into()));
                }
                let mut db = vec![0f32; cols];
                for r in 0..rows {
                    for c in 0..cols {
                        db[c] += dyv[r * cols + c];
                    }
                }
                store(dbias, db)
            }
            KernelKind::Relu { x, out } => {
                let xv = fetch(x)?;
                let o: Vec<f32> = xv.iter().map(|&v| v.max(0.0)).collect();
                store(out, o)
            }
            KernelKind::ReluBwd { x, dy, dx } => {
                let xv = fetch(x)?;
                let dyv = fetch(dy)?;
                if xv.len() != dyv.len() {
                    return Err(SimError::Protocol("relu_bwd shape mismatch".into()));
                }
                let o: Vec<f32> = xv
                    .iter()
                    .zip(&dyv)
                    .map(|(&xi, &gi)| if xi > 0.0 { gi } else { 0.0 })
                    .collect();
                store(dx, o)
            }
            KernelKind::SoftmaxXentFwd {
                logits,
                labels,
                probs,
                loss,
                rows,
                cols,
            } => {
                let lv = fetch(logits)?;
                let yv = fetch(labels)?;
                let (rows, cols) = (rows as usize, cols as usize);
                if lv.len() != rows * cols || yv.len() != rows {
                    return Err(SimError::Protocol("softmax_xent shape mismatch".into()));
                }
                let mut pv = vec![0f32; rows * cols];
                let mut total = 0f32;
                for r in 0..rows {
                    let row = &lv[r * cols..(r + 1) * cols];
                    let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut denom = 0f32;
                    for c in 0..cols {
                        let e = (row[c] - mx).exp();
                        pv[r * cols + c] = e;
                        denom += e;
                    }
                    for c in 0..cols {
                        pv[r * cols + c] /= denom;
                    }
                    let label = yv[r] as usize;
                    if label >= cols {
                        return Err(SimError::Protocol(format!("label {label} out of range")));
                    }
                    total += -(pv[r * cols + label].max(1e-30)).ln();
                }
                store(probs, pv)?;
                store(loss, vec![total / rows as f32])
            }
            KernelKind::SoftmaxXentBwd {
                probs,
                labels,
                dlogits,
                rows,
                cols,
            } => {
                let pv = fetch(probs)?;
                let yv = fetch(labels)?;
                let (rows, cols) = (rows as usize, cols as usize);
                let mut dv = pv.clone();
                for r in 0..rows {
                    let label = yv[r] as usize;
                    dv[r * cols + label] -= 1.0;
                }
                let inv = 1.0 / rows as f32;
                for v in &mut dv {
                    *v *= inv;
                }
                store(dlogits, dv)
            }
            KernelKind::LayerNormFwd {
                x,
                gamma,
                beta,
                out,
                mean,
                rstd,
                rows,
                cols,
            } => {
                let xv = fetch(x)?;
                let g = fetch(gamma)?;
                let b = fetch(beta)?;
                let (rows, cols) = (rows as usize, cols as usize);
                if xv.len() != rows * cols || g.len() != cols || b.len() != cols {
                    return Err(SimError::Protocol("layernorm shape mismatch".into()));
                }
                const EPS: f32 = 1e-5;
                let mut o = vec![0f32; rows * cols];
                let mut mu = vec![0f32; rows];
                let mut rs = vec![0f32; rows];
                for r in 0..rows {
                    let row = &xv[r * cols..(r + 1) * cols];
                    let m = row.iter().sum::<f32>() / cols as f32;
                    let var = row.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / cols as f32;
                    let inv = 1.0 / (var + EPS).sqrt();
                    mu[r] = m;
                    rs[r] = inv;
                    for c in 0..cols {
                        o[r * cols + c] = (row[c] - m) * inv * g[c] + b[c];
                    }
                }
                store(out, o)?;
                store(mean, mu)?;
                store(rstd, rs)
            }
            KernelKind::LayerNormBwd {
                x,
                gamma,
                dy,
                mean,
                rstd,
                dx,
                dgamma,
                dbeta,
                rows,
                cols,
            } => {
                let xv = fetch(x)?;
                let g = fetch(gamma)?;
                let dyv = fetch(dy)?;
                let mu = fetch(mean)?;
                let rs = fetch(rstd)?;
                let (rows, cols) = (rows as usize, cols as usize);
                if xv.len() != rows * cols || dyv.len() != rows * cols {
                    return Err(SimError::Protocol("layernorm bwd shape mismatch".into()));
                }
                let mut dxv = vec![0f32; rows * cols];
                let mut dg = vec![0f32; cols];
                let mut db = vec![0f32; cols];
                for r in 0..rows {
                    let row = &xv[r * cols..(r + 1) * cols];
                    let dyr = &dyv[r * cols..(r + 1) * cols];
                    let inv = rs[r];
                    let m = mu[r];
                    // x̂ and dx̂ = dy ⊙ γ.
                    let mut sum_dxhat = 0f32;
                    let mut sum_dxhat_xhat = 0f32;
                    for c in 0..cols {
                        let xhat = (row[c] - m) * inv;
                        let dxhat = dyr[c] * g[c];
                        sum_dxhat += dxhat;
                        sum_dxhat_xhat += dxhat * xhat;
                        dg[c] += dyr[c] * xhat;
                        db[c] += dyr[c];
                    }
                    let n = cols as f32;
                    for c in 0..cols {
                        let xhat = (row[c] - m) * inv;
                        let dxhat = dyr[c] * g[c];
                        dxv[r * cols + c] =
                            inv * (dxhat - sum_dxhat / n - xhat * sum_dxhat_xhat / n);
                    }
                }
                store(dx, dxv)?;
                store(dgamma, dg)?;
                store(dbeta, db)
            }
            KernelKind::Zero { buf } => {
                let len = fetch(buf)?.len();
                store(buf, vec![0f32; len])
            }
            KernelKind::Fill { buf, value } => {
                let len = fetch(buf)?.len();
                store(buf, vec![value; len])
            }
            KernelKind::Axpy { alpha, x, y } => {
                let xv = fetch(x)?;
                let mut yv = fetch(y)?;
                if xv.len() != yv.len() {
                    return Err(SimError::Protocol("axpy shape mismatch".into()));
                }
                for (yi, xi) in yv.iter_mut().zip(&xv) {
                    *yi += alpha * xi;
                }
                store(y, yv)
            }
            KernelKind::Scale { alpha, x } => {
                let mut xv = fetch(x)?;
                for v in &mut xv {
                    *v *= alpha;
                }
                store(x, xv)
            }
            KernelKind::SgdStep {
                param,
                grad,
                momentum,
                lr,
                mu,
                weight_decay,
            } => {
                let mut p = fetch(param)?;
                let g = fetch(grad)?;
                let mut mom = fetch(momentum)?;
                if p.len() != g.len() || p.len() != mom.len() {
                    return Err(SimError::Protocol("sgd shape mismatch".into()));
                }
                for i in 0..p.len() {
                    mom[i] = mu * mom[i] + g[i] + weight_decay * p[i];
                    p[i] -= lr * mom[i];
                }
                store(param, p)?;
                store(momentum, mom)
            }
            KernelKind::AdamStep {
                param,
                grad,
                m,
                v,
                lr,
                beta1,
                beta2,
                eps,
                t,
                weight_decay,
            } => {
                let mut p = fetch(param)?;
                let g = fetch(grad)?;
                let mut mv = fetch(m)?;
                let mut vv = fetch(v)?;
                if p.len() != g.len() || p.len() != mv.len() || p.len() != vv.len() {
                    return Err(SimError::Protocol("adam shape mismatch".into()));
                }
                let bc1 = 1.0 - beta1.powi(t as i32);
                let bc2 = 1.0 - beta2.powi(t as i32);
                for i in 0..p.len() {
                    mv[i] = beta1 * mv[i] + (1.0 - beta1) * g[i];
                    vv[i] = beta2 * vv[i] + (1.0 - beta2) * g[i] * g[i];
                    let mhat = mv[i] / bc1;
                    let vhat = vv[i] / bc2;
                    p[i] -= lr * (mhat / (vhat.sqrt() + eps) + weight_decay * p[i]);
                }
                store(param, p)?;
                store(m, mv)?;
                store(v, vv)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::Mem;
    use super::*;

    /// Runs one launch in place on device memory holding exactly these
    /// payloads, and hands the payloads back.
    pub(super) fn try_run(kernel: &KernelKind, mem: &mut Mem) -> SimResult<()> {
        let mut dev: HashMap<BufferId, DeviceBuffer> = mem
            .drain()
            .map(|(id, data)| {
                let buf = DeviceBuffer {
                    id,
                    logical_bytes: 4 * data.len() as u64,
                    tag: crate::buffer::BufferTag::Workspace,
                    site: crate::buffer::AllocSite::new("test", data.len() as u64),
                    data,
                };
                (id, buf)
            })
            .collect();
        let result = kernel.execute(&mut dev);
        mem.extend(dev.into_iter().map(|(id, b)| (id, b.data)));
        result
    }

    pub(super) fn run(kernel: &KernelKind, mem: &mut Mem) {
        try_run(kernel, mem).unwrap();
    }

    #[test]
    fn matmul_basic() {
        let mut mem = HashMap::new();
        mem.insert(BufferId(0), vec![1.0, 2.0, 3.0, 4.0]); // 2x2
        mem.insert(BufferId(1), vec![5.0, 6.0, 7.0, 8.0]); // 2x2
        mem.insert(BufferId(2), vec![0.0; 4]);
        run(
            &KernelKind::MatMul {
                a: BufferId(0),
                b: BufferId(1),
                out: BufferId(2),
                m: 2,
                k: 2,
                n: 2,
                trans_a: false,
                trans_b: false,
            },
            &mut mem,
        );
        assert_eq!(mem[&BufferId(2)], vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transposes() {
        let mut mem = HashMap::new();
        // a stored as k×m = 2×2: logical a = [[1,3],[2,4]].
        mem.insert(BufferId(0), vec![1.0, 2.0, 3.0, 4.0]);
        mem.insert(BufferId(1), vec![1.0, 0.0, 0.0, 1.0]);
        mem.insert(BufferId(2), vec![0.0; 4]);
        run(
            &KernelKind::MatMul {
                a: BufferId(0),
                b: BufferId(1),
                out: BufferId(2),
                m: 2,
                k: 2,
                n: 2,
                trans_a: true,
                trans_b: false,
            },
            &mut mem,
        );
        assert_eq!(mem[&BufferId(2)], vec![1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn softmax_xent_gradient_sums_to_zero_per_row() {
        let mut mem = HashMap::new();
        mem.insert(BufferId(0), vec![1.0, 2.0, 3.0, 0.5, 0.5, 0.5]); // 2x3 logits
        mem.insert(BufferId(1), vec![2.0, 0.0]); // labels
        mem.insert(BufferId(2), vec![0.0; 6]); // probs
        mem.insert(BufferId(3), vec![0.0]); // loss
        run(
            &KernelKind::SoftmaxXentFwd {
                logits: BufferId(0),
                labels: BufferId(1),
                probs: BufferId(2),
                loss: BufferId(3),
                rows: 2,
                cols: 3,
            },
            &mut mem,
        );
        let loss = mem[&BufferId(3)][0];
        assert!(loss > 0.0);
        // Row probabilities sum to 1.
        let p = mem[&BufferId(2)].clone();
        for r in 0..2 {
            let s: f32 = p[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        mem.insert(BufferId(4), vec![0.0; 6]);
        run(
            &KernelKind::SoftmaxXentBwd {
                probs: BufferId(2),
                labels: BufferId(1),
                dlogits: BufferId(4),
                rows: 2,
                cols: 3,
            },
            &mut mem,
        );
        let d = mem[&BufferId(4)].clone();
        for r in 0..2 {
            let s: f32 = d[r * 3..(r + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "row grad sum {s}");
        }
    }

    #[test]
    fn adam_moves_params_against_gradient() {
        let mut mem = HashMap::new();
        mem.insert(BufferId(0), vec![1.0, -1.0]); // param
        mem.insert(BufferId(1), vec![0.5, -0.5]); // grad
        mem.insert(BufferId(2), vec![0.0, 0.0]); // m
        mem.insert(BufferId(3), vec![0.0, 0.0]); // v
        run(
            &KernelKind::AdamStep {
                param: BufferId(0),
                grad: BufferId(1),
                m: BufferId(2),
                v: BufferId(3),
                lr: 0.1,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                t: 1,
                weight_decay: 0.0,
            },
            &mut mem,
        );
        let p = mem[&BufferId(0)].clone();
        assert!(p[0] < 1.0);
        assert!(p[1] > -1.0);
        // Optimizer state must have been updated (JIT checkpointing cares
        // that this state is part of the persistent set).
        assert!(mem[&BufferId(2)][0] != 0.0);
        assert!(mem[&BufferId(3)][0] != 0.0);
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let mut mem = HashMap::new();
        mem.insert(BufferId(0), vec![0.0]);
        mem.insert(BufferId(1), vec![1.0]);
        mem.insert(BufferId(2), vec![0.0]);
        let k = KernelKind::SgdStep {
            param: BufferId(0),
            grad: BufferId(1),
            momentum: BufferId(2),
            lr: 0.1,
            mu: 0.9,
            weight_decay: 0.0,
        };
        run(&k, &mut mem);
        let p1 = mem[&BufferId(0)][0];
        run(&k, &mut mem);
        let p2 = mem[&BufferId(0)][0];
        // Second step moves further due to momentum.
        assert!((p2 - p1).abs() > p1.abs());
    }

    #[test]
    fn relu_roundtrip_gradients() {
        let mut mem = HashMap::new();
        mem.insert(BufferId(0), vec![-1.0, 2.0, -3.0, 4.0]);
        mem.insert(BufferId(1), vec![0.0; 4]);
        run(
            &KernelKind::Relu {
                x: BufferId(0),
                out: BufferId(1),
            },
            &mut mem,
        );
        assert_eq!(mem[&BufferId(1)], vec![0.0, 2.0, 0.0, 4.0]);
        mem.insert(BufferId(2), vec![1.0; 4]);
        mem.insert(BufferId(3), vec![0.0; 4]);
        run(
            &KernelKind::ReluBwd {
                x: BufferId(0),
                dy: BufferId(2),
                dx: BufferId(3),
            },
            &mut mem,
        );
        assert_eq!(mem[&BufferId(3)], vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn zero_fill_axpy_scale() {
        let mut mem = HashMap::new();
        mem.insert(BufferId(0), vec![1.0, 2.0]);
        mem.insert(BufferId(1), vec![10.0, 20.0]);
        run(
            &KernelKind::Axpy {
                alpha: 2.0,
                x: BufferId(0),
                y: BufferId(1),
            },
            &mut mem,
        );
        assert_eq!(mem[&BufferId(1)], vec![12.0, 24.0]);
        run(
            &KernelKind::Scale {
                alpha: 0.5,
                x: BufferId(1),
            },
            &mut mem,
        );
        assert_eq!(mem[&BufferId(1)], vec![6.0, 12.0]);
        run(&KernelKind::Zero { buf: BufferId(1) }, &mut mem);
        assert_eq!(mem[&BufferId(1)], vec![0.0, 0.0]);
        run(
            &KernelKind::Fill {
                buf: BufferId(1),
                value: 3.0,
            },
            &mut mem,
        );
        assert_eq!(mem[&BufferId(1)], vec![3.0, 3.0]);
    }

    #[test]
    fn kernel_codec_round_trip() {
        use simcore::codec::{decode_framed, encode_framed};
        let kernels = vec![
            KernelKind::MatMul {
                a: BufferId(1),
                b: BufferId(2),
                out: BufferId(3),
                m: 4,
                k: 5,
                n: 6,
                trans_a: true,
                trans_b: false,
            },
            KernelKind::AdamStep {
                param: BufferId(1),
                grad: BufferId(2),
                m: BufferId(3),
                v: BufferId(4),
                lr: 1e-3,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                t: 7,
                weight_decay: 0.01,
            },
            KernelKind::Zero { buf: BufferId(9) },
        ];
        for k in kernels {
            let framed = encode_framed(&k);
            let back: KernelKind = decode_framed(&framed).unwrap();
            assert_eq!(back, k);
        }
    }

    /// Number of kernel kinds [`kernel_of`] builds.
    pub(super) const KINDS: usize = 15;

    /// Kernel number `kind` over `ids` (one per role, in
    /// [`KernelKind::buffers`] order), `rows × cols = m × n`, scalars from
    /// `s` — the one place tests spell out every variant.
    pub(super) fn kernel_of(
        kind: usize,
        ids: &[BufferId],
        (m, k, n): (u32, u32, u32),
        (trans_a, trans_b): (bool, bool),
        s: [f32; 4],
    ) -> KernelKind {
        let (rows, cols) = (m, n);
        match kind {
            0 => KernelKind::MatMul {
                a: ids[0],
                b: ids[1],
                out: ids[2],
                m,
                k,
                n,
                trans_a,
                trans_b,
            },
            1 => KernelKind::BiasAdd {
                x: ids[0],
                bias: ids[1],
                rows,
                cols,
            },
            2 => KernelKind::BiasGrad {
                dy: ids[0],
                dbias: ids[1],
                rows,
                cols,
            },
            3 => KernelKind::Relu {
                x: ids[0],
                out: ids[1],
            },
            4 => KernelKind::ReluBwd {
                x: ids[0],
                dy: ids[1],
                dx: ids[2],
            },
            5 => KernelKind::SoftmaxXentFwd {
                logits: ids[0],
                labels: ids[1],
                probs: ids[2],
                loss: ids[3],
                rows,
                cols,
            },
            6 => KernelKind::SoftmaxXentBwd {
                probs: ids[0],
                labels: ids[1],
                dlogits: ids[2],
                rows,
                cols,
            },
            7 => KernelKind::LayerNormFwd {
                x: ids[0],
                gamma: ids[1],
                beta: ids[2],
                out: ids[3],
                mean: ids[4],
                rstd: ids[5],
                rows,
                cols,
            },
            8 => KernelKind::LayerNormBwd {
                x: ids[0],
                gamma: ids[1],
                dy: ids[2],
                mean: ids[3],
                rstd: ids[4],
                dx: ids[5],
                dgamma: ids[6],
                dbeta: ids[7],
                rows,
                cols,
            },
            9 => KernelKind::Zero { buf: ids[0] },
            10 => KernelKind::Fill {
                buf: ids[0],
                value: s[0],
            },
            11 => KernelKind::Axpy {
                alpha: s[0],
                x: ids[0],
                y: ids[1],
            },
            12 => KernelKind::Scale {
                alpha: s[0],
                x: ids[0],
            },
            13 => KernelKind::SgdStep {
                param: ids[0],
                grad: ids[1],
                momentum: ids[2],
                lr: s[0],
                mu: s[1],
                weight_decay: s[2],
            },
            _ => KernelKind::AdamStep {
                param: ids[0],
                grad: ids[1],
                m: ids[2],
                v: ids[3],
                lr: s[0],
                beta1: s[1],
                beta2: s[2],
                eps: 1e-8,
                t: 1 + k,
                weight_decay: s[3],
            },
        }
    }

    /// Payload length each role of `kernel_of(kind, ..)` expects.
    pub(super) fn role_lens(kind: usize, (m, k, n): (u32, u32, u32)) -> Vec<usize> {
        let (m, k, n) = (m as usize, k as usize, n as usize);
        let all = m * n;
        match kind {
            0 => vec![m * k, k * n, all],
            1 | 2 => vec![all, n],
            3 | 11 => vec![all; 2],
            4 | 13 => vec![all; 3],
            5 => vec![all, m, all, 1],
            6 => vec![all, m, all],
            7 => vec![all, n, n, all, m, m],
            8 => vec![all, n, all, m, m, all, n, n],
            9 | 10 | 12 => vec![all],
            _ => vec![all; 4],
        }
    }

    #[test]
    fn operands_are_every_role_in_declaration_order() {
        let ids: Vec<BufferId> = (1..=8).map(BufferId).collect();
        for kind in 0..KINDS {
            let mut k = kernel_of(kind, &ids, (2, 2, 2), (false, false), [0.1, 0.9, 0.99, 0.0]);
            let roles = role_lens(kind, (2, 2, 2)).len();
            assert_eq!(k.buffers(), ids[..roles], "roles of {k:?}");
            // Writing through the table renames exactly the operands.
            for id in k.operands_mut() {
                id.0 += 100;
            }
            let renamed: Vec<BufferId> = ids.iter().map(|id| BufferId(id.0 + 100)).collect();
            let expect = kernel_of(
                kind,
                &renamed,
                (2, 2, 2),
                (false, false),
                [0.1, 0.9, 0.99, 0.0],
            );
            assert_eq!(k, expect);
        }
    }

    #[test]
    fn flops_scale_with_phantom_factor() {
        let k = KernelKind::MatMul {
            a: BufferId(0),
            b: BufferId(1),
            out: BufferId(2),
            m: 10,
            k: 10,
            n: 10,
            trans_a: false,
            trans_b: false,
        };
        assert!((k.flops(1.0) - 2000.0).abs() < 1e-9);
        assert!((k.flops(100.0) - 200_000.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod layernorm_tests {
    use super::tests::run;
    use super::*;

    fn ln_forward(x: &[f32], g: &[f32], b: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut mem = HashMap::new();
        mem.insert(BufferId(0), x.to_vec());
        mem.insert(BufferId(1), g.to_vec());
        mem.insert(BufferId(2), b.to_vec());
        mem.insert(BufferId(3), vec![0.0; rows * cols]);
        mem.insert(BufferId(4), vec![0.0; rows]);
        mem.insert(BufferId(5), vec![0.0; rows]);
        run(
            &KernelKind::LayerNormFwd {
                x: BufferId(0),
                gamma: BufferId(1),
                beta: BufferId(2),
                out: BufferId(3),
                mean: BufferId(4),
                rstd: BufferId(5),
                rows: rows as u32,
                cols: cols as u32,
            },
            &mut mem,
        );
        mem[&BufferId(3)].clone()
    }

    #[test]
    fn layernorm_output_has_zero_mean_unit_variance() {
        let x = vec![1.0, 2.0, 3.0, 4.0, -2.0, 0.0, 2.0, 4.0];
        let out = ln_forward(&x, &[1.0; 4], &[0.0; 4], 2, 4);
        for r in 0..2 {
            let row = &out[r * 4..(r + 1) * 4];
            let m: f32 = row.iter().sum::<f32>() / 4.0;
            let v: f32 = row.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / 4.0;
            assert!(m.abs() < 1e-5, "mean {m}");
            assert!((v - 1.0).abs() < 1e-3, "var {v}");
        }
    }

    #[test]
    fn layernorm_gamma_beta_apply_affine() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let plain = ln_forward(&x, &[1.0; 4], &[0.0; 4], 1, 4);
        let scaled = ln_forward(&x, &[2.0; 4], &[0.5; 4], 1, 4);
        for (p, s) in plain.iter().zip(&scaled) {
            assert!((s - (2.0 * p + 0.5)).abs() < 1e-5);
        }
    }

    #[test]
    fn layernorm_backward_matches_finite_differences() {
        // Scalar objective L = Σ w ⊙ LN(x); check dL/dx, dL/dγ, dL/dβ
        // against central differences.
        let rows = 2usize;
        let cols = 4usize;
        let x: Vec<f32> = vec![0.5, -1.0, 2.0, 0.25, 1.5, 0.0, -0.75, 1.0];
        let g: Vec<f32> = vec![1.2, 0.8, -0.5, 1.0];
        let b: Vec<f32> = vec![0.1, -0.2, 0.3, 0.0];
        let w: Vec<f32> = vec![1.0, -2.0, 0.5, 1.5, -1.0, 2.0, 0.25, -0.5];
        let loss = |x: &[f32], g: &[f32], b: &[f32]| -> f64 {
            ln_forward(x, g, b, rows, cols)
                .iter()
                .zip(&w)
                .map(|(o, wi)| (*o as f64) * (*wi as f64))
                .sum()
        };
        // Analytic gradients.
        let mut mem = HashMap::new();
        mem.insert(BufferId(0), x.clone());
        mem.insert(BufferId(1), g.clone());
        mem.insert(BufferId(2), b.clone());
        mem.insert(BufferId(3), vec![0.0; rows * cols]);
        mem.insert(BufferId(4), vec![0.0; rows]);
        mem.insert(BufferId(5), vec![0.0; rows]);
        run(
            &KernelKind::LayerNormFwd {
                x: BufferId(0),
                gamma: BufferId(1),
                beta: BufferId(2),
                out: BufferId(3),
                mean: BufferId(4),
                rstd: BufferId(5),
                rows: rows as u32,
                cols: cols as u32,
            },
            &mut mem,
        );
        mem.insert(BufferId(6), w.clone()); // dy = w
        mem.insert(BufferId(7), vec![0.0; rows * cols]);
        mem.insert(BufferId(8), vec![0.0; cols]);
        mem.insert(BufferId(9), vec![0.0; cols]);
        run(
            &KernelKind::LayerNormBwd {
                x: BufferId(0),
                gamma: BufferId(1),
                dy: BufferId(6),
                mean: BufferId(4),
                rstd: BufferId(5),
                dx: BufferId(7),
                dgamma: BufferId(8),
                dbeta: BufferId(9),
                rows: rows as u32,
                cols: cols as u32,
            },
            &mut mem,
        );
        let eps = 1e-3f32;
        let check = |analytic: &[f32], mut perturb: Box<dyn FnMut(usize, f32) -> f64>| {
            for (i, a) in analytic.iter().enumerate() {
                let plus = perturb(i, eps);
                let minus = perturb(i, -eps);
                let numeric = (plus - minus) / (2.0 * eps as f64);
                assert!(
                    (numeric - *a as f64).abs() < 2e-2_f64.max(numeric.abs() * 0.02),
                    "idx {i}: analytic {a} vs numeric {numeric}"
                );
            }
        };
        let dx = mem[&BufferId(7)].clone();
        let (x2, g2, b2) = (x.clone(), g.clone(), b.clone());
        check(
            &dx,
            Box::new(move |i, d| {
                let mut xp = x2.clone();
                xp[i] += d;
                loss(&xp, &g2, &b2)
            }),
        );
        let dg = mem[&BufferId(8)].clone();
        let (x3, g3, b3) = (x.clone(), g.clone(), b.clone());
        check(
            &dg,
            Box::new(move |i, d| {
                let mut gp = g3.clone();
                gp[i] += d;
                loss(&x3, &gp, &b3)
            }),
        );
        let db = mem[&BufferId(9)].clone();
        check(
            &db,
            Box::new(move |i, d| {
                let mut bp = b.clone();
                bp[i] += d;
                loss(&x, &g, &bp)
            }),
        );
    }

    #[test]
    fn layernorm_codec_round_trip() {
        use simcore::codec::{decode_framed, encode_framed};
        let k = KernelKind::LayerNormBwd {
            x: BufferId(1),
            gamma: BufferId(2),
            dy: BufferId(3),
            mean: BufferId(4),
            rstd: BufferId(5),
            dx: BufferId(6),
            dgamma: BufferId(7),
            dbeta: BufferId(8),
            rows: 3,
            cols: 9,
        };
        let framed = encode_framed(&k);
        let back: KernelKind = decode_framed(&framed).unwrap();
        assert_eq!(back, k);
    }
}

#[cfg(test)]
mod oracle_tests {
    //! The in-place kernels against the protocol they replaced: same
    //! outputs to the bit (`to_bits`, so NaN payloads and the sign of zero
    //! count), same error, and nothing written when a launch fails.

    use super::oracle::{self, Mem};
    use super::tests::{kernel_of, role_lens, try_run, KINDS};
    use super::*;
    use proptest::prelude::*;
    use simcore::rng::DetRng;

    /// ±0, ±inf, quiet NaNs of both signs, a NaN with a payload, a
    /// signalling NaN, the smallest and the largest subnormal, the
    /// smallest normal and the largest finite value.
    const SPECIALS: [u32; 12] = [
        0x0000_0000,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0xffc0_0000,
        0x7fc1_2345,
        0x7f80_0001,
        0x0000_0001,
        0x807f_ffff,
        0x0080_0000,
        0x7f7f_ffff,
    ];

    /// Ordinary magnitudes — where a reordered sum rounds differently —
    /// with one value in eight taken from [`SPECIALS`] when asked.
    fn payload(rng: &mut DetRng, len: usize, specials: bool) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if specials && rng.below(8) == 0 {
                    f32::from_bits(SPECIALS[rng.below(SPECIALS.len() as u64) as usize])
                } else {
                    rng.uniform_symmetric(4.0)
                }
            })
            .collect()
    }

    /// Bit patterns, with every NaN folded onto one. Which operand's sign
    /// and payload a NaN result inherits is the one thing the source does
    /// not fix: IEEE 754 leaves it open, x86 takes the first operand's,
    /// and the compiler is free to commute `a + b` — the vectorised release
    /// build does, the debug build does not. Within one binary a replay
    /// makes the same choice as the original, which is all recovery needs.
    fn bits(data: &[f32]) -> Vec<u32> {
        data.iter()
            .map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() })
            .collect()
    }

    /// Fails unless the in-place launch and the oracle agree on `mem`.
    fn agree(kernel: &KernelKind, mem: &Mem) -> Result<(), String> {
        let want = oracle::launch(kernel, mem);
        let mut got = mem.clone();
        let outcome = try_run(kernel, &mut got);
        match (want, outcome) {
            (Ok(want), Ok(())) => {
                for (id, w) in &want {
                    let (w, g) = (bits(w), bits(&got[id]));
                    if let Some(i) = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i)) {
                        return Err(format!(
                            "{kernel:?}: {id}[{i}] is {:x?}, the oracle has {:x?}",
                            g.get(i),
                            w.get(i)
                        ));
                    }
                }
                Ok(())
            }
            (Err(w), Err(g)) if w == g => {
                let untouched = mem.iter().all(|(id, d)| bits(d) == bits(&got[id]));
                if untouched {
                    Ok(())
                } else {
                    Err(format!("{kernel:?}: failed launch wrote to memory"))
                }
            }
            (w, g) => Err(format!(
                "{kernel:?}: oracle {:?}, in place {g:?}",
                w.map(|_| ())
            )),
        }
    }

    /// Roles the oracle indexes without checking, so a wrong length there
    /// is a panic in the oracle, not a result to compare with.
    fn unchecked_roles(kind: usize) -> &'static [usize] {
        match kind {
            6 => &[0, 1],
            8 => &[1, 3, 4],
            _ => &[],
        }
    }

    /// The role holding class labels, which must stay valid indices.
    fn label_role(kind: usize) -> Option<usize> {
        matches!(kind, 5 | 6).then_some(1)
    }

    /// One launch and the memory it runs on: any kernel, dimensions from 0
    /// up, one launch in four naming a buffer in two roles and one in
    /// eight finding a buffer of the wrong length.
    fn case(seed: u64, specials: bool) -> (KernelKind, Mem) {
        let mut rng = DetRng::new(seed);
        let kind = rng.below(KINDS as u64) as usize;
        let mut dim = || match rng.below(8) {
            0 => 0,
            1 => 1,
            _ => 1 + rng.below(19) as u32,
        };
        let (m, k, mut n) = (dim(), dim(), dim());
        if kind == 6 {
            n = n.max(1);
        }
        let mut lens = role_lens(kind, (m, k, n));
        let mut ids: Vec<BufferId> = (1..=lens.len() as u64).map(BufferId).collect();
        if rng.below(8) == 0 {
            let role = rng.below(lens.len() as u64) as usize;
            if !unchecked_roles(kind).contains(&role) {
                lens[role] = if rng.below(2) == 0 {
                    lens[role] + 1
                } else {
                    lens[role].saturating_sub(1)
                };
            }
        }
        if rng.below(4) == 0 {
            let (i, j) = (
                rng.below(lens.len() as u64) as usize,
                rng.below(lens.len() as u64) as usize,
            );
            if lens[i] == lens[j] && label_role(kind) != Some(i) && label_role(kind) != Some(j) {
                ids[j] = ids[i];
            }
        }
        let mut mem = Mem::new();
        for (role, (&id, &len)) in ids.iter().zip(&lens).enumerate() {
            let data = if label_role(kind) == Some(role) {
                // In range, except that the forward kernel — which checks —
                // sometimes meets a label one past the last class.
                let past = u64::from(kind == 5 && rng.below(8) == 0);
                (0..len)
                    .map(|_| rng.below(u64::from(n).max(1) + past) as f32)
                    .collect()
            } else {
                payload(&mut rng, len, specials)
            };
            mem.entry(id).or_insert(data);
        }
        let s = [
            rng.uniform_symmetric(1.0),
            rng.uniform_symmetric(1.0),
            rng.uniform_symmetric(1.0),
            rng.uniform_symmetric(0.1),
        ];
        let trans = (rng.below(2) == 0, rng.below(2) == 0);
        (kernel_of(kind, &ids, (m, k, n), trans, s), mem)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        #[test]
        fn every_kernel_matches_the_oracle(seed in any::<u64>(), specials in any::<bool>()) {
            let (kernel, mem) = case(seed, specials);
            agree(&kernel, &mem)?;
        }
    }

    #[test]
    fn matmul_matches_the_oracle_on_every_transpose_and_shape() -> Result<(), String> {
        // m = 1, k = 1, n = 1, widths that are no multiple of a vector or
        // of the column block, an inner dimension that crosses the tile
        // depth, and the benchmark's four shapes.
        let shapes = [
            (1, 1, 1),
            (1, 7, 5),
            (3, 1, 9),
            (5, 9, 1),
            (2, 3, 13),
            (9, 70, 9),
            (3, 129, 17),
            (8, 256, 1024),
            (256, 8, 1024),
            (8, 1024, 256),
            (1, 512, 2048),
        ];
        let ids = [BufferId(1), BufferId(2), BufferId(3)];
        let mut rng = DetRng::new(16);
        for (m, k, n) in shapes {
            for specials in [false, true] {
                let mut mem = Mem::new();
                mem.insert(ids[0], payload(&mut rng, m * k, specials));
                mem.insert(ids[1], payload(&mut rng, k * n, specials));
                mem.insert(ids[2], payload(&mut rng, m * n, specials));
                for trans in [(false, false), (true, false), (false, true), (true, true)] {
                    let dims = (m as u32, k as u32, n as u32);
                    agree(&kernel_of(0, &ids, dims, trans, [0.0; 4]), &mem)?;
                }
            }
        }
        Ok(())
    }

    #[test]
    fn a_buffer_named_twice_sees_pre_launch_contents() -> Result<(), String> {
        let mut rng = DetRng::new(61);
        let (x, y) = (BufferId(1), BufferId(2));
        let mut mem = Mem::new();
        mem.insert(x, payload(&mut rng, 36, true));
        mem.insert(y, payload(&mut rng, 36, false));
        let s = [0.75, 0.9, 0.99, 0.01];
        let square = (6, 6, 6);
        for kernel in [
            kernel_of(11, &[x, x], square, (false, false), s), // Axpy { x == y }
            kernel_of(3, &[x, x], square, (false, false), s),  // Relu { x == out }
            kernel_of(0, &[x, x, y], square, (false, true), s), // MatMul { a == b }
            kernel_of(0, &[x, y, x], square, (true, false), s), // MatMul { a == out }
            kernel_of(4, &[y, x, x], square, (false, false), s), // ReluBwd { dy == dx }
            kernel_of(13, &[x, x, y], square, (false, false), s), // Sgd { param == grad }
            kernel_of(14, &[x, y, y, y], square, (false, false), s), // Adam { grad == m == v }
        ] {
            agree(&kernel, &mem)?;
        }
        Ok(())
    }

    /// Asserts the launch is refused with a typed error before any store.
    fn refused(kernel: &KernelKind, mem: &Mem) {
        let mut got = mem.clone();
        let outcome = try_run(kernel, &mut got);
        assert!(matches!(outcome, Err(SimError::Protocol(_))), "{outcome:?}");
        for (id, data) in mem {
            assert_eq!(bits(data), bits(&got[id]), "{id} changed");
        }
    }

    /// A 2×3 softmax backward launch with one buffer swapped out.
    fn softmax_bwd_with(role: usize, data: Vec<f32>) -> (KernelKind, Mem) {
        let ids = [BufferId(1), BufferId(2), BufferId(3)];
        let mut mem = Mem::new();
        mem.insert(ids[0], vec![0.2, 0.3, 0.5, 0.1, 0.1, 0.8]);
        mem.insert(ids[1], vec![2.0, 0.0]);
        mem.insert(ids[2], vec![7.0; 6]);
        mem.insert(ids[role], data);
        (kernel_of(6, &ids, (2, 0, 3), (false, false), [0.0; 4]), mem)
    }

    #[test]
    fn softmax_bwd_refuses_a_label_past_the_last_class() {
        // Used to decrement an element of the next row.
        let (kernel, mem) = softmax_bwd_with(1, vec![3.0, 0.0]);
        refused(&kernel, &mem);
    }

    #[test]
    fn softmax_bwd_refuses_probs_of_the_wrong_length() {
        let (kernel, mem) = softmax_bwd_with(0, vec![0.5; 5]);
        refused(&kernel, &mem);
    }

    #[test]
    fn softmax_bwd_refuses_labels_of_the_wrong_length() {
        let (kernel, mem) = softmax_bwd_with(1, vec![1.0]);
        refused(&kernel, &mem);
    }

    /// A 2×3 layer-norm backward launch with one buffer swapped out.
    fn layernorm_bwd_with(role: usize, data: Vec<f32>) -> (KernelKind, Mem) {
        let ids: Vec<BufferId> = (1..=8).map(BufferId).collect();
        let lens = role_lens(8, (2, 0, 3));
        let mut mem = Mem::new();
        for (&id, &len) in ids.iter().zip(&lens) {
            mem.insert(id, vec![0.5; len]);
        }
        mem.insert(ids[role], data);
        (kernel_of(8, &ids, (2, 0, 3), (false, false), [0.0; 4]), mem)
    }

    #[test]
    fn layernorm_bwd_refuses_gamma_of_the_wrong_length() {
        let (kernel, mem) = layernorm_bwd_with(1, vec![1.0; 2]);
        refused(&kernel, &mem);
    }

    #[test]
    fn layernorm_bwd_refuses_mean_of_the_wrong_length() {
        let (kernel, mem) = layernorm_bwd_with(3, vec![0.0; 1]);
        refused(&kernel, &mem);
    }

    #[test]
    fn layernorm_bwd_refuses_rstd_of_the_wrong_length() {
        let (kernel, mem) = layernorm_bwd_with(4, vec![1.0; 3]);
        refused(&kernel, &mem);
    }

    #[test]
    fn the_valid_backward_launches_are_accepted() -> Result<(), String> {
        // The fixtures above differ from these only in the swapped buffer.
        let (kernel, mem) = softmax_bwd_with(1, vec![2.0, 0.0]);
        agree(&kernel, &mem)?;
        let (kernel, mem) = layernorm_bwd_with(1, vec![1.0; 3]);
        agree(&kernel, &mem)?;
        Ok(())
    }
}
