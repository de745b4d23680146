//! Logged operations and the virtual-handle map.
//!
//! The interception layer hands the application **virtual** buffer,
//! stream, and event handles; the [`VirtualMap`] translates them to the
//! physical handles of the current proxy-server epoch. When recovery
//! restarts the server, physical handles change — but "we cannot change
//! the handles already held in application variables", so recovery
//! re-creates the objects and *rebinds* the same virtual ids (§4.2.1).
//!
//! A [`LoggedOp`] is one entry in the replay or creation log: the call
//! with its (virtual) ids, its input values, and — for object-creating
//! calls — the virtual id that was handed out, so replay can rebind it.

use crate::executor::CommToken;
use collectives::ReduceOp;
use serde::{Deserialize, Serialize};
use simcore::{RankId, SimError, SimResult};
use simgpu::{BufferId, DeviceCall, EventId, StreamId};
use std::collections::HashMap;

/// A collective operation as recorded in the replay log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoggedColl {
    /// In-place all-reduce of a buffer.
    AllReduce {
        /// Communicator token.
        comm: CommToken,
        /// Operation sequence number on the communicator.
        gen: u64,
        /// Buffer (virtual).
        buf: BufferId,
        /// Reduction op.
        op: ReduceOp,
    },
    /// All-gather from `src` into `dst`.
    AllGather {
        /// Communicator token.
        comm: CommToken,
        /// Operation sequence number on the communicator.
        gen: u64,
        /// Source shard (virtual).
        src: BufferId,
        /// Gathered destination (virtual).
        dst: BufferId,
    },
    /// Reduce-scatter from `src` into shard `dst`.
    ReduceScatter {
        /// Communicator token.
        comm: CommToken,
        /// Operation sequence number on the communicator.
        gen: u64,
        /// Full-size source (virtual).
        src: BufferId,
        /// Shard destination (virtual).
        dst: BufferId,
        /// Reduction op.
        op: ReduceOp,
    },
    /// Broadcast of `buf` from `root`.
    Broadcast {
        /// Communicator token.
        comm: CommToken,
        /// Operation sequence number on the communicator.
        gen: u64,
        /// Root rank.
        root: RankId,
        /// Buffer (virtual).
        buf: BufferId,
    },
    /// Barrier.
    Barrier {
        /// Communicator token.
        comm: CommToken,
        /// Operation sequence number on the communicator.
        gen: u64,
    },
}

impl LoggedColl {
    /// Replay-log record version. Replay logs written before a failure
    /// are read during recovery of the restarted proxy server (§4.1), so
    /// variant or field changes must bump this alongside
    /// [`LoggedOp::SCHEMA_VERSION`].
    pub const SCHEMA_VERSION: u16 = 1;
}

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoggedOp {
    /// A device API call (ids are virtual). `result_vid` is the virtual id
    /// handed to the application for object-creating calls.
    Device {
        /// The call with virtual ids.
        call: DeviceCall,
        /// Virtual id returned to the application, if any.
        result_vid: Option<u64>,
    },
    /// A collective operation.
    Collective(LoggedColl),
    /// A p2p send.
    Send {
        /// Destination rank.
        dst: RankId,
        /// Tag.
        tag: u64,
        /// Sender's minibatch iteration (deterministic pairing key).
        seq: u64,
        /// Buffer sent (virtual).
        buf: BufferId,
        /// Intra-node transfer.
        same_node: bool,
    },
    /// A p2p receive.
    Recv {
        /// Source rank.
        src: RankId,
        /// Tag.
        tag: u64,
        /// Sender's minibatch iteration.
        seq: u64,
        /// Destination buffer (virtual).
        buf: BufferId,
    },
}

impl LoggedOp {
    /// Replay-log record version; see [`LoggedColl::SCHEMA_VERSION`].
    pub const SCHEMA_VERSION: u16 = 1;
}

/// Virtual→physical handle translation for one rank.
#[derive(Debug, Default)]
pub struct VirtualMap {
    buf: HashMap<u64, BufferId>,
    stream: HashMap<u64, StreamId>,
    event: HashMap<u64, EventId>,
    next: u64,
}

impl VirtualMap {
    /// Creates an empty map. Virtual ids start at a high base so that
    /// accidentally passing a physical id through translation fails fast.
    pub fn new() -> Self {
        VirtualMap {
            buf: HashMap::new(),
            stream: HashMap::new(),
            event: HashMap::new(),
            next: 1 << 32,
        }
    }

    fn fresh(&mut self) -> u64 {
        let v = self.next;
        self.next += 1;
        v
    }

    /// Registers a new physical buffer, returning its virtual handle.
    pub fn bind_buffer(&mut self, phys: BufferId) -> BufferId {
        let v = self.fresh();
        self.buf.insert(v, phys);
        BufferId(v)
    }

    /// Registers a new physical stream.
    pub fn bind_stream(&mut self, phys: StreamId) -> StreamId {
        let v = self.fresh();
        self.stream.insert(v, phys);
        StreamId(v)
    }

    /// Registers a new physical event.
    pub fn bind_event(&mut self, phys: EventId) -> EventId {
        let v = self.fresh();
        self.event.insert(v, phys);
        EventId(v)
    }

    /// Rebinds an existing virtual buffer to a new physical one (after
    /// server restart + object recreation).
    pub fn rebind_buffer(&mut self, virt: BufferId, phys: BufferId) {
        self.buf.insert(virt.0, phys);
    }

    /// Rebinds an existing virtual stream.
    pub fn rebind_stream(&mut self, virt: StreamId, phys: StreamId) {
        self.stream.insert(virt.0, phys);
    }

    /// Rebinds an existing virtual event.
    pub fn rebind_event(&mut self, virt: EventId, phys: EventId) {
        self.event.insert(virt.0, phys);
    }

    /// Resolves a virtual buffer handle.
    pub fn buffer(&self, virt: BufferId) -> SimResult<BufferId> {
        self.buf
            .get(&virt.0)
            .copied()
            .ok_or_else(|| SimError::InvalidHandle(format!("virtual {virt}")))
    }

    /// Resolves a virtual stream handle.
    pub fn stream(&self, virt: StreamId) -> SimResult<StreamId> {
        self.stream
            .get(&virt.0)
            .copied()
            .ok_or_else(|| SimError::InvalidHandle(format!("virtual {virt}")))
    }

    /// Resolves a virtual event handle.
    pub fn event(&self, virt: EventId) -> SimResult<EventId> {
        self.event
            .get(&virt.0)
            .copied()
            .ok_or_else(|| SimError::InvalidHandle(format!("virtual {virt}")))
    }

    /// Forgets a virtual buffer (after Free commits).
    pub fn unbind_buffer(&mut self, virt: BufferId) {
        self.buf.remove(&virt.0);
    }

    /// Translates a call with virtual ids into one with physical ids.
    pub fn to_physical(&self, call: &DeviceCall) -> SimResult<DeviceCall> {
        use simgpu::KernelKind as K;
        Ok(match call {
            DeviceCall::Malloc { .. } | DeviceCall::StreamCreate | DeviceCall::EventCreate => {
                call.clone()
            }
            DeviceCall::Free { buf } => DeviceCall::Free {
                buf: self.buffer(*buf)?,
            },
            DeviceCall::Upload { buf, data } => DeviceCall::Upload {
                buf: self.buffer(*buf)?,
                data: data.clone(),
            },
            DeviceCall::Download { buf } => DeviceCall::Download {
                buf: self.buffer(*buf)?,
            },
            DeviceCall::CopyD2D { src, dst } => DeviceCall::CopyD2D {
                src: self.buffer(*src)?,
                dst: self.buffer(*dst)?,
            },
            DeviceCall::Launch { stream, kernel } => {
                let b = |id: &BufferId| self.buffer(*id);
                let kernel = match kernel {
                    K::MatMul {
                        a,
                        b: bb,
                        out,
                        m,
                        k,
                        n,
                        trans_a,
                        trans_b,
                    } => K::MatMul {
                        a: b(a)?,
                        b: b(bb)?,
                        out: b(out)?,
                        m: *m,
                        k: *k,
                        n: *n,
                        trans_a: *trans_a,
                        trans_b: *trans_b,
                    },
                    K::BiasAdd {
                        x,
                        bias,
                        rows,
                        cols,
                    } => K::BiasAdd {
                        x: b(x)?,
                        bias: b(bias)?,
                        rows: *rows,
                        cols: *cols,
                    },
                    K::BiasGrad {
                        dy,
                        dbias,
                        rows,
                        cols,
                    } => K::BiasGrad {
                        dy: b(dy)?,
                        dbias: b(dbias)?,
                        rows: *rows,
                        cols: *cols,
                    },
                    K::Relu { x, out } => K::Relu {
                        x: b(x)?,
                        out: b(out)?,
                    },
                    K::ReluBwd { x, dy, dx } => K::ReluBwd {
                        x: b(x)?,
                        dy: b(dy)?,
                        dx: b(dx)?,
                    },
                    K::SoftmaxXentFwd {
                        logits,
                        labels,
                        probs,
                        loss,
                        rows,
                        cols,
                    } => K::SoftmaxXentFwd {
                        logits: b(logits)?,
                        labels: b(labels)?,
                        probs: b(probs)?,
                        loss: b(loss)?,
                        rows: *rows,
                        cols: *cols,
                    },
                    K::SoftmaxXentBwd {
                        probs,
                        labels,
                        dlogits,
                        rows,
                        cols,
                    } => K::SoftmaxXentBwd {
                        probs: b(probs)?,
                        labels: b(labels)?,
                        dlogits: b(dlogits)?,
                        rows: *rows,
                        cols: *cols,
                    },
                    K::LayerNormFwd {
                        x,
                        gamma,
                        beta,
                        out,
                        mean,
                        rstd,
                        rows,
                        cols,
                    } => K::LayerNormFwd {
                        x: b(x)?,
                        gamma: b(gamma)?,
                        beta: b(beta)?,
                        out: b(out)?,
                        mean: b(mean)?,
                        rstd: b(rstd)?,
                        rows: *rows,
                        cols: *cols,
                    },
                    K::LayerNormBwd {
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
                    } => K::LayerNormBwd {
                        x: b(x)?,
                        gamma: b(gamma)?,
                        dy: b(dy)?,
                        mean: b(mean)?,
                        rstd: b(rstd)?,
                        dx: b(dx)?,
                        dgamma: b(dgamma)?,
                        dbeta: b(dbeta)?,
                        rows: *rows,
                        cols: *cols,
                    },
                    K::Zero { buf } => K::Zero { buf: b(buf)? },
                    K::Fill { buf, value } => K::Fill {
                        buf: b(buf)?,
                        value: *value,
                    },
                    K::Axpy { alpha, x, y } => K::Axpy {
                        alpha: *alpha,
                        x: b(x)?,
                        y: b(y)?,
                    },
                    K::Scale { alpha, x } => K::Scale {
                        alpha: *alpha,
                        x: b(x)?,
                    },
                    K::SgdStep {
                        param,
                        grad,
                        momentum,
                        lr,
                        mu,
                        weight_decay,
                    } => K::SgdStep {
                        param: b(param)?,
                        grad: b(grad)?,
                        momentum: b(momentum)?,
                        lr: *lr,
                        mu: *mu,
                        weight_decay: *weight_decay,
                    },
                    K::AdamStep {
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
                    } => K::AdamStep {
                        param: b(param)?,
                        grad: b(grad)?,
                        m: b(m)?,
                        v: b(v)?,
                        lr: *lr,
                        beta1: *beta1,
                        beta2: *beta2,
                        eps: *eps,
                        t: *t,
                        weight_decay: *weight_decay,
                    },
                };
                DeviceCall::Launch {
                    stream: self.stream(*stream)?,
                    kernel,
                }
            }
            DeviceCall::StreamDestroy { stream } => DeviceCall::StreamDestroy {
                stream: self.stream(*stream)?,
            },
            DeviceCall::EventDestroy { event } => DeviceCall::EventDestroy {
                event: self.event(*event)?,
            },
            DeviceCall::EventRecord { stream, event } => DeviceCall::EventRecord {
                stream: self.stream(*stream)?,
                event: self.event(*event)?,
            },
            DeviceCall::StreamWaitEvent { stream, event } => DeviceCall::StreamWaitEvent {
                stream: self.stream(*stream)?,
                event: self.event(*event)?,
            },
            DeviceCall::EventQuery { event } => DeviceCall::EventQuery {
                event: self.event(*event)?,
            },
            DeviceCall::StreamSync { stream } => DeviceCall::StreamSync {
                stream: self.stream(*stream)?,
            },
            DeviceCall::DeviceSync => DeviceCall::DeviceSync,
        })
    }

    /// Number of live virtual bindings (diagnostics).
    pub fn bindings(&self) -> (usize, usize, usize) {
        (self.buf.len(), self.stream.len(), self.event.len())
    }

    /// Drops every binding whose virtual id is not in `keep` — called
    /// after a proxy-server restart or GPU migration, when all physical
    /// objects died with the context and only the re-created persistent
    /// objects have valid bindings (replay re-binds the rest as it
    /// re-executes their creation calls).
    pub fn retain_vids(&mut self, keep: &std::collections::HashSet<u64>) {
        self.buf.retain(|v, _| keep.contains(v));
        self.stream.retain(|v, _| keep.contains(v));
        self.event.retain(|v, _| keep.contains(v));
    }

    /// All live virtual buffer ids, sorted (used to key state checksums by
    /// virtual identity, which is stable across replay).
    pub fn buffer_vids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.buf.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::KernelKind;

    #[test]
    fn bind_and_translate_buffer_calls() -> SimResult<()> {
        let mut m = VirtualMap::new();
        let v = m.bind_buffer(BufferId(7));
        assert!(v.0 >= 1 << 32, "virtual ids live in a distinct range");
        let call = DeviceCall::Download { buf: v };
        let phys = m.to_physical(&call)?;
        assert_eq!(phys, DeviceCall::Download { buf: BufferId(7) });
        Ok(())
    }

    #[test]
    fn rebinding_redirects_without_changing_virtual_id() -> SimResult<()> {
        let mut m = VirtualMap::new();
        let v = m.bind_buffer(BufferId(1));
        m.rebind_buffer(v, BufferId(99));
        assert_eq!(m.buffer(v)?, BufferId(99));
        Ok(())
    }

    #[test]
    fn unknown_virtual_handle_errors() {
        let m = VirtualMap::new();
        assert!(m.buffer(BufferId(12345)).is_err());
        assert!(m.stream(StreamId(1)).is_err());
        assert!(m.event(EventId(1)).is_err());
    }

    #[test]
    fn kernel_translation_maps_every_buffer() -> SimResult<()> {
        let mut m = VirtualMap::new();
        let va = m.bind_buffer(BufferId(1));
        let vb = m.bind_buffer(BufferId(2));
        let vo = m.bind_buffer(BufferId(3));
        let vs = m.bind_stream(StreamId(10));
        let call = DeviceCall::Launch {
            stream: vs,
            kernel: KernelKind::MatMul {
                a: va,
                b: vb,
                out: vo,
                m: 2,
                k: 2,
                n: 2,
                trans_a: false,
                trans_b: false,
            },
        };
        match m.to_physical(&call)? {
            DeviceCall::Launch { stream, kernel } => {
                assert_eq!(stream, StreamId(10));
                assert_eq!(
                    kernel.buffers(),
                    vec![BufferId(1), BufferId(2), BufferId(3)]
                );
            }
            other => {
                return Err(SimError::Protocol(format!(
                    "unexpected translated call {other:?}"
                )))
            }
        }
        Ok(())
    }

    #[test]
    fn unbind_removes_bindings() {
        let mut m = VirtualMap::new();
        let v = m.bind_buffer(BufferId(1));
        m.unbind_buffer(v);
        assert!(m.buffer(v).is_err());
        assert_eq!(m.bindings(), (0, 0, 0));
    }
}

// ---------------------------------------------------------------------
// Wire format: the replay log is part of the worker's CPU state, so a
// CRIU image must serialize it (§4.3 — the restored worker resumes with
// its interception state intact).
// ---------------------------------------------------------------------

use simcore::codec::{Decode, Encode};

impl Encode for LoggedColl {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        match self {
            LoggedColl::AllReduce {
                comm,
                gen,
                buf: b,
                op,
            } => {
                0u8.encode(buf);
                comm.0.encode(buf);
                gen.encode(buf);
                b.encode(buf);
                encode_reduce_op(*op, buf);
            }
            LoggedColl::AllGather {
                comm,
                gen,
                src,
                dst,
            } => {
                1u8.encode(buf);
                comm.0.encode(buf);
                gen.encode(buf);
                src.encode(buf);
                dst.encode(buf);
            }
            LoggedColl::ReduceScatter {
                comm,
                gen,
                src,
                dst,
                op,
            } => {
                2u8.encode(buf);
                comm.0.encode(buf);
                gen.encode(buf);
                src.encode(buf);
                dst.encode(buf);
                encode_reduce_op(*op, buf);
            }
            LoggedColl::Broadcast {
                comm,
                gen,
                root,
                buf: b,
            } => {
                3u8.encode(buf);
                comm.0.encode(buf);
                gen.encode(buf);
                root.0.encode(buf);
                b.encode(buf);
            }
            LoggedColl::Barrier { comm, gen } => {
                4u8.encode(buf);
                comm.0.encode(buf);
                gen.encode(buf);
            }
        }
    }
}

fn encode_reduce_op(op: ReduceOp, buf: &mut bytes::BytesMut) {
    let v: u8 = match op {
        ReduceOp::Sum => 0,
        ReduceOp::Avg => 1,
        ReduceOp::Max => 2,
    };
    v.encode(buf);
}

fn decode_reduce_op(buf: &mut bytes::Bytes) -> SimResult<ReduceOp> {
    Ok(match u8::decode(buf)? {
        0 => ReduceOp::Sum,
        1 => ReduceOp::Avg,
        2 => ReduceOp::Max,
        other => return Err(SimError::Codec(format!("bad ReduceOp {other}"))),
    })
}

impl Decode for LoggedColl {
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        Ok(match u8::decode(buf)? {
            0 => LoggedColl::AllReduce {
                comm: CommToken(u64::decode(buf)?),
                gen: u64::decode(buf)?,
                buf: BufferId::decode(buf)?,
                op: decode_reduce_op(buf)?,
            },
            1 => LoggedColl::AllGather {
                comm: CommToken(u64::decode(buf)?),
                gen: u64::decode(buf)?,
                src: BufferId::decode(buf)?,
                dst: BufferId::decode(buf)?,
            },
            2 => LoggedColl::ReduceScatter {
                comm: CommToken(u64::decode(buf)?),
                gen: u64::decode(buf)?,
                src: BufferId::decode(buf)?,
                dst: BufferId::decode(buf)?,
                op: decode_reduce_op(buf)?,
            },
            3 => LoggedColl::Broadcast {
                comm: CommToken(u64::decode(buf)?),
                gen: u64::decode(buf)?,
                root: simcore::RankId(u32::decode(buf)?),
                buf: BufferId::decode(buf)?,
            },
            4 => LoggedColl::Barrier {
                comm: CommToken(u64::decode(buf)?),
                gen: u64::decode(buf)?,
            },
            other => return Err(SimError::Codec(format!("bad LoggedColl tag {other}"))),
        })
    }
}

impl Encode for LoggedOp {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        match self {
            LoggedOp::Device { call, result_vid } => {
                0u8.encode(buf);
                call.encode(buf);
                result_vid.encode(buf);
            }
            LoggedOp::Collective(c) => {
                1u8.encode(buf);
                c.encode(buf);
            }
            LoggedOp::Send {
                dst,
                tag,
                seq,
                buf: b,
                same_node,
            } => {
                2u8.encode(buf);
                dst.0.encode(buf);
                tag.encode(buf);
                seq.encode(buf);
                b.encode(buf);
                same_node.encode(buf);
            }
            LoggedOp::Recv {
                src,
                tag,
                seq,
                buf: b,
            } => {
                3u8.encode(buf);
                src.0.encode(buf);
                tag.encode(buf);
                seq.encode(buf);
                b.encode(buf);
            }
        }
    }
}

impl Decode for LoggedOp {
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        Ok(match u8::decode(buf)? {
            0 => LoggedOp::Device {
                call: DeviceCall::decode(buf)?,
                result_vid: Option::<u64>::decode(buf)?,
            },
            1 => LoggedOp::Collective(LoggedColl::decode(buf)?),
            2 => LoggedOp::Send {
                dst: simcore::RankId(u32::decode(buf)?),
                tag: u64::decode(buf)?,
                seq: u64::decode(buf)?,
                buf: BufferId::decode(buf)?,
                same_node: bool::decode(buf)?,
            },
            3 => LoggedOp::Recv {
                src: simcore::RankId(u32::decode(buf)?),
                tag: u64::decode(buf)?,
                seq: u64::decode(buf)?,
                buf: BufferId::decode(buf)?,
            },
            other => return Err(SimError::Codec(format!("bad LoggedOp tag {other}"))),
        })
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use simcore::codec::{decode_framed, encode_framed};
    use simcore::RankId;
    use simgpu::{AllocSite, BufferTag};

    #[test]
    fn logged_op_wire_round_trip() -> SimResult<()> {
        let ops = vec![
            LoggedOp::Device {
                call: DeviceCall::Malloc {
                    site: AllocSite::new("w", 8),
                    elems: 8,
                    logical_bytes: 32,
                    tag: BufferTag::Param,
                },
                result_vid: Some(1 << 32),
            },
            LoggedOp::Collective(LoggedColl::AllReduce {
                comm: CommToken(2),
                gen: 17,
                buf: BufferId(9),
                op: ReduceOp::Avg,
            }),
            LoggedOp::Collective(LoggedColl::ReduceScatter {
                comm: CommToken(3),
                gen: 4,
                src: BufferId(1),
                dst: BufferId(2),
                op: ReduceOp::Sum,
            }),
            LoggedOp::Send {
                dst: RankId(3),
                tag: 1,
                seq: 12,
                buf: BufferId(5),
                same_node: false,
            },
            LoggedOp::Recv {
                src: RankId(2),
                tag: 2,
                seq: 12,
                buf: BufferId(6),
            },
        ];
        let framed = encode_framed(&ops);
        let back: Vec<LoggedOp> = decode_framed(&framed)?;
        assert_eq!(back, ops);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Arena-backed replay log.
//
// The hot path appends one op per intercepted device call, so the log's
// storage layout *is* the interception overhead: a `Vec<LoggedOp>` pays
// an owned allocation per op (plus one per kernel operand list) and
// scatters records across the heap. [`OpLog`] instead encodes each op
// into a single append-only byte arena at push time — the same canonical
// bytes the CRIU-style CPU-state image needs anyway — and keeps a small
// fixed-width index record per op carrying the *effect summary*
// (reads/writes/creates/destroys) that minibatch-boundary compaction
// consumes. No per-op heap allocation survives the push.
// ---------------------------------------------------------------------

use bytes::{BufMut, BytesMut};
use std::collections::HashSet;

/// Most buffer operands any op reads (today's widest is `LayerNormBwd`
/// with 5; one slot of headroom). Overflow sets [`OpLog::overflowed`],
/// which makes compaction a verbatim copy — correct, just not smaller.
const MAX_READS: usize = 6;
/// Most buffer operands any op writes (today's widest is 3).
const MAX_WRITES: usize = 4;

/// Coarse op classification driving compaction and replay scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Malloc,
    Free,
    Upload,
    Download,
    CopyD2D,
    Launch,
    StreamCreate,
    StreamDestroy,
    EventCreate,
    EventDestroy,
    EventRecord,
    StreamWaitEvent,
    EventQuery,
    StreamSync,
    DeviceSync,
    /// Collectives and p2p: externally visible, never compacted away.
    Pinned,
}

/// Fixed-width per-op index entry: arena span + effect summary.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    off: usize,
    len: usize,
    class: OpClass,
    /// Virtual id handed to the application (0 = none; real vids start
    /// at `1 << 32`).
    result_vid: u64,
    /// Stream vid the op runs on (0 = none).
    stream: u64,
    /// Event vid the op touches (0 = none).
    event: u64,
    reads: [u64; MAX_READS],
    nreads: u8,
    writes: [u64; MAX_WRITES],
    nwrites: u8,
}

fn push_vid(arr: &mut [u64], n: &mut u8, overflow: &mut bool, vid: u64) {
    match arr.get_mut(*n as usize) {
        Some(slot) => {
            *slot = vid;
            *n += 1;
        }
        None => *overflow = true,
    }
}

impl OpRecord {
    fn blank(off: usize, len: usize) -> OpRecord {
        OpRecord {
            off,
            len,
            class: OpClass::DeviceSync,
            result_vid: 0,
            stream: 0,
            event: 0,
            reads: [0; MAX_READS],
            nreads: 0,
            writes: [0; MAX_WRITES],
            nwrites: 0,
        }
    }

    fn build_device(
        call: &DeviceCall,
        result_vid: Option<u64>,
        off: usize,
        len: usize,
    ) -> (OpRecord, bool) {
        let mut r = OpRecord::blank(off, len);
        let mut overflow = false;
        r.result_vid = result_vid.unwrap_or(0);
        match call {
            DeviceCall::Malloc { .. } => {
                // Malloc zero-fills: a full overwrite of the new vid.
                r.class = OpClass::Malloc;
                push_vid(&mut r.writes, &mut r.nwrites, &mut overflow, r.result_vid);
            }
            DeviceCall::Free { buf } => {
                r.class = OpClass::Free;
                push_vid(&mut r.writes, &mut r.nwrites, &mut overflow, buf.0);
            }
            DeviceCall::Upload { buf, .. } => {
                // Strict-length copy: full overwrite of the target.
                r.class = OpClass::Upload;
                push_vid(&mut r.writes, &mut r.nwrites, &mut overflow, buf.0);
            }
            DeviceCall::Download { buf } => {
                r.class = OpClass::Download;
                push_vid(&mut r.reads, &mut r.nreads, &mut overflow, buf.0);
            }
            DeviceCall::CopyD2D { src, dst } => {
                r.class = OpClass::CopyD2D;
                push_vid(&mut r.reads, &mut r.nreads, &mut overflow, src.0);
                push_vid(&mut r.writes, &mut r.nwrites, &mut overflow, dst.0);
            }
            DeviceCall::Launch { stream, kernel } => {
                r.class = OpClass::Launch;
                r.stream = stream.0;
                for b in kernel.reads() {
                    push_vid(&mut r.reads, &mut r.nreads, &mut overflow, b.0);
                }
                for b in kernel.writes() {
                    push_vid(&mut r.writes, &mut r.nwrites, &mut overflow, b.0);
                }
            }
            DeviceCall::StreamCreate => {
                r.class = OpClass::StreamCreate;
                r.stream = r.result_vid;
            }
            DeviceCall::StreamDestroy { stream } => {
                r.class = OpClass::StreamDestroy;
                r.stream = stream.0;
            }
            DeviceCall::EventCreate => {
                r.class = OpClass::EventCreate;
                r.event = r.result_vid;
            }
            DeviceCall::EventDestroy { event } => {
                r.class = OpClass::EventDestroy;
                r.event = event.0;
            }
            DeviceCall::EventRecord { stream, event } => {
                r.class = OpClass::EventRecord;
                r.stream = stream.0;
                r.event = event.0;
            }
            DeviceCall::StreamWaitEvent { stream, event } => {
                r.class = OpClass::StreamWaitEvent;
                r.stream = stream.0;
                r.event = event.0;
            }
            DeviceCall::EventQuery { event } => {
                r.class = OpClass::EventQuery;
                r.event = event.0;
            }
            DeviceCall::StreamSync { stream } => {
                r.class = OpClass::StreamSync;
                r.stream = stream.0;
            }
            DeviceCall::DeviceSync => r.class = OpClass::DeviceSync,
        }
        (r, overflow)
    }

    fn build(op: &LoggedOp, off: usize, len: usize) -> (OpRecord, bool) {
        let mut r = OpRecord::blank(off, len);
        let mut overflow = false;
        match op {
            LoggedOp::Device { call, result_vid } => {
                return OpRecord::build_device(call, *result_vid, off, len);
            }
            LoggedOp::Collective(c) => {
                r.class = OpClass::Pinned;
                let mut rd = |b: &BufferId| {
                    push_vid(&mut r.reads, &mut r.nreads, &mut overflow, b.0);
                };
                match c {
                    LoggedColl::AllReduce { buf, .. } => rd(buf),
                    LoggedColl::AllGather { src, dst, .. } => {
                        rd(src);
                        rd(dst);
                    }
                    LoggedColl::ReduceScatter { src, dst, .. } => {
                        rd(src);
                        rd(dst);
                    }
                    LoggedColl::Broadcast { buf, .. } => rd(buf),
                    LoggedColl::Barrier { .. } => {}
                }
            }
            LoggedOp::Send { buf, .. } | LoggedOp::Recv { buf, .. } => {
                r.class = OpClass::Pinned;
                push_vid(&mut r.reads, &mut r.nreads, &mut overflow, buf.0);
            }
        }
        (r, overflow)
    }
}

/// The per-minibatch replay log: an append-only encoded-op arena plus a
/// fixed-width effect index. Wire-compatible with the `Vec<LoggedOp>`
/// encoding (`u64` count + concatenated op encodings), so CPU-state
/// images carry the same schema as before.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    arena: BytesMut,
    index: Vec<OpRecord>,
    overflowed: bool,
}

impl OpLog {
    /// Creates an empty log.
    pub fn new() -> OpLog {
        OpLog::default()
    }

    /// Number of logged ops.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes held by the encoded-op arena (diagnostics).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Drops all ops (minibatch boundary). The arena allocation is
    /// reused by the next minibatch.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.index.clear();
        self.overflowed = false;
    }

    /// Appends one op: encodes it into the arena and derives its effect
    /// summary. No per-op heap allocation is retained.
    pub fn push(&mut self, op: &LoggedOp) {
        let off = self.arena.len();
        op.encode(&mut self.arena);
        let len = self.arena.len() - off;
        let (rec, overflow) = OpRecord::build(op, off, len);
        if overflow {
            self.overflowed = true;
        }
        self.index.push(rec);
    }

    /// Appends a device call without materializing an owned
    /// [`LoggedOp`] (the interception hot path: zero heap allocation
    /// per op beyond arena growth). Encodes exactly what
    /// `LoggedOp::Device { call, result_vid }` would.
    pub fn push_device(&mut self, call: &DeviceCall, result_vid: Option<u64>) {
        let off = self.arena.len();
        0u8.encode(&mut self.arena);
        call.encode(&mut self.arena);
        result_vid.encode(&mut self.arena);
        let len = self.arena.len() - off;
        let (rec, overflow) = OpRecord::build_device(call, result_vid, off, len);
        if overflow {
            self.overflowed = true;
        }
        self.index.push(rec);
    }

    /// Decodes the op at `i`.
    pub fn get(&self, i: usize) -> SimResult<LoggedOp> {
        let r = self
            .index
            .get(i)
            .ok_or_else(|| SimError::Protocol(format!("oplog index {i} out of range")))?;
        let raw = self
            .arena
            .get(r.off..r.off + r.len)
            .ok_or_else(|| SimError::Protocol(format!("oplog arena span for op {i} invalid")))?;
        let mut b = bytes::Bytes::from(raw.to_vec());
        LoggedOp::decode(&mut b)
    }

    /// Decodes every op, serially and in order.
    pub fn ops(&self) -> SimResult<Vec<LoggedOp>> {
        let mut b = bytes::Bytes::from(self.arena.to_vec());
        let mut out = Vec::with_capacity(self.index.len());
        for _ in 0..self.index.len() {
            out.push(LoggedOp::decode(&mut b)?);
        }
        Ok(out)
    }

    /// Decodes every op across up to `workers` lanes on the bounded
    /// [`simcore::pool::fan_out`] pool, returning ops in log order.
    ///
    /// Lanes are keyed by stream vid: ops of one stream decode on one
    /// lane in log order, so independent streams' logs are processed in
    /// parallel; stream-less ops round-robin by position. Decode is
    /// binding-independent (it never consults the [`VirtualMap`], whose
    /// contents evolve as creation ops replay), which is what makes this
    /// phase safe to parallelize; execution stays serial in log order,
    /// preserving cross-stream event edges by construction.
    pub fn decode_parallel(&self, workers: usize) -> SimResult<Vec<LoggedOp>> {
        let n = self.index.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let snap = bytes::Bytes::from(self.arena.to_vec());
        let lanes = workers.clamp(1, n);
        let lane_of = |i: usize| -> usize {
            match self.index.get(i) {
                Some(r) if r.stream != 0 => (r.stream as usize) % lanes,
                _ => i % lanes,
            }
        };
        type LaneSlot = simcore::sync::Mutex<Vec<(usize, SimResult<LoggedOp>)>>;
        let slots: Vec<LaneSlot> = (0..lanes)
            .map(|_| simcore::sync::Mutex::new(Vec::new()))
            .collect();
        simcore::pool::fan_out(lanes, lanes, "oplog-decode", |l| {
            let mut out = Vec::new();
            for (i, r) in self.index.iter().enumerate() {
                if lane_of(i) != l {
                    continue;
                }
                let mut b = snap.slice(r.off..r.off + r.len);
                out.push((i, LoggedOp::decode(&mut b)));
            }
            if let Some(slot) = slots.get(l) {
                *slot.lock() = out;
            }
        });
        let mut merged: Vec<Option<LoggedOp>> = (0..n).map(|_| None).collect();
        for s in slots {
            for (i, res) in s.into_inner() {
                if let Some(slot) = merged.get_mut(i) {
                    *slot = Some(res?);
                }
            }
        }
        let mut out = Vec::with_capacity(n);
        for (i, slot) in merged.into_iter().enumerate() {
            out.push(
                slot.ok_or_else(|| SimError::Protocol(format!("oplog decode dropped op {i}")))?,
            );
        }
        Ok(out)
    }

    /// Minibatch-boundary compaction: returns a log that replays to a
    /// state bit-identical to this one (over live virtual buffers) with
    /// superseded ops dropped.
    ///
    /// Rules (backward liveness over virtual ids, which are never
    /// reused):
    ///
    /// * `Download`/`EventQuery`/`StreamSync`/`DeviceSync` never affect
    ///   memory — always dropped.
    /// * A store (`Upload`, `CopyD2D`, `Launch`) is dropped when every
    ///   buffer it writes is *dead*: fully overwritten later (writes
    ///   minus reads of a kept op — every kernel store replaces its whole
    ///   target) or freed later with the allocation also in-log. Kept
    ///   stores mark their pure write targets dead and their reads live.
    /// * `Free` of a buffer allocated *before* the minibatch stays, and
    ///   pins earlier stores (the graveyard keeps free-time contents for
    ///   resurrection); `Free` of an in-log allocation kills earlier
    ///   stores, and the whole malloc..free chain is dropped when no
    ///   kept op references the vid in between.
    /// * `EventRecord` survives if a wait follows on the event, or it is
    ///   the event's last record and the event outlives the log (the
    ///   application may still query it); `StreamWaitEvent` survives if
    ///   any record precedes it — kept record/wait pairs preserve every
    ///   cross-stream edge parallel replay must respect.
    /// * Creation ops survive unless destroyed in-log with no kept
    ///   reference in between; collectives and p2p are always kept.
    pub fn compact(&self) -> OpLog {
        let keep = if self.overflowed {
            vec![true; self.index.len()]
        } else {
            self.keep_mask()
        };
        let mut out = OpLog::new();
        out.overflowed = self.overflowed;
        for (r, k) in self.index.iter().zip(keep) {
            if !k {
                continue;
            }
            if let Some(raw) = self.arena.get(r.off..r.off + r.len) {
                let off = out.arena.len();
                out.arena.put_slice(raw);
                let mut nr = *r;
                nr.off = off;
                out.index.push(nr);
            }
        }
        out
    }

    fn keep_mask(&self) -> Vec<bool> {
        let n = self.index.len();
        let mut keep = vec![true; n];

        // Forward pass: creation/destruction positions and event edges.
        let mut created: HashSet<u64> = HashSet::new();
        let mut destroyed_at: HashMap<u64, usize> = HashMap::new();
        let mut records: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut waits: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut last_record: HashMap<u64, usize> = HashMap::new();
        for (i, r) in self.index.iter().enumerate() {
            match r.class {
                OpClass::Malloc | OpClass::StreamCreate | OpClass::EventCreate => {
                    created.insert(r.result_vid);
                }
                OpClass::Free => {
                    if let Some(v) = r.writes.first() {
                        destroyed_at.insert(*v, i);
                    }
                }
                OpClass::StreamDestroy => {
                    destroyed_at.insert(r.stream, i);
                }
                OpClass::EventDestroy => {
                    destroyed_at.insert(r.event, i);
                }
                OpClass::EventRecord => {
                    records.entry(r.event).or_default().push(i);
                    last_record.insert(r.event, i);
                }
                OpClass::StreamWaitEvent => {
                    waits.entry(r.event).or_default().push(i);
                }
                _ => {}
            }
        }

        // Backward pass: per-vid liveness. Absent = live (buffers that
        // outlive the log are observable state).
        let mut dead: HashSet<u64> = HashSet::new();
        // Vids referenced by an op we decided to keep (used by the
        // dead-allocation-chain fixup at the creation op).
        let mut refs_kept: HashSet<u64> = HashSet::new();
        for i in (0..n).rev() {
            let r = self.index[i];
            match r.class {
                OpClass::Download
                | OpClass::EventQuery
                | OpClass::StreamSync
                | OpClass::DeviceSync => keep[i] = false,
                OpClass::EventRecord => {
                    let has_later_wait = waits
                        .get(&r.event)
                        .map(|w| w.iter().any(|&j| j > i))
                        .unwrap_or(false);
                    let is_last_live = last_record.get(&r.event) == Some(&i)
                        && !destroyed_at.contains_key(&r.event);
                    keep[i] = has_later_wait || is_last_live;
                }
                OpClass::StreamWaitEvent => {
                    keep[i] = records
                        .get(&r.event)
                        .map(|w| w.iter().any(|&j| j < i))
                        .unwrap_or(false);
                }
                OpClass::Upload => {
                    let dst = r.writes.first().copied().unwrap_or(0);
                    if dead.contains(&dst) {
                        keep[i] = false;
                    } else {
                        dead.insert(dst);
                    }
                }
                OpClass::CopyD2D => {
                    let dst = r.writes.first().copied().unwrap_or(0);
                    let src = r.reads.first().copied().unwrap_or(0);
                    if dead.contains(&dst) {
                        keep[i] = false;
                    } else {
                        dead.insert(dst);
                        dead.remove(&src);
                    }
                }
                OpClass::Launch => {
                    let writes = &r.writes[..r.nwrites as usize];
                    let reads = &r.reads[..r.nreads as usize];
                    if writes.iter().all(|w| dead.contains(w)) {
                        keep[i] = false;
                    } else {
                        for w in writes {
                            if !reads.contains(w) {
                                dead.insert(*w);
                            }
                        }
                        for rd in reads {
                            dead.remove(rd);
                        }
                    }
                }
                OpClass::Free => {
                    let v = r.writes.first().copied().unwrap_or(0);
                    if created.contains(&v) {
                        // In-log allocation: free-time contents are
                        // unobservable (the pair never outlives a reset).
                        dead.insert(v);
                    } else {
                        // Pre-existing buffer: the graveyard snapshot of
                        // its free-time contents must stay exact.
                        dead.remove(&v);
                    }
                }
                OpClass::Malloc | OpClass::StreamCreate | OpClass::EventCreate => {
                    let v = r.result_vid;
                    if let Some(&d) = destroyed_at.get(&v) {
                        if !refs_kept.contains(&v) {
                            keep[i] = false;
                            if let Some(kd) = keep.get_mut(d) {
                                *kd = false;
                            }
                        }
                    }
                }
                OpClass::StreamDestroy | OpClass::EventDestroy | OpClass::Pinned => {
                    if r.class == OpClass::Pinned {
                        for rd in &r.reads[..r.nreads as usize] {
                            dead.remove(rd);
                        }
                    }
                }
            }
            // Record what a kept op references, except destruction ops:
            // a Free/Destroy alone must not pin its dying object's
            // creation (that is exactly the chain the fixup removes).
            let destruction = matches!(
                r.class,
                OpClass::Free | OpClass::StreamDestroy | OpClass::EventDestroy
            );
            if keep[i] && !destruction {
                if r.stream != 0 {
                    refs_kept.insert(r.stream);
                }
                if r.event != 0 {
                    refs_kept.insert(r.event);
                }
                for v in &r.reads[..r.nreads as usize] {
                    refs_kept.insert(*v);
                }
                for v in &r.writes[..r.nwrites as usize] {
                    refs_kept.insert(*v);
                }
            }
        }
        keep
    }
}

impl Encode for OpLog {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        (self.index.len() as u64).encode(buf);
        buf.put_slice(&self.arena);
    }
}

impl Decode for OpLog {
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        let n = u64::decode(buf)? as usize;
        let mut log = OpLog::new();
        for _ in 0..n {
            let op = LoggedOp::decode(buf)?;
            log.push(&op);
        }
        Ok(log)
    }
}

// ---------------------------------------------------------------------
// Deferred-submission ring.
// ---------------------------------------------------------------------

/// Fixed-capacity single-producer/single-consumer ring of translated
/// (physical-id) device calls awaiting a batched round trip to the proxy
/// server. The trainer thread is both producer (at interception) and
/// consumer (at flush), so the fixed capacity bounds staging memory and
/// forces a flush cadence rather than guarding against races.
#[derive(Debug)]
pub struct OpRing {
    slots: Vec<Option<DeviceCall>>,
    head: usize,
    len: usize,
}

impl OpRing {
    /// Creates a ring holding at most `cap` (≥ 1) deferred calls.
    pub fn with_capacity(cap: usize) -> OpRing {
        OpRing {
            slots: (0..cap.max(1)).map(|_| None).collect(),
            head: 0,
            len: 0,
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Deferred calls currently staged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no calls.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether a push would be rejected.
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Stages a call; hands it back when the ring is full (the caller
    /// must flush and retry).
    pub fn push(&mut self, op: DeviceCall) -> Result<(), DeviceCall> {
        if self.is_full() {
            return Err(op);
        }
        let tail = (self.head + self.len) % self.slots.len();
        match self.slots.get_mut(tail) {
            Some(slot) => {
                *slot = Some(op);
                self.len += 1;
                Ok(())
            }
            None => Err(op),
        }
    }

    /// Removes the oldest staged call.
    pub fn pop(&mut self) -> Option<DeviceCall> {
        if self.len == 0 {
            return None;
        }
        let op = self.slots.get_mut(self.head).and_then(|s| s.take());
        self.head = (self.head + 1) % self.slots.len();
        self.len -= 1;
        op
    }

    /// Removes all staged calls in FIFO order.
    pub fn drain(&mut self) -> Vec<DeviceCall> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(op) = self.pop() {
            out.push(op);
        }
        out
    }

    /// Discards all staged calls (recovery reset: the ops are already in
    /// the replay log, so replay regenerates their effects).
    pub fn clear(&mut self) {
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod arena_tests {
    use super::*;
    use simgpu::{AllocSite, BufferTag, KernelKind};

    fn vid(i: u64) -> u64 {
        (1 << 32) + i
    }

    fn malloc(v: u64) -> LoggedOp {
        LoggedOp::Device {
            call: DeviceCall::Malloc {
                site: AllocSite::new("b", 4),
                elems: 4,
                logical_bytes: 16,
                tag: BufferTag::Activation,
            },
            result_vid: Some(v),
        }
    }

    fn upload(v: u64) -> LoggedOp {
        LoggedOp::Device {
            call: DeviceCall::Upload {
                buf: BufferId(v),
                data: vec![1.0, 2.0, 3.0, 4.0],
            },
            result_vid: None,
        }
    }

    fn free(v: u64) -> LoggedOp {
        LoggedOp::Device {
            call: DeviceCall::Free { buf: BufferId(v) },
            result_vid: None,
        }
    }

    fn launch(stream: u64, kernel: KernelKind) -> LoggedOp {
        LoggedOp::Device {
            call: DeviceCall::Launch {
                stream: StreamId(stream),
                kernel,
            },
            result_vid: None,
        }
    }

    fn device(call: DeviceCall) -> LoggedOp {
        LoggedOp::Device {
            call,
            result_vid: None,
        }
    }

    #[test]
    fn oplog_wire_format_matches_vec_of_logged_ops() -> SimResult<()> {
        let ops = vec![malloc(vid(1)), upload(vid(1)), free(vid(1))];
        let mut log = OpLog::new();
        for op in &ops {
            log.push(op);
        }
        let mut a = bytes::BytesMut::new();
        ops.encode(&mut a);
        let mut b = bytes::BytesMut::new();
        log.encode(&mut b);
        assert_eq!(&a[..], &b[..], "OpLog wire format must equal Vec<LoggedOp>");
        // And the round trip decodes to the same ops.
        let mut raw = bytes::Bytes::from(b.to_vec());
        let back = OpLog::decode(&mut raw)?;
        assert_eq!(back.ops()?, ops);
        Ok(())
    }

    #[test]
    fn superseded_upload_is_compacted_away() -> SimResult<()> {
        let mut log = OpLog::new();
        log.push(&upload(vid(1)));
        log.push(&upload(vid(1)));
        let c = log.compact();
        assert_eq!(c.len(), 1, "first upload is fully overwritten");
        assert_eq!(c.ops()?, vec![upload(vid(1))]);
        Ok(())
    }

    #[test]
    fn dead_allocation_chain_is_dropped_whole() -> SimResult<()> {
        let mut log = OpLog::new();
        log.push(&malloc(vid(1)));
        log.push(&upload(vid(1)));
        log.push(&launch(
            vid(9),
            KernelKind::Zero {
                buf: BufferId(vid(1)),
            },
        ));
        log.push(&free(vid(1)));
        // A surviving buffer keeps the log non-trivial.
        log.push(&upload(vid(2)));
        let c = log.compact();
        assert_eq!(c.ops()?, vec![upload(vid(2))]);
        Ok(())
    }

    #[test]
    fn free_of_preexisting_buffer_pins_prior_stores() {
        // vid(1) was allocated before the minibatch: its free-time
        // contents feed graveyard resurrection, so the upload stays.
        let mut log = OpLog::new();
        log.push(&upload(vid(1)));
        log.push(&free(vid(1)));
        let c = log.compact();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn read_between_stores_pins_the_first_store() {
        let mut log = OpLog::new();
        log.push(&upload(vid(1)));
        log.push(&launch(
            vid(9),
            KernelKind::Relu {
                x: BufferId(vid(1)),
                out: BufferId(vid(2)),
            },
        ));
        log.push(&upload(vid(1)));
        let c = log.compact();
        assert_eq!(c.len(), 3, "the read keeps the first store live");
    }

    #[test]
    fn sync_and_query_ops_always_drop() {
        let mut log = OpLog::new();
        log.push(&device(DeviceCall::StreamSync {
            stream: StreamId(vid(9)),
        }));
        log.push(&device(DeviceCall::DeviceSync));
        log.push(&device(DeviceCall::EventQuery {
            event: EventId(vid(8)),
        }));
        log.push(&device(DeviceCall::Download {
            buf: BufferId(vid(1)),
        }));
        assert_eq!(log.compact().len(), 0);
    }

    #[test]
    fn event_record_wait_pairs_survive_unpaired_ops_drop() {
        let rec = device(DeviceCall::EventRecord {
            stream: StreamId(vid(9)),
            event: EventId(vid(8)),
        });
        let wait = device(DeviceCall::StreamWaitEvent {
            stream: StreamId(vid(10)),
            event: EventId(vid(8)),
        });
        // Paired: both survive.
        let mut log = OpLog::new();
        log.push(&rec);
        log.push(&wait);
        assert_eq!(log.compact().len(), 2);
        // Wait with no prior record in the log: dropped (the device
        // treats a wait on an unrecorded event as a no-op).
        let mut log = OpLog::new();
        log.push(&wait);
        assert_eq!(log.compact().len(), 0);
        // A record with no waits survives only as the event's last
        // record (the application may still query the event).
        let mut log = OpLog::new();
        log.push(&rec);
        log.push(&rec);
        assert_eq!(log.compact().len(), 1);
    }

    #[test]
    fn collectives_and_p2p_are_never_dropped_and_pin_reads() {
        let mut log = OpLog::new();
        log.push(&upload(vid(1)));
        log.push(&LoggedOp::Collective(LoggedColl::AllReduce {
            comm: CommToken(1),
            gen: 0,
            buf: BufferId(vid(1)),
            op: ReduceOp::Sum,
        }));
        log.push(&LoggedOp::Send {
            dst: RankId(1),
            tag: 0,
            seq: 0,
            buf: BufferId(vid(1)),
            same_node: false,
        });
        assert_eq!(log.compact().len(), 3);
    }

    #[test]
    fn parallel_decode_preserves_order() -> SimResult<()> {
        let mut log = OpLog::new();
        let mut expect = Vec::new();
        for i in 0..200u64 {
            let op = launch(
                vid(100 + i % 3),
                KernelKind::Zero {
                    buf: BufferId(vid(i)),
                },
            );
            log.push(&op);
            expect.push(op);
        }
        for w in [1, 2, 4] {
            assert_eq!(log.decode_parallel(w)?, expect);
        }
        Ok(())
    }

    #[test]
    fn clear_resets_but_reuses_arena() {
        let mut log = OpLog::new();
        log.push(&upload(vid(1)));
        assert!(log.arena_len() > 0);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.arena_len(), 0);
        log.push(&upload(vid(2)));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn ring_is_fifo_wraps_and_rejects_when_full() {
        let mut ring = OpRing::with_capacity(2);
        assert!(ring.is_empty());
        assert!(ring.push(DeviceCall::DeviceSync).is_ok());
        assert!(ring
            .push(DeviceCall::StreamSync {
                stream: StreamId(1)
            })
            .is_ok());
        assert!(ring.is_full());
        // Full: the op comes back.
        assert!(ring.push(DeviceCall::DeviceSync).is_err());
        assert_eq!(ring.pop(), Some(DeviceCall::DeviceSync));
        // Wrap around.
        assert!(ring.push(DeviceCall::DeviceSync).is_ok());
        assert_eq!(
            ring.drain(),
            vec![
                DeviceCall::StreamSync {
                    stream: StreamId(1)
                },
                DeviceCall::DeviceSync
            ]
        );
        assert!(ring.is_empty());
    }
}
