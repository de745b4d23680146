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
                let mut kernel = kernel.clone();
                for id in kernel.operands_mut() {
                    *id = self.buffer(*id)?;
                }
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

    /// All 15 kernel variants over `ids` (one per operand, in declaration
    /// order), every non-operand field set to a value of its own.
    fn every_kernel(ids: [BufferId; 8]) -> Vec<KernelKind> {
        let [i0, i1, i2, i3, i4, i5, i6, i7] = ids;
        vec![
            KernelKind::MatMul {
                a: i0,
                b: i1,
                out: i2,
                m: 2,
                k: 3,
                n: 5,
                trans_a: true,
                trans_b: false,
            },
            KernelKind::BiasAdd {
                x: i0,
                bias: i1,
                rows: 7,
                cols: 11,
            },
            KernelKind::BiasGrad {
                dy: i0,
                dbias: i1,
                rows: 13,
                cols: 17,
            },
            KernelKind::Relu { x: i0, out: i1 },
            KernelKind::ReluBwd {
                x: i0,
                dy: i1,
                dx: i2,
            },
            KernelKind::SoftmaxXentFwd {
                logits: i0,
                labels: i1,
                probs: i2,
                loss: i3,
                rows: 19,
                cols: 23,
            },
            KernelKind::SoftmaxXentBwd {
                probs: i0,
                labels: i1,
                dlogits: i2,
                rows: 29,
                cols: 31,
            },
            KernelKind::LayerNormFwd {
                x: i0,
                gamma: i1,
                beta: i2,
                out: i3,
                mean: i4,
                rstd: i5,
                rows: 37,
                cols: 41,
            },
            KernelKind::LayerNormBwd {
                x: i0,
                gamma: i1,
                dy: i2,
                mean: i3,
                rstd: i4,
                dx: i5,
                dgamma: i6,
                dbeta: i7,
                rows: 43,
                cols: 47,
            },
            KernelKind::Zero { buf: i0 },
            KernelKind::Fill {
                buf: i0,
                value: 0.5,
            },
            KernelKind::Axpy {
                alpha: 1.5,
                x: i0,
                y: i1,
            },
            KernelKind::Scale { alpha: 2.5, x: i0 },
            KernelKind::SgdStep {
                param: i0,
                grad: i1,
                momentum: i2,
                lr: 0.1,
                mu: 0.9,
                weight_decay: 0.01,
            },
            KernelKind::AdamStep {
                param: i0,
                grad: i1,
                m: i2,
                v: i3,
                lr: 0.001,
                beta1: 0.8,
                beta2: 0.99,
                eps: 1e-8,
                t: 53,
                weight_decay: 0.02,
            },
        ]
    }

    #[test]
    fn kernel_translation_maps_every_buffer() -> SimResult<()> {
        let phys: [BufferId; 8] = std::array::from_fn(|i| BufferId(i as u64 + 1));
        let mut m = VirtualMap::new();
        let virt = phys.map(|p| m.bind_buffer(p));
        let vs = m.bind_stream(StreamId(10));
        // Every operand translated, every other field untouched.
        for (kernel, expect) in every_kernel(virt).into_iter().zip(every_kernel(phys)) {
            let call = DeviceCall::Launch { stream: vs, kernel };
            let translated = DeviceCall::Launch {
                stream: StreamId(10),
                kernel: expect,
            };
            assert_eq!(m.to_physical(&call)?, translated);
        }
        // With operands `first..` unbound the error names operand `first`,
        // even when the stream is unbound too; a kernel with no operand
        // that far translates.
        for first in 0..virt.len() {
            for v in &virt[first..] {
                m.unbind_buffer(*v);
            }
            for kernel in every_kernel(virt) {
                let (stream, want) = if first < kernel.buffers().len() {
                    let unbound = format!("virtual {}", virt[first]);
                    (StreamId(0), Some(SimError::InvalidHandle(unbound)))
                } else {
                    (vs, None)
                };
                let got = m.to_physical(&DeviceCall::Launch { stream, kernel });
                assert_eq!(got.err(), want);
            }
            for (v, p) in virt.iter().zip(phys) {
                m.rebind_buffer(*v, p);
            }
        }
        assert_eq!(
            m.to_physical(&DeviceCall::Launch {
                stream: StreamId(0),
                kernel: KernelKind::Zero { buf: virt[0] },
            }),
            Err(SimError::InvalidHandle(format!("virtual {}", StreamId(0))))
        );
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
// The hot path appends one op per intercepted device call. [`OpLog`]
// encodes each op into a single append-only byte arena at push time — the
// same canonical bytes the CRIU-style CPU-state image needs anyway — and
// counts them, so logging clones no call (an `Upload`'s payload, a
// `Malloc`'s site name) and the image is a copy of the arena. Recovery
// decodes the arena front to back and replays every op as it was logged
// (§4.1).
// ---------------------------------------------------------------------

use bytes::{BufMut, BytesMut};

/// The per-minibatch replay log: an append-only encoded-op arena plus an
/// op count. Wire-compatible with the `Vec<LoggedOp>` encoding (`u64`
/// count + concatenated op encodings), so CPU-state images carry the
/// same schema as before.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    arena: BytesMut,
    len: usize,
}

impl OpLog {
    /// Creates an empty log.
    pub fn new() -> OpLog {
        OpLog::default()
    }

    /// Number of logged ops.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes held by the encoded-op arena (diagnostics).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Drops all ops (minibatch boundary). The arena allocation is
    /// reused by the next minibatch.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.len = 0;
    }

    /// Appends one op, encoded into the arena.
    pub fn push(&mut self, op: &LoggedOp) {
        op.encode(&mut self.arena);
        self.len += 1;
    }

    /// Appends a device call without materializing an owned
    /// [`LoggedOp`] (the interception hot path: no heap allocation per
    /// op beyond arena growth). Encodes exactly what
    /// `LoggedOp::Device { call, result_vid }` would.
    pub fn push_device(&mut self, call: &DeviceCall, result_vid: Option<u64>) {
        0u8.encode(&mut self.arena);
        call.encode(&mut self.arena);
        result_vid.encode(&mut self.arena);
        self.len += 1;
    }

    /// Decodes every op, in log order.
    pub fn ops(&self) -> SimResult<Vec<LoggedOp>> {
        let mut b = bytes::Bytes::from(self.arena.to_vec());
        let mut out = Vec::with_capacity(self.len);
        for _ in 0..self.len {
            out.push(LoggedOp::decode(&mut b)?);
        }
        Ok(out)
    }
}

impl Encode for OpLog {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        (self.len as u64).encode(buf);
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

#[cfg(test)]
mod arena_tests {
    use super::*;
    use simgpu::{AllocSite, BufferTag};

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

    #[test]
    fn oplog_wire_format_matches_vec_of_logged_ops() -> SimResult<()> {
        let ops = vec![malloc(vid(1)), upload(vid(1)), free(vid(1))];
        let mut log = OpLog::new();
        // Both entry points must lay down the same bytes.
        let mut via_device = OpLog::new();
        for op in &ops {
            log.push(op);
            if let LoggedOp::Device { call, result_vid } = op {
                via_device.push_device(call, *result_vid);
            }
        }
        let mut a = bytes::BytesMut::new();
        ops.encode(&mut a);
        let mut b = bytes::BytesMut::new();
        log.encode(&mut b);
        assert_eq!(&a[..], &b[..], "OpLog wire format must equal Vec<LoggedOp>");
        let mut d = bytes::BytesMut::new();
        via_device.encode(&mut d);
        assert_eq!(&a[..], &d[..], "push_device must encode what push does");
        // And the round trip decodes to the same ops.
        let mut raw = bytes::Bytes::from(b.to_vec());
        let back = OpLog::decode(&mut raw)?;
        assert_eq!(back.ops()?, ops);
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
}
