//! Logged operations and the virtual-handle table.
//!
//! The interception layer hands the application **virtual** buffer,
//! stream, and event handles; the `VirtualMap` translates them to the
//! physical handles of the current proxy-server epoch. When recovery
//! restarts the server, physical handles change — but "we cannot change
//! the handles already held in application variables", so recovery
//! re-creates the objects and *rebinds* the same virtual ids (§4.2.1).
//!
//! A `LoggedOp` is one entry in the replay or creation log: the call
//! with its (virtual) ids, its input values, and — for object-creating
//! calls — the virtual id that was handed out, so replay can rebind it.
//! A collective is logged as the `Coll` the executors run, plus its
//! communicator and generation (`LoggedColl`).

use crate::executor::{Coll, CommToken};
use collectives::ReduceOp;
use serde::{Deserialize, Serialize};
use simcore::{RankId, SimError, SimResult};
use simgpu::{BufferId, CallResult, DeviceCall, EventId, StreamId};
use std::collections::BTreeMap;
use std::fmt::Display;

/// A collective as recorded in the replay log: the collective and its
/// operands, on the wire as one tag per kind, the communicator, the
/// generation, then the operands in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct LoggedColl {
    /// Communicator token.
    pub(crate) comm: CommToken,
    /// Operation sequence number on the communicator.
    pub(crate) gen: u64,
    /// The collective, its buffers virtual.
    pub(crate) coll: Coll,
}

impl LoggedColl {
    /// Replay-log record version. Replay logs written before a failure
    /// are read during recovery of the restarted proxy server (§4.1), so
    /// variant or field changes must bump this alongside
    /// [`LoggedOp::SCHEMA_VERSION`].
    pub(crate) const SCHEMA_VERSION: u16 = 1;
}

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum LoggedOp {
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
    pub(crate) const SCHEMA_VERSION: u16 = 1;
}

// A replay-log record's version moves with the log's.
const _: () = assert!(LoggedColl::SCHEMA_VERSION == LoggedOp::SCHEMA_VERSION);

/// The kinds of device object the application holds a handle to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HandleKind {
    Buffer,
    Stream,
    Event,
}

/// A typed device handle: the kind it resolves as, and its raw id.
pub(crate) trait Handle: Copy + Display {
    /// The kind a handle of this type must be bound as.
    const KIND: HandleKind;
    /// The handle with raw id `id`.
    fn from_id(id: u64) -> Self;
    /// The raw id.
    fn id(self) -> u64;
}

macro_rules! handle {
    ($ty:ident, $kind:ident) => {
        impl Handle for $ty {
            const KIND: HandleKind = HandleKind::$kind;
            fn from_id(id: u64) -> Self {
                $ty(id)
            }
            fn id(self) -> u64 {
                self.0
            }
        }
    };
}
handle!(BufferId, Buffer);
handle!(StreamId, Stream);
handle!(EventId, Event);

/// The object handle a call returned, with its kind; `None` for a
/// result that is no handle.
pub(crate) fn handle_of(res: &CallResult) -> Option<(HandleKind, u64)> {
    match *res {
        CallResult::Buffer(b) => Some((HandleKind::Buffer, b.0)),
        CallResult::Stream(s) => Some((HandleKind::Stream, s.0)),
        CallResult::Event(e) => Some((HandleKind::Event, e.0)),
        _ => None,
    }
}

/// The handle a destroying call (`Free`, `StreamDestroy`,
/// `EventDestroy`) ends.
pub(crate) fn destroyed_by(call: &DeviceCall) -> Option<u64> {
    match *call {
        DeviceCall::Free { buf } => Some(buf.0),
        DeviceCall::StreamDestroy { stream } => Some(stream.0),
        DeviceCall::EventDestroy { event } => Some(event.0),
        _ => None,
    }
}

/// Virtual→physical handle translation for one rank: one table, keyed
/// by virtual id, of `(kind, physical id)`.
#[derive(Debug)]
pub(crate) struct VirtualMap {
    table: BTreeMap<u64, (HandleKind, u64)>,
    next: u64,
}

impl VirtualMap {
    /// Creates an empty map. Virtual ids start at a high base so that
    /// accidentally passing a physical id through translation fails fast.
    pub(crate) fn new() -> Self {
        VirtualMap {
            table: BTreeMap::new(),
            next: 1 << 32,
        }
    }

    /// Registers the physical handle a call returned under a fresh
    /// virtual id, and returns the result the application sees; a result
    /// that is no handle passes through.
    pub(crate) fn bind(&mut self, res: CallResult) -> CallResult {
        let Some((kind, phys)) = handle_of(&res) else {
            return res;
        };
        let v = self.next;
        self.next += 1;
        self.table.insert(v, (kind, phys));
        match kind {
            HandleKind::Buffer => CallResult::Buffer(BufferId(v)),
            HandleKind::Stream => CallResult::Stream(StreamId(v)),
            HandleKind::Event => CallResult::Event(EventId(v)),
        }
    }

    /// Rebinds an existing virtual id to the physical handle a
    /// re-executed creation returned (after server restart, or in
    /// replay); false if `res` is no handle.
    pub(crate) fn rebind(&mut self, virt: u64, res: &CallResult) -> bool {
        handle_of(res).map(|h| self.table.insert(virt, h)).is_some()
    }

    /// Resolves a virtual handle. A virtual id that is unbound, or bound
    /// as another kind, is an invalid handle.
    pub(crate) fn resolve<H: Handle>(&self, virt: H) -> SimResult<H> {
        match self.table.get(&virt.id()) {
            Some(&(kind, phys)) if kind == H::KIND => Ok(H::from_id(phys)),
            _ => Err(SimError::InvalidHandle(format!("virtual {virt}"))),
        }
    }

    /// Forgets a virtual handle.
    pub(crate) fn unbind(&mut self, virt: u64) {
        self.table.remove(&virt);
    }

    /// Translates a call with virtual ids into one with physical ids,
    /// each handle in field order (a launch's kernel operands before its
    /// stream).
    pub(crate) fn to_physical(&self, call: &DeviceCall) -> SimResult<DeviceCall> {
        let mut call = call.clone();
        match &mut call {
            DeviceCall::Malloc { .. }
            | DeviceCall::StreamCreate
            | DeviceCall::EventCreate
            | DeviceCall::DeviceSync => {}
            DeviceCall::Free { buf }
            | DeviceCall::Upload { buf, .. }
            | DeviceCall::Download { buf } => {
                *buf = self.resolve(*buf)?;
            }
            DeviceCall::CopyD2D { src, dst } => {
                *src = self.resolve(*src)?;
                *dst = self.resolve(*dst)?;
            }
            DeviceCall::Launch { stream, kernel } => {
                for id in kernel.operands_mut() {
                    *id = self.resolve(*id)?;
                }
                *stream = self.resolve(*stream)?;
            }
            DeviceCall::StreamDestroy { stream } | DeviceCall::StreamSync { stream } => {
                *stream = self.resolve(*stream)?;
            }
            DeviceCall::EventDestroy { event } | DeviceCall::EventQuery { event } => {
                *event = self.resolve(*event)?;
            }
            DeviceCall::EventRecord { stream, event }
            | DeviceCall::StreamWaitEvent { stream, event } => {
                *stream = self.resolve(*stream)?;
                *event = self.resolve(*event)?;
            }
        }
        Ok(call)
    }

    /// Number of live virtual bindings.
    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }

    /// Forgets every binding (the physical objects died with their
    /// context); virtual ids already handed out are never reissued.
    pub(crate) fn clear(&mut self) {
        self.table.clear();
    }

    /// Every bound buffer as `(virtual id, physical id)`, by virtual id
    /// (which keys state checksums, being stable across replay).
    pub(crate) fn buffers(&self) -> impl Iterator<Item = (u64, BufferId)> + '_ {
        self.table
            .iter()
            .filter(|(_, (kind, _))| *kind == HandleKind::Buffer)
            .map(|(&v, &(_, phys))| (v, BufferId(phys)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::KernelKind;

    fn bind_buffer(m: &mut VirtualMap, phys: u64) -> SimResult<BufferId> {
        m.bind(CallResult::Buffer(BufferId(phys))).buffer()
    }

    #[test]
    fn bind_and_translate_buffer_calls() -> SimResult<()> {
        let mut m = VirtualMap::new();
        let v = bind_buffer(&mut m, 7)?;
        assert!(v.0 >= 1 << 32, "virtual ids live in a distinct range");
        let call = DeviceCall::Download { buf: v };
        let phys = m.to_physical(&call)?;
        assert_eq!(phys, DeviceCall::Download { buf: BufferId(7) });
        Ok(())
    }

    #[test]
    fn rebinding_redirects_without_changing_virtual_id() -> SimResult<()> {
        let mut m = VirtualMap::new();
        let v = bind_buffer(&mut m, 1)?;
        assert!(m.rebind(v.0, &CallResult::Buffer(BufferId(99))));
        assert_eq!(m.resolve(v)?, BufferId(99));
        assert!(!m.rebind(v.0, &CallResult::None), "no handle to rebind to");
        Ok(())
    }

    #[test]
    fn unknown_virtual_handle_errors() {
        let m = VirtualMap::new();
        assert!(m.resolve(BufferId(12345)).is_err());
        assert!(m.resolve(StreamId(1)).is_err());
        assert!(m.resolve(EventId(1)).is_err());
    }

    #[test]
    fn a_handle_of_one_kind_is_refused_as_another() -> SimResult<()> {
        let mut m = VirtualMap::new();
        let b = bind_buffer(&mut m, 1)?;
        let s = m.bind(CallResult::Stream(StreamId(1))).stream()?;
        let e = m.bind(CallResult::Event(EventId(1))).event()?;
        let refused = |h: &dyn Display| Some(SimError::InvalidHandle(format!("virtual {h}")));
        for v in [s.0, e.0] {
            assert_eq!(m.resolve(BufferId(v)).err(), refused(&BufferId(v)));
        }
        for v in [b.0, e.0] {
            assert_eq!(m.resolve(StreamId(v)).err(), refused(&StreamId(v)));
        }
        for v in [b.0, s.0] {
            assert_eq!(m.resolve(EventId(v)).err(), refused(&EventId(v)));
        }
        // Through translation too: a stream's id passed as a buffer.
        let call = DeviceCall::Free { buf: BufferId(s.0) };
        assert_eq!(m.to_physical(&call).err(), refused(&BufferId(s.0)));
        assert_eq!(
            (m.resolve(b)?, m.resolve(s)?, m.resolve(e)?),
            (BufferId(1), StreamId(1), EventId(1))
        );
        Ok(())
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
        let mut virt = phys;
        for v in &mut virt {
            *v = m.bind(CallResult::Buffer(*v)).buffer()?;
        }
        let vs = m.bind(CallResult::Stream(StreamId(10))).stream()?;
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
                m.unbind(v.0);
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
                m.rebind(v.0, &CallResult::Buffer(p));
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
    fn unbind_removes_bindings() -> SimResult<()> {
        let mut m = VirtualMap::new();
        let v = bind_buffer(&mut m, 1)?;
        m.unbind(v.0);
        assert!(m.resolve(v).is_err());
        assert_eq!(m.len(), 0);
        Ok(())
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
        let head = |tag: u8, buf: &mut bytes::BytesMut| {
            tag.encode(buf);
            self.comm.0.encode(buf);
            self.gen.encode(buf);
        };
        match self.coll {
            Coll::AllReduce { buf: b, op } => {
                head(0, buf);
                b.encode(buf);
                encode_reduce_op(op, buf);
            }
            Coll::AllGather { src, dst } => {
                head(1, buf);
                src.encode(buf);
                dst.encode(buf);
            }
            Coll::ReduceScatter { src, dst, op } => {
                head(2, buf);
                src.encode(buf);
                dst.encode(buf);
                encode_reduce_op(op, buf);
            }
            Coll::Broadcast { root, buf: b } => {
                head(3, buf);
                root.0.encode(buf);
                b.encode(buf);
            }
            Coll::Barrier => head(4, buf),
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
        let tag = u8::decode(buf)?;
        if tag > 4 {
            return Err(SimError::Codec(format!("bad LoggedColl tag {tag}")));
        }
        let (comm, gen) = (CommToken(u64::decode(buf)?), u64::decode(buf)?);
        let coll = match tag {
            0 => Coll::AllReduce {
                buf: BufferId::decode(buf)?,
                op: decode_reduce_op(buf)?,
            },
            1 => Coll::AllGather {
                src: BufferId::decode(buf)?,
                dst: BufferId::decode(buf)?,
            },
            2 => Coll::ReduceScatter {
                src: BufferId::decode(buf)?,
                dst: BufferId::decode(buf)?,
                op: decode_reduce_op(buf)?,
            },
            3 => Coll::Broadcast {
                root: RankId(u32::decode(buf)?),
                buf: BufferId::decode(buf)?,
            },
            _ => Coll::Barrier,
        };
        Ok(LoggedColl { comm, gen, coll })
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
                dst: RankId(u32::decode(buf)?),
                tag: u64::decode(buf)?,
                seq: u64::decode(buf)?,
                buf: BufferId::decode(buf)?,
                same_node: bool::decode(buf)?,
            },
            3 => LoggedOp::Recv {
                src: RankId(u32::decode(buf)?),
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
            LoggedOp::Collective(LoggedColl {
                comm: CommToken(2),
                gen: 17,
                coll: Coll::AllReduce {
                    buf: BufferId(9),
                    op: ReduceOp::Avg,
                },
            }),
            LoggedOp::Collective(LoggedColl {
                comm: CommToken(3),
                gen: 4,
                coll: Coll::ReduceScatter {
                    src: BufferId(1),
                    dst: BufferId(2),
                    op: ReduceOp::Sum,
                },
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
/// op count. It holds the open minibatch only: each minibatch start
/// clears it, and before the first one the client logs nothing into it,
/// since that boundary would clear it unread. Wire-compatible with the `Vec<LoggedOp>` encoding (`u64`
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

    /// Drops all ops (minibatch boundary) and releases the arena: the
    /// next minibatch grows its own. Keeping the allocation would keep
    /// the set-up log's capacity (every initial upload) for the life of
    /// the job, far more than a minibatch's log needs.
    pub fn clear(&mut self) {
        self.arena = BytesMut::new();
        self.len = 0;
    }

    /// Appends one op, encoded into the arena.
    pub(crate) fn push(&mut self, op: &LoggedOp) {
        op.encode(&mut self.arena);
        self.len += 1;
    }

    /// Appends a device call without materializing an owned
    /// `LoggedOp` (the interception hot path: no heap allocation per
    /// op beyond arena growth). Encodes exactly what
    /// `LoggedOp::Device { call, result_vid }` would.
    pub fn push_device(&mut self, call: &DeviceCall, result_vid: Option<u64>) {
        0u8.encode(&mut self.arena);
        call.encode(&mut self.arena);
        result_vid.encode(&mut self.arena);
        self.len += 1;
    }

    /// Decodes every op, in log order.
    pub(crate) fn ops(&self) -> SimResult<Vec<LoggedOp>> {
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
    /// Validates by decoding every op, then keeps the bytes they were
    /// decoded from as the arena.
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        let len = u64::decode(buf)? as usize;
        let ops = buf.clone();
        for _ in 0..len {
            LoggedOp::decode(buf)?;
        }
        let arena = BytesMut::from(ops[..ops.len() - buf.len()].to_vec());
        Ok(OpLog { arena, len })
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
    fn clear_releases_the_set_up_arena() {
        // The set-up log carries every initial upload; the first commit
        // must not leave its capacity behind for the minibatch logs.
        let mut log = OpLog::new();
        for v in 0..1024 {
            log.push(&upload(vid(v)));
        }
        assert!(log.arena.capacity() > 16 * 1024);
        log.clear();
        assert!(log.is_empty());
        assert_eq!((log.arena_len(), log.arena.capacity()), (0, 0));
        log.push(&upload(vid(2)));
        assert_eq!(log.len(), 1);
    }
}
