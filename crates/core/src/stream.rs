//! Pipelined replica-to-replica recovery state transfer.
//!
//! After a failure, §3.3 has every restarting rank read a data-parallel
//! replica's JIT checkpoint back from shared storage. That is a full
//! store round-trip per rank: the healthy replica's state was written
//! shard by shard, and each peer reads it back through the (shared,
//! slow) storage tier. SWIFT-style replica recovery observes that the
//! bytes already exist one network hop away — so here only the replica
//! that owns the chosen checkpoint touches the store, and it then
//! streams its restored state directly rank-to-rank as the same
//! CRC-framed codec shards the checkpoint writer produces, each encoded
//! straight from its device into the frame ([`StateView::frame`]).
//! The receiver keeps the verified frame payloads apart and decodes them
//! into its own device; nothing reassembles them.
//!
//! The transfer is pipelined in virtual time: the sender's clock pays
//! the CPU framing cost per shard and the wire charges p2p transfer on
//! top ([`CommWorld::send_bytes`] stamps each frame's availability),
//! while the receiver's clock rises to each frame's arrival and then
//! pays the verify + host→device apply cost — so shard `k+1` is being
//! framed while shard `k` is in flight and shard `k−1` is being
//! applied. Any stall, abort, or corruption on the stream degrades
//! safely: the receiver falls back to the store-based restore path
//! ([`crate::restore::load_for_rank_parallel`], which fetches shards
//! through a bounded concurrent pool).

use bytes::{Bytes, BytesMut};
use collectives::ledger::{retained_ranges, GradLedger};
use collectives::{CollKind, CommWorld};
use dltrain::TrainState;
use simcore::codec::{self, Decode, Encode, SHARD_FRAME_OVERHEAD};
use simcore::cost::CostModel;
use simcore::{RankId, SimError, SimResult};
use simgpu::{decode_state, StateView};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Mailbox tag reserved for the recovery state stream (the byte inbox
/// is disjoint from the f32 activation/gradient mailboxes, but a
/// dedicated tag keeps frames self-describing in dumps).
pub const TAG_STATE_STREAM: u64 = 0x53_54_41_54; // "STAT"

/// Mailbox tag for in-network ledger-slice streams: survivors shipping
/// their retained gradient shard slices to a replacement rank.
pub const TAG_LEDGER_STREAM: u64 = 0x4C_45_44_47; // "LEDG"

/// Sequence number of the stream preamble; shard `i` travels at
/// sequence `i + 1`.
const SEQ_HEADER: u64 = 0;

/// Stream preamble: what the receiver should expect before the first
/// shard arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Iteration of the streamed state (cross-checked after decode).
    pub iteration: u64,
    /// Number of CRC-framed shards that follow.
    pub n_shards: u64,
    /// Total framed bytes on the wire (progress accounting).
    pub total_bytes: u64,
}

impl Encode for StreamHeader {
    fn encode(&self, buf: &mut BytesMut) {
        self.iteration.encode(buf);
        self.n_shards.encode(buf);
        self.total_bytes.encode(buf);
    }
}

impl Decode for StreamHeader {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        Ok(StreamHeader {
            iteration: u64::decode(buf)?,
            n_shards: u64::decode(buf)?,
            total_bytes: u64::decode(buf)?,
        })
    }
}

/// Streams `state` to `dst` as CRC-framed codec shards: a framed
/// [`StreamHeader`] preamble, then one [`codec::frame_shard`] frame per
/// shard. The sender's clock accrues the per-shard framing cost before
/// each frame enters the wire; `send_bytes` charges the p2p transfer on
/// top, so downstream frames are timestamped progressively later and
/// the receiver can overlap applying early shards with the transfer of
/// late ones.
#[allow(clippy::too_many_arguments)]
pub fn send_state(
    world: &CommWorld,
    cost: &CostModel,
    src: RankId,
    src_clock_idx: usize,
    dst: RankId,
    same_node: bool,
    state: &TrainState,
    shard_bytes: usize,
) -> SimResult<StreamHeader> {
    let view = StateView::from(state);
    let header = stream_header(&view, shard_bytes);
    let frame = |i| Ok(view.frame(i, shard_bytes));
    send_state_frames(
        world,
        cost,
        src,
        src_clock_idx,
        dst,
        same_node,
        header,
        frame,
        None,
    )
}

/// Fault-injection variant of [`send_state`]: the sender dies after
/// emitting `keep_frames` frames (the preamble counts as the first), so
/// the receiver observes a truncated stream — exactly what a replica
/// crashing mid-recovery-transfer produces — and must fall back to the
/// store. `keep_frames = 0` is a sender that dies before the preamble.
#[allow(clippy::too_many_arguments)]
pub fn send_state_truncated(
    world: &CommWorld,
    cost: &CostModel,
    src: RankId,
    src_clock_idx: usize,
    dst: RankId,
    same_node: bool,
    state: &TrainState,
    shard_bytes: usize,
    keep_frames: usize,
) -> SimResult<StreamHeader> {
    let view = StateView::from(state);
    let header = stream_header(&view, shard_bytes);
    let frame = |i| Ok(view.frame(i, shard_bytes));
    let keep = Some(keep_frames);
    send_state_frames(
        world,
        cost,
        src,
        src_clock_idx,
        dst,
        same_node,
        header,
        frame,
        keep,
    )
}

/// The preamble of `state` streamed at `shard_bytes` per frame.
pub(crate) fn stream_header(state: &StateView<'_>, shard_bytes: usize) -> StreamHeader {
    let len = state.size_hint();
    let n = len.div_ceil(shard_bytes.max(1)).max(1);
    StreamHeader {
        iteration: state.iteration,
        n_shards: n as u64,
        total_bytes: (len + n * SHARD_FRAME_OVERHEAD) as u64,
    }
}

/// [`send_state`] when `keep_frames` is `None`, else
/// [`send_state_truncated`], with frame `i` from `frame(i)`
/// ([`StateView::frame`]): each frame is encoded when its turn comes —
/// from a host copy, or from a device under its lock, taken per frame —
/// so the whole encoded state never exists on the sender.
#[allow(clippy::too_many_arguments)]
pub(crate) fn send_state_frames(
    world: &CommWorld,
    cost: &CostModel,
    src: RankId,
    src_clock_idx: usize,
    dst: RankId,
    same_node: bool,
    header: StreamHeader,
    mut frame: impl FnMut(usize) -> SimResult<Bytes>,
    keep_frames: Option<usize>,
) -> SimResult<StreamHeader> {
    let limit = keep_frames.unwrap_or(usize::MAX);
    if limit == 0 {
        return Ok(header);
    }
    world.send_bytes(
        src,
        src_clock_idx,
        dst,
        TAG_STATE_STREAM,
        SEQ_HEADER,
        codec::encode_framed(&header),
        same_node,
    )?;
    for i in 0..header.n_shards as usize {
        if i + 1 >= limit {
            break;
        }
        let frame = frame(i)?;
        world
            .clock()
            .advance(src_clock_idx, cost.shard_encode(frame.len() as u64));
        world.send_bytes(
            src,
            src_clock_idx,
            dst,
            TAG_STATE_STREAM,
            i as u64 + 1,
            frame,
            same_node,
        )?;
    }
    Ok(header)
}

/// Polls the byte mailbox for one frame until `deadline` (real time).
/// A missing frame past the deadline is the dead-replica signature and
/// surfaces as [`SimError::CollectiveTimeout`] naming the sender.
fn recv_frame(
    world: &CommWorld,
    src: RankId,
    dst: RankId,
    dst_clock_idx: usize,
    tag: u64,
    seq: u64,
    deadline: Instant,
) -> SimResult<Bytes> {
    loop {
        if let Some(frame) = world.try_recv_bytes(src, dst, dst_clock_idx, tag, seq)? {
            return Ok(frame);
        }
        if Instant::now() >= deadline {
            return Err(SimError::CollectiveTimeout { rank: src });
        }
        // jitlint::allow(virtual_time): bounded 1ms poll against a real
        // deadline — dead-replica detection has no virtual-time signal.
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Receives a streamed [`TrainState`] from `src` into a host copy:
/// [`recv_verified`], decoded.
pub fn recv_state(
    world: &CommWorld,
    cost: &CostModel,
    src: RankId,
    dst: RankId,
    dst_clock_idx: usize,
    patience: Duration,
) -> SimResult<TrainState> {
    let payloads = recv_verified(world, cost, src, dst, dst_clock_idx, patience)?;
    crate::checkpoint::host_copy(&payloads)
}

/// Receives a streamed state from `src`, verifying every shard's CRC
/// frame, the framed total against the preamble's, that the payloads
/// decode in order as one state and nothing more, and its iteration
/// against the preamble. Returns the payloads, still apart,
/// for the caller to decode where the state goes. The preamble's counts
/// size nothing: a stream that carries other than what it declared is
/// refused. `patience` bounds (in real time) how long the receiver waits
/// for any single frame before declaring the sending replica dead; the
/// caller falls back to the store-based restore on any error.
pub(crate) fn recv_verified(
    world: &CommWorld,
    cost: &CostModel,
    src: RankId,
    dst: RankId,
    dst_clock_idx: usize,
    patience: Duration,
) -> SimResult<Vec<Bytes>> {
    let deadline = Instant::now() + patience;
    let preamble = recv_frame(
        world,
        src,
        dst,
        dst_clock_idx,
        TAG_STATE_STREAM,
        SEQ_HEADER,
        deadline,
    )?;
    let header: StreamHeader = codec::decode_framed(&preamble)?;
    if header.n_shards == 0 {
        return Err(SimError::Protocol(format!(
            "recovery stream from {src}: empty shard set"
        )));
    }
    let framed_mismatch = |framed: u64| {
        SimError::Codec(format!(
            "recovery stream from {src}: received {framed} of {} framed bytes",
            header.total_bytes
        ))
    };
    let mut payloads = Vec::new();
    let mut framed = 0u64;
    for i in 0..header.n_shards {
        let mut frame = recv_frame(
            world,
            src,
            dst,
            dst_clock_idx,
            TAG_STATE_STREAM,
            i + 1,
            deadline,
        )?;
        framed += frame.len() as u64;
        if framed > header.total_bytes {
            return Err(framed_mismatch(framed));
        }
        let (index, payload) = codec::decode_shard(&mut frame)?;
        if index as u64 != i {
            return Err(SimError::Protocol(format!(
                "recovery stream from {src}: shard {index} arrived at slot {i}"
            )));
        }
        if !frame.is_empty() {
            return Err(SimError::Codec(format!(
                "recovery stream from {src}: {} trailing bytes after shard {i}",
                frame.len()
            )));
        }
        // Applying the shard: the CRC/staging pass plus the host→device
        // upload of the payload.
        world.clock().advance(
            dst_clock_idx,
            cost.shard_encode(payload.len() as u64) + cost.memcpy(payload.len() as u64),
        );
        payloads.push(payload);
    }
    if framed != header.total_bytes {
        return Err(framed_mismatch(framed));
    }
    let ((), iteration) = decode_state(&payloads, ())
        .map_err(|e| SimError::Codec(format!("recovery stream from {src}: {e}")))?;
    if iteration != header.iteration {
        return Err(SimError::Protocol(format!(
            "recovery stream from {src}: iteration {iteration} does not match preamble {}",
            header.iteration
        )));
    }
    Ok(payloads)
}

// ---------------------------------------------------------------------------
// In-network ledger streaming: survivors → replacement rank.
// ---------------------------------------------------------------------------

fn kind_to_u8(kind: CollKind) -> u8 {
    match kind {
        CollKind::AllReduce => 0,
        CollKind::AllGather => 1,
        CollKind::ReduceScatter => 2,
        CollKind::Broadcast => 3,
        CollKind::Barrier => 4,
        CollKind::Rendezvous => 5,
    }
}

fn u8_to_kind(v: u8) -> SimResult<CollKind> {
    Ok(match v {
        0 => CollKind::AllReduce,
        1 => CollKind::AllGather,
        2 => CollKind::ReduceScatter,
        3 => CollKind::Broadcast,
        4 => CollKind::Barrier,
        5 => CollKind::Rendezvous,
        other => {
            return Err(SimError::Codec(format!(
                "ledger stream: unknown collective kind byte {other}"
            )))
        }
    })
}

/// Preamble of one survivor's ledger stream: how many slice frames
/// follow and the epoch range they were filtered to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerStreamHeader {
    /// Number of [`LedgerSlice`] frames that follow the preamble.
    pub n_frames: u64,
    /// First epoch covered (inclusive).
    pub epoch_lo: u64,
    /// One past the last epoch covered.
    pub epoch_hi: u64,
}

impl Encode for LedgerStreamHeader {
    fn encode(&self, buf: &mut BytesMut) {
        self.n_frames.encode(buf);
        self.epoch_lo.encode(buf);
        self.epoch_hi.encode(buf);
    }
}

impl Decode for LedgerStreamHeader {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        Ok(LedgerStreamHeader {
            n_frames: u64::decode(buf)?,
            epoch_lo: u64::decode(buf)?,
            epoch_hi: u64::decode(buf)?,
        })
    }
}

/// One retained shard slice on the wire: enough metadata for the
/// replacement rank to place it inside the right generation's result.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerSlice {
    /// Iteration epoch of the generation.
    pub epoch: u64,
    /// Collective generation number on the tapped communicator.
    pub gen: u64,
    /// Collective kind (validated, not interpreted, by the receiver).
    pub kind: CollKind,
    /// Group size at record time.
    pub members: u64,
    /// Full result length in elements.
    pub total_len: u64,
    /// Element offset of this slice inside the full result.
    pub start: u64,
    /// The retained elements.
    pub data: Vec<f32>,
}

impl Encode for LedgerSlice {
    fn encode(&self, buf: &mut BytesMut) {
        self.epoch.encode(buf);
        self.gen.encode(buf);
        kind_to_u8(self.kind).encode(buf);
        self.members.encode(buf);
        self.total_len.encode(buf);
        self.start.encode(buf);
        self.data.encode(buf);
    }
}

impl Decode for LedgerSlice {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        Ok(LedgerSlice {
            epoch: u64::decode(buf)?,
            gen: u64::decode(buf)?,
            kind: u8_to_kind(u8::decode(buf)?)?,
            members: u64::decode(buf)?,
            total_len: u64::decode(buf)?,
            start: u64::decode(buf)?,
            data: Vec::decode(buf)?,
        })
    }
}

/// Streams every shard slice a survivor's ledger retains for the epoch
/// range `epochs` to the replacement rank `dst`: a framed
/// [`LedgerStreamHeader`] preamble, then one CRC frame per retained
/// range per generation. Pure ledger reads — no checkpoint store, no
/// re-reduction; the sender's clock pays the per-slice framing cost, the
/// wire charges p2p transfer on top. Returns the number of slice frames
/// shipped.
#[allow(clippy::too_many_arguments)]
pub fn send_ledger_slices(
    world: &CommWorld,
    cost: &CostModel,
    src: RankId,
    src_clock_idx: usize,
    dst: RankId,
    same_node: bool,
    ledger: &GradLedger,
    epochs: Range<u64>,
) -> SimResult<u64> {
    let mut slices: Vec<LedgerSlice> = Vec::new();
    for meta in ledger.manifest() {
        if !epochs.contains(&meta.epoch) {
            continue;
        }
        for range in retained_ranges(meta.len, meta.members, meta.pos) {
            let Some(data) = ledger.retained_slice(meta.gen, range.clone()) else {
                continue;
            };
            slices.push(LedgerSlice {
                epoch: meta.epoch,
                gen: meta.gen,
                kind: meta.kind,
                members: meta.members as u64,
                total_len: meta.len as u64,
                start: range.start as u64,
                data,
            });
        }
    }
    let header = LedgerStreamHeader {
        n_frames: slices.len() as u64,
        epoch_lo: epochs.start,
        epoch_hi: epochs.end,
    };
    world.send_bytes(
        src,
        src_clock_idx,
        dst,
        TAG_LEDGER_STREAM,
        SEQ_HEADER,
        codec::encode_framed(&header),
        same_node,
    )?;
    let n = slices.len() as u64;
    for (i, slice) in slices.into_iter().enumerate() {
        let mut payload = BytesMut::new();
        slice.encode(&mut payload);
        let frame = codec::frame_shard(i as u32, &payload);
        world
            .clock()
            .advance(src_clock_idx, cost.shard_encode(frame.len() as u64));
        world.send_bytes(
            src,
            src_clock_idx,
            dst,
            TAG_LEDGER_STREAM,
            i as u64 + 1,
            frame,
            same_node,
        )?;
    }
    Ok(n)
}

struct PendingGen {
    kind: CollKind,
    members: u64,
    total_len: usize,
    /// (start, data), possibly overlapping across senders.
    pieces: Vec<(usize, Vec<f32>)>,
}

/// Receives the survivors' ledger streams and reassembles, per epoch in
/// `epochs` and per generation in generation order, the full reduced
/// result vectors — the exact input [`replay_reduced_history`]
/// (`dltrain::RankTrainer`) needs to rebuild the dead rank's state.
///
/// Errors (all of which send the caller down the fallback chain):
/// * a sender goes silent past `patience` → [`SimError::CollectiveTimeout`];
/// * an epoch in the requested range arrives with no generations, or a
///   generation's slices do not cover its full result — the
///   "failed rank and its ring successor both died" coverage gap;
/// * CRC / framing / metadata mismatches.
pub fn recv_ledger_history(
    world: &CommWorld,
    cost: &CostModel,
    srcs: &[RankId],
    dst: RankId,
    dst_clock_idx: usize,
    patience: Duration,
    epochs: Range<u64>,
) -> SimResult<Vec<Vec<Vec<f32>>>> {
    let mut gens: BTreeMap<(u64, u64), PendingGen> = BTreeMap::new();
    for &src in srcs {
        let deadline = Instant::now() + patience;
        let preamble = recv_frame(
            world,
            src,
            dst,
            dst_clock_idx,
            TAG_LEDGER_STREAM,
            SEQ_HEADER,
            deadline,
        )?;
        let header: LedgerStreamHeader = codec::decode_framed(&preamble)?;
        for i in 0..header.n_frames {
            let mut frame = recv_frame(
                world,
                src,
                dst,
                dst_clock_idx,
                TAG_LEDGER_STREAM,
                i + 1,
                deadline,
            )?;
            let (index, mut payload) = codec::decode_shard(&mut frame)?;
            if index as u64 != i {
                return Err(SimError::Protocol(format!(
                    "ledger stream from {src}: slice {index} arrived at slot {i}"
                )));
            }
            // Verify + stage + host→device upload of the slice bytes.
            world.clock().advance(
                dst_clock_idx,
                cost.shard_encode(payload.len() as u64) + cost.memcpy(payload.len() as u64),
            );
            let slice = LedgerSlice::decode(&mut payload)?;
            if !epochs.contains(&slice.epoch) {
                return Err(SimError::Protocol(format!(
                    "ledger stream from {src}: epoch {} outside requested {:?}",
                    slice.epoch, epochs
                )));
            }
            let entry = gens
                .entry((slice.epoch, slice.gen))
                .or_insert_with(|| PendingGen {
                    kind: slice.kind,
                    members: slice.members,
                    total_len: slice.total_len as usize,
                    pieces: Vec::new(),
                });
            if entry.kind != slice.kind
                || entry.members != slice.members
                || entry.total_len != slice.total_len as usize
            {
                return Err(SimError::Protocol(format!(
                    "ledger stream from {src}: generation {} metadata disagrees across senders",
                    slice.gen
                )));
            }
            entry.pieces.push((slice.start as usize, slice.data));
        }
    }
    let mut history: Vec<Vec<Vec<f32>>> = Vec::new();
    for epoch in epochs.clone() {
        let in_epoch: Vec<(&(u64, u64), &PendingGen)> =
            gens.range((epoch, 0)..=(epoch, u64::MAX)).collect();
        if in_epoch.is_empty() {
            return Err(SimError::Protocol(format!(
                "in-network history gap: no generations retained for epoch {epoch}"
            )));
        }
        let mut fused = Vec::with_capacity(in_epoch.len());
        for (&(_, gen), pending) in in_epoch {
            fused.push(assemble_gen(gen, pending)?);
        }
        history.push(fused);
    }
    Ok(history)
}

/// Stitches one generation's slices into its full result, requiring
/// gap-free coverage of `0..total_len`. Overlaps are fine (two
/// survivors legitimately retain the same shard); gaps are the lost-
/// coverage signature and poison the in-network path.
fn assemble_gen(gen: u64, pending: &PendingGen) -> SimResult<Vec<f32>> {
    let mut out = vec![0.0f32; pending.total_len];
    let mut pieces: Vec<&(usize, Vec<f32>)> = pending.pieces.iter().collect();
    pieces.sort_by_key(|(start, _)| *start);
    let mut covered = 0usize;
    for (start, data) in pieces {
        if *start > covered {
            return Err(SimError::Protocol(format!(
                "in-network coverage gap in generation {gen}: elements {covered}..{start} \
                 held by no surviving ledger"
            )));
        }
        let end = start + data.len();
        if end > pending.total_len {
            return Err(SimError::Protocol(format!(
                "ledger slice overruns generation {gen}: {start}..{end} > {}",
                pending.total_len
            )));
        }
        out[*start..end].copy_from_slice(data);
        covered = covered.max(end);
    }
    if covered < pending.total_len {
        return Err(SimError::Protocol(format!(
            "in-network coverage gap in generation {gen}: elements {covered}..{} \
             held by no surviving ledger",
            pending.total_len
        )));
    }
    Ok(out)
}

/// Which leg of the recovery chain produced the restored state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// Reconstructed from survivors' gradient ledgers + deterministic
    /// replay — zero checkpoint-store objects touched.
    InNetwork,
    /// Streamed rank-to-rank from a healthy replica's restored state
    /// (the PR 5 path; one store read, by the owner only).
    StreamedReplica,
    /// Full store round-trip — the §3.3 baseline and the last resort,
    /// fetched through the parallel restore plane
    /// ([`crate::restore::load_for_rank_parallel`]).
    Store,
}

/// The recovery fallback chain: in-network ledger reconstruction first,
/// the streamed-replica path when ledgers cannot cover (failed rank and
/// its ring successor both dead, eviction past the window), and the
/// checkpoint store as the always-available floor. Each leg runs only
/// if the previous one failed; the winning leg is reported alongside
/// what it produced — a host `TrainState`, or the restart launcher's
/// verified state chunks — so callers can assert (and account) the path
/// taken.
pub fn restore_with_fallback<T, A, B, C>(
    in_network: A,
    streamed: B,
    store: C,
) -> SimResult<(T, RecoverySource)>
where
    A: FnOnce() -> SimResult<T>,
    B: FnOnce() -> SimResult<T>,
    C: FnOnce() -> SimResult<T>,
{
    if let Ok(state) = in_network() {
        return Ok((state, RecoverySource::InNetwork));
    }
    if let Ok(state) = streamed() {
        return Ok((state, RecoverySource::StreamedReplica));
    }
    store().map(|state| (state, RecoverySource::Store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::ClockBoard;
    use simcore::SimTime;
    use simgpu::BufferTag;
    use std::sync::Arc;

    fn state(elems: usize) -> TrainState {
        let data: Vec<f32> = (0..elems).map(|i| (i as f32).sin()).collect();
        TrainState {
            iteration: 7,
            opt_t: 7,
            buffers: vec![("model.w".into(), BufferTag::Param, data)],
            logical_bytes: (elems * 4) as u64,
        }
    }

    fn world(n: usize) -> (Arc<CommWorld>, Arc<ClockBoard>) {
        let clock = Arc::new(ClockBoard::new(n));
        (CommWorld::new(clock.clone(), CostModel::v100(), 8), clock)
    }

    #[test]
    fn streamed_state_round_trips_bitwise() -> SimResult<()> {
        let (w, _) = world(2);
        let cost = CostModel::v100();
        let st = state(10_000);
        // Non-aligned shard size forces a partial trailing shard.
        send_state(&w, &cost, RankId(0), 0, RankId(1), true, &st, 1000)?;
        let got = recv_state(&w, &cost, RankId(0), RankId(1), 1, Duration::from_secs(5))?;
        assert_eq!(got.iteration, st.iteration);
        assert_eq!(got.buffers.len(), 1);
        let (ref name, tag, ref data) = got.buffers[0];
        assert_eq!(name, "model.w");
        assert_eq!(tag, BufferTag::Param);
        let want: Vec<u32> = st.buffers[0].2.iter().map(|v| v.to_bits()).collect();
        let have: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, have, "streamed state must be bit-identical");
        Ok(())
    }

    #[test]
    fn transfer_is_pipelined_not_store_priced() -> SimResult<()> {
        let (w, clock) = world(2);
        let cost = CostModel::v100();
        let st = state(1 << 20); // 4 MiB of f32s
        send_state(&w, &cost, RankId(0), 0, RankId(1), true, &st, 256 * 1024)?;
        recv_state(&w, &cost, RankId(0), RankId(1), 1, Duration::from_secs(5))?;
        let streamed = clock.now(1);
        // The store round-trip the stream replaces: write then read
        // through the disk tier (plus the process restart both paths
        // share, omitted from both sides here).
        let bytes = st.logical_bytes;
        let round_trip = cost.checkpoint_write(bytes, simcore::cost::StorageTier::Disk, 8)
            + cost.checkpoint_read(bytes, simcore::cost::StorageTier::Disk, 8);
        assert!(
            streamed < round_trip,
            "pipelined stream {streamed} must beat store round-trip {round_trip}"
        );
        assert!(streamed > SimTime::ZERO);
        Ok(())
    }

    #[test]
    fn a_preamble_total_the_frames_do_not_add_up_to_is_refused() -> SimResult<()> {
        let cost = CostModel::v100();
        let st = state(1000);
        let view = StateView::from(&st);
        let frames: Vec<Bytes> = (0..stream_header(&view, 1000).n_shards as usize)
            .map(|i| view.frame(i, 1000))
            .collect();
        let real: u64 = frames.iter().map(|f| f.len() as u64).sum();
        for claim in [real - 1, real + 1, u64::MAX - 7, u64::MAX] {
            let (w, _) = world(2);
            let header = StreamHeader {
                iteration: st.iteration,
                n_shards: frames.len() as u64,
                total_bytes: claim,
            };
            let preamble = codec::encode_framed(&header);
            w.send_bytes(
                RankId(0),
                0,
                RankId(1),
                TAG_STATE_STREAM,
                SEQ_HEADER,
                preamble,
                true,
            )?;
            for (i, frame) in frames.iter().enumerate() {
                let seq = i as u64 + 1;
                w.send_bytes(
                    RankId(0),
                    0,
                    RankId(1),
                    TAG_STATE_STREAM,
                    seq,
                    frame.clone(),
                    true,
                )?;
            }
            let patience = Duration::from_secs(5);
            let err = recv_state(&w, &cost, RankId(0), RankId(1), 1, patience).unwrap_err();
            assert!(matches!(err, SimError::Codec(_)), "{err}");
            // One byte short is caught as the last frame lands.
            let want = format!("received {real} of {claim} framed bytes");
            assert!(err.to_string().contains(&want), "{err} (want {want})");
        }
        Ok(())
    }

    #[test]
    fn dead_sender_times_out_with_peer_signature() {
        let (w, _) = world(2);
        let cost = CostModel::v100();
        // Nothing was ever sent: the receiver must not hang forever.
        let err = recv_state(
            &w,
            &cost,
            RankId(0),
            RankId(1),
            1,
            Duration::from_millis(30),
        )
        .unwrap_err();
        assert_eq!(err, SimError::CollectiveTimeout { rank: RankId(0) });
    }

    #[test]
    fn truncated_stream_times_out_mid_transfer() -> SimResult<()> {
        let (w, _) = world(2);
        let cost = CostModel::v100();
        let st = state(10_000);
        // Replica dies mid-stream: only the preamble and shard 0 ever
        // reach the wire.
        let view = StateView::from(&st);
        let shards: Vec<Bytes> = (0..stream_header(&view, 1000).n_shards as usize)
            .map(|i| view.frame(i, 1000))
            .collect();
        assert!(shards.len() > 2, "expected a multi-shard stream");
        let header = StreamHeader {
            iteration: st.iteration,
            n_shards: shards.len() as u64,
            total_bytes: shards.iter().map(|s| s.len() as u64).sum(),
        };
        w.send_bytes(
            RankId(0),
            0,
            RankId(1),
            TAG_STATE_STREAM,
            SEQ_HEADER,
            codec::encode_framed(&header),
            true,
        )?;
        w.send_bytes(
            RankId(0),
            0,
            RankId(1),
            TAG_STATE_STREAM,
            1,
            shards[0].clone(),
            true,
        )?;
        let err = recv_state(
            &w,
            &cost,
            RankId(0),
            RankId(1),
            1,
            Duration::from_millis(30),
        )
        .unwrap_err();
        assert_eq!(err, SimError::CollectiveTimeout { rank: RankId(0) });
        Ok(())
    }
}
