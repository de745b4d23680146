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
//! straight from its device into the frame ([`state_frame`]).
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
//! ([`crate::restore::read_counted`], which fetches the cell's verified
//! shards through a bounded concurrent pool).
//!
//! The stream is a framed preamble, then CRC-framed shards at sequence
//! `1..=n`, sent by one loop ([`send_state_frames`]) and received by one
//! ([`recv_verified`]), each frame checked by [`open_frame`] — as are the
//! §4.3 frames a healthy replica parks in the store for a migrated victim
//! (`crate::transparent`).

use bytes::{Bytes, BytesMut};
use collectives::CommWorld;
use dltrain::TrainState;
use simcore::codec::{self, Decode, Encode, SHARD_FRAME_OVERHEAD};
use simcore::cost::CostModel;
use simcore::{RankId, SimError, SimResult};
use simgpu::{decode_state, StateView};
use std::time::Duration;

/// Mailbox tag reserved for the recovery state stream (the byte inbox
/// is disjoint from the f32 activation/gradient mailboxes, but a
/// dedicated tag keeps frames self-describing in dumps).
pub const TAG_STATE_STREAM: u64 = 0x53_54_41_54; // "STAT"

/// Sequence number of the stream preamble; shard `i` travels at
/// sequence `i + 1`.
const SEQ_HEADER: u64 = 0;

/// Stream preamble: what the receiver should expect before the first
/// shard arrives. Public because [`send_state`] returns it.
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
/// shard, pipelined as [`send_frames`] charges them.
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
    // A sender that never dies keeps every frame.
    let keep_frames = usize::MAX;
    send_state_truncated(
        world,
        cost,
        src,
        src_clock_idx,
        dst,
        same_node,
        state,
        shard_bytes,
        keep_frames,
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
    let frame = |i| Ok(state_frame(&view, i, shard_bytes));
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

/// Frame `i` of `state` streamed at `shard_bytes` per frame: only that
/// shard is encoded ([`StateView::write_shards`]), straight into its CRC
/// frame ([`codec::frame_shard_with`]). Past the last, a frame is empty.
pub(crate) fn state_frame(state: &StateView<'_>, i: usize, shard_bytes: usize) -> Bytes {
    let mut frames = state.write_shards(shard_bytes, i..i + 1, |i, len, write| {
        codec::frame_shard_with(i as u32, len, write)
    });
    frames.pop().unwrap_or_default()
}

/// [`send_state`] when `keep_frames` is `None`, else
/// [`send_state_truncated`], with frame `i` from `frame(i)`
/// ([`state_frame`]): each frame is encoded when its turn comes —
/// from a host copy, or from a device under its lock, taken per frame —
/// so the whole encoded state never exists on the sender. The framed
/// `header` goes at [`SEQ_HEADER`], then frame `i` at `i + 1`. The
/// sender's clock pays each frame's framing cost before the frame enters
/// the wire; `send_bytes` charges the p2p transfer on top, so later
/// frames are timestamped progressively later and the receiver overlaps
/// applying early frames with the transfer of late ones. A stream that
/// `keep_frames` ends early is cut ([`CommWorld::close_bytes`]), so its
/// receiver learns at once that the rest never comes.
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
    let tag = TAG_STATE_STREAM;
    let send = |seq, bytes| world.send_bytes(src, src_clock_idx, dst, tag, seq, bytes, same_node);
    // The preamble counts as the first frame kept.
    if let Some(kept) = keep_frames.unwrap_or(usize::MAX).checked_sub(1) {
        send(SEQ_HEADER, codec::encode_framed(&header))?;
        for i in (0..header.n_shards as usize).take(kept) {
            let frame = frame(i)?;
            let charge = cost.shard_encode(frame.len() as u64);
            world.clock().advance(src_clock_idx, charge);
            send(i as u64 + 1, frame)?;
        }
    }
    if keep_frames.is_some_and(|kept| kept <= header.n_shards as usize) {
        world.close_bytes(src, dst, tag);
    }
    Ok(header)
}

/// Opens frame `slot` of a frame sequence `from` names — a stream's, or
/// the §4.3 frames parked in the store: its CRC frame
/// ([`codec::decode_shard`]), then that it is frame `slot`, then that
/// nothing follows it. Returns the payload.
pub(crate) fn open_frame(from: &str, mut frame: Bytes, slot: u64) -> SimResult<Bytes> {
    let (index, payload) = codec::decode_shard(&mut frame)?;
    if u64::from(index) != slot {
        return Err(SimError::Protocol(format!(
            "{from}: frame {index} arrived at slot {slot}"
        )));
    }
    if !frame.is_empty() {
        return Err(SimError::Codec(format!(
            "{from}: {} trailing bytes after frame {slot}",
            frame.len()
        )));
    }
    Ok(payload)
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

/// Receives a streamed state from `src`: the framed [`StreamHeader`] at
/// [`SEQ_HEADER`], then the shards it announces, each opened with
/// [`open_frame`] and charged the verify + stage + host→device upload of
/// its payload. Each frame is waited for on the world's mailbox
/// ([`CommWorld::recv_bytes`]): a cut stream, or a sender that departed
/// or is stuck in a provably hung wait, ends the wait at once, and
/// `patience` (real time, per frame) is the last resort. Each surfaces
/// as [`SimError::CollectiveTimeout`] naming the sender. Then it checks
/// the framed total against the preamble's, that the payloads decode in
/// order as one state and nothing more, and its iteration against the
/// preamble. Returns the payloads, still apart, for the caller to decode
/// where the state goes. The preamble's counts size nothing: a stream
/// that carries other than what it declared is refused. The caller falls
/// back to the store-based restore on any error.
pub(crate) fn recv_verified(
    world: &CommWorld,
    cost: &CostModel,
    src: RankId,
    dst: RankId,
    dst_clock_idx: usize,
    patience: Duration,
) -> SimResult<Vec<Bytes>> {
    let tag = TAG_STATE_STREAM;
    let recv = |seq| world.recv_bytes(src, dst, dst_clock_idx, tag, seq, patience);
    let header: StreamHeader = codec::decode_framed(&recv(SEQ_HEADER)?)?;
    let from = format!("recovery stream from {src}");
    let mut payloads = Vec::new();
    for slot in 0..header.n_shards {
        let payload = open_frame(&from, recv(slot + 1)?, slot)?;
        let len = payload.len() as u64;
        world
            .clock()
            .advance(dst_clock_idx, cost.shard_encode(len) + cost.memcpy(len));
        payloads.push(payload);
    }
    if header.n_shards == 0 {
        return Err(SimError::Protocol(format!(
            "recovery stream from {src}: empty shard set"
        )));
    }
    let framed: usize = payloads
        .iter()
        .map(|p| p.len() + SHARD_FRAME_OVERHEAD)
        .sum();
    if framed as u64 != header.total_bytes {
        return Err(SimError::Codec(format!(
            "recovery stream from {src}: received {framed} of {} framed bytes",
            header.total_bytes
        )));
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

/// Which leg of the recovery chain produced the restored state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// The first leg: a state rebuilt from the survivors' gradient
    /// ledgers. No producer of this leg is left in the tree; every caller
    /// passes a leg that fails.
    InNetwork,
    /// Streamed rank-to-rank from a healthy replica's restored state
    /// (the PR 5 path; one store read, by the owner only).
    StreamedReplica,
    /// Full store round-trip — the §3.3 baseline and the last resort,
    /// fetched through the parallel restore plane ([`crate::restore`]).
    Store,
}

/// The recovery fallback chain: the streamed-replica path, then the
/// checkpoint store as the always-available floor. Each leg runs only if
/// the previous one failed; the winning leg is reported alongside what
/// it produced — a host `TrainState`, or the restart launcher's verified
/// state chunks — so callers can assert (and account) the path taken.
/// The first closure, the gradient-ledger leg
/// ([`RecoverySource::InNetwork`]), stays in the signature for the
/// benchmark's callers: no producer of it is left in the tree, and every
/// caller passes one that fails.
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
    use std::time::Instant;

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
    fn a_received_stream_leaves_no_frame_in_the_world() -> SimResult<()> {
        let (w, _) = world(2);
        let cost = CostModel::v100();
        let st = state(10_000);
        let header = send_state(&w, &cost, RankId(0), 0, RankId(1), true, &st, 1000)?;
        assert!(header.n_shards > 2, "expected a multi-shard stream");
        let payloads = recv_verified(&w, &cost, RankId(0), RankId(1), 1, Duration::from_secs(5))?;
        assert_eq!(payloads.len() as u64, header.n_shards);
        for seq in SEQ_HEADER..=header.n_shards {
            let left = w.recv_bytes(
                RankId(0),
                RankId(1),
                1,
                TAG_STATE_STREAM,
                seq,
                Duration::ZERO,
            );
            assert!(left.is_err(), "frame {seq} is still in the world");
        }
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
            .map(|i| state_frame(&view, i, 1000))
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
            .map(|i| state_frame(&view, i, 1000))
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

    #[test]
    fn a_departed_sender_ends_the_wait_long_before_patience() -> SimResult<()> {
        let (w, _) = world(2);
        let cost = CostModel::v100();
        let st = state(10_000);
        // The sender sends the preamble and one frame, then its thread
        // returns: the departure, not the minute of patience, ends the
        // receiver's wait for the second frame.
        let sender = {
            let (w, cost, st) = (w.clone(), cost.clone(), st.clone());
            std::thread::spawn(move || {
                let _departure = w.departure_guard(RankId(0));
                send_state_truncated(&w, &cost, RankId(0), 0, RankId(1), true, &st, 1000, 2)
            })
        };
        let start = Instant::now();
        let patience = Duration::from_secs(60);
        let err = recv_state(&w, &cost, RankId(0), RankId(1), 1, patience).unwrap_err();
        let waited = start.elapsed();
        assert_eq!(err, SimError::CollectiveTimeout { rank: RankId(0) });
        assert!(waited < Duration::from_secs(1), "waited {waited:?}");
        let header = sender
            .join()
            .map_err(|_| SimError::Protocol("sender panicked".into()))??;
        assert!(header.n_shards > 2, "expected a multi-shard stream");
        Ok(())
    }
}
