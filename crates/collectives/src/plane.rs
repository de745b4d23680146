//! The collective data plane: how one generation's contributions become
//! its result.
//!
//! One plane serves every communicator under either cost schedule, and
//! knows nothing of schedules (`schedule.rs` charges the time):
//!
//! * **reductions stream** — an all-reduce or reduce-scatter folds each
//!   contribution into a single accumulator eagerly, elementwise in strict
//!   member order, the moment its turn comes; out-of-order arrivals park
//!   only until the fold front reaches them. Peak memory per in-flight
//!   reduction is one accumulator plus the out-of-order window, which is
//!   what lets a 2048-rank world run without holding 2048 parked 4 MiB
//!   buffers (or 2048 OS threads — see `Communicator::offer_reduce`).
//!   `Avg` multiplies by 1/n in the pass that folds the last member;
//! * **chunked folds** — each fold is cut into fixed-size chunks reduced
//!   in parallel on the bounded [`simcore::pool::fan_out`] pool. Chunking
//!   regroups independent elements and never reorders one element's
//!   accumulation, so every chunk size and worker count gives the same
//!   bits: the determinism the paper's exact-loss validation requires;
//! * **parked kinds** — gather, broadcast, barrier and rendezvous keep
//!   each contribution in a member-position-indexed table and assemble the
//!   result once the last member arrives.
//!
//! Every member then receives the same shared `Arc` of the result.

use crate::comm::{CollKind, ReduceOp};
use simcore::sync::Mutex;
use simcore::{pool, SimError, SimResult};
use std::collections::BTreeMap;

/// How a rank hands its buffer to a collective.
pub(crate) enum Contribution<'a> {
    /// Owned buffer (the blocking API) — moved into the slot, or consumed
    /// as the streaming accumulator without a copy.
    Data(Vec<f32>),
    /// Caller-owned slice (the non-blocking offer API) — folded in place
    /// when its member-order turn has come, copied only if it must park.
    Borrowed(&'a [f32]),
    /// No payload (barrier, rendezvous, non-root broadcast).
    Empty,
}

impl Contribution<'_> {
    fn as_slice(&self) -> Option<&[f32]> {
        match self {
            Contribution::Data(v) => Some(v),
            Contribution::Borrowed(s) => Some(s),
            Contribution::Empty => None,
        }
    }

    fn into_parked(self) -> Option<Vec<f32>> {
        match self {
            Contribution::Data(v) => Some(v),
            Contribution::Borrowed(s) => Some(s.to_vec()),
            Contribution::Empty => None,
        }
    }
}

/// Per-generation contribution storage, indexed by **member position**
/// (position in the communicator's `ranks` list — the canonical reduction
/// order, which for split groups need not be sorted-RankId order). It
/// lives only while its generation is in flight: the communicator drops it
/// once [`SlotData::take_result`] has produced the result.
pub(crate) enum SlotData {
    /// Every contribution held until the last arrival (outer `None` = not
    /// arrived; inner `None` = an arrival without payload).
    Parked {
        contribs: Vec<Option<Option<Vec<f32>>>>,
        arrived: usize,
    },
    /// Eager member-order fold: `acc` holds members `0..folded` already
    /// reduced; out-of-order arrivals park in `parked` (keyed by member
    /// position) until the fold front reaches them.
    Streaming {
        acc: Vec<f32>,
        folded: usize,
        parked: BTreeMap<usize, Vec<f32>>,
    },
}

impl SlotData {
    /// Empty storage for a `kind` collective over `n` members.
    pub(crate) fn new(kind: CollKind, n: usize) -> Self {
        match kind {
            CollKind::AllReduce | CollKind::ReduceScatter => SlotData::Streaming {
                acc: Vec::new(),
                folded: 0,
                parked: BTreeMap::new(),
            },
            _ => SlotData::Parked {
                contribs: vec![None; n],
                arrived: 0,
            },
        }
    }

    /// True once member `pos` has contributed.
    pub(crate) fn has_arrived(&self, pos: usize) -> bool {
        match self {
            SlotData::Parked { contribs, .. } => contribs[pos].is_some(),
            SlotData::Streaming { folded, parked, .. } => {
                pos < *folded || parked.contains_key(&pos)
            }
        }
    }

    /// Records member `pos`'s contribution to a collective over `n`
    /// members, folding it (and any parked successors it unblocks) at
    /// `chunk_elems` granularity on at most `workers` threads. Returns
    /// `true` once every member's contribution is in. Re-arrivals are
    /// identical by the idempotency contract: a parked one overwrites, a
    /// folded one is skipped.
    pub(crate) fn contribute(
        &mut self,
        pos: usize,
        contrib: Contribution<'_>,
        op: Option<ReduceOp>,
        n: usize,
        chunk_elems: usize,
        workers: usize,
    ) -> SimResult<bool> {
        match self {
            SlotData::Parked { contribs, arrived } => {
                if contribs[pos].is_none() {
                    *arrived += 1;
                }
                contribs[pos] = Some(contrib.into_parked());
                Ok(*arrived == n)
            }
            SlotData::Streaming {
                acc,
                folded,
                parked,
            } => {
                let op = op.ok_or_else(|| {
                    SimError::Protocol("streaming collective without reduce op".into())
                })?;
                if pos == *folded {
                    let contrib = match contrib {
                        Contribution::Empty => {
                            return Err(SimError::Protocol("missing contribution".into()))
                        }
                        // The member-order first buffer *becomes* the
                        // accumulator — no zero-fill, no seed memcpy.
                        Contribution::Data(v) if *folded == 0 => {
                            *acc = v;
                            Contribution::Empty
                        }
                        Contribution::Borrowed(s) if *folded == 0 => {
                            *acc = s.to_vec();
                            Contribution::Empty
                        }
                        c => c,
                    };
                    *folded += 1;
                    // Fold it and the contiguous run of parked successors
                    // it unblocks in one chunk-parallel pass (4-wide peer
                    // streams, same member-order association as
                    // one-at-a-time folds). `Avg` is scaled once, by the
                    // pass that folds the last member, so the result does
                    // not depend on how the folds were cut.
                    let mut run: Vec<Vec<f32>> = Vec::new();
                    while let Some(v) = parked.remove(&(*folded + run.len())) {
                        run.push(v);
                    }
                    *folded += run.len();
                    let peers: Vec<&[f32]> = (contrib.as_slice().into_iter())
                        .chain(run.iter().map(Vec::as_slice))
                        .collect();
                    let scale = (op == ReduceOp::Avg && *folded == n).then(|| 1.0 / n as f32);
                    accumulate_into(acc, &peers, op, scale, chunk_elems, workers)?;
                } else if pos > *folded {
                    // Out-of-order: park an owned copy until the fold
                    // front reaches this member position.
                    let v = contrib
                        .into_parked()
                        .ok_or_else(|| SimError::Protocol("missing contribution".into()))?;
                    parked.insert(pos, v);
                }
                Ok(*folded == n)
            }
        }
    }

    /// The result of a generation every member has contributed to.
    /// `root_pos` is the broadcast root's member position. The fold's
    /// accumulator (already averaged, for `Avg`) and the root's buffer are
    /// moved out, not copied; nothing reads a slot's contributions after
    /// completion (replay is served the cached result).
    pub(crate) fn take_result(
        &mut self,
        kind: CollKind,
        root_pos: Option<usize>,
    ) -> SimResult<Vec<f32>> {
        match self {
            SlotData::Streaming { acc, folded, .. } => {
                let n = *folded;
                let out = std::mem::take(acc);
                if kind == CollKind::ReduceScatter && !out.len().is_multiple_of(n) {
                    return Err(SimError::Protocol(format!(
                        "reduce-scatter length {} not divisible by {n}",
                        out.len()
                    )));
                }
                Ok(out)
            }
            SlotData::Parked { contribs, .. } => match kind {
                CollKind::AllGather => {
                    let mut refs: Vec<&[f32]> = Vec::with_capacity(contribs.len());
                    for c in contribs.iter() {
                        refs.push(
                            c.as_ref()
                                .and_then(|d| d.as_deref())
                                .ok_or_else(|| SimError::Protocol("missing contribution".into()))?,
                        );
                    }
                    Ok(gather_chunked(&refs))
                }
                CollKind::Broadcast => root_pos
                    .and_then(|p| contribs.get_mut(p))
                    .and_then(|c| c.take())
                    .flatten()
                    .ok_or_else(|| SimError::Protocol("broadcast root contributed no data".into())),
                CollKind::Barrier | CollKind::Rendezvous => Ok(Vec::new()),
                CollKind::AllReduce | CollKind::ReduceScatter => {
                    Err(SimError::Protocol("a reduction never parks".into()))
                }
            },
        }
    }
}

#[inline(always)]
fn fold(op: ReduceOp, a: f32, b: f32) -> f32 {
    match op {
        ReduceOp::Sum | ReduceOp::Avg => a + b,
        ReduceOp::Max => a.max(b),
    }
}

/// Folds `peers` (in member order) into `dst`, the chunk of the
/// accumulator starting at element `lo`, then multiplies by `scale`
/// (`Avg`'s 1/n) in the pass over the last peer.
fn accumulate_chunk(
    dst: &mut [f32],
    peers: &[&[f32]],
    lo: usize,
    op: ReduceOp,
    scale: Option<f32>,
) {
    let hi = lo + dst.len();
    // Fold four peers per pass: per-element accumulation order is still
    // strict member order, but four concurrent read streams expose
    // memory-level parallelism where one-peer-at-a-time passes serialize
    // on a single cold stream.
    let mut rest = peers;
    while rest.len() >= 4 {
        let (g, tail) = rest.split_at(4);
        let (p0, p1, p2, p3) = (&g[0][lo..hi], &g[1][lo..hi], &g[2][lo..hi], &g[3][lo..hi]);
        for ((((a, b0), b1), b2), b3) in dst.iter_mut().zip(p0).zip(p1).zip(p2).zip(p3) {
            *a = fold(op, fold(op, fold(op, fold(op, *a, *b0), *b1), *b2), *b3);
        }
        rest = tail;
    }
    // With no peer left for it (four-wide passes took them all, or a
    // one-member group has none), the scale takes a pass of its own.
    let Some((last, init)) = rest.split_last() else {
        if let Some(inv) = scale {
            dst.iter_mut().for_each(|a| *a *= inv);
        }
        return;
    };
    for c in init {
        for (a, b) in dst.iter_mut().zip(&c[lo..hi]) {
            *a = fold(op, *a, *b);
        }
    }
    let last = &last[lo..hi];
    match scale {
        Some(inv) => dst
            .iter_mut()
            .zip(last)
            .for_each(|(a, b)| *a = fold(op, *a, *b) * inv),
        None => dst
            .iter_mut()
            .zip(last)
            .for_each(|(a, b)| *a = fold(op, *a, *b)),
    }
}

/// Chunk-parallel elementwise fold of `peers` (in member order) into
/// `acc`, blocked at `chunk_elems` granularity across the bounded scope
/// pool. `scale` is `Avg`'s 1/n when these are the last members, and
/// multiplies each element once, after its last fold (elementwise
/// `× 1/n` commutes with chunking, not with re-folding).
fn accumulate_into(
    acc: &mut [f32],
    peers: &[&[f32]],
    op: ReduceOp,
    scale: Option<f32>,
    chunk_elems: usize,
    workers: usize,
) -> SimResult<()> {
    let len = acc.len();
    for c in peers {
        if c.len() != len {
            return Err(SimError::Protocol(format!(
                "ragged collective: {} vs {}",
                c.len(),
                len
            )));
        }
    }
    if len == 0 || (peers.is_empty() && scale.is_none()) {
        return Ok(());
    }
    let chunk = chunk_elems.max(1);
    let n_chunks = len.div_ceil(chunk);
    let workers = workers.clamp(1, n_chunks);
    if workers == 1 {
        for (c, dst) in acc.chunks_mut(chunk).enumerate() {
            accumulate_chunk(dst, peers, c * chunk, op, scale);
        }
    } else {
        // Disjoint per-chunk output slices behind uncontended mutexes:
        // each index is handed out exactly once, so locks never block.
        let mut parts: Vec<Mutex<&mut [f32]>> = Vec::with_capacity(n_chunks);
        acc.chunks_mut(chunk)
            .for_each(|part| parts.push(Mutex::new(part)));
        pool::fan_out(n_chunks, workers, "ring-reduce", |c| {
            let mut dst = parts[c].lock();
            accumulate_chunk(&mut dst, peers, c * chunk, op, scale);
        });
    }
    Ok(())
}

/// All-gather data plane: member-order concatenation assembled in a
/// single linear pass.
fn gather_chunked(contribs: &[&[f32]]) -> Vec<f32> {
    let total: usize = contribs.iter().map(|c| c.len()).sum();
    let mut out = Vec::with_capacity(total);
    for c in contribs {
        out.extend_from_slice(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|r| {
                (0..len)
                    .map(|i| ((r * 31 + i * 7) % 97) as f32 * 0.37 - 11.0)
                    .collect()
            })
            .collect()
    }

    /// The bit-identity oracle: one sequential, unchunked, member-order
    /// fold, `Avg` scaled once at the end.
    fn sequential_reference(contribs: &[&[f32]], op: ReduceOp) -> Vec<f32> {
        let mut acc = contribs[0].to_vec();
        for c in &contribs[1..] {
            for (a, b) in acc.iter_mut().zip(*c) {
                match op {
                    ReduceOp::Sum | ReduceOp::Avg => *a += b,
                    ReduceOp::Max => *a = a.max(*b),
                }
            }
        }
        if op == ReduceOp::Avg {
            let inv = 1.0 / contribs.len() as f32;
            for a in &mut acc {
                *a *= inv;
            }
        }
        acc
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn chunked_fold_matches_the_sequential_reference_bitwise() {
        for op in [ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max] {
            // Non-chunk-aligned length and more chunks than workers.
            for len in [1usize, 7, 1023, 4096, 4097] {
                let data = vecs(5, len);
                let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
                let mut got = data[0].clone();
                // Four peers: the four-wide pass folds them all, and the
                // scale takes a pass of its own.
                let scale = (op == ReduceOp::Avg).then_some(1.0 / 5.0);
                accumulate_into(&mut got, &refs[1..], op, scale, 256, 4).unwrap();
                let want = sequential_reference(&refs, op);
                assert_eq!(bits(&got), bits(&want), "op {op:?} len {len}");
            }
        }
    }

    #[test]
    fn incremental_folds_match_the_sequential_reference_bitwise() {
        // The streaming slot folds arrivals one (or a few) at a time;
        // the per-element accumulation order is identical to one batch
        // reduction, so the results must match to the bit.
        for op in [ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max] {
            let data = vecs(6, 1021);
            let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
            let want = sequential_reference(&refs, op);
            let mut acc = data[0].clone();
            // Uneven fold runs: 1, then 3, then 1 peers; the last run
            // scales.
            let scale = (op == ReduceOp::Avg).then_some(1.0 / 6.0);
            accumulate_into(&mut acc, &refs[1..2], op, None, 256, 2).unwrap();
            accumulate_into(&mut acc, &refs[2..5], op, None, 256, 2).unwrap();
            accumulate_into(&mut acc, &refs[5..6], op, scale, 256, 2).unwrap();
            assert_eq!(bits(&acc), bits(&want), "op {op:?}");
        }
    }

    #[test]
    fn out_of_order_contributions_stream_to_the_reference() {
        // Arrivals 3, 1, 0, 4, 2: the fold front waits for member 0, then
        // drains the parked run behind each in-order arrival.
        let data = vecs(5, 333);
        let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
        let mut slot = SlotData::new(CollKind::AllReduce, 5);
        for pos in [3, 1, 0, 4, 2] {
            let done = slot
                .contribute(
                    pos,
                    Contribution::Borrowed(&data[pos]),
                    Some(ReduceOp::Avg),
                    5,
                    64,
                    2,
                )
                .unwrap();
            assert!(slot.has_arrived(pos));
            assert_eq!(done, pos == 2, "complete only with the last member");
        }
        let got = slot.take_result(CollKind::AllReduce, None).unwrap();
        assert_eq!(
            bits(&got),
            bits(&sequential_reference(&refs, ReduceOp::Avg))
        );
    }

    #[test]
    fn the_completing_fold_averages_at_every_group_size() {
        // One member: no fold, the scale takes its own pass. Two and
        // more: the pass that folds the last member scales, whichever
        // member arrives last.
        for n in 1..=6 {
            let data = vecs(n, 517);
            let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
            let want = sequential_reference(&refs, ReduceOp::Avg);
            for last in 0..n {
                let mut slot = SlotData::new(CollKind::AllReduce, n);
                let order = (0..n).filter(|p| *p != last).chain([last]);
                for pos in order {
                    let contrib = Contribution::Data(data[pos].clone());
                    let done = slot
                        .contribute(pos, contrib, Some(ReduceOp::Avg), n, 64, 2)
                        .unwrap();
                    assert_eq!(done, pos == last);
                }
                let got = slot.take_result(CollKind::AllReduce, None).unwrap();
                assert_eq!(bits(&got), bits(&want), "n {n}, last {last}");
            }
        }
    }

    #[test]
    fn ragged_contributions_are_rejected() {
        let (a, b) = (vec![1.0f32; 8], vec![1.0f32; 9]);
        let err = accumulate_into(&mut a.clone(), &[&b], ReduceOp::Sum, None, 4, 1).unwrap_err();
        assert!(matches!(err, SimError::Protocol(_)));
    }
}
