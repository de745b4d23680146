//! Chunked ring and hierarchical collective engines.
//!
//! The slot-based reference protocol in [`crate::comm`] reduces every
//! collective in a single pass over full `Vec<f32>` copies: the last
//! arrival clones contribution 0, streams the whole vector through cache
//! once per peer, and then every rank clones the complete result out of
//! the slot. That is 2·n full-payload touches beyond the unavoidable
//! n−1 accumulation passes.
//!
//! The ring engine keeps the exact same matched-slot rendezvous (which is
//! what gives collectives their barrier/hang/abort semantics — see the
//! crate docs) but replaces the data plane:
//!
//! * contributions are folded into a single accumulator **eagerly in rank
//!   order** as they arrive (out-of-order arrivals park until their
//!   rank-order turn), so memory stays one accumulator plus the
//!   out-of-order window instead of all n parked vectors;
//! * each fold is split into fixed-size **chunks** reduced in parallel on
//!   the bounded [`simcore::pool::fan_out`] scope pool, each chunk
//!   accumulated in canonical rank order (rank order, not ring-hop order,
//!   so results stay bit-identical to the reference — the determinism the
//!   paper's exact-loss-match validation requires);
//! * the result is delivered as a **shared** `Arc` instead of a private
//!   full-vector clone per rank.
//!
//! The **hierarchical engine** ([`CollEngine::Hier`]) runs the same
//! bit-identical data plane but charges the two-level schedule of
//! [`simcore::cost::CostModel::hier_all_reduce`]: reduce-scatter on each
//! intra-node ring (NVLink hops), a ring across one leader per node (NIC
//! hops), then an intra-node all-gather. Hierarchy in this simulator is a
//! *cost-schedule* property — which simulated links carry the traffic and
//! how many per-hop latencies serialize — never an arithmetic one: every
//! engine accumulates elementwise in strict global rank order, which is
//! why `Hier`, `Ring`, and `Slot` are bit-identical by construction (see
//! DESIGN.md §11).
//!
//! The simulated *time* of a ring collective is charged by
//! [`simcore::cost::CostModel::ring_all_reduce`] /
//! [`ring_all_gather`](simcore::cost::CostModel::ring_all_gather), which
//! model the 2·(n−1) synchronous ring steps with per-hop link classes
//! (NVLink vs NIC) instead of the flat per-byte charge — see
//! [`hop_classes_from_nodes`] for how hops are classified.

use crate::comm::ReduceOp;
use simcore::cost::CostModel;
use simcore::sync::Mutex;
use simcore::{pool, RankId, SimError, SimResult};

/// Default chunk granularity for intra-node (NVLink) rings. 128 KiB keeps
/// a chunk's accumulator and one peer slice comfortably inside L2 while
/// amortizing per-chunk dispatch.
pub const DEFAULT_NVLINK_CHUNK_BYTES: usize = 128 * 1024;

/// Default chunk granularity for rings with inter-node (NIC) hops. The
/// slower link tolerates a coarser chunk; see [`RingConfig::from_cost`]
/// for the bandwidth-delay-product rationale.
pub const DEFAULT_NIC_CHUNK_BYTES: usize = 256 * 1024;

/// Tuning knobs for the chunked ring / hierarchical engines.
///
/// Chunk size is configurable **per hop class**: a ring that rides NVLink
/// only uses `nvlink_chunk_bytes`; a ring with NIC hops uses
/// `nic_chunk_bytes` (the pipe that must stay full is the slow one). The
/// hierarchical engine blocks its data plane at the NVLink granularity —
/// the intra-node phases carry the `2·(m−1)/m` bulk of the volume.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Chunk granularity in bytes for all-NVLink rings (clamped to ≥ 4).
    pub nvlink_chunk_bytes: usize,
    /// Chunk granularity in bytes for rings with NIC hops (clamped to ≥ 4).
    pub nic_chunk_bytes: usize,
    /// Upper bound on reduction workers; the effective pool is
    /// `min(workers, chunks)` and degrades to the calling thread.
    pub workers: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            nvlink_chunk_bytes: DEFAULT_NVLINK_CHUNK_BYTES,
            nic_chunk_bytes: DEFAULT_NIC_CHUNK_BYTES,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Rounds a byte count down to a power of two inside `[32 KiB, 512 KiB]`.
fn chunk_from_bdp(bytes: f64) -> usize {
    let clamped = (bytes as usize).clamp(32 * 1024, 512 * 1024);
    1usize << (usize::BITS - 1 - clamped.leading_zeros())
}

impl RingConfig {
    /// Per-hop-class chunk defaults derived from the cost model: the
    /// bandwidth-delay product of each link class (the segment size below
    /// which a ring step is latency- rather than bandwidth-bound), rounded
    /// to a power of two and clamped to a cache-friendly range. For the
    /// V100 model this yields 512 KiB NVLink / 256 KiB NIC chunks; the
    /// wall-clock sensitivity was measured once, by the chunk-size sweep
    /// kept in EXPERIMENTS.md ("Hierarchical collectives at scale").
    pub fn from_cost(cost: &CostModel) -> Self {
        RingConfig {
            nvlink_chunk_bytes: chunk_from_bdp(cost.nvlink_bw * cost.nvlink_latency.as_secs()),
            nic_chunk_bytes: chunk_from_bdp(cost.nic_bw * cost.coll_latency.as_secs()),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Uniform chunking across both hop classes (tests and sweeps).
    pub fn uniform(chunk_bytes: usize, workers: usize) -> Self {
        RingConfig {
            nvlink_chunk_bytes: chunk_bytes,
            nic_chunk_bytes: chunk_bytes,
            workers,
        }
    }

    /// The chunk size for a ring whose slowest hop class is `inter_node`.
    pub fn chunk_bytes_for(&self, inter_node: bool) -> usize {
        if inter_node {
            self.nic_chunk_bytes
        } else {
            self.nvlink_chunk_bytes
        }
    }

    pub(crate) fn chunk_elems(&self, inter_node: bool) -> usize {
        (self.chunk_bytes_for(inter_node) / std::mem::size_of::<f32>()).max(1)
    }
}

/// Which data-plane engine a communicator runs.
#[derive(Debug, Clone, Copy)]
pub enum CollEngine {
    /// The original matched-slot reference: monolithic single-threaded
    /// reduction, private result copy per rank, flat α–β cost.
    Slot,
    /// Chunked ring reduce-scatter + all-gather with shared delivery and
    /// ring-hop topology-aware cost.
    Ring(RingConfig),
    /// Two-level hierarchical schedule: intra-node reduce-scatter, leader
    /// ring across nodes, intra-node all-gather. Same bit-identical data
    /// plane as `Ring`; the cost model charges
    /// [`simcore::cost::CostModel::hier_all_reduce`] instead of the flat
    /// 2·(n−1)-hop ring.
    Hier(RingConfig),
}

impl Default for CollEngine {
    fn default() -> Self {
        CollEngine::Ring(RingConfig::default())
    }
}

/// Contiguous-placement fallback node assignment: member `i` of `ranks`
/// lives on node `ranks[i].index() / ranks_per_node`. Schedulers that know
/// the real GPU placement override this via `Communicator::set_topology`
/// with `cluster::Cluster::node_assignment`.
pub fn contiguous_node_assignment(ranks: &[RankId], ranks_per_node: usize) -> Vec<usize> {
    let rpn = ranks_per_node.max(1);
    ranks.iter().map(|r| r.index() / rpn).collect()
}

/// Classifies each hop of the member-order ring `i → (i+1) mod n` as
/// intra-node (`true`) or inter-node (`false`) from a node assignment
/// (`node_of[i]` = node of member `i`). A singleton or empty group has no
/// hops.
pub fn hop_classes_from_nodes(node_of: &[usize]) -> Vec<bool> {
    let n = node_of.len();
    if n <= 1 {
        return Vec::new();
    }
    (0..n).map(|i| node_of[i] == node_of[(i + 1) % n]).collect()
}

/// Classifies ring hops under the contiguous placement convention
/// (`ranks_per_node` consecutive global rank ids per node) — the fallback
/// when no real placement is known.
pub fn ring_hop_classes(ranks: &[RankId], ranks_per_node: usize) -> Vec<bool> {
    hop_classes_from_nodes(&contiguous_node_assignment(ranks, ranks_per_node))
}

/// Ranks per node under a node assignment, in first-appearance order —
/// the `node_sizes` input of the hierarchical cost model.
pub fn node_group_sizes(node_of: &[usize]) -> Vec<usize> {
    let mut nodes: Vec<usize> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    for &node in node_of {
        match nodes.iter().position(|n| *n == node) {
            Some(i) => sizes[i] += 1,
            None => {
                nodes.push(node);
                sizes.push(1);
            }
        }
    }
    sizes
}

#[inline(always)]
fn fold(op: ReduceOp, a: f32, b: f32) -> f32 {
    match op {
        ReduceOp::Sum | ReduceOp::Avg => a + b,
        ReduceOp::Max => a.max(b),
    }
}

fn accumulate_chunk(dst: &mut [f32], peers: &[&[f32]], lo: usize, op: ReduceOp) {
    let hi = lo + dst.len();
    // Fold four peers per pass: per-element accumulation order is still
    // strict rank order (bit-identity with the monolithic reference), but
    // four concurrent read streams expose memory-level parallelism where
    // one-peer-at-a-time passes serialize on a single cold stream.
    let mut rest = peers;
    while rest.len() >= 4 {
        let (g, tail) = rest.split_at(4);
        let (p0, p1, p2, p3) = (&g[0][lo..hi], &g[1][lo..hi], &g[2][lo..hi], &g[3][lo..hi]);
        for ((((a, b0), b1), b2), b3) in dst.iter_mut().zip(p0).zip(p1).zip(p2).zip(p3) {
            *a = fold(op, fold(op, fold(op, fold(op, *a, *b0), *b1), *b2), *b3);
        }
        rest = tail;
    }
    for c in rest {
        for (a, b) in dst.iter_mut().zip(&c[lo..hi]) {
            *a = fold(op, *a, *b);
        }
    }
}

/// Scales every element once — the `Avg` finalization. Applied exactly
/// once per collective, after all n contributions are folded, so the
/// eager streaming path and the monolithic reference stay bit-identical
/// (elementwise `× 1/n` commutes with chunking, not with re-folding).
pub fn scale_in_place(dst: &mut [f32], n: usize) {
    let inv = 1.0 / n as f32;
    for a in dst.iter_mut() {
        *a *= inv;
    }
}

/// Chunk-parallel elementwise fold of `peers` (in rank order) into `acc`,
/// blocked at `chunk_elems` granularity across the bounded scope pool.
/// Does NOT apply `Avg` scaling — callers finalize with
/// [`scale_in_place`] once all contributions are in.
pub fn accumulate_into(
    acc: &mut [f32],
    peers: &[&[f32]],
    op: ReduceOp,
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
    if len == 0 || peers.is_empty() {
        return Ok(());
    }
    let chunk = chunk_elems.max(1);
    let n_chunks = len.div_ceil(chunk);
    let workers = workers.clamp(1, n_chunks);
    if workers == 1 {
        for (c, dst) in acc.chunks_mut(chunk).enumerate() {
            accumulate_chunk(dst, peers, c * chunk, op);
        }
    } else {
        // Disjoint per-chunk output slices behind uncontended mutexes:
        // each index is handed out exactly once, so locks never block.
        let parts: Vec<Mutex<&mut [f32]>> = acc.chunks_mut(chunk).map(Mutex::new).collect();
        pool::fan_out(n_chunks, workers, "ring-reduce", |c| {
            let mut dst = parts[c].lock();
            accumulate_chunk(&mut dst, peers, c * chunk, op);
        });
    }
    Ok(())
}

/// Chunked parallel reduction that takes ownership of the rank-order
/// first contribution and accumulates the `peers` (ranks 1..n) into it in
/// place, then finalizes (`Avg` scales once over `peers.len() + 1`
/// contributions). This is the zero-allocation completion path: the first
/// buffer *becomes* the result — no `vec![0.0; len]` zero-fill, no seed
/// memcpy, no result allocation. Bit-identical to the monolithic slot
/// reference (same element-wise accumulation order).
pub fn reduce_seeded(
    mut seed: Vec<f32>,
    peers: &[&[f32]],
    op: ReduceOp,
    cfg: &RingConfig,
) -> SimResult<Vec<f32>> {
    accumulate_into(&mut seed, peers, op, cfg.chunk_elems(false), cfg.workers)?;
    if op == ReduceOp::Avg {
        scale_in_place(&mut seed, peers.len() + 1);
    }
    Ok(seed)
}

/// Chunked parallel reduction of `contribs` (in rank order). Bit-identical
/// to the slot reference: each element is accumulated rank 0 → rank n−1
/// and (for `Avg`) scaled once at the end, exactly as the monolithic loop
/// does — chunking only regroups independent elements.
pub fn reduce_chunked(contribs: &[&[f32]], op: ReduceOp, cfg: &RingConfig) -> SimResult<Vec<f32>> {
    let first = contribs
        .first()
        .ok_or_else(|| SimError::Protocol("reduce without contribution".into()))?;
    reduce_seeded(first.to_vec(), &contribs[1..], op, cfg)
}

/// All-gather data plane: rank-order concatenation assembled in a single
/// linear pass (the ring win for gather is shared delivery plus the
/// per-hop cost model, not the copy itself).
pub fn gather_chunked(contribs: &[&[f32]]) -> Vec<f32> {
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

    fn slot_reference(contribs: &[&[f32]], op: ReduceOp) -> Vec<f32> {
        // The monolithic rank-order loop from the slot engine.
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

    #[test]
    fn chunked_reduce_matches_reference_bitwise() {
        for op in [ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max] {
            // Non-chunk-aligned length and more chunks than workers.
            for len in [1usize, 7, 1023, 4096, 4097] {
                let data = vecs(5, len);
                let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
                let cfg = RingConfig::uniform(1024, 4);
                let got = reduce_chunked(&refs, op, &cfg).unwrap();
                let want = slot_reference(&refs, op);
                assert_eq!(
                    got.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    "op {op:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn incremental_folds_match_batch_reduction_bitwise() {
        // The streaming slot folds arrivals one (or a few) at a time;
        // the per-element accumulation order is identical to one batch
        // reduction, so the results must match to the bit.
        for op in [ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max] {
            let data = vecs(6, 1021);
            let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
            let want = slot_reference(&refs, op);
            let mut acc = data[0].clone();
            // Uneven fold runs: 1, then 3, then 1 peers.
            accumulate_into(&mut acc, &refs[1..2], op, 256, 2).unwrap();
            accumulate_into(&mut acc, &refs[2..5], op, 256, 2).unwrap();
            accumulate_into(&mut acc, &refs[5..6], op, 256, 2).unwrap();
            if op == ReduceOp::Avg {
                scale_in_place(&mut acc, 6);
            }
            assert_eq!(
                acc.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "op {op:?}"
            );
        }
    }

    #[test]
    fn ragged_contributions_are_rejected() {
        let a = vec![1.0f32; 8];
        let b = vec![1.0f32; 9];
        let refs: Vec<&[f32]> = vec![&a, &b];
        let err = reduce_chunked(&refs, ReduceOp::Sum, &RingConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::Protocol(_)));
    }

    #[test]
    fn hop_classes_follow_contiguous_placement() {
        let ranks: Vec<RankId> = (0..16).map(RankId).collect();
        let hops = ring_hop_classes(&ranks, 8);
        // Hops 0..6 intra, 7 crosses to node 1, 8..14 intra, 15 wraps back.
        assert_eq!(hops.iter().filter(|h| !**h).count(), 2);
        assert!(!hops[7] && !hops[15]);
        // Single-node ring is all-NVLink; sub-node comms too.
        assert!(ring_hop_classes(&ranks[..8], 8).iter().all(|h| *h));
        // A dp comm spanning nodes (ranks 0 and 8) is all inter-node.
        let dp = vec![RankId(0), RankId(8)];
        assert!(ring_hop_classes(&dp, 8).iter().all(|h| !*h));
        assert!(ring_hop_classes(&ranks[..1], 8).is_empty());
    }

    #[test]
    fn hop_classes_handle_non_contiguous_placement() {
        // Ranks 0..4 scattered as nodes [0, 1, 0, 1]: every hop crosses —
        // exactly the placement the contiguous heuristic gets wrong.
        let node_of = vec![0usize, 1, 0, 1];
        assert!(hop_classes_from_nodes(&node_of).iter().all(|h| !*h));
        // Grouped non-contiguously: [0, 0, 1, 1, 0] has hops at 1→2,
        // 3→4 and the 4→0 wrap intra.
        let hops = hop_classes_from_nodes(&[0, 0, 1, 1, 0]);
        assert_eq!(hops, vec![true, false, true, false, true]);
        assert!(hop_classes_from_nodes(&[7]).is_empty());
    }

    #[test]
    fn node_group_sizes_count_members_per_node() {
        assert_eq!(node_group_sizes(&[0, 0, 1, 1, 0, 2]), vec![3, 2, 1]);
        assert_eq!(node_group_sizes(&[5, 5, 5]), vec![3]);
        assert!(node_group_sizes(&[]).is_empty());
    }

    #[test]
    fn chunk_defaults_follow_the_cost_model_bdp() {
        let cfg = RingConfig::from_cost(&CostModel::v100());
        // V100: NVLink BDP = 130 GB/s × 8 µs ≈ 1.04 MB → clamped 512 KiB;
        // NIC BDP = 12.5 GB/s × 40 µs = 500 KB → 256 KiB.
        assert_eq!(cfg.nvlink_chunk_bytes, 512 * 1024);
        assert_eq!(cfg.nic_chunk_bytes, 256 * 1024);
        assert!(cfg.chunk_bytes_for(false) > cfg.chunk_bytes_for(true));
    }
}
