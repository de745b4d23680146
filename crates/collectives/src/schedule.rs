//! The cost schedule: how much simulated time a collective costs.
//!
//! Every communicator folds its bytes on the one data plane of
//! `plane.rs`, elementwise in member order, so a collective's result is
//! the same whatever the schedule. [`CollEngine`] decides only the time
//! the completion charges as a clock barrier:
//!
//! * [`CollEngine::Ring`] — the 2·(n−1) synchronous steps of a chunked
//!   ring ([`CostModel::ring_all_reduce`] /
//!   [`CostModel::ring_all_gather`]), each gated by the slowest link class
//!   on the ring: a NIC hop as soon as one member-order neighbour pair
//!   sits on different nodes, NVLink otherwise;
//! * [`CollEngine::Hier`] — the two-level schedule of
//!   [`CostModel::hier_all_reduce`]: reduce-scatter on each intra-node
//!   ring (NVLink hops), a ring across one leader per node (NIC hops),
//!   then an intra-node all-gather.
//!
//! Both read the group's node placement: the contiguous fallback
//! ([`contiguous_node_assignment`]) until `Communicator::set_topology`
//! installs the real one. Hierarchy in this simulator is which simulated
//! links carry the traffic and how many per-hop latencies serialize,
//! never an arithmetic property (DESIGN.md §11).

use crate::comm::CollKind;
use simcore::cost::CostModel;
use simcore::{RankId, SimTime};

/// How the data plane cuts a fold. Carried by both schedules; the bits a
/// fold produces do not depend on it.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Chunk granularity of the member-order fold, in bytes (clamped to
    /// at least one `f32`).
    pub chunk_bytes: usize,
    /// Upper bound on reduction workers; the effective pool is
    /// `min(workers, chunks)` and degrades to the calling thread.
    pub workers: usize,
}

impl RingConfig {
    /// The chunk from the cost model: the NVLink bandwidth-delay product
    /// (the segment below which a ring step is latency- rather than
    /// bandwidth-bound), rounded down to a power of two inside
    /// `[32 KiB, 512 KiB]` — 512 KiB for the V100 model. What the chunk
    /// actually trades is host cache blocking against per-chunk dispatch;
    /// the sweep in EXPERIMENTS.md ("Hierarchical collectives at scale")
    /// measured it once.
    pub fn from_cost(cost: &CostModel) -> Self {
        let bdp = (cost.nvlink_bw * cost.nvlink_latency.as_secs()) as usize;
        let clamped = bdp.clamp(32 * 1024, 512 * 1024);
        RingConfig {
            chunk_bytes: 1usize << (usize::BITS - 1 - clamped.leading_zeros()),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    pub(crate) fn chunk_elems(&self) -> usize {
        (self.chunk_bytes / std::mem::size_of::<f32>()).max(1)
    }
}

/// Which cost schedule a communicator charges.
#[derive(Debug, Clone, Copy)]
pub enum CollEngine {
    /// Flat chunked ring reduce-scatter + all-gather, charged per ring
    /// step at the slowest hop class.
    Ring(RingConfig),
    /// Two-level hierarchical schedule: intra-node reduce-scatter, leader
    /// ring across nodes, intra-node all-gather.
    Hier(RingConfig),
}

/// A communicator's schedule: the engine, the cost model, and the
/// placement-derived inputs of [`Schedule::coll_cost`].
pub(crate) struct Schedule {
    engine: CollEngine,
    cost: CostModel,
    /// Node id of each member, by member position.
    pub(crate) node_of: Vec<usize>,
    /// How the data plane cuts this communicator's folds.
    pub(crate) fold: RingConfig,
    /// Ring hops crossing a node boundary.
    inter_hops: usize,
    /// Members per node in first-appearance order.
    node_sizes: Vec<usize>,
}

impl Schedule {
    /// The chunked ring with the cost model's fold chunk, over `node_of`.
    pub(crate) fn ring(cost: CostModel, node_of: Vec<usize>) -> Self {
        Self::new(
            CollEngine::Ring(RingConfig::from_cost(&cost)),
            cost,
            node_of,
        )
    }

    /// This schedule under `engine`.
    pub(crate) fn with_engine(&self, engine: CollEngine) -> Self {
        Self::new(engine, self.cost.clone(), self.node_of.clone())
    }

    /// This schedule over the placement `node_of`.
    pub(crate) fn placed(&self, node_of: Vec<usize>) -> Self {
        Self::new(self.engine, self.cost.clone(), node_of)
    }

    fn new(engine: CollEngine, cost: CostModel, node_of: Vec<usize>) -> Self {
        // Both schedules fold alike; only `coll_cost` tells them apart.
        let (CollEngine::Ring(fold) | CollEngine::Hier(fold)) = engine;
        Schedule {
            engine,
            cost,
            inter_hops: hop_classes_from_nodes(&node_of)
                .iter()
                .filter(|same| !**same)
                .count(),
            node_sizes: node_group_sizes(&node_of),
            node_of,
            fold,
        }
    }

    /// Simulated duration of one `kind` collective over `bytes` logical
    /// bytes. A rendezvous also bootstraps the `children()` live groups
    /// split off this communicator: split comms share the parent's
    /// bootstrap ring instead of each paying a fresh park and init round,
    /// so the cost scales with the group count while the rank threads park
    /// exactly once.
    pub(crate) fn coll_cost(
        &self,
        kind: CollKind,
        bytes: u64,
        children: impl FnOnce() -> usize,
    ) -> SimTime {
        let (cost, n) = (&self.cost, self.node_of.len());
        match (kind, self.engine) {
            (CollKind::AllReduce, CollEngine::Ring(_)) => {
                cost.ring_all_reduce(bytes, n, self.inter_hops)
            }
            (CollKind::AllReduce, CollEngine::Hier(_)) => {
                cost.hier_all_reduce(bytes, &self.node_sizes)
            }
            (
                CollKind::AllGather | CollKind::ReduceScatter | CollKind::Broadcast,
                CollEngine::Ring(_),
            ) => cost.ring_all_gather(bytes, n, self.inter_hops),
            (
                CollKind::AllGather | CollKind::ReduceScatter | CollKind::Broadcast,
                CollEngine::Hier(_),
            ) => cost.hier_all_gather(bytes, &self.node_sizes),
            (CollKind::Barrier, _) => {
                SimTime::from_secs(cost.coll_latency.as_secs() * (n as f64).log2().ceil().max(1.0))
            }
            (CollKind::Rendezvous, _) => {
                SimTime::from_secs(cost.comm_init.as_secs() * (1.0 + children() as f64))
            }
        }
    }
}

/// Contiguous-placement fallback node assignment: member `i` of `ranks`
/// lives on node `ranks[i].index() / ranks_per_node`. Schedulers that know
/// the real GPU placement override this via `Communicator::set_topology`
/// with `cluster::Cluster::node_assignment`.
pub(crate) fn contiguous_node_assignment(ranks: &[RankId], ranks_per_node: usize) -> Vec<usize> {
    let rpn = ranks_per_node.max(1);
    ranks.iter().map(|r| r.index() / rpn).collect()
}

/// Classifies each hop of the member-order ring `i → (i+1) mod n` as
/// intra-node (`true`) or inter-node (`false`) from a node assignment
/// (`node_of[i]` = node of member `i`). A singleton or empty group has no
/// hops.
fn hop_classes_from_nodes(node_of: &[usize]) -> Vec<bool> {
    let n = node_of.len();
    if n <= 1 {
        return Vec::new();
    }
    (0..n).map(|i| node_of[i] == node_of[(i + 1) % n]).collect()
}

/// Ranks per node under a node assignment, in first-appearance order —
/// the `node_sizes` input of the hierarchical cost model.
fn node_group_sizes(node_of: &[usize]) -> Vec<usize> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_classes_follow_contiguous_placement() {
        let ranks: Vec<RankId> = (0..16).map(RankId).collect();
        let hops = |ranks: &[RankId]| hop_classes_from_nodes(&contiguous_node_assignment(ranks, 8));
        let all = hops(&ranks);
        // Hops 0..6 intra, 7 crosses to node 1, 8..14 intra, 15 wraps back.
        assert_eq!(all.iter().filter(|h| !**h).count(), 2);
        assert!(!all[7] && !all[15]);
        // Single-node ring is all-NVLink; sub-node comms too.
        assert!(hops(&ranks[..8]).iter().all(|h| *h));
        // A dp comm spanning nodes (ranks 0 and 8) is all inter-node.
        assert!(hops(&[RankId(0), RankId(8)]).iter().all(|h| !*h));
        assert!(hops(&ranks[..1]).is_empty());
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
    fn chunk_follows_the_nvlink_bdp() {
        // V100: NVLink BDP = 130 GB/s × 8 µs ≈ 1.04 MB → clamped 512 KiB.
        let cfg = RingConfig::from_cost(&CostModel::v100());
        assert_eq!(cfg.chunk_bytes, 512 * 1024);
        assert_eq!(cfg.chunk_elems(), 128 * 1024);
        assert!(cfg.workers >= 1);
    }
}
