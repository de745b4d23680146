//! Job setup: building the communicator structure for a parallel layout.
//!
//! The orchestrator (job launcher) derives every process group from the
//! world communicator with NCCL-style color/key splits
//! (`CommWorld::split_comm`) — one data-parallel group per
//! (stage, partition) cell, one tensor-parallel group per
//! (replica, stage), one pipeline group per (replica, partition) column —
//! and hands each rank its bundle. Splitting (rather than creating each
//! group from scratch) keeps the groups attached to their parent: abort
//! and fault injection propagate world→group, topology installed on the
//! world flows into every slice, and one world rendezvous bootstraps all
//! of them. The number of groups a rank participates in is what recovery
//! must tear down and rebuild (the dominant cost in Table 7).

use collectives::{CommWorld, Communicator, SplitKey};
use simcore::cost::CostModel;
use simcore::layout::{GridCoord, ParallelLayout};
use simcore::time::ClockBoard;
use simcore::RankId;
use std::sync::Arc;

/// The communicator bundle for one rank.
#[derive(Clone)]
pub struct JobComms {
    /// World group (all ranks): used for job-wide barriers.
    pub global: Arc<Communicator>,
    /// Additional framework process groups (Megatron/DeepSpeed create
    /// many specialized groups — embedding, grad-norm, … — that recovery
    /// must also tear down and re-create; they dominate Table 7).
    pub extras: Vec<Arc<Communicator>>,
    /// Data-parallel group of this rank's (stage, partition) cell, when
    /// `dp > 1`.
    pub dp: Option<Arc<Communicator>>,
    /// Tensor-parallel (or FSDP shard) group, when `tp > 1`.
    pub tp: Option<Arc<Communicator>>,
    /// Pipeline group — all stages of this rank's (replica, partition)
    /// column, in stage order — when `pp > 1` (stage-wide barriers,
    /// pipeline-flush coordination).
    pub pp: Option<Arc<Communicator>>,
    /// Previous pipeline stage peer (same replica & partition).
    pub prev: Option<RankId>,
    /// Next pipeline stage peer.
    pub next: Option<RankId>,
}

/// Everything the launcher builds before spawning rank threads.
pub struct JobSetup {
    /// The parallelism layout.
    pub layout: ParallelLayout,
    /// Shared clock board (one slot per rank).
    pub clock: Arc<ClockBoard>,
    /// The communication world.
    pub world: Arc<CommWorld>,
    /// Per-rank communicator bundles, indexed by rank.
    pub per_rank: Vec<JobComms>,
    /// GPUs per node (for same-node routing of p2p transfers).
    pub ranks_per_node: usize,
}

impl JobSetup {
    /// Builds the communicator structure for `layout`.
    pub fn build(layout: ParallelLayout, cost: CostModel, ranks_per_node: usize) -> JobSetup {
        Self::build_with(layout, cost, ranks_per_node, 0, None)
    }

    /// Builds the communicator structure with `extras` additional
    /// framework process groups per rank (spanning the world group), on
    /// the GPU placement `node_of` when one is known: `node_of[r]` is the
    /// node of rank `r` (`Cluster::node_assignment`), in place of the
    /// contiguous `ranks_per_node` default the cost schedules assume.
    pub fn build_with(
        layout: ParallelLayout,
        cost: CostModel,
        ranks_per_node: usize,
        extras: usize,
        node_of: Option<Vec<usize>>,
    ) -> JobSetup {
        let n = layout.world_size();
        let clock = Arc::new(ClockBoard::new(n));
        let world = CommWorld::new(clock.clone(), cost, ranks_per_node);
        let all: Vec<RankId> = (0..n).map(RankId::from).collect();
        let idx: Vec<usize> = (0..n).collect();
        let mut global = world.create_comm(all.clone(), idx.clone());
        if let Some(node_of) = node_of {
            // Placed before any group is split off it: every group then
            // inherits its slice of the placement and stays the world's
            // child, so the world's abort, fault and rendezvous reach it.
            global = global.set_topology(node_of);
            world.replace_comm(global.clone());
        }
        let mut per_rank = split_groups(&layout, &world, global);
        for _ in 0..extras {
            let c = world.create_comm(all.clone(), idx.clone());
            for bundle in &mut per_rank {
                bundle.extras.push(c.clone());
            }
        }
        JobSetup {
            layout,
            clock,
            world,
            per_rank,
            ranks_per_node,
        }
    }

    /// True when two ranks share a node under contiguous rank→GPU
    /// placement.
    pub fn same_node(&self, a: RankId, b: RankId) -> bool {
        a.index() / self.ranks_per_node == b.index() / self.ranks_per_node
    }

    /// Total number of communicators a single rank participates in
    /// (world + dp + tp + pp) — the per-rank "recreate NCCL
    /// communicators" multiplier.
    pub fn comms_per_rank(&self, rank: RankId) -> usize {
        let c = &self.per_rank[rank.index()];
        1 + c.dp.is_some() as usize + c.tp.is_some() as usize + c.pp.is_some() as usize
    }
}

/// (Re)builds all communicators for `layout` on `world` and returns the
/// per-rank bundles. Also used by the recovery engine when rebuilding the
/// communication layer after `CommWorld::reset`.
pub fn build_comms(layout: &ParallelLayout, world: &Arc<CommWorld>) -> Vec<JobComms> {
    let n = layout.world_size();
    let global = world.create_comm((0..n).map(RankId::from).collect(), (0..n).collect());
    split_groups(layout, world, global)
}

/// The per-rank bundles of `layout` around the world communicator
/// `global`. Every group is an NCCL-style split of it: the color names
/// the group (which cell/slice it is), the key is the rank's coordinate
/// along the split axis, so member order inside each group is the grid's
/// canonical order.
fn split_groups(
    layout: &ParallelLayout,
    world: &Arc<CommWorld>,
    global: Arc<Communicator>,
) -> Vec<JobComms> {
    let n = layout.world_size();
    let coords: Vec<GridCoord> = (0..n).map(|r| layout.coord(RankId::from(r))).collect();
    let split = |to_key: &dyn Fn(&GridCoord) -> (usize, usize)| {
        let keys: Vec<SplitKey> = coords
            .iter()
            .map(|c| {
                let (color, key) = to_key(c);
                SplitKey::new(color as i64, key)
            })
            .collect();
        world
            .split_comm(&global, &keys)
            .expect("one SplitKey per world member on a live parent")
    };
    // One dp group per (stage, part) cell, members ordered by replica.
    let dp_of = if layout.dp > 1 {
        split(&|c| (c.stage * layout.tp + c.part, c.dp))
    } else {
        vec![None; n]
    };
    // One tp group per (replica, stage), members ordered by partition.
    let tp_of = if layout.tp > 1 {
        split(&|c| (c.dp * layout.pp + c.stage, c.part))
    } else {
        vec![None; n]
    };
    // One pipeline group per (replica, part) column, members in stage
    // order.
    let pp_of = if layout.pp > 1 {
        split(&|c| (c.dp * layout.tp + c.part, c.stage))
    } else {
        vec![None; n]
    };
    (0..n)
        .map(|r| {
            let rank = RankId::from(r);
            let c = layout.coord(rank);
            let prev = (c.stage > 0).then(|| {
                layout.rank_at(simcore::layout::GridCoord {
                    dp: c.dp,
                    stage: c.stage - 1,
                    part: c.part,
                })
            });
            let next = (c.stage + 1 < layout.pp).then(|| {
                layout.rank_at(simcore::layout::GridCoord {
                    dp: c.dp,
                    stage: c.stage + 1,
                    part: c.part,
                })
            });
            JobComms {
                global: global.clone(),
                extras: Vec::new(),
                dp: dp_of[r].clone(),
                tp: tp_of[r].clone(),
                pp: pp_of[r].clone(),
                prev,
                next,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_dp_has_one_dp_group_no_tp() {
        let s = JobSetup::build(ParallelLayout::data_parallel(4), CostModel::v100(), 8);
        assert_eq!(s.world.live_comms(), 2); // world + 1 dp group
        for r in 0..4 {
            let c = &s.per_rank[r];
            assert!(c.dp.is_some());
            assert!(c.tp.is_none());
            assert!(c.prev.is_none() && c.next.is_none());
            assert_eq!(s.comms_per_rank(RankId(r as u32)), 2);
        }
    }

    #[test]
    fn three_d_builds_cells_and_chains() {
        let layout = ParallelLayout::three_d(2, 2, 2);
        let s = JobSetup::build(layout, CostModel::v100(), 8);
        // world + 4 dp cells + 4 tp groups + 4 pipeline columns.
        assert_eq!(s.world.live_comms(), 13);
        // Rank 0: dp=0, stage=0, part=0.
        let c = &s.per_rank[0];
        assert!(c.dp.is_some() && c.tp.is_some() && c.pp.is_some());
        assert_eq!(s.comms_per_rank(RankId(0)), 4);
        assert!(c.prev.is_none());
        assert_eq!(c.next, Some(RankId(2))); // stage 1, part 0, dp 0
                                             // Rank 2 (stage 1) has prev and no next.
        let c2 = &s.per_rank[2];
        assert_eq!(c2.prev, Some(RankId(0)));
        assert!(c2.next.is_none());
    }

    #[test]
    fn pp_groups_are_stage_ordered_columns() {
        let layout = ParallelLayout::three_d(2, 2, 2);
        let s = JobSetup::build(layout, CostModel::v100(), 8);
        // Rank 0 (dp=0, part=0): its pipeline column is stages 0 and 1 —
        // ranks 0 and 2 — in stage order.
        let pp = s.per_rank[0].pp.as_ref().unwrap();
        assert_eq!(pp.ranks(), &[RankId(0), RankId(2)]);
        // Both stages of the column share the same group instance.
        assert!(Arc::ptr_eq(pp, s.per_rank[2].pp.as_ref().unwrap()));
        // Pure-dp layouts have no pipeline groups.
        let flat = JobSetup::build(ParallelLayout::data_parallel(4), CostModel::v100(), 8);
        assert!(flat.per_rank[0].pp.is_none());
    }

    #[test]
    fn groups_are_children_of_the_world_comm() {
        // Splits (not fresh comms): aborting the world communicator must
        // take every derived group down with it.
        let layout = ParallelLayout::three_d(2, 2, 2);
        let s = JobSetup::build(layout, CostModel::v100(), 8);
        let c = &s.per_rank[0];
        c.global.abort();
        assert!(c.dp.as_ref().unwrap().is_aborted());
        assert!(c.tp.as_ref().unwrap().is_aborted());
        assert!(c.pp.as_ref().unwrap().is_aborted());
    }

    #[test]
    fn placed_groups_stay_children_of_the_world_comm() {
        // 2D-2P-2T spread over two nodes: placing the world must leave the
        // 12 dp, tp and pp groups split off it, so that one world
        // rendezvous bootstraps all of them and the world's abort reaches
        // each.
        let cost = CostModel::v100();
        let node_of = (0..8).map(|r| r % 2).collect();
        let layout = ParallelLayout::three_d(2, 2, 2);
        let s = JobSetup::build_with(layout, cost.clone(), 8, 0, Some(node_of));
        let global = s.per_rank[0].global.clone();
        let g = global.clone();
        for joined in crate::run_ranks(8, move |r| {
            g.rendezvous(RankId::from(r), 0, &collectives::NullObserver)
        }) {
            joined.unwrap();
        }
        let world_and_groups = cost.comm_init.as_secs() * 13.0;
        assert_eq!(s.clock.now(0).as_secs(), world_and_groups);
        global.abort();
        for bundle in &s.per_rank {
            for group in [&bundle.dp, &bundle.tp, &bundle.pp] {
                assert!(group.as_ref().is_some_and(|g| g.is_aborted()));
            }
        }
    }

    #[test]
    fn dp_groups_contain_exactly_the_cell_replicas() {
        let layout = ParallelLayout::three_d(2, 2, 1);
        let s = JobSetup::build(layout, CostModel::v100(), 8);
        let dp = s.per_rank[0].dp.as_ref().unwrap();
        assert_eq!(dp.ranks(), &[RankId(0), RankId(2)]);
    }

    #[test]
    fn same_node_uses_contiguous_placement() {
        let s = JobSetup::build(ParallelLayout::data_parallel(16), CostModel::v100(), 8);
        assert!(s.same_node(RankId(0), RankId(7)));
        assert!(!s.same_node(RankId(7), RankId(8)));
    }
}
