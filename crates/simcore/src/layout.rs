//! Parallelism layout: how a job's ranks map onto data-, pipeline-, and
//! tensor-parallel groups.
//!
//! The paper evaluates "3D" configurations like `2D-4P-2T` (2-way data ×
//! 4-way pipeline × 2-way tensor parallel, Table 2). Recovery correctness
//! depends on this grid: a failed rank's state lives in the data-parallel
//! *replicas of its own (pipeline stage, tensor partition) cell*, and the
//! scheduler's checkpoint quorum requires one ack per cell (§3.3).
//!
//! Rank numbering follows the Megatron convention: tensor-parallel ranks
//! are innermost, then pipeline stages, then data-parallel groups:
//! `rank = dp·(pp·tp) + stage·tp + part`.

use crate::ids::RankId;
use serde::{Deserialize, Serialize};

/// Degrees of data / pipeline / tensor parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelLayout {
    /// Data-parallel degree (replica count).
    pub dp: usize,
    /// Pipeline-parallel degree (stage count).
    pub pp: usize,
    /// Tensor-parallel degree (partition count).
    pub tp: usize,
}

/// A rank's coordinates in the parallelism grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GridCoord {
    /// Data-parallel replica index.
    pub dp: usize,
    /// Pipeline stage.
    pub stage: usize,
    /// Tensor partition.
    pub part: usize,
}

impl ParallelLayout {
    /// Pure data parallelism over `n` ranks.
    pub fn data_parallel(n: usize) -> Self {
        ParallelLayout {
            dp: n,
            pp: 1,
            tp: 1,
        }
    }

    /// Full 3D layout.
    pub fn three_d(dp: usize, pp: usize, tp: usize) -> Self {
        ParallelLayout { dp, pp, tp }
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> usize {
        self.dp * self.pp * self.tp
    }

    /// Grid coordinates of a rank.
    pub fn coord(&self, rank: RankId) -> GridCoord {
        let r = rank.index();
        let cell = self.pp * self.tp;
        GridCoord {
            dp: r / cell,
            stage: (r % cell) / self.tp,
            part: r % self.tp,
        }
    }

    /// Rank at the given grid coordinates.
    pub fn rank_at(&self, coord: GridCoord) -> RankId {
        RankId((coord.dp * self.pp * self.tp + coord.stage * self.tp + coord.part) as u32)
    }

    /// All data-parallel replicas of `rank`'s cell (including itself),
    /// in dp order — the ranks that hold identical parameter/optimizer
    /// state and can supply it during recovery.
    pub fn dp_group_of(&self, rank: RankId) -> Vec<RankId> {
        let c = self.coord(rank);
        (0..self.dp)
            .map(|dp| {
                self.rank_at(GridCoord {
                    dp,
                    stage: c.stage,
                    part: c.part,
                })
            })
            .collect()
    }

    /// Tensor-parallel group containing `rank` (same dp replica & stage).
    pub fn tp_group_of(&self, rank: RankId) -> Vec<RankId> {
        let c = self.coord(rank);
        (0..self.tp)
            .map(|part| {
                self.rank_at(GridCoord {
                    dp: c.dp,
                    stage: c.stage,
                    part,
                })
            })
            .collect()
    }

    /// All (stage, partition) cells — the quorum domain for §3.3.
    pub fn cells(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.pp * self.tp);
        for stage in 0..self.pp {
            for part in 0..self.tp {
                out.push((stage, part));
            }
        }
        out
    }

    /// Compact display like `2D-4P-2T`.
    pub fn label(&self) -> String {
        format!("{}D-{}P-{}T", self.dp, self.pp, self.tp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_size_and_coords_round_trip() {
        let l = ParallelLayout::three_d(2, 4, 2);
        assert_eq!(l.world_size(), 16);
        for r in 0..16 {
            let rank = RankId(r);
            let c = l.coord(rank);
            assert_eq!(l.rank_at(c), rank);
            assert!(c.dp < 2 && c.stage < 4 && c.part < 2);
        }
    }

    #[test]
    fn dp_group_holds_same_cell() {
        let l = ParallelLayout::three_d(2, 2, 2);
        let g = l.dp_group_of(RankId(5)); // coord: dp=1, stage=0, part=1
        assert_eq!(g.len(), 2);
        let c5 = l.coord(RankId(5));
        for r in &g {
            let c = l.coord(*r);
            assert_eq!((c.stage, c.part), (c5.stage, c5.part));
        }
        assert!(g.contains(&RankId(5)));
    }

    #[test]
    fn pure_dp_groups_are_everyone() {
        let l = ParallelLayout::data_parallel(4);
        assert_eq!(
            l.dp_group_of(RankId(2)),
            vec![RankId(0), RankId(1), RankId(2), RankId(3)]
        );
        assert_eq!(l.tp_group_of(RankId(2)), vec![RankId(2)]);
    }

    #[test]
    fn cells_enumerate_stage_partition_grid() {
        let l = ParallelLayout::three_d(2, 2, 3);
        let cells = l.cells();
        assert_eq!(cells.len(), 6);
        assert!(cells.contains(&(1, 2)));
    }

    #[test]
    fn label_format_matches_paper() {
        assert_eq!(ParallelLayout::three_d(2, 4, 2).label(), "2D-4P-2T");
    }

    #[test]
    fn tp_ranks_are_contiguous() {
        // Megatron convention: tensor-parallel ranks are adjacent (they
        // share NVLink).
        let l = ParallelLayout::three_d(2, 2, 2);
        let g = l.tp_group_of(RankId(0));
        assert_eq!(g, vec![RankId(0), RankId(1)]);
    }
}
