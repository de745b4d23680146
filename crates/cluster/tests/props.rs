//! Property-based tests for the cluster substrate: allocation safety,
//! quorum logic, and store consistency.

use cluster::scheduler::CheckpointAck;
use cluster::{Cluster, Scheduler, SharedStore};
use proptest::prelude::*;
use simcore::cost::GpuGeneration;
use simcore::layout::ParallelLayout;
use simcore::{GpuId, RankId};
use std::collections::HashSet;

proptest! {
    #[test]
    fn allocation_returns_distinct_healthy_gpus(
        nodes in 1usize..6,
        want in 1usize..16,
        kill in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let mut c = Cluster::new(GpuGeneration::V100_32G, nodes);
        let total = c.total_gpus();
        for k in &kill {
            c.mark_gpu_failed(GpuId((*k as usize % total) as u32));
        }
        let healthy = c.healthy_gpus();
        match c.allocate(want, &HashSet::new()) {
            Ok(got) => {
                prop_assert!(want <= healthy);
                prop_assert_eq!(got.len(), want);
                let set: HashSet<_> = got.iter().collect();
                prop_assert_eq!(set.len(), want, "no duplicates");
                for g in &got {
                    prop_assert!(c.gpu_healthy(*g));
                }
            }
            Err(_) => prop_assert!(want > healthy),
        }
    }

    #[test]
    fn quorum_holds_iff_every_cell_is_acked(
        dp in 1usize..4, pp in 1usize..4, tp in 1usize..3,
        acked_cells in proptest::collection::hash_set((0usize..4, 0usize..3), 0..12),
    ) {
        let layout = ParallelLayout::three_d(dp, pp, tp);
        let nodes = layout.world_size() / 8 + 1;
        let s = Scheduler::new(Cluster::new(GpuGeneration::V100_32G, nodes.max(2)));
        let Ok((job, _)) = s.submit(layout) else {
            return Ok(()); // capacity miss — not what we're testing
        };
        let valid: Vec<(usize, usize)> = acked_cells
            .into_iter()
            .filter(|(st, pt)| *st < pp && *pt < tp)
            .collect();
        for (stage, part) in &valid {
            s.ack_checkpoint(job, CheckpointAck { rank: RankId(0), iteration: 5, stage: *stage, part: *part }).unwrap();
        }
        let covered: HashSet<(usize, usize)> = valid.into_iter().collect();
        let all: HashSet<(usize, usize)> = layout.cells().into_iter().collect();
        let quorum = s.checkpoint_quorum(job).unwrap();
        prop_assert_eq!(quorum.is_some(), covered == all);
    }

    #[test]
    fn reschedule_never_reuses_reported_gpus(
        fail_idx in proptest::collection::hash_set(0usize..8, 1..4),
    ) {
        let s = Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2));
        let (job, gpus) = s.submit(ParallelLayout::data_parallel(8)).unwrap();
        let mut failed = Vec::new();
        for i in &fail_idx {
            s.report_gpu_failure(job, gpus[*i]).unwrap();
            failed.push(gpus[*i]);
        }
        let new = s.reschedule(job).unwrap();
        for f in failed {
            prop_assert!(!new.contains(&f));
        }
    }

    #[test]
    fn store_survives_arbitrary_put_delete_interleavings(
        ops in proptest::collection::vec((any::<bool>(), 0u8..8, proptest::collection::vec(any::<u8>(), 0..32)), 0..64),
    ) {
        let store = SharedStore::new();
        let mut model: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
        for (is_put, key, data) in ops {
            let path = format!("obj/{key}");
            if is_put {
                store.put(&path, bytes::Bytes::from(data.clone())).unwrap();
                model.insert(path, data);
            } else {
                store.delete(&path);
                model.remove(&path);
            }
        }
        prop_assert_eq!(store.len(), model.len());
        for (path, data) in &model {
            prop_assert_eq!(store.get(path).unwrap().to_vec(), data.clone());
        }
        prop_assert_eq!(store.list("obj/").len(), model.len());
    }
}
