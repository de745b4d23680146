//! Property-based tests for the paper's core: checkpoint-protocol
//! robustness under arbitrary corruption, analytical-model invariants,
//! and recovery correctness under randomized failure coordinates.

use cluster::{FailureInjector, SharedStore};
use dltrain::TrainState;
use jitckpt::analysis::{
    optimal_frequency, wasted_fraction, wasted_rate_jit_transparent, wasted_rate_jit_user,
    wasted_rate_periodic, wasted_rate_periodic_optimal, JobParams,
};
use jitckpt::checkpoint::{self, CkptKind, ShardConfig};
use jitckpt::{run_job, Policy};
use proptest::prelude::*;
use simcore::cost::CostModel;
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::layout::ParallelLayout;
use simcore::{JobId, RankId};
use simgpu::BufferTag;
use std::sync::{Arc, Mutex};

static SEQ: Mutex<()> = Mutex::new(());

proptest! {
    #[test]
    fn analysis_c_star_minimizes_wasted_rate(
        o in 0.05f64..120.0,
        f_day in 1e-5f64..0.05,
        r in 0.0f64..300.0,
        n in 1usize..20_000,
        probe in 0.01f64..100.0,
    ) {
        let p = JobParams::new(o, f_day, r, n, 0.5);
        let c_star = optimal_frequency(&p);
        prop_assert!(
            wasted_rate_periodic(&p, c_star) <= wasted_rate_periodic(&p, c_star * probe) + 1e-12
        );
        // Closed form agrees with substitution.
        prop_assert!(
            (wasted_rate_periodic(&p, c_star) - wasted_rate_periodic_optimal(&p)).abs() < 1e-9
        );
    }

    #[test]
    fn jit_dominates_periodic_at_scale(
        o in 0.5f64..60.0,
        r in 0.5f64..60.0,
        m in 0.05f64..5.0,
    ) {
        // For any plausible (o, r, m), by N = 8192 both JIT designs waste
        // less than optimal periodic checkpointing — the paper's Table 8
        // claim, as an invariant.
        let f_day = 2.0 / 992.0;
        let p = JobParams::new(o, f_day, r, 8192, m);
        let periodic = wasted_rate_periodic_optimal(&p);
        prop_assert!(wasted_rate_jit_user(&p, 0.0) < periodic);
        prop_assert!(wasted_rate_jit_transparent(&p, 0.0) < periodic);
    }

    #[test]
    fn wasted_fraction_is_bounded_and_monotone(w1 in 0.0f64..1e6, w2 in 0.0f64..1e6) {
        let f1 = wasted_fraction(w1);
        let f2 = wasted_fraction(w2);
        prop_assert!((0.0..1.0).contains(&f1));
        if w1 < w2 {
            prop_assert!(f1 <= f2);
        }
    }

    #[test]
    fn checkpoint_protocol_rejects_arbitrary_corruption(
        data in proptest::collection::vec(any::<f32>(), 1..128),
        it in 0u64..1000,
        flip in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let store = SharedStore::new();
        let state = TrainState {
            iteration: it,
            opt_t: it as u32,
            buffers: vec![("w".into(), BufferTag::Param, data)],
            logical_bytes: 64,
        };
        checkpoint::write_checkpoint_with(&store, JobId(0), CkptKind::Jit, RankId(0), 0, 0, 0, &state, &ShardConfig::default())
            .unwrap();
        // Small states fit in one shard at the default shard size; flip a
        // bit anywhere in that shard object.
        let path = checkpoint::shard_path(JobId(0), CkptKind::Jit, it, 0, 0, 0, 0);
        let raw = store.get(&path).unwrap();
        let mut bad = raw.to_vec();
        let i = flip.index(bad.len());
        bad[i] ^= 1 << bit;
        let changed = bad != raw.to_vec();
        store.put(&path, bytes::Bytes::from(bad)).unwrap();
        let res = checkpoint::read_checkpoint(&store, JobId(0), CkptKind::Jit, it, 0, 0, 0);
        if changed {
            prop_assert!(res.is_err(), "corruption must not decode cleanly");
        }
    }

    #[test]
    fn assembly_always_picks_a_complete_common_iteration(
        iters_per_cell in proptest::collection::vec(
            proptest::collection::vec(0u64..6, 1..4),
            1..3,
        )
    ) {
        // Arbitrary per-cell iteration sets: assembly must return the max
        // of the intersection, or error when the intersection is empty.
        let store = SharedStore::new();
        let pp = iters_per_cell.len();
        let layout = ParallelLayout::three_d(1, pp, 1);
        let state = |it: u64| TrainState {
            iteration: it,
            opt_t: it as u32,
            buffers: vec![("w".into(), BufferTag::Param, vec![1.0])],
            logical_bytes: 4,
        };
        for (stage, its) in iters_per_cell.iter().enumerate() {
            for it in its {
                checkpoint::write_checkpoint_with(
                    &store, JobId(0), CkptKind::Jit, RankId(stage as u32), stage, 0, 0, &state(*it),
                    &ShardConfig::default(),
                ).unwrap();
            }
        }
        let mut common: Option<std::collections::BTreeSet<u64>> = None;
        for its in &iters_per_cell {
            let s: std::collections::BTreeSet<u64> = its.iter().copied().collect();
            common = Some(match common {
                None => s,
                Some(prev) => prev.intersection(&s).copied().collect(),
            });
        }
        let expect = common.unwrap().into_iter().max();
        match (checkpoint::assemble(&store, JobId(0), &layout), expect) {
            (Ok(plan), Some(it)) => {
                for choice in plan.values() {
                    prop_assert_eq!(choice.iteration, it);
                }
            }
            (Err(_), None) => {}
            (Ok(plan), None) => prop_assert!(false, "assembled {plan:?} from empty intersection"),
            (Err(e), Some(it)) => prop_assert!(false, "failed ({e}) though iteration {it} is common"),
        }
    }
}

proptest! {
    // Full end-to-end recovery under randomized failure coordinates is
    // expensive (threads + watchdogs); keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn transparent_recovery_is_exact_for_random_failure_coordinates(
        iteration in 1u64..6,
        phase_idx in 0usize..4,
        victim in 0u32..2,
        kind_idx in 0usize..4,
    ) {
        let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
        let phases = [Phase::Forward, Phase::Backward, Phase::AllReduce, Phase::OptimizerStep];
        let kinds = [
            FailureKind::TransientNetwork,
            FailureKind::DriverCorruption,
            FailureKind::StickyCuda,
            FailureKind::GpuHardware,
        ];
        // Transient network faults only manifest at collectives.
        prop_assume!(!(kind_idx == 0 && phase_idx != 2));
        let cfg = dltrain::TrainConfig::tiny_dp(2);
        let iters = 8;
        let clean = run_job(cfg.clone(), CostModel::v100(), FailureInjector::none(), Arc::new(SharedStore::new()), iters, Policy::Transparent { extra_comms: 0 }).unwrap().losses;
        let injector = FailureInjector::with_specs(vec![FailureSpec::new(
            iteration, phases[phase_idx], RankId(victim), kinds[kind_idx],
        )]);
        let out = run_job(cfg, CostModel::v100(), injector, Arc::new(SharedStore::new()), iters, Policy::Transparent { extra_comms: 0 }).unwrap();
        prop_assert_eq!(out.rounds, 1);
        for (a, b) in clean.iter().zip(&out.losses) {
            for (x, y) in a.iter().zip(b) {
                prop_assert!(x.to_bits() == y.to_bits(), "{x} vs {y}");
            }
        }
    }
}
