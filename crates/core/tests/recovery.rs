//! End-to-end recovery tests: the paper's semantics-preservation claim —
//! loss trajectories with failure + JIT recovery must exactly match the
//! failure-free run (§6.2) — across both designs and every failure class
//! of Table 1.

use cluster::{Cluster, FailureInjector, Scheduler, SharedStore};
use jitckpt::transparent::run_transparent_job;
use jitckpt::user_level::{run_user_level_job, JitUserConfig};
use simcore::cost::{CostModel, GpuGeneration};
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::layout::ParallelLayout;
use simcore::{RankId, SimError};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Recovery tests spawn many rank + watchdog threads with real-time hang
/// timeouts; serialize them so host load cannot cause false hang
/// detections.
static SEQ: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SEQ.lock().unwrap_or_else(|e| e.into_inner())
}

fn baseline_losses(cfg: &dltrain::TrainConfig, iters: u64) -> Vec<Vec<f32>> {
    run_transparent_job(
        cfg.clone(),
        CostModel::v100(),
        FailureInjector::none(),
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap()
    .losses
}

fn assert_losses_match(a: &[Vec<f32>], b: &[Vec<f32>]) {
    assert_eq!(a.len(), b.len());
    for (r, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "rank {r} lengths");
        for (i, (lx, ly)) in x.iter().zip(y).enumerate() {
            let same = (lx.is_nan() && ly.is_nan()) || lx == ly;
            assert!(same, "rank {r} iter {i}: {lx} vs {ly}");
        }
    }
}

#[test]
fn user_level_recovers_sticky_error_with_exact_losses() {
    let _guard = serial();
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 10;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        4,
        Phase::Backward,
        RankId(1),
        FailureKind::StickyCuda,
    )]);
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let store = Arc::new(SharedStore::new());
    let out = run_user_level_job(
        cfg,
        CostModel::v100(),
        injector,
        scheduler,
        store,
        JitUserConfig::default(),
        iters,
    )
    .unwrap();
    assert_eq!(out.restarts, 1);
    assert!(
        !out.events.is_empty(),
        "a JIT checkpoint must have happened"
    );
    assert_losses_match(&out.losses, &clean);
}

#[test]
fn user_level_recovers_hard_gpu_error_and_excludes_the_gpu() {
    let _guard = serial();
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 8;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        3,
        Phase::Forward,
        RankId(0),
        FailureKind::GpuHardware,
    )]);
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let store = Arc::new(SharedStore::new());
    let out = run_user_level_job(
        cfg,
        CostModel::v100(),
        injector,
        scheduler.clone(),
        store,
        JitUserConfig::default(),
        iters,
    )
    .unwrap();
    assert_eq!(out.restarts, 1);
    assert_losses_match(&out.losses, &clean);
}

#[test]
fn streamed_replica_restore_is_exact_and_reads_the_store_once() {
    let _guard = serial();
    // Same sticky failure twice: once with stream recovery (the default)
    // and once with every rank paying the §3.3 store round-trip. Both
    // must reproduce the failure-free trajectory exactly, and the
    // streamed run must touch the store strictly less (one payload read
    // per cell instead of one per rank).
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 10;
    let clean = baseline_losses(&cfg, iters);
    let specs = vec![FailureSpec::new(
        4,
        Phase::Backward,
        RankId(1),
        FailureKind::StickyCuda,
    )];
    let mut reads = Vec::new();
    for streamed in [true, false] {
        let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
        let store = Arc::new(SharedStore::new());
        let out = run_user_level_job(
            cfg.clone(),
            CostModel::v100(),
            FailureInjector::with_specs(specs.clone()),
            scheduler,
            store.clone(),
            JitUserConfig {
                stream_recovery: streamed,
                ..JitUserConfig::default()
            },
            iters,
        )
        .unwrap();
        assert_eq!(out.restarts, 1, "streamed={streamed}");
        assert!(
            out.events.iter().any(|e| e.restore_time.as_secs() > 0.0),
            "a restore must have happened (streamed={streamed})"
        );
        assert_losses_match(&out.losses, &clean);
        reads.push(store.read_count());
    }
    assert!(
        reads[0] < reads[1],
        "streaming must cut store reads: {} streamed vs {} store-only",
        reads[0],
        reads[1]
    );
}

#[test]
fn replica_dying_mid_stream_falls_back_to_the_store() {
    let _guard = serial();
    // The checkpoint owner starts streaming its state but "dies" after
    // the preamble frame. The receiving replica must time out, fall back
    // to the store round-trip, and still land on the exact failure-free
    // trajectory.
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 10;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        4,
        Phase::Backward,
        RankId(1),
        FailureKind::StickyCuda,
    )]);
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let store = Arc::new(SharedStore::new());
    let out = run_user_level_job(
        cfg,
        CostModel::v100(),
        injector,
        scheduler,
        store,
        JitUserConfig {
            stream_truncate: Some(1),
            stream_patience: std::time::Duration::from_millis(100),
            ..JitUserConfig::default()
        },
        iters,
    )
    .unwrap();
    assert_eq!(out.restarts, 1);
    assert!(
        out.events.iter().any(|e| e.restore_time.as_secs() > 0.0),
        "the fallback restore must be recorded"
    );
    assert_losses_match(&out.losses, &clean);
}

#[test]
fn transparent_recovers_transient_network_fault() {
    let _guard = serial();
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 8;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        3,
        Phase::AllReduce,
        RankId(0),
        FailureKind::TransientNetwork,
    )]);
    let out = run_transparent_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap();
    assert_eq!(out.rounds, 1, "one recovery round");
    assert_losses_match(&out.losses, &clean);
    // Every rank filed a report with the Table 7 steps.
    assert_eq!(out.reports.len(), 2);
    for r in &out.reports {
        assert!(r.steps.iter().any(|s| s.name.contains("Recreate NCCL")));
    }
}

#[test]
fn transparent_recovers_sticky_error_via_replica_copy() {
    let _guard = serial();
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 8;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        4,
        Phase::Backward,
        RankId(1),
        FailureKind::StickyCuda,
    )]);
    let out = run_transparent_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap();
    assert_eq!(out.rounds, 1);
    assert_losses_match(&out.losses, &clean);
    // The victim's recovery includes the replica state copy.
    let victim = out.reports.iter().find(|r| r.rank == RankId(1)).unwrap();
    assert!(victim.was_victim);
    assert!(victim
        .steps
        .iter()
        .any(|s| s.name.contains("Copy state from replica")));
}

#[test]
fn transparent_recovers_driver_corruption_via_host_roundtrip() {
    let _guard = serial();
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 8;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        2,
        Phase::AllReduce,
        RankId(0),
        FailureKind::DriverCorruption,
    )]);
    let out = run_transparent_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap();
    assert_eq!(out.rounds, 1);
    assert_losses_match(&out.losses, &clean);
}

#[test]
fn transparent_rolls_forward_on_optimizer_step_failure() {
    let _guard = serial();
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 8;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        3,
        Phase::OptimizerStep,
        RankId(0),
        FailureKind::StickyCuda,
    )]);
    let out = run_transparent_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap();
    assert_eq!(out.rounds, 1);
    assert_losses_match(&out.losses, &clean);
    let victim = out.reports.iter().find(|r| r.rank == RankId(0)).unwrap();
    assert_eq!(victim.mode, jitckpt::transparent::RecoveryMode::RollForward);
}

#[test]
fn transparent_recovers_hard_error_by_migration() {
    let _guard = serial();
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 8;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        3,
        Phase::Forward,
        RankId(1),
        FailureKind::GpuHardware,
    )]);
    let out = run_transparent_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap();
    assert_eq!(out.rounds, 1);
    assert_losses_match(&out.losses, &clean);
    let victim = out.reports.iter().find(|r| r.rank == RankId(1)).unwrap();
    assert!(victim.hard);
}

#[test]
fn transparent_3d_job_recovers_with_exact_losses() {
    let _guard = serial();
    let mut cfg = dltrain::TrainConfig::tiny_dp(1);
    cfg.layout = ParallelLayout::three_d(2, 2, 2);
    let iters = 6;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        2,
        Phase::Backward,
        RankId(5),
        FailureKind::StickyCuda,
    )]);
    let out = run_transparent_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap();
    assert_eq!(out.rounds, 1);
    assert_losses_match(&out.losses, &clean);
}

#[test]
fn transparent_recovers_simultaneous_multi_gpu_failures() {
    let _guard = serial();
    // Table 1 says "single/MULTIPLE errors": two ranks fail in the same
    // round (as a node failure would produce), with enough data-parallel
    // replicas left to recover both.
    let cfg = dltrain::TrainConfig::tiny_dp(4);
    let iters = 8;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![
        FailureSpec::new(3, Phase::Backward, RankId(0), FailureKind::StickyCuda),
        FailureSpec::new(3, Phase::Backward, RankId(2), FailureKind::StickyCuda),
    ]);
    let out = run_transparent_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap();
    assert_eq!(out.rounds, 1, "one recovery round handles both victims");
    assert_losses_match(&out.losses, &clean);
    let victims = out.reports.iter().filter(|r| r.was_victim).count();
    assert_eq!(victims, 2);
}

#[test]
fn transparent_recovers_node_failure_via_migration_of_all_its_ranks() {
    let _guard = serial();
    // A node failure kills every GPU on the node. With 4 DP replicas and
    // ranks 0-1 sharing the failed node, both migrate and restore from
    // the surviving replicas' buffer files.
    let cfg = dltrain::TrainConfig::tiny_dp(4);
    let iters = 8;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![
        FailureSpec::new(3, Phase::Forward, RankId(0), FailureKind::NodeFailure),
        FailureSpec::new(3, Phase::Forward, RankId(1), FailureKind::NodeFailure),
    ]);
    let out = run_transparent_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap();
    assert_eq!(out.rounds, 1);
    assert_losses_match(&out.losses, &clean);
    let hard = out.reports.iter().filter(|r| r.hard).count();
    assert_eq!(hard, 4, "every rank participates in the hard round");
}

#[test]
fn no_replica_means_no_transparent_recovery() {
    let _guard = serial();
    // dp = 1: a sticky error has no replica to restore from; the engine
    // must fail loudly rather than resume with corrupt state.
    let cfg = dltrain::TrainConfig::tiny_dp(1);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        2,
        Phase::Backward,
        RankId(0),
        FailureKind::StickyCuda,
    )]);
    let res = run_transparent_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        5,
    );
    assert!(res.is_err(), "recovery without replicas must not succeed");
}

#[test]
fn hard_error_without_a_healthy_replica_fails_at_once() {
    let _guard = serial();
    // Nobody is left to write the §4.3 buffer files a migrated victim
    // would read: at dp = 1, and at 2D-2P-2T with both replicas of cell
    // (stage 0, part 1) hard-failed. Both fail before the minibatch's
    // first collective, so they fail in the same round. The round is
    // refused when it is decided, on every rank, instead of after the
    // victim waits out the arrival timeout for files that never come.
    let mut grid = dltrain::TrainConfig::tiny_dp(1);
    grid.layout = ParallelLayout::three_d(2, 2, 2);
    let cases = [
        (dltrain::TrainConfig::tiny_dp(1), vec![RankId(0)]),
        (grid, vec![RankId(1), RankId(5)]),
    ];
    for (cfg, victims) in cases {
        let label = cfg.layout.label();
        let specs = victims
            .into_iter()
            .map(|r| FailureSpec::new(2, Phase::Forward, r, FailureKind::GpuHardware))
            .collect();
        let t0 = Instant::now();
        let res = run_transparent_job(
            cfg,
            CostModel::v100(),
            FailureInjector::with_specs(specs),
            Arc::new(SharedStore::new()),
            5,
        );
        let took = t0.elapsed();
        assert!(
            matches!(res, Err(SimError::NoCheckpointAvailable(_))),
            "{label}: {res:?}"
        );
        assert!(took < Duration::from_secs(1), "{label}: took {took:?}");
    }
}

#[test]
fn torn_jit_checkpoint_falls_back_to_scratch_restart() {
    let _guard = serial();
    // The healthy rank dies *while writing* its JIT checkpoint (torn
    // payload). Assembly must reject the file and the job restarts from
    // scratch — slower, but still bit-exact.
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 7;
    let clean = baseline_losses(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        3,
        Phase::Backward,
        RankId(0),
        FailureKind::StickyCuda,
    )]);
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let store = Arc::new(SharedStore::new());
    // Arm the torn write: the very next store put (the JIT payload) keeps
    // only half its bytes.
    store.fail_next_write(0.5);
    let out = run_user_level_job(
        cfg,
        CostModel::v100(),
        injector,
        scheduler,
        store.clone(),
        JitUserConfig::default(),
        iters,
    )
    .unwrap();
    assert_eq!(out.restarts, 1);
    // No restore event (nothing valid to restore from)...
    assert!(out.events.iter().all(|e| e.restore_time.as_secs() == 0.0));
    // ...yet the trajectory is still exactly the failure-free one.
    assert_losses_match(&out.losses, &clean);
}

#[test]
fn catastrophic_failure_falls_back_to_periodic_checkpoint() {
    let _guard = serial();
    // §6.3: JIT + low-frequency periodic checkpointing compose. When a
    // catastrophic failure takes out EVERY data-parallel replica at once
    // (no JIT checkpoint possible), the job must restart from the last
    // periodic checkpoint instead of from scratch.
    use jitckpt::checkpoint::{self, CkptKind, ShardConfig};
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 8;
    let clean = baseline_losses(&cfg, iters);
    // Produce a consistent periodic checkpoint at iteration 3 by running
    // a clean prefix and snapshotting.
    let store = Arc::new(SharedStore::new());
    {
        use dltrain::{JobSetup, RankTrainer};
        use proxy::DirectExecutor;
        let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
        let world = setup.world.clone();
        let per_rank = setup.per_rank.clone();
        let cfg2 = cfg.clone();
        let store2 = store.clone();
        let results = dltrain::run_ranks(2, move |i| {
            let gpu = simgpu::Gpu::new(simcore::GpuId(i as u32), CostModel::v100());
            let exec = DirectExecutor::new(RankId(i as u32), i, gpu, world.clone());
            let mut tr =
                RankTrainer::new(exec, cfg2.clone(), &per_rank[i], FailureInjector::none())?;
            tr.train(3)?;
            let state = tr.state_snapshot()?;
            checkpoint::write_checkpoint_with(
                &store2,
                simcore::JobId(0),
                CkptKind::Periodic,
                RankId(i as u32),
                0,
                0,
                i,
                &state,
                &ShardConfig::default(),
            )?;
            Ok::<_, simcore::SimError>(())
        });
        for r in results {
            r.unwrap();
        }
    }
    // Both ranks die in the same minibatch: no healthy replica, no JIT
    // checkpoint, no quorum.
    let injector = FailureInjector::with_specs(vec![
        FailureSpec::new(5, Phase::Backward, RankId(0), FailureKind::GpuHardware),
        FailureSpec::new(5, Phase::Backward, RankId(1), FailureKind::GpuHardware),
    ]);
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let out = run_user_level_job(
        cfg,
        CostModel::v100(),
        injector,
        scheduler,
        store.clone(),
        JitUserConfig::default(),
        iters,
    )
    .unwrap();
    assert_eq!(out.restarts, 1);
    // The restore events reference the periodic checkpoint's iteration.
    let restores: Vec<_> = out
        .events
        .iter()
        .filter(|e| e.restore_time.as_secs() > 0.0)
        .collect();
    assert!(!restores.is_empty(), "must restore from the periodic ckpt");
    assert!(restores.iter().all(|e| e.iteration == 3));
    // The launcher resumes from the seeded checkpoint, so iterations 0–2
    // ran only in the prefix job; from 3 on, the post-catastrophe
    // trajectory must match the failure-free run exactly (iterations
    // 3..5 are the re-executed periodic-recovery tax JIT avoids).
    for (rank, clean_rank) in clean.iter().enumerate().take(2) {
        for it in 0..3 {
            assert!(out.losses[rank][it].is_nan());
        }
        for (it, clean_loss) in clean_rank.iter().enumerate().take(iters as usize).skip(3) {
            assert_eq!(
                out.losses[rank][it].to_bits(),
                clean_loss.to_bits(),
                "rank {rank} iter {it}"
            );
        }
    }
}
