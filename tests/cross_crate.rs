//! Cross-crate integration tests: the full stack wired together —
//! trainer over proxy over simulated devices over collectives, with the
//! cluster substrate — exercising properties no single crate can test.

use cluster::{Cluster, FailureInjector, Scheduler, SharedStore};
use jit_checkpoint_repro::*;
use jitckpt::transparent::run_transparent_job;
use jitckpt::user_level::{run_user_level_job, JitUserConfig};
use simcore::cost::{CostModel, GpuGeneration};
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::layout::ParallelLayout;
use simcore::RankId;
use std::sync::{Arc, Mutex};

static SEQ: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SEQ.lock().unwrap_or_else(|e| e.into_inner())
}

fn clean_run(cfg: &dltrain::TrainConfig, iters: u64) -> Vec<Vec<f32>> {
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
    for (r, (x, y)) in a.iter().zip(b).enumerate() {
        for (i, (lx, ly)) in x.iter().zip(y).enumerate() {
            let same = (lx.is_nan() && ly.is_nan()) || lx == ly;
            assert!(same, "rank {r} iter {i}: {lx} vs {ly}");
        }
    }
}

#[test]
fn multiple_sequential_failures_all_recover_transparently() {
    let _g = serial();
    // Three different failure classes, three different victims, one job.
    let cfg = dltrain::TrainConfig::tiny_dp(4);
    let iters = 14;
    let clean = clean_run(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![
        FailureSpec::new(
            2,
            Phase::AllReduce,
            RankId(0),
            FailureKind::TransientNetwork,
        ),
        FailureSpec::new(6, Phase::Backward, RankId(3), FailureKind::StickyCuda),
        FailureSpec::new(10, Phase::Forward, RankId(1), FailureKind::GpuHardware),
    ]);
    let out = run_transparent_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap();
    assert_eq!(out.rounds, 3, "three independent recoveries");
    assert_losses_match(&out.losses, &clean);
}

#[test]
fn fsdp_hybrid_shard_job_recovers_transparently() {
    let _g = serial();
    // T5-3B-style hybrid sharding: 2 replica groups × shard group of 2.
    let mut cfg = dltrain::TrainConfig::tiny_dp(1);
    cfg.layout = ParallelLayout::three_d(2, 1, 2);
    cfg.fsdp = true;
    let iters = 8;
    let clean = clean_run(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        3,
        Phase::Backward,
        RankId(3),
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
fn pipeline_job_survives_mid_stage_failure() {
    let _g = serial();
    // 2 replicas × 2 stages: a stage-0 failure exercises the p2p replay
    // consistency machinery (iteration-keyed idempotent mailboxes).
    let mut cfg = dltrain::TrainConfig::tiny_dp(1);
    cfg.layout = ParallelLayout::three_d(2, 2, 1);
    let iters = 8;
    let clean = clean_run(&cfg, iters);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        3,
        Phase::Forward,
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
}

#[test]
fn user_level_and_transparent_agree_on_final_state() {
    let _g = serial();
    // The same failure recovered by both designs must yield the same
    // trajectory (and both equal the failure-free run).
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 9;
    let clean = clean_run(&cfg, iters);
    let mk_injector = || {
        FailureInjector::with_specs(vec![FailureSpec::new(
            4,
            Phase::Backward,
            RankId(1),
            FailureKind::StickyCuda,
        )])
    };
    let transparent = run_transparent_job(
        cfg.clone(),
        CostModel::v100(),
        mk_injector(),
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap();
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let user = run_user_level_job(
        cfg,
        CostModel::v100(),
        mk_injector(),
        scheduler,
        Arc::new(SharedStore::new()),
        JitUserConfig::default(),
        iters,
    )
    .unwrap();
    assert_losses_match(&transparent.losses, &clean);
    assert_losses_match(&user.losses, &clean);
}

#[test]
fn periodic_baseline_wastes_more_work_than_jit() {
    let _g = serial();
    use baselines::{run_periodic_job, PeriodicConfig, PolicyKind};
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 12;
    let mk_injector = || {
        FailureInjector::with_specs(vec![FailureSpec::new(
            9,
            Phase::Backward,
            RankId(1),
            FailureKind::StickyCuda,
        )])
    };
    // Periodic: checkpoint every 4 → failure at 9 redoes ≥1 iteration.
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let pc = run_periodic_job(
        cfg.clone(),
        CostModel::v100(),
        mk_injector(),
        scheduler,
        Arc::new(SharedStore::new()),
        PeriodicConfig::every(PolicyKind::PcMem, 4),
        iters,
    )
    .unwrap();
    assert!(pc.wasted_iterations >= 1);
    // Transparent JIT on the same failure redoes at most the current
    // minibatch (zero whole iterations).
    let jit = run_transparent_job(
        cfg,
        CostModel::v100(),
        mk_injector(),
        Arc::new(SharedStore::new()),
        iters,
    )
    .unwrap();
    assert_eq!(jit.rounds, 1);
    // Both end bit-identical to each other (semantics preserved).
    assert_losses_match(&pc.losses, &jit.losses);
}

#[test]
fn multi_generation_restore_reads_one_generation_and_falls_back_one() {
    let _g = serial();
    use baselines::{run_periodic_job, PeriodicConfig, PolicyKind};
    use jitckpt::checkpoint::{self, CkptKind};
    use jitckpt::restore::{load_for_rank_parallel, RestoreConfig};
    // A periodic job that checkpoints every 2 of 12 iterations and
    // restarts once with four generations retained: the runner resolves
    // once per restart and the job still ends bit-identical.
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let layout = cfg.layout;
    let iters = 12;
    let store = Arc::new(SharedStore::new());
    let out = run_periodic_job(
        cfg.clone(),
        CostModel::v100(),
        FailureInjector::with_specs(vec![FailureSpec::new(
            9,
            Phase::Backward,
            RankId(1),
            FailureKind::StickyCuda,
        )]),
        Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
        store.clone(),
        PeriodicConfig::every(PolicyKind::PcMem, 2),
        iters,
    )
    .unwrap();
    assert_eq!(out.restarts, 1);
    assert_eq!(out.wasted_iterations, 1, "resumed from the generation at 8");
    assert_losses_match(&out.losses, &clean_run(&cfg, iters));

    // The store the job left behind retains six generations. A restore
    // from it reads exactly the newest: one sidecar plus its shards.
    let job = simcore::JobId(0);
    let generations = store
        .list(checkpoint::job_prefix(job, CkptKind::Periodic))
        .iter()
        .filter(|p| p.ends_with("/dp0/meta"))
        .count();
    assert_eq!(generations, 6);
    for rank in 0..2 {
        let (reads, lists) = (store.read_count(), store.list_count());
        let (state, meta, stats) = load_for_rank_parallel(
            &*store,
            job,
            &layout,
            RankId(rank),
            &RestoreConfig::default(),
        )
        .unwrap();
        assert_eq!(state.iteration, iters);
        assert_eq!(stats.generations_probed, 1);
        assert_eq!(store.read_count() - reads, meta.shards.len() as u64 + 1);
        assert_eq!(store.list_count() - lists, 2, "one list per kind");
    }

    // Lose the newest generation's sidecars: the next one down is
    // validated and restored, nothing older is touched.
    for dp in 0..2 {
        store.delete(checkpoint::meta_path(
            job,
            CkptKind::Periodic,
            iters,
            0,
            0,
            dp,
        ));
    }
    let reads = store.read_count();
    let (state, meta, stats) =
        load_for_rank_parallel(&*store, job, &layout, RankId(0), &RestoreConfig::default())
            .unwrap();
    assert_eq!(state.iteration, iters - 2);
    assert_eq!(
        stats.generations_probed, 1,
        "a generation without sidecars is no candidate"
    );
    assert_eq!(store.read_count() - reads, meta.shards.len() as u64 + 1);

    // Rot the generation now newest, in both replicas: two generations
    // are read — the rotted one through both replicas — and no more.
    for dp in 0..2 {
        store
            .corrupt(checkpoint::shard_path(
                job,
                CkptKind::Periodic,
                iters - 2,
                0,
                0,
                dp,
                0,
            ))
            .unwrap();
    }
    let (state, _, stats) =
        load_for_rank_parallel(&*store, job, &layout, RankId(1), &RestoreConfig::default())
            .unwrap();
    assert_eq!(state.iteration, iters - 4);
    assert_eq!(stats.generations_probed, 2);
}

#[test]
fn poisson_failure_trace_drives_user_level_recovery() {
    let _g = serial();
    // Randomized (seeded) schedule: convert a Poisson trace into scripted
    // failures and survive all of them.
    use simcore::rng::DetRng;
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 16u64;
    let mut rng = DetRng::new(2024);
    let phases = Phase::all();
    let specs: Vec<FailureSpec> = (0..2)
        .map(|k| {
            let it = 3 + rng.below(iters / 2 - 3) + k * (iters / 2);
            let phase = phases[rng.below(3) as usize]; // fwd/bwd/allreduce
            let rank = RankId(rng.below(2) as u32);
            FailureSpec::new(it, phase, rank, FailureKind::StickyCuda)
        })
        .collect();
    let clean = clean_run(&cfg, iters);
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let out = run_user_level_job(
        cfg,
        CostModel::v100(),
        FailureInjector::with_specs(specs),
        scheduler,
        Arc::new(SharedStore::new()),
        JitUserConfig::default(),
        iters,
    )
    .unwrap();
    assert_eq!(out.restarts, 2);
    assert_losses_match(&out.losses, &clean);
}

/// `f32::to_bits` of every rank's loss at every iteration.
fn loss_bits(losses: &[Vec<f32>]) -> Vec<Vec<u32>> {
    losses
        .iter()
        .map(|rank| rank.iter().map(|l| l.to_bits()).collect())
        .collect()
}

#[test]
fn golden_loss_fingerprint_is_stable_across_commits() {
    let _g = serial();
    // Every other bit-identity test compares a run with its same-binary
    // twin; this one pins the numeric trajectory itself, so a kernel
    // rewrite that reorders one floating-point sum fails here. The
    // literals were recorded before the in-place kernel plane landed; a
    // change that moves them changes what every recovery must reproduce.
    let iters = 8;
    let dp2 = dltrain::TrainConfig::tiny_dp(2);
    assert_eq!(
        loss_bits(&clean_run(&dp2, iters)),
        GOLDEN_DP2,
        "tiny DP=2 (SGD) trajectory moved"
    );
    let mut grid = dltrain::TrainConfig::tiny_dp(1);
    grid.layout = ParallelLayout::three_d(1, 2, 2);
    grid.optimizer = dltrain::OptimizerKind::adam(0.01);
    // Widths that are no multiple of any vector width, so remainder
    // lanes are on the trajectory too.
    grid.model = dltrain::ModelConfig {
        input_dim: 12,
        hidden: 38,
        blocks: 2,
        classes: 5,
        phantom_scale: 1.0,
    };
    assert_eq!(
        loss_bits(&clean_run(&grid, iters)),
        GOLDEN_PP2_TP2,
        "PP=2 x TP=2 (Adam) trajectory moved"
    );
}

const GOLDEN_DP2: [[u32; 8]; 2] = [
    [
        1066973136, 1070438775, 1067155316, 1070083688, 1067285161, 1070467993, 1066799534,
        1067246129,
    ],
    [
        1065626888, 1068323223, 1068863445, 1069176680, 1066203902, 1062545999, 1067628266,
        1065870290,
    ],
];
/// The first pipeline stage computes no loss and reports the canonical NaN.
const NO_LOSS: [u32; 8] = [0x7fc0_0000; 8];
const LAST_STAGE: [u32; 8] = [
    1070059645, 1070345438, 1069610232, 1069011455, 1070274110, 1063431532, 1067505500, 1071055839,
];
const GOLDEN_PP2_TP2: [[u32; 8]; 4] = [NO_LOSS, NO_LOSS, LAST_STAGE, LAST_STAGE];
