//! JIT + low-frequency periodic checkpointing combined (§6.3): both
//! mechanisms share the same file format, so recovery simply takes the
//! newest complete checkpoint of either kind. Both passes call
//! `jitckpt::run_job`, under `Policy::Periodic` and `Policy::UserLevel`.
//!
//! ```sh
//! cargo run --example combined_jit_periodic
//! ```

use cluster::{Cluster, FailureInjector, Scheduler, SharedStore};
use jitckpt::checkpoint::{self, ShardConfig};
use jitckpt::user_level::JitUserConfig;
use jitckpt::{run_job, Policy, PolicyKind};
use simcore::cost::{CostModel, GpuGeneration};
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::layout::ParallelLayout;
use simcore::{JobId, RankId, SimTime};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 12;

    // Pass 1: pure periodic checkpointing (the baseline): a failure at
    // iteration 10 rolls back to the last periodic checkpoint.
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        10,
        Phase::Backward,
        RankId(1),
        FailureKind::StickyCuda,
    )]);
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let out = run_job(
        cfg.clone(),
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
        periodic(scheduler, PolicyKind::PcDisk, 4),
    )
    .expect("periodic run");
    println!("periodic-only: failure at iter 10, checkpoints every 4 iters");
    println!(
        "  → re-executed {} iterations of work across the job\n",
        out.wasted_iterations
    );

    // Pass 2: the combined mode. A low-frequency periodic run seeds the
    // store: its first 8 iterations, checkpointed at 4 and 8. A fresh
    // scheduler numbers each run job 0, so the user-level JIT job below
    // finds those checkpoints, starts from the newest, and when the
    // failure hits restores from its own JIT checkpoint, the newer kind.
    let store = Arc::new(SharedStore::new());
    run_job(
        cfg.clone(),
        CostModel::v100(),
        FailureInjector::none(),
        store.clone(),
        8,
        periodic(
            Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
            PolicyKind::PcDaily,
            4,
        ),
    )
    .expect("seeding run");
    println!("JIT after a PC_1/day run of 8 iterations, same failure at iter 10:");
    let layout = cfg.layout;
    print_restore_plan("start", &store, &layout);
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        10,
        Phase::Backward,
        RankId(1),
        FailureKind::StickyCuda,
    )]);
    let out = run_job(
        cfg,
        CostModel::v100(),
        injector,
        store.clone(),
        iters,
        Policy::UserLevel {
            scheduler,
            jit: JitUserConfig::default(),
        },
    )
    .expect("combined run");
    for e in out.events.iter().filter(|e| e.restore_time > SimTime::ZERO) {
        println!("  {} restored iteration {}", e.rank, e.iteration);
    }
    // JIT writes only on a failure, so the newest checkpoint is still the
    // one the restart restored.
    print_restore_plan("restart", &store, &layout);
    println!(
        "  → restarts: {}, redone work: at most one minibatch",
        out.restarts
    );
}

/// Periodic checkpointing of `kind` every `every_iters` iterations, with
/// the monitor's default timeout and shard layout.
fn periodic(scheduler: Arc<Scheduler>, kind: PolicyKind, every_iters: u64) -> Policy {
    Policy::Periodic {
        scheduler,
        kind,
        every_iters,
        monitor_timeout: Duration::from_millis(1500),
        shards: ShardConfig::default(),
    }
}

/// Prints the checkpoint each cell restores from at a (re)start: the
/// newest complete one of either kind.
fn print_restore_plan(when: &str, store: &SharedStore, layout: &ParallelLayout) {
    let plan = checkpoint::assemble(store, JobId(0), layout).expect("a complete checkpoint");
    for ((stage, part), c) in plan {
        println!(
            "  {when}: cell (stage {stage}, part {part}) restores the {:?} checkpoint of iteration {}",
            c.kind, c.iteration
        );
    }
}
