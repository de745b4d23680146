//! Transparent recovery across every error class of Table 1, on a 3D
//! (data × pipeline × tensor) parallel job, with the Table-7-style step
//! breakdown printed for each recovery. Each job is `jitckpt::run_job`
//! under `Policy::Transparent`; its `JobOutcome` carries the reports.
//!
//! ```sh
//! cargo run --example transparent_recovery
//! ```

use cluster::{FailureInjector, SharedStore};
use jitckpt::{run_job, Policy};
use simcore::cost::CostModel;
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::layout::ParallelLayout;
use simcore::RankId;
use std::sync::Arc;

fn main() {
    let scenarios = [
        (
            "transient network fault (in the all-reduce)",
            FailureKind::TransientNetwork,
            Phase::AllReduce,
        ),
        (
            "driver-state corruption (host round-trip)",
            FailureKind::DriverCorruption,
            Phase::Backward,
        ),
        (
            "sticky CUDA error (replica copy)",
            FailureKind::StickyCuda,
            Phase::Forward,
        ),
        (
            "failure inside the optimizer step (roll forward)",
            FailureKind::StickyCuda,
            Phase::OptimizerStep,
        ),
        (
            "hard GPU failure (migration + CRIU)",
            FailureKind::GpuHardware,
            Phase::Backward,
        ),
    ];
    for (label, kind, phase) in scenarios {
        let mut cfg = dltrain::TrainConfig::tiny_dp(1);
        cfg.layout = ParallelLayout::three_d(2, 2, 2);
        let injector =
            FailureInjector::with_specs(vec![FailureSpec::new(3, phase, RankId(5), kind)]);
        println!("== {label} ==");
        let out = run_job(
            cfg,
            CostModel::v100(),
            injector,
            Arc::new(SharedStore::new()),
            7,
            Policy::Transparent { extra_comms: 0 },
        )
        .expect("recovery");
        let victim = out
            .reports
            .iter()
            .find(|r| r.rank == RankId(5))
            .expect("victim report");
        println!("  mode: {:?}, recovery rounds: {}", victim.mode, out.rounds);
        for (action, time) in &victim.steps {
            let action = format!("{action:?}");
            println!("    {action:45} {:>9.3}s", time.as_secs());
        }
        println!("    {:45} {:>9.3}s (total)", "", victim.total.as_secs());
        let finite = out.losses[2].iter().filter(|l| l.is_finite()).count();
        println!("  loss-bearing iterations completed: {finite}/7\n");
    }
    println!("All five error classes recovered without the training loop");
    println!("ever observing an error.");
}
