//! Quickstart: train a small data-parallel job under transparent JIT
//! checkpointing, inject a failure, and watch training finish as if
//! nothing happened. The job runs through the one entry point,
//! `jitckpt::run_job`, under `Policy::Transparent`.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cluster::{FailureInjector, SharedStore};
use jitckpt::{run_job, Policy};
use simcore::cost::CostModel;
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::RankId;
use std::sync::Arc;

fn main() {
    // A 4-way data-parallel job (the smallest shape that shows replica
    // based recovery).
    let cfg = dltrain::TrainConfig::tiny_dp(4);
    let iters = 12;

    // Schedule a sticky CUDA error on rank 2, in the backward pass of
    // iteration 5 — the classic single-GPU failure of the paper's study.
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        5,
        Phase::Backward,
        RankId(2),
        FailureKind::StickyCuda,
    )]);

    println!("Training 4-rank DP job for {iters} iterations;");
    println!("a sticky CUDA error will hit rank 2 at iteration 5...\n");

    let out = run_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
        Policy::Transparent { extra_comms: 0 },
    )
    .expect("job must survive the failure");

    println!("recovery rounds: {}", out.rounds);
    println!("losses (rank 0):");
    for (i, l) in out.losses[0].iter().enumerate() {
        let marker = if i == 5 {
            "   <- failure + JIT recovery here"
        } else {
            ""
        };
        println!("  iter {i:2}: {l:.6}{marker}");
    }
    println!("\nPer-rank recovery reports:");
    for r in &out.reports {
        println!(
            "  {}: mode {:?}, victim = {}, total {:.2}s (virtual)",
            r.rank,
            r.mode,
            r.was_victim,
            r.total.as_secs()
        );
        for (action, time) in &r.steps {
            let action = format!("{action:?}");
            println!("    {action:40} {:>9.3}s", time.as_secs());
        }
    }
    println!("\nThe training loop never saw an error — that is the point of §4.");
}
