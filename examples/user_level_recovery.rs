//! User-level JIT checkpointing end to end (§3 of the paper):
//! a proven hang → checkpoint from the healthy replicas →
//! scheduler quorum → kill + reschedule excluding the failed GPU →
//! restore from any replica's checkpoint. The job is `jitckpt::run_job`
//! under `Policy::UserLevel`, with the scheduler the policy restarts on.
//!
//! ```sh
//! cargo run --example user_level_recovery
//! ```

use cluster::{Cluster, FailureInjector, Scheduler, SharedStore};
use jitckpt::user_level::JitUserConfig;
use jitckpt::{run_job, Policy};
use simcore::cost::{CostModel, GpuGeneration};
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::RankId;
use std::sync::Arc;

fn main() {
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 10;
    // A hard GPU failure on rank 0 at iteration 4: the device is dead and
    // must be excluded from the reschedule.
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        4,
        Phase::Forward,
        RankId(0),
        FailureKind::GpuHardware,
    )]);
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let store = Arc::new(SharedStore::new());

    println!("2-rank DP job, hard GPU error on rank 0 at iteration 4.");
    println!("The healthy replica JIT-checkpoints; the scheduler waits for");
    println!("quorum, kills the job, and reschedules on fresh GPUs.\n");

    let out = run_job(
        cfg,
        CostModel::v100(),
        injector,
        store.clone(),
        iters,
        Policy::UserLevel {
            scheduler: scheduler.clone(),
            jit: JitUserConfig::default(),
        },
    )
    .expect("user-level recovery");

    println!("restarts: {}", out.restarts);
    for e in &out.events {
        if e.checkpoint_time.as_secs() > 0.0 {
            println!(
                "  {} wrote a JIT checkpoint for iteration {} in {:.2}s (virtual)",
                e.rank,
                e.iteration,
                e.checkpoint_time.as_secs()
            );
        } else {
            println!(
                "  {} restored iteration {} in {:.2}s (virtual, incl. job re-init)",
                e.rank,
                e.iteration,
                e.restore_time.as_secs()
            );
        }
    }
    println!("\ncheckpoint objects in the shared store:");
    for p in store.list("ckpt/") {
        println!("  {p}");
    }
    println!(
        "\nfinal losses (rank 0): {:?}",
        &out.losses[0][iters as usize - 3..]
    );
    println!("Only ~1 minibatch of work was redone — vs half a checkpoint");
    println!("interval under periodic checkpointing.");
}
