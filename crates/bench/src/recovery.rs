//! The fourth recovery scheme, in-network gradient replication
//! (DESIGN.md §12), end to end and in virtual time:
//!
//! 1. **Demo** — a data-parallel job trains with ledgers attached, one
//!    rank "dies", survivors stream their retained shard slices, and the
//!    replacement replays the reduced history to a bit-identical state —
//!    counting checkpoint-store reads (zero) and the virtual-time cost
//!    against the streamed-replica and store restore paths.
//! 2. **Head-to-head** — predicted (§5 closed forms) and Monte-Carlo
//!    wasted fractions for periodic-optimal, user-level JIT, transparent
//!    JIT and in-network replication at 8 / 64 / 256 GPUs, with the
//!    in-network reconstruction tail taken from the demo, not guessed.
//!
//! The steady-state cost of the ledger tap is wall-clock and is
//! `benchmark/`'s `collectives.ledger.tap_wall_frac`.

use crate::montecarlo::{bert_l_pt_params, predicted_fraction, replicate, Policy, NINETY_DAYS};
use crate::Table;
use cluster::{FailureInjector, SharedStore};
use collectives::{CommWorld, GradLedger, LedgerConfig};
use dltrain::trainer::DEFAULT_BUCKET_BYTES;
use dltrain::{JobSetup, RankTrainer, TrainConfig, TrainState};
use jitckpt::checkpoint::{self, CkptKind, ShardConfig};
use jitckpt::stream;
use proxy::DirectExecutor;
use simcore::cost::{CostModel, StorageTier};
use simcore::time::ClockBoard;
use simcore::{GpuId, JobId, RankId, SimResult};
use simgpu::Gpu;
use std::sync::Arc;
use std::time::Duration;

/// Data-parallel degree and iterations of the demo job.
const DEMO_DP: usize = 4;
const DEMO_ITERS: u64 = 4;

/// What the demo measured.
struct RecoveryDemo {
    /// Logical bytes of the recovered state.
    state_bytes: u64,
    /// Checkpoint-store reads during the in-network recovery.
    store_reads: u64,
    /// Whether the replayed state matched the lost rank's bit for bit.
    bitwise_identical: bool,
    /// Virtual seconds of the in-network path: slice receive + apply +
    /// deterministic optimizer replay on the replacement.
    in_network_s: f64,
    /// Virtual seconds for the streamed-replica restore of the same state
    /// (pure stream receive cost).
    streamed_s: f64,
    /// Virtual seconds for the §3.3 store round-trip (write + read through
    /// the disk tier).
    store_s: f64,
}

fn state_bits(s: &TrainState) -> Vec<(String, Vec<u32>)> {
    s.buffers
        .iter()
        .map(|(k, _, d)| (k.clone(), d.iter().map(|f| f.to_bits()).collect()))
        .collect()
}

/// Trains `DEMO_DP` ranks for `DEMO_ITERS` iterations, kills rank 0 and
/// rebuilds it from the survivors' ledgers.
fn run_recovery_demo() -> SimResult<RecoveryDemo> {
    let (dp, iters) = (DEMO_DP, DEMO_ITERS);
    let cfg = TrainConfig::tiny_dp(dp);
    let cost = CostModel::v100();
    // Train with unbounded ledgers so the whole history is replayable.
    let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
    let world = setup.world.clone();
    let per_rank = setup.per_rank.clone();
    let cfg2 = cfg.clone();
    let ran: Vec<(TrainState, Arc<GradLedger>)> = dltrain::run_ranks(dp, move |i| {
        let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
        let exec = DirectExecutor::new(RankId(i as u32), i, gpu, world.clone());
        let mut tr = RankTrainer::new(exec, cfg2.clone(), &per_rank[i], FailureInjector::none())?;
        tr.set_bucket_bytes(DEFAULT_BUCKET_BYTES);
        let dp_comm = per_rank[i].dp.as_ref().expect("dp group").clone();
        let ledger = tr.attach_grad_ledger(&dp_comm, LedgerConfig::unbounded())?;
        tr.train(iters)?;
        Ok((tr.state_snapshot()?, ledger))
    })
    .into_iter()
    .collect::<SimResult<_>>()?;
    let failed = 0usize;
    let truth = &ran[failed].0;

    // A checkpoint sits in the store, as in production; the demo must
    // never read it.
    let store = Arc::new(SharedStore::new());
    checkpoint::write_checkpoint_with(
        &store,
        JobId(0),
        CkptKind::Jit,
        RankId(failed as u32),
        0,
        0,
        failed,
        truth,
        &ShardConfig::default(),
    )?;

    // Survivors stream slices over a fresh recovery plane.
    let rclock = Arc::new(ClockBoard::new(dp));
    let rw = CommWorld::new(rclock.clone(), CostModel::v100(), 8);
    for (s, (_, ledger)) in ran.iter().enumerate().skip(1) {
        stream::send_ledger_slices(
            &rw,
            &cost,
            RankId(s as u32),
            s,
            RankId(failed as u32),
            true,
            ledger,
            0..iters,
        )?;
    }
    let srcs: Vec<RankId> = (1..dp).map(|s| RankId(s as u32)).collect();
    let history = stream::recv_ledger_history(
        &rw,
        &cost,
        &srcs,
        RankId(failed as u32),
        failed,
        Duration::from_secs(10),
        0..iters,
    )?;
    let recv_s = rclock.now(failed).as_secs();

    // Replacement: deterministic re-init + optimizer-only replay.
    let setup2 = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
    let replay_clock = setup2.clock.clone();
    let gpu = Gpu::new(GpuId(failed as u32), CostModel::v100());
    let exec = DirectExecutor::new(RankId(failed as u32), failed, gpu, setup2.world.clone());
    let mut tr = RankTrainer::new(
        exec,
        cfg.clone(),
        &setup2.per_rank[failed],
        FailureInjector::none(),
    )?;
    tr.set_bucket_bytes(DEFAULT_BUCKET_BYTES);
    tr.replay_reduced_history(&history)?;
    let got = tr.state_snapshot()?;
    let replay_s = replay_clock.now(failed).as_secs();

    // Reference restore costs for the same state.
    let sclock = Arc::new(ClockBoard::new(2));
    let sw = CommWorld::new(sclock.clone(), CostModel::v100(), 8);
    stream::send_state(&sw, &cost, RankId(1), 1, RankId(0), true, truth, 1 << 20)?;
    stream::recv_state(&sw, &cost, RankId(1), RankId(0), 0, Duration::from_secs(10))?;
    let streamed_s = sclock.now(0).as_secs();
    let store_s = (cost.checkpoint_write(truth.logical_bytes, StorageTier::Disk, 8)
        + cost.checkpoint_read(truth.logical_bytes, StorageTier::Disk, 8))
    .as_secs();

    Ok(RecoveryDemo {
        state_bytes: truth.logical_bytes,
        store_reads: store.read_count(),
        bitwise_identical: state_bits(&got) == state_bits(truth)
            && got.iteration == truth.iteration
            && got.opt_t == truth.opt_t,
        in_network_s: recv_s + replay_s,
        streamed_s,
        store_s,
    })
}

/// The in-network recovery demo: one row, virtual seconds.
pub fn in_network_demo() -> Table {
    let d = run_recovery_demo().expect("in-network demo");
    Table {
        title: format!(
            "In-network gradient replication: rank 0 of DP={DEMO_DP} rebuilt from peers' ledgers after {DEMO_ITERS} iterations (seconds, virtual)"
        ),
        header: vec![
            "state_bytes".into(),
            "store_reads".into(),
            "bitwise_identical".into(),
            "in_network_s".into(),
            "streamed_s".into(),
            "store_s".into(),
        ],
        rows: vec![vec![
            d.state_bytes.to_string(),
            d.store_reads.to_string(),
            d.bitwise_identical.to_string(),
            format!("{:.4}", d.in_network_s),
            format!("{:.4}", d.streamed_s),
            format!("{:.4}", d.store_s),
        ]],
    }
}

/// The four recovery schemes head to head: §5 closed form vs Monte-Carlo
/// wasted fraction (6 replications of 90 days) at 8 / 64 / 256 GPUs.
pub fn policy_head_to_head() -> Table {
    let reconstruct = run_recovery_demo().expect("in-network demo").in_network_s;
    let schemes = [
        ("periodic-optimal", Policy::PeriodicOptimal),
        ("jit-user", Policy::JitUser),
        ("jit-transparent", Policy::JitTransparent),
        ("in-network", Policy::InNetwork { reconstruct }),
    ];
    let mut rows = Vec::new();
    for world in [8usize, 64, 256] {
        let p = bert_l_pt_params(world);
        for (name, policy) in schemes {
            let (mean, sd) = replicate(&p, policy, NINETY_DAYS, 6);
            rows.push(vec![
                world.to_string(),
                name.to_string(),
                format!("{:.6}", predicted_fraction(&p, policy)),
                format!("{mean:.6}"),
                format!("{sd:.6}"),
            ]);
        }
    }
    Table {
        title: "Recovery schemes head to head: wasted fraction, closed form vs Monte-Carlo (BERT-L-PT params, 90 days)".into(),
        header: vec![
            "GPUs".into(),
            "Scheme".into(),
            "Predicted".into(),
            "Simulated".into(),
            "sd".into(),
        ],
        rows,
    }
}
