//! End-to-end in-network recovery: a failed rank's state rebuilt from
//! survivors' gradient ledgers + deterministic replay, with ZERO
//! checkpoint-store reads — and the fallback chain (ledger → streamed
//! replica → store) when the in-network coverage is lost.

use cluster::{FailureInjector, SharedStore};
use collectives::{CommWorld, GradLedger, LedgerConfig};
use dltrain::trainer::DEFAULT_BUCKET_BYTES;
use dltrain::{JobSetup, RankTrainer, TrainConfig, TrainState};
use jitckpt::checkpoint::{self, CkptKind, ShardConfig};
use jitckpt::stream::{
    self, recv_ledger_history, restore_with_fallback, send_ledger_slices, RecoverySource,
};
use proxy::DirectExecutor;
use simcore::cost::CostModel;
use simcore::time::ClockBoard;
use simcore::{GpuId, JobId, RankId, SimResult};
use simgpu::Gpu;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// These tests spawn many rank threads with real-time stream patience
/// deadlines; serialize them so host load cannot cause false timeouts.
static SEQ: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SEQ.lock().unwrap_or_else(|e| e.into_inner())
}

fn state_bits(s: &TrainState) -> Vec<(String, Vec<u32>)> {
    s.buffers
        .iter()
        .map(|(k, _, d)| (k.clone(), d.iter().map(|f| f.to_bits()).collect()))
        .collect()
}

/// Trains `n` data-parallel ranks with unbounded ledgers attached,
/// returning each rank's final state and ledger.
fn train_with_ledgers(cfg: &TrainConfig, iters: u64) -> Vec<(TrainState, Arc<GradLedger>)> {
    let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
    let world = setup.world.clone();
    let per_rank = setup.per_rank.clone();
    let cfg = cfg.clone();
    let n = cfg.layout.world_size();
    let results = dltrain::run_ranks(n, move |i| {
        let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
        let exec = DirectExecutor::new(RankId(i as u32), i, gpu, world.clone());
        let mut tr = RankTrainer::new(exec, cfg.clone(), &per_rank[i], FailureInjector::none())?;
        tr.set_bucket_bytes(DEFAULT_BUCKET_BYTES);
        let dp = per_rank[i].dp.as_ref().expect("dp group").clone();
        let ledger = tr.attach_grad_ledger(&dp, LedgerConfig::unbounded())?;
        tr.train(iters)?;
        Ok((tr.state_snapshot()?, ledger))
    });
    results.into_iter().map(|r| r.unwrap()).collect()
}

/// A fresh recovery-plane world (disjoint from the training world, the
/// way a replacement process gets a fresh bootstrap) where rank `i`
/// drives clock index `i`.
fn recovery_world(n: usize) -> Arc<CommWorld> {
    CommWorld::new(Arc::new(ClockBoard::new(n)), CostModel::v100(), 8)
}

/// Rebuilds the failed rank's state from a received ledger history:
/// deterministic re-init from the config seed, then optimizer-only
/// replay of the reduced gradients.
fn replay_replacement(
    cfg: &TrainConfig,
    failed: usize,
    history: &[Vec<Vec<f32>>],
) -> SimResult<TrainState> {
    let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
    let gpu = Gpu::new(GpuId(failed as u32), CostModel::v100());
    let exec = DirectExecutor::new(RankId(failed as u32), failed, gpu, setup.world.clone());
    let mut tr = RankTrainer::new(
        exec,
        cfg.clone(),
        &setup.per_rank[failed],
        FailureInjector::none(),
    )?;
    tr.set_bucket_bytes(DEFAULT_BUCKET_BYTES);
    tr.replay_reduced_history(history)?;
    tr.state_snapshot()
}

#[test]
fn in_network_recovery_touches_no_checkpoint_store_object() {
    let _guard = serial();
    let cfg = TrainConfig::tiny_dp(4);
    let iters = 4u64;
    let ran = train_with_ledgers(&cfg, iters);
    let failed = 0usize;
    let truth = ran[failed].0.clone();

    // A checkpoint exists in the store (as it would in production) so
    // the zero-reads assertion is meaningful, not vacuous.
    let store = Arc::new(SharedStore::new());
    checkpoint::write_checkpoint_with(
        &store,
        JobId(0),
        CkptKind::Periodic,
        RankId(failed as u32),
        0,
        0,
        failed,
        &truth,
        &ShardConfig::default(),
    )
    .unwrap();
    assert_eq!(store.read_count(), 0);

    // Survivors stream their retained ledger slices to the replacement
    // over the recovery plane; the replacement reassembles the full
    // reduced-gradient history and replays it.
    let rw = recovery_world(4);
    let cost = CostModel::v100();
    let survivors = [1usize, 2, 3];
    for &s in &survivors {
        send_ledger_slices(
            &rw,
            &cost,
            RankId(s as u32),
            s,
            RankId(failed as u32),
            true,
            &ran[s].1,
            0..iters,
        )
        .unwrap();
    }
    let srcs: Vec<RankId> = survivors.iter().map(|&s| RankId(s as u32)).collect();
    let (state, source) = restore_with_fallback(
        || {
            let history = recv_ledger_history(
                &rw,
                &cost,
                &srcs,
                RankId(failed as u32),
                failed,
                Duration::from_secs(5),
                0..iters,
            )?;
            replay_replacement(&cfg, failed, &history)
        },
        || panic!("in-network path must not fall through to the stream"),
        || panic!("in-network path must not fall through to the store"),
    )
    .unwrap();

    assert_eq!(source, RecoverySource::InNetwork);
    assert_eq!(state.iteration, truth.iteration);
    assert_eq!(state.opt_t, truth.opt_t);
    assert_eq!(
        state_bits(&state),
        state_bits(&truth),
        "in-network recovered state must be bit-identical"
    );
    assert_eq!(
        store.read_count(),
        0,
        "in-network recovery must read zero checkpoint-store objects"
    );
}

#[test]
fn adjacent_pair_failure_falls_back_to_streamed_replica_then_store() {
    let _guard = serial();
    // The one shape ledgers cannot cover: the failed rank AND its ring
    // successor died together, so the successor's shard lost both
    // holders. The chain must degrade to the PR 5 streamed-replica path,
    // and — when that stream is truncated too — to the store.
    let cfg = TrainConfig::tiny_dp(4);
    let iters = 4u64;
    let ran = train_with_ledgers(&cfg, iters);
    let failed = 0usize;
    let truth = ran[failed].0.clone();
    let cost = CostModel::v100();
    // Ranks 0 and 1 are dead; 2 and 3 survive. Shard 1's owner (1) and
    // predecessor (0) are both gone.
    let survivors = [2usize, 3];
    let srcs: Vec<RankId> = survivors.iter().map(|&s| RankId(s as u32)).collect();

    let store = Arc::new(SharedStore::new());
    checkpoint::write_checkpoint_with(
        &store,
        JobId(0),
        CkptKind::Jit,
        RankId(2),
        0,
        0,
        2,
        &ran[2].0,
        &ShardConfig::default(),
    )
    .unwrap();

    // Leg 2 succeeds: survivor 2 (a healthy data-parallel replica whose
    // state equals the dead rank's) streams its state rank-to-rank.
    {
        let rw = recovery_world(4);
        for &s in &survivors {
            send_ledger_slices(
                &rw,
                &cost,
                RankId(s as u32),
                s,
                RankId(failed as u32),
                true,
                &ran[s].1,
                0..iters,
            )
            .unwrap();
        }
        stream::send_state(
            &rw,
            &cost,
            RankId(2),
            2,
            RankId(failed as u32),
            true,
            &ran[2].0,
            4096,
        )
        .unwrap();
        let reads_before = store.read_count();
        let (state, source) = restore_with_fallback(
            || {
                let history = recv_ledger_history(
                    &rw,
                    &cost,
                    &srcs,
                    RankId(failed as u32),
                    failed,
                    Duration::from_secs(5),
                    0..iters,
                )?;
                replay_replacement(&cfg, failed, &history)
            },
            || {
                stream::recv_state(
                    &rw,
                    &cost,
                    RankId(2),
                    RankId(failed as u32),
                    failed,
                    Duration::from_secs(5),
                )
            },
            || panic!("streamed replica succeeded; the store must stay untouched"),
        )
        .unwrap();
        assert_eq!(source, RecoverySource::StreamedReplica);
        assert_eq!(state_bits(&state), state_bits(&truth));
        assert_eq!(store.read_count(), reads_before);
    }

    // Leg 2 also dies (replica truncates its stream mid-transfer): the
    // chain lands on the store round-trip.
    {
        let rw = recovery_world(4);
        for &s in &survivors {
            send_ledger_slices(
                &rw,
                &cost,
                RankId(s as u32),
                s,
                RankId(failed as u32),
                true,
                &ran[s].1,
                0..iters,
            )
            .unwrap();
        }
        stream::send_state_truncated(
            &rw,
            &cost,
            RankId(2),
            2,
            RankId(failed as u32),
            true,
            &ran[2].0,
            4096,
            1,
        )
        .unwrap();
        let (state, source) = restore_with_fallback(
            || {
                let history = recv_ledger_history(
                    &rw,
                    &cost,
                    &srcs,
                    RankId(failed as u32),
                    failed,
                    Duration::from_secs(5),
                    0..iters,
                )?;
                replay_replacement(&cfg, failed, &history)
            },
            || {
                stream::recv_state(
                    &rw,
                    &cost,
                    RankId(2),
                    RankId(failed as u32),
                    failed,
                    Duration::from_millis(100),
                )
            },
            || {
                jitckpt::restore::load_for_rank_parallel(
                    &store,
                    JobId(0),
                    &cfg.layout,
                    RankId(failed as u32),
                    &jitckpt::restore::RestoreConfig::default(),
                )
                .map(|(state, _, _)| state)
            },
        )
        .unwrap();
        assert_eq!(source, RecoverySource::Store);
        assert_eq!(state_bits(&state), state_bits(&truth));
        assert!(store.read_count() > 0, "the store leg must read the store");
    }
}
