//! Recovery bit-identity over the simulated object store.
//!
//! Re-runs the `restore_with_fallback` chain — streamed replica, then
//! store round-trip — with the checkpoint store swapped for
//! [`SimObjectStore`] running with latency, slow reads, and injected
//! faults (a torn shard decoy and a silently lost sidecar decoy newer
//! than the good checkpoint). Every leg must return state bit-identical
//! to the failed rank's truth: backend behavior may change *when*
//! recovery completes, never *what* it recovers.

use cluster::{FailureInjector, StorageBackend};
use collectives::CommWorld;
use coordinator::{ObjectStoreProfile, SimObjectStore};
use dltrain::trainer::DEFAULT_BUCKET_BYTES;
use dltrain::{JobSetup, RankTrainer, TrainConfig, TrainState};
use jitckpt::checkpoint::{self, CkptKind, ShardConfig};
use jitckpt::stream::{self, restore_with_fallback, RecoverySource};
use proxy::DirectExecutor;
use simcore::cost::CostModel;
use simcore::time::ClockBoard;
use simcore::{GpuId, JobId, RankId, SimError, SimResult};
use simgpu::Gpu;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Stream-patience deadlines are wall-clock: serialize these tests so
/// host load cannot cause false timeouts.
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

fn train(cfg: &TrainConfig, iters: u64) -> Vec<TrainState> {
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
        tr.train(iters)?;
        tr.state_snapshot()
    });
    results.into_iter().map(|r| r.unwrap()).collect()
}

fn recovery_world(n: usize) -> Arc<CommWorld> {
    CommWorld::new(Arc::new(ClockBoard::new(n)), CostModel::v100(), 8)
}

/// An object store with realistic (but test-fast) latency, slow reads,
/// and bandwidth metering.
fn faulty_object_store() -> SimObjectStore {
    SimObjectStore::new(ObjectStoreProfile {
        put_latency: Duration::from_micros(200),
        get_latency: Duration::from_micros(300),
        bytes_per_sec: 500_000_000,
        parallel_streams: 4,
        put_loss_per_mille: 0,
        seed: 42,
    })
}

/// The chain's first leg, the gradient-ledger one, has no producer and
/// fails as the restart launcher's does. Both legs behind it recover
/// bit-identical state when the store behind the chain is the simulated
/// object store with faults armed: two decoy checkpoints newer than the
/// good one (one with a torn shard, one whose sidecar was silently lost)
/// must be rejected or invisible, never returned.
#[test]
fn all_three_legs_bit_identical_over_faulty_object_store() -> SimResult<()> {
    let _guard = serial();
    let cfg = TrainConfig::tiny_dp(4);
    let iters = 4u64;
    let ran = train(&cfg, iters);
    let failed = 0usize;
    let truth = ran[failed].clone();
    let cost = CostModel::v100();
    let shard_cfg = ShardConfig {
        shard_bytes: 1024,
        ..ShardConfig::default()
    };

    let store = Arc::new(faulty_object_store());

    // The good checkpoint: a healthy replica's state at `iters`.
    checkpoint::write_checkpoint_with(
        &*store,
        JobId(0),
        CkptKind::Jit,
        RankId(2),
        0,
        0,
        2,
        &ran[2],
        &shard_cfg,
    )?;

    // Decoy 1 (newer): one shard torn mid-write — sidecar completes but
    // CRC validation must reject the iteration.
    let mut torn = ran[2].clone();
    torn.iteration = iters + 1;
    store.tear_next_put_matching(
        checkpoint::checkpoint_prefix(JobId(0), CkptKind::Jit, iters + 1, 0, 0, 2),
        0.5,
    );
    checkpoint::write_checkpoint_with(
        &*store,
        JobId(0),
        CkptKind::Jit,
        RankId(2),
        0,
        0,
        2,
        &torn,
        &shard_cfg,
    )?;

    // Decoy 2 (newest): the completion sidecar itself is silently lost
    // — acknowledged, never stored — so the checkpoint must be
    // invisible to assembly.
    let mut lost = ran[2].clone();
    lost.iteration = iters + 2;
    store.lose_next_put_matching(checkpoint::meta_path(
        JobId(0),
        CkptKind::Jit,
        iters + 2,
        0,
        0,
        2,
    ));
    checkpoint::write_checkpoint_with(
        &*store,
        JobId(0),
        CkptKind::Jit,
        RankId(2),
        0,
        0,
        2,
        &lost,
        &shard_cfg,
    )?;
    assert_eq!(store.lost_puts(), 1, "the sidecar loss must have fired");

    let no_ledger = || Err(SimError::Protocol("no ledger attached".into()));

    // Streamed replica: no object-store reads.
    {
        let rw = recovery_world(4);
        stream::send_state(
            &rw,
            &cost,
            RankId(2),
            2,
            RankId(failed as u32),
            true,
            &ran[2],
            4096,
        )?;
        let reads_before = store.read_count();
        let (state, source) = restore_with_fallback(
            no_ledger,
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
        )?;
        assert_eq!(source, RecoverySource::StreamedReplica);
        assert_eq!(state_bits(&state), state_bits(&truth));
        assert_eq!(store.read_count(), reads_before);
    }

    // Stream truncated ⇒ object-store round-trip. Assembly must skip
    // both decoys (torn shard, lost sidecar) and land on the good
    // iteration, bit-identically, despite latency and slow reads.
    {
        let rw = recovery_world(4);
        stream::send_state_truncated(
            &rw,
            &cost,
            RankId(2),
            2,
            RankId(failed as u32),
            true,
            &ran[2],
            4096,
            1,
        )?;
        let (state, source) = restore_with_fallback(
            no_ledger,
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
                    &*store,
                    JobId(0),
                    &cfg.layout,
                    RankId(failed as u32),
                    &jitckpt::restore::RestoreConfig::default(),
                )
                .map(|(state, _, _)| state)
            },
        )?;
        assert_eq!(source, RecoverySource::Store);
        assert_eq!(
            state.iteration, truth.iteration,
            "assembly must reject both newer decoys"
        );
        assert_eq!(state_bits(&state), state_bits(&truth));
        assert!(store.read_count() > 0, "the store leg must read the store");
    }
    Ok(())
}
