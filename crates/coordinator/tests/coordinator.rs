//! Coordinator lifecycle: object-store fault semantics, multi-job
//! admission over one backend, retention GC with delta-base pinning and
//! in-flight iterations, and restore read counts.

use bytes::Bytes;
use cluster::{SharedStore, StorageBackend};
use coordinator::{Coordinator, CoordinatorConfig, JobSpec, ObjectStoreProfile, SimObjectStore};
use dltrain::TrainState;
use jitckpt::checkpoint::{self, CkptKind, ShardConfig};
use simcore::layout::ParallelLayout;
use simcore::{JobId, RankId, SimResult};
use simgpu::BufferTag;
use std::sync::Arc;

fn state(it: u64, elems: usize, v: f32) -> TrainState {
    TrainState {
        iteration: it,
        opt_t: it as u32,
        buffers: vec![("w".into(), BufferTag::Param, vec![v; elems])],
        logical_bytes: (elems * 4) as u64,
    }
}

fn small_shards() -> ShardConfig {
    ShardConfig {
        shard_bytes: 256,
        workers: 2,
        delta: true,
        ..ShardConfig::default()
    }
}

/// Object-store faults: a silently lost put leaves no object, a torn
/// put stores truncated bytes the CRC protocol rejects, and the loss
/// counter reports what happened.
#[test]
fn object_store_faults_are_injected_and_detected() -> SimResult<()> {
    let os = SimObjectStore::new(ObjectStoreProfile::instant());

    os.lose_next_put_matching("a/");
    os.put("a/gone", Bytes::from_static(b"vanishes"))?; // acknowledged
    assert!(!os.exists("a/gone"), "lost put must leave no object");
    assert_eq!(os.lost_puts(), 1);

    os.put("a/kept", Bytes::from_static(b"stays"))?;
    assert_eq!(os.get("a/kept")?, Bytes::from_static(b"stays"));

    os.tear_next_put_matching("b/", 0.5);
    os.put("b/torn", Bytes::from_static(b"12345678"))?;
    assert_eq!(os.get("b/torn")?.len(), 4, "torn write stores a prefix");

    // A whole checkpoint written over the faulty backend: tear one
    // shard, the validating reader must reject that iteration.
    let cfg = small_shards();
    let s = state(3, 200, 1.25);
    os.tear_next_put_matching("ckpt/", 0.25);
    checkpoint::write_checkpoint_with(&os, JobId(7), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &cfg)?;
    assert!(
        checkpoint::read_checkpoint(&os, JobId(7), CkptKind::Jit, 3, 0, 0, 0).is_err(),
        "CRC validation must reject the torn shard"
    );
    Ok(())
}

/// Two jobs on one backend: write-behind checkpoints from both,
/// retention GC on one job respects delta pinning and never touches the
/// other job's objects.
#[test]
fn multi_job_lifecycle_with_retention() -> SimResult<()> {
    let backend: Arc<dyn StorageBackend> = Arc::new(SharedStore::new());
    let coord = Coordinator::new(backend, CoordinatorConfig::default());

    let spec = JobSpec {
        ranks: 2,
        shards: small_shards(),
        keep_checkpoints: 2,
        inflight_budget_bytes: 1 << 20,
    };
    let a = coord.admit(spec.clone());
    let b = coord.admit(spec);
    assert_ne!(a.job(), b.job());

    // Job B: 3 generations; job A: 6 generations, mutating state each
    // time (delta chains form and are capped), collected after each.
    for it in 1..=3 {
        b.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(it, 150, 2.0))
            .wait()?;
    }
    b.drain()?;
    let b_prefix = checkpoint::job_prefix(b.job(), CkptKind::Jit);
    let b_objects = coord.backend().list(&b_prefix);
    for it in 1..=6 {
        let t = a.submit_checkpoint(
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &state(it, 200, it as f32),
        );
        t.wait()?;
        a.gc(CkptKind::Jit);
    }

    // Retention on A: newest 2 iterations plus any delta-pinned bases
    // survive; iteration 1 must be gone by now.
    let a_prefix = checkpoint::job_prefix(a.job(), CkptKind::Jit);
    let left = a.backend().list(&a_prefix);
    assert!(
        !left.iter().any(|p| p.contains("it0000000001")),
        "iteration 1 outlived retention: {left:?}"
    );
    // The newest retained checkpoint still reads back bit-identically
    // (GC must never break a delta chain it retained).
    let (got, _) = checkpoint::read_checkpoint(a.backend(), a.job(), CkptKind::Jit, 6, 0, 0, 0)?;
    assert_eq!(got, state(6, 200, 6.0));

    // A's GC left every one of B's objects in place.
    assert_eq!(coord.backend().list(&b_prefix), b_objects);
    let (got, _) = checkpoint::read_checkpoint(b.backend(), b.job(), CkptKind::Jit, 3, 0, 0, 0)?;
    assert_eq!(got, state(3, 150, 2.0));
    Ok(())
}

/// GC counts only durable iterations toward the retention window: with
/// `keep_checkpoints = 1`, an iteration whose sidecar never landed does
/// not displace the last restorable one, and is swept only once a newer
/// durable iteration exists.
#[test]
fn gc_never_deletes_the_only_restorable_checkpoint() -> SimResult<()> {
    let store = Arc::new(SimObjectStore::new(ObjectStoreProfile::instant()));
    let coord = Coordinator::new(store.clone(), CoordinatorConfig::default());
    let sess = coord.admit(JobSpec {
        ranks: 1,
        shards: small_shards(),
        keep_checkpoints: 1,
        ..JobSpec::default()
    });
    let layout = ParallelLayout::data_parallel(1);
    let submit = |it: u64| {
        sess.submit_checkpoint(
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &state(it, 200, it as f32),
        )
        .wait()
    };

    submit(1)?;
    // Iteration 2's sidecar is acknowledged and dropped: its shards land,
    // the checkpoint never becomes restorable.
    store.lose_next_put_matching(checkpoint::meta_path(sess.job(), CkptKind::Jit, 2, 0, 0, 0));
    submit(2)?;
    assert_eq!(store.lost_puts(), 1);
    let (got, _, _) = sess.restore_for_rank(&layout, RankId(0))?;
    assert_eq!(got.iteration, 1);

    assert_eq!(sess.gc(CkptKind::Jit), 0, "nothing durable to displace");
    let (got, _, _) = sess.restore_for_rank(&layout, RankId(0))?;
    assert_eq!(got, state(1, 200, 1.0));
    let prefix = checkpoint::job_prefix(sess.job(), CkptKind::Jit);
    assert!(
        sess.backend()
            .list(&prefix)
            .iter()
            .any(|p| p.contains("it0000000002")),
        "a sidecar-less iteration newer than the retained one may still be in flight"
    );

    // Once iteration 3 is durable it is the window; 1 and the torn 2
    // are swept.
    submit(3)?;
    assert!(sess.gc(CkptKind::Jit) > 0);
    let left = sess.backend().list(&prefix);
    assert!(
        left.iter().all(|p| p.contains("it0000000003")),
        "only iteration 3 survives: {left:?}"
    );
    let (got, _, _) = sess.restore_for_rank(&layout, RankId(0))?;
    assert_eq!(got, state(3, 200, 3.0));
    Ok(())
}

/// A multi-cell iteration is durable only when every cell has a sidecar
/// there, as restore requires: with `keep_checkpoints = 1`, an iteration
/// that lost one cell's sidecar neither displaces the last iteration
/// complete for every cell nor gets it swept.
#[test]
fn gc_keeps_the_newest_iteration_complete_for_every_cell() -> SimResult<()> {
    let store = Arc::new(SimObjectStore::new(ObjectStoreProfile::instant()));
    let coord = Coordinator::new(store.clone(), CoordinatorConfig::default());
    let sess = coord.admit(JobSpec {
        ranks: 2,
        shards: small_shards(),
        keep_checkpoints: 1,
        ..JobSpec::default()
    });
    let layout = ParallelLayout::three_d(1, 2, 1);
    let submit = |it: u64| {
        for stage in 0..2 {
            let s = state(it, 200, it as f32 + stage as f32);
            sess.submit_checkpoint(CkptKind::Jit, RankId(stage as u32), stage, 0, 0, &s)
                .wait()?;
        }
        SimResult::Ok(())
    };

    submit(1)?;
    // Iteration 2's stage-1 sidecar is acknowledged and dropped: stage 0
    // is complete there, the job as a whole is not.
    store.lose_next_put_matching(checkpoint::meta_path(sess.job(), CkptKind::Jit, 2, 1, 0, 0));
    submit(2)?;
    assert_eq!(store.lost_puts(), 1);
    let (got, _, _) = sess.restore_for_rank(&layout, RankId(1))?;
    assert_eq!(got.iteration, 1);

    assert_eq!(
        sess.gc(CkptKind::Jit),
        0,
        "iteration 1 is the only restorable one"
    );
    for stage in 0..2 {
        let (got, _, _) = sess.restore_for_rank(&layout, RankId(stage))?;
        assert_eq!(got, state(1, 200, 1.0 + stage as f32));
    }

    // Once iteration 3 is complete for both cells, 1 and the partial 2
    // are swept.
    submit(3)?;
    assert!(sess.gc(CkptKind::Jit) > 0);
    let prefix = checkpoint::job_prefix(sess.job(), CkptKind::Jit);
    let left = sess.backend().list(&prefix);
    assert!(
        left.iter().all(|p| p.contains("it0000000003")),
        "only iteration 3 survives: {left:?}"
    );
    let (got, _, _) = sess.restore_for_rank(&layout, RankId(1))?;
    assert_eq!(got, state(3, 200, 4.0));
    Ok(())
}

/// GC keeps an iteration outside the retention window while a retained
/// sidecar still references it as a delta base, then collects it once
/// the chain cap forces a full write.
#[test]
fn gc_pins_delta_bases_until_chain_breaks() -> SimResult<()> {
    let backend: Arc<dyn StorageBackend> = Arc::new(SharedStore::new());
    let coord = Coordinator::new(backend, CoordinatorConfig::default());
    let sess = coord.admit(JobSpec {
        shards: ShardConfig {
            max_delta_chain: 8,
            ..small_shards()
        },
        keep_checkpoints: 1,
        ..JobSpec::default()
    });

    // Identical buffers every iteration ⇒ all shards delta back to the
    // bytes written at iteration 1.
    for it in 1..=4 {
        sess.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(it, 200, 1.0))
            .wait()?;
    }
    let deleted = sess.gc(CkptKind::Jit);
    let prefix = checkpoint::job_prefix(sess.job(), CkptKind::Jit);
    let left = sess.backend().list(&prefix);
    assert!(
        left.iter().any(|p| p.contains("it0000000001")),
        "iteration 1 holds the delta bytes — GC must pin it (deleted {deleted}): {left:?}"
    );
    // The retained head must read back whole after GC.
    let (got, meta) =
        checkpoint::read_checkpoint(sess.backend(), sess.job(), CkptKind::Jit, 4, 0, 0, 0)?;
    assert_eq!(got, state(4, 200, 1.0));
    assert!(meta.delta_depth > 0, "head should still be a delta");
    Ok(())
}

/// The session's newest-iteration memo replaces the delta writer's
/// keyspace walk: the bare writer lists the job prefix once per
/// checkpoint to find its base, a session only until it has written one,
/// and both produce the same delta chain.
#[test]
fn session_meta_cache_saves_the_delta_writers_list_scans() -> SimResult<()> {
    let writes = 6u64;

    let bare = SharedStore::new();
    for it in 1..=writes {
        checkpoint::write_checkpoint_with(
            &bare,
            JobId(0),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &state(it, 200, 1.0),
            &small_shards(),
        )?;
    }

    let store = Arc::new(SharedStore::new());
    let coord = Coordinator::new(store.clone(), CoordinatorConfig::default());
    let sess = coord.admit(JobSpec {
        shards: small_shards(),
        keep_checkpoints: writes as usize + 1,
        ..JobSpec::default()
    });
    for it in 1..=writes {
        sess.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(it, 200, 1.0))
            .wait()?;
    }

    assert_eq!(bare.list_count(), writes, "one scan per bare write");
    assert_eq!(store.list_count(), 1, "one scan seeds the memo");
    let depth = |s: &SharedStore, job| {
        checkpoint::read_meta(s, job, CkptKind::Jit, writes, 0, 0, 0).map(|m| m.delta_depth)
    };
    assert_eq!(depth(&store, sess.job())?, depth(&bare, JobId(0))?);
    assert!(
        depth(&bare, JobId(0))? > 0,
        "the chain must be a real delta"
    );
    Ok(())
}

/// Restore cost is one generation however many are retained: one
/// sidecar and one generation's shards per healthy restore, as the
/// returned stats and the store's own read counter both say, and the
/// rejected replica's sidecar and shards on top when resolution has to
/// read past a rotted one.
#[test]
fn restore_reads_one_generation_and_counts_every_read() -> SimResult<()> {
    let store = Arc::new(SimObjectStore::new(ObjectStoreProfile::instant()));
    let coord = Coordinator::new(store.clone(), CoordinatorConfig::default());
    let sess = coord.admit(JobSpec {
        ranks: 2,
        shards: small_shards(),
        keep_checkpoints: 4,
        ..JobSpec::default()
    });
    let layout = ParallelLayout::data_parallel(2);
    // Five delta-chained generations from both replicas: one element
    // changes per generation, the rest of the state is reused.
    let mut s = state(0, 400, 1.0);
    for it in 1..=5 {
        s.iteration = it;
        s.buffers[0].2[0] = it as f32;
        for dp in 0..2 {
            sess.submit_checkpoint(CkptKind::Periodic, RankId(dp as u32), 0, 0, dp, &s);
        }
        sess.drain()?;
    }
    sess.gc(CkptKind::Periodic);
    let prefix = checkpoint::job_prefix(sess.job(), CkptKind::Periodic);
    let retained = sess
        .backend()
        .list(&prefix)
        .iter()
        .filter(|p| p.ends_with("/dp0/meta"))
        .count();
    assert!(retained >= 4, "{retained} generations retained");
    let tip = checkpoint::read_meta(sess.backend(), sess.job(), CkptKind::Periodic, 5, 0, 0, 0)?;
    assert!(tip.delta_depth >= 3, "tip is delta-chained: {tip:?}");
    let shards = tip.shards.len();

    let reads = store.read_count();
    for rank in 0..2 {
        let (got, _, stats) = sess.restore_for_rank(&layout, RankId(rank))?;
        assert_eq!(got, s);
        assert_eq!(stats.generations_probed, 1);
        assert_eq!(stats.shard_reads, shards as u64);
    }
    assert_eq!(
        store.read_count() - reads,
        2 * (shards as u64 + 1),
        "one sidecar + one generation's shards per restore"
    );

    // Rot a shard only replica 0's newest generation holds: resolution
    // reads replica 0, rejects it, and restores from replica 1 — the
    // same generation, twice the shard reads, and the store says so.
    let own = tip
        .shards
        .iter()
        .find(|m| m.base_iteration.is_none())
        .expect("the tip wrote the shard that changed");
    store.corrupt(&checkpoint::shard_path(
        sess.job(),
        CkptKind::Periodic,
        5,
        0,
        0,
        0,
        own.index,
    ))?;
    let reads = store.read_count();
    let (got, _, stats) = sess.restore_for_rank(&layout, RankId(0))?;
    assert_eq!(got, s);
    assert_eq!(stats.generations_probed, 1);
    assert_eq!(stats.shard_reads, 2 * shards as u64);
    assert_eq!(
        store.read_count() - reads,
        2 * (shards as u64 + 1),
        "both replicas' sidecars and shards"
    );
    Ok(())
}
