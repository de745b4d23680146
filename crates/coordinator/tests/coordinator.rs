//! Coordinator lifecycle: placement balance and epoch rebalancing,
//! object-store fault semantics, multi-job admission, retention GC with
//! delta-base pinning, departure purge, and per-job gate isolation.

use bytes::Bytes;
use cluster::{SharedStore, StorageBackend};
use coordinator::{
    Coordinator, CoordinatorConfig, JobSpec, ObjectStoreProfile, PlacedStore, SimObjectStore,
};
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

fn mem_nodes(n: usize) -> Vec<Arc<dyn StorageBackend>> {
    (0..n)
        .map(|_| Arc::new(SharedStore::new()) as Arc<dyn StorageBackend>)
        .collect()
}

/// Consistent hashing spreads many objects across every node, and no
/// node hoards the keyspace.
#[test]
fn placement_spreads_objects_across_nodes() -> SimResult<()> {
    let placed = PlacedStore::new(mem_nodes(4));
    for i in 0..400 {
        placed.put(&format!("obj/{i:04}"), Bytes::from(vec![i as u8; 8]))?;
    }
    let counts = placed.node_object_counts();
    assert_eq!(counts.len(), 4);
    assert_eq!(counts.iter().map(|(_, c)| c).sum::<usize>(), 400);
    for (slot, c) in counts {
        assert!(
            (40..=220).contains(&c),
            "node {slot} holds {c} of 400 — spread is broken"
        );
    }
    assert_eq!(placed.list("obj/").len(), 400);
    Ok(())
}

/// Adding a node starts a new epoch; objects written before the change
/// stay readable through ring history, repair migrates the stragglers
/// home, and reads work identically after repair.
#[test]
fn rebalance_keeps_old_objects_readable_and_repair_migrates() -> SimResult<()> {
    let placed = PlacedStore::new(mem_nodes(3));
    let epoch0 = placed.epoch();
    let payload = |i: usize| Bytes::from(format!("payload-{i}"));
    for i in 0..200 {
        placed.put(&format!("obj/{i:04}"), payload(i))?;
    }

    placed.add_node(Arc::new(SharedStore::new()));
    assert_eq!(placed.epoch(), epoch0 + 1);
    assert_eq!(placed.live_nodes(), 4);

    // Every pre-rebalance object still readable via ring history.
    for i in 0..200 {
        assert_eq!(placed.get(&format!("obj/{i:04}"))?, payload(i), "obj {i}");
    }

    // Repair moves only the re-homed fraction (~1/4), not everything.
    let moved = placed.repair("obj/");
    assert!(moved > 0, "a 3→4 rebalance must re-home something");
    assert!(moved < 150, "moved {moved} of 200 — far more than ~1/N");

    // After repair every object reads from its current-ring home.
    for i in 0..200 {
        assert_eq!(placed.get(&format!("obj/{i:04}"))?, payload(i));
    }
    assert_eq!(placed.object_count(), 200, "repair must move, not copy");
    Ok(())
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

/// Full multi-job lifecycle over a placed fleet: admit, write-behind
/// checkpoints from several jobs, retention GC respects delta pinning,
/// departure purges only the departing job.
#[test]
fn multi_job_lifecycle_with_retention_and_departure() -> SimResult<()> {
    let placed: Arc<dyn StorageBackend> = Arc::new(PlacedStore::new(mem_nodes(4)));
    let coord = Coordinator::new(placed, CoordinatorConfig::default());

    let spec = JobSpec {
        ranks: 2,
        shards: small_shards(),
        keep_checkpoints: 2,
        inflight_budget_bytes: 1 << 20,
    };
    let a = coord.admit(spec.clone());
    let b = coord.admit(spec);
    assert_eq!(coord.active_jobs(), 2);
    assert_ne!(a.job(), b.job());

    // Job A: 6 generations, mutating state each time (delta chains form
    // and are capped); job B: 3 generations.
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
    for it in 1..=3 {
        b.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(it, 150, 2.0))
            .wait()?;
    }
    b.drain()?;

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

    // B departs with purge; A's objects are untouched.
    let b_job = b.job();
    let purged = coord.depart(b_job, true)?;
    assert!(purged > 0);
    assert_eq!(coord.active_jobs(), 1);
    assert!(coord
        .backend()
        .list(&checkpoint::job_prefix(b_job, CkptKind::Jit))
        .is_empty());
    let (still, _) = checkpoint::read_checkpoint(a.backend(), a.job(), CkptKind::Jit, 6, 0, 0, 0)?;
    assert_eq!(still, state(6, 200, 6.0));
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

/// Restore cost is one generation however many are retained, and the
/// job's amplification reports what the store actually served: exactly
/// 1.0 on a healthy store, and the rejected replica's shards on top
/// when resolution has to read past a rotted one.
#[test]
fn restore_amplification_counts_every_read_and_is_one_when_healthy() -> SimResult<()> {
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

    // What the backend's read counter charges for one `get`.
    let reads = store.read_count();
    store.get(&checkpoint::meta_path(
        sess.job(),
        CkptKind::Periodic,
        5,
        0,
        0,
        0,
    ))?;
    let per_get = store.read_count() - reads;

    let reads = store.read_count();
    for rank in 0..2 {
        let (got, _, stats) = sess.restore_for_rank(&layout, RankId(rank))?;
        assert_eq!(got, s);
        assert_eq!(stats.generations_probed, 1);
        assert_eq!(stats.shard_reads, shards as u64);
    }
    assert_eq!(
        store.read_count() - reads,
        2 * (shards as u64 + 1) * per_get,
        "one sidecar + one generation's shards per restore"
    );
    assert_eq!(sess.stats().restore_amplification(shards), 1.0);

    // Rot a shard only replica 0's newest generation holds: resolution
    // reads replica 0, rejects it, and restores from replica 1 — the
    // same generation, twice the shard reads, and the job stats say so.
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
    let (got, _, stats) = sess.restore_for_rank(&layout, RankId(0))?;
    assert_eq!(got, s);
    assert_eq!(stats.generations_probed, 1);
    assert_eq!(stats.shard_reads, 2 * shards as u64);
    let want = (2 + 2) as f64 / 3.0;
    assert!((sess.stats().restore_amplification(shards) - want).abs() < 1e-12);
    Ok(())
}

/// A job on a throttled dedicated backend blocks on its own gate while
/// a healthy job sharing the same uploader pool completes normally.
#[test]
fn slow_backend_job_does_not_block_healthy_job() -> SimResult<()> {
    let healthy_store: Arc<dyn StorageBackend> =
        Arc::new(SimObjectStore::new(ObjectStoreProfile::instant()));
    let coord = Coordinator::new(healthy_store, CoordinatorConfig::default());

    let slow = SimObjectStore::new(ObjectStoreProfile {
        put_latency: std::time::Duration::from_millis(5),
        parallel_streams: 1,
        ..ObjectStoreProfile::instant()
    });
    slow.set_throttle(4.0);

    let spec = JobSpec {
        shards: small_shards(),
        keep_checkpoints: 8,
        inflight_budget_bytes: 600, // ~2 shards in flight
        ..JobSpec::default()
    };
    let slow_job = coord.admit_with_backend(spec.clone(), Arc::new(slow));
    let fast_job = coord.admit(spec);

    // Kick off the slow job's checkpoint, then run many fast-job
    // generations to completion while the slow one is still in flight.
    let slow_ticket =
        slow_job.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(1, 800, 1.0));
    for it in 1..=5 {
        fast_job
            .submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(it, 400, 2.0))
            .wait()?;
    }
    // The healthy job is fully durable; only now wait out the slow one.
    slow_ticket.wait()?;
    let (got, _) = checkpoint::read_checkpoint(
        fast_job.backend(),
        fast_job.job(),
        CkptKind::Jit,
        5,
        0,
        0,
        0,
    )?;
    assert_eq!(got, state(5, 400, 2.0));
    let (slow_got, _) = checkpoint::read_checkpoint(
        slow_job.backend(),
        slow_job.job(),
        CkptKind::Jit,
        1,
        0,
        0,
        0,
    )?;
    assert_eq!(slow_got, state(1, 800, 1.0));
    Ok(())
}
