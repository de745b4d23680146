//! Cross-crate integration tests: the full stack wired together —
//! trainer over proxy over simulated devices over collectives, with the
//! cluster substrate — exercising properties no single crate can test.

use cluster::{Cluster, FailureInjector, Scheduler, SharedStore};
use collectives::{
    CollEngine, CollKind, CommWorld, Communicator, NullObserver, ReduceOp, RingConfig, SplitKey,
};
use jit_checkpoint_repro::*;
use jitckpt::checkpoint::ShardConfig;
use jitckpt::{run_job, JitUserConfig, JobOutcome, Policy, PolicyKind};
use simcore::cost::{CostModel, GpuGeneration};
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::layout::ParallelLayout;
use simcore::time::ClockBoard;
use simcore::{RankId, SimTime};
use std::sync::{Arc, Mutex};

static SEQ: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SEQ.lock().unwrap_or_else(|e| e.into_inner())
}

fn clean_run(cfg: &dltrain::TrainConfig, iters: u64) -> Vec<Vec<f32>> {
    run_job(
        cfg.clone(),
        CostModel::v100(),
        FailureInjector::none(),
        Arc::new(SharedStore::new()),
        iters,
        Policy::Transparent { extra_comms: 0 },
    )
    .unwrap()
    .losses
}

/// Periodic checkpointing of `kind` every `every_iters` iterations, with
/// the monitor's default timeout and shard layout.
fn periodic(scheduler: Arc<Scheduler>, kind: PolicyKind, every_iters: u64) -> Policy {
    Policy::Periodic {
        scheduler,
        kind,
        every_iters,
        monitor_timeout: std::time::Duration::from_millis(1500),
        shards: ShardConfig::default(),
    }
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
    let out = run_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
        Policy::Transparent { extra_comms: 0 },
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
    let out = run_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
        Policy::Transparent { extra_comms: 0 },
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
    let out = run_job(
        cfg,
        CostModel::v100(),
        injector,
        Arc::new(SharedStore::new()),
        iters,
        Policy::Transparent { extra_comms: 0 },
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
    let transparent = run_job(
        cfg.clone(),
        CostModel::v100(),
        mk_injector(),
        Arc::new(SharedStore::new()),
        iters,
        Policy::Transparent { extra_comms: 0 },
    )
    .unwrap();
    let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let user = run_job(
        cfg,
        CostModel::v100(),
        mk_injector(),
        Arc::new(SharedStore::new()),
        iters,
        Policy::UserLevel {
            scheduler,
            jit: JitUserConfig::default(),
        },
    )
    .unwrap();
    assert_losses_match(&transparent.losses, &clean);
    assert_losses_match(&user.losses, &clean);
}

#[test]
fn periodic_baseline_wastes_more_work_than_jit() {
    let _g = serial();
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
    let pc = run_job(
        cfg.clone(),
        CostModel::v100(),
        mk_injector(),
        Arc::new(SharedStore::new()),
        iters,
        periodic(scheduler, PolicyKind::PcMem, 4),
    )
    .unwrap();
    assert!(pc.wasted_iterations >= 1);
    // Transparent JIT on the same failure redoes at most the current
    // minibatch (zero whole iterations).
    let jit = run_job(
        cfg,
        CostModel::v100(),
        mk_injector(),
        Arc::new(SharedStore::new()),
        iters,
        Policy::Transparent { extra_comms: 0 },
    )
    .unwrap();
    assert_eq!(jit.rounds, 1);
    // Both end bit-identical to each other (semantics preserved).
    assert_losses_match(&pc.losses, &jit.losses);
}

#[test]
fn one_fault_under_every_policy() {
    let _g = serial();
    // One job, one sticky CUDA error at iteration 9 on rank 1, run under
    // each policy against one fault-free twin: every outcome ends on the
    // twin's loss bits, and each field reads what its policy did.
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 12;
    let twin = loss_bits(&clean_run(&cfg, iters));
    let scheduler = || Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
    let run = |policy: Policy| {
        let fault = FailureSpec::new(9, Phase::Backward, RankId(1), FailureKind::StickyCuda);
        let store = Arc::new(SharedStore::new());
        let injector = FailureInjector::with_specs(vec![fault]);
        let out = run_job(
            cfg.clone(),
            CostModel::v100(),
            injector,
            store,
            iters,
            policy,
        )
        .unwrap();
        assert_eq!(loss_bits(&out.losses), twin);
        out
    };
    let transparent = run(Policy::Transparent { extra_comms: 0 });
    let user = run(Policy::UserLevel {
        scheduler: scheduler(),
        jit: JitUserConfig::default(),
    });
    let periodic = run(periodic(scheduler(), PolicyKind::PcMem, 4));
    // Transparent: one round, nothing restarted, re-executed or written.
    let t = &transparent;
    let counts = (
        t.restarts,
        t.rounds,
        t.wasted_iterations,
        t.checkpoints_written,
    );
    assert_eq!(counts, (0, 1, 0, 0));
    // User-level: one restart, no round, and a write counted for every
    // checkpoint event.
    assert_eq!((user.restarts, user.rounds), (1, 0));
    let writes = user
        .events
        .iter()
        .filter(|e| e.checkpoint_time > SimTime::ZERO);
    assert!(user.checkpoints_written > 0);
    assert_eq!(user.checkpoints_written, writes.count() as u64);
    // Periodic: one restart from the checkpoint at 8, redoing work, and
    // no device call logged for replay.
    assert_eq!(periodic.restarts, 1);
    assert!(periodic.wasted_iterations >= 1);
    assert!(periodic.logged_calls.iter().all(|&c| c == 0));
}

#[test]
fn multi_generation_restore_reads_one_generation_and_falls_back_one() {
    let _g = serial();
    use jitckpt::checkpoint::{self, CkptKind};
    use jitckpt::restore::{load_for_rank_parallel, RestoreConfig};
    // A periodic job that checkpoints every 2 of 12 iterations and
    // restarts once with four generations retained: the runner resolves
    // once per restart and the job still ends bit-identical.
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let layout = cfg.layout;
    let iters = 12;
    let store = Arc::new(SharedStore::new());
    let out = run_job(
        cfg.clone(),
        CostModel::v100(),
        FailureInjector::with_specs(vec![FailureSpec::new(
            9,
            Phase::Backward,
            RankId(1),
            FailureKind::StickyCuda,
        )]),
        store.clone(),
        iters,
        periodic(
            Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
            PolicyKind::PcMem,
            2,
        ),
    )
    .unwrap();
    assert_eq!(out.restarts, 1);
    assert_eq!(out.wasted_iterations, 1, "resumed from the generation at 8");
    assert_losses_match(&out.losses, &clean_run(&cfg, iters));

    // The store the job left behind retains six generations, each
    // written once for the cell, under dp0.
    let job = simcore::JobId(0);
    let sidecars = store.list(checkpoint::job_prefix(job, CkptKind::Periodic));
    let sidecars: Vec<_> = sidecars.iter().filter(|p| p.ends_with("/meta")).collect();
    assert_eq!(sidecars.len(), 6);
    assert!(sidecars.iter().all(|p| p.ends_with("/dp0/meta")));
    // Give every generation a dp1 replica with the checkpoint writer, as
    // a job whose replicas each wrote their own copy would leave it.
    for it in (2..=iters).step_by(2) {
        let (state, _) =
            checkpoint::read_checkpoint(&*store, job, CkptKind::Periodic, it, 0, 0, 0).unwrap();
        checkpoint::write_checkpoint_with(
            &*store,
            job,
            CkptKind::Periodic,
            RankId(1),
            0,
            0,
            1,
            &state,
            &checkpoint::ShardConfig::default(),
        )
        .unwrap();
    }
    // A restore reads exactly the newest generation: one sidecar plus
    // its shards.
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
    let out = run_job(
        cfg,
        CostModel::v100(),
        FailureInjector::with_specs(specs),
        Arc::new(SharedStore::new()),
        iters,
        Policy::UserLevel {
            scheduler,
            jit: JitUserConfig::default(),
        },
    )
    .unwrap();
    assert_eq!(out.restarts, 2);
    assert_losses_match(&out.losses, &clean);
}

/// Issues one collective of `kind` for `rank` on `comm` and returns the
/// rank's view of the result (empty for the kinds that carry no data).
/// The last member is the broadcast root.
fn issue(
    comm: &Communicator,
    rank: RankId,
    gen: u64,
    kind: CollKind,
    op: ReduceOp,
    data: Vec<f32>,
    bytes: u64,
) -> Vec<f32> {
    let root = *comm.ranks().last().expect("non-empty group");
    let obs = &NullObserver;
    match kind {
        CollKind::AllReduce => comm
            .all_reduce_shared(rank, gen, data, op, bytes, obs)
            .map(|r| r.to_vec()),
        CollKind::AllGather => comm
            .all_gather_shared(rank, gen, data, bytes, obs)
            .map(|r| r.to_vec()),
        CollKind::ReduceScatter => comm.reduce_scatter(rank, gen, data, op, bytes, obs),
        CollKind::Broadcast => comm
            .broadcast_shared(rank, gen, root, (rank == root).then_some(data), bytes, obs)
            .map(|r| r.to_vec()),
        CollKind::Barrier => comm.barrier(rank, gen, obs).map(|()| Vec::new()),
        CollKind::Rendezvous => comm.rendezvous(rank, gen, obs).map(|()| Vec::new()),
    }
    .unwrap()
}

/// Runs `ops` in order on `comm`, one thread per member, each member
/// contributing `payload(member, op index)`; returns every member's
/// results in op order.
fn run_members(
    comm: &Arc<Communicator>,
    ops: Arc<Vec<(CollKind, ReduceOp, u64)>>,
    payload: fn(usize, usize) -> Vec<f32>,
    after_each: impl Fn(usize) + Send + Sync + 'static,
) -> Vec<Vec<Vec<f32>>> {
    let after_each = Arc::new(after_each);
    let handles: Vec<_> = (0..comm.size())
        .map(|m| {
            let (comm, ops, after_each) = (comm.clone(), ops.clone(), after_each.clone());
            std::thread::spawn(move || {
                let rank = comm.ranks()[m];
                let mut out = Vec::new();
                for (i, &(kind, op, bytes)) in ops.iter().enumerate() {
                    out.push(issue(&comm, rank, i as u64, kind, op, payload(m, i), bytes));
                    if m == 0 {
                        after_each(i);
                    }
                }
                out
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

const DATA_KINDS: [CollKind; 4] = [
    CollKind::AllReduce,
    CollKind::AllGather,
    CollKind::ReduceScatter,
    CollKind::Broadcast,
];

/// Member 0's clock after each op, by `to_bits`: every data kind at each
/// logical size (0, 4 KiB + 3, 4 MiB), then a barrier and a rendezvous,
/// on a fresh world of `n` ranks placed `ranks_per_node` to a node unless
/// `node_of` says otherwise. A split child (the first half of the ranks)
/// makes the rendezvous bootstrap it too. The barrier every completion
/// charges must leave all members' clocks equal.
fn clock_trace(
    engine: CollEngine,
    n: usize,
    ranks_per_node: usize,
    node_of: Option<Vec<usize>>,
    split_child: bool,
) -> Vec<u64> {
    let clock = Arc::new(ClockBoard::new(n));
    let world = CommWorld::new(clock.clone(), CostModel::v100(), ranks_per_node);
    let mut comm = world
        .create_comm((0..n).map(RankId::from).collect(), (0..n).collect())
        .set_engine(engine);
    if let Some(node_of) = node_of {
        comm = comm.set_topology(node_of);
    }
    world.replace_comm(comm.clone());
    let keys: Vec<SplitKey> = (0..n)
        .map(|m| {
            if m < n / 2 {
                SplitKey::new(0, m)
            } else {
                SplitKey::none()
            }
        })
        .collect();
    let _child = split_child.then(|| world.split_comm(&comm, &keys).unwrap());
    let mut ops: Vec<(CollKind, ReduceOp, u64)> = Vec::new();
    for bytes in [0, 4096 + 3, 4 << 20] {
        ops.extend(DATA_KINDS.map(|k| (k, ReduceOp::Sum, bytes)));
    }
    ops.push((CollKind::Barrier, ReduceOp::Sum, 0));
    ops.push((CollKind::Rendezvous, ReduceOp::Sum, 0));
    let trace = Arc::new(Mutex::new(Vec::new()));
    let t = trace.clone();
    run_members(
        &comm,
        Arc::new(ops),
        |_, _| vec![1.0; 64],
        move |_| {
            let now: Vec<u64> = (0..n).map(|i| clock.now(i).as_secs().to_bits()).collect();
            assert!(now.iter().all(|b| *b == now[0]), "members' clocks differ");
            t.lock().unwrap().push(now[0]);
        },
    );
    Arc::try_unwrap(trace).unwrap().into_inner().unwrap()
}

/// NaN-free inputs that a reordered fold would change: signed zeros,
/// subnormals, a ±1e30 pair that cancels, and at most one infinity per
/// index (the five members' residues below are distinct).
fn special(member: usize, i: usize) -> f32 {
    match (i * 7 + member * 3) % 10 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(1),
        3 => -f32::from_bits(0x007f_ffff),
        4 => 1e30,
        5 => -1e30,
        6 if i.is_multiple_of(2) => f32::INFINITY,
        6 => f32::NEG_INFINITY,
        7 => 1.0 + i as f32 * 1e-7,
        8 => -3.5,
        _ => 0.1 * member as f32,
    }
}

/// The V100 fold chunk (`RingConfig::from_cost`), in elements.
const CHUNK_ELEMS: usize = 512 * 1024 / 4;
const RESULT_LENS: [usize; 5] = [0, 1, 7, CHUNK_ELEMS - 1, CHUNK_ELEMS + 1];
/// Per length: all-reduce Sum, Avg and Max, all-gather, reduce-scatter
/// (Sum, every member's shard in member order) and broadcast.
const RESULT_OPS: [(CollKind, ReduceOp); 6] = [
    (CollKind::AllReduce, ReduceOp::Sum),
    (CollKind::AllReduce, ReduceOp::Avg),
    (CollKind::AllReduce, ReduceOp::Max),
    (CollKind::AllGather, ReduceOp::Sum),
    (CollKind::ReduceScatter, ReduceOp::Sum),
    (CollKind::Broadcast, ReduceOp::Sum),
];

/// `f32_checksum` of each data kind's result over five members, per
/// `RESULT_LENS` × `RESULT_OPS`.
fn result_crcs(engine: CollEngine, node_of: Vec<usize>) -> Vec<u64> {
    const N: usize = 5;
    let world = CommWorld::new(Arc::new(ClockBoard::new(N)), CostModel::v100(), 8);
    let comm = world
        .create_comm((0..N).map(RankId::from).collect(), (0..N).collect())
        .set_engine(engine)
        .set_topology(node_of);
    let ops: Vec<(CollKind, ReduceOp, u64)> = RESULT_LENS
        .iter()
        .flat_map(|_| RESULT_OPS.map(|(k, op)| (k, op, 64)))
        .collect();
    let payload = |m: usize, i: usize| {
        let len = RESULT_LENS[i / RESULT_OPS.len()];
        let len = match RESULT_OPS[i % RESULT_OPS.len()].0 {
            CollKind::ReduceScatter => len - len % N,
            _ => len,
        };
        (0..len).map(|e| special(m, e)).collect()
    };
    let outs = run_members(&comm, Arc::new(ops), payload, |_| {});
    (0..outs[0].len())
        .map(|i| {
            if RESULT_OPS[i % RESULT_OPS.len()].0 == CollKind::ReduceScatter {
                let whole: Vec<f32> = outs.iter().flat_map(|o| o[i].clone()).collect();
                return simcore::codec::f32_checksum(&whole);
            }
            let crcs: Vec<u64> = outs
                .iter()
                .map(|o| simcore::codec::f32_checksum(&o[i]))
                .collect();
            assert!(crcs.iter().all(|c| *c == crcs[0]), "members disagree");
            crcs[0]
        })
        .collect()
}

#[test]
fn collective_schedules_and_results_are_pinned() {
    let _g = serial();
    // Virtual time is the cost schedule alone: Ring and Hier at four
    // placements, every kind, three logical sizes.
    let cfg = RingConfig::from_cost(&CostModel::v100());
    let scattered = || Some(vec![0, 1, 0, 1]);
    let contiguous = || Some(vec![0, 0, 0, 0, 1, 1, 1, 1]);
    let mut clocks = Vec::new();
    for engine in [CollEngine::Ring(cfg), CollEngine::Hier(cfg)] {
        clocks.push(clock_trace(engine, 4, 8, None, false));
        clocks.push(clock_trace(engine, 8, 8, contiguous(), false));
        clocks.push(clock_trace(engine, 4, 8, scattered(), false));
        clocks.push(clock_trace(engine, 16, 8, None, true));
    }
    assert_eq!(clocks, GOLDEN_CLOCKS, "a collective's simulated cost moved");
    // The result bits do not depend on the schedule or the placement.
    let ring = result_crcs(CollEngine::Ring(cfg), vec![0; 5]);
    assert_eq!(ring, GOLDEN_RESULTS, "a collective's result bits moved");
    let hier = result_crcs(CollEngine::Hier(cfg), vec![0, 1, 0, 1, 0]);
    assert_eq!(hier, GOLDEN_RESULTS, "the hierarchical schedule moved bits");
}

/// Member 0's clock bits after each op of `clock_trace`: all-reduce,
/// all-gather, reduce-scatter and broadcast at 0 B, then at 4 KiB + 3,
/// then at 4 MiB, then a barrier and a rendezvous.
#[rustfmt::skip]
const GOLDEN_CLOCKS: [[u64; 14]; 8] = [
    // Ring, one node x 4
    [
        0x3f092a737110e454, 0x3f12dfd694ccab3f, 0x3f192a737110e454, 0x3f1f75104d551d69,
        0x3f2606bb48466297, 0x3f292cd4d9144c88, 0x3f2c52ee69e23679, 0x3f2f7907fab0206a,
        0x3f360dc4dd3a73df, 0x3f3936654d2ba5b4, 0x3f3c5f05bd1cd789, 0x3f3f87a62d0e095e,
        0x3f4262e9c7a371cd, 0x3ff0024c5d38f46e,
    ],
    // Ring, contiguous 2 x 4
    [
        0x3f42599ed7c6fbd3, 0x3f4b866e43aa79bc, 0x3f52599ed7c6fbd3, 0x3f56f0068db8bac8,
        0x3f600f9f1385e0ac, 0x3f625b6cf9daa250, 0x3f64a73ae02f63f4, 0x3f66f308c6842598,
        0x3f702c723ae43947, 0x3f7285e926b54c84, 0x3f74df6012865fc1, 0x3f7738d6fe5772fe,
        0x3f77b6ab3f8cc774, 0x3ff017b6ab3f8cc7,
    ],
    // Ring, scattered [0, 1, 0, 1]
    [
        0x3f2f75104d551d6a, 0x3f3797cc39ffd610, 0x3f3f75104d551d6a, 0x3f43a92a30553262,
        0x3f4b8a8e918e3f6c, 0x3f4f7b40c22ac5f1, 0x3f51b5f97963a63b, 0x3f53ae5291b1e97e,
        0x3f5fdc048fea12e3, 0x3f62f96ec78313cb, 0x3f6604db47111e24, 0x3f691047c69f287d,
        0x3f69b80d72e643c5, 0x3ff00cdc06b97322,
    ],
    // Ring, 16 ranks on 2 nodes with a split child
    [
        0x3f53a92a30553262, 0x3f5d7dbf487fcb93, 0x3f63a92a30553262, 0x3f689374bc6a7efa,
        0x3f7134a9f67622f9, 0x3f73aa21c29694b7, 0x3f761f998eb70675, 0x3f7895115ad77833,
        0x3f80098871ac7f4a, 0x3f81e90853cce0e2, 0x3f83c88835ed427a, 0x3f85a808180da412,
        0x3f85fbeaee3131b6, 0x400015fbeaee3132,
    ],
    // Hier, one node x 4
    [
        0x3f092a737110e454, 0x3f12dfd694ccab3f, 0x3f192a737110e454, 0x3f1f75104d551d69,
        0x3f2606bb48466297, 0x3f292cd4d9144c88, 0x3f2c52ee69e23679, 0x3f2f7907fab0206a,
        0x3f360dc4dd3a73df, 0x3f3936654d2ba5b4, 0x3f3c5f05bd1cd789, 0x3f3f87a62d0e095e,
        0x3f4262e9c7a371cd, 0x3ff0024c5d38f46e,
    ],
    // Hier, contiguous 2 x 4
    [
        0x3f20c6f7a0b5ed8e, 0x3f292a737110e455, 0x3f30c6f7a0b5ed8e, 0x3f34f8b588e368f2,
        0x3f3d627ce3c48a0a, 0x3f40cbb0489a8d4b, 0x3f42e6221f52d591, 0x3f450093f60b1dd7,
        0x3f52e38583eab78a, 0x3f571523485d4bda, 0x3f5b46c10ccfe02a, 0x3f5f785ed142747a,
        0x3f60b7d7eb0be328, 0x3ff0085bebf585f2,
    ],
    // Hier, scattered [0, 1, 0, 1]
    [
        0x3f192a737110e454, 0x3f22dfd694ccab3f, 0x3f292a737110e454, 0x3f2f75104d551d69,
        0x3f360b2cd73bada4, 0x3f39337f2f843d1c, 0x3f3c5bd187cccc94, 0x3f3f8423e0155c0c,
        0x3f4ef4c674d43f3b, 0x3f5347105b9c83eb, 0x3f5713bd7ccee838, 0x3f5ae06a9e014c85,
        0x3f5c2ff5f68f8314, 0x3ff0070bfd7da3e1,
    ],
    // Hier, 16 ranks on 2 nodes with a split child
    [
        0x3f292a737110e454, 0x3f32dfd694ccab3f, 0x3f392a737110e454, 0x3f3f75104d551d69,
        0x3f46085bb5c02e10, 0x3f492f457d4afdbe, 0x3f4c562f44d5cd6c, 0x3f4f7d190c609d1a,
        0x3f59500c4dde2e50, 0x3f5e18cc31b51e32, 0x3f6170c60ac6070a, 0x3f63d525fcb17efb,
        0x3f6524b1553fb58a, 0x400005492c554fed,
    ],
];
/// `result_crcs`: the six data kinds of `RESULT_OPS` per length of
/// `RESULT_LENS`.
#[rustfmt::skip]
const GOLDEN_RESULTS: [u64; 30] = [
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0e70d0a45648f3cf, 0x0e70d0a45648f3cf, 0x0e70d0a45648f3cf,
    0xde96b3b508f8007d, 0x0000000000000000, 0x37659481a0843244,
    0x38e766884f931da7, 0x7656e30fd946d46a, 0xc1fbda3afcf0ec8e,
    0x435624d7f1bc6991, 0x898457508f21f46b, 0xf46b7b88f35aa427,
    0x459a9b781cec8bd1, 0xedc7b036390021e1, 0xc7abe6b17f2d0ba8,
    0x827b8e7f948475f5, 0xa4db7977077f0eb6, 0x8493c9886603e702,
    0xc47c0a704d53fee3, 0x970cfae833bf9551, 0xf916278f85e9f7bd,
    0xd4f69727cced13f4, 0xa4db7977077f0eb6, 0x559988de60b33a8e,
];

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

/// One sticky CUDA error and one hardware failure, on opposite ranks and
/// one iteration past a periodic checkpoint each.
fn restart_faults() -> Arc<FailureInjector> {
    FailureInjector::with_specs(vec![
        FailureSpec::new(3, Phase::Backward, RankId(1), FailureKind::StickyCuda),
        FailureSpec::new(7, Phase::Forward, RankId(0), FailureKind::GpuHardware),
    ])
}

/// What a user-level job leaves behind: restarts, its recovery events as
/// sorted `(rank, iteration, checkpoint_time bits, restore_time bits)`,
/// and the store's read and object counts.
type UserPin = (u32, Vec<(u32, u64, u64, u64)>, u64, usize);

fn bits(t: simcore::SimTime) -> u64 {
    t.as_secs().to_bits()
}

fn user_level_pin(jit: JitUserConfig) -> UserPin {
    let store = Arc::new(SharedStore::new());
    let out = run_job(
        dltrain::TrainConfig::tiny_dp(2),
        CostModel::v100(),
        restart_faults(),
        store.clone(),
        8,
        Policy::UserLevel {
            scheduler: Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
            jit,
        },
    )
    .unwrap();
    assert_eq!(loss_bits(&out.losses), GOLDEN_DP2, "recovery moved a loss");
    let mut events: Vec<_> = out
        .events
        .iter()
        .map(|e| {
            let at = (e.rank.0, e.iteration);
            (at.0, at.1, bits(e.checkpoint_time), bits(e.restore_time))
        })
        .collect();
    events.sort_unstable();
    (out.restarts, events, store.read_count(), store.len())
}

#[test]
fn restart_runners_are_pinned() {
    let _g = serial();
    // The user-level runner over each of its restore legs, and the
    // periodic baseline, through the same two faults: what every
    // restarted rank was charged, what it read, and what it trained.
    // Hangs here are proven, never waited out: the 30 s timeout is only
    // the virtual time a proven hang charges.
    let jit = JitUserConfig {
        watchdog_timeout: std::time::Duration::from_secs(30),
        ..JitUserConfig::default()
    };
    let streamed = user_level_pin(jit.clone());
    let store_only = user_level_pin(JitUserConfig {
        stream_recovery: false,
        ..jit.clone()
    });
    // The replica dies after the preamble: the receiver falls back.
    let truncated = user_level_pin(JitUserConfig {
        stream_truncate: Some(1),
        ..jit
    });
    let store = Arc::new(SharedStore::new());
    let pc = run_job(
        dltrain::TrainConfig::tiny_dp(2),
        CostModel::v100(),
        restart_faults(),
        store.clone(),
        8,
        periodic(
            Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
            PolicyKind::PcMem,
            2,
        ),
    )
    .unwrap();
    assert_eq!(loss_bits(&pc.losses), GOLDEN_DP2, "recovery moved a loss");
    let periodic = (
        pc.restarts,
        pc.wasted_iterations,
        pc.checkpoints_written,
        pc.finish_times.into_iter().map(bits).collect::<Vec<_>>(),
        store.read_count(),
        store.len(),
    );

    // Virtual seconds, by `to_bits`: the JIT write, and the restores —
    // restart + store read (the owner, or every rank without streaming),
    // restart + stream (the other replica), restart + the preamble + a
    // store read (the other replica when the stream dies).
    const WRITE: u64 = 0x3fec_ccda_6696_39ec;
    const READ: u64 = 0x4014_0001_b339_2da4;
    const STREAM: u64 = 0x4014_000e_d1f4_6832;
    const FELL_BACK: u64 = 0x4014_000d_e2d2_f04c;
    // Sticky at 3 on rank 1 (rank 0 writes and owns), hardware at 7 on
    // rank 0 (rank 1 writes and owns).
    let events = |receiver: u64| {
        vec![
            (0, 3, 0, READ),
            (0, 3, WRITE, 0),
            (0, 7, 0, receiver),
            (1, 3, 0, receiver),
            (1, 7, 0, READ),
            (1, 7, WRITE, 0),
        ]
    };
    assert_eq!(streamed, (2, events(STREAM), 8, 4), "streamed replica");
    assert_eq!(store_only, (2, events(READ), 12, 4), "store only");
    assert_eq!(truncated, (2, events(FELL_BACK), 12, 4), "dead replica");
    // The periodic job writes its one cell at iteration 2, resumes from
    // 2 and writes at 4 and 6, then resumes from 6 and writes at 8: four
    // writes, all by the dp-0 replica, each one shard and a sidecar, so
    // 8 objects.
    // Reads: each restart reads the sidecar and the shard three times
    // (the launcher's resolution, then each rank's restore), 12 in all;
    // and each write with an earlier generation of the cell in the store
    // reads that sidecar as its delta base (at 4, 6 and 8): 15. With
    // every replica writing it was 8 writes, 16 objects and 12 + 2 × 3
    // reads.
    let finish = vec![0x4017_9c44_3a6b_0bf2; 2];
    assert_eq!(periodic, (2, 2, 4, finish, 15, 8), "periodic");
}

#[test]
fn an_ack_never_outlives_its_incident() {
    let _g = serial();
    // The restart golden's cut-stream job, with a hang timeout shorter
    // than the stream patience: after the first restart the owner sits in
    // its first collective while the other replica's wait ends on the cut
    // stream and it restores from the store, a wait nothing proves hung.
    // Detecting it anyway would write a checkpoint and ack an incident
    // that never happened, and that ack would meet the second incident's
    // quorum before its own writer did.
    let jit = JitUserConfig {
        watchdog_timeout: std::time::Duration::from_millis(100),
        stream_patience: std::time::Duration::from_millis(300),
        stream_truncate: Some(1),
        ..JitUserConfig::default()
    };
    let out = run_job(
        dltrain::TrainConfig::tiny_dp(2),
        CostModel::v100(),
        restart_faults(),
        Arc::new(SharedStore::new()),
        8,
        Policy::UserLevel {
            scheduler: Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
            jit,
        },
    )
    .unwrap();
    assert_eq!(out.restarts, 2);
    assert_eq!(out.wasted_iterations, 0, "resumed from a stale ack");
    assert_eq!(out.checkpoints_written, 2, "one write per incident");
    assert_eq!(loss_bits(&out.losses), GOLDEN_DP2, "recovery moved a loss");
}

#[test]
fn a_cut_stream_ends_on_its_cut_not_on_patience() {
    let _g = serial();
    // `an_ack_never_outlives_its_incident`'s job, with a minute of stream
    // patience: the replica that owns the checkpoint sends the preamble and
    // cuts its stream, and the receiver learns so at once, as it would from
    // a reset connection. The job runs on its own thread, so that a
    // receiver waiting out its patience fails this test in seconds.
    let jit = JitUserConfig {
        watchdog_timeout: std::time::Duration::from_millis(100),
        stream_patience: std::time::Duration::from_secs(60),
        stream_truncate: Some(1),
        ..JitUserConfig::default()
    };
    let started = std::time::Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let out = run_job(
            dltrain::TrainConfig::tiny_dp(2),
            CostModel::v100(),
            restart_faults(),
            Arc::new(SharedStore::new()),
            8,
            Policy::UserLevel {
                scheduler: Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
                jit,
            },
        );
        let _ = tx.send(out);
    });
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the job waited out its stream patience")
        .unwrap();
    let wall = started.elapsed();
    assert_eq!(out.restarts, 2);
    assert_eq!(out.wasted_iterations, 0, "resumed from a stale ack");
    assert_eq!(out.checkpoints_written, 2, "one write per incident");
    assert_eq!(loss_bits(&out.losses), GOLDEN_DP2, "recovery moved a loss");
    assert!(wall < std::time::Duration::from_secs(2), "took {wall:?}");
}

#[test]
fn a_cell_nobody_can_checkpoint_is_killed_at_once() {
    let _g = serial();
    // One replica of two stages, and the stage-0 rank's GPU dies: the
    // stage-1 rank is proven hung and writes its checkpoint, but no rank
    // is left that could write stage 0's, so the quorum can never be met.
    // The job is killed once nobody can ack any more, and restarts from
    // scratch onto the fault-free trajectory.
    let mut cfg = dltrain::TrainConfig::tiny_dp(1);
    cfg.layout = ParallelLayout::three_d(1, 2, 1);
    let iters = 6;
    let twin = loss_bits(&clean_run(&cfg, iters));
    let fault = FailureSpec::new(3, Phase::Forward, RankId(0), FailureKind::GpuHardware);
    let started = std::time::Instant::now();
    let out = run_job(
        cfg,
        CostModel::v100(),
        FailureInjector::with_specs(vec![fault]),
        Arc::new(SharedStore::new()),
        iters,
        Policy::UserLevel {
            scheduler: Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
            jit: JitUserConfig::default(),
        },
    )
    .unwrap();
    let wall = started.elapsed();
    assert_eq!(out.restarts, 1);
    assert_eq!(loss_bits(&out.losses), twin);
    assert!(wall < std::time::Duration::from_secs(2), "took {wall:?}");
}

/// Bits of the virtual finish times the periodic job below reaches,
/// fault-free and with the hardware fault, on tiny DP = 2 and at
/// 2D-2P-2T: the values every replica writing its own copy gave.
const PERIODIC_FINISH_DP2: [&[u64]; 2] = [&[0x4005_a750_5622_d0d6; 2], &[0x4017_9c44_3a6b_0bf2; 2]];
const PERIODIC_FINISH_GRID: [&[u64]; 2] = [
    &[
        0x4005_a6e2_3471_d895,
        0x4005_a6e2_3471_d895,
        0x4005_a693_b4ea_5e24,
        0x4005_a693_b4ea_5e24,
        0x4005_a6e2_3471_d895,
        0x4005_a6e2_3471_d895,
        0x4005_a693_b4ea_5e24,
        0x4005_a693_b4ea_5e24,
    ],
    &[
        0x4017_9c56_5469_a119,
        0x4017_9c56_5469_a119,
        0x4017_9c2f_14a5_e3e1,
        0x4017_9c3f_df2f_cddc,
        0x4017_9c56_5469_a119,
        0x4017_9c56_5469_a119,
        0x4017_9c2f_14a5_e3e1,
        0x4017_9c3f_df2f_cddc,
    ],
];

#[test]
fn periodic_checkpoints_are_written_once_per_cell() {
    let _g = serial();
    use jitckpt::checkpoint::{self, CkptKind};
    // Every 2 of 6 iterations, fault-free and with a hardware failure on
    // rank 0, a dp-0 writer, one iteration past the checkpoint at 4.
    let mut grid = dltrain::TrainConfig::tiny_dp(1);
    grid.layout = ParallelLayout::three_d(2, 2, 2);
    let layouts = [
        (dltrain::TrainConfig::tiny_dp(2), PERIODIC_FINISH_DP2),
        (grid, PERIODIC_FINISH_GRID),
    ];
    let iters = 6;
    let fault = FailureSpec::new(5, Phase::Forward, RankId(0), FailureKind::GpuHardware);
    for (cfg, pinned) in layouts {
        let label = cfg.layout.label();
        let cells = cfg.layout.cells();
        let run = |faults: Vec<FailureSpec>| {
            let store = Arc::new(SharedStore::new());
            let out = run_job(
                cfg.clone(),
                CostModel::v100(),
                FailureInjector::with_specs(faults),
                store.clone(),
                iters,
                periodic(
                    Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
                    PolicyKind::PcMem,
                    2,
                ),
            )
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            (out, store)
        };
        let (twin, twin_store) = run(Vec::new());
        let (hit, hit_store) = run(vec![fault]);
        assert_eq!((twin.restarts, hit.restarts), (0, 1), "{label}");
        assert_eq!(hit.wasted_iterations, 1, "{label}: resumed from 4");
        assert_eq!(loss_bits(&hit.losses), loss_bits(&twin.losses), "{label}");
        // One sidecar per (cell, generation), all under dp0: the twin
        // writes at 2, 4 and 6; the faulted job at 2 and 4, then at 6
        // after resuming from 4.
        let job = simcore::JobId(0);
        let mut want = Vec::new();
        for it in [2, 4, 6] {
            for &(stage, part) in &cells {
                want.push(checkpoint::meta_path(
                    job,
                    CkptKind::Periodic,
                    it,
                    stage,
                    part,
                    0,
                ));
            }
        }
        want.sort();
        for (out, store) in [(&twin, &twin_store), (&hit, &hit_store)] {
            let mut sidecars: Vec<String> = store
                .list(checkpoint::job_prefix(job, CkptKind::Periodic))
                .into_iter()
                .filter(|p| p.ends_with("/meta"))
                .collect();
            sidecars.sort();
            assert_eq!(sidecars, want, "{label}");
            assert_eq!(out.checkpoints_written, want.len() as u64, "{label}");
        }
        // Every replica is charged the stall its dp-0 replica wrote for:
        // the clocks end where they did when every replica wrote.
        let finish =
            |out: &JobOutcome| -> Vec<u64> { out.finish_times.iter().map(|&t| bits(t)).collect() };
        assert_eq!(finish(&twin), pinned[0], "{label}: fault-free");
        assert_eq!(finish(&hit), pinned[1], "{label}: faulted");
    }
}

/// The reports of one transparent run on tiny DP = 2, with a fault of
/// `kind` armed in `phase` of iteration 3 on rank 1. Recovery moves no
/// loss.
fn transparent_reports(kind: FailureKind, phase: Phase) -> Vec<jitckpt::RecoveryReport> {
    let out = run_job(
        dltrain::TrainConfig::tiny_dp(2),
        CostModel::v100(),
        FailureInjector::with_specs(vec![FailureSpec::new(3, phase, RankId(1), kind)]),
        Arc::new(SharedStore::new()),
        8,
        Policy::Transparent { extra_comms: 0 },
    )
    .unwrap();
    assert_eq!(out.rounds, 1, "{kind:?} in {phase:?}");
    assert_eq!(loss_bits(&out.losses), GOLDEN_DP2, "{kind:?} moved a loss");
    out.reports
}

#[test]
fn transparent_reports_are_pinned() {
    let _g = serial();
    // One run per §4 class, with the faults of `decide`'s table. The
    // victim's recovery follows program order, so its step times and its
    // total are pinned bit for bit. A healthy rank keeps its minibatch and
    // replays nothing, so the class (e) healthy rank's steps and total are
    // pinned too: one buffer-file write, recorded once (EXPERIMENTS.md
    // derives it).
    use jitckpt::transparent::Action;
    use FailureKind::*;
    use Phase::*;
    // Virtual seconds, by `to_bits`: the comm teardown, the rendezvous of
    // two communicators and the handle step, which every victim runs.
    const TEARDOWN: u64 = 0x3feb_3333_3333_3333;
    const RENDEZVOUS: u64 = 0x4000_0000_0000_0000;
    const HANDLES: u64 = 0x3f74_7ae1_47ae_147b;
    const COPY: u64 = 0x3ee0_d102_cb20_0000;
    const E_HEALTHY: u64 = 0x4027_77e3_ec48_626b;
    #[rustfmt::skip]
    let rows: [(char, FailureKind, Phase, u64, &[u64]); 5] = [
        ('a', TransientNetwork, AllReduce, 0x4006_d9b1_b79d_908d,
         &[TEARDOWN, 0x3f50_624d_d2f1_aa00, RENDEZVOUS, HANDLES, 0x3f33_660e_51d0_2000]),
        ('b', DriverCorruption, Backward, 0x4011_6eca_189d_e718,
         &[TEARDOWN, 0x3ff8_0bdd_86b1_3768, RENDEZVOUS, HANDLES, 0x3f33_660e_51d4_c000]),
        ('c', StickyCuda, Backward, 0x4011_6e9c_ccbe_a6c2,
         &[TEARDOWN, 0x3ff8_0bcb_e61c_ffe0, RENDEZVOUS, COPY, HANDLES, 0x3f21_4d2f_5dbd_c000]),
        ('d', StickyCuda, OptimizerStep, 0x4011_6e7a_325f_eb47,
         &[TEARDOWN, 0x3ff8_0bcb_e61c_ffe0, RENDEZVOUS, COPY, HANDLES]),
        ('e', GpuHardware, Backward, 0x401b_63ee_28b4_76a1,
         &[TEARDOWN, 0x400f_f08c_df3a_d254, RENDEZVOUS, HANDLES, 0x3f21_4d2f_5dc6_0000]),
    ];
    for (class, kind, phase, total, steps) in rows {
        let reports = transparent_reports(kind, phase);
        let victim = reports.iter().find(|r| r.was_victim).unwrap();
        let times: Vec<u64> = victim
            .steps
            .iter()
            .map(|&(_, t)| bits(t))
            .filter(|&t| t != 0)
            .collect();
        assert_eq!(
            (bits(victim.total), &times[..]),
            (total, steps),
            "class {class}"
        );
        if class != 'e' {
            continue;
        }
        for healthy in reports.iter().filter(|r| !r.was_victim) {
            let actions: Vec<Action> = healthy.steps.iter().map(|&(a, _)| a).collect();
            let keep = [
                Action::Teardown,
                Action::WriteHardFiles,
                Action::Rendezvous,
                Action::RecreateHandles,
            ];
            assert_eq!(actions, keep, "class e: {healthy:?}");
            assert_eq!(bits(healthy.total), E_HEALTHY, "class e: {healthy:?}");
        }
    }
}

#[test]
fn five_replica_sync_rounds_are_pinned() {
    let _g = serial();
    // Five §4.2 rounds in one job that copy state from the healthy
    // replica, classes (c) and (d) alternating and so are the victims:
    // each round rebuilds the communicators the round before it rebuilt.
    // The faults are two iterations apart, so no round sees two victims.
    // Every loss keeps the fault-free twin's bits, and every victim's
    // step times and total are pinned bit for bit.
    use FailureKind::StickyCuda;
    use Phase::*;
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let iters = 12;
    let twin = loss_bits(&clean_run(&cfg, iters));
    let faults: Vec<FailureSpec> = (0..5u64)
        .map(|i| {
            let phase = if i % 2 == 0 { Backward } else { OptimizerStep };
            FailureSpec::new(2 + 2 * i, phase, RankId(1 - (i % 2) as u32), StickyCuda)
        })
        .collect();
    let out = run_job(
        cfg,
        CostModel::v100(),
        FailureInjector::with_specs(faults),
        Arc::new(SharedStore::new()),
        iters,
        Policy::Transparent { extra_comms: 0 },
    )
    .unwrap();
    assert_eq!(out.rounds, 5);
    assert_eq!(loss_bits(&out.losses), twin, "recovery moved a loss");
    let victims: Vec<(u32, u64, Vec<u64>)> = out
        .reports
        .iter()
        .filter(|r| r.was_victim)
        .map(|r| {
            let steps = r.steps.iter().map(|&(_, t)| bits(t)).collect();
            (r.rank.0, bits(r.total), steps)
        })
        .collect();
    // Virtual seconds, by `to_bits`: the rendezvous of two communicators,
    // the copy and the handle step, which every round's victim runs. The
    // other steps round differently at each round's clock magnitude, and
    // each round starts where the rounds before it left the clock: one
    // bootstrap per distinct communicator each.
    const RENDEZVOUS: u64 = 0x4000_0000_0000_0000;
    const COPY: u64 = 0x3ee0_d102_cb20_0000;
    const HANDLES: u64 = 0x3f74_7ae1_47ae_147b;
    #[rustfmt::skip]
    let want: [(u32, u64, &[u64]); 5] = [
        (1, 0x4011_6e9c_ccbe_a6c2, &[0x3feb_3333_3333_3333, 0x3ff8_0bcb_e61c_ffdf,
            RENDEZVOUS, COPY, HANDLES, 0x3f21_4d2f_5dbd_c000]),
        (0, 0x4011_6e7a_325f_eb47, &[0x3feb_3333_3333_3330, 0x3ff8_0bcb_e61c_ffe0,
            RENDEZVOUS, COPY, HANDLES]),
        (1, 0x4011_6e9c_ccbe_a6ea, &[0x3feb_3333_3333_3330, 0x3ff8_0bcb_e61d_003c,
            RENDEZVOUS, COPY, HANDLES, 0x3f21_4d2f_5dc6_0000]),
        (0, 0x4011_6e7a_325f_eb5f, &[0x3feb_3333_3333_3330, 0x3ff8_0bcb_e61d_0040,
            RENDEZVOUS, COPY, HANDLES]),
        (1, 0x4011_6e9c_ccbe_a6eb, &[0x3feb_3333_3333_3330, 0x3ff8_0bcb_e61d_0040,
            RENDEZVOUS, COPY, HANDLES, 0x3f21_4d2f_5dc6_0000]),
    ];
    let want: Vec<(u32, u64, Vec<u64>)> = want
        .iter()
        .map(|&(rank, total, steps)| (rank, total, steps.to_vec()))
        .collect();
    assert_eq!(victims, want);
}

#[test]
fn a_closed_round_leaves_no_recovery_slot_behind() {
    let _g = serial();
    // One job on tiny DP = 2 through all five §4 classes, victims
    // alternating. A rank leaves a round only once the round has dropped
    // its rendezvous and replica-sync slots from every communicator it
    // built: after each step, releasing them again finds nothing on any
    // communicator the rank's tokens are bound to.
    use jitckpt::transparent::TransparentEngine;
    use FailureKind::*;
    use Phase::*;
    let classes = [
        (GpuHardware, Backward),
        (StickyCuda, Backward),
        (DriverCorruption, Backward),
        (TransientNetwork, AllReduce),
        (StickyCuda, OptimizerStep),
    ];
    let faults = (classes.iter().enumerate())
        .map(|(i, &(kind, phase))| {
            FailureSpec::new(1 + 2 * i as u64, phase, RankId(i as u32 % 2), kind)
        })
        .collect();
    let injector = FailureInjector::with_specs(faults);
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let cost = CostModel::v100();
    let setup = dltrain::JobSetup::build(cfg.layout, cost.clone(), cfg.ranks_per_node);
    let (world, per_rank) = (setup.world.clone(), setup.per_rank.clone());
    let engine = TransparentEngine::new(
        cfg.layout,
        world.clone(),
        Arc::new(SharedStore::new()),
        TransparentEngine::counter_gpu_allocator(10_000, cost.clone()),
    );
    let engine2 = engine.clone();
    let held = dltrain::run_ranks(2, move |i| {
        let gpu = simgpu::Gpu::new(simcore::GpuId(i as u32), cost.clone());
        let mut client = proxy::ProxyClient::new(RankId(i as u32), i, gpu, world.clone());
        engine2.attach(&mut client)?;
        let mut tr =
            dltrain::RankTrainer::new(client, cfg.clone(), &per_rank[i], injector.clone())?;
        let mut held = Vec::new();
        for _ in 0..11 {
            tr.train_step()?;
            for token in tr.exec.comm_tokens() {
                held.push(tr.exec.comm(token)?.release_recovery_slots());
            }
        }
        Ok(held)
    });
    assert_eq!(engine.rounds(), 5);
    for held in held {
        let held = held.unwrap();
        assert_eq!(held.len(), 22, "two tokens after each of 11 steps");
        assert!(held.iter().all(|&n| n == 0), "{held:?}");
    }
}

/// Runs `cfg` for `iters` iterations with `faults` armed, and checks that
/// each fault took one recovery round and that every loss has the bits of
/// the fault-free twin's.
fn assert_recovers(
    cfg: &dltrain::TrainConfig,
    iters: u64,
    twin: &[Vec<u32>],
    faults: &[FailureSpec],
) {
    let row = format!("{} {faults:?}", cfg.layout.label());
    let out = run_job(
        cfg.clone(),
        CostModel::v100(),
        FailureInjector::with_specs(faults.to_vec()),
        Arc::new(SharedStore::new()),
        iters,
        Policy::Transparent { extra_comms: 0 },
    )
    .unwrap_or_else(|e| panic!("{row}: {e}"));
    assert_eq!(out.rounds, faults.len() as u64, "{row}");
    assert_eq!(loss_bits(&out.losses), twin, "{row}");
}

#[test]
fn every_decide_row_recovers_bit_for_bit() {
    let _g = serial();
    // `decide`'s table, live: every kind armed in every phase of
    // iteration 3 on either rank of tiny DP = 2; the five benchmark
    // classes at 2D-2P-2T on a first, a middle and a last rank; and two
    // hardware failures in one job, so that a second §4.3 round follows
    // the first.
    use FailureKind::*;
    use Phase::*;
    let iters = 6;
    let dp2 = dltrain::TrainConfig::tiny_dp(2);
    let twin = loss_bits(&clean_run(&dp2, iters));
    for kind in FailureKind::all() {
        for phase in Phase::all() {
            for victim in 0..2 {
                let fault = FailureSpec::new(3, phase, RankId(victim), kind);
                assert_recovers(&dp2, iters, &twin, &[fault]);
            }
        }
    }
    let mut grid = dltrain::TrainConfig::tiny_dp(1);
    grid.layout = ParallelLayout::three_d(2, 2, 2);
    let grid_twin = loss_bits(&clean_run(&grid, iters));
    let classes = [
        (TransientNetwork, AllReduce),
        (DriverCorruption, Backward),
        (StickyCuda, Backward),
        (StickyCuda, OptimizerStep),
        (GpuHardware, Backward),
    ];
    for (kind, phase) in classes {
        for victim in [0, 5, 7] {
            let fault = FailureSpec::new(2, phase, RankId(victim), kind);
            assert_recovers(&grid, iters, &grid_twin, &[fault]);
        }
    }
    let two_hard = [
        FailureSpec::new(2, Backward, RankId(0), GpuHardware),
        FailureSpec::new(4, Backward, RankId(1), GpuHardware),
    ];
    assert_recovers(&dp2, iters, &twin, &two_hard);
}

#[test]
fn a_round_after_some_ranks_finished_training_recovers_bit_for_bit() {
    let _g = serial();
    // A transient network error late in a short 2D-2P-2T job: when the
    // round opens, the ranks of other cells may already have trained
    // their last minibatch. Every victim, in both late phases, takes one
    // round and keeps the fault-free twin's loss bits.
    use Phase::*;
    let iters = 4;
    let mut grid = dltrain::TrainConfig::tiny_dp(1);
    grid.layout = ParallelLayout::three_d(2, 2, 2);
    let twin = loss_bits(&clean_run(&grid, iters));
    for phase in [OptimizerStep, BetweenIterations] {
        for victim in 0..8 {
            let fault = FailureSpec::new(2, phase, RankId(victim), FailureKind::TransientNetwork);
            assert_recovers(&grid, iters, &twin, &[fault]);
        }
    }
}

#[test]
fn live_worker_image_is_pinned() {
    let _g = serial();
    // The image a replacement node restores (§4.3), taken from a live
    // trainer: every logged-op kind `tiny_dp(2)` issues, in its wire
    // order, with the ids and generations three fault-free minibatches
    // leave behind. A change to one number is a change to the image.
    let cfg = dltrain::TrainConfig::tiny_dp(2);
    let setup = dltrain::JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
    let (world, per_rank) = (setup.world.clone(), setup.per_rank.clone());
    let images = dltrain::run_ranks(2, move |i| {
        let gpu = simgpu::Gpu::new(simcore::GpuId(i as u32), CostModel::v100());
        let client = proxy::ProxyClient::new(RankId(i as u32), i, gpu, world.clone());
        let none = FailureInjector::none();
        let mut tr = dltrain::RankTrainer::new(client, cfg.clone(), &per_rank[i], none)?;
        tr.train(3)?;
        let image = tr.exec.worker_cpu_state()?;
        Ok((
            tr.exec.replay_log_len(),
            image.len(),
            simcore::codec::crc64(&image),
        ))
    });
    let images: Vec<_> = images.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(
        images,
        vec![
            (138, 5501, 0xe0f0_fa46_532a_f902),
            (138, 5501, 0xbbde_0fac_88fb_1eb6),
        ]
    );
}
