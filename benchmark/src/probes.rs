//! Layer probes: each times calls into one layer's `pub` functions from
//! outside, at the shapes of the workload it is listed under. They run
//! only in the traced process (`--trace 1`) and only for the workloads
//! whose end-to-end metrics the layer is expected to move (the map is in
//! README.md); elsewhere the metric reads 0. One public function per
//! workload, named after it.

use crate::gen::{self, Shape, WORLD};
use crate::report::{Report, Summary};
use crate::stepper::{self, StepSpec};
use crate::workloads::{objstore_profile, Ctx, TOUCH_FRAC};
use bytes::Bytes;
use cluster::{Cluster, Scheduler, SharedStore, StorageBackend};
use collectives::{
    CollEngine, CollectiveObserver, CollectiveTicket, CommWorld, GradLedger, LedgerConfig,
    NullObserver, ReduceOp, RingConfig,
};
use coordinator::SimObjectStore;
use dltrain::{build_comms, TrainState};
use jitckpt::checkpoint::{self, CkptKind, ShardConfig, ShardPlan};
use jitckpt::pipeline::{WriteBehind, WriteBehindConfig};
use jitckpt::restore::{read_checkpoint_parallel, RestoreConfig};
use jitckpt::stream;
use proxy::{DirectExecutor, Executor, ProxyClient, Watchdog};
use simcore::cost::{CostModel, GpuGeneration};
use simcore::layout::ParallelLayout;
use simcore::time::ClockBoard;
use simcore::{GpuId, JobId, RankId, SimError, SimResult};
use simgpu::{AllocSite, BufferId, BufferTag, DeviceCall, Gpu, KernelKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

pub fn steady_dp2(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let shape = if ctx.smoke { gen::SMOKE } else { gen::STEADY };
    simgpu_kernels(ctx, r, &shape)?;
    proxy_per_op(ctx, r)?;
    direct_twin(ctx, r, &shape)?;
    ring_all_reduce(ctx, r)?;
    let _s = ctx.rec.span("probe", "collectives", "scale_and_ledger");
    scale_w256(ctx, r)?;
    ledger(ctx, r)
}

pub fn faults_transparent(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let shape = if ctx.smoke { gen::SMOKE } else { gen::LARGE };
    recovery_primitives(ctx, r, &shape)
}

pub fn faults_userlevel(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let state = trainer_state(ctx, r)?;
    codec(ctx, r, &state)?;
    store_and_scheduler(ctx, r)?;
    watchdog_slack(ctx, r)?;
    checkpoint_read(ctx, r, &state)?;
    state_stream(ctx, r, &state)
}

pub fn faults_periodic(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let state = trainer_state(ctx, r)?;
    codec(ctx, r, &state)?;
    store_and_scheduler(ctx, r)?;
    checkpoint_write(ctx, r, state)
}

pub fn coordinator_objstore(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let bytes = if ctx.smoke { 1 << 20 } else { 64 << 20 };
    let state = gen::synthetic_state(bytes, ctx.seed);
    codec(ctx, r, &state)?;
    write_behind(ctx, r, state)?;
    objstore_put(ctx, r)
}

/// Median seconds of `reps` timed calls of `f`, after one untimed call.
fn median_s(reps: usize, mut f: impl FnMut() -> SimResult<()>) -> SimResult<f64> {
    f()?;
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        xs.push(t.elapsed().as_secs_f64());
    }
    Ok(Summary::of(&xs).median)
}

fn mbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-12)
}

fn malloc<E: Executor>(e: &mut E, name: &str, elems: u64, tag: BufferTag) -> SimResult<BufferId> {
    e.call(DeviceCall::Malloc {
        site: AllocSite::new(name, elems),
        elems,
        logical_bytes: elems * 4,
        tag,
    })?
    .buffer()
}

/// `simgpu`: the two kernels a steady step spends its time in, at the
/// workload's shapes, and the fixed cost of one device call.
fn simgpu_kernels(ctx: &Ctx, r: &mut Report, shape: &Shape) -> SimResult<()> {
    let _s = ctx.rec.span("probe", "simgpu", "kernels");
    let mut gpu = Gpu::new(GpuId(0), CostModel::v100());
    let mut buf = |name: &str, elems: usize, fill: f32| -> SimResult<BufferId> {
        let b = gpu
            .exec(&DeviceCall::Malloc {
                site: AllocSite::new(name, elems as u64),
                elems: elems as u64,
                logical_bytes: elems as u64 * 4,
                tag: BufferTag::Activation,
            })?
            .0
            .buffer()?;
        gpu.load_buffer(b, &vec![fill; elems])?;
        Ok(b)
    };
    let (m, k, n) = (shape.batch, shape.input_dim, shape.hidden);
    let a = buf("a", m * k, 0.5)?;
    let b = buf("b", k * n, 0.25)?;
    let out = buf("out", m * n, 0.0)?;
    let elems = k * n;
    let (param, grad) = (buf("param", elems, 1.0)?, buf("grad", elems, 0.01)?);
    let (mom, var) = (buf("m", elems, 0.0)?, buf("v", elems, 0.0)?);
    let x = buf("x", 64, 1.0)?;
    let stream = gpu.exec(&DeviceCall::StreamCreate)?.0.stream()?;
    // Median seconds per launch over `reps` timed batches of `batch`.
    let mut launch = |kernel: KernelKind, reps: usize, batch: usize| -> SimResult<f64> {
        let call = DeviceCall::Launch { stream, kernel };
        let per_batch = median_s(reps, || {
            for _ in 0..batch {
                gpu.exec(&call)?;
            }
            Ok(())
        })?;
        Ok(per_batch / batch as f64)
    };
    let matmul = launch(
        KernelKind::MatMul {
            a,
            b,
            out,
            m: m as u32,
            k: k as u32,
            n: n as u32,
            trans_a: false,
            trans_b: false,
        },
        200,
        1,
    )?;
    r.set(
        "simgpu.kernel.matmul_gflops",
        2.0 * (m * k * n) as f64 / 1e9 / matmul,
    );
    let adam = launch(
        KernelKind::AdamStep {
            param,
            grad,
            m: mom,
            v: var,
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 1,
            weight_decay: 0.0,
        },
        100,
        1,
    )?;
    r.set("simgpu.kernel.adam_melems_per_s", elems as f64 / 1e6 / adam);
    // A clock reading costs a fifth of one call: time them by the thousand.
    let call = launch(KernelKind::Scale { alpha: 1.0, x }, 20, 1000)?;
    r.set("simgpu.device.call_ns", call * 1e9);
    Ok(())
}

/// `proxy`: per-call cost of the interception path against the bare
/// executor — identical tiny launches, so the device work cancels.
fn proxy_per_op(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    const OPS: usize = 4000;
    fn per_op<E: Executor>(e: &mut E, flush: impl Fn(&mut E) -> SimResult<()>) -> SimResult<f64> {
        let stream = e.call(DeviceCall::StreamCreate)?.stream()?;
        let x = malloc(e, "x", 64, BufferTag::Activation)?;
        let launch = DeviceCall::Launch {
            stream,
            kernel: KernelKind::Scale { alpha: 1.0, x },
        };
        let mut it = 0;
        let batch = median_s(9, || {
            e.begin_minibatch(it)?;
            it += 1;
            for _ in 0..OPS {
                e.call(launch.clone())?;
            }
            flush(e)
        })?;
        Ok(batch / OPS as f64 * 1e9)
    }
    let _s = ctx.rec.span("probe", "proxy", "per_op");
    let world = || CommWorld::new(Arc::new(ClockBoard::new(1)), CostModel::v100(), 8);
    let gpu = || Gpu::new(GpuId(0), CostModel::v100());
    let mut direct = DirectExecutor::new(RankId(0), 0, gpu(), world());
    r.set("proxy.direct.per_op_ns", per_op(&mut direct, |_| Ok(()))?);
    let mut client = ProxyClient::new(RankId(0), 0, gpu(), world());
    r.set(
        "proxy.client.per_op_ns",
        per_op(&mut client, |c| c.flush_pending())?,
    );
    Ok(())
}

/// Counts the collectives rank 0 enters.
#[derive(Default)]
struct CountingObserver(AtomicU64);

impl CollectiveObserver for CountingObserver {
    fn collective_started(&self, t: &CollectiveTicket) {
        if t.rank == RankId(0) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn collective_finished(&self, _t: &CollectiveTicket) {}
}

/// `dltrain` on bare executors — the `steady_dp2` job with no proxy and
/// no engine — for the step time without interception and the
/// collectives a step issues.
fn direct_twin(ctx: &Ctx, r: &mut Report, shape: &Shape) -> SimResult<()> {
    let steps = if ctx.smoke { 10 } else { 40 };
    let observer = Arc::new(CountingObserver::default());
    let out = stepper::run_direct(
        StepSpec::fault_free(&shape.train_config(ctx.seed), steps, "probe"),
        &ctx.rec,
        Some(observer.clone()),
        stepper::no_hook,
    )?;
    let direct_ms = Summary::of(&out.ranks[0].step_wall_s).median * 1e3;
    r.set("dltrain.step_direct_ms", direct_ms);
    r.set(
        "proxy.steady_overhead_frac",
        r.get("healthy_step_ms") / direct_ms - 1.0,
    );
    let iterations = stepper::WARMUP_STEPS + steps;
    r.set(
        "collectives.calls_per_step",
        observer.0.load(Ordering::Relaxed) as f64 / iterations as f64,
    );
    // Every parameter's gradient crosses the data-parallel group once.
    r.set(
        "collectives.bytes_per_step",
        shape.model().param_count() as f64 * 4.0,
    );
    Ok(())
}

/// `collectives`: the ring all-reduce of one default-size gradient
/// bucket between the two ranks, free-running like back-to-back buckets.
fn ring_all_reduce(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let _s = ctx.rec.span("probe", "collectives", "ring_all_reduce");
    let elems = if ctx.smoke { 1 << 14 } else { 1 << 20 };
    const REPS: u64 = 8;
    const BATCHES: u64 = 6;
    let world = CommWorld::new(Arc::new(ClockBoard::new(WORLD)), CostModel::v100(), 8);
    let comm = world.create_comm((0..WORLD).map(RankId::from).collect(), (0..WORLD).collect());
    let barrier = Arc::new(Barrier::new(WORLD));
    let per_rank = dltrain::run_ranks(WORLD, move |k| {
        let mut batches = Vec::new();
        for batch in 0..BATCHES {
            let bufs: Vec<Vec<f32>> = (0..REPS).map(|_| vec![k as f32 + 0.5; elems]).collect();
            if barrier.wait().is_leader() {
                comm.prune_below(batch * REPS);
            }
            barrier.wait();
            let t = Instant::now();
            for (i, buf) in bufs.into_iter().enumerate() {
                comm.all_reduce_shared(
                    RankId(k as u32),
                    batch * REPS + i as u64,
                    buf,
                    ReduceOp::Avg,
                    (elems * 4) as u64,
                    &NullObserver,
                )?;
            }
            // The first batch pays first-touch faults.
            if batch > 0 {
                batches.push(t.elapsed().as_secs_f64() / REPS as f64);
            }
        }
        Ok(batches)
    });
    let batches = per_rank.into_iter().collect::<SimResult<Vec<_>>>()?;
    let per_op = Summary::of(&batches[0]).median;
    r.set("collectives.ring.allreduce_ms", per_op * 1e3);
    r.set("collectives.ring.allreduce_mbps", mbps(elems * 4, per_op));
    Ok(())
}

/// Simulated seconds of one 4 MiB all-reduce over 256 ranks, flat ring
/// against the two-level schedule, driven from this thread through the
/// non-blocking offer path. No job runner reaches `Hier` yet, so these
/// stand alone.
fn scale_w256(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let n = if ctx.smoke { 16 } else { 256 };
    let elems = if ctx.smoke { 1 << 12 } else { 1 << 20 };
    let cost = CostModel::v100();
    let input = vec![0.5f32; elems];
    for (name, engine) in [
        (
            "collectives.ring.sim_s_w256",
            CollEngine::Ring(RingConfig::from_cost(&cost)),
        ),
        (
            "collectives.hier.sim_s_w256",
            CollEngine::Hier(RingConfig::from_cost(&cost)),
        ),
    ] {
        let clock = Arc::new(ClockBoard::new(n));
        let world = CommWorld::new(clock.clone(), cost.clone(), 8);
        let comm = world
            .create_comm((0..n).map(RankId::from).collect(), (0..n).collect())
            .set_engine(engine);
        for k in 0..n {
            comm.offer_reduce(
                RankId(k as u32),
                0,
                &input,
                ReduceOp::Sum,
                (elems * 4) as u64,
            )?;
        }
        comm.try_result(0)?
            .ok_or_else(|| SimError::Protocol("offered all-reduce did not complete".into()))?;
        r.set(name, clock.now(0).as_secs());
    }
    Ok(())
}

/// The in-network gradient ledger: wall cost of the tap on an offered
/// 8-rank ring, and rebuilding a dead member's result from survivors.
/// No job runner attaches a ledger yet, so these stand alone.
fn ledger(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    const N: usize = 8;
    let elems = if ctx.smoke { 1 << 12 } else { 1 << 20 };
    let input = vec![0.25f32; elems];
    let mut wall = [0.0f64; 2];
    let mut kept = Vec::new();
    for (i, tap) in [false, true].into_iter().enumerate() {
        let world = CommWorld::new(Arc::new(ClockBoard::new(N)), CostModel::v100(), 8);
        let comm = world.create_comm((0..N).map(RankId::from).collect(), (0..N).collect());
        let ledgers: Vec<Arc<GradLedger>> = (0..N)
            .map(|_| GradLedger::new(LedgerConfig::default()))
            .collect();
        if tap {
            for (k, l) in ledgers.iter().enumerate() {
                comm.attach_ledger(RankId(k as u32), l.clone())?;
            }
        }
        let mut gen = 0;
        wall[i] = median_s(5, || {
            comm.prune_below(gen);
            for l in &ledgers {
                l.begin_epoch(gen);
            }
            for k in 0..N {
                comm.offer_reduce(
                    RankId(k as u32),
                    gen,
                    &input,
                    ReduceOp::Sum,
                    (elems * 4) as u64,
                )?;
            }
            gen += 1;
            Ok(())
        })?;
        if tap {
            kept = ledgers;
        }
    }
    r.set(
        "collectives.ledger.tap_wall_frac",
        wall[1] / wall[0].max(1e-12) - 1.0,
    );
    let gen = kept[1]
        .manifest()
        .last()
        .map(|m| m.gen)
        .ok_or_else(|| SimError::Protocol("ledger retained nothing".into()))?;
    let mut survivors: Vec<Option<Arc<GradLedger>>> = kept.into_iter().map(Some).collect();
    survivors[0] = None;
    let rebuild = median_s(5, || {
        collectives::ledger::reconstruct_result(gen, &survivors)
            .map(|_| ())
            .ok_or_else(|| SimError::Protocol("ledger reconstruction left a gap".into()))
    })?;
    r.set("collectives.ledger.reconstruct_ms", rebuild * 1e3);
    Ok(())
}

/// Wall milliseconds of each recovery primitive, rank 0.
#[derive(Default, Clone, Copy)]
struct PrimitiveTimes {
    reset_in_place: f64,
    replay: f64,
    snapshot_to_host: f64,
    reset_with_restart: f64,
    comm_rebuild: f64,
    sync_from_replica: f64,
    migrate: f64,
}

/// `proxy` and `collectives` on the recovery path: the primitives the
/// transparent engine composes, called on a live two-rank proxied job at
/// the `faults_transparent` shape in the order a round would, both
/// ranks in step.
fn recovery_primitives(ctx: &Ctx, r: &mut Report, shape: &Shape) -> SimResult<()> {
    let cfg = shape.train_config(ctx.seed);
    let layout = cfg.layout;
    let rebuilt: Arc<Mutex<Vec<dltrain::JobComms>>> = Arc::default();
    let rec = ctx.rec.clone();
    let (out, _) = stepper::run_proxy(
        StepSpec::fault_free(&cfg, 1, "probe"),
        &ctx.rec,
        move |rank, tr, barrier| {
            let _s = rec.span("probe", "proxy", "recovery_primitives");
            let c = &mut tr.exec;
            let mut t = PrimitiveTimes::default();
            let timed = |f: &mut dyn FnMut(&mut ProxyClient) -> SimResult<()>,
                         c: &mut ProxyClient|
             -> SimResult<f64> {
                barrier.wait();
                let start = Instant::now();
                f(c)?;
                Ok(start.elapsed().as_secs_f64() * 1e3)
            };
            t.reset_in_place = timed(&mut |c| c.reset_in_place(), c)?;
            t.replay = timed(&mut |c| c.replay().map(|_| ()), c)?;
            let mut host = None;
            t.snapshot_to_host = timed(
                &mut |c| {
                    host = Some(c.snapshot_persistent_to_host()?);
                    Ok(())
                },
                c,
            )?;
            t.reset_with_restart = timed(&mut |c| c.reset_with_restart(), c)?;
            let (snap, bytes) = host.expect("snapshot ran");
            c.restore_persistent_from_host(&snap, bytes)?;
            // Communicator rebuild as the engine's round planner and
            // every rank's rebind do it: one rank resets the world and
            // builds fresh groups, every rank swaps its tokens over and
            // rendezvouses.
            t.comm_rebuild = timed(
                &mut |c| {
                    if rank == 0 {
                        c.world().reset();
                        *rebuilt.lock().expect("probe lock") = build_comms(&layout, c.world());
                    }
                    barrier.wait();
                    let bundle = rebuilt.lock().expect("probe lock")[rank].clone();
                    let fresh = [bundle.global, bundle.dp.expect("data-parallel group")];
                    for (token, comm) in c.comm_tokens().into_iter().zip(fresh) {
                        comm.adopt_completed_from(&*c.comm(token)?);
                        c.replace_comm(token, comm);
                        c.rendezvous_comm(token)?;
                    }
                    Ok(())
                },
                c,
            )?;
            let dp = c.comm_tokens()[1];
            t.sync_from_replica = timed(&mut |c| c.sync_persistent_from_replica(dp, RankId(0)), c)?;
            t.migrate = timed(
                &mut |c| c.migrate_to_gpu(Gpu::new(GpuId(20_000 + rank as u32), CostModel::v100())),
                c,
            )?;
            Ok(t)
        },
    )?;
    let t = out.ranks[0].extra;
    r.set("proxy.client.reset_in_place_ms", t.reset_in_place);
    r.set("proxy.client.replay_ms", t.replay);
    r.set("proxy.client.snapshot_to_host_ms", t.snapshot_to_host);
    r.set("proxy.client.reset_with_restart_ms", t.reset_with_restart);
    r.set("collectives.comm_rebuild_ms", t.comm_rebuild);
    r.set("proxy.client.sync_from_replica_ms", t.sync_from_replica);
    r.set("proxy.client.migrate_ms", t.migrate);
    Ok(())
}

/// `dltrain`: snapshot and restore of a live trainer at the state-heavy
/// shape. Returns the snapshot, which the codec, checkpoint and stream
/// probes reuse as their payload.
fn trainer_state(ctx: &Ctx, r: &mut Report) -> SimResult<TrainState> {
    let shape = if ctx.smoke {
        gen::SMOKE
    } else {
        gen::STATE_HEAVY
    };
    let rec = ctx.rec.clone();
    let out = stepper::run_direct(
        StepSpec::fault_free(&shape.train_config(ctx.seed), 1, "probe"),
        &ctx.rec,
        None,
        move |rank, tr, _| {
            if rank != 0 {
                return Ok(None);
            }
            let _s = rec.span("probe", "dltrain", "snapshot_restore");
            let mut state = None;
            let snapshot = median_s(3, || {
                state = Some(tr.state_snapshot()?);
                Ok(())
            })?;
            let state = state.expect("snapshot ran");
            let restore = median_s(3, || tr.restore(&state))?;
            Ok(Some((state, snapshot, restore)))
        },
    )?;
    let (state, snapshot, restore) = out
        .ranks
        .into_iter()
        .find_map(|k| k.extra)
        .ok_or_else(|| SimError::Protocol("rank 0 returned no snapshot".into()))?;
    r.set("dltrain.snapshot_ms", snapshot * 1e3);
    r.set("dltrain.restore_ms", restore * 1e3);
    Ok(state)
}

/// `simcore::codec` over the workload's state.
fn codec(ctx: &Ctx, r: &mut Report, state: &TrainState) -> SimResult<()> {
    let _s = ctx.rec.span("probe", "simcore", "codec");
    let mut framed = Bytes::new();
    let encode = median_s(3, || {
        framed = simcore::codec::encode_framed(state);
        Ok(())
    })?;
    let decode = median_s(3, || {
        simcore::codec::decode_framed::<TrainState>(&framed).map(|_| ())
    })?;
    let crc = median_s(3, || {
        std::hint::black_box(simcore::codec::crc64(&framed));
        Ok(())
    })?;
    r.set("simcore.codec.encode_mbps", mbps(framed.len(), encode));
    r.set("simcore.codec.decode_mbps", mbps(framed.len(), decode));
    r.set("simcore.codec.crc64_mbps", mbps(framed.len(), crc));
    Ok(())
}

/// `cluster`: the in-memory store's verbs on shard-sized objects, and a
/// reschedule after a GPU failure.
fn store_and_scheduler(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    const OBJECTS: usize = 48;
    let size = if ctx.smoke { 64 << 10 } else { 4 << 20 };
    {
        let _s = ctx.rec.span("probe", "cluster.store", "verbs");
        let store = SharedStore::new();
        let payloads: Vec<Bytes> = (0..OBJECTS)
            .map(|i| Bytes::from(vec![i as u8; size]))
            .collect();
        let path = |i: usize| format!("probe/it{:010}/shard{i}", i / 16);
        let put = median_s(5, || {
            for (i, p) in payloads.iter().enumerate() {
                store.put(path(i), p.clone())?;
            }
            Ok(())
        })?;
        let get = median_s(5, || {
            for i in 0..OBJECTS {
                std::hint::black_box(store.get(path(i))?);
            }
            Ok(())
        })?;
        let list = median_s(50, || {
            std::hint::black_box(store.list("probe/"));
            Ok(())
        })?;
        r.set("cluster.store.put_mbps", mbps(OBJECTS * size, put));
        r.set("cluster.store.get_mbps", mbps(OBJECTS * size, get));
        r.set("cluster.store.list_us", list * 1e6);
    }
    let _s = ctx.rec.span("probe", "cluster.scheduler", "reschedule");
    let scheduler = Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 64));
    let layout = ParallelLayout::data_parallel(WORLD);
    let reschedule = median_s(50, || {
        let (job, assignment) = scheduler.submit(layout)?;
        scheduler.report_gpu_failure(job, assignment[0])?;
        scheduler.reschedule(job).map(|_| ())
    })?;
    r.set("cluster.scheduler.reschedule_us", reschedule * 1e6);
    Ok(())
}

/// `proxy::Watchdog`: how long past its timeout the hang action fires.
fn watchdog_slack(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let _s = ctx.rec.span("probe", "proxy", "watchdog");
    let timeout = Duration::from_millis(50);
    let mut slack = Vec::new();
    for _ in 0..5 {
        let (tx, rx) = std::sync::mpsc::channel();
        let wd = Watchdog::spawn(timeout, move || {
            let _ = tx.send(Instant::now());
        })?;
        let start = Instant::now();
        wd.begin_op();
        let fired = rx
            .recv_timeout(Duration::from_secs(5))
            .map_err(|_| SimError::Protocol("watchdog never fired".into()))?;
        slack.push((fired - start).as_secs_f64() * 1e3 - timeout.as_secs_f64() * 1e3);
    }
    r.set("proxy.watchdog.detect_slack_ms", Summary::of(&slack).median);
    Ok(())
}

fn write_one(store: &SharedStore, state: &TrainState) -> SimResult<()> {
    checkpoint::write_checkpoint_with(
        store,
        JobId(0),
        CkptKind::Jit,
        RankId(0),
        0,
        0,
        0,
        state,
        &ShardConfig::default().auto_sized_for(state),
    )
}

/// `jitckpt::checkpoint` write side (`faults_periodic`): a full
/// checkpoint of the state, then a delta generation after one synthetic
/// step for the exact reuse share.
fn checkpoint_write(ctx: &Ctx, r: &mut Report, mut state: TrainState) -> SimResult<()> {
    let _s = ctx.rec.span("probe", "jitckpt.checkpoint", "write");
    let bytes = state.encoded_len();
    let write = median_s(3, || write_one(&SharedStore::new(), &state))?;
    r.set("jitckpt.checkpoint.write_mbps", mbps(bytes, write));
    let store = SharedStore::new();
    write_one(&store, &state)?;
    gen::touch_state(&mut state, TOUCH_FRAC);
    write_one(&store, &state)?;
    let meta = checkpoint::read_meta(&store, JobId(0), CkptKind::Jit, state.iteration, 0, 0, 0)?;
    let reused = meta
        .shards
        .iter()
        .filter(|s| s.base_iteration.is_some())
        .count();
    r.set(
        "jitckpt.checkpoint.delta_reuse_frac",
        reused as f64 / meta.shards.len().max(1) as f64,
    );
    Ok(())
}

/// `jitckpt::checkpoint` and `jitckpt::restore` read side
/// (`faults_userlevel` job B): the serial reader, the parallel plane and
/// the assembly scan over one written checkpoint.
fn checkpoint_read(ctx: &Ctx, r: &mut Report, state: &TrainState) -> SimResult<()> {
    let store = SharedStore::new();
    write_one(&store, state)?;
    let bytes = state.encoded_len();
    let it = state.iteration;
    {
        let _s = ctx.rec.span("probe", "jitckpt.checkpoint", "read_serial");
        let serial = median_s(3, || {
            checkpoint::read_checkpoint(&store, JobId(0), CkptKind::Jit, it, 0, 0, 0).map(|_| ())
        })?;
        r.set("jitckpt.checkpoint.read_serial_mbps", mbps(bytes, serial));
        let layout = ParallelLayout::data_parallel(1);
        let assemble = median_s(20, || {
            checkpoint::assemble(&store, JobId(0), &layout).map(|_| ())
        })?;
        r.set("jitckpt.checkpoint.assemble_ms", assemble * 1e3);
    }
    let _s = ctx.rec.span("probe", "jitckpt.restore", "read_parallel");
    let parallel = median_s(3, || {
        read_checkpoint_parallel(
            &store,
            JobId(0),
            CkptKind::Jit,
            it,
            0,
            0,
            0,
            &RestoreConfig::default(),
        )
        .map(|_| ())
    })?;
    r.set("jitckpt.restore.read_parallel_mbps", mbps(bytes, parallel));
    Ok(())
}

/// Patience of the fallback probe's receiver.
const STREAM_PATIENCE: Duration = Duration::from_millis(100);

/// `jitckpt::stream` (`faults_userlevel` job A): the state streamed
/// rank to rank, and the time to get it from the store instead when the
/// sender dies after the preamble.
fn state_stream(ctx: &Ctx, r: &mut Report, state: &TrainState) -> SimResult<()> {
    let _s = ctx.rec.span("probe", "jitckpt.stream", "send_recv");
    let cost = CostModel::v100();
    let shard_bytes = ShardConfig::default().shard_bytes;
    let state = Arc::new(state.clone());
    let transfer = |keep: Option<usize>, patience: Duration| -> SimResult<SimResult<TrainState>> {
        let world = CommWorld::new(Arc::new(ClockBoard::new(WORLD)), cost.clone(), 8);
        let sender = {
            let (world, cost, state) = (world.clone(), cost.clone(), state.clone());
            std::thread::spawn(move || match keep {
                None => stream::send_state(
                    &world,
                    &cost,
                    RankId(0),
                    0,
                    RankId(1),
                    true,
                    &state,
                    shard_bytes,
                ),
                Some(keep) => stream::send_state_truncated(
                    &world,
                    &cost,
                    RankId(0),
                    0,
                    RankId(1),
                    true,
                    &state,
                    shard_bytes,
                    keep,
                ),
            })
        };
        let got = stream::recv_state(&world, &cost, RankId(0), RankId(1), 1, patience);
        sender
            .join()
            .map_err(|_| SimError::Protocol("stream sender panicked".into()))??;
        Ok(got)
    };
    let bytes = state.encoded_len();
    let streamed = median_s(3, || transfer(None, Duration::from_secs(5))?.map(|_| ()))?;
    r.set("jitckpt.stream.send_recv_mbps", mbps(bytes, streamed));
    let store = SharedStore::new();
    write_one(&store, &state)?;
    let fallback = median_s(3, || {
        let (restored, source) = stream::restore_with_fallback(
            || Err(SimError::Protocol("no ledger attached".into())),
            || transfer(Some(1), STREAM_PATIENCE)?,
            || {
                read_checkpoint_parallel(
                    &store,
                    JobId(0),
                    CkptKind::Jit,
                    state.iteration,
                    0,
                    0,
                    0,
                    &RestoreConfig::default(),
                )
                .map(|x| x.0)
            },
        )?;
        if source != stream::RecoverySource::Store || restored.iteration != state.iteration {
            return Err(SimError::Protocol(format!(
                "truncated stream recovered from {source:?}"
            )));
        }
        Ok(())
    })?;
    r.set("jitckpt.stream.fallback_ms", fallback * 1e3);
    Ok(())
}

/// `jitckpt::pipeline` (`coordinator_objstore`): delta generations of
/// the state through a write-behind pool onto the 2 ms object store —
/// how long `submit` holds the caller, and throughput to durability.
fn write_behind(ctx: &Ctx, r: &mut Report, mut state: TrainState) -> SimResult<()> {
    let _s = ctx.rec.span("probe", "jitckpt.pipeline", "write_behind");
    const GENS: usize = 4;
    let store: Arc<dyn StorageBackend> = Arc::new(SimObjectStore::new(objstore_profile(ctx.seed)));
    let pipeline = WriteBehind::new(store.clone(), WriteBehindConfig::default());
    let cfg = ShardConfig::default().auto_sized_for(&state);
    let mut stalls = Vec::new();
    let mut tickets = Vec::new();
    let start = Instant::now();
    for _ in 0..GENS {
        gen::touch_state(&mut state, TOUCH_FRAC);
        let plan = ShardPlan::stage(
            &store,
            JobId(0),
            CkptKind::Periodic,
            RankId(0),
            0,
            0,
            0,
            &state,
            &cfg,
        );
        let t = Instant::now();
        tickets.push(pipeline.submit(&plan, None));
        stalls.push(t.elapsed().as_secs_f64() * 1e3);
    }
    for t in &tickets {
        t.wait()?;
    }
    let total = start.elapsed().as_secs_f64();
    r.set(
        "jitckpt.pipeline.write_behind_mbps",
        mbps(GENS * state.encoded_len(), total),
    );
    r.set(
        "jitckpt.pipeline.submit_stall_ms",
        Summary::of(&stalls).median,
    );
    Ok(())
}

/// One shard-sized put on the simulated object store.
fn objstore_put(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let _s = ctx.rec.span("probe", "coordinator", "objstore_put");
    let store = SimObjectStore::new(objstore_profile(ctx.seed));
    let payload = Bytes::from(vec![7u8; if ctx.smoke { 64 << 10 } else { 4 << 20 }]);
    let mut i = 0;
    let put = median_s(15, || {
        i += 1;
        store.put(&format!("probe/shard{i}"), payload.clone())
    })?;
    r.set("coordinator.objstore.put_ms_p50", put * 1e3);
    Ok(())
}
