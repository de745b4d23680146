//! The five workloads. Each is a closed loop over one job at a time:
//! set up (timed as `setup_s`), run the fault-free twin where there is
//! one, run the workload's fixed work, then check every operation
//! against the twin.

use crate::gen::{self, Incident, Shape, WORLD};
use crate::probes;
use crate::report::{Report, Summary};
use crate::stepper::{self, compare_losses, StepSpec, WARMUP_STEPS};
use crate::trace::Recorder;
use baselines::periodic::{
    blocking_overhead, run_periodic_job, PeriodicConfig, PeriodicOutcome, PolicyKind,
};
use cluster::{Cluster, FailureInjector, Scheduler, SharedStore, StorageBackend};
use coordinator::{
    Coordinator, CoordinatorConfig, JobSession, JobSpec, ObjectStoreProfile, SimObjectStore,
};
use dltrain::{TrainConfig, TrainState};
use jitckpt::checkpoint::{CkptKind, ShardConfig};
use jitckpt::user_level::{run_user_level_job, JitUserConfig, UserLevelOutcome};
use simcore::cost::{CostModel, GpuGeneration, StorageTier};
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::layout::ParallelLayout;
use simcore::{RankId, SimResult};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;

/// `JitUserConfig::watchdog_timeout` and `PeriodicConfig::monitor_timeout`:
/// a constant, not a calibration. Detection is a real-time hang timeout,
/// so it is a fixed floor under `run_wall_s` (`run.detect_wait_s`); a
/// timeout near the step time restarts spuriously and makes virtual
/// time differ between runs.
const DETECT_TIMEOUT: Duration = Duration::from_millis(2000);
const DETECT_TIMEOUT_SMOKE: Duration = Duration::from_millis(300);
/// The timeout must be at least this many of the warm-up's slowest
/// healthy step.
const DETECT_MARGIN: f64 = 4.0;

/// `PcDisk` checkpoint interval of `faults_periodic`, in iterations.
const PERIODIC_EVERY: u64 = 4;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
    pub rec: Arc<Recorder>,
}

impl Ctx {
    /// Whole multiples of the 10 s the sizes below were chosen for.
    fn rounds(&self) -> u64 {
        ((self.seconds / 10.0) as u64).max(1)
    }

    fn detect_timeout(&self) -> Duration {
        if self.smoke {
            DETECT_TIMEOUT_SMOKE
        } else {
            DETECT_TIMEOUT
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// MiB of heap made resident before anything is timed (see
    /// `heap.rs`): a quarter above the workload's `peak_heap_mib`.
    pub heap_mib: usize,
    pub run: fn(&Ctx, &mut Report) -> SimResult<()>,
    /// The layer probes of the traced run.
    pub probes: fn(&Ctx, &mut Report) -> SimResult<()>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady_dp2",
        heap_mib: 750,
        run: steady_dp2,
        probes: probes::steady_dp2,
    },
    Workload {
        name: "faults_transparent",
        heap_mib: 1700,
        run: faults_transparent,
        probes: probes::faults_transparent,
    },
    Workload {
        name: "faults_userlevel",
        heap_mib: 1200,
        run: faults_userlevel,
        probes: probes::faults_userlevel,
    },
    Workload {
        name: "faults_periodic",
        heap_mib: 2300,
        run: faults_periodic,
        probes: probes::faults_periodic,
    },
    Workload {
        name: "coordinator_objstore",
        heap_mib: 2100,
        run: coordinator_objstore,
        probes: probes::coordinator_objstore,
    },
];

/// What `--smoke` sizes need of [`Workload::heap_mib`].
pub const SMOKE_HEAP_MIB: usize = 64;

fn stamp(r: &mut Report, shape: &Shape) {
    r.notes.push(format!(
        "model {} params {} state_bytes_per_rank {} world {WORLD}",
        shape.label(),
        shape.model().param_count(),
        shape.state_bytes()
    ));
}

/// What a proxied rank's hook reads off its client after the last step.
struct ClientCounts {
    log_ops: usize,
    kept_ops: usize,
    image_bytes: usize,
    verified: Option<bool>,
}

fn client_counts(
    _rank: usize,
    tr: &mut dltrain::RankTrainer<proxy::ProxyClient>,
    _b: &Barrier,
) -> SimResult<ClientCounts> {
    Ok(ClientCounts {
        log_ops: tr.exec.replay_log_len(),
        kept_ops: tr.exec.compacted_log_len(),
        image_bytes: tr.exec.worker_cpu_state()?.len(),
        verified: tr.exec.last_verify(),
    })
}

/// Extra set-ups of a proxied job, so `setup_s` is a median. The traced
/// run reports no `setup_s` and skips them.
fn extra_proxy_setups(ctx: &Ctx, cfg: &TrainConfig, setups: &mut Vec<f64>) -> SimResult<()> {
    if ctx.trace {
        return Ok(());
    }
    while setups.len() < SETUP_SAMPLES {
        let spec = StepSpec::fault_free(cfg, 0, "setup");
        let (out, _) = stepper::run_proxy(spec, &ctx.rec, stepper::no_hook)?;
        setups.push(out.setup_s);
    }
    Ok(())
}

fn ms(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| x * 1e3).collect()
}

fn losses_of<X>(out: &stepper::StepOut<X>) -> Vec<Vec<f32>> {
    out.ranks.iter().map(|r| r.losses.clone()).collect()
}

/// Steps in one rep of `steady_dp2`; `run_wall_s` is the median rep.
const STEADY_REP_STEPS: u64 = 10;

/// Fault-free transparent-JIT training: proxy armed, engine attached,
/// nothing ever fails. `simgpu`, `proxy` and `collectives` do all the
/// work; checkpoint, restore, stream and store do none. Recovery
/// optimisations must show no change here.
fn steady_dp2(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let shape = if ctx.smoke { gen::SMOKE } else { gen::STEADY };
    stamp(r, &shape);
    let reps = if ctx.smoke { 2 } else { 6 * ctx.rounds() };
    let steps = reps * STEADY_REP_STEPS;
    r.notes
        .push(format!("reps {reps} of {STEADY_REP_STEPS} steps"));
    let cfg = shape.train_config(ctx.seed);
    let mut setups = Vec::new();
    let spec = StepSpec::fault_free(&cfg, steps, "run");
    let (out, engine) = stepper::run_proxy(spec, &ctx.rec, client_counts)?;
    setups.push(out.setup_s);
    extra_proxy_setups(ctx, &cfg, &mut setups)?;

    r.set_sample("setup_s", &setups);
    let rep_walls: Vec<f64> = out.ranks[0]
        .step_wall_s
        .chunks(STEADY_REP_STEPS as usize)
        .map(|rep| rep.iter().sum())
        .collect();
    r.set_sample("run_wall_s", &rep_walls);
    let steps_ms = ms(&out.ranks[0].step_wall_s);
    r.set_sample("healthy_step_ms", &steps_ms);
    r.set(
        "dltrain.step_wall_ms_p95",
        Summary::quantile(&steps_ms, 0.95),
    );
    r.set("run.virtual_s", out.virtual_s);
    let c = &out.ranks[0].extra;
    r.set("proxy.oplog.ops_per_minibatch", c.log_ops as f64);
    r.set(
        "proxy.oplog.compacted_kept_ratio",
        c.kept_ops as f64 / c.log_ops.max(1) as f64,
    );
    r.set(
        "proxy.oplog.arena_bytes_per_minibatch",
        c.image_bytes as f64,
    );
    r.set("cluster.store.objects", engine.store.object_count() as f64);
    r.set("cluster.store.reads", engine.store.read_count() as f64);

    // Its own twin for timing; for correctness a bare-executor twin of
    // the first iterations must produce the same losses bit for bit.
    let _v = ctx.rec.span("verify", "harness", "direct_twin_prefix");
    let prefix = (WARMUP_STEPS + steps).min(12);
    let twin = stepper::run_direct(
        StepSpec::fault_free(&cfg, prefix - WARMUP_STEPS, "verify"),
        &ctx.rec,
        None,
        stepper::no_hook,
    )?;
    let got: Vec<Vec<f32>> = out
        .ranks
        .iter()
        .map(|k| k.losses[..prefix as usize].to_vec())
        .collect();
    let (n, bad) = compare_losses(&got, &losses_of(&twin));
    r.ops(n, bad);
    let rest: Vec<&f32> = out
        .ranks
        .iter()
        .flat_map(|k| &k.losses[prefix as usize..])
        .collect();
    r.ops(
        rest.len() as u64,
        rest.iter().filter(|l| !l.is_finite()).count() as u64,
    );
    if engine.rounds != 0 {
        r.fail_all(format!(
            "{} spurious recovery rounds on a fault-free run",
            engine.rounds
        ));
    }
    if out.ranks.iter().any(|k| k.extra.verified != Some(true)) {
        r.fail_all("replay-log verification did not pass during warm-up".into());
    }
    Ok(())
}

/// Wall seconds rank 0 lost to each incident: the step that absorbed
/// the fault and the one after it (which pays in roll-forward, and for
/// a cold replacement device), each less a healthy step.
fn incident_costs(incidents: &[Incident], wall0: &[f64], healthy_s: f64) -> Vec<f64> {
    incidents
        .iter()
        .map(|inc| {
            let k = (inc.spec.iteration - WARMUP_STEPS) as usize;
            wall0[k] + wall0[k + 1] - 2.0 * healthy_s
        })
        .collect()
}

/// The same transparent path at the large shape, one incident of each
/// of §4's classes (a)–(e) per round. Oplog replay, communicator
/// rebuild, replica sync, host round trip and the CRIU/store leg
/// dominate; the checkpoint codec is idle.
fn faults_transparent(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let shape = if ctx.smoke { gen::SMOKE } else { gen::LARGE };
    stamp(r, &shape);
    let (rounds, take) = if ctx.smoke { (1, 2) } else { (ctx.rounds(), 5) };
    let incidents = gen::transparent_schedule(ctx.seed, rounds, take);
    let steps = gen::transparent_steps(incidents.len());
    let cfg = shape.train_config(ctx.seed);
    r.notes.push(format!(
        "incidents {}",
        incidents
            .iter()
            .map(|i| format!(
                "{}@it{}/r{}",
                i.class,
                i.spec.iteration,
                i.spec.rank.index()
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let twin_spec = StepSpec::fault_free(&cfg, steps, "twin");
    let (twin, twin_engine) = stepper::run_proxy(twin_spec, &ctx.rec, stepper::no_hook)?;
    let run_spec = StepSpec {
        faults: incidents.iter().map(|i| i.spec).collect(),
        ..StepSpec::fault_free(&cfg, steps, "run")
    };
    let (out, engine) = stepper::run_proxy(run_spec, &ctx.rec, stepper::no_hook)?;
    let mut setups = vec![twin.setup_s, out.setup_s];
    extra_proxy_setups(ctx, &cfg, &mut setups)?;

    r.set_sample("setup_s", &setups);
    r.set("run_wall_s", out.run_wall_s);
    let healthy_ms = ms(&twin.ranks[0].step_wall_s);
    r.set_sample("healthy_step_ms", &healthy_ms);
    r.set(
        "dltrain.step_wall_ms_p95",
        Summary::quantile(&healthy_ms, 0.95),
    );
    r.set("run.virtual_s", out.virtual_s);
    r.set(
        "incident.recovery_virtual_s",
        out.virtual_s - twin.virtual_s,
    );
    r.set("incident.count", incidents.len() as f64);
    r.set("cluster.store.objects", engine.store.object_count() as f64);
    r.set("cluster.store.reads", engine.store.read_count() as f64);
    let healthy_s = Summary::of(&twin.ranks[0].step_wall_s).median;
    let costs = incident_costs(&incidents, &out.ranks[0].step_wall_s, healthy_s);
    r.set("incident.recovery_wall_s", costs.iter().sum());

    // Rounds run one after another and every rank reports once per
    // round, so reports chunk by round in schedule order.
    let recovered =
        engine.rounds == incidents.len() as u64 && engine.reports.len() == incidents.len() * WORLD;
    if recovered {
        let victim_virtual: Vec<f64> = engine
            .reports
            .chunks(WORLD)
            .map(|round| {
                round
                    .iter()
                    .filter(|rep| rep.was_victim)
                    .map(|rep| rep.total.as_secs())
                    .fold(0.0, f64::max)
            })
            .collect();
        for (class, _, _) in gen::CLASSES {
            let median_of_class = |xs: &[f64]| -> f64 {
                let mine: Vec<f64> = incidents
                    .iter()
                    .zip(xs)
                    .filter(|(i, _)| i.class == class)
                    .map(|(_, x)| *x)
                    .collect();
                Summary::of(&mine).median
            };
            r.set(
                &format!("jitckpt.transparent.incident_wall_ms.{class}"),
                median_of_class(&ms(&costs)),
            );
            r.set(
                &format!("jitckpt.transparent.victim_virtual_s.{class}"),
                median_of_class(&victim_virtual),
            );
        }
    }

    let (n, bad) = compare_losses(&losses_of(&out), &losses_of(&twin));
    r.ops(n, bad);
    r.ops(incidents.len() as u64, 0);
    if !recovered {
        r.fail_all(format!(
            "{} recovery rounds and {} reports for {} scheduled incidents",
            engine.rounds,
            engine.reports.len(),
            incidents.len()
        ));
    }
    if twin_engine.rounds != 0 {
        r.fail_all("the fault-free twin ran a recovery round".into());
    }
    Ok(())
}

fn scheduler() -> Arc<Scheduler> {
    Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)))
}

/// Healthy steps after the warm-up in each set-up of a job-runner
/// workload.
const RUNNER_SETUP_STEPS: u64 = 4;

/// Set-up of a job-runner workload: a warm-up rep on bare executors at
/// the workload's shape. The runners time nothing themselves, so its
/// steps are also where `healthy_step_ms` comes from, and its slowest
/// step is what the detection timeout is checked against. Repeated so
/// `setup_s` is a median; the slowest step is the median over the
/// repeats too, so that the check catches a timeout set too near the step
/// time and not one hiccup of the host.
fn runner_setups(ctx: &Ctx, cfg: &TrainConfig, r: &mut Report) -> SimResult<()> {
    let samples = if ctx.trace { 1 } else { SETUP_SAMPLES };
    let mut setups = Vec::new();
    let mut slowest = Vec::new();
    let mut healthy_ms = Vec::new();
    for _ in 0..samples {
        let out = stepper::run_direct(
            StepSpec::fault_free(cfg, RUNNER_SETUP_STEPS, "setup"),
            &ctx.rec,
            None,
            stepper::no_hook,
        )?;
        // The post-barrier steps belong to the warm-up rep too.
        setups.push(out.setup_s + out.run_wall_s);
        healthy_ms.extend(ms(&out.ranks[0].step_wall_s));
        slowest.push(
            out.ranks
                .iter()
                .flat_map(|k| k.warmup_wall_s.iter().chain(&k.step_wall_s))
                .fold(0.0, |a: f64, b| a.max(*b)),
        );
    }
    r.set_sample("setup_s", &setups);
    r.set_sample("healthy_step_ms", &healthy_ms);
    let slowest = Summary::of(&slowest).median;
    let timeout = ctx.detect_timeout().as_secs_f64();
    r.notes.push(format!(
        "detect_timeout_s {timeout} slowest_warmup_step_s {slowest:.4}"
    ));
    if timeout < DETECT_MARGIN * slowest {
        r.fail_all(format!(
            "detection timeout {timeout} s is under {DETECT_MARGIN}x the slowest warm-up step {slowest:.3} s"
        ));
    }
    Ok(())
}

/// Objects, reads and stored bytes a job left in its store.
fn store_counts(r: &mut Report, stores: &[&SharedStore], state_bytes: u64) {
    let objects: usize = stores.iter().map(|s| s.len()).sum();
    let reads: u64 = stores.iter().map(|s| s.read_count()).sum();
    let bytes: usize = stores
        .iter()
        .flat_map(|s| s.list("").into_iter().map(|p| s.size_of(p).unwrap_or(0)))
        .sum();
    r.set("cluster.store.objects", objects as f64);
    r.set("cluster.store.reads", reads as f64);
    r.set(
        "cluster.store.bytes_per_state_byte",
        bytes as f64 / state_bytes as f64,
    );
}

/// One call of a job runner: its outcome, how long it took and the
/// store it wrote to.
struct RunnerJob<O> {
    out: O,
    wall_s: f64,
    store: Arc<SharedStore>,
}

fn user_job(
    ctx: &Ctx,
    cfg: &TrainConfig,
    faults: Vec<FailureSpec>,
    stream_recovery: bool,
    iters: u64,
    phase: &'static str,
) -> SimResult<RunnerJob<UserLevelOutcome>> {
    let store = Arc::new(SharedStore::new());
    let jit = JitUserConfig {
        watchdog_timeout: ctx.detect_timeout(),
        stream_recovery,
        ..JitUserConfig::default()
    };
    let _s = ctx
        .rec
        .span(phase, "jitckpt.user_level", "run_user_level_job");
    let t = Instant::now();
    let out = run_user_level_job(
        cfg.clone(),
        CostModel::v100(),
        FailureInjector::with_specs(faults),
        scheduler(),
        store.clone(),
        jit,
        iters,
    )?;
    Ok(RunnerJob {
        out,
        wall_s: t.elapsed().as_secs_f64(),
        store,
    })
}

/// User-level JIT through `run_user_level_job` at the state-heavy
/// shape: job A recovers over the streamed-replica leg, job B over the
/// store and the parallel restore plane. Few writes, restore-heavy:
/// checkpoint write on failure, scheduler quorum and reschedule,
/// `stream`, `restore`.
fn faults_userlevel(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let shape = if ctx.smoke {
        gen::SMOKE
    } else {
        gen::STATE_HEAVY
    };
    stamp(r, &shape);
    let iters = if ctx.smoke { 6 } else { 8 * ctx.rounds() };
    let cfg = shape.train_config(ctx.seed);
    runner_setups(ctx, &cfg, r)?;
    // One incident per job for every 10 s of budget, two at most: job A
    // meets a hardware failure first, job B a sticky CUDA error.
    let per_job = ctx.rounds().min(2) as usize;
    let hard = (FailureKind::GpuHardware, Phase::Forward);
    let sticky = (FailureKind::StickyCuda, Phase::Backward);
    let twin = user_job(ctx, &cfg, Vec::new(), true, iters, "twin")?;
    let mut jobs = Vec::new();
    for (label, stream_recovery, kinds, rng_stream) in [
        ("A (streamed replica)", true, [hard, sticky], 0xA),
        ("B (store + parallel restore)", false, [sticky, hard], 0xB),
    ] {
        let faults = gen::runner_schedule(ctx.seed, rng_stream, iters, 1, 0, &kinds[..per_job]);
        jobs.push((
            user_job(ctx, &cfg, faults, stream_recovery, iters, "run")?,
            label,
        ));
    }
    let incidents = per_job * jobs.len();
    r.notes.push(format!(
        "wall_s twin {:.3} job A {:.3} job B {:.3}",
        twin.wall_s, jobs[0].0.wall_s, jobs[1].0.wall_s
    ));

    let run_wall: f64 = jobs.iter().map(|(j, _)| j.wall_s).sum();
    r.set("run_wall_s", run_wall);
    r.set(
        "incident.recovery_wall_s",
        run_wall - jobs.len() as f64 * twin.wall_s,
    );
    r.set("incident.count", incidents as f64);
    r.set(
        "run.detect_wait_s",
        incidents as f64 * ctx.detect_timeout().as_secs_f64(),
    );
    // Virtual cost of an incident: the slowest rank's JIT checkpoint
    // plus the slowest rank's restore (Table 4), grouped by the
    // iteration the incident struck.
    let mut ckpt = Vec::new();
    let mut restore = Vec::new();
    let mut recovery_virtual = 0.0;
    for (job, _) in &jobs {
        let mut by_iter = std::collections::BTreeMap::<u64, (f64, f64)>::new();
        for e in &job.out.events {
            let slot = by_iter.entry(e.iteration).or_default();
            slot.0 = slot.0.max(e.checkpoint_time.as_secs());
            slot.1 = slot.1.max(e.restore_time.as_secs());
            if e.checkpoint_time.as_secs() > 0.0 {
                ckpt.push(e.checkpoint_time.as_secs());
            }
            if e.restore_time.as_secs() > 0.0 {
                restore.push(e.restore_time.as_secs());
            }
        }
        recovery_virtual += by_iter.values().map(|(c, s)| c + s).sum::<f64>();
    }
    r.set("incident.recovery_virtual_s", recovery_virtual);
    r.set(
        "jitckpt.user_level.ckpt_virtual_s",
        Summary::of(&ckpt).median,
    );
    r.set(
        "jitckpt.user_level.restore_virtual_s",
        Summary::of(&restore).median,
    );
    store_counts(
        r,
        &[&jobs[0].0.store, &jobs[1].0.store],
        shape.state_bytes(),
    );

    for (job, label) in &jobs {
        let (n, bad) = compare_losses(&job.out.losses, &twin.out.losses);
        r.ops(n, bad);
        r.ops(per_job as u64, 0);
        if job.out.restarts as usize != per_job {
            r.fail_all(format!(
                "job {label}: {} restarts for {per_job} scheduled incidents",
                job.out.restarts
            ));
        }
    }
    if twin.out.restarts != 0 {
        r.fail_all("the fault-free twin restarted".into());
    }
    Ok(())
}

fn periodic_job(
    ctx: &Ctx,
    cfg: &TrainConfig,
    faults: Vec<FailureSpec>,
    iters: u64,
    phase: &'static str,
) -> SimResult<RunnerJob<PeriodicOutcome>> {
    let store = Arc::new(SharedStore::new());
    let pcfg = PeriodicConfig {
        monitor_timeout: ctx.detect_timeout(),
        ..PeriodicConfig::every(PolicyKind::PcDisk, PERIODIC_EVERY)
    };
    let _s = ctx.rec.span(phase, "baselines", "run_periodic_job");
    let t = Instant::now();
    let out = run_periodic_job(
        cfg.clone(),
        CostModel::v100(),
        FailureInjector::with_specs(faults),
        scheduler(),
        store.clone(),
        pcfg,
        iters,
    )?;
    Ok(RunnerJob {
        out,
        wall_s: t.elapsed().as_secs_f64(),
        store,
    })
}

/// `PcDisk` every 4 iterations through `run_periodic_job`, two
/// `GpuHardware` incidents: the write-heavy use of the checkpoint,
/// codec and store layers `faults_userlevel` uses read-heavily — many
/// generations written, one read per restart, iterations re-executed.
/// Iterations are capped so retained generations keep `peak_heap_mib`
/// under 2 GiB.
fn faults_periodic(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let shape = if ctx.smoke {
        gen::SMOKE
    } else {
        gen::STATE_HEAVY
    };
    stamp(r, &shape);
    let iters = 12 * ctx.rounds().min(2);
    let cfg = shape.train_config(ctx.seed);
    runner_setups(ctx, &cfg, r)?;
    let kinds = [(FailureKind::GpuHardware, Phase::Backward); 2];
    // Two iterations past a checkpoint, so each restart re-executes two.
    let faults = gen::runner_schedule(ctx.seed, 0xC, iters, PERIODIC_EVERY, 2, &kinds);
    let mut twin = periodic_job(ctx, &cfg, Vec::new(), iters, "twin")?;
    // Its generations are not needed again; free them before the run.
    twin.store = Arc::new(SharedStore::new());
    let job = periodic_job(ctx, &cfg, faults, iters, "run")?;

    r.notes.push(format!(
        "wall_s twin {:.3} job {:.3}",
        twin.wall_s, job.wall_s
    ));
    r.set("run_wall_s", job.wall_s);
    r.set("incident.recovery_wall_s", job.wall_s - twin.wall_s);
    r.set("incident.count", 2.0);
    r.set(
        "run.detect_wait_s",
        2.0 * ctx.detect_timeout().as_secs_f64(),
    );
    // The runner restarts its clocks with every generation, so the
    // virtual cost of the incidents is rebuilt from its outcome and the
    // cost model: restart and checkpoint read per restart, plus the
    // twin's virtual time per iteration for every re-executed one.
    let cost = CostModel::v100();
    let twin_virtual = twin
        .out
        .finish_times
        .iter()
        .map(|t| t.as_secs())
        .fold(0.0, f64::max);
    let per_restart = cost.process_restart.as_secs()
        + cost
            .checkpoint_read(shape.state_bytes(), StorageTier::Disk, cfg.ranks_per_node)
            .as_secs();
    let recovery_virtual = job.out.restarts as f64 * per_restart
        + job.out.wasted_iterations as f64 * twin_virtual / iters as f64;
    r.set("incident.recovery_virtual_s", recovery_virtual);
    r.set("run.virtual_s", twin_virtual + recovery_virtual);
    let stall = blocking_overhead(
        PolicyKind::PcDisk,
        shape.state_bytes(),
        &cost,
        cfg.ranks_per_node,
    );
    r.set(
        "baselines.periodic.ckpt_stall_virtual_s",
        stall.as_secs() * (job.out.checkpoints_written / WORLD as u64) as f64,
    );
    r.set(
        "baselines.periodic.wasted_iterations",
        job.out.wasted_iterations as f64,
    );
    r.set(
        "baselines.periodic.checkpoints_written",
        job.out.checkpoints_written as f64,
    );
    store_counts(r, &[&job.store], shape.state_bytes());

    let (n, bad) = compare_losses(&job.out.losses, &twin.out.losses);
    r.ops(n, bad);
    r.ops(2, 0);
    if job.out.restarts != 2 {
        r.fail_all(format!(
            "{} restarts for 2 scheduled incidents",
            job.out.restarts
        ));
    }
    if twin.out.restarts != 0 {
        r.fail_all("the fault-free twin restarted".into());
    }
    Ok(())
}

/// The object-store profile of `coordinator_objstore`: 2 ms on both
/// verbs, so persistence and restore are latency-bound.
pub fn objstore_profile(seed: u64) -> ObjectStoreProfile {
    ObjectStoreProfile {
        put_latency: Duration::from_millis(2),
        get_latency: Duration::from_millis(2),
        bytes_per_sec: 1_000_000_000,
        parallel_streams: 8,
        put_loss_per_mille: 0,
        seed,
    }
}

/// Share of the optimizer moments each synthetic step rewrites.
pub const TOUCH_FRAC: f64 = 1.0;
const COORD_JOBS: usize = 2;
/// Generations per rep of `coordinator_objstore`. The delta chain is
/// capped one short of it, so every rep writes one full generation and
/// the rest as deltas, restores through a chain, and collects the rep
/// before: the reps are alike and `run_wall_s` can be their median.
const COORD_GENS_PER_REP: u32 = 3;

/// One coordinator set-up: seeded states, an empty object store, two
/// admitted jobs, and generation 0 written in full and drained so the
/// timed generations are delta-chained onto a populated store.
struct CoordSetup {
    sessions: Vec<Arc<JobSession>>,
    /// `states[rank][job]`: rank k of every job lives on rank thread k.
    states: Vec<Vec<TrainState>>,
    backend: Arc<dyn StorageBackend>,
}

fn coordinator_setup(ctx: &Ctx, state_bytes: usize) -> SimResult<CoordSetup> {
    let states: Vec<Vec<TrainState>> = {
        let _s = ctx.rec.span("setup", "harness", "synthetic_states");
        // Data-parallel replicas hold the same state; restore may serve
        // a rank from any replica of its cell.
        let per_job: Vec<TrainState> = (0..COORD_JOBS)
            .map(|j| gen::synthetic_state(state_bytes, ctx.seed ^ j as u64))
            .collect();
        vec![per_job; WORLD]
    };
    let _s = ctx.rec.span("setup", "coordinator", "admit+populate");
    let coord = Coordinator::over_object_store(
        SimObjectStore::new(objstore_profile(ctx.seed)),
        CoordinatorConfig::default(),
    );
    let sessions: Vec<Arc<JobSession>> = (0..COORD_JOBS)
        .map(|_| {
            coord.admit(JobSpec {
                ranks: WORLD,
                shards: ShardConfig {
                    max_delta_chain: COORD_GENS_PER_REP - 1,
                    ..ShardConfig::default()
                },
                keep_checkpoints: 1,
                inflight_budget_bytes: 256 << 20,
            })
        })
        .collect();
    for (k, mine) in states.iter().enumerate() {
        for (session, state) in sessions.iter().zip(mine) {
            session.submit_checkpoint(CkptKind::Periodic, RankId(k as u32), 0, 0, k, state);
        }
    }
    for session in &sessions {
        session.drain()?;
    }
    Ok(CoordSetup {
        sessions,
        states,
        backend: coord.backend().clone(),
    })
}

/// No trainer: two jobs × two ranks push delta-chained generations of a
/// synthetic 64 MiB state through the coordinator's write-behind
/// pipeline onto the 2 ms object store, drain, restore every
/// (job, rank), collect garbage and compare checksums, rep after rep.
/// `pipeline`, the `restore` fan-out, `MetaCache` and the coordinator
/// dominate; `simgpu`, `proxy` and `collectives` do nothing.
fn coordinator_objstore(ctx: &Ctx, r: &mut Report) -> SimResult<()> {
    let state_bytes = if ctx.smoke { 1 << 20 } else { 64 << 20 };
    let reps = if ctx.smoke { 2 } else { 5 * ctx.rounds() };
    r.notes.push(format!(
        "synthetic state_bytes_per_rank {state_bytes} jobs {COORD_JOBS} world {WORLD} reps {reps} of {COORD_GENS_PER_REP} generations"
    ));
    let mut setups = Vec::new();
    let mut setup = None;
    for _ in 0..if ctx.trace { 1 } else { SETUP_SAMPLES } {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(coordinator_setup(ctx, state_bytes)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    r.set_sample("setup_s", &setups);
    let CoordSetup {
        sessions,
        states,
        backend,
    } = setup.expect("at least one set-up ran");
    let lists_before = backend.list_count();
    let layout = ParallelLayout::data_parallel(WORLD);
    // Handed to the rank threads of each rep and back.
    let states = Arc::new(Mutex::new(states));

    let (mut rep_s, mut persist_s, mut restore_s, mut gc_ms) = (vec![], vec![], vec![], vec![]);
    let mut generation_ms = Vec::new();
    for _ in 0..reps {
        let rep_start = Instant::now();
        let submitted = {
            let (sessions, states, rec) = (sessions.clone(), states.clone(), ctx.rec.clone());
            dltrain::run_ranks(WORLD, move |k| {
                let mut mine = std::mem::take(&mut states.lock().expect("state hand-off lock")[k]);
                let mut walls = Vec::new();
                for _ in 0..COORD_GENS_PER_REP {
                    let t = Instant::now();
                    for (session, state) in sessions.iter().zip(mine.iter_mut()) {
                        {
                            let _s = rec.span("run", "harness", "touch_state");
                            gen::touch_state(state, TOUCH_FRAC);
                        }
                        let _s = rec.span("run", "coordinator", "submit_checkpoint");
                        session.submit_checkpoint(
                            CkptKind::Periodic,
                            RankId(k as u32),
                            0,
                            0,
                            k,
                            state,
                        );
                    }
                    walls.push(t.elapsed().as_secs_f64() * 1e3);
                }
                states.lock().expect("state hand-off lock")[k] = mine;
                Ok(walls)
            })
        };
        let submitted = submitted.into_iter().collect::<SimResult<Vec<_>>>()?;
        generation_ms.extend_from_slice(&submitted[0]);
        let mut drained = 0;
        {
            let _s = ctx.rec.span("run", "coordinator", "drain");
            for s in &sessions {
                match s.drain() {
                    Ok(()) => drained += 1,
                    Err(e) => r.fail_all(stepper::describe(&e)),
                }
            }
        }
        persist_s.push(rep_start.elapsed().as_secs_f64());

        let restore_start = Instant::now();
        let restored = {
            let (sessions, rec) = (sessions.clone(), ctx.rec.clone());
            dltrain::run_ranks(WORLD, move |k| {
                sessions
                    .iter()
                    .map(|s| {
                        let _s = rec.span("run", "coordinator", "restore_for_rank");
                        s.restore_for_rank(&layout, RankId(k as u32)).map(|x| x.0)
                    })
                    .collect::<SimResult<Vec<TrainState>>>()
            })
        };
        let restored = restored.into_iter().collect::<SimResult<Vec<_>>>()?;
        restore_s.push(restore_start.elapsed().as_secs_f64());

        let gc_start = Instant::now();
        {
            let _s = ctx.rec.span("run", "coordinator", "gc");
            for s in &sessions {
                s.gc(CkptKind::Periodic);
            }
        }
        gc_ms.push(gc_start.elapsed().as_secs_f64() * 1e3);
        rep_s.push(rep_start.elapsed().as_secs_f64());

        let _v = ctx.rec.span("verify", "harness", "checksums");
        r.ops(COORD_JOBS as u64, (COORD_JOBS - drained) as u64);
        // Replicas hold the same state, so one checksum per job serves
        // every rank (a checksum encodes the state: 130 ms each).
        let want: Vec<u64> = states.lock().expect("state hand-off lock")[0]
            .iter()
            .map(TrainState::checksum)
            .collect();
        for got in &restored {
            for (w, g) in want.iter().zip(got) {
                r.ops(1, (*w != g.checksum()) as u64);
            }
        }
    }

    r.set_sample("run_wall_s", &rep_s);
    r.set_sample("healthy_step_ms", &generation_ms);
    r.set_sample("coordinator.persist_wall_s", &persist_s);
    r.set_sample("coordinator.restore_wall_s", &restore_s);
    r.set_sample("coordinator.gc_ms", &gc_ms);
    r.set(
        "coordinator.meta_cache.list_calls",
        (backend.list_count() - lists_before) as f64,
    );
    r.set("cluster.store.objects", backend.object_count() as f64);
    r.set("cluster.store.reads", backend.read_count() as f64);
    Ok(())
}
