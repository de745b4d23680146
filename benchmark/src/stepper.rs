//! Drives a data-parallel job one `train_step` at a time so each step
//! can be timed — what `jitckpt::transparent::run_transparent_job_with`
//! does in one call, spelled out over the same `pub` items.
//!
//! One thread per rank and none besides: every rank builds its
//! executor and trainer, runs the untimed warm-up steps, meets the
//! others at a barrier, then runs the timed steps.

use crate::trace::Recorder;
use cluster::{FailureInjector, SharedStore};
use collectives::{CollectiveObserver, CommWorld};
use dltrain::{JobSetup, RankTrainer, TrainConfig};
use jitckpt::transparent::{RecoveryReport, TransparentEngine};
use proxy::{DirectExecutor, Executor, ProxyClient};
use simcore::cost::CostModel;
use simcore::failure::FailureSpec;
use simcore::{GpuId, RankId, SimError, SimResult};
use simgpu::Gpu;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Iteration at which the proxy's one-time replay-log verification
/// (§4.1; the library default is the 5th minibatch) runs. Placed inside
/// the warm-up so the timed steps are all steady-state steps.
pub const VERIFY_AT: u64 = 1;

/// Untimed iterations before the barrier: first-touch page faults,
/// allocator growth and the replay-log verification.
pub const WARMUP_STEPS: u64 = 2;

pub struct StepSpec {
    pub cfg: TrainConfig,
    pub faults: Vec<FailureSpec>,
    /// Timed iterations after [`WARMUP_STEPS`] untimed ones.
    pub steps: u64,
    /// Span run label of the timed part (`twin`, `run`, `probe`).
    pub phase: &'static str,
}

impl StepSpec {
    /// `steps` timed iterations of `cfg` on which nothing fails.
    pub fn fault_free(cfg: &TrainConfig, steps: u64, phase: &'static str) -> StepSpec {
        StepSpec {
            cfg: cfg.clone(),
            faults: Vec::new(),
            steps,
            phase,
        }
    }
}

/// The hook of a caller that wants nothing from the live trainer.
pub fn no_hook<E: Executor>(_rank: usize, _tr: &mut RankTrainer<E>, _b: &Barrier) -> SimResult<()> {
    Ok(())
}

pub struct RankOut<X> {
    /// Loss of every iteration, warm-up included.
    pub losses: Vec<f32>,
    /// Wall seconds of each warm-up iteration.
    pub warmup_wall_s: Vec<f64>,
    /// Wall seconds of each timed iteration.
    pub step_wall_s: Vec<f64>,
    setup_s: f64,
    run_s: f64,
    /// What the caller's hook returned on this rank.
    pub extra: X,
}

pub struct StepOut<X> {
    pub ranks: Vec<RankOut<X>>,
    /// Job construction, model init and warm-up, slowest rank.
    pub setup_s: f64,
    /// Barrier to last timed step, slowest rank.
    pub run_wall_s: f64,
    /// Virtual clock of the slowest rank after the last iteration.
    pub virtual_s: f64,
}

/// Runs `spec` with one executor per rank from `make_exec`; `hook` runs
/// on every rank after its last timed step (probes use it to reach the
/// live trainer).
fn run_steps<E, X, M, H>(
    spec: StepSpec,
    rec: &Arc<Recorder>,
    cost: &CostModel,
    setup: &JobSetup,
    start: Instant,
    make_exec: M,
    hook: H,
) -> SimResult<StepOut<X>>
where
    E: Executor + 'static,
    X: Send + 'static,
    M: Fn(usize, Gpu, Arc<CommWorld>) -> SimResult<E> + Send + Sync + 'static,
    H: Fn(usize, &mut RankTrainer<E>, &Barrier) -> SimResult<X> + Send + Sync + 'static,
{
    let n = spec.cfg.layout.world_size();
    let injector = FailureInjector::with_specs(spec.faults.clone());
    let barrier = Arc::new(Barrier::new(n));
    let world = setup.world.clone();
    let per_rank = setup.per_rank.clone();
    let clock = setup.clock.clone();
    let rec = rec.clone();
    let cost = cost.clone();
    let phase = spec.phase;
    let cfg = spec.cfg.clone();
    let steps = spec.steps;
    let results = dltrain::run_ranks(n, move |i| {
        let gpu = {
            let _s = rec.span("setup", "simgpu", "Gpu::new");
            Gpu::new(GpuId(i as u32), cost.clone())
        };
        let exec = make_exec(i, gpu, world.clone())?;
        let mut tr = {
            let _s = rec.span("setup", "dltrain", "RankTrainer::new");
            RankTrainer::new(exec, cfg.clone(), &per_rank[i], injector.clone())?
        };
        let mut losses = Vec::with_capacity((WARMUP_STEPS + steps) as usize);
        let mut timed = |tr: &mut RankTrainer<E>, run: &'static str| -> SimResult<f64> {
            let _s = rec.span(run, "dltrain", "train_step");
            let t = Instant::now();
            let loss = tr.train_step()?;
            losses.push(loss.unwrap_or(f32::NAN));
            Ok(t.elapsed().as_secs_f64())
        };
        let mut warmup_wall_s = Vec::new();
        for _ in 0..WARMUP_STEPS {
            warmup_wall_s.push(timed(&mut tr, "setup")?);
        }
        barrier.wait();
        let run_start = Instant::now();
        let mut step_wall_s = Vec::with_capacity(steps as usize);
        for _ in 0..steps {
            step_wall_s.push(timed(&mut tr, phase)?);
        }
        let run_s = run_start.elapsed().as_secs_f64();
        let extra = hook(i, &mut tr, &barrier)?;
        Ok(RankOut {
            losses,
            warmup_wall_s,
            step_wall_s,
            setup_s: (run_start - start).as_secs_f64(),
            run_s,
            extra,
        })
    });
    let ranks = results.into_iter().collect::<SimResult<Vec<_>>>()?;
    Ok(StepOut {
        setup_s: ranks.iter().map(|r| r.setup_s).fold(0.0, f64::max),
        run_wall_s: ranks.iter().map(|r| r.run_s).fold(0.0, f64::max),
        virtual_s: (0..n).map(|i| clock.now(i).as_secs()).fold(0.0, f64::max),
        ranks,
    })
}

fn build_setup(cfg: &TrainConfig, cost: &CostModel, rec: &Recorder) -> JobSetup {
    let _s = rec.span("setup", "dltrain", "JobSetup::build");
    JobSetup::build(cfg.layout, cost.clone(), cfg.ranks_per_node)
}

/// What the transparent engine saw during a proxied job.
pub struct EngineOut {
    pub rounds: u64,
    pub reports: Vec<RecoveryReport>,
    /// The store the engine's hard-error path writes buffer files to.
    pub store: Arc<SharedStore>,
}

/// Transparent-JIT job: every rank trains through a `ProxyClient` with
/// the `TransparentEngine` attached and its watchdog armed.
pub fn run_proxy<X, H>(
    spec: StepSpec,
    rec: &Arc<Recorder>,
    hook: H,
) -> SimResult<(StepOut<X>, EngineOut)>
where
    X: Send + 'static,
    H: Fn(usize, &mut RankTrainer<ProxyClient>, &Barrier) -> SimResult<X> + Send + Sync + 'static,
{
    let start = Instant::now();
    let cost = CostModel::v100();
    let setup = build_setup(&spec.cfg, &cost, rec);
    let store = Arc::new(SharedStore::new());
    let engine = {
        let _s = rec.span("setup", "jitckpt.transparent", "TransparentEngine::new");
        TransparentEngine::new(
            spec.cfg.layout,
            setup.world.clone(),
            store.clone(),
            TransparentEngine::counter_gpu_allocator(10_000, cost.clone()),
        )
    };
    let attach = engine.clone();
    let rec2 = rec.clone();
    let out = run_steps(
        spec,
        rec,
        &cost,
        &setup,
        start,
        move |i, gpu, world| {
            let mut client = {
                let _s = rec2.span("setup", "proxy", "ProxyClient::new");
                ProxyClient::new(RankId(i as u32), i, gpu, world)
            };
            client.set_verify_schedule(Some(VERIFY_AT), None);
            let _s = rec2.span("setup", "jitckpt.transparent", "TransparentEngine::attach");
            attach.attach(&mut client)?;
            Ok(client)
        },
        hook,
    )?;
    let engine_out = EngineOut {
        rounds: engine.rounds(),
        reports: engine.reports(),
        store,
    };
    Ok((out, engine_out))
}

/// The same job on bare `DirectExecutor`s: no interception, no engine.
/// `observer`, if any, sees every rank's collectives.
pub fn run_direct<X, H>(
    spec: StepSpec,
    rec: &Arc<Recorder>,
    observer: Option<Arc<dyn CollectiveObserver>>,
    hook: H,
) -> SimResult<StepOut<X>>
where
    X: Send + 'static,
    H: Fn(usize, &mut RankTrainer<DirectExecutor>, &Barrier) -> SimResult<X>
        + Send
        + Sync
        + 'static,
{
    let start = Instant::now();
    let cost = CostModel::v100();
    let setup = build_setup(&spec.cfg, &cost, rec);
    let rec2 = rec.clone();
    run_steps(
        spec,
        rec,
        &cost,
        &setup,
        start,
        move |i, gpu, world| {
            let _s = rec2.span("setup", "proxy", "DirectExecutor::new");
            let mut exec = DirectExecutor::new(RankId(i as u32), i, gpu, world);
            if let Some(obs) = &observer {
                exec.set_observer(obs.clone());
            }
            Ok(exec)
        },
        hook,
    )
}

/// Compares two per-rank loss trajectories bit for bit; returns
/// (compared, mismatched).
pub fn compare_losses(got: &[Vec<f32>], want: &[Vec<f32>]) -> (u64, u64) {
    let mut n = 0;
    let mut bad = 0;
    for (g, w) in got.iter().zip(want) {
        for k in 0..g.len().max(w.len()) {
            n += 1;
            let same = match (g.get(k), w.get(k)) {
                (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                _ => false,
            };
            if !same {
                bad += 1;
            }
        }
    }
    if got.len() != want.len() {
        let extra = got.len().abs_diff(want.len()) as u64;
        n += extra;
        bad += extra;
    }
    (n, bad)
}

/// Turns an error from a job into the "typed error fails every op"
/// rule: the caller records it and reports no metrics for the job.
pub fn describe(e: &SimError) -> String {
    format!("typed error: {e}")
}
