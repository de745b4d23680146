//! What a transparent recovery round of §4.2 costs in memory beside the
//! healthy step it interrupts.
//!
//! A sticky-error victim (classes (c) and (d)) restarts and copies its
//! state from a healthy data-parallel replica. The copy moves the root's
//! persistent buffers one at a time, so a round holds at most one of them
//! beyond what a fault-free step holds. After a class (d) round the healthy
//! rank is already a minibatch ahead; the rebuilt communicator carries its
//! commit floor over, so the victim's next minibatch holds no result of the
//! one before it. The library's own runner, `run_job` under
//! `Policy::Transparent`, is held to the same bound: each rank thread owns
//! its first communicators, so they go once a round replaces them.
//!
//! A counting global allocator tracks the bytes held in blocks of 64 KiB
//! or more, and their peak, so this is the only test in its binary: a
//! second test running beside it would move the count.

use cluster::{FailureInjector, SharedStore};
use collectives::CommWorld;
use dltrain::{JobComms, JobSetup, ModelConfig, OptimizerKind, RankTrainer, TrainConfig};
use jitckpt::transparent::TransparentEngine;
use jitckpt::{run_job, Policy};
use proxy::ProxyClient;
use simcore::cost::CostModel;
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::layout::ParallelLayout;
use simcore::{GpuId, RankId, SimError, SimResult};
use simgpu::Gpu;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

/// Smaller blocks are the harness's, the activations' at batch 1 and the
/// biases'.
const COUNTED_FROM: usize = 64 << 10;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The peak of a job's round window, set when the victim begins the
/// minibatch after its fault.
static ROUND_PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// The system allocator, counting the bytes live in large blocks and
/// their high-water mark.
struct Counted;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counted {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && layout.size() >= COUNTED_FROM {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && layout.size() >= COUNTED_FROM {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        if layout.size() >= COUNTED_FROM {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if layout.size() >= COUNTED_FROM {
                LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            }
            if new_size >= COUNTED_FROM {
                grow(new_size);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counted = Counted;

const RANKS: usize = 2;
const VICTIM: usize = 1;
/// The faulted minibatch. Two fault-free steps come before it, and the
/// replay log is first verified at minibatch 5, after the job ends.
const FAULT_AT: u64 = 2;

/// DP = 2 with Adam: each block's weights are two 1 MiB matrices, the
/// largest persistent buffers.
fn config() -> TrainConfig {
    TrainConfig {
        layout: ParallelLayout::data_parallel(RANKS),
        model: ModelConfig {
            input_dim: 256,
            hidden: 1024,
            blocks: 4,
            classes: 16,
            phantom_scale: 1.0,
        },
        batch: 1,
        optimizer: OptimizerKind::adam(1e-3),
        seed: 43,
        ranks_per_node: 8,
        fsdp: false,
    }
}

/// Peaks of one job, in bytes over what was held before it was built.
#[derive(Debug, Clone, Copy)]
struct Peaks {
    /// From the faulted minibatch's start until the victim begins the
    /// next one: the round, and the healthy rank's step beside it.
    round: usize,
    /// From then until both ranks finished that next minibatch.
    after: usize,
    /// The largest persistent buffer's bytes.
    buffer: usize,
}

/// One rank: trains up to the faulted minibatch, then runs it and the
/// next one between waits on `gate`, so the caller sets and reads the
/// counters with every rank parked. The victim records the round
/// window's peak as it begins the next minibatch. A rank that fails
/// departs at once, so its peer's waits end too, and still meets every
/// wait on `gate`. The rank's first communicators are dropped once its
/// client holds them: a round replaces them, and what they cached goes
/// with them.
fn train_rank(
    i: usize,
    comms: JobComms,
    world: &Arc<CommWorld>,
    engine: &Arc<TransparentEngine>,
    injector: &Arc<FailureInjector>,
    gate: &Barrier,
) -> SimResult<usize> {
    let mut guard = Some(world.departure_guard(RankId(i as u32)));
    let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
    let mut client = ProxyClient::new(RankId(i as u32), i, gpu, world.clone());
    let mut tr = engine
        .attach(&mut client)
        .and_then(|()| RankTrainer::new(client, config(), &comms, injector.clone()));
    drop(comms);
    let buffer = match &mut tr {
        Ok(tr) => tr.with_state(|v| (v.buffers.iter()).map(|(_, _, d)| d.len() * 4).max())?,
        Err(_) => None,
    };
    let mut step = |tr: &mut SimResult<RankTrainer<ProxyClient>>| {
        if let Ok(t) = tr {
            if let Err(e) = t.train_step() {
                *tr = Err(e);
                guard = None;
            }
        }
    };
    for _ in 0..FAULT_AT {
        step(&mut tr);
    }
    gate.wait();
    gate.wait();
    step(&mut tr);
    if i == VICTIM {
        ROUND_PEAK.store(
            PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }
    step(&mut tr);
    gate.wait();
    gate.wait();
    tr.map(drop)?;
    buffer.ok_or_else(|| SimError::Protocol("no persistent buffer".into()))
}

/// Runs one DP = 2 transparent job with `fault` (or none) on the victim
/// at [`FAULT_AT`], and returns its peaks.
fn job(fault: Option<(FailureKind, Phase)>) -> SimResult<Peaks> {
    let cfg = config();
    let base = LIVE.load(Ordering::Relaxed);
    let JobSetup {
        world, per_rank, ..
    } = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
    let engine = TransparentEngine::new(
        cfg.layout,
        world.clone(),
        Arc::new(SharedStore::new()),
        TransparentEngine::counter_gpu_allocator(10_000, CostModel::v100()),
    );
    let specs =
        fault.map(|(kind, phase)| FailureSpec::new(FAULT_AT, phase, RankId(VICTIM as u32), kind));
    let injector = Arc::new(FailureInjector::with_specs(specs.into_iter().collect()));
    let gate = Barrier::new(RANKS + 1);
    let over = |v: &AtomicUsize| v.load(Ordering::Relaxed).saturating_sub(base);
    let (peaks, ranks) = thread::scope(|s| {
        let ranks: Vec<_> = (per_rank.into_iter().enumerate())
            .map(|(i, comms)| {
                let (world, engine, injector, gate) = (&world, &engine, &injector, &gate);
                s.spawn(move || train_rank(i, comms, world, engine, injector, gate))
            })
            .collect();
        gate.wait();
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
        gate.wait();
        gate.wait();
        let peaks = (over(&ROUND_PEAK), over(&PEAK));
        gate.wait();
        let ranks = (ranks.into_iter())
            .map(|r| {
                r.join()
                    .map_err(|_| SimError::Protocol("rank panicked".into()))?
            })
            .collect::<SimResult<Vec<usize>>>();
        (peaks, ranks)
    });
    let buffer = ranks?.into_iter().max().unwrap_or(0);
    let rounds = engine.rounds();
    if rounds != u64::from(fault.is_some()) {
        return Err(SimError::Protocol(format!("{rounds} rounds for {fault:?}")));
    }
    Ok(Peaks {
        round: peaks.0,
        after: peaks.1,
        buffer,
    })
}

/// Runs [`config`]'s job through `run_job` under transparent JIT with
/// `fault` (or none) on the victim at [`FAULT_AT`], to the end of the
/// minibatch after it, and returns its peak over what was held before.
fn run_job_peak(fault: Option<(FailureKind, Phase)>) -> SimResult<usize> {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let specs =
        fault.map(|(kind, phase)| FailureSpec::new(FAULT_AT, phase, RankId(VICTIM as u32), kind));
    let injector = FailureInjector::with_specs(specs.into_iter().collect());
    let policy = Policy::Transparent { extra_comms: 0 };
    let store = Arc::new(SharedStore::new());
    let out = run_job(
        config(),
        CostModel::v100(),
        injector,
        store,
        FAULT_AT + 2,
        policy,
    )?;
    if out.rounds != u64::from(fault.is_some()) {
        return Err(SimError::Protocol(format!(
            "{} rounds for {fault:?}",
            out.rounds
        )));
    }
    Ok(PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

#[test]
fn a_replica_sync_round_holds_one_buffer_beside_a_healthy_step() -> SimResult<()> {
    let twin = job(None)?;
    let step = twin.round.max(twin.after);
    let c = job(Some((FailureKind::StickyCuda, Phase::Backward)))?;
    let d = job(Some((FailureKind::StickyCuda, Phase::OptimizerStep)))?;
    assert!(twin.buffer >= 1 << 20, "{twin:?}");
    let mut over = Vec::new();
    for (class, peaks) in [("c", c), ("d", d)] {
        if peaks.round > step + twin.buffer {
            over.push(format!(
                "class ({class}): the round peaks at {} bytes, more than a healthy step's \
                 {step} and one {}-byte persistent buffer",
                peaks.round, twin.buffer
            ));
        }
    }
    if d.after > step {
        over.push(format!(
            "the minibatch after a class (d) round peaks at {} bytes, more than a healthy \
             step's {step}",
            d.after
        ));
    }
    let run_twin = run_job_peak(None)?;
    let run_d = run_job_peak(Some((FailureKind::StickyCuda, Phase::OptimizerStep)))?;
    if run_d > run_twin + twin.buffer {
        over.push(format!(
            "run_job with a class (d) round peaks at {run_d} bytes, more than its fault-free \
             twin's {run_twin} and one {}-byte persistent buffer",
            twin.buffer
        ));
    }
    assert!(over.is_empty(), "{over:#?}");
    Ok(())
}
