//! What a direct (non-intercepting) data-parallel job keeps alive: its
//! parameters and optimizer moments, the step's gradients, and no more
//! than the two bucket buffers of one fused all-reduce in flight.
//!
//! A direct job recovers by restart, never by replay, so nothing of a
//! finished step — freed buffers, averaged gradient buckets — is worth
//! keeping. A counting global allocator tracks the bytes held in blocks
//! of 64 KiB or more, and their peak, so this is the only test in its
//! binary: a second test running beside it would move the count.

use cluster::FailureInjector;
use dltrain::trainer::DEFAULT_BUCKET_BYTES;
use dltrain::{JobSetup, ModelConfig, OptimizerKind, RankTrainer, TrainConfig};
use proxy::DirectExecutor;
use simcore::cost::CostModel;
use simcore::layout::ParallelLayout;
use simcore::{GpuId, RankId, SimError, SimResult};
use simgpu::{BufferTag, Gpu};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;

/// Smaller blocks are the harness's, the activations' at batch 1 and the
/// biases'.
const COUNTED_FROM: usize = 64 << 10;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

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
const STEPS: usize = 3;
const MIB: usize = 1 << 20;

/// DP = 2 with Adam: each block's weights are two 1 MiB matrices, and
/// two blocks' gradients fill one 4 MiB bucket.
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
        seed: 41,
        ranks_per_node: 8,
        fsdp: false,
    }
}

/// The bytes of the largest fused bucket: whole blocks' gradients, added
/// until the bucket holds at least [`DEFAULT_BUCKET_BYTES`].
fn bucket_bytes(model: &ModelConfig) -> usize {
    let (d, h) = (model.input_dim, model.hidden);
    let block = (2 * d * h + h + 2 * d) * 4;
    (DEFAULT_BUCKET_BYTES as usize).div_ceil(block) * block
}

/// The counted bytes of one rank's parameters and of its whole
/// persistent state (parameters and both Adam moments).
type StateBytes = (usize, usize);

/// One rank: builds its trainer, reports its state's counted bytes, and
/// runs each step between two waits on `gate`, so the caller reads the
/// counters with every rank parked. The trainer is dropped only after a
/// last wait.
fn train_rank(i: usize, setup: &JobSetup, gate: &Barrier) -> SimResult<StateBytes> {
    let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
    let exec = DirectExecutor::new(RankId(i as u32), i, gpu, setup.world.clone());
    let built = RankTrainer::new(exec, config(), &setup.per_rank[i], FailureInjector::none())
        .and_then(|mut tr| {
            let counted = |d: &[f32]| Some(d.len() * 4).filter(|b| *b >= COUNTED_FROM);
            let state = tr.with_state(|v| {
                let of = |param: bool| {
                    (v.buffers.iter())
                        .filter(|(_, tag, _)| !param || *tag == BufferTag::Param)
                        .filter_map(|(_, _, d)| counted(d))
                        .sum::<usize>()
                };
                (of(true), of(false))
            })?;
            Ok((tr, state))
        });
    gate.wait();
    let (mut tr, state) = built?;
    let mut stepped = Ok(());
    for _ in 0..STEPS {
        gate.wait();
        if stepped.is_ok() {
            stepped = tr.train_step().map(drop);
        }
        gate.wait();
    }
    gate.wait();
    stepped.map(|()| state)
}

#[test]
fn a_direct_job_holds_its_state_between_steps_and_two_buckets_in_them() -> SimResult<()> {
    let cfg = config();
    let base = LIVE.load(Ordering::Relaxed);
    let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
    let gate = Barrier::new(RANKS + 1);
    // (held once every rank finished the step, peak during it), in bytes
    // over `base`.
    let mut steps = Vec::with_capacity(STEPS);
    let states = thread::scope(|s| {
        let ranks: Vec<_> = (0..RANKS)
            .map(|i| {
                let (setup, gate) = (&setup, &gate);
                s.spawn(move || train_rank(i, setup, gate))
            })
            .collect();
        gate.wait();
        for _ in 0..STEPS {
            PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
            gate.wait();
            gate.wait();
            let over = |v: &AtomicUsize| v.load(Ordering::Relaxed).saturating_sub(base);
            steps.push((over(&LIVE), over(&PEAK)));
        }
        gate.wait();
        (ranks.into_iter())
            .map(|r| {
                r.join()
                    .map_err(|_| SimError::Protocol("rank panicked".into()))?
            })
            .collect::<SimResult<Vec<StateBytes>>>()
    })?;

    let params: usize = states.iter().map(|s| s.0).sum();
    let state: usize = states.iter().map(|s| s.1).sum();
    // Adam keeps two moments per parameter; every weight matrix is
    // counted, and its gradient has its shape.
    assert_eq!(state, 3 * params);
    let (grads, bucket) = (params, bucket_bytes(&cfg.model));
    assert!(bucket >= 4 * MIB, "a bucket of {bucket} bytes");
    for (step, &(held, peak)) in steps.iter().enumerate() {
        assert!(
            held <= state + MIB,
            "step {step}: {held} bytes held after the step, more than the state \
             ({state}) and 1 MiB"
        );
        let bound = state + grads + 2 * bucket + MIB;
        assert!(
            peak <= bound,
            "step {step}: a peak of {peak} bytes, more than the state ({state}), the \
             gradients ({grads}), two buckets ({bucket} each) and 1 MiB"
        );
    }
    Ok(())
}
