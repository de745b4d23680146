//! What a delta checkpoint keeps alive in an in-process store: the shards
//! it uploaded, and nothing of the shards it reused.
//!
//! A counting global allocator tracks the bytes held in blocks of 64 KiB
//! or more, so this is the only test in its binary: a second test running
//! beside it would move the count.

use cluster::SharedStore;
use dltrain::TrainState;
use jitckpt::checkpoint::{
    read_meta, write_checkpoint_with, CkptKind, ShardConfig, ShardPlan, DEFAULT_MAX_DELTA_CHAIN,
};
use jitckpt::pipeline::{WriteBehind, WriteBehindConfig};
use jitckpt::restore::{load_for_rank_parallel, RestoreConfig};
use simcore::layout::ParallelLayout;
use simcore::{JobId, RankId, SimResult};
use simgpu::BufferTag;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Smaller blocks are the test harness's and the store's bookkeeping.
const COUNTED_FROM: usize = 64 << 10;

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes live in large blocks.
struct Counted;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counted {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && layout.size() >= COUNTED_FROM {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && layout.size() >= COUNTED_FROM {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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
                LIVE.fetch_add(new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counted = Counted;

const SHARD: usize = 1 << 20;
const BUFFERS: usize = 16;
const JOB: JobId = JobId(0);
const KIND: CkptKind = CkptKind::Periodic;

/// Generation `it` of a 16 MiB state: sixteen 1 MiB buffers, of which
/// only the last one differs from one generation to the next.
fn state(it: u64) -> TrainState {
    let buffers = (0..BUFFERS)
        .map(|b| {
            let shift = if b == BUFFERS - 1 { it as f32 } else { 0.0 };
            let data = (0..SHARD / 4)
                .map(|i| (b * SHARD + i) as f32 + shift)
                .collect();
            (format!("layer{b}.w"), BufferTag::Param, data)
        })
        .collect();
    TrainState {
        iteration: it,
        opt_t: it as u32,
        buffers,
        logical_bytes: (BUFFERS * SHARD) as u64,
    }
}

fn cfg() -> ShardConfig {
    ShardConfig {
        shard_bytes: SHARD,
        workers: 2,
        delta: true,
        max_delta_chain: DEFAULT_MAX_DELTA_CHAIN,
    }
}

/// Writes generation 1 and then generation 2 of [`state`] with `write`,
/// dropping each state once it is written, and checks that the store
/// holds no more than the full generation, the delta's uploaded shards
/// and 1 MiB of slack, and that the delta restores bit for bit.
fn a_delta_holds_only_its_shards(
    how: &str,
    store: &SharedStore,
    mut write: impl FnMut(&TrainState) -> SimResult<()>,
) -> SimResult<()> {
    let before = LIVE.load(Ordering::Relaxed);
    for it in 1..=2 {
        write(&state(it))?;
    }
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);

    let full = state(1).encoded_len();
    let delta = read_meta(store, JOB, KIND, 2, 0, 0, 0)?;
    let uploaded: u64 = delta
        .shards
        .iter()
        .filter(|s| s.base_iteration.is_none())
        .map(|s| s.len)
        .sum();
    assert!(
        uploaded < (full / 4) as u64,
        "{how}: the delta reuses most shards ({uploaded} of {full} bytes uploaded)"
    );
    let bound = full + uploaded as usize + SHARD;
    assert!(
        held <= bound,
        "{how}: the store holds {held} bytes, more than the full generation ({full}), \
         the delta's uploads ({uploaded}) and 1 MiB"
    );

    let layout = ParallelLayout::data_parallel(1);
    let (back, meta, _) =
        load_for_rank_parallel(store, JOB, &layout, RankId(0), &RestoreConfig::default())?;
    assert_eq!(meta.iteration, 2, "{how}");
    let want = state(2);
    assert_eq!((back.iteration, back.opt_t), (want.iteration, want.opt_t));
    assert_eq!(back.logical_bytes, want.logical_bytes);
    assert_eq!(back.buffers.len(), want.buffers.len());
    for ((bk, bt, bd), (wk, wt, wd)) in back.buffers.iter().zip(&want.buffers) {
        assert_eq!((bk, bt), (wk, wt), "{how}");
        assert!(
            bd.iter()
                .map(|v| v.to_bits())
                .eq(wd.iter().map(|v| v.to_bits())),
            "{how}: buffer {bk} differs"
        );
    }
    Ok(())
}

#[test]
fn a_delta_checkpoint_holds_only_the_shards_it_wrote() -> SimResult<()> {
    let store = SharedStore::new();
    a_delta_holds_only_its_shards("write_checkpoint_with", &store, |s| {
        write_checkpoint_with(&store, JOB, KIND, RankId(0), 0, 0, 0, s, &cfg())
    })?;

    let store = Arc::new(SharedStore::new());
    let pipeline = WriteBehind::new(store.clone(), WriteBehindConfig::default());
    a_delta_holds_only_its_shards("WriteBehind::submit", &store, |s| {
        let plan = ShardPlan::stage(&*store, JOB, KIND, RankId(0), 0, 0, 0, s, &cfg());
        pipeline.submit(&plan, None).wait()
    })
}
