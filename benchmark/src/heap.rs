//! The process heap, conditioned and counted.
//!
//! The boxes this runs on are small virtual machines on which the first
//! touch of a page the guest has not used lately costs 2–13 µs (the host
//! backs it on demand, and takes idle pages away again), against 0.02 µs
//! for a page already resident. Left alone that cost lands wherever the
//! heap happens to grow — 60 state-heavy steps slowed from 130 ms to
//! 300 ms each once the process passed about 2 GiB — and depends on what
//! ran on the machine before. So before any set-up is timed the heap is
//! grown to the workload's size, touched and handed back to an allocator
//! told never to return memory to the kernel; everything timed afterwards
//! runs on resident pages. Both are benchmark constants, like the
//! detection timeout — and the reason a change that only reduces
//! allocation churn will not show here.
//!
//! Resident set size then says nothing about the program, so memory is
//! reported from a count instead: [`peak_mib`] is the most the program
//! held at once in blocks of 64 KiB or more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Smaller blocks do not move a peak measured in MiB, and the proxy's
/// per-op path allocates them by the thousand: they skip the counters.
const COUNTED_FROM: usize = 64 << 10;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    if size >= COUNTED_FROM {
        // Statistics only: nothing is published through these.
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(size: usize) {
    if size >= COUNTED_FROM {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

/// The system allocator with the two counters above.
pub struct Counted;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counted {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        q
    }
}

/// Most bytes held at once in counted blocks since [`condition`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

/// Tells glibc malloc to keep what it is given: one arena, no trimming,
/// no separate mappings for large blocks. Returns whether every setting
/// was accepted.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin() -> bool {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` only stores tuning values in the allocator's
    // own state; it is called before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1) == 1
            && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
            && mallopt(M_MMAP_THRESHOLD, c_int::MAX) == 1
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin() -> bool {
    false
}

/// Pins the allocator, then grows the heap by `mib` MiB, touches every
/// page and frees the block, so that much of the heap is resident before
/// anything is timed. Call first thing in `main`. Returns whether the
/// allocator was pinned and the seconds the touching took.
pub fn condition(mib: usize) -> (bool, f64) {
    let pinned = pin();
    let start = std::time::Instant::now();
    if pinned {
        let mut block = vec![0u8; mib << 20];
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&mut block);
    }
    let took = start.elapsed().as_secs_f64();
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    (pinned, took)
}
