//! One core.
//!
//! The boxes this runs on are virtual machines with two vCPUs, and what
//! the second one is worth is up to the host. For minutes at a time two
//! busy vCPUs each run at full speed; for minutes at a time they run at
//! about 60 % each (two spinning processes take 160 ms for a unit of work
//! that one alone does in 76 ms, whatever the state). Jobs whose two rank
//! threads had a core each therefore measured the host: the fault-free
//! step took 58 ms or 97 ms, for the same build and seed, and nothing
//! inside a run can correct for that. One busy vCPU is not affected — the
//! same step on one core took 115–130 ms through both states — so the
//! whole process is confined to the first core it may use, before any
//! thread is spawned: every thread inherits the mask.
//!
//! What this costs: ranks and worker pools time-share the core, so wall
//! time is the CPU work of all threads plus the waits nobody can fill
//! (detection timeouts, object-store latency), and a change that only adds
//! or removes parallelism between cores does not show.
//! `std::thread::available_parallelism()`, which the libraries size their
//! pools by, reads 1.

/// A CPU set as `sched_setaffinity` takes it: 1024 bits.
#[cfg(target_os = "linux")]
type CpuMask = [u64; 16];

/// Confines the calling thread, and every thread spawned after, to the
/// lowest-numbered core it may use. Returns that core, or `None` where
/// the mask cannot be read or set (the run then uses what it is given).
#[cfg(target_os = "linux")]
pub fn confine_to_one_core() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
    }
    let size = std::mem::size_of::<CpuMask>();
    let mut allowed: CpuMask = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let core = (0..1024).find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one: CpuMask = [0; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a live buffer of the size passed; the call changes
    // scheduling only.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(core)
}

#[cfg(not(target_os = "linux"))]
pub fn confine_to_one_core() -> Option<usize> {
    None
}
