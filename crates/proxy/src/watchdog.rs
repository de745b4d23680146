//! Real-time hang detection for custom blocking operations.
//!
//! The paper's watchdog (§3.1) is a thread that calls an operation hung
//! once it has been outstanding past a timeout, and then runs a one-shot
//! hang action. No job runs one: a job's collectives are proven hung by
//! the collective layer ([`collectives::CollectiveObserver::collective_hung`]),
//! and each job acts on that proof on the parked rank's own thread. What
//! is left is the timer alone, over operations a caller registers with
//! [`Watchdog::begin_op`]; the benchmark's `detect_slack_ms` probe is its
//! last user, and both go at ROADMAP item 3 step 1.
//!
//! The thread sleeps on a condition variable until the earliest deadline
//! and is woken early only by `Drop`. It runs on *real* time because a
//! blocked thread's virtual clock is frozen.

use simcore::sync::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Default)]
struct Watch {
    /// Outstanding operations and the instant each becomes due: its
    /// start plus the timeout.
    due: HashMap<u64, Instant>,
    next_op: u64,
    stop: bool,
}

struct Inner {
    watch: Mutex<Watch>,
    /// Wakes the thread before its deadline: `Drop`.
    cv: Condvar,
    timeout: Duration,
    fired: AtomicBool,
    action: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// A watchdog thread monitoring one caller's blocking operations.
pub struct Watchdog {
    inner: Arc<Inner>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns a watchdog with the given hang timeout and one-shot
    /// action. Fails if the OS cannot spawn the monitor thread — an
    /// operation nobody watches would hang undetected, so the caller must
    /// not proceed as if it were protected.
    pub fn spawn(
        timeout: Duration,
        action: impl FnOnce() + Send + 'static,
    ) -> simcore::SimResult<Self> {
        let inner = Arc::new(Inner {
            watch: Mutex::new(Watch::default()),
            cv: Condvar::new(),
            timeout,
            fired: AtomicBool::new(false),
            action: Mutex::new(Some(Box::new(action))),
        });
        let thread_inner = inner.clone();
        let handle = std::thread::Builder::new()
            .name("jit-watchdog".into())
            .spawn(move || watch_loop(thread_inner))
            .map_err(|e| {
                simcore::SimError::Protocol(format!("failed to spawn watchdog thread: {e}"))
            })?;
        Ok(Watchdog {
            inner,
            handle: Some(handle),
        })
    }

    /// Registers a blocking operation (e.g. a p2p recv); returns a token
    /// to pass to [`Watchdog::end_op`]. Named only by the benchmark; it
    /// goes at ROADMAP item 3 step 1.
    pub fn begin_op(&self) -> u64 {
        let mut watch = self.inner.watch.lock();
        let id = watch.next_op;
        watch.next_op += 1;
        watch.due.insert(id, Instant::now() + self.inner.timeout);
        id
    }

    /// Retires a blocking operation. Public with [`Watchdog::begin_op`],
    /// whose token it takes; both go at ROADMAP item 3 step 1.
    pub fn end_op(&self, id: u64) {
        self.inner.watch.lock().due.remove(&id);
    }

    /// True once the hang action has fired.
    pub fn fired(&self) -> bool {
        self.inner.fired.load(Ordering::Acquire)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        {
            let mut watch = self.inner.watch.lock();
            watch.stop = true;
            self.inner.cv.notify_all();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn watch_loop(inner: Arc<Inner>) {
    let mut watch = inner.watch.lock();
    loop {
        if watch.stop {
            return;
        }
        let now = Instant::now();
        // With nothing outstanding, one timeout from now: nothing that
        // starts later can be due sooner.
        let earliest = watch.due.values().min().copied();
        let wake_at = earliest.unwrap_or(now + inner.timeout);
        if wake_at <= now {
            break;
        }
        inner.cv.wait_for(&mut watch, wake_at - now);
    }
    drop(watch);
    fire(&inner);
    // One-shot: nothing left to watch for but `Drop`.
    let mut watch = inner.watch.lock();
    while !watch.stop {
        inner.cv.wait(&mut watch);
    }
}

/// Runs the one-shot hang action with no watchdog lock held.
fn fire(inner: &Inner) {
    inner.fired.store(true, Ordering::Release);
    // Take the action out, *then* run it: `if let` would extend the
    // `action` lock's temporary guard across the body.
    let action = inner.action.lock().take();
    if let Some(action) = action {
        action();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn outstanding_op_fires_once() -> simcore::SimResult<()> {
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let wd = Watchdog::spawn(Duration::from_millis(20), move || {
            c.fetch_add(1, Ordering::SeqCst);
        })?;
        let id = wd.begin_op();
        wd.begin_op();
        std::thread::sleep(Duration::from_millis(100));
        assert!(wd.fired());
        assert_eq!(count.load(Ordering::SeqCst), 1, "action fires exactly once");
        wd.end_op(id);
        Ok(())
    }

    #[test]
    fn fast_ops_do_not_fire() -> simcore::SimResult<()> {
        let wd = Watchdog::spawn(Duration::from_millis(50), || {})?;
        for _ in 0..5 {
            let id = wd.begin_op();
            std::thread::sleep(Duration::from_millis(2));
            wd.end_op(id);
        }
        std::thread::sleep(Duration::from_millis(80));
        assert!(!wd.fired());
        Ok(())
    }

    #[test]
    fn drop_does_not_wait_for_the_timeout() -> simcore::SimResult<()> {
        let wd = Watchdog::spawn(Duration::from_secs(3600), || {})?;
        wd.begin_op();
        // The thread is an hour from its next look; `Drop` wakes it.
        let dropped = Instant::now();
        drop(wd);
        assert!(dropped.elapsed() < Duration::from_secs(60));
        Ok(())
    }
}
