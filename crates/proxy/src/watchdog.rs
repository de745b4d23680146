//! Hang detection.
//!
//! A failure on one rank manifests on every *other* rank as a collective
//! that never completes (§3.1). The watchdog is a dedicated thread that
//! tracks outstanding blocking operations and, when one is due, fires a
//! one-shot hang action — in user-level mode that action checkpoints GPU
//! state and notifies the scheduler; in transparent mode it aborts the
//! communicators so the blocked ranks surface into the recovery handler.
//!
//! An operation is due when its real-time deadline has passed, or sooner
//! when the collective layer reports it hung: a real rank cannot know
//! that its peer is dead and has to wait the timeout out, but the
//! simulation sometimes can ([`CollectiveObserver::collective_hung`]),
//! and then waiting proves nothing more. The action's owner charges the
//! timeout to the parked rank's virtual clock instead, so the paper's
//! detection cost is kept and costs no wall time. The real-time deadline
//! stays what it is in the paper, the backstop for every hang nobody can
//! prove: custom operations ([`Watchdog::begin_op`]), communicators built
//! outside a world, and jobs whose ranks never announce their departure.
//! It runs on *real* time because a blocked thread's virtual clock is
//! frozen.
//!
//! The thread sleeps on a condition variable until the earliest deadline
//! and is woken early only by a hang report or by `Drop`; entering and
//! leaving a collective never notify it.

use collectives::{CollectiveObserver, CollectiveTicket};
use simcore::sync::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Key identifying an outstanding blocking operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum OpKey {
    Collective { comm: u64, gen: u64 },
    Custom(u64),
}

impl OpKey {
    fn of(t: &CollectiveTicket) -> Self {
        OpKey::Collective {
            comm: t.comm.0,
            gen: t.generation,
        }
    }
}

#[derive(Default)]
struct Watch {
    /// Outstanding operations and the instant each becomes due: its
    /// start plus the timeout, or the moment it was reported hung.
    due: HashMap<OpKey, Instant>,
    next_custom: u64,
    stop: bool,
}

struct Inner {
    watch: Mutex<Watch>,
    /// Wakes the thread before its deadline: a hang report, or `Drop`.
    cv: Condvar,
    timeout: Duration,
    fired: AtomicBool,
    action: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// A watchdog thread monitoring one rank's blocking operations.
pub struct Watchdog {
    inner: Arc<Inner>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns a watchdog with the given hang timeout and one-shot
    /// action. Fails if the OS cannot spawn the monitor thread — a rank
    /// without a watchdog would hang undetected, so the caller must not
    /// proceed as if it were protected.
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

    /// An observer that feeds collective entry/exit into this watchdog
    /// (installed at the interception layer).
    pub fn observer(&self) -> Arc<WatchdogObserver> {
        Arc::new(WatchdogObserver {
            inner: self.inner.clone(),
        })
    }

    /// Registers a custom blocking operation (e.g. a p2p recv); returns a
    /// token to pass to [`Watchdog::end_op`].
    pub fn begin_op(&self) -> u64 {
        let mut watch = self.inner.watch.lock();
        let id = watch.next_custom;
        watch.next_custom += 1;
        watch
            .due
            .insert(OpKey::Custom(id), Instant::now() + self.inner.timeout);
        id
    }

    /// Retires a custom blocking operation.
    pub fn end_op(&self, id: u64) {
        self.inner.watch.lock().due.remove(&OpKey::Custom(id));
    }

    /// True once the hang action has fired.
    pub fn fired(&self) -> bool {
        self.inner.fired.load(Ordering::Acquire)
    }

    /// Clears outstanding state after recovery (the action stays consumed;
    /// arm a new watchdog per recovery epoch if re-detection is needed).
    pub fn clear(&self) {
        self.inner.watch.lock().due.clear();
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
        // starts later can be due sooner (short of a hang report, which
        // notifies).
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

/// Runs the one-shot hang action. No watchdog lock is held: the action
/// calls into abort paths that take communicator/world locks of their own.
fn fire(inner: &Inner) {
    inner.fired.store(true, Ordering::Release);
    // Take the action out, *then* run it: `if let` would extend the
    // `action` lock's temporary guard across the body.
    let action = inner.action.lock().take();
    if let Some(action) = action {
        action();
    }
}

/// [`CollectiveObserver`] adapter feeding a [`Watchdog`].
pub struct WatchdogObserver {
    inner: Arc<Inner>,
}

impl CollectiveObserver for WatchdogObserver {
    fn collective_started(&self, t: &CollectiveTicket) {
        let due = t.entered_at + self.inner.timeout;
        self.inner.watch.lock().due.insert(OpKey::of(t), due);
    }

    fn collective_finished(&self, t: &CollectiveTicket) {
        self.inner.watch.lock().due.remove(&OpKey::of(t));
    }

    fn collective_hung(&self, t: &CollectiveTicket) {
        let mut watch = self.inner.watch.lock();
        // Only an operation still outstanding: a report that lost the race
        // with its own finish is about nothing.
        if let Some(due) = watch.due.get_mut(&OpKey::of(t)) {
            *due = Instant::now();
            self.inner.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::CollKind;
    use simcore::RankId;
    use std::sync::atomic::AtomicUsize;

    fn ticket(gen: u64) -> CollectiveTicket {
        CollectiveTicket {
            comm: collectives::CommId(1),
            generation: gen,
            rank: RankId(0),
            kind: CollKind::AllReduce,
            entered_at: Instant::now(),
        }
    }

    #[test]
    fn completed_collectives_never_fire() -> simcore::SimResult<()> {
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        let wd = Watchdog::spawn(Duration::from_millis(40), move || {
            f.store(true, Ordering::SeqCst)
        })?;
        let obs = wd.observer();
        for g in 0..5 {
            let t = ticket(g);
            obs.collective_started(&t);
            std::thread::sleep(Duration::from_millis(5));
            obs.collective_finished(&t);
        }
        std::thread::sleep(Duration::from_millis(80));
        assert!(!wd.fired());
        assert!(!fired.load(Ordering::SeqCst));
        Ok(())
    }

    #[test]
    fn outstanding_collective_fires_once() -> simcore::SimResult<()> {
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let wd = Watchdog::spawn(Duration::from_millis(20), move || {
            c.fetch_add(1, Ordering::SeqCst);
        })?;
        let obs = wd.observer();
        obs.collective_started(&ticket(0));
        std::thread::sleep(Duration::from_millis(100));
        assert!(wd.fired());
        assert_eq!(count.load(Ordering::SeqCst), 1, "action fires exactly once");
        Ok(())
    }

    #[test]
    fn proven_hang_fires_without_waiting_for_the_timeout() -> simcore::SimResult<()> {
        let (tx, rx) = std::sync::mpsc::channel();
        let wd = Watchdog::spawn(Duration::from_secs(3600), move || {
            let _ = tx.send(());
        })?;
        let obs = wd.observer();
        obs.collective_started(&ticket(0));
        obs.collective_hung(&ticket(0));
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(|_| simcore::SimError::Protocol("a reported hang never fired".into()))?;
        assert!(wd.fired());
        Ok(())
    }

    #[test]
    fn stale_hang_report_is_ignored_and_drop_does_not_wait() -> simcore::SimResult<()> {
        let wd = Watchdog::spawn(Duration::from_secs(3600), || {})?;
        let obs = wd.observer();
        // A report that lost the race with its op's finish, and one for an
        // op this watchdog never saw: neither leaves anything due.
        obs.collective_started(&ticket(0));
        obs.collective_finished(&ticket(0));
        obs.collective_hung(&ticket(0));
        obs.collective_hung(&ticket(1));
        assert!(wd.inner.watch.lock().due.is_empty());
        assert!(!wd.fired());
        // The thread is an hour from its next look; `Drop` wakes it.
        let dropped = Instant::now();
        drop(wd);
        assert!(dropped.elapsed() < Duration::from_secs(60));
        Ok(())
    }

    #[test]
    fn custom_ops_are_watched() -> simcore::SimResult<()> {
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        let wd = Watchdog::spawn(Duration::from_millis(20), move || {
            f.store(true, Ordering::SeqCst)
        })?;
        let id = wd.begin_op();
        std::thread::sleep(Duration::from_millis(60));
        assert!(wd.fired());
        wd.end_op(id);
        Ok(())
    }

    #[test]
    fn fast_custom_ops_do_not_fire() -> simcore::SimResult<()> {
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
}
