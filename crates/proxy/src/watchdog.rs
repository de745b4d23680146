//! Real-time hang detection.
//!
//! A failure on one rank manifests on every *other* rank as a collective
//! that never completes (§3.1). The watchdog is a dedicated thread that
//! tracks outstanding blocking operations and, when one exceeds the
//! timeout, fires a one-shot hang action — in user-level mode that action
//! checkpoints GPU state and notifies the scheduler; in transparent mode
//! it aborts the communicators so the blocked ranks surface into the
//! recovery handler.
//!
//! The timeout runs on *real* time because a hang is a real hang: the
//! blocked thread's virtual clock is frozen.

use crate::executor::CommToken;
use collectives::{CollectiveObserver, CollectiveTicket};
use simcore::sync::Mutex;
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

struct Inner {
    outstanding: Mutex<HashMap<OpKey, Instant>>,
    timeout: Duration,
    fired: AtomicBool,
    stop: AtomicBool,
    action: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    next_custom: Mutex<u64>,
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
            outstanding: Mutex::new(HashMap::new()),
            timeout,
            fired: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            action: Mutex::new(Some(Box::new(action))),
            next_custom: Mutex::new(0),
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
        let id = {
            let mut n = self.inner.next_custom.lock();
            let id = *n;
            *n += 1;
            id
        };
        self.inner
            .outstanding
            .lock()
            .insert(OpKey::Custom(id), Instant::now());
        id
    }

    /// Retires a custom blocking operation.
    pub fn end_op(&self, id: u64) {
        self.inner.outstanding.lock().remove(&OpKey::Custom(id));
    }

    /// True once the hang action has fired.
    pub fn fired(&self) -> bool {
        self.inner.fired.load(Ordering::Acquire)
    }

    /// Clears outstanding state after recovery (the action stays consumed;
    /// arm a new watchdog per recovery epoch if re-detection is needed).
    pub fn clear(&self) {
        self.inner.outstanding.lock().clear();
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn watch_loop(inner: Arc<Inner>) {
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        if !inner.fired.load(Ordering::Acquire) {
            let hang = {
                let outstanding = inner.outstanding.lock();
                outstanding
                    .values()
                    .any(|since| since.elapsed() > inner.timeout)
            };
            if hang {
                inner.fired.store(true, Ordering::Release);
                // Take the action out, *then* run it: `if let` extends
                // the `action` lock's temporary guard across the body, and
                // the hang action calls into abort paths that take
                // communicator/world locks of their own.
                let action = inner.action.lock().take();
                if let Some(action) = action {
                    action();
                }
            }
        }
        // jitlint::allow(virtual_time): the watchdog scans real-time hang deadlines by design (§3.1); 2ms bounds detection latency
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// [`CollectiveObserver`] adapter feeding a [`Watchdog`].
pub struct WatchdogObserver {
    inner: Arc<Inner>,
}

impl CollectiveObserver for WatchdogObserver {
    fn collective_started(&self, t: &CollectiveTicket) {
        self.inner.outstanding.lock().insert(
            OpKey::Collective {
                comm: t.comm.0,
                gen: t.generation,
            },
            t.entered_at,
        );
    }

    fn collective_finished(&self, t: &CollectiveTicket) {
        self.inner.outstanding.lock().remove(&OpKey::Collective {
            comm: t.comm.0,
            gen: t.generation,
        });
    }
}

/// Convenience: the set of communicator tokens a recovery handler must
/// rebuild, paired with the watchdog that was watching them. (Used by the
/// transparent recovery engine; defined here to keep proxy self-contained.)
pub type WatchedComms = Vec<CommToken>;

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
