//! Interception hooks for collective operations.
//!
//! The paper's user-level solution builds a *watch-list* of in-flight
//! collectives from intercepted `cudaEventRecord` / `cudaStreamWaitEvent` /
//! NCCL calls and has a watchdog thread poll it (§3.1). In the simulation,
//! interception attaches at the collective boundary: before a rank blocks
//! in a collective it announces a [`CollectiveTicket`]; when the collective
//! completes it retracts it. A ticket that stays outstanding past the
//! watchdog timeout *is* a hang — as far as a real rank can tell. The
//! simulation can sometimes tell more: when the rank a wait needs has
//! departed, or is itself parked on such a wait, the waiter reports its
//! ticket *hung* the moment that is known, and the watchdog need not wait
//! for the clock. Real time remains the backstop for every hang that
//! cannot be proven.

use crate::comm::CollKind;
use crate::world::CommId;
use simcore::RankId;
use std::time::Instant;

/// Identity of one in-flight collective on one rank.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CollectiveTicket {
    /// Communicator.
    pub comm: CommId,
    /// Per-rank operation sequence number on that communicator.
    pub generation: u64,
    /// The rank announcing the ticket.
    pub rank: RankId,
    /// Operation kind (for diagnostics).
    pub kind: CollKind,
    /// Real-clock time the rank entered the collective: the watchdog's
    /// real-time deadline, its backstop for hangs nobody can prove, counts
    /// from here.
    pub entered_at: Instant,
}

/// Observer of collective entry/exit on a rank — the interception seam.
///
/// Implementations must be cheap and non-blocking; they run on the rank's
/// hot path (the steady-state overhead measured in Table 5 includes this).
pub trait CollectiveObserver: Send + Sync {
    /// A rank is about to block in a collective.
    fn collective_started(&self, ticket: &CollectiveTicket);
    /// The collective completed (or errored) on this rank.
    fn collective_finished(&self, ticket: &CollectiveTicket);
    /// The collective can never complete: a rank it still needs is gone.
    /// Called at most once per ticket, between its start and its finish,
    /// from the rank's own thread with no collectives lock held; the rank
    /// stays parked in the collective afterwards.
    fn collective_hung(&self, _ticket: &CollectiveTicket) {}
}

/// No-op observer for jobs running without JIT checkpointing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl CollectiveObserver for NullObserver {
    fn collective_started(&self, _ticket: &CollectiveTicket) {}
    fn collective_finished(&self, _ticket: &CollectiveTicket) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::sync::Mutex;
    use std::sync::Arc;

    #[derive(Default)]
    struct Recording {
        started: Mutex<Vec<(CommId, u64)>>,
        finished: Mutex<Vec<(CommId, u64)>>,
    }

    impl CollectiveObserver for Recording {
        fn collective_started(&self, t: &CollectiveTicket) {
            self.started.lock().push((t.comm, t.generation));
        }
        fn collective_finished(&self, t: &CollectiveTicket) {
            self.finished.lock().push((t.comm, t.generation));
        }
    }

    #[test]
    fn observer_receives_paired_events() {
        let obs = Arc::new(Recording::default());
        let ticket = CollectiveTicket {
            comm: CommId(1),
            generation: 7,
            rank: RankId(0),
            kind: CollKind::Barrier,
            entered_at: Instant::now(),
        };
        obs.collective_started(&ticket);
        obs.collective_finished(&ticket);
        assert_eq!(*obs.started.lock(), vec![(CommId(1), 7)]);
        assert_eq!(*obs.finished.lock(), vec![(CommId(1), 7)]);
    }

    #[test]
    fn null_observer_is_silent() {
        let ticket = CollectiveTicket {
            comm: CommId(0),
            generation: 0,
            rank: RankId(0),
            kind: CollKind::Barrier,
            entered_at: Instant::now(),
        };
        NullObserver.collective_started(&ticket);
        NullObserver.collective_finished(&ticket);
    }
}
