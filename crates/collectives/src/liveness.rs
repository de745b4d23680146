//! Which ranks of a world will never contribute again — the fact that
//! turns "nobody has arrived for a long time" into "nobody can arrive".
//!
//! A real rank cannot know its peer is dead, so the paper's watchdog
//! (§3.1) waits out a timeout. The simulation can know: a rank thread
//! that has returned has *departed* and contributes to nothing after
//! that, and a rank parked on an operation that needs a departed rank is
//! *stuck* there until the job is torn down. A wait that needs a gone
//! (departed or stuck) rank is provably hung; the waiter says so to its
//! observer ([`crate::CollectiveObserver::collective_hung`]) and stays
//! parked, which is what lets the watchdog act on the proof instead of on
//! elapsed real time.
//!
//! One table per [`CommWorld`], shared with every communicator the world
//! creates or splits the way the clock board is. Marking a rank wakes
//! every parked waiter of the world so each re-checks its own wait.

use crate::world::CommWorld;
use simcore::sync::Mutex;
use simcore::RankId;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

pub(crate) struct Liveness {
    /// `gone.len()`, readable without the lock: what a park pays while
    /// nobody is gone. It publishes no data — the set is read under its
    /// lock, and a parked waiter is ordered after a mark by the state (or
    /// mailbox) lock the marker takes to wake it — so `Relaxed` is enough.
    marks: AtomicUsize,
    /// Departed ranks (never removed) and currently stuck ones. A leaf
    /// lock: taken under a communicator's state lock or the mailbox lock,
    /// nothing is acquired while it is held.
    gone: Mutex<BTreeSet<RankId>>,
    /// Whose waiters a mark wakes. Empty for the private table of a
    /// communicator built outside any world.
    world: Weak<CommWorld>,
}

impl Liveness {
    pub(crate) fn new(world: Weak<CommWorld>) -> Self {
        Liveness {
            marks: AtomicUsize::new(0),
            gone: Mutex::new(BTreeSet::new()),
            world,
        }
    }

    /// True when any of `ranks` is departed or stuck.
    pub(crate) fn any_gone(&self, mut ranks: impl Iterator<Item = RankId>) -> bool {
        if self.marks.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let gone = self.gone.lock();
        ranks.any(|r| gone.contains(&r))
    }

    /// Adds `rank` to the gone set or takes it out.
    fn set_gone(&self, rank: RankId, gone: bool) {
        let mut set = self.gone.lock();
        if gone {
            set.insert(rank);
        } else {
            set.remove(&rank);
        }
        self.marks.store(set.len(), Ordering::Relaxed);
    }

    /// Wakes every parked waiter of the world so each re-checks its wait
    /// against the table. Call with no collectives lock held.
    fn wake(&self) {
        if let Some(world) = self.world.upgrade() {
            world.wake_waiters();
        }
    }

    /// `rank`'s thread has returned: it is gone for good.
    fn mark_departed(&self, rank: RankId) {
        self.set_gone(rank, true);
        self.wake();
    }

    /// Marks `rank` stuck — parked on a provably hung operation — for as
    /// long as the returned guard lives, so that ranks waiting on it are
    /// proven hung in turn. Call with no collectives lock held; the guard
    /// may be dropped under one.
    pub(crate) fn stuck(&self, rank: RankId) -> Stuck<'_> {
        self.set_gone(rank, true);
        self.wake();
        Stuck { table: self, rank }
    }
}

/// A rank's stay in a provably hung wait.
pub(crate) struct Stuck<'a> {
    table: &'a Liveness,
    rank: RankId,
}

impl Drop for Stuck<'_> {
    fn drop(&mut self) {
        // Nobody needs waking: a released rank proves nothing new.
        self.table.set_gone(self.rank, false);
    }
}

/// Marks its rank departed when dropped: the rank thread's last act.
pub(crate) struct Departure {
    pub(crate) table: Arc<Liveness>,
    pub(crate) rank: RankId,
}

impl Drop for Departure {
    fn drop(&mut self) {
        self.table.mark_departed(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use crate::observer::{CollectiveObserver, CollectiveTicket};
    use crate::{CommId, CommWorld, Communicator, NullObserver, ReduceOp};
    use simcore::cost::CostModel;
    use simcore::time::ClockBoard;
    use simcore::{RankId, SimError, SimResult};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;
    use std::thread::{self, JoinHandle};
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(5);

    /// Forwards every hang report to the test.
    struct Hangs(Sender<CollectiveTicket>);

    impl CollectiveObserver for Hangs {
        fn collective_started(&self, _: &CollectiveTicket) {}
        fn collective_finished(&self, _: &CollectiveTicket) {}
        fn collective_hung(&self, t: &CollectiveTicket) {
            let _ = self.0.send(t.clone());
        }
    }

    fn hangs() -> (Arc<Hangs>, Receiver<CollectiveTicket>) {
        let (tx, rx) = channel();
        (Arc::new(Hangs(tx)), rx)
    }

    fn world(n: usize) -> Arc<CommWorld> {
        CommWorld::new(Arc::new(ClockBoard::new(n)), CostModel::v100(), 8)
    }

    fn comm_of(world: &CommWorld, ranks: &[u32]) -> Arc<Communicator> {
        world.create_comm(
            ranks.iter().map(|r| RankId(*r)).collect(),
            ranks.iter().map(|r| *r as usize).collect(),
        )
    }

    type Reduce = JoinHandle<SimResult<Arc<Vec<f32>>>>;

    fn reduce(comm: &Arc<Communicator>, rank: u32, gen: u64, obs: &Arc<Hangs>) -> Reduce {
        let (comm, obs) = (comm.clone(), obs.clone());
        thread::spawn(move || {
            comm.all_reduce_shared(RankId(rank), gen, vec![1.0], ReduceOp::Sum, 4, &*obs)
        })
    }

    #[test]
    fn departure_before_or_after_the_park_reports_the_hang_once() {
        for depart_first in [true, false] {
            let w = world(3);
            let comm = comm_of(&w, &[0, 1]);
            let (obs, rx) = hangs();
            let guard = w.departure_guard(RankId(1));
            let h = if depart_first {
                drop(guard);
                reduce(&comm, 0, 0, &obs)
            } else {
                let h = reduce(&comm, 0, 0, &obs);
                assert!(comm.wait_for_parked(1, WAIT));
                assert!(rx.try_recv().is_err(), "nothing is proven yet");
                drop(guard);
                h
            };
            let t = rx.recv_timeout(WAIT).expect("hang reported");
            assert_eq!((t.comm, t.generation, t.rank), (comm.id, 0, RankId(0)));
            // A second wake-up (somebody else goes) reports nothing new,
            // and the rank is still in its collective.
            drop(w.departure_guard(RankId(2)));
            assert!(comm.wait_for_parked(1, WAIT));
            assert!(!h.is_finished(), "a proven hang stays parked");
            comm.abort();
            assert_eq!(h.join().unwrap().unwrap_err(), SimError::CollectiveAborted);
            assert!(rx.try_recv().is_err(), "reported exactly once");
        }
    }

    #[test]
    fn a_departed_rank_that_contributed_or_is_no_member_proves_nothing() {
        let w = world(4);
        let comm = comm_of(&w, &[0, 1, 2]);
        let (obs, rx) = hangs();
        // Rank 1 contributes, then goes; rank 3 was never a member.
        assert!(!comm
            .offer_reduce(RankId(1), 0, &[1.0], ReduceOp::Sum, 4)
            .unwrap());
        drop(w.departure_guard(RankId(1)));
        drop(w.departure_guard(RankId(3)));
        // Rank 0 checks on its way into the park and finds nothing.
        let h = reduce(&comm, 0, 0, &obs);
        assert!(comm.wait_for_parked(1, WAIT));
        assert!(comm
            .offer_reduce(RankId(2), 0, &[1.0], ReduceOp::Sum, 4)
            .unwrap());
        assert_eq!(*h.join().unwrap().unwrap(), vec![3.0]);
        assert!(rx.try_recv().is_err(), "never reported hung");
    }

    #[test]
    fn recv_from_a_departed_sender_delivers_what_it_left_and_proves_the_rest() {
        let w = world(3);
        w.send(RankId(0), 0, RankId(1), 7, 0, vec![4.0], 4, true)
            .unwrap();
        drop(w.departure_guard(RankId(0)));
        let (obs, rx) = hangs();
        let got = w.recv(RankId(0), RankId(1), 1, 7, 0, &*obs).unwrap();
        assert_eq!(got, vec![4.0]);
        assert!(rx.try_recv().is_err(), "a delivered message is no hang");
        // Nothing under the key, and the sender goes before or after the
        // receiver parks: hung, once, and still parked.
        for (src, depart_first) in [(0, true), (2, false)] {
            let (w2, obs2) = (w.clone(), obs.clone());
            let recv = move || w2.recv(RankId(src), RankId(1), 1, 7, 1, &*obs2);
            let h = if depart_first {
                thread::spawn(recv)
            } else {
                let guard = w.departure_guard(RankId(src));
                let h = thread::spawn(recv);
                assert!(w.wait_for_mail_waiters(1, WAIT));
                assert!(rx.try_recv().is_err(), "nothing is proven yet");
                drop(guard);
                h
            };
            let t = rx.recv_timeout(WAIT).expect("hang reported");
            assert_eq!(
                (t.comm, t.generation, t.rank),
                (CommId(u64::MAX), 1, RankId(1))
            );
            assert!(w.wait_for_mail_waiters(1, WAIT));
            assert!(!h.is_finished(), "a proven hang stays parked");
            w.abort_all();
            assert_eq!(h.join().unwrap().unwrap_err(), SimError::CollectiveAborted);
            assert!(rx.try_recv().is_err(), "reported exactly once");
            w.reset();
        }
    }

    #[test]
    fn a_stuck_rank_proves_its_own_waiters_until_it_is_released() {
        // Rank 0 is gone. Rank 1 waits for it on `x`; rank 2 waits for
        // rank 1 on `y`, and rank 1 cannot come.
        let w = world(3);
        let (x, y) = (comm_of(&w, &[0, 1]), comm_of(&w, &[1, 2]));
        let (obs, rx) = hangs();
        drop(w.departure_guard(RankId(0)));
        let h1 = reduce(&x, 1, 0, &obs);
        let t = rx.recv_timeout(WAIT).expect("rank 1 proven hung");
        assert_eq!((t.comm, t.rank), (x.id, RankId(1)));
        let h2 = reduce(&y, 2, 0, &obs);
        let t = rx.recv_timeout(WAIT).expect("rank 2 proven hung in turn");
        assert_eq!((t.comm, t.rank), (y.id, RankId(2)));
        // Released from `x`, rank 1 is no longer stuck: it can complete
        // `y`, and a later wait on it is an ordinary wait.
        x.abort();
        assert_eq!(h1.join().unwrap().unwrap_err(), SimError::CollectiveAborted);
        y.all_reduce_shared(RankId(1), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
            .unwrap();
        assert_eq!(*h2.join().unwrap().unwrap(), vec![2.0]);
        let h2 = reduce(&y, 2, 1, &obs);
        assert!(y.wait_for_parked(1, WAIT));
        y.all_reduce_shared(RankId(1), 1, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
            .unwrap();
        h2.join().unwrap().unwrap();
        assert!(rx.try_recv().is_err(), "one report per proven wait");
    }
}
