//! The process-wide communicator registry and point-to-point transport.
//!
//! [`CommWorld`] plays the role of the NCCL bootstrap service plus the
//! framework's process group registry: it creates communicators (each
//! creation is a costed rendezvous), tracks the live set (Table 7's
//! "recreate NCCL communicators" step is `live_comms() × comm_init`), and
//! provides the send/recv mailboxes that pipeline parallelism uses for
//! activations and gradients.
//!
//! Job teardown during recovery calls [`CommWorld::abort_all`], which is
//! the `ncclCommAbort`-on-everything step that releases every rank parked
//! in a hung collective.
//!
//! The world also owns the table of ranks that will never contribute
//! again (`liveness.rs`): a runner's rank thread holds a
//! [`CommWorld::departure_guard`], and from the moment it drops, every
//! wait that needs that rank — a collective generation it has not
//! contributed to, a receive it has not sent for — is reported to its
//! observer as provably hung.

use crate::comm::{CollKind, Communicator};
use crate::liveness::{Departure, Liveness};
use crate::observer::{CollectiveObserver, CollectiveTicket};
use bytes::Bytes;
use simcore::cost::CostModel;
use simcore::sync::{Condvar, Mutex};
use simcore::time::ClockBoard;
use simcore::{RankId, SimError, SimResult, SimTime};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Communicator handle. `CommId(u64::MAX)` is the pseudo-communicator a
/// blocking receive announces itself under (see [`CommWorld::recv`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(pub u64);

impl fmt::Display for CommId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comm{}", self.0)
    }
}

type MailKey = (RankId, RankId, u64, u64); // (src, dst, tag, seq)

struct Message {
    data: Vec<f32>,
    /// Virtual time at which the message is available at the receiver.
    available_at: SimTime,
}

/// A CRC-framed shard in flight on the recovery-stream path. `Bytes` makes
/// idempotent re-delivery a refcount bump, not a payload copy.
struct ByteMessage {
    frame: Bytes,
    available_at: SimTime,
}

#[derive(Default)]
struct MailState {
    inbox: HashMap<MailKey, Message>,
    byte_inbox: HashMap<MailKey, ByteMessage>,
    /// Threads currently parked in [`CommWorld::recv`] /
    /// [`CommWorld::recv_bytes`].
    waiters: usize,
}

/// Registry of communicators plus p2p mailboxes for one job.
pub struct CommWorld {
    clock: Arc<ClockBoard>,
    cost: CostModel,
    ranks_per_node: usize,
    next_comm: AtomicU64,
    comms: Mutex<HashMap<CommId, Arc<Communicator>>>,
    mail: Mutex<MailState>,
    mail_cv: Condvar,
    aborted: AtomicBool,
    liveness: Arc<Liveness>,
}

impl CommWorld {
    /// Creates a world for a job whose ranks map 1:1 onto `clock` slots.
    pub fn new(clock: Arc<ClockBoard>, cost: CostModel, ranks_per_node: usize) -> Arc<Self> {
        Arc::new_cyclic(|world| CommWorld {
            clock,
            cost,
            ranks_per_node,
            next_comm: AtomicU64::new(1),
            comms: Mutex::new(HashMap::new()),
            mail: Mutex::new(MailState::default()),
            mail_cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            liveness: Arc::new(Liveness::new(world.clone())),
        })
    }

    /// A guard for the thread that runs `rank`: dropping it records that
    /// the rank has departed — its thread has returned and contributes to
    /// nothing after that — and wakes every parked waiter of this world,
    /// so that a wait which needs the rank is known to be hung without
    /// waiting out a timeout. Declare it first in the rank's closure: it
    /// must drop last, after the rank's trainer, watchdog and device.
    pub fn departure_guard(&self, rank: RankId) -> impl Drop + Send {
        Departure {
            table: self.liveness.clone(),
            rank,
        }
    }

    /// Wakes every rank parked in a collective or a receive of this world
    /// so that it re-checks its wait against the liveness table. Call with
    /// no collectives lock held.
    pub(crate) fn wake_waiters(&self) {
        // Registry snapshot first, mailbox under its lock last: the
        // shape, and the reasons, of `abort_all`.
        let comms: Vec<Arc<Communicator>> = self.comms.lock().values().cloned().collect();
        for comm in comms {
            comm.wake_parked();
        }
        let _mail = self.mail.lock();
        self.mail_cv.notify_all();
    }

    /// The shared clock board.
    pub fn clock(&self) -> &Arc<ClockBoard> {
        &self.clock
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Creates and registers a communicator over `ranks` whose clocks live
    /// at `clock_idx`. Creation itself is free; charging the NCCL
    /// bootstrap cost is done by having every member call
    /// [`Communicator::rendezvous`].
    pub fn create_comm(&self, ranks: Vec<RankId>, clock_idx: Vec<usize>) -> Arc<Communicator> {
        let id = CommId(self.next_comm.fetch_add(1, Ordering::Relaxed));
        let comm = Communicator::in_world(
            id,
            ranks,
            clock_idx,
            self.ranks_per_node,
            self.clock.clone(),
            self.cost.clone(),
            self.liveness.clone(),
        );
        self.comms.lock().insert(id, comm.clone());
        comm
    }

    /// Allocates a fresh communicator id (used by `split_comm`, which
    /// builds its children directly).
    pub(crate) fn alloc_comm_id(&self) -> CommId {
        CommId(self.next_comm.fetch_add(1, Ordering::Relaxed))
    }

    /// Looks up a live communicator.
    pub fn comm(&self, id: CommId) -> SimResult<Arc<Communicator>> {
        self.comms
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| SimError::InvalidHandle(id.to_string()))
    }

    /// Number of live communicators — the multiplier for the "recreate
    /// NCCL communicators" recovery step (Table 7).
    pub fn live_comms(&self) -> usize {
        self.comms.lock().len()
    }

    /// Re-registers a rebuilt communicator under its id. Configuration
    /// changes (engine, ring topology) return fresh `Arc`s with empty slot
    /// state; the registry must point at the instance the ranks actually
    /// synchronize through, or [`CommWorld::abort_all`] would release —
    /// and a departure would wake — only the stale original.
    pub fn replace_comm(&self, comm: Arc<Communicator>) {
        self.comms.lock().insert(comm.id, comm);
    }

    /// Aborts every communicator and wakes all mailbox waiters: the
    /// release-everything step of job teardown.
    pub fn abort_all(&self) {
        self.aborted.store(true, Ordering::Release);
        // Snapshot the registry first: each abort() takes that
        // communicator's state lock, and holding the registry lock across
        // those acquisitions would order `comms` before every comm's
        // `state` — exactly the long-hold shape `guard_across_call` bans.
        let comms: Vec<Arc<Communicator>> = self.comms.lock().values().cloned().collect();
        for comm in comms {
            comm.abort();
        }
        // Wake mailbox waiters while holding their lock: a receiver that
        // checked the abort flag but has not parked yet would otherwise
        // miss this notify and sleep through teardown (the PR-5
        // lost-wakeup class, here on the p2p path).
        let _mail = self.mail.lock();
        self.mail_cv.notify_all();
    }

    /// True after [`CommWorld::abort_all`] until [`CommWorld::reset`].
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Clears abort state and drops dead communicators; called by the
    /// recovery engine before rebuilding the communication layer.
    ///
    /// Mailbox contents are deliberately KEPT: p2p messages are keyed by
    /// `(src, dst, tag, seq)` where `seq` is the sender's minibatch
    /// iteration, and delivery is idempotent (copy, not consume). During
    /// recovery a pipeline stage that rolls back may legitimately replay a
    /// receive whose producing stage has already advanced past that
    /// iteration — the original message must still be findable.
    pub fn reset(&self) {
        self.comms.lock().clear();
        self.aborted.store(false, Ordering::Release);
    }

    /// Non-blocking (buffered) point-to-point send, used by pipeline
    /// parallelism. `seq` is the sender's minibatch iteration: the message
    /// key is fully deterministic, so a replayed send simply overwrites
    /// the identical original (idempotent).
    #[allow(clippy::too_many_arguments)]
    pub fn send(
        &self,
        src: RankId,
        src_clock_idx: usize,
        dst: RankId,
        tag: u64,
        seq: u64,
        data: Vec<f32>,
        logical_bytes: u64,
        same_node: bool,
    ) -> SimResult<()> {
        if self.is_aborted() {
            return Err(SimError::CollectiveAborted);
        }
        let now = self.clock.now(src_clock_idx);
        let cost = self.cost.p2p(logical_bytes, same_node);
        let available_at = now + cost;
        let mut mail = self.mail.lock();
        mail.inbox
            .insert((src, dst, tag, seq), Message { data, available_at });
        self.mail_cv.notify_all();
        Ok(())
    }

    /// Blocking point-to-point receive of `(src, tag, seq)`. Delivery is
    /// idempotent: the message is copied, not consumed, so a rolled-back
    /// receiver can replay the receive. Raises the receiver's clock to
    /// the message's availability time.
    ///
    /// A pipeline receive blocks exactly like a collective when the peer
    /// stage has failed, so `obs` sees it like one, under a pseudo-ticket
    /// on `CommId(u64::MAX)` at generation `seq`: started, finished, and
    /// — when the sender is gone and left nothing under the key —
    /// hung, once, while the receiver stays parked until the abort.
    pub fn recv(
        &self,
        src: RankId,
        dst: RankId,
        dst_clock_idx: usize,
        tag: u64,
        seq: u64,
        obs: &dyn CollectiveObserver,
    ) -> SimResult<Vec<f32>> {
        let key = (src, dst, tag, seq);
        let (data, available_at) = self.await_mail(key, obs, |mail| {
            let msg = mail.inbox.get(&key)?;
            Some((msg.data.clone(), msg.available_at))
        })?;
        self.clock.raise_to(dst_clock_idx, available_at);
        Ok(data)
    }

    /// The wait of [`CommWorld::recv`] and [`CommWorld::recv_bytes`]:
    /// parks until `pick` finds the message under `key`.
    fn await_mail<T>(
        &self,
        key: MailKey,
        obs: &dyn CollectiveObserver,
        pick: impl Fn(&MailState) -> Option<T>,
    ) -> SimResult<T> {
        let (src, dst, _, seq) = key;
        let ticket = CollectiveTicket {
            comm: CommId(u64::MAX),
            generation: seq,
            rank: dst,
            kind: CollKind::Barrier,
            entered_at: Instant::now(),
        };
        obs.collective_started(&ticket);
        let mut mail = self.mail.lock();
        // As in the collective wait: held while this receive is proven
        // hung, so that ranks waiting on the receiver are proven in turn.
        let mut stuck = None;
        let result = loop {
            // Delivery wins over abort, abort over a proof of the hang
            // (see the collective wait loop).
            if let Some(found) = pick(&mail) {
                break Ok(found);
            }
            if self.is_aborted() {
                break Err(SimError::CollectiveAborted);
            }
            // jitlint::allow(guard_across_call): the table's lock is a leaf, and reading it under `mail` is what orders this check against the marker's wake-up
            if stuck.is_some() || !self.liveness.any_gone(std::iter::once(src)) {
                // Notify-driven: send, abort and a rank going all notify
                // under `mail`.
                mail.waiters += 1;
                self.mail_cv.notify_all(); // Wake `wait_for_mail_waiters` observers.
                self.mail_cv.wait(&mut mail);
                mail.waiters -= 1;
                continue;
            }
            // The sender will never send: say so once with no lock held,
            // stay in the receive, and look again.
            drop(mail);
            stuck = Some(self.liveness.stuck(dst));
            obs.collective_hung(&ticket);
            mail = self.mail.lock();
        };
        drop(mail);
        obs.collective_finished(&ticket);
        result
    }

    /// Non-blocking send of a CRC-framed byte shard (the pipelined
    /// replica-recovery stream). Semantics mirror [`CommWorld::send`]:
    /// buffered, keyed by `(src, dst, tag, seq)`, idempotent overwrite,
    /// availability charged from the sender's clock plus the p2p cost of
    /// the frame. `frame` is a zero-copy slice of the encoder's output.
    #[allow(clippy::too_many_arguments)]
    pub fn send_bytes(
        &self,
        src: RankId,
        src_clock_idx: usize,
        dst: RankId,
        tag: u64,
        seq: u64,
        frame: Bytes,
        same_node: bool,
    ) -> SimResult<()> {
        if self.is_aborted() {
            return Err(SimError::CollectiveAborted);
        }
        let now = self.clock.now(src_clock_idx);
        let cost = self.cost.p2p(frame.len() as u64, same_node);
        let available_at = now + cost;
        let mut mail = self.mail.lock();
        mail.byte_inbox.insert(
            (src, dst, tag, seq),
            ByteMessage {
                frame,
                available_at,
            },
        );
        self.mail_cv.notify_all();
        Ok(())
    }

    /// Blocking receive of a byte shard; idempotent (refcount copy, not
    /// consume). Raises the receiver's clock to the frame's availability
    /// time. Waits, and reports to `obs`, like [`CommWorld::recv`].
    pub fn recv_bytes(
        &self,
        src: RankId,
        dst: RankId,
        dst_clock_idx: usize,
        tag: u64,
        seq: u64,
        obs: &dyn CollectiveObserver,
    ) -> SimResult<Bytes> {
        let key = (src, dst, tag, seq);
        let (frame, available_at) = self.await_mail(key, obs, |mail| {
            let msg = mail.byte_inbox.get(&key)?;
            Some((msg.frame.clone(), msg.available_at))
        })?;
        self.clock.raise_to(dst_clock_idx, available_at);
        Ok(frame)
    }

    /// Non-blocking probe for a byte shard: `Ok(Some)` if available,
    /// `Ok(None)` if not yet sent, `Err` if the world is aborted. The
    /// recovery stream uses this to detect a dead replica without
    /// committing to a blocking wait.
    pub fn try_recv_bytes(
        &self,
        src: RankId,
        dst: RankId,
        dst_clock_idx: usize,
        tag: u64,
        seq: u64,
    ) -> SimResult<Option<Bytes>> {
        let mail = self.mail.lock();
        if let Some(msg) = mail.byte_inbox.get(&(src, dst, tag, seq)) {
            self.clock.raise_to(dst_clock_idx, msg.available_at);
            return Ok(Some(msg.frame.clone()));
        }
        if self.is_aborted() {
            return Err(SimError::CollectiveAborted);
        }
        Ok(None)
    }

    /// Blocks until at least `n` threads are parked in
    /// [`CommWorld::recv`], or `timeout` elapses (returns `false` on
    /// timeout). Mirror of [`Communicator::wait_for_parked`] for the p2p
    /// mailboxes: harnesses assert "the receiver is blocked" by waiting
    /// on the mailbox condvar rather than sleeping a guessed interval.
    pub fn wait_for_mail_waiters(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut mail = self.mail.lock();
        while mail.waiters < n {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.mail_cv.wait_for(&mut mail, deadline - now);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use std::thread;

    fn world(n: usize) -> (Arc<CommWorld>, Arc<ClockBoard>) {
        let clock = Arc::new(ClockBoard::new(n));
        let w = CommWorld::new(clock.clone(), CostModel::v100(), 8);
        (w, clock)
    }

    #[test]
    fn create_and_lookup_comms() {
        let (w, _) = world(4);
        let c = w.create_comm(vec![RankId(0), RankId(1)], vec![0, 1]);
        assert_eq!(w.live_comms(), 1);
        assert_eq!(w.comm(c.id).unwrap().size(), 2);
        assert_ne!(w.create_comm(vec![RankId(2)], vec![2]).id, c.id);
        w.reset();
        assert_eq!(w.live_comms(), 0);
        assert!(w.comm(c.id).is_err());
    }

    #[test]
    fn send_recv_round_trip_with_clock_raise() {
        let (w, clock) = world(2);
        clock.raise_to(0, SimTime::from_secs(5.0));
        w.send(RankId(0), 0, RankId(1), 7, 0, vec![1.0, 2.0], 1 << 20, true)
            .unwrap();
        let got = w
            .recv(RankId(0), RankId(1), 1, 7, 0, &NullObserver)
            .unwrap();
        assert_eq!(got, vec![1.0, 2.0]);
        // Receiver clock raised past sender's send time.
        assert!(clock.now(1).as_secs() > 5.0);
    }

    #[test]
    fn recv_blocks_until_send() {
        let (w, _) = world(2);
        let w2 = w.clone();
        let h = thread::spawn(move || w2.recv(RankId(0), RankId(1), 1, 0, 0, &NullObserver));
        assert!(w.wait_for_mail_waiters(1, Duration::from_secs(5)));
        assert!(!h.is_finished());
        w.send(RankId(0), 0, RankId(1), 0, 0, vec![3.0], 4, true)
            .unwrap();
        assert_eq!(h.join().unwrap().unwrap(), vec![3.0]);
    }

    #[test]
    fn messages_pair_by_sequence_and_are_idempotent() {
        let (w, _) = world(2);
        w.send(RankId(0), 0, RankId(1), 0, 0, vec![1.0], 4, true)
            .unwrap();
        w.send(RankId(0), 0, RankId(1), 0, 1, vec![2.0], 4, true)
            .unwrap();
        assert_eq!(
            w.recv(RankId(0), RankId(1), 1, 0, 1, &NullObserver)
                .unwrap(),
            vec![2.0]
        );
        assert_eq!(
            w.recv(RankId(0), RankId(1), 1, 0, 0, &NullObserver)
                .unwrap(),
            vec![1.0]
        );
        // Idempotent re-delivery (a rolled-back receiver replays).
        assert_eq!(
            w.recv(RankId(0), RankId(1), 1, 0, 0, &NullObserver)
                .unwrap(),
            vec![1.0]
        );
        // Replayed send overwrites with identical content, harmlessly.
        w.send(RankId(0), 0, RankId(1), 0, 0, vec![1.0], 4, true)
            .unwrap();
        assert_eq!(
            w.recv(RankId(0), RankId(1), 1, 0, 0, &NullObserver)
                .unwrap(),
            vec![1.0]
        );
    }

    #[test]
    fn abort_all_releases_comm_waiters_and_mail_waiters() {
        let (w, _) = world(3);
        let comm = w.create_comm(vec![RankId(0), RankId(1)], vec![0, 1]);
        let c = comm.clone();
        let h_coll = thread::spawn(move || c.barrier(RankId(0), 0, &NullObserver));
        let w2 = w.clone();
        let h_mail = thread::spawn(move || w2.recv(RankId(0), RankId(2), 2, 0, 0, &NullObserver));
        assert!(comm.wait_for_parked(1, Duration::from_secs(5)));
        assert!(w.wait_for_mail_waiters(1, Duration::from_secs(5)));
        assert!(!h_coll.is_finished());
        assert!(!h_mail.is_finished());
        w.abort_all();
        assert_eq!(
            h_coll.join().unwrap().unwrap_err(),
            SimError::CollectiveAborted
        );
        assert_eq!(
            h_mail.join().unwrap().unwrap_err(),
            SimError::CollectiveAborted
        );
        // Reset restores service.
        w.reset();
        assert!(!w.is_aborted());
        assert_eq!(w.live_comms(), 0);
    }

    #[test]
    fn send_after_abort_is_rejected() {
        let (w, _) = world(2);
        w.abort_all();
        let err = w
            .send(RankId(0), 0, RankId(1), 0, 0, vec![1.0], 4, true)
            .unwrap_err();
        assert_eq!(err, SimError::CollectiveAborted);
    }
}
