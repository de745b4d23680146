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
//! The world also owns the one record of its ranks (`liveness.rs`):
//! which departed, which are stuck in a proven hang, which acted on one.
//! A runner's rank thread holds one [`CommWorld::departure_guard`], and
//! from the moment it drops, every wait that needs that rank — a
//! collective generation it has not contributed to, a receive it has not
//! sent for — is reported to its observer as provably hung, and a job's
//! own waits ([`CommWorld::await_ranks`]: the launcher's kill, the
//! transparent engine's rounds) wake to read it.

use crate::comm::{CollKind, Communicator};
use crate::liveness::{Departure, Liveness, RankFacts};
use crate::observer::{CollectiveObserver, CollectiveTicket};
use bytes::Bytes;
use simcore::cost::CostModel;
use simcore::sync::{Condvar, Mutex};
use simcore::time::ClockBoard;
use simcore::{RankId, SimError, SimResult, SimTime};
use std::collections::{HashMap, HashSet};
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

/// A CRC-framed shard in flight on the recovery-stream path, held until
/// its receiver takes it ([`CommWorld::recv_bytes`]).
struct ByteMessage {
    frame: Bytes,
    available_at: SimTime,
}

struct MailState {
    inbox: HashMap<MailKey, Message>,
    byte_inbox: HashMap<MailKey, ByteMessage>,
    /// Recovery streams `(src, dst, tag)` their sender cut
    /// ([`CommWorld::close_bytes`]): a frame absent from one never comes.
    cut: HashSet<(RankId, RankId, u64)>,
    /// Each rank's commit floor, by clock slot: the minibatch iteration
    /// it last began ([`CommWorld::commit`]). Zero until it commits.
    floors: Vec<u64>,
    /// Threads currently parked in a mailbox wait ([`CommWorld::recv`],
    /// [`CommWorld::recv_bytes`]).
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
        let mail = MailState {
            inbox: HashMap::new(),
            byte_inbox: HashMap::new(),
            cut: HashSet::new(),
            floors: vec![0; clock.len()],
            waiters: 0,
        };
        Arc::new_cyclic(|world| CommWorld {
            clock,
            cost,
            ranks_per_node,
            next_comm: AtomicU64::new(1),
            comms: Mutex::new(HashMap::new()),
            mail: Mutex::new(mail),
            mail_cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            liveness: Arc::new(Liveness::new(world.clone())),
        })
    }

    /// The one guard a rank thread holds: dropping it records that `rank`
    /// has departed — its thread has returned and contributes to nothing
    /// after that — and wakes every waiter of this world, so that a wait
    /// which needs the rank is known to be hung, and a job waiting for its
    /// ranks learns that this one is gone, without waiting out a timeout.
    /// Take it before anything else the thread owns, so that it drops
    /// last, after the rank's trainer and device.
    pub fn departure_guard(&self, rank: RankId) -> impl Drop + Send {
        Departure {
            table: self.liveness.clone(),
            rank,
        }
    }

    /// The world's one wake-up path: wakes every rank parked in a
    /// collective or a receive of this world, and every caller of
    /// [`CommWorld::await_ranks`], so that each re-checks its wait. Every
    /// fact the world records about a rank calls it; so does a job whose
    /// waits park in `await_ranks` on each fact of its own. Call with no
    /// collectives lock held.
    pub fn wake_waiters(&self) {
        self.liveness.notify();
        // Registry snapshot first, mailbox under its lock last: the
        // shape, and the reasons, of `abort_all`.
        let comms: Vec<Arc<Communicator>> = self.comms.lock().values().cloned().collect();
        for comm in comms {
            comm.wake_parked();
        }
        let _mail = self.mail.lock();
        self.mail_cv.notify_all();
    }

    /// What this world knows of its ranks: at once when `seen` is `None`;
    /// else once the world has woken its waiters after the snapshot whose
    /// `epoch` is `seen`, or after `patience`, the last resort. A caller
    /// that checks its own state after taking a snapshot, and waits with
    /// that snapshot's epoch, misses no wake-up.
    pub fn await_ranks(&self, seen: Option<u64>, patience: Option<Duration>) -> RankFacts {
        let deadline = patience.map(|p| Instant::now() + p);
        let mut facts = self.liveness.facts.lock();
        while seen.is_some_and(|e| facts.epoch <= e) {
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => self.liveness.changed.wait(&mut facts),
                Some(Duration::ZERO) => break,
                Some(left) => _ = self.liveness.changed.wait_for(&mut facts, left),
            }
        }
        facts.clone()
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
    fn is_aborted(&self) -> bool {
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
    /// iteration — the original message must still be findable. Only
    /// [`CommWorld::commit`] drops mail.
    pub fn reset(&self) {
        self.comms.lock().clear();
        self.aborted.store(false, Ordering::Release);
    }

    /// The commit floor of one rank: `rank`, on clock slot `clock_idx`,
    /// is in minibatch `iteration` and will ask for no generation below
    /// the paired one on each of its communicators in `gens`. Where the
    /// floor sits is the rank's executor's choice: a replaying one commits
    /// at each minibatch start, one that never replays after every
    /// collective. From here on the rank reads nothing older, so the world
    /// keeps only what some rank can still read:
    ///
    /// * p2p messages whose `seq` (the sender's iteration, which is the
    ///   receiver's) is below the minimum committed iteration over all of
    ///   the world's ranks are dropped. A rank that has not committed, or
    ///   has departed, holds the minimum down, so the world keeps more;
    /// * each communicator drops the completed slots below the minimum
    ///   floor over its members ([`Communicator::commit`]'s rule).
    ///
    /// Recovery-stream frames (`send_bytes`) are not touched. The mailbox
    /// lock and each communicator's state lock are taken one after the
    /// other, never nested.
    pub fn commit<'a>(
        &self,
        rank: RankId,
        clock_idx: usize,
        iteration: u64,
        gens: impl IntoIterator<Item = (&'a Communicator, u64)>,
    ) {
        {
            let mut mail = self.mail.lock();
            mail.floors[clock_idx] = iteration;
            let floor = mail.floors.iter().copied().min().unwrap_or(0);
            mail.inbox.retain(|&(_, _, _, seq), _| seq >= floor);
        }
        for (comm, gen) in gens {
            comm.commit(rank, gen);
        }
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
        let ticket = CollectiveTicket {
            comm: CommId(u64::MAX),
            generation: seq,
            rank: dst,
            kind: CollKind::Barrier,
        };
        obs.collective_started(&ticket);
        let hung = || obs.collective_hung(&ticket);
        let got = self.await_mail(src, dst, Some(&hung), None, |mail| {
            let m = mail.inbox.get(&key)?;
            Some(Ok((m.data.clone(), m.available_at)))
        });
        obs.collective_finished(&ticket);
        let (data, available_at) = got?;
        self.clock.raise_to(dst_clock_idx, available_at);
        Ok(data)
    }

    /// The one mailbox wait: parks on the mailbox condvar until `take`
    /// finds what `dst` waits for from `src`, with its availability time,
    /// or the fact that it never comes. Delivery wins over abort, abort
    /// over a proof that `src` is gone (departed, or stuck in a provably
    /// hung wait; see the collective wait loop). On that proof `hung` is
    /// told once and the wait stays parked until the abort; without `hung`
    /// it fails at once. `patience` is the last resort. Either failure is
    /// [`SimError::CollectiveTimeout`] naming `src`.
    fn await_mail<T>(
        &self,
        src: RankId,
        dst: RankId,
        hung: Option<&dyn Fn()>,
        patience: Option<Duration>,
        mut take: impl FnMut(&mut MailState) -> Option<SimResult<(T, SimTime)>>,
    ) -> SimResult<(T, SimTime)> {
        let deadline = patience.map(|p| Instant::now() + p);
        let timeout = Err(SimError::CollectiveTimeout { rank: src });
        let mut mail = self.mail.lock();
        // As in the collective wait: held while this receive is proven
        // hung, so that ranks waiting on the receiver are proven in turn.
        let mut stuck = None;
        loop {
            if let Some(got) = take(&mut mail) {
                return got;
            }
            if self.is_aborted() {
                return Err(SimError::CollectiveAborted);
            }
            // jitlint::allow(guard_across_call): the table's lock is a leaf, and reading it under `mail` is what orders this check against the marker's wake-up
            if stuck.is_some() || !self.liveness.any_gone(std::iter::once(src)) {
                let now = Instant::now();
                if deadline.is_some_and(|d| now >= d) {
                    return timeout;
                }
                // Notify-driven: send, abort and a rank going all notify
                // under `mail`.
                mail.waiters += 1;
                self.mail_cv.notify_all(); // Wake `wait_for_mail_waiters` observers.
                match deadline {
                    Some(d) => {
                        self.mail_cv.wait_for(&mut mail, d - now);
                    }
                    None => self.mail_cv.wait(&mut mail),
                }
                mail.waiters -= 1;
                continue;
            }
            let Some(hung) = hung else {
                return timeout;
            };
            // The sender will never send: say so once with no lock held,
            // stay in the receive, and look again.
            drop(mail);
            stuck = Some(self.liveness.hung(dst, hung));
            mail = self.mail.lock();
        }
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

    /// Cuts the recovery stream `(src, dst, tag)`: its sender will send no
    /// frame it has not sent yet, as a dead peer's connection resets. A
    /// receiver waiting for one learns so at once. The cut lasts for the
    /// world's life; frames already sent are still delivered.
    pub fn close_bytes(&self, src: RankId, dst: RankId, tag: u64) {
        let mut mail = self.mail.lock();
        mail.cut.insert((src, dst, tag));
        self.mail_cv.notify_all();
    }

    /// Blocking receive of a byte shard, taken out of the inbox: a frame
    /// is received once, so a finished stream leaves nothing behind.
    /// Raises the receiver's clock to the frame's availability time. The
    /// wait ends on the frame, on an abort, on the fact that it never
    /// comes — the stream is cut ([`CommWorld::close_bytes`]), or `src`
    /// departed or is stuck in a provably hung wait — or, last resort,
    /// after `patience` of real time; all but the abort are
    /// [`SimError::CollectiveTimeout`] naming `src`, which the recovery
    /// stream answers with its store fallback.
    pub fn recv_bytes(
        &self,
        src: RankId,
        dst: RankId,
        dst_clock_idx: usize,
        tag: u64,
        seq: u64,
        patience: Duration,
    ) -> SimResult<Bytes> {
        let key = (src, dst, tag, seq);
        let (frame, available_at) = self.await_mail(src, dst, None, Some(patience), |mail| {
            match mail.byte_inbox.remove(&key) {
                Some(m) => Some(Ok((m.frame, m.available_at))),
                None => mail
                    .cut
                    .contains(&(src, dst, tag))
                    .then_some(Err(SimError::CollectiveTimeout { rank: src })),
            }
        })?;
        self.clock.raise_to(dst_clock_idx, available_at);
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use std::thread;

    impl CommWorld {
        /// Blocks until at least `n` threads are parked in
        /// [`CommWorld::recv`], or `timeout` elapses (returns `false` on
        /// timeout). Mirror of [`Communicator::wait_for_parked`] for the p2p
        /// mailboxes: harnesses assert "the receiver is blocked" by waiting
        /// on the mailbox condvar rather than sleeping a guessed interval.
        pub(crate) fn wait_for_mail_waiters(&self, n: usize, timeout: Duration) -> bool {
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

    /// One pipeline minibatch at 2D-2P-1T (two replicas of two stages),
    /// from one thread: every rank commits `it`, each first stage sends
    /// its activation, each last stage receives it and sends back its
    /// gradient, and each first stage receives that. Ranks in `frozen`
    /// neither commit nor send nor receive (they departed).
    fn pipeline_minibatch(w: &CommWorld, it: u64, frozen: &[u32]) {
        let layout = simcore::layout::ParallelLayout::three_d(2, 2, 1);
        let live = |r: RankId| !frozen.contains(&r.0);
        for r in (0..4).map(RankId).filter(|r| live(*r)) {
            w.commit(r, r.index(), it, std::iter::empty());
        }
        for first in (0..4).map(RankId).filter(|r| layout.coord(*r).stage == 0) {
            let mut c = layout.coord(first);
            c.stage = 1;
            let last = layout.rank_at(c);
            if !live(first) || !live(last) {
                continue;
            }
            let (f, l) = (first.index(), last.index());
            w.send(first, f, last, 1, it, vec![it as f32], 4, true)
                .unwrap();
            w.recv(first, last, l, 1, it, &NullObserver).unwrap();
            w.send(last, l, first, 2, it, vec![-(it as f32)], 4, true)
                .unwrap();
            w.recv(last, first, f, 2, it, &NullObserver).unwrap();
        }
    }

    #[test]
    fn commit_keeps_only_the_live_minibatch_of_mail() {
        let (w, _) = world(4);
        for it in 0..8 {
            pipeline_minibatch(&w, it, &[]);
        }
        // Two columns, an activation and a gradient each: one minibatch.
        assert_eq!(w.mail.lock().inbox.len(), 4);
        // A replayed receive of the live minibatch is still served.
        assert_eq!(
            w.recv(RankId(0), RankId(1), 1, 1, 7, &NullObserver)
                .unwrap(),
            vec![7.0]
        );
    }

    #[test]
    fn a_rank_that_stops_committing_holds_the_mail_floor() {
        // Rank 3 departs after iteration 2: the world keeps every message
        // from its last iteration on, including the other column's.
        let (w, _) = world(4);
        for it in 0..3 {
            pipeline_minibatch(&w, it, &[]);
        }
        for it in 3..8 {
            pipeline_minibatch(&w, it, &[3]);
        }
        let mut seqs: Vec<u64> = w.mail.lock().inbox.keys().map(|k| k.3).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs, (2..8).collect::<Vec<_>>());
    }

    #[test]
    fn commit_leaves_recovery_stream_frames_alone() {
        let (w, _) = world(2);
        w.send_bytes(
            RankId(0),
            0,
            RankId(1),
            9,
            0,
            Bytes::from_static(b"frame"),
            true,
        )
        .unwrap();
        for it in 1..4 {
            w.commit(RankId(0), 0, it, std::iter::empty());
            w.commit(RankId(1), 1, it, std::iter::empty());
        }
        assert!(w
            .recv_bytes(RankId(0), RankId(1), 1, 9, 0, Duration::ZERO)
            .is_ok());
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
