//! Communicators: the rendezvous of matched collective operations.
//!
//! A [`Communicator`] is the NCCL-communicator equivalent: a fixed group of
//! ranks that issue matching collective calls in the same order. This
//! file is the rendezvous — the slot table, arrival, parking and
//! completion — and gives the operations their real distributed-systems
//! semantics:
//!
//! * **barrier completion** — no rank returns until every member arrived;
//! * **hangs** — a member that never arrives parks everyone else on a
//!   condition variable indefinitely; a parked rank whose generation
//!   still lacks a member that can no longer arrive (see
//!   `liveness.rs`) stays parked and reports the hang as proven
//!   ([`CollectiveObserver::collective_hung`]);
//! * **abort** — [`Communicator::abort`] (the `ncclCommAbort` equivalent)
//!   wakes all waiters with [`SimError::CollectiveAborted`]; an aborted
//!   communicator is dead and must be re-created via rendezvous; aborting
//!   a parent propagates to every child group split off it;
//! * **deterministic reduction** — contributions are reduced in member
//!   order, so results are bit-stable across runs (required for the
//!   paper's exact-loss-match validation).
//!
//! How the bytes of a generation are folded is the data plane's
//! (`plane.rs`); how much simulated time its completion charges is the
//! cost schedule's (`schedule.rs`). Nothing here depends on which
//! schedule is in effect.
//!
//! Operations are **generation-addressed and idempotent**: the caller (the
//! interception layer) supplies each operation's sequence number `gen`,
//! contributions overwrite identically on re-arrival, and a completed
//! slot keeps its result (and only its result) cached. This is what makes
//! replay-based recovery consistent when pipeline stages sit in
//! *different* minibatches at failure time: a rank replaying an
//! already-completed collective is served the cached result without its
//! peers — who may have legitimately moved on — having to re-participate,
//! while a retried incomplete collective reuses its generation and pairs
//! with peers' retries. A re-created communicator adopts its
//! predecessor's completed data slots, and its members' floors
//! ([`Communicator::adopt_completed_from`]).
//!
//! The cache holds no more than some member can still ask for: each
//! member commits a floor, the oldest generation it may still ask for
//! ([`crate::CommWorld::commit`]), and completed slots below the minimum
//! of the members' floors are dropped. The floor is the member's
//! executor's: an intercepting one, whose replay re-runs the whole open
//! minibatch, commits at each minibatch start; a direct one, which never
//! replays, commits as it leaves each collective, so the member that
//! leaves last frees the result. Recovery's own operations — a round's
//! rendezvous and replica sync — run in the generations from
//! [`RECOVERY_GEN_BASE`] up, which no floor reaches and no adoption
//! carries: nobody replays them, so each is dropped by the last member
//! to pick its result up. A replica sync cut into parts
//! ([`Communicator::broadcast_part`]) therefore holds one part at a time.

use crate::ledger::GradLedger;
use crate::liveness::Liveness;
use crate::observer::{CollectiveObserver, CollectiveTicket};
use crate::plane::{Contribution, SlotData};
use crate::schedule::{self, CollEngine, Schedule};
use crate::world::CommId;
use simcore::cost::CostModel;
use simcore::sync::{Condvar, Mutex};
use simcore::time::ClockBoard;
use simcore::{RankId, SimError, SimResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// The first generation of the recovery spaces: a recovery round's
/// replica sync runs at `RECOVERY_GEN_BASE | n` and its rendezvous at
/// `(RECOVERY_GEN_BASE << 1) | n`, clear of every data generation the
/// interrupted operation retries with.
pub const RECOVERY_GEN_BASE: u64 = 1 << 62;

/// Reduction operator for all-reduce / reduce-scatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise mean (sum / group size).
    Avg,
    /// Elementwise maximum.
    Max,
}

/// Collective operation kinds (for tickets, validation, and costing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollKind {
    /// All-reduce.
    AllReduce,
    /// All-gather (concatenation in rank order).
    AllGather,
    /// Reduce-scatter (reduce then shard).
    ReduceScatter,
    /// Broadcast from a root rank.
    Broadcast,
    /// Pure barrier.
    Barrier,
    /// Communicator-initialization rendezvous (costed as NCCL bootstrap).
    Rendezvous,
}

struct Slot {
    kind: CollKind,
    op: Option<ReduceOp>,
    root: Option<RankId>,
    /// What the completion charges; `None` for a part of a transfer
    /// charged as a whole before it ([`Communicator::broadcast_part`]).
    logical_bytes: Option<u64>,
    state: SlotState,
    /// Members yet to pick up a completed recovery generation's result,
    /// by member position: the last one drops the slot. Empty for a data
    /// generation, which stays cached for replay.
    owed: Vec<bool>,
}

/// A generation's contributions while it is in flight; once it completes,
/// its result and nothing else.
enum SlotState {
    InFlight(SlotData),
    Done(Arc<Vec<f32>>),
}

impl Slot {
    /// The shared result of a completed generation.
    fn result(&self) -> Option<&Arc<Vec<f32>>> {
        match &self.state {
            SlotState::Done(result) => Some(result),
            SlotState::InFlight(_) => None,
        }
    }
}

struct CommState {
    slots: HashMap<u64, Slot>,
    /// Each member's commit floor, by member position: the oldest
    /// generation it may still ask for ([`Communicator::commit`]). Zero
    /// until it commits on this communicator.
    floors: Vec<u64>,
    pending_fault: Option<RankId>,
    /// Member threads currently parked inside a collective wait.
    parked: usize,
}

/// A group of ranks performing matched collective operations.
pub struct Communicator {
    /// Communicator identity.
    pub id: CommId,
    ranks: Vec<RankId>,
    /// Member position of each rank (reverse of `ranks`).
    member_of: HashMap<RankId, usize>,
    /// Clock-board slot of each member, by member position.
    clock_idx: Vec<usize>,
    /// Cost schedule and node placement — real placement from
    /// `cluster::topology` via [`Communicator::set_topology`], or the
    /// contiguous fallback.
    schedule: Schedule,
    clock: Arc<ClockBoard>,
    state: Mutex<CommState>,
    cv: Condvar,
    /// Separate condvar for `wait_for_parked` observers, so a rank
    /// parking does not thundering-herd every other parked rank awake.
    obs_cv: Condvar,
    aborted: AtomicBool,
    /// The world's table of ranks that will never contribute again.
    liveness: Arc<Liveness>,
    /// Child groups split off this communicator (`CommWorld::split_comm`).
    /// Weak: a dropped child must not be kept alive — or aborted — by its
    /// parent. This lock is a leaf: nothing else is acquired while it is
    /// held except inside the rendezvous cost (state → children, one
    /// direction only; no path acquires state while holding children).
    children: Mutex<Vec<Weak<Communicator>>>,
    /// Per-member in-network gradient ledgers (`(member position,
    /// ledger)`), attached via [`Communicator::attach_ledger`]. Same
    /// leaf-lock discipline as `children`: the tap snapshots this list,
    /// drops the guard, and only then records into the ledgers.
    ledgers: Mutex<Vec<(usize, Arc<GradLedger>)>>,
    /// Fast-path guard for the tap: when no ledger is attached the
    /// completion paths pay one relaxed load and nothing else.
    has_ledgers: AtomicBool,
}

impl Communicator {
    /// Creates a communicator over `ranks` sharing the liveness table of
    /// the world that creates it; `clock_idx[i]` is the clock board slot
    /// of `ranks[i]`. It charges the ring schedule over the contiguous
    /// `ranks_per_node` placement until [`Communicator::set_engine`] /
    /// [`Communicator::set_topology`] say otherwise.
    pub(crate) fn in_world(
        id: CommId,
        ranks: Vec<RankId>,
        clock_idx: Vec<usize>,
        ranks_per_node: usize,
        clock: Arc<ClockBoard>,
        cost: CostModel,
        liveness: Arc<Liveness>,
    ) -> Arc<Self> {
        let node_of = schedule::contiguous_node_assignment(&ranks, ranks_per_node);
        let schedule = Schedule::ring(cost, node_of);
        Self::with_parts(id, ranks, clock_idx, clock, schedule, liveness)
    }

    fn with_parts(
        id: CommId,
        ranks: Vec<RankId>,
        clock_idx: Vec<usize>,
        clock: Arc<ClockBoard>,
        schedule: Schedule,
        liveness: Arc<Liveness>,
    ) -> Arc<Self> {
        assert_eq!(ranks.len(), clock_idx.len());
        assert_eq!(ranks.len(), schedule.node_of.len());
        let member_of: HashMap<RankId, usize> =
            ranks.iter().enumerate().map(|(i, r)| (*r, i)).collect();
        assert_eq!(member_of.len(), ranks.len(), "duplicate member rank");
        let state = CommState {
            slots: HashMap::new(),
            floors: vec![0; ranks.len()],
            pending_fault: None,
            parked: 0,
        };
        Arc::new(Communicator {
            id,
            ranks,
            member_of,
            clock_idx,
            schedule,
            clock,
            state: Mutex::new(state),
            cv: Condvar::new(),
            obs_cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            liveness,
            children: Mutex::new(Vec::new()),
            ledgers: Mutex::new(Vec::new()),
            has_ledgers: AtomicBool::new(false),
        })
    }

    /// A child group of the members at positions `members`, in that
    /// order (`CommWorld::split_comm`). Member `i` keeps its clock slot
    /// and node; the child keeps this communicator's schedule and
    /// liveness table, and is linked for abort and fault propagation.
    pub(crate) fn split_child(&self, id: CommId, members: &[usize]) -> Arc<Self> {
        let slice = |of: &[usize]| members.iter().map(|p| of[*p]).collect();
        let child = Self::with_parts(
            id,
            members.iter().map(|p| self.ranks[*p]).collect(),
            slice(&self.clock_idx),
            self.clock.clone(),
            self.schedule.placed(slice(&self.schedule.node_of)),
            self.liveness.clone(),
        );
        {
            let mut kids = self.children.lock();
            kids.retain(|w| w.upgrade().is_some());
            kids.push(Arc::downgrade(&child));
        }
        child
    }

    /// Member ranks, in member (reduction) order.
    pub fn ranks(&self) -> &[RankId] {
        &self.ranks
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// True if `rank` is a member of this group.
    pub(crate) fn contains(&self, rank: RankId) -> bool {
        self.member_of.contains_key(&rank)
    }

    /// Member position of `rank` in this group (its rank-order index).
    pub(crate) fn member_pos(&self, rank: RankId) -> Option<usize> {
        self.member_of.get(&rank).copied()
    }

    /// Node assignment per member position.
    pub fn node_assignment(&self) -> &[usize] {
        &self.schedule.node_of
    }

    /// Communicators are shared immutably; configuration changes rebuild
    /// a fresh clone with empty slot state. The child-group list carries
    /// over so parent→child abort/fault propagation survives a rebuild,
    /// and attached gradient ledgers carry over so the in-network tap
    /// survives engine/topology changes.
    fn rebuild(&self, schedule: Schedule) -> Arc<Self> {
        let fresh = Self::with_parts(
            self.id,
            self.ranks.clone(),
            self.clock_idx.clone(),
            self.clock.clone(),
            schedule,
            self.liveness.clone(),
        );
        let kids: Vec<Weak<Communicator>> = self.children.lock().clone();
        *fresh.children.lock() = kids;
        let taps: Vec<(usize, Arc<GradLedger>)> = self.ledgers.lock().clone();
        fresh.has_ledgers.store(!taps.is_empty(), Ordering::Release);
        *fresh.ledgers.lock() = taps;
        fresh
    }

    /// Selects the cost schedule (the chunked ring by default). The data
    /// plane, and so every result bit, is the same under either.
    pub fn set_engine(self: &Arc<Self>, engine: CollEngine) -> Arc<Self> {
        self.rebuild(self.schedule.with_engine(engine))
    }

    /// Installs real placement knowledge: `node_of[i]` is the node id of
    /// member `i` (`Cluster::node_assignment`). Replaces the contiguous
    /// `ranks_per_node` fallback; the schedule's inter-node hop count and
    /// per-node group sizes are re-derived from it.
    pub fn set_topology(self: &Arc<Self>, node_of: Vec<usize>) -> Arc<Self> {
        assert_eq!(
            node_of.len(),
            self.ranks.len(),
            "one node id per group member"
        );
        self.rebuild(self.schedule.placed(node_of))
    }

    /// Attaches `rank`'s in-network gradient ledger: every data-carrying
    /// generation that completes from now on is recorded into it (an
    /// `Arc` bump plus shard-range metadata — no extra sends, no copy).
    /// Re-attaching a member replaces its previous ledger. The
    /// attachment survives [`Communicator::set_engine`] /
    /// [`Communicator::set_topology`] rebuilds. No job attaches one.
    pub fn attach_ledger(&self, rank: RankId, ledger: Arc<GradLedger>) -> SimResult<()> {
        let pos = self.member_pos(rank).ok_or_else(|| {
            SimError::Protocol(format!(
                "{rank} is not a member of communicator {}",
                self.id
            ))
        })?;
        let mut taps = self.ledgers.lock();
        taps.retain(|(p, _)| *p != pos);
        taps.push((pos, ledger));
        drop(taps);
        self.has_ledgers.store(true, Ordering::Release);
        Ok(())
    }

    /// The in-network tap: records a completed generation's result into
    /// every attached ledger. Runs on the completion paths *after* the
    /// state guard drops (both tap locks are leaves, never nested);
    /// [`GradLedger::record`] is idempotent per generation, so every
    /// member thread exiting the collective may call this safely.
    fn tap_gen(&self, gen: u64) {
        if !self.has_ledgers.load(Ordering::Acquire) {
            return;
        }
        let (kind, result) = {
            let st = self.state.lock();
            let Some(slot) = st.slots.get(&gen) else {
                return;
            };
            let Some(result) = slot.result() else {
                return;
            };
            (slot.kind, result.clone())
        };
        if matches!(kind, CollKind::Barrier | CollKind::Rendezvous) {
            return; // No data plane to tap.
        }
        // The state guard is gone, and the ledgers lock is a leaf.
        let taps: Vec<(usize, Arc<GradLedger>)> = self.ledgers.lock().clone();
        if taps.is_empty() {
            return;
        }
        let n = self.ranks.len();
        for (pos, ledger) in taps {
            ledger.record(gen, kind, pos, n, result.clone());
        }
    }

    /// True once the communicator has been aborted.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Aborts the communicator: every current and future waiter returns
    /// [`SimError::CollectiveAborted`], and the abort propagates to every
    /// live child group (a dead parent cannot bootstrap its children —
    /// NCCL aborts split comms with their parent). Idempotent.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        {
            // Completion waits are purely notify-driven, so the notify must
            // be ordered against the waiters' abort check: holding the state
            // lock guarantees any rank that saw `aborted == false` has since
            // parked and receives this wake-up (no lost-wakeup window).
            let _st = self.state.lock();
            self.cv.notify_all();
            self.obs_cv.notify_all();
        }
        // Snapshot the children under their own (leaf) lock, then abort
        // outside it: no lock is held across the recursive calls.
        let kids: Vec<Arc<Communicator>> = {
            self.children
                .lock()
                .iter()
                .filter_map(Weak::upgrade)
                .collect()
        };
        for child in kids {
            child.abort();
        }
    }

    /// Wakes every rank parked in a collective wait so that it re-checks
    /// its generation against the liveness table. The notify is ordered
    /// against the waiters' check the way [`Communicator::abort`]'s is: a
    /// rank that read the table before the mark holds the state lock
    /// until it has parked.
    pub(crate) fn wake_parked(&self) {
        let _st = self.state.lock();
        self.cv.notify_all();
    }

    /// Live (still-referenced) child groups split off this communicator.
    pub(crate) fn live_children(&self) -> usize {
        self.children
            .lock()
            .iter()
            .filter(|w| w.upgrade().is_some())
            .count()
    }

    /// Arms a one-shot transient network fault against `victim`: the
    /// victim's own next arrival at a collective still in flight on this
    /// communicator fails with [`SimError::NetworkTransient`] while every
    /// other member hangs at the barrier — exactly how a single NIC/link
    /// fault manifests in a real job (§3.1: the victim sees an error,
    /// peers see a hang). Which generation that is depends on the victim
    /// alone, not on whether a peer got there first; a replayed,
    /// already-complete generation is served from the cache and does not
    /// consume the fault. The fault propagates to child groups the victim
    /// belongs to: a dead link fails every communicator routed over it.
    pub fn inject_transient_fault(&self, victim: RankId) {
        {
            let mut st = self.state.lock();
            st.pending_fault = Some(victim);
            self.cv.notify_all();
        }
        let kids: Vec<Arc<Communicator>> = {
            self.children
                .lock()
                .iter()
                .filter_map(Weak::upgrade)
                .collect()
        };
        for child in kids {
            if child.contains(victim) {
                child.inject_transient_fault(victim);
            }
        }
    }

    /// Copies the predecessor communicator's completed data slots into
    /// this (freshly created) communicator, so replayed operations can be
    /// served without re-participation after recovery. A completed slot
    /// holds only its shared result, so the copy is a refcount bump per
    /// slot. Each member's floor starts at its floor on the predecessor
    /// (zero for a member it did not have): what a member could no longer
    /// ask for there it cannot ask for here, so an adopted slot is dropped
    /// as soon as the member that lagged there commits past it, even if
    /// its peers, already a minibatch ahead, commit here only a minibatch
    /// later. Slots from [`RECOVERY_GEN_BASE`] up belong to the
    /// predecessor's recovery round and stay behind.
    pub fn adopt_completed_from(&self, old: &Communicator) {
        let old_state = old.state.lock();
        // jitlint::allow(lock_order): the predecessor's state, then its replacement's; a communicator adopts only from the one it replaces
        let mut st = self.state.lock();
        for (pos, rank) in self.ranks.iter().enumerate() {
            st.floors[pos] = old.member_pos(*rank).map_or(0, |p| old_state.floors[p]);
        }
        for (gen, slot) in old_state.slots.iter() {
            if *gen >= RECOVERY_GEN_BASE {
                continue;
            }
            if let Some(result) = slot.result() {
                let adopted = Slot {
                    kind: slot.kind,
                    op: slot.op,
                    root: slot.root,
                    logical_bytes: slot.logical_bytes,
                    state: SlotState::Done(result.clone()),
                    owed: Vec::new(),
                };
                st.slots.insert(*gen, adopted);
            }
        }
    }

    /// Number of cached completed slots (tests / diagnostics).
    pub fn completed_slots(&self) -> usize {
        self.state
            .lock()
            .slots
            .values()
            .filter(|s| s.result().is_some())
            .count()
    }

    /// Member `rank` will ask for no generation below `gen` on this
    /// communicator: its floor. An intercepting executor commits the
    /// first generation of each minibatch it begins (its replay re-runs
    /// the minibatch); a direct one the generation after each collective
    /// it leaves. Completed slots below the minimum floor over all members
    /// are dropped. The minimum, not this member's floor, because a peer
    /// still in an older generation (a lagging pipeline stage, a rank
    /// rolled back by recovery, a member yet to pick up a result) must
    /// still be served it. A slot in flight is never dropped. No floor
    /// reaches the recovery spaces ([`RECOVERY_GEN_BASE`] and up): each
    /// of those generations is dropped by the last member to pick its
    /// result up. Called by [`crate::CommWorld::commit`].
    pub(crate) fn commit(&self, rank: RankId, gen: u64) {
        let Some(pos) = self.member_pos(rank) else {
            return;
        };
        let mut st = self.state.lock();
        st.floors[pos] = gen;
        let floor = st.floors.iter().copied().min().unwrap_or(0);
        st.slots
            .retain(|g, slot| *g >= floor || slot.result().is_none());
    }

    /// Drops the completed slots of the recovery spaces
    /// ([`RECOVERY_GEN_BASE`] and up) and returns how many there were.
    /// A recovery generation run through the blocking protocol is dropped
    /// by the last member to pick its result up, so after a round this
    /// finds none; it is left for results completed through
    /// [`Communicator::offer_reduce`], which nobody picks up. Data slots,
    /// and any slot in flight, stay.
    pub fn release_recovery_slots(&self) -> usize {
        let mut st = self.state.lock();
        let before = st.slots.len();
        st.slots
            .retain(|g, slot| *g < RECOVERY_GEN_BASE || slot.result().is_none());
        before - st.slots.len()
    }

    /// Drops cached slots with `gen < floor`, in flight or not, whatever
    /// the members' floors say (the benchmark's probes prune by hand;
    /// training prunes through `Communicator::commit`). Named only by
    /// the benchmark; it goes at ROADMAP item 3 step 1.
    pub fn prune_below(&self, floor: u64) {
        let mut st = self.state.lock();
        st.slots.retain(|g, _| *g >= floor);
        // Completion waits are notify-driven: wake parked ranks so anyone
        // whose (incomplete) slot was just pruned reports the protocol
        // error instead of sleeping forever.
        self.cv.notify_all();
    }

    /// Core matched-collective protocol. Returns the operation result for
    /// this rank.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        rank: RankId,
        gen: u64,
        kind: CollKind,
        op: Option<ReduceOp>,
        root: Option<RankId>,
        data: Option<Vec<f32>>,
        logical_bytes: Option<u64>,
        obs: &dyn CollectiveObserver,
    ) -> SimResult<Arc<Vec<f32>>> {
        let pos = self.member_pos(rank).ok_or_else(|| {
            SimError::Protocol(format!(
                "{rank} is not a member of communicator {}",
                self.id
            ))
        })?;
        {
            // Serve a cached completed slot without blocking or aborting:
            // this is a replayed operation.
            let st = self.state.lock();
            if let Some(slot) = st.slots.get(&gen) {
                if let Some(result) = slot.result() {
                    if slot.kind != kind || slot.op != op || slot.root != root {
                        return Err(SimError::Protocol(format!(
                            "replayed collective mismatch at gen {gen} on {}",
                            self.id
                        )));
                    }
                    return Ok(result.clone());
                }
            }
        }
        if self.is_aborted() {
            return Err(SimError::CollectiveAborted);
        }
        let ticket = CollectiveTicket {
            comm: self.id,
            generation: gen,
            rank,
            kind,
        };
        // Observer callbacks run outside the state lock: an observer
        // takes locks of its own (a hang action writes a checkpoint), and
        // calling into it with `state` held would hold one lock across a
        // module that takes another (`guard_across_call`).
        obs.collective_started(&ticket);
        let contrib = match data {
            Some(v) => Contribution::Data(v),
            None => Contribution::Empty,
        };
        let result = self.run_inner(pos, op, root, contrib, logical_bytes, obs, &ticket);
        obs.collective_finished(&ticket);
        if result.is_ok() {
            // In-network gradient tap (no-op unless ledgers are
            // attached); runs with no lock held.
            self.tap_gen(gen);
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn run_inner(
        &self,
        pos: usize,
        op: Option<ReduceOp>,
        root: Option<RankId>,
        contrib: Contribution<'_>,
        logical_bytes: Option<u64>,
        obs: &dyn CollectiveObserver,
        ticket: &CollectiveTicket,
    ) -> SimResult<Arc<Vec<f32>>> {
        let (rank, gen, kind) = (ticket.rank, ticket.generation, ticket.kind);
        let mut st = self.state.lock();
        let complete = self.arrive(
            &mut st,
            pos,
            rank,
            gen,
            kind,
            op,
            root,
            contrib,
            logical_bytes,
        )?;
        // Held from the moment this wait is proven hung until the rank
        // leaves it, so that ranks waiting on this one are proven in turn.
        let mut stuck = None;
        if !complete {
            // Wait for completion or abort. Completion is checked BEFORE
            // abort: an operation that finished must report success even
            // if the communicator was aborted an instant later (otherwise
            // a racing abort makes a rank believe its already-completed
            // iteration failed, and ranks enter recovery desynchronized
            // by one iteration). Abort in turn wins over a proof of the
            // hang: a torn-down job has nothing left to detect.
            loop {
                let slot = st.slots.get(&gen).ok_or_else(|| {
                    SimError::Protocol(format!("slot {gen} vanished on {}", self.id))
                })?;
                let data = match &slot.state {
                    SlotState::Done(_) => break,
                    SlotState::InFlight(data) => data,
                };
                if self.is_aborted() {
                    return Err(SimError::CollectiveAborted);
                }
                if stuck.is_some() || !self.lacks_gone_member(data) {
                    // Purely notify-driven wait: completion, abort, a
                    // rank going, and prune all notify under the state
                    // lock, so there is no lost-wakeup window and no poll
                    // quantum on the hot path.
                    st.parked += 1;
                    self.obs_cv.notify_all(); // Wake `wait_for_parked` observers.
                    self.cv.wait(&mut st);
                    st.parked -= 1;
                    continue;
                }
                // Proven hung. The rank stays in the collective — the
                // trainer sits in the hung call while its hang action works
                // (§3.2) — but says so once, with no lock held: marking
                // wakes the waiters of other communicators and the
                // observer takes locks of its own. Then it re-checks,
                // because the world moved on while the lock was dropped.
                drop(st);
                stuck = Some(self.liveness.hung(rank, || obs.collective_hung(ticket)));
                st = self.state.lock();
            }
        }
        self.pick_up(&mut st, pos, gen)
    }

    /// Member `pos` picks up the result of the completed generation `gen`.
    /// A data slot stays cached for replay until every member has
    /// committed past it, and this member has not: it is still in the
    /// generation. A recovery generation is never replayed: the last
    /// member to pick it up drops it, so it holds its result no longer
    /// than its slowest reader.
    fn pick_up(&self, st: &mut CommState, pos: usize, gen: u64) -> SimResult<Arc<Vec<f32>>> {
        let vanished = || SimError::Protocol(format!("slot {gen} vanished on {}", self.id));
        let slot = st.slots.get_mut(&gen).ok_or_else(vanished)?;
        let result = slot.result().cloned().ok_or_else(vanished)?;
        if let Some(owed) = slot.owed.get_mut(pos) {
            *owed = false;
            if !slot.owed.contains(&true) {
                st.slots.remove(&gen);
            }
        }
        Ok(result)
    }

    /// True when a generation in flight with contributions `data` can
    /// never complete: it still lacks the contribution of a member that is
    /// departed or stuck. One relaxed load while nobody is.
    fn lacks_gone_member(&self, data: &SlotData) -> bool {
        self.liveness.any_gone(
            (0..self.ranks.len())
                .filter(|p| !data.has_arrived(*p))
                .map(|p| self.ranks[p]),
        )
    }

    /// Installs/joins the slot for `gen` and records this member's
    /// contribution; returns `true` if the collective completed (this
    /// arrival was the last). Shared by the blocking protocol and the
    /// non-blocking offer path.
    #[allow(clippy::too_many_arguments)]
    fn arrive(
        &self,
        st: &mut simcore::sync::MutexGuard<'_, CommState>,
        pos: usize,
        rank: RankId,
        gen: u64,
        kind: CollKind,
        op: Option<ReduceOp>,
        root: Option<RankId>,
        contrib: Contribution<'_>,
        logical_bytes: Option<u64>,
    ) -> SimResult<bool> {
        let n = self.ranks.len();
        // An armed transient fault hits the victim's own next arrival at a
        // generation still in flight, whoever created its slot: the
        // victim's NCCL call fails and it never contributes, so the other
        // members stay parked at the barrier (a hang) until the job is
        // torn down.
        if st.pending_fault == Some(rank) && st.slots.get(&gen).and_then(Slot::result).is_none() {
            st.pending_fault = None;
            return Err(SimError::NetworkTransient);
        }
        // Install or join the slot for this generation.
        let slot = st.slots.entry(gen).or_insert_with(|| Slot {
            kind,
            op,
            root,
            logical_bytes: None,
            state: SlotState::InFlight(SlotData::new(kind, n)),
            owed: Vec::new(),
        });
        if slot.kind != kind || slot.op != op || slot.root != root {
            return Err(SimError::Protocol(format!(
                "mismatched collective at gen {gen} on {}: {:?} vs {:?}",
                self.id, slot.kind, kind
            )));
        }
        let SlotState::InFlight(data) = &mut slot.state else {
            // Completed between the caller's replay-cache check and the
            // state lock: the cached result serves this re-arrival.
            return Ok(true);
        };
        slot.logical_bytes = slot.logical_bytes.max(logical_bytes);
        let fold = &self.schedule.fold;
        let all_in = data.contribute(pos, contrib, op, n, fold.chunk_elems(), fold.workers)?;
        if !all_in {
            return Ok(false);
        }
        // Last arrival: take the data plane's result and drop the
        // contributions with the in-flight state (nothing reads them after
        // completion, and a rebuilt communicator adopting the slot must
        // not copy them); then charge the schedule's simulated cost as a
        // clock barrier, unless the transfer was charged as a whole
        // already, and wake the waiters.
        let root_pos = root.and_then(|r| self.member_pos(r));
        let result = data.take_result(kind, root_pos)?;
        slot.state = SlotState::Done(Arc::new(result));
        if gen >= RECOVERY_GEN_BASE {
            slot.owed = vec![true; n];
        }
        if let Some(bytes) = slot.logical_bytes {
            let cost = self
                .schedule
                .coll_cost(kind, bytes, || self.live_children());
            self.clock.barrier_sync(&self.clock_idx, cost);
        }
        self.cv.notify_all();
        Ok(true)
    }

    /// Non-blocking contribution to an all-reduce at `gen` on behalf of
    /// `rank`: records (or folds) the contribution and returns whether
    /// the collective completed, without ever parking the calling thread.
    ///
    /// This is the multiplexed data plane for large simulated worlds: one
    /// driver thread offers for thousands of ranks in member order — each
    /// in-order offer folds straight into the accumulator from the
    /// caller's slice (no per-rank buffer retention, no per-rank OS
    /// thread) — and collects the result via
    /// [`Communicator::try_result`]. Fault and abort semantics match the
    /// blocking path: an armed transient fault fails the victim's offer
    /// with [`SimError::NetworkTransient`].
    pub fn offer_reduce(
        &self,
        rank: RankId,
        gen: u64,
        data: &[f32],
        op: ReduceOp,
        logical_bytes: u64,
    ) -> SimResult<bool> {
        let pos = self.member_pos(rank).ok_or_else(|| {
            SimError::Protocol(format!(
                "{rank} is not a member of communicator {}",
                self.id
            ))
        })?;
        {
            let st = self.state.lock();
            if let Some(slot) = st.slots.get(&gen) {
                if slot.result().is_some() {
                    if slot.kind != CollKind::AllReduce
                        || slot.op != Some(op)
                        || slot.root.is_some()
                    {
                        return Err(SimError::Protocol(format!(
                            "replayed collective mismatch at gen {gen} on {}",
                            self.id
                        )));
                    }
                    return Ok(true);
                }
            }
        }
        if self.is_aborted() {
            return Err(SimError::CollectiveAborted);
        }
        let mut st = self.state.lock();
        let complete = self.arrive(
            &mut st,
            pos,
            rank,
            gen,
            CollKind::AllReduce,
            Some(op),
            None,
            Contribution::Borrowed(data),
            Some(logical_bytes),
        )?;
        drop(st);
        if complete {
            // The offered-driver fold point: the completing offer taps
            // the finalized result for every attached ledger.
            self.tap_gen(gen);
        }
        Ok(complete)
    }

    /// The completed result of generation `gen`, if any. `Ok(None)` means
    /// the collective is still in flight; an aborted communicator with an
    /// incomplete slot reports [`SimError::CollectiveAborted`].
    pub fn try_result(&self, gen: u64) -> SimResult<Option<Arc<Vec<f32>>>> {
        if let Some(result) = self.state.lock().slots.get(&gen).and_then(Slot::result) {
            return Ok(Some(result.clone()));
        }
        if self.is_aborted() {
            return Err(SimError::CollectiveAborted);
        }
        Ok(None)
    }

    /// All-reduce at sequence number `gen`: every rank contributes an
    /// equal-length vector, every rank receives the reduction.
    /// `logical_bytes` drives the cost model (phantom scaling).
    ///
    /// Delivery is shared: every rank receives the same immutable `Arc`
    /// of the result, never a private full-vector clone. That is the one
    /// delivery contract of every data collective here (reduce-scatter
    /// returns this rank's shard, which is its own by definition).
    pub fn all_reduce_shared(
        &self,
        rank: RankId,
        gen: u64,
        data: Vec<f32>,
        op: ReduceOp,
        logical_bytes: u64,
        obs: &dyn CollectiveObserver,
    ) -> SimResult<Arc<Vec<f32>>> {
        self.run(
            rank,
            gen,
            CollKind::AllReduce,
            Some(op),
            None,
            Some(data),
            Some(logical_bytes),
            obs,
        )
    }

    /// All-gather: concatenation of all contributions in rank order.
    pub fn all_gather_shared(
        &self,
        rank: RankId,
        gen: u64,
        data: Vec<f32>,
        logical_bytes: u64,
        obs: &dyn CollectiveObserver,
    ) -> SimResult<Arc<Vec<f32>>> {
        self.run(
            rank,
            gen,
            CollKind::AllGather,
            None,
            None,
            Some(data),
            Some(logical_bytes),
            obs,
        )
    }

    /// Reduce-scatter: reduce all contributions, then return this rank's
    /// equal shard (by member position). Contribution length must divide
    /// evenly by group size.
    pub fn reduce_scatter(
        &self,
        rank: RankId,
        gen: u64,
        data: Vec<f32>,
        op: ReduceOp,
        logical_bytes: u64,
        obs: &dyn CollectiveObserver,
    ) -> SimResult<Vec<f32>> {
        let res = self.run(
            rank,
            gen,
            CollKind::ReduceScatter,
            Some(op),
            None,
            Some(data),
            Some(logical_bytes),
            obs,
        )?;
        let n = self.ranks.len();
        let shard = res.len() / n;
        let pos = self.member_pos(rank).expect("membership checked");
        Ok(res[pos * shard..(pos + 1) * shard].to_vec())
    }

    /// Broadcast from `root`; non-root ranks pass `None`.
    #[allow(clippy::too_many_arguments)]
    pub fn broadcast_shared(
        &self,
        rank: RankId,
        gen: u64,
        root: RankId,
        data: Option<Vec<f32>>,
        logical_bytes: u64,
        obs: &dyn CollectiveObserver,
    ) -> SimResult<Arc<Vec<f32>>> {
        self.run(
            rank,
            gen,
            CollKind::Broadcast,
            None,
            Some(root),
            data,
            Some(logical_bytes),
            obs,
        )
    }

    /// One part of a transfer from `root` cut into broadcasts, after a
    /// [`Communicator::broadcast_shared`] that charged the whole of it:
    /// the same matched protocol, but no clock barrier and no charge, so
    /// the parts leave every member's clock where that broadcast left it.
    /// Non-root ranks pass `None`.
    pub fn broadcast_part(
        &self,
        rank: RankId,
        gen: u64,
        root: RankId,
        data: Option<Vec<f32>>,
        obs: &dyn CollectiveObserver,
    ) -> SimResult<Arc<Vec<f32>>> {
        let kind = CollKind::Broadcast;
        self.run(rank, gen, kind, None, Some(root), data, None, obs)
    }

    /// Barrier across the group.
    pub fn barrier(&self, rank: RankId, gen: u64, obs: &dyn CollectiveObserver) -> SimResult<()> {
        self.run(rank, gen, CollKind::Barrier, None, None, None, Some(0), obs)?;
        Ok(())
    }

    /// Rendezvous: the communicator-initialization barrier, costed as the
    /// NCCL bootstrap (the dominant step in Table 7's recovery breakdown).
    /// A parent rendezvous also bootstraps its live child groups — see
    /// `CommWorld::split_comm`.
    pub fn rendezvous(
        &self,
        rank: RankId,
        gen: u64,
        obs: &dyn CollectiveObserver,
    ) -> SimResult<()> {
        self.run(
            rank,
            gen,
            CollKind::Rendezvous,
            None,
            None,
            None,
            Some(0),
            obs,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::RingConfig;
    use std::thread;
    use std::time::{Duration, Instant};

    impl Communicator {
        /// Creates a communicator over `ranks` outside any [`crate::CommWorld`]:
        /// its liveness table is its own and nobody departs from it, so its
        /// hangs are never proven.
        fn new(
            id: CommId,
            ranks: Vec<RankId>,
            clock_idx: Vec<usize>,
            ranks_per_node: usize,
            clock: Arc<ClockBoard>,
            cost: CostModel,
        ) -> Arc<Self> {
            let private = Arc::new(Liveness::new(Weak::new()));
            Self::in_world(id, ranks, clock_idx, ranks_per_node, clock, cost, private)
        }

        /// Blocks until at least `n` member threads are parked inside a
        /// collective wait, or `timeout` elapses (returns `false` on
        /// timeout). This is the §3.1 hang signature made observable:
        /// harnesses and tests wait on the same condvar the parked ranks
        /// use instead of sleeping an arbitrary wall-clock interval and
        /// hoping the ranks have arrived.
        pub(crate) fn wait_for_parked(&self, n: usize, timeout: Duration) -> bool {
            let deadline = Instant::now() + timeout;
            let mut st = self.state.lock();
            while st.parked < n {
                let now = Instant::now();
                if now >= deadline {
                    return false;
                }
                self.obs_cv.wait_for(&mut st, deadline - now);
            }
            true
        }
    }

    fn make_comm(n: usize) -> Arc<Communicator> {
        let clock = Arc::new(ClockBoard::new(n));
        Communicator::new(
            CommId(0),
            (0..n).map(|i| RankId(i as u32)).collect(),
            (0..n).collect(),
            8,
            clock,
            CostModel::v100(),
        )
    }

    fn spawn_ranks<F, R>(n: usize, f: F) -> Vec<SimResult<R>>
    where
        F: Fn(usize) -> SimResult<R> + Send + Sync + 'static,
        R: Send + 'static,
    {
        let f = Arc::new(f);
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let f = f.clone();
                thread::spawn(move || f(i))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let comm = make_comm(4);
        let c = comm.clone();
        let results = spawn_ranks(4, move |i| {
            c.all_reduce_shared(
                RankId(i as u32),
                0,
                vec![i as f32, 1.0],
                ReduceOp::Sum,
                8,
                &NullObserver,
            )
        });
        for r in results {
            assert_eq!(*r.unwrap(), vec![6.0, 4.0]);
        }
    }

    #[test]
    fn all_reduce_avg() {
        let comm = make_comm(2);
        let c = comm.clone();
        let results = spawn_ranks(2, move |i| {
            c.all_reduce_shared(
                RankId(i as u32),
                0,
                vec![(i * 2) as f32],
                ReduceOp::Avg,
                4,
                &NullObserver,
            )
        });
        for r in results {
            assert_eq!(*r.unwrap(), vec![1.0]);
        }
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let comm = make_comm(3);
        let c = comm.clone();
        let results = spawn_ranks(3, move |i| {
            c.all_gather_shared(RankId(i as u32), 0, vec![i as f32], 4, &NullObserver)
        });
        for r in results {
            assert_eq!(*r.unwrap(), vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn reduce_scatter_shards() {
        let comm = make_comm(2);
        let c = comm.clone();
        let results: Vec<_> = spawn_ranks(2, move |i| {
            c.reduce_scatter(
                RankId(i as u32),
                0,
                vec![1.0, 2.0, 3.0, 4.0],
                ReduceOp::Sum,
                16,
                &NullObserver,
            )
            .map(|v| (i, v))
        });
        for r in results {
            let (i, v) = r.unwrap();
            if i == 0 {
                assert_eq!(v, vec![2.0, 4.0]);
            } else {
                assert_eq!(v, vec![6.0, 8.0]);
            }
        }
    }

    #[test]
    fn broadcast_from_root() {
        let comm = make_comm(3);
        let c = comm.clone();
        let results = spawn_ranks(3, move |i| {
            let data = if i == 1 { Some(vec![7.0, 8.0]) } else { None };
            c.broadcast_shared(RankId(i as u32), 0, RankId(1), data, 8, &NullObserver)
        });
        for r in results {
            assert_eq!(*r.unwrap(), vec![7.0, 8.0]);
        }
    }

    #[test]
    fn missing_rank_hangs_until_abort() {
        // Rank 1 never arrives; ranks 0 and 2 must block, then an abort
        // releases them with CollectiveAborted — the §3.1 hang signature.
        let comm = make_comm(3);
        let c0 = comm.clone();
        let h0 = thread::spawn(move || {
            c0.all_reduce_shared(RankId(0), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
        });
        let c2 = comm.clone();
        let h2 = thread::spawn(move || {
            c2.all_reduce_shared(RankId(2), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
        });
        assert!(comm.wait_for_parked(2, Duration::from_secs(5)));
        assert!(!h0.is_finished(), "rank 0 must be parked at the barrier");
        assert!(!h2.is_finished(), "rank 2 must be parked at the barrier");
        comm.abort();
        assert_eq!(h0.join().unwrap().unwrap_err(), SimError::CollectiveAborted);
        assert_eq!(h2.join().unwrap().unwrap_err(), SimError::CollectiveAborted);
    }

    /// Both cost schedules, with a fold chunk that cuts tiny payloads
    /// into many chunks.
    fn engines() -> [CollEngine; 2] {
        let fold = RingConfig {
            chunk_bytes: 8,
            workers: 2,
        };
        [CollEngine::Ring(fold), CollEngine::Hier(fold)]
    }

    #[test]
    fn hang_and_abort_observables_are_engine_invariant() {
        // A schedule only prices the collective; a rank failing mid-step
        // must leave peers with the rendezvous's §3.1 observables under
        // either — parked at the barrier, then released by abort with
        // CollectiveAborted.
        for engine in engines() {
            let comm = make_comm(3).set_engine(engine);
            let c0 = comm.clone();
            let h0 = thread::spawn(move || {
                c0.all_reduce_shared(
                    RankId(0),
                    0,
                    vec![1.0; 16],
                    ReduceOp::Sum,
                    64,
                    &NullObserver,
                )
            });
            let c2 = comm.clone();
            let h2 = thread::spawn(move || {
                c2.all_reduce_shared(
                    RankId(2),
                    0,
                    vec![1.0; 16],
                    ReduceOp::Sum,
                    64,
                    &NullObserver,
                )
            });
            assert!(comm.wait_for_parked(2, Duration::from_secs(5)));
            assert!(!h0.is_finished(), "rank 0 must be parked ({engine:?})");
            assert!(!h2.is_finished(), "rank 2 must be parked ({engine:?})");
            comm.abort();
            assert_eq!(h0.join().unwrap().unwrap_err(), SimError::CollectiveAborted);
            assert_eq!(h2.join().unwrap().unwrap_err(), SimError::CollectiveAborted);
        }
    }

    #[test]
    fn transient_fault_errors_victim_and_hangs_peers() {
        let comm = make_comm(2);
        comm.inject_transient_fault(RankId(0));
        // Victim gets the NCCL error immediately.
        let c0 = comm.clone();
        let h0 = thread::spawn(move || {
            c0.all_reduce_shared(RankId(0), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
        });
        assert_eq!(h0.join().unwrap().unwrap_err(), SimError::NetworkTransient);
        // The peer hangs at the barrier until aborted.
        let c1 = comm.clone();
        let h1 = thread::spawn(move || {
            c1.all_reduce_shared(RankId(1), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
        });
        assert!(comm.wait_for_parked(1, Duration::from_secs(5)));
        assert!(!h1.is_finished(), "peer must hang");
        comm.abort();
        assert_eq!(h1.join().unwrap().unwrap_err(), SimError::CollectiveAborted);
    }

    #[test]
    fn transient_fault_hits_the_victims_arrival_even_after_a_peers() {
        // The interleaving that used to push the fault one generation on:
        // the peer creates generation 0 and parks, the fault is armed, and
        // only then does the victim arrive at generation 0.
        let comm = make_comm(2);
        let c1 = comm.clone();
        let h1 = thread::spawn(move || {
            c1.all_reduce_shared(RankId(1), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
        });
        assert!(comm.wait_for_parked(1, Duration::from_secs(5)));
        comm.inject_transient_fault(RankId(0));
        let err = comm
            .all_reduce_shared(RankId(0), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
            .unwrap_err();
        assert_eq!(err, SimError::NetworkTransient);
        assert!(comm.wait_for_parked(1, Duration::from_secs(5)));
        assert!(!h1.is_finished(), "the peer hangs at generation 0");
        assert_eq!(comm.completed_slots(), 0);
        assert!(
            !comm.state.lock().slots.contains_key(&1),
            "the fault did not move on to generation 1"
        );
        comm.abort();
        assert_eq!(h1.join().unwrap().unwrap_err(), SimError::CollectiveAborted);
    }

    #[test]
    fn completion_wins_over_a_simultaneous_departure() {
        // The root's broadcast completes the generation and the root is
        // gone by the time the parked rank looks again. A completed parked
        // slot has given its root's buffer away, so a rank that looked for
        // missing members first would take the root for one.
        struct Never;
        impl CollectiveObserver for Never {
            fn collective_started(&self, _: &CollectiveTicket) {}
            fn collective_finished(&self, _: &CollectiveTicket) {}
            fn collective_hung(&self, t: &CollectiveTicket) {
                panic!("a completed collective reported hung: {t:?}");
            }
        }
        let world = crate::CommWorld::new(Arc::new(ClockBoard::new(2)), CostModel::v100(), 8);
        let comm = world.create_comm(vec![RankId(0), RankId(1)], vec![0, 1]);
        let c0 = comm.clone();
        let h0 =
            thread::spawn(move || c0.broadcast_shared(RankId(0), 0, RankId(1), None, 4, &Never));
        assert!(comm.wait_for_parked(1, Duration::from_secs(5)));
        let gone = {
            // Hold rank 0 back (it needs this lock to wake up) until the
            // generation is complete *and* the root has been marked.
            let mut st = comm.state.lock();
            let done = comm
                .arrive(
                    &mut st,
                    1,
                    RankId(1),
                    0,
                    CollKind::Broadcast,
                    None,
                    Some(RankId(1)),
                    Contribution::Data(vec![7.0]),
                    Some(4),
                )
                .unwrap();
            assert!(done);
            let guard = world.departure_guard(RankId(1));
            let gone = thread::spawn(move || drop(guard));
            while !comm.liveness.any_gone(std::iter::once(RankId(1))) {
                thread::yield_now();
            }
            gone
        };
        assert_eq!(*h0.join().unwrap().unwrap(), vec![7.0]);
        gone.join().unwrap();
    }

    #[test]
    fn transient_fault_is_one_shot() {
        let comm = make_comm(2);
        comm.inject_transient_fault(RankId(0));
        // Victim consumes the fault...
        let c0 = comm.clone();
        let h0 = thread::spawn(move || {
            c0.all_reduce_shared(RankId(0), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
        });
        assert!(h0.join().unwrap().is_err());
        // ...but peers of that generation are parked; use a fresh comm
        // (recovery recreates communicators) to check the fault cleared.
        let comm2 = make_comm(2);
        let c = comm2.clone();
        let results = spawn_ranks(2, move |i| {
            c.all_reduce_shared(
                RankId(i as u32),
                0,
                vec![1.0],
                ReduceOp::Sum,
                4,
                &NullObserver,
            )
        });
        for r in results {
            assert_eq!(*r.unwrap(), vec![2.0]);
        }
    }

    #[test]
    fn completion_advances_all_clocks_past_barrier() {
        let n = 2;
        let clock = Arc::new(ClockBoard::new(n));
        clock.raise_to(0, simcore::SimTime::from_secs(1.0));
        clock.raise_to(1, simcore::SimTime::from_secs(3.0));
        let comm = Communicator::new(
            CommId(0),
            vec![RankId(0), RankId(1)],
            vec![0, 1],
            8,
            clock.clone(),
            CostModel::v100(),
        );
        let c = comm.clone();
        spawn_ranks(2, move |i| {
            c.all_reduce_shared(
                RankId(i as u32),
                0,
                vec![0.0; 256],
                ReduceOp::Sum,
                1 << 20,
                &NullObserver,
            )
        })
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        // Both clocks equal and past the straggler's arrival time.
        let t0 = clock.now(0).as_secs();
        let t1 = clock.now(1).as_secs();
        assert!((t0 - t1).abs() < 1e-12);
        assert!(t0 > 3.0);
    }

    #[test]
    fn consecutive_collectives_use_fresh_generations() {
        let comm = make_comm(2);
        for round in 0..5 {
            let c = comm.clone();
            let results = spawn_ranks(2, move |i| {
                c.all_reduce_shared(
                    RankId(i as u32),
                    round as u64,
                    vec![(round + i) as f32],
                    ReduceOp::Sum,
                    4,
                    &NullObserver,
                )
            });
            for r in results {
                assert_eq!(*r.unwrap(), vec![(2 * round + 1) as f32]);
            }
        }
    }

    #[test]
    fn non_member_rank_is_rejected() {
        let comm = make_comm(2);
        let err = comm
            .all_reduce_shared(RankId(9), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
            .unwrap_err();
        assert!(matches!(err, SimError::Protocol(_)));
    }

    #[test]
    fn aborted_comm_rejects_new_operations() {
        let comm = make_comm(2);
        comm.abort();
        let err = comm.barrier(RankId(0), 0, &NullObserver).unwrap_err();
        assert_eq!(err, SimError::CollectiveAborted);
    }

    #[test]
    fn rendezvous_charges_comm_init_cost() {
        let n = 2;
        let clock = Arc::new(ClockBoard::new(n));
        let comm = Communicator::new(
            CommId(0),
            vec![RankId(0), RankId(1)],
            vec![0, 1],
            8,
            clock.clone(),
            CostModel::v100(),
        );
        let c = comm.clone();
        spawn_ranks(2, move |i| c.rendezvous(RankId(i as u32), 0, &NullObserver))
            .into_iter()
            .for_each(|r| r.unwrap());
        // comm_init for V100 is 1.0 s.
        assert!((clock.now(0).as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn offered_reduce_completes_without_blocking() {
        // One driver thread contributes for every rank via the offer API:
        // out-of-order offers park, in-order offers fold, and the result
        // is bit-identical to the blocking path's member-order fold.
        for engine in engines() {
            let comm = make_comm(4).set_engine(engine);
            let rows: Vec<Vec<f32>> = (0..4)
                .map(|r| (0..33).map(|i| (r * 33 + i) as f32 * 0.13).collect())
                .collect();
            let mut expect = rows[0].clone();
            for row in &rows[1..] {
                for (a, b) in expect.iter_mut().zip(row) {
                    *a += b;
                }
            }
            for r in [2usize, 0, 3] {
                assert!(
                    !comm
                        .offer_reduce(RankId(r as u32), 0, &rows[r], ReduceOp::Sum, 132)
                        .unwrap(),
                    "incomplete until the last member offers ({engine:?})"
                );
                assert!(comm.try_result(0).unwrap().is_none());
            }
            assert!(comm
                .offer_reduce(RankId(1), 0, &rows[1], ReduceOp::Sum, 132)
                .unwrap());
            let got = comm.try_result(0).unwrap().expect("completed");
            assert_eq!(
                got.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "offer path must match the blocking fold ({engine:?})"
            );
            // Replayed offers are served from the completed slot.
            assert!(comm
                .offer_reduce(RankId(2), 0, &rows[2], ReduceOp::Sum, 132)
                .unwrap());
        }
    }

    #[test]
    fn offered_reduce_respects_transient_fault() {
        let comm = make_comm(2);
        comm.inject_transient_fault(RankId(1));
        assert!(!comm
            .offer_reduce(RankId(0), 0, &[1.0], ReduceOp::Sum, 4)
            .unwrap());
        let err = comm
            .offer_reduce(RankId(1), 0, &[1.0], ReduceOp::Sum, 4)
            .unwrap_err();
        assert_eq!(err, SimError::NetworkTransient);
        // The slot can never complete; abort surfaces through try_result.
        comm.abort();
        assert_eq!(comm.try_result(0).unwrap_err(), SimError::CollectiveAborted);
    }

    #[test]
    fn attached_ledgers_add_no_virtual_time() {
        // The in-network tap is a refcount bump after the generation
        // finalizes, never a step of the schedule: the same all-reduce
        // advances the clocks by the same amount with a ledger on every
        // member, and every ledger retains its shard of the result.
        let run = |tap: bool| {
            let n = 4;
            let clock = Arc::new(ClockBoard::new(n));
            let ranks: Vec<RankId> = (0..n).map(|i| RankId(i as u32)).collect();
            let comm = Communicator::new(
                CommId(0),
                ranks.clone(),
                (0..n).collect(),
                8,
                clock.clone(),
                CostModel::v100(),
            );
            let mut ledgers = Vec::new();
            if tap {
                for r in &ranks {
                    let l = GradLedger::new(crate::LedgerConfig::default());
                    comm.attach_ledger(*r, l.clone()).unwrap();
                    ledgers.push(l);
                }
            }
            for r in &ranks {
                comm.offer_reduce(*r, 0, &[1.0; 64], ReduceOp::Sum, 1 << 20)
                    .unwrap();
            }
            assert!(comm.try_result(0).unwrap().is_some());
            (clock.now(0), ledgers)
        };
        let (untapped, _) = run(false);
        let (tapped, ledgers) = run(true);
        assert!(untapped > simcore::SimTime::ZERO);
        assert_eq!(tapped, untapped);
        assert!(ledgers.iter().all(|l| l.pinned_bytes() > 0));
    }

    /// Completes all-reduce generations `gens` on a two-member
    /// communicator from one thread, each member contributing `gen` and
    /// `gen + 0.5`.
    fn complete(comm: &Communicator, gens: std::ops::Range<u64>) {
        for gen in gens {
            for (r, v) in [(0u32, gen as f32), (1, gen as f32 + 0.5)] {
                comm.offer_reduce(RankId(r), gen, &[v, -v], ReduceOp::Sum, 8)
                    .unwrap();
            }
            assert!(comm.try_result(gen).unwrap().is_some());
        }
    }

    fn cached_gens(comm: &Communicator) -> Vec<u64> {
        let mut gens: Vec<u64> = comm.state.lock().slots.keys().copied().collect();
        gens.sort_unstable();
        gens
    }

    #[test]
    fn commit_floor_drops_completed_slots_below_the_minimum_of_the_members() {
        let comm = make_comm(2);
        complete(&comm, 0..6);
        // One member past generation 4: its peer may still replay from 0.
        comm.commit(RankId(0), 4);
        assert_eq!(cached_gens(&comm), (0..6).collect::<Vec<_>>());
        // Both past generation 3: the minimum floor is 3.
        comm.commit(RankId(1), 3);
        assert_eq!(cached_gens(&comm), vec![3, 4, 5]);
        comm.commit(RankId(1), 6);
        assert_eq!(cached_gens(&comm), vec![4, 5]);
        // A non-member's commit changes nothing.
        comm.commit(RankId(7), 100);
        assert_eq!(comm.completed_slots(), 2);
    }

    #[test]
    fn a_member_a_minibatch_behind_is_still_served_its_results_bit_for_bit() {
        // Minibatch A is generations 0..2, minibatch B 2..4. Member 0 has
        // begun the minibatch after B; member 1 was rolled back to B's
        // start and replays it alone.
        let comm = make_comm(2);
        complete(&comm, 0..4);
        let served: Vec<Arc<Vec<f32>>> = (2..4)
            .map(|g| comm.try_result(g).unwrap().unwrap())
            .collect();
        comm.commit(RankId(0), 4);
        comm.commit(RankId(1), 2);
        assert_eq!(cached_gens(&comm), vec![2, 3]);
        for (gen, want) in (2..4).zip(&served) {
            let got = comm
                .all_reduce_shared(
                    RankId(1),
                    gen,
                    vec![0.0; 2],
                    ReduceOp::Sum,
                    8,
                    &NullObserver,
                )
                .unwrap();
            assert!(Arc::ptr_eq(&got, want), "gen {gen} is the cached result");
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            let v = gen as f32;
            assert_eq!(bits(&got), bits(&[v + (v + 0.5), -v + -(v + 0.5)]));
        }
    }

    #[test]
    fn a_slot_in_flight_is_never_pruned() {
        let comm = make_comm(2);
        complete(&comm, 0..2);
        assert!(!comm
            .offer_reduce(RankId(0), 2, &[1.0], ReduceOp::Sum, 4)
            .unwrap());
        comm.commit(RankId(0), 5);
        comm.commit(RankId(1), 5);
        assert_eq!(cached_gens(&comm), vec![2], "only the generation in flight");
        assert_eq!(comm.completed_slots(), 0);
        assert!(comm
            .offer_reduce(RankId(1), 2, &[2.0], ReduceOp::Sum, 4)
            .unwrap());
        assert_eq!(*comm.try_result(2).unwrap().unwrap(), vec![3.0]);
    }

    #[test]
    fn adopted_slots_stay_until_every_member_commits_on_the_adopter() {
        let old = make_comm(2);
        complete(&old, 0..4);
        old.commit(RankId(0), 2);
        old.commit(RankId(1), 2);
        let fresh = make_comm(2);
        fresh.adopt_completed_from(&old);
        assert_eq!(cached_gens(&fresh), vec![2, 3]);
        fresh.commit(RankId(0), 4);
        assert_eq!(
            cached_gens(&fresh),
            vec![2, 3],
            "member 1 has not committed"
        );
        fresh.commit(RankId(1), 4);
        assert!(cached_gens(&fresh).is_empty());
    }

    /// A recovery round's replica-sync and rendezvous generations.
    const SYNC: u64 = RECOVERY_GEN_BASE;
    const RENDEZVOUS: u64 = RECOVERY_GEN_BASE << 1;

    #[test]
    fn adoption_carries_data_slots_and_no_recovery_slot() {
        let old = make_comm(2);
        complete(&old, 0..2);
        complete(&old, SYNC..SYNC + 1);
        complete(&old, RENDEZVOUS..RENDEZVOUS + 2);
        let fresh = make_comm(2);
        fresh.adopt_completed_from(&old);
        assert_eq!(cached_gens(&fresh), vec![0, 1]);
        assert_eq!(old.completed_slots(), 5, "the predecessor keeps its own");
    }

    #[test]
    fn releasing_drops_only_completed_recovery_slots() {
        let comm = make_comm(2);
        complete(&comm, 0..2);
        complete(&comm, SYNC..SYNC + 1);
        complete(&comm, RENDEZVOUS..RENDEZVOUS + 1);
        // Recovery generations in flight on one member: never dropped.
        for gen in [SYNC + 1, RENDEZVOUS + 1] {
            assert!(!comm
                .offer_reduce(RankId(0), gen, &[1.0], ReduceOp::Sum, 4)
                .unwrap());
        }
        assert_eq!(comm.release_recovery_slots(), 2);
        assert_eq!(cached_gens(&comm), vec![0, 1, SYNC + 1, RENDEZVOUS + 1]);
        assert_eq!(comm.release_recovery_slots(), 0, "nothing left to drop");
        assert!(comm
            .offer_reduce(RankId(1), SYNC + 1, &[2.0], ReduceOp::Sum, 4)
            .unwrap());
        assert_eq!(*comm.try_result(SYNC + 1).unwrap().unwrap(), vec![3.0]);
        // Data slots stay served bit for bit.
        assert_eq!(*comm.try_result(1).unwrap().unwrap(), vec![2.5, -2.5]);
    }

    #[test]
    fn an_adopter_prunes_as_soon_as_the_member_that_lagged_commits() {
        // Member 0 began the minibatch after generations 2..4 on the
        // predecessor; member 1, still in that one, holds them cached.
        let old = make_comm(2);
        complete(&old, 0..6);
        old.commit(RankId(0), 4);
        old.commit(RankId(1), 2);
        assert_eq!(cached_gens(&old), vec![2, 3, 4, 5]);
        let fresh = make_comm(2);
        fresh.adopt_completed_from(&old);
        assert_eq!(cached_gens(&fresh), vec![2, 3, 4, 5]);
        // Member 1 catches up; member 0 commits here only a minibatch
        // later, but its floor came along.
        fresh.commit(RankId(1), 4);
        assert_eq!(cached_gens(&fresh), vec![4, 5]);
    }

    #[test]
    fn a_recovery_slot_is_dropped_by_its_last_reader() {
        let comm = make_comm(2);
        let c = comm.clone();
        for r in spawn_ranks(2, move |i| {
            let (rank, data) = (RankId(i as u32), (i == 0).then(|| vec![5.0]));
            c.broadcast_shared(rank, 0, RankId(0), data.clone(), 4, &NullObserver)?;
            c.broadcast_shared(rank, SYNC, RankId(0), data, 4, &NullObserver)
        }) {
            assert_eq!(*r.unwrap(), vec![5.0]);
        }
        assert_eq!(
            cached_gens(&comm),
            vec![0],
            "the data slot stays for replay"
        );
        // Both members arrive at a recovery generation; only member 0
        // has picked its result up.
        let mut st = comm.state.lock();
        for pos in 0..2 {
            let data = match pos {
                0 => Contribution::Data(vec![6.0]),
                _ => Contribution::Empty,
            };
            let (rank, kind, root) = (RankId(pos as u32), CollKind::Broadcast, Some(RankId(0)));
            comm.arrive(
                &mut st,
                pos,
                rank,
                SYNC + 1,
                kind,
                None,
                root,
                data,
                Some(4),
            )
            .unwrap();
        }
        for _ in 0..2 {
            assert_eq!(*comm.pick_up(&mut st, 0, SYNC + 1).unwrap(), vec![6.0]);
            assert!(st.slots.contains_key(&(SYNC + 1)), "still owed to member 1");
        }
        assert_eq!(*comm.pick_up(&mut st, 1, SYNC + 1).unwrap(), vec![6.0]);
        assert!(!st.slots.contains_key(&(SYNC + 1)));
    }

    #[test]
    fn a_parted_broadcast_moves_the_clocks_as_one_broadcast_of_the_whole() {
        let parts: [Vec<f32>; 3] = [vec![1.0, -0.0], vec![f32::NAN; 3], vec![2.5]];
        let whole: Vec<f32> = parts.concat();
        let bytes = 4 * whole.len() as u64 * 1000;
        // Clocks apart before the transfer; member 1 is the root.
        let run = |parted: bool| {
            let clock = Arc::new(ClockBoard::new(2));
            clock.raise_to(0, simcore::SimTime::from_secs(1.0));
            clock.raise_to(1, simcore::SimTime::from_secs(3.0));
            let comm = Communicator::new(
                CommId(0),
                vec![RankId(0), RankId(1)],
                vec![0, 1],
                8,
                clock.clone(),
                CostModel::v100(),
            );
            let (c, parts, all) = (comm.clone(), parts.clone(), whole.clone());
            let got = spawn_ranks(2, move |i| {
                let (rank, root, is_root) = (RankId(i as u32), RankId(1), i == 1);
                if !parted {
                    let data = is_root.then(|| all.clone());
                    return c.broadcast_shared(rank, SYNC, root, data, bytes, &NullObserver);
                }
                let head = is_root.then(|| vec![parts.len() as f32]);
                c.broadcast_shared(rank, SYNC, root, head, bytes, &NullObserver)?;
                let mut got = Vec::new();
                for (k, part) in parts.iter().enumerate() {
                    let data = is_root.then(|| part.clone());
                    let gen = SYNC + 1 + k as u64;
                    got.extend_from_slice(&c.broadcast_part(
                        rank,
                        gen,
                        root,
                        data,
                        &NullObserver,
                    )?);
                }
                Ok(Arc::new(got))
            });
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            let got: Vec<Vec<u32>> = got.into_iter().map(|r| bits(&r.unwrap())).collect();
            assert_eq!(got, vec![bits(&whole); 2], "parted {parted}");
            assert!(cached_gens(&comm).is_empty(), "parted {parted}");
            [0, 1].map(|i| clock.now(i).as_secs().to_bits())
        };
        let (one, parted) = (run(false), run(true));
        assert!(f64::from_bits(one[0]) > 3.0);
        assert_eq!(one, parted);
    }

    #[test]
    fn a_completed_all_gather_holds_only_its_result() {
        // The gather's inputs are dead once it completes: the slot keeps
        // the result alone, and a rebuilt communicator adopting it shares
        // that result instead of copying any payload.
        let comm = make_comm(2);
        {
            let mut st = comm.state.lock();
            for pos in 0..2 {
                let data = Contribution::Data(vec![pos as f32; 3]);
                let (rank, kind) = (RankId(pos as u32), CollKind::AllGather);
                comm.arrive(&mut st, pos, rank, 0, kind, None, None, data, Some(12))
                    .unwrap();
            }
            let slot = &st.slots[&0];
            assert!(
                matches!(&slot.state, SlotState::Done(r) if **r == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
            );
        }
        let fresh = make_comm(2);
        fresh.adopt_completed_from(&comm);
        let (a, b) = (
            comm.try_result(0).unwrap().unwrap(),
            fresh.try_result(0).unwrap().unwrap(),
        );
        assert!(Arc::ptr_eq(&a, &b), "adoption shares the result");
        assert_eq!(
            Arc::strong_count(&a),
            4,
            "two slots and the two handles above"
        );
    }

    #[test]
    fn hier_engine_charges_two_level_cost() {
        // 16 ranks over 2 nodes of 8: the hier schedule must advance the
        // clocks by exactly hier_all_reduce(bytes, [8, 8]) — cheaper than
        // the flat ring, whose 2·15 steps all pay the NIC.
        let n = 16;
        let cost = CostModel::v100();
        let bytes = 4u64 << 20;
        let clock = Arc::new(ClockBoard::new(n));
        let comm = Communicator::new(
            CommId(0),
            (0..n).map(|i| RankId(i as u32)).collect(),
            (0..n).collect(),
            8,
            clock.clone(),
            cost.clone(),
        )
        .set_engine(CollEngine::Hier(RingConfig {
            chunk_bytes: 1024,
            workers: 2,
        }));
        let c = comm.clone();
        spawn_ranks(n, move |i| {
            c.all_reduce_shared(
                RankId(i as u32),
                0,
                vec![1.0; 64],
                ReduceOp::Sum,
                bytes,
                &NullObserver,
            )
        })
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        let want = cost.hier_all_reduce(bytes, &[8, 8]).as_secs();
        let flat = cost.ring_all_reduce(bytes, n, 2).as_secs();
        let got = clock.now(0).as_secs();
        assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
        assert!(want < flat, "hier ({want}) must beat flat ring ({flat})");
    }

    #[test]
    fn set_topology_rederives_hier_schedule() {
        // Scattered placement [0,1,0,1]: no intra-node neighbors, so the
        // hier schedule degenerates to a 2-wide leader ring over 2-rank
        // nodes — derived from the real assignment, not the contiguous
        // heuristic (which would call ranks 0..3 one node).
        let n = 4;
        let cost = CostModel::v100();
        let bytes = 1u64 << 20;
        let clock = Arc::new(ClockBoard::new(n));
        let comm = Communicator::new(
            CommId(0),
            (0..n).map(|i| RankId(i as u32)).collect(),
            (0..n).collect(),
            8,
            clock.clone(),
            cost.clone(),
        )
        .set_engine(CollEngine::Hier(RingConfig {
            chunk_bytes: 1024,
            workers: 2,
        }))
        .set_topology(vec![0, 1, 0, 1]);
        assert_eq!(comm.node_assignment(), &[0, 1, 0, 1]);
        let c = comm.clone();
        spawn_ranks(n, move |i| {
            c.all_reduce_shared(
                RankId(i as u32),
                0,
                vec![1.0; 16],
                ReduceOp::Sum,
                bytes,
                &NullObserver,
            )
        })
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        let want = cost.hier_all_reduce(bytes, &[2, 2]).as_secs();
        let got = clock.now(0).as_secs();
        assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
    }
}
