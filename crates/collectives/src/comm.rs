//! Communicators and collective operations.
//!
//! A [`Communicator`] is the NCCL-communicator equivalent: a fixed group of
//! ranks that issue matching collective calls in the same order. The
//! implementation gives the operations their real distributed-systems
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
//! Operations are **generation-addressed and idempotent**: the caller (the
//! interception layer) supplies each operation's sequence number `gen`,
//! contributions overwrite identically on re-arrival, and completed slots
//! stay cached. This is what makes replay-based recovery consistent when
//! pipeline stages sit in *different* minibatches at failure time: a rank
//! replaying an already-completed collective is served the cached result
//! without its peers — who may have legitimately moved on — having to
//! re-participate, while a retried incomplete collective reuses its
//! generation and pairs with peers' retries. A re-created communicator
//! adopts its predecessor's completed-slot cache
//! ([`Communicator::adopt_completed_from`]).
//!
//! ## Slot storage: parked vs streaming
//!
//! The reference [`CollEngine::Slot`] engine (and the gather/broadcast/
//! barrier kinds under every engine) *parks* each contribution in a
//! member-position-indexed table and reduces once, when the last member
//! arrives. Reductions under the ring and hierarchical engines instead
//! *stream*: contributions are folded into a single accumulator eagerly,
//! in member order, the moment their turn comes — out-of-order arrivals
//! park only until the member-order prefix reaches them. Peak memory per
//! in-flight reduction drops from `n` buffers to one accumulator plus the
//! out-of-order window, which is what lets a 2048-rank world run without
//! holding 2048 parked 4 MiB buffers (or 2048 OS threads — see
//! [`Communicator::offer_reduce`]). Both paths accumulate elementwise in
//! strict member order, so they are bit-identical (DESIGN.md §11).

use crate::ledger::GradLedger;
use crate::liveness::Liveness;
use crate::observer::{CollectiveObserver, CollectiveTicket};
use crate::ring::{self, CollEngine};
use crate::world::CommId;
use simcore::cost::CostModel;
use simcore::sync::{Condvar, Mutex};
use simcore::time::ClockBoard;
use simcore::{RankId, SimError, SimResult};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

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

/// How a rank hands its buffer to a collective.
enum Contribution<'a> {
    /// Owned buffer (the blocking API) — moved into the slot, or consumed
    /// as the streaming accumulator without a copy.
    Data(Vec<f32>),
    /// Caller-owned slice (the non-blocking offer API) — folded in place
    /// when its member-order turn has come, copied only if it must park.
    Borrowed(&'a [f32]),
    /// No payload (barrier, rendezvous, non-root broadcast).
    Empty,
}

impl Contribution<'_> {
    fn into_parked(self) -> Option<Vec<f32>> {
        match self {
            Contribution::Data(v) => Some(v),
            Contribution::Borrowed(s) => Some(s.to_vec()),
            Contribution::Empty => None,
        }
    }
}

/// Per-generation contribution storage, indexed by **member position**
/// (position in the communicator's `ranks` list — the canonical reduction
/// order, which for split groups need not be sorted-RankId order).
#[derive(Clone)]
enum SlotData {
    /// Every contribution held until the last arrival (outer `None` = not
    /// arrived; inner `None` = an arrival without payload).
    Parked {
        contribs: Vec<Option<Option<Vec<f32>>>>,
        arrived: usize,
    },
    /// Eager member-order fold: `acc` holds ranks `0..folded` already
    /// reduced; out-of-order arrivals park in `parked` (keyed by member
    /// position) until the fold front reaches them.
    Streaming {
        acc: Vec<f32>,
        folded: usize,
        parked: BTreeMap<usize, Vec<f32>>,
    },
}

#[derive(Clone)]
struct Slot {
    kind: CollKind,
    op: Option<ReduceOp>,
    root: Option<RankId>,
    data: SlotData,
    logical_bytes: u64,
    complete: bool,
    result: Option<Arc<Vec<f32>>>,
}

#[derive(Default)]
struct CommState {
    slots: HashMap<u64, Slot>,
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
    ranks_per_node: usize,
    /// Node id of each member, by member position — real placement from
    /// `cluster::topology` via [`Communicator::set_topology`], or the
    /// contiguous fallback. Drives hop classes and the hierarchical
    /// schedule.
    node_of: Vec<usize>,
    /// Ring hops crossing a node boundary (derived from `node_of`).
    inter_hops: usize,
    /// Members per node in first-appearance order (derived from
    /// `node_of`) — the hierarchical cost model's input.
    node_sizes: Vec<usize>,
    clock: Arc<ClockBoard>,
    cost: CostModel,
    state: Mutex<CommState>,
    cv: Condvar,
    /// Separate condvar for `wait_for_parked` observers, so a rank
    /// parking does not thundering-herd every other parked rank awake.
    obs_cv: Condvar,
    aborted: AtomicBool,
    /// The world's table of ranks that will never contribute again.
    liveness: Arc<Liveness>,
    engine: CollEngine,
    /// Child groups split off this communicator (`CommWorld::split_comm`).
    /// Weak: a dropped child must not be kept alive — or aborted — by its
    /// parent. This lock is a leaf: nothing else is acquired while it is
    /// held except inside `coll_cost` (state → children, one direction
    /// only; no path acquires state while holding children).
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
    /// Creates a communicator over `ranks`; `clock_idx[i]` is the clock
    /// board slot of `ranks[i]`. Node placement defaults to the
    /// contiguous `ranks_per_node` convention until
    /// [`Communicator::set_topology`] installs real placement. Built
    /// outside a [`crate::CommWorld`], it gets a liveness table of its
    /// own that nobody departs from, so its hangs are never proven.
    pub fn new(
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

    /// [`Communicator::new`] sharing the liveness table of the world that
    /// creates it.
    pub(crate) fn in_world(
        id: CommId,
        ranks: Vec<RankId>,
        clock_idx: Vec<usize>,
        ranks_per_node: usize,
        clock: Arc<ClockBoard>,
        cost: CostModel,
        liveness: Arc<Liveness>,
    ) -> Arc<Self> {
        let node_of = ring::contiguous_node_assignment(&ranks, ranks_per_node);
        let engine = CollEngine::Ring(ring::RingConfig::from_cost(&cost));
        Self::with_parts(
            id,
            ranks,
            clock_idx,
            node_of,
            ranks_per_node,
            clock,
            cost,
            engine,
            liveness,
        )
    }

    /// Full-control constructor: split groups inherit their parent's
    /// engine, liveness table, and per-member topology slice through this.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_parts(
        id: CommId,
        ranks: Vec<RankId>,
        clock_idx: Vec<usize>,
        node_of: Vec<usize>,
        ranks_per_node: usize,
        clock: Arc<ClockBoard>,
        cost: CostModel,
        engine: CollEngine,
        liveness: Arc<Liveness>,
    ) -> Arc<Self> {
        assert_eq!(ranks.len(), clock_idx.len());
        assert_eq!(ranks.len(), node_of.len());
        let member_of: HashMap<RankId, usize> =
            ranks.iter().enumerate().map(|(i, r)| (*r, i)).collect();
        assert_eq!(member_of.len(), ranks.len(), "duplicate member rank");
        let inter_hops = ring::hop_classes_from_nodes(&node_of)
            .iter()
            .filter(|same| !**same)
            .count();
        let node_sizes = ring::node_group_sizes(&node_of);
        Arc::new(Communicator {
            id,
            ranks,
            member_of,
            clock_idx,
            ranks_per_node,
            node_of,
            inter_hops,
            node_sizes,
            clock,
            cost,
            state: Mutex::new(CommState::default()),
            cv: Condvar::new(),
            obs_cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            liveness,
            engine,
            children: Mutex::new(Vec::new()),
            ledgers: Mutex::new(Vec::new()),
            has_ledgers: AtomicBool::new(false),
        })
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
    pub fn contains(&self, rank: RankId) -> bool {
        self.member_of.contains_key(&rank)
    }

    /// Member position of `rank` in this group (its rank-order index).
    pub fn member_pos(&self, rank: RankId) -> Option<usize> {
        self.member_of.get(&rank).copied()
    }

    /// Node assignment per member position.
    pub fn node_assignment(&self) -> &[usize] {
        &self.node_of
    }

    pub(crate) fn clock_index_of_member(&self, pos: usize) -> usize {
        self.clock_idx[pos]
    }

    pub(crate) fn node_of_member(&self, pos: usize) -> usize {
        self.node_of[pos]
    }

    pub(crate) fn clock_board(&self) -> &Arc<ClockBoard> {
        &self.clock
    }

    pub(crate) fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    pub(crate) fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    pub(crate) fn liveness(&self) -> &Arc<Liveness> {
        &self.liveness
    }

    /// Communicators are shared immutably; configuration changes rebuild
    /// a fresh clone with empty slot state. The child-group list carries
    /// over so parent→child abort/fault propagation survives a rebuild,
    /// and attached gradient ledgers carry over so the in-network tap
    /// survives engine/topology changes.
    fn rebuild(&self, engine: CollEngine, node_of: Vec<usize>) -> Arc<Self> {
        let fresh = Self::with_parts(
            self.id,
            self.ranks.clone(),
            self.clock_idx.clone(),
            node_of,
            self.ranks_per_node,
            self.clock.clone(),
            self.cost.clone(),
            engine,
            self.liveness.clone(),
        );
        // children strictly before ledgers (both leaf locks, never
        // nested; the grouping keeps the static lock graph acyclic).
        let kids: Vec<Weak<Communicator>> = self.children.lock().clone();
        *fresh.children.lock() = kids;
        let taps: Vec<(usize, Arc<GradLedger>)> = self.ledgers.lock().clone();
        fresh.has_ledgers.store(!taps.is_empty(), Ordering::Release);
        *fresh.ledgers.lock() = taps;
        fresh
    }

    /// Selects the data-plane engine (chunked ring by default; the slot
    /// reference is kept for bit-identity checks and benchmarking).
    pub fn set_engine(self: &Arc<Self>, engine: CollEngine) -> Arc<Self> {
        self.rebuild(engine, self.node_of.clone())
    }

    /// Installs real placement knowledge: `node_of[i]` is the node id of
    /// member `i` (`Cluster::node_assignment`). Replaces the contiguous
    /// `ranks_per_node` fallback; hop classes, inter-hop counts, and the
    /// hierarchical node sizes are all re-derived from it.
    pub fn set_topology(self: &Arc<Self>, node_of: Vec<usize>) -> Arc<Self> {
        assert_eq!(
            node_of.len(),
            self.ranks.len(),
            "one node id per group member"
        );
        self.rebuild(self.engine, node_of)
    }

    /// The data-plane engine in effect.
    pub fn engine(&self) -> CollEngine {
        self.engine
    }

    /// Attaches `rank`'s in-network gradient ledger: every data-carrying
    /// generation that completes from now on is recorded into it (an
    /// `Arc` bump plus shard-range metadata — no extra sends, no copy).
    /// Re-attaching a member replaces its previous ledger. The
    /// attachment survives [`Communicator::set_engine`] /
    /// [`Communicator::set_topology`] rebuilds.
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
            if !slot.complete {
                return;
            }
            (slot.kind, slot.result.clone())
        };
        let Some(result) = result else { return };
        if matches!(kind, CollKind::Barrier | CollKind::Rendezvous) {
            return; // No data plane to tap.
        }
        // Ledgers strictly after state (state → children → ledgers is
        // the global order; both tap locks are leaves).
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

    /// Registers a split child for abort/fault propagation.
    pub(crate) fn add_child(&self, child: &Arc<Communicator>) {
        let mut kids = self.children.lock();
        kids.retain(|w| w.upgrade().is_some());
        kids.push(Arc::downgrade(child));
    }

    /// Live (still-referenced) child groups split off this communicator.
    pub fn live_children(&self) -> usize {
        self.children
            .lock()
            .iter()
            .filter(|w| w.upgrade().is_some())
            .count()
    }

    /// Blocks until at least `n` member threads are parked inside a
    /// collective wait, or `timeout` elapses (returns `false` on
    /// timeout). This is the §3.1 hang signature made observable:
    /// harnesses and tests wait on the same condvar the parked ranks
    /// use instead of sleeping an arbitrary wall-clock interval and
    /// hoping the ranks have arrived.
    pub fn wait_for_parked(&self, n: usize, timeout: Duration) -> bool {
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

    fn coll_cost(&self, kind: CollKind, bytes: u64) -> simcore::SimTime {
        let n = self.ranks.len();
        match kind {
            CollKind::AllReduce => match self.engine {
                CollEngine::Slot => self.cost.all_reduce(bytes, n, self.ranks_per_node),
                CollEngine::Ring(_) => self.cost.ring_all_reduce(bytes, n, self.inter_hops),
                CollEngine::Hier(_) => self.cost.hier_all_reduce(bytes, &self.node_sizes),
            },
            CollKind::AllGather | CollKind::ReduceScatter | CollKind::Broadcast => {
                match self.engine {
                    CollEngine::Slot => self.cost.all_gather(bytes, n, self.ranks_per_node),
                    CollEngine::Ring(_) => self.cost.ring_all_gather(bytes, n, self.inter_hops),
                    CollEngine::Hier(_) => self.cost.hier_all_gather(bytes, &self.node_sizes),
                }
            }
            CollKind::Barrier => simcore::SimTime::from_secs(
                self.cost.coll_latency.as_secs() * (n as f64).log2().ceil().max(1.0),
            ),
            // One parent rendezvous bootstraps every live child group in
            // the same barrier: split comms share the parent's bootstrap
            // ring instead of each paying a fresh condvar park + init
            // round, so the simulated cost scales with the group count
            // while the rank threads park exactly once.
            CollKind::Rendezvous => simcore::SimTime::from_secs(
                self.cost.comm_init.as_secs() * (1.0 + self.live_children() as f64),
            ),
        }
    }

    /// Copies the predecessor communicator's completed-slot cache into
    /// this (freshly created) communicator, so replayed operations can be
    /// served without re-participation after recovery.
    pub fn adopt_completed_from(&self, old: &Communicator) {
        let old_state = old.state.lock();
        let mut st = self.state.lock();
        for (gen, slot) in old_state.slots.iter() {
            if slot.complete {
                st.slots.insert(*gen, slot.clone());
            }
        }
    }

    /// Number of cached completed slots (tests / diagnostics).
    pub fn completed_slots(&self) -> usize {
        self.state
            .lock()
            .slots
            .values()
            .filter(|s| s.complete)
            .count()
    }

    /// Drops cached slots with `gen < floor` (memory hygiene on very long
    /// jobs; recovery never replays past the previous minibatch).
    pub fn prune_below(&self, floor: u64) {
        let mut st = self.state.lock();
        st.slots.retain(|g, _| *g >= floor);
        // Completion waits are notify-driven: wake parked ranks so anyone
        // whose (incomplete) slot was just pruned reports the protocol
        // error instead of sleeping forever.
        self.cv.notify_all();
    }

    /// Chunk granularity and worker bound for the streaming fold, per the
    /// engine and this group's slowest hop class.
    fn stream_plan(&self) -> (usize, usize) {
        match self.engine {
            CollEngine::Ring(cfg) => (cfg.chunk_elems(self.inter_hops > 0), cfg.workers),
            // The hierarchical data plane is blocked at NVLink granularity:
            // the intra-node phases carry 2·(m−1)/m of the volume.
            CollEngine::Hier(cfg) => (cfg.chunk_elems(false), cfg.workers),
            CollEngine::Slot => (usize::MAX, 1),
        }
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
        logical_bytes: u64,
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
                if slot.complete {
                    if slot.kind != kind || slot.op != op || slot.root != root {
                        return Err(SimError::Protocol(format!(
                            "replayed collective mismatch at gen {gen} on {}",
                            self.id
                        )));
                    }
                    return Ok(slot.result.clone().expect("completed slot has result"));
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
            entered_at: Instant::now(),
        };
        // Observer callbacks run outside the state lock: the hang
        // watchdog's observer takes its own `outstanding` lock, and
        // calling into it with `state` held would hold one lock across a
        // module that takes another (`guard_across_call`). Registering
        // the ticket a moment before entering the slot (and clearing it a
        // moment after leaving) only widens the watchdog's view of the
        // collective, which is the conservative direction.
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
        logical_bytes: u64,
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
                if slot.complete {
                    break;
                }
                if self.is_aborted() {
                    return Err(SimError::CollectiveAborted);
                }
                if stuck.is_some() || !self.lacks_gone_member(slot) {
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
                // trainer sits in the hung call while the watchdog works
                // (§3.2) — but says so once, with no lock held: marking
                // wakes the waiters of other communicators and the
                // observer takes locks of its own. Then it re-checks,
                // because the world moved on while the lock was dropped.
                drop(st);
                stuck = Some(self.liveness.stuck(rank));
                obs.collective_hung(ticket);
                st = self.state.lock();
            }
        }
        // Pick up the result; completed slots stay cached for replay.
        let slot = st.slots.get(&gen).expect("completed slot");
        slot.result
            .clone()
            .ok_or_else(|| SimError::Protocol("completed slot without result".into()))
    }

    /// True when `slot` can never complete: it still lacks the
    /// contribution of a member that is departed or stuck. One relaxed
    /// load while nobody is.
    fn lacks_gone_member(&self, slot: &Slot) -> bool {
        let n = self.ranks.len();
        match &slot.data {
            SlotData::Parked { contribs, .. } => self.liveness.any_gone(
                (0..n)
                    .filter(|p| contribs[*p].is_none())
                    .map(|p| self.ranks[p]),
            ),
            SlotData::Streaming { folded, parked, .. } => self.liveness.any_gone(
                (*folded..n)
                    .filter(|p| !parked.contains_key(p))
                    .map(|p| self.ranks[p]),
            ),
        }
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
        logical_bytes: u64,
    ) -> SimResult<bool> {
        let n = self.ranks.len();
        // An armed transient fault hits the victim's own next arrival at a
        // generation still in flight, whoever created its slot: the
        // victim's NCCL call fails and it never contributes, so the other
        // members stay parked at the barrier (a hang) until the watchdog
        // aborts the communicator.
        if st.pending_fault == Some(rank) && !st.slots.get(&gen).is_some_and(|s| s.complete) {
            st.pending_fault = None;
            return Err(SimError::NetworkTransient);
        }
        // Install or join the slot for this generation.
        let slot = st.slots.entry(gen).or_insert_with(|| Slot {
            kind,
            op,
            root,
            data: match (self.engine, kind) {
                (
                    CollEngine::Ring(_) | CollEngine::Hier(_),
                    CollKind::AllReduce | CollKind::ReduceScatter,
                ) => SlotData::Streaming {
                    acc: Vec::new(),
                    folded: 0,
                    parked: BTreeMap::new(),
                },
                _ => SlotData::Parked {
                    contribs: vec![None; n],
                    arrived: 0,
                },
            },
            logical_bytes: 0,
            complete: false,
            result: None,
        });
        if slot.kind != kind || slot.op != op || slot.root != root {
            return Err(SimError::Protocol(format!(
                "mismatched collective at gen {gen} on {}: {:?} vs {:?}",
                self.id, slot.kind, kind
            )));
        }
        if slot.complete {
            // Completed between the caller's replay-cache check and the
            // state lock: the cached result serves this re-arrival.
            return Ok(true);
        }
        slot.logical_bytes = slot.logical_bytes.max(logical_bytes);
        match &mut slot.data {
            SlotData::Parked { contribs, arrived } => {
                if contribs[pos].is_none() {
                    *arrived += 1;
                }
                // Re-arrivals overwrite identically (idempotent replay).
                contribs[pos] = Some(contrib.into_parked());
                if *arrived < n {
                    return Ok(false);
                }
            }
            SlotData::Streaming {
                acc,
                folded,
                parked,
            } => {
                let (chunk_elems, workers) = self.stream_plan();
                let op = op.ok_or_else(|| {
                    SimError::Protocol("streaming collective without reduce op".into())
                })?;
                if pos < *folded {
                    // Already folded into the accumulator: a replayed
                    // re-contribution is identical by the idempotency
                    // contract, so there is nothing to redo.
                } else if pos == *folded {
                    match contrib {
                        // The member-order first buffer *becomes* the
                        // accumulator — no zero-fill, no seed memcpy.
                        Contribution::Data(v) if *folded == 0 => *acc = v,
                        Contribution::Borrowed(s) if *folded == 0 => *acc = s.to_vec(),
                        Contribution::Data(ref v) => {
                            ring::accumulate_into(acc, &[v.as_slice()], op, chunk_elems, workers)?
                        }
                        Contribution::Borrowed(s) => {
                            ring::accumulate_into(acc, &[s], op, chunk_elems, workers)?
                        }
                        Contribution::Empty => {
                            return Err(SimError::Protocol("missing contribution".into()))
                        }
                    }
                    *folded += 1;
                    // Drain the contiguous run of parked successors in one
                    // chunk-parallel fold (4-wide peer streams, same
                    // member-order association as one-at-a-time folds).
                    let mut run: Vec<Vec<f32>> = Vec::new();
                    while let Some(v) = parked.remove(&(*folded + run.len())) {
                        run.push(v);
                    }
                    if !run.is_empty() {
                        let slices: Vec<&[f32]> = run.iter().map(|v| v.as_slice()).collect();
                        ring::accumulate_into(acc, &slices, op, chunk_elems, workers)?;
                        *folded += run.len();
                    }
                } else {
                    let v = contrib
                        .into_parked()
                        .ok_or_else(|| SimError::Protocol("missing contribution".into()))?;
                    // Out-of-order: park an owned copy until the fold
                    // front reaches this member position.
                    parked.insert(pos, v);
                }
                if *folded < n {
                    return Ok(false);
                }
            }
        }
        // Last arrival: finalize deterministically and advance every
        // member's clock past the barrier.
        self.finalize(st, gen, kind)?;
        Ok(true)
    }

    /// Completes a slot whose every member has arrived: materializes the
    /// result, charges the engine's simulated cost as a clock barrier,
    /// and wakes the waiters.
    fn finalize(
        &self,
        st: &mut simcore::sync::MutexGuard<'_, CommState>,
        gen: u64,
        kind: CollKind,
    ) -> SimResult<()> {
        let n = self.ranks.len();
        let slot = st.slots.get_mut(&gen).expect("finalizing slot");
        let op = slot.op;
        let root = slot.root;
        let result = match &mut slot.data {
            SlotData::Streaming { acc, .. } => {
                let mut out = std::mem::take(acc);
                if op == Some(ReduceOp::Avg) {
                    // Scaled exactly once, after all n folds — the point
                    // where eager streaming and the monolithic reference
                    // meet bit-for-bit.
                    ring::scale_in_place(&mut out, n);
                }
                if kind == CollKind::ReduceScatter && out.len() % n != 0 {
                    return Err(SimError::Protocol(format!(
                        "reduce-scatter length {} not divisible by {n}",
                        out.len()
                    )));
                }
                out
            }
            SlotData::Parked { contribs, .. } => {
                finalize_parked(kind, op, root.and_then(|r| self.member_pos(r)), contribs, n)?
            }
        };
        slot.result = Some(Arc::new(result));
        slot.complete = true;
        let cost = self.coll_cost(kind, slot.logical_bytes);
        self.clock.barrier_sync(&self.clock_idx, cost);
        self.cv.notify_all();
        Ok(())
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
                if slot.complete {
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
            logical_bytes,
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
        {
            let st = self.state.lock();
            if let Some(slot) = st.slots.get(&gen) {
                if slot.complete {
                    return slot
                        .result
                        .clone()
                        .map(Some)
                        .ok_or_else(|| SimError::Protocol("completed slot without result".into()));
                }
            }
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
            logical_bytes,
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
            logical_bytes,
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
            logical_bytes,
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
            logical_bytes,
            obs,
        )
    }

    /// Barrier across the group.
    pub fn barrier(&self, rank: RankId, gen: u64, obs: &dyn CollectiveObserver) -> SimResult<()> {
        self.run(rank, gen, CollKind::Barrier, None, None, None, 0, obs)?;
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
        self.run(rank, gen, CollKind::Rendezvous, None, None, None, 0, obs)?;
        Ok(())
    }
}

/// Completes a parked slot: the member-order monolithic reference
/// reduction (the `Slot` engine, and gather/broadcast/barrier under every
/// engine). `root_pos` is the broadcast root's member position.
fn finalize_parked(
    kind: CollKind,
    op: Option<ReduceOp>,
    root_pos: Option<usize>,
    contribs: &mut [Option<Option<Vec<f32>>>],
    n: usize,
) -> SimResult<Vec<f32>> {
    match kind {
        CollKind::AllReduce | CollKind::ReduceScatter => {
            let op = op.expect("reduce op present");
            // The member-order first buffer is taken by value and becomes
            // the accumulator; nothing reads parked contributions after
            // completion (replay serves the cached result).
            let mut acc = contribs
                .first_mut()
                .and_then(|c| c.take())
                .flatten()
                .ok_or_else(|| SimError::Protocol("reduce without contribution".into()))?;
            let len = acc.len();
            for c in &contribs[1..] {
                let d = c
                    .as_ref()
                    .and_then(|d| d.as_ref())
                    .ok_or_else(|| SimError::Protocol("missing contribution".into()))?;
                if d.len() != len {
                    return Err(SimError::Protocol(format!(
                        "ragged collective: {} vs {}",
                        d.len(),
                        len
                    )));
                }
                for (a, b) in acc.iter_mut().zip(d) {
                    match op {
                        ReduceOp::Sum | ReduceOp::Avg => *a += b,
                        ReduceOp::Max => *a = a.max(*b),
                    }
                }
            }
            if op == ReduceOp::Avg {
                ring::scale_in_place(&mut acc, n);
            }
            if kind == CollKind::ReduceScatter && len % n != 0 {
                return Err(SimError::Protocol(format!(
                    "reduce-scatter length {len} not divisible by {n}"
                )));
            }
            Ok(acc)
        }
        CollKind::AllGather => {
            let mut refs: Vec<&[f32]> = Vec::with_capacity(n);
            for c in contribs.iter() {
                refs.push(
                    c.as_ref()
                        .and_then(|d| d.as_deref())
                        .ok_or_else(|| SimError::Protocol("missing contribution".into()))?,
                );
            }
            Ok(ring::gather_chunked(&refs))
        }
        CollKind::Broadcast => root_pos
            .and_then(|p| contribs.get_mut(p))
            .and_then(|c| c.take())
            .flatten()
            .ok_or_else(|| SimError::Protocol("broadcast root contributed no data".into())),
        CollKind::Barrier | CollKind::Rendezvous => Ok(Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use std::thread;

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

    /// All three data-plane engines, with ring configs that force
    /// multi-chunk schedules on tiny payloads.
    fn engines() -> [CollEngine; 3] {
        [
            CollEngine::Slot,
            CollEngine::Ring(ring::RingConfig::uniform(8, 2)),
            CollEngine::Hier(ring::RingConfig::uniform(8, 2)),
        ]
    }

    #[test]
    fn hang_and_abort_observables_are_engine_invariant() {
        // The ring/hier engines replace only the data plane; a rank
        // failing mid-step must leave peers with exactly the slot
        // protocol's §3.1 observables — parked at the barrier, then
        // released by abort with CollectiveAborted.
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
                    4,
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
        .set_engine(CollEngine::Hier(ring::RingConfig::uniform(1024, 2)));
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
        .set_engine(CollEngine::Hier(ring::RingConfig::uniform(1024, 2)))
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
