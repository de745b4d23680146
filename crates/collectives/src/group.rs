//! Process groups: NCCL-style `commSplit` over a parent communicator.
//!
//! Hybrid-parallel training needs many overlapping communicators — one
//! data-parallel group per model cell, one tensor-parallel group per
//! replica slice, one pipeline chain per column — all derived from one
//! world. [`CommWorld::split_comm`] builds them the way
//! `ncclCommSplit` does: every parent member states a `(color, key)`
//! pair; members with the same non-negative color form a child group,
//! ordered by `(key, parent member position)`; a negative color
//! ([`SplitKey::none`]) opts the member out.
//!
//! What the children inherit, by member slice:
//!
//! * **clock indices and node placement** — a child's member `i` keeps
//!   the parent's clock slot and node id, so topology installed once on
//!   the parent (`Communicator::set_topology`) flows into every group
//!   split from it, and each child's ring hop classes / hierarchical
//!   node sizes are derived from its own (possibly non-contiguous)
//!   placement slice;
//! * **cost schedule and liveness table** — a child charges its parent's
//!   engine over its own placement slice, and a departed rank is gone
//!   from every group it was in;
//! * **fault surface** — the parent keeps a weak link to each child:
//!   [`Communicator::abort`] and
//!   [`Communicator::inject_transient_fault`] propagate parent→child
//!   (a dead link fails every communicator routed over it), while a
//!   dropped child is reaped, never resurrected.
//!
//! Rendezvous cost does **not** multiply per group: callers bootstrap
//! the parent once, and the parent's `Rendezvous` barrier charges
//! `comm_init × (1 + live children)` — one condvar park per rank total,
//! instead of one park per rank per group (see
//! `Schedule::coll_cost`). This is the NCCL `commSplit` shape too:
//! splitting reuses the parent's bootstrap ring rather than rerunning
//! the full rendezvous per child.

use crate::comm::Communicator;
use crate::world::CommWorld;
use simcore::{SimError, SimResult};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One parent member's split directive: which child group to join
/// (`color`) and how to sort inside it (`key`, ties broken by parent
/// member position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitKey {
    /// Child-group selector; members sharing a non-negative color land in
    /// the same child. A negative color ([`SplitKey::none`]) joins nothing.
    pub color: i64,
    /// Rank-order key inside the child group.
    pub key: usize,
}

impl SplitKey {
    /// The `ncclCommSplit` NCCL_SPLIT_NOCOLOR equivalent: this member
    /// joins no child group.
    pub(crate) const NO_COLOR: i64 = -1;

    /// Joins child `color` at sort key `key`.
    pub fn new(color: i64, key: usize) -> Self {
        SplitKey { color, key }
    }

    /// Opts this member out of the split.
    pub fn none() -> Self {
        SplitKey {
            color: Self::NO_COLOR,
            key: 0,
        }
    }
}

impl CommWorld {
    /// Splits `parent` into child communicators by color/key —
    /// `keys[i]` is parent member `i`'s directive. Returns each parent
    /// member's child (`None` for `NO_COLOR` members), so
    /// `result[i].ranks()` is member `i`'s new group with its remapped
    /// rank order.
    ///
    /// Children are registered in the world (they count toward
    /// `live_comms` and die with `abort_all`/`reset`) and linked to the
    /// parent for abort/fault propagation. Creation itself is free, like
    /// [`CommWorld::create_comm`]; the bootstrap is charged by the
    /// parent's next rendezvous.
    pub fn split_comm(
        &self,
        parent: &Arc<Communicator>,
        keys: &[SplitKey],
    ) -> SimResult<Vec<Option<Arc<Communicator>>>> {
        if keys.len() != parent.size() {
            return Err(SimError::Protocol(format!(
                "split of {} needs one SplitKey per member: got {} for {}",
                parent.id,
                keys.len(),
                parent.size()
            )));
        }
        if parent.is_aborted() {
            return Err(SimError::CollectiveAborted);
        }
        // Bucket member positions by color, ordered by (key, parent pos):
        // BTreeMap gives deterministic child creation order by color.
        let mut groups: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
        for (pos, sk) in keys.iter().enumerate() {
            if sk.color >= 0 {
                groups.entry(sk.color).or_default().push(pos);
            }
        }
        let mut child_of_color: BTreeMap<i64, Arc<Communicator>> = BTreeMap::new();
        for (color, mut members) in groups {
            members.sort_by_key(|pos| (keys[*pos].key, *pos));
            let child = parent.split_child(self.alloc_comm_id(), &members);
            self.replace_comm(child.clone());
            child_of_color.insert(color, child);
        }
        Ok(keys
            .iter()
            .map(|sk| child_of_color.get(&sk.color).cloned())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::ReduceOp;
    use simcore::cost::CostModel;
    use simcore::time::ClockBoard;
    use simcore::RankId;
    use std::thread;

    fn make_world(n: usize) -> (Arc<CommWorld>, Arc<Communicator>) {
        let clock = Arc::new(ClockBoard::new(n));
        let world = CommWorld::new(clock, CostModel::v100(), 8);
        let global =
            world.create_comm((0..n).map(|i| RankId(i as u32)).collect(), (0..n).collect());
        (world, global)
    }

    #[test]
    fn split_remaps_ranks_by_key_then_position() {
        let (_world, global) = make_world(4);
        // Color by parity; odd members reverse their order via keys.
        let keys = [
            SplitKey::new(0, 0),
            SplitKey::new(1, 9),
            SplitKey::new(0, 0),
            SplitKey::new(1, 1),
        ];
        let children = global.clone();
        let got = _world.split_comm(&children, &keys).unwrap();
        let even = got[0].as_ref().unwrap();
        let odd = got[1].as_ref().unwrap();
        // Equal keys fall back to parent position order.
        assert_eq!(even.ranks(), &[RankId(0), RankId(2)]);
        // Key 1 (rank 3) sorts before key 9 (rank 1).
        assert_eq!(odd.ranks(), &[RankId(3), RankId(1)]);
        assert!(Arc::ptr_eq(
            got[0].as_ref().unwrap(),
            got[2].as_ref().unwrap()
        ));
        assert_eq!(even.member_pos(RankId(2)), Some(1));
        assert_eq!(odd.member_pos(RankId(1)), Some(1));
    }

    #[test]
    fn no_color_members_get_no_child() {
        let (world, global) = make_world(3);
        let keys = [SplitKey::new(0, 0), SplitKey::none(), SplitKey::new(0, 1)];
        let got = world.split_comm(&global, &keys).unwrap();
        assert!(got[1].is_none());
        assert_eq!(got[0].as_ref().unwrap().size(), 2);
        // One child registered alongside the global comm.
        assert_eq!(world.live_comms(), 2);
    }

    #[test]
    fn wrong_key_count_is_a_protocol_error() {
        let (world, global) = make_world(3);
        let err = match world.split_comm(&global, &[SplitKey::new(0, 0)]) {
            Err(e) => e,
            Ok(_) => panic!("undersized key list must be rejected"),
        };
        assert!(matches!(err, SimError::Protocol(_)));
    }

    #[test]
    fn child_collective_runs_in_remapped_order() {
        // A child whose member order is NOT sorted-RankId order must
        // still gather in *member* order — the canonical rank order of
        // the group.
        let (world, global) = make_world(4);
        let keys = [
            SplitKey::none(),
            SplitKey::new(7, 1),
            SplitKey::none(),
            SplitKey::new(7, 0),
        ];
        let child = world.split_comm(&global, &keys).unwrap()[1]
            .clone()
            .unwrap();
        assert_eq!(child.ranks(), &[RankId(3), RankId(1)]);
        let c = child.clone();
        let h =
            thread::spawn(move || c.all_gather_shared(RankId(3), 0, vec![3.0], 4, &NullObserver));
        let mine = child
            .all_gather_shared(RankId(1), 0, vec![1.0], 4, &NullObserver)
            .unwrap();
        assert_eq!(*mine, vec![3.0, 1.0]);
        assert_eq!(*h.join().unwrap().unwrap(), vec![3.0, 1.0]);
    }

    #[test]
    fn child_inherits_parent_topology_slice() {
        let (world, global) = make_world(4);
        // Real placement says members 0,2 share node 5 and 1,3 node 9.
        let global = global.set_topology(vec![5, 9, 5, 9]);
        world.replace_comm(global.clone());
        let keys = [
            SplitKey::new(0, 0),
            SplitKey::new(1, 0),
            SplitKey::new(0, 1),
            SplitKey::new(1, 1),
        ];
        let got = world.split_comm(&global, &keys).unwrap();
        assert_eq!(got[0].as_ref().unwrap().node_assignment(), &[5, 5]);
        assert_eq!(got[1].as_ref().unwrap().node_assignment(), &[9, 9]);
    }

    #[test]
    fn abort_propagates_to_children() {
        let (world, global) = make_world(4);
        let keys = [
            SplitKey::new(0, 0),
            SplitKey::new(0, 1),
            SplitKey::new(1, 0),
            SplitKey::new(1, 1),
        ];
        let got = world.split_comm(&global, &keys).unwrap();
        let a = got[0].clone().unwrap();
        let b = got[2].clone().unwrap();
        // A rank parked inside a child collective is released by the
        // PARENT's abort.
        let ac = a.clone();
        let h = thread::spawn(move || {
            ac.all_reduce_shared(RankId(0), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
        });
        assert!(a.wait_for_parked(1, std::time::Duration::from_secs(5)));
        global.abort();
        assert_eq!(h.join().unwrap().unwrap_err(), SimError::CollectiveAborted);
        assert!(a.is_aborted() && b.is_aborted() && global.is_aborted());
        // A dead parent refuses further splits.
        assert!(world.split_comm(&global, &keys).is_err());
    }

    #[test]
    fn transient_fault_propagates_to_victims_children_only() {
        let (world, global) = make_world(4);
        let keys = [
            SplitKey::new(0, 0),
            SplitKey::new(0, 1),
            SplitKey::new(1, 0),
            SplitKey::new(1, 1),
        ];
        let got = world.split_comm(&global, &keys).unwrap();
        let with_victim = got[0].clone().unwrap(); // ranks {0, 1}
        let without = got[2].clone().unwrap(); // ranks {2, 3}
        global.inject_transient_fault(RankId(1));
        // The victim's next collective on its child group fails...
        let err = with_victim
            .all_reduce_shared(RankId(1), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
            .unwrap_err();
        assert_eq!(err, SimError::NetworkTransient);
        // ...while the group not containing the victim is untouched.
        let c = without.clone();
        let h = thread::spawn(move || {
            c.all_reduce_shared(RankId(2), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
        });
        let r = without
            .all_reduce_shared(RankId(3), 0, vec![1.0], ReduceOp::Sum, 4, &NullObserver)
            .unwrap();
        assert_eq!(*r, vec![2.0]);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn parent_rendezvous_bootstraps_children_in_one_barrier() {
        let n = 4;
        let clock = Arc::new(ClockBoard::new(n));
        let world = CommWorld::new(clock.clone(), CostModel::v100(), 8);
        let global =
            world.create_comm((0..n).map(|i| RankId(i as u32)).collect(), (0..n).collect());
        let keys = [
            SplitKey::new(0, 0),
            SplitKey::new(0, 1),
            SplitKey::new(1, 0),
            SplitKey::new(1, 1),
        ];
        let children = world.split_comm(&global, &keys).unwrap();
        // One parent rendezvous charges comm_init × (1 parent + 2 kids)
        // — no per-child condvar parks.
        let c = global.clone();
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let c = c.clone();
                thread::spawn(move || c.rendezvous(RankId(i as u32), 0, &NullObserver))
            })
            .collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        let want = CostModel::v100().comm_init.as_secs() * 3.0;
        assert!((clock.now(0).as_secs() - want).abs() < 1e-9);
        // Dropping the children (both the local handles and the world
        // registry's) shrinks the next rendezvous charge.
        drop(children);
        world.reset();
        assert_eq!(global.live_children(), 0);
    }
}
