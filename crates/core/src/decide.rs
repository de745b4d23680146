//! The §4 recovery decision, as one pure function.
//!
//! The paper's case analysis is one table — failure class × where in the
//! minibatch it struck → how each victim restores its state, and whether
//! it replays or rolls forward — and [`decide`] is that table: from
//! what every rank reported on entering a round to each rank's ordered
//! [`Action`] list, or a typed error naming the cell no healthy replica
//! can restore. Every plan is the whole §4 order:
//!
//! ```text
//! Teardown, <reset | host round trip | restart | migrate | write files …>,
//! Rendezvous, <CopyFromReplica>, RecreateHandles, <Replay>
//! ```
//!
//! No lock, clock, world or store: the transparent engine runs the plan,
//! one action after the other.

use proxy::{MinibatchPosition, RecoveryOutcome};
use simcore::layout::ParallelLayout;
use simcore::{RankId, SimError, SimResult};
use simgpu::GpuHealth;
use std::collections::HashMap;

/// What one rank reported on entering a recovery round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RankStatus {
    pub(crate) health: GpuHealth,
    /// Its own fault triggered the round (a device error or a transient
    /// fault on its NCCL call), not an abort behind another rank's fault.
    pub(crate) is_victim: bool,
    pub(crate) position: MinibatchPosition,
}

/// The planned recovery mode for a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// §4.2.1: the victims reset to minibatch start and replay; every
    /// other rank keeps its minibatch and retries.
    MinibatchReplay,
    /// §4.2.2: the fault struck at or past the optimizer step, so healthy
    /// ranks already hold the start of minibatch *i+1*; the victim copies
    /// it from a replica and skips ahead, and healthy ranks simply retry.
    RollForward,
}

/// One step of a rank's recovery, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Delete the communicators and GPU handles.
    Teardown,
    /// Reset to minibatch start in place (§4.2.1 case 1); `charged` adds 1 ms.
    ResetInPlace { charged: bool },
    /// Host round trip of the persistent state around a proxy restart (case 2).
    HostRoundTrip,
    /// Restart the proxy server; a replica refills the state (case 3).
    Restart,
    /// Migrate to a fresh GPU and load the §4.3 frames a healthy replica wrote.
    Migrate,
    /// Write the §4.3 frames; charge the worker's CRIU round trip.
    WriteHardFiles,
    /// Rebuild every communicator: one rendezvous per group.
    Rendezvous,
    /// Take part in the cell's copy of persistent state from `root`.
    CopyFromReplica { root: RankId },
    /// Recreate the GPU handles.
    RecreateHandles,
    /// Replay the minibatch's logged device APIs.
    Replay,
}

/// One rank's share of a [`RecoveryPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RankPlan {
    pub(crate) actions: Vec<Action>,
    pub(crate) outcome: RecoveryOutcome,
}

/// The decision for one recovery round; `ranks` is indexed by rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RecoveryPlan {
    pub(crate) mode: RecoveryMode,
    pub(crate) ranks: Vec<RankPlan>,
}

/// Decides a recovery round from every rank's status, indexed by rank.
pub(crate) fn decide(layout: &ParallelLayout, arrived: &[RankStatus]) -> SimResult<RecoveryPlan> {
    use Action::*;
    use GpuHealth::*;
    use RecoveryMode::*;
    // Roll forward exactly when a victim's fault struck at or past the
    // optimizer step. Iteration numbers are NOT used — pipeline stages
    // legitimately sit at different iterations.
    let past_optimizer = |s: &RankStatus| s.is_victim && s.position != MinibatchPosition::FwdBwd;
    let mode = if arrived.iter().any(past_optimizer) {
        RollForward
    } else {
        MinibatchReplay
    };
    let hard = arrived.iter().any(|s| s.health == HardwareFailed);
    // Every cell that lost state needs a healthy replica: the root of a
    // soft victim's broadcast, or the writer of a hard victim's §4.3
    // files. A roll-forward victim's state is torn mid-update whatever its
    // memory says. The root is the lowest healthy replica in the cell.
    let mut cell_sync = HashMap::new();
    for (i, s) in arrived.iter().enumerate() {
        let lost_state = match s.health {
            Healthy => false,
            HardwareFailed => true,
            DriverSuspect | Sticky => mode == RollForward || !s.health.memory_readable(),
        };
        if !lost_state {
            continue;
        }
        let victim = RankId(i as u32);
        let c = layout.coord(victim);
        let root = layout
            .dp_group_of(victim)
            .into_iter()
            .find(|r| arrived[r.index()].health == Healthy)
            .ok_or_else(|| {
                SimError::NoCheckpointAvailable(format!(
                    "no healthy data-parallel replica in cell s{}p{} for {victim} (dp = {})",
                    c.stage, c.part, layout.dp
                ))
            })?;
        // Hard victims read the replica's files instead of a broadcast.
        if s.health != HardwareFailed {
            cell_sync.insert((c.stage, c.part), root);
        }
    }
    let rank_plan = |(i, s): (usize, &RankStatus)| {
        let mut actions = vec![Teardown];
        // Each victim restores its own state before the rendezvous, so
        // every rank arrives there ready. A rank that was only aborted (a
        // healthy non-victim) keeps its in-flight minibatch in either
        // mode: a simulated collective delivers to every member or to
        // none, so nothing it holds is torn (DESIGN.md §5).
        match (mode, s.health) {
            _ if !s.is_victim => {}
            (_, HardwareFailed) => actions.push(Migrate),
            (MinibatchReplay, Healthy) => actions.push(ResetInPlace { charged: true }),
            (MinibatchReplay, DriverSuspect) => actions.push(HostRoundTrip),
            (_, Sticky | DriverSuspect) => actions.push(Restart),
            (RollForward, Healthy) => actions.push(ResetInPlace { charged: false }),
        }
        // Everyone else in a hard round contributes its §4.3 frames and a
        // CRIU image (all workers migrate together).
        if hard && s.health != HardwareFailed {
            actions.push(WriteHardFiles);
        }
        actions.push(Rendezvous);
        let c = layout.coord(RankId(i as u32));
        if let Some(&root) = cell_sync.get(&(c.stage, c.part)) {
            actions.push(CopyFromReplica { root });
        }
        actions.push(RecreateHandles);
        // A victim replays alone; every other rank retries where it was
        // aborted.
        if mode == MinibatchReplay && s.is_victim {
            actions.push(Replay);
        }
        let outcome = if mode == RollForward && s.is_victim {
            RecoveryOutcome::SkipToNextMinibatch
        } else {
            RecoveryOutcome::Retry
        };
        RankPlan { actions, outcome }
    };
    let ranks = arrived.iter().enumerate().map(rank_plan).collect();
    Ok(RecoveryPlan { mode, ranks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::failure::{FailureKind, Phase};
    use simcore::layout::GridCoord;
    use Action::*;
    use FailureKind::*;
    use MinibatchPosition::*;
    use Phase::*;
    use RecoveryMode::*;
    use RecoveryOutcome::*;

    /// Placeholder for the victim's data-parallel replica, filled in per
    /// victim position.
    const REPLICA: RankId = RankId(u32::MAX);
    const COPY: Action = CopyFromReplica { root: REPLICA };
    const RESET: Action = ResetInPlace { charged: true };

    /// Where an action may sit in the §4 order: every plan is sorted by it
    /// and holds each of `Teardown`, `Rendezvous` and `RecreateHandles`
    /// once.
    fn order(a: Action) -> usize {
        match a {
            Teardown => 0,
            ResetInPlace { .. } | HostRoundTrip | Restart | Migrate | WriteHardFiles => 1,
            Rendezvous => 2,
            CopyFromReplica { .. } => 3,
            RecreateHandles => 4,
            Replay => 5,
        }
    }

    fn assert_section_4_order(actions: &[Action], row: &str) {
        let stages: Vec<usize> = actions.iter().map(|&a| order(a)).collect();
        assert!(stages.is_sorted(), "{row}: {actions:?}");
        for once in [Teardown, Rendezvous, RecreateHandles] {
            let n = actions.iter().filter(|&&a| a == once).count();
            assert_eq!(n, 1, "{row}: {once:?} in {actions:?}");
        }
        let replays = actions.iter().filter(|&&a| a == Replay).count();
        assert!(replays <= 1, "{row}: {actions:?}");
    }

    /// What a round does, by role: the victim, its replica in the same
    /// cell, and every rank of the other cells.
    #[derive(Clone, Copy)]
    struct Expect {
        mode: RecoveryMode,
        victim: &'static [Action],
        victim_outcome: RecoveryOutcome,
        replica: &'static [Action],
        bystander: &'static [Action],
        /// Whether the round survives the replica failing the same way
        /// (both then run `victim`); if not, it is `NoCheckpointAvailable`.
        without_replica: bool,
    }

    /// A rank the fault did not reach keeps its minibatch and retries.
    const KEEP: &[Action] = &[Teardown, Rendezvous, RecreateHandles];
    /// The same rank as the root of its cell's copy.
    const KEEP_AND_SERVE: &[Action] = &[Teardown, Rendezvous, COPY, RecreateHandles];
    /// Every healthy rank of a §4.3 round: it writes its frames,
    /// then keeps its minibatch.
    const WRITE_FILES: &[Action] = &[Teardown, WriteHardFiles, Rendezvous, RecreateHandles];

    /// §4.2.1 case 1: the victim resets in place and replays.
    const IN_PLACE: Expect = Expect {
        mode: MinibatchReplay,
        victim: &[Teardown, RESET, Rendezvous, RecreateHandles, Replay],
        victim_outcome: Retry,
        replica: KEEP,
        bystander: KEEP,
        without_replica: true,
    };
    /// §4.2.1 case 2: the victim's state survives a host round trip.
    const HOST_ROUND_TRIP: Expect = Expect {
        victim: &[Teardown, HostRoundTrip, Rendezvous, RecreateHandles, Replay],
        ..IN_PLACE
    };
    /// §4.2.1 case 3: the victim restarts and its cell copies state from
    /// the replica.
    const REPLICA_COPY: Expect = Expect {
        victim: &[Teardown, Restart, Rendezvous, COPY, RecreateHandles, Replay],
        replica: KEEP_AND_SERVE,
        without_replica: false,
        ..IN_PLACE
    };
    /// §4.2.2: the victim copies the next minibatch's state and skips
    /// ahead; nobody replays.
    const ROLL_FORWARD: Expect = Expect {
        mode: RollForward,
        victim: &[Teardown, Restart, Rendezvous, COPY, RecreateHandles],
        victim_outcome: SkipToNextMinibatch,
        replica: KEEP_AND_SERVE,
        bystander: KEEP,
        without_replica: false,
    };
    /// §4.3: the victim migrates, reads the files every other rank
    /// writes, and replays.
    const MIGRATE_REPLAY: Expect = Expect {
        mode: MinibatchReplay,
        victim: &[Teardown, Migrate, Rendezvous, RecreateHandles, Replay],
        victim_outcome: Retry,
        replica: WRITE_FILES,
        bystander: WRITE_FILES,
        without_replica: false,
    };
    /// §4.3 past the optimizer: migrate, then roll forward.
    const MIGRATE_ROLL_FORWARD: Expect = Expect {
        mode: RollForward,
        victim: &[Teardown, Migrate, Rendezvous, RecreateHandles],
        victim_outcome: SkipToNextMinibatch,
        ..MIGRATE_REPLAY
    };

    /// The §4 table: (benchmark class, kind, phase armed, position the
    /// error surfaces at, expected round). Faults that surface at a
    /// collective — a transient link fault, a suspect driver — fire at the
    /// next minibatch's first collective when armed in the optimizer step
    /// or between iterations, so they are seen at `FwdBwd`.
    #[rustfmt::skip]
    const TABLE: [(Option<char>, FailureKind, Phase, MinibatchPosition, Expect); 25] = [
        (None,      TransientNetwork, Forward,           FwdBwd,         IN_PLACE),
        (None,      TransientNetwork, Backward,          FwdBwd,         IN_PLACE),
        (Some('a'), TransientNetwork, AllReduce,         FwdBwd,         IN_PLACE),
        (None,      TransientNetwork, OptimizerStep,     FwdBwd,         IN_PLACE),
        (None,      TransientNetwork, BetweenIterations, FwdBwd,         IN_PLACE),
        (None,      DriverCorruption, Forward,           FwdBwd,         HOST_ROUND_TRIP),
        (Some('b'), DriverCorruption, Backward,          FwdBwd,         HOST_ROUND_TRIP),
        (None,      DriverCorruption, AllReduce,         FwdBwd,         HOST_ROUND_TRIP),
        (None,      DriverCorruption, OptimizerStep,     FwdBwd,         HOST_ROUND_TRIP),
        (None,      DriverCorruption, BetweenIterations, FwdBwd,         HOST_ROUND_TRIP),
        (None,      StickyCuda,       Forward,           FwdBwd,         REPLICA_COPY),
        (Some('c'), StickyCuda,       Backward,          FwdBwd,         REPLICA_COPY),
        (None,      StickyCuda,       AllReduce,         FwdBwd,         REPLICA_COPY),
        (Some('d'), StickyCuda,       OptimizerStep,     Optimizer,      ROLL_FORWARD),
        (None,      StickyCuda,       BetweenIterations, AfterOptimizer, ROLL_FORWARD),
        (None,      GpuHardware,      Forward,           FwdBwd,         MIGRATE_REPLAY),
        (Some('e'), GpuHardware,      Backward,          FwdBwd,         MIGRATE_REPLAY),
        (None,      GpuHardware,      AllReduce,         FwdBwd,         MIGRATE_REPLAY),
        (None,      GpuHardware,      OptimizerStep,     Optimizer,      MIGRATE_ROLL_FORWARD),
        (None,      GpuHardware,      BetweenIterations, AfterOptimizer, MIGRATE_ROLL_FORWARD),
        (None,      NodeFailure,      Forward,           FwdBwd,         MIGRATE_REPLAY),
        (None,      NodeFailure,      Backward,          FwdBwd,         MIGRATE_REPLAY),
        (None,      NodeFailure,      AllReduce,         FwdBwd,         MIGRATE_REPLAY),
        (None,      NodeFailure,      OptimizerStep,     Optimizer,      MIGRATE_ROLL_FORWARD),
        (None,      NodeFailure,      BetweenIterations, AfterOptimizer, MIGRATE_ROLL_FORWARD),
    ];

    #[test]
    fn table_covers_every_kind_and_phase_once() {
        for kind in FailureKind::all() {
            for phase in Phase::all() {
                let rows = TABLE.iter().filter(|r| r.1 == kind && r.2 == phase);
                assert_eq!(rows.count(), 1, "{kind:?} in {phase:?}");
            }
        }
    }

    #[test]
    fn decide_matches_the_table_for_every_victim_at_dp2_and_2d_2p_2t() {
        let healthy = RankStatus {
            health: GpuHealth::Healthy,
            is_victim: false,
            position: FwdBwd,
        };
        for layout in [
            ParallelLayout::data_parallel(2),
            ParallelLayout::three_d(2, 2, 2),
        ] {
            for (class, kind, phase, seen_at, expect) in TABLE {
                let failed = RankStatus {
                    health: GpuHealth::Healthy.inject(kind),
                    is_victim: true,
                    position: seen_at,
                };
                for v in 0..layout.world_size() {
                    let victim = RankId(v as u32);
                    let c = layout.coord(victim);
                    let replica = layout.rank_at(GridCoord { dp: 1 - c.dp, ..c });
                    for replica_failed in [false, true] {
                        let row = format!(
                            "class {class:?}: {kind:?} in {phase:?} at {}, victim {victim}, \
                             replica failed: {replica_failed}",
                            layout.label()
                        );
                        let failed_too = |r: RankId| r == victim || replica_failed && r == replica;
                        let arrived: Vec<RankStatus> = (0..layout.world_size())
                            .map(|i| {
                                if failed_too(RankId(i as u32)) {
                                    failed
                                } else {
                                    healthy
                                }
                            })
                            .collect();
                        let got = decide(&layout, &arrived);
                        if replica_failed && !expect.without_replica {
                            let cell = format!("cell s{}p{}", c.stage, c.part);
                            assert!(
                                matches!(&got, Err(SimError::NoCheckpointAvailable(m)) if m.contains(&cell)),
                                "{row}: {got:?}"
                            );
                            continue;
                        }
                        let ranks = (0..layout.world_size())
                            .map(|i| {
                                let r = RankId(i as u32);
                                let (actions, outcome) = if failed_too(r) {
                                    (expect.victim, expect.victim_outcome)
                                } else if r == replica {
                                    (expect.replica, Retry)
                                } else {
                                    (expect.bystander, Retry)
                                };
                                let actions = actions
                                    .iter()
                                    .map(|&a| {
                                        if a == COPY {
                                            CopyFromReplica { root: replica }
                                        } else {
                                            a
                                        }
                                    })
                                    .collect();
                                RankPlan { actions, outcome }
                            })
                            .collect();
                        let want = RecoveryPlan {
                            mode: expect.mode,
                            ranks,
                        };
                        for plan in &want.ranks {
                            assert_section_4_order(&plan.actions, &row);
                        }
                        assert_eq!(got, Ok(want), "{row}");
                    }
                }
            }
        }
    }
}
