//! Property-based tests for the collective layer: reduction correctness
//! against sequential reference computation, idempotent re-delivery,
//! determinism across rank arrival orders, and the in-network gradient
//! ledger's reconstruction guarantee.

use collectives::ledger::reconstruct_member_output;
use collectives::{
    CollEngine, CommWorld, GradLedger, LedgerConfig, NullObserver, ReduceOp, RingConfig,
};
use proptest::prelude::*;
use simcore::cost::CostModel;
use simcore::time::ClockBoard;
use simcore::RankId;
use std::sync::Arc;

fn run_ranks<T: Send + 'static>(
    n: usize,
    f: impl Fn(usize) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let f = Arc::new(f);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let f = f.clone();
            std::thread::spawn(move || f(i))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Runs the full collective suite (all-reduce, all-gather, broadcast,
/// and — when the payload divides evenly — reduce-scatter) on a fresh
/// world under the given data-plane engine, returning each rank's
/// outputs in operation order.
fn run_suite(rows: Arc<Vec<Vec<f32>>>, op: ReduceOp, engine: CollEngine) -> Vec<Vec<Vec<f32>>> {
    run_suite_topo(rows, op, engine, None)
}

/// `run_suite` with an explicit node assignment (`node_of[i]` = node of
/// rank `i`), exercising engines under arbitrary — including scattered —
/// placements.
fn run_suite_topo(
    rows: Arc<Vec<Vec<f32>>>,
    op: ReduceOp,
    engine: CollEngine,
    node_of: Option<Vec<usize>>,
) -> Vec<Vec<Vec<f32>>> {
    let n = rows.len();
    let rs_len = (rows[0].len() / n) * n;
    let clock = Arc::new(ClockBoard::new(n));
    let world = CommWorld::new(clock, CostModel::v100(), 8);
    let mut comm = world
        .create_comm((0..n).map(|i| RankId(i as u32)).collect(), (0..n).collect())
        .set_engine(engine);
    if let Some(node_of) = node_of {
        comm = comm.set_topology(node_of);
    }
    run_ranks(n, move |i| {
        let rank = RankId(i as u32);
        let root = RankId((n - 1) as u32);
        let mut out = Vec::new();
        out.push(
            comm.all_reduce_shared(rank, 0, rows[i].clone(), op, 64, &NullObserver)
                .unwrap()
                .to_vec(),
        );
        out.push(
            comm.all_gather_shared(rank, 1, rows[i].clone(), 64, &NullObserver)
                .unwrap()
                .to_vec(),
        );
        let payload = (rank == root).then(|| rows[i].clone());
        out.push(
            comm.broadcast_shared(rank, 2, root, payload, 64, &NullObserver)
                .unwrap()
                .to_vec(),
        );
        if rs_len > 0 {
            out.push(
                comm.reduce_scatter(rank, 3, rows[i][..rs_len].to_vec(), op, 64, &NullObserver)
                    .unwrap(),
            );
        }
        out
    })
}

/// `run_suite_topo` with a [`GradLedger`] attached to every member
/// before any collective runs, returning each rank's outputs and its
/// ledger.
fn run_suite_ledgers(
    rows: Arc<Vec<Vec<f32>>>,
    op: ReduceOp,
    engine: CollEngine,
    node_of: Option<Vec<usize>>,
    ledger_cfg: LedgerConfig,
) -> (Vec<Vec<Vec<f32>>>, Vec<Arc<GradLedger>>) {
    let n = rows.len();
    let rs_len = (rows[0].len() / n) * n;
    let clock = Arc::new(ClockBoard::new(n));
    let world = CommWorld::new(clock, CostModel::v100(), 8);
    let mut comm = world
        .create_comm((0..n).map(|i| RankId(i as u32)).collect(), (0..n).collect())
        .set_engine(engine);
    if let Some(node_of) = node_of {
        comm = comm.set_topology(node_of);
    }
    let ledgers: Vec<Arc<GradLedger>> = (0..n)
        .map(|i| {
            let l = GradLedger::new(ledger_cfg);
            comm.attach_ledger(RankId(i as u32), l.clone()).unwrap();
            l
        })
        .collect();
    let outs = run_ranks(n, move |i| {
        let rank = RankId(i as u32);
        let root = RankId((n - 1) as u32);
        let mut out = Vec::new();
        out.push(
            comm.all_reduce_shared(rank, 0, rows[i].clone(), op, 64, &NullObserver)
                .unwrap()
                .to_vec(),
        );
        out.push(
            comm.all_gather_shared(rank, 1, rows[i].clone(), 64, &NullObserver)
                .unwrap()
                .to_vec(),
        );
        let payload = (rank == root).then(|| rows[i].clone());
        out.push(
            comm.broadcast_shared(rank, 2, root, payload, 64, &NullObserver)
                .unwrap()
                .to_vec(),
        );
        if rs_len > 0 {
            out.push(
                comm.reduce_scatter(rank, 3, rows[i][..rs_len].to_vec(), op, 64, &NullObserver)
                    .unwrap(),
            );
        }
        out
    });
    (outs, ledgers)
}

fn to_bits(results: &[Vec<Vec<f32>>]) -> Vec<Vec<Vec<u32>>> {
    results
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_engine_is_bit_identical_to_slot_reference(
        rows in (1usize..97).prop_flat_map(|len| proptest::collection::vec(
            proptest::collection::vec(-100.0f32..100.0, len),
            2..6,
        )),
        // Chunk sizes from degenerate (1 byte → 1 element) through
        // non-aligned to larger-than-payload, so partial trailing
        // chunks and the single-chunk fast case are all exercised.
        chunk_bytes in 1usize..600,
        op in prop::sample::select(vec![ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max]),
        workers in 1usize..4,
    ) {
        let rows = Arc::new(rows);
        let slot = run_suite(rows.clone(), op, CollEngine::Slot);
        let ring = run_suite(
            rows,
            op,
            CollEngine::Ring(RingConfig::uniform(chunk_bytes, workers)),
        );
        prop_assert_eq!(
            to_bits(&slot),
            to_bits(&ring),
            "chunked ring output must be bit-identical to the slot reference"
        );
    }

    #[test]
    fn hier_engine_is_bit_identical_under_random_placement(
        // Worlds 2..=6 cover non-power-of-two sizes; node ids drawn from
        // a tiny pool give single-node-degenerate, scattered, and uneven
        // groupings (the hierarchy is a cost schedule, never arithmetic,
        // so every placement must reduce identically).
        (rows, node_of) in (2usize..7).prop_flat_map(|n| (
            (1usize..97).prop_flat_map(move |len| proptest::collection::vec(
                proptest::collection::vec(-100.0f32..100.0, len),
                n,
            )),
            proptest::collection::vec(0usize..3, n),
        )),
        chunk_bytes in 1usize..600,
        op in prop::sample::select(vec![ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max]),
        workers in 1usize..4,
    ) {
        let rows = Arc::new(rows);
        let slot = run_suite(rows.clone(), op, CollEngine::Slot);
        let hier = run_suite_topo(
            rows.clone(),
            op,
            CollEngine::Hier(RingConfig::uniform(chunk_bytes, workers)),
            Some(node_of.clone()),
        );
        prop_assert_eq!(
            to_bits(&slot),
            to_bits(&hier),
            "hier output must be bit-identical to the slot reference"
        );
        let ring = run_suite_topo(
            rows,
            op,
            CollEngine::Ring(RingConfig::uniform(chunk_bytes.max(7), workers)),
            Some(node_of),
        );
        prop_assert_eq!(
            to_bits(&hier),
            to_bits(&ring),
            "hier and ring engines must agree bitwise under the same placement"
        );
    }

    #[test]
    fn all_reduce_sum_matches_sequential_reference(
        rows in proptest::collection::vec(
            proptest::collection::vec(-100.0f32..100.0, 4),
            2..5,
        )
    ) {
        let n = rows.len();
        let clock = Arc::new(ClockBoard::new(n));
        let world = CommWorld::new(clock, CostModel::v100(), 8);
        let comm = world.create_comm((0..n).map(|i| RankId(i as u32)).collect(), (0..n).collect());
        // Sequential reference with the same (rank-ordered) summation.
        let mut expect = rows[0].clone();
        for r in &rows[1..] {
            for (a, b) in expect.iter_mut().zip(r) {
                *a += b;
            }
        }
        let rows2 = rows.clone();
        let results = run_ranks(n, move |i| {
            comm.all_reduce_shared(RankId(i as u32), 0, rows2[i].clone(), ReduceOp::Sum, 16, &NullObserver)
                .unwrap()
        });
        for r in results {
            prop_assert_eq!(&*r, &expect, "bit-exact rank-ordered sum");
        }
    }

    #[test]
    fn all_gather_preserves_rank_order_regardless_of_arrival(
        n in 2usize..5,
        stagger in proptest::collection::vec(0u64..5, 5),
    ) {
        let clock = Arc::new(ClockBoard::new(n));
        let world = CommWorld::new(clock, CostModel::v100(), 8);
        let comm = world.create_comm((0..n).map(|i| RankId(i as u32)).collect(), (0..n).collect());
        let stagger = Arc::new(stagger);
        let results = run_ranks(n, move |i| {
            std::thread::sleep(std::time::Duration::from_millis(stagger[i % stagger.len()]));
            comm.all_gather_shared(RankId(i as u32), 0, vec![i as f32], 4, &NullObserver).unwrap()
        });
        let expect: Vec<f32> = (0..n).map(|i| i as f32).collect();
        for r in results {
            prop_assert_eq!(&*r, &expect);
        }
    }

    #[test]
    fn reduce_scatter_shards_recompose_the_reduction(
        n in 2usize..5,
        base in proptest::collection::vec(-50.0f32..50.0, 8),
    ) {
        let len = (base.len() / n) * n;
        prop_assume!(len > 0);
        let clock = Arc::new(ClockBoard::new(n));
        let world = CommWorld::new(clock, CostModel::v100(), 8);
        let comm = world.create_comm((0..n).map(|i| RankId(i as u32)).collect(), (0..n).collect());
        let contributions: Vec<Vec<f32>> = (0..n)
            .map(|i| base[..len].iter().map(|v| v + i as f32).collect())
            .collect();
        let mut expect = vec![0.0f32; len];
        for c in &contributions {
            for (a, b) in expect.iter_mut().zip(c) {
                *a += b;
            }
        }
        let contributions = Arc::new(contributions);
        let shards = run_ranks(n, move |i| {
            comm.reduce_scatter(
                RankId(i as u32), 0, contributions[i].clone(), ReduceOp::Sum, 16, &NullObserver,
            ).unwrap()
        });
        let recomposed: Vec<f32> = shards.concat();
        prop_assert_eq!(recomposed, expect);
    }

    #[test]
    fn completed_collectives_are_served_idempotently(
        vals in proptest::collection::vec(-10.0f32..10.0, 2),
    ) {
        // A rank re-issuing a completed generation (replay) gets the
        // cached result instantly without peers re-participating.
        let n = 2;
        let clock = Arc::new(ClockBoard::new(n));
        let world = CommWorld::new(clock, CostModel::v100(), 8);
        let comm = world.create_comm(vec![RankId(0), RankId(1)], vec![0, 1]);
        let vals2 = vals.clone();
        let c2 = comm.clone();
        let first = run_ranks(n, move |i| {
            c2.all_reduce_shared(RankId(i as u32), 0, vec![vals2[i]], ReduceOp::Sum, 4, &NullObserver)
                .unwrap()
        });
        // Replay on rank 0 only.
        let replay = comm
            .all_reduce_shared(RankId(0), 0, vec![vals[0]], ReduceOp::Sum, 4, &NullObserver)
            .unwrap();
        prop_assert_eq!(&replay, &first[0]);
        prop_assert_eq!(comm.completed_slots(), 1);
    }

    #[test]
    fn ledger_reconstructs_lost_member_across_kinds_engines_and_placements(
        // Random world size, payloads, placement, engine, chunking, and
        // victim: after the suite completes, any single member's output
        // for EVERY collective kind must be rebuildable bitwise from the
        // survivors' ledgers alone. Random chunk sizes put shard
        // boundaries mid-chunk; random node maps exercise the hier
        // schedule's tap points.
        (rows, node_of, failed) in (2usize..7).prop_flat_map(|n| (
            (1usize..97).prop_flat_map(move |len| proptest::collection::vec(
                proptest::collection::vec(-100.0f32..100.0, len),
                n,
            )),
            proptest::collection::vec(0usize..3, n),
            0..n,
        )),
        engine_pick in 0usize..3,
        chunk_bytes in 1usize..600,
        op in prop::sample::select(vec![ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max]),
    ) {
        let engine = match engine_pick {
            0 => CollEngine::Slot,
            1 => CollEngine::Ring(RingConfig::uniform(chunk_bytes, 2)),
            _ => CollEngine::Hier(RingConfig::uniform(chunk_bytes, 2)),
        };
        let rows = Arc::new(rows);
        let (outs, ledgers) = run_suite_ledgers(
            rows.clone(),
            op,
            engine,
            Some(node_of),
            LedgerConfig::unbounded(),
        );
        let mut survivors: Vec<Option<Arc<GradLedger>>> =
            ledgers.into_iter().map(Some).collect();
        survivors[failed] = None;
        // One generation per collective kind, in suite order.
        for (gen, want) in outs[failed].iter().enumerate() {
            let got = reconstruct_member_output(gen as u64, failed, &survivors);
            let got = got.expect("single member loss is always covered");
            let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                got_bits, want_bits,
                "gen {} of member {} must reconstruct bitwise", gen, failed
            );
        }
    }

    #[test]
    fn ledger_memory_never_exceeds_its_cap(
        n in 2usize..5,
        lens in proptest::collection::vec(1usize..64, 1..8),
        cap_bytes in 16usize..2048,
    ) {
        let clock = Arc::new(ClockBoard::new(n));
        let world = CommWorld::new(clock, CostModel::v100(), 8);
        let comm = world
            .create_comm((0..n).map(|i| RankId(i as u32)).collect(), (0..n).collect());
        let cfg = LedgerConfig { cap_bytes, epoch_window: u64::MAX };
        let ledgers: Vec<Arc<GradLedger>> = (0..n)
            .map(|i| {
                let l = GradLedger::new(cfg);
                comm.attach_ledger(RankId(i as u32), l.clone()).unwrap();
                l
            })
            .collect();
        let lens = Arc::new(lens);
        let lens2 = lens.clone();
        run_ranks(n, move |i| {
            for (g, &len) in lens2.iter().enumerate() {
                comm.all_reduce_shared(
                    RankId(i as u32), g as u64, vec![i as f32; len],
                    ReduceOp::Sum, 64, &NullObserver,
                ).unwrap();
            }
        });
        for (i, l) in ledgers.iter().enumerate() {
            prop_assert!(
                l.pinned_bytes() <= cap_bytes,
                "member {} pins {} bytes over cap {}", i, l.pinned_bytes(), cap_bytes
            );
        }
    }

    /// Epoch-window eviction under arbitrary interleavings of
    /// `begin_epoch` advances and records, cross-checked against a
    /// straight-line model applying the documented rules: entries
    /// outside `[epoch + 1 - window, epoch]` go at the epoch boundary,
    /// the byte cap evicts FIFO on record, and retained generations
    /// stay in insertion order with exact pinned-byte accounting.
    #[test]
    fn ledger_epoch_window_evicts_exactly_like_the_model(
        ops in proptest::collection::vec(
            prop_oneof![
                (0u64..3).prop_map(Some),        // begin_epoch advance by delta
                Just(None),                      // record one generation
            ],
            1..60,
        ),
        epoch_window in 1u64..4,
        cap_bytes in 64usize..4096,
        members in 2usize..5,
    ) {
        let cfg = LedgerConfig { cap_bytes, epoch_window };
        let ledger = GradLedger::new(cfg);

        // Reference model: (epoch, gen, retained_bytes), front = oldest.
        let mut model: std::collections::VecDeque<(u64, u64, usize)> =
            std::collections::VecDeque::new();
        let mut epoch = 0u64;
        let mut gen = 0u64;

        for op in ops {
            match op {
                Some(delta) => {
                    epoch += delta;
                    ledger.begin_epoch(epoch);
                    let keep_from = (epoch + 1).saturating_sub(epoch_window);
                    while model.front().is_some_and(|&(e, _, _)| e < keep_from) {
                        model.pop_front();
                    }
                }
                None => {
                    let len = 8 + (gen as usize * 7) % 120;
                    let pos = gen as usize % members;
                    ledger.record(
                        gen,
                        collectives::CollKind::AllReduce,
                        pos,
                        members,
                        Arc::new(vec![0.5; len]),
                    );
                    let bytes: usize = collectives::ledger::retained_ranges(len, members, pos)
                        .iter()
                        .map(|r| (r.end - r.start) * 4)
                        .sum();
                    model.push_back((epoch, gen, bytes));
                    let mut pinned: usize = model.iter().map(|&(_, _, b)| b).sum();
                    while pinned > cap_bytes {
                        let Some((_, _, b)) = model.pop_front() else { break };
                        pinned -= b;
                    }
                    gen += 1;
                }
            }

            // Exact agreement with the model after every step.
            let manifest = ledger.manifest();
            let got: Vec<(u64, u64)> = manifest.iter().map(|m| (m.epoch, m.gen)).collect();
            let want: Vec<(u64, u64)> = model.iter().map(|&(e, g, _)| (e, g)).collect();
            prop_assert_eq!(got, want, "retained set diverged from model");
            let want_pinned: usize = model.iter().map(|&(_, _, b)| b).sum();
            prop_assert_eq!(ledger.pinned_bytes(), want_pinned, "pinned accounting");
            prop_assert!(ledger.pinned_bytes() <= cap_bytes);
            // Window invariant: nothing retained from before the window.
            let keep_from = (epoch + 1).saturating_sub(epoch_window);
            prop_assert!(
                manifest.iter().all(|m| m.epoch >= keep_from),
                "entry older than the epoch window survived"
            );
            // FIFO: generations strictly increase front to back.
            prop_assert!(manifest.windows(2).all(|w| w[0].gen < w[1].gen));
        }
    }

    #[test]
    fn mailbox_is_idempotent_and_seq_addressed(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<f32>(), 1..8), 1..6)
    ) {
        let clock = Arc::new(ClockBoard::new(2));
        let world = CommWorld::new(clock, CostModel::v100(), 8);
        for (seq, m) in msgs.iter().enumerate() {
            world.send(RankId(0), 0, RankId(1), 9, seq as u64, m.clone(), 16, true).unwrap();
        }
        // Receive out of order, twice each.
        for (seq, m) in msgs.iter().enumerate().rev() {
            for _ in 0..2 {
                let got = world
                    .recv(RankId(0), RankId(1), 1, 9, seq as u64, &NullObserver)
                    .unwrap();
                prop_assert_eq!(got.len(), m.len());
                for (a, b) in got.iter().zip(m) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
