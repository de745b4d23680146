//! Collective-plane sections, both in simulated time: the hierarchical
//! engine against the flat ring on a scale ladder to 2048 ranks (DESIGN.md
//! §11), and gradient bucketing against the eager per-group all-reduce
//! (DESIGN.md §10). Wall-clock collective throughput is `benchmark/`'s
//! `collectives.ring.allreduce_ms` / `_mbps`.

use crate::Table;
use collectives::{CollEngine, CommWorld, ReduceOp, RingConfig};
use dltrain::{JobSetup, ModelConfig, OptimizerKind, RankTrainer, TrainConfig};
use proxy::DirectExecutor;
use simcore::cost::CostModel;
use simcore::layout::ParallelLayout;
use simcore::time::ClockBoard;
use simcore::{GpuId, RankId, SimError, SimResult, SimTime};
use simgpu::Gpu;
use std::sync::Arc;

/// Ranks per node under the ladder's contiguous placement.
const RANKS_PER_NODE: usize = 8;

/// Bytes per rank the ladder charges the cost model for.
const LADDER_LOGICAL_BYTES: u64 = 4 << 20;

/// Elements per rank the ladder actually folds. The cost model sees only
/// the logical size, so the simulated times are those of the full 4 MiB
/// payload; the small fold keeps 2048 ranks to milliseconds of wall time
/// and still feeds the bitwise ring-vs-hier check.
const LADDER_ELEMS: usize = 256;

/// One all-reduce over `n` simulated ranks, driven from the calling
/// thread through the non-blocking offer path (no per-rank OS thread at
/// any world size). Returns the simulated seconds it took and the result.
fn offered_all_reduce(n: usize, engine: CollEngine) -> SimResult<(f64, Arc<Vec<f32>>)> {
    let clock = Arc::new(ClockBoard::new(n));
    let world = CommWorld::new(clock.clone(), CostModel::v100(), RANKS_PER_NODE);
    let comm = world
        .create_comm((0..n).map(|i| RankId(i as u32)).collect(), (0..n).collect())
        .set_engine(engine);
    for r in 0..n {
        let row: Vec<f32> = (0..LADDER_ELEMS)
            .map(|i| ((i + r) % 251) as f32 * 0.5)
            .collect();
        comm.offer_reduce(
            RankId(r as u32),
            0,
            &row,
            ReduceOp::Sum,
            LADDER_LOGICAL_BYTES,
        )?;
    }
    let result = comm
        .try_result(0)?
        .ok_or_else(|| SimError::Protocol("offered all-reduce did not complete".into()))?;
    Ok((clock.now(0).as_secs(), result))
}

/// Hierarchical vs flat-ring all-reduce, simulated milliseconds per 4 MiB
/// all-reduce at 16 to 2048 ranks (8 per node). The last column is the
/// bitwise comparison of the two engines' results.
pub fn hier_ladder() -> Table {
    let ring_cfg = RingConfig::from_cost(&CostModel::v100());
    let rows = [16usize, 64, 256, 1024, 2048]
        .into_iter()
        .map(|world| {
            let (ring_s, ring) =
                offered_all_reduce(world, CollEngine::Ring(ring_cfg)).expect("flat ring");
            let (hier_s, hier) =
                offered_all_reduce(world, CollEngine::Hier(ring_cfg)).expect("hier");
            let identical = ring.len() == hier.len()
                && ring
                    .iter()
                    .zip(hier.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            vec![
                world.to_string(),
                world.div_ceil(RANKS_PER_NODE).to_string(),
                format!("{:.3}", ring_s * 1e3),
                format!("{:.3}", hier_s * 1e3),
                format!("{:.2}x", ring_s / hier_s),
                identical.to_string(),
            ]
        })
        .collect();
    Table {
        title: "Scale ladder: hierarchical vs flat-ring all-reduce (4 MiB per rank, simulated ms)"
            .into(),
        header: vec![
            "Ranks".into(),
            "Nodes".into(),
            "Flat ring".into(),
            "Hier".into(),
            "Speedup".into(),
            "Bitwise identical".into(),
        ],
        rows,
    }
}

/// Data-parallel degree and iterations of the bucketing comparison.
const OVERLAP_DP: usize = 4;
const OVERLAP_ITERS: u64 = 3;

/// Virtual seconds per minibatch of a data-parallel job at the given
/// gradient-bucket threshold (0 = the eager per-group reference path).
fn minibatch_virtual_s(bucket_bytes: u64) -> SimResult<f64> {
    let cfg = TrainConfig {
        layout: ParallelLayout::data_parallel(OVERLAP_DP),
        model: ModelConfig {
            input_dim: 8,
            hidden: 32,
            blocks: 8,
            classes: 4,
            // Phantom-scale the gradients into the multi-MiB regime so
            // the bucket threshold actually partitions them.
            phantom_scale: 4000.0,
        },
        batch: 4,
        optimizer: OptimizerKind::sgd(0.05),
        seed: 11,
        ranks_per_node: 8,
        fsdp: false,
    };
    let setup = JobSetup::build(cfg.layout, CostModel::v100(), cfg.ranks_per_node);
    let clock = setup.clock.clone();
    let world = setup.world.clone();
    let per_rank = setup.per_rank.clone();
    let results = dltrain::run_ranks(OVERLAP_DP, move |i| {
        let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
        let exec = DirectExecutor::new(RankId(i as u32), i, gpu, world.clone());
        let mut tr = RankTrainer::new(
            exec,
            cfg.clone(),
            &per_rank[i],
            cluster::FailureInjector::none(),
        )?;
        tr.set_bucket_bytes(bucket_bytes);
        tr.train(OVERLAP_ITERS)
    });
    for r in results {
        r?;
    }
    let total = (0..OVERLAP_DP)
        .map(|i| clock.now(i))
        .fold(SimTime::ZERO, SimTime::max);
    Ok(total.as_secs() / OVERLAP_ITERS as f64)
}

/// Minibatch virtual time with gradient bucketing off vs the trainer's
/// default threshold: the saving DESIGN.md §10 describes.
pub fn bucket_overlap() -> Table {
    let eager = minibatch_virtual_s(0).expect("eager run");
    let bucketed =
        minibatch_virtual_s(dltrain::trainer::DEFAULT_BUCKET_BYTES).expect("bucketed run");
    let row = |label: &str, v: f64| vec![label.to_string(), format!("{v:.6}")];
    Table {
        title: format!(
            "Gradient bucketing vs eager all-reduce: minibatch time (seconds, virtual, DP={OVERLAP_DP}, {OVERLAP_ITERS} iterations)"
        ),
        header: vec!["Path".into(), "Minibatch".into()],
        rows: vec![
            row("eager (one all-reduce per gradient group)", eager),
            row("bucketed (default threshold)", bucketed),
            row("saving", eager - bucketed),
        ],
    }
}
