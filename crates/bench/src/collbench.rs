//! Collective data-plane benchmark harness: wall-clock time of the
//! chunked ring engine vs the slot reference across world and payload
//! sizes, the hierarchical engine vs the flat ring on a simulated-time
//! scale ladder to 2048 ranks (driven thread-free through the offer
//! path), the ring chunk-size sensitivity sweep, the virtual-time effect
//! of gradient bucketing on minibatch duration, and pipelined
//! replica-recovery streaming vs the store round-trip it replaces.
//!
//! The ring measurement is an honest end-to-end comparison of the two
//! delivery contracts: the slot rows run the monolithic single-pass
//! reduction and then clone the whole result once per rank (the seed's
//! private-copy delivery, which the library no longer offers — the
//! clone is explicit here), the ring rows run the chunked cache-blocked
//! reduction with `Arc` delivery — exactly the paths the trainer used
//! before and after the ring engine landed. On a single-core host the
//! win is copy elimination and cache blocking, not thread parallelism,
//! which is why it grows with both world size (more clone-outs avoided)
//! and payload (more of the reduction runs cache-blocked).

use collectives::{CollEngine, CommWorld, Communicator, NullObserver, ReduceOp, RingConfig};
use dltrain::{JobSetup, ModelConfig, OptimizerKind, RankTrainer, TrainConfig, TrainState};
use jitckpt::stream;
use proxy::DirectExecutor;
use simcore::cost::{CostModel, StorageTier};
use simcore::layout::ParallelLayout;
use simcore::sync::Mutex;
use simcore::time::ClockBoard;
use simcore::{pool, GpuId, RankId, SimError, SimResult, SimTime};
use simgpu::{BufferTag, Gpu};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One slot-vs-ring measurement point.
#[derive(Debug, Clone, Copy)]
pub struct RingPoint {
    /// Group size.
    pub world: usize,
    /// Payload bytes per rank (f32 elements × 4).
    pub payload_bytes: usize,
    /// Mean wall-clock milliseconds per slot-engine all-reduce.
    pub slot_ms: f64,
    /// Mean wall-clock milliseconds per ring-engine all-reduce.
    pub ring_ms: f64,
}

impl RingPoint {
    /// Slot time over ring time.
    pub fn speedup(&self) -> f64 {
        self.slot_ms / self.ring_ms
    }
}

/// One hierarchical-vs-flat measurement point from the offered
/// (thread-free) scale driver.
#[derive(Debug, Clone, Copy)]
pub struct HierPoint {
    /// Group size (simulated ranks).
    pub world: usize,
    /// Nodes spanned under contiguous 8-rank placement.
    pub nodes: usize,
    /// Payload bytes per rank.
    pub payload_bytes: usize,
    /// Simulated seconds per flat-ring all-reduce.
    pub ring_sim_s: f64,
    /// Simulated seconds per hierarchical all-reduce.
    pub hier_sim_s: f64,
    /// Wall-clock milliseconds the single driver thread spent offering
    /// and folding all `world` contributions for the hierarchical engine
    /// — the scalability evidence (no per-rank OS thread anywhere).
    pub drive_wall_ms: f64,
}

impl HierPoint {
    /// Flat-ring simulated time over hierarchical simulated time.
    pub fn speedup(&self) -> f64 {
        self.ring_sim_s / self.hier_sim_s
    }
}

/// One row of the ring chunk-size sensitivity sweep.
#[derive(Debug, Clone, Copy)]
pub struct ChunkPoint {
    /// Chunk granularity under test (both hop classes pinned to it).
    pub chunk_bytes: usize,
    /// Wall-clock milliseconds per offered all-reduce at this
    /// granularity (pure data-plane fold cost).
    pub wall_ms: f64,
}

/// Virtual-time effect of gradient bucketing on one training setup.
#[derive(Debug, Clone, Copy)]
pub struct OverlapResult {
    /// Data-parallel degree.
    pub dp: usize,
    /// Iterations measured.
    pub iters: u64,
    /// Virtual seconds per minibatch with bucketing off (one all-reduce
    /// per gradient group, the eager reference path).
    pub eager_s: f64,
    /// Virtual seconds per minibatch with the default bucket threshold.
    pub bucketed_s: f64,
}

impl OverlapResult {
    /// Virtual seconds saved per minibatch by bucketed overlap.
    pub fn saving_s(&self) -> f64 {
        self.eager_s - self.bucketed_s
    }
}

/// Streamed replica recovery vs the store round-trip it replaces.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryCompare {
    /// Logical state bytes transferred.
    pub state_bytes: u64,
    /// Virtual seconds for the receiver of the pipelined shard stream
    /// (preamble + CRC-framed shards, decode + apply overlapped with
    /// transfer). Excludes the process restart both paths share.
    pub streamed_s: f64,
    /// Virtual seconds for the store round-trip: the healthy replica
    /// writes its state to the disk tier and the restoring rank reads it
    /// back.
    pub store_s: f64,
}

impl RecoveryCompare {
    /// Store round-trip time over streamed time.
    pub fn speedup(&self) -> f64 {
        self.store_s / self.streamed_s
    }
}

/// Full collective benchmark report (`BENCH_coll.json`).
#[derive(Debug, Clone)]
pub struct CollReport {
    /// Timed repetitions per ring point.
    pub reps: usize,
    /// Slot-vs-ring matrix.
    pub ring: Vec<RingPoint>,
    /// Hierarchical-vs-flat scale ladder (offered driver).
    pub hier: Vec<HierPoint>,
    /// Ring chunk-size sensitivity sweep.
    pub chunk_sweep: Vec<ChunkPoint>,
    /// World size the chunk sweep ran at.
    pub sweep_world: usize,
    /// Payload the chunk sweep ran at.
    pub sweep_payload: usize,
    /// Bucketed-overlap minibatch comparison.
    pub overlap: OverlapResult,
    /// Streamed-recovery comparison.
    pub recovery: RecoveryCompare,
}

impl CollReport {
    /// Minimum ring speedup over the at-scale region (world ≥ 4 and
    /// payload ≥ 1 MiB) — the acceptance metric (≥ 2x).
    pub fn min_speedup_at_scale(&self) -> f64 {
        self.ring
            .iter()
            .filter(|p| p.world >= 4 && p.payload_bytes >= 1 << 20)
            .map(RingPoint::speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Minimum hierarchical speedup over flat ring at multi-node scale
    /// (world ≥ 64, which spans ≥ 2 nodes at 8 ranks/node) — the
    /// acceptance metric for the hierarchical engine (> 1x).
    pub fn min_hier_speedup_at_scale(&self) -> f64 {
        self.hier
            .iter()
            .filter(|p| p.world >= 64 && p.nodes >= 2)
            .map(HierPoint::speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the report as the `BENCH_coll.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"coll\",\n");
        out.push_str(&format!("  \"reps\": {},\n", self.reps));
        out.push_str("  \"ring\": [\n");
        for (i, p) in self.ring.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"world\": {}, \"payload_bytes\": {}, \"slot_ms\": {:.3}, \
                 \"ring_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
                p.world,
                p.payload_bytes,
                p.slot_ms,
                p.ring_ms,
                p.speedup(),
                if i + 1 < self.ring.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"min_speedup_at_scale\": {:.2},\n",
            self.min_speedup_at_scale()
        ));
        out.push_str("  \"hier\": [\n");
        for (i, p) in self.hier.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"world\": {}, \"nodes\": {}, \"payload_bytes\": {}, \
                 \"ring_sim_ms\": {:.3}, \"hier_sim_ms\": {:.3}, \"speedup\": {:.2}, \
                 \"drive_wall_ms\": {:.3}}}{}\n",
                p.world,
                p.nodes,
                p.payload_bytes,
                p.ring_sim_s * 1e3,
                p.hier_sim_s * 1e3,
                p.speedup(),
                p.drive_wall_ms,
                if i + 1 < self.hier.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        if self.hier.iter().any(|p| p.world >= 64 && p.nodes >= 2) {
            out.push_str(&format!(
                "  \"min_hier_speedup_at_scale\": {:.2},\n",
                self.min_hier_speedup_at_scale()
            ));
        }
        out.push_str(&format!(
            "  \"chunk_sweep\": {{\"world\": {}, \"payload_bytes\": {}, \"points\": [\n",
            self.sweep_world, self.sweep_payload
        ));
        for (i, p) in self.chunk_sweep.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"chunk_bytes\": {}, \"wall_ms\": {:.3}}}{}\n",
                p.chunk_bytes,
                p.wall_ms,
                if i + 1 < self.chunk_sweep.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]},\n");
        out.push_str(&format!(
            "  \"bucket_overlap\": {{\"dp\": {}, \"iters\": {}, \"eager_minibatch_s\": {:.6}, \
             \"bucketed_minibatch_s\": {:.6}, \"saving_s\": {:.6}}},\n",
            self.overlap.dp,
            self.overlap.iters,
            self.overlap.eager_s,
            self.overlap.bucketed_s,
            self.overlap.saving_s()
        ));
        out.push_str(&format!(
            "  \"recovery\": {{\"state_bytes\": {}, \"streamed_s\": {:.4}, \"store_s\": {:.4}, \
             \"speedup\": {:.2}}}\n",
            self.recovery.state_bytes,
            self.recovery.streamed_s,
            self.recovery.store_s,
            self.recovery.speedup()
        ));
        out.push_str("}\n");
        out
    }
}

/// Batches per engine per measurement; the median batch is reported,
/// which rejects scheduler/bandwidth outliers on a shared single-core
/// host without letting one lucky batch set the number.
const BATCHES: usize = 5;

/// One timed batch of `reps` free-running all-reduces on `comm`: ranks
/// advance through the generations without artificial barriers, exactly
/// like back-to-back gradient all-reduces. Contribution buffers are
/// materialized before the clock starts: cloning the per-rep input is
/// bench setup (every engine takes an owned Vec), not collective work,
/// and on a single core it would otherwise dominate the window and mask
/// the data-plane gap.
fn batch_all_reduce(
    comm: &Arc<Communicator>,
    inputs: &Arc<Vec<Vec<f32>>>,
    slot_delivery: bool,
    base_gen: u64,
    reps: usize,
) -> SimResult<Duration> {
    let n = inputs.len();
    let elems = inputs[0].len();
    let mut bufs: Vec<Vec<Vec<f32>>> = (0..n)
        .map(|r| (0..reps).map(|_| inputs[r].clone()).collect())
        .collect();
    let start = Instant::now();
    let handles: Vec<_> = (0..n)
        .map(|r| {
            let comm = comm.clone();
            let mine = std::mem::take(&mut bufs[r]);
            std::thread::spawn(move || -> SimResult<()> {
                for (rep, buf) in mine.into_iter().enumerate() {
                    let gen = base_gen + rep as u64;
                    let rank = RankId(r as u32);
                    let bytes = (elems * 4) as u64;
                    let out = comm.all_reduce_shared(
                        rank,
                        gen,
                        buf,
                        ReduceOp::Sum,
                        bytes,
                        &NullObserver,
                    )?;
                    if slot_delivery {
                        // The seed's delivery contract: a private
                        // full-vector copy per rank.
                        std::hint::black_box(out.to_vec());
                    }
                }
                Ok(())
            })
        })
        .collect();
    for h in handles {
        h.join()
            .map_err(|_| simcore::SimError::Protocol("bench rank panicked".into()))??;
    }
    Ok(start.elapsed())
}

fn median_secs(mut xs: Vec<Duration>) -> f64 {
    xs.sort();
    xs[xs.len() / 2].as_secs_f64()
}

/// Measures mean wall-clock seconds per all-reduce of `elems` f32s
/// across `n` ranks for BOTH engines, returned as `(slot_s, ring_s)`.
///
/// The engines run on separate communicators over the same world and
/// their batches are interleaved in time (slot, ring, slot, ring, ...),
/// so slow drift in effective memory bandwidth — minutes-scale
/// contention on a shared host — lands on both sides of the ratio
/// instead of on whichever engine happened to run later. A warm-up
/// batch per engine precedes the timed ones (allocator growth and
/// first-touch faults stay untimed); completed slots are pruned between
/// batches (no rank is inside a collective then, so pruning is
/// race-free); the median batch is reported.
pub fn measure_all_reduce(n: usize, elems: usize, reps: usize) -> SimResult<(f64, f64)> {
    let clock = Arc::new(ClockBoard::new(n));
    let world = CommWorld::new(clock, CostModel::v100(), 8);
    let ranks: Vec<RankId> = (0..n).map(|i| RankId(i as u32)).collect();
    let idxs: Vec<usize> = (0..n).collect();
    let slot_comm = world
        .create_comm(ranks.clone(), idxs.clone())
        .set_engine(CollEngine::Slot);
    let ring_comm = world
        .create_comm(ranks, idxs)
        .set_engine(CollEngine::default());
    let inputs: Arc<Vec<Vec<f32>>> = Arc::new(
        (0..n)
            .map(|r| (0..elems).map(|i| ((i + r) % 251) as f32 * 0.5).collect())
            .collect(),
    );
    batch_all_reduce(&slot_comm, &inputs, true, 0, 1)?; // warm-up
    batch_all_reduce(&ring_comm, &inputs, false, 0, 1)?;
    let mut gen = 1u64;
    let mut slot_t = Vec::with_capacity(BATCHES);
    let mut ring_t = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        slot_comm.prune_below(gen);
        ring_comm.prune_below(gen);
        slot_t.push(batch_all_reduce(&slot_comm, &inputs, true, gen, reps)?);
        ring_t.push(batch_all_reduce(&ring_comm, &inputs, false, gen, reps)?);
        gen += reps as u64;
    }
    Ok((
        median_secs(slot_t) / reps as f64,
        median_secs(ring_t) / reps as f64,
    ))
}

/// Runs the slot-vs-ring matrix over `worlds` × `payload_bytes`.
pub fn measure_ring_matrix(
    worlds: &[usize],
    payloads: &[usize],
    reps: usize,
) -> SimResult<Vec<RingPoint>> {
    let mut out = Vec::new();
    for &world in worlds {
        for &payload in payloads {
            let elems = payload / 4;
            let (slot, ring) = measure_all_reduce(world, elems, reps)?;
            out.push(RingPoint {
                world,
                payload_bytes: payload,
                slot_ms: slot * 1e3,
                ring_ms: ring * 1e3,
            });
        }
    }
    Ok(out)
}

/// Contribution-pattern arena size for the offered driver: buffers are
/// reused across ranks (rank `r` contributes pattern `r mod 8`), so a
/// 2048-rank point allocates 8 input buffers plus one accumulator — not
/// 2048 buffers and never 2048 OS threads.
const ARENA_PATTERNS: usize = 8;

/// Drives `passes` all-reduces of `elems` f32s over `n` simulated ranks
/// entirely from the calling thread via the non-blocking offer path
/// ([`Communicator::offer_reduce`]): contributions arrive in member
/// order, so each offer folds straight into the accumulator and no
/// per-rank state is ever parked. Returns (simulated seconds per
/// all-reduce, median wall-clock seconds per timed pass, the gen-0
/// result for bit-identity checks). A warm-up pass precedes the timed
/// ones; completed generations are pruned as the driver advances so at
/// most one slot is live.
fn offered_all_reduce(
    n: usize,
    elems: usize,
    engine: CollEngine,
    passes: usize,
) -> SimResult<(f64, f64, Arc<Vec<f32>>)> {
    let passes = passes.max(1);
    let clock = Arc::new(ClockBoard::new(n));
    let world = CommWorld::new(clock.clone(), CostModel::v100(), 8);
    let ranks: Vec<RankId> = (0..n).map(|i| RankId(i as u32)).collect();
    let idxs: Vec<usize> = (0..n).collect();
    let comm = world.create_comm(ranks, idxs).set_engine(engine);
    let k = ARENA_PATTERNS.min(n);
    let arena: Vec<Mutex<Vec<f32>>> = (0..k).map(|_| Mutex::new(vec![0.0; elems])).collect();
    pool::fan_out(k, k, "bench-fill", |p| {
        let mut buf = arena[p].lock();
        for (i, v) in buf.iter_mut().enumerate() {
            *v = ((i + p) % 251) as f32 * 0.5;
        }
    });
    let arena: Vec<Vec<f32>> = arena.into_iter().map(Mutex::into_inner).collect();
    let bytes = (elems * 4) as u64;
    let drive = |gen: u64| -> SimResult<Arc<Vec<f32>>> {
        for r in 0..n {
            comm.offer_reduce(RankId(r as u32), gen, &arena[r % k], ReduceOp::Sum, bytes)?;
        }
        comm.try_result(gen)?
            .ok_or_else(|| SimError::Protocol("offered all-reduce did not complete".into()))
    };
    let result = drive(0)?; // warm-up: allocator growth + first touch
    let sim0 = clock.now(0);
    let mut walls = Vec::with_capacity(passes);
    for gen in 1..=passes as u64 {
        comm.prune_below(gen);
        let start = Instant::now();
        drive(gen)?;
        walls.push(start.elapsed());
    }
    let sim_per_op = (clock.now(0) - sim0).as_secs() / passes as f64;
    Ok((sim_per_op, median_secs(walls), result))
}

/// Runs the hierarchical-vs-flat scale ladder at `payload` bytes per
/// rank: each world size is measured under both engines through the
/// offered driver, and the two results are required to be bit-identical
/// before the point is reported.
pub fn measure_hier_matrix(
    worlds: &[usize],
    payload: usize,
    passes: usize,
) -> SimResult<Vec<HierPoint>> {
    let elems = payload / 4;
    let cost = CostModel::v100();
    let mut out = Vec::new();
    for &world in worlds {
        let ring_cfg = RingConfig::from_cost(&cost);
        let (ring_sim, _, ring_res) =
            offered_all_reduce(world, elems, CollEngine::Ring(ring_cfg), passes)?;
        let (hier_sim, hier_wall, hier_res) =
            offered_all_reduce(world, elems, CollEngine::Hier(ring_cfg), passes)?;
        let identical = ring_res.len() == hier_res.len()
            && ring_res
                .iter()
                .zip(hier_res.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !identical {
            return Err(SimError::Protocol(format!(
                "hier all-reduce diverged bitwise from flat ring at world {world}"
            )));
        }
        out.push(HierPoint {
            world,
            nodes: world.div_ceil(8),
            payload_bytes: payload,
            ring_sim_s: ring_sim,
            hier_sim_s: hier_sim,
            drive_wall_ms: hier_wall * 1e3,
        });
    }
    Ok(out)
}

/// Sweeps the ring chunk size at a fixed world and payload: both hop
/// classes are pinned to each candidate granularity and the pure
/// data-plane fold is timed through the offered driver. Shows the
/// cache-blocking sensitivity that motivates the per-hop-class
/// cost-model defaults ([`RingConfig::from_cost`]).
pub fn measure_chunk_sweep(
    world: usize,
    payload: usize,
    chunks: &[usize],
    passes: usize,
) -> SimResult<Vec<ChunkPoint>> {
    let elems = payload / 4;
    let workers = RingConfig::default().workers;
    let mut out = Vec::new();
    for &chunk in chunks {
        let engine = CollEngine::Ring(RingConfig::uniform(chunk, workers));
        let (_, wall, _) = offered_all_reduce(world, elems, engine, passes)?;
        out.push(ChunkPoint {
            chunk_bytes: chunk,
            wall_ms: wall * 1e3,
        });
    }
    Ok(out)
}

/// Virtual seconds per minibatch of a data-parallel job at the given
/// gradient-bucket threshold (0 = the eager per-group reference path).
fn minibatch_virtual_s(dp: usize, iters: u64, bucket_bytes: u64) -> SimResult<f64> {
    let cfg = TrainConfig {
        layout: ParallelLayout::data_parallel(dp),
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
    let results = dltrain::run_ranks(dp, move |i| {
        let gpu = Gpu::new(GpuId(i as u32), CostModel::v100());
        let exec = DirectExecutor::new(RankId(i as u32), i, gpu, world.clone());
        let mut tr = RankTrainer::new(
            exec,
            cfg.clone(),
            &per_rank[i],
            cluster::FailureInjector::none(),
        )?;
        tr.set_bucket_bytes(bucket_bytes);
        tr.train(iters)
    });
    for r in results {
        r?;
    }
    let total = (0..dp)
        .map(|i| clock.now(i))
        .fold(SimTime::ZERO, SimTime::max);
    Ok(total.as_secs() / iters as f64)
}

/// Measures minibatch time with bucketing off vs the default threshold.
pub fn measure_bucket_overlap(dp: usize, iters: u64) -> SimResult<OverlapResult> {
    let eager_s = minibatch_virtual_s(dp, iters, 0)?;
    let bucketed_s = minibatch_virtual_s(dp, iters, dltrain::trainer::DEFAULT_BUCKET_BYTES)?;
    Ok(OverlapResult {
        dp,
        iters,
        eager_s,
        bucketed_s,
    })
}

/// A synthetic `TrainState` of roughly `mib` MiB of f32 parameters.
pub fn synthetic_state(mib: usize) -> TrainState {
    let elems = mib * (1 << 20) / 4;
    let data: Vec<f32> = (0..elems).map(|i| (i % 509) as f32 * 0.25).collect();
    TrainState {
        iteration: 42,
        opt_t: 42,
        buffers: vec![("model.flat".into(), BufferTag::Param, data)],
        logical_bytes: (elems * 4) as u64,
    }
}

/// Measures the virtual time of a pipelined recovery stream of an
/// `mib`-MiB state against the disk-tier store round-trip it replaces
/// (write by the healthy replica + read by the restoring rank). The
/// process restart both paths share is excluded from both sides.
pub fn measure_recovery(mib: usize, shard_bytes: usize) -> SimResult<RecoveryCompare> {
    let clock = Arc::new(ClockBoard::new(2));
    let world = CommWorld::new(clock.clone(), CostModel::v100(), 8);
    let cost = CostModel::v100();
    let state = synthetic_state(mib);
    stream::send_state(
        &world,
        &cost,
        RankId(0),
        0,
        RankId(1),
        true,
        &state,
        shard_bytes,
    )?;
    stream::recv_state(
        &world,
        &cost,
        RankId(0),
        RankId(1),
        1,
        Duration::from_secs(10),
    )?;
    let streamed = clock.now(1);
    let bytes = state.logical_bytes;
    let store = cost.checkpoint_write(bytes, StorageTier::Disk, 8)
        + cost.checkpoint_read(bytes, StorageTier::Disk, 8);
    Ok(RecoveryCompare {
        state_bytes: bytes,
        streamed_s: streamed.as_secs(),
        store_s: store.as_secs(),
    })
}

/// The full measurement matrix. `Default` is the shipped
/// `BENCH_coll.json` configuration; tests and smokes shrink it.
#[derive(Debug, Clone)]
pub struct CollBenchConfig {
    /// World sizes for the threaded slot-vs-ring matrix.
    pub worlds: Vec<usize>,
    /// Payload sizes (bytes) for the slot-vs-ring matrix.
    pub payloads: Vec<usize>,
    /// Timed repetitions per slot-vs-ring point.
    pub reps: usize,
    /// Data-parallel degree of the bucket-overlap measurement.
    pub overlap_dp: usize,
    /// Iterations of the bucket-overlap measurement.
    pub overlap_iters: u64,
    /// Recovery-stream state size (MiB).
    pub recovery_mib: usize,
    /// World sizes for the hierarchical-vs-flat scale ladder (offered
    /// driver — no per-rank threads, so thousands of ranks are cheap).
    pub hier_worlds: Vec<usize>,
    /// Payload (bytes) per rank for the scale ladder.
    pub hier_payload: usize,
    /// World size of the chunk-size sweep.
    pub sweep_world: usize,
    /// Payload (bytes) of the chunk-size sweep.
    pub sweep_payload: usize,
    /// Candidate chunk granularities for the sweep.
    pub sweep_chunks: Vec<usize>,
}

impl Default for CollBenchConfig {
    fn default() -> Self {
        CollBenchConfig {
            worlds: vec![2, 4, 8],
            payloads: vec![64 << 10, 1 << 20, 4 << 20],
            reps: 6,
            overlap_dp: 4,
            overlap_iters: 3,
            recovery_mib: 64,
            hier_worlds: vec![16, 64, 256, 1024, 2048],
            hier_payload: 4 << 20,
            sweep_world: 8,
            sweep_payload: 4 << 20,
            sweep_chunks: vec![32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20],
        }
    }
}

/// Runs the full measurement matrix.
pub fn run_coll_bench(cfg: &CollBenchConfig) -> SimResult<CollReport> {
    let ring = measure_ring_matrix(&cfg.worlds, &cfg.payloads, cfg.reps)?;
    // The offered driver is deterministic in simulated time; a few wall
    // passes suffice for the median.
    let passes = cfg.reps.clamp(1, 3);
    let hier = measure_hier_matrix(&cfg.hier_worlds, cfg.hier_payload, passes)?;
    let chunk_sweep = measure_chunk_sweep(
        cfg.sweep_world,
        cfg.sweep_payload,
        &cfg.sweep_chunks,
        passes,
    )?;
    let overlap = measure_bucket_overlap(cfg.overlap_dp, cfg.overlap_iters)?;
    let recovery = measure_recovery(cfg.recovery_mib, 4 << 20)?;
    Ok(CollReport {
        reps: cfg.reps,
        ring,
        hier,
        chunk_sweep,
        sweep_world: cfg.sweep_world,
        sweep_payload: cfg.sweep_payload,
        overlap,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_holds_on_tiny_run() -> SimResult<()> {
        // Tiny sizes: validates plumbing, not performance — the shipped
        // BENCH_coll.json comes from `scripts/bench.sh`.
        let cfg = CollBenchConfig {
            worlds: vec![2],
            payloads: vec![16 << 10],
            reps: 2,
            overlap_dp: 2,
            overlap_iters: 2,
            recovery_mib: 1,
            hier_worlds: vec![16],
            hier_payload: 64 << 10,
            sweep_world: 2,
            sweep_payload: 16 << 10,
            sweep_chunks: vec![4 << 10, 16 << 10],
        };
        let report = run_coll_bench(&cfg)?;
        assert_eq!(report.ring.len(), 1);
        // 16 ranks span 2 nodes: every flat-ring step is gated by the NIC
        // class while hier keeps 14 of 16 hops on NVLink — it must win
        // (and bit-identity vs flat is asserted inside the measurement).
        assert_eq!(report.hier.len(), 1);
        assert!(
            report.hier[0].speedup() > 1.0,
            "hier must beat flat ring across nodes: {:?}",
            report.hier[0]
        );
        assert_eq!(report.chunk_sweep.len(), 2);
        assert!(report.chunk_sweep.iter().all(|p| p.wall_ms > 0.0));
        assert!(report.ring[0].slot_ms > 0.0 && report.ring[0].ring_ms > 0.0);
        assert!(report.overlap.eager_s > 0.0);
        assert!(
            report.overlap.bucketed_s <= report.overlap.eager_s,
            "bucketing must not slow the minibatch: {:?}",
            report.overlap
        );
        assert!(
            report.recovery.speedup() > 1.0,
            "streamed restore must beat the store round-trip: {:?}",
            report.recovery
        );
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"coll\""), "{json}");
        assert!(json.contains("min_speedup_at_scale"), "{json}");
        assert!(json.contains("\"hier\""), "{json}");
        assert!(json.contains("\"chunk_sweep\""), "{json}");
        Ok(())
    }
}
