//! Checkpoint file format, naming scheme, and assembly.
//!
//! Implements §3.2–§3.3's persistence protocol:
//!
//! * each rank writes to a **rank-dependent path** so concurrent JIT
//!   checkpoints never collide;
//! * the payload is written first, then a **metadata sidecar** carrying
//!   the payload checksums — a missing or mismatching sidecar marks an
//!   incomplete/corrupt checkpoint (a rank may die *while* checkpointing);
//! * on restore, [`jit_get_checkpoint_path`] finds a complete checkpoint
//!   from **any data-parallel replica** of the reader's (pipeline stage,
//!   tensor partition) cell, resolving the *i* vs *i+1* ambiguity by
//!   choosing the newest iteration available for **every** cell.
//!
//! # Sharded payloads
//!
//! The paper's §5 stall model makes the checkpoint write stall `o` the
//! dominant wasted-work term, so the payload is not one monolithic blob:
//! a rank's `TrainState` is encoded once into a flat logical byte stream
//! and split into fixed-size **shards** at `shard_bytes` boundaries. Each
//! shard is its own store object (`.../shard00000`, `.../shard00001`, …)
//! and carries its own CRC in the sidecar, which buys three things:
//!
//! 1. **Parallelism** — shards are checksummed and persisted by a bounded
//!    [`std::thread::scope`] worker pool, overlapping CRC with store puts
//!    instead of serializing the whole payload through one pass.
//! 2. **Delta mode** — because shard boundaries are byte offsets into a
//!    deterministic encoding, a training step that mutates only part of
//!    the state leaves most shards bit-identical; those are *skipped* and
//!    the sidecar records a reference to the iteration whose directory
//!    physically holds the bytes ([`ShardMeta::base_iteration`]).
//!    References always point at the original writer (they are collapsed
//!    transitively at write time), so reads never chase chains.
//! 3. **Fine-grained blame** — a torn or bit-rotted object invalidates
//!    one shard, and [`read_checkpoint`] reports the failure *by shard
//!    index* while still validating the siblings.
//!
//! The same format is used by the periodic-checkpointing baselines, which
//! is what makes JIT + low-frequency periodic checkpointing compose
//! (§6.3): recovery just takes the newest complete checkpoint of either
//! kind.

use bytes::{BufMut, Bytes, BytesMut};
use cluster::StorageBackend;
use dltrain::TrainState;
use serde::{Deserialize, Serialize};
use simcore::codec::{decode_framed, encode_framed, Decode, Encode};
use simcore::layout::ParallelLayout;
use simcore::sync::Mutex;
use simcore::{JobId, RankId, SimError, SimResult};
use std::collections::BTreeMap;

use crate::restore::{read_counted, RestoreConfig, RestoreStats};

/// Checkpoint flavor (JIT-on-failure or periodic), part of the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CkptKind {
    /// Just-in-time checkpoint, written after failure detection.
    Jit,
    /// Periodic checkpoint, written on a schedule.
    Periodic,
}

impl CkptKind {
    fn dir(self) -> &'static str {
        match self {
            CkptKind::Jit => "jit",
            CkptKind::Periodic => "periodic",
        }
    }
}

/// Tuning knobs for the sharded write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Shard payload size in bytes (boundaries in the logical stream).
    /// Clamped to at least 1.
    pub shard_bytes: usize,
    /// Worker-pool width for per-shard CRC + store puts. The calling
    /// thread always participates, so `1` means "inline, no threads".
    pub workers: usize,
    /// Skip shards whose bytes are unchanged since this cell's previous
    /// checkpoint, recording a reference in the sidecar instead.
    pub delta: bool,
    /// Longest run of consecutive delta checkpoints before the writer is
    /// forced back to a full (no-reuse) checkpoint. Delta references are
    /// collapsed transitively at write time, so *reads* never chase
    /// chains — but every delta generation keeps its base's directory
    /// alive: an unbounded run pins arbitrarily old iterations against
    /// garbage collection, and `list`-driven costs (`read_meta` scans,
    /// `assemble`) grow with job age. The cap bounds how far back any
    /// live reference can reach. `0` disables delta entirely.
    pub max_delta_chain: u32,
}

/// Default bound on consecutive delta generations
/// ([`ShardConfig::max_delta_chain`]): long enough that steady-state
/// writes stay mostly-delta, short enough that retention can always
/// collect a cell's history within a handful of generations.
pub const DEFAULT_MAX_DELTA_CHAIN: u32 = 8;

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shard_bytes: 4 << 20,
            workers: default_shard_workers(),
            delta: true,
            max_delta_chain: DEFAULT_MAX_DELTA_CHAIN,
        }
    }
}

impl ShardConfig {
    /// This configuration with the worker pool auto-sized for `state`:
    /// [`auto_shard_workers`] of the shard count `state` will split into
    /// at this `shard_bytes`. Both checkpoint policies (JIT and the
    /// periodic baselines) route their write sites through this so pool
    /// sizing logic lives in exactly one place.
    pub fn auto_sized_for(&self, state: &TrainState) -> ShardConfig {
        ShardConfig {
            workers: auto_shard_workers(state.shard_count(self.shard_bytes)),
            ..*self
        }
    }
}

/// Default worker-pool width for the sharded write path.
///
/// Shard workers are *not* CPU-bound: each one CRCs its slice and then
/// blocks inside the store put (stripe write-locks, allocator, the
/// storage tier behind them), so the pool wants more threads than cores
/// — an `available_parallelism`-capped pool leaves the store idle
/// whenever its only worker is parked on a lock. The re-measured sweep
/// (EXPERIMENTS.md) shows write throughput climbing ~8x from 1 worker to
/// the 2–4 plateau even on a 1-vCPU host, and staying flat (within
/// noise) out to 16: over-subscription past `2 × cores` buys nothing
/// but scheduling churn. Hence `2 × cores`, floored at the plateau's
/// start (4) and capped at 16.
pub fn default_shard_workers() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (2 * cores).clamp(4, 16)
}

/// Auto-sized pool width for a checkpoint that splits into `n_shards`
/// shards: the host default, but never more workers than shards (extra
/// threads would exit without claiming any work).
pub fn auto_shard_workers(n_shards: usize) -> usize {
    default_shard_workers().min(n_shards.max(1))
}

/// Per-shard record in the metadata sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMeta {
    /// Position of this shard in the logical stream.
    pub index: u32,
    /// Shard payload length in bytes.
    pub len: u64,
    /// CRC-64 of the shard payload.
    pub crc: u64,
    /// `None` when this checkpoint's own directory holds the shard
    /// object; `Some(it)` when the bytes were unchanged and live in
    /// iteration `it`'s directory (delta reuse). Always the *original*
    /// writer — never a further delta reference.
    pub base_iteration: Option<u64>,
}

impl ShardMeta {
    /// Versioned as part of the enclosing [`CheckpointMeta`] sidecar; a
    /// layout change here must bump that schema version.
    pub const SCHEMA_VERSION: u16 = CheckpointMeta::SCHEMA_VERSION;
}

impl Encode for ShardMeta {
    fn encode(&self, buf: &mut BytesMut) {
        self.index.encode(buf);
        self.len.encode(buf);
        self.crc.encode(buf);
        self.base_iteration.encode(buf);
    }
}

impl Decode for ShardMeta {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        Ok(ShardMeta {
            index: u32::decode(buf)?,
            len: u64::decode(buf)?,
            crc: u64::decode(buf)?,
            base_iteration: Option::<u64>::decode(buf)?,
        })
    }
}

/// Metadata sidecar marking a complete, verifiable checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointMeta {
    /// Iteration the checkpoint resumes at.
    pub iteration: u64,
    /// Writing rank.
    pub rank: u32,
    /// CRC-64 over the concatenated per-shard CRCs (little-endian), in
    /// index order — binds the shard *set* without a second full-payload
    /// pass (each shard's bytes are already covered by its own CRC).
    pub payload_crc: u64,
    /// Total logical payload stream length in bytes (sum of shard lens).
    pub payload_len: u64,
    /// Logical checkpoint size (cost accounting on restore).
    pub logical_bytes: u64,
    /// Shard boundary size this checkpoint was written with. Delta reuse
    /// requires the base to have the identical value.
    pub shard_bytes: u64,
    /// Length of the consecutive delta run ending at this checkpoint:
    /// `0` for a full checkpoint (no shard reused), `base.delta_depth+1`
    /// when any shard references a base. The writer refuses to extend a
    /// run past [`ShardConfig::max_delta_chain`] — see that field.
    pub delta_depth: u32,
    /// Per-shard records, in index order.
    pub shards: Vec<ShardMeta>,
}

impl CheckpointMeta {
    /// Version of the persisted sidecar layout. The sidecar outlives the
    /// process that wrote it — restore runs in a *new* incarnation of the
    /// binary — so any field change must bump this and decode rejects
    /// mismatched versions instead of silently misreading old bytes.
    /// v2: sharded payload (per-shard CRCs, delta references).
    /// v3: `delta_depth` (delta-chain accounting for the chain cap).
    pub const SCHEMA_VERSION: u16 = 3;
}

impl Encode for CheckpointMeta {
    fn encode(&self, buf: &mut BytesMut) {
        Self::SCHEMA_VERSION.encode(buf);
        self.iteration.encode(buf);
        self.rank.encode(buf);
        self.payload_crc.encode(buf);
        self.payload_len.encode(buf);
        self.logical_bytes.encode(buf);
        self.shard_bytes.encode(buf);
        self.delta_depth.encode(buf);
        self.shards.encode(buf);
    }
}

impl Decode for CheckpointMeta {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        let version = u16::decode(buf)?;
        if version != Self::SCHEMA_VERSION {
            return Err(SimError::CorruptCheckpoint(format!(
                "metadata schema version {version} (this binary reads {})",
                Self::SCHEMA_VERSION
            )));
        }
        Ok(CheckpointMeta {
            iteration: u64::decode(buf)?,
            rank: u32::decode(buf)?,
            payload_crc: u64::decode(buf)?,
            payload_len: u64::decode(buf)?,
            logical_bytes: u64::decode(buf)?,
            shard_bytes: u64::decode(buf)?,
            delta_depth: u32::decode(buf)?,
            shards: Vec::<ShardMeta>::decode(buf)?,
        })
    }
}

/// CRC binding the shard set: CRC-64 over the per-shard CRCs in order.
fn shard_set_crc(shards: &[ShardMeta]) -> u64 {
    let mut b = BytesMut::with_capacity(shards.len() * 8);
    for s in shards {
        b.put_u64_le(s.crc);
    }
    simcore::codec::crc64(&b)
}

/// Directory prefix of every checkpoint a job has written under `kind`
/// — the unit of coordinator retention scans and departure purges.
pub fn job_prefix(job: JobId, kind: CkptKind) -> String {
    format!("ckpt/{job}/{}/", kind.dir())
}

/// Directory prefix of one rank-cell's checkpoint (shard objects and the
/// metadata sidecar live under it).
pub fn checkpoint_prefix(
    job: JobId,
    kind: CkptKind,
    iteration: u64,
    stage: usize,
    part: usize,
    dp: usize,
) -> String {
    format!(
        "ckpt/{job}/{}/it{iteration:010}/s{stage}p{part}/dp{dp}",
        kind.dir()
    )
}

/// Path of one checkpoint shard object.
#[allow(clippy::too_many_arguments)]
pub fn shard_path(
    job: JobId,
    kind: CkptKind,
    iteration: u64,
    stage: usize,
    part: usize,
    dp: usize,
    index: u32,
) -> String {
    format!(
        "{}/shard{index:05}",
        checkpoint_prefix(job, kind, iteration, stage, part, dp)
    )
}

/// Path of a checkpoint metadata sidecar.
pub fn meta_path(
    job: JobId,
    kind: CkptKind,
    iteration: u64,
    stage: usize,
    part: usize,
    dp: usize,
) -> String {
    format!(
        "{}/meta",
        checkpoint_prefix(job, kind, iteration, stage, part, dp)
    )
}

/// Parses a path under `ckpt/{job}/{kind}/` into
/// `(iteration, cell, dp, leaf)`; `None` for foreign paths.
fn parse_rel_path(rest: &str) -> Option<(u64, &str, usize, &str)> {
    let mut parts = rest.split('/');
    let (it, cell, dp_s, leaf) = (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() {
        return None;
    }
    let iteration = it.strip_prefix("it")?.parse::<u64>().ok()?;
    let dp = dp_s.strip_prefix("dp")?.parse::<usize>().ok()?;
    Some((iteration, cell, dp, leaf))
}

/// The staged write of one rank-cell checkpoint: the encoded logical
/// stream, its zero-copy shard slices, and the resolved delta base.
/// Both persistence paths are built on it — the blocking worker-pool
/// path ([`write_checkpoint_with`]) and the write-behind pipeline
/// ([`crate::pipeline`]) — so shard encoding, delta policy, and the
/// chain cap live in exactly one place.
pub struct ShardPlan {
    /// Target checkpoint identity.
    pub job: JobId,
    /// Checkpoint flavor.
    pub kind: CkptKind,
    /// Writing rank.
    pub rank: RankId,
    /// Pipeline stage of the cell.
    pub stage: usize,
    /// Tensor partition of the cell.
    pub part: usize,
    /// Data-parallel replica index.
    pub dp: usize,
    /// Iteration being persisted.
    pub iteration: u64,
    /// Logical checkpoint size (cost accounting on restore).
    pub logical_bytes: u64,
    /// Shard boundary size, bytes.
    pub shard_bytes: usize,
    /// The encoded logical stream (shards are slices of it — the
    /// `Arc`-backed buffer is shared, never copied, all the way into
    /// the storage backend).
    pub stream: Bytes,
    /// Per-shard zero-copy slices of `stream`.
    pub slices: Vec<Bytes>,
    /// Delta base sidecar, when reuse is allowed and layout-compatible.
    pub base: Option<CheckpointMeta>,
}

impl ShardPlan {
    /// Stages a checkpoint write: encodes the logical stream once,
    /// slices it at `shard_bytes` boundaries, and resolves the delta
    /// base (enforcing [`ShardConfig::max_delta_chain`] — a base whose
    /// consecutive-delta run is exhausted is discarded, forcing this
    /// write to be full so old directories become collectable).
    #[allow(clippy::too_many_arguments)]
    pub fn stage<S: StorageBackend + ?Sized>(
        store: &S,
        job: JobId,
        kind: CkptKind,
        rank: RankId,
        stage: usize,
        part: usize,
        dp: usize,
        state: &TrainState,
        cfg: &ShardConfig,
    ) -> ShardPlan {
        Self::stage_cached(store, job, kind, rank, stage, part, dp, state, cfg, None)
    }

    /// [`Self::stage`] with a writer-side [`MetaCache`]: a cache hit
    /// resolves the delta base with one targeted sidecar `get` instead
    /// of a full `store.list` keyspace walk. Misses (cold cache, sidecar
    /// not yet durable, lost put) fall back to the scan, so behavior is
    /// identical to the uncached path — only the list traffic differs.
    #[allow(clippy::too_many_arguments)]
    pub fn stage_cached<S: StorageBackend + ?Sized>(
        store: &S,
        job: JobId,
        kind: CkptKind,
        rank: RankId,
        stage: usize,
        part: usize,
        dp: usize,
        state: &TrainState,
        cfg: &ShardConfig,
        cache: Option<&MetaCache>,
    ) -> ShardPlan {
        let shard_bytes = cfg.shard_bytes.max(1);
        // Encode the logical stream once; shards are zero-copy slices of
        // it. Pre-sizing to the exact encoded length avoids growing a
        // multi-hundred-MiB buffer through a doubling realloc chain.
        let mut staged = BytesMut::with_capacity(state.encoded_len());
        state.encode(&mut staged);
        let stream = staged.freeze();
        let n = stream.len().div_ceil(shard_bytes).max(1);
        let mut slices = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i * shard_bytes;
            let hi = ((i + 1) * shard_bytes).min(stream.len());
            slices.push(stream.slice(lo..hi));
        }

        // Delta base: this cell+replica's newest prior sidecar with an
        // identical shard layout. Only the sidecar is consulted — if a
        // base object later turns out torn or missing, the *read* path
        // rejects that shard by index and assembly falls back, exactly
        // as for any other incomplete checkpoint.
        let base = if cfg.delta && cfg.max_delta_chain > 0 {
            cache
                .and_then(|c| c.newest_before(job, kind, state.iteration, stage, part, dp))
                // A remembered iteration is only a *candidate*: its
                // sidecar may still be queued behind the write-behind
                // pipeline or silently lost by the backend. The targeted
                // read confirms durability; failure falls to the scan.
                .and_then(|it| read_meta(store, job, kind, it, stage, part, dp).ok())
                .or_else(|| latest_meta_before(store, job, kind, state.iteration, stage, part, dp))
                .filter(|m| m.shard_bytes == shard_bytes as u64 && m.shards.len() == n)
                // Chain cap: extending this base would make the run
                // `base.delta_depth + 1` long; past the cap, write full.
                .filter(|m| m.delta_depth < cfg.max_delta_chain)
        } else {
            None
        };

        ShardPlan {
            job,
            kind,
            rank,
            stage,
            part,
            dp,
            iteration: state.iteration,
            logical_bytes: state.logical_bytes,
            shard_bytes,
            stream,
            slices,
            base,
        }
    }

    /// Number of shards in the plan.
    pub fn n_shards(&self) -> usize {
        self.slices.len()
    }

    /// CRCs shard `i` and decides reuse-vs-upload: returns the shard's
    /// sidecar record plus the payload to persist (`None` when the bytes
    /// already live in the base iteration's directory). This is the
    /// CPU-bound half of the pipeline; the returned payload is an
    /// `Arc`-backed slice of the staged stream — handing it to an
    /// uploader costs a refcount bump, not a copy.
    pub fn resolve_shard(&self, i: usize) -> (ShardMeta, Option<Bytes>) {
        let payload = &self.slices[i];
        let crc = simcore::codec::crc64(payload);
        let reused = self.base.as_ref().and_then(|b| {
            let bs = b.shards.get(i)?;
            (bs.len == payload.len() as u64 && bs.crc == crc)
                .then(|| bs.base_iteration.unwrap_or(b.iteration))
        });
        let meta = ShardMeta {
            index: i as u32,
            len: payload.len() as u64,
            crc,
            base_iteration: reused,
        };
        let upload = reused.is_none().then(|| payload.clone());
        (meta, upload)
    }

    /// Store path of shard `i`.
    pub fn shard_path(&self, i: usize) -> String {
        shard_path(
            self.job,
            self.kind,
            self.iteration,
            self.stage,
            self.part,
            self.dp,
            i as u32,
        )
    }

    /// Store path of the metadata sidecar.
    pub fn meta_path(&self) -> String {
        meta_path(
            self.job,
            self.kind,
            self.iteration,
            self.stage,
            self.part,
            self.dp,
        )
    }

    /// Builds the completion sidecar from the resolved shard records
    /// (index order). `delta_depth` extends the base's run only if any
    /// shard actually reused it.
    pub fn finish_meta(&self, shards: Vec<ShardMeta>) -> CheckpointMeta {
        let any_reused = shards.iter().any(|s| s.base_iteration.is_some());
        CheckpointMeta {
            iteration: self.iteration,
            rank: self.rank.0,
            payload_crc: shard_set_crc(&shards),
            payload_len: self.stream.len() as u64,
            logical_bytes: self.logical_bytes,
            shard_bytes: self.shard_bytes as u64,
            delta_depth: if any_reused {
                self.base.as_ref().map(|b| b.delta_depth + 1).unwrap_or(0)
            } else {
                0
            },
            shards,
        }
    }
}

/// Writes a rank's checkpoint: shard objects first (fanned out across a
/// bounded worker pool), then the metadata sidecar — the completion
/// marker. The caller charges the write cost to the rank's clock.
///
/// With `cfg.delta`, shards bit-identical to this cell's most recent
/// prior checkpoint (same `shard_bytes`, same shard count) are not
/// re-written; the sidecar records where the bytes already live.
#[allow(clippy::too_many_arguments)]
pub fn write_checkpoint_with<S: StorageBackend + ?Sized>(
    store: &S,
    job: JobId,
    kind: CkptKind,
    rank: RankId,
    stage: usize,
    part: usize,
    dp: usize,
    state: &TrainState,
    cfg: &ShardConfig,
) -> SimResult<()> {
    let plan = ShardPlan::stage(store, job, kind, rank, stage, part, dp, state, cfg);
    write_plan(store, &plan, cfg.workers)
}

/// Persists an already-staged [`ShardPlan`]: shard objects first (fanned
/// out across a bounded worker pool), then the metadata sidecar.
fn write_plan<S: StorageBackend + ?Sized>(
    store: &S,
    plan: &ShardPlan,
    workers: usize,
) -> SimResult<()> {
    let n = plan.n_shards();

    // Bounded worker pool ([`simcore::pool::fan_out`]): each worker CRCs
    // its shard, decides reuse-vs-put, and records the resulting
    // ShardMeta into an index-addressed slot.
    let results: Mutex<Vec<Option<SimResult<ShardMeta>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    simcore::pool::fan_out(n, workers.min(n), "ckpt-shard", |i| {
        let (meta, upload) = plan.resolve_shard(i);
        let res = match upload {
            None => Ok(meta),
            Some(payload) => store.put(&plan.shard_path(i), payload).map(|()| meta),
        };
        results.lock()[i] = Some(res);
    });

    let mut shards = Vec::with_capacity(n);
    for (i, slot) in results.into_inner().into_iter().enumerate() {
        match slot {
            Some(Ok(m)) => shards.push(m),
            Some(Err(e)) => return Err(e),
            None => {
                return Err(SimError::Storage(format!(
                    "shard {i}: no worker processed it"
                )))
            }
        }
    }
    let meta = plan.finish_meta(shards);
    store.put(&plan.meta_path(), encode_framed(&meta))?;
    Ok(())
}

/// Reads and validates a checkpoint's metadata sidecar only (no shard
/// I/O). Used by the delta writer and by benchmarks measuring hit-rates.
pub fn read_meta<S: StorageBackend + ?Sized>(
    store: &S,
    job: JobId,
    kind: CkptKind,
    iteration: u64,
    stage: usize,
    part: usize,
    dp: usize,
) -> SimResult<CheckpointMeta> {
    let mpath = meta_path(job, kind, iteration, stage, part, dp);
    decode_framed(&store.get(&mpath)?)
        .map_err(|e| SimError::CorruptCheckpoint(format!("{mpath}: {e}")))
}

/// Newest prior iteration (strictly before `before`) with a decodable
/// sidecar for this cell+replica; the delta writer's base.
fn latest_meta_before<S: StorageBackend + ?Sized>(
    store: &S,
    job: JobId,
    kind: CkptKind,
    before: u64,
    stage: usize,
    part: usize,
    dp: usize,
) -> Option<CheckpointMeta> {
    let prefix = format!("ckpt/{job}/{}/", kind.dir());
    let cell = format!("s{stage}p{part}");
    let mut best: Option<u64> = None;
    for path in store.list(&prefix) {
        let Some(rest) = path.strip_prefix(&prefix) else {
            continue;
        };
        let Some((iteration, c, d, leaf)) = parse_rel_path(rest) else {
            continue;
        };
        if leaf != "meta" || c != cell || d != dp || iteration >= before {
            continue;
        }
        if best.is_none_or(|b| iteration > b) {
            best = Some(iteration);
        }
    }
    read_meta(store, job, kind, best?, stage, part, dp).ok()
}

/// Writer-side memo of the newest checkpoint iteration per cell+replica.
///
/// [`latest_meta_before`] answers "what is this cell's newest prior
/// sidecar?" with a full `store.list` of the job's keyspace — paths put
/// the iteration *before* the cell, so no prefix can narrow the walk,
/// and the cost grows with job age and is paid on **every** delta write.
/// But the long-lived writer (the coordinator's [`JobSession`]) already
/// knows the answer: it is the iteration it last wrote. This cache
/// remembers exactly that — the newest-iteration *number*, never the
/// sidecar bytes — and [`ShardPlan::stage_cached`] turns it into one
/// targeted sidecar `get`, validated against the store before use, so a
/// stale or never-landed entry degrades to the scan instead of to a
/// wrong delta base.
///
/// [`JobSession`]: ../../coordinator/struct.JobSession.html
/// One writer cell: `(job, kind, stage, part, dp)`.
type CellKey = (u32, CkptKind, usize, usize, usize);

#[derive(Debug, Default)]
pub struct MetaCache {
    /// Cell → newest iteration recorded.
    cells: Mutex<BTreeMap<CellKey, u64>>,
}

impl MetaCache {
    /// An empty cache.
    pub fn new() -> MetaCache {
        MetaCache::default()
    }

    /// Records `iteration` as the cell's newest write (keeps the max, so
    /// out-of-order recording — e.g. concurrent ranks of one dp group —
    /// cannot move the answer backwards).
    pub fn record(
        &self,
        job: JobId,
        kind: CkptKind,
        stage: usize,
        part: usize,
        dp: usize,
        iteration: u64,
    ) {
        let mut cells = self.cells.lock();
        let slot = cells.entry((job.0, kind, stage, part, dp)).or_insert(0);
        *slot = (*slot).max(iteration);
    }

    /// The newest recorded iteration strictly before `before`, if any.
    fn newest_before(
        &self,
        job: JobId,
        kind: CkptKind,
        before: u64,
        stage: usize,
        part: usize,
        dp: usize,
    ) -> Option<u64> {
        self.cells
            .lock()
            .get(&(job.0, kind, stage, part, dp))
            .copied()
            .filter(|it| *it < before)
    }
}

/// Reads and fully validates one checkpoint (metadata present, every
/// shard present with matching length and CRC — resolving delta
/// references — and the reassembled payload decodes).
///
/// Shard failures are collected, not short-circuited: the error names
/// every bad shard *by index* (`shard 3: checksum mismatch; shard 7:
/// truncated …`) while healthy siblings remain validated, so callers and
/// operators can see exactly which objects are damaged.
pub fn read_checkpoint<S: StorageBackend + ?Sized>(
    store: &S,
    job: JobId,
    kind: CkptKind,
    iteration: u64,
    stage: usize,
    part: usize,
    dp: usize,
) -> SimResult<(TrainState, CheckpointMeta)> {
    let meta = read_meta(store, job, kind, iteration, stage, part, dp)?;
    let prefix = checkpoint_prefix(job, kind, iteration, stage, part, dp);
    precheck_meta(&meta, &prefix)?;
    let mut bad: Vec<String> = Vec::new();
    let mut stream = BytesMut::with_capacity(meta.payload_len as usize);
    for (i, sm) in meta.shards.iter().enumerate() {
        if sm.index as usize != i {
            bad.push(format!("shard {i}: sidecar index out of order"));
            continue;
        }
        let holder = sm.base_iteration.unwrap_or(meta.iteration);
        let path = shard_path(job, kind, holder, stage, part, dp, sm.index);
        match verify_shard(i, sm, holder, store.get(&path)) {
            Ok(obj) => stream.put_slice(&obj),
            Err(blame) => bad.push(blame),
        }
    }
    finish_restore(&prefix, meta, stream, bad)
}

/// Sidecar-level validation shared by the serial and parallel readers:
/// a sidecar must list shards, and the shard *set* must match its
/// binding CRC before any shard object is fetched.
pub(crate) fn precheck_meta(meta: &CheckpointMeta, prefix: &str) -> SimResult<()> {
    if meta.shards.is_empty() {
        return Err(SimError::CorruptCheckpoint(format!(
            "{prefix}: sidecar lists no shards"
        )));
    }
    if shard_set_crc(&meta.shards) != meta.payload_crc {
        return Err(SimError::CorruptCheckpoint(format!(
            "{prefix}: shard-set checksum mismatch in sidecar"
        )));
    }
    Ok(())
}

/// Validates one fetched shard against its sidecar record, returning the
/// payload or the by-index blame string. One function serves both read
/// paths so the parallel plane's error contract is bit-identical to the
/// serial one by construction, not by convention.
pub(crate) fn verify_shard(
    i: usize,
    sm: &ShardMeta,
    holder: u64,
    fetched: SimResult<Bytes>,
) -> Result<Bytes, String> {
    match fetched {
        Err(_) => Err(if sm.base_iteration.is_some() {
            format!("shard {i}: missing delta base object (it{holder})")
        } else {
            format!("shard {i}: missing object")
        }),
        Ok(obj) => {
            if obj.len() as u64 != sm.len {
                Err(format!(
                    "shard {i}: truncated ({} of {} bytes)",
                    obj.len(),
                    sm.len
                ))
            } else if simcore::codec::crc64(&obj) != sm.crc {
                Err(format!("shard {i}: checksum mismatch"))
            } else {
                Ok(obj)
            }
        }
    }
}

/// Final assembly checks shared by both readers: aggregate the per-shard
/// blame, then verify reassembled length, decode, trailing bytes, and
/// the sidecar-vs-payload iteration binding.
pub(crate) fn finish_restore(
    prefix: &str,
    meta: CheckpointMeta,
    stream: BytesMut,
    bad: Vec<String>,
) -> SimResult<(TrainState, CheckpointMeta)> {
    if !bad.is_empty() {
        return Err(SimError::CorruptCheckpoint(format!(
            "{prefix}: {} of {} shards invalid [{}]",
            bad.len(),
            meta.shards.len(),
            bad.join("; ")
        )));
    }
    if stream.len() as u64 != meta.payload_len {
        return Err(SimError::CorruptCheckpoint(format!(
            "{prefix}: reassembled {} of {} bytes",
            stream.len(),
            meta.payload_len
        )));
    }
    let mut buf = stream.freeze();
    let state = TrainState::decode(&mut buf)
        .map_err(|e| SimError::CorruptCheckpoint(format!("{prefix}: {e}")))?;
    if !buf.is_empty() {
        return Err(SimError::CorruptCheckpoint(format!(
            "{prefix}: {} trailing bytes after decode",
            buf.len()
        )));
    }
    if state.iteration != meta.iteration {
        return Err(SimError::CorruptCheckpoint(format!(
            "{prefix}: iteration mismatch ({} vs {})",
            state.iteration, meta.iteration
        )));
    }
    Ok((state, meta))
}

/// A resolved checkpoint choice for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellChoice {
    /// Iteration chosen.
    pub iteration: u64,
    /// Which data-parallel replica's file to read.
    pub dp: usize,
    /// Checkpoint flavor found.
    pub kind: CkptKind,
}

/// One newest-first resolution of a job's checkpoints ([`resolve`]).
pub(crate) struct Resolution {
    /// The chosen checkpoint of every (stage, partition) cell.
    pub plan: BTreeMap<(usize, usize), CellChoice>,
    /// The validated read of the cell the caller asked to keep: the
    /// validation read of that cell *is* its restore.
    pub kept: Option<(TrainState, CheckpointMeta)>,
    /// Traffic of every validation read issued; `shards`, `fetchers` and
    /// `prefetch_depth` describe the kept read.
    pub stats: RestoreStats,
}

/// Resolves, for every (stage, partition) cell, the newest checkpoint
/// iteration available for **all** cells — discarding corrupt or
/// incomplete files — and which replica to read it from.
///
/// Lazy and newest-first: one `list` per kind indexes the job's
/// sidecars, the iterations with a sidecar for every cell are the
/// candidates, and they are validated from the newest down, stopping at
/// the first one valid for every cell. A generation counts for a cell
/// only if a full read of it succeeds (a torn write must not count);
/// within an iteration JIT files are tried before periodic ones (either
/// is valid; JIT files are what failure recovery wrote) and
/// data-parallel replicas in listing order. Every cell's validity at an
/// iteration is independent of the others, so this picks exactly what
/// validating every retained generation and intersecting afterwards
/// would — but a healthy store is read one generation deep, and older
/// generations are touched only when a newer one is torn, lost or rotted.
pub(crate) fn resolve<S: StorageBackend + ?Sized>(
    store: &S,
    job: JobId,
    layout: &ParallelLayout,
    keep: Option<(usize, usize)>,
    cfg: &RestoreConfig,
) -> SimResult<Resolution> {
    let cells = layout.cells();
    let cell_names: Vec<String> = cells.iter().map(|(s, p)| format!("s{s}p{p}")).collect();
    // iteration → per cell, the (kind, dp) sidecars present, in trial order.
    let mut candidates: BTreeMap<u64, Vec<Vec<(CkptKind, usize)>>> = BTreeMap::new();
    for kind in [CkptKind::Jit, CkptKind::Periodic] {
        let prefix = job_prefix(job, kind);
        for path in store.list(&prefix) {
            let Some((iteration, cell, dp, leaf)) =
                path.strip_prefix(&prefix).and_then(parse_rel_path)
            else {
                continue;
            };
            let Some(idx) = cell_names.iter().position(|name| name == cell) else {
                continue;
            };
            if leaf == "meta" && dp < layout.dp {
                candidates
                    .entry(iteration)
                    .or_insert_with(|| vec![Vec::new(); cells.len()])[idx]
                    .push((kind, dp));
            }
        }
    }

    let mut stats = RestoreStats::default();
    for (&iteration, per_cell) in candidates.iter().rev() {
        if per_cell.iter().any(Vec::is_empty) {
            continue;
        }
        stats.generations_probed += 1;
        let mut kept = None;
        // Collecting into an `Option` stops at the first cell with no
        // valid replica: the iteration is out, its other cells go unread.
        let plan: Option<BTreeMap<_, _>> = cells
            .iter()
            .zip(per_cell)
            .map(|(&(stage, part), replicas)| {
                replicas.iter().find_map(|&(kind, dp)| {
                    let (read, traffic) =
                        read_counted(store, job, kind, iteration, stage, part, dp, cfg);
                    stats.add_traffic(&traffic);
                    let read = read.ok()?;
                    if keep == Some((stage, part)) {
                        stats.shards = traffic.shards;
                        stats.fetchers = traffic.fetchers;
                        stats.prefetch_depth = traffic.prefetch_depth;
                        kept = Some(read);
                    }
                    let choice = CellChoice {
                        iteration,
                        dp,
                        kind,
                    };
                    Some(((stage, part), choice))
                })
            })
            .collect();
        if let Some(plan) = plan {
            return Ok(Resolution { plan, kept, stats });
        }
    }
    Err(SimError::NoCheckpointAvailable(format!(
        "no iteration has a complete checkpoint for every cell of {job}"
    )))
}

/// Resolves, for every (stage, partition) cell, the newest checkpoint
/// iteration available for **all** cells — discarding corrupt or
/// incomplete files — and which replica to read it from. Searches both
/// JIT and periodic checkpoints and takes the newest (the combined
/// JIT + PC mode of §6.3). Validation reads the chosen generation in
/// full: a caller that goes on to restore one rank from it should call
/// [`crate::restore::load_for_rank_parallel`] instead, which keeps that
/// read.
pub fn assemble<S: StorageBackend + ?Sized>(
    store: &S,
    job: JobId,
    layout: &ParallelLayout,
) -> SimResult<BTreeMap<(usize, usize), CellChoice>> {
    resolve(store, job, layout, None, &RestoreConfig::default()).map(|r| r.plan)
}

/// §3.3's `jit_get_checkpoint_path`: the checkpoint directory a restoring
/// rank should load — a complete checkpoint from any data-parallel
/// replica of its own cell, at an iteration consistent across the whole
/// job. Shard objects and the sidecar live under the returned prefix.
pub fn jit_get_checkpoint_path<S: StorageBackend + ?Sized>(
    store: &S,
    job: JobId,
    layout: &ParallelLayout,
    rank: RankId,
) -> SimResult<String> {
    let coord = layout.coord(rank);
    let plan = assemble(store, job, layout)?;
    let choice = plan[&(coord.stage, coord.part)];
    Ok(checkpoint_prefix(
        job,
        choice.kind,
        choice.iteration,
        coord.stage,
        coord.part,
        choice.dp,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::SharedStore;
    use simgpu::BufferTag;

    fn state(it: u64, v: f32) -> TrainState {
        TrainState {
            iteration: it,
            opt_t: it as u32,
            buffers: vec![("w".into(), BufferTag::Param, vec![v; 4])],
            logical_bytes: 16,
        }
    }

    #[test]
    fn default_workers_oversubscribe_the_cores_within_bounds() {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let d = ShardConfig::default();
        assert_eq!(d.workers, (2 * avail).clamp(4, 16), "2×cores in [4, 16]");
        assert!(d.workers >= 4, "blocking puts want a pool even on 1 core");
    }

    #[test]
    fn auto_workers_never_exceed_the_shard_count() {
        assert_eq!(auto_shard_workers(1), 1);
        assert_eq!(auto_shard_workers(2), 2);
        assert_eq!(auto_shard_workers(0), 1, "degenerate layout still runs");
        let many = auto_shard_workers(1 << 20);
        assert_eq!(many, default_shard_workers());
        assert!(many <= 16);
    }

    /// A state big enough to split into many shards at `SMALL.shard_bytes`.
    fn big_state(it: u64, v: f32) -> TrainState {
        TrainState {
            iteration: it,
            opt_t: it as u32,
            buffers: vec![
                ("w".into(), BufferTag::Param, vec![v; 64]),
                ("m".into(), BufferTag::OptimState, vec![v * 2.0; 64]),
            ],
            logical_bytes: 512,
        }
    }

    /// Small shards + a real pool so tests exercise the multi-shard path.
    const SMALL: ShardConfig = ShardConfig {
        shard_bytes: 64,
        workers: 3,
        delta: true,
        max_delta_chain: DEFAULT_MAX_DELTA_CHAIN,
    };

    fn job() -> JobId {
        JobId(0)
    }

    #[test]
    fn write_read_round_trip() -> SimResult<()> {
        let store = SharedStore::new();
        let s = state(7, 1.5);
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &s,
            &ShardConfig::default(),
        )?;
        let (back, meta) = read_checkpoint(&store, job(), CkptKind::Jit, 7, 0, 0, 0)?;
        assert_eq!(back, s);
        assert_eq!(meta.iteration, 7);
        assert_eq!(meta.logical_bytes, 16);
        Ok(())
    }

    #[test]
    fn multi_shard_round_trip() -> SimResult<()> {
        let store = SharedStore::new();
        let s = big_state(9, 0.5);
        write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &SMALL)?;
        let meta = read_meta(&store, job(), CkptKind::Jit, 9, 0, 0, 0)?;
        assert!(
            meta.shards.len() > 4,
            "want many shards: {}",
            meta.shards.len()
        );
        // One store object per shard plus the sidecar.
        let objs = store.list(checkpoint_prefix(job(), CkptKind::Jit, 9, 0, 0, 0));
        assert_eq!(objs.len(), meta.shards.len() + 1);
        let (back, _) = read_checkpoint(&store, job(), CkptKind::Jit, 9, 0, 0, 0)?;
        assert_eq!(back, s);
        Ok(())
    }

    #[test]
    fn delta_write_skips_unchanged_shards() -> SimResult<()> {
        let store = SharedStore::new();
        let mut s = big_state(9, 0.5);
        write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &SMALL)?;
        // Next iteration: only the optimizer buffer's first element (and
        // the header) change; layout and sizes stay identical.
        s.iteration = 10;
        s.opt_t = 10;
        s.buffers[1].2[0] = 123.0;
        write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &SMALL)?;
        let meta = read_meta(&store, job(), CkptKind::Jit, 10, 0, 0, 0)?;
        let reused = meta
            .shards
            .iter()
            .filter(|m| m.base_iteration == Some(9))
            .count();
        assert!(
            reused * 2 > meta.shards.len(),
            "most shards should be delta refs: {reused}/{}",
            meta.shards.len()
        );
        // The delta checkpoint's directory holds only the fresh shards.
        let objs = store.list(checkpoint_prefix(job(), CkptKind::Jit, 10, 0, 0, 0));
        assert_eq!(objs.len(), meta.shards.len() - reused + 1);
        // And it reads back whole, refs resolved.
        let (back, _) = read_checkpoint(&store, job(), CkptKind::Jit, 10, 0, 0, 0)?;
        assert_eq!(back, s);
        Ok(())
    }

    #[test]
    fn delta_refs_collapse_transitively() -> SimResult<()> {
        // it 9 → 10 → 11 with no payload change beyond the header: it 11's
        // refs must point straight at it 9 (the physical writer), never at
        // it 10's refs.
        let store = SharedStore::new();
        let mut s = big_state(9, 0.5);
        for it in 9..=11 {
            s.iteration = it;
            write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &SMALL)?;
        }
        let meta = read_meta(&store, job(), CkptKind::Jit, 11, 0, 0, 0)?;
        assert!(meta
            .shards
            .iter()
            .all(|m| m.base_iteration.is_none() || m.base_iteration == Some(9)));
        let (back, _) = read_checkpoint(&store, job(), CkptKind::Jit, 11, 0, 0, 0)?;
        assert_eq!(back, s);
        Ok(())
    }

    #[test]
    fn shard_count_change_disables_delta() -> SimResult<()> {
        let store = SharedStore::new();
        let mut s = big_state(9, 0.5);
        write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &SMALL)?;
        // Grow a buffer: the stream length (and shard count) changes, so
        // no shard may be reused even though early bytes coincide.
        s.iteration = 10;
        s.buffers[1].2.extend_from_slice(&[1.0; 64]);
        write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &SMALL)?;
        let meta = read_meta(&store, job(), CkptKind::Jit, 10, 0, 0, 0)?;
        assert!(meta.shards.iter().all(|m| m.base_iteration.is_none()));
        let (back, _) = read_checkpoint(&store, job(), CkptKind::Jit, 10, 0, 0, 0)?;
        assert_eq!(back, s);
        Ok(())
    }

    #[test]
    fn missing_delta_base_is_reported_and_skipped() -> SimResult<()> {
        let store = SharedStore::new();
        let layout = ParallelLayout::data_parallel(1);
        let mut s = big_state(9, 0.5);
        write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &SMALL)?;
        s.iteration = 10;
        write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &SMALL)?;
        // Delete one base shard that it 10 references.
        let meta = read_meta(&store, job(), CkptKind::Jit, 10, 0, 0, 0)?;
        let referenced = meta
            .shards
            .iter()
            .find(|m| m.base_iteration == Some(9))
            .copied();
        let Some(referenced) = referenced else {
            return Err(SimError::Protocol("expected a delta ref".into()));
        };
        store.delete(shard_path(
            job(),
            CkptKind::Jit,
            9,
            0,
            0,
            0,
            referenced.index,
        ));
        let err = read_checkpoint(&store, job(), CkptKind::Jit, 10, 0, 0, 0).unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains(&format!("shard {}: missing delta base", referenced.index)),
            "{msg}"
        );
        // Assembly falls back: it 9 is also damaged now (it physically
        // held the shard), so the job reports no usable checkpoint.
        assert!(assemble(&store, job(), &layout).is_err());
        Ok(())
    }

    #[test]
    fn corrupt_single_shard_reported_by_index_without_blaming_siblings() -> SimResult<()> {
        let store = SharedStore::new();
        let s = big_state(9, 0.5);
        write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &SMALL)?;
        let meta = read_meta(&store, job(), CkptKind::Jit, 9, 0, 0, 0)?;
        assert!(meta.shards.len() > 3);
        store.corrupt(shard_path(job(), CkptKind::Jit, 9, 0, 0, 0, 2))?;
        let err = read_checkpoint(&store, job(), CkptKind::Jit, 9, 0, 0, 0).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("shard 2: checksum mismatch"), "{msg}");
        assert!(
            msg.contains(&format!("1 of {} shards invalid", meta.shards.len())),
            "siblings must stay valid: {msg}"
        );
        Ok(())
    }

    #[test]
    fn targeted_fault_tears_one_shard() -> SimResult<()> {
        let store = SharedStore::new();
        let s = big_state(9, 0.5);
        // Arm a truncation aimed at exactly shard 3 of this checkpoint.
        store.fail_next_write_matching(shard_path(job(), CkptKind::Jit, 9, 0, 0, 0, 3), 0.5);
        write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &SMALL)?;
        let err = read_checkpoint(&store, job(), CkptKind::Jit, 9, 0, 0, 0).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("shard 3: truncated"), "{msg}");
        Ok(())
    }

    #[test]
    fn torn_write_is_rejected_and_skipped() -> SimResult<()> {
        let store = SharedStore::new();
        let layout = ParallelLayout::data_parallel(2);
        // Replica 0 writes a good checkpoint at it 5.
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &state(5, 1.0),
            &ShardConfig::default(),
        )?;
        // Replica 1 dies mid-write at it 6: payload truncated, then (to
        // be adversarial) the metadata still lands.
        store.fail_next_write(0.5);
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Jit,
            RankId(1),
            0,
            0,
            1,
            &state(6, 2.0),
            &ShardConfig::default(),
        )?;
        // Assembly must fall back to iteration 5 from replica 0.
        let plan = assemble(&store, job(), &layout)?;
        let choice = plan[&(0, 0)];
        assert_eq!(choice.iteration, 5);
        assert_eq!(choice.dp, 0);
        Ok(())
    }

    #[test]
    fn corrupted_payload_is_rejected() -> SimResult<()> {
        let store = SharedStore::new();
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &state(5, 1.0),
            &ShardConfig::default(),
        )?;
        store.corrupt(shard_path(job(), CkptKind::Jit, 5, 0, 0, 0, 0))?;
        let err = read_checkpoint(&store, job(), CkptKind::Jit, 5, 0, 0, 0).unwrap_err();
        assert!(matches!(err, SimError::CorruptCheckpoint(_)));
        Ok(())
    }

    #[test]
    fn missing_meta_means_incomplete() -> SimResult<()> {
        let store = SharedStore::new();
        let layout = ParallelLayout::data_parallel(1);
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &state(5, 1.0),
            &ShardConfig::default(),
        )?;
        store.delete(meta_path(job(), CkptKind::Jit, 5, 0, 0, 0));
        assert!(assemble(&store, job(), &layout).is_err());
        Ok(())
    }

    #[test]
    fn i_vs_i_plus_1_resolved_to_common_max() -> SimResult<()> {
        // §3.3: with pipeline stages, one cell may have saved i+1 while
        // another only has i; the job must resume from the newest
        // iteration complete for EVERY cell.
        let store = SharedStore::new();
        let layout = ParallelLayout::three_d(2, 2, 1);
        // Stage 0 has it 10 and 11; stage 1 only it 10.
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &state(10, 1.0),
            &ShardConfig::default(),
        )?;
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &state(11, 1.1),
            &ShardConfig::default(),
        )?;
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Jit,
            RankId(1),
            1,
            0,
            0,
            &state(10, 2.0),
            &ShardConfig::default(),
        )?;
        let plan = assemble(&store, job(), &layout)?;
        assert_eq!(plan[&(0, 0)].iteration, 10);
        assert_eq!(plan[&(1, 0)].iteration, 10);
        // Once stage 1 also has 11, assembly moves forward.
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Jit,
            RankId(1),
            1,
            0,
            1,
            &state(11, 2.1),
            &ShardConfig::default(),
        )?;
        let plan = assemble(&store, job(), &layout)?;
        assert_eq!(plan[&(0, 0)].iteration, 11);
        assert_eq!(plan[&(1, 0)].iteration, 11);
        assert_eq!(plan[&(1, 0)].dp, 1, "reads the replica that has it");
        Ok(())
    }

    #[test]
    fn jit_get_checkpoint_path_points_at_own_cell() -> SimResult<()> {
        let store = SharedStore::new();
        let layout = ParallelLayout::three_d(2, 2, 1);
        for (stage, part) in layout.cells() {
            write_checkpoint_with(
                &store,
                job(),
                CkptKind::Jit,
                RankId(0),
                stage,
                part,
                0,
                &state(3, 1.0),
                &ShardConfig::default(),
            )?;
        }
        // Rank 3 in a 2dp×2pp layout: dp=1, stage=1.
        let p = jit_get_checkpoint_path(&store, job(), &layout, RankId(3))?;
        assert!(p.contains("s1p0"), "{p}");
        assert!(p.contains("it0000000003"), "{p}");
        Ok(())
    }

    #[test]
    fn combined_mode_prefers_newest_of_either_kind() -> SimResult<()> {
        let store = SharedStore::new();
        let layout = ParallelLayout::data_parallel(1);
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Periodic,
            RankId(0),
            0,
            0,
            0,
            &state(20, 1.0),
            &ShardConfig::default(),
        )?;
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &state(25, 2.0),
            &ShardConfig::default(),
        )?;
        let plan = assemble(&store, job(), &layout)?;
        assert_eq!(plan[&(0, 0)].iteration, 25);
        assert_eq!(plan[&(0, 0)].kind, CkptKind::Jit);
        // A newer periodic checkpoint wins in turn.
        write_checkpoint_with(
            &store,
            job(),
            CkptKind::Periodic,
            RankId(0),
            0,
            0,
            0,
            &state(30, 3.0),
            &ShardConfig::default(),
        )?;
        let plan = assemble(&store, job(), &layout)?;
        assert_eq!(plan[&(0, 0)].kind, CkptKind::Periodic);
        assert_eq!(plan[&(0, 0)].iteration, 30);
        Ok(())
    }

    /// Boundary of the delta-chain cap: with `max_delta_chain = 3` and
    /// bit-identical state every iteration, depths run 0,1,2,3, then the
    /// write at the boundary is forced full (depth 0, no shard refs) and
    /// the run restarts — `read`/`assemble` cost stays bounded however
    /// old the job gets.
    #[test]
    fn delta_chain_cap_forces_full_write_at_boundary() -> SimResult<()> {
        let cfg = ShardConfig {
            max_delta_chain: 3,
            ..SMALL
        };
        let store = SharedStore::new();
        let mut depths = Vec::new();
        for it in 1..=6 {
            let mut s = big_state(1, 1.5);
            s.iteration = it; // same bytes, new iteration ⇒ fully reusable
            write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &cfg)?;
            depths.push(read_meta(&store, job(), CkptKind::Jit, it, 0, 0, 0)?.delta_depth);
        }
        assert_eq!(depths, vec![0, 1, 2, 3, 0, 1], "cap resets the run at 3");

        // The forced-full boundary write references nothing older.
        let full = read_meta(&store, job(), CkptKind::Jit, 5, 0, 0, 0)?;
        assert!(full.shards.iter().all(|s| s.base_iteration.is_none()));
        // The capped write still reads back bit-identically.
        let mut want = big_state(1, 1.5);
        want.iteration = 5;
        let (got, _) = read_checkpoint(&store, job(), CkptKind::Jit, 5, 0, 0, 0)?;
        assert_eq!(got, want);

        // `max_delta_chain: 0` disables delta entirely.
        let none = ShardConfig {
            max_delta_chain: 0,
            ..SMALL
        };
        let store = SharedStore::new();
        for it in 1..=2 {
            let mut s = big_state(1, 1.5);
            s.iteration = it;
            write_checkpoint_with(&store, job(), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &none)?;
        }
        let m = read_meta(&store, job(), CkptKind::Jit, 2, 0, 0, 0)?;
        assert_eq!(m.delta_depth, 0);
        assert!(m.shards.iter().all(|s| s.base_iteration.is_none()));
        Ok(())
    }
    /// The resolution `assemble` used to run, kept as the oracle the lazy
    /// one is checked against: fully validate **every** retained
    /// generation of every cell, intersect the valid iteration sets
    /// afterwards, take the max.
    fn eager_assemble(
        store: &SharedStore,
        job: JobId,
        layout: &ParallelLayout,
    ) -> SimResult<BTreeMap<(usize, usize), CellChoice>> {
        let cells = layout.cells();
        let mut per_cell: Vec<BTreeMap<u64, (usize, CkptKind)>> = Vec::new();
        for &(stage, part) in &cells {
            let cell = format!("s{stage}p{part}");
            let mut valid: BTreeMap<u64, (usize, CkptKind)> = BTreeMap::new();
            for kind in [CkptKind::Jit, CkptKind::Periodic] {
                let prefix = job_prefix(job, kind);
                let mut of_kind: BTreeMap<u64, usize> = BTreeMap::new();
                for path in store.list(&prefix) {
                    let Some((iteration, c, dp, leaf)) =
                        path.strip_prefix(&prefix).and_then(parse_rel_path)
                    else {
                        continue;
                    };
                    if leaf != "meta"
                        || c != cell
                        || dp >= layout.dp
                        || of_kind.contains_key(&iteration)
                    {
                        continue;
                    }
                    if read_checkpoint(store, job, kind, iteration, stage, part, dp).is_ok() {
                        of_kind.insert(iteration, dp);
                    }
                }
                for (it, dp) in of_kind {
                    valid.entry(it).or_insert((dp, kind));
                }
            }
            per_cell.push(valid);
        }
        let best = per_cell
            .first()
            .into_iter()
            .flat_map(|first| first.keys().copied())
            .filter(|it| per_cell.iter().all(|m| m.contains_key(it)))
            .max()
            .ok_or_else(|| SimError::NoCheckpointAvailable(format!("eager: none for {job}")))?;
        Ok(cells
            .iter()
            .zip(&per_cell)
            .map(|(&cell, m)| {
                let (dp, kind) = m[&best];
                let choice = CellChoice {
                    iteration: best,
                    dp,
                    kind,
                };
                (cell, choice)
            })
            .collect())
    }

    /// Writes `gens` delta-chained generations (iterations `1..=gens`) of
    /// one dp-replicated cell and returns the shard count per generation.
    fn write_generations(
        store: &SharedStore,
        layout: &ParallelLayout,
        gens: u64,
    ) -> SimResult<usize> {
        let mut s = big_state(0, 0.5);
        for it in 1..=gens {
            s.iteration = it;
            s.buffers[1].2[0] = it as f32;
            for dp in 0..layout.dp {
                let rank = RankId(dp as u32);
                write_checkpoint_with(
                    store,
                    job(),
                    CkptKind::Periodic,
                    rank,
                    0,
                    0,
                    dp,
                    &s,
                    &SMALL,
                )?;
            }
        }
        Ok(read_meta(store, job(), CkptKind::Periodic, gens, 0, 0, 0)?
            .shards
            .len())
    }

    #[test]
    fn healthy_restore_reads_one_generation() -> SimResult<()> {
        let store = SharedStore::new();
        let layout = ParallelLayout::data_parallel(2);
        let shards = write_generations(&store, &layout, 4)?;
        let (reads, lists) = (store.read_count(), store.list_count());
        let (state, meta, stats) = crate::restore::load_for_rank_parallel(
            &store,
            job(),
            &layout,
            RankId(1),
            &RestoreConfig::default(),
        )?;
        assert_eq!((state.iteration, meta.iteration), (4, 4));
        assert!(meta.delta_depth > 0, "the tip is delta-chained");
        assert_eq!(
            store.read_count() - reads,
            shards as u64 + 1,
            "one sidecar + one generation's shards, whatever is retained"
        );
        assert_eq!(store.list_count() - lists, 2, "one list per kind");
        assert_eq!(stats.generations_probed, 1);
        assert_eq!((stats.shards, stats.shard_reads), (shards, shards as u64));
        Ok(())
    }

    #[test]
    fn torn_newest_generation_falls_back_one_generation() -> SimResult<()> {
        let store = SharedStore::new();
        let layout = ParallelLayout::data_parallel(1);
        let shards = write_generations(&store, &layout, 4)?;
        // Tear a shard object generation 4 wrote itself (not a delta
        // reference), so generations 1–3 stay whole.
        let tip = read_meta(&store, job(), CkptKind::Periodic, 4, 0, 0, 0)?;
        let own = tip
            .shards
            .iter()
            .find(|m| m.base_iteration.is_none())
            .ok_or_else(|| SimError::Protocol("tip wrote no shard of its own".into()))?;
        store.corrupt(shard_path(job(), CkptKind::Periodic, 4, 0, 0, 0, own.index))?;
        let reads = store.read_count();
        let (state, _, stats) = crate::restore::load_for_rank_parallel(
            &store,
            job(),
            &layout,
            RankId(0),
            &RestoreConfig::default(),
        )?;
        assert_eq!(state.iteration, 3, "previous generation");
        assert_eq!(
            stats.generations_probed, 2,
            "exactly two generations touched"
        );
        assert_eq!(store.read_count() - reads, 2 * (shards as u64 + 1));
        assert_eq!(
            stats.shard_reads,
            2 * shards as u64,
            "the rejected generation's shards are charged to the restore"
        );
        Ok(())
    }

    /// What a proptest case does to one written checkpoint.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        LostShard,
        TornShard,
        RottedShard,
        MissingSidecar,
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]
        /// Lazy newest-first resolution picks exactly what validating
        /// every generation would — same plan or same error variant —
        /// across layouts, both kinds, delta chains, and random damage
        /// per (generation, cell, replica).
        #[test]
        fn lazy_assemble_matches_the_eager_oracle(
            dp in 1usize..4,
            pp in 1usize..3,
            tp in 1usize..3,
            // Per generation: 0 = JIT, 1 = periodic, 2 = both.
            kinds in proptest::collection::vec(0u8..3, 1..6),
            // Fraction (in eighths) of (generation, cell, replica)
            // checkpoints that were never written.
            absent in 0u64..3,
            damage in proptest::collection::vec(
                (
                    proptest::prelude::any::<proptest::sample::Index>(),
                    proptest::prelude::any::<proptest::sample::Index>(),
                    proptest::sample::select(vec![
                        Damage::LostShard,
                        Damage::TornShard,
                        Damage::RottedShard,
                        Damage::MissingSidecar,
                    ]),
                ),
                0..8,
            ),
            salt in proptest::prelude::any::<u64>(),
        ) {
            let store = SharedStore::new();
            let layout = ParallelLayout::three_d(dp, pp, tp);
            let cfg = ShardConfig { workers: 1, ..SMALL };
            let mut written = Vec::new();
            let mut s = big_state(0, 0.5);
            for (g, which) in kinds.iter().enumerate() {
                s.iteration = 10 + g as u64;
                s.buffers[1].2[g] = g as f32 + 1.0; // delta-chained generations
                for (c, &(stage, part)) in layout.cells().iter().enumerate() {
                    for d in 0..dp {
                        // A deterministic hash decides which replicas skipped
                        // this generation (a rank that never checkpointed).
                        let h = salt ^ ((g as u64) << 32 | (c as u64) << 16 | d as u64);
                        if h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61 < absent {
                            continue;
                        }
                        for kind in [CkptKind::Jit, CkptKind::Periodic] {
                            if *which == 2 || (*which == 1) == (kind == CkptKind::Periodic) {
                                write_checkpoint_with(
                                    &store, job(), kind, RankId(0), stage, part, d, &s, &cfg,
                                ).map_err(|e| e.to_string())?;
                                written.push((kind, s.iteration, stage, part, d));
                            }
                        }
                    }
                }
            }
            for (target, shard, what) in damage {
                if written.is_empty() {
                    break;
                }
                let (kind, it, stage, part, d) = written[target.index(written.len())];
                let Ok(meta) = read_meta(&store, job(), kind, it, stage, part, d) else {
                    continue; // sidecar already removed by an earlier entry
                };
                // Damage lands on the physical object, so one hit can
                // invalidate every generation that references it.
                let sm = meta.shards[shard.index(meta.shards.len())];
                let holder = sm.base_iteration.unwrap_or(it);
                let path = shard_path(job(), kind, holder, stage, part, d, sm.index);
                match what {
                    Damage::LostShard => store.delete(&path),
                    // Already lost to an earlier entry: nothing to rot.
                    Damage::RottedShard => drop(store.corrupt(&path)),
                    Damage::TornShard => {
                        if let Ok(obj) = store.get(&path) {
                            store
                                .put(&path, obj.slice(..obj.len() / 2))
                                .map_err(|e| e.to_string())?;
                        }
                    }
                    Damage::MissingSidecar => {
                        store.delete(meta_path(job(), kind, it, stage, part, d))
                    }
                }
            }

            match (assemble(&store, job(), &layout), eager_assemble(&store, job(), &layout)) {
                (Ok(lazy), Ok(eager)) => {
                    proptest::prop_assert_eq!(&lazy, &eager);
                    // The state a resolved restore keeps is the chosen
                    // checkpoint's, bit for bit.
                    let rank = RankId((salt % layout.world_size() as u64) as u32);
                    let coord = layout.coord(rank);
                    let c = lazy[&(coord.stage, coord.part)];
                    let (kept, _, _) = crate::restore::load_for_rank_parallel(
                        &store, job(), &layout, rank, &RestoreConfig::default(),
                    ).map_err(|e| e.to_string())?;
                    let (want, _) = read_checkpoint(
                        &store, job(), c.kind, c.iteration, coord.stage, coord.part, c.dp,
                    ).map_err(|e| e.to_string())?;
                    proptest::prop_assert_eq!(kept, want);
                }
                (Err(lazy), Err(eager)) => proptest::prop_assert_eq!(
                    std::mem::discriminant(&lazy),
                    std::mem::discriminant(&eager)
                ),
                (lazy, eager) => proptest::prop_assert!(
                    false,
                    "lazy and eager disagree: lazy={lazy:?} eager={eager:?}"
                ),
            }
        }
    }
}
