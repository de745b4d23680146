//! The multi-job checkpoint coordinator.
//!
//! One long-running [`Coordinator`] owns a storage fleet (any
//! [`StorageBackend`] — typically a [`PlacedStore`](crate::PlacedStore)
//! over many nodes) and a shared [`WriteBehind`] uploader pool. Training
//! jobs are *admitted* into [`JobSession`]s that carry everything a
//! job's ranks need to persist checkpoints:
//!
//! * a per-job [`JobGate`] — admission control, so one job writing to a
//!   degraded backend throttles itself, not the fleet;
//! * the shared write-behind pipeline (or the job's dedicated backend,
//!   for jobs that bring their own storage);
//! * lifecycle: retention-driven garbage collection after every durable
//!   checkpoint, and departure purge.
//!
//! Retention interacts with delta chains: a retained sidecar's shards
//! may reference bytes living in *older* iterations' directories
//! (`base_iteration`). GC therefore keeps the newest `keep_checkpoints`
//! iterations **plus** every iteration their sidecars reference; the
//! writer-side chain cap ([`ShardConfig::max_delta_chain`]) bounds how
//! long those references can pin history, so sustained load reaches a
//! steady-state object count instead of growing with job age.

use crate::object_store::SimObjectStore;
use cluster::StorageBackend;
use dltrain::TrainState;
use jitckpt::checkpoint::{self, CheckpointMeta, CkptKind, MetaCache, ShardConfig, ShardPlan};
use jitckpt::pipeline::{CkptTicket, JobGate, WriteBehind, WriteBehindConfig};
use jitckpt::restore::{load_for_rank_parallel, RestoreConfig, RestoreStats};
use simcore::layout::ParallelLayout;
use simcore::sync::Mutex;
use simcore::{JobId, RankId, SimResult};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-job admission parameters.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Ranks the job runs with (bookkeeping; sizing hints).
    pub ranks: usize,
    /// Shard/delta policy for the job's checkpoints.
    pub shards: ShardConfig,
    /// Newest durable checkpoints (iterations) retention keeps per job.
    pub keep_checkpoints: usize,
    /// In-flight checkpoint bytes this job may have queued + uploading.
    pub inflight_budget_bytes: usize,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            ranks: 8,
            shards: ShardConfig::default(),
            keep_checkpoints: 2,
            inflight_budget_bytes: 256 << 20,
        }
    }
}

/// Coordinator-wide tuning.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorConfig {
    /// Shared uploader pool configuration.
    pub pipeline: WriteBehindConfig,
}

/// Counters for one admitted job.
#[derive(Debug, Default)]
pub struct JobStats {
    /// Checkpoints submitted through the write-behind path.
    pub submitted: AtomicU64,
    /// Objects deleted by retention GC.
    pub gc_deleted: AtomicU64,
    /// Restores served through [`JobSession::restore_for_rank`].
    pub restores: AtomicU64,
    /// Shard `get`s issued on those restores' behalf (sidecar reads
    /// excluded): the kept read plus every validation read resolution
    /// made on the way to it.
    pub restore_shard_reads: AtomicU64,
    /// Payload bytes those restores fetched.
    pub restore_bytes: AtomicU64,
    /// Reads served off an older placement ring during restores — the
    /// job raced a rebalance and the ring history covered it.
    pub restore_fallback_hits: AtomicU64,
}

impl JobStats {
    /// Restore read amplification: shard reads the store served per
    /// shard restored. `1.0` is the floor — every restore read exactly
    /// one generation of its own cell; higher means resolution had to
    /// validate other cells, or probe past torn, lost or rotted newer
    /// generations.
    pub fn restore_amplification(&self, shards_per_checkpoint: usize) -> f64 {
        let restores = self.restores.load(Ordering::Relaxed);
        if restores == 0 || shards_per_checkpoint == 0 {
            return 0.0;
        }
        let reads = self.restore_shard_reads.load(Ordering::Relaxed);
        reads as f64 / (restores as f64 * shards_per_checkpoint as f64)
    }
}

/// A job admitted to the coordinator: the handle its ranks checkpoint
/// through.
pub struct JobSession {
    job: JobId,
    spec: JobSpec,
    backend: Arc<dyn StorageBackend>,
    pipeline: Arc<WriteBehind>,
    gate: Arc<JobGate>,
    /// Outstanding write-behind tickets; drained on departure.
    tickets: Mutex<Vec<CkptTicket>>,
    /// Newest-iteration memo per cell: spares delta staging the full
    /// `store.list` scan of `latest_meta_before` on every checkpoint
    /// (entries are validated with one targeted sidecar read, scan on
    /// miss — behavior is identical to the uncached path, only list
    /// traffic differs).
    meta_cache: MetaCache,
    stats: JobStats,
}

impl JobSession {
    /// The job's id.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The backend this job persists to.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// The job's admission gate.
    pub fn gate(&self) -> &Arc<JobGate> {
        &self.gate
    }

    /// The job's counters.
    pub fn stats(&self) -> &JobStats {
        &self.stats
    }

    /// Persists one rank-cell checkpoint through the write-behind
    /// pipeline: stages (encode + delta resolve) on the calling thread,
    /// streams shard uploads in the background. Returns immediately
    /// with a durability ticket.
    pub fn submit_checkpoint(
        &self,
        kind: CkptKind,
        rank: RankId,
        stage: usize,
        part: usize,
        dp: usize,
        state: &TrainState,
    ) -> CkptTicket {
        let cfg = self.spec.shards.auto_sized_for(state);
        let plan = ShardPlan::stage_cached(
            &self.backend,
            self.job,
            kind,
            rank,
            stage,
            part,
            dp,
            state,
            &cfg,
            Some(&self.meta_cache),
        );
        let ticket = self
            .pipeline
            .submit_to(&self.backend, &plan, Some(&self.gate));
        self.meta_cache
            .record(self.job, kind, stage, part, dp, state.iteration);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.tickets.lock().push(ticket.clone());
        ticket
    }

    /// Resolves and restores the checkpoint for `rank` in one pass
    /// through the parallel restore plane (the validation read of the
    /// rank's cell is the restore), recording read metrics so the
    /// coordinator can report restore amplification per job
    /// ([`JobStats::restore_amplification`]).
    pub fn restore_for_rank(
        &self,
        layout: &ParallelLayout,
        rank: RankId,
    ) -> SimResult<(TrainState, CheckpointMeta, RestoreStats)> {
        let out = load_for_rank_parallel(
            &self.backend,
            self.job,
            layout,
            rank,
            &RestoreConfig::default(),
        )?;
        let stats = &out.2;
        self.stats.restores.fetch_add(1, Ordering::Relaxed);
        self.stats
            .restore_shard_reads
            .fetch_add(stats.shard_reads, Ordering::Relaxed);
        self.stats
            .restore_bytes
            .fetch_add(stats.bytes_fetched, Ordering::Relaxed);
        self.stats
            .restore_fallback_hits
            .fetch_add(stats.fallback_hits, Ordering::Relaxed);
        Ok(out)
    }

    /// Waits until every checkpoint submitted through this session is
    /// durable (or failed), returning the first error.
    pub fn drain(&self) -> SimResult<()> {
        let tickets: Vec<CkptTicket> = std::mem::take(&mut *self.tickets.lock());
        let mut first_err = Ok(());
        for t in &tickets {
            if let Err(e) = t.wait() {
                if first_err.is_ok() {
                    first_err = Err(e);
                }
            }
        }
        first_err
    }

    /// Retention GC: keeps the newest `keep_checkpoints` iterations of
    /// `kind` plus every older iteration their sidecars still reference
    /// as delta bases; deletes the rest. Returns objects deleted.
    /// Incomplete iterations (no sidecar anywhere — e.g. a write torn
    /// by a failure) older than the retention window are swept too.
    pub fn gc(&self, kind: CkptKind) -> usize {
        let prefix = checkpoint::job_prefix(self.job, kind);
        let mut iterations: BTreeSet<u64> = BTreeSet::new();
        let mut sidecars: Vec<(u64, String)> = Vec::new();
        for path in self.backend.list(&prefix) {
            let Some(it) = iteration_of(&prefix, &path) else {
                continue;
            };
            iterations.insert(it);
            if path.ends_with("/meta") {
                sidecars.push((it, path));
            }
        }
        if iterations.len() <= self.spec.keep_checkpoints {
            return 0;
        }

        let retained: BTreeSet<u64> = iterations
            .iter()
            .rev()
            .take(self.spec.keep_checkpoints.max(1))
            .copied()
            .collect();

        // Delta bases pinned by retained sidecars. `base_iteration` is
        // collapsed at write time, so one level of chasing suffices.
        let mut pinned: BTreeSet<u64> = BTreeSet::new();
        for (it, path) in &sidecars {
            if !retained.contains(it) {
                continue;
            }
            let Ok(raw) = self.backend.get(path) else {
                continue;
            };
            let Ok(meta) = simcore::codec::decode_framed::<CheckpointMeta>(&raw) else {
                continue;
            };
            for s in &meta.shards {
                if let Some(base) = s.base_iteration {
                    pinned.insert(base);
                }
            }
        }

        let mut deleted = 0;
        for it in iterations {
            if retained.contains(&it) || pinned.contains(&it) {
                continue;
            }
            deleted += self.backend.delete_prefix(&format!("{prefix}it{it:010}/"));
        }
        self.stats
            .gc_deleted
            .fetch_add(deleted as u64, Ordering::Relaxed);
        deleted
    }
}

/// Parses the iteration out of `"{prefix}it{iter:010}/..."`.
fn iteration_of(prefix: &str, path: &str) -> Option<u64> {
    let rest = path.strip_prefix(prefix)?;
    let it_dir = rest.split('/').next()?;
    it_dir.strip_prefix("it")?.parse().ok()
}

/// The long-running multi-job coordinator.
pub struct Coordinator {
    backend: Arc<dyn StorageBackend>,
    pipeline: Arc<WriteBehind>,
    jobs: Mutex<BTreeMap<u32, Arc<JobSession>>>,
    next_job: AtomicU32,
}

impl Coordinator {
    /// Creates a coordinator persisting to `backend` through a shared
    /// write-behind uploader pool.
    pub fn new(backend: Arc<dyn StorageBackend>, cfg: CoordinatorConfig) -> Coordinator {
        let pipeline = Arc::new(WriteBehind::new(backend.clone(), cfg.pipeline));
        Coordinator {
            backend,
            pipeline,
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU32::new(0),
        }
    }

    /// Convenience: a coordinator over a single simulated object store.
    pub fn over_object_store(store: SimObjectStore, cfg: CoordinatorConfig) -> Coordinator {
        Coordinator::new(Arc::new(store), cfg)
    }

    /// The fleet backend jobs share by default.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Admits a job against the shared fleet backend.
    pub fn admit(&self, spec: JobSpec) -> Arc<JobSession> {
        let backend = self.backend.clone();
        self.admit_with_backend(spec, backend)
    }

    /// Admits a job that brings its own backend (e.g. a dedicated —
    /// possibly degraded — object store) but shares the coordinator's
    /// uploader pool: the configuration the per-job gate exists for.
    pub fn admit_with_backend(
        &self,
        spec: JobSpec,
        backend: Arc<dyn StorageBackend>,
    ) -> Arc<JobSession> {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(JobSession {
            job: JobId(id),
            gate: JobGate::new(spec.inflight_budget_bytes),
            backend,
            pipeline: self.pipeline.clone(),
            tickets: Mutex::new(Vec::new()),
            meta_cache: MetaCache::new(),
            stats: JobStats::default(),
            spec,
        });
        self.jobs.lock().insert(id, session.clone());
        session
    }

    /// Currently admitted jobs.
    pub fn active_jobs(&self) -> usize {
        self.jobs.lock().len()
    }

    /// Departs a job: drains its outstanding tickets and, with `purge`,
    /// deletes everything it persisted. Returns objects purged.
    pub fn depart(&self, job: JobId, purge: bool) -> SimResult<usize> {
        let session = self.jobs.lock().remove(&job.0);
        let Some(session) = session else {
            return Ok(0);
        };
        session.drain()?;
        if !purge {
            return Ok(0);
        }
        let mut removed = 0;
        for kind in [CkptKind::Jit, CkptKind::Periodic] {
            removed += session
                .backend
                .delete_prefix(&checkpoint::job_prefix(job, kind));
        }
        Ok(removed)
    }
}
