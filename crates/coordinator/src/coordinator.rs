//! The checkpoint coordinator.
//!
//! One [`Coordinator`] owns one [`StorageBackend`] and one
//! [`WriteBehind`] uploader pool persisting to it. Training jobs are
//! *admitted* into [`JobSession`]s that carry everything a job's ranks
//! need to persist checkpoints:
//!
//! * a per-job [`JobGate`] — admission control, so one job with many
//!   bytes in flight throttles itself, not every job sharing the pool;
//! * the shared write-behind pipeline;
//! * retention-driven garbage collection.
//!
//! Retention interacts with delta chains: a retained sidecar's shards
//! may reference bytes living in *older* iterations' directories
//! (`base_iteration`). GC therefore keeps the newest `keep_checkpoints`
//! durable iterations (a sidecar for every cell) **plus** every
//! iteration their sidecars reference; the writer-side chain cap
//! ([`ShardConfig::max_delta_chain`]) bounds how long those references
//! can pin history, so sustained load reaches a steady-state object
//! count instead of growing with job age.

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
use std::sync::atomic::{AtomicU32, Ordering};
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

/// A job admitted to the coordinator: the handle its ranks checkpoint
/// through.
pub struct JobSession {
    job: JobId,
    spec: JobSpec,
    backend: Arc<dyn StorageBackend>,
    pipeline: Arc<WriteBehind>,
    gate: Arc<JobGate>,
    /// Outstanding write-behind tickets; [`JobSession::drain`] waits them.
    tickets: Mutex<Vec<CkptTicket>>,
    /// Newest-iteration memo per cell: spares delta staging the full
    /// `store.list` scan of `latest_meta_before` on every checkpoint
    /// (entries are validated with one targeted sidecar read, scan on
    /// miss — behavior is identical to the uncached path, only list
    /// traffic differs).
    meta_cache: MetaCache,
}

impl JobSession {
    /// The job's id.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The backend this job persists to: the coordinator's.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
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
        let ticket = self.pipeline.submit(&plan, Some(&self.gate));
        self.meta_cache
            .record(self.job, kind, stage, part, dp, state.iteration);
        self.tickets.lock().push(ticket.clone());
        ticket
    }

    /// Resolves and restores the checkpoint for `rank` in one pass
    /// through the parallel restore plane: the validation read of the
    /// rank's cell is the restore.
    pub fn restore_for_rank(
        &self,
        layout: &ParallelLayout,
        rank: RankId,
    ) -> SimResult<(TrainState, CheckpointMeta, RestoreStats)> {
        load_for_rank_parallel(
            &self.backend,
            self.job,
            layout,
            rank,
            &RestoreConfig::default(),
        )
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

    /// Retention GC: keeps the newest `keep_checkpoints` durable
    /// iterations of `kind` plus every older iteration their sidecars
    /// still reference as delta bases; deletes the rest. Returns objects
    /// deleted. An iteration is durable when every cell that appears
    /// under the job's prefix has a sidecar there, as restore requires
    /// of the iteration it resumes from. Only iterations older than the
    /// newest retained one are swept: a newer one is still uploading, or
    /// was torn by a failure and goes once a newer durable one exists.
    pub fn gc(&self, kind: CkptKind) -> usize {
        let prefix = checkpoint::job_prefix(self.job, kind);
        let paths = self.backend.list(&prefix);
        let mut iterations: BTreeSet<u64> = BTreeSet::new();
        let mut cells: BTreeSet<&str> = BTreeSet::new();
        // Iteration → the cells with a sidecar there.
        let mut sealed: BTreeMap<u64, BTreeSet<&str>> = BTreeMap::new();
        let mut sidecars: Vec<(u64, &str)> = Vec::new();
        for path in &paths {
            let Some((it, cell)) = iteration_and_cell(&prefix, path) else {
                continue;
            };
            iterations.insert(it);
            cells.insert(cell);
            if path.ends_with("/meta") {
                sealed.entry(it).or_default().insert(cell);
                sidecars.push((it, path));
            }
        }
        let retained: BTreeSet<u64> = sealed
            .iter()
            .rev()
            .filter(|(_, sealed)| sealed.len() == cells.len())
            .map(|(it, _)| *it)
            .take(self.spec.keep_checkpoints.max(1))
            .collect();
        let Some(&newest) = retained.last() else {
            return 0;
        };
        let swept: Vec<u64> = iterations
            .into_iter()
            .filter(|it| *it < newest && !retained.contains(it))
            .collect();
        if swept.is_empty() {
            return 0;
        }

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

        swept
            .into_iter()
            .filter(|it| !pinned.contains(it))
            .map(|it| self.backend.delete_prefix(&format!("{prefix}it{it:010}/")))
            .sum()
    }
}

/// Parses the iteration and cell out of
/// `"{prefix}it{iter:010}/s{stage}p{part}/..."`.
fn iteration_and_cell<'p>(prefix: &str, path: &'p str) -> Option<(u64, &'p str)> {
    let mut dirs = path.strip_prefix(prefix)?.split('/');
    let it = dirs.next()?.strip_prefix("it")?.parse().ok()?;
    Some((it, dirs.next()?))
}

/// The checkpoint coordinator: one backend, one uploader pool, any
/// number of admitted jobs.
pub struct Coordinator {
    backend: Arc<dyn StorageBackend>,
    pipeline: Arc<WriteBehind>,
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
            next_job: AtomicU32::new(0),
        }
    }

    /// Convenience: a coordinator over a simulated object store. Named
    /// only by the benchmark; it goes at ROADMAP item 3 step 1.
    pub fn over_object_store(store: SimObjectStore, cfg: CoordinatorConfig) -> Coordinator {
        Coordinator::new(Arc::new(store), cfg)
    }

    /// The backend every admitted job persists to.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Admits a job: a session on the coordinator's backend and pool.
    pub fn admit(&self, spec: JobSpec) -> Arc<JobSession> {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        Arc::new(JobSession {
            job: JobId(id),
            gate: JobGate::new(spec.inflight_budget_bytes),
            backend: self.backend.clone(),
            pipeline: self.pipeline.clone(),
            tickets: Mutex::new(Vec::new()),
            meta_cache: MetaCache::new(),
            spec,
        })
    }
}
