//! Write-behind checkpoint persistence.
//!
//! [`write_checkpoint_with`](crate::checkpoint::write_checkpoint_with)
//! charges every shard put to the caller: the training thread (or its
//! watchdog) blocks until the slowest shard lands. That is fine against
//! the in-process store, but against a real object store — tens of
//! milliseconds per put — persistence time leaks straight into the
//! training-stall budget the paper works so hard to keep at "one
//! minibatch".
//!
//! [`WriteBehind`] decouples the two halves of a checkpoint write:
//!
//! * the **CPU half** (encode the logical stream, CRC each shard, decide
//!   delta reuse) runs on the submitting thread via
//!   [`ShardPlan`](crate::checkpoint::ShardPlan) — shard `i + 1` is being
//!   CRCed while shard `i` is already uploading, the double-buffer
//!   overlap;
//! * the **I/O half** (shard puts, then the metadata sidecar) runs on a
//!   pool of uploader threads fed by a byte-bounded queue. Payloads are
//!   `Arc`-backed slices of the staged stream, so handoff is a refcount
//!   bump, never a copy.
//!
//! Completion ordering is preserved: the sidecar — the checkpoint's
//! completion marker — is only put after every shard put of that
//! submission has finished, by whichever uploader finishes last (or by a
//! dedicated finalize task when every shard was a delta hit and nothing
//! needed uploading). A failed shard put suppresses the sidecar, so a
//! half-persisted checkpoint is exactly as invisible to readers as a
//! torn blocking write.
//!
//! Backpressure is two-level:
//!
//! * the **queue budget** bounds bytes parked between submitters and
//!   uploaders — a saturated backend eventually blocks `submit`, it
//!   never grows memory without bound;
//! * a per-job [`JobGate`] bounds one job's in-flight bytes, so a job
//!   writing to a slow backend stalls *itself* at admission while other
//!   jobs keep streaming through the remaining uploader capacity.
//!
//! Locking follows the repo's condvar conventions: waits loop on their
//! predicate, notifies happen while holding the paired mutex, and no
//! store call is ever made with a queue, gate, or ticket lock held.

use crate::checkpoint::ShardPlan;
use bytes::Bytes;
use cluster::StorageBackend;
use simcore::codec::encode_framed;
use simcore::sync::{Condvar, Mutex};
use simcore::{SimError, SimResult};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning for a [`WriteBehind`] pipeline.
#[derive(Debug, Clone)]
pub struct WriteBehindConfig {
    /// Uploader threads draining the queue.
    pub workers: usize,
    /// Bound on bytes parked in the queue awaiting upload. A submission
    /// larger than the whole budget is still admitted (one item at a
    /// time) so oversized shards cannot deadlock.
    pub queue_budget_bytes: usize,
}

impl Default for WriteBehindConfig {
    fn default() -> Self {
        WriteBehindConfig {
            workers: 4,
            queue_budget_bytes: 64 << 20,
        }
    }
}

/// Per-job admission control: bounds one job's in-flight (queued +
/// uploading) checkpoint bytes. Acquired by `submit` before a shard is
/// enqueued, released by the uploader when its put finishes — so a job
/// whose backend is slow backs up against its *own* gate.
pub struct JobGate {
    budget_bytes: usize,
    in_flight: Mutex<usize>,
    freed: Condvar,
}

impl JobGate {
    /// Creates a gate admitting up to `budget_bytes` in-flight bytes.
    pub fn new(budget_bytes: usize) -> Arc<JobGate> {
        Arc::new(JobGate {
            budget_bytes: budget_bytes.max(1),
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
        })
    }

    /// Blocks until `n` more in-flight bytes fit. A request larger than
    /// the whole budget is admitted once the gate is idle — progress is
    /// guaranteed for any shard size.
    fn acquire(&self, n: usize) {
        let mut held = self.in_flight.lock();
        while *held > 0 && *held + n > self.budget_bytes {
            self.freed.wait(&mut held);
        }
        *held += n;
    }

    fn release(&self, n: usize) {
        let mut held = self.in_flight.lock();
        *held = held.saturating_sub(n);
        self.freed.notify_all();
    }

    /// Bytes currently admitted and not yet persisted.
    pub fn in_flight(&self) -> usize {
        *self.in_flight.lock()
    }
}

/// Shared completion state of one submitted checkpoint.
#[derive(Debug)]
struct TicketState {
    /// Shard puts enqueued but not yet finished.
    pending_puts: usize,
    /// True once `submit` has staged every shard and armed `finalize`.
    staging_done: bool,
    /// The sidecar put, armed by `submit`, consumed exactly once by
    /// whoever observes `pending_puts == 0 && staging_done`.
    finalize: Option<(String, Bytes)>,
    /// First error observed; suppresses the sidecar put.
    err: Option<SimError>,
    /// Terminal: sidecar persisted, or failed.
    done: bool,
}

struct TicketShared {
    state: Mutex<TicketState>,
    completed: Condvar,
    /// The backend this submission persists to — carried per ticket so
    /// one uploader pool can serve jobs with different backends.
    store: Arc<dyn StorageBackend>,
}

/// Handle to an in-flight write-behind checkpoint. Dropping the ticket
/// does not cancel the write — the checkpoint still completes (or
/// fails) in the background; `wait` is how durability is observed.
#[derive(Clone)]
pub struct CkptTicket {
    shared: Arc<TicketShared>,
    iteration: u64,
}

impl CkptTicket {
    /// Blocks until the checkpoint is durable (sidecar persisted) or
    /// failed, returning the first error encountered.
    pub fn wait(&self) -> SimResult<()> {
        let mut st = self.shared.state.lock();
        while !st.done {
            self.shared.completed.wait(&mut st);
        }
        match &st.err {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Iteration this ticket persists.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }
}

/// One unit of uploader work.
enum Task {
    /// Persist a shard payload, then account it against its ticket.
    Put {
        path: String,
        data: Bytes,
        ticket: Arc<TicketShared>,
        gate: Option<Arc<JobGate>>,
    },
    /// A submission with zero uploads (every shard was a delta hit):
    /// nothing will trip the last-put finalize, so finalize explicitly.
    Finalize { ticket: Arc<TicketShared> },
}

impl Task {
    fn cost(&self) -> usize {
        match self {
            Task::Put { data, .. } => data.len(),
            Task::Finalize { .. } => 0,
        }
    }
}

#[derive(Debug)]
struct QueueState {
    tasks: VecDeque<Task>,
    queued_bytes: usize,
    shutdown: bool,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Task::Put { path, data, .. } => {
                write!(f, "Put({path}, {} bytes)", data.len())
            }
            Task::Finalize { .. } => write!(f, "Finalize"),
        }
    }
}

struct Queue {
    state: Mutex<QueueState>,
    /// Signalled when a task arrives or shutdown begins.
    not_empty: Condvar,
    /// Signalled when queued bytes drop.
    not_full: Condvar,
    budget_bytes: usize,
}

/// Counters exposed for benches and tests.
#[derive(Debug, Default)]
pub struct WriteBehindStats {
    /// Shard puts completed (success or failure).
    pub puts: AtomicU64,
    /// Payload bytes handed to the backend.
    pub uploaded_bytes: AtomicU64,
    /// Checkpoints fully persisted (sidecar landed).
    pub completed: AtomicU64,
    /// Checkpoints that failed (sidecar suppressed).
    pub failed: AtomicU64,
}

/// The write-behind pipeline: a byte-bounded task queue drained by
/// uploader threads, fronting any [`StorageBackend`].
pub struct WriteBehind {
    store: Arc<dyn StorageBackend>,
    queue: Arc<Queue>,
    stats: Arc<WriteBehindStats>,
    uploaders: Vec<std::thread::JoinHandle<()>>,
}

impl WriteBehind {
    /// Spawns the uploader pool over `store`.
    pub fn new(store: Arc<dyn StorageBackend>, cfg: WriteBehindConfig) -> WriteBehind {
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                queued_bytes: 0,
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            budget_bytes: cfg.queue_budget_bytes.max(1),
        });
        let stats = Arc::new(WriteBehindStats::default());
        let uploaders = (0..cfg.workers.max(1))
            .map(|i| {
                let queue = queue.clone();
                let stats = stats.clone();
                std::thread::Builder::new()
                    .name(format!("wb-upload-{i}"))
                    .spawn(move || uploader_loop(&queue, &stats))
                    .expect("spawn write-behind uploader")
            })
            .collect();
        WriteBehind {
            store,
            queue,
            stats,
            uploaders,
        }
    }

    /// Submits a staged checkpoint against this pipeline's own backend.
    pub fn submit(&self, plan: &ShardPlan, gate: Option<&Arc<JobGate>>) -> CkptTicket {
        let store = self.store.clone();
        self.submit_to(&store, plan, gate)
    }

    /// Submits a staged checkpoint to an explicit backend (multi-job
    /// coordinators route different jobs through one uploader pool).
    /// The CPU half (per-shard CRC + delta decision) runs here on the
    /// calling thread, interleaved with enqueueing — by the time shard
    /// `i + 1` is CRCed, shard `i` is already uploading. Blocks only on
    /// admission (the job gate, then the queue budget); never on the
    /// backend itself.
    pub fn submit_to(
        &self,
        store: &Arc<dyn StorageBackend>,
        plan: &ShardPlan,
        gate: Option<&Arc<JobGate>>,
    ) -> CkptTicket {
        let shared = Arc::new(TicketShared {
            store: store.clone(),
            state: Mutex::new(TicketState {
                pending_puts: 0,
                staging_done: false,
                finalize: None,
                err: None,
                done: false,
            }),
            completed: Condvar::new(),
        });

        let n = plan.n_shards();
        let mut shard_metas = Vec::with_capacity(n);
        for i in 0..n {
            let (meta, upload) = plan.resolve_shard(i);
            shard_metas.push(meta);
            let Some(payload) = upload else { continue };
            if let Some(g) = gate {
                g.acquire(payload.len());
            }
            {
                let mut st = shared.state.lock();
                st.pending_puts += 1;
            }
            self.enqueue(Task::Put {
                path: plan.shard_path(i),
                data: payload,
                ticket: shared.clone(),
                gate: gate.cloned(),
            });
        }

        let meta = plan.finish_meta(shard_metas);
        let sidecar = (plan.meta_path(), encode_framed(&meta));
        let needs_explicit_finalize = {
            let mut st = shared.state.lock();
            st.finalize = Some(sidecar);
            st.staging_done = true;
            st.pending_puts == 0
        };
        if needs_explicit_finalize {
            self.enqueue(Task::Finalize {
                ticket: shared.clone(),
            });
        }
        CkptTicket {
            shared,
            iteration: plan.iteration,
        }
    }

    /// Blocks until `task` fits under the queue budget, then parks it.
    fn enqueue(&self, task: Task) {
        let cost = task.cost();
        let mut st = self.queue.state.lock();
        while !st.tasks.is_empty() && st.queued_bytes + cost > self.queue.budget_bytes {
            self.queue.not_full.wait(&mut st);
        }
        st.queued_bytes += cost;
        st.tasks.push_back(task);
        self.queue.not_empty.notify_one();
    }

    /// Pipeline counters.
    pub fn stats(&self) -> &WriteBehindStats {
        &self.stats
    }

    /// The backend this pipeline persists to.
    pub fn store(&self) -> &Arc<dyn StorageBackend> {
        &self.store
    }

    /// Drains every queued task and joins the uploaders. Called by
    /// `Drop`; explicit calls make shutdown errors visible in tests.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.queue.state.lock();
            if st.shutdown {
                return;
            }
            st.shutdown = true;
            self.queue.not_empty.notify_all();
        }
        for h in self.uploaders.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Uploader body: pop, persist outside any lock, account to the ticket,
/// finalize when this was the submission's last outstanding put.
fn uploader_loop(queue: &Queue, stats: &WriteBehindStats) {
    loop {
        let task = {
            let mut st = queue.state.lock();
            while st.tasks.is_empty() && !st.shutdown {
                queue.not_empty.wait(&mut st);
            }
            match st.tasks.pop_front() {
                Some(t) => {
                    st.queued_bytes -= t.cost();
                    queue.not_full.notify_all();
                    t
                }
                // Queue empty and shutdown requested: drained.
                None => return,
            }
        };

        match task {
            Task::Put {
                path,
                data,
                ticket,
                gate,
            } => {
                let len = data.len();
                let res = ticket.store.put(&path, data);
                stats.puts.fetch_add(1, Ordering::Relaxed);
                stats
                    .uploaded_bytes
                    .fetch_add(len as u64, Ordering::Relaxed);
                if let Some(g) = gate {
                    g.release(len);
                }
                let fin = {
                    let mut st = ticket.state.lock();
                    st.pending_puts -= 1;
                    if let Err(e) = res {
                        if st.err.is_none() {
                            st.err = Some(e);
                        }
                    }
                    if st.pending_puts == 0 && st.staging_done {
                        st.finalize.take().map(|f| (f, st.err.is_some()))
                    } else {
                        None
                    }
                };
                if let Some((sidecar, had_err)) = fin {
                    finalize(stats, &ticket, sidecar, had_err);
                }
            }
            Task::Finalize { ticket } => {
                let fin = {
                    let mut st = ticket.state.lock();
                    if st.pending_puts == 0 && st.staging_done {
                        st.finalize.take().map(|f| (f, st.err.is_some()))
                    } else {
                        None
                    }
                };
                if let Some((sidecar, had_err)) = fin {
                    finalize(stats, &ticket, sidecar, had_err);
                }
            }
        }
    }
}

/// Persists the completion sidecar (unless a shard put already failed —
/// then the checkpoint must stay invisible) and marks the ticket done.
fn finalize(
    stats: &WriteBehindStats,
    ticket: &TicketShared,
    sidecar: (String, Bytes),
    had_err: bool,
) {
    let res = if had_err {
        Ok(()) // keep the first shard error; never write the marker
    } else {
        ticket.store.put(&sidecar.0, sidecar.1)
    };
    let mut st = ticket.state.lock();
    if let Err(e) = res {
        if st.err.is_none() {
            st.err = Some(e);
        }
    }
    if st.err.is_some() {
        stats.failed.fetch_add(1, Ordering::Relaxed);
    } else {
        stats.completed.fetch_add(1, Ordering::Relaxed);
    }
    st.done = true;
    ticket.completed.notify_all();
}
