//! The job scheduler and monitoring plane.
//!
//! Implements the control-plane side of user-level JIT recovery (§3,
//! steps 3–4):
//!
//! 1. healthy ranks report failure detection and checkpoint completion;
//! 2. the scheduler waits until **at least one data-parallel replica of
//!    every (pipeline stage, tensor partition) cell** has acknowledged a
//!    complete checkpoint;
//! 3. it kills the job and reschedules it on GPUs that exclude every
//!    failed device.

use crate::topology::Cluster;
use simcore::layout::ParallelLayout;
use simcore::sync::Mutex;
use simcore::{GpuId, JobId, RankId, SimError, SimResult};
use std::collections::{HashMap, HashSet};

/// A rank's "checkpoint complete" acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointAck {
    /// Acknowledging rank.
    pub rank: RankId,
    /// Iteration the checkpoint captures.
    pub iteration: u64,
    /// Pipeline stage of the rank.
    pub stage: usize,
    /// Tensor partition of the rank.
    pub part: usize,
}

#[derive(Debug)]
struct JobState {
    layout: ParallelLayout,
    assignment: Vec<GpuId>,
    failed_gpus: HashSet<GpuId>,
    acks: Vec<CheckpointAck>,
    generation: u32,
}

/// Cluster scheduler: owns the inventory and per-job recovery state.
#[derive(Debug)]
pub struct Scheduler {
    cluster: Mutex<Cluster>,
    jobs: Mutex<HashMap<JobId, JobState>>,
    next_job: Mutex<u32>,
}

impl Scheduler {
    /// Creates a scheduler over a cluster.
    pub fn new(cluster: Cluster) -> Self {
        Scheduler {
            cluster: Mutex::new(cluster),
            jobs: Mutex::new(HashMap::new()),
            next_job: Mutex::new(0),
        }
    }

    /// Admits a job: allocates `layout.world_size()` GPUs and returns the
    /// job id plus the rank→GPU assignment (rank i gets `assignment[i]`).
    pub fn submit(&self, layout: ParallelLayout) -> SimResult<(JobId, Vec<GpuId>)> {
        let n = layout.world_size();
        let assignment = self.cluster.lock().allocate(n, &HashSet::new())?;
        let id = {
            let mut next = self.next_job.lock();
            let id = JobId(*next);
            *next += 1;
            id
        };
        self.jobs.lock().insert(
            id,
            JobState {
                layout,
                assignment: assignment.clone(),
                failed_gpus: HashSet::new(),
                acks: Vec::new(),
                generation: 0,
            },
        );
        Ok((id, assignment))
    }

    /// Current rank→GPU assignment.
    pub fn assignment(&self, job: JobId) -> SimResult<Vec<GpuId>> {
        self.jobs
            .lock()
            .get(&job)
            .map(|j| j.assignment.clone())
            .ok_or_else(|| SimError::Scheduling(format!("unknown {job}")))
    }

    /// Restart generation (increments on every reschedule).
    pub fn generation(&self, job: JobId) -> SimResult<u32> {
        self.jobs
            .lock()
            .get(&job)
            .map(|j| j.generation)
            .ok_or_else(|| SimError::Scheduling(format!("unknown {job}")))
    }

    /// A rank reports that GPU `gpu` suffered a hard failure. The GPU is
    /// marked failed in the inventory and excluded from future
    /// allocations for this job.
    pub fn report_gpu_failure(&self, job: JobId, gpu: GpuId) -> SimResult<()> {
        self.cluster.lock().mark_gpu_failed(gpu);
        let mut jobs = self.jobs.lock();
        let j = jobs
            .get_mut(&job)
            .ok_or_else(|| SimError::Scheduling(format!("unknown {job}")))?;
        j.failed_gpus.insert(gpu);
        Ok(())
    }

    /// A healthy rank acknowledges a complete JIT checkpoint.
    pub fn ack_checkpoint(&self, job: JobId, ack: CheckpointAck) -> SimResult<()> {
        let mut jobs = self.jobs.lock();
        let j = jobs
            .get_mut(&job)
            .ok_or_else(|| SimError::Scheduling(format!("unknown {job}")))?;
        j.acks.push(ack);
        Ok(())
    }

    /// §3.3 quorum: true once at least one ack exists for every
    /// (stage, partition) cell of the layout. Returns the set of
    /// iterations seen (the caller resolves the i vs i+1 ambiguity).
    pub fn checkpoint_quorum(&self, job: JobId) -> SimResult<Option<Vec<u64>>> {
        let jobs = self.jobs.lock();
        let j = jobs
            .get(&job)
            .ok_or_else(|| SimError::Scheduling(format!("unknown {job}")))?;
        let mut covered: HashSet<(usize, usize)> = HashSet::new();
        let mut iterations: Vec<u64> = Vec::new();
        for ack in &j.acks {
            covered.insert((ack.stage, ack.part));
            if !iterations.contains(&ack.iteration) {
                iterations.push(ack.iteration);
            }
        }
        let all_cells = j.layout.cells();
        if all_cells.iter().all(|c| covered.contains(c)) {
            iterations.sort_unstable();
            Ok(Some(iterations))
        } else {
            Ok(None)
        }
    }

    /// Kills and reschedules the job on healthy GPUs, excluding everything
    /// that failed. Clears acks and bumps the restart generation. Returns
    /// the new assignment.
    pub fn reschedule(&self, job: JobId) -> SimResult<Vec<GpuId>> {
        // Lock order: `cluster` before `jobs`, the order any other code
        // that nests the two must keep.
        let cluster = self.cluster.lock();
        let mut jobs = self.jobs.lock();
        let j = jobs
            .get_mut(&job)
            .ok_or_else(|| SimError::Scheduling(format!("unknown {job}")))?;
        let n = j.layout.world_size();
        let assignment = cluster.allocate(n, &j.failed_gpus)?;
        j.assignment = assignment.clone();
        j.acks.clear();
        j.generation += 1;
        Ok(assignment)
    }

    /// Read-only access to the inventory (for topology queries).
    pub fn with_cluster<R>(&self, f: impl FnOnce(&Cluster) -> R) -> R {
        f(&self.cluster.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::cost::GpuGeneration;

    fn sched(nodes: usize) -> Scheduler {
        Scheduler::new(Cluster::new(GpuGeneration::V100_32G, nodes))
    }

    #[test]
    fn submit_allocates_world_size_gpus() {
        let s = sched(2);
        let (job, gpus) = s.submit(ParallelLayout::data_parallel(8)).unwrap();
        assert_eq!(gpus.len(), 8);
        assert_eq!(s.assignment(job).unwrap(), gpus);
        assert_eq!(s.generation(job).unwrap(), 0);
    }

    #[test]
    fn quorum_requires_every_cell() {
        let s = sched(2);
        let layout = ParallelLayout::three_d(2, 2, 2);
        let (job, _) = s.submit(layout).unwrap();
        // Acks from one dp replica of stage 0 cells only.
        s.ack_checkpoint(
            job,
            CheckpointAck {
                rank: RankId(0),
                iteration: 10,
                stage: 0,
                part: 0,
            },
        )
        .unwrap();
        s.ack_checkpoint(
            job,
            CheckpointAck {
                rank: RankId(1),
                iteration: 10,
                stage: 0,
                part: 1,
            },
        )
        .unwrap();
        assert_eq!(s.checkpoint_quorum(job).unwrap(), None);
        // Cover stage 1 cells via the other dp replica.
        s.ack_checkpoint(
            job,
            CheckpointAck {
                rank: RankId(10),
                iteration: 10,
                stage: 1,
                part: 0,
            },
        )
        .unwrap();
        s.ack_checkpoint(
            job,
            CheckpointAck {
                rank: RankId(11),
                iteration: 10,
                stage: 1,
                part: 1,
            },
        )
        .unwrap();
        assert_eq!(s.checkpoint_quorum(job).unwrap(), Some(vec![10]));
    }

    #[test]
    fn quorum_reports_mixed_iterations() {
        let s = sched(1);
        let (job, _) = s.submit(ParallelLayout::data_parallel(2)).unwrap();
        s.ack_checkpoint(
            job,
            CheckpointAck {
                rank: RankId(0),
                iteration: 11,
                stage: 0,
                part: 0,
            },
        )
        .unwrap();
        s.ack_checkpoint(
            job,
            CheckpointAck {
                rank: RankId(1),
                iteration: 10,
                stage: 0,
                part: 0,
            },
        )
        .unwrap();
        assert_eq!(s.checkpoint_quorum(job).unwrap(), Some(vec![10, 11]));
    }

    #[test]
    fn reschedule_excludes_failed_gpus_and_bumps_generation() {
        let s = sched(2);
        let (job, gpus) = s.submit(ParallelLayout::data_parallel(8)).unwrap();
        s.report_gpu_failure(job, gpus[3]).unwrap();
        let new = s.reschedule(job).unwrap();
        assert_eq!(new.len(), 8);
        assert!(!new.contains(&gpus[3]));
        assert_eq!(s.generation(job).unwrap(), 1);
        // Acks were cleared by the restart.
        assert_eq!(s.checkpoint_quorum(job).unwrap(), None);
    }

    #[test]
    fn reschedule_fails_when_capacity_exhausted() {
        let s = sched(1);
        let (job, gpus) = s.submit(ParallelLayout::data_parallel(8)).unwrap();
        s.report_gpu_failure(job, gpus[0]).unwrap();
        assert!(matches!(s.reschedule(job), Err(SimError::Scheduling(_))));
    }
}
