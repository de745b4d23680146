//! Fixture negative: `submit` takes `cluster` as a statement temporary,
//! dropped before it takes `jobs`; `reschedule` nests `jobs` then
//! `cluster`. The two locks never nest the first way, so there is no
//! cycle to report.

pub struct Scheduler {
    cluster: Mutex<u32>,
    jobs: Mutex<u32>,
}

impl Scheduler {
    pub fn submit(&self) -> u32 {
        let free = *self.cluster.lock();
        let mut jobs = self.jobs.lock();
        *jobs += free;
        *jobs
    }

    pub fn reschedule(&self) {
        let jobs = self.jobs.lock();
        let mut cluster = self.cluster.lock();
        *cluster += *jobs;
    }
}
