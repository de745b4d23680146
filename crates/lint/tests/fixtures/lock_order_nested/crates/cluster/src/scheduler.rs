//! Fixture: `submit` holds `cluster` while it takes `jobs`;
//! `reschedule` holds `jobs` while it takes `cluster`. The pair nests
//! both ways: one cycle.

pub struct Scheduler {
    cluster: Mutex<u32>,
    jobs: Mutex<u32>,
}

impl Scheduler {
    pub fn submit(&self) -> u32 {
        let free = self.cluster.lock();
        let mut jobs = self.jobs.lock();
        *jobs += *free;
        *jobs
    }

    pub fn reschedule(&self) {
        let jobs = self.jobs.lock();
        let mut cluster = self.cluster.lock();
        *cluster += *jobs;
    }
}
