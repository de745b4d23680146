//! Benchmark-side span recorder.
//!
//! A span brackets one call the benchmark makes into a layer's `pub`
//! items (job set-up, a `train_step`, a job-runner call, a probe,
//! verification). Spans are kept in memory and written when the run
//! ends. A layer's self time is the duration of its spans minus the
//! part their child spans cover. Nothing inside the crates is
//! instrumented, so work a layer does on behalf of a call into another
//! layer is charged to the layer that was called.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layers a span can be charged to: the repository's crates — split by
/// module where a workload uses one module of a crate and not another —
/// plus the benchmark's own work (input generation, verification).
pub const LAYERS: &[&str] = &[
    "harness",
    "simcore",
    "simgpu",
    "proxy",
    "collectives",
    "dltrain",
    "cluster.store",
    "cluster.scheduler",
    "jitckpt.transparent",
    "jitckpt.user_level",
    "jitckpt.checkpoint",
    "jitckpt.restore",
    "jitckpt.stream",
    "jitckpt.pipeline",
    "baselines",
    "coordinator",
];

pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Which part of the run recorded it (`setup`, `twin`, `run`,
    /// `verify`, `probe`).
    pub run: &'static str,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span's duration less the part its child spans cover.
pub struct SelfTime {
    pub layer: &'static str,
    pub name: &'static str,
    pub self_ms: f64,
}

/// Calls and total self time per `layer.name`, sorted by name.
pub fn by_name(times: &[SelfTime]) -> Vec<(String, usize, f64)> {
    let mut by = std::collections::BTreeMap::<String, (usize, f64)>::new();
    for t in times {
        let e = by.entry(format!("{}.{}", t.layer, t.name)).or_default();
        e.0 += 1;
        e.1 += t.self_ms;
    }
    by.into_iter().map(|(k, (n, ms))| (k, n, ms)).collect()
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Ends its span when dropped.
pub struct Guard<'a> {
    rec: Option<&'a Recorder>,
    id: u64,
    parent: u64,
    run: &'static str,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span; a disabled recorder reads no clock and stores
    /// nothing.
    pub fn span(&self, run: &'static str, layer: &'static str, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                rec: None,
                id: 0,
                parent: 0,
                run,
                layer,
                name,
                start_ns: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        Guard {
            rec: Some(self),
            id,
            parent,
            run,
            layer,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Self time of every span recorded in one of `runs`.
    pub fn self_times(&self, runs: &[&str]) -> Vec<SelfTime> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns = std::collections::HashMap::<u64, u64>::new();
        for s in spans.iter() {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        spans
            .iter()
            .filter(|s| runs.contains(&s.run))
            .map(|s| {
                let own =
                    (s.end_ns - s.start_ns).saturating_sub(*child_ns.get(&s.id).unwrap_or(&0));
                SelfTime {
                    layer: s.layer,
                    name: s.name,
                    self_ms: own as f64 / 1e6,
                }
            })
            .collect()
    }

    /// Measured cost of recording as many spans as this run did, in
    /// seconds: the same open/close sequence replayed into a scratch
    /// recorder.
    pub fn replay_cost_s(&self) -> f64 {
        let n = self.span_count();
        let scratch = Recorder::new(true);
        let start = Instant::now();
        for _ in 0..n {
            let _g = scratch.span("run", "harness", "replayed");
        }
        start.elapsed().as_secs_f64()
    }

    /// Writes the spans as JSON lines.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list poisoned").iter() {
            writeln!(
                f,
                "{{\"id\": {}, \"parent\": {}, \"run\": \"{}\", \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.run, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(rec) = self.rec else { return };
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        if let Ok(mut spans) = rec.spans.lock() {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                run: self.run,
                layer: self.layer,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}
