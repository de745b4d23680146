//! Metric tables, summaries and the two output forms: `METRIC` lines
//! for people and `repeat.sh`, and the one-line JSON result the driver
//! reads.
//!
//! The tables here and `BENCHMARK.json` list the same names; every run
//! prints every name of its mode, so a metric a workload does not
//! exercise reads 0 there (per-layer only — the end-to-end metrics are
//! defined, and non-zero, on every workload).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a metric repeats between two runs of the same code and seed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Wall-clock, or decided by it — a count of polls or of lost
    /// races: compared with a tolerance.
    Wall,
    /// A count, which must repeat exactly, or virtual time, which must
    /// repeat within [`VIRTUAL_TOLERANCE`].
    Exact,
}

/// Share by which a virtual time may differ between two runs of the same
/// code and seed: which rank reaches a rendezvous first moves a
/// transparent recovery's clock by microseconds.
const VIRTUAL_TOLERANCE: f64 = 1e-4;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub class: Class,
    /// Share of the value two runs may differ by: the regression bound
    /// of an end-to-end metric, the tolerance of a virtual time, 0 else.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        class: Class::Wall,
        bound,
    }
}

const fn wall(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        class: Class::Wall,
        bound: 0.0,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        class: Class::Exact,
        bound: 0.0,
    }
}

const fn virt(name: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "s",
        class: Class::Exact,
        bound: VIRTUAL_TOLERANCE,
    }
}

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25),
    e2e("run_wall_s", "s", 0.25),
    e2e("healthy_step_ms", "ms", 0.25),
    e2e("peak_heap_mib", "MiB", 0.25),
];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    wall("simcore.codec.crc64_mbps", "MB/s"),
    wall("simcore.codec.encode_mbps", "MB/s"),
    wall("simcore.codec.decode_mbps", "MB/s"),
    wall("simgpu.kernel.matmul_gflops", "GFLOP/s"),
    wall("simgpu.kernel.adam_melems_per_s", "Melem/s"),
    wall("simgpu.device.call_ns", "ns"),
    wall("proxy.direct.per_op_ns", "ns"),
    wall("proxy.client.per_op_ns", "ns"),
    wall("proxy.steady_overhead_frac", "ratio"),
    exact("proxy.oplog.ops_per_minibatch", "count"),
    exact("proxy.oplog.compacted_kept_ratio", "ratio"),
    exact("proxy.oplog.arena_bytes_per_minibatch", "bytes"),
    wall("proxy.client.replay_ms", "ms"),
    wall("proxy.client.reset_in_place_ms", "ms"),
    wall("proxy.client.reset_with_restart_ms", "ms"),
    wall("proxy.client.snapshot_to_host_ms", "ms"),
    wall("proxy.client.sync_from_replica_ms", "ms"),
    wall("proxy.client.migrate_ms", "ms"),
    wall("proxy.watchdog.detect_slack_ms", "ms"),
    wall("collectives.ring.allreduce_ms", "ms"),
    wall("collectives.ring.allreduce_mbps", "MB/s"),
    exact("collectives.calls_per_step", "count"),
    exact("collectives.bytes_per_step", "bytes"),
    wall("collectives.comm_rebuild_ms", "ms"),
    virt("collectives.ring.sim_s_w256"),
    virt("collectives.hier.sim_s_w256"),
    wall("collectives.ledger.tap_wall_frac", "ratio"),
    wall("collectives.ledger.reconstruct_ms", "ms"),
    wall("dltrain.step_direct_ms", "ms"),
    wall("dltrain.step_wall_ms_p95", "ms"),
    wall("dltrain.snapshot_ms", "ms"),
    wall("dltrain.restore_ms", "ms"),
    wall("cluster.store.put_mbps", "MB/s"),
    wall("cluster.store.get_mbps", "MB/s"),
    wall("cluster.store.list_us", "us"),
    wall("cluster.scheduler.reschedule_us", "us"),
    exact("cluster.store.objects", "count"),
    // The transparent engine polls the store for a peer's buffer file.
    wall("cluster.store.reads", "count"),
    exact("cluster.store.bytes_per_state_byte", "ratio"),
    wall("jitckpt.checkpoint.write_mbps", "MB/s"),
    wall("jitckpt.checkpoint.read_serial_mbps", "MB/s"),
    wall("jitckpt.restore.read_parallel_mbps", "MB/s"),
    wall("jitckpt.checkpoint.assemble_ms", "ms"),
    exact("jitckpt.checkpoint.delta_reuse_frac", "ratio"),
    wall("jitckpt.stream.send_recv_mbps", "MB/s"),
    wall("jitckpt.stream.fallback_ms", "ms"),
    wall("jitckpt.pipeline.write_behind_mbps", "MB/s"),
    wall("jitckpt.pipeline.submit_stall_ms", "ms"),
    virt("jitckpt.transparent.victim_virtual_s.a"),
    virt("jitckpt.transparent.victim_virtual_s.b"),
    virt("jitckpt.transparent.victim_virtual_s.c"),
    virt("jitckpt.transparent.victim_virtual_s.d"),
    virt("jitckpt.transparent.victim_virtual_s.e"),
    wall("jitckpt.transparent.incident_wall_ms.a", "ms"),
    wall("jitckpt.transparent.incident_wall_ms.b", "ms"),
    wall("jitckpt.transparent.incident_wall_ms.c", "ms"),
    wall("jitckpt.transparent.incident_wall_ms.d", "ms"),
    wall("jitckpt.transparent.incident_wall_ms.e", "ms"),
    virt("jitckpt.user_level.ckpt_virtual_s"),
    virt("jitckpt.user_level.restore_virtual_s"),
    wall("coordinator.persist_wall_s", "s"),
    wall("coordinator.restore_wall_s", "s"),
    wall("coordinator.objstore.put_ms_p50", "ms"),
    // A cache entry checked while its upload is in flight falls back to
    // a scan.
    wall("coordinator.meta_cache.list_calls", "count"),
    wall("coordinator.gc_ms", "ms"),
    virt("baselines.periodic.ckpt_stall_virtual_s"),
    exact("baselines.periodic.wasted_iterations", "count"),
    exact("baselines.periodic.checkpoints_written", "count"),
    virt("run.virtual_s"),
    virt("incident.recovery_virtual_s"),
    wall("incident.recovery_wall_s", "s"),
    exact("incident.count", "count"),
    virt("run.detect_wait_s"),
    wall("trace.self_ms.harness", "ms"),
    wall("trace.self_ms.simcore", "ms"),
    wall("trace.self_ms.simgpu", "ms"),
    wall("trace.self_ms.proxy", "ms"),
    wall("trace.self_ms.collectives", "ms"),
    wall("trace.self_ms.dltrain", "ms"),
    wall("trace.self_ms.cluster.store", "ms"),
    wall("trace.self_ms.cluster.scheduler", "ms"),
    wall("trace.self_ms.jitckpt.transparent", "ms"),
    wall("trace.self_ms.jitckpt.user_level", "ms"),
    wall("trace.self_ms.jitckpt.checkpoint", "ms"),
    wall("trace.self_ms.jitckpt.restore", "ms"),
    wall("trace.self_ms.jitckpt.stream", "ms"),
    wall("trace.self_ms.jitckpt.pipeline", "ms"),
    wall("trace.self_ms.baselines", "ms"),
    wall("trace.self_ms.coordinator", "ms"),
    exact("trace.spans", "count"),
    wall("trace_overhead_frac", "ratio"),
];

/// Median, quartiles and range of a sample.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `q`-quantile of the sorted sample `v`, interpolating linearly
/// between order statistics; 0 for an empty sample.
fn quantile_of_sorted(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

impl Summary {
    /// Summarises `xs`. An empty sample summarises to zeros.
    pub fn of(xs: &[f64]) -> Summary {
        let v = sorted(xs);
        Summary {
            n: v.len(),
            median: quantile_of_sorted(&v, 0.5),
            q1: quantile_of_sorted(&v, 0.25),
            q3: quantile_of_sorted(&v, 0.75),
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
        }
    }

    /// The `q`-quantile of `xs`.
    pub fn quantile(xs: &[f64], q: f64) -> f64 {
        quantile_of_sorted(&sorted(xs), q)
    }
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, (f64, Option<Summary>)>,
    /// Operations checked against the fault-free twin (see README).
    attempted: u64,
    failed: u64,
    /// Free-text lines printed in the header (constants, sizes).
    pub notes: Vec<String>,
    /// Why ops failed, if any did.
    pub failures: Vec<String>,
    /// Set by [`Report::fail_all`]: every op counts as failed, those
    /// recorded afterwards too.
    all_failed: bool,
}

impl Report {
    /// Records a single measured value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), (value, None));
    }

    /// Records the median of a sample, keeping its spread for printing.
    pub fn set_sample(&mut self, name: &str, xs: &[f64]) {
        let s = Summary::of(xs);
        self.values.insert(name.to_string(), (s.median, Some(s)));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map(|v| v.0).unwrap_or(0.0)
    }

    /// Counts `n` checked operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Fails every operation of the run (spurious restart, typed error,
    /// missed deadline).
    pub fn fail_all(&mut self, why: String) {
        self.all_failed = true;
        self.failures.push(why);
    }

    /// Operations attempted (at least 1) and failed.
    pub fn op_counts(&self) -> (u64, u64) {
        let attempted = self.attempted.max(1);
        (
            attempted,
            if self.all_failed {
                attempted
            } else {
                self.failed
            },
        )
    }

    /// Prints the `METRIC` lines of `defs` — wall metrics first, exact
    /// ones in their own section — and returns the driver's JSON line.
    pub fn render(&self, defs: &[MetricDef], kind: &str) -> String {
        for (class, title) in [
            (Class::Wall, "wall-clock (toleranced)"),
            (Class::Exact, "virtual time and counts (exact)"),
        ] {
            if !defs.iter().any(|d| d.class == class) {
                continue;
            }
            println!("# -- {title}");
            for d in defs.iter().filter(|d| d.class == class) {
                let (v, s) = self.values.get(d.name).copied().unwrap_or((0.0, None));
                let class = if class == Class::Wall {
                    "wall"
                } else {
                    "exact"
                };
                let mut line = format!("METRIC {kind} {class} {} {v:.6} {}", d.name, d.unit);
                if d.bound > 0.0 {
                    let _ = write!(line, " bound={}", d.bound);
                }
                if let Some(s) = s {
                    let _ = write!(
                        line,
                        " n={} q1={:.6} q3={:.6} min={:.6} max={:.6}",
                        s.n, s.q1, s.q3, s.min, s.max
                    );
                }
                println!("{line}");
            }
        }
        let (attempted, failed) = self.op_counts();
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, d) in defs.iter().enumerate() {
            let v = self.get(d.name);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                d.name,
                d.unit
            );
        }
        json.push_str("}}");
        json
    }
}
