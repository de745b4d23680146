//! Table and figure regeneration for the paper's evaluation (§6).
//!
//! Each `table*` function reproduces the corresponding table of the
//! paper: the *workload identities and analytical formulas* come straight
//! from the paper; the *measured quantities* (checkpoint, restore, and
//! recovery times; step breakdowns; steady-state overheads; minibatch
//! durations) come from functional runs of the simulated stack on
//! phantom-scaled workloads, read off the virtual clocks. Absolute
//! numbers therefore differ from the authors' testbed; the shapes —
//! who wins, by what factor, where recovery time goes — are the
//! reproduction targets (see EXPERIMENTS.md).
//!
//! Everything here is deterministic — virtual time, closed form or seeded
//! Monte Carlo — and is a section of the one `tables` bin ([`SECTIONS`]),
//! pinned byte for byte by the committed `tables_output.txt`. Wall-clock
//! measurements live in `benchmark/`.

pub mod coll;
pub mod montecarlo;

use baselines::{blocking_overhead, PolicyKind};
use cluster::{FailureInjector, SharedStore};
use jitckpt::analysis::{
    self, monthly_failure_cost_dollars, optimal_frequency, wasted_fraction,
    wasted_rate_jit_transparent, wasted_rate_jit_user, wasted_rate_periodic_optimal, JobParams,
};
use jitckpt::transparent::Action;
use jitckpt::user_level::JitUserConfig;
use jitckpt::workloads::{by_name, Workload};
use jitckpt::{run_job, JobOutcome, Policy};
use simcore::cost::{CostModel, GpuGeneration};
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::layout::ParallelLayout;
use simcore::RankId;
use std::sync::Arc;

/// A rendered evaluation table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (paper reference).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// One section of `tables_output.txt`: the `tables` argument that selects
/// it and the function that generates it.
pub type Section = (&'static str, fn() -> Table);

/// Every section in file order: the one list the `tables` bin prints and
/// the golden test renders.
pub const SECTIONS: &[Section] = &[
    ("1", table1),
    ("2", table2),
    ("3", table3),
    ("4", table4),
    ("5", table5),
    ("6", table6),
    ("7", table7),
    ("8", table8),
    ("scaling", scaling_figure),
    ("dollars", dollar_table),
    ("ablation-logging", ablation_logging),
    ("ablation-recovery", ablation_recovery_paths),
    ("montecarlo", montecarlo::validation_table),
    ("hier", coll::hier_ladder),
    ("bucketing", coll::bucket_overlap),
    ("policies", montecarlo::policy_head_to_head),
];

/// A sub-heading row spanning a table of `columns` columns.
fn divider(label: &str, columns: usize) -> Vec<String> {
    let mut row = vec![format!("— {label} —")];
    row.resize(columns, String::new());
    row
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

fn f3(v: f64) -> String {
    format!("{v:.3}")
}

fn pct(v: f64) -> String {
    format!("{:.4}%", v * 100.0)
}

/// The OPT-175B failure rate used throughout the paper's analysis:
/// 2 failures/day over 992 GPUs, per GPU per second.
fn paper_failure_rate() -> f64 {
    2.0 / 992.0 / 86_400.0
}

/// Functional measurement: failure-free run, returning per-iteration
/// minibatch time (virtual seconds) and the transparent-logging
/// steady-state overhead per minibatch.
fn measure_minibatch(w: &Workload, gen: GpuGeneration, iters: u64) -> (f64, f64) {
    minibatch_under(w, CostModel::for_gpu(gen), iters)
}

/// [`measure_minibatch`] under an explicit cost model.
fn minibatch_under(w: &Workload, cost: CostModel, iters: u64) -> (f64, f64) {
    let out = run_job(
        w.train_config(7),
        cost.clone(),
        FailureInjector::none(),
        Arc::new(SharedStore::new()),
        iters,
        Policy::Transparent { extra_comms: 0 },
    )
    .expect("clean run");
    let total = out
        .finish_times
        .iter()
        .fold(simcore::SimTime::ZERO, |a, b| a.max(*b))
        .as_secs();
    let logged: u64 = out.logged_calls.iter().copied().max().unwrap_or(0);
    let log_overhead = logged as f64 * cost.effective_log_overhead().as_secs() / iters as f64;
    (total / iters as f64, log_overhead)
}

/// Table 1: summary of error recovery solutions.
pub fn table1() -> Table {
    Table {
        title: "Table 1: Summary of error recovery solutions".into(),
        header: vec![
            "#".into(),
            "Solution".into(),
            "Errors Handled".into(),
            "User Code Change?".into(),
        ],
        rows: vec![
            vec![
                "1".into(),
                "User-level".into(),
                "Single/multiple errors in node/GPU/network".into(),
                "Yes (jitckpt::user_level)".into(),
            ],
            vec![
                "2".into(),
                "Transparent; recoverable errors".into(),
                "Transient single/multiple errors in GPU/network".into(),
                "No (jitckpt::transparent, §4.2 paths)".into(),
            ],
            vec![
                "3".into(),
                "Transparent; hard errors".into(),
                "Single/multiple errors in node/GPU/network".into(),
                "No (jitckpt::transparent hard path + CRIU)".into(),
            ],
        ],
    }
}

/// Table 2: experimental workloads.
pub fn table2() -> Table {
    let rows = jitckpt::workloads::catalog()
        .into_iter()
        .map(|w| {
            vec![
                w.name.to_string(),
                format!("{:.3}B", w.params_b),
                format!("{}", w.gpus()),
                if w.fsdp {
                    "FSDP".to_string()
                } else {
                    w.layout.label()
                },
                format!("{:?}", w.framework),
                format!("{:?}", w.gpu),
            ]
        })
        .collect();
    Table {
        title: "Table 2: Experimental workloads".into(),
        header: vec![
            "Model".into(),
            "#Params".into(),
            "#GPUs".into(),
            "Parallelism".into(),
            "Framework".into(),
            "GPU".into(),
        ],
        rows,
    }
}

/// Table 3: steady-state checkpointing overhead percentages at the
/// optimal frequency (f = 2/day per 992 GPUs), per mechanism, vs JIT.
pub fn table3() -> Table {
    let f = paper_failure_rate();
    let names = [
        "GPT2-S",
        "GPT2-XL",
        "GPT2-8B",
        "GPT2-18B",
        "BERT-L-PT",
        "BERT-B-FT",
    ];
    let mut rows = Vec::new();
    for name in names {
        let w = by_name(name).expect("catalog");
        let cost = CostModel::for_gpu(w.gpu);
        let rpn = w.gpu.gpus_per_node();
        let bytes = w.state_bytes_per_rank();
        let mut cells = vec![name.to_string()];
        for kind in [PolicyKind::PcDisk, PolicyKind::PcMem, PolicyKind::CheckFreq] {
            let o = blocking_overhead(kind, bytes, &cost, rpn).as_secs();
            let p = JobParams {
                ckpt_overhead: o,
                failure_rate: f,
                fixed_recovery: 0.0,
                n_gpus: w.gpus(),
                minibatch: w.paper_minibatch,
            };
            let c = optimal_frequency(&p);
            cells.push(format!("{:.3}", 100.0 * c * o));
        }
        // PC once per day.
        let o_disk = blocking_overhead(PolicyKind::PcDisk, bytes, &cost, rpn).as_secs();
        cells.push(format!("{:.4}", 100.0 * o_disk / 86_400.0));
        // JIT-C: measured transparent-logging overhead as a fraction of
        // the minibatch.
        let (mb, log_oh) = measure_minibatch(&w, w.gpu, 3);
        cells.push(format!("{:.4}", 100.0 * log_oh / mb));
        rows.push(cells);
    }
    Table {
        title:
            "Table 3: Checkpointing overhead percentages at optimal frequency (f=2/day per 992 GPUs)"
                .into(),
        header: vec![
            "Model".into(),
            "PC_disk %".into(),
            "PC_mem %".into(),
            "CheckFreq %".into(),
            "PC_1/day %".into(),
            "JIT-C %".into(),
        ],
        rows,
    }
}

/// Raw measurements behind Table 4 for one workload.
#[derive(Debug, Clone, Copy)]
struct UserLevelNumbers {
    /// JIT checkpoint time (s).
    checkpoint: f64,
    /// Restore + re-init time (s).
    restore: f64,
    /// Total JIT recovery (s).
    recovery: f64,
    /// Minibatch time (s).
    minibatch: f64,
}

/// Functional user-level recovery measurement for one workload.
fn measure_user_level(w: &Workload) -> UserLevelNumbers {
    let cost = CostModel::for_gpu(w.gpu);
    let cfg = w.train_config(11);
    let victim = RankId((w.gpus() - 1) as u32);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(
        2,
        Phase::Backward,
        victim,
        FailureKind::StickyCuda,
    )]);
    let scheduler = Arc::new(cluster::Scheduler::new(cluster::Cluster::new(
        w.gpu,
        (w.gpus() / w.gpu.gpus_per_node()).max(1) + 1,
    )));
    let out = run_job(
        cfg,
        cost,
        injector,
        Arc::new(SharedStore::new()),
        5,
        Policy::UserLevel {
            scheduler,
            jit: JitUserConfig::default(),
        },
    )
    .expect("user-level run");
    let ckpt = out
        .events
        .iter()
        .filter(|e| e.checkpoint_time.as_secs() > 0.0)
        .map(|e| e.checkpoint_time.as_secs())
        .fold(0.0f64, f64::max);
    let restore = out
        .events
        .iter()
        .filter(|e| e.restore_time.as_secs() > 0.0)
        .map(|e| e.restore_time.as_secs())
        .fold(0.0f64, f64::max);
    let (mb, _) = measure_minibatch(w, w.gpu, 3);
    UserLevelNumbers {
        checkpoint: ckpt,
        restore,
        recovery: ckpt + restore,
        minibatch: mb,
    }
}

/// Table 4: user-level JIT checkpoint/restore/recovery and minibatch
/// times.
pub fn table4() -> Table {
    let names = [
        "BERT-L-PT",
        "BERT-B-FT",
        "GPT2-S",
        "GPT2-XL",
        "GPT2-8B",
        "GPT2-18B",
        "T5-3B",
        "ViT",
    ];
    let mut rows = Vec::new();
    for name in names {
        let w = by_name(name).expect("catalog");
        let n = measure_user_level(&w);
        rows.push(vec![
            name.to_string(),
            f2(n.checkpoint),
            f2(n.restore),
            f2(n.recovery),
            f3(n.minibatch),
            "~0".into(),
        ]);
    }
    Table {
        title: "Table 4: User-level JIT recovery times (seconds, virtual)".into(),
        header: vec![
            "Model".into(),
            "Checkpoint".into(),
            "Restore".into(),
            "JIT Recovery".into(),
            "Minibatch".into(),
            "Overhead".into(),
        ],
        rows,
    }
}

/// A Table 5/6/7 workload row configuration: (label, GPU generation,
/// layout, extra framework comms).
fn transparent_rows(gen: GpuGeneration) -> Vec<(&'static str, Workload, usize)> {
    let mk = |name: &str, dp: usize| {
        let mut w = by_name(name).expect("catalog");
        w.layout = ParallelLayout::data_parallel(dp);
        w.gpu = gen;
        w
    };
    match gen {
        GpuGeneration::V100_32G => {
            let mut rows = vec![
                ("BERT-B-FT", mk("BERT-B-FT", 8), 0),
                ("GPT2-S", mk("GPT2-S", 8), 7),
            ];
            let mut w3d = by_name("GPT2-S-3D").expect("catalog");
            w3d.gpu = gen;
            let comms_3d = w3d.comms_per_rank();
            rows.push(("GPT2-S-3D", w3d, comms_3d.saturating_sub(3)));
            rows.push(("Pyramidnet", mk("PyramidNet", 8), 0));
            rows
        }
        GpuGeneration::A100_80G => vec![
            ("BERT-B-FT", mk("BERT-B-FT", 4), 0),
            ("GPT2-S", mk("GPT2-S", 4), 7),
            ("Pyramidnet", mk("PyramidNet", 4), 0),
        ],
    }
}

/// Functional transparent recovery run for one row; returns the outcome.
fn transparent_recovery_run(
    w: &Workload,
    extra_comms: usize,
    kind: FailureKind,
    phase: Phase,
) -> JobOutcome {
    let cost = CostModel::for_gpu(w.gpu);
    let cfg = w.train_config(23);
    let victim = RankId(0);
    let injector = FailureInjector::with_specs(vec![FailureSpec::new(2, phase, victim, kind)]);
    run_job(
        cfg,
        cost,
        injector,
        Arc::new(SharedStore::new()),
        5,
        Policy::Transparent { extra_comms },
    )
    .expect("transparent run")
}

/// The Table 5/6 testbed a GPU generation stands for.
fn testbed(gen: GpuGeneration) -> &'static str {
    match gen {
        GpuGeneration::V100_32G => "8x V100 32GB",
        GpuGeneration::A100_80G => "4x A100 80GB",
    }
}

/// Table 5: transparent transient-error recovery times.
pub fn table5() -> Table {
    let mut rows = Vec::new();
    for gen in [GpuGeneration::V100_32G, GpuGeneration::A100_80G] {
        rows.push(divider(testbed(gen), 4));
        let gen_rows = match gen {
            GpuGeneration::V100_32G => transparent_rows(gen),
            GpuGeneration::A100_80G => transparent_rows(gen)
                .into_iter()
                .filter(|(n, _, _)| *n != "Pyramidnet")
                .collect(),
        };
        for (label, w, extras) in gen_rows {
            let out = transparent_recovery_run(
                &w,
                extras,
                FailureKind::TransientNetwork,
                Phase::AllReduce,
            );
            let recovery = out
                .reports
                .iter()
                .map(|r| r.total.as_secs())
                .fold(0.0f64, f64::max);
            let (mb, log_oh) = measure_minibatch(&w, gen, 3);
            rows.push(vec![label.to_string(), f2(recovery), f3(mb), f3(log_oh)]);
        }
    }
    Table {
        title: "Table 5: Transparent transient-error recovery (seconds, virtual)".into(),
        header: vec![
            "Model".into(),
            "Recovery Time".into(),
            "Minibatch Time".into(),
            "Overhead Time".into(),
        ],
        rows,
    }
}

/// Table 6: transparent hard-error recovery (healthy vs failed GPU).
pub fn table6() -> Table {
    let mut rows = Vec::new();
    for gen in [GpuGeneration::V100_32G, GpuGeneration::A100_80G] {
        rows.push(divider(testbed(gen), 4));
        let gen_rows = transparent_rows(gen);
        for (label, w, extras) in gen_rows {
            if label == "GPT2-S-3D" && gen == GpuGeneration::A100_80G {
                continue;
            }
            let out =
                transparent_recovery_run(&w, extras, FailureKind::GpuHardware, Phase::Forward);
            let victim = out
                .reports
                .iter()
                .find(|r| r.rank == RankId(0))
                .map(|r| r.total.as_secs())
                .unwrap_or(0.0);
            let healthy = {
                let v: Vec<f64> = out
                    .reports
                    .iter()
                    .filter(|r| r.rank != RankId(0))
                    .map(|r| r.total.as_secs())
                    .collect();
                v.iter().sum::<f64>() / v.len().max(1) as f64
            };
            let (mb, _) = measure_minibatch(&w, gen, 3);
            rows.push(vec![label.to_string(), f2(healthy), f2(victim), f3(mb)]);
        }
    }
    Table {
        title: "Table 6: Transparent hard-error recovery (seconds, virtual)".into(),
        header: vec![
            "Model".into(),
            "Healthy GPU".into(),
            "Failed GPU".into(),
            "Minibatch Time".into(),
        ],
        rows,
    }
}

/// Table 7: per-step breakdown of transparent transient recovery on one
/// rank worker, 8× V100: the rank the fault hit. It is the one rank that
/// resets and replays, its log cut at the fault in program order; every
/// other rank keeps its minibatch and retries.
pub fn table7() -> Table {
    let steps = [
        ("Delete communicators and GPU handles", Action::Teardown),
        ("Recreate NCCL communicators", Action::Rendezvous),
        ("Reset GPU buffers", Action::ResetInPlace { charged: true }),
        ("Recreate GPU handles", Action::RecreateHandles),
        ("Replay minibatch APIs", Action::Replay),
    ];
    let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
    for (label, w, extras) in transparent_rows(GpuGeneration::V100_32G) {
        let out =
            transparent_recovery_run(&w, extras, FailureKind::TransientNetwork, Phase::AllReduce);
        let report = out
            .reports
            .iter()
            .find(|r| r.was_victim)
            .expect("the victim reported");
        let times = steps
            .iter()
            .map(|(_, action)| {
                let step = report.steps.iter().find(|(a, _)| a == action);
                step.map_or(0.0, |(_, t)| t.as_secs())
            })
            .collect();
        columns.push((label.to_string(), times));
    }
    let mut rows = Vec::new();
    for (i, (label, _)) in steps.iter().enumerate() {
        let mut row = vec![label.to_string()];
        for (_, times) in &columns {
            row.push(format!("{:.4}", times[i]));
        }
        rows.push(row);
    }
    let mut header = vec!["Step".to_string()];
    header.extend(columns.iter().map(|(l, _)| l.clone()));
    Table {
        title: "Table 7: Transparent transient recovery step breakdown (seconds, virtual, 8x V100)"
            .into(),
        header,
        rows,
    }
}

/// Table 8: wasted-GPU-time scaling for periodic vs JIT checkpointing.
pub fn table8() -> Table {
    let f_day = 2.0 / 992.0;
    let ns = [4usize, 1024, 8192];
    let mut rows = Vec::new();
    rows.push(divider("Periodic Checkpointing", 7));
    let workload_numbers: Vec<(&str, UserLevelNumbers)> =
        ["BERT-L-PT", "BERT-B-FT", "GPT2-S", "GPT2-8B"]
            .iter()
            .map(|name| {
                let w = by_name(name).expect("catalog");
                (*name, measure_user_level(&w))
            })
            .collect();
    for (name, n) in &workload_numbers {
        let mut row = vec![name.to_string()];
        for &gpus in &ns {
            let p = JobParams::new(n.checkpoint, f_day, n.restore, gpus, n.minibatch);
            let c = optimal_frequency(&p) * 3600.0;
            let wf = wasted_fraction(wasted_rate_periodic_optimal(&p));
            row.push(format!("{c:.2}/hr"));
            row.push(pct(wf));
        }
        rows.push(row);
    }
    rows.push(divider("User-level JIT", 7));
    for (name, n) in &workload_numbers {
        let mut row = vec![name.to_string()];
        for &gpus in &ns {
            let p = JobParams::new(n.checkpoint, f_day, n.restore, gpus, n.minibatch);
            let wf = wasted_fraction(wasted_rate_jit_user(&p, 0.0));
            row.push("-".into());
            row.push(pct(wf));
        }
        rows.push(row);
    }
    rows.push(divider("Transparent JIT (transient)", 7));
    for name in ["BERT-B-FT", "GPT2-S"] {
        let w = by_name(name).expect("catalog");
        let (mb, log_oh) = measure_minibatch(&w, GpuGeneration::V100_32G, 3);
        let steady = log_oh / mb;
        let mut row = vec![name.to_string()];
        for &gpus in &ns {
            let p = JobParams::new(0.0, f_day, 0.0, gpus, mb);
            let wf = wasted_fraction(wasted_rate_jit_transparent(&p, steady));
            row.push("-".into());
            row.push(pct(wf));
        }
        rows.push(row);
    }
    Table {
        title: "Table 8: Wasted GPU time scaling (c* and w_f at N = 4 / 1024 / 8192)".into(),
        header: vec![
            "Model".into(),
            "c* (N=4)".into(),
            "w_f (N=4)".into(),
            "c* (N=1024)".into(),
            "w_f (N=1024)".into(),
            "c* (N=8192)".into(),
            "w_f (N=8192)".into(),
        ],
        rows,
    }
}

/// The §6.5 scaling "figure": full N sweep of c* and wasted fractions for
/// BERT-L-PT (eq. 9–10), as a plottable series.
pub fn scaling_figure() -> Table {
    let w = by_name("BERT-L-PT").expect("catalog");
    let n = measure_user_level(&w);
    let base = JobParams::new(n.checkpoint, 2.0 / 992.0, n.restore, 4, n.minibatch);
    let ns = [4usize, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];
    let pts = analysis::scaling_curve(&base, &ns, 0.0, 0.0001);
    let rows = pts
        .into_iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                format!("{:.3}", p.c_star_per_hour),
                pct(p.wf_periodic),
                pct(p.wf_jit_user),
                pct(p.wf_jit_transparent),
            ]
        })
        .collect();
    Table {
        title: "Figure (§6.5): scaling of c* and wasted fractions with N (BERT-L-PT, eq. 9-10)"
            .into(),
        header: vec![
            "N".into(),
            "c*/hr".into(),
            "w_f periodic".into(),
            "w_f JIT user".into(),
            "w_f JIT transparent".into(),
        ],
        rows,
    }
}

/// §5.1 dollar-cost estimates.
pub fn dollar_table() -> Table {
    let rows = vec![
        (1_000usize, 1.0),
        (2_000, 2.0),
        (4_000, 4.0),
        (10_000, 10.0),
    ]
    .into_iter()
    .map(|(n, f_day)| {
        let cost = monthly_failure_cost_dollars(n, f_day, 0.25, 4.0);
        vec![
            n.to_string(),
            format!("{f_day}"),
            format!("${cost:.0}/month"),
        ]
    })
    .collect();
    Table {
        title: "§5.1: Dollar cost of failures under periodic checkpointing (30 min interval, $4/GPU-hr)".into(),
        header: vec!["GPUs".into(), "Failures/day".into(), "Monthly cost".into()],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders every section the way the `tables` bin prints it and
    /// compares with the committed file, so a change that moves a
    /// reproduced number has to regenerate the file in the same commit.
    #[test]
    fn tables_output_matches_committed_file() {
        let committed = include_str!("../../../tables_output.txt");
        let rendered: String = SECTIONS
            .iter()
            .map(|(_, section)| section().render() + "\n")
            .collect();
        let (mut ours, mut theirs) = (rendered.lines(), committed.lines());
        for line in 1.. {
            match (ours.next(), theirs.next()) {
                (None, None) => break,
                (a, b) if a == b => {}
                (a, b) => panic!(
                    "tables_output.txt differs at line {line}:\n  committed: {b:?}\n  rendered:  {a:?}\n\
                     regenerate with: cargo run --release -p bench --bin tables > tables_output.txt"
                ),
            }
        }
        assert_eq!(rendered, committed, "same lines, different line endings");
    }

    #[test]
    fn table3_shape_holds() {
        // PC_disk > PC_mem > CheckFreq >> PC_1/day and JIT ~ 0, overheads
        // grow with model size.
        let t = table3();
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        for row in &t.rows {
            let disk = parse(&row[1]);
            let mem = parse(&row[2]);
            let cf = parse(&row[3]);
            let jit = parse(&row[5]);
            assert!(disk >= mem, "{row:?}");
            assert!(mem >= cf, "{row:?}");
            assert!(jit < disk, "JIT beats blocking checkpointing: {row:?}");
            // For the larger models (where the simulated minibatch is not
            // dwarfed by the fixed logging residual) JIT undercuts even
            // CheckFreq, as in the paper.
            if disk > 0.08 {
                assert!(jit < cf, "JIT must be cheapest at scale: {row:?}");
            }
        }
        // GPT2-18B overhead > GPT2-S overhead.
        let small = parse(&t.rows[0][1]);
        let big = parse(&t.rows[3][1]);
        assert!(big > small, "overhead grows with model size");
    }

    #[test]
    fn scaling_figure_shows_jit_advantage() {
        let t = scaling_figure();
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let last = t.rows.last().unwrap();
        let periodic = parse(&last[2]);
        let user = parse(&last[3]);
        let transparent = parse(&last[4]);
        assert!(user < periodic, "user JIT beats periodic at N=8192");
        assert!(transparent < periodic);
        // Periodic wf is monotone in N.
        let first = parse(&t.rows[0][2]);
        assert!(periodic > first);
    }
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5): sweeps over the design parameters.
// ---------------------------------------------------------------------

/// Ablation — asynchronous replay logging: steady-state overhead as a
/// function of the fraction of per-call logging cost NOT hidden by the
/// device proxy's async execution (§4.1 claims "nearly zero"; 1.0 models
/// a fully synchronous logger).
pub fn ablation_logging() -> Table {
    let w = by_name("GPT2-S").expect("catalog");
    let mut rows = Vec::new();
    for residual in [0.0f64, 0.05, 0.25, 1.0] {
        let mut cost = CostModel::for_gpu(w.gpu);
        cost.log_async_residual = residual;
        let (mb, overhead) = minibatch_under(&w, cost, 3);
        rows.push(vec![
            format!("{residual:.2}"),
            f3(mb),
            format!("{:.5}", overhead),
            format!("{:.3}%", 100.0 * overhead / mb),
        ]);
    }
    Table {
        title: "Ablation: replay-logging async residual vs steady-state overhead (GPT2-S)".into(),
        header: vec![
            "Residual".into(),
            "Minibatch (s)".into(),
            "Log overhead (s)".into(),
            "Overhead %".into(),
        ],
        rows,
    }
}

/// Ablation — recovery strategy per failure class: per-rank recovery
/// time of the victim under each §4.2/§4.3 path on the same workload
/// (driver corruption's host round-trip vs sticky's replica copy vs hard
/// migration vs pure transient reset).
pub fn ablation_recovery_paths() -> Table {
    let mut w = by_name("GPT2-S").expect("catalog");
    w.layout = ParallelLayout::data_parallel(4);
    w.gpu = GpuGeneration::V100_32G;
    let cases = [
        (
            "transient (reset in place)",
            FailureKind::TransientNetwork,
            Phase::AllReduce,
        ),
        (
            "driver corruption (host round-trip)",
            FailureKind::DriverCorruption,
            Phase::Backward,
        ),
        (
            "sticky (replica copy)",
            FailureKind::StickyCuda,
            Phase::Backward,
        ),
        (
            "optimizer-step (roll forward)",
            FailureKind::StickyCuda,
            Phase::OptimizerStep,
        ),
        (
            "hard (migrate + CRIU)",
            FailureKind::GpuHardware,
            Phase::Backward,
        ),
    ];
    let mut rows = Vec::new();
    for (label, kind, phase) in cases {
        let out = transparent_recovery_run(&w, 0, kind, phase);
        let victim = out
            .reports
            .iter()
            .find(|r| r.was_victim)
            .or_else(|| out.reports.first())
            .expect("victim report");
        rows.push(vec![
            label.to_string(),
            format!("{:?}", victim.mode),
            f2(victim.total.as_secs()),
        ]);
    }
    Table {
        title: "Ablation: recovery path vs victim recovery time (GPT2-S, 4x V100 DP)".into(),
        header: vec![
            "Failure class".into(),
            "Mode".into(),
            "Victim recovery (s)".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn logging_overhead_scales_with_residual() {
        let t = ablation_logging();
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let zero = parse(&t.rows[0][3]);
        let full = parse(&t.rows[3][3]);
        assert_eq!(zero, 0.0);
        assert!(full > parse(&t.rows[1][3]));
    }
}
