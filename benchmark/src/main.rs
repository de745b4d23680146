//! Incident benchmark: fault → first good minibatch on the live
//! trainer. One workload per process:
//!
//! ```text
//! incident-bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! repeats the workload with spans recorded around every call into a
//! layer, runs that workload's layer probes and reports the per-layer
//! metrics. The last line of standard output is the result as one JSON
//! object. See `README.md` beside the manifest.

mod affinity;
mod gen;
mod heap;
mod probes;
mod report;
mod stepper;
mod trace;
mod workloads;

use report::{Report, END_TO_END, PER_LAYER};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Recorder, LAYERS};
use workloads::{Ctx, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: heap::Counted = heap::Counted;

/// A run still going after this long is reported as failed, not left
/// hanging (the caller's own limit is 180 s).
const DEADLINE: Duration = Duration::from_secs(150);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("incident-bench: {problem}");
    eprintln!(
        "usage: incident-bench --workload <{}> --seed N --seconds S --trace 0|1 [--smoke]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .unwrap_or_else(|| bad()),
                )
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| bad());
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    bad()
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    args
}

/// The checked-out commit, read from `.git` without running anything;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.to_string()
    }
}

fn trace_metrics(rec: &Recorder, report: &mut Report, run_wall_s: f64) {
    let all = rec.self_times(&["setup", "twin", "run", "verify", "probe"]);
    let workload = rec.self_times(&["setup", "twin", "run", "verify"]);
    println!(
        "# -- self time per layer, ms (threads summed): whole traced process | workload alone"
    );
    for layer in LAYERS {
        let total = |spans: &[trace::SelfTime]| -> f64 {
            spans
                .iter()
                .filter(|s| s.layer == *layer)
                .map(|s| s.self_ms)
                .fold(0.0, |a, b| a + b)
        };
        report.set(&format!("trace.self_ms.{layer}"), total(&all));
        println!(
            "#    {layer:<22} {:>12.3} | {:>12.3}",
            total(&all),
            total(&workload)
        );
    }
    println!("# -- self time per span name, ms: calls, total");
    for s in trace::by_name(&all) {
        println!("#    {:<52} {:>6} {:>12.3}", s.0, s.1, s.2);
    }
    report.set("trace.spans", rec.span_count() as f64);
    // One process per mode, so the overhead is measured directly: the
    // cost of recording this run's spans again, over the traced run.
    // `run.sh`, which has both processes' output, also prints the ratio
    // of the two `run_wall_s`.
    report.set(
        "trace_overhead_frac",
        rec.replay_cost_s() / run_wall_s.max(1e-9),
    );
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let core = affinity::confine_to_one_core();
    let heap_mib = if args.smoke {
        workloads::SMOKE_HEAP_MIB
    } else {
        args.workload.heap_mib
    };
    let (allocator_pinned, pretouch_s) = heap::condition(heap_mib);
    let start = Instant::now();
    let rec = Arc::new(Recorder::new(args.trace));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        trace: args.trace,
        rec: rec.clone(),
    };
    println!(
        "# incident-bench workload={} seed={} seconds={} trace={} smoke={}",
        args.workload.name, args.seed, args.seconds, args.trace as u8, args.smoke as u8
    );
    println!(
        "# commit={} available_parallelism={cores} confined_to_core={} allocator_pinned={} heap_pretouched_mib={heap_mib} in {pretouch_s:.3} s",
        commit(),
        core.map_or("none".into(), |c| c.to_string()),
        allocator_pinned as u8
    );

    // The workload runs on its own thread so a hang past the deadline
    // becomes a failed run instead of a stuck process.
    let (tx, rx) = mpsc::channel();
    let workload = args.workload;
    let worker = std::thread::Builder::new()
        .name("workload".into())
        .spawn(move || {
            let mut report = Report::default();
            let outcome = (workload.run)(&ctx, &mut report).and_then(|()| {
                if ctx.trace {
                    (workload.probes)(&ctx, &mut report)
                } else {
                    Ok(())
                }
            });
            if let Err(e) = outcome {
                report.fail_all(stepper::describe(&e));
            }
            // The receiver only goes away when the deadline has passed.
            let _ = tx.send(report);
        })
        .expect("spawn workload thread");
    let mut hung = false;
    let mut report = match rx.recv_timeout(DEADLINE) {
        Ok(report) => {
            let _ = worker.join();
            report
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let mut report = Report::default();
            report.fail_all("the workload thread panicked".into());
            report
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            hung = true;
            let mut report = Report::default();
            report.fail_all(format!(
                "no result after {} s: counted as a failure, not a hang",
                DEADLINE.as_secs()
            ));
            report
        }
    };

    report.set("peak_heap_mib", heap::peak_mib());
    for note in &report.notes {
        println!("# {note}");
    }
    let json = if args.trace {
        let run_wall_s = report.get("run_wall_s");
        println!("# traced run_wall_s {run_wall_s:.6}");
        trace_metrics(&rec, &mut report, run_wall_s);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace_{}.jsonl", args.workload.name));
        match rec.write_to(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
        report.render(PER_LAYER, "layer")
    } else {
        report.render(END_TO_END, "e2e")
    };
    let (attempted, failed) = report.op_counts();
    println!(
        "# ops attempted={attempted} failed={failed} failed_ops_frac={}",
        failed as f64 / attempted as f64
    );
    for f in &report.failures {
        println!("# FAILED: {f}");
    }
    println!("# process wall {:.3} s", start.elapsed().as_secs_f64());
    println!("{json}");
    if hung {
        // Rank threads of the stuck job are still parked.
        std::process::exit(0);
    }
}
