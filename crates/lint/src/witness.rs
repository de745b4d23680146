//! `--witness` mode: check the lock classes a test run acquired.
//!
//! The `lock_witness` feature of `simcore::sync` records what a test run
//! *actually did* to the file named by `JIT_LOCK_WITNESS`: every
//! lock-order edge between lock classes (a class is the line that built
//! the lock), and every condvar notify with its held/unheld state. Each
//! test process appends its own records, so the file is the union of
//! every process's edges. This module reports:
//!
//! * **cycles** in that union — an order seen in one test and its
//!   reverse in another is a finding though no test deadlocked; each
//!   names its classes and the acquisition sites that witnessed each
//!   edge;
//! * **same-class nesting** — a lock acquired while a lock of its own
//!   class is held (two communicators' `state`), unless the inner
//!   acquisition carries `// jitlint::allow(lock_order): <reason>`, the
//!   analogue of lockdep's nesting annotation;
//! * **classes built outside the workspace** — a lock built by library
//!   code (`.map(Mutex::new)`, a derived array `Default`) shares its class
//!   with every other lock that code builds;
//! * **unheld notifies** at library sites (the lost-wakeup shape,
//!   dynamically confirmed).
//!
//! Record grammar, one per line (see `crates/simcore/src/sync.rs`):
//!
//! ```text
//! edge <held class> <class> <held site> <site>
//! notify <site> held|unheld
//! ```
//!
//! A trace with no `edge` record is refused: a gate that read nothing
//! proves nothing.

use crate::report::Finding;
use crate::rules::lock_order;
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Rule name carried by witness findings.
pub(crate) const RULE: &str = "lock_witness";

/// Outcome of the check.
#[derive(Debug, Default)]
pub struct WitnessReport {
    /// Cycles, unannotated same-class nesting, classes built outside the
    /// workspace, unheld notifies at library sites.
    pub findings: Vec<Finding>,
    /// Allowed same-class nesting and unreadable records, one line each.
    pub info: Vec<String>,
    /// Distinct lock classes in the edge records.
    pub classes: usize,
    /// Distinct edges between two different classes.
    pub class_edges: usize,
    /// Cycles among those edges.
    pub cycles: usize,
}

/// One class edge and the `(held site, site)` pairs that witnessed it.
#[derive(Debug, Clone, Default)]
struct ClassEdge {
    from: String,
    to: String,
    sites: BTreeSet<(String, String)>,
}

/// Checks `trace` (the contents of a `JIT_LOCK_WITNESS` file) against
/// the workspace `files`. Errs when the trace holds no `edge` record.
pub fn check_witness(files: &[SourceFile], trace: &str) -> Result<WitnessReport, String> {
    let mut report = WitnessReport::default();
    let mut edges: BTreeMap<(String, String), ClassEdge> = BTreeMap::new();
    let mut classes: BTreeSet<&str> = BTreeSet::new();
    let mut read_edge = false;
    for (lineno, raw) in trace.lines().enumerate() {
        match raw.split_whitespace().collect::<Vec<_>>()[..] {
            ["edge", held, class, held_site, site] => {
                read_edge = true;
                for (class, site) in [(held, held_site), (class, site)] {
                    let inside = parse_site(class)
                        .is_some_and(|(path, _)| workspace_file(files, &path).is_some());
                    if classes.insert(class) && !inside {
                        report.findings.push(finding_at(
                            site,
                            format!(
                                "the lock acquired here has class `{class}`, a line \
                                 outside the workspace that every lock built there \
                                 shares; build it on its own line (a closure, or a \
                                 hand-written `Default`)"
                            ),
                        ));
                    }
                }
                if held == class {
                    check_nesting(files, class, held_site, site, &mut report);
                    continue;
                }
                let edge = edges.entry((held.into(), class.into())).or_default();
                (edge.from, edge.to) = (held.into(), class.into());
                edge.sites.insert((held_site.into(), site.into()));
            }
            ["notify", site, "unheld"] => check_unheld_notify(files, site, &mut report),
            ["notify", _, "held"] | [] => {}
            _ => report.info.push(format!(
                "witness:{}: unreadable record `{}`",
                lineno + 1,
                raw.trim()
            )),
        }
    }
    if !read_edge {
        return Err("the trace holds no `edge` record — run the tests with \
                    `--features simcore/lock_witness` and JIT_LOCK_WITNESS set"
            .into());
    }
    report.classes = classes.len();
    report.class_edges = edges.len();
    let cycles = lock_order::find_cycles(&edges);
    report.cycles = cycles.len();
    for cycle in cycles {
        let parts: Vec<String> = cycle
            .iter()
            .map(|e| {
                let sites: Vec<String> = e
                    .sites
                    .iter()
                    .map(|(a, b)| format!("{a} then {b}"))
                    .collect();
                format!("`{}` then `{}` ({})", e.from, e.to, sites.join(", "))
            })
            .collect();
        let names: Vec<String> = cycle.iter().map(|e| format!("`{}`", e.from)).collect();
        let first = cycle[0]
            .sites
            .iter()
            .next()
            .map_or("", |(_, site)| site.as_str());
        report.findings.push(finding_at(
            first,
            format!(
                "lock-order cycle among the classes the tests acquired {{{}}} — \
                 potential watchdog/trainer deadlock: {}",
                names.join(", "),
                parts.join("; ")
            ),
        ));
    }
    // Each test process appends its own deduplicated records, so the
    // merged trace repeats lines.
    report.findings.sort();
    report.findings.dedup();
    report.info.sort();
    report.info.dedup();
    Ok(report)
}

fn workspace_file<'a>(files: &'a [SourceFile], path: &Path) -> Option<&'a SourceFile> {
    files.iter().find(|f| f.rel_path == path)
}

/// A finding at `site` (`path:line`).
fn finding_at(site: &str, message: String) -> Finding {
    let (file, line) = parse_site(site).unwrap_or_else(|| (PathBuf::from(site), 0));
    Finding {
        rule: RULE.into(),
        file,
        line,
        message,
    }
}

/// A lock acquired at `site` while a lock of its own class is held: two
/// instances the class graph cannot order. Allowed only with a reason at
/// the inner acquisition.
fn check_nesting(
    files: &[SourceFile],
    class: &str,
    held_site: &str,
    site: &str,
    report: &mut WitnessReport,
) {
    let allowed = parse_site(site).is_some_and(|(path, line)| {
        workspace_file(files, &path).is_some_and(|f| f.allowed(lock_order::RULE, line).is_some())
    });
    if allowed {
        report
            .info
            .push(format!("allowed same-class nesting of `{class}` at {site}"));
        return;
    }
    report.findings.push(finding_at(
        site,
        format!(
            "lock of class `{class}` acquired here while another lock of the \
             same class, acquired at {held_site}, is held — two instances in \
             no checked order; state the order with \
             `// jitlint::allow(lock_order): <reason>` on this line"
        ),
    ));
}

/// A `notify … unheld` record at a library (non-test) site is the
/// lost-wakeup shape observed live; fail unless the site carries a
/// `notify_under_lock` allow.
fn check_unheld_notify(files: &[SourceFile], site: &str, report: &mut WitnessReport) {
    let Some((path, line)) = parse_site(site) else {
        report
            .info
            .push(format!("unparseable notify site `{site}`"));
        return;
    };
    let Some(file) = workspace_file(files, &path) else {
        report
            .info
            .push(format!("notify site {site} is outside the workspace"));
        return;
    };
    if file.kind != FileKind::Lib || file.is_test_line(line) {
        return;
    }
    if file
        .allowed(crate::rules::concurrency::NOTIFY, line)
        .is_some()
    {
        return;
    }
    report.findings.push(Finding {
        rule: RULE.into(),
        file: path,
        line,
        message: "notify observed at runtime with no mutex held — a waiter \
                  between its predicate check and its park misses this wake \
                  (the lost-wakeup race, dynamically confirmed)"
            .into(),
    });
}

/// Splits `path:line` (the line is after the *last* colon, so Windows
/// drive letters and `::` never confuse it).
fn parse_site(s: &str) -> Option<(PathBuf, usize)> {
    let (path, line) = s.rsplit_once(':')?;
    Some((PathBuf::from(path), line.parse().ok()?))
}

/// Renders the report for terminal use; findings come first, then a
/// summary with the informational lines.
pub fn render_text(report: &WitnessReport) -> String {
    let mut out = crate::report::render_text(&report.findings);
    let _ = writeln!(
        out,
        "witness: {} class(es), {} class edge(s), {} cycle(s), {} note(s)",
        report.classes,
        report.class_edges,
        report.cycles,
        report.info.len()
    );
    for line in &report.info {
        let _ = writeln!(out, "  note: {line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_dir: &str, module: &str, text: &str) -> SourceFile {
        SourceFile::parse(
            PathBuf::from(format!("crates/{crate_dir}/src/{module}.rs")),
            crate_dir.into(),
            module.into(),
            text,
        )
    }

    /// Three lock classes (`a.rs:1..=3`) acquired at `a.rs:11..=13`.
    fn abc() -> Vec<SourceFile> {
        vec![file("core", "a", &"fn f() {}\n".repeat(20))]
    }

    fn edge(held: usize, class: usize) -> String {
        format!(
            "edge crates/core/src/a.rs:{held} crates/core/src/a.rs:{class} \
             crates/core/src/a.rs:{} crates/core/src/a.rs:{}\n",
            held + 10,
            class + 10
        )
    }

    #[test]
    fn a_cycle_split_across_two_processes_fails() {
        // One process orders 1 → 2 → 3, another 3 → 1; the two chunks of
        // the merged trace close the cycle, though neither deadlocked.
        let first = edge(1, 2) + &edge(2, 3) + &edge(1, 3);
        let second = edge(3, 1);
        let r = check_witness(&abc(), &(first + &second)).expect("edges read");
        assert_eq!((r.classes, r.class_edges, r.cycles), (3, 4, 1));
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let msg = &r.findings[0].message;
        assert!(msg.contains("lock-order cycle"), "{msg}");
        assert!(msg.contains("crates/core/src/a.rs:13 then crates/core/src/a.rs:11"));
    }

    #[test]
    fn a_consistent_order_passes() {
        let trace = edge(1, 2) + &edge(2, 3) + &edge(1, 3) + &edge(1, 2);
        let r = check_witness(&abc(), &trace).expect("edges read");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!((r.classes, r.class_edges, r.cycles), (3, 3, 0));
    }

    #[test]
    fn same_class_nesting_fails_without_the_allow_and_passes_with_it() {
        let trace = "edge crates/core/src/a.rs:1 crates/core/src/a.rs:1 \
                     crates/core/src/a.rs:3 crates/core/src/a.rs:4\n";
        let bare = file("core", "a", "fn f() {}\n".repeat(5).as_str());
        let r = check_witness(&[bare], trace).expect("edges read");
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 4);
        assert!(r.findings[0].message.contains("same class"));

        let annotated = file(
            "core",
            "a",
            "struct S;\nfn f() {\n    let old = a.state.lock();\n    \
             // jitlint::allow(lock_order): the predecessor's state, then ours\n    \
             let new = b.state.lock();\n}\n",
        );
        let trace = trace.replace("a.rs:4\n", "a.rs:5\n");
        let r = check_witness(&[annotated], &trace).expect("edges read");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.info.len(), 1, "{:?}", r.info);
    }

    #[test]
    fn a_class_outside_the_workspace_fails() {
        let trace = "edge crates/core/src/a.rs:1 \
                     /rustc/abc/library/core/src/ops/function.rs:250 \
                     crates/core/src/a.rs:11 crates/core/src/a.rs:12\n";
        let r = check_witness(&abc(), trace).expect("edges read");
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 12);
        assert!(r.findings[0].message.contains("outside the workspace"));
    }

    #[test]
    fn an_empty_trace_is_refused() {
        assert!(check_witness(&abc(), "").is_err());
        let notifies_only = "notify crates/core/src/a.rs:2 held\n";
        assert!(check_witness(&abc(), notifies_only).is_err());
    }

    #[test]
    fn unheld_notify_in_lib_fails_held_passes() {
        let f1 = file("core", "a", "fn f(&self) {\n    self.cv.notify_all();\n}\n");
        let files = [f1];
        let pair = edge(1, 2);
        let bad = check_witness(
            &files,
            &format!("{pair}notify crates/core/src/a.rs:2 unheld\n"),
        )
        .expect("edges read");
        assert_eq!(bad.findings.len(), 1);
        let ok = check_witness(
            &files,
            &format!("{pair}notify crates/core/src/a.rs:2 held\n"),
        )
        .expect("edges read");
        assert!(ok.findings.is_empty());
    }
}
