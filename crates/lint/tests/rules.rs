//! Fixture-driven rule tests: each fixture directory under
//! `tests/fixtures/<case>/` is a miniature workspace root; every rule
//! family has at least one seeded violation (positive) and one
//! construct it must NOT flag (negative).

use lint::report::Finding;
use std::path::PathBuf;

fn fixture(case: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(case);
    lint::analyze(&root).expect("fixture root should parse")
}

fn rule_lines(findings: &[Finding], rule: &str, file_ends_with: &str) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.file.to_string_lossy().ends_with(file_ends_with))
        .map(|f| f.line)
        .collect()
}

#[test]
fn panic_path_catches_seeded_violations() {
    let findings = fixture("panic_path");
    let lines = rule_lines(&findings, "panic_path", "checkpoint.rs");
    // unwrap, expect, panic!, todo!, unsafe, and the test-module unwrap.
    assert_eq!(lines, vec![4, 8, 12, 16, 20, 36], "found: {findings:#?}");
    // Allowed site, string literal, and out-of-scope module stay silent.
    assert!(rule_lines(&findings, "panic_path", "util.rs").is_empty());
    assert_eq!(findings.len(), 6, "no other rules fire: {findings:#?}");
}

#[test]
fn lock_order_reports_cross_function_cycle_of_length_three() {
    let findings = fixture("lock_order");
    let cycles: Vec<&Finding> = findings.iter().filter(|f| f.rule == "lock_order").collect();
    assert_eq!(cycles.len(), 1, "exactly one cycle: {findings:#?}");
    let msg = &cycles[0].message;
    for node in ["proxy::gpu", "proxy::oplog", "proxy::barrier"] {
        assert!(msg.contains(node), "cycle names `{node}`: {msg}");
    }
    // Each witness names its function and location.
    assert!(msg.contains("Server::submit"), "{msg}");
    assert!(msg.contains("Watchdog::fire"), "{msg}");
}

#[test]
fn lock_order_is_silent_on_consistent_order() {
    let findings = fixture("lock_order_clean");
    assert!(findings.is_empty(), "no cycle expected: {findings:#?}");
}

#[test]
fn a_guard_dropped_before_the_next_acquisition_orders_nothing() {
    // `cluster` as a statement temporary, then `jobs`; elsewhere `jobs`
    // held while `cluster` is taken. The first pair never nests.
    let findings = fixture("lock_order_unnested");
    assert!(findings.is_empty(), "no cycle expected: {findings:#?}");
}

#[test]
fn a_pair_nested_both_ways_is_a_cycle() {
    let findings = fixture("lock_order_nested");
    let cycles: Vec<&Finding> = findings.iter().filter(|f| f.rule == "lock_order").collect();
    assert_eq!(cycles.len(), 1, "exactly one cycle: {findings:#?}");
    let msg = &cycles[0].message;
    for node in [
        "cluster::cluster",
        "cluster::jobs",
        "Scheduler::submit",
        "Scheduler::reschedule",
    ] {
        assert!(msg.contains(node), "cycle names `{node}`: {msg}");
    }
}

#[test]
fn virtual_time_catches_sleeps_outside_sim_clock() {
    let findings = fixture("virtual_time");
    let lines = rule_lines(&findings, "virtual_time", "transparent.rs");
    // Qualified and bare (imported) sleeps; allowed + test sleeps silent.
    assert_eq!(lines, vec![7, 11], "found: {findings:#?}");
    assert!(
        rule_lines(&findings, "virtual_time", "time.rs").is_empty(),
        "sim clock is allowlisted: {findings:#?}"
    );
    assert_eq!(findings.len(), 2);
}

#[test]
fn lib_print_catches_every_print_macro_in_library_code() {
    let findings = fixture("lib_print");
    let lines = rule_lines(&findings, "lib_print", "restore.rs");
    // println!, eprintln!, print!, eprint!, dbg!, std::println!.
    assert_eq!(lines, vec![4, 5, 6, 7, 8, 9], "found: {findings:#?}");
    assert!(
        findings[0].message.contains("println!"),
        "{}",
        findings[0].message
    );
    assert_eq!(findings.len(), 6, "no other rules fire: {findings:#?}");
}

#[test]
fn lib_print_is_silent_on_bins_tests_examples_and_text() {
    // Bins (`src/main.rs`, `src/bin/`), `#[cfg(test)]` modules,
    // integration tests, examples, comments, string literals, `writeln!`
    // into a `String`, a `printer` identifier and a justified allow.
    let findings = fixture("lib_print_clean");
    assert!(findings.is_empty(), "nothing may fire: {findings:#?}");
}

#[test]
fn schema_requires_version_markers_on_persisted_types() {
    let findings = fixture("schema");
    let lines = rule_lines(&findings, "checkpoint_schema", "oplog.rs");
    assert_eq!(lines.len(), 2, "found: {findings:#?}");
    // `MissingVersion` (line 4) and the final unversioned struct.
    assert!(findings
        .iter()
        .any(|f| f.line == 4 && f.message.contains("MissingVersion")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("NotPersistedModule")));
    // Versioned, multi-line-derive-versioned, allowed, and
    // non-persistence-module types stay silent.
    assert!(rule_lines(&findings, "checkpoint_schema", "frames.rs").is_empty());
}

#[test]
fn allow_syntax_flags_malformed_directives() {
    let findings = fixture("allow_syntax");
    let lines = rule_lines(&findings, "allow_syntax", "checkpoint.rs");
    assert_eq!(lines, vec![4, 9], "found: {findings:#?}");
    // Malformed allows do not suppress — the unwraps are still findings.
    let panics = rule_lines(&findings, "panic_path", "checkpoint.rs");
    assert_eq!(panics, vec![5, 10]);
}

#[test]
fn condvar_wait_loop_requires_predicate_loops() {
    let findings = fixture("condvar_wait_loop");
    let lines = rule_lines(&findings, "condvar_wait_loop", "comm.rs");
    // The bare `if`-guarded wait; looped, wait_while, and allowed waits
    // stay silent.
    assert_eq!(lines, vec![15], "found: {findings:#?}");
    assert_eq!(findings.len(), 1, "no other rules fire: {findings:#?}");
}

#[test]
fn notify_under_lock_catches_the_pr5_abort_shape() {
    let findings = fixture("notify_under_lock");
    let lines = rule_lines(&findings, "notify_under_lock", "comm.rs");
    // The notify after the guard's narrow block closes — the exact
    // lost-wakeup bug PR 5 fixed in `Communicator::abort()`. The
    // lock-held fix and the justified suppression stay silent.
    assert_eq!(lines, vec![20], "found: {findings:#?}");
    assert_eq!(findings.len(), 1, "no other rules fire: {findings:#?}");
}

#[test]
fn blocking_under_lock_flags_second_guard_and_join() {
    let findings = fixture("blocking_under_lock");
    let lines = rule_lines(&findings, "blocking_under_lock", "watchdog.rs");
    // A wait parking with a second guard held, and a join under a lock;
    // the narrowed and single-guard variants stay silent.
    assert_eq!(lines, vec![18, 26], "found: {findings:#?}");
    assert_eq!(findings.len(), 2, "no other rules fire: {findings:#?}");
}

#[test]
fn guard_across_call_flags_cross_module_holds() {
    let findings = fixture("guard_across_call");
    let across = rule_lines(&findings, "guard_across_call", "server.rs");
    // The long hold across `persist_batch` (another crate, takes the
    // store lock); the clone-drop-call variant and the justified
    // suppression stay silent.
    assert_eq!(across, vec![14], "found: {findings:#?}");
    let f = findings
        .iter()
        .find(|f| f.rule == "guard_across_call")
        .unwrap();
    assert!(f.message.contains("`cluster::s`"), "{}", f.message);
    assert_eq!(findings.len(), 1, "no other rules fire: {findings:#?}");
}

#[test]
fn a_method_call_never_resolves_to_a_free_function() {
    // `client.rank()` under a guard, and a free locking `fn rank` in a
    // test file: the free function is no candidate for a method call.
    let findings = fixture("method_resolution");
    assert!(findings.is_empty(), "found: {findings:#?}");
}

#[test]
fn a_self_qualified_call_resolves_to_the_callers_impl() {
    // `Self::helper(self)` under a guard on `x`, the helper taking `y`,
    // and a free function taking `y` then `x`: one cycle.
    let findings = fixture("self_qualified");
    let cycles: Vec<&Finding> = findings.iter().filter(|f| f.rule == "lock_order").collect();
    assert_eq!(cycles.len(), 1, "exactly one cycle: {findings:#?}");
    let msg = &cycles[0].message;
    for node in ["proxy::x", "proxy::y", "Server::outer"] {
        assert!(msg.contains(node), "cycle names `{node}`: {msg}");
    }
}

#[test]
fn unused_allow_flags_stale_suppressions() {
    let findings = fixture("unused_allow");
    let lines = rule_lines(&findings, "unused_allow", "checkpoint.rs");
    // The directive with nothing left to suppress; the one covering a
    // live unwrap stays silent (and keeps suppressing it).
    assert_eq!(lines, vec![7], "found: {findings:#?}");
    assert_eq!(findings.len(), 1, "no other rules fire: {findings:#?}");
}

#[test]
fn fix_allow_inserts_directives_that_suppress() {
    // Copy a fixture into a temp root, run --fix-allow semantics via the
    // library, and verify a re-run is clean (modulo the TODO reasons).
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/virtual_time");
    let dst = std::env::temp_dir().join(format!("jitlint-fix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    copy_tree(&src, &dst).expect("copy fixture");

    let before = lint::analyze(&dst).expect("analyze");
    assert!(!before.is_empty());
    let inserted = lint::apply_fix_allow(&dst, &before).expect("fix");
    assert_eq!(inserted, before.len());
    let after = lint::analyze(&dst).expect("re-analyze");
    assert!(after.is_empty(), "fix-allow should suppress: {after:#?}");

    let _ = std::fs::remove_dir_all(&dst);
}

fn copy_tree(src: &std::path::Path, dst: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}
