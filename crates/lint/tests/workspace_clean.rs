//! Self-enforcement: the workspace this analyzer ships in must itself
//! be clean under all nine rules — `panic_path`, `lock_order`,
//! `virtual_time`, `checkpoint_schema`, `lib_print`, `condvar_wait_loop`,
//! `notify_under_lock`, `blocking_under_lock`, and `guard_across_call`
//! (plus the `allow_syntax`/`unused_allow` meta checks). Every new panic
//! site, lock inversion, wall-clock sleep, unversioned persisted type,
//! library print, bare condvar wait, unlocked notify, blocking call under
//! a lock, or cross-module long hold fails `cargo test` until it is fixed
//! or explicitly justified with a `jitlint::allow` directive. Reverting
//! the lost-wakeup fix in `Communicator::abort()`, for instance,
//! fails this test via `notify_under_lock`. This is tier-1's jitlint
//! gate: the root `cargo test` tests every crate.

use std::path::PathBuf;

#[test]
fn workspace_has_no_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let findings = lint::analyze(&root).expect("workspace parses");
    assert!(
        findings.is_empty(),
        "jitlint found {} violation(s) — fix them or add `// jitlint::allow(<rule>): <reason>`:\n{}",
        findings.len(),
        lint::report::render_text(&findings)
    );
}
