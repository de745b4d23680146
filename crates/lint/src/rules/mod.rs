//! The `jitlint` rule families.
//!
//! Each rule maps a paper invariant to a machine check (section numbers
//! refer to *Just-In-Time Checkpointing*, EuroSys '24):
//!
//! | rule | invariant | paper |
//! |---|---|---|
//! | `panic_path` | the recovery path never panics | §3.1 watchdog, §4 proxy |
//! | `lock_order` | workspace lock acquisition is cycle-free (within a function, and one call hop) | §3.1 hang detection |
//! | `guard_across_call` | no guard held across calls into other locking modules | §3.1 hang detection |
//! | `virtual_time` | simulation code never blocks on wall-clock sleeps | §6 methodology |
//! | `checkpoint_schema` | persisted state declares a schema version | §3.2 metadata, §4.1 replay logs |
//! | `condvar_wait_loop` | every condvar wait re-checks its predicate in a loop | §3.1 rendezvous |
//! | `notify_under_lock` | every notify holds the predicate's mutex (PR-5 bug class) | §3.1 rendezvous |
//! | `blocking_under_lock` | nothing blocks while holding an unrelated mutex | §3.1 hang detection |
//! | `lib_print` | library code reports through records, never stdout/stderr | §6 measurements |
//!
//! Plus two meta checks: `allow_syntax` (malformed suppressions) and
//! `unused_allow` (suppressions whose rule no longer fires). The lock
//! order of what the tests ran is checked apart from these, on a lock
//! witness trace (`crate::witness`).

pub mod body;
pub mod concurrency;
pub mod lib_print;
pub mod lock_order;
pub mod panic_path;
pub mod schema;
pub mod virtual_time;

use crate::report::Finding;
use crate::source::SourceFile;

/// Scans every file-local rule over `files` and appends findings.
pub(crate) fn run_file_rules(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for file in files {
        panic_path::check(file, findings);
        virtual_time::check(file, findings);
        schema::check(file, findings);
        lib_print::check(file, findings);
        for (line, msg) in &file.malformed_allows {
            findings.push(Finding {
                rule: "allow_syntax".into(),
                file: file.rel_path.clone(),
                line: *line,
                message: msg.clone(),
            });
        }
    }
    concurrency::check(files, findings);
}

/// Reports `jitlint::allow` directives that suppressed nothing this run.
/// Must be called after every other rule so `allow_hits` is complete.
/// Keeps the suppression inventory honest: when a refactor removes the
/// violation, the stale directive is flagged instead of silently
/// blessing whatever lands on that line next.
pub(crate) fn check_unused_allows(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for file in files {
        let hits = file.allow_hits.borrow();
        for allow in &file.allows {
            for rule in &allow.rules {
                if hits.contains(&(allow.comment_line, rule.clone())) {
                    continue;
                }
                findings.push(Finding {
                    rule: "unused_allow".into(),
                    file: file.rel_path.clone(),
                    line: allow.comment_line,
                    message: format!(
                        "`jitlint::allow({rule})` suppresses nothing — the \
                         violation is gone; delete the directive (or it will \
                         silently bless the next edit of line {})",
                        allow.target_line
                    ),
                });
            }
        }
    }
}
