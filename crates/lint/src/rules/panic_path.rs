//! `panic_path` — recovery-critical modules must not contain reachable
//! panic sites.
//!
//! The premise of JIT checkpointing (§3–§4) is that the *recovery path
//! itself never fails*: when a rank dies at the all-reduce barrier, the
//! watchdog → checkpoint-writer → replay-log pipeline is the only thing
//! standing between "one lost minibatch" and "whole-job restart from an
//! hours-old checkpoint". A stray `unwrap()` in that pipeline converts a
//! recoverable fault into exactly the failure class the paper exists to
//! remove. This rule bans `unwrap()` / `expect()` / `panic!` / `todo!` /
//! `unimplemented!` / `unsafe` in the modules that implement the paper's
//! recovery machinery — *including their test modules*, because recovery
//! tests are rehearsals of the failure path and should surface errors as
//! `Result`s, not aborts.
//!
//! Genuinely-infallible sites are suppressed with an explicit
//! `// jitlint::allow(panic_path): <why it cannot fail>`.

use crate::report::Finding;
use crate::source::{find_word, FileKind, SourceFile};

/// Rule name used in findings and allow directives.
pub(crate) const RULE: &str = "panic_path";

/// `(crate_dir, module)` pairs the rule applies to; `"*"` = all modules.
pub(crate) const RECOVERY_CRITICAL: &[(&str, &str)] = &[
    ("core", "checkpoint"),
    ("core", "stream"),
    ("core", "user_level"),
    ("core", "launcher"),
    ("core", "periodic"),
    ("core", "transparent"),
    ("proxy", "*"),
    ("cluster", "store"),
    ("baselines", "periodic"),
];

/// Whether the rule applies to this file. Integration tests and examples
/// are out of scope: a `crates/proxy/tests/*.rs` harness may unwrap
/// freely — only the library's recovery path is held to the no-panic
/// bar. (In-file `#[cfg(test)]` modules of recovery-critical libraries
/// stay covered, as before.)
pub(crate) fn in_scope(file: &SourceFile) -> bool {
    file.kind == FileKind::Lib
        && RECOVERY_CRITICAL
            .iter()
            .any(|(c, m)| *c == file.crate_dir && (*m == "*" || *m == file.module))
}

/// Forbidden constructs: `(needle, must_be_word, description)`.
/// Non-word needles are matched as exact substrings of masked code.
const FORBIDDEN: &[(&str, bool, &str)] = &[
    (".unwrap()", false, "unwrap() can panic"),
    (".expect(", false, "expect() can panic"),
    ("panic!", false, "explicit panic"),
    ("todo!", false, "todo! placeholder"),
    ("unimplemented!", false, "unimplemented! placeholder"),
    ("unsafe", true, "unsafe code is banned on the recovery path"),
];

/// Scans one file.
pub(crate) fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !in_scope(file) {
        return;
    }
    for (idx, masked) in file.masked.iter().enumerate() {
        let line = idx + 1;
        for (needle, word, what) in FORBIDDEN {
            let hit = if *word {
                find_word(masked, needle, 0).is_some()
            } else {
                masked.contains(needle)
            };
            if !hit {
                continue;
            }
            if file.allowed(RULE, line).is_some() {
                continue;
            }
            findings.push(Finding {
                rule: RULE.into(),
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "{what} in recovery-critical module `{}::{}` — propagate an error \
                     or justify with `// jitlint::allow({RULE}): <reason>`",
                    file.crate_dir, file.module
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(crate_dir: &str, module: &str) -> SourceFile {
        SourceFile::parse(
            PathBuf::from(format!("crates/{crate_dir}/src/{module}.rs")),
            crate_dir.into(),
            module.into(),
            "",
        )
    }

    #[test]
    fn proxy_wildcard_covers_the_replay_log_hot_path() {
        // The arena-backed oplog and the deferred-call batch are the
        // recovery path's data plane; a panic there is exactly the
        // failure class this rule exists to ban. Guard against the
        // wildcard entry being narrowed without noticing.
        for module in ["oplog", "client", "server", "executor", "watchdog"] {
            assert!(
                in_scope(&file("proxy", module)),
                "proxy::{module} must stay recovery-critical"
            );
        }
        assert!(in_scope(&file("core", "checkpoint")));
        assert!(
            !in_scope(&file("bench", "proxy")),
            "benches are out of scope"
        );
    }
}
