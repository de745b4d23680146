//! `lib_print` — library code does not write to stdout or stderr.
//!
//! A recovery that takes 0.9 s instead of 2 ms has to say why through
//! the program's own records (`RecoveryReport`, the store counters, the
//! benchmark's spans), which a caller can read and a test can assert on.
//! A `println!` in a library crate says it to whoever holds the terminal,
//! interleaves with a bin's machine-readable output (`jitlint --format
//! json`, the benchmark's `METRIC` lines), and costs a locked write on
//! whatever path it sits on. The rule bans `print!`, `println!`,
//! `eprint!`, `eprintln!` and `dbg!` in library code.
//!
//! Scope: `src/` of every crate and of the workspace, except binaries
//! (`src/main.rs`, `src/bin/`) and `#[cfg(test)]` modules. Integration
//! tests and examples are other file kinds and are not scanned.

use crate::report::Finding;
use crate::source::{find_word, FileKind, SourceFile};
use std::path::Component;

/// Rule name used in findings and allow directives.
pub(crate) const RULE: &str = "lib_print";

/// The macros the rule bans, without their `!`.
const MACROS: &[&str] = &["print", "println", "eprint", "eprintln", "dbg"];

/// Whether the file is a binary target: `src/main.rs` or under `src/bin/`.
fn is_bin(file: &SourceFile) -> bool {
    let parts: Vec<Component> = file.rel_path.components().collect();
    parts.windows(2).any(|w| {
        w[0].as_os_str() == "src" && (w[1].as_os_str() == "bin" || w[1].as_os_str() == "main.rs")
    })
}

/// Scans one file.
pub(crate) fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib || is_bin(file) {
        return;
    }
    for (idx, masked) in file.masked.iter().enumerate() {
        let line = idx + 1;
        if file.is_test_line(line) {
            continue;
        }
        let Some(name) = MACROS.iter().find(|m| invokes(masked, m)) else {
            continue;
        };
        if file.allowed(RULE, line).is_some() {
            continue;
        }
        findings.push(Finding {
            rule: RULE.into(),
            file: file.rel_path.clone(),
            line,
            message: format!(
                "`{name}!` in library code `{}::{}` — return or record what it \
                 says instead (a bin prints it), or justify with \
                 `// jitlint::allow({RULE}): <reason>`",
                file.crate_dir, file.module
            ),
        });
    }
}

/// Whether `masked` invokes the macro `name` (`name!`, `std::name!`).
fn invokes(masked: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(at) = find_word(masked, name, from) {
        if masked[at + name.len()..].starts_with('!') {
            return true;
        }
        from = at + name.len();
    }
    false
}
