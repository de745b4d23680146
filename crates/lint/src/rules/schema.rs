//! `checkpoint_schema` — persisted types must declare a schema version.
//!
//! Checkpoint metadata (§3.2) and replay logs (§4.1) outlive the process
//! that wrote them: recovery deserializes state written by a *previous*
//! incarnation of the binary. Any serializable type in a persistence
//! module therefore needs an explicit, reviewable schema version so a
//! format change is a deliberate bump, not a silent corruption at
//! restore time. The rule requires every `#[derive(… Serialize …)]` type
//! in a persistence module to expose `SCHEMA_VERSION` in its inherent
//! `impl` block.

use crate::report::Finding;
use crate::source::{contains_word, FileKind, SourceFile};

/// Rule name used in findings and allow directives.
pub const RULE: &str = "checkpoint_schema";

/// Module names (in any crate) that persist state across failures.
pub const PERSISTENCE_MODULES: &[&str] = &["checkpoint", "oplog", "store"];

/// Scans one file. Library code only: test fixtures don't outlive the
/// process that wrote them.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib || !PERSISTENCE_MODULES.contains(&file.module.as_str()) {
        return;
    }
    let mut idx = 0;
    while idx < file.masked.len() {
        let line = idx + 1;
        if file.is_test_line(line) || !file.masked[idx].contains("#[derive(") {
            idx += 1;
            continue;
        }
        // Join the (possibly rustfmt-split) derive attribute to `)]`.
        let mut attr = String::new();
        let mut end_idx = idx;
        for (j, m) in file.masked.iter().enumerate().skip(idx).take(16) {
            attr.push_str(m);
            attr.push('\n');
            end_idx = j;
            if m.contains(")]") {
                break;
            }
        }
        let next_idx = end_idx + 1;
        if !contains_word(&attr, "Serialize") {
            idx = next_idx;
            continue;
        }
        let Some(name) = type_name_after(file, end_idx) else {
            idx = next_idx;
            continue;
        };
        if has_schema_version(file, &name) || file.allowed(RULE, line).is_some() {
            idx = next_idx;
            continue;
        }
        findings.push(Finding {
            rule: RULE.into(),
            file: file.rel_path.clone(),
            line,
            message: format!(
                "serializable type `{name}` in persistence module `{}::{}` has no \
                 `SCHEMA_VERSION` — add `pub const SCHEMA_VERSION: u16` to its impl \
                 block or justify with `// jitlint::allow({RULE}): <reason>`",
                file.crate_dir, file.module
            ),
        });
        idx = next_idx;
    }
}

/// Finds the `struct`/`enum` name on or after the derive line at `idx`.
fn type_name_after(file: &SourceFile, idx: usize) -> Option<String> {
    for masked in file.masked.iter().skip(idx).take(8) {
        for kw in ["struct", "enum"] {
            if let Some(at) = crate::source::find_word(masked, kw, 0) {
                let name: String = masked[at + kw.len()..]
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    return Some(name);
                }
            }
        }
    }
    None
}

/// Whether an `impl <name>` block in this file declares `SCHEMA_VERSION`.
fn has_schema_version(file: &SourceFile, name: &str) -> bool {
    let mut i = 0;
    while i < file.masked.len() {
        let line = &file.masked[i];
        let is_impl = crate::source::find_word(line, "impl", 0)
            .is_some_and(|at| line[at + 4..].trim_start().starts_with(name));
        if !is_impl {
            i += 1;
            continue;
        }
        // Scan the impl block (brace-depth bounded) for the marker.
        let mut depth: i64 = 0;
        let mut entered = false;
        for (j, scan) in file.masked.iter().enumerate().skip(i) {
            if contains_word(scan, "SCHEMA_VERSION") {
                return true;
            }
            for c in scan.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if entered && depth <= 0 {
                i = j;
                break;
            }
        }
        i += 1;
    }
    false
}
