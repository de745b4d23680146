//! `jitlint` — workspace-wide invariant analyzer for recovery-critical
//! code.
//!
//! A checkpoint system's worst bugs only fire during a failure, which is
//! exactly when tests aren't watching. `jitlint` turns the paper's
//! operational invariants (*Just-In-Time Checkpointing*, EuroSys '24)
//! into machine checks that run on every `cargo test`:
//!
//! * [`rules::panic_path`] — no reachable panics in recovery-critical
//!   modules;
//! * [`rules::lock_order`] — the workspace-wide lock acquisition graph,
//!   within a function and one call hop, is cycle-free;
//! * [`rules::virtual_time`] — no wall-clock sleeps outside the sim
//!   clock;
//! * [`rules::schema`] — persisted types declare a schema version;
//! * [`rules::lib_print`] — no `println!`-family macro in library code;
//! * the condvar rules of [`rules::concurrency`] — waits loop, notifies
//!   hold the lock, nothing blocks under an unrelated lock.
//!
//! [`witness`] checks what the tests ran: with `simcore`'s `lock_witness`
//! feature each lock's class is the line that built it, and
//! `jitlint --witness` fails on a cycle among the classes the tests
//! acquired.
//!
//! The analyzer is deliberately std-only (no syn/proc-macro2): it scans
//! comment/string-masked source with brace-depth tracking, which is
//! precise enough for these rules and keeps the tool usable in offline
//! build environments.
//!
//! Suppression is per-site and must carry a reason:
//!
//! ```text
//! // jitlint::allow(panic_path): mutex poisoning is unreachable, guard never panics
//! let state = self.state.lock().unwrap();
//! ```

pub mod report;
mod rules;
mod source;
pub mod witness;

use report::Finding;
use source::{FileKind, SourceFile};
use std::io;
use std::path::{Path, PathBuf};

/// Loads and parses every Rust file under `root` the analyzer covers:
/// `crates/*/{src,tests,examples}` plus the workspace-level `src/`,
/// `tests/`, and `examples/` (attributed to the pseudo-crate
/// `workspace`). Per-rule scoping happens via [`FileKind`]: library,
/// integration-test, and example files are distinguished so panic rules
/// can stand down in test code while the concurrency rules stay on
/// everywhere. Paths containing a `fixtures` component are skipped —
/// jitlint's own test fixtures contain deliberate violations.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    let mut units: Vec<(PathBuf, String)> = Vec::new(); // (crate dir, crate name)
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            if let Some(name) = entry.path().file_name().and_then(|n| n.to_str()) {
                units.push((entry.path(), name.to_string()));
            }
        }
    }
    units.sort();
    units.push((root.to_path_buf(), "workspace".to_string()));

    let mut files = Vec::new();
    for (unit_dir, crate_name) in &units {
        for (sub, kind) in [
            ("src", FileKind::Lib),
            ("tests", FileKind::Test),
            ("examples", FileKind::Example),
        ] {
            let dir = unit_dir.join(sub);
            if !dir.is_dir() {
                continue;
            }
            let mut rs_files = Vec::new();
            collect_rs_files(&dir, &mut rs_files)?;
            rs_files.sort();
            for path in rs_files {
                let rel_path = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                // Relative to the analyzed root: the analyzer's own test
                // fixtures (deliberate violations) stay invisible when the
                // real workspace is scanned, but a fixture tree *used as*
                // the root is scanned normally.
                if rel_path.components().any(|c| c.as_os_str() == "fixtures") {
                    continue;
                }
                let text = std::fs::read_to_string(&path)?;
                let module = module_name(&path);
                files.push(SourceFile::parse_kind(
                    rel_path,
                    crate_name.clone(),
                    module,
                    kind,
                    &text,
                ));
            }
        }
    }
    Ok(files)
}

/// Runs every rule over the parsed files, then the `unused_allow` meta
/// check (which needs the other rules' suppression hits).
pub(crate) fn run_rules(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    rules::run_file_rules(files, &mut findings);
    rules::lock_order::check(files, &mut findings);
    rules::check_unused_allows(files, &mut findings);
    findings.sort();
    findings
}

/// Convenience: parse the workspace at `root` and run all rules.
pub fn analyze(root: &Path) -> io::Result<Vec<Finding>> {
    let files = load_workspace(root)?;
    Ok(run_rules(&files))
}

/// Inserts a `// jitlint::allow(<rule>): TODO: justify this exemption`
/// line above each finding's line, preserving indentation. Returns the
/// number of inserted directives. `allow_syntax` findings (malformed
/// directives) cannot be auto-fixed and are skipped.
pub fn apply_fix_allow(root: &Path, findings: &[Finding]) -> io::Result<usize> {
    use std::collections::BTreeMap;
    // file → descending-sorted (line, rule) so insertions don't shift
    // later targets.
    let mut by_file: BTreeMap<&PathBuf, Vec<(usize, &str)>> = BTreeMap::new();
    for f in findings {
        if f.rule == "allow_syntax" {
            continue;
        }
        by_file.entry(&f.file).or_default().push((f.line, &f.rule));
    }
    let mut inserted = 0usize;
    for (rel, mut sites) in by_file {
        sites.sort_by(|a, b| b.cmp(a));
        sites.dedup();
        let path = root.join(rel);
        let text = std::fs::read_to_string(&path)?;
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        for (line, rule) in sites {
            if line == 0 || line > lines.len() {
                continue;
            }
            let indent: String = lines[line - 1]
                .chars()
                .take_while(|c| c.is_whitespace())
                .collect();
            lines.insert(
                line - 1,
                format!("{indent}// jitlint::allow({rule}): TODO: justify this exemption"),
            );
            inserted += 1;
        }
        let mut out = lines.join("\n");
        out.push('\n');
        std::fs::write(&path, out)?;
    }
    Ok(inserted)
}

/// Module name for rule scoping: the file stem, except `mod.rs` and
/// `lib.rs`-like roots take their directory name where sensible.
fn module_name(path: &Path) -> String {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    if stem == "mod" {
        if let Some(dir) = path
            .parent()
            .and_then(|p| p.file_name())
            .and_then(|n| n.to_str())
        {
            return dir.to_string();
        }
    }
    stem.to_string()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
