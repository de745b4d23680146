//! `jitlint` CLI.
//!
//! ```text
//! cargo run -p lint --                     # text report, exit 1 on findings
//! cargo run -p lint -- --format json       # machine-readable output
//! cargo run -p lint -- --fix-allow         # insert TODO allow directives
//! cargo run -p lint -- --root <path>       # analyze another workspace root
//! cargo run -p lint -- --witness <trace>   # check the lock classes a
//!                                          # test run acquired
//! ```
//!
//! `--witness` replaces the normal rule run: it reads the records a
//! `lock_witness`-instrumented test run wrote to `JIT_LOCK_WITNESS` and
//! fails on a cycle among their lock classes, on unannotated same-class
//! nesting and on a class built outside the workspace (see
//! `lint::witness`). A trace with no `edge` record exits 2.

use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    format: Format,
    fix_allow: bool,
    witness: Option<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn usage() -> &'static str {
    "usage: jitlint [--format text|json] [--fix-allow] [--root <path>] [--witness <trace>]"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: find_workspace_root()?,
        format: Format::Text,
        fix_allow: false,
        witness: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                let value = args.next().ok_or("--format needs a value")?;
                opts.format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                };
            }
            "--fix-allow" => opts.fix_allow = true,
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a value")?);
            }
            "--witness" => {
                opts.witness = Some(PathBuf::from(
                    args.next().ok_or("--witness needs a trace file path")?,
                ));
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(opts)
}

/// Walks up from the current directory to the first one containing a
/// `crates/` directory (so the tool works from any workspace subdir).
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        if dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("no `crates/` directory found above the current directory; \
                        pass --root <path>"
                .to_string());
        }
    }
}

fn run_witness(opts: &Options, trace_path: &PathBuf) -> ExitCode {
    let trace = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "jitlint: failed to read witness trace {}: {e}\n\
                 (run the tests with JIT_LOCK_WITNESS={} and \
                 --features simcore/lock_witness first)",
                trace_path.display(),
                trace_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let files = match lint::load_workspace(&opts.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "jitlint: failed to read workspace at {}: {e}",
                opts.root.display()
            );
            return ExitCode::from(2);
        }
    };
    let report = match lint::witness::check_witness(&files, &trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("jitlint: {}: {e}", trace_path.display());
            return ExitCode::from(2);
        }
    };
    match opts.format {
        Format::Text => print!("{}", lint::witness::render_text(&report)),
        Format::Json => print!("{}", lint::report::render_json(&report.findings)),
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(trace_path) = opts.witness.clone() {
        return run_witness(&opts, &trace_path);
    }
    let findings = match lint::analyze(&opts.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "jitlint: failed to read workspace at {}: {e}",
                opts.root.display()
            );
            return ExitCode::from(2);
        }
    };
    if opts.fix_allow {
        match lint::apply_fix_allow(&opts.root, &findings) {
            Ok(n) => eprintln!("jitlint: inserted {n} allow directive(s); edit the TODO reasons"),
            Err(e) => {
                eprintln!("jitlint: --fix-allow failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    match opts.format {
        Format::Text => print!("{}", lint::report::render_text(&findings)),
        Format::Json => print!("{}", lint::report::render_json(&findings)),
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
