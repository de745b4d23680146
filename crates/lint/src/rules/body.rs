//! Per-function body model shared by the concurrency rules.
//!
//! The model joins a function's masked lines into one text buffer and
//! extracts, by offset:
//!
//! * **blocks** — every `{…}` region with a looping/non-looping
//!   classification (`while` / `loop` / `for` headers are loops);
//! * **guards** — live ranges of `MutexGuard`-like values: `let`-bound
//!   guards live to the end of their enclosing block (or an explicit
//!   `drop`), temporary guards (`self.x.lock().op()`) live to the end of
//!   their statement — which, for `if let` / `while let` / `for` / `match`
//!   headers, is the end of the governed block, exactly the Rust 2021
//!   temporary-lifetime rule that made the watchdog hold its action lock
//!   across the abort callback;
//! * **condvar calls** — `wait*` / `notify_*` sites whose receiver is a
//!   known condvar field, with the wait's guard argument;
//! * **calls** — named call sites for interprocedural lock-set
//!   propagation.

use crate::source::{find_word, FnSpan, SourceFile};
use std::collections::BTreeSet;

/// A `{…}` region inside the body, by byte offset into [`Body::text`].
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Offset of the opening brace.
    pub start: usize,
    /// Offset of the closing brace.
    pub end: usize,
    /// Whether the block header is a loop (`while` / `loop` / `for`).
    pub looping: bool,
}

/// A lock acquisition site (`.lock()` / `.read()` / `.write()`).
#[derive(Debug, Clone)]
pub(crate) struct Acquisition {
    /// Offset of the acquisition pattern.
    pub offset: usize,
    /// 1-indexed source line.
    pub line: usize,
    /// Receiver field, when the receiver is a nameable field.
    pub field: Option<String>,
}

/// A live range of a held guard.
#[derive(Debug, Clone)]
pub(crate) struct Guard {
    /// Binding name (`st`), if `let`-bound or a function parameter.
    pub name: Option<String>,
    /// Lock field the guard came from, when resolvable. Parameter guards
    /// have no field (their lock is the caller's business).
    pub field: Option<String>,
    /// Offset the guard becomes live (acquisition or body start).
    pub start: usize,
    /// Offset the guard dies (block end, statement end, or `drop`).
    pub end: usize,
    /// Line of the acquisition (0 for parameter guards).
    pub line: usize,
    /// Whether this is a `Mutex` guard (`.lock()` / `MutexGuard` param)
    /// rather than an `RwLock` read/write guard.
    pub mutex: bool,
}

/// A condvar `wait*` or `notify_*` call.
#[derive(Debug, Clone)]
pub(crate) struct CvCall {
    /// Offset of the method name.
    pub offset: usize,
    /// 1-indexed source line.
    pub line: usize,
    /// Condvar field name (receiver).
    pub field: String,
    /// Method (`wait`, `wait_for`, `wait_while`, `notify_one`, …).
    pub method: String,
    /// For waits: the guard identifier passed as first argument.
    pub arg_ident: Option<String>,
}

/// A named call site (`foo(…)`, `x.foo(…)`, `T::foo(…)`).
#[derive(Debug, Clone)]
pub(crate) struct Call {
    /// Offset of the callee identifier.
    pub offset: usize,
    /// 1-indexed source line.
    pub line: usize,
    /// Callee name.
    pub name: String,
    /// Method-call receiver identifier (`g` in `g.health()`), when it is
    /// a plain name. Used to recognize calls *on a guard itself* — a
    /// method on already-locked data, not a call made while holding an
    /// unrelated lock.
    pub receiver: Option<String>,
    /// Whether the call uses method syntax (`x.name(…)`): its callee is
    /// a function of an `impl` or `trait` block, never a free function.
    pub method: bool,
    /// Path qualifier (`Job` in `Job::new(…)`), when the call is
    /// `Type::method(…)`. Lets the resolver restrict candidates to
    /// `impl Type` instead of unioning every same-named function.
    pub qualifier: Option<String>,
    /// True when the call chains directly on a lock acquisition
    /// (`self.gpu.lock().restore(…)`): the callee is a method of the
    /// locked data, whose type the text scanner cannot know, so
    /// name resolution would union unrelated same-named functions.
    pub chained_on_lock: bool,
}

/// The analyzed body of one function.
pub(crate) struct Body {
    /// Joined masked lines (with trailing newlines), body_start..=body_end.
    pub text: String,
    line_starts: Vec<(usize, usize)>,
    /// All `{…}` blocks, outermost first by start offset.
    pub blocks: Vec<Block>,
    /// Lock acquisition sites in offset order.
    pub acquisitions: Vec<Acquisition>,
    /// Guard live ranges (including `MutexGuard` parameters).
    pub guards: Vec<Guard>,
    /// Condvar waits.
    pub waits: Vec<CvCall>,
    /// Condvar notifies.
    pub notifies: Vec<CvCall>,
    /// Named call sites in offset order.
    pub calls: Vec<Call>,
}

const ACQ_PATTERNS: &[&str] = &[".lock()", ".read()", ".write()"];
const WAIT_METHODS: &[&str] = &["wait", "wait_for", "wait_timeout", "wait_while"];
const NOTIFY_METHODS: &[&str] = &["notify_one", "notify_all"];
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "move", "in", "as",
    "Some", "Ok", "Err", "None", "Box", "Vec", "vec",
];

impl Body {
    /// Builds the model for `span` of `file`, resolving condvar receivers
    /// against the workspace-wide `condvars` field-name set.
    pub(crate) fn build(file: &SourceFile, span: &FnSpan, condvars: &BTreeSet<String>) -> Body {
        let mut text = String::new();
        let mut line_starts: Vec<(usize, usize)> = Vec::new();
        for line in span.body_start..=span.body_end {
            line_starts.push((text.len(), line));
            text.push_str(&file.masked[line - 1]);
            text.push('\n');
        }
        let blocks = find_blocks(&text);
        let mut body = Body {
            text,
            line_starts,
            blocks,
            acquisitions: Vec::new(),
            guards: Vec::new(),
            waits: Vec::new(),
            notifies: Vec::new(),
            calls: Vec::new(),
        };
        body.find_acquisitions_and_guards();
        body.find_param_guards(file, span);
        body.find_cv_calls(condvars);
        body.find_calls();
        body
    }

    /// Maps a byte offset in `text` to its 1-indexed source line.
    pub(crate) fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search_by(|(o, _)| o.cmp(&offset)) {
            Ok(i) => self.line_starts[i].1,
            Err(0) => self.line_starts.first().map(|(_, l)| *l).unwrap_or(1),
            Err(i) => self.line_starts[i - 1].1,
        }
    }

    /// Guards live at `offset`.
    pub(crate) fn live_guards_at(&self, offset: usize) -> Vec<&Guard> {
        self.guards
            .iter()
            .filter(|g| g.start <= offset && offset < g.end)
            .collect()
    }

    /// Whether `offset` has a loop (`while`/`loop`/`for`) ancestor block.
    pub(crate) fn in_loop(&self, offset: usize) -> bool {
        self.blocks
            .iter()
            .any(|b| b.looping && b.start < offset && offset < b.end)
    }

    /// The innermost block containing `offset` (the body's outer block at
    /// minimum), as `(start, end)`.
    fn enclosing_block(&self, offset: usize) -> (usize, usize) {
        self.blocks
            .iter()
            .filter(|b| b.start < offset && offset < b.end)
            .map(|b| (b.start, b.end))
            .min_by_key(|(s, e)| e - s)
            .unwrap_or((0, self.text.len()))
    }

    fn find_acquisitions_and_guards(&mut self) {
        let mut sites: Vec<(usize, usize)> = Vec::new(); // (offset, pat_len)
        for pat in ACQ_PATTERNS {
            let mut search = 0;
            while let Some(rel) = self.text[search..].find(pat) {
                let at = search + rel;
                sites.push((at, pat.len()));
                search = at + pat.len();
            }
        }
        sites.sort();
        for (at, pat_len) in sites {
            let mutex = self.text[at..].starts_with(".lock()");
            let field = receiver_field(&self.text[..at]);
            let line = self.line_of(at);
            self.acquisitions.push(Acquisition {
                offset: at,
                line,
                field: field.clone(),
            });
            let after = at + pat_len;
            let (_, block_end) = self.enclosing_block(at);
            // The `let` binds the guard only when the acquisition is the
            // whole initializer (`let st = x.lock();`) — in
            // `let v = x.lock().pop();` or `let g = (f.lock())(…)` the
            // guard is a temporary and the binding holds something else.
            let binds_guard = self.text[after..].trim_start().starts_with(';');
            if let Some(name) = let_binding_before(&self.text, at).filter(|_| binds_guard) {
                // `let g = x.lock();` — live to block end or explicit drop.
                let end = drop_site(&self.text, &name, after, block_end).unwrap_or(block_end);
                self.guards.push(Guard {
                    name: Some(name),
                    field,
                    start: after,
                    end,
                    line,
                    mutex,
                });
            } else {
                // Temporary guard — live to the end of the statement; a
                // `for`/`if let`/`while let`/`match` header extends that
                // to the end of the governed block (Rust temporaries).
                let end = statement_end(&self.text, after, block_end);
                self.guards.push(Guard {
                    name: None,
                    field,
                    start: after,
                    end,
                    line,
                    mutex,
                });
            }
        }
    }

    /// Guard parameters (`st: &mut MutexGuard<…>`) are live for the whole
    /// body; the lock they hold belongs to the caller.
    fn find_param_guards(&mut self, file: &SourceFile, span: &FnSpan) {
        for line in span.sig_start..=span.body_start {
            let Some(masked) = file.masked.get(line - 1) else {
                continue;
            };
            let mutex = masked.contains("MutexGuard");
            if !mutex && !masked.contains("RwLockReadGuard") && !masked.contains("RwLockWriteGuard")
            {
                continue;
            }
            let Some(colon) = masked.find(':') else {
                continue;
            };
            let name: String = masked[..colon]
                .trim()
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if name.is_empty() || name == "mut" {
                continue;
            }
            self.guards.push(Guard {
                name: Some(name),
                field: None,
                start: 0,
                end: self.text.len(),
                line: 0,
                mutex,
            });
        }
    }

    fn find_cv_calls(&mut self, condvars: &BTreeSet<String>) {
        for (methods, is_wait) in [(WAIT_METHODS, true), (NOTIFY_METHODS, false)] {
            for method in methods {
                let pat = format!(".{method}(");
                let mut search = 0;
                while let Some(rel) = self.text[search..].find(&pat) {
                    let at = search + rel;
                    search = at + pat.len();
                    let Some(field) = receiver_field(&self.text[..at]) else {
                        continue;
                    };
                    if !condvars.contains(&field) {
                        continue;
                    }
                    let call = CvCall {
                        offset: at,
                        line: self.line_of(at),
                        field,
                        method: method.to_string(),
                        arg_ident: if is_wait {
                            first_arg_ident(&self.text[at + pat.len()..])
                        } else {
                            None
                        },
                    };
                    if is_wait {
                        self.waits.push(call);
                    } else {
                        self.notifies.push(call);
                    }
                }
            }
        }
        self.waits.sort_by_key(|c| c.offset);
        self.notifies.sort_by_key(|c| c.offset);
    }

    fn find_calls(&mut self) {
        let bytes: Vec<char> = self.text.chars().collect();
        let mut i = 0usize;
        while i < bytes.len() {
            if !(bytes[i].is_alphabetic() || bytes[i] == '_') {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            // Word boundary before.
            if start > 0 && (bytes[start - 1].is_alphanumeric() || bytes[start - 1] == '_') {
                continue;
            }
            if i >= bytes.len() || bytes[i] != '(' {
                continue;
            }
            let name: String = bytes[start..i].iter().collect();
            if KEYWORDS.contains(&name.as_str()) {
                continue;
            }
            // Skip definitions (`fn name(`).
            let before = self.text[..start].trim_end();
            if before.ends_with("fn") {
                continue;
            }
            let method = before.ends_with('.');
            let receiver = before.strip_suffix('.').and_then(receiver_field);
            let qualifier = before
                .strip_suffix("::")
                .and_then(trailing_ident)
                .filter(|q| q.chars().next().is_some_and(|c| c.is_uppercase()));
            let chained_on_lock = before
                .strip_suffix('.')
                .is_some_and(|pre| ACQ_PATTERNS.iter().any(|p| pre.ends_with(p)));
            self.calls.push(Call {
                offset: start,
                line: self.line_of(start),
                name,
                receiver,
                method,
                qualifier,
                chained_on_lock,
            });
        }
    }
}

/// All `{…}` blocks in `text` with loop classification: a block is a loop
/// when the header segment since the previous `;`/`{`/`}` contains a
/// `while`, `loop`, or `for` keyword.
fn find_blocks(text: &str) -> Vec<Block> {
    let mut out = Vec::new();
    let mut stack: Vec<(usize, bool)> = Vec::new();
    let mut seg_start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '{' => {
                let header = &text[seg_start..i];
                let looping = contains_loop_keyword(header);
                stack.push((i, looping));
                seg_start = i + 1;
            }
            '}' => {
                if let Some((start, looping)) = stack.pop() {
                    out.push(Block {
                        start,
                        end: i,
                        looping,
                    });
                }
                seg_start = i + 1;
            }
            ';' => seg_start = i + 1,
            _ => {}
        }
    }
    // Unclosed blocks (the body's own outer brace) close at text end.
    while let Some((start, looping)) = stack.pop() {
        out.push(Block {
            start,
            end: text.len(),
            looping,
        });
    }
    out.sort_by_key(|b| b.start);
    out
}

fn contains_loop_keyword(header: &str) -> bool {
    ["while", "loop", "for"]
        .iter()
        .any(|kw| find_word(header, kw, 0).is_some())
}

/// If the statement containing the receiver ending before `acq_offset`
/// is a `let` binding, returns the bound identifier.
fn let_binding_before(text: &str, acq_offset: usize) -> Option<String> {
    let stmt_start = text[..acq_offset]
        .rfind([';', '{', '}'])
        .map(|p| p + 1)
        .unwrap_or(0);
    let stmt = text[stmt_start..acq_offset].trim_start();
    let rest = stmt.strip_prefix("let")?;
    let rest = rest.strip_prefix(|c: char| c.is_whitespace())?.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    // Require `=` between the binding and the acquisition (excludes
    // `let x = if …` arms rebinding something else — close enough). A
    // dereferenced guard (`let n = *x.lock();`) binds a copy, not the
    // guard.
    let after_name = rest[name.len()..].trim_start();
    let init = after_name
        .split_once('=')
        .map(|(_, init)| init.trim_start());
    (after_name.starts_with(['=', ':']) && !init.is_some_and(|i| i.starts_with('*')))
        .then_some(name)
}

/// First `drop(name)` / `mem::drop(name)` for `name` in `from..limit`.
fn drop_site(text: &str, name: &str, from: usize, limit: usize) -> Option<usize> {
    let hay = &text[from..limit.min(text.len())];
    let mut search = 0usize;
    while let Some(at) = find_word(hay, "drop", search) {
        search = at + 4;
        let after = hay[at + 4..].trim_start();
        let Some(args) = after.strip_prefix('(') else {
            continue;
        };
        let inner: String = args
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if inner == name {
            return Some(from + at);
        }
    }
    None
}

/// End offset of the statement starting after `from`: the next `;` at
/// the same brace/paren depth, or — when a `{` opens first at that depth
/// (a `for` / `if let` / `while let` / `match` header) — the end of that
/// governed block, matching Rust's temporary-lifetime extension.
fn statement_end(text: &str, from: usize, limit: usize) -> usize {
    let mut paren = 0i64;
    let mut brace = 0i64;
    let bytes = text.as_bytes();
    let mut i = from;
    while i < limit.min(text.len()) {
        match bytes[i] {
            b'(' | b'[' => paren += 1,
            b')' | b']' => paren -= 1,
            b'{' => brace += 1,
            b'}' => {
                brace -= 1;
                if brace < 0 {
                    return i;
                }
                if brace == 0 && i + 1 < text.len() {
                    // A governed block just closed; the temporary dies here.
                    return i + 1;
                }
            }
            b';' if paren <= 0 && brace == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    limit.min(text.len())
}

/// The receiver field ending at `prefix`'s end (whitespace-tolerant for
/// rustfmt-split chains): `self.inner.outstanding` → `outstanding`.
/// `None` when the receiver is not a nameable field.
pub(crate) fn receiver_field(prefix: &str) -> Option<String> {
    let chars: Vec<char> = prefix.chars().collect();
    let mut end = chars.len();
    while end > 0 && chars[end - 1].is_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && (chars[start - 1].is_alphanumeric() || chars[start - 1] == '_') {
        start -= 1;
    }
    if start == end {
        return None; // e.g. `)` — lock on a call result.
    }
    let ident: String = chars[start..end].iter().collect();
    if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) || ident == "self" {
        return None;
    }
    Some(ident)
}

/// First identifier of a call's argument list (`&mut st, …` → `st`).
fn first_arg_ident(after_paren: &str) -> Option<String> {
    let t = after_paren.trim_start();
    let t = t.strip_prefix('&').unwrap_or(t).trim_start();
    let t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
    let name: String = t
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Workspace-wide condvar field/variable names: struct fields declared
/// `name: Condvar`, struct-literal inits `name: Condvar::new()`, and
/// `let name = Condvar::new()` bindings.
pub(crate) fn condvar_names(files: &[SourceFile]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in files {
        for masked in &file.masked {
            let Some(at) = masked.find("Condvar") else {
                continue;
            };
            let before = masked[..at].trim_end();
            if let Some(before) = before.strip_suffix(':') {
                // `name: Condvar` or `name: Condvar::new(),`
                if let Some(name) = trailing_ident(before) {
                    out.insert(name);
                }
            } else if let Some(eq) = before.strip_suffix('=') {
                // `let name = Condvar::new();`
                if let Some(name) = trailing_ident(eq) {
                    out.insert(name);
                }
            }
        }
    }
    out
}

fn trailing_ident(s: &str) -> Option<String> {
    let t = s.trim_end();
    let name: String = t
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn model(text: &str) -> (SourceFile, Body) {
        let file = SourceFile::parse(PathBuf::from("x.rs"), "c".into(), "m".into(), text);
        let span = file.functions[0].clone();
        let mut cvs = BTreeSet::new();
        cvs.insert("cv".to_string());
        let body = Body::build(&file, &span, &cvs);
        (file, body)
    }

    #[test]
    fn let_guard_lives_to_block_end() {
        let (_, b) = model("fn f(&self) {\n    let st = self.state.lock();\n    touch();\n}\n");
        assert_eq!(b.guards.len(), 1);
        let g = &b.guards[0];
        assert_eq!(g.name.as_deref(), Some("st"));
        assert_eq!(g.field.as_deref(), Some("state"));
        let call = b.calls.iter().find(|c| c.name == "touch").unwrap();
        assert!(!b.live_guards_at(call.offset).is_empty());
    }

    #[test]
    fn dropped_guard_dies_early() {
        let (_, b) = model(
            "fn f(&self) {\n    let st = self.state.lock();\n    drop(st);\n    touch();\n}\n",
        );
        let call = b.calls.iter().find(|c| c.name == "touch").unwrap();
        assert!(b.live_guards_at(call.offset).is_empty());
    }

    #[test]
    fn temporary_guard_scoped_to_statement() {
        let (_, b) = model("fn f(&self) {\n    self.state.lock().push(1);\n    touch();\n}\n");
        let push = b.calls.iter().find(|c| c.name == "push").unwrap();
        assert!(!b.live_guards_at(push.offset).is_empty());
        let call = b.calls.iter().find(|c| c.name == "touch").unwrap();
        assert!(b.live_guards_at(call.offset).is_empty());
    }

    #[test]
    fn a_dereferenced_guard_is_a_temporary() {
        let (_, b) = model("fn f(&self) {\n    let n = *self.state.lock();\n    touch();\n}\n");
        assert_eq!(b.guards[0].name, None);
        let call = b.calls.iter().find(|c| c.name == "touch").unwrap();
        assert!(b.live_guards_at(call.offset).is_empty());
    }

    #[test]
    fn for_header_temporary_spans_the_loop_body() {
        let (_, b) = model(
            "fn f(&self) {\n    for c in self.comms.lock().values() {\n        c.abort();\n    }\n    touch();\n}\n",
        );
        let abort = b.calls.iter().find(|c| c.name == "abort").unwrap();
        assert!(
            !b.live_guards_at(abort.offset).is_empty(),
            "for-header temporary is live in the loop body"
        );
        let call = b.calls.iter().find(|c| c.name == "touch").unwrap();
        assert!(b.live_guards_at(call.offset).is_empty());
    }

    #[test]
    fn loop_ancestry_detected() {
        let (_, b) = model(
            "fn f(&self) {\n    while x() {\n        if y() {\n            self.cv.wait(&mut st);\n        }\n    }\n    self.cv.wait(&mut st);\n}\n",
        );
        assert_eq!(b.waits.len(), 2);
        assert!(b.in_loop(b.waits[0].offset));
        assert!(!b.in_loop(b.waits[1].offset));
        assert_eq!(b.waits[0].arg_ident.as_deref(), Some("st"));
    }

    #[test]
    fn condvar_registry_finds_declarations() {
        let file = SourceFile::parse(
            PathBuf::from("x.rs"),
            "c".into(),
            "m".into(),
            "struct S {\n    cv: Condvar,\n}\nfn mk() {\n    let pair_cv = Condvar::new();\n    let s = S { obs_cv: Condvar::new() };\n}\n",
        );
        let names = condvar_names(std::slice::from_ref(&file));
        assert!(names.contains("cv"));
        assert!(names.contains("pair_cv"));
        assert!(names.contains("obs_cv"));
    }
}
