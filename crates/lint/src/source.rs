//! Source model for `jitlint`: a lightweight, brace-aware view of one
//! Rust file, built without a full parser so the analyzer stays std-only
//! and works offline.
//!
//! The model provides:
//!
//! * **masked lines** — the source with comments, string/char literals,
//!   and doc text blanked out (replaced by spaces), so rule scans never
//!   false-positive on `"panic!"` inside a string or a comment;
//! * **test regions** — line ranges belonging to `#[cfg(test)]` items;
//! * **allow directives** — `// jitlint::allow(rule_a, rule_b): reason`
//!   comments, resolved to the line of code they suppress;
//! * **function spans** — `(impl_type, fn_name, body_range)` triples used
//!   by the lock-order rule.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// What kind of compilation unit a file belongs to. Rules opt in or out
/// per kind: test and example code may panic freely, but a lost wakeup
/// hangs a test run just as hard as it hangs production recovery, so the
/// concurrency rules stay on everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// `src/` of a crate (library / binary code).
    Lib,
    /// An integration-test file (`crates/*/tests`, top-level `tests/`).
    Test,
    /// An example (`examples/`).
    Example,
}

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the analysis root (as reported in findings).
    pub(crate) rel_path: PathBuf,
    /// Crate directory name (`crates/<crate_dir>/…`).
    pub(crate) crate_dir: String,
    /// Module name derived from the file stem (`lib`, `checkpoint`, …).
    pub(crate) module: String,
    /// Which compilation unit the file belongs to.
    pub(crate) kind: FileKind,
    /// Lines with comments and literals blanked to spaces.
    pub(crate) masked: Vec<String>,
    /// `in_test[i]` — line `i+1` is inside a `#[cfg(test)]` item.
    pub(crate) in_test: Vec<bool>,
    /// Resolved allow directives.
    pub(crate) allows: Vec<Allow>,
    /// Malformed `jitlint::allow` comments (missing reason / bad syntax).
    pub(crate) malformed_allows: Vec<(usize, String)>,
    /// Function spans for per-function analyses.
    pub(crate) functions: Vec<FnSpan>,
    /// `(comment_line, rule)` pairs whose allow directive suppressed at
    /// least one finding this run — the complement feeds `unused_allow`.
    pub(crate) allow_hits: RefCell<BTreeSet<(usize, String)>>,
}

/// A resolved `jitlint::allow` directive.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    /// Rule names listed in the directive.
    pub rules: Vec<String>,
    /// The code line (1-indexed) this directive suppresses.
    pub target_line: usize,
    /// The line the comment itself is on.
    pub comment_line: usize,
}

/// A function body located in the file.
#[derive(Debug, Clone)]
pub(crate) struct FnSpan {
    /// Enclosing inherent/trait-impl type name, if inside an `impl` block.
    pub impl_type: Option<String>,
    /// Whether the function sits in an `impl` or `trait` block (a trait's
    /// default body included), so method syntax can call it.
    pub method: bool,
    /// Function name.
    pub name: String,
    /// Line containing the `fn` keyword (start of the signature).
    pub sig_start: usize,
    /// First line of the body (the line containing the opening brace).
    pub body_start: usize,
    /// Last line of the body (the line containing the closing brace).
    pub body_end: usize,
}

impl SourceFile {
    /// Parses `text` into the source model.
    #[cfg(test)]
    pub(crate) fn parse(
        rel_path: PathBuf,
        crate_dir: String,
        module: String,
        text: &str,
    ) -> SourceFile {
        Self::parse_kind(rel_path, crate_dir, module, FileKind::Lib, text)
    }

    /// Parses `text` into the source model with an explicit [`FileKind`].
    pub(crate) fn parse_kind(
        rel_path: PathBuf,
        crate_dir: String,
        module: String,
        kind: FileKind,
        text: &str,
    ) -> SourceFile {
        let (masked, comments) = mask_lines(text, text.lines().count());
        let in_test = find_test_regions(&masked);
        let (allows, malformed_allows) = find_allows(&comments, &masked);
        let functions = find_functions(&masked);
        SourceFile {
            rel_path,
            crate_dir,
            module,
            kind,
            masked,
            in_test,
            allows,
            malformed_allows,
            functions,
            allow_hits: RefCell::new(BTreeSet::new()),
        }
    }

    /// Whether `rule` is suppressed at `line` by an allow directive.
    /// A match is recorded so `unused_allow` can report directives that
    /// no longer suppress anything.
    pub(crate) fn allowed(&self, rule: &str, line: usize) -> Option<&Allow> {
        let hit = self
            .allows
            .iter()
            .find(|a| a.target_line == line && a.rules.iter().any(|r| r == rule));
        if let Some(a) = hit {
            self.allow_hits
                .borrow_mut()
                .insert((a.comment_line, rule.to_string()));
        }
        hit
    }

    /// Whether the (1-indexed) line lies in a `#[cfg(test)]` item.
    pub(crate) fn is_test_line(&self, line: usize) -> bool {
        self.in_test.get(line - 1).copied().unwrap_or(false)
    }
}

/// Blanks comments, strings, char literals, and raw strings to spaces,
/// preserving line structure so byte columns stay meaningful. Also
/// returns, per line, the text of any plain `//` comment (doc comments
/// and string contents excluded) so directive parsing can't be fooled
/// by markers inside literals or documentation.
fn mask_lines(text: &str, line_count: usize) -> (Vec<String>, Vec<String>) {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Code,
        LineComment { doc: bool },
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }

    let mut out: Vec<String> = Vec::with_capacity(line_count);
    let mut comments: Vec<String> = Vec::with_capacity(line_count);
    let mut cur = String::new();
    let mut cur_comment = String::new();
    let mut st = St::Code;
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if c == '\n' {
            out.push(std::mem::take(&mut cur));
            comments.push(std::mem::take(&mut cur_comment));
            if matches!(st, St::LineComment { .. }) {
                st = St::Code;
            }
            i += 1;
            continue;
        }
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    let doc = matches!(bytes.get(i + 2), Some('/') | Some('!'));
                    st = St::LineComment { doc };
                    cur.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    cur.push_str("  ");
                    i += 2;
                }
                '"' => {
                    st = St::Str;
                    cur.push(' ');
                    i += 1;
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: r"..." or r#"..."# (any #-count).
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            cur.push(' ');
                        }
                        i = j + 1;
                    } else {
                        cur.push(c);
                        i += 1;
                    }
                }
                'b' if next == Some('"') => {
                    st = St::Str;
                    cur.push_str("  ");
                    i += 2;
                }
                '\'' => {
                    // Distinguish char literal from lifetime: a lifetime is
                    // `'ident` NOT followed by a closing quote.
                    let is_lifetime = match (bytes.get(i + 1), bytes.get(i + 2)) {
                        (Some(c1), Some('\'')) if *c1 != '\\' => false, // 'x'
                        (Some(c1), _) if c1.is_alphabetic() || *c1 == '_' => true,
                        _ => false,
                    };
                    if is_lifetime {
                        cur.push(c);
                        i += 1;
                    } else {
                        st = St::Char;
                        cur.push(' ');
                        i += 1;
                    }
                }
                _ => {
                    cur.push(c);
                    i += 1;
                }
            },
            St::LineComment { doc } => {
                if !doc {
                    cur_comment.push(c);
                }
                cur.push(' ');
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    cur.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    cur.push_str("  ");
                    i += 2;
                } else {
                    cur.push(' ');
                    i += 1;
                }
            }
            St::Str => match c {
                '\\' => {
                    cur.push_str("  ");
                    i += 2;
                }
                '"' => {
                    st = St::Code;
                    cur.push(' ');
                    i += 1;
                }
                _ => {
                    cur.push(' ');
                    i += 1;
                }
            },
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if bytes.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        st = St::Code;
                        for _ in 0..=hashes as usize {
                            cur.push(' ');
                        }
                        i += 1 + hashes as usize;
                    } else {
                        cur.push(' ');
                        i += 1;
                    }
                } else {
                    cur.push(' ');
                    i += 1;
                }
            }
            St::Char => match c {
                '\\' => {
                    cur.push_str("  ");
                    i += 2;
                }
                '\'' => {
                    st = St::Code;
                    cur.push(' ');
                    i += 1;
                }
                _ => {
                    cur.push(' ');
                    i += 1;
                }
            },
        }
    }
    out.push(cur);
    comments.push(cur_comment);
    while out.len() < line_count {
        out.push(String::new());
        comments.push(String::new());
    }
    out.truncate(line_count.max(1));
    comments.truncate(line_count.max(1));
    (out, comments)
}

/// Marks the lines of `#[cfg(test)]` items. A module is test code
/// through its closing brace; so is any other item, or through its `;`
/// when it has no body (`#[cfg(test)] use …;`). An attribute whose item
/// ends without either (a field, a variant) ends with its enclosing block.
fn find_test_regions(masked: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; masked.len()];
    let mut depth: i64 = 0;
    // Depth of the active test item's body; None when outside one.
    let mut test_until_depth: Option<i64> = None;
    // Depth of a `#[cfg(test)]` attribute whose item has not yet opened a
    // body or ended, and the `(`/`[` nesting inside that item's header.
    let mut pending: Option<i64> = None;
    let mut nest: i64 = 0;

    for (idx, line) in masked.iter().enumerate() {
        if test_until_depth.is_none()
            && pending.is_none()
            && (line.contains("#[cfg(test)]") || line.contains("#[cfg(all(test"))
        {
            pending = Some(depth);
            nest = 0;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending.take().is_some() {
                        test_until_depth = Some(depth);
                    }
                }
                '}' => {
                    if test_until_depth == Some(depth) {
                        test_until_depth = None;
                        // The closing-brace line itself is still test.
                        in_test[idx] = true;
                    }
                    if pending == Some(depth) {
                        pending = None;
                    }
                    depth -= 1;
                }
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                ';' if nest == 0 && pending.take().is_some() => in_test[idx] = true,
                _ => {}
            }
        }
        if test_until_depth.is_some() || pending.is_some() {
            in_test[idx] = true;
        }
    }
    in_test
}

/// Extracts `jitlint::allow` directives from comments.
///
/// Grammar: `// jitlint::allow(rule[, rule…]): non-empty reason`.
/// A trailing comment suppresses its own line; a comment-only line
/// suppresses the next line that contains code.
fn find_allows(comments: &[String], masked: &[String]) -> (Vec<Allow>, Vec<(usize, String)>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();

    for (idx, comment) in comments.iter().enumerate() {
        // `comments` holds only plain `//` comment text — markers inside
        // string literals or doc comments never reach this scan.
        let Some(pos) = comment.find("jitlint::allow") else {
            continue;
        };
        let line_no = idx + 1;
        let rest = &comment[pos + "jitlint::allow".len()..];
        let parsed = (|| {
            let rest = rest.trim_start();
            let inner = rest.strip_prefix('(')?;
            let close = inner.find(')')?;
            let rules: Vec<String> = inner[..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if rules.is_empty() {
                return None;
            }
            let after = inner[close + 1..].trim_start();
            let reason = after.strip_prefix(':')?.trim();
            if reason.is_empty() {
                return None;
            }
            Some(rules)
        })();
        let Some(rules) = parsed else {
            malformed.push((
                line_no,
                "malformed jitlint::allow — expected `// jitlint::allow(rule[, rule]): reason`"
                    .to_string(),
            ));
            continue;
        };
        // Trailing comment (code before `//` on the masked line) targets
        // its own line; otherwise the next line containing code.
        let code_here = !masked[idx].trim().is_empty();
        let target_line = if code_here {
            line_no
        } else {
            let mut t = None;
            for (j, m) in masked.iter().enumerate().skip(idx + 1) {
                if !m.trim().is_empty() {
                    t = Some(j + 1);
                    break;
                }
            }
            match t {
                Some(t) => t,
                None => {
                    malformed.push((line_no, "jitlint::allow targets no code line".to_string()));
                    continue;
                }
            }
        };
        allows.push(Allow {
            rules,
            target_line,
            comment_line: line_no,
        });
    }
    (allows, malformed)
}

/// Locates function bodies and their enclosing `impl` type, by tracking
/// brace depth over the masked source. `trait` blocks are tracked too,
/// with no type: their default bodies are methods.
fn find_functions(masked: &[String]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    // Stack of (depth_at_open, impl type) for impl and trait blocks; a
    // trait block has no type.
    let mut impl_stack: Vec<(i64, Option<String>)> = Vec::new();
    // Pending fn awaiting its opening brace: (block entry, name, sig_line).
    type Pending = (Option<Option<String>>, String, usize);
    let mut pending_fn: Option<Pending> = None;
    // Open fn bodies: (close_depth, index into out).
    let mut fn_stack: Vec<(i64, usize)> = Vec::new();
    // Pending impl type (or trait) awaiting `{`.
    let mut pending_impl: Option<Option<String>> = None;

    for (idx, line) in masked.iter().enumerate() {
        let line_no = idx + 1;
        if let Some(ty) = parse_impl_type(line) {
            pending_impl = Some(Some(ty));
        } else if is_trait_header(line) {
            pending_impl = Some(None);
        }
        if let Some(name) = parse_fn_name(line) {
            let block = impl_stack.last().map(|(_, t)| t.clone());
            pending_fn = Some((block, name, line_no));
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some((block, name, sig_line)) = pending_fn.take() {
                        out.push(FnSpan {
                            method: block.is_some(),
                            impl_type: block.flatten(),
                            name,
                            sig_start: sig_line,
                            body_start: line_no,
                            body_end: line_no,
                        });
                        fn_stack.push((depth, out.len() - 1));
                    } else if let Some(ty) = pending_impl.take() {
                        impl_stack.push((depth, ty));
                    }
                }
                '}' => {
                    if let Some(&(d, i)) = fn_stack.last() {
                        if depth == d {
                            out[i].body_end = line_no;
                            fn_stack.pop();
                        }
                    }
                    if impl_stack.last().is_some_and(|&(d, _)| depth == d) {
                        impl_stack.pop();
                    }
                    depth -= 1;
                }
                // `fn name(...);` in traits — signature without body.
                ';' if pending_fn.is_some()
                    && depth == fn_stack.last().map(|&(d, _)| d).unwrap_or(0) =>
                {
                    pending_fn = None;
                }
                _ => {}
            }
        }
    }
    out
}

/// Whether the line opens a trait: `[pub[(…)]] [unsafe] trait Name`.
fn is_trait_header(masked_line: &str) -> bool {
    let mut words = masked_line.split_whitespace();
    let mut word = words.next().unwrap_or("");
    if word == "pub" || word.starts_with("pub(") {
        word = words.next().unwrap_or("");
    }
    if word == "unsafe" {
        word = words.next().unwrap_or("");
    }
    word == "trait"
}

/// Parses `impl [<…>] [Trait for] Type …` returning the Type name.
fn parse_impl_type(masked_line: &str) -> Option<String> {
    let t = masked_line.trim_start();
    let rest = t.strip_prefix("impl")?;
    let rest = if let Some(r) = rest.strip_prefix('<') {
        // Skip generic params to the matching `>` (flat scan is enough
        // for the nesting that appears in practice).
        let mut level = 1;
        let mut pos = None;
        for (i, c) in r.char_indices() {
            match c {
                '<' => level += 1,
                '>' => {
                    level -= 1;
                    if level == 0 {
                        pos = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        &r[pos? + 1..]
    } else if rest.starts_with(char::is_whitespace) {
        rest
    } else {
        return None;
    };
    // `A for B` → B; otherwise first path segment.
    let body = rest.split('{').next().unwrap_or(rest);
    let chosen = match body.find(" for ") {
        Some(p) => &body[p + 5..],
        None => body,
    };
    let name: String = chosen
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Parses a `fn name` on this line, if any.
fn parse_fn_name(masked_line: &str) -> Option<String> {
    let mut search = 0usize;
    let line = masked_line;
    while let Some(rel) = line[search..].find("fn ") {
        let at = search + rel;
        // Word boundary before `fn`.
        let ok_before = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if ok_before {
            let name: String = line[at + 3..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
        search = at + 3;
    }
    None
}

/// Word-boundary containment check on a masked line.
pub(crate) fn contains_word(line: &str, word: &str) -> bool {
    find_word(line, word, 0).is_some()
}

/// Finds `word` at a word boundary in `line`, starting at `from`.
pub(crate) fn find_word(line: &str, word: &str, from: usize) -> Option<usize> {
    let mut search = from;
    while let Some(rel) = line.get(search..)?.find(word) {
        let at = search + rel;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = after >= line.len()
            || !line[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        search = at + word.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sf(text: &str) -> SourceFile {
        SourceFile::parse(
            PathBuf::from("x.rs"),
            "core".into(),
            "checkpoint".into(),
            text,
        )
    }

    #[test]
    fn masking_strips_strings_and_comments() {
        let f = sf("let a = \"panic!()\"; // unwrap()\nlet b = 1; /* expect( */ let c = 2;\n");
        assert!(!f.masked[0].contains("panic!"));
        assert!(!f.masked[0].contains("unwrap"));
        assert!(f.masked[0].contains("let a ="));
        assert!(!f.masked[1].contains("expect"));
        assert!(f.masked[1].contains("let c = 2;"));
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let f = sf("let s = r#\"unwrap()\"#;\nlet c = '\\''; let l: &'static str = x;\n");
        assert!(!f.masked[0].contains("unwrap"));
        assert!(f.masked[1].contains("static"));
    }

    #[test]
    fn test_region_detection() {
        let f = sf("fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n");
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
        // A test-only item other than a module covers its own lines only.
        let f = sf("#[cfg(test)]\npub(crate) fn parse() {\n    x.unwrap();\n}\nfn after() {}\n#[cfg(test)]\nuse a::b;\nfn last() {}\nmod m {}\n");
        assert!(f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(5));
        assert!(f.is_test_line(7));
        assert!(!f.is_test_line(8));
    }

    #[test]
    fn allow_directives_resolve_targets() {
        let text = "\
// jitlint::allow(panic_path): startup is infallible here
let a = x.unwrap();
let b = y.unwrap(); // jitlint::allow(panic_path): checked above
// jitlint::allow(panic_path)
let c = z.unwrap();
";
        let f = sf(text);
        assert!(f.allowed("panic_path", 2).is_some());
        assert!(f.allowed("panic_path", 3).is_some());
        assert!(
            f.allowed("panic_path", 5).is_none(),
            "missing reason is malformed"
        );
        assert_eq!(f.malformed_allows.len(), 1);
    }

    #[test]
    fn function_spans_and_impl_types() {
        let text = "\
impl Watchdog {
    pub(crate) fn arm(&self) {
        self.state.lock();
    }
}
fn free() {
}
impl Drop for Guard {
    fn drop(&mut self) {}
}
pub(crate) trait Executor {
    fn call(&mut self);
    fn all_reduce_bucket(&mut self) {
        self.call();
    }
}
";
        let f = sf(text);
        let names: Vec<_> = f
            .functions
            .iter()
            .map(|s| (s.impl_type.clone(), s.name.clone(), s.method))
            .collect();
        assert_eq!(
            names,
            vec![
                (Some("Watchdog".into()), "arm".into(), true),
                (None, "free".into(), false),
                (Some("Guard".into()), "drop".into(), true),
                (None, "all_reduce_bucket".into(), true),
            ]
        );
        assert_eq!(f.functions[0].body_start, 2);
        assert_eq!(f.functions[0].body_end, 4);
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("thread::sleep(d)", "sleep"));
        assert!(!contains_word("sleeper(d)", "sleep"));
        assert!(!contains_word("do_sleep(d)", "sleep"));
    }
}
