//! `lock_order` + `guard_across_call` — the lock-acquisition order the
//! source shows.
//!
//! The watchdog (§3.1) fires while trainer threads are parked at the
//! all-reduce barrier holding their own locks; the checkpoint writer then
//! walks shared state from a different thread. If function A acquires
//! lock `x` then `y` while function B acquires `y` then `x`, the
//! watchdog-vs-trainer interleaving can deadlock — silently, at failure
//! time, which is the one moment the system must make progress.
//!
//! The analysis extracts per-function acquisition sequences of
//! `.lock()`/`.read()`/`.write()` on named fields, merges them into a
//! workspace-wide acquisition graph keyed `crate::field`, and reports
//! every strongly-connected component with ≥ 2 locks, with one witness
//! edge per graph edge.
//!
//! Calls are followed one hop: a guard held across a call orders the
//! guard's lock before every lock the callee acquires itself (callees
//! resolved by name, unioning every same-named body so dyn-trait dispatch
//! is covered). Longer call chains, closures and locks reached through
//! values are what the runtime lock witness orders: `jitlint --witness`
//! checks the graph of lock classes the tests acquired (see
//! `crate::witness`). The companion rule `guard_across_call` flags the
//! risky shape directly: a guard held across a call into a *different
//! module* that takes locks of its own — narrow the guard (clone what you
//! need, drop, then call) or suppress with a reason.
//!
//! Within one function a pair is ordered only when it nests: a guard
//! still live where the later lock is taken. A statement temporary or a
//! guard dropped before the next acquisition orders nothing. Suppress a
//! specific acquisition with `// jitlint::allow(lock_order): <reason>`.

use super::body::{condvar_names, Body};
use crate::report::Finding;
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Rule name used in findings and allow directives.
pub(crate) const RULE: &str = "lock_order";
/// Rule name for guards held across calls into other locking modules.
pub(crate) const ACROSS_CALL: &str = "guard_across_call";

/// Method names too common to attribute by bare name: `map.len()` is not
/// `Store::len()`, `mail.inbox.get(..)` is not `SharedStore::get()`, and
/// `Arc::new` is not any workspace constructor. Resolving these by name
/// would add the locks of every same-named function at every call site,
/// flooding the graph with phantom edges (and phantom cycles), so they
/// are not resolved. What such a call really locks is ordered by the
/// lock witness (`--witness`), which needs no name.
const UBIQUITOUS_METHODS: &[&str] = &[
    "new",
    "default",
    "with_capacity",
    "from",
    "into",
    "to_string",
    "to_vec",
    "unwrap_or_else",
    "map",
    "and_then",
    "ok_or_else",
    "len",
    "is_empty",
    "clear",
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "next",
    "clone",
    "drain",
    "retain",
    "extend",
    "keys",
    "values",
    "entry",
    "take",
    "replace",
    "append",
    "sort",
    "first",
    "last",
    "split_off",
];

/// Sync-primitive method names that must not resolve through the call
/// graph: `x.lock()` is already modeled as a *direct acquisition* of
/// `x` by the caller (ACQ_PATTERNS), so resolving it by bare name to the
/// instrumented wrapper in `simcore::sync` would double-count the
/// acquisition and misattribute it to the wrapper's internal field.
const LOCK_PRIMITIVES: &[&str] = &[
    "lock",
    "try_lock",
    "read",
    "write",
    "try_read",
    "try_write",
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_while",
    "notify_one",
    "notify_all",
];

/// A witness that `from` was acquired before `to` in some function.
#[derive(Debug, Clone)]
pub(crate) struct EdgeWitness {
    /// Acquired-first node (`crate::field`).
    pub from: String,
    /// Acquired-later node (`crate::field`).
    pub to: String,
    /// File containing the witness function.
    pub file: PathBuf,
    /// Function containing both acquisitions.
    pub function: String,
    /// Line of the later acquisition (for a call, the call site that
    /// reaches the later lock).
    pub to_line: usize,
}

/// Builds the acquisition graph and, along the way, reports
/// `guard_across_call` findings.
fn build_graph(
    files: &[SourceFile],
    findings: &mut Vec<Finding>,
) -> BTreeMap<(String, String), EdgeWitness> {
    let condvars = condvar_names(files);
    let mut edges: BTreeMap<(String, String), EdgeWitness> = BTreeMap::new();

    /// A call made while guards are live.
    struct CallFact {
        callee: String,
        receiver: Option<String>,
        method: bool,
        qualifier: Option<String>,
        line: usize,
        /// Guards live across the call: (node, binding name).
        live: Vec<(String, Option<String>)>,
    }
    struct FnFacts {
        file_idx: usize,
        span_idx: usize,
        /// Direct acquisitions as graph nodes (lintable sites only).
        direct: BTreeSet<String>,
        calls: Vec<CallFact>,
    }
    let mut facts: Vec<FnFacts> = Vec::new();
    // Callee name → indices into `facts` (dyn dispatch: union all).
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();

    for (file_idx, file) in files.iter().enumerate() {
        for (span_idx, span) in file.functions.iter().enumerate() {
            let body = Body::build(file, span, &condvars);

            // Guards live at `offset` whose lock is lintable: (node, binding).
            let live_at = |offset: usize| -> Vec<(String, Option<String>)> {
                body.live_guards_at(offset)
                    .iter()
                    .filter(|g| {
                        g.line > 0
                            && !file.is_test_line(g.line)
                            && file.allowed(RULE, g.line).is_none()
                    })
                    .filter_map(|g| {
                        g.field
                            .as_ref()
                            .map(|f| (format!("{}::{f}", file.crate_dir), g.name.clone()))
                    })
                    .collect()
            };

            // Lintable acquisitions → intra-function edges, each from a
            // guard still live where the later lock is taken.
            let mut direct: BTreeSet<String> = BTreeSet::new();
            for acq in &body.acquisitions {
                let Some(field) = &acq.field else { continue };
                if file.is_test_line(acq.line) || file.allowed(RULE, acq.line).is_some() {
                    continue;
                }
                let node = format!("{}::{field}", file.crate_dir);
                for (held, _) in live_at(acq.offset) {
                    if held == node {
                        continue;
                    }
                    edges
                        .entry((held.clone(), node.clone()))
                        .or_insert_with(|| EdgeWitness {
                            from: held,
                            to: node.clone(),
                            file: file.rel_path.clone(),
                            function: qualified(span.impl_type.as_deref(), &span.name),
                            to_line: acq.line,
                        });
                }
                direct.insert(node);
            }

            // Call sites with the guards live across them.
            let mut calls: Vec<CallFact> = Vec::new();
            for call in &body.calls {
                if file.is_test_line(call.line)
                    || LOCK_PRIMITIVES.contains(&call.name.as_str())
                    || UBIQUITOUS_METHODS.contains(&call.name.as_str())
                    // A method chained on the acquisition itself operates
                    // on the locked data; its type is invisible here, so
                    // name resolution would union unrelated functions.
                    // The runtime witness orders whatever it really takes.
                    || call.chained_on_lock
                {
                    continue;
                }
                let live = live_at(call.offset);
                if live.is_empty() {
                    continue;
                }
                calls.push(CallFact {
                    callee: call.name.clone(),
                    receiver: call.receiver.clone(),
                    method: call.method,
                    // `Self::f(…)` names the caller's own `impl` type.
                    qualifier: match call.qualifier.as_deref() {
                        Some("Self") => span.impl_type.clone(),
                        _ => call.qualifier.clone(),
                    },
                    line: call.line,
                    live,
                });
            }

            let idx = facts.len();
            facts.push(FnFacts {
                file_idx,
                span_idx,
                direct,
                calls,
            });
            by_name.entry(span.name.clone()).or_default().push(idx);
        }
    }

    // Name resolution: every same-named function (dyn dispatch unions
    // all impls), except `Type::method(…)` calls, which only match
    // functions inside `impl Type` (`Self` being the caller's), and
    // `x.method(…)` calls, which only match functions inside an `impl`
    // or `trait` block.
    let resolve = |call: &CallFact| -> Vec<usize> {
        by_name
            .get(&call.callee)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&j| {
                let span = &files[facts[j].file_idx].functions[facts[j].span_idx];
                match &call.qualifier {
                    Some(q) => span.impl_type.as_deref() == Some(q.as_str()),
                    None => !call.method || span.method,
                }
            })
            .collect()
    };

    // One-hop edges + guard_across_call findings.
    let mut flagged: BTreeSet<(PathBuf, usize)> = BTreeSet::new();
    for f in &facts {
        let file = &files[f.file_idx];
        let span = &file.functions[f.span_idx];
        for call in &f.calls {
            let (callee, receiver, call_line, live) =
                (&call.callee, &call.receiver, &call.line, &call.live);
            let mut reaches: BTreeSet<String> = BTreeSet::new();
            let mut cross_module = false;
            for j in resolve(call) {
                let tf = &files[facts[j].file_idx];
                if facts[j].direct.is_empty() {
                    continue;
                }
                reaches.extend(facts[j].direct.iter().cloned());
                if tf.crate_dir != file.crate_dir || tf.module != file.module {
                    cross_module = true;
                }
            }
            if reaches.is_empty() {
                continue;
            }
            for (guard_node, _) in live {
                for node in &reaches {
                    if node == guard_node {
                        continue;
                    }
                    let key = (guard_node.clone(), node.clone());
                    edges.entry(key).or_insert_with(|| EdgeWitness {
                        from: guard_node.clone(),
                        to: node.clone(),
                        file: file.rel_path.clone(),
                        function: qualified(span.impl_type.as_deref(), &span.name),
                        to_line: *call_line,
                    });
                }
            }
            // The finding itself: only for library code, only for calls
            // that leave the module, one per call line.
            if file.kind != FileKind::Lib || !cross_module {
                continue;
            }
            // A method on the guard itself (`g.health()`) operates on
            // already-locked data; only guards *other* than the
            // receiver count as held across the call.
            let held: Vec<&(String, Option<String>)> = live
                .iter()
                .filter(|(_, name)| !(name.is_some() && name.as_deref() == receiver.as_deref()))
                .collect();
            let held_elsewhere = held.iter().any(|(g, _)| reaches.iter().any(|n| n != g));
            if !held_elsewhere {
                continue;
            }
            if file.allowed(ACROSS_CALL, *call_line).is_some() {
                continue;
            }
            if !flagged.insert((file.rel_path.clone(), *call_line)) {
                continue;
            }
            findings.push(Finding {
                rule: ACROSS_CALL.into(),
                file: file.rel_path.clone(),
                line: *call_line,
                message: format!(
                    "guard on `{}` held across call to `{callee}` which \
                     may acquire {{{}}} — long holds across locking \
                     modules invite deadlock; narrow the guard (copy \
                     what you need, drop, then call)",
                    held.iter()
                        .map(|(g, _)| g.as_str())
                        .collect::<Vec<_>>()
                        .join("`, `"),
                    reaches
                        .iter()
                        .filter(|n| !held.iter().any(|(g, _)| &g == n))
                        .map(|n| format!("`{n}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }

    edges
}

fn qualified(impl_type: Option<&str>, name: &str) -> String {
    match impl_type {
        Some(t) => format!("{t}::{name}"),
        None => name.to_string(),
    }
}

/// Builds the acquisition graph over all files and reports cycles plus
/// `guard_across_call` findings.
pub(crate) fn check(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let edges = build_graph(files, findings);

    for cycle in find_cycles(&edges) {
        let parts: Vec<String> = cycle
            .iter()
            .map(|w| {
                format!(
                    "`{}` then `{}` in {} ({}:{})",
                    w.from,
                    w.to,
                    w.function,
                    w.file.display(),
                    w.to_line
                )
            })
            .collect();
        let first = &cycle[0];
        findings.push(Finding {
            rule: RULE.into(),
            file: first.file.clone(),
            line: first.to_line,
            message: format!(
                "lock-order cycle between {{{}}} — potential watchdog/trainer deadlock: {}",
                cycle
                    .iter()
                    .map(|w| format!("`{}`", w.from))
                    .collect::<Vec<_>>()
                    .join(", "),
                parts.join("; ")
            ),
        });
    }
}

/// Computes SCCs (iterative Tarjan) over the `(from, to)` keys of
/// `edges` and returns one representative cycle of edge witnesses per SCC
/// with ≥ 2 nodes.
pub(crate) fn find_cycles<W: Clone>(edges: &BTreeMap<(String, String), W>) -> Vec<Vec<W>> {
    let mut nodes: BTreeSet<&String> = BTreeSet::new();
    for (a, b) in edges.keys() {
        nodes.insert(a);
        nodes.insert(b);
    }
    let names: Vec<&String> = nodes.iter().copied().collect();
    let index_of: BTreeMap<&String, usize> =
        names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let n = names.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in edges.keys() {
        adj[index_of[a]].push(index_of[b]);
    }

    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next-child cursor).
    let mut call: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        call.push((root, 0));
        while let Some(&(v, cursor)) = call.last() {
            if cursor == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if cursor < adj[v].len() {
                if let Some(frame) = call.last_mut() {
                    frame.1 += 1;
                }
                let w = adj[v][cursor];
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if scc.len() > 1 {
                        sccs.push(scc);
                    }
                }
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }

    // For each SCC, follow in-SCC edges from its smallest node until a
    // node repeats; the repeated suffix is a concrete cycle.
    let mut out = Vec::new();
    for scc in sccs {
        let members: BTreeSet<usize> = scc.iter().copied().collect();
        let Some(&start) = scc.iter().min() else {
            continue;
        };
        let mut path = vec![start];
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        seen.insert(start);
        let mut cur = start;
        // The find() returning None is unreachable for a true SCC; ending
        // the walk there is defensive.
        while let Some(next) = adj[cur].iter().copied().find(|w| members.contains(w)) {
            if seen.contains(&next) {
                let Some(from_pos) = path.iter().position(|&p| p == next) else {
                    break;
                };
                let cycle_nodes: Vec<usize> =
                    path[from_pos..].iter().copied().chain([next]).collect();
                let mut witnesses = Vec::new();
                for pair in cycle_nodes.windows(2) {
                    let key = (names[pair[0]].clone(), names[pair[1]].clone());
                    if let Some(w) = edges.get(&key) {
                        witnesses.push(w.clone());
                    }
                }
                if !witnesses.is_empty() {
                    out.push(witnesses);
                }
                break;
            }
            seen.insert(next);
            path.push(next);
            cur = next;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_dir: &str, module: &str, text: &str) -> SourceFile {
        SourceFile::parse(
            PathBuf::from(format!("crates/{crate_dir}/src/{module}.rs")),
            crate_dir.into(),
            module.into(),
            text,
        )
    }

    #[test]
    fn interprocedural_edge_closes_a_cycle() {
        // a() holds `x` across a call to b() (another module) which locks
        // `y`; c() locks `y` then `x` directly. Neither function alone
        // has both locks — only the propagated edge exposes the cycle.
        let f1 = file(
            "core",
            "a",
            "impl A {\n    fn outer(&self) {\n        let g = self.x.lock();\n        helper_b(g);\n    }\n}\n",
        );
        let f2 = file(
            "core",
            "b",
            "fn helper_b(g: G) {\n    let h = self2.y.lock();\n}\n",
        );
        let f3 = file(
            "core",
            "c",
            "fn other() {\n    let h = self3.y.lock();\n    let g = self3.x.lock();\n}\n",
        );
        let mut findings = Vec::new();
        check(&[f1, f2, f3], &mut findings);
        assert!(
            findings.iter().any(|f| f.rule == RULE),
            "expected interprocedural cycle, got: {findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.rule == ACROSS_CALL),
            "expected guard_across_call, got: {findings:?}"
        );
    }

    #[test]
    fn a_trait_default_body_is_a_method_call_candidate() {
        // Method syntax resolves only to `impl` and `trait` functions; a
        // trait's default body is one, so the guard held across
        // `exec.all_reduce_bucket()` is ordered before the lock it takes.
        let f1 = file(
            "core",
            "a",
            "impl A {\n    fn outer(&self) {\n        let g = self.x.lock();\n        self.exec.all_reduce_bucket(g);\n    }\n}\n",
        );
        let f2 = file(
            "proxy",
            "executor",
            "pub trait Executor {\n    fn all_reduce_bucket(&mut self, g: G) {\n        let h = self.y.lock();\n    }\n}\n",
        );
        let mut findings = Vec::new();
        check(&[f1, f2], &mut findings);
        assert!(
            findings.iter().any(|f| f.rule == ACROSS_CALL),
            "expected guard_across_call, got: {findings:?}"
        );
    }

    #[test]
    fn same_module_helper_call_not_flagged() {
        let f1 = file(
            "core",
            "a",
            "impl A {\n    fn outer(&self) {\n        let g = self.x.lock();\n        self.helper(g);\n    }\n    fn helper(&self, g: G) {\n        let h = self.y.lock();\n    }\n}\n",
        );
        let mut findings = Vec::new();
        check(std::slice::from_ref(&f1), &mut findings);
        assert!(
            findings.iter().all(|f| f.rule != ACROSS_CALL),
            "same-module helpers are the normal split pattern: {findings:?}"
        );
    }
}
