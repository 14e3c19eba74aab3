//! The three call-graph-backed rule families: `hot-path-alloc` (workspace
//! reachability from the serving roots), `atomic-ordering` and
//! `lock-discipline` (per-file, configured by `lint.toml`).
//!
//! All three are deny-by-default. Escapes are the usual inline
//! `goalrec-lint:allow` directive (applied later by the engine), the
//! `lint.toml` allowlist, and — for `hot-path-alloc` only — a *cold-mark*:
//! a justified `goalrec-lint:allow(hot-path-alloc)` directive on the line
//! of (or directly above) an `fn` takes the whole function out of the hot
//! set, so the analyzer neither flags its body nor traverses its calls.
//! Cold-marks are for control-plane functions (admin reload, debug
//! snapshots, error formatting); site-level suppressions are for
//! documented one-off allocations.

use crate::config::{AtomicEntry, LockOrderEntry};
use crate::graph::{matching_brace, CallGraph};
use crate::lexer::{Lexed, Tok, Token};
use crate::rules::{Finding, ATOMIC_ORDERING, HOT_PATH_ALLOC, LOCK_DISCIPLINE};

fn ident(t: Option<&Token>) -> Option<&str> {
    match t {
        Some(Token {
            tok: Tok::Ident(s), ..
        }) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: Option<&Token>, c: char) -> bool {
    matches!(t, Some(Token { tok: Tok::Punct(p), .. }) if *p == c)
}

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

/// Whether a def is a serving-path root: `Strategy::rank_into` impls, the
/// recommender's arena entry points, the router dispatcher, and the pool
/// worker loop.
fn is_root(d: &crate::graph::FnDef) -> bool {
    match d.name.as_str() {
        "rank_into" => d.trait_name.as_deref() == Some("Strategy"),
        "recommend_into" => d.receiver.as_deref() == Some("GoalRecommender"),
        "handle" => d.receiver.is_none() && d.file.ends_with("router.rs"),
        "worker_loop" => true,
        _ => false,
    }
}

/// Whether a def carries a cold-mark: a justified
/// `goalrec-lint:allow(hot-path-alloc)` directive on its `fn` line or the
/// line directly above.
fn is_cold(d: &crate::graph::FnDef, lexed: &Lexed) -> bool {
    lexed.suppressions.iter().any(|s| {
        !s.justification.is_empty()
            && s.rules.iter().any(|r| r == HOT_PATH_ALLOC)
            && (s.line == d.line || s.line + 1 == d.line)
    })
}

/// Allocation-idiom macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];
/// Blocking-output macros.
const BLOCKING_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];
/// `Qualifier::method` allocation constructors.
const ALLOC_QUALIFIED: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("VecDeque", "new"),
    ("Box", "new"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("String", "new"),
    ("String", "from"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
];
/// `Qualifier::method` blocking calls (file IO, sleeps).
const BLOCKING_QUALIFIED: &[(&str, &str)] = &[
    ("thread", "sleep"),
    ("File", "open"),
    ("File", "create"),
    ("OpenOptions", "new"),
];
/// Allocating method calls (`.x(…)` form).
const ALLOC_METHODS: &[&str] = &["to_string", "collect", "clone"];

/// One allocation/blocking site: line plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// e.g. "`format!` allocates".
    pub what: String,
}

/// Scans a body token range for allocation and blocking sites.
pub fn alloc_sites(toks: &[Token], body: (usize, usize)) -> Vec<Site> {
    let (open, close) = body;
    let mut out = Vec::new();
    let mut k = open + 1;
    while k < close {
        let Some(name) = ident(toks.get(k)) else {
            k += 1;
            continue;
        };
        let line = toks[k].line;
        if is_punct(toks.get(k + 1), '!') {
            if ALLOC_MACROS.contains(&name) {
                out.push(Site {
                    line,
                    what: format!("`{name}!` allocates"),
                });
            } else if BLOCKING_MACROS.contains(&name) {
                out.push(Site {
                    line,
                    what: format!("`{name}!` blocks on stdio"),
                });
            }
        } else if is_punct(toks.get(k + 1), ':')
            && is_punct(toks.get(k + 2), ':')
            && ident(toks.get(k + 3)).is_some()
            && is_punct(toks.get(k + 4), '(')
        {
            let method = ident(toks.get(k + 3)).unwrap_or_default();
            if ALLOC_QUALIFIED.contains(&(name, method)) {
                out.push(Site {
                    line,
                    what: format!("`{name}::{method}` allocates"),
                });
            } else if BLOCKING_QUALIFIED.contains(&(name, method)) || name == "fs" {
                out.push(Site {
                    line,
                    what: format!("`{name}::{method}` blocks"),
                });
            }
            k += 3; // past the method ident; its own scan would double-count
        } else if is_punct(toks.get(k + 1), '(')
            && k > open
            && is_punct(toks.get(k - 1), '.')
            && ALLOC_METHODS.contains(&name)
            && !(k >= 2 && is_punct(toks.get(k - 2), ':'))
        {
            let what = if name == "clone" {
                "`.clone()` allocates when the receiver owns its data (use \
                 `Arc::clone(&x)` for ref-count bumps)"
                    .to_owned()
            } else {
                format!("`.{name}()` allocates")
            };
            out.push(Site { line, what });
        }
        k += 1;
    }
    out
}

/// Runs `hot-path-alloc` over the whole workspace: BFS from the serving
/// roots (cold-marked defs block traversal), then flag every
/// allocation/blocking site inside a reached body, each finding carrying
/// its root → … → site trace.
///
/// Returns the cold-marks that did something — (file, `fn` line) of each
/// cold-marked def that is a root or is called from a reached def — so
/// the engine does not report their directives as stale.
pub fn hot_path_alloc(
    graph: &CallGraph,
    files: &[(String, Lexed)],
    findings: &mut Vec<Finding>,
) -> Vec<(String, u32)> {
    let lexed_of: std::collections::BTreeMap<&str, &Lexed> =
        files.iter().map(|(r, l)| (r.as_str(), l)).collect();
    let cold: Vec<bool> = graph
        .defs
        .iter()
        .map(|d| is_cold(d, lexed_of[d.file.as_str()]))
        .collect();
    let roots: Vec<usize> = (0..graph.defs.len())
        .filter(|&i| is_root(&graph.defs[i]))
        .collect();
    if roots.is_empty() {
        return Vec::new();
    }
    let reach = graph.reach(&roots, &|i| cold[i]);
    let mut blocking = vec![false; cold.len()];
    for &r in &roots {
        blocking[r] = cold[r];
    }
    for (u, edges) in graph.edges.iter().enumerate() {
        if reach.reached(u) {
            for &(v, _) in edges {
                blocking[v] |= cold[v];
            }
        }
    }
    for i in 0..graph.defs.len() {
        if !reach.reached(i) {
            continue;
        }
        let d = &graph.defs[i];
        let Some(body) = d.body else { continue };
        let lexed = lexed_of[d.file.as_str()];
        let trace: Vec<String> = reach
            .path_to(i)
            .into_iter()
            .map(|j| {
                let dj = &graph.defs[j];
                format!("{} ({}:{})", dj.name, dj.file, dj.line)
            })
            .collect();
        for site in alloc_sites(&lexed.tokens, body) {
            if lexed.is_test_line(site.line) {
                continue;
            }
            findings.push(Finding {
                rule: HOT_PATH_ALLOC,
                file: d.file.clone(),
                line: site.line,
                message: format!(
                    "{} on the serving hot path; trace: {}; make it arena-backed, move it \
                     off the hot path, or cold-mark the function with a justified \
                     `goalrec-lint:allow(hot-path-alloc)` directive",
                    site.what,
                    trace.join(" → ")
                ),
            });
        }
    }
    (0..graph.defs.len())
        .filter(|&i| blocking[i])
        .map(|i| (graph.defs[i].file.clone(), graph.defs[i].line))
        .collect()
}

// ---------------------------------------------------------------------------
// atomic-ordering
// ---------------------------------------------------------------------------

const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// The comment tag that justifies a memory ordering choice.
pub const ORDERING_TAG: &str = "ordering:";

/// Walks back from the `Ordering` token to the atomic operation it
/// parameterizes and extracts (receiver name, op line).
fn atomic_receiver(toks: &[Token], ordering_idx: usize) -> Option<(String, u32)> {
    let floor = ordering_idx.saturating_sub(24);
    let mut p = ordering_idx;
    while p > floor {
        p -= 1;
        let Some(op) = ident(toks.get(p)) else {
            continue;
        };
        if !ATOMIC_OPS.contains(&op) || !is_punct(toks.get(p + 1), '(') {
            continue;
        }
        if p == 0 || !is_punct(toks.get(p - 1), '.') {
            continue;
        }
        let op_line = toks[p].line;
        // Receiver: the identifier before the dot, hopping over one
        // balanced index/call group if present.
        let mut r = p - 1;
        if r > 0 && (is_punct(toks.get(r - 1), ']') || is_punct(toks.get(r - 1), ')')) {
            let (close, open) = if is_punct(toks.get(r - 1), ']') {
                (']', '[')
            } else {
                (')', '(')
            };
            let mut depth = 1usize;
            r -= 1;
            while r > 0 && depth > 0 {
                r -= 1;
                if is_punct(toks.get(r), close) {
                    depth += 1;
                } else if is_punct(toks.get(r), open) {
                    depth -= 1;
                }
            }
        }
        let name = if r > 0 { ident(toks.get(r - 1)) } else { None };
        return Some((name.unwrap_or("<expr>").to_owned(), op_line));
    }
    None
}

/// Line of the first token of the statement containing `idx` — the token
/// after the nearest preceding `;`, `{` or `}`.
fn stmt_start_line(toks: &[Token], idx: usize) -> u32 {
    let mut p = idx;
    while p > 0 {
        let t = toks.get(p - 1);
        if is_punct(t, ';') || is_punct(t, '{') || is_punct(t, '}') {
            break;
        }
        p -= 1;
    }
    toks.get(p).map_or(0, |t| t.line)
}

/// Runs `atomic-ordering` over one file.
pub fn atomic_ordering(
    file: &str,
    lexed: &Lexed,
    registry: &[AtomicEntry],
    findings: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ident(Some(t)) != Some("Ordering")
            || !is_punct(toks.get(i + 1), ':')
            || !is_punct(toks.get(i + 2), ':')
        {
            continue;
        }
        let Some(variant) = ident(toks.get(i + 3)) else {
            continue;
        };
        if !ORDERING_VARIANTS.contains(&variant) || lexed.is_test_line(t.line) {
            continue;
        }
        let line = t.line;
        let receiver = atomic_receiver(toks, i);
        if variant == "SeqCst" {
            findings.push(Finding {
                rule: ATOMIC_ORDERING,
                file: file.to_owned(),
                line,
                message: "`Ordering::SeqCst` is deny-by-default: almost every use is a \
                          stronger-than-needed default. Use Acquire/Release (or Relaxed for \
                          pure counters) with an `// ordering:` comment, or suppress with a \
                          justification for a genuine total-order requirement"
                    .to_owned(),
            });
            continue;
        }
        if variant == "Relaxed" {
            if let Some((name, _)) = &receiver {
                if let Some(entry) = registry.iter().find(|e| e.path == file && &e.name == name) {
                    findings.push(Finding {
                        rule: ATOMIC_ORDERING,
                        file: file.to_owned(),
                        line,
                        message: format!(
                            "`Ordering::Relaxed` on cross-thread atomic `{name}` ({}); \
                             Relaxed synchronizes nothing — use Acquire for loads and \
                             Release for stores that other threads observe",
                            entry.role
                        ),
                    });
                    continue;
                }
            }
        }
        // A justification may sit on/above the `Ordering` line, the line of
        // the atomic op, or the first line of the statement (multi-line
        // method chains put the comment above the receiver, not the op).
        let justified = lexed.has_comment_tag(line, ORDERING_TAG)
            || receiver
                .as_ref()
                .is_some_and(|(_, op_line)| lexed.has_comment_tag(*op_line, ORDERING_TAG))
            || lexed.has_comment_tag(stmt_start_line(toks, i), ORDERING_TAG);
        if !justified {
            findings.push(Finding {
                rule: ATOMIC_ORDERING,
                file: file.to_owned(),
                line,
                message: format!(
                    "`Ordering::{variant}` lacks a justification — add an \
                     `// ordering: <why this ordering is sufficient>` comment on or \
                     directly above this line"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------------

const LOCK_OPS: &[&str] = &["lock", "read", "write"];

/// Chain methods after a lock call that still bind the guard to a `let`.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];

#[derive(Debug)]
struct Acquisition {
    /// Index of the op identifier token.
    idx: usize,
    line: u32,
    label: String,
    /// Token index the guard is held through (inclusive).
    hold_until: usize,
}

/// `expr.lock()` / `.read()` / `.write()` with **no arguments** — the
/// no-arg restriction keeps `io::Read::read(&mut buf)` out.
fn find_acquisitions(toks: &[Token]) -> Vec<Acquisition> {
    let mut out = Vec::new();
    // Enclosing-block close index for every token.
    let mut stack: Vec<usize> = Vec::new();
    let mut enclosing_close: Vec<usize> = vec![toks.len().saturating_sub(1); toks.len()];
    let mut closes: Vec<usize> = Vec::new(); // parallel to stack
    for (i, t) in toks.iter().enumerate() {
        if let Tok::Punct('{') = t.tok {
            stack.push(i);
            closes.push(matching_brace(toks, i));
        } else if let Tok::Punct('}') = t.tok {
            stack.pop();
            closes.pop();
        }
        enclosing_close[i] = closes.last().copied().unwrap_or(toks.len() - 1);
    }

    for i in 0..toks.len() {
        let Some(op) = ident(toks.get(i)) else {
            continue;
        };
        if !LOCK_OPS.contains(&op)
            || i == 0
            || !is_punct(toks.get(i - 1), '.')
            || !is_punct(toks.get(i + 1), '(')
            || !is_punct(toks.get(i + 2), ')')
        {
            continue;
        }
        let label = lock_label(toks, i - 1);
        let hold_until = if is_guard_bound(toks, i) {
            enclosing_close[i]
        } else {
            // Temporary guard: held to the end of the statement. A `{` at
            // depth 0 means the statement is an `if let`/`for`/`match`
            // over the guard — the temporary lives to the end of that
            // whole expression (its block plus any `else` chain), and is
            // dropped at its close, not held into the next statement.
            let mut j = i + 3;
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].tok {
                    Tok::Punct('{') if depth == 0 => {
                        let close = matching_brace(toks, j);
                        if ident(toks.get(close + 1)) == Some("else") {
                            j = close + 1;
                        } else {
                            j = close;
                            break;
                        }
                    }
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    Tok::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            j
        };
        out.push(Acquisition {
            idx: i,
            line: toks[i].line,
            label,
            hold_until,
        });
    }
    out
}

/// Name of the lock being acquired: the identifier before the dot,
/// hopping over one balanced index/call group.
fn lock_label(toks: &[Token], dot_idx: usize) -> String {
    let mut r = dot_idx;
    while r > 0 && (is_punct(toks.get(r - 1), ']') || is_punct(toks.get(r - 1), ')')) {
        let (close, open) = if is_punct(toks.get(r - 1), ']') {
            (']', '[')
        } else {
            (')', '(')
        };
        let mut depth = 1usize;
        r -= 1;
        while r > 0 && depth > 0 {
            r -= 1;
            if is_punct(toks.get(r), close) {
                depth += 1;
            } else if is_punct(toks.get(r), open) {
                depth -= 1;
            }
        }
    }
    if r > 0 {
        if let Some(name) = ident(toks.get(r - 1)) {
            return name.to_owned();
        }
    }
    "<expr>".to_owned()
}

/// Whether the acquisition at `op_idx` binds its guard to a `let` (so the
/// guard lives to the end of the block): the statement starts with `let`
/// and the chain after the call is only guard adapters up to the `;`.
fn is_guard_bound(toks: &[Token], op_idx: usize) -> bool {
    // Statement start: scan back to `;`, `{` or `}` at balance 0.
    let mut j = op_idx;
    let mut depth = 0i32;
    let start = loop {
        if j == 0 {
            break 0;
        }
        j -= 1;
        match toks[j].tok {
            Tok::Punct(')') | Tok::Punct(']') => depth += 1,
            Tok::Punct('(') | Tok::Punct('[') => {
                if depth == 0 {
                    break j + 1;
                }
                depth -= 1;
            }
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') if depth == 0 => break j + 1,
            _ => {}
        }
    };
    if ident(toks.get(start)) != Some("let") {
        return false;
    }
    // Forward from the call's `()`: only adapter calls until the `;`.
    let mut k = op_idx + 3;
    loop {
        if is_punct(toks.get(k), ';') {
            return true;
        }
        if !is_punct(toks.get(k), '.') {
            return false;
        }
        let Some(m) = ident(toks.get(k + 1)) else {
            return false;
        };
        if !GUARD_ADAPTERS.contains(&m) || !is_punct(toks.get(k + 2), '(') {
            return false;
        }
        // Skip the adapter's balanced argument list.
        let mut depth = 1usize;
        let mut p = k + 3;
        while p < toks.len() && depth > 0 {
            match toks[p].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => depth -= 1,
                _ => {}
            }
            p += 1;
        }
        k = p;
    }
}

/// Runs `lock-discipline` over one file: every lexically nested
/// acquisition pair must appear in the declared hierarchy.
pub fn lock_discipline(
    file: &str,
    lexed: &Lexed,
    order: &[LockOrderEntry],
    findings: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    let acqs = find_acquisitions(toks);
    for outer in &acqs {
        if lexed.is_test_line(outer.line) {
            continue;
        }
        for inner in &acqs {
            if inner.idx <= outer.idx || inner.idx > outer.hold_until {
                continue;
            }
            if inner.label == outer.label {
                findings.push(Finding {
                    rule: LOCK_DISCIPLINE,
                    file: file.to_owned(),
                    line: inner.line,
                    message: format!(
                        "lock `{}` acquired while a guard on `{}` (line {}) is still \
                         held — same-label nesting risks self-deadlock and is never \
                         allowed by the hierarchy",
                        inner.label, outer.label, outer.line
                    ),
                });
            } else if !order
                .iter()
                .any(|e| e.outer == outer.label && e.inner == inner.label)
            {
                findings.push(Finding {
                    rule: LOCK_DISCIPLINE,
                    file: file.to_owned(),
                    line: inner.line,
                    message: format!(
                        "lock `{}` acquired while a guard on `{}` (line {}) is still \
                         held, but `{} → {}` is not in the declared hierarchy — add a \
                         `[[lock_order]]` entry to lint.toml or restructure to drop \
                         the outer guard first",
                        inner.label, outer.label, outer.line, outer.label, inner.label
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;
    use crate::lexer::lex;

    fn hot_findings(files: &[(&str, &str)]) -> Vec<(String, u32)> {
        let lexed: Vec<(String, Lexed)> = files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), lex(s)))
            .collect();
        let g = graph::build(&lexed);
        let mut out = Vec::new();
        hot_path_alloc(&g, &lexed, &mut out);
        out.into_iter().map(|f| (f.file, f.line)).collect()
    }

    #[test]
    fn allocations_are_flagged_transitively_with_a_trace() {
        let src = "\
trait Strategy { fn rank_into(&self); }
struct Best;
impl Strategy for Best {
    fn rank_into(&self) { helper(); }
}
fn helper() {
    let _ = format!(\"x\");
}
fn unreached() { let _ = format!(\"y\"); }
";
        let got = hot_findings(&[("crates/core/src/s.rs", src)]);
        assert_eq!(got, vec![("crates/core/src/s.rs".to_owned(), 7)]);

        // The trace names the full chain.
        let lexed = vec![("crates/core/src/s.rs".to_owned(), lex(src))];
        let g = graph::build(&lexed);
        let mut fs = Vec::new();
        hot_path_alloc(&g, &lexed, &mut fs);
        assert!(
            fs[0]
                .message
                .contains("rank_into (crates/core/src/s.rs:4) → helper"),
            "got: {}",
            fs[0].message
        );
    }

    #[test]
    fn cold_marks_sever_traversal() {
        let src = "\
fn worker_loop() { control(); }
// goalrec-lint:allow(hot-path-alloc): admin control plane, not serving
fn control() { let _ = format!(\"x\"); deeper(); }
fn deeper() { let _ = vec![1]; }
";
        assert!(hot_findings(&[("crates/server/src/pool.rs", src)]).is_empty());
    }

    #[test]
    fn blocking_calls_are_flagged() {
        let src = "\
fn worker_loop() {
    std::thread::sleep(d);
    println!(\"x\");
}
";
        let got = hot_findings(&[("crates/server/src/pool.rs", src)]);
        assert_eq!(
            got,
            vec![
                ("crates/server/src/pool.rs".to_owned(), 2),
                ("crates/server/src/pool.rs".to_owned(), 3)
            ]
        );
    }

    #[test]
    fn arc_clone_qualified_form_is_not_a_site() {
        let src = "\
fn worker_loop(x: &std::sync::Arc<u32>) {
    let _a = std::sync::Arc::clone(x);
    let _b = x.clone();
}
";
        let got = hot_findings(&[("crates/server/src/pool.rs", src)]);
        assert_eq!(got, vec![("crates/server/src/pool.rs".to_owned(), 3)]);
    }

    fn atomic_findings(src: &str, registry: &[AtomicEntry]) -> Vec<u32> {
        let lexed = lex(src);
        let mut out = Vec::new();
        atomic_ordering("crates/x/src/a.rs", &lexed, registry, &mut out);
        out.into_iter().map(|f| f.line).collect()
    }

    #[test]
    fn seqcst_is_always_flagged_and_comments_justify_the_rest() {
        let src = "\
fn f(a: &std::sync::atomic::AtomicU64) {
    a.store(1, Ordering::SeqCst); // ordering: comment does not save SeqCst
    // ordering: release pairs with the acquire load in g()
    a.store(2, Ordering::Release);
    a.store(3, Ordering::Release);
}
";
        assert_eq!(atomic_findings(src, &[]), vec![2, 5]);
    }

    #[test]
    fn relaxed_on_registered_cross_thread_atomic_is_flagged() {
        let registry = vec![AtomicEntry {
            name: "SHUTDOWN".to_owned(),
            path: "crates/x/src/a.rs".to_owned(),
            role: "signal handler → worker flag".to_owned(),
        }];
        let src = "\
fn f() {
    // ordering: comment cannot excuse a registered cross-thread flag
    SHUTDOWN.store(true, Ordering::Relaxed);
    // ordering: pure local counter
    OTHER.fetch_add(1, Ordering::Relaxed);
}
";
        assert_eq!(atomic_findings(src, &registry), vec![3]);
    }

    #[test]
    fn multi_line_atomic_calls_find_the_justification() {
        let src = "\
fn f(a: &A) {
    // ordering: relaxed gauge, no synchronization carried
    a.inner
        .fetch_add(1, Ordering::Relaxed);
}
";
        assert_eq!(atomic_findings(src, &[]), Vec::<u32>::new());
    }

    fn lock_findings(src: &str, order: &[LockOrderEntry]) -> Vec<u32> {
        let lexed = lex(src);
        let mut out = Vec::new();
        lock_discipline("crates/x/src/a.rs", &lexed, order, &mut out);
        out.into_iter().map(|f| f.line).collect()
    }

    #[test]
    fn nested_acquisition_needs_a_declared_pair() {
        let src = "\
fn f(a: &M, b: &M) {
    let g = a.lock().unwrap();
    let h = b.lock().unwrap();
    drop(h);
    drop(g);
}
";
        assert_eq!(lock_findings(src, &[]), vec![3]);
        let order = vec![LockOrderEntry {
            outer: "a".to_owned(),
            inner: "b".to_owned(),
            reason: "a guards b".to_owned(),
        }];
        assert_eq!(lock_findings(src, &order), Vec::<u32>::new());
        // The reverse order is not declared.
        let rev = "\
fn f(a: &M, b: &M) {
    let h = b.lock().unwrap();
    let g = a.lock().unwrap();
}
";
        assert_eq!(lock_findings(rev, &order), vec![3]);
    }

    #[test]
    fn temporary_guards_do_not_hold_past_their_statement() {
        let src = "\
fn f(a: &M, b: &M) {
    let n = a.lock().unwrap().len();
    let g = b.lock().unwrap();
}
";
        assert_eq!(lock_findings(src, &[]), Vec::<u32>::new());
    }

    #[test]
    fn scrutinee_guards_drop_at_their_expressions_close() {
        // The read-then-upgrade idiom: the `if let` scrutinee guard is
        // dropped when the if-let (with no else) closes, so the write
        // lock after it is NOT nested. A `for` over a guard likewise
        // releases at the loop's close.
        let src = "\
fn f(map: &RwLock<M>) {
    if let Some(v) = map.read().unwrap().get(k) {
        return v.clone();
    }
    let mut w = map.write().unwrap();
    for x in map.read().unwrap().iter() {
        use_it(x);
    }
}
fn g(map: &RwLock<M>, other: &RwLock<M>) {
    if let Some(v) = map.read().unwrap().get(k) {
        noop();
    } else {
        let w = other.lock().unwrap();
    }
}
";
        // In `f` the only overlap is `w` (held to block close) vs the
        // `for` read on `map` — same label, line 6. In `g` the guard is
        // still live in the `else` arm (the classic 2021 footgun), so
        // the nested `other.lock()` needs a declared pair.
        assert_eq!(lock_findings(src, &[]), vec![6, 14]);
    }

    #[test]
    fn arg_taking_read_write_calls_are_not_acquisitions() {
        let src = "\
fn f(stream: &mut S, l: &L) {
    let g = l.read().unwrap();
    stream.read(&mut buf);
    stream.write(&data);
}
";
        assert_eq!(lock_findings(src, &[]), Vec::<u32>::new());
    }

    #[test]
    fn indexed_lock_labels_use_the_collection_name() {
        let src = "\
fn f(&self) {
    let s = self.stripes[i % N].lock().unwrap();
    let t = self.stripes[j].lock().unwrap();
}
";
        // Same label → always a finding.
        assert_eq!(lock_findings(src, &[]), vec![3]);
    }
}
