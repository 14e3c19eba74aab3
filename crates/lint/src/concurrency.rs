//! The two concurrency rules, both per-file and configured by
//! `lint.toml`: `atomic-ordering` (every memory ordering is justified,
//! registered cross-thread flags never use `Relaxed`) and
//! `lock-discipline` (nested lock acquisition follows the declared
//! hierarchy). Both are deny-by-default; escapes are the usual inline
//! `goalrec-lint:allow` directive (applied by the engine) and the
//! `lint.toml` allowlist.

use crate::config::{AtomicEntry, LockOrderEntry};
use crate::lexer::{ident, is_punct, Lexed, Tok, Token};
use crate::rules::{Finding, ATOMIC_ORDERING, LOCK_DISCIPLINE};

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
const ORDERING_TAG: &str = "ordering:";

/// The name an atomic op or lock call is made on: the identifier before
/// the `.` at `dot_idx`, hopping over balanced index/call groups
/// (`self.stripes[i].lock()` → `stripes`), or `<expr>` when there is none.
fn receiver_name(toks: &[Token], dot_idx: usize) -> String {
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
        return Some((receiver_name(toks, p - 1), toks[p].line));
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
pub(crate) fn atomic_ordering(
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

/// Index of the `}` matching the `{` at `open` (or the stream end).
fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 1usize;
    let mut i = open + 1;
    while i < toks.len() && depth > 0 {
        match toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    i - 1
}

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
        let label = receiver_name(toks, i - 1);
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
pub(crate) fn lock_discipline(
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
    use crate::lexer::lex;

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
