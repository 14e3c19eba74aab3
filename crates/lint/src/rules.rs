//! The lint rules and the finding type.
//!
//! Severity is deny-by-default: every hit is a finding unless covered by a
//! justified inline suppression or a `lint.toml` allowlist entry. Rules are
//! purely token-based (see [`crate::lexer`]) so they cannot be fooled by
//! matches inside comments or string literals.

use crate::lexer::{Lexed, Tok, Token};
use std::collections::BTreeSet;

/// Rule id: no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`/`dbg!`
/// in non-test library-crate code.
pub const NO_PANIC_PATHS: &str = "no-panic-paths";
/// Rule id: no raw `as u32`/`as usize` casts in files that import the id
/// newtypes.
pub const RAW_ID_CAST: &str = "raw-id-cast";
/// Rule id: metric names must come from the central registry and stay in
/// sync with the README.
pub const METRIC_NAME_REGISTRY: &str = "metric-name-registry";
/// Rule id: no allocation or blocking call reachable from the serving
/// hot-path roots (see [`crate::callgraph`]).
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule id: every `Ordering::*` use carries an `// ordering:` justification
/// comment; `SeqCst` is deny-by-default; `Relaxed` on registered
/// cross-thread atomics is flagged.
pub const ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule id: nested lock acquisition must match the `[[lock_order]]`
/// hierarchy declared in `lint.toml`.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Rule id: every `unsafe` keyword in non-test library-crate code carries
/// a `// safety:` justification comment (or a rustdoc `# Safety` section
/// for `unsafe fn` contracts).
pub const JUSTIFIED_UNSAFE: &str = "justified-unsafe";
/// Pseudo-rule for malformed `goalrec-lint:allow` directives. Not
/// suppressible and not allowlistable.
pub const SUPPRESSION_FORMAT: &str = "suppression-format";

/// The suppressible/allowlistable rules.
pub const RULES: &[&str] = &[
    NO_PANIC_PATHS,
    RAW_ID_CAST,
    METRIC_NAME_REGISTRY,
    HOT_PATH_ALLOC,
    ATOMIC_ORDERING,
    LOCK_DISCIPLINE,
    JUSTIFIED_UNSAFE,
];

/// Library crates whose `src/` trees are held to the panic-free and
/// newtype-cast invariants (binaries — `cli`, `bench`, `lint` — may abort).
/// `server` ships a binary too, but its request path must never panic, so it
/// is held to the library bar.
pub const LIBRARY_CRATES: &[&str] = &[
    "baselines",
    "core",
    "datasets",
    "eval",
    "faults",
    "obs",
    "server",
    "textmine",
];

/// Workspace-relative path of the central metric-name registry.
pub const METRIC_REGISTRY_PATH: &str = "crates/obs/src/names.rs";

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

fn in_lib_crate_src(path: &str) -> bool {
    LIBRARY_CRATES.iter().any(|c| {
        path.strip_prefix("crates/")
            .and_then(|p| p.strip_prefix(c))
            .is_some_and(|p| p.starts_with("/src/"))
    })
}

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

/// Runs every per-file source rule on one lexed file.
pub fn source_rules(path: &str, lexed: &Lexed, namespaces: &BTreeSet<String>) -> Vec<Finding> {
    let mut findings = Vec::new();
    no_panic_paths(path, lexed, &mut findings);
    raw_id_cast(path, lexed, &mut findings);
    metric_literals(path, lexed, namespaces, &mut findings);
    justified_unsafe(path, lexed, &mut findings);
    findings
}

/// The comment tag that justifies an `unsafe` block, fn or impl. Matched
/// case-insensitively so both `// safety: …` and the rustdoc-conventional
/// `// SAFETY: …` / `/// # Safety` forms count.
pub const SAFETY_TAG: &str = "safety:";

fn annotated_with_safety(lexed: &Lexed, line: u32) -> bool {
    lexed.comments.iter().any(|c| {
        if !c.annotates(line) {
            return false;
        }
        let text = c.text.to_ascii_lowercase();
        text.contains(SAFETY_TAG) || text.contains("# safety")
    })
}

/// Line of the first token of the statement/item containing `idx` — the
/// token after the nearest preceding `;`, `{` or `}`. Lets a safety
/// comment sit above a `#[cfg(...)]` attribute or the start of a
/// multi-line statement whose `unsafe` lands further down.
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

/// `justified-unsafe`: every `unsafe` in non-test library code must say
/// why it is sound. The mmap fast path and the parallel CSR fill are the
/// only sanctioned users; a bare `unsafe` is either missing its proof or
/// should not exist.
fn justified_unsafe(path: &str, lexed: &Lexed, findings: &mut Vec<Finding>) {
    if !in_lib_crate_src(path) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ident(Some(t)) != Some("unsafe") || lexed.is_test_line(t.line) {
            continue;
        }
        let justified = annotated_with_safety(lexed, t.line)
            || annotated_with_safety(lexed, stmt_start_line(toks, i));
        if !justified {
            findings.push(Finding {
                rule: JUSTIFIED_UNSAFE,
                file: path.to_owned(),
                line: t.line,
                message: "`unsafe` lacks a justification — add a `// safety: <why this is \
                          sound>` comment (or a `# Safety` rustdoc section for an `unsafe fn` \
                          contract) on or directly above this line"
                    .to_owned(),
            });
        }
    }
}

/// `no-panic-paths`: forbid process-aborting calls in non-test library
/// code. Malformed requests must surface as `Result`s, not aborts.
fn no_panic_paths(path: &str, lexed: &Lexed, findings: &mut Vec<Finding>) {
    if !in_lib_crate_src(path) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        if lexed.is_test_line(t.line) {
            continue;
        }
        let finding = |message: String| Finding {
            rule: NO_PANIC_PATHS,
            file: path.to_owned(),
            line: t.line,
            message,
        };
        match name.as_str() {
            "unwrap" | "expect"
                if i > 0 && is_punct(toks.get(i - 1), '.') && is_punct(toks.get(i + 1), '(') =>
            {
                findings.push(finding(format!(
                    "`.{name}(…)` aborts the process on malformed input; return one of the \
                     `error.rs` Result types instead (or suppress with a justification)"
                )));
            }
            "panic" | "todo" | "unimplemented" | "dbg" if is_punct(toks.get(i + 1), '!') => {
                findings.push(finding(format!(
                    "`{name}!` is forbidden in non-test library code; make the failure a \
                     `Result` (or suppress with a justification)"
                )));
            }
            _ => {}
        }
    }
}

/// `raw-id-cast`: in files that import the `core::ids` newtypes, raw
/// `as u32`/`as usize` casts bypass the typed id API.
fn raw_id_cast(path: &str, lexed: &Lexed, findings: &mut Vec<Finding>) {
    if !in_lib_crate_src(path) || !imports_id_newtypes(&lexed.tokens) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ident(Some(t)) != Some("as") || lexed.is_test_line(t.line) {
            continue;
        }
        let Some(target @ ("u32" | "usize")) = ident(toks.get(i + 1)) else {
            continue;
        };
        findings.push(Finding {
            rule: RAW_ID_CAST,
            file: path.to_owned(),
            line: t.line,
            message: format!(
                "raw `as {target}` cast in id-typed code; route the conversion through \
                 `ActionId`/`GoalId`/`ImplId` (`::new`, `.raw()`, `.index()`)"
            ),
        });
    }
}

fn imports_id_newtypes(toks: &[Token]) -> bool {
    let mut i = 0usize;
    while i < toks.len() {
        if ident(toks.get(i)) != Some("use") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let mut hit = false;
        while j < toks.len() && !is_punct(toks.get(j), ';') {
            if let Some(name) = ident(toks.get(j)) {
                if matches!(name, "ids" | "ActionId" | "GoalId" | "ImplId") {
                    hit = true;
                }
            }
            j += 1;
        }
        if hit {
            return true;
        }
        i = j;
    }
    false
}

/// `metric-name-registry`, call-site half: a string literal carrying a
/// registered metric namespace outside the registry module is drift
/// waiting to happen.
fn metric_literals(
    path: &str,
    lexed: &Lexed,
    namespaces: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    if path == METRIC_REGISTRY_PATH {
        return;
    }
    for t in &lexed.tokens {
        let Tok::Str(s) = &t.tok else { continue };
        if lexed.is_test_line(t.line) {
            continue;
        }
        let Some((head, rest)) = s.split_once('.') else {
            continue;
        };
        if rest.is_empty() || !namespaces.contains(head) {
            continue;
        }
        findings.push(Finding {
            rule: METRIC_NAME_REGISTRY,
            file: path.to_owned(),
            line: t.line,
            message: format!(
                "metric name \"{s}\" must be a constant (or pattern helper) from \
                 `goalrec_obs::names`, not an inline literal"
            ),
        });
    }
}

/// Collects the metric-name string literals declared in the registry
/// module (non-test code only), with their lines.
pub fn registry_names(lexed: &Lexed) -> Vec<(String, u32)> {
    lexed
        .tokens
        .iter()
        .filter(|t| !lexed.is_test_line(t.line))
        .filter_map(|t| match &t.tok {
            Tok::Str(s) => Some((s.clone(), t.line)),
            _ => None,
        })
        .collect()
}

/// The top-level namespaces (`model`, `strategy`, …) of the registry.
pub fn registry_namespaces(names: &[(String, u32)]) -> BTreeSet<String> {
    names
        .iter()
        .filter_map(|(n, _)| n.split_once('.').map(|(head, _)| head.to_owned()))
        .collect()
}

/// Extracts the metric names documented in the README's "Observability"
/// table: the first backticked token of each table row, when it has the
/// dotted metric shape.
pub fn readme_metrics(text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.trim();
        if let Some(heading) = line.strip_prefix("## ") {
            in_section = heading.trim() == "Observability";
            continue;
        }
        if !in_section || !line.starts_with('|') {
            continue;
        }
        let Some(name) = first_backticked(line) else {
            continue;
        };
        if is_metric_name(&name) {
            out.push((name, line_no));
        }
    }
    out
}

fn first_backticked(line: &str) -> Option<String> {
    let start = line.find('`')? + 1;
    let len = line[start..].find('`')?;
    Some(line[start..start + len].to_owned())
}

/// Whether a string has the registered metric-name shape: two or more
/// dot-separated segments of `[a-z0-9_]`, where a segment may also be a
/// `<placeholder>`.
pub fn is_metric_name(s: &str) -> bool {
    let segments: Vec<&str> = s.split('.').collect();
    if segments.len() < 2 {
        return false;
    }
    segments.iter().all(|seg| {
        let inner = seg
            .strip_prefix('<')
            .and_then(|x| x.strip_suffix('>'))
            .unwrap_or(seg);
        !inner.is_empty()
            && !inner.contains('<')
            && !inner.contains('>')
            && inner
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn lib_crate_scoping() {
        assert!(in_lib_crate_src("crates/core/src/model.rs"));
        assert!(in_lib_crate_src("crates/eval/src/metrics/tpr.rs"));
        assert!(!in_lib_crate_src("crates/cli/src/main.rs"));
        assert!(!in_lib_crate_src("crates/lint/src/rules.rs"));
        assert!(!in_lib_crate_src("crates/core/tests/observability.rs"));
        assert!(!in_lib_crate_src("crates/corex/src/lib.rs"));
    }

    #[test]
    fn panic_rule_spares_tests_and_lookalikes() {
        let src = "\
fn live(x: Option<u32>) -> u32 {
    x.unwrap_or(7); // unwrap_or is fine
    x.unwrap()
}
#[cfg(test)]
mod tests {
    fn t(x: Option<u32>) { x.unwrap(); }
}
";
        let lexed = lex(src);
        let mut findings = Vec::new();
        no_panic_paths("crates/core/src/x.rs", &lexed, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn cast_rule_requires_an_ids_import() {
        let with_import = lex("use crate::ids::ActionId;\nfn f(x: u64) { let _ = x as u32; }\n");
        let mut findings = Vec::new();
        raw_id_cast("crates/core/src/x.rs", &with_import, &mut findings);
        assert_eq!(findings.len(), 1);

        let without = lex("fn f(x: u64) { let _ = x as u32; }\n");
        findings.clear();
        raw_id_cast("crates/core/src/x.rs", &without, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn unsafe_rule_demands_a_safety_comment() {
        let src = "\
fn f(p: *const u32) -> u32 {
    // SAFETY: caller guarantees p is valid for reads.
    let a = unsafe { *p };
    let b = unsafe { *p };
    a + b
}
// safety: immutable shared memory, reads only.
#[cfg(unix)]
unsafe impl Send for X {}
unsafe impl Sync for X {}
/// Docs.
///
/// # Safety
///
/// `p` must be valid.
pub unsafe fn g(p: *const u32) -> u32 { *p }
#[cfg(test)]
mod tests {
    fn t(p: *const u32) { unsafe { *p; } }
}
";
        let lexed = lex(src);
        let mut findings = Vec::new();
        justified_unsafe("crates/datasets/src/mmap.rs", &lexed, &mut findings);
        // Line 4 (second block, no comment) and line 10 (Sync impl, the
        // Send comment does not reach past the intervening item).
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![4, 10]
        );
        assert!(findings.iter().all(|f| f.rule == JUSTIFIED_UNSAFE));

        // Out of library scope: binaries may keep their unsafe terse.
        findings.clear();
        justified_unsafe("crates/cli/src/commands.rs", &lexed, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn metric_name_shape() {
        assert!(is_metric_name("model.builds"));
        assert!(is_metric_name("strategy.<name>.latency"));
        assert!(!is_metric_name(
            "check.sh".replace("check", "Check").as_str()
        ));
        assert!(!is_metric_name("nodots"));
        assert!(!is_metric_name("model."));
        assert!(!is_metric_name("model.<>"));
    }

    #[test]
    fn readme_table_extraction() {
        let text = "\
# Title
## Observability
Some prose with `model.ghost` outside a table.
| Metric | Kind |
|---|---|
| `model.builds` | counter |
| `strategy.<name>.latency` | histogram |
## Next section
| `model.not_counted` | counter |
";
        let got = readme_metrics(text);
        assert_eq!(
            got,
            vec![
                ("model.builds".to_owned(), 6),
                ("strategy.<name>.latency".to_owned(), 7)
            ]
        );
    }
}
