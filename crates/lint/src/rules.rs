//! The lint rules and the finding type.
//!
//! Severity is deny-by-default: every hit is a finding unless covered by a
//! justified inline suppression or a `lint.toml` allowlist entry. Rules are
//! purely token-based (see the `lexer` module) so they cannot be fooled by
//! matches inside comments or string literals.

use crate::lexer::{ident, is_punct, Lexed, Tok, Token};
use std::collections::BTreeSet;

/// Rule id: no raw `as u32`/`as usize` casts in files that import the id
/// newtypes.
pub const RAW_ID_CAST: &str = "raw-id-cast";
/// Rule id: metric names must come from the central registry and stay in
/// sync with the README.
pub const METRIC_NAME_REGISTRY: &str = "metric-name-registry";
/// Rule id: every `Ordering::*` use carries an `// ordering:` justification
/// comment; `SeqCst` is deny-by-default; `Relaxed` on registered
/// cross-thread atomics is flagged.
pub const ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule id: nested lock acquisition must match the `[[lock_order]]`
/// hierarchy declared in `lint.toml`.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Pseudo-rule for malformed `goalrec-lint:allow` directives. Not
/// suppressible and not allowlistable.
pub const SUPPRESSION_FORMAT: &str = "suppression-format";

/// The suppressible/allowlistable rules.
pub(crate) const RULES: &[&str] = &[
    RAW_ID_CAST,
    METRIC_NAME_REGISTRY,
    ATOMIC_ORDERING,
    LOCK_DISCIPLINE,
];

/// Library crates whose `src/` trees are held to the newtype-cast
/// invariant (binaries — `cli`, `bench`, `lint` — are not). The same eight
/// crates deny panicking calls and undocumented `unsafe` through a
/// crate-level clippy attribute in their `lib.rs`.
const LIBRARY_CRATES: &[&str] = &[
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
pub(crate) const METRIC_REGISTRY_PATH: &str = "crates/obs/src/names.rs";

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

/// Runs every per-file source rule on one lexed file.
pub(crate) fn source_rules(
    path: &str,
    lexed: &Lexed,
    namespaces: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    raw_id_cast(path, lexed, &mut findings);
    metric_literals(path, lexed, namespaces, &mut findings);
    findings
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
pub(crate) fn registry_names(lexed: &Lexed) -> Vec<(String, u32)> {
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
pub(crate) fn registry_namespaces(names: &[(String, u32)]) -> BTreeSet<String> {
    names
        .iter()
        .filter_map(|(n, _)| n.split_once('.').map(|(head, _)| head.to_owned()))
        .collect()
}

/// Extracts the metric names documented in the README's "Observability"
/// table: the first backticked token of each table row, when it has the
/// dotted metric shape.
pub(crate) fn readme_metrics(text: &str) -> Vec<(String, u32)> {
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
fn is_metric_name(s: &str) -> bool {
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
