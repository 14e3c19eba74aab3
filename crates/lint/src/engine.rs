//! The lint driver: walks the workspace, lexes every file once, runs the
//! per-file rules, applies inline suppressions and the `lint.toml`
//! allowlist, and cross-checks the metric registry against the README.
//!
//! Allowlisted findings are not dropped — they are reported separately in
//! [`RunResult::allowed`] so the baseline machinery can diff them (new
//! findings stay visible even for allow-listed rules).

use crate::concurrency;
use crate::config::{parse_config, LintConfig};
use crate::lexer::{lex, Lexed};
use crate::rules::{
    readme_metrics, registry_names, registry_namespaces, source_rules, Finding,
    METRIC_NAME_REGISTRY, METRIC_REGISTRY_PATH, RULES, SUPPRESSION_FORMAT,
};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Everything one lint run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings swallowed by the `lint.toml` allowlist, same order —
    /// the input to `lint-baseline.json`.
    pub allowed: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Knobs for one run.
#[derive(Debug, Default)]
pub struct RunOptions {
    /// When set, only findings in these workspace-relative files are
    /// reported; the whole workspace is still scanned.
    pub changed_files: Option<BTreeSet<String>>,
}

/// Lints the workspace rooted at `root` with default options.
pub fn run_workspace(root: &Path) -> Result<RunResult, String> {
    run_workspace_with(root, &RunOptions::default())
}

/// Lints the workspace rooted at `root`. Configuration problems (missing
/// registry, malformed `lint.toml`, unreadable files) are `Err`s, distinct
/// from findings.
pub fn run_workspace_with(root: &Path, opts: &RunOptions) -> Result<RunResult, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "{} has no crates/ directory; pass the workspace root via --root",
            root.display()
        ));
    }

    let config = load_config(root)?;

    // The registry is the source of truth for metric names; a workspace
    // without it cannot satisfy the metric-name-registry rule at all.
    let registry_src = read(&root.join(METRIC_REGISTRY_PATH))?;
    let registry = registry_names(&lex(&registry_src));
    let namespaces = registry_namespaces(&registry);

    let readme = read(&root.join("README.md"))?;
    let documented = readme_metrics(&readme);

    // Per-file rules; inline suppressions apply at the finding's site.
    let files = collect_rs_files(root, &crates_dir)?;
    let mut findings = Vec::new();
    for (rel, abs) in &files {
        let lexed = lex(&read(abs)?);
        let mut raw = source_rules(rel, &lexed, &namespaces);
        concurrency::atomic_ordering(rel, &lexed, &config.atomics, &mut raw);
        concurrency::lock_discipline(rel, &lexed, &config.lock_order, &mut raw);
        findings.extend(apply_suppressions(rel, &lexed, raw));
    }

    registry_readme_drift(&registry, &documented, &mut findings);

    let (allowed, mut findings): (Vec<Finding>, Vec<Finding>) = findings
        .into_iter()
        .partition(|f| config.allow.iter().any(|e| e.covers(f.rule, &f.file)));
    if let Some(changed) = &opts.changed_files {
        findings.retain(|f| changed.contains(&f.file));
    }
    let sort = |v: &mut Vec<Finding>| {
        v.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
    };
    let mut allowed = allowed;
    sort(&mut findings);
    sort(&mut allowed);
    Ok(RunResult {
        findings,
        allowed,
        files_scanned: files.len(),
    })
}

fn load_config(root: &Path) -> Result<LintConfig, String> {
    let path = root.join("lint.toml");
    if !path.is_file() {
        return Ok(LintConfig::default());
    }
    let config = parse_config(&read(&path)?, "lint.toml")?;
    for e in &config.allow {
        if !RULES.contains(&e.rule.as_str()) {
            return Err(format!(
                "lint.toml: unknown rule `{}` in allowlist (known: {})",
                e.rule,
                RULES.join(", ")
            ));
        }
    }
    Ok(config)
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// All `.rs` files under `crates/*/src/`, as (workspace-relative, absolute)
/// pairs in deterministic order.
fn collect_rs_files(root: &Path, crates_dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(crates_dir)
        .map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut out = Vec::new();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            walk(&src, root, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
            .path();
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the workspace root", path.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Drops findings covered by a well-formed inline directive on the same or
/// the preceding line, and reports malformed directives as findings of
/// their own (which never suppress anything). A well-formed directive
/// that suppresses no finding is reported too: it is stale, and left in
/// place it would silently excuse whatever lands on its lines next.
fn apply_suppressions(file: &str, lexed: &Lexed, raw: Vec<Finding>) -> Vec<Finding> {
    let mut out = Vec::new();
    let well_formed = |s: &crate::lexer::Suppression| {
        !s.justification.is_empty() && s.rules.iter().all(|r| RULES.contains(&r.as_str()))
    };
    let mut used = vec![false; lexed.suppressions.len()];
    for f in raw {
        let mut suppressed = false;
        for (i, s) in lexed.suppressions.iter().enumerate() {
            if well_formed(s)
                && s.rules.iter().any(|r| r == f.rule)
                && (s.line == f.line || s.line + 1 == f.line)
            {
                used[i] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(f);
        }
    }
    for (s, used) in lexed.suppressions.iter().zip(used) {
        let unknown: Vec<&String> = s
            .rules
            .iter()
            .filter(|r| !RULES.contains(&r.as_str()))
            .collect();
        if s.rules.is_empty() || !unknown.is_empty() {
            out.push(Finding {
                rule: SUPPRESSION_FORMAT,
                file: file.to_owned(),
                line: s.line,
                message: format!(
                    "suppression names no known rule (known: {}); it has no effect",
                    RULES.join(", ")
                ),
            });
        } else if s.justification.is_empty() {
            out.push(Finding {
                rule: SUPPRESSION_FORMAT,
                file: file.to_owned(),
                line: s.line,
                message: "suppression is missing its justification — write \
                          `// goalrec-lint:allow(<rule>): <why this is safe>`"
                    .to_owned(),
            });
        } else if !used {
            out.push(Finding {
                rule: SUPPRESSION_FORMAT,
                file: file.to_owned(),
                line: s.line,
                message: format!(
                    "suppression of {} excuses no finding on this line or the next; \
                     delete the stale directive",
                    s.rules.join(", ")
                ),
            });
        }
    }
    out
}

/// The README half of `metric-name-registry`: every registered name must
/// appear in the README's Observability table and vice versa. A registry
/// name also counts as documented when it matches a documented *pattern*
/// row — `span.phase.3` is covered by `span.phase.<i>` — so pre-expanded
/// per-instance names (arrays of `&'static str` for hot-path use) need one
/// pattern row, not one row per expansion.
fn registry_readme_drift(
    registry: &[(String, u32)],
    documented: &[(String, u32)],
    findings: &mut Vec<Finding>,
) {
    let documented_set: BTreeSet<&str> = documented.iter().map(|(n, _)| n.as_str()).collect();
    let registry_set: BTreeSet<&str> = registry.iter().map(|(n, _)| n.as_str()).collect();
    let covered = |name: &str| {
        documented_set.contains(name) || documented_set.iter().any(|pat| pattern_covers(pat, name))
    };
    for (name, line) in registry {
        if !covered(name.as_str()) {
            findings.push(Finding {
                rule: METRIC_NAME_REGISTRY,
                file: METRIC_REGISTRY_PATH.to_owned(),
                line: *line,
                message: format!(
                    "registered metric \"{name}\" is missing from the README's \
                     Observability table"
                ),
            });
        }
    }
    // Pattern rows themselves must still exist verbatim in the registry
    // (the registry keeps the `<placeholder>` form as its own constant),
    // so the reverse direction stays an exact check.
    for (name, line) in documented {
        if !registry_set.contains(name.as_str()) {
            findings.push(Finding {
                rule: METRIC_NAME_REGISTRY,
                file: "README.md".to_owned(),
                line: *line,
                message: format!(
                    "README documents metric \"{name}\" which is not registered in \
                     {METRIC_REGISTRY_PATH}"
                ),
            });
        }
    }
}

/// Does the documented pattern (`span.phase.<i>`) cover the concrete
/// registry name (`span.phase.3`)? Segment-wise: a `<placeholder>`
/// segment matches exactly one non-empty concrete segment, every other
/// segment must match verbatim. Patterns without a placeholder never
/// "cover" anything — exact names are handled by the set lookup.
fn pattern_covers(pattern: &str, name: &str) -> bool {
    if !pattern.contains('<') {
        return false;
    }
    let pats: Vec<&str> = pattern.split('.').collect();
    let segs: Vec<&str> = name.split('.').collect();
    pats.len() == segs.len()
        && pats.iter().zip(&segs).all(|(p, s)| {
            if p.starts_with('<') && p.ends_with('>') {
                !s.is_empty()
            } else {
                p == s
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RAW_ID_CAST;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_owned(),
            line,
            message: "m".to_owned(),
        }
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "\
// goalrec-lint:allow(raw-id-cast): boundary checked above
x as u32;
y as u32; // goalrec-lint:allow(raw-id-cast): cannot overflow here

z as u32;
";
        let lexed = lex(src);
        let raw = vec![
            finding(RAW_ID_CAST, "f.rs", 2),
            finding(RAW_ID_CAST, "f.rs", 3),
            finding(RAW_ID_CAST, "f.rs", 5),
        ];
        let kept = apply_suppressions("f.rs", &lexed, raw);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 5);
    }

    #[test]
    fn bad_directives_become_findings_and_do_not_suppress() {
        let src = "\
x as u32; // goalrec-lint:allow(raw-id-cast)
y as u32; // goalrec-lint:allow(no-such-rule): justified
";
        let lexed = lex(src);
        let raw = vec![
            finding(RAW_ID_CAST, "f.rs", 1),
            finding(RAW_ID_CAST, "f.rs", 2),
        ];
        let kept = apply_suppressions("f.rs", &lexed, raw);
        // Two directive findings plus the two unsuppressed originals.
        assert_eq!(kept.len(), 4);
        assert_eq!(
            kept.iter().filter(|f| f.rule == SUPPRESSION_FORMAT).count(),
            2
        );
    }

    #[test]
    fn drift_is_reported_in_both_directions() {
        let registry = vec![
            ("model.builds".to_owned(), 10),
            ("model.orphan".to_owned(), 11),
        ];
        let documented = vec![
            ("model.builds".to_owned(), 5),
            ("model.ghost".to_owned(), 6),
        ];
        let mut findings = Vec::new();
        registry_readme_drift(&registry, &documented, &mut findings);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].message.contains("model.orphan"));
        assert_eq!(findings[1].file, "README.md");
        assert!(findings[1].message.contains("model.ghost"));
    }

    #[test]
    fn documented_pattern_rows_cover_expanded_registry_names() {
        let registry = vec![
            ("span.phase.<i>".to_owned(), 10),
            ("span.phase.0".to_owned(), 11),
            ("span.phase.15".to_owned(), 12),
            ("span.phase.0.extra".to_owned(), 13),
        ];
        let documented = vec![("span.phase.<i>".to_owned(), 5)];
        let mut findings = Vec::new();
        registry_readme_drift(&registry, &documented, &mut findings);
        // The pattern row covers its expansions but not a deeper name.
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("span.phase.0.extra"));
    }

    #[test]
    fn pattern_covers_is_segment_exact() {
        assert!(pattern_covers("span.phase.<i>", "span.phase.3"));
        assert!(pattern_covers(
            "strategy.<name>.requests",
            "strategy.Breadth.requests"
        ));
        assert!(!pattern_covers("span.phase.<i>", "span.phase"));
        assert!(!pattern_covers("span.phase.<i>", "span.reload.load"));
        assert!(!pattern_covers("span.phase.3", "span.phase.3"));
    }
}
