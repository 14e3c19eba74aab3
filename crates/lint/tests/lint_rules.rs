//! End-to-end tests over the fixture workspaces in `tests/fixtures/`.
//!
//! `ws/` has known-bad files for the per-file rules plus a clean one, a
//! suppression pair (justified and unjustified), a directive naming a
//! retired rule, a `lint.toml`-covered cast, and registry↔README drift
//! in both directions; the expected findings are asserted exactly (file,
//! line, rule). The concurrency rules and stale directives have a
//! fixture workspace each.

use goalrec_lint::rules::{
    ATOMIC_ORDERING, LOCK_DISCIPLINE, METRIC_NAME_REGISTRY, RAW_ID_CAST, SUPPRESSION_FORMAT,
};
use goalrec_lint::run_workspace;
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn triples(result: &goalrec_lint::engine::RunResult) -> Vec<(&str, u32, &str)> {
    result
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect()
}

#[test]
fn bad_workspace_findings_are_exact() {
    let result = run_workspace(&fixture("ws")).unwrap();
    assert_eq!(
        triples(&result),
        vec![
            // README documents model.ghost, which is not registered.
            ("README.md", 9, METRIC_NAME_REGISTRY),
            // The unjustified trailing suppression: the directive itself is
            // reported and the literal it decorates still fires.
            ("crates/core/src/allowed.rs", 11, METRIC_NAME_REGISTRY),
            ("crates/core/src/allowed.rs", 11, SUPPRESSION_FORMAT),
            // A directive naming a rule the lint no longer has.
            ("crates/core/src/allowed.rs", 18, SUPPRESSION_FORMAT),
            ("crates/core/src/bad_casts.rs", 6, RAW_ID_CAST),
            ("crates/core/src/bad_metrics.rs", 4, METRIC_NAME_REGISTRY),
            // Registered model.orphan is missing from the README table.
            ("crates/obs/src/names.rs", 5, METRIC_NAME_REGISTRY),
        ]
    );
    assert!(result.findings[3].message.contains("names no known rule"));
}

#[test]
fn suppression_and_allowlist_escapes_work() {
    let result = run_workspace(&fixture("ws")).unwrap();
    // The justified suppression in allowed.rs swallows its literal (line 7)…
    assert!(!result
        .findings
        .iter()
        .any(|f| f.file.ends_with("allowed.rs") && f.line == 7));
    // …and the lint.toml entry swallows the raw cast (line 15).
    assert!(!result
        .findings
        .iter()
        .any(|f| f.file.ends_with("allowed.rs") && f.rule == RAW_ID_CAST));
    // The clean file contributes nothing.
    assert!(!result.findings.iter().any(|f| f.file.ends_with("clean.rs")));
}

#[test]
fn clean_workspace_reports_nothing() {
    let result = run_workspace(&fixture("clean_ws")).unwrap();
    assert!(result.findings.is_empty(), "got: {:?}", result.findings);
    assert_eq!(result.files_scanned, 2);
}

#[test]
fn missing_registry_is_a_config_error() {
    let err = run_workspace(&fixture("broken_ws")).unwrap_err();
    assert!(err.contains("names.rs"), "got: {err}");
}

#[test]
fn unknown_rule_in_allowlist_is_a_config_error() {
    let err = run_workspace(&fixture("bad_config_ws")).unwrap_err();
    assert!(err.contains("no-such-rule"), "got: {err}");
}

#[test]
fn binary_exit_codes_and_json_are_stable() {
    let bin = env!("CARGO_BIN_EXE_goalrec-lint");

    let clean = Command::new(bin)
        .args(["--root", fixture("clean_ws").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(clean.status.code(), Some(0));

    let bad = Command::new(bin)
        .args(["--root", fixture("ws").to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
    let json = String::from_utf8(bad.stdout).unwrap();
    assert!(json.starts_with("{\n  \"count\": 7,"), "got: {json}");
    assert!(json.contains(
        "{\"file\": \"crates/core/src/bad_casts.rs\", \"line\": 6, \
         \"rule\": \"raw-id-cast\","
    ));

    let broken = Command::new(bin)
        .args(["--root", fixture("broken_ws").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(broken.status.code(), Some(2));

    let usage = Command::new(bin).arg("--bogus").output().unwrap();
    assert_eq!(usage.status.code(), Some(2));
}

#[test]
fn stale_directives_are_findings_of_their_own() {
    let result = run_workspace(&fixture("stale_allow_ws")).unwrap();
    assert_eq!(
        triples(&result),
        // A suppression with nothing to suppress. The used suppression
        // (line 5) and the doc prose quoting the syntax (line 14) are
        // clean.
        vec![("crates/core/src/directives.rs", 10, SUPPRESSION_FORMAT)]
    );
    assert!(result.findings[0]
        .message
        .contains("suppression of metric-name-registry excuses no finding"));
}

#[test]
fn seqcst_is_flagged_even_with_a_comment() {
    let result = run_workspace(&fixture("seqcst_unjustified_ws")).unwrap();
    assert_eq!(
        triples(&result),
        vec![
            // SeqCst: the `// ordering:` comment above does not excuse it.
            ("crates/core/src/atomics.rs", 7, ATOMIC_ORDERING),
            // Relaxed without a justification comment.
            ("crates/core/src/atomics.rs", 8, ATOMIC_ORDERING),
            // The commented Relaxed on line 10 is clean.
        ]
    );
    assert!(result.findings[0].message.contains("deny-by-default"));
    assert!(result.findings[1].message.contains("lacks a justification"));
}

#[test]
fn undeclared_nested_locks_are_flagged() {
    let result = run_workspace(&fixture("nested_lock_undeclared_ws")).unwrap();
    assert_eq!(
        triples(&result),
        vec![("crates/core/src/locks.rs", 13, LOCK_DISCIPLINE)]
    );
    assert!(result.findings[0]
        .message
        .contains("`a → b` is not in the declared hierarchy"));
}

#[test]
fn changed_files_mode_narrows_the_report() {
    let bin = env!("CARGO_BIN_EXE_goalrec-lint");
    let root = fixture("ws");

    // Only bad_casts.rs is "changed": the cast finding survives, the
    // metric findings elsewhere do not.
    let out = Command::new(bin)
        .args([
            "--root",
            root.to_str().unwrap(),
            "--changed-files",
            "crates/core/src/bad_casts.rs",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("bad_casts.rs:6"), "got: {text}");
    assert!(!text.contains("bad_metrics.rs"), "got: {text}");

    // A clean changed file exits 0 even though the workspace has findings.
    let clean = Command::new(bin)
        .args([
            "--root",
            root.to_str().unwrap(),
            "--changed-files",
            "crates/core/src/clean.rs",
        ])
        .output()
        .unwrap();
    assert_eq!(clean.status.code(), Some(0));
}

#[test]
fn github_format_emits_error_annotations() {
    let bin = env!("CARGO_BIN_EXE_goalrec-lint");
    let out = Command::new(bin)
        .args([
            "--root",
            fixture("nested_lock_undeclared_ws").to_str().unwrap(),
            "--format",
            "github",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains(
            "::error file=crates/core/src/locks.rs,line=13,title=goalrec-lint[lock-discipline]::"
        ),
        "got: {text}"
    );
}

#[test]
fn baseline_round_trip_detects_drift() {
    let bin = env!("CARGO_BIN_EXE_goalrec-lint");
    let root = fixture("ws");
    let dir = std::env::temp_dir().join(format!("goalrec-lint-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline.json");

    // Bootstrap: --write-baseline records the allow-listed findings.
    let write = Command::new(bin)
        .args([
            "--root",
            root.to_str().unwrap(),
            "--write-baseline",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(path.exists(), "write-baseline produced no file");

    // Same workspace, same baseline: no drift (exit still 1 — the ws
    // fixture has real findings — but no drift message).
    let same = Command::new(bin)
        .args([
            "--root",
            root.to_str().unwrap(),
            "--baseline",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let same_out = String::from_utf8(same.stdout).unwrap();
    assert!(same_out.contains("baseline in sync"), "got: {same_out}");

    // A doctored baseline (one extra allow-listed row) is drift: exit 1
    // and a drift explanation.
    let doctored = std::fs::read_to_string(&path).unwrap();
    let injected = doctored.replacen(
        "[",
        "[\n  {\"rule\": \"raw-id-cast\", \"file\": \"crates/core/src/ghost.rs\", \"count\": 2},",
        1,
    );
    let doctored_path = dir.join("doctored.json");
    std::fs::write(&doctored_path, injected).unwrap();
    let drift = Command::new(bin)
        .args([
            "--root",
            root.to_str().unwrap(),
            "--baseline",
            doctored_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(drift.status.code(), Some(1));
    let drift_out = String::from_utf8(drift.stdout).unwrap();
    assert!(
        drift_out.contains("baseline drift") && drift_out.contains("ghost.rs"),
        "got: {drift_out}"
    );

    // A missing baseline file is a config error with a bootstrap hint.
    let missing = Command::new(bin)
        .args([
            "--root",
            root.to_str().unwrap(),
            "--baseline",
            dir.join("nope.json").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(missing.status.code(), Some(2));
    let missing_err = String::from_utf8(missing.stderr).unwrap();
    assert!(
        missing_err.contains("--write-baseline"),
        "got: {missing_err}"
    );

    drop(write);
    let _ = std::fs::remove_dir_all(&dir);
}
