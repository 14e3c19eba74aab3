//! CLI entry point. Exit codes: 0 clean, 1 findings or baseline drift,
//! 2 usage/config error.

use goalrec_lint::baseline::{self, BaselineRow};
use goalrec_lint::engine::{run_workspace_with, RunOptions};
use goalrec_lint::Finding;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
goalrec-lint — workspace static analysis

USAGE:
    goalrec-lint [--root DIR] [--format FMT] [--changed-files LIST]
                 [--baseline FILE] [--write-baseline FILE]

OPTIONS:
    --root DIR             Workspace root to lint (default: current directory)
    --format FMT           Output format: text (default), json, github
    --json                 Shorthand for --format json
    --changed-files LIST   Comma-separated workspace-relative files; only
                           findings in them are reported (the whole
                           workspace is still scanned). Repeatable.
    --baseline FILE        Diff allow-listed findings against a committed
                           baseline; drift fails the run
    --write-baseline FILE  Write the current allow-listed findings as the
                           new baseline
    -h, --help             Show this help

EXIT CODES:
    0  no findings and no baseline drift
    1  findings reported or baseline drift
    2  usage or configuration error";

enum Format {
    Text,
    Json,
    Github,
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut changed: Option<BTreeSet<String>> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    let got = other.unwrap_or("nothing");
                    eprintln!(
                        "goalrec-lint: --format needs text|json|github, got {got}\n\n{USAGE}"
                    );
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("goalrec-lint: --root needs a directory argument\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--changed-files" => match args.next() {
                Some(list) => {
                    let set = changed.get_or_insert_with(BTreeSet::new);
                    for f in list.split(',') {
                        let f = f.trim().trim_start_matches("./");
                        if !f.is_empty() {
                            set.insert(f.replace('\\', "/"));
                        }
                    }
                }
                None => {
                    eprintln!("goalrec-lint: --changed-files needs a file list\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("goalrec-lint: --baseline needs a file argument\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--write-baseline" => match args.next() {
                Some(p) => write_baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("goalrec-lint: --write-baseline needs a file argument\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("goalrec-lint: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let opts = RunOptions {
        changed_files: changed,
    };
    let result = match run_workspace_with(&root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("goalrec-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = baseline::rows_from(&result.allowed);

    match format {
        Format::Json => println!("{}", to_json(&result.findings, &rows)),
        Format::Github => {
            for f in &result.findings {
                println!(
                    "::error file={},line={},title=goalrec-lint[{}]::{}",
                    f.file,
                    f.line,
                    f.rule,
                    github_escape(&f.message)
                );
            }
            summary(&result.findings, &result.allowed, result.files_scanned);
        }
        Format::Text => {
            for f in &result.findings {
                println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            }
            summary(&result.findings, &result.allowed, result.files_scanned);
        }
    }

    if let Some(path) = &write_baseline {
        if let Err(e) = std::fs::write(path, baseline::render(&rows)) {
            eprintln!("goalrec-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "goalrec-lint: wrote {} baseline row(s) to {}",
            rows.len(),
            path.display()
        );
    }

    let mut drift = false;
    if let Some(path) = &baseline_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "goalrec-lint: cannot read baseline {}: {e} \
                     (bootstrap it with --write-baseline)",
                    path.display()
                );
                return ExitCode::from(2);
            }
        };
        let committed = match baseline::parse(&text) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("goalrec-lint: {e}");
                return ExitCode::from(2);
            }
        };
        for line in baseline::diff(&rows, &committed) {
            drift = true;
            println!("baseline drift: {line}");
        }
        if !drift {
            println!(
                "goalrec-lint: baseline in sync ({} allow-listed finding row(s))",
                committed.len()
            );
        }
    }

    if result.findings.is_empty() && !drift {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn summary(findings: &[Finding], allowed: &[Finding], files_scanned: usize) {
    if findings.is_empty() {
        println!("goalrec-lint: clean ({files_scanned} files scanned)");
    } else {
        println!(
            "goalrec-lint: {} finding(s) in {} files scanned",
            findings.len(),
            files_scanned
        );
    }
    if !allowed.is_empty() {
        println!(
            "goalrec-lint: {} allow-listed finding(s) tracked by the baseline",
            allowed.len()
        );
    }
}

/// GitHub workflow-command escaping for the message field.
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Stable JSON output; fields in a fixed order, findings pre-sorted by the
/// engine. Hand-built because the workspace is registry-less.
fn to_json(findings: &[Finding], allowed: &[BaselineRow]) -> String {
    let mut out = String::from("{\n  \"count\": ");
    out.push_str(&findings.len().to_string());
    out.push_str(",\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"file\": \"");
        out.push_str(&json_escape(&f.file));
        out.push_str("\", \"line\": ");
        out.push_str(&f.line.to_string());
        out.push_str(", \"rule\": \"");
        out.push_str(&json_escape(f.rule));
        out.push_str("\", \"message\": \"");
        out.push_str(&json_escape(&f.message));
        out.push_str("\"}");
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"allowed\": [");
    for (i, r) in allowed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"rule\": \"");
        out.push_str(&json_escape(&r.rule));
        out.push_str("\", \"file\": \"");
        out.push_str(&json_escape(&r.file));
        out.push_str("\", \"count\": ");
        out.push_str(&r.count.to_string());
        out.push('}');
    }
    if !allowed.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
