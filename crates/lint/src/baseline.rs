//! `lint-baseline.json`: the committed record of allow-listed findings.
//!
//! The allowlist in `lint.toml` makes whole rule/path prefixes silent,
//! which is exactly where regressions hide. The baseline counters them: a
//! run aggregates its allow-listed findings to `(rule, file, count)` rows,
//! and CI diffs those rows against the committed file — so a *new*
//! allow-listed finding fails the build even though the allowlist would
//! have swallowed it. Rows carry no line numbers on purpose: unrelated
//! edits moving code around must not churn the baseline.
//!
//! The parser covers exactly the JSON this module writes (one object, one
//! `allowed` array of flat string/number objects) — hand-rolled because
//! the workspace is registry-less.

use crate::rules::Finding;
use std::collections::BTreeMap;

/// One baseline row: how many findings of `rule` in `file` the allowlist
/// swallows.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineRow {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// Number of allow-listed findings.
    pub count: usize,
}

/// Aggregates allow-listed findings into sorted baseline rows.
pub fn rows_from(allowed: &[Finding]) -> Vec<BaselineRow> {
    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for f in allowed {
        *counts.entry((f.rule, f.file.as_str())).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .map(|((rule, file), count)| BaselineRow {
            rule: rule.to_owned(),
            file: file.to_owned(),
            count,
        })
        .collect()
}

/// Renders rows as the stable baseline JSON document.
pub fn render(rows: &[BaselineRow]) -> String {
    let mut out = String::from("{\n  \"allowed\": [");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"rule\": \"");
        out.push_str(&escape(&r.rule));
        out.push_str("\", \"file\": \"");
        out.push_str(&escape(&r.file));
        out.push_str("\", \"count\": ");
        out.push_str(&r.count.to_string());
        out.push('}');
    }
    if !rows.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect()
}

/// Parses a baseline document previously written by [`render`] (tolerant
/// of key order and whitespace).
pub fn parse(text: &str) -> Result<Vec<BaselineRow>, String> {
    let mut p = Parser {
        cs: text.chars().collect(),
        i: 0,
    };
    p.ws();
    p.expect('{')?;
    let mut rows = Vec::new();
    loop {
        p.ws();
        if p.eat('}') {
            break;
        }
        let key = p.string()?;
        p.ws();
        p.expect(':')?;
        p.ws();
        if key == "allowed" {
            p.expect('[')?;
            loop {
                p.ws();
                if p.eat(']') {
                    break;
                }
                rows.push(p.row()?);
                p.ws();
                if !p.eat(',') {
                    p.ws();
                    p.expect(']')?;
                    break;
                }
            }
        } else {
            return Err(format!("baseline: unknown top-level key `{key}`"));
        }
        p.ws();
        if !p.eat(',') {
            p.ws();
            p.expect('}')?;
            break;
        }
    }
    rows.sort();
    Ok(rows)
}

/// Human-readable drift lines between the current rows and the committed
/// baseline; empty means in sync.
pub fn diff(current: &[BaselineRow], baseline: &[BaselineRow]) -> Vec<String> {
    let index = |rows: &[BaselineRow]| -> BTreeMap<(String, String), usize> {
        rows.iter()
            .map(|r| ((r.rule.clone(), r.file.clone()), r.count))
            .collect()
    };
    let cur = index(current);
    let base = index(baseline);
    let mut out = Vec::new();
    for ((rule, file), &n) in &cur {
        match base.get(&(rule.clone(), file.clone())) {
            None => out.push(format!(
                "new allow-listed findings: {n}× {rule} in {file} (not in lint-baseline.json)"
            )),
            Some(&b) if n > b => out.push(format!(
                "allow-listed findings grew: {rule} in {file}: {b} → {n}"
            )),
            Some(&b) if n < b => out.push(format!(
                "baseline is stale: {rule} in {file}: {b} → {n} — \
                 run --write-baseline to shrink it"
            )),
            Some(_) => {}
        }
    }
    for (rule, file) in base.keys() {
        if !cur.contains_key(&(rule.clone(), file.clone())) {
            out.push(format!(
                "baseline is stale: {rule} in {file} no longer fires — \
                 run --write-baseline to drop it"
            ));
        }
    }
    out.sort();
    out
}

struct Parser {
    cs: Vec<char>,
    i: usize,
}

impl Parser {
    fn ws(&mut self) {
        while self.cs.get(self.i).is_some_and(|c| c.is_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.cs.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!(
                "baseline: expected `{c}` at offset {}, found {:?}",
                self.i,
                self.cs.get(self.i)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            match self.cs.get(self.i) {
                Some('"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some('\\') => {
                    if let Some(&next) = self.cs.get(self.i + 1) {
                        s.push(next);
                        self.i += 2;
                    } else {
                        return Err("baseline: truncated escape".to_owned());
                    }
                }
                Some(&c) => {
                    s.push(c);
                    self.i += 1;
                }
                None => return Err("baseline: unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<usize, String> {
        let start = self.i;
        while self.cs.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        let text: String = self.cs[start..self.i].iter().collect();
        text.parse()
            .map_err(|_| format!("baseline: expected a count at offset {start}"))
    }

    fn row(&mut self) -> Result<BaselineRow, String> {
        self.expect('{')?;
        let mut rule = None;
        let mut file = None;
        let mut count = None;
        loop {
            self.ws();
            if self.eat('}') {
                break;
            }
            let key = self.string()?;
            self.ws();
            self.expect(':')?;
            self.ws();
            match key.as_str() {
                "rule" => rule = Some(self.string()?),
                "file" => file = Some(self.string()?),
                "count" => count = Some(self.number()?),
                other => return Err(format!("baseline: unknown row key `{other}`")),
            }
            self.ws();
            if !self.eat(',') {
                self.ws();
                self.expect('}')?;
                break;
            }
        }
        Ok(BaselineRow {
            rule: rule.ok_or("baseline: row is missing `rule`")?,
            file: file.ok_or("baseline: row is missing `file`")?,
            count: count.ok_or("baseline: row is missing `count`")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(rule: &str, file: &str, count: usize) -> BaselineRow {
        BaselineRow {
            rule: rule.to_owned(),
            file: file.to_owned(),
            count,
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let rows = vec![
            row("metric-name-registry", "crates/server/src/router.rs", 2),
            row("raw-id-cast", "crates/core/src/model.rs", 7),
        ];
        assert_eq!(parse(&render(&rows)).unwrap(), rows);
        assert_eq!(parse(&render(&[])).unwrap(), Vec::<BaselineRow>::new());
    }

    #[test]
    fn rows_aggregate_by_rule_and_file() {
        let allowed = vec![
            crate::rules::Finding {
                rule: "raw-id-cast",
                file: "a.rs".to_owned(),
                line: 1,
                message: String::new(),
            },
            crate::rules::Finding {
                rule: "raw-id-cast",
                file: "a.rs".to_owned(),
                line: 9,
                message: String::new(),
            },
        ];
        assert_eq!(rows_from(&allowed), vec![row("raw-id-cast", "a.rs", 2)]);
    }

    #[test]
    fn diff_reports_growth_staleness_and_novelty() {
        let cur = vec![row("a", "f1", 3), row("b", "f2", 1)];
        let base = vec![row("a", "f1", 2), row("c", "f3", 1)];
        let lines = diff(&cur, &base);
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().any(|l| l.contains("2 → 3")));
        assert!(lines
            .iter()
            .any(|l| l.contains("not in lint-baseline.json")));
        assert!(lines.iter().any(|l| l.contains("no longer fires")));
        assert!(diff(&base, &base).is_empty());
    }

    #[test]
    fn malformed_baselines_are_errors() {
        assert!(parse("").is_err());
        assert!(parse("{\"allowed\": [{\"rule\": \"x\"}]}").is_err());
        assert!(parse("{\"bogus\": []}").is_err());
    }
}
