//! Minimal flag parser for the CLI (no external dependency).

use std::collections::HashMap;

/// Parsed command line: positional arguments and `--flag value` /
/// `--flag` pairs.
#[derive(Debug, Default)]
pub(crate) struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses argv. `--name value` stores a value; a `--name` followed by
    /// another flag (or nothing) stores an empty string; `-k` is accepted
    /// as a short alias with a value.
    pub(crate) fn parse(argv: &[String]) -> Self {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                let has_value = i + 1 < argv.len() && !argv[i + 1].starts_with('-');
                if has_value {
                    out.flags.insert(name.to_owned(), argv[i + 1].clone());
                    i += 2;
                } else {
                    out.flags.insert(name.to_owned(), String::new());
                    i += 1;
                }
            } else {
                out.positional.push(a.clone());
                i += 1;
            }
        }
        out
    }

    /// Positional argument by index.
    pub(crate) fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Flag value (empty string for bare flags).
    pub(crate) fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Whether a bare or valued flag is present.
    pub(crate) fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The first flag (by name) not in `known`, if any.
    pub(crate) fn unknown_flag(&self, known: &[&str]) -> Option<&str> {
        self.flags
            .keys()
            .map(String::as_str)
            .filter(|name| !known.contains(name))
            .min()
    }

    /// Required flag, with a readable error.
    pub(crate) fn required(&self, name: &str) -> Result<&str, String> {
        self.flag(name)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| format!("missing required --{name} <value>"))
    }

    /// Parsed numeric flag with a default.
    pub(crate) fn num(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got '{v}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(&[
            "recommend",
            "--library",
            "lib.jsonl",
            "-k",
            "5",
            "--explain",
        ]);
        assert_eq!(a.positional(0), Some("recommend"));
        assert_eq!(a.flag("library"), Some("lib.jsonl"));
        assert_eq!(a.num("k", 10).unwrap(), 5);
        assert!(a.has("explain"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn required_and_errors() {
        let a = parse(&["x", "--out", "file"]);
        assert_eq!(a.required("out").unwrap(), "file");
        assert!(a.required("library").is_err());
        let bad = parse(&["--k", "abc"]);
        assert!(bad.num("k", 1).is_err());
    }

    #[test]
    fn bare_flag_followed_by_flag() {
        let a = parse(&["--explain", "--k", "3"]);
        assert!(a.has("explain"));
        assert_eq!(a.num("k", 10).unwrap(), 3);
    }
}
