//! The fault schedule: what misbehaves, where, and how.
//!
//! A [`FaultPlan`] is a list of one-shot [`FaultEvent`]s, each firing when
//! a [`Trigger`] condition on the wrapped stream is met — a byte offset
//! crossed or an operation count reached, on the read or the write side.
//! Plans are plain data: deterministic, cloneable, comparable, and
//! round-trippable through the compact text syntax used by the chaos
//! tooling:
//!
//! ```text
//! plan    := clause (';' clause)*
//! clause  := 'path=' SUBSTR            — only streams whose path contains SUBSTR
//!          | kind '@' trigger
//! kind    := 'read-error' | 'write-error' | 'short-read' | 'torn-write'
//!          | 'stall-' MILLIS 'ms'
//! trigger := ('byte' | 'op') '=' N
//! ```
//!
//! Examples: `read-error@op=2`, `path=.grlb;torn-write@byte=64`,
//! `stall-50ms@op=1;read-error@op=3`.

use std::fmt;
use std::time::Duration;

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The read call fails with [`std::io::ErrorKind::Other`].
    ReadError,
    /// The write call fails with [`std::io::ErrorKind::Other`].
    WriteError,
    /// The read returns at most one byte (never an error) — exercises
    /// callers that assume full buffers come back in one call.
    ShortRead,
    /// The write persists only the bytes below the trigger offset, then
    /// fails — the classic torn/partial write of a crash or full disk.
    TornWrite,
    /// The read completes normally after sleeping for the given duration.
    Stall(Duration),
}

impl FaultKind {
    /// Whether this kind fires on the read side of a stream.
    pub(crate) fn is_read_side(&self) -> bool {
        matches!(
            self,
            FaultKind::ReadError | FaultKind::ShortRead | FaultKind::Stall(_)
        )
    }
}

/// When an event fires, measured on the side the kind applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fires on the IO call during which the cumulative byte count would
    /// reach or pass this offset.
    ByteOffset(u64),
    /// Fires on the N-th IO call (1-based).
    OpCount(u64),
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// What misbehaves.
    pub kind: FaultKind,
    /// When it fires.
    pub trigger: Trigger,
}

/// A deterministic schedule of IO faults, optionally scoped to paths
/// containing a substring.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Only streams whose path contains this substring are faulted; an
    /// empty filter matches every stream.
    pub path_filter: Option<String>,
    /// The scheduled events. Each fires at most once per wrapped stream.
    pub events: Vec<FaultEvent>,
}

/// A malformed plan string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// The clause that failed to parse.
    pub clause: String,
    /// Why it was rejected.
    pub detail: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault clause '{}': {}", self.clause, self.detail)
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// An empty plan (no events, no filter) — wrapping with it is a
    /// passthrough.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan applies to a stream opened at `path`.
    pub(crate) fn matches(&self, path: &str) -> bool {
        match &self.path_filter {
            Some(filter) => path.contains(filter.as_str()),
            None => true,
        }
    }

    /// Adds an event, builder-style.
    pub fn with(mut self, kind: FaultKind, trigger: Trigger) -> Self {
        self.events.push(FaultEvent { kind, trigger });
        self
    }

    /// Restricts the plan to paths containing `filter`, builder-style.
    pub fn for_paths(mut self, filter: &str) -> Self {
        self.path_filter = Some(filter.to_owned());
        self
    }

    /// Parses the compact text syntax (see the module docs).
    pub fn parse(text: &str) -> Result<Self, PlanParseError> {
        let mut plan = FaultPlan::new();
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(filter) = clause.strip_prefix("path=") {
                plan.path_filter = Some(filter.to_owned());
                continue;
            }
            let (kind_text, trigger_text) = clause.split_once('@').ok_or_else(|| {
                bad(
                    clause,
                    "expected KIND@TRIGGER (e.g. read-error@op=2) or path=SUBSTR",
                )
            })?;
            let kind = parse_kind(clause, kind_text)?;
            let trigger = parse_trigger(clause, trigger_text)?;
            plan.events.push(FaultEvent { kind, trigger });
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, ";")?;
            }
            first = false;
            Ok(())
        };
        if let Some(filter) = &self.path_filter {
            sep(f)?;
            write!(f, "path={filter}")?;
        }
        for event in &self.events {
            sep(f)?;
            match &event.kind {
                FaultKind::ReadError => write!(f, "read-error")?,
                FaultKind::WriteError => write!(f, "write-error")?,
                FaultKind::ShortRead => write!(f, "short-read")?,
                FaultKind::TornWrite => write!(f, "torn-write")?,
                FaultKind::Stall(d) => write!(f, "stall-{}ms", d.as_millis())?,
            }
            match event.trigger {
                Trigger::ByteOffset(n) => write!(f, "@byte={n}")?,
                Trigger::OpCount(n) => write!(f, "@op={n}")?,
            }
        }
        Ok(())
    }
}

fn bad(clause: &str, detail: &str) -> PlanParseError {
    PlanParseError {
        clause: clause.to_owned(),
        detail: detail.to_owned(),
    }
}

fn parse_kind(clause: &str, text: &str) -> Result<FaultKind, PlanParseError> {
    match text {
        "read-error" => Ok(FaultKind::ReadError),
        "write-error" => Ok(FaultKind::WriteError),
        "short-read" => Ok(FaultKind::ShortRead),
        "torn-write" => Ok(FaultKind::TornWrite),
        other => {
            let millis = other
                .strip_prefix("stall-")
                .and_then(|t| t.strip_suffix("ms"))
                .and_then(|t| t.parse::<u64>().ok());
            match millis {
                Some(ms) => Ok(FaultKind::Stall(Duration::from_millis(ms))),
                None => Err(bad(
                    clause,
                    "unknown kind (expected read-error | write-error | short-read \
                     | torn-write | stall-<N>ms)",
                )),
            }
        }
    }
}

fn parse_trigger(clause: &str, text: &str) -> Result<Trigger, PlanParseError> {
    let (dim, value) = text
        .split_once('=')
        .ok_or_else(|| bad(clause, "expected byte=N or op=N after '@'"))?;
    let n: u64 = value
        .parse()
        .map_err(|_| bad(clause, "trigger value is not a number"))?;
    match dim {
        "byte" => Ok(Trigger::ByteOffset(n)),
        "op" => {
            if n == 0 {
                return Err(bad(clause, "op counts are 1-based; op=0 never fires"));
            }
            Ok(Trigger::OpCount(n))
        }
        _ => Err(bad(clause, "trigger dimension must be 'byte' or 'op'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind_and_trigger() {
        let plan = FaultPlan::parse(
            "path=.grlb;read-error@byte=64;write-error@op=2;short-read@op=1;\
             torn-write@byte=10;stall-50ms@op=3",
        )
        .unwrap();
        assert_eq!(plan.path_filter.as_deref(), Some(".grlb"));
        assert_eq!(plan.events.len(), 5);
        assert_eq!(
            plan.events[0],
            FaultEvent {
                kind: FaultKind::ReadError,
                trigger: Trigger::ByteOffset(64)
            }
        );
        assert_eq!(
            plan.events[4],
            FaultEvent {
                kind: FaultKind::Stall(Duration::from_millis(50)),
                trigger: Trigger::OpCount(3)
            }
        );
    }

    #[test]
    fn display_round_trips() {
        let text = "path=lib;read-error@byte=64;stall-5ms@op=2;torn-write@byte=9";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.to_string(), text);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn rejects_malformed_clauses() {
        for text in [
            "read-error",        // no trigger
            "read-error@",       // empty trigger
            "read-error@byte",   // no value
            "read-error@byte=x", // non-numeric
            "read-error@line=3", // unknown dimension
            "read-error@op=0",   // op counts are 1-based
            "explode@op=1",      // unknown kind
            "stall-xms@op=1",    // bad stall duration
        ] {
            assert!(FaultPlan::parse(text).is_err(), "'{text}' must be rejected");
        }
    }

    #[test]
    fn empty_and_whitespace_plans_are_empty() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::new());
        assert_eq!(FaultPlan::parse(" ; ; ").unwrap(), FaultPlan::new());
    }

    #[test]
    fn path_filters_scope_matching() {
        let plan = FaultPlan::parse("path=.grlb;read-error@op=1").unwrap();
        assert!(plan.matches("/tmp/lib.grlb"));
        assert!(!plan.matches("/tmp/lib.jsonl"));
        assert!(FaultPlan::new().matches("/anything"));
    }
}
