//! Dataset persistence: JSON for whole datasets, JSON-lines for libraries.
//!
//! Generating the paper-scale worlds takes a few seconds; persisting them
//! lets examples and the `repro` harness share identical inputs across
//! runs, and gives downstream users a concrete interchange format for real
//! goal-implementation data.
//!
//! Two robustness properties hold for everything in this module:
//!
//! * **Crash safety** — every writer goes through [`atomic_write`]: bytes
//!   land in a same-directory temp file, are fsynced, and only then
//!   atomically renamed over the target. A crash, full disk, or injected
//!   torn write never leaves a half-written file where a good one stood.
//! * **Fault injectability** — every file handle is wrapped through
//!   `goalrec-faults`, so chaos tests can schedule IO errors, short reads,
//!   stalls and torn writes against these exact code paths. With no plan
//!   armed the wrappers are passthrough.

use goalrec_core::{ActionId, GoalId, GoalLibrary};
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::Value;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed payload of the "library file contains no implementations" load
/// error. Surfaced at load time by [`read_library_auto`] so callers (the
/// server boot path, hot reload) can answer with a precise message instead
/// of a confusing downstream model-build failure. Retrieve it through
/// [`is_empty_library`].
#[derive(Debug)]
pub struct EmptyLibraryError {
    /// The file that held no implementations.
    pub path: PathBuf,
}

impl fmt::Display for EmptyLibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} contains no implementations (empty library)",
            self.path.display()
        )
    }
}

impl std::error::Error for EmptyLibraryError {}

/// Whether `err` is the typed empty-library error raised by
/// [`read_library_auto`].
pub fn is_empty_library(err: &io::Error) -> bool {
    err.get_ref().is_some_and(|e| e.is::<EmptyLibraryError>())
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique temp sibling of `path`, in the same directory so the
/// final rename cannot cross filesystems.
fn tmp_sibling(path: &Path) -> PathBuf {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "library".to_owned());
    // ordering: Relaxed — only the atomicity matters: each caller gets a
    // distinct suffix; nothing is published through the counter.
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    parent.join(format!(".{name}.tmp.{}.{n}", std::process::id()))
}

/// Crash-safe file replacement: runs `write` against a same-directory
/// temp file, fsyncs it, and atomically renames it over `path`. On any
/// failure the temp file is removed and the previous contents of `path`
/// remain untouched — a reader can never observe a partially-written
/// file at the target path.
///
/// The writer handed to `write` is fault-wrapped against the *target*
/// path, so chaos plans name the file being persisted, not the temp name.
pub fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let result = (|| -> io::Result<()> {
        let file = File::create(&tmp)?;
        let mut w = BufWriter::new(goalrec_faults::write_wrap(path, file));
        write(&mut w)?;
        w.flush()?;
        // Durability point: the temp file's bytes must be on disk before
        // the rename makes them the library.
        w.get_ref().get_ref().sync_all()
    })();
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    // Best-effort directory sync so the rename itself survives a crash.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Opens `path` for reading through the fault-injection layer.
fn open_read(path: &Path) -> io::Result<BufReader<goalrec_faults::FaultyRead<File>>> {
    Ok(BufReader::new(goalrec_faults::read_wrap(
        path,
        File::open(path)?,
    )))
}

/// Writes any serialisable dataset as JSON, crash-safely.
pub fn write_json<T: Serialize>(value: &T, path: &Path) -> std::io::Result<()> {
    atomic_write(path, |w| {
        serde_json::to_writer(&mut *w, value)?;
        Ok(())
    })
}

/// Reads a JSON dataset written by [`write_json`].
pub fn read_json<T: DeserializeOwned>(path: &Path) -> std::io::Result<T> {
    let f = open_read(path)?;
    Ok(serde_json::from_reader(f)?)
}

/// Writes a library as JSON-lines, crash-safely: one implementation per
/// line, so large libraries stream without a giant in-memory document.
pub fn write_library_jsonl(library: &GoalLibrary, path: &Path) -> std::io::Result<()> {
    atomic_write(path, |w| {
        for imp in library.implementations() {
            serde_json::to_writer(&mut *w, imp)?;
            writeln!(w)?;
        }
        Ok(())
    })
}

/// An `InvalidData` error pinned to a 1-based line of a JSONL file.
fn invalid_line(path: &Path, line: usize, detail: impl fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}:{line}: {detail}", path.display()),
    )
}

/// Validates one implementation object — `{"goal": g, "actions": [a, ...]}`
/// — returning the raw ids, or an error that names the offending **field**
/// (not just a position), so a rejected JSONL line or append body pinpoints
/// exactly which part of the record is wrong. Unknown extra fields are
/// ignored, matching the serde-derived reader this replaces.
///
/// Shared by [`read_library_auto`], [`read_library_jsonl`], the append WAL
/// ([`crate::wal`]), and the server's live-append admission check, so a
/// record rejected at the HTTP boundary and one rejected at replay produce
/// the same message.
pub fn implementation_from_value(value: &Value) -> Result<(u32, Vec<u32>), String> {
    let fields = match value {
        Value::Object(fields) => fields,
        other => {
            return Err(format!(
                "expected an object with `goal` and `actions` fields, got {other}"
            ))
        }
    };
    let id_of = |v: &Value| v.as_u64().and_then(|n| u32::try_from(n).ok());
    let goal = match fields.iter().find(|(k, _)| k == "goal") {
        None => return Err("field `goal`: missing".to_owned()),
        Some((_, v)) => id_of(v)
            .ok_or_else(|| format!("field `goal`: expected a non-negative integer id, got {v}"))?,
    };
    let actions = match fields.iter().find(|(k, _)| k == "actions") {
        None => return Err("field `actions`: missing".to_owned()),
        Some((_, Value::Array(items))) => {
            if items.is_empty() {
                return Err("field `actions`: must list at least one action".to_owned());
            }
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                out.push(id_of(item).ok_or_else(|| {
                    format!("field `actions`[{i}]: expected a non-negative integer id, got {item}")
                })?);
            }
            out
        }
        Some((_, v)) => {
            return Err(format!(
                "field `actions`: expected an array of action ids, got {v}"
            ))
        }
    };
    Ok((goal, actions))
}

/// Parses one JSONL line as an implementation record with field-named
/// errors — the string form of [`implementation_from_value`].
pub fn parse_implementation_line(line: &str) -> Result<(u32, Vec<u32>), String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    implementation_from_value(&value)
}

/// Reads a library from `path`, choosing the format by extension
/// (`.grlb`/`.grlb2` binary, JSON-lines otherwise) and inferring the
/// action/goal id spaces from the data itself. This is the one-argument
/// loader the server binary, hot reload, and CLI share.
///
/// Binary files are dispatched on the *version stamped in the file*, not
/// the extension: a `.grlb` holding a v2 image (or a `.grlb2` holding v1)
/// still loads with the right reader, so `serve`/`repro` accept compiled
/// `.grlb2` artifacts anywhere a library path is expected.
///
/// A file with zero implementations is rejected here with the typed
/// [`EmptyLibraryError`] (see [`is_empty_library`]) instead of letting an
/// empty library surface as a confusing model-build failure downstream.
/// Parse failures report the offending line number, and schema failures
/// additionally name the offending field (see
/// [`implementation_from_value`]).
pub fn read_library_auto(path: &Path) -> std::io::Result<GoalLibrary> {
    if is_binary_library(path) {
        return if crate::binary::sniff_version(path)? == 2 {
            crate::grlb2::read_library_v2(path)
        } else {
            crate::binary::read_library_binary(path)
        };
    }
    let f = open_read(path)?;
    let mut impls = Vec::new();
    let (mut max_action, mut max_goal) = (0u32, 0u32);
    for (idx, line) in f.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (goal, actions) = parse_implementation_line(&line)
            .map_err(|detail| invalid_line(path, idx + 1, detail))?;
        max_goal = max_goal.max(goal);
        for &a in &actions {
            max_action = max_action.max(a);
        }
        impls.push((
            GoalId::new(goal),
            actions.into_iter().map(ActionId::new).collect(),
        ));
    }
    if impls.is_empty() {
        return Err(empty_library(path));
    }
    GoalLibrary::from_id_implementations(max_action + 1, max_goal + 1, impls)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Whether `path` is a binary `GRLB` family file by extension (`.grlb`
/// v1 stream or `.grlb2` mapped model). Which *reader* applies is decided
/// by [`crate::binary::sniff_version`], not the extension.
pub fn is_binary_library(path: &Path) -> bool {
    path.extension()
        .is_some_and(|e| e == "grlb" || e == "grlb2")
}

/// The typed empty-library `InvalidData` error for `path`.
pub(crate) fn empty_library(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        EmptyLibraryError {
            path: path.to_path_buf(),
        },
    )
}

/// Reads implementations from a JSON-lines file and rebuilds a library.
/// `num_actions`/`num_goals` bound the id spaces (as in
/// [`GoalLibrary::from_id_implementations`]). Parse failures report the
/// offending line number, and schema failures name the offending field.
pub fn read_library_jsonl(
    path: &Path,
    num_actions: u32,
    num_goals: u32,
) -> std::io::Result<GoalLibrary> {
    let f = open_read(path)?;
    let mut impls = Vec::new();
    for (idx, line) in f.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (goal, actions) = parse_implementation_line(&line)
            .map_err(|detail| invalid_line(path, idx + 1, detail))?;
        impls.push((
            GoalId::new(goal),
            actions.into_iter().map(ActionId::new).collect(),
        ));
    }
    GoalLibrary::from_id_implementations(num_actions, num_goals, impls)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foodmart::{FoodMart, FoodMartConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("goalrec-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn json_roundtrip_of_full_dataset() {
        let fm = FoodMart::generate(&FoodMartConfig::test_scale());
        let path = tmp("foodmart.json");
        write_json(&fm, &path).unwrap();
        let mut back: FoodMart = read_json(&path).unwrap();
        back.library.rebuild_lookups();
        assert_eq!(back.carts, fm.carts);
        assert_eq!(back.library.implementations(), fm.library.implementations());
        assert_eq!(back.cart_user, fm.cart_user);
    }

    #[test]
    fn jsonl_roundtrip_of_library() {
        let fm = FoodMart::generate(&FoodMartConfig::test_scale());
        let path = tmp("library.jsonl");
        write_library_jsonl(&fm.library, &path).unwrap();
        let back = read_library_jsonl(
            &path,
            fm.library.num_actions() as u32,
            fm.library.num_goals() as u32,
        )
        .unwrap();
        assert_eq!(back.implementations(), fm.library.implementations());
    }

    #[test]
    fn jsonl_read_rejects_out_of_range_ids() {
        let fm = FoodMart::generate(&FoodMartConfig::test_scale());
        let path = tmp("library-bad.jsonl");
        write_library_jsonl(&fm.library, &path).unwrap();
        let err = read_library_jsonl(&path, 1, 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn read_missing_file_errors() {
        let err = read_json::<FoodMart>(&tmp("does-not-exist.json")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn auto_read_rejects_empty_library_with_typed_error() {
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "\n  \n").unwrap();
        let err = read_library_auto(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(is_empty_library(&err), "expected typed EmptyLibraryError");
        assert!(err.to_string().contains("empty library"), "{err}");
        // A normal InvalidData error is *not* classified as empty.
        let plain = io::Error::new(io::ErrorKind::InvalidData, "other");
        assert!(!is_empty_library(&plain));
    }

    #[test]
    fn auto_read_reports_the_failing_line_number() {
        let fm = FoodMart::generate(&FoodMartConfig::test_scale());
        let path = tmp("bad-line.jsonl");
        write_library_jsonl(&fm.library, &path).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Corrupt the third line.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "need at least three implementations");
        let mut doctored: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        doctored[2] = "{not valid json".to_owned();
        text = doctored.join("\n");
        std::fs::write(&path, &text).unwrap();
        let err = read_library_auto(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":3:"), "no line number in: {err}");
        let err = read_library_jsonl(&path, 1000, 1000).unwrap_err();
        assert!(err.to_string().contains(":3:"), "no line number in: {err}");
    }

    #[test]
    fn jsonl_errors_name_the_offending_field() {
        let path = tmp("bad-field.jsonl");
        // Wrong type for `goal` on line 2.
        std::fs::write(
            &path,
            "{\"goal\":1,\"actions\":[2]}\n{\"goal\":\"g9\",\"actions\":[2]}\n",
        )
        .unwrap();
        let err = read_library_auto(&path).unwrap_err();
        assert!(err.to_string().contains(":2:"), "{err}");
        assert!(err.to_string().contains("field `goal`"), "{err}");
        // Missing `actions`.
        std::fs::write(&path, "{\"goal\":1}\n").unwrap();
        let err = read_library_auto(&path).unwrap_err();
        assert!(
            err.to_string().contains("field `actions`: missing"),
            "{err}"
        );
        // A bad element names its index within the field.
        std::fs::write(&path, "{\"goal\":1,\"actions\":[2,-3]}\n").unwrap();
        let err = read_library_auto(&path).unwrap_err();
        assert!(err.to_string().contains("field `actions`[1]"), "{err}");
        // Empty `actions` is rejected at the line, not at model build.
        std::fs::write(&path, "{\"goal\":1,\"actions\":[]}\n").unwrap();
        let err = read_library_auto(&path).unwrap_err();
        assert!(err.to_string().contains("at least one action"), "{err}");
        // Non-object lines are named as such.
        assert!(parse_implementation_line("[1,2]")
            .unwrap_err()
            .contains("expected an object"));
    }

    #[test]
    fn atomic_write_leaves_no_temp_files_behind() {
        let dir = std::env::temp_dir().join("goalrec-io-tests-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.jsonl");
        let fm = FoodMart::generate(&FoodMartConfig::test_scale());
        write_library_jsonl(&fm.library, &path).unwrap();
        // A failing writer must also clean up.
        let err = atomic_write(&dir.join("failing.json"), |_w| {
            Err(io::Error::other("writer bailed"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("writer bailed"));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }
}
