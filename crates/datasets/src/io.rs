//! Library persistence: JSON-lines libraries, and the one loader that
//! tells them from compiled GRLB v2 models.
//!
//! A JSONL library holds one `{"goal": id, "actions": [id, …]}` record
//! per line. [`write_library_jsonl`] writes it and [`read_library_file`]
//! streams it back, both through [`crate::record`]'s byte-level record
//! codec — the same one the append WAL and the server's append route
//! use, so every ingest path accepts and rejects the same lines with the
//! same messages.
//!
//! Two robustness properties hold for everything in this module:
//!
//! * **Crash safety** — every writer goes through `atomic_write`: bytes
//!   land in a same-directory temp file, are fsynced, and only then
//!   atomically renamed over the target. A crash, full disk, or injected
//!   torn write never leaves a half-written file where a good one stood.
//! * **Fault injectability** — every file handle is wrapped through
//!   `goalrec-faults`, so chaos tests can schedule IO errors, short reads,
//!   stalls and torn writes against these exact code paths. With no plan
//!   armed the wrappers are passthrough.

use crate::record::{self, RecordReader};
use goalrec_core::{ActionId, GoalId, GoalLibrary, GoalModel};
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed payload of the "library file contains no implementations" load
/// error. Surfaced at load time by [`read_library_file`] so callers (the
/// server boot path, hot reload) can answer with a precise message instead
/// of a confusing downstream model-build failure. Retrieve it through
/// [`is_empty_library`].
#[derive(Debug)]
pub(crate) struct EmptyLibraryError {
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
pub(crate) fn atomic_write(
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

/// Writes a library as JSON-lines, crash-safely: one implementation per
/// line ([`crate::record::encode_record`]), so large libraries stream
/// without a giant in-memory document.
pub fn write_library_jsonl(library: &GoalLibrary, path: &Path) -> std::io::Result<()> {
    atomic_write(path, |w| {
        record::write_records(
            w,
            library
                .implementations()
                .iter()
                .map(|imp| (imp.goal.raw(), imp.actions.iter().map(|a| a.raw()))),
        )
    })
}

/// An `InvalidData` error pinned to a 1-based line of a JSONL file, with
/// the expected shape of a line — what a file of another schema (say, a
/// dataset JSON document) needs to be told.
fn invalid_line(path: &Path, line: usize, detail: impl fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{}:{line}: {detail} (a library is JSON lines: one \
             {{\"goal\": id, \"actions\": [id, …]}} object per line)",
            path.display()
        ),
    )
}

/// What a library file holds, told apart by its first bytes.
pub enum LibraryFile {
    /// A JSON-lines library, id spaces inferred from the data.
    Jsonl(GoalLibrary),
    /// A compiled GRLB v2 model, mapped in place where the platform
    /// allows (see [`crate::grlb2::read_model_v2`]).
    Model(GoalModel),
}

impl LibraryFile {
    /// The library the file holds: a compiled model is turned back into
    /// one (synthetic `a{i}`/`g{i}` names — v2 stores no name tables).
    pub fn into_library(self) -> goalrec_core::Result<GoalLibrary> {
        match self {
            LibraryFile::Jsonl(library) => Ok(library),
            LibraryFile::Model(model) => model.to_library(),
        }
    }
}

/// Reads the library file at `path`, deciding its format from the file's
/// first bytes, not its extension: the GRLB magic opens a compiled v2
/// model, anything else is JSON-lines. This is the one place a file's
/// format is decided — the server's boot and reload and every CLI
/// command load through it (or through [`read_library_auto`]).
///
/// A GRLB file stamped with any version other than 2 is the typed
/// `crate::grlb2::UnsupportedVersion` error, which names the version
/// and `goalrec compile`. A file with zero implementations is the typed
/// `EmptyLibraryError`. JSONL failures report the offending line and
/// either the byte column (not JSON) or the field (not a record). The
/// file is streamed line by line, never held whole in memory.
pub fn read_library_file(path: &Path) -> io::Result<LibraryFile> {
    let mut file = goalrec_faults::read_wrap(path, File::open(path)?);
    let mut head = Vec::with_capacity(8);
    (&mut file).take(8).read_to_end(&mut head)?;
    if crate::grlb2::sniff(path, &head)? {
        drop(file);
        return crate::grlb2::read_model_v2(path).map(LibraryFile::Model);
    }
    let records = read_records(path, BufReader::with_capacity(64 * 1024, head.chain(file)))?;
    GoalLibrary::from_id_implementations(
        records.max_action + 1,
        records.max_goal + 1,
        records.impls,
    )
    .map(LibraryFile::Jsonl)
    .map_err(|e| crate::grlb2::core_to_io(path, e))
}

/// [`read_library_file`] as a [`GoalLibrary`] (see
/// [`LibraryFile::into_library`]).
pub fn read_library_auto(path: &Path) -> std::io::Result<GoalLibrary> {
    read_library_file(path)?
        .into_library()
        .map_err(|e| crate::grlb2::core_to_io(path, e))
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

/// The implementation records of a JSON-lines library, in file order,
/// with the largest goal and action ids seen.
struct Records {
    impls: Vec<(GoalId, Vec<ActionId>)>,
    max_action: u32,
    max_goal: u32,
}

/// Streams every record of a JSONL library through one
/// [`RecordReader`]: blank lines are skipped, and the first bad line is
/// an error naming its number and either the byte column (not JSON) or
/// the field (not a record).
fn read_records(path: &Path, source: impl BufRead) -> io::Result<Records> {
    let mut records = Records {
        impls: Vec::new(),
        max_action: 0,
        max_goal: 0,
    };
    let mut reader = RecordReader::new(source);
    while let Some((line, goal)) = reader.next_record()? {
        let goal = goal.map_err(|detail| invalid_line(path, line, detail))?;
        let actions = reader.actions();
        records.max_goal = records.max_goal.max(goal);
        records.max_action = actions.iter().fold(records.max_action, |m, &a| m.max(a));
        records.impls.push((
            GoalId::new(goal),
            actions.iter().map(|&a| ActionId::new(a)).collect(),
        ));
    }
    Ok(records)
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
    fn jsonl_roundtrip_of_library() {
        let fm = FoodMart::generate(&FoodMartConfig::test_scale());
        let path = tmp("library.jsonl");
        write_library_jsonl(&fm.library, &path).unwrap();
        let back = read_library_auto(&path).unwrap();
        assert_eq!(back.implementations(), fm.library.implementations());
    }

    #[test]
    fn jsonl_lines_are_the_canonical_record_encoding() {
        let mut b = goalrec_core::LibraryBuilder::new();
        b.add_impl("salad", ["potatoes", "carrots"]).unwrap();
        b.add_impl("mash", ["potatoes"]).unwrap();
        let path = tmp("golden.jsonl");
        write_library_jsonl(&b.build().unwrap(), &path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"goal\":0,\"actions\":[0,1]}\n{\"goal\":1,\"actions\":[0]}\n"
        );
    }

    #[test]
    fn read_missing_file_errors() {
        let err = read_library_auto(&tmp("does-not-exist.jsonl")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn auto_read_rejects_empty_library_with_typed_error() {
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "\n  \n").unwrap();
        let err = read_library_auto(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.get_ref().is_some_and(|e| e.is::<EmptyLibraryError>()),
            "expected typed EmptyLibraryError"
        );
        assert!(err.to_string().contains("empty library"), "{err}");
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
        assert!(
            err.to_string().contains("byte column 2"),
            "no column in: {err}"
        );
    }

    #[test]
    fn a_deeply_nested_line_is_a_line_error_not_a_crash() {
        let path = tmp("deep-line.jsonl");
        std::fs::write(
            &path,
            format!("{{\"goal\":1,\"actions\":[2]}}\n{}\n", "[".repeat(200_000)),
        )
        .unwrap();
        let err = read_library_auto(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(":2: invalid JSON at byte column 129"), "{msg}");
        assert!(msg.contains("nesting deeper than 128 levels"), "{msg}");
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
        std::fs::write(&path, "[1,2]\n").unwrap();
        let err = read_library_auto(&path).unwrap_err();
        assert!(err.to_string().contains(":1: expected an object"), "{err}");
    }

    #[test]
    fn format_is_decided_by_the_first_bytes_not_the_extension() {
        let fm = FoodMart::generate(&FoodMartConfig::test_scale());
        let model = GoalModel::build(&fm.library).unwrap();
        // A compiled model under a JSONL name still loads as the model...
        let v2 = tmp("compiled-model.jsonl");
        crate::grlb2::write_model_v2(&model, &v2).unwrap();
        match read_library_file(&v2).unwrap() {
            LibraryFile::Model(m) => assert_eq!(m.flat_sections(), model.flat_sections()),
            LibraryFile::Jsonl(_) => panic!("a GRLB v2 file was read as JSONL"),
        }
        assert_eq!(read_library_auto(&v2).unwrap().len(), fm.library.len());
        // ...and a JSONL library under a model name loads as JSONL.
        let jsonl = tmp("plain-library.grlb2");
        write_library_jsonl(&fm.library, &jsonl).unwrap();
        match read_library_file(&jsonl).unwrap() {
            LibraryFile::Jsonl(lib) => {
                assert_eq!(lib.implementations(), fm.library.implementations())
            }
            LibraryFile::Model(_) => panic!("a JSONL file was read as a model"),
        }
    }

    #[test]
    fn a_version_one_file_is_the_typed_error_naming_compile() {
        // The retired stream format's header: magic, version 1, then
        // records this build no longer decodes.
        let path = tmp("retired.grlb");
        let mut bytes = b"GRLB".to_vec();
        for v in [1u32, 3, 2, 1, 0, 1, 2] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        for err in [
            read_library_file(&path).err().unwrap(),
            read_library_auto(&path).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let typed = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<crate::grlb2::UnsupportedVersion>())
                .unwrap_or_else(|| panic!("untyped: {err}"));
            assert_eq!(typed.version, 1);
            assert!(err.to_string().contains("goalrec compile"), "{err}");
        }
    }

    #[test]
    fn a_dataset_json_file_fails_on_line_one_naming_goal_and_the_library_format() {
        // A whole dataset as one JSON document on one line.
        let path = tmp("dataset-not-library.json");
        std::fs::write(
            &path,
            "{\"library\":{\"implementations\":[{\"goal\":0,\"actions\":[1]}]},\
             \"carts\":[[1,2],[3]],\"cart_user\":[0,0]}\n",
        )
        .unwrap();
        let err = read_library_auto(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(":1: field `goal`: missing"), "{msg}");
        assert!(msg.contains("a library is JSON lines"), "{msg}");

        // At paper scale that line is megabytes of names; the parse must
        // stay linear in it.
        let names: Vec<String> = (0..400_000)
            .map(|i| format!("\"ingredient-{i}\""))
            .collect();
        std::fs::write(&path, format!("{{\"names\": [{}]}}\n", names.join(","))).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > 4_000_000);
        let t0 = std::time::Instant::now();
        let err = read_library_auto(&path).unwrap_err();
        assert!(
            err.to_string().contains(":1: field `goal`: missing"),
            "{err}"
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "{:?}",
            t0.elapsed()
        );
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
