//! Append-ahead log for live library mutation.
//!
//! The server admits live appends into an in-memory delta segment overlaid
//! on the compiled base model (see `goalrec_core::DeltaSegment`). The delta
//! only becomes durable when a background compaction merges it into a fresh
//! library file — so between admission and compaction, accepted appends
//! exist nowhere on disk. This module closes that window: every accepted
//! batch is written to a sidecar WAL *before* the append is acknowledged,
//! and on boot the WAL is replayed into the delta so a crash loses nothing
//! that was acknowledged. A successful compaction folds the delta into the
//! library file itself and [clears](AppendWal::clear) the WAL.
//!
//! The log is plain JSONL — one `{"goal": g, "actions": [a, ...]}` record
//! per accepted implementation, the same schema as the library file — so it
//! is inspectable with standard tools. It is written and read by the same
//! record codec as the library file and the append route
//! ([`crate::record`]): [`AppendWal::append_batch`] encodes with
//! [`crate::record::encode_record`] and [`AppendWal::replay`] streams the
//! log line by line through a [`RecordReader`], so a replay never holds
//! the whole log in memory.
//!
//! Crash-model notes:
//!
//! * [`AppendWal::append_batch`] appends through the fault-injection layer
//!   and fsyncs once per batch — an acknowledged batch is on disk.
//! * A crash *mid-write* can leave a torn final record. [`AppendWal::replay`]
//!   tolerates exactly that: an unparseable record is accepted as a torn
//!   tail only if nothing but whitespace follows it; garbage in the middle
//!   of the log is real corruption and is reported as an error naming the
//!   line and offending field.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::record::{self, RecordReader};

/// One replayed WAL record: a goal id and the actions of the accepted
/// implementation.
pub type WalEntry = (u32, Vec<u32>);

/// A sidecar append-ahead log for one library file.
#[derive(Debug, Clone)]
pub struct AppendWal {
    path: PathBuf,
}

impl AppendWal {
    /// The WAL for `library`: a sibling file named `<file>.wal`, in the
    /// same directory so it shares the library's filesystem and survives
    /// with it.
    pub fn for_library(library: &Path) -> Self {
        let mut name = library
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "library".to_owned());
        name.push_str(".wal");
        let path = match library.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.join(name),
            _ => PathBuf::from(name),
        };
        Self { path }
    }

    /// A WAL at an explicit path (tests, tooling).
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably appends a batch of accepted implementations: one JSONL
    /// record per entry, flushed and fsynced before returning, through the
    /// fault-injection layer (plans match the WAL path). On error the tail
    /// of the log may be torn, which [`AppendWal::replay`] tolerates; fully
    /// written earlier records are never disturbed.
    pub fn append_batch(&self, entries: &[WalEntry]) -> io::Result<()> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut w = BufWriter::new(goalrec_faults::write_wrap(&self.path, file));
        record::write_records(
            &mut w,
            entries
                .iter()
                .map(|(goal, actions)| (*goal, actions.iter().copied())),
        )?;
        w.flush()?;
        // Durability point: the acknowledgement to the client is only
        // honest once the records are on disk.
        w.get_ref().get_ref().sync_all()
    }

    /// Replays the log into the list of accepted implementations, in
    /// append order. A missing file is an empty log. A torn final record
    /// (crash mid-append) is dropped silently; an unparseable record with
    /// real records after it is corruption, reported with the 1-based line
    /// number and the offending field.
    pub fn replay(&self) -> io::Result<Vec<WalEntry>> {
        let file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut reader =
            RecordReader::new(BufReader::new(goalrec_faults::read_wrap(&self.path, file)));
        let mut entries = Vec::new();
        while let Some((line, goal)) = reader.next_record()? {
            match goal {
                Ok(goal) => entries.push((goal, reader.actions().to_vec())),
                Err(detail) => {
                    if reader.next_record()?.is_none() {
                        // Torn final record from a crash mid-append: the
                        // batch it belonged to was never acknowledged.
                        break;
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}:{line}: {detail}", self.path.display()),
                    ));
                }
            }
        }
        Ok(entries)
    }

    /// Removes the log after a successful compaction has folded its
    /// records into the library file. A missing log is not an error.
    pub fn clear(&self) -> io::Result<()> {
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goalrec_faults::{with_plan, FaultPlan};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("goalrec-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn sibling_path_and_roundtrip() {
        let lib = tmp("lib.jsonl");
        let wal = AppendWal::for_library(&lib);
        assert_eq!(wal.path(), tmp("lib.jsonl.wal"));
        wal.clear().unwrap();
        assert!(!wal.path().exists());
        assert!(wal.replay().unwrap().is_empty(), "missing file is empty");

        wal.append_batch(&[(3, vec![1, 2]), (0, vec![7])]).unwrap();
        wal.append_batch(&[(5, vec![9])]).unwrap();
        assert!(wal.path().exists());
        assert_eq!(
            wal.replay().unwrap(),
            vec![(3, vec![1, 2]), (0, vec![7]), (5, vec![9])]
        );

        wal.clear().unwrap();
        assert!(!wal.path().exists());
        wal.clear().unwrap(); // idempotent
    }

    #[test]
    fn torn_tail_is_dropped_but_mid_file_corruption_errors() {
        let wal = AppendWal::at(tmp("torn.wal"));
        wal.clear().unwrap();
        wal.append_batch(&[(1, vec![2])]).unwrap();
        // Simulate a crash mid-append: a torn final record.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(wal.path()).unwrap();
            f.write_all(b"{\"goal\":9,\"ac").unwrap();
        }
        assert_eq!(wal.replay().unwrap(), vec![(1, vec![2])]);

        // Garbage *between* records is corruption, not a torn tail.
        let wal = AppendWal::at(tmp("corrupt.wal"));
        std::fs::write(
            wal.path(),
            "{\"goal\":1,\"actions\":[2]}\n{\"goal\":\"x\",\"actions\":[2]}\n{\"goal\":3,\"actions\":[4]}\n",
        )
        .unwrap();
        let err = wal.replay().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":2:"), "{err}");
        assert!(err.to_string().contains("field `goal`"), "{err}");
    }

    #[test]
    fn records_are_written_in_the_library_line_encoding() {
        let wal = AppendWal::at(tmp("golden.wal"));
        wal.clear().unwrap();
        wal.append_batch(&[(3, vec![1, 20]), (0, vec![7])]).unwrap();
        assert_eq!(
            std::fs::read_to_string(wal.path()).unwrap(),
            "{\"goal\":3,\"actions\":[1,20]}\n{\"goal\":0,\"actions\":[7]}\n"
        );
        wal.clear().unwrap();
    }

    #[test]
    fn faults_cover_both_sides_of_the_wal() {
        let wal = AppendWal::at(tmp("faulty.wal"));
        wal.clear().unwrap();
        let plan = FaultPlan::parse("path=faulty.wal;write-error@op=1").unwrap();
        let err = with_plan(plan, || wal.append_batch(&[(1, vec![2])])).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");

        wal.clear().unwrap();
        wal.append_batch(&[(1, vec![2])]).unwrap();
        let plan = FaultPlan::parse("path=faulty.wal;read-error@op=1").unwrap();
        let err = with_plan(plan, || wal.replay()).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        wal.clear().unwrap();
    }
}
