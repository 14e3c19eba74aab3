//! GRLB v2 — the servable model format: aligned, sectioned, checksummed.
//!
//! A JSONL library (see [`crate::io`]) must be parsed and compiled into
//! the inverted indexes before it serves. v2 instead writes the compiled
//! [`GoalModel`]'s flat arrays exactly as they sit in memory, so loading
//! is `mmap` + validate — no parse, no allocation, no index inversion —
//! and every process serving the file shares one physical copy through
//! the page cache.
//! Version 2 is the only version read: a GRLB file stamped with any other
//! version is the typed `UnsupportedVersion` error. Layout (all
//! integers little-endian):
//!
//! ```text
//! offset   0  magic    b"GRLB"                                  4 bytes
//!          4  version  u32 = 2
//!          8  actions  u64   |𝒜|
//!         16  goals    u64   |𝒢|
//!         24  impls    u64   |L|
//!         32  file_len u64   total file length in bytes
//!         40  file_fnv u64   lane-folded FNV-1a over bytes [256, file_len)
//!         48  8 section descriptors × { offset u64, words u64, fnv u64 }
//!        240  head_fnv u64   lane-folded FNV-1a over bytes [0, 240)
//!        248  zero padding to 256
//!        256  sections, each 64-byte aligned, zero-padded gaps:
//!             0 impl-goal          GI-G-idx forward labels   (impls words)
//!             1 impl-actions off   GI-A-idx offsets          (impls+1)
//!             2 impl-actions data  GI-A-idx postings
//!             3 goal-impls off     inverse GI-G-idx offsets  (goals+1)
//!             4 goal-impls data    inverse GI-G-idx postings
//!             5 action-impls off   A-GI-idx offsets          (actions+1)
//!             6 action-impls data  A-GI-idx postings
//!             7 impl-global        retired; always empty     (0 words)
//! ```
//!
//! Section 7 is retired: the writer leaves it empty, and the reader
//! refuses a file that fills it (see [`read_model_v2`]).
//!
//! **Validate-before-trust:** a mapped file is untrusted memory. The
//! reader verifies, in order: header checksum, exact section layout
//! (alignment, ordering, bounds, cardinalities), per-section and
//! whole-file checksums, and finally [`GoalModel::from_backings`] runs the
//! full structural check (offset monotonicity, row sortedness, id ranges)
//! over the mapped words. Every failure is a typed `InvalidData` error —
//! corruption can never panic the server or read out of bounds.

use crate::mmap::{mmap_supported, ModelBytes};
use goalrec_core::GoalModel;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"GRLB";
const VERSION: u32 = 2;

/// Typed payload of the error a GRLB file of any version other than 2
/// gets — from every reader of this module and from the format sniff in
/// [`crate::io::read_library_file`], so boot, reload, `compile` and
/// `stats` all name the found version and the way to a servable file.
#[derive(Debug)]
pub(crate) struct UnsupportedVersion {
    /// The file that was read.
    pub path: PathBuf,
    /// The version stamped in its header.
    pub version: u32,
}

impl fmt::Display for UnsupportedVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} is a GRLB version {} file; only version {VERSION} is read — rebuild it from \
             its JSONL library with `goalrec compile --library LIB.jsonl --out MODEL.grlb2`",
            self.path.display(),
            self.version
        )
    }
}

impl std::error::Error for UnsupportedVersion {}

/// An `InvalidData` error with a plain message.
pub(crate) fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// Maps core build errors onto io errors, treating an empty model as the
/// shared "empty library" condition of [`crate::io`].
pub(crate) fn core_to_io(path: &Path, e: goalrec_core::Error) -> io::Error {
    match e {
        goalrec_core::Error::EmptyLibrary => crate::io::empty_library(path),
        other => invalid(&other.to_string()),
    }
}

/// Whether `head` — the first bytes of the file at `path` — opens a GRLB
/// file. A GRLB file stamped with a version other than 2 is the typed
/// [`UnsupportedVersion`] error; a head too short to hold the version is
/// left for [`read_model_v2`] to reject as truncated.
pub(crate) fn sniff(path: &Path, head: &[u8]) -> io::Result<bool> {
    if !head.starts_with(MAGIC) {
        return Ok(false);
    }
    match head.get(4..8) {
        Some(&[a, b, c, d]) => check_version(path, u32::from_le_bytes([a, b, c, d])).map(|()| true),
        _ => Ok(true),
    }
}

fn check_version(path: &Path, version: u32) -> io::Result<()> {
    if version == VERSION {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        UnsupportedVersion {
            path: path.to_path_buf(),
            version,
        },
    ))
}

/// Fixed header size; the first section starts here.
pub(crate) const HEADER_LEN: usize = 256;
/// Every section offset is a multiple of this (cache-line, and a fortiori
/// `u32`, alignment — also what keeps mapped `&[u32]` views aligned).
pub(crate) const SECTION_ALIGN: u64 = 64;
const NUM_SECTIONS: usize = 8;
/// Byte range of the header covered by the header checksum.
const HEADER_FNV_AT: usize = 240;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The v2 corruption checksum: FNV-1a run over four interleaved 64-bit
/// little-endian lanes (one 32-byte stripe per round), with the lane
/// states and any sub-stripe tail folded in byte-wise at the end. Same
/// constants as byte-wise FNV-1a, but the serial xor-multiply dependency
/// advances per lane word instead of per byte and the four lanes run in
/// parallel — which is what keeps the two checksum passes over a
/// multi-megabyte model file inside the single-digit-millisecond
/// cold-start budget. Not
/// cryptographic; detects bit flips, torn writes and truncation.
struct Fnv4 {
    lanes: [u64; 4],
    tail: [u8; 32],
    tail_len: usize,
}

impl Fnv4 {
    fn new() -> Self {
        Fnv4 {
            lanes: [FNV_OFFSET; 4],
            tail: [0; 32],
            tail_len: 0,
        }
    }

    /// One-shot convenience over a complete byte image.
    fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv4::new();
        h.update(bytes);
        h.finish()
    }

    fn fold_stripe(&mut self, stripe: &[u8]) {
        for (lane, w) in self.lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            *lane ^= u64::from_le_bytes(b);
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.tail_len > 0 {
            let take = (32 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 32 {
                return;
            }
            let stripe = self.tail;
            self.fold_stripe(&stripe);
            self.tail_len = 0;
        }
        let mut stripes = bytes.chunks_exact(32);
        for s in &mut stripes {
            self.fold_stripe(s);
        }
        let rem = stripes.remainder();
        self.tail[..rem.len()].copy_from_slice(rem);
        self.tail_len = rem.len();
    }

    fn finish(&self) -> u64 {
        let mut h = self
            .lanes
            .iter()
            .fold(FNV_OFFSET, |h, &l| (h ^ l).wrapping_mul(FNV_PRIME));
        for &b in &self.tail[..self.tail_len] {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

const SEC_IMPL_GOAL: usize = 0;
const SEC_IA_OFF: usize = 1;
const SEC_GI_OFF: usize = 3;
const SEC_AI_OFF: usize = 5;
const SEC_IMPL_GLOBAL: usize = 7;

/// Human names for error messages, in section order.
const SECTION_NAMES: [&str; NUM_SECTIONS] = [
    "impl-goal",
    "impl-actions offsets",
    "impl-actions data",
    "goal-impls offsets",
    "goal-impls data",
    "action-impls offsets",
    "action-impls data",
    "impl-global",
];

fn align_up(x: u64) -> u64 {
    (x + (SECTION_ALIGN - 1)) & !(SECTION_ALIGN - 1)
}

/// One parsed section descriptor: byte offset, length in `u32` words, and
/// the FNV-1a checksum of the section's bytes.
#[derive(Clone, Copy)]
struct Section {
    offset: u64,
    words: u64,
    fnv: u64,
}

/// The parsed, checksum-verified v2 header (layout not yet validated).
struct Header {
    num_actions: u64,
    num_goals: u64,
    num_impls: u64,
    file_len: u64,
    file_fnv: u64,
    sections: [Section; NUM_SECTIONS],
}

fn get_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Parses and checksum-verifies the fixed 256-byte header.
fn parse_header(path: &Path, h: &[u8; HEADER_LEN]) -> io::Result<Header> {
    if &h[0..4] != MAGIC {
        return Err(invalid("not a GRLB file (bad magic)"));
    }
    check_version(path, u32::from_le_bytes([h[4], h[5], h[6], h[7]]))?;
    if Fnv4::digest(&h[..HEADER_FNV_AT]) != get_u64(h, HEADER_FNV_AT) {
        return Err(invalid("header checksum mismatch (corrupted header)"));
    }
    if h[HEADER_FNV_AT + 8..].iter().any(|&b| b != 0) {
        return Err(invalid("nonzero bytes in reserved header padding"));
    }
    let mut sections = [Section {
        offset: 0,
        words: 0,
        fnv: 0,
    }; NUM_SECTIONS];
    for (i, s) in sections.iter_mut().enumerate() {
        let base = 48 + i * 24;
        *s = Section {
            offset: get_u64(h, base),
            words: get_u64(h, base + 8),
            fnv: get_u64(h, base + 16),
        };
    }
    Ok(Header {
        num_actions: get_u64(h, 8),
        num_goals: get_u64(h, 16),
        num_impls: get_u64(h, 24),
        file_len: get_u64(h, 32),
        file_fnv: get_u64(h, 40),
        sections,
    })
}

/// Validates the section layout against the id-space sizes and the actual
/// file length. After this returns `Ok`, every section range is in bounds,
/// 64-byte aligned, non-overlapping, in order, and of the cardinality the
/// header promises — so handing the ranges to [`ModelBytes::section`] is
/// safe.
fn validate_layout(h: &Header, actual_len: u64) -> io::Result<()> {
    if h.file_len != actual_len {
        return Err(invalid(&format!(
            "file length mismatch (header says {} bytes, file has {actual_len} — truncated or trailing garbage)",
            h.file_len
        )));
    }
    for (what, n) in [
        ("action", h.num_actions),
        ("goal", h.num_goals),
        ("implementation", h.num_impls),
    ] {
        if n > u32::MAX as u64 {
            return Err(invalid(&format!("{what} id space exceeds u32 capacity")));
        }
    }
    // Cardinalities the header itself fixes; data-section lengths are
    // cross-checked against the offset arrays by the structural pass.
    let expected: [Option<u64>; NUM_SECTIONS] = [
        Some(h.num_impls),
        Some(h.num_impls + 1),
        None,
        Some(h.num_goals + 1),
        None,
        Some(h.num_actions + 1),
        None,
        None,
    ];
    let mut cursor = HEADER_LEN as u64;
    for i in 0..NUM_SECTIONS {
        let s = &h.sections[i];
        let name = SECTION_NAMES[i];
        if !s.offset.is_multiple_of(SECTION_ALIGN) {
            return Err(invalid(&format!(
                "section `{name}` misaligned (offset {} is not {SECTION_ALIGN}-byte aligned)",
                s.offset
            )));
        }
        // The writer's layout is canonical: each section starts at the
        // aligned end of the previous one. Anything else is overlap,
        // reordering, or an unexplained gap — reject all three.
        let start = align_up(cursor);
        if s.offset < start {
            return Err(invalid(&format!(
                "section `{name}` overlaps the previous section (offset {} < {start})",
                s.offset
            )));
        }
        if s.offset > start {
            return Err(invalid(&format!(
                "section `{name}` leaves a gap after the previous section (offset {} > {start})",
                s.offset
            )));
        }
        if s.words > u32::MAX as u64 {
            return Err(invalid(&format!(
                "section `{name}` exceeds the u32 posting capacity"
            )));
        }
        let end = s.offset + s.words * 4;
        if end > h.file_len {
            return Err(invalid(&format!(
                "section `{name}` runs past the end of the file ({end} > {})",
                h.file_len
            )));
        }
        if let Some(exp) = expected[i] {
            if s.words != exp {
                return Err(invalid(&format!(
                    "section `{name}` holds {} words, header cardinalities require {exp}",
                    s.words
                )));
            }
        }
        cursor = end;
    }
    if cursor != h.file_len {
        return Err(invalid(&format!(
            "trailing bytes after the last section ({cursor} < {})",
            h.file_len
        )));
    }
    let ig = h.sections[SEC_IMPL_GLOBAL].words;
    if ig != 0 && ig != h.num_impls {
        return Err(invalid(&format!(
            "impl-global section holds {ig} words; must be empty (whole model) or one per implementation ({})",
            h.num_impls
        )));
    }
    Ok(())
}

/// Verifies the per-section and whole-file checksums against the complete
/// file image. This is the single full pass over the bytes a v2 load pays.
fn verify_checksums(h: &Header, bytes: &[u8]) -> io::Result<()> {
    for (i, s) in h.sections.iter().enumerate() {
        let start = s.offset as usize;
        let end = start + s.words as usize * 4;
        if Fnv4::digest(&bytes[start..end]) != s.fnv {
            return Err(invalid(&format!(
                "section `{}` checksum mismatch (file corrupted)",
                SECTION_NAMES[i]
            )));
        }
    }
    if Fnv4::digest(&bytes[HEADER_LEN..]) != h.file_fnv {
        return Err(invalid("whole-file checksum mismatch (file corrupted)"));
    }
    Ok(())
}

/// Checksum over the little-endian bytes of `words`, also feeding `body`,
/// the running whole-file hash. Streams in 8-word (one stripe) chunks so
/// the words never need a materialized byte image.
fn hash_section(words: &[u32], body: &mut Fnv4) -> u64 {
    let mut h = Fnv4::new();
    let mut stripe = [0u8; 32];
    for chunk in words.chunks(8) {
        for (slot, w) in stripe.chunks_exact_mut(4).zip(chunk) {
            slot.copy_from_slice(&w.to_le_bytes());
        }
        let filled = &stripe[..chunk.len() * 4];
        h.update(filled);
        body.update(filled);
    }
    h.finish()
}

/// Writes the eight sections in v2 layout, crash-safely. The header is
/// assembled after hashing the in-memory arrays, so the file is written in
/// one forward streaming pass.
fn write_v2(
    num_actions: u64,
    num_goals: u64,
    sections: [&[u32]; NUM_SECTIONS],
    path: &Path,
) -> io::Result<()> {
    let num_impls = sections[SEC_IMPL_GOAL].len() as u64;
    let mut offsets = [0u64; NUM_SECTIONS];
    let mut cursor = HEADER_LEN as u64;
    for (i, sec) in sections.iter().enumerate() {
        cursor = align_up(cursor);
        offsets[i] = cursor;
        cursor += sec.len() as u64 * 4;
    }
    let file_len = cursor;

    // Hash pass: per-section FNVs plus the whole-body FNV (padding
    // included, so gap bytes are covered too).
    let mut body = Fnv4::new();
    let mut sec_fnv = [0u64; NUM_SECTIONS];
    let mut pos = HEADER_LEN as u64;
    const ZEROS: [u8; SECTION_ALIGN as usize] = [0; SECTION_ALIGN as usize];
    for (i, sec) in sections.iter().enumerate() {
        body.update(&ZEROS[..(offsets[i] - pos) as usize]);
        sec_fnv[i] = hash_section(sec, &mut body);
        pos = offsets[i] + sec.len() as u64 * 4;
    }

    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&num_actions.to_le_bytes());
    header[16..24].copy_from_slice(&num_goals.to_le_bytes());
    header[24..32].copy_from_slice(&num_impls.to_le_bytes());
    header[32..40].copy_from_slice(&file_len.to_le_bytes());
    header[40..48].copy_from_slice(&body.finish().to_le_bytes());
    for i in 0..NUM_SECTIONS {
        let base = 48 + i * 24;
        header[base..base + 8].copy_from_slice(&offsets[i].to_le_bytes());
        header[base + 8..base + 16].copy_from_slice(&(sections[i].len() as u64).to_le_bytes());
        header[base + 16..base + 24].copy_from_slice(&sec_fnv[i].to_le_bytes());
    }
    let head_hash = Fnv4::digest(&header[..HEADER_FNV_AT]);
    header[HEADER_FNV_AT..HEADER_FNV_AT + 8].copy_from_slice(&head_hash.to_le_bytes());

    crate::io::atomic_write(path, |out| {
        out.write_all(&header)?;
        let mut pos = HEADER_LEN as u64;
        for (i, sec) in sections.iter().enumerate() {
            out.write_all(&ZEROS[..(offsets[i] - pos) as usize])?;
            for &w in *sec {
                out.write_all(&w.to_le_bytes())?;
            }
            pos = offsets[i] + sec.len() as u64 * 4;
        }
        Ok(())
    })
}

/// Writes a compiled model as a v2 file (empty `impl-global` section),
/// crash-safely via `crate::io::atomic_write`.
pub fn write_model_v2(model: &GoalModel, path: &Path) -> io::Result<()> {
    let s = model.flat_sections();
    write_v2(
        model.num_actions() as u64,
        model.num_goals() as u64,
        [s[0], s[1], s[2], s[3], s[4], s[5], s[6], &[]],
        path,
    )
}

/// Opens, header-validates, acquires (map or heap-read) and
/// checksum-verifies a v2 file. `use_mmap` is threaded explicitly so tests
/// can force the heap path without mutating the process environment.
fn open_v2(path: &Path, use_mmap: bool) -> io::Result<(Header, ModelBytes)> {
    let file = File::open(path)?;
    let actual_len = file.metadata()?.len();
    // The header always goes through the fault layer (and on the heap
    // path, so does the rest of the file), so chaos plans against this
    // path fire before any mapping exists.
    let mut r = BufReader::new(goalrec_faults::read_wrap(path, file));
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid("file shorter than the 256-byte GRLB v2 header")
        } else {
            e
        }
    })?;
    let h = parse_header(path, &header)?;
    validate_layout(&h, actual_len)?;
    let bytes = if use_mmap {
        #[cfg(all(unix, target_endian = "little"))]
        {
            drop(r);
            ModelBytes::map_file(path, h.file_len)?
        }
        #[cfg(not(all(unix, target_endian = "little")))]
        {
            ModelBytes::read_heap(&header, &mut r, h.file_len)?
        }
    } else {
        ModelBytes::read_heap(&header, &mut r, h.file_len)?
    };
    verify_checksums(&h, bytes.as_bytes())?;
    Ok((h, bytes))
}

/// Assembles a [`GoalModel`] over the (validated) section views; the
/// structural pass in [`GoalModel::from_backings`] is the last gate.
fn model_from(h: &Header, bytes: &ModelBytes, path: &Path) -> io::Result<GoalModel> {
    let sec = |i: usize| bytes.section(h.sections[i].offset as usize, h.sections[i].words as usize);
    GoalModel::from_backings(
        h.num_actions as usize,
        h.num_goals as usize,
        sec(SEC_IMPL_GOAL),
        sec(SEC_IA_OFF),
        sec(SEC_IA_OFF + 1),
        sec(SEC_GI_OFF),
        sec(SEC_GI_OFF + 1),
        sec(SEC_AI_OFF),
        sec(SEC_AI_OFF + 1),
    )
    .map_err(|e| core_to_io(path, e))
}

/// Reads a v2 model file, mapped in place when the platform allows (see
/// [`crate::mmap::mmap_supported`]), heap-resident otherwise.
///
/// A file whose `impl-global` section is filled is a per-shard snapshot
/// written by an older `goalrec compile --shards`; it holds only part of
/// a library, so it is refused with a typed `InvalidData` error that
/// names the way to a servable file.
pub fn read_model_v2(path: &Path) -> io::Result<GoalModel> {
    read_model_v2_with(path, mmap_supported())
}

/// [`read_model_v2`] with the heap fallback forced — for tests and for
/// callers that must not hold a file mapping open.
pub fn read_model_v2_heap(path: &Path) -> io::Result<GoalModel> {
    read_model_v2_with(path, false)
}

fn read_model_v2_with(path: &Path, use_mmap: bool) -> io::Result<GoalModel> {
    let (h, bytes) = open_v2(path, use_mmap)?;
    if h.sections[SEC_IMPL_GLOBAL].words != 0 {
        return Err(invalid(
            "this is a retired shard snapshot (impl-global section present), which holds \
             only part of a library; re-run `goalrec compile` on the library to write a \
             servable model",
        ));
    }
    model_from(&h, &bytes, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foodmart::{FoodMart, FoodMartConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("goalrec-grlb2-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn test_model() -> GoalModel {
        let fm = FoodMart::generate(&FoodMartConfig::test_scale());
        GoalModel::build(&fm.library).unwrap()
    }

    /// A small, irregular model for the exhaustive byte-level sweeps
    /// (full-file bit-flipping is quadratic in file size).
    fn tiny_model() -> GoalModel {
        use goalrec_core::LibraryBuilder;
        let mut b = LibraryBuilder::new();
        b.add_impl("salad", ["potatoes", "carrots", "pickles"])
            .unwrap();
        b.add_impl("mash", ["potatoes", "butter"]).unwrap();
        b.add_impl("soup", ["peas", "carrots", "onion", "salt"])
            .unwrap();
        GoalModel::build(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_identical_mapped_and_heap() {
        let model = test_model();
        let path = tmp("round.grlb2");
        write_model_v2(&model, &path).unwrap();
        for (back, label) in [
            (read_model_v2(&path).unwrap(), "default"),
            (read_model_v2_heap(&path).unwrap(), "heap"),
        ] {
            assert_eq!(back.num_actions(), model.num_actions(), "{label}");
            assert_eq!(back.num_goals(), model.num_goals(), "{label}");
            for (a, b) in back.flat_sections().iter().zip(model.flat_sections()) {
                assert_eq!(*a, b, "{label}");
            }
            back.validate().unwrap();
        }
        if mmap_supported() {
            assert!(read_model_v2(&path).unwrap().is_mapped());
        }
    }

    #[test]
    fn writer_layout_is_aligned_and_deterministic() {
        let model = test_model();
        let (p1, p2) = (tmp("det1.grlb2"), tmp("det2.grlb2"));
        write_model_v2(&model, &p1).unwrap();
        write_model_v2(&model, &p2).unwrap();
        let bytes = std::fs::read(&p1).unwrap();
        assert_eq!(
            bytes,
            std::fs::read(&p2).unwrap(),
            "writer not deterministic"
        );
        assert_eq!(bytes.len() % 4, 0);
        for i in 0..NUM_SECTIONS {
            let off = get_u64(&bytes, 48 + i * 24);
            assert_eq!(off % SECTION_ALIGN, 0, "section {i} misaligned");
        }
    }

    #[test]
    fn a_retired_shard_snapshot_is_refused_with_a_typed_error() {
        // What an older `goalrec compile --shards` wrote: a model whose
        // impl-global section maps its rows into a larger library.
        let model = tiny_model();
        let map: Vec<u32> = (0..model.num_impls() as u32).map(|i| i * 2 + 1).collect();
        let s = model.flat_sections();
        let path = tmp("retired-shard.grlb2");
        write_v2(
            model.num_actions() as u64,
            model.num_goals() as u64,
            [s[0], s[1], s[2], s[3], s[4], s[5], s[6], &map],
            &path,
        )
        .unwrap();
        let errors = [
            read_model_v2(&path).unwrap_err(),
            read_model_v2_heap(&path).unwrap_err(),
            crate::io::read_library_file(&path).err().unwrap(),
        ];
        for err in errors {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains("retired shard snapshot") && msg.contains("goalrec compile"),
                "{msg}"
            );
        }
    }

    #[test]
    fn every_header_field_corruption_is_caught() {
        // Exhaustive matrix: flip one bit in every byte of the header —
        // magic, version, each cardinality, file_len, every descriptor
        // field, the checksums, the reserved pad — and require a typed
        // error from both the mapped and the heap reader.
        let model = test_model();
        let path = tmp("headmatrix.grlb2");
        write_model_v2(&model, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mutant = tmp("headmatrix-mut.grlb2");
        for byte_idx in 0..HEADER_LEN {
            let mut copy = bytes.clone();
            copy[byte_idx] ^= 1 << (byte_idx % 8);
            std::fs::write(&mutant, &copy).unwrap();
            for (res, label) in [
                (read_model_v2(&mutant).err(), "mapped"),
                (read_model_v2_heap(&mutant).err(), "heap"),
            ] {
                let err = res.unwrap_or_else(|| {
                    panic!("header byte {byte_idx} corrupted and {label} read still parsed")
                });
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {byte_idx}");
            }
        }
        std::fs::write(&mutant, &bytes).unwrap();
        assert!(read_model_v2(&mutant).is_ok(), "fixture itself broken");
    }

    #[test]
    fn every_body_bit_flip_is_caught() {
        let model = tiny_model();
        let path = tmp("bodyflip.grlb2");
        write_model_v2(&model, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mutant = tmp("bodyflip-mut.grlb2");
        for byte_idx in HEADER_LEN..bytes.len() {
            for bit in 0..8 {
                let mut copy = bytes.clone();
                copy[byte_idx] ^= 1 << bit;
                std::fs::write(&mutant, &copy).unwrap();
                assert!(
                    read_model_v2(&mutant).is_err(),
                    "bit {bit} of body byte {byte_idx} flipped and the file still parsed"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_section_boundary_is_caught() {
        let model = test_model();
        let path = tmp("truncsweep.grlb2");
        write_model_v2(&model, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header: [u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().unwrap();
        let h = parse_header(&path, &header).unwrap();
        let cut_at = tmp("truncsweep-cut.grlb2");
        // Every section boundary (start and end), the header edge, one
        // byte into each section, and one byte short of the full file.
        let mut cuts = vec![0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1];
        for s in &h.sections {
            let (start, end) = (s.offset as usize, (s.offset + s.words * 4) as usize);
            for c in [start, start + 1, end.saturating_sub(1), end] {
                if c < bytes.len() {
                    cuts.push(c);
                }
            }
        }
        for cut in cuts {
            std::fs::write(&cut_at, &bytes[..cut]).unwrap();
            for (res, label) in [
                (read_model_v2(&cut_at).err(), "mapped"),
                (read_model_v2_heap(&cut_at).err(), "heap"),
            ] {
                assert!(
                    res.is_some(),
                    "truncation to {cut}/{} bytes parsed as Ok ({label})",
                    bytes.len()
                );
            }
        }
        std::fs::write(&cut_at, &bytes).unwrap();
        assert!(read_model_v2(&cut_at).is_ok());
    }

    /// Rewrites one section descriptor field and re-seals the header
    /// checksum, so the doctored layout reaches the layout validator
    /// instead of being caught by the header FNV.
    fn with_descriptor(bytes: &[u8], section: usize, field: usize, value: u64) -> Vec<u8> {
        let mut copy = bytes.to_vec();
        let at = 48 + section * 24 + field * 8;
        copy[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let hash = Fnv4::digest(&copy[..HEADER_FNV_AT]);
        copy[HEADER_FNV_AT..HEADER_FNV_AT + 8].copy_from_slice(&hash.to_le_bytes());
        copy
    }

    #[test]
    fn misaligned_overlapping_and_gapped_sections_are_rejected() {
        let model = test_model();
        let path = tmp("layout.grlb2");
        write_model_v2(&model, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let first = get_u64(&bytes, 48); // section 0 offset (= 256)
        let doctored = tmp("layout-bad.grlb2");
        let cases: [(&str, Vec<u8>, &str); 5] = [
            (
                "misaligned",
                with_descriptor(&bytes, 0, 0, first + 4),
                "misaligned",
            ),
            (
                "overlap-header",
                with_descriptor(&bytes, 0, 0, 0),
                "misaligned-or-overlap",
            ),
            (
                "overlap-previous",
                with_descriptor(&bytes, 1, 0, first),
                "overlaps",
            ),
            ("gap", with_descriptor(&bytes, 0, 0, first + 64), "gap"),
            (
                "runs-past-eof",
                with_descriptor(&bytes, 6, 1, u32::MAX as u64),
                "past-eof-or-cardinality",
            ),
        ];
        for (name, doc, _why) in cases {
            std::fs::write(&doctored, &doc).unwrap();
            let err = read_model_v2(&doctored)
                .err()
                .unwrap_or_else(|| panic!("layout case `{name}` was accepted"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
        }
    }

    #[test]
    fn content_garbage_that_checksums_ok_is_rejected_by_structure() {
        // Corrupt a posting *before* sealing: write a valid file, flip a
        // word inside the impl-actions data section, then re-seal every
        // checksum. Only the structural pass can catch this.
        let model = test_model();
        let path = tmp("content.grlb2");
        write_model_v2(&model, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let header: [u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().unwrap();
        let h = parse_header(&path, &header).unwrap();
        let ia = h.sections[2];
        // Break sortedness of the first row by maxing its first action id.
        let at = ia.offset as usize;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Re-seal section + file + header checksums.
        let sec = Fnv4::digest(&bytes[at..at + ia.words as usize * 4]);
        let desc = 48 + 2 * 24 + 16;
        bytes[desc..desc + 8].copy_from_slice(&sec.to_le_bytes());
        let body = Fnv4::digest(&bytes[HEADER_LEN..]);
        bytes[40..48].copy_from_slice(&body.to_le_bytes());
        let head = Fnv4::digest(&bytes[..HEADER_FNV_AT]);
        bytes[HEADER_FNV_AT..HEADER_FNV_AT + 8].copy_from_slice(&head.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_model_v2(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn empty_model_file_is_the_typed_empty_library_error() {
        // A sealed v2 file with zero implementations must surface the
        // shared typed empty-library error, like every other loader.
        let path = tmp("empty.grlb2");
        write_v2(
            4,
            2,
            [&[], &[0], &[], &[0, 0, 0], &[], &[0, 0, 0, 0, 0], &[], &[]],
            &path,
        )
        .unwrap();
        let err = read_model_v2(&path).unwrap_err();
        assert!(
            err.get_ref()
                .is_some_and(|e| e.is::<crate::io::EmptyLibraryError>()),
            "{err}"
        );
    }

    #[test]
    fn other_versions_are_the_typed_error_naming_the_version_and_compile() {
        let path = tmp("version.grlb2");
        write_model_v2(&tiny_model(), &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // A version-1 stamp, as the retired stream format wrote it: both
        // the sniff and every reader give the typed error.
        let mut v1 = good.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &v1).unwrap();
        let errors = [
            sniff(&path, &v1[..8]).unwrap_err(),
            read_model_v2(&path).unwrap_err(),
            read_model_v2_heap(&path).unwrap_err(),
        ];
        for err in errors {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let typed = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<UnsupportedVersion>())
                .unwrap_or_else(|| panic!("untyped version error: {err}"));
            assert_eq!(typed.version, 1);
            let msg = err.to_string();
            assert!(
                msg.contains("version 1") && msg.contains("goalrec compile"),
                "{msg}"
            );
        }
        // The sniff tells GRLB from anything else by the magic alone.
        assert!(sniff(&path, &good[..8]).unwrap());
        assert!(sniff(&path, b"GRLB").unwrap());
        assert!(!sniff(&path, b"{\"goal\"").unwrap());
        assert!(!sniff(&path, b"").unwrap());
    }

    #[test]
    fn library_roundtrip_through_v2_preserves_structure() {
        let model = test_model();
        let path = tmp("lib.grlb2");
        write_model_v2(&model, &path).unwrap();
        let lib = crate::io::read_library_auto(&path).unwrap();
        assert_eq!(lib.len(), model.num_impls());
        assert_eq!(lib.num_actions(), model.num_actions());
        assert_eq!(lib.num_goals(), model.num_goals());
        let rebuilt = GoalModel::build(&lib).unwrap();
        for (a, b) in rebuilt.flat_sections().iter().zip(model.flat_sections()) {
            assert_eq!(*a, b);
        }
    }
}
