//! Zero-copy model-file bytes: `mmap(2)` via direct libc FFI, with a
//! read-into-heap fallback.
//!
//! The GRLB v2 reader ([`crate::grlb2`]) wants the file's `u32` sections
//! *in place*, not parsed — that is the whole point of the format. This
//! module supplies the buffer: `ModelBytes` is either a page-aligned
//! read-only file mapping (Unix, little-endian targets) or one flat heap
//! buffer the file was read into (everything else, plus tests that set
//! `GOALREC_NO_MMAP=1`). Either way, `ModelBytes::section` hands out
//! [`CsrBacking`] views that borrow the buffer and keep it alive through a
//! shared handle — the last view to drop releases the buffer, which for a
//! mapping is the `munmap` (the unmap-after-last-snapshot rule).
//!
//! The FFI follows the same zero-dependency pattern as the `signal(2)`
//! binding in the server's shutdown module: `std` already links libc, so
//! declaring the two entry points adds nothing to the build. Only the
//! mapping itself bypasses `goalrec-faults` — the caller reads the header
//! (and, on the fallback path, the whole file) through the fault-wrapped
//! reader first, so chaos plans still fire against v2 loads.

use goalrec_core::CsrBacking;
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

#[cfg(all(unix, target_endian = "little"))]
mod ffi {
    use std::os::raw::{c_int, c_void};

    /// `PROT_READ` — pages are readable, nothing else.
    pub(crate) const PROT_READ: c_int = 1;
    /// `MAP_PRIVATE` — copy-on-write private mapping; we never write, so
    /// this simply means the file cannot be modified through us.
    pub(crate) const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub(crate) fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(crate) fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }
}

/// A read-only `mmap` of a whole model file; `Drop` unmaps it. Held in an
/// `Arc` that every [`CsrBacking`] view clones, so the address range stays
/// valid until the last view (and therefore the last in-flight request
/// snapshot) is gone.
#[cfg(all(unix, target_endian = "little"))]
pub(crate) struct Mapping {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared memory —
// and the struct only ever reads through the pointer, so moving or sharing
// it across threads is sound.
#[cfg(all(unix, target_endian = "little"))]
unsafe impl Send for Mapping {}
// safety: same invariant as Send above — the memory is immutable for the
// mapping's whole lifetime, so concurrent readers cannot race.
#[cfg(all(unix, target_endian = "little"))]
unsafe impl Sync for Mapping {}

#[cfg(all(unix, target_endian = "little"))]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what mmap returned, unmapped
        // exactly once (Drop), and no CsrBacking view outlives the Arc
        // that owns this Mapping.
        unsafe {
            ffi::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}

/// The bytes of one model file, either mapped in place or heap-resident.
/// Both variants expose the same section accessors; `grlb2` never branches
/// on which one it got.
pub(crate) enum ModelBytes {
    /// A live `mmap` of the file.
    #[cfg(all(unix, target_endian = "little"))]
    Mapped(Arc<Mapping>),
    /// The file read into one flat word buffer (fallback path). Stored as
    /// `u32` words so section views are correctly aligned by construction.
    Heap(Arc<Box<[u32]>>),
}

impl std::fmt::Debug for ModelBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = if self.is_mapped() { "Mapped" } else { "Heap" };
        write!(f, "ModelBytes::{tag}({} bytes)", self.len_bytes())
    }
}

/// Whether this build + environment can serve a model file by mapping it.
/// `GOALREC_NO_MMAP=1` forces the heap fallback, which is how the test
/// suite exercises both paths on one platform.
pub fn mmap_supported() -> bool {
    cfg!(all(unix, target_endian = "little")) && std::env::var_os("GOALREC_NO_MMAP").is_none()
}

impl ModelBytes {
    /// Maps `path` read-only. The caller has already validated the header
    /// and knows the exact file length; mapping a file whose length
    /// changed since is rejected.
    #[cfg(all(unix, target_endian = "little"))]
    pub(crate) fn map_file(path: &Path, expected_len: u64) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len != expected_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("model file changed size during open ({len} vs {expected_len} bytes)"),
            ));
        }
        let len = len as usize;
        // SAFETY: fd is a freshly opened readable file, len is its current
        // non-zero size (a v2 file is at least one 256-byte header), and
        // we request a read-only private mapping at a kernel-chosen
        // address. The fd may be closed after mmap returns; the mapping
        // persists until munmap.
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(ModelBytes::Mapped(Arc::new(Mapping {
            ptr: ptr as *const u8,
            len,
        })))
    }

    /// Heap fallback: drains `rest` (the fault-wrapped reader, positioned
    /// right after the already-consumed 256-byte header) and reassembles
    /// the full file image as one word buffer, header included, so section
    /// offsets stay absolute.
    pub(crate) fn read_heap(
        header: &[u8],
        rest: &mut dyn Read,
        expected_len: u64,
    ) -> io::Result<Self> {
        let mut bytes = Vec::with_capacity(expected_len as usize);
        bytes.extend_from_slice(header);
        rest.read_to_end(&mut bytes)?;
        if bytes.len() as u64 != expected_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "model file changed size during read ({} vs {expected_len} bytes)",
                    bytes.len()
                ),
            ));
        }
        // A v2 file is a whole number of u32 words (the header is 64 words
        // and every section is a word array); grlb2 validated that before
        // calling us.
        let words: Box<[u32]> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(ModelBytes::Heap(Arc::new(words)))
    }

    /// Whether the bytes are a live file mapping (vs the heap fallback).
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            #[cfg(all(unix, target_endian = "little"))]
            ModelBytes::Mapped(_) => true,
            ModelBytes::Heap(_) => false,
        }
    }

    /// The whole file image as bytes — what the checksum passes hash.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_endian = "little"))]
            ModelBytes::Mapped(m) => {
                // SAFETY: the mapping covers exactly [ptr, ptr + len) of
                // readable memory for as long as `m` is alive, and the
                // returned slice borrows `self`.
                unsafe { std::slice::from_raw_parts(m.ptr, m.len) }
            }
            ModelBytes::Heap(words) => {
                // SAFETY: any &[u32] is readable as 4× as many bytes at
                // the same address; u8 has no alignment requirement.
                unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, words.len() * 4) }
            }
        }
    }

    /// Total length in bytes.
    pub(crate) fn len_bytes(&self) -> usize {
        self.as_bytes().len()
    }

    /// A borrowed [`CsrBacking`] view of `words` `u32`s starting at byte
    /// offset `byte_offset`, keeping the whole buffer alive through the
    /// shared handle.
    ///
    /// The caller (the grlb2 header validator) has already proven the
    /// range is in bounds and `byte_offset` is 64-byte aligned — which on
    /// a page-aligned mapping (or a `u32`-aligned heap buffer) makes the
    /// view correctly aligned for `u32`.
    pub(crate) fn section(&self, byte_offset: usize, words: usize) -> CsrBacking {
        debug_assert!(byte_offset.is_multiple_of(4));
        debug_assert!(byte_offset + words * 4 <= self.len_bytes());
        match self {
            #[cfg(all(unix, target_endian = "little"))]
            ModelBytes::Mapped(m) => {
                // SAFETY: the range is inside the mapping (validated
                // bounds), the base pointer is page-aligned and the offset
                // 64-aligned so the u32 view is aligned, the mapping is
                // immutable (PROT_READ), and the target is little-endian
                // (cfg) so the on-disk words *are* the in-memory words.
                // The 'static lifetime is upheld by handing the Mapping
                // Arc to CsrBacking as the keepalive.
                unsafe {
                    let slice =
                        std::slice::from_raw_parts(m.ptr.add(byte_offset) as *const u32, words);
                    CsrBacking::mapped(slice, Arc::clone(m) as Arc<dyn std::any::Any + Send + Sync>)
                }
            }
            ModelBytes::Heap(buf) => {
                // SAFETY: the slice borrows the Arc'd word buffer, which
                // the keepalive clone holds alive for at least as long as
                // the returned backing and all of its clones.
                unsafe {
                    let slice =
                        std::slice::from_raw_parts(buf.as_ptr().add(byte_offset / 4), words);
                    CsrBacking::mapped(
                        slice,
                        Arc::clone(buf) as Arc<dyn std::any::Any + Send + Sync>,
                    )
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("goalrec-mmap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn heap_bytes_roundtrip_words() {
        let header = [0u8; 256];
        let mut body: Vec<u8> = Vec::new();
        for w in [1u32, 2, 3, 0xdead_beef] {
            body.extend_from_slice(&w.to_le_bytes());
        }
        let total = 256 + body.len() as u64;
        let mb = ModelBytes::read_heap(&header, &mut &body[..], total).unwrap();
        assert!(!mb.is_mapped());
        assert_eq!(mb.len_bytes() as u64, total);
        let sec = mb.section(256, 4);
        assert_eq!(&*sec, &[1, 2, 3, 0xdead_beef]);
        assert!(sec.is_mapped(), "heap sections still borrow the buffer");
    }

    #[test]
    fn heap_rejects_length_mismatch() {
        let header = [0u8; 256];
        let body = [0u8; 8];
        let err = ModelBytes::read_heap(&header, &mut &body[..], 512).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[cfg(all(unix, target_endian = "little"))]
    #[test]
    fn mapped_bytes_match_file_and_unmap_on_drop() {
        let path = tmp("map.bin");
        let mut bytes = vec![0u8; 256];
        for w in [7u32, 8, 9] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let mb = ModelBytes::map_file(&path, bytes.len() as u64).unwrap();
        assert!(mb.is_mapped());
        assert_eq!(mb.as_bytes(), &bytes[..]);
        let sec = mb.section(256, 3);
        // The section outlives the ModelBytes handle: the keepalive Arc
        // holds the mapping.
        drop(mb);
        assert_eq!(&*sec, &[7, 8, 9]);
    }

    #[cfg(all(unix, target_endian = "little"))]
    #[test]
    fn map_rejects_changed_length() {
        let path = tmp("shrunk.bin");
        std::fs::write(&path, vec![0u8; 512]).unwrap();
        let err = ModelBytes::map_file(&path, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
