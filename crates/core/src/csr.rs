//! Compressed-sparse-row (CSR) posting-list storage and its parallel
//! counting-sort builders.
//!
//! The compiled model (§4) is a set of posting-list indexes. Storing every
//! posting list as its own boxed slice costs one heap allocation per
//! implementation/goal/action and scatters the lists across the heap; a CSR
//! layout packs each index into exactly two flat arrays — `offsets`
//! (`rows + 1` entries) and `data` (all postings concatenated) — so walking
//! `IS(H)` streams contiguous memory and the whole model is six allocations.
//!
//! Row `i` is `data[offsets[i] .. offsets[i + 1]]`, always a strictly
//! increasing `u32` sequence, so the set algebra of [`crate::setops`]
//! applies to rows directly.
//!
//! The inverted indexes (`goal → impls`, `action → impls`) are built with a
//! two-phase parallel counting sort: the item range is split into contiguous
//! partitions, each partition counts its per-row postings independently
//! ([`invert_count`]), a serial prefix sum turns the per-partition counts
//! into disjoint write cursors, and each partition then fills its slots
//! without synchronisation ([`invert_fill`]). Because partitions cover
//! increasing item ranges and each partition visits items in order, the
//! output is identical to the sequential counting sort: every row lists its
//! items in strictly increasing order.

use rayon::prelude::*;
use std::any::Any;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, PoisonError};

/// `Cow`-like backing for one flat `u32` model array: either an owned heap
/// allocation or a borrowed view into an externally retained buffer
/// (typically an `mmap`'d GRLB v2 model file).
///
/// The mapped variant pairs the slice with an opaque *keepalive* handle;
/// the slice stays valid exactly as long as at least one clone of that
/// handle is alive, and the last clone to drop releases the buffer (for a
/// mapping, that is the `munmap` — the unmap-after-last-snapshot rule).
/// Core never learns what the handle is, so the mapping machinery lives
/// entirely in the IO crate.
///
/// Both variants deref to `&[u32]`, so every index accessor works
/// identically over owned and mapped models. Mutable access copies a
/// mapped backing to the heap first (`DerefMut` is the write fence), which
/// keeps in-place corruption tests and repair tooling working without ever
/// writing through a shared mapping.
pub enum CsrBacking {
    /// A heap-owned array — what builders and readers-into-heap produce.
    Owned(Box<[u32]>),
    /// A borrowed view into a retained buffer (e.g. a file mapping).
    Mapped {
        /// The array, viewed in place. The `'static` lifetime is nominal:
        /// validity is tied to `keepalive`, which every clone shares.
        slice: &'static [u32],
        /// Opaque handle whose last drop releases the underlying buffer.
        keepalive: Arc<dyn Any + Send + Sync>,
    },
}

impl CsrBacking {
    /// Borrows `slice` as a backing, tying its validity to `keepalive`.
    ///
    /// # Safety
    ///
    /// `slice` must remain valid (readable, unchanging) for as long as any
    /// clone of `keepalive` is alive. The caller upholds this by deriving
    /// the slice from the buffer that `keepalive` owns.
    pub unsafe fn mapped(slice: &'static [u32], keepalive: Arc<dyn Any + Send + Sync>) -> Self {
        CsrBacking::Mapped { slice, keepalive }
    }

    /// Whether this backing borrows a retained buffer (vs owning heap).
    pub fn is_mapped(&self) -> bool {
        matches!(self, CsrBacking::Mapped { .. })
    }
}

impl Deref for CsrBacking {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        match self {
            CsrBacking::Owned(b) => b,
            CsrBacking::Mapped { slice, .. } => slice,
        }
    }
}

impl DerefMut for CsrBacking {
    /// Copy-on-write: mutable access to a mapped backing first copies the
    /// array to the heap, dropping this handle's share of the keepalive.
    fn deref_mut(&mut self) -> &mut [u32] {
        if let CsrBacking::Mapped { slice, .. } = *self {
            *self = CsrBacking::Owned(slice.into());
        }
        match self {
            CsrBacking::Owned(b) => b,
            // goalrec-lint:allow(no-panic-paths): the arm above just replaced Mapped with Owned; this arm is statically unreachable
            CsrBacking::Mapped { .. } => unreachable!("mapped backing survived copy-on-write"),
        }
    }
}

impl Clone for CsrBacking {
    /// Owned backings deep-copy; mapped backings stay shared views (the
    /// keepalive `Arc` clone is what extends the buffer's lifetime).
    // goalrec-lint:allow(hot-path-alloc): serving shares one Arc<GoalModel>; backings are only cloned by reload/compaction, never per request
    fn clone(&self) -> Self {
        match self {
            CsrBacking::Owned(b) => CsrBacking::Owned(b.clone()),
            CsrBacking::Mapped { slice, keepalive } => CsrBacking::Mapped {
                slice,
                keepalive: Arc::clone(keepalive),
            },
        }
    }
}

impl std::fmt::Debug for CsrBacking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = if self.is_mapped() { "Mapped" } else { "Owned" };
        write!(f, "CsrBacking::{tag}(len {})", self.len())
    }
}

impl PartialEq for CsrBacking {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for CsrBacking {}

impl From<Vec<u32>> for CsrBacking {
    fn from(v: Vec<u32>) -> Self {
        CsrBacking::Owned(v.into_boxed_slice())
    }
}

impl From<Box<[u32]>> for CsrBacking {
    fn from(b: Box<[u32]>) -> Self {
        CsrBacking::Owned(b)
    }
}

/// A CSR matrix of `u32` postings. Fields are `pub(crate)` so the model's
/// corruption tests can damage the arrays directly (copy-on-write for
/// mapped backings, see [`CsrBacking`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Csr {
    /// `rows + 1` monotone offsets into `data`; first is 0, last is
    /// `data.len()`.
    pub(crate) offsets: CsrBacking,
    /// All postings, row by row.
    pub(crate) data: CsrBacking,
}

impl Csr {
    /// Wraps pre-built arrays without checking invariants; callers are
    /// responsible for shape validation (see [`Csr::check_shape`]).
    pub(crate) fn from_parts(offsets: Vec<u32>, data: Vec<u32>) -> Self {
        Self {
            offsets: offsets.into(),
            data: data.into(),
        }
    }

    /// Wraps two pre-built backings (owned or mapped) without checking
    /// invariants; callers run [`Csr::check_shape`] plus content checks.
    pub(crate) fn from_backings(offsets: CsrBacking, data: CsrBacking) -> Self {
        Self { offsets, data }
    }

    /// Whether either flat array borrows a retained buffer.
    pub(crate) fn is_mapped(&self) -> bool {
        self.offsets.is_mapped() || self.data.is_mapped()
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row `i` as a slice.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.data[lo..hi]
    }

    /// Length of row `i` without touching `data`.
    #[inline]
    pub(crate) fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Heap footprint of the two flat arrays in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.data.len()) * std::mem::size_of::<u32>()
    }

    /// Checks the CSR structural invariants: `rows + 1` offsets, first 0,
    /// monotone non-decreasing, last equal to `data.len()`. Row *contents*
    /// (sortedness, ranges) are the caller's domain.
    pub(crate) fn check_shape(&self, rows: usize, name: &str) -> Result<(), String> {
        if self.offsets.len() != rows + 1 {
            return Err(format!(
                "{name}: {} offsets for {rows} rows (want rows + 1)",
                self.offsets.len()
            ));
        }
        if self.offsets.first() != Some(&0) {
            return Err(format!("{name}: first offset is not 0"));
        }
        if let Some(w) = self.offsets.windows(2).find(|w| w[0] > w[1]) {
            return Err(format!(
                "{name}: offsets not monotone ({} > {})",
                w[0], w[1]
            ));
        }
        if self.offsets.last().copied() != Some(self.data.len() as u32) {
            return Err(format!(
                "{name}: last offset {:?} != data length {}",
                self.offsets.last(),
                self.data.len()
            ));
        }
        Ok(())
    }
}

/// Number of contiguous item partitions the counting-sort phases use.
///
/// One partition per available core, but never so many that a partition
/// drops below a few thousand items — below that the per-partition count
/// arrays cost more than the parallelism wins. The output of
/// [`invert_count`]/[`invert_fill`] and [`concat`] is identical for every
/// partition count.
pub(crate) fn partitions(num_items: usize) -> usize {
    const MIN_ITEMS_PER_PART: usize = 4096;
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    threads.min(num_items / MIN_ITEMS_PER_PART).max(1)
}

/// The counting phase of the parallel counting sort: per-partition,
/// per-row posting counts, ready for [`invert_fill`].
///
/// `keys_of(item, emit)` must call `emit(row)` once per posting of `item`,
/// with `row < num_rows`, and must be deterministic — the fill phase
/// replays it.
pub(crate) struct InvertPlan {
    num_rows: usize,
    /// Contiguous `[start, end)` item ranges, one per partition.
    bounds: Vec<(usize, usize)>,
    /// `part_counts[p][row]`: postings partition `p` contributes to `row`.
    part_counts: Vec<Vec<u32>>,
}

/// Contiguous `[start, end)` ranges splitting `num_items` into `parts`
/// (at least one).
fn part_bounds(num_items: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1);
    (0..parts)
        .map(|p| (p * num_items / parts, (p + 1) * num_items / parts))
        .collect()
}

/// Runs the counting phase over `num_items` items split into `parts`
/// contiguous partitions.
pub(crate) fn invert_count<F>(
    num_rows: usize,
    num_items: usize,
    parts: usize,
    keys_of: F,
) -> InvertPlan
where
    F: Fn(usize, &mut dyn FnMut(u32)) + Sync,
{
    let bounds = part_bounds(num_items, parts);
    let part_counts: Vec<Vec<u32>> = bounds
        .par_iter()
        .map(|&(lo, hi)| {
            let mut counts = vec![0u32; num_rows];
            for item in lo..hi {
                keys_of(item, &mut |row| counts[row as usize] += 1);
            }
            counts
        })
        .collect();
    InvertPlan {
        num_rows,
        bounds,
        part_counts,
    }
}

/// Shared write target for the disjoint partition fills.
struct SyncPtr(*mut u32);
// SAFETY: every partition writes through cursors that start at disjoint
// exclusive prefix-sum positions and advance by exactly the partition's own
// counted postings, so no two threads ever touch the same index.
unsafe impl Sync for SyncPtr {}

/// The fill phase: materialises the inverted CSR index from a counting
/// plan. Each row lists the item ids that emitted it, in increasing order
/// (partitions cover increasing item ranges and write behind disjoint
/// cursors).
pub(crate) fn invert_fill<F>(plan: &InvertPlan, keys_of: F) -> Csr
where
    F: Fn(usize, &mut dyn FnMut(u32)) + Sync,
{
    let num_rows = plan.num_rows;
    // Serial prefix sums: total per-row counts -> global offsets, and
    // per-partition starting cursors (each partition starts where the
    // previous partitions' contributions to that row end).
    let mut running = vec![0u32; num_rows];
    let mut cursors: Vec<Vec<u32>> = Vec::with_capacity(plan.part_counts.len());
    for pc in &plan.part_counts {
        cursors.push(running.clone());
        for (r, c) in running.iter_mut().zip(pc) {
            *r += c;
        }
    }
    let mut offsets = vec![0u32; num_rows + 1];
    let mut acc = 0u32;
    for (o, &c) in offsets.iter_mut().zip(&running) {
        *o = acc;
        acc += c;
    }
    offsets[num_rows] = acc;
    for cur in &mut cursors {
        for (c, &o) in cur.iter_mut().zip(&offsets[..num_rows]) {
            *c += o;
        }
    }

    let mut data = vec![0u32; acc as usize];
    let ptr = SyncPtr(data.as_mut_ptr());
    let ptr = &ptr;
    // The cursor arrays are per-partition mutable state; the Mutex is
    // locked exactly once per partition, so it costs nothing on the fill
    // itself.
    let cursor_cells: Vec<Mutex<Vec<u32>>> = cursors.into_iter().map(Mutex::new).collect();
    (0..plan.bounds.len()).into_par_iter().for_each(|pi| {
        let (lo, hi) = plan.bounds[pi];
        let mut cur = cursor_cells[pi]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for item in lo..hi {
            keys_of(item, &mut |row| {
                let slot = cur[row as usize];
                // SAFETY: `slot` lies in this partition's exclusive
                // [cursor start, start + own count) range for `row`; see
                // the SyncPtr invariant above.
                unsafe {
                    *ptr.0.add(slot as usize) = item as u32;
                }
                cur[row as usize] = slot + 1;
            });
        }
    });
    Csr::from_parts(offsets, data)
}

/// Builds the *forward* CSR (row `i` = the postings of item `i`) by
/// concatenating per-item slices — offsets by a serial prefix sum over the
/// lengths, data filled by a copy split into `parts` parallel partitions.
pub(crate) fn concat<'a, F>(num_items: usize, parts: usize, row_of: F) -> Csr
where
    F: Fn(usize) -> &'a [u32] + Sync,
{
    let mut offsets = vec![0u32; num_items + 1];
    let mut acc = 0u32;
    for (i, off) in offsets.iter_mut().enumerate().take(num_items) {
        *off = acc;
        acc += row_of(i).len() as u32;
    }
    offsets[num_items] = acc;

    let mut data = vec![0u32; acc as usize];
    let ptr = SyncPtr(data.as_mut_ptr());
    let ptr = &ptr;
    let offsets_ref = &offsets;
    let bounds = part_bounds(num_items, parts);
    bounds.par_iter().for_each(|&(lo, hi)| {
        for (i, &off) in offsets_ref.iter().enumerate().take(hi).skip(lo) {
            let src = row_of(i);
            // SAFETY: item `i`'s destination [offsets[i], offsets[i+1]) is
            // disjoint from every other item's range by construction.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr(), ptr.0.add(off as usize), src.len());
            }
        }
    });
    Csr::from_parts(offsets, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sequential reference: invert `items` (item -> key list) into
    /// row -> sorted item ids.
    fn invert_naive(num_rows: usize, items: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let mut rows = vec![Vec::new(); num_rows];
        for (i, keys) in items.iter().enumerate() {
            for &k in keys {
                rows[k as usize].push(i as u32);
            }
        }
        rows
    }

    fn invert_csr(num_rows: usize, items: &[Vec<u32>], parts: usize) -> Csr {
        let plan = invert_count(num_rows, items.len(), parts, |i, emit| {
            for &k in &items[i] {
                emit(k);
            }
        });
        invert_fill(&plan, |i, emit| {
            for &k in &items[i] {
                emit(k);
            }
        })
    }

    #[test]
    fn invert_small_matches_naive() {
        let items = vec![vec![0, 2], vec![1], vec![0, 1, 2], vec![2]];
        let csr = invert_csr(3, &items, partitions(items.len()));
        let naive = invert_naive(3, &items);
        assert_eq!(csr.rows(), 3);
        for (r, want) in naive.iter().enumerate() {
            assert_eq!(csr.row(r), &want[..], "row {r}");
            assert_eq!(csr.row_len(r), want.len());
        }
        assert!(csr.check_shape(3, "t").is_ok());
    }

    #[test]
    fn invert_large_parallel_matches_naive() {
        // Enough items to cross the partition threshold on any machine.
        let num_rows = 97;
        let items: Vec<Vec<u32>> = (0..40_000u32)
            .map(|i| {
                // Deterministic pseudo-random key lists, varying lengths.
                let n = (i % 4) + 1;
                let mut keys: Vec<u32> = (0..n)
                    .map(|j| (i.wrapping_mul(31).wrapping_add(j * 7)) % 97)
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                keys
            })
            .collect();
        let csr = invert_csr(num_rows, &items, partitions(items.len()));
        let naive = invert_naive(num_rows, &items);
        for (r, want) in naive.iter().enumerate() {
            assert_eq!(csr.row(r), &want[..], "row {r}");
            // Rows of an inverted index built in item order are strictly
            // increasing.
            assert!(csr.row(r).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn invert_empty_rows_and_items() {
        let items: Vec<Vec<u32>> = vec![vec![4], vec![4]];
        let csr = invert_csr(6, &items, partitions(items.len()));
        assert_eq!(csr.row(4), &[0, 1]);
        for r in [0, 1, 2, 3, 5] {
            assert!(csr.row(r).is_empty());
        }
    }

    #[test]
    fn concat_round_trips_rows() {
        let rows: Vec<Vec<u32>> = vec![vec![5, 9], vec![], vec![1, 2, 3], vec![7]];
        let csr = concat(rows.len(), partitions(rows.len()), |i| &rows[i][..]);
        assert_eq!(csr.rows(), 4);
        for (i, want) in rows.iter().enumerate() {
            assert_eq!(csr.row(i), &want[..]);
        }
        assert_eq!(csr.data.len(), 6);
    }

    #[test]
    fn concat_large_parallel() {
        let rows: Vec<Vec<u32>> = (0..30_000u32).map(|i| vec![i, i + 1, i + 2]).collect();
        let csr = concat(rows.len(), partitions(rows.len()), |i| &rows[i][..]);
        for (i, want) in rows.iter().enumerate() {
            assert_eq!(csr.row(i), &want[..]);
        }
    }

    #[test]
    fn shape_violations_are_reported() {
        let ok = Csr::from_parts(vec![0, 2, 3], vec![1, 2, 9]);
        assert!(ok.check_shape(2, "t").is_ok());
        assert!(ok.check_shape(3, "t").is_err()); // row-count mismatch

        let bad_first = Csr::from_parts(vec![1, 2, 3], vec![1, 2, 9]);
        assert!(bad_first.check_shape(2, "t").is_err());

        let non_monotone = Csr::from_parts(vec![0, 3, 2], vec![1, 2]);
        assert!(non_monotone.check_shape(2, "t").is_err());

        let bad_last = Csr::from_parts(vec![0, 2, 2], vec![1, 2, 9]);
        assert!(bad_last.check_shape(2, "t").is_err());
    }

    #[test]
    fn forced_partition_counts_agree_with_serial() {
        // Pin the count so the multi-partition merge (disjoint prefix-sum
        // cursors, increasing item ranges) is exercised on any machine.
        // Uneven counts include partitions smaller than a row's posting
        // list and a partition count that doesn't divide the item count.
        let items: Vec<Vec<u32>> = (0..5_000u32)
            .map(|i| {
                let n = (i % 3) + 1;
                let mut keys: Vec<u32> = (0..n).map(|j| (i * 17 + j * 5) % 23).collect();
                keys.sort_unstable();
                keys.dedup();
                keys
            })
            .collect();
        let serial = invert_csr(23, &items, 1);
        let serial_cat = concat(items.len(), 1, |i| &items[i][..]);
        for parts in [2, 3, 7, 64] {
            assert_eq!(invert_csr(23, &items, parts), serial, "{parts} partitions");
            assert_eq!(
                concat(items.len(), parts, |i| &items[i][..]),
                serial_cat,
                "{parts} partitions (concat)"
            );
        }
    }
}
