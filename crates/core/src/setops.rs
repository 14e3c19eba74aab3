//! Sorted-set algebra over identifier slices.
//!
//! The complexity analysis in the paper (§5.4) identifies set intersection
//! and asymmetric set difference as the dominant primitive operations of all
//! goal-based strategies: `Focus_cmp` is driven by `|A ∩ H|`, `Focus_cl` by
//! `|A − H|`, and `Breadth` accumulates `|A ∩ H|` per implementation.
//!
//! All posting lists in [`crate::GoalModel`] are strictly increasing `u32`
//! sequences, so these primitives run as linear merges, switching to a
//! galloping (exponential-probe) strategy when one side is much smaller than
//! the other — the common shape in the FoodMart configuration where a cart
//! of ~10 items meets recipes of ~30 ingredients drawn from thousands.

/// Size ratio above which intersection switches from a linear merge to
/// galloping search. Chosen per the classic Baeza-Yates bound; validated by
/// `benches/setops.rs`.
const GALLOP_RATIO: usize = 16;

/// Returns `true` if `s` is strictly increasing (sorted and duplicate-free).
pub(crate) fn is_strictly_sorted(s: &[u32]) -> bool {
    s.windows(2).all(|w| w[0] < w[1])
}

/// Sorts and deduplicates in place, producing a strictly increasing sequence.
pub fn normalize(v: &mut Vec<u32>) {
    v.sort_unstable();
    v.dedup();
}

/// `|a ∩ b|` without materialising the intersection.
pub fn intersection_len(a: &[u32], b: &[u32]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() || large.is_empty() {
        return 0;
    }
    if large.len() / small.len().max(1) >= GALLOP_RATIO {
        return gallop_intersection_len(small, large);
    }
    let mut n = 0;
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Materialises `a − b` as a strictly increasing sequence.
pub fn difference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len());
    difference_into(a, b, &mut out);
    out
}

/// Appends `a − b` to `out` (which is cleared first).
pub fn difference_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        if j >= b.len() {
            out.extend_from_slice(&a[i..]);
            return;
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
}

/// Materialises `a ∪ b` as a strictly increasing sequence.
pub(crate) fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Binary-search membership test.
#[inline]
pub(crate) fn contains(sorted: &[u32], x: u32) -> bool {
    sorted.binary_search(&x).is_ok()
}

fn gallop_intersection_len(small: &[u32], large: &[u32]) -> usize {
    let mut n = 0;
    let mut lo = 0;
    for &x in small {
        match gallop_search(&large[lo..], x) {
            Ok(pos) => {
                n += 1;
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
        if lo >= large.len() {
            break;
        }
    }
    n
}

/// Exponential probe followed by binary search, like `slice::binary_search`
/// but starting from the front — O(log d) where d is the distance to the
/// target, which makes sequential probes over an increasing needle list
/// linear overall.
fn gallop_search(s: &[u32], x: u32) -> Result<usize, usize> {
    let mut hi = 1;
    while hi < s.len() && s[hi] < x {
        hi *= 2;
    }
    // s[hi/2] < x ≤ s[hi] (when in range), so search the half-open window
    // [hi/2, hi+1) — hi itself may hold the exact match.
    let lo = hi / 2;
    let hi = (hi + 1).min(s.len());
    match s[lo..hi].binary_search(&x) {
        Ok(p) => Ok(lo + p),
        Err(p) => Err(lo + p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn strictly_sorted_detection() {
        assert!(is_strictly_sorted(&[]));
        assert!(is_strictly_sorted(&[5]));
        assert!(is_strictly_sorted(&[1, 2, 9]));
        assert!(!is_strictly_sorted(&[1, 1]));
        assert!(!is_strictly_sorted(&[2, 1]));
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut v = vec![5, 3, 5, 1, 3];
        normalize(&mut v);
        assert_eq!(v, vec![1, 3, 5]);
    }

    #[test]
    fn intersection_basic() {
        assert_eq!(intersection_len(&[1, 3, 5, 7], &[3, 4, 5, 8]), 2);
    }

    #[test]
    fn intersection_disjoint_and_empty() {
        assert_eq!(intersection_len(&[1, 2], &[3, 4]), 0);
        assert_eq!(intersection_len(&[], &[1]), 0);
        assert_eq!(intersection_len(&[1], &[]), 0);
        assert_eq!(intersection_len(&[], &[]), 0);
    }

    #[test]
    fn intersection_triggers_gallop_path() {
        // large/small ratio >= 16 forces the galloping branch.
        let small = vec![0, 500, 999];
        let large: Vec<u32> = (0..1000).collect();
        assert_eq!(intersection_len(&small, &large), 3);
        let misses = vec![1001, 2002];
        assert_eq!(intersection_len(&misses, &large), 0);
    }

    #[test]
    fn difference_basic() {
        assert_eq!(difference(&[1, 2, 3, 4], &[2, 4]), vec![1, 3]);
        assert_eq!(difference(&[1, 2], &[]), vec![1, 2]);
        assert!(difference(&[], &[1, 2]).is_empty());
    }

    #[test]
    fn difference_exhausts_b_then_copies_tail() {
        assert_eq!(difference(&[1, 5, 9, 12], &[1, 2]), vec![5, 9, 12]);
    }

    #[test]
    fn union_basic() {
        assert_eq!(union(&[1, 3], &[2, 3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(union(&[], &[7]), vec![7]);
        assert_eq!(union(&[7], &[]), vec![7]);
    }

    #[test]
    fn contains_is_membership() {
        assert!(contains(&[1, 3, 5], 3));
        assert!(!contains(&[1, 3, 5], 4));
    }

    #[test]
    fn reusable_buffers() {
        let mut buf = vec![99, 98]; // stale content must be cleared
        difference_into(&[1, 2, 3], &[2], &mut buf);
        assert_eq!(buf, vec![1, 3]);
    }

    fn sorted_set() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::btree_set(0u32..5000, 0..300)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>())
    }

    proptest! {
        #[test]
        fn prop_intersection_matches_btreeset(a in sorted_set(), b in sorted_set()) {
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();
            let expect: Vec<u32> = sa.intersection(&sb).copied().collect();
            prop_assert_eq!(intersection_len(&a, &b), expect.len());
        }

        #[test]
        fn prop_difference_matches_btreeset(a in sorted_set(), b in sorted_set()) {
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();
            let expect: Vec<u32> = sa.difference(&sb).copied().collect();
            prop_assert_eq!(difference(&a, &b), expect);
        }

        #[test]
        fn prop_union_matches_btreeset(a in sorted_set(), b in sorted_set()) {
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();
            let expect: Vec<u32> = sa.union(&sb).copied().collect();
            prop_assert_eq!(union(&a, &b), expect);
        }

        #[test]
        fn prop_outputs_strictly_sorted(a in sorted_set(), b in sorted_set()) {
            prop_assert!(is_strictly_sorted(&difference(&a, &b)));
            prop_assert!(is_strictly_sorted(&union(&a, &b)));
        }

        #[test]
        fn prop_inclusion_exclusion(a in sorted_set(), b in sorted_set()) {
            // |a ∪ b| = |a| + |b| − |a ∩ b|
            prop_assert_eq!(
                union(&a, &b).len(),
                a.len() + b.len() - intersection_len(&a, &b)
            );
            // |a − b| + |a ∩ b| = |a|
            prop_assert_eq!(difference(&a, &b).len() + intersection_len(&a, &b), a.len());
        }

        #[test]
        fn prop_gallop_search_agrees_with_binary_search(s in sorted_set(), x in 0u32..5000) {
            prop_assert_eq!(gallop_search(&s, x), s.binary_search(&x));
        }
    }
}
