//! Bounded top-k selection with deterministic tie-breaking.
//!
//! Every strategy ends by ranking a candidate pool and returning the best
//! `k` (Algorithms 1, 2 and 4 all end with "rank R on score and return the
//! top k"). A bounded binary heap keeps that step `O(n log k)` instead of a
//! full `O(n log n)` sort; the ablation bench `benches/topk.rs` measures the
//! difference.
//!
//! Ties are broken by ascending id so that identical inputs always produce
//! identical lists — the overlap experiments (Tables 2 and 6) compare lists
//! across methods and would be noise without deterministic output.

use crate::ids::ActionId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scored item. Higher `score` means more recommendable for every
/// strategy in this crate (distance-based strategies negate their distance).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scored {
    /// The recommended action.
    pub action: ActionId,
    /// The strategy-specific score; higher is better.
    pub score: f64,
}

impl Scored {
    /// Convenience constructor.
    pub fn new(action: ActionId, score: f64) -> Self {
        Self { action, score }
    }
}

/// Total order used for ranking: score descending, then id ascending.
/// NaN scores sort last (treated as −∞), so a pathological distance
/// computation can never crowd out real candidates.
pub(crate) fn rank_cmp(a: &Scored, b: &Scored) -> Ordering {
    let sa = if a.score.is_nan() {
        f64::NEG_INFINITY
    } else {
        a.score
    };
    let sb = if b.score.is_nan() {
        f64::NEG_INFINITY
    } else {
        b.score
    };
    sb.partial_cmp(&sa)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.action.cmp(&b.action))
}

/// Min-heap wrapper: the *worst* of the kept k sits on top.
struct HeapItem(Scored);

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        rank_cmp(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap and rank_cmp orders best-first (Less =
        // better), so using rank_cmp directly puts the rank-worst item on
        // top, which is exactly the eviction candidate.
        rank_cmp(&self.0, &other.0)
    }
}

/// Bounded top-k accumulator.
#[derive(Default)]
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<HeapItem>,
}

impl TopK {
    /// Creates an accumulator keeping the best `k` items.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1)),
        }
    }

    /// Offers one candidate.
    pub(crate) fn push(&mut self, item: Scored) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapItem(item));
            return;
        }
        // Full: replace the current worst if the newcomer ranks better.
        if let Some(worst) = self.heap.peek() {
            if rank_cmp(&item, &worst.0) == Ordering::Less {
                self.heap.pop();
                self.heap.push(HeapItem(item));
            }
        }
    }

    /// Finalises into a list sorted best-first.
    pub(crate) fn into_sorted(self) -> Vec<Scored> {
        let mut v: Vec<Scored> = self.heap.into_iter().map(|h| h.0).collect();
        // rank_cmp is a total order with an id tie-break, so the unstable
        // sort is deterministic and avoids the temporary buffer a stable
        // sort would allocate.
        v.sort_unstable_by(rank_cmp);
        v
    }

    /// Re-arms a reused accumulator for a new query, keeping the heap's
    /// backing allocation. Part of the allocation-free hot path: a
    /// [`crate::Scratch`]-owned `TopK` is reset per request instead of
    /// being rebuilt.
    pub(crate) fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
        let want = k.saturating_add(1);
        if self.heap.capacity() < want {
            self.heap.reserve(want - self.heap.capacity());
        }
    }

    /// Drains the kept items into `out` (cleared first), sorted best-first,
    /// leaving the accumulator empty but its allocation intact.
    pub(crate) fn drain_sorted_into(&mut self, out: &mut Vec<Scored>) {
        out.clear();
        out.extend(self.heap.drain().map(|h| h.0));
        out.sort_unstable_by(rank_cmp);
    }
}

/// Ranks a full candidate vector (used by the sort-based ablation and by
/// callers that already own a Vec).
pub fn rank_full(mut items: Vec<Scored>, k: usize) -> Vec<Scored> {
    items.sort_by(rank_cmp);
    items.truncate(k);
    items
}

/// Selects top-k from an iterator via the bounded heap.
pub fn top_k<I: IntoIterator<Item = Scored>>(items: I, k: usize) -> Vec<Scored> {
    let mut acc = TopK::new(k);
    for it in items {
        acc.push(it);
    }
    acc.into_sorted()
}

/// Orders `(score, id)` pairs best-first: score descending, then id
/// ascending. Focus ranks its implementations under it. Focus scores are
/// never NaN, so the order is total; ids are unique, so it is strict.
pub(crate) fn score_id_cmp(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.1.cmp(&b.1))
}

/// Entries a [`LazyRanking`] sorts on its first extension; each later
/// extension at least doubles the sorted prefix.
const FIRST_CHUNK: usize = 32;

/// A `(score, id)` list ranked lazily under [`score_id_cmp`]: a sorted
/// prefix, extended on demand, in front of an unsorted tail.
///
/// Focus scores every candidate implementation but its fill loop reads
/// only the first few in rank order. [`LazyRanking::get`] sorts no more
/// than it must: when asked past the prefix it extends the prefix by a
/// chunk at least as large as the prefix, running `select_nth_unstable_by`
/// on the tail (which moves the chunk's entries in front of all the
/// others) and then sorting the chunk alone. Every tail entry therefore
/// ranks after every prefix entry, and since the order is strict the
/// prefix is always exactly the full sort's prefix. Reading `m` of `n`
/// entries costs `O(n log m + m log m)` instead of `O(n log n)`, and
/// nothing is ever dropped: reading to the end sorts the whole list.
#[derive(Debug, Default)]
pub(crate) struct LazyRanking {
    items: Vec<(f64, u32)>,
    /// Length of the sorted prefix of `items`.
    sorted: usize,
}

impl LazyRanking {
    /// Empties the list, keeping its allocation.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.sorted = 0;
    }

    /// Adds one entry. The sorted prefix is dropped, since the entry may
    /// rank anywhere in it.
    pub(crate) fn push(&mut self, item: (f64, u32)) {
        self.items.push(item);
        self.sorted = 0;
    }

    /// Number of entries, ranked or not.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The entry at rank `i` (0 = best), sorting further into the list
    /// when `i` lies past the sorted prefix; `None` past the end.
    pub(crate) fn get(&mut self, i: usize) -> Option<(f64, u32)> {
        if i >= self.sorted && i < self.items.len() {
            self.extend_through(i);
        }
        self.items.get(i).copied()
    }

    /// Extends the sorted prefix to cover index `i` (< `len`).
    fn extend_through(&mut self, i: usize) {
        let end = (i + 1)
            .max(2 * self.sorted)
            .max(FIRST_CHUNK)
            .min(self.items.len());
        let chunk = end - self.sorted;
        let tail = &mut self.items[self.sorted..];
        if chunk < tail.len() {
            tail.select_nth_unstable_by(chunk - 1, score_id_cmp);
        }
        tail[..chunk].sort_unstable_by(score_id_cmp);
        self.sorted = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(a: u32, sc: f64) -> Scored {
        Scored::new(ActionId::new(a), sc)
    }

    #[test]
    fn keeps_best_k_sorted() {
        let got = top_k(vec![s(1, 0.5), s(2, 0.9), s(3, 0.1), s(4, 0.7)], 2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].action, ActionId::new(2));
        assert_eq!(got[1].action, ActionId::new(4));
    }

    #[test]
    fn ties_break_by_ascending_id() {
        let got = top_k(vec![s(9, 1.0), s(3, 1.0), s(5, 1.0)], 2);
        assert_eq!(got[0].action, ActionId::new(3));
        assert_eq!(got[1].action, ActionId::new(5));
    }

    #[test]
    fn fewer_items_than_k() {
        let got = top_k(vec![s(1, 0.2)], 10);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn k_zero_yields_empty() {
        let got = top_k(vec![s(1, 0.2), s(2, 0.8)], 0);
        assert!(got.is_empty());
    }

    #[test]
    fn nan_scores_rank_last() {
        let got = top_k(vec![s(1, f64::NAN), s(2, 0.1), s(3, 0.2)], 2);
        assert_eq!(got[0].action, ActionId::new(3));
        assert_eq!(got[1].action, ActionId::new(2));
    }

    #[test]
    fn accumulator_len_tracking() {
        let mut t = TopK::new(2);
        assert!(t.heap.is_empty());
        t.push(s(1, 1.0));
        t.push(s(2, 2.0));
        t.push(s(3, 3.0));
        assert_eq!(t.heap.len(), 2);
        assert!(!t.heap.is_empty());
    }

    #[test]
    fn reset_and_drain_reuse_the_accumulator() {
        let mut t = TopK::new(1);
        t.push(s(1, 1.0));
        let mut out = vec![s(9, 9.0)]; // stale content must vanish
        t.drain_sorted_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].action, ActionId::new(1));
        assert!(t.heap.is_empty());
        // Re-arm with a different k; results match a fresh accumulator.
        t.reset(2);
        for it in [s(1, 0.5), s(2, 0.9), s(3, 0.1), s(4, 0.7)] {
            t.push(it);
        }
        t.drain_sorted_into(&mut out);
        let fresh = top_k(vec![s(1, 0.5), s(2, 0.9), s(3, 0.1), s(4, 0.7)], 2);
        assert_eq!(out, fresh);
        // reset(0) keeps nothing.
        t.reset(0);
        t.push(s(5, 5.0));
        assert!(t.heap.is_empty());
    }

    #[test]
    fn rank_full_agrees_on_small_input() {
        let items = vec![s(1, 0.5), s(2, 0.9), s(3, 0.5)];
        let a = rank_full(items.clone(), 2);
        let b = top_k(items, 2);
        assert_eq!(a, b);
    }

    /// `n` entries with few distinct scores (so ties are common) and
    /// unique, shuffled ids.
    fn scored_ids(n: u32) -> Vec<(f64, u32)> {
        (0..n)
            .map(|i| {
                let id = (i * 7919) % n; // 7919 is prime: a permutation of 0..n
                (f64::from(id % 5) / 4.0, id)
            })
            .collect()
    }

    #[test]
    fn lazy_ranking_read_one_at_a_time_equals_the_full_sort() {
        // 1 000 entries cross the 32, 64, 128, 256 and 512 chunk bounds.
        let items = scored_ids(1_000);
        let mut want = items.clone();
        want.sort_unstable_by(score_id_cmp);
        let mut lazy = LazyRanking::default();
        items.iter().for_each(|&it| lazy.push(it));
        for (i, w) in want.iter().enumerate() {
            assert_eq!(lazy.get(i), Some(*w), "rank {i}");
            assert!(lazy.sorted > i && lazy.sorted <= lazy.len());
        }
        assert_eq!(lazy.get(want.len()), None);
        assert_eq!(lazy.items, &want[..]);
    }

    #[test]
    fn lazy_ranking_sorts_in_doubling_chunks() {
        let mut lazy = LazyRanking::default();
        scored_ids(300).into_iter().for_each(|it| lazy.push(it));
        lazy.get(0);
        assert_eq!(lazy.sorted, FIRST_CHUNK);
        lazy.get(FIRST_CHUNK);
        assert_eq!(lazy.sorted, 2 * FIRST_CHUNK);
        lazy.get(200);
        assert_eq!(lazy.sorted, 201);
        lazy.get(201);
        assert_eq!(lazy.sorted, 300, "capped at the list's end");
        // Pushing drops the prefix; clearing empties the list.
        lazy.push((2.0, 999));
        assert_eq!(lazy.sorted, 0);
        assert_eq!(lazy.get(0), Some((2.0, 999)));
        lazy.clear();
        assert_eq!(lazy.len(), 0);
        assert_eq!(lazy.get(0), None);
    }

    proptest! {
        /// Any sequence of reads, across any chunk bounds, sees exactly
        /// the full sort.
        #[test]
        fn prop_lazy_ranking_equals_full_sort(
            ids in proptest::collection::btree_set(0u32..400, 0..300),
            scores in proptest::collection::vec(0u8..6, 300..301),
            reads in proptest::collection::vec(0usize..320, 0..12)
        ) {
            let items: Vec<(f64, u32)> =
                ids.iter().zip(&scores).map(|(&id, &sc)| (f64::from(sc), id)).collect();
            let mut want = items.clone();
            want.sort_unstable_by(score_id_cmp);
            let mut lazy = LazyRanking::default();
            // Shuffle the input deterministically: reversed id order.
            items.iter().rev().for_each(|&it| lazy.push(it));
            for &i in &reads {
                prop_assert_eq!(lazy.get(i), want.get(i).copied());
                prop_assert_eq!(&lazy.items[..lazy.sorted], &want[..lazy.sorted]);
            }
            for i in 0..=want.len() {
                prop_assert_eq!(lazy.get(i), want.get(i).copied());
            }
            prop_assert_eq!(lazy.items, &want[..]);
        }

        #[test]
        fn prop_heap_equals_full_sort(
            scores in proptest::collection::vec((0u32..200, -100.0f64..100.0), 0..200),
            k in 0usize..20
        ) {
            let items: Vec<Scored> = scores.iter().map(|&(a, sc)| s(a, sc)).collect();
            let heap = top_k(items.clone(), k);
            let sorted = rank_full(items, k);
            prop_assert_eq!(heap, sorted);
        }

        #[test]
        fn prop_output_is_rank_sorted(
            scores in proptest::collection::vec((0u32..200, -100.0f64..100.0), 0..200),
            k in 1usize..20
        ) {
            let items: Vec<Scored> = scores.iter().map(|&(a, sc)| s(a, sc)).collect();
            let got = top_k(items, k);
            for w in got.windows(2) {
                prop_assert!(rank_cmp(&w[0], &w[1]) != Ordering::Greater);
            }
        }
    }
}
