//! Per-worker scatter + merge arenas.
//!
//! Mirrors the design of [`goalrec_core::Scratch`]: one [`ShardScratch`]
//! per worker thread owns every buffer both phases of a scatter-gather
//! rank need — one [`ShardSlot`] per shard for the scatter half, plus the
//! merge-side boards, cursors and accumulators — so steady-state requests
//! touch the heap zero times (`tests/alloc_counting.rs` proves it with a
//! counting allocator). Buffers grow to their high-water mark on the first
//! requests and stay allocated.

use goalrec_core::ids::ActionId;
use goalrec_core::profile::TermBoard;
use goalrec_core::topk::{Scored, TopK};
use goalrec_core::Scratch;

/// Scatter-phase working memory for one shard.
///
/// Every strategy scatters straight into the slot's core [`Scratch`]:
/// Breadth its full per-shard ranking, Focus its per-shard implementation
/// ranking, Best Match its per-action sums (the scratch's term board),
/// which the gather phase adds up.
#[derive(Default)]
pub struct ShardSlot {
    /// Core arena driving the shard-local strategy code.
    pub(crate) scratch: Scratch,
}

impl ShardSlot {
    /// Clears every per-request result so a shard that is skipped this
    /// request (empty, or failed over) can never leak stale data into the
    /// merge. Keeps all backing allocations.
    pub(crate) fn clear(&mut self) {
        self.scratch.clear_results();
    }
}

/// Epoch-stamped dense `u64` scoreboard for the Breadth merge, same trick
/// as the core arena's board: bumping one epoch integer invalidates every
/// slot, so per-request cost is proportional to the touched actions, not
/// `O(|𝒜|)`.
#[derive(Default)]
pub(crate) struct ScoreBoard {
    epoch: u32,
    slots: Vec<(u64, u32)>,
    touched: Vec<ActionId>,
}

impl ScoreBoard {
    /// Starts a new merge epoch sized for `num_actions`.
    pub(crate) fn begin(&mut self, num_actions: usize) {
        if self.slots.len() < num_actions {
            self.slots.resize(num_actions, (0, 0));
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: stamps from 2³² merges ago could alias. Reset.
            for slot in &mut self.slots {
                slot.1 = 0;
            }
            self.epoch = 1;
        }
        self.touched.clear();
    }

    /// Adds `delta` to action `a`'s summed score.
    pub(crate) fn add(&mut self, a: ActionId, delta: u64) {
        let slot = &mut self.slots[a.index()];
        if slot.1 == self.epoch {
            slot.0 += delta;
        } else {
            *slot = (delta, self.epoch);
            self.touched.push(a);
        }
    }

    /// Action `a`'s summed score this epoch (0 if untouched).
    pub(crate) fn get(&self, a: ActionId) -> u64 {
        let slot = self.slots[a.index()];
        if slot.1 == self.epoch {
            slot.0
        } else {
            0
        }
    }

    /// Actions touched this epoch, in first-touch order.
    pub(crate) fn touched(&self) -> &[ActionId] {
        &self.touched
    }
}

/// Reusable per-worker working memory for one scatter-gather request.
///
/// Grows to fit the highest shard count it has served (via
/// [`ShardScratch::ensure_shards`], called by the scatter/gather entry
/// points) and is then allocation-free at steady state.
#[derive(Default)]
pub struct ShardScratch {
    /// One scatter slot per shard.
    pub(crate) slots: Vec<ShardSlot>,
    /// K-way merge cursors, one per shard.
    pub(crate) heads: Vec<usize>,
    /// Breadth merge: summed integer scores.
    pub(crate) board: ScoreBoard,
    /// Best Match merge: the per-shard sums added up (N > 1 only).
    pub(crate) terms: TermBoard,
    /// Focus merge: the running excluded-action set (Algorithm 1's `R`).
    pub(crate) seen: Vec<u32>,
    /// Focus merge: per-implementation remaining-action buffer.
    pub(crate) remaining: Vec<u32>,
    /// Bounded global top-k accumulator.
    pub(crate) topk: TopK,
    /// The merged ranking of the last `gather` call.
    pub(crate) out: Vec<Scored>,
}

impl ShardScratch {
    /// A fresh arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the per-shard slot and cursor tables to at least `n` entries.
    /// Called by the scatter/gather entry points; only the first request
    /// at a new shard count allocates.
    pub fn ensure_shards(&mut self, n: usize) {
        while self.slots.len() < n {
            self.slots.push(ShardSlot::default());
        }
        if self.heads.len() < n {
            self.heads.resize(n, 0);
        }
    }

    /// The merged ranking produced by the last
    /// [`crate::ShardStrategy::gather`] call on this arena.
    pub fn out(&self) -> &[Scored] {
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboard_epochs_reset_without_rezeroing() {
        let mut b = ScoreBoard::default();
        b.begin(8);
        b.add(ActionId::new(3), 2);
        b.add(ActionId::new(3), 1);
        b.add(ActionId::new(5), 7);
        assert_eq!(b.get(ActionId::new(3)), 3);
        assert_eq!(b.get(ActionId::new(5)), 7);
        assert_eq!(b.get(ActionId::new(0)), 0);
        assert_eq!(b.touched(), &[ActionId::new(3), ActionId::new(5)]);
        b.begin(8);
        assert_eq!(b.get(ActionId::new(3)), 0);
        assert!(b.touched().is_empty());
    }

    #[test]
    fn scoreboard_wraparound_resets_stamps() {
        let mut b = ScoreBoard::default();
        b.begin(2);
        b.add(ActionId::new(0), 9);
        b.epoch = u32::MAX;
        b.begin(2);
        assert_eq!(b.epoch, 1);
        assert_eq!(b.get(ActionId::new(0)), 0);
    }

    #[test]
    fn ensure_shards_grows_monotonically() {
        let mut s = ShardScratch::new();
        s.ensure_shards(3);
        assert_eq!(s.slots.len(), 3);
        assert_eq!(s.heads.len(), 3);
        s.ensure_shards(1); // never shrinks
        assert_eq!(s.slots.len(), 3);
        s.ensure_shards(5);
        assert_eq!(s.slots.len(), 5);
    }

    #[test]
    fn slot_clear_wipes_results() {
        let mut lib = goalrec_core::LibraryBuilder::new();
        lib.add_impl("g", ["a", "b"]).unwrap();
        let model = goalrec_core::GoalModel::build(&lib.build().unwrap()).unwrap();
        let mut slot = ShardSlot::default();
        slot.scratch.terms_mut().fill(&model, &[0]);
        slot.clear();
        assert!(slot.scratch.terms().profile().is_empty());
        let (mut topk, mut out) = (TopK::default(), Vec::new());
        let metric = goalrec_core::DistanceMetric::Cosine;
        assert_eq!(
            slot.scratch
                .terms()
                .rank_into(metric, &[0], 5, &mut topk, &mut out),
            0
        );
        assert!(slot.scratch.out().is_empty());
    }
}
