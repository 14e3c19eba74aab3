//! The overlap board: `|A_p ∩ H|` for every implementation of `IS(H)`,
//! from one counting pass over the activity's own postings.
//!
//! Focus (Eq. 3–4) and Breadth (Eq. 5–6) both need the overlap
//! `|A_p ∩ H|` of implementations with the activity. §5.4 reads it as one
//! set intersection per implementation. Counting gives it for all of them
//! at once: each `a ∈ H` adds one to every `p ∈ IS(a)`. `H` and every
//! posting list are sets, so afterwards `p`'s count is exactly
//! `|A_p ∩ H|`, in `O(Σ_{a∈H} |IS(a)|)`. An implementation the pass never
//! reaches shares no action with `H`: its overlap is 0.
//!
//! The same walk collects `IS(H)` (the implementations reached) and
//! `GS(H)` (their goals), each in first-touch order and without
//! duplicates, so neither needs a sort.
//!
//! Counts and goal marks are stamped with an epoch, as on the Breadth
//! scoreboard in [`crate::Scratch`]: starting a request bumps one integer
//! instead of re-zeroing tables sized by the model, and the boards stay
//! allocated at their high-water mark.

use crate::ids::{ActionId, ImplId};
use crate::live::AssocView;

/// Per-request overlap counts, `IS(H)` and `GS(H)`. See the
/// [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct OverlapBoard {
    /// Current epoch; a stamp is live iff it equals this.
    epoch: u32,
    /// Per implementation id: `(|A_p ∩ H|, epoch stamp)`.
    counts: Vec<(u32, u32)>,
    /// Per goal id: the epoch in which the goal entered `GS(H)`.
    goal_marks: Vec<u32>,
    /// `IS(H)`, in first-touch order.
    impl_space: Vec<u32>,
    /// `GS(H)`, in first-touch order.
    goal_space: Vec<u32>,
}

impl OverlapBoard {
    /// Starts a new epoch with room for `num_impls` counts and
    /// `num_goals` goal marks; every old stamp goes stale.
    fn begin(&mut self, num_impls: usize, num_goals: usize) {
        if self.counts.len() < num_impls {
            self.counts.resize(num_impls, (0, 0));
        }
        if self.goal_marks.len() < num_goals {
            self.goal_marks.resize(num_goals, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: stamps from 2³² requests ago could alias. Reset.
            self.counts.iter_mut().for_each(|slot| slot.1 = 0);
            self.goal_marks.fill(0);
            self.epoch = 1;
        }
        self.impl_space.clear();
        self.goal_space.clear();
    }

    /// The counting pass for activity `h` (a set of raw action ids) over
    /// `view`: walks `IS(a)` (base row, then staged row) for each
    /// `a ∈ H`. Actions beyond the view's extent are ignored.
    pub(crate) fn fill<V: AssocView + ?Sized>(&mut self, view: &V, h: &[u32]) {
        self.begin(view.num_impls(), view.num_goals());
        let epoch = self.epoch;
        for &a in h {
            let a = ActionId::new(a);
            if a.index() >= view.num_actions() {
                continue;
            }
            let (base, delta) = view.action_impls_parts(a);
            for &p in base.iter().chain(delta) {
                let slot = &mut self.counts[ImplId::new(p).index()];
                if slot.1 == epoch {
                    slot.0 += 1;
                    continue;
                }
                *slot = (1, epoch);
                self.impl_space.push(p);
                let g = view.impl_goal(ImplId::new(p));
                let mark = &mut self.goal_marks[g.index()];
                if *mark != epoch {
                    *mark = epoch;
                    self.goal_space.push(g.raw());
                }
            }
        }
    }

    /// `|A_p ∩ H|` for the last [`OverlapBoard::fill`]: 0 for an
    /// implementation outside `IS(H)`.
    #[inline]
    pub(crate) fn count(&self, p: ImplId) -> usize {
        match self.counts.get(p.index()) {
            Some(&(count, stamp)) if stamp == self.epoch => {
                usize::try_from(count).unwrap_or(usize::MAX)
            }
            _ => 0,
        }
    }

    /// `IS(H)`: the implementations sharing an action with `H`, in
    /// first-touch order.
    pub(crate) fn impls(&self) -> &[u32] {
        &self.impl_space
    }

    /// `GS(H)`: the goals of `IS(H)`, in first-touch order.
    pub(crate) fn goals(&self) -> &[u32] {
        &self.goal_space
    }

    /// Sets the epoch, so a test can force the wraparound.
    #[cfg(test)]
    pub(crate) fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::testutil::example_model;
    use crate::GoalModel;

    /// `(IS(H) sorted, GS(H) sorted, count per implementation)`.
    fn snapshot(board: &OverlapBoard, model: &GoalModel) -> (Vec<u32>, Vec<u32>, Vec<usize>) {
        let mut impls = board.impls().to_vec();
        impls.sort_unstable();
        let mut goals = board.goals().to_vec();
        goals.sort_unstable();
        let counts = (0..model.num_impls())
            .map(|p| board.count(ImplId::new(u32::try_from(p).unwrap())))
            .collect();
        (impls, goals, counts)
    }

    #[test]
    fn counts_equal_the_overlap_with_h() {
        let m = example_model();
        let mut board = OverlapBoard::default();
        // H = {a1, a2}: p1={a1,a2} → 2, p2={a1,a3} → 1, p3={a1,a4,a5} → 1,
        // p4={a4,a6} → 0, p5={a1,a2,a6} → 2.
        board.fill(&m, &[0, 1]);
        assert_eq!(
            snapshot(&board, &m),
            (vec![0, 1, 2, 4], vec![0, 1, 3], vec![2, 1, 1, 0, 2])
        );
        // First-touch order: a1's postings, then a2's new ones (none).
        assert_eq!(board.impls(), &[0, 1, 2, 4]);
        // Out-of-extent actions are ignored; a new fill forgets the old one.
        board.fill(&m, &[3, 99]);
        assert_eq!(
            snapshot(&board, &m),
            (vec![2, 3], vec![1, 2], vec![0, 0, 1, 1, 0])
        );
        board.fill(&m, &[]);
        assert_eq!(snapshot(&board, &m), (vec![], vec![], vec![0; 5]));
    }

    #[test]
    fn epoch_wraparound_matches_a_fresh_board() {
        let m = example_model();
        let mut board = OverlapBoard::default();
        board.fill(&m, &[0, 1, 5]);
        // Force the wrap: the next fill overflows the epoch to 0 and must
        // reset every stamp rather than let old ones look live.
        board.epoch = u32::MAX;
        board.fill(&m, &[3]);
        assert_eq!(board.epoch, 1);
        let mut fresh = OverlapBoard::default();
        fresh.fill(&m, &[3]);
        assert_eq!(snapshot(&board, &m), snapshot(&fresh, &m));
        assert_eq!(board.impls(), fresh.impls());
        assert_eq!(board.goals(), fresh.goals());
    }
}
