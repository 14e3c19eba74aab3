//! The Focus strategy (§5.1): complete one goal at a time.
//!
//! Focus examines every implementation whose goal lies in the user's goal
//! space, scores each implementation by how close the user is to completing
//! it, and emits the *remaining* actions of the best implementations until
//! the list is full. §6.1.2 C.2.2 describes the behaviour: "the Focus
//! mechanisms, after popping out all the actions of the goal implementation
//! on which they have selected to focus, move on to another goal
//! implementation".
//!
//! Two measures rank the implementations (Eq. 3–4):
//!
//! * **completeness** `|A ∩ H| / |A|` — fraction already performed
//!   (`Focus_cmp`);
//! * **closeness** `1 / |A − H|` — inverse of the number of actions still
//!   missing (`Focus_cl`).
//!
//! ## One counting pass, a lazily sorted ranking
//!
//! Both measures need only `|A|` and `|A ∩ H|`. The overlaps come from one
//! counting pass over `H`'s own postings (`crate::overlap`), which also
//! yields `GS(H)`; an implementation of a goal in `GS(H)` that the pass
//! never reached has overlap 0. The candidates are the implementations of
//! the goals of `GS(H)`. Every implementation has exactly one goal, so
//! these lists are disjoint and are concatenated without a union. Each is
//! scored from its action count and its overlap, with no per-candidate
//! intersection. The fill loop reads only the first few implementations in
//! rank order, so the ranking is a `LazyRanking`: a sorted prefix that
//! grows on demand instead of a full sort. The cost is
//! `O(Σ_{a∈H} |IS(a)| + |candidates|)` plus the sorting of what the fill
//! loop reads. `crates/bench/benches/strategies.rs` times both variants
//! on FoodMart and 43Things.

use crate::activity::Activity;
use crate::ids::{ActionId, GoalId, ImplId};
use crate::live::{AssocView, LiveRef};
use crate::scratch::Scratch;
use crate::setops;
use crate::strategies::Strategy;
use crate::topk::Scored;

/// Which implementation measure drives the ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FocusVariant {
    /// `Focus_cmp`: completeness `|A ∩ H| / |A|` (Eq. 3).
    Completeness,
    /// `Focus_cl`: closeness `1 / |A − H|` (Eq. 4).
    Closeness,
}

/// The Focus strategy. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Focus {
    variant: FocusVariant,
}

impl Focus {
    /// Creates a Focus strategy with the given measure.
    pub fn new(variant: FocusVariant) -> Self {
        Self { variant }
    }

    /// The implementation-ranking half of [`Strategy::rank_into`]: scores
    /// every implementation of every goal in `GS(H)` (§5.1 considers the
    /// action sets of implementations `(g, A)` with `g ∈ GS(H)`, a superset
    /// of the directly associated `IS(H)`, which lets Focus "extend to a
    /// few more \[implementations\] to complete the recommendation list").
    /// Implementations already complete (`A ⊆ H`) have no action left to
    /// recommend and are skipped. The scores land in
    /// `Scratch::scored_impls`, ranked on demand (score descending,
    /// ascending implementation id on ties).
    fn rank_impls_into<V: AssocView + ?Sized>(
        &self,
        view: &V,
        activity: &Activity,
        scratch: &mut Scratch,
    ) {
        let Scratch {
            overlap,
            scored_impls,
            ..
        } = scratch;
        overlap.fill(view, activity.raw());
        scored_impls.clear();
        for &g in overlap.goals() {
            let (base, delta) = view.goal_impls_parts(GoalId::new(g));
            for &p in base.iter().chain(delta) {
                let p = ImplId::new(p);
                let len = view.impl_actions(p).len();
                let inter = overlap.count(p);
                let remaining = len - inter;
                if remaining == 0 {
                    continue;
                }
                let score = match self.variant {
                    FocusVariant::Completeness => inter as f64 / len as f64,
                    FocusVariant::Closeness => 1.0 / remaining as f64,
                };
                scored_impls.push((score, p.raw()));
            }
        }
    }

    /// The [`Strategy::rank_into`] body, generic over the view so the
    /// same pass serves both a compiled model and a live overlay.
    fn rank_view_into<V: AssocView + ?Sized>(
        &self,
        view: &V,
        activity: &Activity,
        k: usize,
        scratch: &mut Scratch,
    ) -> usize {
        scratch.out.clear();
        if k == 0 || activity.is_empty() {
            return 0;
        }
        let h = activity.raw();
        self.rank_impls_into(view, activity, scratch);
        let Scratch {
            scored_impls,
            seen,
            remaining,
            out,
            phase,
            ..
        } = scratch;
        // Focus scores implementations, not actions: report those.
        let num_candidates = scored_impls.len();
        phase.mark(); // implementations scored; ranking and fill loop next

        // Pop the remaining actions of each implementation in rank order,
        // sorting only as far into the ranking as the loop reads.
        seen.clear();
        seen.extend_from_slice(h); // sorted set of excluded actions
        let mut rank = 0;
        'fill: while let Some((score, p)) = scored_impls.get(rank) {
            rank += 1;
            setops::difference_into(view.impl_actions(ImplId::new(p)), seen, remaining);
            for &a in remaining.iter() {
                out.push(Scored::new(ActionId::new(a), score));
                if let Err(pos) = seen.binary_search(&a) {
                    seen.insert(pos, a);
                }
                if out.len() == k {
                    break 'fill;
                }
            }
        }
        num_candidates
    }
}

impl Strategy for Focus {
    fn name(&self) -> &'static str {
        match self.variant {
            FocusVariant::Completeness => "Focus_cmp",
            FocusVariant::Closeness => "Focus_cl",
        }
    }

    fn rank_into(
        &self,
        view: LiveRef<'_>,
        activity: &Activity,
        k: usize,
        scratch: &mut Scratch,
    ) -> usize {
        match view.unstaged() {
            Some(base) => self.rank_view_into(base, activity, k, scratch),
            None => self.rank_view_into(&view, activity, k, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::testutil::example_model;

    #[test]
    fn names() {
        assert_eq!(Focus::new(FocusVariant::Completeness).name(), "Focus_cmp");
        assert_eq!(Focus::new(FocusVariant::Closeness).name(), "Focus_cl");
    }

    #[test]
    fn completeness_prefers_mostly_done_implementation() {
        let m = example_model();
        // H = {a1, a2} (ids 0,1): p1 fully complete (skipped), p5={a1,a2,a6}
        // at 2/3, p2={a1,a3} at 1/2, p3={a1,a4,a5} at 1/3, p4 at 0.
        let h = Activity::from_raw([0, 1]);
        let recs = Focus::new(FocusVariant::Completeness).rank(&m, &h, 10);
        // First recommendation comes from p5 → a6 (id 5) at score 2/3.
        assert_eq!(recs[0].action, ActionId::new(5));
        assert!((recs[0].score - 2.0 / 3.0).abs() < 1e-12);
        // Then p2 → a3 (id 2) at 1/2.
        assert_eq!(recs[1].action, ActionId::new(2));
        assert!((recs[1].score - 0.5).abs() < 1e-12);
        // Then p3 → a4, a5 (ids 3,4) at 1/3.
        assert_eq!(recs[2].action, ActionId::new(3));
        assert_eq!(recs[3].action, ActionId::new(4));
        assert_eq!(recs.len(), 4);
    }

    #[test]
    fn closeness_prefers_fewest_missing_actions() {
        let m = example_model();
        // H = {a1, a2}: p5 missing 1 (a6) → 1.0; p2 missing 1 (a3) → 1.0;
        // p3 missing 2 → 0.5; p4 missing 2 → 0.5 (goal g3 enters GS(H)? g3
        // only via p4={a4,a6}, no overlap with H, and its goal is not in
        // GS(H) since no action of H contributes to g3 — excluded).
        let h = Activity::from_raw([0, 1]);
        let recs = Focus::new(FocusVariant::Closeness).rank(&m, &h, 10);
        // Tie between p2 and p5 at 1.0 → impl id order: p2 (id 1) first → a3.
        assert_eq!(recs[0].action, ActionId::new(2));
        assert_eq!(recs[0].score, 1.0);
        assert_eq!(recs[1].action, ActionId::new(5)); // a6 from p5
        assert_eq!(recs[1].score, 1.0);
        // Then p3's two missing actions at 0.5.
        assert_eq!(recs[2].action, ActionId::new(3));
        assert_eq!(recs[3].action, ActionId::new(4));
        assert_eq!(recs.len(), 4);
    }

    #[test]
    fn complete_implementations_are_skipped() {
        let m = example_model();
        // H = everything in p1: p1 contributes no candidates.
        let h = Activity::from_raw([0, 1]);
        for variant in [FocusVariant::Completeness, FocusVariant::Closeness] {
            let recs = Focus::new(variant).rank(&m, &h, 10);
            assert!(recs.iter().all(|r| r.action != ActionId::new(0)));
            assert!(recs.iter().all(|r| r.action != ActionId::new(1)));
        }
    }

    #[test]
    fn zero_overlap_impls_of_shared_goals_can_fill_the_list() {
        let m = example_model();
        // H = {a3} (id 2): GS = {g1} via p2. g1's impls: p1 {a1,a2} (no
        // overlap, completeness 0) and p2 {a1,a3} (1/2). Focus_cmp emits
        // p2's missing a1 first, then p1's remaining a2.
        let h = Activity::from_raw([2]);
        let recs = Focus::new(FocusVariant::Completeness).rank(&m, &h, 10);
        let actions: Vec<u32> = recs.iter().map(|r| r.action.raw()).collect();
        assert_eq!(actions, vec![0, 1]);
        assert_eq!(recs[1].score, 0.0);
    }

    #[test]
    fn respects_k_cutoff_mid_implementation() {
        let m = example_model();
        let h = Activity::from_raw([0, 1]);
        let recs = Focus::new(FocusVariant::Completeness).rank(&m, &h, 3);
        assert_eq!(recs.len(), 3);
    }

    #[test]
    fn empty_activity_or_zero_k() {
        let m = example_model();
        assert!(Focus::new(FocusVariant::Completeness)
            .rank(&m, &Activity::new(), 5)
            .is_empty());
        assert!(Focus::new(FocusVariant::Closeness)
            .rank(&m, &Activity::from_raw([0]), 0)
            .is_empty());
    }

    #[test]
    fn no_duplicate_actions_across_implementations() {
        let m = example_model();
        let h = Activity::from_raw([0]); // a1 alone: many impls share actions
        let recs = Focus::new(FocusVariant::Completeness).rank(&m, &h, 10);
        let mut ids: Vec<u32> = recs.iter().map(|r| r.action.raw()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }
}
