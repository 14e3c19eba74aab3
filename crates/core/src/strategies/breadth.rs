//! The Breadth strategy (§5.2, Algorithm 2).
//!
//! Breadth evaluates a candidate action over *all* the implementations of
//! the user's implementation space it participates in: the score of action
//! `a` is `Σ_p |A_p ∩ H|` over implementations `p = (g, A_p)` with
//! `A_p ∩ H ≠ ∅` and `a ∈ A_p` (Eq. 5–6). Actions that co-occur with many
//! of the user's actions across many implementations rise to the top,
//! keeping multiple goal "paths" open with the minimum number of extra
//! actions.
//!
//! Algorithm 2 computes all scores in a single pass over the implementation
//! space: for each associated implementation, add its overlap `|A ∩ H|` to
//! the running score of every action it contains, rather than re-scanning
//! per candidate. The overlaps themselves come from one counting pass over
//! `H`'s postings (`crate::overlap`), which yields `IS(H)` with every
//! `|A_p ∩ H|` at once: no sort of `IS(H)` and no per-implementation
//! intersection. The ablation bench (`crates/bench/benches/strategies.rs`,
//! group `strategies/breadth_ablation`) compares this against the naive
//! per-candidate rescan.

use crate::activity::Activity;
use crate::ids::{ActionId, ImplId};
use crate::live::{AssocView, LiveRef};
use crate::model::GoalModel;
use crate::scratch::{with_thread_scratch, Scratch};
use crate::setops;
use crate::strategies::Strategy;
use crate::topk::Scored;
use std::collections::HashMap;

/// The Breadth strategy. Stateless; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breadth;

impl Breadth {
    /// Runs Algorithm 2's single accumulation pass (lines 2–11) over the
    /// scratch scoreboard: after this, `scratch.touched` holds every action
    /// of `IS(H)`'s implementations and the board holds its Eq. 6 score.
    /// Performed actions are still on the board — each ranking consumer
    /// filters them out.
    fn accumulate<V: AssocView + ?Sized>(view: &V, h: &[u32], scratch: &mut Scratch) {
        scratch.begin(view.num_actions());
        // Take the overlap board out so the loop can both read it and
        // mutate the scoreboard.
        let mut overlap = std::mem::take(&mut scratch.overlap);
        overlap.fill(view, h);
        for &p in overlap.impls() {
            let p = ImplId::new(p);
            let comm = overlap.count(p) as u64;
            debug_assert!(comm > 0, "IS(H) must only contain associated impls");
            for &a in view.impl_actions(p) {
                scratch.board_add(a, comm);
            }
        }
        scratch.overlap = overlap;
    }

    /// The [`Strategy::rank_into`] body, generic over the view so the
    /// same monomorphised pass serves both a compiled model and a live
    /// base ⊕ delta overlay.
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
        // Hot path: the arena's epoch-stamped dense scoreboard with a dirty
        // list. The accumulation touches each candidate many times (once
        // per shared implementation), so a flat Vec beats hashing; the
        // dirty list keeps iteration proportional to the touched candidates
        // instead of |𝒜|, and the epoch stamp replaces the O(|𝒜|) re-zero
        // between requests. `crates/bench/benches/strategies.rs`
        // (`strategies/breadth_ablation` group) quantifies the win over the
        // HashMap in `Self::scores`.
        let h = activity.raw();
        Self::accumulate(view, h, scratch);
        scratch.phase.mark(); // candidate accumulation done; top-k next
        scratch.topk.reset(k);
        let epoch = scratch.epoch;
        let Scratch {
            touched,
            board,
            topk,
            ..
        } = scratch;
        // The candidates are what Breadth can recommend, AS(IS(H)) − H:
        // the performed actions are on the board but not counted.
        let mut num_candidates = 0;
        for &a in touched.iter() {
            if setops::contains(h, a) {
                continue;
            }
            let (score, stamp) = board[ActionId::new(a).index()];
            debug_assert_eq!(stamp, epoch, "touched entries are always stamped");
            if stamp == epoch {
                num_candidates += 1;
                topk.push(Scored::new(ActionId::new(a), score as f64));
            }
        }
        scratch.topk.drain_sorted_into(&mut scratch.out);
        num_candidates
    }

    /// Computes the full candidate→score map (Algorithm 2 lines 2–11)
    /// without the final top-k cut, as a thin wrapper over the same dense
    /// scoreboard the ranking path uses — the `HashMap` is materialised
    /// only for the caller's convenience. The independent per-candidate
    /// rescan lives in [`Breadth::scores_naive`] as the ablation reference.
    pub fn scores(model: &GoalModel, activity: &Activity) -> HashMap<u32, u64> {
        let h = activity.raw();
        with_thread_scratch(|scratch| {
            Self::accumulate(model, h, scratch);
            scratch
                .touched
                .iter()
                .filter(|&&a| !setops::contains(h, a))
                .map(|&a| (a, scratch.board_get(a)))
                .collect()
        })
    }

    /// Reference implementation scoring each candidate independently by
    /// Eq. 6 — O(|AS(H)| × connectivity). Used to cross-check Algorithm 2
    /// and in the ablation bench.
    pub fn scores_naive(model: &GoalModel, activity: &Activity) -> HashMap<u32, u64> {
        let h = activity.raw();
        let mut scores = HashMap::new();
        for a in model.action_space(h) {
            let mut sc = 0u64;
            for &p in model.action_impls(ActionId::new(a)) {
                let actions = model.impl_actions(ImplId::new(p));
                let comm = setops::intersection_len(actions, h) as u64;
                if comm > 0 {
                    sc += comm;
                }
            }
            if sc > 0 {
                scores.insert(a, sc);
            }
        }
        scores
    }
}

impl Strategy for Breadth {
    fn name(&self) -> &'static str {
        "Breadth"
    }

    fn rank_into(
        &self,
        view: LiveRef<'_>,
        activity: &Activity,
        k: usize,
        scratch: &mut Scratch,
    ) -> usize {
        match view.unstaged() {
            // Empty delta: the exact compiled-model pass, no parts reads.
            Some(base) => self.rank_view_into(base, activity, k, scratch),
            None => self.rank_view_into(&view, activity, k, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::testutil::example_model;
    use crate::strategies::Strategy;
    use proptest::prelude::*;

    #[test]
    fn scores_on_paper_example() {
        let m = example_model();
        // H = {a1} (id 0). IS(H) = {p1, p2, p3, p5}, each with comm = 1.
        // a2 ∈ p1, p5 → 2; a3 ∈ p2 → 1; a4 ∈ p3 → 1; a5 ∈ p3 → 1;
        // a6 ∈ p5 → 1 (p4 not associated).
        let h = Activity::from_raw([0]);
        let s = Breadth::scores(&m, &h);
        assert_eq!(s.get(&1), Some(&2));
        assert_eq!(s.get(&2), Some(&1));
        assert_eq!(s.get(&3), Some(&1));
        assert_eq!(s.get(&4), Some(&1));
        assert_eq!(s.get(&5), Some(&1));
        assert_eq!(s.get(&0), None); // performed action excluded
    }

    #[test]
    fn overlap_weights_accumulate() {
        let m = example_model();
        // H = {a1, a2} (ids 0,1). comm: p1=2, p2=1, p3=1, p5=2.
        // a6 ∈ p5 → 2; a3 ∈ p2 → 1; a4, a5 ∈ p3 → 1 each.
        let h = Activity::from_raw([0, 1]);
        let s = Breadth::scores(&m, &h);
        assert_eq!(s.get(&5), Some(&2));
        assert_eq!(s.get(&2), Some(&1));
        assert_eq!(s.get(&3), Some(&1));
        assert_eq!(s.get(&4), Some(&1));
    }

    #[test]
    fn rank_orders_by_score_then_id() {
        let m = example_model();
        let h = Activity::from_raw([0]);
        let recs = Breadth.rank(&m, &h, 10);
        assert_eq!(recs[0].action, ActionId::new(1)); // a2, score 2
        assert_eq!(recs[0].score, 2.0);
        // The four score-1 actions follow in id order.
        let rest: Vec<u32> = recs[1..].iter().map(|r| r.action.raw()).collect();
        assert_eq!(rest, vec![2, 3, 4, 5]);
    }

    #[test]
    fn accumulating_matches_naive() {
        let m = example_model();
        for h in [
            Activity::from_raw([0]),
            Activity::from_raw([0, 1]),
            Activity::from_raw([3]),
            Activity::from_raw([1, 2, 5]),
        ] {
            assert_eq!(
                Breadth::scores(&m, &h),
                Breadth::scores_naive(&m, &h),
                "mismatch for H={:?}",
                h
            );
        }
    }

    #[test]
    fn empty_and_zero_k() {
        let m = example_model();
        assert!(Breadth.rank(&m, &Activity::new(), 5).is_empty());
        assert!(Breadth.rank(&m, &Activity::from_raw([0]), 0).is_empty());
    }

    #[test]
    fn activity_covering_everything_leaves_no_candidates() {
        let m = example_model();
        let h = Activity::from_raw([0, 1, 2, 3, 4, 5]);
        assert!(Breadth.rank(&m, &h, 10).is_empty());
        let n = Breadth.rank_into(LiveRef::solid(&m), &h, 10, &mut Scratch::new());
        assert_eq!(n, 0);
    }

    #[test]
    fn the_candidate_count_excludes_performed_actions() {
        let m = example_model();
        for h in [
            Activity::from_raw([0]),
            Activity::from_raw([0, 1]),
            Activity::from_raw([1, 2, 5]),
        ] {
            let want = Breadth::scores_naive(&m, &h).len();
            let n = Breadth.rank_into(LiveRef::solid(&m), &h, 1, &mut Scratch::new());
            assert_eq!(n, want, "H={h:?}");
        }
    }

    #[test]
    fn dense_scoreboard_rank_matches_hashmap_scores() {
        let m = example_model();
        for h in [
            Activity::from_raw([0]),
            Activity::from_raw([0, 1]),
            Activity::from_raw([1, 2, 5]),
        ] {
            let via_map = crate::topk::top_k(
                Breadth::scores(&m, &h)
                    .into_iter()
                    .map(|(a, s)| crate::topk::Scored::new(ActionId::new(a), s as f64)),
                10,
            );
            assert_eq!(Breadth.rank(&m, &h, 10), via_map, "H = {h:?}");
        }
    }

    proptest! {
        /// The dense-scoreboard rank must agree with the HashMap reference
        /// on random models.
        #[test]
        fn prop_rank_matches_scores(
            impls in proptest::collection::vec(
                (0u32..8, proptest::collection::btree_set(0u32..15, 1..6)),
                1..25
            ),
            h in proptest::collection::btree_set(0u32..15, 0..8)
        ) {
            use crate::ids::GoalId;
            use crate::library::GoalLibrary;
            let lib = GoalLibrary::from_id_implementations(
                15,
                8,
                impls
                    .into_iter()
                    .map(|(g, acts)| {
                        (
                            GoalId::new(g),
                            acts.into_iter().map(ActionId::new).collect(),
                        )
                    })
                    .collect(),
            )
            .unwrap();
            let m = crate::model::GoalModel::build(&lib).unwrap();
            let h = Activity::from_raw(h);
            let via_map = crate::topk::top_k(
                Breadth::scores(&m, &h)
                    .into_iter()
                    .map(|(a, s)| crate::topk::Scored::new(ActionId::new(a), s as f64)),
                10,
            );
            prop_assert_eq!(Breadth.rank(&m, &h, 10), via_map);
        }

        /// Algorithm 2's single-pass accumulation must equal the Eq. 6
        /// per-candidate definition on random small models.
        #[test]
        fn prop_accumulating_equals_naive(
            impls in proptest::collection::vec(
                (0u32..8, proptest::collection::btree_set(0u32..15, 1..6)),
                1..25
            ),
            h in proptest::collection::btree_set(0u32..15, 0..8)
        ) {
            use crate::ids::{ActionId, GoalId};
            use crate::library::GoalLibrary;
            let lib = GoalLibrary::from_id_implementations(
                15,
                8,
                impls
                    .into_iter()
                    .map(|(g, acts)| {
                        (
                            GoalId::new(g),
                            acts.into_iter().map(ActionId::new).collect(),
                        )
                    })
                    .collect(),
            )
            .unwrap();
            let m = crate::model::GoalModel::build(&lib).unwrap();
            let h = Activity::from_raw(h);
            prop_assert_eq!(Breadth::scores(&m, &h), Breadth::scores_naive(&m, &h));
        }
    }
}
