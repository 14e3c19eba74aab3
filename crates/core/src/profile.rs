//! Goal-based user and action representations (§5.3, Eq. 7–10, Alg. 3),
//! computed goal-major in exact integers.
//!
//! Best Match compares the user profile `H⃗` (Eq. 9: for each goal `g` of
//! `GS(H)`, the count `p_g` of `(a ∈ H, p ∈ IS(a))` pairs with `p` an
//! implementation of `g`) with each candidate's vector `a⃗` (Eq. 8:
//! coordinate `g` counts the implementations `c_g` of `g` that contain
//! `a`). All three metrics of Eq. 10 need only five sums over `GS(H)`:
//!
//! * per request: `P1 = Σ p_g` and `P2 = Σ p_g²`;
//! * per action: `dot = Σ p_g·c_g`, `c2 = Σ c_g²` and
//!   `l1 = Σ (|p_g − c_g| − p_g)`.
//!
//! A goal the action does not implement (`c_g = 0`) adds 0 to each
//! per-action sum, so the sums only need the `(goal, action)` pairs that
//! occur in the library. [`TermBoard::fill`] gets them in one pass over
//! the postings of `GS(H)`: for each goal `g` with count `p_g`, for each
//! implementation of `g` (base rows, then staged ones), for each of its
//! actions `a`, it raises `c_g(a)` by one and updates `a`'s sums by the
//! difference that step makes (`dot += p_g`, `c2 += 2c − 1`, `l1 ∓= 1`).
//! An action is flagged a candidate when one of those implementations is
//! in `IS(H)`, which yields `CA = AS(H) − H` on the way. The cost is
//! `O(Σ postings of GS(H))`, not `O(|CA| · |GS(H)|)` as a dense vector
//! per candidate would be.
//!
//! ## Why the result is bit-identical to the dense definition
//!
//! Every coordinate is a small non-negative integer, so each of the five
//! sums is an integer; `DistanceMetric::distance` asserts (in debug
//! builds) that each stays below 2⁵³. Every integer of that size is
//! an `f64` exactly, and so is every partial sum on the way to it. A
//! literal dense evaluation in `f64` (the test oracle in
//! `tests/support/best_match_oracle.rs`) therefore computes the very same
//! integers, in any order, and the final formula sees identical inputs.
//! The sums are also order-free in `u64`, which is what lets a base row
//! split from its staged suffix add up to the unsplit answer.

use crate::ids::{ActionId, GoalId, ImplId};
use crate::live::AssocView;
use crate::setops;
use crate::topk::{Scored, TopK};
use crate::DistanceMetric;

/// The profile's own sums over `GS(H)`: `P1 = Σ p_g` and `P2 = Σ p_g²`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ProfileNorms {
    /// `Σ p_g`, the profile's L1 norm.
    pub(crate) p1: u64,
    /// `Σ p_g²`, the profile's squared L2 norm.
    pub(crate) p2: u64,
}

/// One action's exact sums against the profile, over `GS(H)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ActionTerms {
    /// `Σ p_g·c_g`.
    pub(crate) dot: u64,
    /// `Σ c_g²`, the action vector's squared L2 norm.
    pub(crate) c2: u64,
    /// `Σ (|p_g − c_g| − p_g)`, so that the L1 distance is `P1 + l1`.
    pub(crate) l1: i64,
    /// Whether the action is in `AS(H)`: one of its implementations is in
    /// `IS(H)`.
    pub(crate) candidate: bool,
}

/// One action's slot on the board: its sums plus the goal the walk is on
/// and the running count `c_g` within it.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    terms: ActionTerms,
    epoch: u32,
    goal: u32,
    count: u32,
}

/// The working memory of the goal-major pass, reused across requests.
///
/// Per-action slots and per-implementation `IS(H)` marks are stamped
/// with an epoch, so starting a request bumps one integer instead of
/// re-zeroing either table (the same trick as the Breadth scoreboard in
/// [`crate::Scratch`]). Every buffer grows to its high-water mark and then
/// stays allocated, so steady-state requests never touch the heap.
#[derive(Debug, Default)]
pub struct TermBoard {
    epoch: u32,
    /// Per action id.
    slots: Vec<Slot>,
    /// Actions with a live slot, in first-touch order.
    touched: Vec<u32>,
    /// Per implementation id: the epoch in which it was found in `IS(H)`.
    in_impl_space: Vec<u32>,
    /// The goal of every `(a ∈ H, p ∈ IS(a))` pair, sorted.
    pairs: Vec<u32>,
    /// `H⃗` as `(goal, p_g)` over `GS(H)`, ascending goal id.
    profile: Vec<(u32, u32)>,
    norms: ProfileNorms,
}

impl TermBoard {
    /// Starts a new epoch with room for `num_actions` slots and
    /// `num_impls` implementation marks; every old stamp goes stale.
    fn begin(&mut self, num_actions: usize, num_impls: usize) {
        if self.slots.len() < num_actions {
            self.slots.resize(num_actions, Slot::default());
        }
        if self.in_impl_space.len() < num_impls {
            self.in_impl_space.resize(num_impls, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: stamps from 2³² requests ago could alias. Reset.
            self.slots.iter_mut().for_each(|s| s.epoch = 0);
            self.in_impl_space.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
        self.profile.clear();
        self.norms = ProfileNorms::default();
    }

    /// The goal-major pass for activity `h` (sorted raw ids) over `view`:
    /// builds `H⃗` (Algorithm 3), then walks `GS(H)`'s postings once,
    /// leaving every touched action's sums on the board.
    /// Actions of `h` beyond the view's extent are ignored.
    pub fn fill<V: AssocView + ?Sized>(&mut self, view: &V, h: &[u32]) {
        self.begin(view.num_actions(), view.num_impls());
        let epoch = self.epoch;

        // Algorithm 3: one +1 on goal(p) per (a ∈ H, p ∈ IS(a)), and p is
        // marked as a member of IS(H).
        self.pairs.clear();
        for &a in h {
            let a = ActionId::new(a);
            if a.index() >= view.num_actions() {
                continue;
            }
            let (base, delta) = view.action_impls_parts(a);
            for &p in base.iter().chain(delta) {
                let p = ImplId::new(p);
                self.in_impl_space[p.index()] = epoch;
                self.pairs.push(view.impl_goal(p).raw());
            }
        }
        self.pairs.sort_unstable();
        for &g in &self.pairs {
            match self.profile.last_mut() {
                Some((last, count)) if *last == g => *count += 1,
                _ => self.profile.push((g, 1)),
            }
        }

        // The goal-major walk. Within goal g, the k-th implementation of g
        // seen containing a raises c_g(a) from k − 1 to k, which changes
        // p_g·c_g by p_g, c_g² by 2k − 1, and |p_g − c_g| by −1 while
        // k ≤ p_g and by +1 after.
        for &(g, p_g) in &self.profile {
            let p_g = u64::from(p_g);
            self.norms.p1 += p_g;
            self.norms.p2 += p_g * p_g;
            let (base, delta) = view.goal_impls_parts(GoalId::new(g));
            for &p in base.iter().chain(delta) {
                let p = ImplId::new(p);
                let in_impl_space = self.in_impl_space[p.index()] == epoch;
                for &a in view.impl_actions(p) {
                    let slot = &mut self.slots[ActionId::new(a).index()];
                    if slot.epoch != epoch {
                        *slot = Slot {
                            epoch,
                            goal: g,
                            ..Slot::default()
                        };
                        self.touched.push(a);
                    } else if slot.goal != g {
                        slot.goal = g;
                        slot.count = 0;
                    }
                    slot.count += 1;
                    let c = u64::from(slot.count);
                    let t = &mut slot.terms;
                    t.dot += p_g;
                    t.c2 += 2 * c - 1;
                    t.l1 += if c <= p_g { -1 } else { 1 };
                    t.candidate |= in_impl_space;
                }
            }
        }
    }

    /// Algorithm 4's ranking step: scores every candidate `a ∈ AS(H) − H`
    /// by its negated `metric` distance to the profile, keeps the best
    /// `k` in `out` (cleared first) and returns the candidate count.
    pub fn rank_into(
        &self,
        metric: DistanceMetric,
        h: &[u32],
        k: usize,
        topk: &mut TopK,
        out: &mut Vec<Scored>,
    ) -> usize {
        topk.reset(k);
        let mut num_candidates = 0;
        for &a in &self.touched {
            let terms = &self.slots[ActionId::new(a).index()].terms;
            if !terms.candidate || setops::contains(h, a) {
                continue;
            }
            num_candidates += 1;
            // Scores are higher-is-better across the crate; negate distance.
            let dist = metric.distance(self.norms, terms);
            topk.push(Scored::new(ActionId::new(a), -dist));
        }
        topk.drain_sorted_into(out);
        num_candidates
    }

    /// The profile `H⃗` of the last [`TermBoard::fill`] as `(goal, p_g)`
    /// pairs over `GS(H)`, ascending goal id.
    pub fn profile(&self) -> &[(u32, u32)] {
        &self.profile
    }

    /// Action `a`'s sums this epoch, if the walk touched it.
    #[cfg(test)]
    fn terms(&self, a: ActionId) -> Option<ActionTerms> {
        self.slots
            .get(a.index())
            .filter(|s| s.epoch == self.epoch && self.epoch != 0)
            .map(|s| s.terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryBuilder;
    use crate::model::GoalModel;

    /// Example 3.2 model: a1..a6 → 0..5, goals g1,g2,g3,g5 → 0..3.
    fn model() -> GoalModel {
        let mut b = LibraryBuilder::new();
        b.add_impl("g1", ["a1", "a2"]).unwrap();
        b.add_impl("g1", ["a1", "a3"]).unwrap();
        b.add_impl("g2", ["a1", "a4", "a5"]).unwrap();
        b.add_impl("g3", ["a4", "a6"]).unwrap();
        b.add_impl("g5", ["a1", "a2", "a6"]).unwrap();
        GoalModel::build(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn paper_example_profile_for_a2_a3() {
        // The paper's §5.3 example: H = {a2, a3}. a2 contributes to g1 (p1)
        // and g5 (p5); a3 to g1 (p2). Goal space {g1, g5} = ids {0, 3}.
        let mut board = TermBoard::default();
        board.fill(&model(), &[1, 2]);
        assert_eq!(board.profile(), &[(0, 2), (3, 1)]);
        assert_eq!(board.norms, ProfileNorms { p1: 3, p2: 5 });
    }

    #[test]
    fn terms_count_implementations_per_goal_within_the_space() {
        // H = {a2, a3}, profile (g1: 2, g5: 1). a1 implements g1 twice and
        // g5 once — the vector (2, 1): dot 5, c2 5, l1 = (0−2) + (0−1).
        // a6 implements g5 once (g3 is outside GS(H)): (0, 1).
        let mut board = TermBoard::default();
        board.fill(&model(), &[1, 2]);
        let a1 = board.terms(ActionId::new(0)).unwrap();
        assert_eq!((a1.dot, a1.c2, a1.l1, a1.candidate), (5, 5, -3, true));
        let a6 = board.terms(ActionId::new(5)).unwrap();
        assert_eq!((a6.dot, a6.c2, a6.l1, a6.candidate), (1, 1, -1, true));
        // a4 implements no goal of GS(H): the walk never touches it.
        assert_eq!(board.terms(ActionId::new(3)), None);
    }

    #[test]
    fn reuse_and_epoch_wraparound_match_a_fresh_board() {
        let m = model();
        let mut board = TermBoard::default();
        board.fill(&m, &[0]);
        board.fill(&m, &[1, 2]);
        board.epoch = u32::MAX;
        board.fill(&m, &[3]);
        assert_eq!(board.epoch, 1);
        let mut fresh = TermBoard::default();
        fresh.fill(&m, &[3]);
        assert_eq!(board.profile(), fresh.profile());
        for a in 0..6 {
            assert_eq!(board.terms(ActionId::new(a)), fresh.terms(ActionId::new(a)));
        }
    }

    #[test]
    fn empty_and_unknown_activities_give_an_empty_profile() {
        let m = model();
        let mut board = TermBoard::default();
        board.fill(&m, &[]);
        assert!(board.profile().is_empty());
        board.fill(&m, &[999]);
        assert!(board.profile().is_empty());
        board.fill(&m, &[0, 999]);
        let mut known = TermBoard::default();
        known.fill(&m, &[0]);
        assert_eq!(board.profile(), known.profile());
    }
}
