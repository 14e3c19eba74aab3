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
//! ## Linear sums plus a repeat correction
//!
//! A goal the action does not implement (`c_g = 0`) adds 0 to each
//! per-action sum, so the sums only need the `(goal, implementation,
//! action)` postings of `GS(H)`. [`TermBoard::fill`] walks them once,
//! goal by goal in ascending id, and each posting of `a` under `g` only
//! adds to `a`'s linear sums: `dot += p_g` and `occ += 1`, where
//! `occ = Σ c_g` counts the postings. The quadratic sums follow from
//!
//! * `Σ c_g² = occ + Σ (c_g² − c_g)`, and
//! * `Σ (|p_g − c_g| − p_g) = −occ + Σ 2·max(0, c_g − p_g)`
//!
//! (every goal of `GS(H)` has `p_g ≥ 1`, and for `c ≥ 1` and `p ≥ 1`,
//! `|p − c| − p = −c + 2·max(0, c − p)`).
//! Both corrections vanish where `c_g(a) ≤ 1`, which is every posting of
//! a goal with a single implementation. Only inside goals with two or
//! more implementations (base rows plus staged rows) does the walk count
//! `c_g(a)`, in the action's slot against a per-request goal-visit
//! number: the `k`-th posting of `a` under `g`, for `k ≥ 2`, adds `k − 1`
//! to `Σ (c_g² − c_g)/2` and one to `Σ max(0, c_g − p_g)` once `k > p_g`.
//!
//! `IS(H)` and every `|A_p ∩ H|` come from the overlap board
//! (`crate::overlap`) that Focus and Breadth fill too.
//! `p_g = Σ_{p of g in IS(H)} |A_p ∩ H|` is Algorithm 3's count, summed
//! per goal while `GS(H)` is marked in a bitmap; scanning the bitmap
//! lists `GS(H)` in ascending goal id, which costs less than a sort and
//! lets the walk read the model's tables front to back. An action is a
//! candidate (`CA = AS(H) − H`) when an implementation with a non-zero
//! overlap contains it. The cost is `O(Σ postings of GS(H))`, not
//! `O(|CA| · |GS(H)|)` as a dense vector per candidate would be.
//!
//! ## Why the result is bit-identical to the dense definition
//!
//! Every coordinate is a small non-negative integer, so each of the five
//! sums, and each linear sum and correction they are derived from, is an
//! integer; `DistanceMetric::distance` asserts (in debug builds) that
//! each stays below 2⁵³. The derivation is integer arithmetic, so it is
//! exact, and every integer below 2⁵³ is an `f64` exactly, as is every
//! partial sum on the way to it. A literal dense evaluation in `f64` (the
//! test oracle in `tests/support/best_match_oracle.rs`) therefore computes
//! the very same integers, in any order, and the final formula sees
//! identical inputs. The sums are also order-free in `u64`, which is what
//! lets a goal whose rows are split between a base and a staged part add
//! up to the unsplit answer: its rows are walked as one visit, so `c_g`
//! counts across the split.

use crate::ids::{ActionId, GoalId, ImplId};
use crate::live::AssocView;
use crate::overlap::OverlapBoard;
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
}

/// One action's sums against the profile, and its running `c_g`. A
/// posting under a single-implementation goal touches only `dot`, `occ`
/// and `epoch`; the other fields only change under goals with several.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    /// `Σ p_g·c_g` (`p_g` per posting) in the low 63 bits, and in bit 63
    /// whether an implementation of `IS(H)` contains the action. The sum
    /// stays below 2⁵³ (see the module docs), so it never carries into
    /// the flag.
    dot: u64,
    /// `Σ (c_g² − c_g) / 2`.
    pairs: u64,
    /// `Σ c_g`: one per posting.
    occ: u32,
    /// `Σ max(0, c_g − p_g)`, at most `occ`.
    excess: u32,
    /// The request epoch the slot belongs to.
    epoch: u32,
    /// The goal visit `count` belongs to: goals with two or more
    /// implementations are numbered from 1 in each request.
    visit: u32,
    /// `c_g(a)` so far in that visit.
    count: u32,
}

/// The candidate flag in [`Slot::dot`].
const CANDIDATE: u64 = 1 << 63;

/// The working memory of the goal-major pass, reused across requests.
///
/// Per-action slots are stamped with an epoch, so starting a request
/// bumps one integer instead of re-zeroing the table (the same trick as
/// the Breadth scoreboard in [`crate::Scratch`]). Every buffer grows to
/// its high-water mark and then stays allocated, so steady-state requests
/// never touch the heap.
#[derive(Debug, Default)]
pub(crate) struct TermBoard {
    epoch: u32,
    /// Per action id.
    slots: Vec<Slot>,
    /// Actions with a live slot, in first-touch order.
    touched: Vec<u32>,
    /// `GS(H)` as a bitmap over goal ids; all zero between requests.
    goal_bits: Vec<u64>,
    /// Per goal id: `p_g` while it is being summed; all zero between
    /// requests.
    goal_counts: Vec<u32>,
    /// `H⃗` as `(goal, p_g)` over `GS(H)`, ascending goal id.
    profile: Vec<(u32, u32)>,
    norms: ProfileNorms,
}

impl TermBoard {
    /// Starts a new epoch with room for `num_actions` slots and
    /// `num_goals` goal bits; every old stamp goes stale.
    fn begin(&mut self, num_actions: usize, num_goals: usize) {
        if self.slots.len() < num_actions {
            self.slots.resize(num_actions, Slot::default());
        }
        if self.goal_counts.len() < num_goals {
            self.goal_counts.resize(num_goals, 0);
            self.goal_bits.resize(num_goals.div_ceil(64), 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: stamps from 2³² requests ago could alias. Reset.
            self.slots.iter_mut().for_each(|s| s.epoch = 0);
            self.epoch = 1;
        }
        self.touched.clear();
        self.profile.clear();
        self.norms = ProfileNorms::default();
    }

    /// The goal-major pass for activity `h` (sorted raw ids) over `view`:
    /// fills `overlap` (the arena's board that Focus and Breadth fill
    /// too), sums `H⃗` from it (Algorithm 3), then walks `GS(H)`'s
    /// postings once in ascending goal id, leaving every touched action's
    /// sums on the board. Actions of `h` beyond the view's extent are
    /// ignored.
    pub(crate) fn fill<V: AssocView + ?Sized>(
        &mut self,
        overlap: &mut OverlapBoard,
        view: &V,
        h: &[u32],
    ) {
        overlap.fill(view, h);
        self.begin(view.num_actions(), view.num_goals());
        // Algorithm 3: p_g sums |A_p ∩ H| over the implementations of g in
        // IS(H), and each such goal is marked in GS(H)'s bitmap. Scanning
        // the bitmap lists GS(H) in ascending goal id, which costs less
        // than a sort and lets the walk read the model's tables front to
        // back; it leaves both tables zero again.
        for &p in overlap.impls() {
            let p = ImplId::new(p);
            let g = view.impl_goal(p).index();
            self.goal_bits[g / 64] |= 1 << (g % 64);
            self.goal_counts[g] += u32::try_from(overlap.count(p)).unwrap_or(u32::MAX);
        }
        for (word, bits) in (0u32..).zip(&mut self.goal_bits) {
            let mut rest = std::mem::take(bits);
            while rest != 0 {
                let g = word * 64 + rest.trailing_zeros();
                let p_g = std::mem::take(&mut self.goal_counts[GoalId::new(g).index()]);
                self.profile.push((g, p_g));
                rest &= rest - 1;
            }
        }

        let epoch = self.epoch;
        let Self {
            slots,
            touched,
            profile,
            norms,
            ..
        } = self;
        let slots = &mut slots[..];
        let mut visit = 0;
        for &(g, p_g) in profile.iter() {
            let (base, delta) = view.goal_impls_parts(GoalId::new(g));
            let rows = || base.iter().chain(delta).map(|&p| ImplId::new(p));
            let p = u64::from(p_g);
            norms.p1 += p;
            norms.p2 += p * p;
            if base.len() + delta.len() == 1 {
                // c_g(a) = 1 for each action of the one implementation,
                // which is in IS(H) since g is in GS(H): no correction.
                for imp in rows() {
                    for &a in view.impl_actions(imp) {
                        let slot = open(slots, touched, epoch, a);
                        slot.dot = (slot.dot + p) | CANDIDATE;
                        slot.occ += 1;
                    }
                }
                continue;
            }
            visit += 1;
            for imp in rows() {
                let hit = if overlap.count(imp) > 0 { CANDIDATE } else { 0 };
                for &a in view.impl_actions(imp) {
                    let slot = open(slots, touched, epoch, a);
                    slot.dot = (slot.dot + p) | hit;
                    slot.occ += 1;
                    // The k-th posting of a under g adds
                    // (k² − k − ((k−1)² − (k−1)))/2 = k − 1 to pairs, and 1
                    // to excess once k > p_g; both are 0 for k = 1, so the
                    // update needs no branch.
                    slot.count = if slot.visit == visit {
                        slot.count + 1
                    } else {
                        1
                    };
                    slot.visit = visit;
                    slot.pairs += u64::from(slot.count - 1);
                    slot.excess += u32::from(u64::from(slot.count) > p);
                }
            }
        }
    }

    /// Candidate `a`'s exact sums this epoch, derived from its linear sums
    /// and corrections; `None` if the walk did not make it a candidate.
    fn candidate_terms(&self, a: ActionId) -> Option<ActionTerms> {
        let slot = self.slots.get(a.index())?;
        if slot.epoch != self.epoch || slot.dot & CANDIDATE == 0 {
            return None;
        }
        let occ = u64::from(slot.occ);
        Some(ActionTerms {
            dot: slot.dot & !CANDIDATE,
            c2: occ + 2 * slot.pairs,
            l1: 2 * i64::from(slot.excess) - i64::from(slot.occ),
        })
    }

    /// Algorithm 4's ranking step: scores every candidate `a ∈ AS(H) − H`
    /// by its negated `metric` distance to the profile, keeps the best
    /// `k` in `out` (cleared first) and returns the candidate count.
    pub(crate) fn rank_into(
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
            let Some(terms) = self.candidate_terms(ActionId::new(a)) else {
                continue;
            };
            if setops::contains(h, a) {
                continue;
            }
            num_candidates += 1;
            // Scores are higher-is-better across the crate; negate distance.
            let dist = metric.distance(self.norms, &terms);
            topk.push(Scored::new(ActionId::new(a), -dist));
        }
        topk.drain_sorted_into(out);
        num_candidates
    }

    /// The profile `H⃗` of the last [`TermBoard::fill`] as `(goal, p_g)`
    /// pairs over `GS(H)`, ascending goal id.
    #[cfg(test)]
    fn profile(&self) -> &[(u32, u32)] {
        &self.profile
    }
}

/// Action `a`'s slot, opened (zeroed and listed as touched) on the first
/// touch of the epoch.
#[inline(always)]
fn open<'s>(slots: &'s mut [Slot], touched: &mut Vec<u32>, epoch: u32, a: u32) -> &'s mut Slot {
    let slot = &mut slots[ActionId::new(a).index()];
    if slot.epoch != epoch {
        *slot = Slot {
            epoch,
            ..Slot::default()
        };
        touched.push(a);
    }
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{GoalLibrary, LibraryBuilder};
    use crate::model::GoalModel;

    /// Example 3.2 (Figure 1): a1..a6 → 0..5, goals g1 (meeting
    /// friends), g2 (going to the office), g3 (be warm) and g5 (hiking)
    /// → 0..3.
    fn library() -> GoalLibrary {
        let mut b = LibraryBuilder::new();
        b.add_impl("g1", ["a1", "a2"]).unwrap();
        b.add_impl("g1", ["a1", "a3"]).unwrap();
        b.add_impl("g2", ["a1", "a4", "a5"]).unwrap();
        b.add_impl("g3", ["a4", "a6"]).unwrap();
        b.add_impl("g5", ["a1", "a2", "a6"]).unwrap();
        b.build().unwrap()
    }

    fn model() -> GoalModel {
        GoalModel::build(&library()).unwrap()
    }

    #[test]
    fn section_5_3_profile_of_a2_a3() {
        // The paper's §5.3 example: H = {a2, a3}. The profile counts
        // g1 → 2 (p1 via a2, p2 via a3) and g5 → 1 (p5 via a2).
        let lib = library();
        let id = |name| lib.action_id(name).unwrap().raw();
        let goal = |name| lib.goal_id(name).unwrap().raw();
        let mut board = TermBoard::default();
        let mut h = vec![id("a2"), id("a3")];
        h.sort_unstable();
        board.fill(
            &mut OverlapBoard::default(),
            &GoalModel::build(&lib).unwrap(),
            &h,
        );
        assert_eq!(board.profile(), &[(goal("g1"), 2), (goal("g5"), 1)]);
        assert_eq!(board.norms, ProfileNorms { p1: 3, p2: 5 });
    }

    /// Action `a`'s sums this epoch as `(dot, occ, pairs, excess,
    /// candidate)`, where `pairs = Σ (c_g² − c_g)/2` and
    /// `excess = Σ max(0, c_g − p_g)`; `None` if the walk did not touch it.
    fn sums(board: &TermBoard, a: u32) -> Option<(u64, u32, u64, u32, bool)> {
        let slot = board.slots.get(ActionId::new(a).index())?;
        if slot.epoch != board.epoch {
            return None;
        }
        let candidate = slot.dot & CANDIDATE != 0;
        Some((
            slot.dot & !CANDIDATE,
            slot.occ,
            slot.pairs,
            slot.excess,
            candidate,
        ))
    }

    /// `(dot, c2, l1)` of a candidate.
    fn terms(board: &TermBoard, a: u32) -> Option<(u64, u64, i64)> {
        let t = board.candidate_terms(ActionId::new(a))?;
        Some((t.dot, t.c2, t.l1))
    }

    #[test]
    fn terms_count_implementations_per_goal_within_the_space() {
        // H = {a2, a3}, profile (g1: 2, g5: 1). a1 implements g1 twice and
        // g5 once — the vector (2, 1): dot 2·2 + 1·1 = 5 over 3 postings.
        // Its c_g = 2 in g1 is one repeat, (2² − 2)/2 = 1, and does not
        // exceed p_g = 2. So c2 = 3 + 2·1 = 5 and l1 = −3 + 2·0 = −3,
        // which is (|2−2| − 2) + (|1−1| − 1).
        let m = model();
        let mut board = TermBoard::default();
        let mut overlap = OverlapBoard::default();
        board.fill(&mut overlap, &m, &[1, 2]);
        assert_eq!(sums(&board, 0), Some((5, 3, 1, 0, true)));
        assert_eq!(terms(&board, 0), Some((5, 5, -3)));
        // a6 implements g5 once (g3 is outside GS(H)): (0, 1).
        assert_eq!(sums(&board, 5), Some((1, 1, 0, 0, true)));
        assert_eq!(terms(&board, 5), Some((1, 1, -1)));
        // a4 implements no goal of GS(H): the walk never touches it.
        assert_eq!(sums(&board, 3), None);

        // H = {a2}, profile (g1: 1, g5: 1). a1 is still (2, 1), but now
        // c_g = 2 exceeds p_g = 1 in g1: excess 1, so l1 = −3 + 2 = −1,
        // which is (|1−2| − 1) + (|1−1| − 1).
        board.fill(&mut overlap, &m, &[1]);
        assert_eq!(board.profile(), &[(0, 1), (3, 1)]);
        assert_eq!(sums(&board, 0), Some((3, 3, 1, 1, true)));
        assert_eq!(terms(&board, 0), Some((3, 5, -1)));
        // a3 is only in p2, an implementation of g1 that H does not
        // reach: it is walked, but it is no candidate.
        assert_eq!(sums(&board, 2), Some((1, 1, 0, 0, false)));
        assert_eq!(terms(&board, 2), None);
    }

    #[test]
    fn reuse_and_epoch_wraparound_match_a_fresh_board() {
        let m = model();
        let mut board = TermBoard::default();
        let mut overlap = OverlapBoard::default();
        board.fill(&mut overlap, &m, &[0]);
        board.fill(&mut overlap, &m, &[1, 2]);
        // Force every stamp to wrap on the next fill: each must reset
        // rather than let an old stamp look live.
        board.epoch = u32::MAX;
        board.slots.iter_mut().for_each(|s| s.visit = u32::MAX);
        overlap.set_epoch(u32::MAX);
        board.fill(&mut overlap, &m, &[0, 3]);
        assert_eq!(board.epoch, 1);
        let mut fresh = TermBoard::default();
        fresh.fill(&mut OverlapBoard::default(), &m, &[0, 3]);
        assert_eq!(board.profile(), fresh.profile());
        assert_eq!(board.norms, fresh.norms);
        for a in 0..6 {
            assert_eq!(sums(&board, a), sums(&fresh, a), "a{}", a + 1);
            assert_eq!(terms(&board, a), terms(&fresh, a), "a{}", a + 1);
        }
    }

    #[test]
    fn empty_and_unknown_activities_give_an_empty_profile() {
        let m = model();
        let mut board = TermBoard::default();
        let mut overlap = OverlapBoard::default();
        board.fill(&mut overlap, &m, &[]);
        assert!(board.profile().is_empty());
        board.fill(&mut overlap, &m, &[999]);
        assert!(board.profile().is_empty());
        board.fill(&mut overlap, &m, &[0, 999]);
        let mut known = TermBoard::default();
        known.fill(&mut OverlapBoard::default(), &m, &[0]);
        assert_eq!(board.profile(), known.profile());
    }
}
