//! The goal-based recommendation strategies (§5).
//!
//! Each strategy implements a different policy for prioritising the goals in
//! the user's goal space and converting them into a ranked action list:
//!
//! * [`Focus`] (§5.1) — complete one goal at a time; variants
//!   [`FocusVariant::Completeness`] and [`FocusVariant::Closeness`].
//! * [`Breadth`] (§5.2) — favour actions strongly associated with the user
//!   activity across many implementations at once.
//! * [`BestMatch`] (§5.3) — match candidates against a goal-space user
//!   profile by vector distance.

mod best_match;
mod breadth;
mod focus;

pub use best_match::BestMatch;
pub use breadth::Breadth;
pub use focus::{Focus, FocusVariant};

use crate::activity::Activity;
use crate::live::LiveRef;
use crate::model::GoalModel;
use crate::scratch::Scratch;
use crate::topk::Scored;

/// A ranking strategy over the association-based goal model.
///
/// Implementations must be deterministic: the same `(model, activity, k)`
/// always yields the same list. Scores are oriented so that **higher is
/// better** regardless of the strategy's internal measure (distance-based
/// strategies negate).
pub trait Strategy: Send + Sync {
    /// Short stable name used in experiment reports (e.g. `"Focus_cmp"`).
    fn name(&self) -> &'static str;

    /// Ranks candidate actions (actions not in `activity`) and returns the
    /// top `k`, best first.
    fn rank(&self, model: &GoalModel, activity: &Activity, k: usize) -> Vec<Scored>;

    /// Like [`Strategy::rank`], additionally reporting the number of
    /// candidates the strategy scored *before* top-k truncation — actions
    /// for Best Match and Breadth, implementations for Focus. The
    /// observability layer feeds this into the per-strategy
    /// `strategy.<name>.candidates` histogram.
    ///
    /// The default falls back to the truncated result length; strategies
    /// override it where the true candidate count is available for free.
    fn rank_observed(
        &self,
        model: &GoalModel,
        activity: &Activity,
        k: usize,
    ) -> (Vec<Scored>, usize) {
        let ranked = self.rank(model, activity, k);
        let candidates = ranked.len();
        (ranked, candidates)
    }

    /// The allocation-free form of [`Strategy::rank_observed`]: ranks into
    /// `scratch`'s buffers, leaving the top-k list best-first in
    /// [`Scratch::out`] and returning the pre-truncation candidate count.
    ///
    /// A warm `scratch` reused across calls makes the built-in strategies'
    /// steady-state requests heap-allocation-free (see
    /// `tests/alloc_counting.rs`); callers that do not hold an arena can
    /// keep using `rank`/`rank_observed`, which route through a
    /// thread-local one. The default implementation delegates to
    /// `rank_observed` and copies the result — correct for any strategy,
    /// allocation-free only for those that override it.
    fn rank_into(
        &self,
        model: &GoalModel,
        activity: &Activity,
        k: usize,
        scratch: &mut Scratch,
    ) -> usize {
        let (ranked, candidates) = self.rank_observed(model, activity, k);
        scratch.out.clear();
        scratch.out.extend_from_slice(&ranked);
        candidates
    }

    /// Like [`Strategy::rank_into`], but over a live base ⊕ delta overlay
    /// ([`LiveRef`]) instead of a compiled model. Results must be
    /// bit-identical to `rank_into` on a full rebuild of the merged
    /// library (pinned for the built-ins by `tests/live_overlay.rs`).
    ///
    /// With an empty (or absent) delta this MUST behave exactly like
    /// `rank_into` on the base — the default does precisely that, so the
    /// serving hot path stays allocation-free. With a non-empty delta the
    /// default falls back to compiling the merged model and ranking it —
    /// correct for any strategy but allocating; the built-ins override
    /// this with a direct overlay read. A vacant view ranks nothing.
    fn rank_live_into(
        &self,
        live: LiveRef<'_>,
        activity: &Activity,
        k: usize,
        scratch: &mut Scratch,
    ) -> usize {
        if live.delta().is_none() {
            return match live.base() {
                Some(base) => self.rank_into(base, activity, k, scratch),
                None => {
                    scratch.out.clear();
                    0
                }
            };
        }
        match live.to_model() {
            Ok(merged) => self.rank_into(&merged, activity, k, scratch),
            Err(_) => {
                scratch.out.clear();
                0
            }
        }
    }
}

/// The paper's four goal-based mechanisms with default settings, in the
/// order the evaluation tables list them: Best Match, Focus_cmp, Focus_cl,
/// Breadth.
pub fn default_strategies() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(BestMatch::default()),
        Box::new(Focus::new(FocusVariant::Completeness)),
        Box::new(Focus::new(FocusVariant::Closeness)),
        Box::new(Breadth),
    ]
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::library::LibraryBuilder;
    use crate::model::GoalModel;

    /// Example 3.2 / Figure 1 model.
    ///
    /// Ids: actions a1..a6 → 0..5; goals g1,g2,g3,g5 → 0..3;
    /// impls p1..p5 → 0..4 with
    /// p1=(g1,{a1,a2}) p2=(g1,{a1,a3}) p3=(g2,{a1,a4,a5})
    /// p4=(g3,{a4,a6}) p5=(g5,{a1,a2,a6}).
    pub fn example_model() -> GoalModel {
        let mut b = LibraryBuilder::new();
        b.add_impl("g1", ["a1", "a2"]).unwrap();
        b.add_impl("g1", ["a1", "a3"]).unwrap();
        b.add_impl("g2", ["a1", "a4", "a5"]).unwrap();
        b.add_impl("g3", ["a4", "a6"]).unwrap();
        b.add_impl("g5", ["a1", "a2", "a6"]).unwrap();
        GoalModel::build(&b.build().unwrap()).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;

    #[test]
    fn default_strategies_order_and_names() {
        let names: Vec<_> = default_strategies().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["BestMatch", "Focus_cmp", "Focus_cl", "Breadth"]);
    }

    #[test]
    fn all_strategies_empty_on_empty_activity() {
        let m = testutil::example_model();
        let h = Activity::new();
        for s in default_strategies() {
            assert!(s.rank(&m, &h, 10).is_empty(), "{} not empty", s.name());
        }
    }

    #[test]
    fn all_strategies_never_recommend_performed_actions() {
        let m = testutil::example_model();
        let h = Activity::from_raw([0, 1]); // a1, a2
        for s in default_strategies() {
            for rec in s.rank(&m, &h, 10) {
                assert!(
                    !h.contains(rec.action),
                    "{} recommended performed action {}",
                    s.name(),
                    rec.action
                );
            }
        }
    }

    #[test]
    fn all_strategies_respect_k() {
        let m = testutil::example_model();
        let h = Activity::from_raw([0]);
        for s in default_strategies() {
            assert!(s.rank(&m, &h, 2).len() <= 2);
            assert!(s.rank(&m, &h, 0).is_empty());
        }
    }

    #[test]
    fn all_strategies_rank_into_matches_rank_with_dirty_scratch() {
        let m = testutil::example_model();
        let mut scratch = crate::scratch::Scratch::new();
        // Reuse one arena across every strategy and activity: results must
        // be independent of whatever the previous call left behind.
        for s in default_strategies() {
            for h in [
                Activity::from_raw([0]),
                Activity::from_raw([0, 5]),
                Activity::from_raw([1, 2, 5]),
                Activity::new(),
            ] {
                let (expect, expect_n) = s.rank_observed(&m, &h, 3);
                let n = s.rank_into(&m, &h, 3, &mut scratch);
                assert_eq!(scratch.out(), &expect[..], "{} H={:?}", s.name(), h);
                assert_eq!(n, expect_n, "{} H={:?}", s.name(), h);
            }
        }
    }

    #[test]
    fn all_strategies_are_deterministic() {
        let m = testutil::example_model();
        let h = Activity::from_raw([0, 5]);
        for s in default_strategies() {
            let a = s.rank(&m, &h, 5);
            let b = s.rank(&m, &h, 5);
            assert_eq!(a, b, "{} nondeterministic", s.name());
        }
    }
}
