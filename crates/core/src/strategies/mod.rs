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
//!
//! Each implements the one ranking method [`Strategy::rank_into`] over a
//! [`LiveRef`] view. It dispatches to a single generic `rank_view_into`
//! body, monomorphised for the compiled [`GoalModel`] when nothing is
//! staged and for the base ⊕ delta overlay otherwise.

mod best_match;
mod breadth;
mod focus;

pub use best_match::BestMatch;
pub use breadth::Breadth;
pub use focus::{Focus, FocusVariant};

use crate::activity::Activity;
use crate::live::LiveRef;
use crate::model::GoalModel;
use crate::scratch::{with_thread_scratch, Scratch};
use crate::topk::Scored;

/// A ranking strategy over the association-based goal model.
///
/// Implementations must be deterministic: the same `(view, activity, k)`
/// always yields the same list. Scores are oriented so that **higher is
/// better** regardless of the strategy's internal measure (distance-based
/// strategies negate).
pub trait Strategy: Send + Sync {
    /// Short stable name used in experiment reports (e.g. `"Focus_cmp"`).
    fn name(&self) -> &'static str;

    /// Ranks candidate actions (actions not in `activity`) over `view` into
    /// `scratch`'s buffers, leaving the top `k` best-first in
    /// [`Scratch::out`], and returns the number of candidates scored
    /// *before* top-k truncation — actions for Best Match and Breadth,
    /// implementations for Focus. The observability layer feeds that count
    /// into the per-strategy `strategy.<name>.candidates` histogram.
    ///
    /// `view` is a compiled model ([`LiveRef::solid`]) or a base ⊕ delta
    /// overlay ([`LiveRef::overlay`]); an overlay ranks bit-identically to
    /// a full rebuild of the merged library (pinned for the built-ins by
    /// `tests/live_overlay.rs`). A warm `scratch` reused across calls makes
    /// the built-ins' steady-state requests heap-allocation-free on either
    /// view with an empty delta (see `tests/alloc_counting.rs`).
    fn rank_into(
        &self,
        view: LiveRef<'_>,
        activity: &Activity,
        k: usize,
        scratch: &mut Scratch,
    ) -> usize;

    /// Ranks over a compiled model and returns the top `k`, best first,
    /// through the thread-local arena — the convenience form for tests,
    /// benches and offline experiments.
    fn rank(&self, model: &GoalModel, activity: &Activity, k: usize) -> Vec<Scored> {
        with_thread_scratch(|scratch| {
            self.rank_into(LiveRef::solid(model), activity, k, scratch);
            scratch.out().to_vec()
        })
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
    pub(crate) fn example_model() -> GoalModel {
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
                let expect = s.rank(&m, &h, 3);
                let fresh = &mut crate::scratch::Scratch::new();
                let expect_n = s.rank_into(LiveRef::solid(&m), &h, 3, fresh);
                let n = s.rank_into(LiveRef::solid(&m), &h, 3, &mut scratch);
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
