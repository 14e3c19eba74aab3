//! The recommender facade and the cross-method recommender abstraction.
//!
//! [`Recommender`] is the crate-agnostic interface the evaluation layer
//! uses: goal-based strategies, collaborative filtering, content-based
//! filtering and association-rule baselines all implement it, so the
//! experiments of §6 can iterate over a homogeneous list of methods.
//!
//! [`GoalRecommender`] binds a [`GoalModel`] to the [`Strategy`]
//! implementations of this crate and offers convenience entry points that
//! resolve names through the library's dictionaries.

use crate::activity::Activity;
use crate::error::Result;
use crate::ids::ActionId;
use crate::library::GoalLibrary;
use crate::live::LiveRef;
use crate::model::GoalModel;
use crate::scratch::{with_thread_scratch, Scratch};
use crate::strategies::{BestMatch, Breadth, Focus, FocusVariant, Strategy};
use crate::topk::Scored;
use goalrec_obs::{self as obs, names};
use std::sync::Arc;

/// Anything that can produce a ranked top-k action list for an activity.
///
/// The contract mirrors [`Strategy`] but is self-contained (no model
/// argument): implementors capture their data at construction. All methods
/// must be deterministic and thread-safe — the batch driver fans requests
/// out across threads.
pub trait Recommender: Send + Sync {
    /// Stable display name used in experiment tables.
    fn name(&self) -> String;

    /// Ranks candidate actions for `activity`, best first, at most `k`.
    fn recommend(&self, activity: &Activity, k: usize) -> Vec<Scored>;

    /// Convenience: just the action ids, best first.
    fn recommend_actions(&self, activity: &Activity, k: usize) -> Vec<ActionId> {
        self.recommend(activity, k)
            .into_iter()
            .map(|s| s.action)
            .collect()
    }
}

/// One strategy behind the observation wrapper every goal-based ranking
/// goes through, offline or served.
///
/// Every ranking is observed under the strategy's metric namespace:
/// `strategy.<name>.requests` (counter), `strategy.<name>.latency`
/// (nanosecond histogram) and `strategy.<name>.candidates` (pre-truncation
/// candidate-set size). The handles are resolved once at construction so
/// the per-request cost is two clock reads and a few atomic adds.
#[derive(Clone)]
pub struct ObservedStrategy {
    strategy: Arc<dyn Strategy>,
    requests: Arc<obs::Counter>,
    latency: Arc<obs::Histogram>,
    candidates: Arc<obs::Histogram>,
}

impl ObservedStrategy {
    /// Wraps `strategy`, resolving its metric handles.
    pub fn new(strategy: Box<dyn Strategy>) -> Self {
        let name = strategy.name();
        Self {
            strategy: strategy.into(),
            requests: obs::counter(&names::strategy_requests(name)),
            latency: obs::histogram_ns(&names::strategy_latency(name)),
            candidates: obs::histogram(&names::strategy_candidates(name)),
        }
    }

    /// The wrapped strategy's display name.
    pub(crate) fn name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Ranks `activity` over a compiled model or a live base ⊕ delta view
    /// into `scratch` ([`Strategy::rank_into`]) and returns a borrow of the
    /// result. With an empty delta this ranks exactly like the model path
    /// and stays allocation-free (proven by `tests/alloc_counting.rs`).
    ///
    /// Counts the request, records the ranking's latency and candidate
    /// count, and (when `trace` is enabled) records `span.rank` with its
    /// `span.rank.candidates` and `span.rank.topk` children. One clock
    /// read starts the window and one ends it; all three spans are cut
    /// from those two reads, so the children tile the parent exactly.
    pub fn rank_into_traced<'s>(
        &self,
        live: LiveRef<'_>,
        activity: &Activity,
        k: usize,
        scratch: &'s mut Scratch,
        trace: &mut obs::TraceContext,
    ) -> &'s [Scored] {
        self.requests.inc();
        let traced = trace.is_enabled();
        if traced {
            trace.set_strategy(self.strategy.name());
        }
        scratch.phase.begin(traced);
        let start_ns = trace.elapsed_ns();
        let num_candidates = self.strategy.rank_into(live, activity, k, scratch);
        let rank_ns = trace.elapsed_ns().saturating_sub(start_ns);
        self.latency.record(rank_ns);
        if traced {
            // Child spans: the server nests the ranking inside its own
            // top-level `span.handle`, which alone accounts for this window.
            trace.add_span(names::SPAN_RANK, start_ns, rank_ns, true);
            let cand_ns = scratch.phase.candidates_ns().min(rank_ns);
            if cand_ns > 0 {
                trace.add_span(names::SPAN_RANK_CANDIDATES, start_ns, cand_ns, true);
                trace.add_span(
                    names::SPAN_RANK_TOPK,
                    start_ns + cand_ns,
                    rank_ns - cand_ns,
                    true,
                );
            }
        }
        self.candidates.record(num_candidates as u64);
        scratch.out()
    }
}

/// A goal-based recommender: a compiled model plus one
/// [`ObservedStrategy`], so every request is observed under the
/// strategy's `strategy.<name>.*` metrics.
#[derive(Clone)]
pub struct GoalRecommender {
    model: Arc<GoalModel>,
    strategy: ObservedStrategy,
}

impl GoalRecommender {
    /// Builds the model from a library and pairs it with a strategy.
    pub fn from_library(library: &GoalLibrary, strategy: Box<dyn Strategy>) -> Result<Self> {
        Ok(Self::new(Arc::new(GoalModel::build(library)?), strategy))
    }

    /// Wraps an existing (shared) model.
    pub fn new(model: Arc<GoalModel>, strategy: Box<dyn Strategy>) -> Self {
        Self {
            model,
            strategy: ObservedStrategy::new(strategy),
        }
    }

    /// Like [`Recommender::recommend`], but ranks into a caller-owned
    /// [`Scratch`] and returns a borrow of its result buffer — the
    /// allocation-free entry point for callers that rank many requests.
    /// Records the same per-strategy metrics as `recommend`.
    pub fn recommend_into<'s>(
        &self,
        activity: &Activity,
        k: usize,
        scratch: &'s mut Scratch,
    ) -> &'s [Scored] {
        self.strategy.rank_into_traced(
            LiveRef::solid(&self.model),
            activity,
            k,
            scratch,
            &mut obs::TraceContext::disabled(),
        )
    }

    /// [`GoalRecommender::recommend_into`] over a live base ⊕ delta
    /// overlay instead of the bound model, additionally recording the
    /// ranking into `trace` (see [`ObservedStrategy::rank_into_traced`]).
    pub fn recommend_live_into_traced<'s>(
        &self,
        live: LiveRef<'_>,
        activity: &Activity,
        k: usize,
        scratch: &'s mut Scratch,
        trace: &mut obs::TraceContext,
    ) -> &'s [Scored] {
        self.strategy
            .rank_into_traced(live, activity, k, scratch, trace)
    }

    /// One recommender per paper mechanism, sharing a single model:
    /// Best Match, Focus_cmp, Focus_cl, Breadth.
    pub fn all_strategies(model: Arc<GoalModel>) -> Vec<GoalRecommender> {
        vec![
            GoalRecommender::new(Arc::clone(&model), Box::new(BestMatch::default())),
            GoalRecommender::new(
                Arc::clone(&model),
                Box::new(Focus::new(FocusVariant::Completeness)),
            ),
            GoalRecommender::new(
                Arc::clone(&model),
                Box::new(Focus::new(FocusVariant::Closeness)),
            ),
            GoalRecommender::new(model, Box::new(Breadth)),
        ]
    }
}

impl Recommender for GoalRecommender {
    fn name(&self) -> String {
        self.strategy.name().to_owned()
    }

    fn recommend(&self, activity: &Activity, k: usize) -> Vec<Scored> {
        // Route through the thread-local arena so the ranking itself is
        // allocation-free; the only allocation left is the returned Vec.
        with_thread_scratch(|scratch| self.recommend_into(activity, k, scratch).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryBuilder;

    fn library() -> GoalLibrary {
        let mut b = LibraryBuilder::new();
        b.add_impl("g1", ["a1", "a2"]).unwrap();
        b.add_impl("g1", ["a1", "a3"]).unwrap();
        b.add_impl("g2", ["a1", "a4", "a5"]).unwrap();
        b.add_impl("g3", ["a4", "a6"]).unwrap();
        b.add_impl("g5", ["a1", "a2", "a6"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn facade_matches_direct_strategy_call() {
        let lib = library();
        let model = Arc::new(GoalModel::build(&lib).unwrap());
        let rec = GoalRecommender::new(Arc::clone(&model), Box::new(Breadth));
        let h = Activity::from_raw([0]);
        assert_eq!(rec.recommend(&h, 5), Breadth.rank(&model, &h, 5));
        assert_eq!(rec.name(), "Breadth");
    }

    #[test]
    fn from_library_builds_model() {
        let rec =
            GoalRecommender::from_library(&library(), Box::new(BestMatch::default())).unwrap();
        assert_eq!(rec.model.num_impls(), 5);
        assert!(!rec.recommend(&Activity::from_raw([0]), 3).is_empty());
    }

    #[test]
    fn all_strategies_share_one_model() {
        let model = Arc::new(GoalModel::build(&library()).unwrap());
        let recs = GoalRecommender::all_strategies(model);
        let names: Vec<String> = recs.iter().map(|r| r.name()).collect();
        assert_eq!(names, vec!["BestMatch", "Focus_cmp", "Focus_cl", "Breadth"]);
    }

    #[test]
    fn recommend_actions_strips_scores() {
        let rec = GoalRecommender::from_library(&library(), Box::new(Breadth)).unwrap();
        let h = Activity::from_raw([0]);
        let with_scores = rec.recommend(&h, 3);
        let ids = rec.recommend_actions(&h, 3);
        assert_eq!(
            ids,
            with_scores.iter().map(|s| s.action).collect::<Vec<_>>()
        );
    }

    #[test]
    fn recommend_into_matches_recommend_with_reused_scratch() {
        let lib = library();
        let model = Arc::new(GoalModel::build(&lib).unwrap());
        let mut scratch = Scratch::new();
        for rec in GoalRecommender::all_strategies(model) {
            for h in [Activity::from_raw([0]), Activity::from_raw([0, 5])] {
                let expect = rec.recommend(&h, 4);
                let got = rec.recommend_into(&h, 4, &mut scratch);
                assert_eq!(got, &expect[..], "{} H={:?}", rec.name(), h);
            }
        }
    }

    #[test]
    fn traced_recommend_records_rank_and_phase_spans() {
        let lib = library();
        let model = Arc::new(GoalModel::build(&lib).unwrap());
        let mut scratch = Scratch::new();
        let h = Activity::from_raw([0, 5]);
        for rec in GoalRecommender::all_strategies(Arc::clone(&model)) {
            let mut trace = obs::TraceContext::new(true);
            trace.begin(obs::TraceId(1), std::time::Instant::now());
            let expect = rec.recommend(&h, 4);
            let got = rec.recommend_live_into_traced(
                LiveRef::solid(&model),
                &h,
                4,
                &mut scratch,
                &mut trace,
            );
            assert_eq!(got, &expect[..], "{}", rec.name());
            trace.finish(200);
            let snap = trace.snapshot();
            assert_eq!(snap.strategy, rec.name());
            assert!(snap.has_span(names::SPAN_RANK), "{}", rec.name());
            assert!(snap.has_span(names::SPAN_RANK_CANDIDATES), "{}", rec.name());
            assert!(snap.has_span(names::SPAN_RANK_TOPK), "{}", rec.name());
            // The child phases subdivide the rank span.
            let rank = snap
                .spans()
                .iter()
                .find(|s| s.name == names::SPAN_RANK)
                .unwrap();
            let child_sum: u64 = snap
                .spans()
                .iter()
                .filter(|s| {
                    s.name == names::SPAN_RANK_CANDIDATES || s.name == names::SPAN_RANK_TOPK
                })
                .map(|s| s.dur_ns)
                .sum();
            assert!(
                child_sum <= rank.dur_ns,
                "{}: children {child_sum} ns exceed rank {} ns",
                rec.name(),
                rank.dur_ns
            );
        }
    }

    #[test]
    fn untraced_recommend_records_no_spans() {
        let rec = GoalRecommender::from_library(&library(), Box::new(Breadth)).unwrap();
        let mut scratch = Scratch::new();
        let mut trace = obs::TraceContext::disabled();
        let _ = rec.recommend_live_into_traced(
            LiveRef::solid(&rec.model),
            &Activity::from_raw([0]),
            3,
            &mut scratch,
            &mut trace,
        );
        assert!(trace.spans().is_empty());
    }

    #[test]
    fn recommender_is_object_safe() {
        let rec: Box<dyn Recommender> =
            Box::new(GoalRecommender::from_library(&library(), Box::new(Breadth)).unwrap());
        assert_eq!(rec.name(), "Breadth");
    }
}
