//! The Best Match strategy (§5.3, Algorithms 3–4).
//!
//! Best Match evaluates every candidate against the *whole* goal space, not
//! just the goals the candidate contributes to. It builds the goal-based
//! user profile `H⃗` (one count per goal in `GS(H)` — Algorithm 3),
//! represents each candidate action in the same feature space (Eq. 8), and
//! ranks candidates by their vector distance to the profile (Eq. 10):
//! actions whose per-goal contribution pattern mirrors the user's effort
//! pattern rank first.
//!
//! The vectors are never built. The crate-private `profile` module's
//! goal-major pass reads `IS(H)` and every `|A_p ∩ H|` off the overlap
//! board that Focus and Breadth fill too, sums the profile from them,
//! then walks the postings of `GS(H)` once, goal by goal. Each posting
//! only adds to the action's linear sums (`Σ p·c` and `Σ c`); inside
//! goals with two or more implementations the walk also counts repeats,
//! from which `Σ c²` and `Σ |p − c| − p` follow exactly. Each metric is
//! then one formula over those integer sums per candidate. The `profile`
//! module docs give the identities and explain why the result is
//! bit-identical to the dense definition.

use crate::activity::Activity;
use crate::distance::DistanceMetric;
use crate::live::{AssocView, LiveRef};
use crate::scratch::Scratch;
use crate::strategies::Strategy;

/// The Best Match strategy with a configurable distance metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestMatch {
    metric: DistanceMetric,
}

impl BestMatch {
    /// Creates a Best Match strategy with the given metric.
    pub fn new(metric: DistanceMetric) -> Self {
        Self { metric }
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
        let Scratch {
            overlap,
            terms,
            topk,
            out,
            phase,
            ..
        } = scratch;
        // Algorithms 3–4 in one goal-major pass over the overlap board:
        // the profile, the candidate pool CA = AS(H) − H and every
        // candidate's sums.
        terms.fill(overlap, view, activity.raw());
        phase.mark(); // candidate sums complete; distance scoring next
        terms.rank_into(self.metric, activity.raw(), k, topk, out)
    }
}

impl Strategy for BestMatch {
    fn name(&self) -> &'static str {
        "BestMatch"
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
    use crate::ids::ActionId;
    use crate::strategies::testutil::example_model;

    #[test]
    fn default_metric_is_cosine() {
        assert_eq!(BestMatch::default().metric, DistanceMetric::Cosine);
    }

    #[test]
    fn paper_example_prefers_profile_aligned_action() {
        // §5.3's worked example, adapted to candidates: with H = {a2, a3}
        // the profile is (g1: 2, g5: 1). Candidate a1 contributes to g1
        // twice (p1, p2) and g5 once (p5) — direction identical to the
        // profile. Candidate a4 contributes to neither g1 nor g5 within the
        // goal space (its goals g2, g3 are outside GS(H)) — wait: a4's
        // goals are g2 (p3) and g3 (p4); GS({a2,a3}) = {g1, g5}, so a4 is
        // not even in the candidate pool here. Use a6 instead: a6
        // contributes to g5 via p5 (and g3 outside the space), a weaker
        // match than a1.
        let m = example_model();
        let h = Activity::from_raw([1, 2]); // a2, a3
        let recs = BestMatch::default().rank(&m, &h, 10);
        assert_eq!(recs[0].action, ActionId::new(0)); // a1 first
        assert!(recs[0].score > recs[1].score - 1e-12);
        // a1's vector (2,1) is parallel to the profile (2,1): distance 0.
        assert!(recs[0].score.abs() < 1e-9);
        // Candidates are exactly AS(H) − H = {a1, a6}.
        let ids: Vec<u32> = recs.iter().map(|r| r.action.raw()).collect();
        assert_eq!(ids, vec![0, 5]);
    }

    #[test]
    fn distance_is_negated_into_score() {
        let m = example_model();
        let h = Activity::from_raw([1, 2]);
        for rec in BestMatch::default().rank(&m, &h, 10) {
            assert!(rec.score <= 1e-12, "scores are negative distances");
        }
    }

    #[test]
    fn all_metrics_produce_full_candidate_ranking() {
        let m = example_model();
        let h = Activity::from_raw([0]); // a1: candidates = {a2..a6}
        for metric in DistanceMetric::ALL {
            let recs = BestMatch::new(metric).rank(&m, &h, 10);
            assert_eq!(recs.len(), 5, "metric {:?}", metric);
        }
    }

    #[test]
    fn empty_activity_and_zero_k() {
        let m = example_model();
        assert!(BestMatch::default()
            .rank(&m, &Activity::new(), 5)
            .is_empty());
        assert!(BestMatch::default()
            .rank(&m, &Activity::from_raw([0]), 0)
            .is_empty());
    }

    #[test]
    fn activity_with_no_known_actions_yields_empty() {
        let m = example_model();
        let h = Activity::from_raw([1000, 2000]);
        assert!(BestMatch::default().rank(&m, &h, 5).is_empty());
    }

    #[test]
    fn euclidean_prefers_count_matched_candidate() {
        // Euclidean, unlike cosine, is magnitude-sensitive: with profile
        // (2, 1), candidate vectors (2, 1) and (4, 2) differ.
        let m = example_model();
        let h = Activity::from_raw([1, 2]);
        let recs = BestMatch::new(DistanceMetric::Euclidean).rank(&m, &h, 10);
        assert_eq!(recs[0].action, ActionId::new(0)); // exact (2,1) match
        assert!(recs[0].score.abs() < 1e-9);
    }
}
