//! Integration tests for the explanation extension, exercised over a
//! generated dataset the way a downstream application would.

use goalrec::core::{explain, Activity, GoalRecommender, Recommender};
use goalrec::datasets::{FortyThings, FortyThingsConfig};
use std::sync::Arc;

#[test]
fn explanations_cover_every_goal_based_recommendation() {
    let ft = FortyThings::generate(&FortyThingsConfig::test_scale());
    let model = Arc::new(goalrec::core::GoalModel::build(&ft.library).unwrap());
    let rec = GoalRecommender::new(Arc::clone(&model), Box::new(goalrec::core::Breadth));
    for h in ft.full_activities.iter().take(20) {
        let visible = Activity::from_raw(h.raw().iter().copied().take(h.len().max(2) / 2));
        for a in rec.recommend_actions(&visible, 5) {
            let ex = explain(&model, &visible, a, 0);
            assert!(
                !ex.justifications.is_empty(),
                "Breadth recommendation {a} has no goal justification"
            );
            for j in &ex.justifications {
                assert!(j.completeness_after >= j.completeness_before);
                assert!(j.completeness_after <= 1.0 + 1e-12);
            }
        }
    }
}
