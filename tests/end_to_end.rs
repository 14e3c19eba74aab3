//! End-to-end pipeline tests: dataset generation → hide split → model →
//! recommendation → metric aggregation, exactly the path the §6
//! experiments take, asserting the qualitative invariants that must hold
//! at any scale.

use goalrec::core::{GoalModel, GoalRecommender, Recommender};
use goalrec::datasets::{hide_split_all, FortyThings, FortyThingsConfig};
use goalrec::eval::metrics::{completeness::usefulness, ranking, tpr::avg_tpr};
use std::sync::Arc;

#[test]
fn goal_based_recovery_beats_random_guessing() {
    let ft = FortyThings::generate(&FortyThingsConfig::test_scale());
    let splits = hide_split_all(&ft.full_activities, 0.3, 1);
    let inputs: Vec<_> = splits.iter().map(|s| s.visible.clone()).collect();
    let truths: Vec<_> = splits.iter().map(|s| s.hidden.clone()).collect();

    let model = Arc::new(GoalModel::build(&ft.library).unwrap());
    let rec = GoalRecommender::new(
        Arc::clone(&model),
        Box::new(goalrec::core::Focus::new(
            goalrec::core::FocusVariant::Completeness,
        )),
    );
    let lists = goalrec::core::batch::recommend_batch_actions(&rec, &inputs, 10);
    let tpr = avg_tpr(&lists, &truths);

    // Random top-10 over the action universe would land around
    // |hidden| / |actions| ≈ 18/180 = 10 %; the goal-based method reads
    // the implementation structure and must do far better.
    assert!(tpr > 0.25, "Focus_cmp TPR only {tpr}");
}

#[test]
fn recommendations_strictly_increase_goal_completeness() {
    let ft = FortyThings::generate(&FortyThingsConfig::test_scale());
    let splits = hide_split_all(&ft.full_activities, 0.3, 2);
    let inputs: Vec<_> = splits.iter().map(|s| s.visible.clone()).collect();
    let goals: Vec<Vec<u32>> = ft
        .user_goals
        .iter()
        .map(|gs| {
            let mut ids: Vec<u32> = gs.iter().map(|g| g.raw()).collect();
            ids.sort_unstable();
            ids
        })
        .collect();

    let model = Arc::new(GoalModel::build(&ft.library).unwrap());
    let rec = GoalRecommender::new(Arc::clone(&model), Box::new(goalrec::core::Breadth));
    let lists = goalrec::core::batch::recommend_batch_actions(&rec, &inputs, 10);

    let before = usefulness(&model, &inputs, &vec![Vec::new(); inputs.len()], &goals);
    let after = usefulness(&model, &inputs, &lists, &goals);
    assert!(
        after.avg_avg > before.avg_avg + 0.05,
        "completeness {} → {}",
        before.avg_avg,
        after.avg_avg
    );
}

#[test]
fn ranking_metrics_agree_with_tpr_ordering() {
    // NDCG/precision and the paper's TPR framing must order two methods
    // the same way when the gap is wide (goal-based vs popularity).
    let ft = FortyThings::generate(&FortyThingsConfig::test_scale());
    let splits = hide_split_all(&ft.full_activities, 0.3, 3);
    let inputs: Vec<_> = splits.iter().map(|s| s.visible.clone()).collect();
    let truths: Vec<_> = splits.iter().map(|s| s.hidden.clone()).collect();

    let model = Arc::new(GoalModel::build(&ft.library).unwrap());
    let goal = GoalRecommender::new(Arc::clone(&model), Box::new(goalrec::core::Breadth));
    let goal_lists = goalrec::core::batch::recommend_batch_actions(&goal, &inputs, 10);

    let training = goalrec::baselines::TrainingSet::new(inputs.clone(), ft.library.num_actions());
    let pop = goalrec::baselines::Popularity::from_training(&training);
    let pop_lists = goalrec::core::batch::recommend_batch_actions(&pop, &inputs, 10);

    let goal_tpr = avg_tpr(&goal_lists, &truths);
    let pop_tpr = avg_tpr(&pop_lists, &truths);
    assert!(goal_tpr > pop_tpr, "goal {goal_tpr} vs pop {pop_tpr}");

    let ndcg = |lists: &[Vec<goalrec::core::ActionId>]| {
        ranking::mean_over_queries(lists, &truths, |l, t| ranking::ndcg_at_k(l, t, 10))
    };
    assert!(ndcg(&goal_lists) > ndcg(&pop_lists));

    let prec = |lists: &[Vec<goalrec::core::ActionId>]| {
        ranking::mean_over_queries(lists, &truths, |l, t| ranking::precision_at_k(l, t, 10))
    };
    assert!(prec(&goal_lists) > prec(&pop_lists));
}

#[test]
fn model_rebuild_roundtrip_through_disk() {
    // Generate → persist → reload → identical recommendations.
    let ft = FortyThings::generate(&FortyThingsConfig::test_scale());
    let dir = std::env::temp_dir().join("goalrec-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ft-library.jsonl");
    goalrec::datasets::io::write_library_jsonl(&ft.library, &path).unwrap();
    let reloaded = goalrec::datasets::io::read_library_auto(&path).unwrap();

    let rec_a =
        GoalRecommender::from_library(&ft.library, Box::new(goalrec::core::Breadth)).unwrap();
    let rec_b = GoalRecommender::from_library(&reloaded, Box::new(goalrec::core::Breadth)).unwrap();
    for h in ft.full_activities.iter().take(20) {
        assert_eq!(rec_a.recommend(h, 10), rec_b.recommend(h, 10));
    }
}
