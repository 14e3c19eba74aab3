//! Integration tests pinning the paper's own worked examples
//! (Example 3.2, Example 4.3, and the §5.3 Best Match example) through
//! the public API of the umbrella crate. The §5.3 profile itself
//! (`H = {a2, a3}` counts g1 → 2, g5 → 1) is pinned by a unit test next
//! to the crate-private code that sums it, `goalrec-core`'s `profile.rs`.

use goalrec::core::{
    strategies::BestMatch, Activity, GoalModel, GoalRecommender, LibraryBuilder, Recommender,
};

/// Figure 1 / Example 3.2: five outfits over six items, goals
/// g1 (meeting friends), g2 (going to the office), g3 (be warm),
/// g5 (hiking).
fn example_library() -> goalrec::core::GoalLibrary {
    let mut b = LibraryBuilder::new();
    b.add_impl("meeting friends", ["a1", "a2"]).unwrap();
    b.add_impl("meeting friends", ["a1", "a3"]).unwrap();
    b.add_impl("going to the office", ["a1", "a4", "a5"])
        .unwrap();
    b.add_impl("be warm", ["a4", "a6"]).unwrap();
    b.add_impl("hiking", ["a1", "a2", "a6"]).unwrap();
    b.build().unwrap()
}

#[test]
fn example_4_3_spaces_of_a1() {
    let lib = example_library();
    let model = GoalModel::build(&lib).unwrap();
    let a1 = lib.action_id("a1").unwrap();

    // IS(a1) = {p1, p2, p3, p5} — implementation ids 0, 1, 2, 4.
    assert_eq!(model.action_impls(a1), &[0, 1, 2, 4]);

    // GS(a1) = {g1, g2, g5}.
    let goals: Vec<String> = model
        .goal_space_of_action(a1)
        .into_iter()
        .map(|g| lib.goal_name(goalrec::core::GoalId::new(g)))
        .collect();
    assert_eq!(
        goals,
        vec!["meeting friends", "going to the office", "hiking"]
    );

    // AS(a1) = {a2, a3, a4, a5, a6}.
    let acts: Vec<String> = model
        .action_space_of_action(a1)
        .into_iter()
        .map(|a| lib.action_name(goalrec::core::ActionId::new(a)))
        .collect();
    assert_eq!(acts, vec!["a2", "a3", "a4", "a5", "a6"]);
}

#[test]
fn section_5_3_best_match_ranks_a1_closest() {
    // The paper argues a1 is closer to the H = {a2, a3} profile than other
    // candidates because its contribution pattern (2 × g1, 1 × g5 within
    // the space) mirrors the user's effort.
    let lib = example_library();
    let rec = GoalRecommender::from_library(&lib, Box::new(BestMatch::default())).unwrap();
    let h = Activity::from_actions([lib.action_id("a2").unwrap(), lib.action_id("a3").unwrap()]);
    let top = rec.recommend_actions(&h, 5);
    assert_eq!(lib.action_name(top[0]), "a1");
}

#[test]
fn intro_scenario_recommends_pickles_and_nutmeg() {
    // §1: the cart {potatoes, carrots} should surface pickles (olivier
    // salad) and nutmeg (mashed potatoes / pan-fried carrots) — items no
    // similarity-based method would justify.
    let mut b = LibraryBuilder::new();
    b.add_impl("olivier salad", ["potatoes", "carrots", "pickles"])
        .unwrap();
    b.add_impl("mashed potatoes", ["potatoes", "nutmeg"])
        .unwrap();
    b.add_impl("pan-fried carrots", ["carrots", "nutmeg"])
        .unwrap();
    let lib = b.build().unwrap();
    let cart = Activity::from_actions([
        lib.action_id("potatoes").unwrap(),
        lib.action_id("carrots").unwrap(),
    ]);

    let rec = GoalRecommender::from_library(&lib, Box::new(goalrec::core::Breadth)).unwrap();
    let names: Vec<String> = rec
        .recommend_actions(&cart, 2)
        .iter()
        .map(|&a| lib.action_name(a))
        .collect();
    assert!(names.contains(&"pickles".to_owned()), "got {names:?}");
    assert!(names.contains(&"nutmeg".to_owned()), "got {names:?}");
}
