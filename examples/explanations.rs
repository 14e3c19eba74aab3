//! Explanations tour: why the goal model recommends an action — which of
//! the user's goals it advances, and by how much (DESIGN.md §2,
//! extension rows).
//!
//! Run with: `cargo run --example explanations`

use goalrec::core::{explain, Activity, GoalRecommender, LibraryBuilder, Recommender};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small life-goal library.
    let mut b = LibraryBuilder::new();
    b.add_impl("lose weight", ["join gym", "drink water", "cut sugar"])?;
    b.add_impl("lose weight", ["start jogging", "cook at home"])?;
    b.add_impl(
        "save money",
        ["cook at home", "track expenses", "cut subscriptions"],
    )?;
    b.add_impl(
        "learn spanish",
        ["enroll class", "watch films", "read novels"],
    )?;
    let lib = b.build()?;
    let model = Arc::new(goalrec::core::GoalModel::build(&lib)?);

    let me = Activity::from_actions([lib.action_id("cook at home").unwrap()]);
    println!("activity: cook at home\n");

    // Breadth reaches both goals the activity gives evidence for.
    let breadth = GoalRecommender::new(Arc::clone(&model), Box::new(goalrec::core::Breadth));
    let recs = breadth.recommend(&me, 4);
    let names: Vec<String> = recs
        .iter()
        .map(|s| format!("{} ({:.2})", lib.action_name(s.action), s.score))
        .collect();
    println!("Breadth: {}", names.join(", "));

    // Each recommendation is justified by the goals it moves closer to
    // completion.
    for rec in &recs {
        println!("\nwhy '{}'?", lib.action_name(rec.action));
        for j in explain(&model, &me, rec.action, 3).justifications {
            println!(
                "  {} {:.0}% → {:.0}%",
                lib.goal_name(j.goal),
                j.completeness_before * 100.0,
                j.completeness_after * 100.0
            );
        }
    }
    Ok(())
}
