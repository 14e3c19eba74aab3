//! Data-parallel batch recommendation.
//!
//! The paper's evaluation issues one recommendation request per input
//! activity — 20.5k carts for FoodMart and 8k user activities for 43Things,
//! for each of seven methods. [`recommend_batch`] fans those requests out
//! with rayon; the per-request algorithms stay single-threaded, matching
//! the per-request timings of Fig. 7.
//!
//! Each rayon worker thread reuses its own [`crate::Scratch`] arena via
//! the thread-local in `crate::scratch::with_thread_scratch` — the goal
//! recommenders route `recommend` through it — so a batch run performs no
//! per-request scoreboard/buffer allocations after each worker's first
//! request.

use crate::activity::Activity;
use crate::recommend::Recommender;
use crate::topk::Scored;
use goalrec_obs::{self as obs, names};
use rayon::prelude::*;
use std::sync::Arc;

/// Observes one batch run: request count, per-request latency recorded
/// from inside the rayon workers, the method's batch wall clock
/// (`batch.<method>.wall` — the per-method wall time the evaluation
/// drivers report), and the resulting throughput gauge.
fn observed_batch<T, F: Fn(&Activity) -> T + Sync>(
    method: &str,
    activities: &[Activity],
    per_request: F,
) -> Vec<T>
where
    T: Send,
{
    obs::counter(names::BATCH_REQUESTS).inc_by(activities.len() as u64);
    let latency = obs::histogram_ns(names::BATCH_LATENCY);
    let wall =
        obs::Timer::into_histogram(obs::global().histogram_ns(&names::batch_method_wall(method)));
    let out: Vec<T> = activities
        .par_iter()
        .map(|h| {
            let span = obs::Timer::into_histogram(Arc::clone(&latency));
            let result = per_request(h);
            drop(span);
            result
        })
        .collect();
    let elapsed = wall.stop().as_secs_f64();
    if elapsed > 0.0 {
        obs::gauge(names::BATCH_THROUGHPUT_RPS).set(activities.len() as f64 / elapsed);
    }
    out
}

/// Runs `recommender` over every activity, preserving input order.
pub fn recommend_batch<R: Recommender + ?Sized>(
    recommender: &R,
    activities: &[Activity],
    k: usize,
) -> Vec<Vec<Scored>> {
    observed_batch(&recommender.name(), activities, |h| {
        recommender.recommend(h, k)
    })
}

/// Like [`recommend_batch`] but keeps only the action ids — the shape most
/// experiments consume.
pub fn recommend_batch_actions<R: Recommender + ?Sized>(
    recommender: &R,
    activities: &[Activity],
    k: usize,
) -> Vec<Vec<crate::ids::ActionId>> {
    observed_batch(&recommender.name(), activities, |h| {
        recommender.recommend_actions(h, k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryBuilder;
    use crate::recommend::GoalRecommender;
    use crate::strategies::Breadth;

    fn recommender() -> GoalRecommender {
        let mut b = LibraryBuilder::new();
        b.add_impl("g1", ["a1", "a2"]).unwrap();
        b.add_impl("g2", ["a2", "a3"]).unwrap();
        b.add_impl("g3", ["a1", "a3", "a4"]).unwrap();
        GoalRecommender::from_library(&b.build().unwrap(), Box::new(Breadth)).unwrap()
    }

    #[test]
    fn batch_matches_sequential_and_preserves_order() {
        let rec = recommender();
        let activities: Vec<Activity> = (0..40).map(|i| Activity::from_raw([i % 4])).collect();
        let batched = recommend_batch(&rec, &activities, 3);
        assert_eq!(batched.len(), activities.len());
        for (h, got) in activities.iter().zip(&batched) {
            assert_eq!(got, &rec.recommend(h, 3));
        }
    }

    #[test]
    fn batch_actions_strips_scores() {
        let rec = recommender();
        let activities = vec![Activity::from_raw([0]), Activity::from_raw([1])];
        let ids = recommend_batch_actions(&rec, &activities, 2);
        let full = recommend_batch(&rec, &activities, 2);
        for (a, b) in ids.iter().zip(&full) {
            assert_eq!(a, &b.iter().map(|s| s.action).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_batch() {
        let rec = recommender();
        assert!(recommend_batch(&rec, &[], 3).is_empty());
    }
}
