//! End-to-end checks that the metrics layer observes model builds,
//! per-strategy serving, and the batch driver.
//!
//! The registry is process-global and tests share one process, so
//! assertions are monotone (`>=`, presence) rather than exact, except in
//! the tests that hold [`STRATEGY_COUNTERS`].

use goalrec_core::activity::Activity;
use goalrec_core::batch::{recommend_batch, recommend_batch_actions};
use goalrec_core::library::LibraryBuilder;
use goalrec_core::model::GoalModel;
use goalrec_core::recommend::{GoalRecommender, Recommender};
use goalrec_obs as obs;
use std::sync::{Arc, Mutex, PoisonError};

/// Serialises the tests that rank the same strategies, so exact
/// `strategy.<name>.requests` deltas cannot be raced by a sibling test.
static STRATEGY_COUNTERS: Mutex<()> = Mutex::new(());

fn model() -> GoalModel {
    let mut b = LibraryBuilder::new();
    b.add_impl("g1", ["a1", "a2"]).unwrap();
    b.add_impl("g1", ["a1", "a3"]).unwrap();
    b.add_impl("g2", ["a1", "a4", "a5"]).unwrap();
    b.add_impl("g3", ["a4", "a6"]).unwrap();
    b.add_impl("g5", ["a1", "a2", "a6"]).unwrap();
    GoalModel::build(&b.build().unwrap()).unwrap()
}

#[test]
fn build_records_all_five_index_spans() {
    let _m = model();
    let report = obs::snapshot();
    for span in [
        "model.build.a_idx",
        "model.build.g_idx",
        "model.build.gi_a_idx",
        "model.build.gi_g_idx",
        "model.build.a_gi_idx",
        "model.build.total",
    ] {
        let h = report
            .histogram(span)
            .unwrap_or_else(|| panic!("span {span} missing"));
        assert!(h.count >= 1, "span {span} never recorded");
        assert!(h.max > 0, "span {span} recorded a zero time");
    }
    assert!(report.counter("model.builds").unwrap_or(0) >= 1);
    assert_eq!(report.gauge("model.impls"), Some(5.0));
}

#[test]
fn strategies_record_requests_latency_and_candidates() {
    let _serial = STRATEGY_COUNTERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let model = Arc::new(model());
    let h = Activity::from_raw([0]);
    for rec in GoalRecommender::all_strategies(Arc::clone(&model)) {
        let name = rec.name();
        let before = obs::snapshot()
            .counter(&format!("strategy.{name}.requests"))
            .unwrap_or(0);
        let ranked = rec.recommend(&h, 3);
        let report = obs::snapshot();
        assert_eq!(
            report.counter(&format!("strategy.{name}.requests")),
            Some(before + 1)
        );
        let latency = report
            .histogram(&format!("strategy.{name}.latency"))
            .expect("latency histogram");
        assert!(latency.count >= 1);
        assert!(latency.max > 0);
        let candidates = report
            .histogram(&format!("strategy.{name}.candidates"))
            .expect("candidates histogram");
        assert!(candidates.count >= 1);
        // All strategies see candidates on this connected example.
        assert!(candidates.max >= ranked.len() as u64);
        assert!(!ranked.is_empty());
    }
}

#[test]
fn batch_records_wall_clock_and_per_request_latency() {
    let _serial = STRATEGY_COUNTERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let model = Arc::new(model());
    let rec = &GoalRecommender::all_strategies(model)[3]; // Breadth
    let activities: Vec<Activity> = (0..32).map(|i| Activity::from_raw([i % 6])).collect();
    let requests_before = obs::snapshot().counter("batch.requests").unwrap_or(0);
    let scored = recommend_batch(rec, &activities, 5);
    let ids = recommend_batch_actions(rec, &activities, 5);
    assert_eq!(scored.len(), 32);
    assert_eq!(ids.len(), 32);

    let report = obs::snapshot();
    assert_eq!(report.counter("batch.requests"), Some(requests_before + 64));
    let wall = report
        .histogram("batch.Breadth.wall")
        .expect("wall histogram");
    assert!(wall.count >= 2, "one wall span per batch call");
    let latency = report
        .histogram("batch.latency")
        .expect("per-request latency");
    assert!(latency.count >= 64);
    assert!(report.gauge("batch.throughput_rps").unwrap_or(0.0) > 0.0);
}
