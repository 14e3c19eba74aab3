//! Figure 7 companion bench: per-request latency of each goal-based
//! strategy under Criterion, on FoodMart-shaped (high-connectivity) and
//! 43Things-shaped (low-connectivity) libraries, plus the Breadth
//! accumulating-vs-naive ablation (DESIGN.md §7).
//!
//! The strategy groups query the §6 visible 30 % of each cart or user
//! activity (the hide-split the served benchmark replays), not the whole
//! activity, so their `|H|` is the one the server sees.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use goalrec_core::strategies::{default_strategies, Breadth};
use goalrec_core::{Activity, GoalModel};
use goalrec_datasets::{hide_split_all, FoodMart, FoodMartConfig, FortyThings, FortyThingsConfig};
use std::hint::black_box;

/// The §6 hide-split: the share of each activity the recommender sees.
const VISIBLE_FRACTION: f64 = 0.3;
/// The hide-split's shuffle seed.
const SPLIT_SEED: u64 = 1;

/// The first `n` non-empty visible parts of `activities`.
fn visible_queries(activities: &[Activity], n: usize) -> Vec<Activity> {
    hide_split_all(activities, VISIBLE_FRACTION, SPLIT_SEED)
        .into_iter()
        .map(|split| split.visible)
        .filter(|h| !h.is_empty())
        .take(n)
        .collect()
}

fn bench_strategies_foodmart(c: &mut Criterion) {
    // ~1/10 paper scale keeps Criterion runs in seconds while preserving
    // the high-connectivity regime.
    let fm = FoodMart::generate(&FoodMartConfig::paper_scale().with_scale(0.1));
    let model = GoalModel::build(&fm.library).expect("non-empty");
    let queries = visible_queries(&fm.carts, 20);

    let mut group = c.benchmark_group("strategies/foodmart");
    group.sample_size(20);
    for strategy in default_strategies() {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.name()),
            &strategy,
            |b, strategy| {
                b.iter(|| {
                    for q in &queries {
                        black_box(strategy.rank(&model, q, 10));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_strategies_fortythree(c: &mut Criterion) {
    let ft = FortyThings::generate(&FortyThingsConfig::paper_scale());
    let model = GoalModel::build(&ft.library).expect("non-empty");
    let queries = visible_queries(&ft.full_activities, 50);

    let mut group = c.benchmark_group("strategies/fortythree");
    for strategy in default_strategies() {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.name()),
            &strategy,
            |b, strategy| {
                b.iter(|| {
                    for q in &queries {
                        black_box(strategy.rank(&model, q, 10));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_breadth_ablation(c: &mut Criterion) {
    let fm = FoodMart::generate(&FoodMartConfig::test_scale());
    let model = GoalModel::build(&fm.library).expect("non-empty");
    let queries: Vec<&Activity> = fm.carts.iter().take(20).collect();

    let mut group = c.benchmark_group("strategies/breadth_ablation");
    group.bench_function("dense_scoreboard_rank", |b| {
        use goalrec_core::Strategy as _;
        b.iter(|| {
            for q in &queries {
                black_box(Breadth.rank(&model, q, 10));
            }
        })
    });
    group.bench_function("accumulating_alg2", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(Breadth::scores(&model, q));
            }
        })
    });
    group.bench_function("naive_per_candidate", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(Breadth::scores_naive(&model, q));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_strategies_foodmart,
    bench_strategies_fortythree,
    bench_breadth_ablation
);
criterion_main!(benches);
