//! Figure 7: time efficiency and scalability of the goal-based strategies.
//!
//! The paper plots per-request recommendation time while growing the
//! implementation set into the millions, and observes that (a) all
//! strategies scale (near-linearly in `|H| × connectivity`), (b) Breadth is
//! the fastest multi-goal method and Best Match the slowest, (c) Focus_cl
//! is at most as expensive as Focus_cmp, and (d) connectivity — not the
//! raw number of implementations or actions — dominates the cost.
//!
//! Two sweeps reproduce that: a *size* sweep growing `|L|` at constant
//! connectivity shape, and a *connectivity* sweep growing connectivity at
//! constant `|L|`.

use crate::report::TextTable;
use goalrec_core::{ActionId, Activity, GoalId, GoalLibrary, GoalModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Figure7Config {
    /// Implementation counts for the size sweep.
    pub sizes: Vec<usize>,
    /// Action-universe sizes for the connectivity sweep (smaller universe →
    /// higher connectivity at fixed `|L|`).
    pub connectivity_actions: Vec<usize>,
    /// `|L|` held fixed during the connectivity sweep.
    pub connectivity_impls: usize,
    /// Action universe for the size sweep.
    pub num_actions: usize,
    /// Actions per implementation.
    pub impl_len: usize,
    /// Actions per query activity.
    pub activity_len: usize,
    /// Number of timed queries per point (averaged).
    pub queries: usize,
    /// Top-k per query.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Figure7Config {
    /// The default sweep used by the `repro` harness (seconds in release).
    pub fn medium_scale() -> Self {
        Self {
            sizes: vec![10_000, 50_000, 100_000, 250_000],
            connectivity_actions: vec![20_000, 5_000, 1_500, 500],
            connectivity_impls: 50_000,
            num_actions: 5_000,
            impl_len: 8,
            activity_len: 10,
            queries: 30,
            k: 10,
            seed: 0x716,
        }
    }

    /// Paper-scale sweep reaching millions of implementations.
    pub fn paper_scale() -> Self {
        Self {
            sizes: vec![100_000, 500_000, 1_000_000, 2_000_000],
            ..Self::medium_scale()
        }
    }

    /// Miniature sweep for tests.
    pub fn test_scale() -> Self {
        Self {
            sizes: vec![500, 1_500],
            connectivity_actions: vec![2_000, 300],
            connectivity_impls: 1_000,
            num_actions: 1_000,
            impl_len: 6,
            activity_len: 6,
            queries: 5,
            k: 10,
            seed: 0x716,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure7Point {
    /// Which sweep the point belongs to ("size" / "connectivity").
    pub sweep: String,
    /// Number of implementations in the library.
    pub num_impls: usize,
    /// Measured mean action connectivity.
    pub connectivity: f64,
    /// Strategy name.
    pub strategy: String,
    /// Mean per-request latency in microseconds.
    pub avg_micros: f64,
    /// Compiled model footprint in mebibytes.
    pub model_mib: f64,
}

/// Full Figure 7 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure7 {
    /// All measured points, grouped by sweep then library then strategy.
    pub points: Vec<Figure7Point>,
}

/// Runs both sweeps.
pub fn run(cfg: &Figure7Config) -> Figure7 {
    let mut points = Vec::new();
    for &n in &cfg.sizes {
        measure_library(cfg, "size", n, cfg.num_actions, &mut points);
    }
    for &actions in &cfg.connectivity_actions {
        measure_library(
            cfg,
            "connectivity",
            cfg.connectivity_impls,
            actions,
            &mut points,
        );
    }
    Figure7 { points }
}

fn measure_library(
    cfg: &Figure7Config,
    sweep: &str,
    num_impls: usize,
    num_actions: usize,
    out: &mut Vec<Figure7Point>,
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (num_impls as u64) ^ (num_actions as u64));
    let library = synthetic_library(num_impls, num_actions, cfg.impl_len, &mut rng);
    #[expect(
        clippy::expect_used,
        reason = "synthetic_library always yields at least one implementation, and the scaling driver has no error channel"
    )]
    let model = GoalModel::build(&library).expect("non-empty");
    let connectivity = library.stats().connectivity;
    let model_mib = model.memory_bytes() as f64 / (1024.0 * 1024.0);

    // Queries drawn from actions that exist in the library.
    let queries: Vec<Activity> = (0..cfg.queries)
        .map(|_| {
            Activity::from_raw(
                (0..cfg.activity_len)
                    .map(|_| rng.gen_range(0..num_actions) as u32)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    for strategy in goalrec_core::strategies::default_strategies() {
        // One warm-up pass, then timed passes.
        for q in queries.iter().take(2) {
            std::hint::black_box(strategy.rank(&model, q, cfg.k));
        }
        let start = Instant::now();
        for q in &queries {
            std::hint::black_box(strategy.rank(&model, q, cfg.k));
        }
        let avg_micros = start.elapsed().as_secs_f64() * 1e6 / cfg.queries.max(1) as f64;
        out.push(Figure7Point {
            sweep: sweep.to_owned(),
            num_impls,
            connectivity,
            strategy: strategy.name().to_owned(),
            avg_micros,
            model_mib,
        });
    }
}

/// Uniform synthetic library: connectivity ≈ `num_impls × impl_len /
/// num_actions`, exactly the knob both sweeps turn.
#[expect(
    clippy::expect_used,
    reason = "ids are generated modulo the bounds passed to the library constructor"
)]
fn synthetic_library(
    num_impls: usize,
    num_actions: usize,
    impl_len: usize,
    rng: &mut StdRng,
) -> GoalLibrary {
    let impls: Vec<(GoalId, Vec<ActionId>)> = (0..num_impls)
        .map(|i| {
            let mut acts: Vec<u32> = Vec::with_capacity(impl_len);
            while acts.len() < impl_len.min(num_actions) {
                let a = rng.gen_range(0..num_actions) as u32;
                if !acts.contains(&a) {
                    acts.push(a);
                }
            }
            (
                GoalId::new(i as u32),
                acts.into_iter().map(ActionId::new).collect(),
            )
        })
        .collect();
    GoalLibrary::from_id_implementations(num_actions as u32, num_impls as u32, impls)
        .expect("valid synthetic library")
}

impl fmt::Display for Figure7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 7: per-request latency of the goal-based strategies",
            &[
                "Sweep",
                "|L|",
                "Connectivity",
                "Model MiB",
                "Strategy",
                "Avg µs/request",
            ],
        );
        for p in &self.points {
            t.row(vec![
                p.sweep.clone(),
                p.num_impls.to_string(),
                format!("{:.1}", p.connectivity),
                format!("{:.1}", p.model_mib),
                p.strategy.clone(),
                format!("{:.1}", p.avg_micros),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_points() {
        let cfg = Figure7Config::test_scale();
        let fig = run(&cfg);
        // (2 sizes + 2 connectivity settings) × 4 strategies.
        assert_eq!(fig.points.len(), 16);
        for p in &fig.points {
            assert!(p.avg_micros >= 0.0);
            assert!(p.connectivity > 0.0);
            assert!(p.model_mib > 0.0);
        }
        assert!(fig.to_string().contains("Figure 7"));
    }

    #[test]
    fn connectivity_sweep_varies_connectivity() {
        let cfg = Figure7Config::test_scale();
        let fig = run(&cfg);
        let conns: Vec<f64> = fig
            .points
            .iter()
            .filter(|p| p.sweep == "connectivity" && p.strategy == "Breadth")
            .map(|p| p.connectivity)
            .collect();
        assert_eq!(conns.len(), 2);
        assert!(
            conns[1] > conns[0] * 2.0,
            "connectivity sweep flat: {conns:?}"
        );
    }

    #[test]
    fn synthetic_library_hits_target_connectivity() {
        let mut rng = StdRng::seed_from_u64(1);
        let lib = synthetic_library(2_000, 500, 6, &mut rng);
        let got = lib.stats().connectivity;
        let want = 2_000.0 * 6.0 / 500.0;
        assert!((got - want).abs() / want < 0.1, "got {got}, want {want}");
    }
}
