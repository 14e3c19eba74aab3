//! Seed stability: do the headline comparisons survive re-rolling the
//! synthetic worlds?
//!
//! The paper evaluates one fixed dataset pair; our reproduction generates
//! them. A claim that only holds for one RNG seed would be an artefact of
//! the generator, so this experiment re-runs the usefulness study
//! (Table 4's 43Things side — the paper's clearest ordering) across
//! several seeds and reports mean ± sample standard deviation per method,
//! plus how often the paper's winner (Focus_cmp) actually wins.

use crate::context::{method, EvalConfig, EvalContext};
use crate::experiments::table4;
use crate::report::{f3, TextTable};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Mean ± std of one method's 43Things usefulness over the seed sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StabilityRow {
    /// Method name.
    pub method: String,
    /// Mean AvgAvg goal completeness.
    pub mean: f64,
    /// Sample standard deviation across seeds.
    pub std: f64,
}

/// Full stability result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stability {
    /// Seeds evaluated.
    pub seeds: Vec<u64>,
    /// Per-method statistics, ordered as in the context.
    pub rows: Vec<StabilityRow>,
    /// In how many seeds Focus_cmp had the highest usefulness among all
    /// methods (the paper's 43Things ordering).
    pub focus_cmp_wins: usize,
}

/// Runs the sweep: `base` is re-built per seed with both generators and
/// the split protocol re-seeded.
pub fn run(base: &EvalConfig, seeds: &[u64]) -> Stability {
    assert!(!seeds.is_empty(), "need at least one seed");
    let mut per_method: Vec<(String, Vec<f64>)> = Vec::new();
    let mut focus_cmp_wins = 0usize;

    for &seed in seeds {
        let mut cfg = base.clone();
        cfg.fortythree.seed = seed;
        cfg.foodmart.seed = seed ^ 0xF00D;
        cfg.split_seed = seed.rotate_left(17);
        let ctx = EvalContext::build(cfg);
        let t4 = table4::run(&ctx);
        let ft = &t4.datasets[1];

        let mut best: Option<(&str, f64)> = None;
        for row in &ft.rows {
            let v = row.usefulness.avg_avg;
            match per_method.iter_mut().find(|(m, _)| *m == row.method) {
                Some((_, vals)) => vals.push(v),
                None => per_method.push((row.method.clone(), vec![v])),
            }
            if best.is_none_or(|(_, b)| v > b) {
                best = Some((&row.method, v));
            }
        }
        if best.map(|(m, _)| m) == Some(method::FOCUS_CMP) {
            focus_cmp_wins += 1;
        }
    }

    let n = seeds.len() as f64;
    let rows = per_method
        .into_iter()
        .map(|(method, vals)| {
            let mean = vals.iter().sum::<f64>() / n;
            let var = if vals.len() > 1 {
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
            } else {
                0.0
            };
            StabilityRow {
                method,
                mean,
                std: var.sqrt(),
            }
        })
        .collect();

    Stability {
        seeds: seeds.to_vec(),
        rows,
        focus_cmp_wins,
    }
}

impl fmt::Display for Stability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            format!(
                "Stability (43Things usefulness over {} seeds)",
                self.seeds.len()
            ),
            &["Method", "Mean AvgAvg", "Std"],
        );
        for row in &self.rows {
            t.row(vec![row.method.clone(), f3(row.mean), f3(row.std)]);
        }
        write!(f, "{}", t.render())?;
        writeln!(
            f,
            "Focus_cmp ranked first in {}/{} seeds",
            self.focus_cmp_wins,
            self.seeds.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_all_methods_with_small_variance() {
        let st = run(&EvalConfig::test_scale(), &[1, 2, 3]);
        assert_eq!(st.seeds.len(), 3);
        assert!(st.rows.iter().any(|r| r.method == method::FOCUS_CMP));
        for row in &st.rows {
            assert!(
                (0.0..=1.0).contains(&row.mean),
                "{}: {}",
                row.method,
                row.mean
            );
            assert!(row.std >= 0.0);
            // Re-rolled worlds must not swing usefulness wildly.
            assert!(row.std < 0.2, "{} unstable: std {}", row.method, row.std);
        }
        assert!(st.to_string().contains("Stability"));
    }

    #[test]
    fn goal_based_ordering_is_seed_robust() {
        let st = run(&EvalConfig::test_scale(), &[10, 20, 30]);
        let get = |name: &str| st.rows.iter().find(|r| r.method == name).unwrap().mean;
        // The paper's coarse ordering: goal-based above popularity on the
        // goal-structured dataset, in the mean across seeds.
        let best_goal = ["BestMatch", "Focus_cmp", "Focus_cl", "Breadth"]
            .iter()
            .map(|m| get(m))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best_goal > get(method::POPULARITY) + 0.05);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_rejected() {
        run(&EvalConfig::test_scale(), &[]);
    }
}
