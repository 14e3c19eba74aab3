//! Extended (beyond-the-paper) evaluation: beyond-accuracy metrics and
//! standard ranking metrics for every method on both datasets.
//!
//! §2 positions goal-based recommendation against heuristic
//! novelty/diversity/serendipity work; this experiment quantifies those
//! qualities directly, alongside NDCG/precision/recall on the hidden-70 %
//! ground truth, giving downstream users the full modern scorecard the
//! original evaluation predates.

use crate::context::{method, EvalContext};
use crate::metrics::novelty::{catalogue_coverage, intra_list_diversity, novelty, serendipity};
use crate::metrics::ranking;
use crate::report::{f3, pct, TextTable};
use goalrec_core::ActionId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One method's extended scorecard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtendedRow {
    /// Method name.
    pub method: String,
    /// Mean self-information of recommended actions (bits).
    pub novelty: f64,
    /// Intra-list diversity (FoodMart only — needs features); None on 43T.
    pub diversity: Option<f64>,
    /// Fraction of the catalogue ever recommended.
    pub coverage: f64,
    /// Relevant-and-unexpected fraction vs the popularity primer.
    pub serendipity: f64,
    /// NDCG@10 against the ground truth.
    pub ndcg10: f64,
    /// Precision@10.
    pub precision10: f64,
    /// Recall@10.
    pub recall10: f64,
}

/// Extended scorecard for one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtendedDataset {
    /// Dataset label.
    pub dataset: String,
    /// One row per method.
    pub rows: Vec<ExtendedRow>,
}

/// Full extended-evaluation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Extended {
    /// Per-dataset scorecards.
    pub datasets: Vec<ExtendedDataset>,
}

fn dataset_rows(
    methods: &[crate::context::MethodLists],
    truths: &[Vec<ActionId>],
    activity_counts: &[u32],
    num_users: usize,
    num_actions: usize,
    features: Option<&goalrec_baselines::ItemFeatures>,
) -> Vec<ExtendedRow> {
    let primitive = methods
        .iter()
        .find(|m| m.name == method::POPULARITY)
        .map(|m| m.lists.clone())
        .unwrap_or_else(|| vec![Vec::new(); truths.len()]);
    methods
        .iter()
        .map(|m| ExtendedRow {
            method: m.name.clone(),
            novelty: novelty(&m.lists, activity_counts, num_users),
            diversity: features.map(|f| intra_list_diversity(f, &m.lists)),
            coverage: catalogue_coverage(&m.lists, num_actions),
            serendipity: serendipity(&m.lists, &primitive, truths),
            ndcg10: ranking::mean_over_queries(&m.lists, truths, |l, t| {
                ranking::ndcg_at_k(l, t, 10)
            }),
            precision10: ranking::mean_over_queries(&m.lists, truths, |l, t| {
                ranking::precision_at_k(l, t, 10)
            }),
            recall10: ranking::mean_over_queries(&m.lists, truths, |l, t| {
                ranking::recall_at_k(l, t, 10)
            }),
        })
        .collect()
}

/// Runs the extended evaluation on both datasets.
pub fn run(ctx: &EvalContext) -> Extended {
    let fm = &ctx.foodmart;
    let fm_rows = dataset_rows(
        &fm.methods,
        &fm.other_cart_actions,
        &fm.activity_counts,
        fm.data.carts.len(),
        fm.model.num_actions(),
        Some(&fm.features),
    );

    let ft = &ctx.fortythree;
    let ft_truths: Vec<Vec<ActionId>> = ft.splits.iter().map(|s| s.hidden.clone()).collect();
    let ft_rows = dataset_rows(
        &ft.methods,
        &ft_truths,
        &ft.activity_counts,
        ft.data.full_activities.len(),
        ft.model.num_actions(),
        None,
    );

    Extended {
        datasets: vec![
            ExtendedDataset {
                dataset: "FoodMart".into(),
                rows: fm_rows,
            },
            ExtendedDataset {
                dataset: "43Things".into(),
                rows: ft_rows,
            },
        ],
    }
}

impl fmt::Display for Extended {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ds in &self.datasets {
            let mut t = TextTable::new(
                format!(
                    "Extended evaluation ({}): beyond-accuracy + ranking",
                    ds.dataset
                ),
                &[
                    "Method",
                    "Novelty",
                    "ILD",
                    "Coverage",
                    "Serendip.",
                    "NDCG@10",
                    "P@10",
                    "R@10",
                ],
            );
            for row in &ds.rows {
                t.row(vec![
                    row.method.clone(),
                    f3(row.novelty),
                    row.diversity.map_or("-".into(), f3),
                    pct(row.coverage),
                    pct(row.serendipity),
                    f3(row.ndcg10),
                    f3(row.precision10),
                    f3(row.recall10),
                ]);
            }
            writeln!(f, "{}", t.render())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalConfig;

    #[test]
    fn scorecard_bounds_and_structure() {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let ext = run(&ctx);
        assert_eq!(ext.datasets.len(), 2);
        for ds in &ext.datasets {
            for r in &ds.rows {
                assert!(r.novelty >= 0.0, "{}: novelty {}", r.method, r.novelty);
                assert!((0.0..=1.0).contains(&r.coverage));
                assert!((0.0..=1.0).contains(&r.serendipity));
                assert!((0.0..=1.0).contains(&r.ndcg10));
                assert!((0.0..=1.0).contains(&r.precision10));
                assert!((0.0..=1.0).contains(&r.recall10));
                if let Some(d) = r.diversity {
                    assert!((-1e-9..=1.0 + 1e-9).contains(&d));
                }
            }
        }
        // Diversity reported on FoodMart only.
        assert!(ext.datasets[0].rows[0].diversity.is_some());
        assert!(ext.datasets[1].rows[0].diversity.is_none());
        assert!(ext.to_string().contains("Extended evaluation"));
    }

    #[test]
    fn popularity_has_zero_serendipity_and_low_novelty() {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let ext = run(&ctx);
        for ds in &ext.datasets {
            let pop = ds
                .rows
                .iter()
                .find(|r| r.method == method::POPULARITY)
                .unwrap();
            assert_eq!(pop.serendipity, 0.0, "{}", ds.dataset);
            let max_novelty = ds.rows.iter().map(|r| r.novelty).fold(0.0, f64::max);
            assert!(pop.novelty <= max_novelty);
        }
    }

    #[test]
    fn content_is_least_diverse_on_foodmart() {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let ext = run(&ctx);
        let fm = &ext.datasets[0];
        let content = fm
            .rows
            .iter()
            .find(|r| r.method == method::CONTENT)
            .unwrap()
            .diversity
            .unwrap();
        for m in ["BestMatch", "Focus_cmp", "Focus_cl", "Breadth"] {
            let d = fm
                .rows
                .iter()
                .find(|r| r.method == m)
                .unwrap()
                .diversity
                .unwrap();
            assert!(d > content, "{m}: {d} vs content {content}");
        }
    }
}
