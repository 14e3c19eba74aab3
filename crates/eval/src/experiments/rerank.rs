//! Diversity re-ranking experiment: fixing Content-based filtering's
//! homogeneity (Table 5's finding) with MMR.
//!
//! The paper reports Content's lists at ≈0.8 intra-list similarity —
//! items too alike to be useful together. This experiment re-ranks the
//! Content baseline's candidate pool with [`goalrec_core::mmr_rerank`] at
//! several λ values and reports how intra-list similarity falls and what
//! it costs in usefulness, quantifying the relevance↔diversity trade-off
//! on the same measurement the paper uses.

use crate::context::EvalContext;
use crate::metrics::completeness::usefulness;
use crate::metrics::pairwise::pairwise_similarity;
use crate::report::{f3, TextTable};
use goalrec_baselines::{ContentBased, ItemFeatures};
use goalrec_core::{mmr_rerank, ActionId, Recommender};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Candidate pool depth handed to MMR (3× the output length).
const POOL: usize = 30;

/// One λ setting's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RerankRow {
    /// MMR trade-off parameter (1.0 = no re-ranking).
    pub lambda: f64,
    /// Mean intra-list pairwise feature similarity (Table 5's AvgAvg).
    pub intra_list_similarity: f64,
    /// Usefulness (AvgAvg goal completeness) of the re-ranked lists.
    pub usefulness_avg: f64,
}

/// Full re-ranking experiment result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rerank {
    /// One row per λ, descending (1.0 first = the unmodified baseline).
    pub rows: Vec<RerankRow>,
}

/// Runs the experiment on the FoodMart Content baseline.
pub fn run(ctx: &EvalContext) -> Rerank {
    let fm = &ctx.foodmart;
    let content = ContentBased::new(ItemFeatures::new(fm.data.product_feature_vectors()));
    let goals: Vec<Vec<u32>> = fm
        .inputs
        .iter()
        .map(|h| fm.model.goal_space(h.raw()))
        .collect();

    // Deep scored pools, computed once.
    let pools: Vec<Vec<goalrec_core::Scored>> = fm
        .inputs
        .par_iter()
        .map(|h| content.recommend(h, POOL))
        .collect();

    let rows = [1.0, 0.7, 0.5, 0.3]
        .into_iter()
        .map(|lambda| {
            let lists: Vec<Vec<ActionId>> = pools
                .par_iter()
                .map(|pool| {
                    mmr_rerank(pool, ctx.cfg.k, lambda, |a, b| {
                        fm.features.pairwise_similarity(a, b)
                    })
                    .into_iter()
                    .map(|s| s.action)
                    .collect()
                })
                .collect();
            RerankRow {
                lambda,
                intra_list_similarity: pairwise_similarity(&fm.features, &lists).avg_avg,
                usefulness_avg: usefulness(&fm.model, &fm.inputs, &lists, &goals).avg_avg,
            }
        })
        .collect();
    Rerank { rows }
}

impl fmt::Display for Rerank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "MMR re-ranking of the Content baseline (FoodMart)",
            &["λ", "Intra-list similarity", "Usefulness AvgAvg"],
        );
        for row in &self.rows {
            t.row(vec![
                format!("{:.1}", row.lambda),
                f3(row.intra_list_similarity),
                f3(row.usefulness_avg),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalConfig;

    #[test]
    fn diversity_pressure_reduces_intra_list_similarity() {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let r = run(&ctx);
        assert_eq!(r.rows.len(), 4);
        let baseline = &r.rows[0];
        assert_eq!(baseline.lambda, 1.0);
        let strongest = r.rows.last().unwrap();
        assert!(
            strongest.intra_list_similarity < baseline.intra_list_similarity,
            "MMR did not diversify: {} → {}",
            baseline.intra_list_similarity,
            strongest.intra_list_similarity
        );
        for row in &r.rows {
            assert!((0.0..=1.0).contains(&row.intra_list_similarity));
            assert!((0.0..=1.0).contains(&row.usefulness_avg));
        }
        assert!(r.to_string().contains("MMR"));
    }
}
