//! Table 5: pairwise feature-based similarity within each list
//! (FoodMart only — 43Things has no accepted domain features).
//!
//! Paper shape: Content ≈ 0.81 AvgAvg (its known self-similarity
//! drawback), CF methods 0.15–0.16, goal-based 0.24–0.33.

use crate::context::EvalContext;
use crate::metrics::pairwise::{pairwise_similarity, PairwiseSimilarity};
use crate::report::{f3, TextTable};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One method's intra-list similarity statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5Row {
    /// Method name.
    pub method: String,
    /// AvgAvg / AvgMax / AvgMin triple.
    pub similarity: PairwiseSimilarity,
}

/// Full Table 5 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5 {
    /// One row per method (FoodMart methods only).
    pub rows: Vec<Table5Row>,
}

/// Runs the experiment.
pub fn run(ctx: &EvalContext) -> Table5 {
    let fm = &ctx.foodmart;
    Table5 {
        rows: fm
            .methods
            .iter()
            .map(|m| Table5Row {
                method: m.name.clone(),
                similarity: pairwise_similarity(&fm.features, &m.lists),
            })
            .collect(),
    }
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Table 5 (FoodMart): pairwise feature similarity within lists",
            &["Method", "AvgAvg", "AvgMax", "AvgMin"],
        );
        for row in &self.rows {
            t.row(vec![
                row.method.clone(),
                f3(row.similarity.avg_avg),
                f3(row.similarity.avg_max),
                f3(row.similarity.avg_min),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{method, EvalConfig};

    #[test]
    fn content_is_the_most_self_similar() {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let t = run(&ctx);
        let get = |name: &str| {
            t.rows
                .iter()
                .find(|r| r.method == name)
                .unwrap()
                .similarity
                .avg_avg
        };
        let content = get(method::CONTENT);
        for m in ["BestMatch", "Focus_cmp", "Focus_cl", "Breadth"] {
            assert!(
                content > get(m),
                "Content {content} should exceed {m} {}",
                get(m)
            );
        }
        for r in &t.rows {
            let s = &r.similarity;
            assert!(s.avg_min <= s.avg_avg + 1e-12 && s.avg_avg <= s.avg_max + 1e-12);
            assert!((0.0..=1.0).contains(&s.avg_avg));
        }
        assert!(t.to_string().contains("Table 5"));
    }
}
