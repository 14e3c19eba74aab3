//! Table 3: Pearson correlation between the top-20 popular actions'
//! presence in user activities and in the recommendation lists.
//!
//! Paper shape: CF methods strongly positive (kNN 0.45/0.75, MF
//! 0.78/0.87), Content mildly positive (0.115), goal-based methods all
//! negative (−0.02 … −0.27).

use crate::context::EvalContext;
use crate::metrics::correlation::popularity_correlation;
use crate::report::{f3, TextTable};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How many of the most popular actions enter the correlation (the paper
/// uses 20).
pub(crate) const TOP_N_POPULAR: usize = 20;

/// One method's correlations on both datasets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Method name.
    pub method: String,
    /// Correlation on FoodMart (None if the method doesn't run there).
    pub foodmart: Option<f64>,
    /// Correlation on 43Things.
    pub fortythree: Option<f64>,
}

/// Full Table 3 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    /// One row per method.
    pub rows: Vec<Table3Row>,
}

/// Runs the experiment.
pub fn run(ctx: &EvalContext) -> Table3 {
    let mut rows: Vec<Table3Row> = Vec::new();
    for m in &ctx.foodmart.methods {
        rows.push(Table3Row {
            method: m.name.clone(),
            foodmart: Some(popularity_correlation(
                &ctx.foodmart.activity_counts,
                &m.lists,
                TOP_N_POPULAR,
            )),
            fortythree: None,
        });
    }
    for m in &ctx.fortythree.methods {
        let r = popularity_correlation(&ctx.fortythree.activity_counts, &m.lists, TOP_N_POPULAR);
        if let Some(row) = rows.iter_mut().find(|row| row.method == m.name) {
            row.fortythree = Some(r);
        } else {
            rows.push(Table3Row {
                method: m.name.clone(),
                foodmart: None,
                fortythree: Some(r),
            });
        }
    }
    Table3 { rows }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            format!("Table 3: correlation with top-{TOP_N_POPULAR} popular actions"),
            &["Method", "FoodMart", "43Things"],
        );
        let cell = |v: &Option<f64>| v.map_or("-".to_owned(), f3);
        for row in &self.rows {
            t.row(vec![
                row.method.clone(),
                cell(&row.foodmart),
                cell(&row.fortythree),
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
    fn table3_covers_all_methods() {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let t = run(&ctx);
        let names: Vec<&str> = t.rows.iter().map(|r| r.method.as_str()).collect();
        assert!(names.contains(&"Breadth"));
        assert!(names.contains(&method::CF_KNN));
        // Content has a FoodMart value and no 43Things value.
        let content = t.rows.iter().find(|r| r.method == method::CONTENT).unwrap();
        assert!(content.foodmart.is_some());
        assert!(content.fortythree.is_none());
        for r in &t.rows {
            for v in [r.foodmart, r.fortythree].into_iter().flatten() {
                assert!((-1.0..=1.0).contains(&v), "{}: {v}", r.method);
            }
        }
        assert!(t.to_string().contains("Table 3"));
    }

    #[test]
    fn popularity_recommender_is_the_positive_anchor() {
        // Popularity is the definition of following the crowd: its
        // correlation must be positive and above every goal-based method's.
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let t = run(&ctx);
        let get = |name: &str| {
            t.rows
                .iter()
                .find(|r| r.method == name)
                .unwrap()
                .foodmart
                .unwrap()
        };
        let pop = get(method::POPULARITY);
        assert!(pop > 0.0, "popularity correlation {pop}");
        // The paper's *negative* goal-based correlations only emerge at
        // scale (large candidate pools dilute popular items); at test scale
        // we only pin the anchor's sign. EXPERIMENTS.md records the
        // directional comparison from the full run.
    }
}
