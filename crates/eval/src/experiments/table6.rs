//! Table 6: overlap among the goal-based methods' own top-10 lists.
//!
//! Paper shape: Best Match × Breadth overlap massively (98 % FoodMart,
//! 79 % 43Things); Focus_cmp × Focus_cl 35.6 % / 78 %; Focus × {Breadth,
//! Best Match} over 40 % / 70 %; overall higher overlap on 43Things.

use crate::context::EvalContext;
use crate::metrics::overlap::mean_overlap;
use crate::report::{pct, TextTable};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Pairwise overlaps among goal-based methods, one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table6Dataset {
    /// Dataset label.
    pub dataset: String,
    /// Goal-based method names (matrix axes).
    pub methods: Vec<String>,
    /// `matrix[i][j]` = mean overlap of method i and method j.
    pub matrix: Vec<Vec<f64>>,
}

/// Full Table 6 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table6 {
    /// Per-dataset matrices.
    pub datasets: Vec<Table6Dataset>,
}

/// Runs the experiment.
pub fn run(ctx: &EvalContext) -> Table6 {
    let mut datasets = Vec::new();
    for (label, methods) in [
        ("FoodMart", &ctx.foodmart.methods),
        ("43Things", &ctx.fortythree.methods),
    ] {
        let goal: Vec<&crate::context::MethodLists> =
            methods.iter().filter(|m| m.goal_based).collect();
        let names: Vec<String> = goal.iter().map(|m| m.name.clone()).collect();
        let matrix: Vec<Vec<f64>> = goal
            .iter()
            .map(|a| {
                goal.iter()
                    .map(|b| mean_overlap(&a.lists, &b.lists))
                    .collect()
            })
            .collect();
        datasets.push(Table6Dataset {
            dataset: label.to_owned(),
            methods: names,
            matrix,
        });
    }
    Table6 { datasets }
}

impl fmt::Display for Table6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ds in &self.datasets {
            let mut header = vec!["Method"];
            header.extend(ds.methods.iter().map(String::as_str));
            let mut t = TextTable::new(
                format!("Table 6 ({}): overlap among goal-based methods", ds.dataset),
                &header,
            );
            for (i, name) in ds.methods.iter().enumerate() {
                let mut cells = vec![name.clone()];
                cells.extend(ds.matrix[i].iter().map(|&v| pct(v)));
                t.row(cells);
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
    fn matrix_is_symmetric_with_unit_diagonal() {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let t = run(&ctx);
        for ds in &t.datasets {
            assert_eq!(ds.methods.len(), 4);
            for i in 0..4 {
                // Diagonal = self-overlap; 1.0 whenever any list is
                // non-empty (0 only in the degenerate all-empty case).
                assert!(
                    ds.matrix[i][i] > 0.5,
                    "{} diag {}",
                    ds.dataset,
                    ds.matrix[i][i]
                );
                for j in 0..4 {
                    assert!((ds.matrix[i][j] - ds.matrix[j][i]).abs() < 1e-12);
                    assert!((0.0..=1.0).contains(&ds.matrix[i][j]));
                }
            }
        }
    }

    #[test]
    fn best_match_and_breadth_overlap_strongly() {
        // The paper's strongest observation in miniature: the two
        // multi-goal strategies retrieve very similar lists.
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let t = run(&ctx);
        for ds in &t.datasets {
            let at = |name: &str| ds.methods.iter().position(|m| m == name).unwrap();
            let bm_br = ds.matrix[at("BestMatch")][at("Breadth")];
            assert!(
                bm_br > 0.3,
                "{}: BestMatch×Breadth overlap only {bm_br}",
                ds.dataset
            );
        }
    }

    #[test]
    fn renders() {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        assert!(run(&ctx).to_string().contains("Table 6"));
    }
}
