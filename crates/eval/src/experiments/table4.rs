//! Table 4 / Figure 3: usefulness — goal completeness after following the
//! recommended actions.
//!
//! For 43Things the goals under evaluation are the ones the user declared;
//! for FoodMart (where real intent is unknown) the whole goal space of the
//! input cart is used, as in the paper. Paper shape: Breadth and Best
//! Match lead on FoodMart, Focus_cmp on 43Things; the standard methods
//! trail everywhere.

use crate::context::EvalContext;
use crate::metrics::completeness::{usefulness, Usefulness};
use crate::report::{f3, BarChart, TextTable};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One method's usefulness on one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4Row {
    /// Method name.
    pub method: String,
    /// AvgAvg / MinAvg / MaxAvg triple.
    pub usefulness: Usefulness,
}

/// Usefulness table for one dataset (Figure 3 plots the AvgAvg column).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4Dataset {
    /// Dataset label.
    pub dataset: String,
    /// One row per method.
    pub rows: Vec<Table4Row>,
}

/// Full Table 4 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4 {
    /// Per-dataset tables.
    pub datasets: Vec<Table4Dataset>,
}

/// Runs the experiment.
pub fn run(ctx: &EvalContext) -> Table4 {
    // FoodMart: evaluate against the whole goal space of each input.
    let fm = &ctx.foodmart;
    let fm_goals: Vec<Vec<u32>> = fm
        .inputs
        .iter()
        .map(|h| fm.model.goal_space(h.raw()))
        .collect();
    let fm_rows = fm
        .methods
        .iter()
        .map(|m| Table4Row {
            method: m.name.clone(),
            usefulness: usefulness(&fm.model, &fm.inputs, &m.lists, &fm_goals),
        })
        .collect();

    // 43Things: evaluate against the user's declared goals.
    let ft = &ctx.fortythree;
    let ft_goals: Vec<Vec<u32>> = ft
        .input_users
        .iter()
        .map(|&u| {
            let mut ids: Vec<u32> = ft.data.user_goals[u].iter().map(|g| g.raw()).collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    let ft_rows = ft
        .methods
        .iter()
        .map(|m| Table4Row {
            method: m.name.clone(),
            usefulness: usefulness(&ft.model, &ft.inputs, &m.lists, &ft_goals),
        })
        .collect();

    Table4 {
        datasets: vec![
            Table4Dataset {
                dataset: "FoodMart".into(),
                rows: fm_rows,
            },
            Table4Dataset {
                dataset: "43Things".into(),
                rows: ft_rows,
            },
        ],
    }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ds in &self.datasets {
            let mut t = TextTable::new(
                format!(
                    "Table 4 / Fig. 3 ({}): goal completeness after following the list",
                    ds.dataset
                ),
                &["Method", "AvgAvg", "MinAvg", "MaxAvg"],
            );
            for row in &ds.rows {
                t.row(vec![
                    row.method.clone(),
                    f3(row.usefulness.avg_avg),
                    f3(row.usefulness.min_avg),
                    f3(row.usefulness.max_avg),
                ]);
            }
            writeln!(f, "{}", t.render())?;
            // Figure 3 proper: the AvgAvg bars.
            let mut chart = BarChart::new(
                format!("Figure 3 ({}): average goal completeness", ds.dataset),
                40,
            );
            for row in &ds.rows {
                chart.bar(row.method.clone(), row.usefulness.avg_avg);
            }
            writeln!(f, "{}", chart.render())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{method, EvalConfig};

    #[test]
    fn usefulness_bounds_and_shape() {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let t = run(&ctx);
        assert_eq!(t.datasets.len(), 2);
        for ds in &t.datasets {
            for row in &ds.rows {
                let u = &row.usefulness;
                assert!((0.0..=1.0).contains(&u.avg_avg), "{}: {u:?}", row.method);
                assert!(u.min_avg <= u.avg_avg + 1e-12);
                assert!(u.avg_avg <= u.max_avg + 1e-12);
            }
        }
        assert!(t.to_string().contains("Fig. 3"));
    }

    #[test]
    fn goal_based_beats_popularity_on_fortythree() {
        // The headline claim in miniature: on the goal-structured dataset,
        // a goal-based method completes the user's declared goals better
        // than popularity.
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let t = run(&ctx);
        let ft = &t.datasets[1];
        let get = |name: &str| {
            ft.rows
                .iter()
                .find(|r| r.method == name)
                .unwrap()
                .usefulness
                .avg_avg
        };
        let best_goal = ["BestMatch", "Focus_cmp", "Focus_cl", "Breadth"]
            .iter()
            .map(|m| get(m))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best_goal > get(method::POPULARITY),
            "goal-based {best_goal} vs popularity {}",
            get(method::POPULARITY)
        );
    }
}
