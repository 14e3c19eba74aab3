//! Figures 5 and 6: do certain actions monopolise the goal-based lists?
//!
//! Figure 5 histograms each retrieved action's frequency *across the
//! recommendation lists*; Figure 6 histograms the retrieved actions'
//! frequency *in the implementation set*. Paper shape (FoodMart): the
//! majority of actions appear in <20 % of lists (Best Match and Breadth
//! have the heaviest tails at 22 % / 14 % above 0.2), and >92 % of
//! retrieved actions sit below 0.2 implementation-set frequency.

use crate::context::EvalContext;
use crate::metrics::frequency::{
    figure5_histogram, figure6_histogram, recommendation_gini, FrequencyHistogram,
};
use crate::report::{pct, TextTable};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of histogram buckets (0.2-wide, matching the paper's reading).
pub(crate) const NUM_BUCKETS: usize = 5;

/// Histograms for one goal-based method.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureRow {
    /// Method name.
    pub method: String,
    /// The frequency histogram.
    pub histogram: FrequencyHistogram,
    /// Gini concentration of the recommendation slots (Figure 5 rows
    /// only; 0 for Figure 6 where it is not meaningful).
    pub gini: f64,
}

/// Figures 5 + 6 result (FoodMart, goal-based methods).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figures56 {
    /// Figure 5: frequency across recommendation lists.
    pub figure5: Vec<FigureRow>,
    /// Figure 6: frequency in the implementation set.
    pub figure6: Vec<FigureRow>,
    /// §6.1.2 C.2.1's companion statistic: the maximum list frequency any
    /// action reaches on **43Things**, per goal-based method (the paper
    /// reports "at maximum 0.001" at full scale).
    pub fortythree_max_frequency: Vec<(String, f64)>,
}

/// Runs both figures.
pub fn run(ctx: &EvalContext) -> Figures56 {
    let fm = &ctx.foodmart;
    let num_actions = fm.model.num_actions();
    let goal_methods = fm.methods.iter().filter(|m| m.goal_based);
    let figure5 = goal_methods
        .clone()
        .map(|m| FigureRow {
            method: m.name.clone(),
            histogram: figure5_histogram(&m.lists, num_actions, NUM_BUCKETS),
            gini: recommendation_gini(&m.lists, num_actions),
        })
        .collect();
    let figure6 = goal_methods
        .map(|m| FigureRow {
            method: m.name.clone(),
            histogram: figure6_histogram(&fm.model, &m.lists, NUM_BUCKETS),
            gini: 0.0,
        })
        .collect();
    let ft = &ctx.fortythree;
    let fortythree_max_frequency = ft
        .methods
        .iter()
        .filter(|m| m.goal_based)
        .map(|m| {
            let hist = figure5_histogram(&m.lists, ft.model.num_actions(), NUM_BUCKETS);
            (m.name.clone(), hist.max_frequency)
        })
        .collect();
    Figures56 {
        figure5,
        figure6,
        fortythree_max_frequency,
    }
}

fn render(
    title: &str,
    rows: &[FigureRow],
    with_gini: bool,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    let bounds: Vec<String> = rows
        .first()
        .map(|r| {
            r.histogram
                .bounds
                .iter()
                .map(|b| format!("≤{b:.1}"))
                .collect()
        })
        .unwrap_or_default();
    let mut header = vec!["Method"];
    header.extend(bounds.iter().map(String::as_str));
    if with_gini {
        header.push("Gini");
    }
    let mut t = TextTable::new(title, &header);
    for row in rows {
        let mut cells = vec![row.method.clone()];
        cells.extend(row.histogram.fractions.iter().map(|&v| pct(v)));
        if with_gini {
            cells.push(format!("{:.3}", row.gini));
        }
        t.row(cells);
    }
    writeln!(f, "{}", t.render())
}

impl fmt::Display for Figures56 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render(
            "Figure 5 (FoodMart): action frequency across recommendation lists",
            &self.figure5,
            true,
            f,
        )?;
        render(
            "Figure 6 (FoodMart): implementation-set frequency of retrieved actions",
            &self.figure6,
            false,
            f,
        )?;
        writeln!(
            f,
            "43Things max list frequency per goal-based method (paper: ≤0.001 at full scale):"
        )?;
        for (m, v) in &self.fortythree_max_frequency {
            writeln!(f, "  {m:<10} {v:.4}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalConfig;

    #[test]
    fn histograms_cover_goal_methods_and_sum_to_one() {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let figs = run(&ctx);
        assert_eq!(figs.figure5.len(), 4);
        assert_eq!(figs.figure6.len(), 4);
        for row in figs.figure5.iter().chain(&figs.figure6) {
            if row.histogram.num_actions > 0 {
                let total: f64 = row.histogram.fractions.iter().sum();
                assert!((total - 1.0).abs() < 1e-9, "{}: {total}", row.method);
            }
        }
        for row in &figs.figure5 {
            assert!(
                (0.0..=1.0).contains(&row.gini),
                "{}: {}",
                row.method,
                row.gini
            );
        }
        assert_eq!(figs.fortythree_max_frequency.len(), 4);
        for (m, v) in &figs.fortythree_max_frequency {
            assert!((0.0..=1.0).contains(v), "{m}: {v}");
        }
        assert!(figs.to_string().contains("Figure 5"));
        assert!(figs.to_string().contains("Figure 6"));
    }

    #[test]
    fn no_action_monopolises_most_lists() {
        // Figure 5's qualitative claim: the bulk of retrieved actions sit
        // in the low-frequency buckets.
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let figs = run(&ctx);
        for row in &figs.figure5 {
            let h = &row.histogram;
            let low: f64 = h
                .bounds
                .iter()
                .zip(&h.fractions)
                .filter(|&(&b, _)| b <= 0.6 + 1e-12)
                .map(|(_, &f)| f)
                .sum();
            assert!(
                low > 0.5,
                "{}: only {low} of actions below 0.6 list frequency",
                row.method
            );
        }
    }
}
