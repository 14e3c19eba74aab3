//! Popularity correlation (Table 3).
//!
//! "How correlated the recommendation lists with the top-20 popular actions
//! in the user activities are": take the 20 most popular actions, count how
//! often each appears across the recommendation lists, and compute
//! Pearson's r between the activity counts and the list counts. CF methods
//! score high positive values; the goal-based methods go negative.

use goalrec_core::ActionId;

/// Pearson correlation coefficient of two equal-length samples. Returns
/// 0.0 when either sample has zero variance (the conventional degenerate
/// value for this study).
pub(crate) fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "paired samples required");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// The Table 3 statistic: Pearson r between the activity-counts of the
/// `top_n` most popular actions and their appearance counts across the
/// given recommendation lists.
///
/// `activity_counts[a]` is how many input activities contain action `a`.
pub(crate) fn popularity_correlation(
    activity_counts: &[u32],
    lists: &[Vec<ActionId>],
    top_n: usize,
) -> f64 {
    // Rank actions by activity count, descending, tie by id for
    // determinism.
    let mut ranked: Vec<(u32, u32)> = activity_counts
        .iter()
        .enumerate()
        .map(|(a, &c)| (a as u32, c))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(top_n);

    let mut rec_counts = vec![0u32; activity_counts.len()];
    for list in lists {
        for a in list {
            if a.index() < rec_counts.len() {
                rec_counts[a.index()] += 1;
            }
        }
    }

    let x: Vec<f64> = ranked.iter().map(|&(_, c)| c as f64).collect();
    let y: Vec<f64> = ranked
        .iter()
        .map(|&(a, _)| rec_counts[a as usize] as f64)
        .collect();
    pearson(&x, &y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ActionId> {
        v.iter().map(|&x| ActionId::new(x)).collect()
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0); // zero variance
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0); // n < 2
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn pearson_uncorrelated_is_small() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 1.0, 4.0, 3.0];
        let r = pearson(&x, &y);
        assert!(r.abs() < 0.9);
    }

    #[test]
    fn popularity_correlation_positive_for_popularity_recommender() {
        // Popular actions 0,1,2 with counts 30,20,10; lists recommending
        // them proportionally → strong positive r.
        let counts = vec![30u32, 20, 10, 0, 0];
        let mut lists = Vec::new();
        for _ in 0..3 {
            lists.push(ids(&[0, 1]));
        }
        lists.push(ids(&[0, 2]));
        let r = popularity_correlation(&counts, &lists, 3);
        assert!(r > 0.8, "r = {r}");
    }

    #[test]
    fn popularity_correlation_negative_for_anti_popular_lists() {
        let counts = vec![30u32, 20, 10];
        // Lists recommend the least popular most often.
        let lists = vec![ids(&[2]), ids(&[2]), ids(&[2, 1]), ids(&[1])];
        let r = popularity_correlation(&counts, &lists, 3);
        assert!(r < -0.8, "r = {r}");
    }

    #[test]
    fn top_n_larger_than_universe_is_safe() {
        let counts = vec![3u32, 1];
        let lists = vec![ids(&[0])];
        let r = popularity_correlation(&counts, &lists, 20);
        assert!(r.is_finite());
    }
}
