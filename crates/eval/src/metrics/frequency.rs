//! Action frequency distributions (Figures 5 and 6, §6.1.2 C.2.1).
//!
//! Figure 5: how often each retrieved action appears across the
//! recommendation lists (do some actions monopolise the lists?).
//! Figure 6: how frequent the retrieved actions are in the *implementation
//! set* (does the method just surface staple actions?). Both are reported
//! as histograms over frequency buckets.

use goalrec_core::{ActionId, GoalModel};
use serde::{Deserialize, Serialize};

/// A histogram over `[0, 1]` frequencies with uniform buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyHistogram {
    /// Bucket upper bounds (e.g. 0.2, 0.4, …, 1.0).
    pub bounds: Vec<f64>,
    /// Fraction of actions falling in each bucket (sums to 1 unless empty).
    pub fractions: Vec<f64>,
    /// Number of distinct actions counted.
    pub num_actions: usize,
    /// Maximum observed frequency.
    pub max_frequency: f64,
}

impl FrequencyHistogram {
    fn from_frequencies(freqs: &[f64], num_buckets: usize) -> Self {
        assert!(num_buckets > 0);
        let bounds: Vec<f64> = (1..=num_buckets)
            .map(|i| i as f64 / num_buckets as f64)
            .collect();
        let mut counts = vec![0usize; num_buckets];
        let mut max_frequency: f64 = 0.0;
        for &f in freqs {
            let idx = ((f * num_buckets as f64).ceil() as usize)
                .saturating_sub(1)
                .min(num_buckets - 1);
            counts[idx] += 1;
            max_frequency = max_frequency.max(f);
        }
        let n = freqs.len().max(1) as f64;
        Self {
            bounds,
            fractions: counts.iter().map(|&c| c as f64 / n).collect(),
            num_actions: freqs.len(),
            max_frequency,
        }
    }
}

/// Per-action frequency across recommendation lists:
/// `count(lists containing a) / num_lists`, for actions appearing at least
/// once. This is Figure 5's distribution.
pub(crate) fn list_frequencies(
    lists: &[Vec<ActionId>],
    num_actions: usize,
) -> Vec<(ActionId, f64)> {
    let mut counts = vec![0u32; num_actions];
    for list in lists {
        for a in list {
            if a.index() < num_actions {
                counts[a.index()] += 1;
            }
        }
    }
    let n = lists.len().max(1) as f64;
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(a, &c)| (ActionId::new(a as u32), c as f64 / n))
        .collect()
}

/// Figure 5 histogram: distribution of list frequencies of retrieved
/// actions.
pub(crate) fn figure5_histogram(
    lists: &[Vec<ActionId>],
    num_actions: usize,
    num_buckets: usize,
) -> FrequencyHistogram {
    let freqs: Vec<f64> = list_frequencies(lists, num_actions)
        .into_iter()
        .map(|(_, f)| f)
        .collect();
    FrequencyHistogram::from_frequencies(&freqs, num_buckets)
}

/// Figure 6 histogram: distribution, over the *retrieved* actions, of their
/// frequency in the implementation set (`|IS(a)| / |L|`).
pub(crate) fn figure6_histogram(
    model: &GoalModel,
    lists: &[Vec<ActionId>],
    num_buckets: usize,
) -> FrequencyHistogram {
    let mut retrieved = vec![false; model.num_actions()];
    for list in lists {
        for a in list {
            if a.index() < retrieved.len() {
                retrieved[a.index()] = true;
            }
        }
    }
    let n_impls = model.num_impls().max(1) as f64;
    let freqs: Vec<f64> = retrieved
        .iter()
        .enumerate()
        .filter(|&(_, &r)| r)
        .map(|(a, _)| model.connectivity(ActionId::new(a as u32)) as f64 / n_impls)
        .collect();
    FrequencyHistogram::from_frequencies(&freqs, num_buckets)
}

/// Gini coefficient of the recommendation-slot distribution over actions:
/// 0 = every recommended action appears equally often across the lists,
/// → 1 = a handful of actions monopolise the slots. A scalar companion to
/// the Figure 5 histogram.
pub(crate) fn recommendation_gini(lists: &[Vec<ActionId>], num_actions: usize) -> f64 {
    let mut counts = vec![0u64; num_actions];
    for list in lists {
        for a in list {
            if a.index() < num_actions {
                counts[a.index()] += 1;
            }
        }
    }
    let mut values: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
    if values.len() < 2 {
        return 0.0;
    }
    values.sort_unstable();
    let n = values.len() as f64;
    let total: u64 = values.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // Gini via the sorted-rank formula: (2 Σ i·x_i)/(n Σ x) − (n+1)/n.
    let weighted: f64 = values
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use goalrec_core::{GoalId, GoalLibrary};

    fn ids(v: &[u32]) -> Vec<ActionId> {
        v.iter().map(|&x| ActionId::new(x)).collect()
    }

    #[test]
    fn list_frequencies_count_lists_not_occurrences() {
        let lists = vec![ids(&[0, 1]), ids(&[0]), ids(&[2])];
        let freqs = list_frequencies(&lists, 4);
        let map: std::collections::HashMap<u32, f64> =
            freqs.iter().map(|&(a, f)| (a.raw(), f)).collect();
        assert!((map[&0] - 2.0 / 3.0).abs() < 1e-12); // in 2 of 3 lists
        assert!((map[&1] - 1.0 / 3.0).abs() < 1e-12);
        assert!(!map.contains_key(&3)); // never retrieved
    }

    #[test]
    fn histogram_buckets_and_fractions() {
        let h = FrequencyHistogram::from_frequencies(&[0.1, 0.15, 0.5, 0.9], 5);
        assert_eq!(h.bounds, vec![0.2, 0.4, 0.6, 0.8, 1.0]);
        assert_eq!(h.num_actions, 4);
        assert!((h.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((h.fractions[0] - 0.5).abs() < 1e-12);
        assert_eq!(h.max_frequency, 0.9);
    }

    #[test]
    fn histogram_edge_frequencies() {
        let h = FrequencyHistogram::from_frequencies(&[0.0, 1.0], 5);
        assert!((h.fractions[0] - 0.5).abs() < 1e-12);
        assert!((h.fractions[4] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let h = FrequencyHistogram::from_frequencies(&[], 5);
        assert_eq!(h.num_actions, 0);
        assert_eq!(h.max_frequency, 0.0);
        assert!(h.fractions.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn gini_zero_for_uniform_and_high_for_monopoly() {
        // Uniform: each of 4 actions recommended once.
        let uniform = vec![ids(&[0]), ids(&[1]), ids(&[2]), ids(&[3])];
        assert!(recommendation_gini(&uniform, 5).abs() < 1e-12);
        // Monopoly: one action dominates.
        let skew = vec![ids(&[0]); 99]
            .into_iter()
            .chain([ids(&[1])])
            .collect::<Vec<_>>();
        assert!(recommendation_gini(&skew, 5) > 0.45);
        // Degenerate inputs.
        assert_eq!(recommendation_gini(&[], 5), 0.0);
        assert_eq!(recommendation_gini(&[ids(&[0])], 5), 0.0);
    }

    #[test]
    fn figure6_uses_connectivity() {
        // Library: action 0 in both impls, action 1 in one.
        let lib = GoalLibrary::from_id_implementations(
            2,
            2,
            vec![(GoalId::new(0), ids(&[0, 1])), (GoalId::new(1), ids(&[0]))],
        )
        .unwrap();
        let model = GoalModel::build(&lib).unwrap();
        let h = figure6_histogram(&model, &[ids(&[0, 1])], 2);
        // freq(0) = 1.0, freq(1) = 0.5 → one in each bucket.
        assert!((h.fractions[0] - 0.5).abs() < 1e-12);
        assert!((h.fractions[1] - 0.5).abs() < 1e-12);
    }
}
