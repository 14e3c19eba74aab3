//! Beyond-accuracy metrics: novelty, intra-list diversity, catalogue
//! coverage and serendipity.
//!
//! §2 of the paper situates goal-based recommendation against work that
//! chases serendipity, novelty and diversity heuristically. These metrics
//! make that comparison quantitative; the `extended` experiment reports
//! them for every method.

use goalrec_baselines::ItemFeatures;
use goalrec_core::ActionId;

/// Mean self-information of the recommended actions:
/// `−log₂(count(a) / num_users)`, averaged over all recommended slots.
/// Higher = more novel. Actions never seen in training contribute the
/// maximum (`log₂ num_users`).
pub(crate) fn novelty(lists: &[Vec<ActionId>], activity_counts: &[u32], num_users: usize) -> f64 {
    let n_users = num_users.max(1) as f64;
    let max_info = n_users.log2();
    let mut total = 0.0;
    let mut slots = 0usize;
    for list in lists {
        for a in list {
            let c = activity_counts.get(a.index()).copied().unwrap_or(0);
            total += if c == 0 {
                max_info
            } else {
                -(c as f64 / n_users).log2()
            };
            slots += 1;
        }
    }
    total / slots.max(1) as f64
}

/// Intra-list diversity: `1 −` mean pairwise feature similarity within a
/// list, averaged over lists with ≥ 2 items. Higher = more diverse.
pub(crate) fn intra_list_diversity(features: &ItemFeatures, lists: &[Vec<ActionId>]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for list in lists {
        if list.len() < 2 {
            continue;
        }
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                sum += features.pairwise_similarity(list[i], list[j]);
                pairs += 1;
            }
        }
        total += 1.0 - sum / pairs as f64;
        n += 1;
    }
    total / n.max(1) as f64
}

/// Catalogue coverage: fraction of the action universe recommended at
/// least once across all lists (aggregate diversity).
pub(crate) fn catalogue_coverage(lists: &[Vec<ActionId>], num_actions: usize) -> f64 {
    let mut seen = vec![false; num_actions];
    for list in lists {
        for a in list {
            if a.index() < num_actions {
                seen[a.index()] = true;
            }
        }
    }
    seen.iter().filter(|&&s| s).count() as f64 / num_actions.max(1) as f64
}

/// Serendipity: among recommended actions that are *relevant* (appear in
/// the per-input ground truth), the fraction that a popularity primer
/// would *not* have recommended — relevant surprises. `primitive[i]` is
/// the popularity baseline's list for input `i`.
pub(crate) fn serendipity(
    lists: &[Vec<ActionId>],
    primitive: &[Vec<ActionId>],
    truths: &[Vec<ActionId>],
) -> f64 {
    assert_eq!(lists.len(), primitive.len());
    assert_eq!(lists.len(), truths.len());
    let mut total = 0.0;
    let mut n = 0usize;
    for ((list, prim), truth) in lists.iter().zip(primitive).zip(truths) {
        if list.is_empty() || truth.is_empty() {
            continue;
        }
        let prim_set: std::collections::HashSet<ActionId> = prim.iter().copied().collect();
        let surprising_hits = list
            .iter()
            .filter(|a| truth.binary_search(a).is_ok() && !prim_set.contains(a))
            .count();
        total += surprising_hits as f64 / list.len() as f64;
        n += 1;
    }
    total / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ActionId> {
        v.iter().map(|&x| ActionId::new(x)).collect()
    }

    #[test]
    fn novelty_rewards_rare_items() {
        // counts: item 0 in all 8 users, item 1 in 1 user.
        let counts = vec![8u32, 1];
        let popular = novelty(&[ids(&[0])], &counts, 8);
        let rare = novelty(&[ids(&[1])], &counts, 8);
        assert_eq!(popular, 0.0); // −log2(1) = 0
        assert_eq!(rare, 3.0); // −log2(1/8)
        let unseen = novelty(&[ids(&[5])], &counts, 8);
        assert_eq!(unseen, 3.0); // capped at log2(8)
    }

    #[test]
    fn novelty_empty_lists() {
        assert_eq!(novelty(&[], &[1], 2), 0.0);
        assert_eq!(novelty(&[vec![]], &[1], 2), 0.0);
    }

    #[test]
    fn diversity_complements_similarity() {
        let features = ItemFeatures::new(vec![vec![(0, 1.0)], vec![(0, 1.0)], vec![(1, 1.0)]]);
        assert_eq!(intra_list_diversity(&features, &[ids(&[0, 1])]), 0.0);
        assert_eq!(intra_list_diversity(&features, &[ids(&[0, 2])]), 1.0);
        // Short lists skipped.
        assert_eq!(intra_list_diversity(&features, &[ids(&[0])]), 0.0);
    }

    #[test]
    fn coverage_counts_distinct_actions() {
        let lists = vec![ids(&[0, 1]), ids(&[1, 2])];
        assert!((catalogue_coverage(&lists, 6) - 0.5).abs() < 1e-12);
        assert_eq!(catalogue_coverage(&[], 6), 0.0);
    }

    #[test]
    fn serendipity_excludes_popular_hits() {
        let lists = vec![ids(&[1, 2, 3, 4])];
        let prim = vec![ids(&[1, 9])];
        let truth = vec![ids(&[1, 3])];
        // Hits: 1 (but popular-primed) and 3 (surprising) → 1/4.
        assert!((serendipity(&lists, &prim, &truth) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn serendipity_skips_empty_inputs() {
        let s = serendipity(
            &[ids(&[1]), vec![]],
            &[ids(&[]), ids(&[])],
            &[ids(&[1]), ids(&[2])],
        );
        assert_eq!(s, 1.0); // only the first input counts
    }
}
