//! Intra-list pairwise feature similarity (Table 5, §6.1.1 C.1.4).
//!
//! For each recommendation list, compute the pairwise feature-based
//! similarity of every action pair; report per-list average / max / min and
//! average those over all lists. Content-based filtering tops this table
//! (≈0.8) — the "too similar" drawback the paper highlights — while the
//! goal-based methods sit in the 0.24–0.33 band.

use goalrec_baselines::ItemFeatures;
use goalrec_core::ActionId;
use serde::{Deserialize, Serialize};

/// Aggregated pairwise-similarity statistics over a batch of lists.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairwiseSimilarity {
    /// Mean over lists of the per-list average pair similarity.
    pub avg_avg: f64,
    /// Mean over lists of the per-list maximum pair similarity.
    pub avg_max: f64,
    /// Mean over lists of the per-list minimum pair similarity.
    pub avg_min: f64,
}

/// Computes the Table 5 statistic; lists with fewer than two actions are
/// skipped (no pairs).
pub(crate) fn pairwise_similarity(
    features: &ItemFeatures,
    lists: &[Vec<ActionId>],
) -> PairwiseSimilarity {
    let mut n = 0usize;
    let (mut s_avg, mut s_max, mut s_min) = (0.0, 0.0, 0.0);
    for list in lists {
        if list.len() < 2 {
            continue;
        }
        let mut sum = 0.0;
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        let mut pairs = 0usize;
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let s = features.pairwise_similarity(list[i], list[j]);
                sum += s;
                max = max.max(s);
                min = min.min(s);
                pairs += 1;
            }
        }
        s_avg += sum / pairs as f64;
        s_max += max;
        s_min += min;
        n += 1;
    }
    let n = n.max(1) as f64;
    PairwiseSimilarity {
        avg_avg: s_avg / n,
        avg_max: s_max / n,
        avg_min: s_min / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ActionId> {
        v.iter().map(|&x| ActionId::new(x)).collect()
    }

    /// Items 0,1 share a category; 2 is alone; 3 shares with nothing.
    fn features() -> ItemFeatures {
        ItemFeatures::new(vec![
            vec![(0, 1.0)],
            vec![(0, 1.0)],
            vec![(1, 1.0)],
            vec![(2, 1.0)],
        ])
    }

    #[test]
    fn homogeneous_list_scores_high() {
        let p = pairwise_similarity(&features(), &[ids(&[0, 1])]);
        assert_eq!(p.avg_avg, 1.0);
        assert_eq!(p.avg_max, 1.0);
        assert_eq!(p.avg_min, 1.0);
    }

    #[test]
    fn diverse_list_scores_low() {
        let p = pairwise_similarity(&features(), &[ids(&[0, 2, 3])]);
        assert_eq!(p.avg_avg, 0.0);
        assert_eq!(p.avg_min, 0.0);
    }

    #[test]
    fn mixed_list_statistics() {
        // Pairs of [0,1,2]: (0,1)=1, (0,2)=0, (1,2)=0 → avg 1/3, max 1, min 0.
        let p = pairwise_similarity(&features(), &[ids(&[0, 1, 2])]);
        assert!((p.avg_avg - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.avg_max, 1.0);
        assert_eq!(p.avg_min, 0.0);
    }

    #[test]
    fn short_lists_skipped() {
        let p = pairwise_similarity(&features(), &[ids(&[0]), ids(&[]), ids(&[0, 1])]);
        assert_eq!(p.avg_avg, 1.0); // only the third list counts
    }

    #[test]
    fn averaging_across_lists() {
        let p = pairwise_similarity(&features(), &[ids(&[0, 1]), ids(&[2, 3])]);
        assert_eq!(p.avg_avg, 0.5);
        assert_eq!(p.avg_max, 0.5);
    }
}
