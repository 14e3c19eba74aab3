//! Standard ranking metrics: precision, recall, NDCG, MAP.
//!
//! Not reported in the paper's tables (which use the TPR framing instead),
//! but indispensable for downstream users evaluating the library on their
//! own data, and used by the extended experiments in EXPERIMENTS.md.

use goalrec_core::ActionId;

/// Precision@k: hits / k (uses the actual list length when shorter).
pub fn precision_at_k(list: &[ActionId], truth_sorted: &[ActionId], k: usize) -> f64 {
    let cut = list.len().min(k);
    if cut == 0 {
        return 0.0;
    }
    let hits = list[..cut]
        .iter()
        .filter(|a| truth_sorted.binary_search(a).is_ok())
        .count();
    hits as f64 / cut as f64
}

/// Recall@k: hits / |truth|; 0 for empty truth.
pub(crate) fn recall_at_k(list: &[ActionId], truth_sorted: &[ActionId], k: usize) -> f64 {
    if truth_sorted.is_empty() {
        return 0.0;
    }
    let cut = list.len().min(k);
    let hits = list[..cut]
        .iter()
        .filter(|a| truth_sorted.binary_search(a).is_ok())
        .count();
    hits as f64 / truth_sorted.len() as f64
}

/// NDCG@k with binary relevance.
pub fn ndcg_at_k(list: &[ActionId], truth_sorted: &[ActionId], k: usize) -> f64 {
    if truth_sorted.is_empty() {
        return 0.0;
    }
    let cut = list.len().min(k);
    let mut dcg = 0.0;
    for (i, a) in list[..cut].iter().enumerate() {
        if truth_sorted.binary_search(a).is_ok() {
            dcg += 1.0 / ((i + 2) as f64).log2();
        }
    }
    let ideal_hits = truth_sorted.len().min(k);
    let idcg: f64 = (0..ideal_hits).map(|i| 1.0 / ((i + 2) as f64).log2()).sum();
    if idcg == 0.0 {
        0.0
    } else {
        dcg / idcg
    }
}

/// Mean of a per-query metric over a batch, skipping empty truths.
pub fn mean_over_queries<F>(lists: &[Vec<ActionId>], truths: &[Vec<ActionId>], f: F) -> f64
where
    F: Fn(&[ActionId], &[ActionId]) -> f64,
{
    assert_eq!(lists.len(), truths.len());
    let mut n = 0usize;
    let mut sum = 0.0;
    for (list, truth) in lists.iter().zip(truths) {
        if truth.is_empty() {
            continue;
        }
        sum += f(list, truth);
        n += 1;
    }
    sum / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ActionId> {
        v.iter().map(|&x| ActionId::new(x)).collect()
    }

    #[test]
    fn precision_counts_hits_in_prefix() {
        let list = ids(&[1, 9, 2, 8]);
        let truth = ids(&[1, 2]);
        assert_eq!(precision_at_k(&list, &truth, 2), 0.5);
        assert_eq!(precision_at_k(&list, &truth, 4), 0.5);
        assert_eq!(precision_at_k(&[], &truth, 5), 0.0);
    }

    #[test]
    fn recall_normalises_by_truth_size() {
        let list = ids(&[1, 9]);
        let truth = ids(&[1, 2, 3, 4]);
        assert_eq!(recall_at_k(&list, &truth, 2), 0.25);
        assert_eq!(recall_at_k(&list, &[], 2), 0.0);
    }

    #[test]
    fn ndcg_perfect_ranking_is_one() {
        let truth = ids(&[1, 2]);
        assert!((ndcg_at_k(&ids(&[1, 2, 9]), &truth, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_penalises_late_hits() {
        let truth = ids(&[1]);
        let early = ndcg_at_k(&ids(&[1, 9, 8]), &truth, 3);
        let late = ndcg_at_k(&ids(&[9, 8, 1]), &truth, 3);
        assert!(early > late);
        assert_eq!(early, 1.0);
    }

    #[test]
    fn mean_over_queries_skips_empty_truths() {
        let lists = vec![ids(&[1]), ids(&[2])];
        let truths = vec![ids(&[1]), ids(&[])];
        let m = mean_over_queries(&lists, &truths, |l, t| precision_at_k(l, t, 1));
        assert_eq!(m, 1.0);
    }
}
