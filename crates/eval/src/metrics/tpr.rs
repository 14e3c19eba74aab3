//! Average True Positive Rate (Figure 4, §6.1.1 C.1.5).
//!
//! The fraction of recommended actions the user *did* perform at some
//! point — against the hidden 70 % for 43Things, or against the user's
//! other carts for FoodMart. The paper is careful to note this is not
//! precision (the user never saw the lists); it measures how much of each
//! list the user independently validated.

use goalrec_core::ActionId;

/// TPR of one list against a sorted ground-truth action set:
/// `|list ∩ truth| / |list|`; 0 for an empty list.
pub(crate) fn list_tpr(list: &[ActionId], truth_sorted: &[ActionId]) -> f64 {
    if list.is_empty() {
        return 0.0;
    }
    let hits = list
        .iter()
        .filter(|a| truth_sorted.binary_search(a).is_ok())
        .count();
    hits as f64 / list.len() as f64
}

/// Mean TPR over a batch; inputs with an empty ground truth are skipped
/// (nothing can be validated for them).
pub fn avg_tpr(lists: &[Vec<ActionId>], truths: &[Vec<ActionId>]) -> f64 {
    assert_eq!(lists.len(), truths.len());
    let mut n = 0usize;
    let mut sum = 0.0;
    for (list, truth) in lists.iter().zip(truths) {
        if truth.is_empty() {
            continue;
        }
        debug_assert!(
            truth.windows(2).all(|w| w[0] < w[1]),
            "truth must be sorted"
        );
        sum += list_tpr(list, truth);
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
    fn full_and_zero_hits() {
        assert_eq!(list_tpr(&ids(&[1, 2]), &ids(&[1, 2, 3])), 1.0);
        assert_eq!(list_tpr(&ids(&[8, 9]), &ids(&[1, 2, 3])), 0.0);
    }

    #[test]
    fn partial_hits() {
        assert_eq!(list_tpr(&ids(&[1, 8, 2, 9]), &ids(&[1, 2])), 0.5);
    }

    #[test]
    fn empty_list_is_zero() {
        assert_eq!(list_tpr(&[], &ids(&[1])), 0.0);
    }

    #[test]
    fn averaging_skips_empty_truths() {
        let lists = vec![ids(&[1, 2]), ids(&[1, 2]), ids(&[3])];
        let truths = vec![ids(&[1, 2]), ids(&[]), ids(&[4])];
        // Inputs 0 (tpr 1.0) and 2 (tpr 0.0) count.
        assert_eq!(avg_tpr(&lists, &truths), 0.5);
    }

    #[test]
    fn all_empty_is_zero() {
        assert_eq!(avg_tpr(&[], &[]), 0.0);
    }
}
