//! Recommendation-list overlap (Tables 2 and 6).
//!
//! The paper quantifies how different two methods' outputs are by the
//! percentage of common actions in their top-k lists, averaged over all
//! inputs.

use goalrec_core::ActionId;

/// Overlap of two single lists: `|a ∩ b| / max(|a|, |b|)` (0 when both are
/// empty). Using the longer list as denominator keeps the measure honest
/// when one method returns a short list.
pub(crate) fn list_overlap(a: &[ActionId], b: &[ActionId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let sa: std::collections::HashSet<ActionId> = a.iter().copied().collect();
    let common = b.iter().filter(|x| sa.contains(x)).count();
    common as f64 / a.len().max(b.len()) as f64
}

/// Mean overlap over paired lists (one pair per input activity).
///
/// # Panics
/// Panics if the two methods produced a different number of lists.
pub(crate) fn mean_overlap(a: &[Vec<ActionId>], b: &[Vec<ActionId>]) -> f64 {
    assert_eq!(a.len(), b.len(), "methods must rank the same inputs");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a.iter().zip(b).map(|(x, y)| list_overlap(x, y)).sum();
    sum / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ActionId> {
        v.iter().map(|&x| ActionId::new(x)).collect()
    }

    #[test]
    fn identical_lists_overlap_fully() {
        assert_eq!(list_overlap(&ids(&[1, 2, 3]), &ids(&[1, 2, 3])), 1.0);
    }

    #[test]
    fn disjoint_lists_overlap_zero() {
        assert_eq!(list_overlap(&ids(&[1, 2]), &ids(&[3, 4])), 0.0);
    }

    #[test]
    fn partial_overlap_uses_longer_denominator() {
        // common = 1, max len = 4.
        assert_eq!(list_overlap(&ids(&[1]), &ids(&[1, 2, 3, 4])), 0.25);
    }

    #[test]
    fn empty_handling() {
        assert_eq!(list_overlap(&[], &[]), 0.0);
        assert_eq!(list_overlap(&ids(&[1]), &[]), 0.0);
    }

    #[test]
    fn mean_over_pairs() {
        let a = vec![ids(&[1, 2]), ids(&[3, 4])];
        let b = vec![ids(&[1, 2]), ids(&[5, 6])];
        assert_eq!(mean_overlap(&a, &b), 0.5);
        assert_eq!(mean_overlap(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "same inputs")]
    fn mismatched_list_counts_panic() {
        mean_overlap(&[ids(&[1])], &[]);
    }
}
