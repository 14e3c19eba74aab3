//! User-user similarity measures for neighbourhood CF.
//!
//! The paper's CF-kNN forms neighbourhoods with the Jaccard (a.k.a.
//! Tanimoto) coefficient because the feedback is implicit (§6 "Comparison
//! with the State-of-the-art"); cosine and overlap are provided for
//! ablation.

use goalrec_core::setops;
use serde::{Deserialize, Serialize};

/// Similarity measure between two action *sets* (sorted id slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub(crate) enum SetSimilarity {
    /// `|a∩b| / |a∪b|` — the paper's choice for implicit feedback.
    #[default]
    Tanimoto,
    /// `|a∩b| / √(|a|·|b|)` — cosine over binary vectors.
    Cosine,
    /// `|a∩b| / min(|a|, |b|)` — overlap coefficient.
    Overlap,
}

impl SetSimilarity {
    /// Computes the similarity of two sorted sets. Empty inputs score 0.
    pub(crate) fn compute(self, a: &[u32], b: &[u32]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let inter = setops::intersection_len(a, b) as f64;
        match self {
            SetSimilarity::Tanimoto => inter / (a.len() as f64 + b.len() as f64 - inter),
            SetSimilarity::Cosine => inter / ((a.len() as f64) * (b.len() as f64)).sqrt(),
            SetSimilarity::Overlap => inter / a.len().min(b.len()) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tanimoto_matches_jaccard() {
        assert!((SetSimilarity::Tanimoto.compute(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(SetSimilarity::Tanimoto.compute(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(SetSimilarity::Tanimoto.compute(&[1], &[2]), 0.0);
    }

    #[test]
    fn cosine_binary() {
        // |a∩b|=1, |a|=1, |b|=4 → 1/2.
        assert!((SetSimilarity::Cosine.compute(&[1], &[1, 2, 3, 4]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_is_one_on_subset() {
        assert_eq!(SetSimilarity::Overlap.compute(&[1, 2], &[1, 2, 3, 4]), 1.0);
    }

    #[test]
    fn empty_sets_score_zero() {
        for s in [
            SetSimilarity::Tanimoto,
            SetSimilarity::Cosine,
            SetSimilarity::Overlap,
        ] {
            assert_eq!(s.compute(&[], &[1]), 0.0);
            assert_eq!(s.compute(&[1], &[]), 0.0);
        }
    }

    proptest! {
        #[test]
        fn prop_bounded_and_symmetric(
            a in proptest::collection::btree_set(0u32..100, 1..30),
            b in proptest::collection::btree_set(0u32..100, 1..30)
        ) {
            let a: Vec<u32> = a.into_iter().collect();
            let b: Vec<u32> = b.into_iter().collect();
            for s in [SetSimilarity::Tanimoto, SetSimilarity::Cosine, SetSimilarity::Overlap] {
                let v = s.compute(&a, &b);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "{s:?} out of range: {v}");
                prop_assert!((v - s.compute(&b, &a)).abs() < 1e-12);
            }
        }

        #[test]
        fn prop_identical_sets_score_one(
            a in proptest::collection::btree_set(0u32..100, 1..30)
        ) {
            let a: Vec<u32> = a.into_iter().collect();
            for s in [SetSimilarity::Tanimoto, SetSimilarity::Cosine, SetSimilarity::Overlap] {
                prop_assert!((s.compute(&a, &a) - 1.0).abs() < 1e-12);
            }
        }
    }
}
