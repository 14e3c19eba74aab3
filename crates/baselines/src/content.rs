//! Content-based filtering (the paper's "Content" baseline, §6).
//!
//! Actions are described by sparse domain-specific feature vectors (for
//! FoodMart: the 128 product (sub)categories plus their top-level classes).
//! The user profile is the mean of the feature vectors of the actions in
//! the activity; candidates are ranked by cosine similarity to the profile.
//! This is the method whose recommendation lists are maximally
//! self-similar (Table 5: average pairwise similarity ≈ 0.8).

use goalrec_core::{ActionId, Activity, Recommender, Scored};
use std::collections::BTreeMap;

/// Sparse feature vectors, one per action.
#[derive(Debug, Clone, Default)]
pub struct ItemFeatures {
    vectors: Vec<Vec<(u32, f64)>>,
    norms: Vec<f64>,
}

impl ItemFeatures {
    /// Creates the feature table; each action's vector is a sparse list of
    /// `(dimension, weight)` pairs.
    pub fn new(vectors: Vec<Vec<(u32, f64)>>) -> Self {
        let norms = vectors
            .iter()
            .map(|v| v.iter().map(|(_, w)| w * w).sum::<f64>().sqrt())
            .collect();
        Self { vectors, norms }
    }

    /// Number of actions.
    pub(crate) fn len(&self) -> usize {
        self.vectors.len()
    }

    /// The sparse vector of one action.
    pub(crate) fn vector(&self, a: ActionId) -> &[(u32, f64)] {
        &self.vectors[a.index()]
    }

    /// Cosine similarity between two actions' feature vectors — the
    /// pairwise similarity of Table 5.
    pub fn pairwise_similarity(&self, a: ActionId, b: ActionId) -> f64 {
        let (na, nb) = (self.norms[a.index()], self.norms[b.index()]);
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        sparse_dot(&self.vectors[a.index()], &self.vectors[b.index()]) / (na * nb)
    }
}

fn sparse_dot(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    // Feature vectors are tiny (a handful of dims); a nested scan beats
    // hashing.
    let mut dot = 0.0;
    for &(da, wa) in a {
        for &(db, wb) in b {
            if da == db {
                dot += wa * wb;
            }
        }
    }
    dot
}

/// The content-based recommender.
#[derive(Debug, Clone)]
pub struct ContentBased {
    features: ItemFeatures,
}

impl ContentBased {
    /// Creates a content-based recommender from item features.
    pub fn new(features: ItemFeatures) -> Self {
        Self { features }
    }

    /// The dense-as-map user profile: mean of the activity's vectors.
    /// A `BTreeMap` keeps every float accumulation in dimension order, so
    /// scores are bit-for-bit reproducible across runs.
    pub(crate) fn profile(&self, activity: &Activity) -> BTreeMap<u32, f64> {
        let mut p: BTreeMap<u32, f64> = BTreeMap::new();
        for a in activity.iter() {
            if a.index() >= self.features.len() {
                continue;
            }
            for &(d, w) in self.features.vector(a) {
                *p.entry(d).or_insert(0.0) += w;
            }
        }
        let n = activity.len().max(1) as f64;
        for v in p.values_mut() {
            *v /= n;
        }
        p
    }
}

impl Recommender for ContentBased {
    fn name(&self) -> String {
        "Content".to_owned()
    }

    fn recommend(&self, activity: &Activity, k: usize) -> Vec<Scored> {
        if k == 0 || activity.is_empty() {
            return Vec::new();
        }
        let profile = self.profile(activity);
        if profile.is_empty() {
            return Vec::new();
        }
        let pnorm: f64 = profile.values().map(|w| w * w).sum::<f64>().sqrt();
        goalrec_core::topk::top_k(
            (0..self.features.len() as u32)
                .filter(|&a| !activity.contains(ActionId::new(a)))
                .filter_map(|a| {
                    let id = ActionId::new(a);
                    let vnorm = self.features.norms[id.index()];
                    if vnorm == 0.0 {
                        return None;
                    }
                    let dot: f64 = self
                        .features
                        .vector(id)
                        .iter()
                        .map(|(d, w)| profile.get(d).copied().unwrap_or(0.0) * w)
                        .sum();
                    Some(Scored::new(id, dot / (pnorm * vnorm)))
                }),
            k,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Items 0-2 share category 0; items 3-4 share category 1; item 5 has
    /// no features.
    fn features() -> ItemFeatures {
        ItemFeatures::new(vec![
            vec![(0, 1.0)],
            vec![(0, 1.0)],
            vec![(0, 1.0), (7, 0.5)],
            vec![(1, 1.0)],
            vec![(1, 1.0)],
            vec![],
        ])
    }

    #[test]
    fn recommends_same_category_items() {
        let cb = ContentBased::new(features());
        let h = Activity::from_raw([0]);
        let recs = cb.recommend(&h, 3);
        // Items 1 and 2 (category 0) must precede 3 and 4 (category 1).
        assert_eq!(recs[0].action, ActionId::new(1));
        assert_eq!(recs[1].action, ActionId::new(2));
        assert!(recs[0].score > 0.99);
    }

    #[test]
    fn featureless_items_are_never_recommended() {
        let cb = ContentBased::new(features());
        let recs = cb.recommend(&Activity::from_raw([0]), 10);
        assert!(recs.iter().all(|r| r.action != ActionId::new(5)));
    }

    #[test]
    fn profile_averages_vectors() {
        let cb = ContentBased::new(features());
        let p = cb.profile(&Activity::from_raw([0, 3]));
        assert_eq!(p.get(&0), Some(&0.5));
        assert_eq!(p.get(&1), Some(&0.5));
    }

    #[test]
    fn pairwise_similarity_values() {
        let f = features();
        assert_eq!(
            f.pairwise_similarity(ActionId::new(0), ActionId::new(1)),
            1.0
        );
        assert_eq!(
            f.pairwise_similarity(ActionId::new(0), ActionId::new(3)),
            0.0
        );
        assert_eq!(
            f.pairwise_similarity(ActionId::new(0), ActionId::new(5)),
            0.0
        );
        // Item 2 has an extra feature dim, so similarity to 0 is < 1.
        let s = f.pairwise_similarity(ActionId::new(0), ActionId::new(2));
        assert!(s > 0.8 && s < 1.0);
    }

    #[test]
    fn empty_activity_zero_k_and_unknown_actions() {
        let cb = ContentBased::new(features());
        assert!(cb.recommend(&Activity::new(), 5).is_empty());
        assert!(cb.recommend(&Activity::from_raw([0]), 0).is_empty());
        // Activity of only-unknown ids → empty profile → empty list.
        assert!(cb.recommend(&Activity::from_raw([99]), 5).is_empty());
    }

    #[test]
    fn never_recommends_performed() {
        let cb = ContentBased::new(features());
        let h = Activity::from_raw([0, 1]);
        for r in cb.recommend(&h, 10) {
            assert!(!h.contains(r.action));
        }
    }

    #[test]
    fn accessors() {
        let f = features();
        assert_eq!(f.len(), 6);
        assert_eq!(f.vector(ActionId::new(2)).len(), 2);
        assert_eq!(ContentBased::new(f).name(), "Content");
    }
}
