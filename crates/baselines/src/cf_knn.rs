//! Nearest-neighbour collaborative filtering (the paper's "CF KNN", §6).
//!
//! The classic user-based kNN recommender over implicit feedback \[20\]:
//! find the `n` training users most similar to the query activity
//! (Tanimoto coefficient by default, since the feedback is selection /
//! non-selection), then score each candidate action by the summed
//! similarity of the neighbours who selected it.

use crate::similarity::SetSimilarity;
use crate::training::TrainingSet;
use goalrec_core::{ActionId, Activity, Recommender, Scored};
use std::collections::HashMap;

/// User-based kNN collaborative filtering.
#[derive(Debug, Clone)]
pub struct CfKnn {
    training: TrainingSet,
    neighbourhood: usize,
    similarity: SetSimilarity,
}

impl CfKnn {
    /// Creates a kNN recommender over a training corpus with a
    /// neighbourhood of `n` users.
    pub(crate) fn new(
        training: TrainingSet,
        neighbourhood: usize,
        similarity: SetSimilarity,
    ) -> Self {
        assert!(neighbourhood > 0, "neighbourhood must be positive");
        Self {
            training,
            neighbourhood,
            similarity,
        }
    }

    /// Paper configuration: Tanimoto similarity.
    pub fn tanimoto(training: TrainingSet, neighbourhood: usize) -> Self {
        Self::new(training, neighbourhood, SetSimilarity::Tanimoto)
    }

    /// The `n` most similar training users (index, similarity), similarity
    /// descending, ties by index; zero-similarity users are excluded.
    pub(crate) fn neighbours(&self, activity: &Activity) -> Vec<(usize, f64)> {
        let mut sims: Vec<(usize, f64)> = self
            .training
            .users
            .iter()
            .enumerate()
            .filter_map(|(i, u)| {
                let s = self.similarity.compute(activity.raw(), u.raw());
                (s > 0.0).then_some((i, s))
            })
            .collect();
        sims.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        sims.truncate(self.neighbourhood);
        sims
    }
}

impl Recommender for CfKnn {
    fn name(&self) -> String {
        "CF-kNN".to_owned()
    }

    fn recommend(&self, activity: &Activity, k: usize) -> Vec<Scored> {
        if k == 0 || activity.is_empty() {
            return Vec::new();
        }
        let mut scores: HashMap<u32, f64> = HashMap::new();
        for (user, sim) in self.neighbours(activity) {
            for &a in self.training.users[user].raw() {
                if !activity.contains(ActionId::new(a)) {
                    *scores.entry(a).or_insert(0.0) += sim;
                }
            }
        }
        goalrec_core::topk::top_k(
            scores
                .into_iter()
                .map(|(a, s)| Scored::new(ActionId::new(a), s)),
            k,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training() -> TrainingSet {
        TrainingSet::new(
            vec![
                Activity::from_raw([0, 1, 2]),    // u0
                Activity::from_raw([0, 1, 3]),    // u1
                Activity::from_raw([5, 6, 7]),    // u2 (disjoint cluster)
                Activity::from_raw([0, 2, 3, 4]), // u3
            ],
            8,
        )
    }

    #[test]
    fn neighbours_are_similarity_ordered() {
        let cf = CfKnn::tanimoto(training(), 10);
        let h = Activity::from_raw([0, 1]);
        let n = cf.neighbours(&h);
        // u0: 2/3, u1: 2/3, u3: 1/5, u2: 0 (excluded).
        assert_eq!(n.len(), 3);
        assert_eq!(n[0].0, 0);
        assert_eq!(n[1].0, 1);
        assert_eq!(n[2].0, 2 + 1); // u3
        assert!(n[0].1 >= n[1].1 && n[1].1 > n[2].1);
    }

    #[test]
    fn neighbourhood_size_truncates() {
        let cf = CfKnn::tanimoto(training(), 1);
        let h = Activity::from_raw([0, 1]);
        assert_eq!(cf.neighbours(&h).len(), 1);
    }

    #[test]
    fn recommends_neighbour_items_not_in_activity() {
        let cf = CfKnn::tanimoto(training(), 2);
        let h = Activity::from_raw([0, 1]);
        let recs = cf.recommend(&h, 5);
        // Neighbours u0 {0,1,2} and u1 {0,1,3} contribute 2 and 3.
        let ids: Vec<u32> = recs.iter().map(|r| r.action.raw()).collect();
        assert!(ids.contains(&2) && ids.contains(&3));
        assert!(!ids.contains(&0) && !ids.contains(&1));
    }

    #[test]
    fn follows_the_crowd_not_the_goal_structure() {
        // The philosophical difference the paper stresses: kNN can only
        // surface actions seen in similar users' histories.
        let cf = CfKnn::tanimoto(training(), 4);
        let h = Activity::from_raw([0, 1]);
        for rec in cf.recommend(&h, 8) {
            let in_some_neighbour = training().users.iter().any(|u| u.contains(rec.action));
            assert!(in_some_neighbour);
        }
    }

    #[test]
    fn empty_activity_or_no_overlap_yields_empty() {
        let cf = CfKnn::tanimoto(training(), 3);
        assert!(cf.recommend(&Activity::new(), 5).is_empty());
        let stranger = Activity::from_raw([9, 10]); // ids unseen in training
        assert!(cf.recommend(&stranger, 5).is_empty());
    }

    #[test]
    fn respects_k() {
        let cf = CfKnn::tanimoto(training(), 4);
        let h = Activity::from_raw([0]);
        assert!(cf.recommend(&h, 2).len() <= 2);
        assert!(cf.recommend(&h, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "neighbourhood")]
    fn zero_neighbourhood_rejected() {
        CfKnn::tanimoto(training(), 0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(CfKnn::tanimoto(training(), 2).name(), "CF-kNN");
    }
}
