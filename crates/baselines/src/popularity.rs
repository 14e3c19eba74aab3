//! Popularity baseline: recommend the globally most-selected actions.
//!
//! Not one of the paper's compared systems, but the natural reference
//! point for the Table 3 popularity-correlation study — by construction
//! its lists correlate perfectly with the top-popular actions, bounding
//! what "perpetuating collective behaviour" looks like.

use crate::training::TrainingSet;
use goalrec_core::{ActionId, Activity, Recommender, Scored};

/// Most-popular recommender.
#[derive(Debug, Clone)]
pub struct Popularity {
    counts: Vec<u32>,
}

impl Popularity {
    /// Counts selections over the training corpus.
    pub fn from_training(training: &TrainingSet) -> Self {
        Self {
            counts: training.action_counts(),
        }
    }
}

impl Recommender for Popularity {
    fn name(&self) -> String {
        "Popularity".to_owned()
    }

    fn recommend(&self, activity: &Activity, k: usize) -> Vec<Scored> {
        if k == 0 {
            return Vec::new();
        }
        goalrec_core::topk::top_k(
            self.counts
                .iter()
                .enumerate()
                .filter(|&(a, &c)| c > 0 && !activity.contains(ActionId::new(a as u32)))
                .map(|(a, &c)| Scored::new(ActionId::new(a as u32), c as f64)),
            k,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop() -> Popularity {
        Popularity::from_training(&TrainingSet::new(
            vec![
                Activity::from_raw([0, 1]),
                Activity::from_raw([1, 2]),
                Activity::from_raw([1, 2]),
                Activity::from_raw([2]),
            ],
            5,
        ))
    }

    #[test]
    fn ranks_by_count() {
        let recs = pop().recommend(&Activity::new(), 5);
        let ids: Vec<u32> = recs.iter().map(|r| r.action.raw()).collect();
        assert_eq!(ids, vec![1, 2, 0]); // counts 3, 3, 1 — tie by id
        assert_eq!(recs[0].score, 3.0);
    }

    #[test]
    fn excludes_performed_and_unseen() {
        let recs = pop().recommend(&Activity::from_raw([1]), 5);
        let ids: Vec<u32> = recs.iter().map(|r| r.action.raw()).collect();
        assert_eq!(ids, vec![2, 0]);
        // Actions 3 and 4 never selected → never recommended.
        assert!(!ids.contains(&3) && !ids.contains(&4));
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(pop().name(), "Popularity");
    }

    #[test]
    fn zero_k() {
        assert!(pop().recommend(&Activity::new(), 0).is_empty());
    }
}
