//! Training data shared by all baselines: implicit-feedback user histories.
//!
//! The paper's baselines are trained on the same inputs the goal-based
//! methods receive at query time — the carts / user activities — but used
//! as a *training corpus*: CF-kNN forms neighbourhoods over them, ALS-WR
//! factorises the user-action matrix they induce, Apriori mines their
//! co-occurrence, and popularity counts their frequencies.

use goalrec_core::Activity;
use serde::{Deserialize, Serialize};

/// A corpus of user activities with implicit (selected / not-selected)
/// feedback over a fixed action universe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingSet {
    /// One activity per training user (or per cart, in the grocery case).
    pub users: Vec<Activity>,
    /// Size of the action id space.
    pub num_actions: usize,
}

impl TrainingSet {
    /// Creates a training set; activities must only reference ids below
    /// `num_actions`.
    pub fn new(users: Vec<Activity>, num_actions: usize) -> Self {
        debug_assert!(users
            .iter()
            .all(|u| u.raw().iter().all(|&a| (a as usize) < num_actions)));
        Self { users, num_actions }
    }

    /// Number of training users.
    pub(crate) fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Global selection count of every action — the popularity profile used
    /// by the popularity baseline and the Table 3 correlation study.
    pub fn action_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_actions];
        for u in &self.users {
            for &a in u.raw() {
                counts[a as usize] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_actions_across_users() {
        let t = TrainingSet::new(
            vec![
                Activity::from_raw([0, 1]),
                Activity::from_raw([1, 2]),
                Activity::from_raw([1]),
            ],
            4,
        );
        assert_eq!(t.num_users(), 3);
        assert_eq!(t.action_counts(), vec![1, 3, 1, 0]);
    }

    #[test]
    fn empty_training_set() {
        let t = TrainingSet::new(vec![], 3);
        assert_eq!(t.num_users(), 0);
        assert_eq!(t.action_counts(), vec![0, 0, 0]);
    }
}
