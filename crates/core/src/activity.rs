//! User activity `H` — the set of actions the user has already performed.

use crate::ids::ActionId;
use crate::setops;
use serde::{Deserialize, Serialize};

/// A user activity: a strictly increasing, duplicate-free set of action ids.
///
/// The recommendation setting (§3) treats the activity as a *set*: repeated
/// performances of the same action carry no extra weight in any of the
/// paper's strategies, so duplicates are collapsed at construction.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Activity(Vec<u32>);

impl Activity {
    /// Creates an empty activity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an activity from any iterator of actions; sorts and dedups.
    pub fn from_actions<I: IntoIterator<Item = ActionId>>(actions: I) -> Self {
        let mut v: Vec<u32> = actions.into_iter().map(ActionId::raw).collect();
        setops::normalize(&mut v);
        Self(v)
    }

    /// Builds an activity from raw ids; sorts and dedups.
    pub fn from_raw<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        let mut v: Vec<u32> = ids.into_iter().collect();
        setops::normalize(&mut v);
        Self(v)
    }

    /// The sorted raw id slice — the representation all strategies consume.
    #[inline]
    pub fn raw(&self) -> &[u32] {
        &self.0
    }

    /// Iterates the actions in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = ActionId> + '_ {
        self.0.iter().copied().map(ActionId::new)
    }

    /// Number of distinct actions performed.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the user has performed no action.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, a: ActionId) -> bool {
        setops::contains(&self.0, a.raw())
    }

    /// Returns a new activity extended with `extra` actions — models the
    /// user *following* a recommendation list, which is how the usefulness
    /// experiment (§6.1.1 C.1.3) measures post-recommendation completeness.
    pub fn extended<I: IntoIterator<Item = ActionId>>(&self, extra: I) -> Self {
        let extra_ids: Vec<u32> = extra.into_iter().map(ActionId::raw).collect();
        let mut sorted = extra_ids;
        setops::normalize(&mut sorted);
        Self(setops::union(&self.0, &sorted))
    }
}

impl FromIterator<ActionId> for Activity {
    fn from_iter<I: IntoIterator<Item = ActionId>>(iter: I) -> Self {
        Self::from_actions(iter)
    }
}

impl From<Vec<u32>> for Activity {
    fn from(v: Vec<u32>) -> Self {
        Self::from_raw(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_normalises() {
        let h = Activity::from_raw([3, 1, 3, 2]);
        assert_eq!(h.raw(), &[1, 2, 3]);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn empty_activity() {
        let h = Activity::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert!(!h.contains(ActionId::new(0)));
    }

    #[test]
    fn contains() {
        let h = Activity::from_raw([1, 5]);
        assert!(h.contains(ActionId::new(5)));
        assert!(!h.contains(ActionId::new(3)));
    }

    #[test]
    fn extended_unions_without_mutation() {
        let h = Activity::from_raw([1, 2]);
        let h2 = h.extended([ActionId::new(2), ActionId::new(9), ActionId::new(0)]);
        assert_eq!(h.raw(), &[1, 2]);
        assert_eq!(h2.raw(), &[0, 1, 2, 9]);
    }

    #[test]
    fn iter_yields_action_ids_in_order() {
        let h = Activity::from_raw([4, 2]);
        let v: Vec<ActionId> = h.iter().collect();
        assert_eq!(v, vec![ActionId::new(2), ActionId::new(4)]);
    }

    #[test]
    fn from_iterator_and_from_vec() {
        let h: Activity = vec![ActionId::new(2), ActionId::new(1)]
            .into_iter()
            .collect();
        assert_eq!(h.raw(), &[1, 2]);
        let h2: Activity = vec![7u32, 7, 0].into();
        assert_eq!(h2.raw(), &[0, 7]);
    }

    proptest! {
        #[test]
        fn prop_always_strictly_sorted(v in proptest::collection::vec(0u32..1000, 0..100)) {
            let h = Activity::from_raw(v);
            prop_assert!(crate::setops::is_strictly_sorted(h.raw()));
        }

    }
}
