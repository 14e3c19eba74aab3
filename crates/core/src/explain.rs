//! Explanations: *why* was an action recommended?
//!
//! Goal-based recommendations have a property similarity-based methods
//! lack: every suggestion is justified by concrete goal implementations.
//! [`explain`] reconstructs that justification — for a recommended action,
//! the goals it advances given the user's activity, each with the
//! implementation it rides on, the completeness before and after
//! performing the action, and what would still be missing.

use crate::activity::Activity;
use crate::ids::{ActionId, GoalId, ImplId};
use crate::model::GoalModel;
use crate::setops;
use serde::{Deserialize, Serialize};

/// The contribution of a recommended action to one goal implementation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Justification {
    /// The goal advanced.
    pub goal: GoalId,
    /// The implementation through which the action contributes.
    pub implementation: ImplId,
    /// `|A ∩ H| / |A|` before performing the action.
    pub completeness_before: f64,
    /// Completeness after performing it.
    pub completeness_after: f64,
    /// Actions still missing after performing it (sorted).
    pub still_missing: Vec<ActionId>,
}

impl Justification {}

/// An explanation for one recommended action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// The recommended action.
    pub action: ActionId,
    /// Its justifications, strongest first (highest completeness-after,
    /// then fewest still-missing, then implementation id).
    pub justifications: Vec<Justification>,
}

impl Explanation {}

/// Explains a recommended action against an activity.
///
/// Only implementations *associated with the user* are reported: the
/// action must contribute (`a ∈ A`) and the implementation's goal must be
/// in the user's goal space (mirroring the candidate universe of §5).
/// `max_justifications` caps the output (0 = unlimited).
///
/// ```
/// use goalrec_core::{explain, Activity, GoalModel, LibraryBuilder};
///
/// let mut b = LibraryBuilder::new();
/// b.add_impl("salad", ["potatoes", "pickles"]).unwrap();
/// let lib = b.build().unwrap();
/// let model = GoalModel::build(&lib).unwrap();
/// let cart = Activity::from_actions([lib.action_id("potatoes").unwrap()]);
///
/// let ex = explain(&model, &cart, lib.action_id("pickles").unwrap(), 0);
/// assert_eq!(ex.justifications.len(), 1);
/// assert!(ex.justifications[0].still_missing.is_empty());
/// ```
pub fn explain(
    model: &GoalModel,
    activity: &Activity,
    action: ActionId,
    max_justifications: usize,
) -> Explanation {
    let h = activity.raw();
    let goal_space = model.goal_space(h);
    let mut justifications: Vec<Justification> = Vec::new();

    for &p in model.action_impls(action) {
        let pid = ImplId::new(p);
        let goal = model.impl_goal(pid);
        if !setops::contains(&goal_space, goal.raw()) {
            continue;
        }
        let actions = model.impl_actions(pid);
        let len = actions.len() as f64;
        let before = setops::intersection_len(actions, h) as f64 / len;
        let mut missing = setops::difference(actions, h);
        missing.retain(|&a| a != action.raw());
        let after = (len - missing.len() as f64) / len;
        justifications.push(Justification {
            goal,
            implementation: pid,
            completeness_before: before,
            completeness_after: after,
            still_missing: missing.into_iter().map(ActionId::new).collect(),
        });
    }

    justifications.sort_by(|a, b| {
        b.completeness_after
            .partial_cmp(&a.completeness_after)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.still_missing.len().cmp(&b.still_missing.len()))
            .then_with(|| a.implementation.cmp(&b.implementation))
    });
    if max_justifications > 0 {
        justifications.truncate(max_justifications);
    }
    Explanation {
        action,
        justifications,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryBuilder;

    /// g1: {a,b}; g1 alt: {a,c}; g2: {a,d,e}; g3: {d,f}.
    fn model() -> (GoalModel, crate::library::GoalLibrary) {
        let mut b = LibraryBuilder::new();
        b.add_impl("g1", ["a", "b"]).unwrap();
        b.add_impl("g1", ["a", "c"]).unwrap();
        b.add_impl("g2", ["a", "d", "e"]).unwrap();
        b.add_impl("g3", ["d", "f"]).unwrap();
        let lib = b.build().unwrap();
        (GoalModel::build(&lib).unwrap(), lib)
    }

    #[test]
    fn explains_completion_and_progress() {
        let (m, lib) = model();
        // H = {a}: recommending b completes g1 (impl 0).
        let h = Activity::from_actions([lib.action_id("a").unwrap()]);
        let ex = explain(&m, &h, lib.action_id("b").unwrap(), 0);
        assert_eq!(ex.justifications.len(), 1);
        let j = &ex.justifications[0];
        assert_eq!(j.goal, lib.goal_id("g1").unwrap());
        assert_eq!(j.completeness_before, 0.5);
        assert_eq!(j.completeness_after, 1.0);
        assert!(j.still_missing.is_empty());
    }

    #[test]
    fn partial_progress_lists_missing_actions() {
        let (m, lib) = model();
        let h = Activity::from_actions([lib.action_id("a").unwrap()]);
        // d advances g2 ({a,d,e}: 1/3 → 2/3, missing e); its g3 impl is
        // outside the goal space of {a}, so it is not reported.
        let ex = explain(&m, &h, lib.action_id("d").unwrap(), 0);
        assert_eq!(ex.justifications.len(), 1);
        let j = &ex.justifications[0];
        assert_eq!(j.goal, lib.goal_id("g2").unwrap());
        assert!((j.completeness_before - 1.0 / 3.0).abs() < 1e-12);
        assert!((j.completeness_after - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(j.still_missing, vec![lib.action_id("e").unwrap()]);
    }

    #[test]
    fn justifications_sorted_strongest_first() {
        let (m, lib) = model();
        // H = {b, c, d, e}: action a contributes to impls 0 (g1, after
        // 1.0), 1 (g1 alt, after 1.0), 2 (g2, after 1.0) — all complete;
        // order falls back to implementation id.
        let h = Activity::from_actions(
            ["b", "c", "d", "e"]
                .iter()
                .map(|n| lib.action_id(n).unwrap()),
        );
        let ex = explain(&m, &h, lib.action_id("a").unwrap(), 0);
        assert_eq!(ex.justifications.len(), 3);
        assert!(ex
            .justifications
            .windows(2)
            .all(|w| { w[0].completeness_after >= w[1].completeness_after }));
        assert!(ex.justifications.iter().all(|j| j.still_missing.is_empty()));
    }

    #[test]
    fn cap_limits_output() {
        let (m, lib) = model();
        let h = Activity::from_actions(
            ["b", "c", "d", "e"]
                .iter()
                .map(|n| lib.action_id(n).unwrap()),
        );
        let ex = explain(&m, &h, lib.action_id("a").unwrap(), 2);
        assert_eq!(ex.justifications.len(), 2);
    }

    #[test]
    fn action_outside_goal_space_yields_empty() {
        let (m, lib) = model();
        // H = {b}: goal space = {g1}. f only serves g3 → no justification.
        let h = Activity::from_actions([lib.action_id("b").unwrap()]);
        let ex = explain(&m, &h, lib.action_id("f").unwrap(), 0);
        assert!(ex.justifications.is_empty());
    }
}
