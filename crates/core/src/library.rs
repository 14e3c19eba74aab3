//! The goal implementation library `L` (Definition 3.1).
//!
//! A library is a set of *goal implementations*: pairs `(g, A)` of a goal and
//! the set of actions whose joint execution fulfils it. Several
//! implementations may exist for the same goal (alternative ways to fulfil
//! it), and the same action set may serve several goals.
//!
//! [`LibraryBuilder`] accepts implementations by *name* and interns the names
//! into dense [`ActionId`]/[`GoalId`] spaces; [`GoalLibrary`] is the immutable
//! result that [`crate::GoalModel`] compiles its indexes from.

use crate::error::{Error, Result};
use crate::ids::{ActionId, GoalId, ImplId, Interner};

use serde::{Deserialize, Serialize};

/// One goal implementation `p = (g, A)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Implementation {
    /// The goal this activity fulfils.
    pub goal: GoalId,
    /// The activity: a strictly increasing, duplicate-free set of actions.
    pub actions: Vec<ActionId>,
}

impl Implementation {
    /// Creates an implementation, normalising `actions` to a sorted set.
    pub(crate) fn new(goal: GoalId, mut actions: Vec<ActionId>) -> Self {
        actions.sort_unstable();
        actions.dedup();
        Self { goal, actions }
    }

    /// Number of actions required by this implementation.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the implementation has no actions (invalid in a built library).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The action ids as a raw `u32` slice for set algebra.
    pub fn action_raw(&self) -> &[u32] {
        cast_ids(&self.actions)
    }
}

fn cast_ids(ids: &[ActionId]) -> &[u32] {
    // SAFETY: ActionId is #[repr(transparent)] over u32, so a slice of
    // ActionId has the same layout as a slice of u32.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<u32>(), ids.len()) }
}

/// An immutable goal implementation library with interned names.
#[derive(Debug, Clone, Default)]
pub struct GoalLibrary {
    implementations: Vec<Implementation>,
    actions: Interner,
    goals: Interner,
}

impl GoalLibrary {
    /// All implementations, indexed by [`ImplId`] position.
    pub fn implementations(&self) -> &[Implementation] {
        &self.implementations
    }

    /// Looks up an implementation by id.
    pub fn implementation(&self, id: ImplId) -> Option<&Implementation> {
        self.implementations.get(id.index())
    }

    /// Number of implementations `|L|`.
    pub fn len(&self) -> usize {
        self.implementations.len()
    }

    /// Whether the library holds no implementations.
    pub fn is_empty(&self) -> bool {
        self.implementations.is_empty()
    }

    /// Number of distinct actions `|𝒜|`.
    pub fn num_actions(&self) -> usize {
        self.actions.len()
    }

    /// Number of distinct goals `|𝒢|`.
    pub fn num_goals(&self) -> usize {
        self.goals.len()
    }

    /// Action name dictionary (`A-idx`).
    pub fn action_names(&self) -> &Interner {
        &self.actions
    }

    /// Goal name dictionary (`G-idx`).
    pub fn goal_names(&self) -> &Interner {
        &self.goals
    }

    /// Resolves an action id to its name, falling back to the rendered id.
    pub fn action_name(&self, a: ActionId) -> String {
        self.resolve_action(a)
            .map(str::to_owned)
            .unwrap_or_else(|| a.to_string())
    }

    /// The interned name of action `a`, borrowed; `None` for an id the
    /// dictionary does not hold (which [`GoalLibrary::action_name`]
    /// renders as `a{id}`).
    pub fn resolve_action(&self, a: ActionId) -> Option<&str> {
        self.actions.resolve(a.raw())
    }

    /// Resolves a goal id to its name, falling back to the rendered id.
    pub fn goal_name(&self, g: GoalId) -> String {
        self.goals
            .resolve(g.raw())
            .map(str::to_owned)
            .unwrap_or_else(|| g.to_string())
    }

    /// Looks up an action id by name.
    pub fn action_id(&self, name: &str) -> Option<ActionId> {
        self.actions.get(name).map(ActionId::new)
    }

    /// Looks up a goal id by name.
    pub fn goal_id(&self, name: &str) -> Option<GoalId> {
        self.goals.get(name).map(GoalId::new)
    }

    /// Constructs a library directly from id-space implementations. Action
    /// and goal dictionaries get synthetic names (`a{i}`, `g{i}`). Used by
    /// the synthetic dataset generators, which work in id space.
    pub fn from_id_implementations(
        num_actions: u32,
        num_goals: u32,
        impls: Vec<(GoalId, Vec<ActionId>)>,
    ) -> Result<Self> {
        let mut actions = Interner::with_capacity(num_actions as usize);
        for i in 0..num_actions {
            actions.intern(&format!("a{i}"));
        }
        let mut goals = Interner::with_capacity(num_goals as usize);
        for i in 0..num_goals {
            goals.intern(&format!("g{i}"));
        }
        let mut implementations = Vec::with_capacity(impls.len());
        for (goal, acts) in impls {
            if goal.raw() >= num_goals {
                return Err(Error::UnknownGoal(goal.raw()));
            }
            if let Some(bad) = acts.iter().find(|a| a.raw() >= num_actions) {
                return Err(Error::UnknownAction(bad.raw()));
            }
            let imp = Implementation::new(goal, acts);
            if imp.is_empty() {
                return Err(Error::EmptyImplementation {
                    goal: goal.to_string(),
                });
            }
            implementations.push(imp);
        }
        if implementations.is_empty() {
            return Err(Error::EmptyLibrary);
        }
        Ok(Self {
            implementations,
            actions,
            goals,
        })
    }
}

/// Incremental builder for [`GoalLibrary`], interning names on the fly.
#[derive(Debug, Default)]
pub struct LibraryBuilder {
    implementations: Vec<Implementation>,
    actions: Interner,
    goals: Interner,
}

impl LibraryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one implementation by goal and action names. Duplicate action
    /// names within one implementation collapse to a set. Returns the id the
    /// implementation will have in the built library.
    pub fn add_impl<S, I>(&mut self, goal: &str, action_names: I) -> Result<ImplId>
    where
        S: AsRef<str>,
        I: IntoIterator<Item = S>,
    {
        let g = GoalId::new(self.goals.intern(goal));
        let acts: Vec<ActionId> = action_names
            .into_iter()
            .map(|n| ActionId::new(self.actions.intern(n.as_ref())))
            .collect();
        let imp = Implementation::new(g, acts);
        if imp.is_empty() {
            return Err(Error::EmptyImplementation {
                goal: goal.to_owned(),
            });
        }
        let id = ImplId::new(self.implementations.len() as u32);
        self.implementations.push(imp);
        Ok(id)
    }

    /// Finalises the library. Fails on an empty builder.
    pub fn build(self) -> Result<GoalLibrary> {
        if self.implementations.is_empty() {
            return Err(Error::EmptyLibrary);
        }
        Ok(GoalLibrary {
            implementations: self.implementations,
            actions: self.actions,
            goals: self.goals,
        })
    }
}

/// Summary statistics of a library; the quantities the paper reports for its
/// datasets (§6 "Dataset Description") and uses in the complexity analysis
/// (§5.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LibraryStats {
    /// `|L|` — number of implementations.
    pub num_implementations: usize,
    /// `|𝒜|` — number of distinct actions.
    pub num_actions: usize,
    /// `|𝒢|` — number of distinct goals.
    pub num_goals: usize,
    /// Mean number of implementations an action participates in — the
    /// paper's *connectivity* (≈1.2k for FoodMart, 3.84 for 43Things).
    pub connectivity: f64,
    /// Maximum connectivity over all actions.
    pub max_connectivity: usize,
    /// Mean implementation length `avg |A|`.
    pub avg_impl_len: f64,
    /// Maximum implementation length.
    pub max_impl_len: usize,
    /// Mean number of implementations per goal.
    pub avg_impls_per_goal: f64,
}

impl GoalLibrary {
    /// Computes [`LibraryStats`] in one pass.
    pub fn stats(&self) -> LibraryStats {
        let mut per_action = vec![0usize; self.num_actions()];
        let mut per_goal = vec![0usize; self.num_goals()];
        let mut total_len = 0usize;
        let mut max_len = 0usize;
        for imp in &self.implementations {
            total_len += imp.len();
            max_len = max_len.max(imp.len());
            per_goal[imp.goal.index()] += 1;
            for a in &imp.actions {
                per_action[a.index()] += 1;
            }
        }
        let used_actions = per_action.iter().filter(|&&c| c > 0).count().max(1);
        let used_goals = per_goal.iter().filter(|&&c| c > 0).count().max(1);
        LibraryStats {
            num_implementations: self.len(),
            num_actions: self.num_actions(),
            num_goals: self.num_goals(),
            connectivity: per_action.iter().sum::<usize>() as f64 / used_actions as f64,
            max_connectivity: per_action.iter().copied().max().unwrap_or(0),
            avg_impl_len: total_len as f64 / self.len().max(1) as f64,
            max_impl_len: max_len,
            avg_impls_per_goal: self.len() as f64 / used_goals as f64,
        }
    }
}

/// Raw-slice view of an implementation's actions, used by the model compiler.
pub(crate) fn actions_as_raw(imp: &Implementation) -> &[u32] {
    cast_ids(&imp.actions)
}

/// The one serialization shape shared by every stats surface.
///
/// `goalrec stats --json` and the server's `GET /v1/stats` both emit this
/// struct verbatim, so the two surfaces cannot drift: a field added here
/// appears in both, with identical names and nesting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsReport {
    /// Library shape statistics.
    pub stats: LibraryStats,
    /// Metrics snapshot, when the caller wants one alongside the stats
    /// (serialized as `null` otherwise).
    pub metrics: Option<goalrec_obs::MetricsReport>,
}

impl StatsReport {
    /// Bundles precomputed stats with an optional metrics snapshot.
    pub fn new(stats: LibraryStats, metrics: Option<goalrec_obs::MetricsReport>) -> Self {
        StatsReport { stats, metrics }
    }

    /// Pretty-printed JSON — the exact bytes both consumers emit.
    #[expect(
        clippy::expect_used,
        reason = "serializing a plain struct of names and numbers cannot fail; an error here is a serializer bug, not input"
    )]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("stats serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of the paper (Example 3.2, Figure 1): five
    /// outfits (implementations) over six items and five goals.
    pub(crate) fn example_library() -> GoalLibrary {
        let mut b = LibraryBuilder::new();
        // p1 = (g1, {a1, a2})          g1 = meeting friends
        // p2 = (g1, {a1, a3})
        // p3 = (g2, {a1, a4, a5})      g2 = going to the office
        // p4 = (g3, {a4, a6})          g3 = be warm
        // p5 = (g5, {a1, a2, a6})      g5 = hiking
        b.add_impl("meeting friends", ["a1", "a2"]).unwrap();
        b.add_impl("meeting friends", ["a1", "a3"]).unwrap();
        b.add_impl("going to the office", ["a1", "a4", "a5"])
            .unwrap();
        b.add_impl("be warm", ["a4", "a6"]).unwrap();
        b.add_impl("hiking", ["a1", "a2", "a6"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn implementation_normalises_actions() {
        let imp = Implementation::new(
            GoalId::new(0),
            vec![ActionId::new(3), ActionId::new(1), ActionId::new(3)],
        );
        assert_eq!(imp.actions, vec![ActionId::new(1), ActionId::new(3)]);
        assert_eq!(imp.len(), 2);
        assert!(!imp.is_empty());
        assert_eq!(imp.action_raw(), &[1, 3]);
    }

    #[test]
    fn builder_interns_names_densely() {
        let lib = example_library();
        assert_eq!(lib.len(), 5);
        assert_eq!(lib.num_actions(), 6);
        assert_eq!(lib.num_goals(), 4); // four distinct goal names
        assert_eq!(lib.action_id("a1"), Some(ActionId::new(0)));
        assert_eq!(lib.goal_id("meeting friends"), Some(GoalId::new(0)));
        assert_eq!(lib.goal_name(GoalId::new(2)), "be warm");
    }

    #[test]
    fn builder_rejects_empty_implementation() {
        let mut b = LibraryBuilder::new();
        let err = b
            .add_impl::<&str, _>("goal", std::iter::empty())
            .unwrap_err();
        assert!(matches!(err, Error::EmptyImplementation { .. }));
    }

    #[test]
    fn builder_rejects_empty_library() {
        assert_eq!(
            LibraryBuilder::new().build().unwrap_err(),
            Error::EmptyLibrary
        );
    }

    #[test]
    fn duplicate_actions_within_impl_collapse() {
        let mut b = LibraryBuilder::new();
        b.add_impl("g", ["x", "x", "y"]).unwrap();
        let lib = b.build().unwrap();
        assert_eq!(lib.implementations()[0].len(), 2);
    }

    #[test]
    fn from_id_implementations_validates_ranges() {
        let ok = GoalLibrary::from_id_implementations(
            3,
            2,
            vec![(GoalId::new(0), vec![ActionId::new(0), ActionId::new(2)])],
        )
        .unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok.action_name(ActionId::new(2)), "a2");

        let bad_goal = GoalLibrary::from_id_implementations(
            3,
            2,
            vec![(GoalId::new(5), vec![ActionId::new(0)])],
        );
        assert_eq!(bad_goal.unwrap_err(), Error::UnknownGoal(5));

        let bad_action = GoalLibrary::from_id_implementations(
            3,
            2,
            vec![(GoalId::new(0), vec![ActionId::new(7)])],
        );
        assert_eq!(bad_action.unwrap_err(), Error::UnknownAction(7));

        let empty = GoalLibrary::from_id_implementations(3, 2, vec![]);
        assert_eq!(empty.unwrap_err(), Error::EmptyLibrary);
    }

    #[test]
    fn stats_on_example() {
        let lib = example_library();
        let s = lib.stats();
        assert_eq!(s.num_implementations, 5);
        assert_eq!(s.num_actions, 6);
        assert_eq!(s.num_goals, 4);
        // a1 appears in p1,p2,p3,p5 → 4; a2 in p1,p5 → 2; a3 → 1; a4 → 2;
        // a5 → 1; a6 → 2. Total 12 over 6 used actions.
        assert!((s.connectivity - 2.0).abs() < 1e-12);
        assert_eq!(s.max_connectivity, 4);
        // lengths 2,2,3,2,3 → avg 2.4
        assert!((s.avg_impl_len - 2.4).abs() < 1e-12);
        assert_eq!(s.max_impl_len, 3);
        // goals: g0 has 2 impls, others 1 → 5/4
        assert!((s.avg_impls_per_goal - 1.25).abs() < 1e-12);
    }

    #[test]
    fn implementation_lookup() {
        let lib = example_library();
        assert!(lib.implementation(ImplId::new(0)).is_some());
        assert!(lib.implementation(ImplId::new(99)).is_none());
    }
}
