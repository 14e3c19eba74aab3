//! CSR equivalence properties.
//!
//! The flattened index layout (one `offsets` + `data` pair per index) must
//! be observationally identical to the per-row boxed layout it replaced:
//! for any library, every accessor row, every space operator, and every
//! strategy's full ranking must match a reference computed directly from
//! the library with per-row `Box<[u32]>` posting lists — bit for bit.

use goalrec_core::strategies::default_strategies;
use goalrec_core::{ActionId, Activity, GoalId, GoalLibrary, GoalModel, ImplId, LiveRef, Scratch};
use proptest::prelude::*;

const MAX_ACTIONS: u32 = 18;
const MAX_GOALS: u32 = 7;

/// The pre-CSR layout, rebuilt naively from the library: one boxed sorted
/// row per implementation / goal / action.
struct BoxedIndexes {
    impl_actions: Vec<Box<[u32]>>,
    impl_goal: Vec<u32>,
    goal_impls: Vec<Box<[u32]>>,
    action_impls: Vec<Box<[u32]>>,
}

impl BoxedIndexes {
    fn build(lib: &GoalLibrary) -> Self {
        let num_actions = lib.num_actions();
        let num_goals = lib.num_goals();
        let mut impl_actions = Vec::new();
        let mut impl_goal = Vec::new();
        let mut goal_impls = vec![Vec::new(); num_goals];
        let mut action_impls = vec![Vec::new(); num_actions];
        for (i, imp) in lib.implementations().iter().enumerate() {
            let row: Vec<u32> = imp.actions.iter().map(|a| a.raw()).collect();
            for &a in &row {
                action_impls[a as usize].push(i as u32);
            }
            goal_impls[imp.goal.raw() as usize].push(i as u32);
            impl_actions.push(row.into_boxed_slice());
            impl_goal.push(imp.goal.raw());
        }
        BoxedIndexes {
            impl_actions,
            impl_goal,
            goal_impls: goal_impls.into_iter().map(Vec::into_boxed_slice).collect(),
            action_impls: action_impls
                .into_iter()
                .map(Vec::into_boxed_slice)
                .collect(),
        }
    }

    /// `IS(H)`: union of `action_impls` rows, sorted and deduplicated.
    fn implementation_space(&self, h: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = h
            .iter()
            .filter(|&&a| (a as usize) < self.action_impls.len())
            .flat_map(|&a| self.action_impls[a as usize].iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `GS(H)`: goals of `IS(H)`, sorted and deduplicated.
    fn goal_space(&self, h: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .implementation_space(h)
            .iter()
            .map(|&p| self.impl_goal[p as usize])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `AS(H)`: actions of `IS(H)` minus the performed set.
    fn action_space(&self, h: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .implementation_space(h)
            .iter()
            .flat_map(|&p| self.impl_actions[p as usize].iter().copied())
            .filter(|a| h.binary_search(a).is_err())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

fn library_and_activity() -> impl Strategy<Value = (GoalLibrary, Activity)> {
    (
        proptest::collection::vec(
            (
                0..MAX_GOALS,
                proptest::collection::btree_set(0..MAX_ACTIONS, 1..6),
            ),
            1..25,
        ),
        proptest::collection::btree_set(0..MAX_ACTIONS, 0..7),
    )
        .prop_map(|(impls, h)| {
            let lib = GoalLibrary::from_id_implementations(
                MAX_ACTIONS,
                MAX_GOALS,
                impls
                    .into_iter()
                    .map(|(g, acts)| {
                        (
                            GoalId::new(g),
                            acts.into_iter().map(ActionId::new).collect(),
                        )
                    })
                    .collect(),
            )
            .unwrap();
            (lib, Activity::from_raw(h))
        })
}

proptest! {
    /// Every accessor row of the CSR model equals the boxed-layout row.
    #[test]
    fn csr_rows_match_boxed_layout((lib, _h) in library_and_activity()) {
        let m = GoalModel::build(&lib).unwrap();
        let r = BoxedIndexes::build(&lib);
        prop_assert_eq!(m.num_impls(), r.impl_actions.len());
        for i in 0..m.num_impls() {
            let p = ImplId::new(i as u32);
            prop_assert_eq!(m.impl_actions(p), &r.impl_actions[i][..], "impl_actions[{}]", i);
            prop_assert_eq!(m.impl_goal(p).raw(), r.impl_goal[i], "impl_goal[{}]", i);
        }
        for g in 0..m.num_goals() {
            prop_assert_eq!(
                m.goal_impls(GoalId::new(g as u32)),
                &r.goal_impls[g][..],
                "goal_impls[{}]", g
            );
        }
        for a in 0..m.num_actions() {
            prop_assert_eq!(
                m.action_impls(ActionId::new(a as u32)),
                &r.action_impls[a][..],
                "action_impls[{}]", a
            );
        }
        m.validate().unwrap();
    }

    /// The three §4 space operators match the boxed-layout references.
    #[test]
    fn space_operators_match_boxed_layout((lib, h) in library_and_activity()) {
        let m = GoalModel::build(&lib).unwrap();
        let r = BoxedIndexes::build(&lib);
        let h = h.raw();
        prop_assert_eq!(m.implementation_space(h), r.implementation_space(h));
        prop_assert_eq!(m.goal_space(h), r.goal_space(h));
        prop_assert_eq!(m.action_space(h), r.action_space(h));
    }

    /// Every strategy's arena-based ranking equals its allocating ranking
    /// bit for bit — including scores — with a dirty, reused scratch.
    #[test]
    fn rank_into_matches_rank_bit_for_bit(
        cases in proptest::collection::vec((library_and_activity(), 0usize..12), 1..4)
    ) {
        // One arena across every case, model, and strategy: carried-over
        // stamps, buffers, and epoch state must never leak into results.
        let mut scratch = Scratch::new();
        for ((lib, h), k) in &cases {
            let m = GoalModel::build(lib).unwrap();
            for s in default_strategies() {
                let expect = s.rank(&m, h, *k);
                let n = s.rank_into(LiveRef::solid(&m), h, *k, &mut scratch);
                prop_assert_eq!(
                    scratch.out(), &expect[..],
                    "{} k={} H={:?}", s.name(), k, h
                );
                let expect_n = s.rank_into(LiveRef::solid(&m), h, *k, &mut Scratch::new());
                prop_assert_eq!(n, expect_n, "{} candidate count", s.name());
            }
        }
    }
}
