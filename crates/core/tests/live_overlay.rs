//! Property proof of the live overlay exactness contract.
//!
//! For random base libraries and random append sequences, ranking through
//! `Strategy::rank_into` on a base ⊕ delta overlay must be
//! **bit-for-bit identical** — action ids, `f64` score bits, tie-break
//! order, candidate counts — to compiling the merged library with
//! `GoalModel::build` and ranking with the plain `rank_into`, for every
//! built-in strategy. This is what lets the
//! server admit appends into the delta and keep serving from the old
//! compiled base without any answer changing relative to an immediate
//! full rebuild.
//!
//! The exactness argument (also in `goalrec_core::live`'s module docs):
//! staged implementation ids form a dense suffix after the base ids, so
//! every merged posting row is `base_row ⧺ delta_row` — already sorted —
//! and all strategy arithmetic is either integer-exact (Breadth), a total
//! order on (score, id) (Focus), or computed coordinate-wise from the
//! same counts (Best Match).

use goalrec_core::ids::{ActionId, GoalId};
use goalrec_core::strategies::{BestMatch, Breadth, Focus, FocusVariant, Strategy};
use goalrec_core::topk::Scored;
use goalrec_core::{Activity, DeltaSegment, GoalLibrary, GoalModel, LiveRef, Scratch};
use proptest::prelude::*;

/// Every built-in strategy.
fn all_strategies() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(Breadth),
        Box::new(Focus::new(FocusVariant::Completeness)),
        Box::new(Focus::new(FocusVariant::Closeness)),
        Box::new(BestMatch::default()),
    ]
}

/// The merged library the compactor would persist: base implementations
/// in id order, then the appends in acceptance order.
fn merged_library(base: &GoalLibrary, appends: &[(u32, Vec<u32>)]) -> GoalLibrary {
    let mut num_actions = u32::try_from(base.num_actions()).unwrap();
    let mut num_goals = u32::try_from(base.num_goals()).unwrap();
    let mut impls: Vec<(GoalId, Vec<ActionId>)> = base
        .implementations()
        .iter()
        .map(|imp| (imp.goal, imp.actions.clone()))
        .collect();
    for (g, actions) in appends {
        num_goals = num_goals.max(*g + 1);
        for &a in actions {
            num_actions = num_actions.max(a + 1);
        }
        impls.push((
            GoalId::new(*g),
            actions.iter().copied().map(ActionId::new).collect(),
        ));
    }
    GoalLibrary::from_id_implementations(num_actions, num_goals, impls).unwrap()
}

fn assert_identical(got: &[Scored], expect: &[Scored], ctx: &str) {
    assert_eq!(got.len(), expect.len(), "length mismatch {ctx}");
    for (i, (g, e)) in got.iter().zip(expect.iter()).enumerate() {
        assert_eq!(g.action, e.action, "action #{i} differs {ctx}");
        assert_eq!(
            g.score.to_bits(),
            e.score.to_bits(),
            "score bits #{i} differ {ctx}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: random base, random appends (including
    /// brand-new goals and actions beyond the base id spaces), every
    /// strategy, bit-identical to the merged rebuild.
    #[test]
    fn live_overlay_is_bit_identical_to_merged_rebuild(
        base_impls in proptest::collection::vec(
            (0u32..8, proptest::collection::btree_set(0u32..15, 1..6)),
            1..20
        ),
        appends_set in proptest::collection::vec(
            (0u32..12, proptest::collection::btree_set(0u32..20, 1..6)),
            1..12
        ),
        h in proptest::collection::btree_set(0u32..20, 0..8),
        k in 1usize..12
    ) {
        let appends: Vec<(u32, Vec<u32>)> = appends_set
            .into_iter()
            .map(|(g, acts)| (g, acts.into_iter().collect()))
            .collect();
        let base = GoalLibrary::from_id_implementations(
            15,
            8,
            base_impls
                .into_iter()
                .map(|(g, acts)| {
                    (GoalId::new(g), acts.into_iter().map(ActionId::new).collect())
                })
                .collect(),
        )
        .unwrap();
        let base_model = GoalModel::build(&base).unwrap();
        let mut delta = DeltaSegment::for_base(&base_model);
        for (g, actions) in &appends {
            delta
                .append(
                    GoalId::new(*g),
                    actions.iter().copied().map(ActionId::new).collect(),
                )
                .unwrap();
        }
        let merged_model = GoalModel::build(&merged_library(&base, &appends)).unwrap();
        let live = LiveRef::overlay(&base_model, &delta);

        let mut scratch = Scratch::default();
        for s in all_strategies() {
            let n_full = s.rank_into(LiveRef::solid(&merged_model), &h_activity(&h), k, &mut scratch);
            let expect = scratch.out().to_vec();
            let n_live = s.rank_into(live, &h_activity(&h), k, &mut scratch);
            let ctx = format!("{} k={k} h={h:?}", s.name());
            assert_identical(scratch.out(), &expect, &ctx);
            prop_assert_eq!(n_live, n_full, "candidate counts differ {}", ctx);
        }
    }
}

fn h_activity(h: &std::collections::BTreeSet<u32>) -> Activity {
    Activity::from_raw(h.iter().copied())
}
