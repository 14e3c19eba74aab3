//! Property tests for the recommendation strategies: the §5 contracts
//! must hold for any library and any activity, and every strategy must
//! equal a literal transcription of §5 to the bit.

#[path = "support/best_match_oracle.rs"]
mod best_match_oracle;
#[path = "support/focus_breadth_oracle.rs"]
mod focus_breadth_oracle;

use goalrec_core::strategies::default_strategies;
use goalrec_core::{
    ActionId, Activity, BestMatch, Breadth, DeltaSegment, DistanceMetric, Focus, FocusVariant,
    GoalId, GoalLibrary, GoalModel, ImplId, LiveRef, Scored, Scratch, Strategy as _,
};
use proptest::prelude::*;

const MAX_ACTIONS: u32 = 18;
const MAX_GOALS: u32 = 7;

fn library_and_activity() -> impl Strategy<Value = (GoalLibrary, Activity)> {
    library_and_activity_sized(25, MAX_ACTIONS)
}

/// Up to `max_impls − 1` implementations over the full id spaces, and an
/// activity drawn from `0..h_extent` (ids at or past `MAX_ACTIONS` lie
/// beyond every model's extent).
fn library_and_activity_sized(
    max_impls: usize,
    h_extent: u32,
) -> impl Strategy<Value = (GoalLibrary, Activity)> {
    (
        proptest::collection::vec(
            (
                0..MAX_GOALS,
                proptest::collection::btree_set(0..MAX_ACTIONS, 1..6),
            ),
            1..max_impls,
        ),
        proptest::collection::btree_set(0..h_extent, 0..7),
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

fn model_and_activity() -> impl Strategy<Value = (GoalModel, Activity)> {
    library_and_activity().prop_map(|(lib, h)| (GoalModel::build(&lib).unwrap(), h))
}

/// `library`'s first `split` implementations compiled as a base model, and
/// the rest staged over it as a live delta, in library order — the same
/// logical library as a whole rebuild.
fn split_as_overlay(library: &GoalLibrary, split: usize) -> (GoalModel, DeltaSegment) {
    let imps = library.implementations();
    let split = split.clamp(1, imps.len());
    let base = GoalLibrary::from_id_implementations(
        MAX_ACTIONS,
        MAX_GOALS,
        imps[..split]
            .iter()
            .map(|imp| (imp.goal, imp.actions.clone()))
            .collect(),
    )
    .unwrap();
    let base = GoalModel::build(&base).unwrap();
    let mut delta = DeltaSegment::for_base(&base);
    for imp in &imps[split..] {
        delta.append(imp.goal, imp.actions.clone()).unwrap();
    }
    (base, delta)
}

/// Scores must never increase down the list. For the heap-ranked
/// strategies ties additionally break by ascending action id; Focus
/// instead emits whole implementations in rank order (§6.1.2: it "pops
/// out all the actions of the goal implementation on which it has
/// selected to focus"), so equal-scored actions follow implementation
/// order there.
fn assert_ranked(list: &[Scored], strict_ties: bool) {
    for w in list.windows(2) {
        let ok = if strict_ties {
            w[0].score > w[1].score || (w[0].score == w[1].score && w[0].action < w[1].action)
        } else {
            w[0].score >= w[1].score
        };
        assert!(ok, "not rank-sorted: {w:?}");
    }
}

/// Best Match over `lib` for `h`, on a plain model and on the overlay that
/// stages every implementation from `split` on, equals the §5.3 oracle
/// for every metric: ids, order, score bits and candidate count.
fn assert_best_match_equals_the_paper_oracle(
    lib: &GoalLibrary,
    h: &Activity,
    k: usize,
    split: usize,
) {
    let model = GoalModel::build(lib).unwrap();
    let (base, delta) = split_as_overlay(lib, split);
    let mut scratch = Scratch::new();
    for metric in DistanceMetric::ALL {
        let expect = best_match_oracle::best_match(lib, h.raw(), metric, k);
        let ctx = format!("{metric:?} H={h:?} k={k}");
        let n = BestMatch::new(metric).rank_into(LiveRef::solid(&model), h, k, &mut scratch);
        best_match_oracle::assert_matches(scratch.out(), n, &expect, &format!("plain {ctx}"));
        let n =
            BestMatch::new(metric).rank_into(LiveRef::overlay(&base, &delta), h, k, &mut scratch);
        best_match_oracle::assert_matches(
            scratch.out(),
            n,
            &expect,
            &format!("overlay split={split} {ctx}"),
        );
    }
}

/// The repeat case, on every run: goal 0 has three implementations that
/// share action 0 (`c_g = 3`), and `H` reaches one or two of them
/// (`p_g < c_g`), so both of Best Match's corrections are non-zero. Every
/// split is checked, including the two that fall between goal 0's rows.
#[test]
fn best_match_repeats_equal_the_paper_oracle() {
    let imp = |g: u32, acts: &[u32]| {
        (
            GoalId::new(g),
            acts.iter().copied().map(ActionId::new).collect::<Vec<_>>(),
        )
    };
    let lib = GoalLibrary::from_id_implementations(
        MAX_ACTIONS,
        MAX_GOALS,
        vec![
            imp(0, &[0, 1]),
            imp(0, &[0, 2]),
            imp(0, &[0, 3]),
            imp(1, &[1, 4]),
            imp(1, &[4, 5]),
            imp(2, &[1, 6]),
            imp(3, &[2, 7]),
        ],
    )
    .unwrap();
    for h in [Activity::from_raw([1]), Activity::from_raw([1, 2])] {
        for split in 1..=lib.implementations().len() {
            assert_best_match_equals_the_paper_oracle(&lib, &h, 10, split);
        }
    }
}

proptest! {
    /// Universal strategy contract: bounded by k, candidates only, unique,
    /// rank-sorted, prefix-consistent, and every candidate is in AS(H).
    #[test]
    fn strategy_contract((m, h) in model_and_activity(), k in 0usize..12) {
        let action_space = m.action_space(h.raw());
        for s in default_strategies() {
            let list = s.rank(&m, &h, k);
            prop_assert!(list.len() <= k, "{}", s.name());
            assert_ranked(&list, !s.name().starts_with("Focus"));

            let mut ids: Vec<u32> = list.iter().map(|r| r.action.raw()).collect();
            let n = ids.len();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), n, "{} produced duplicates", s.name());

            for r in &list {
                prop_assert!(!h.contains(r.action), "{} recommended performed", s.name());
                prop_assert!(
                    action_space.binary_search(&r.action.raw()).is_ok()
                        || s.name().starts_with("Focus"),
                    "{} went outside AS(H)", s.name()
                );
                // Focus may leave AS(H) (implementations of shared goals
                // with zero overlap), but never outside the action space of
                // the goal space's implementations — checked below.
            }

            // Prefix property: smaller k is a prefix of larger k.
            if k >= 2 {
                let shorter = s.rank(&m, &h, k - 1);
                prop_assert_eq!(&list[..shorter.len()], &shorter[..], "{} prefix", s.name());
            }
        }
    }

    /// Focus candidates always come from implementations whose goal is in
    /// the user's goal space.
    #[test]
    fn focus_stays_within_goal_space((m, h) in model_and_activity()) {
        let gs = m.goal_space(h.raw());
        for variant in [FocusVariant::Completeness, FocusVariant::Closeness] {
            for r in Focus::new(variant).rank(&m, &h, 12) {
                // The recommended action must appear in some implementation
                // of a goal-space goal.
                let ok = m.action_impls(r.action).iter().any(|&p| {
                    gs.binary_search(&m.impl_goal(ImplId::new(p)).raw()).is_ok()
                });
                prop_assert!(ok, "{variant:?} left the goal space");
            }
        }
    }

    /// Breadth's score for the top recommendation never exceeds
    /// `|IS(H)| × |H|` (every associated implementation contributing the
    /// maximum possible overlap).
    #[test]
    fn breadth_score_upper_bound((m, h) in model_and_activity()) {
        let bound = (m.implementation_space(h.raw()).len() * h.len()) as f64;
        for r in Breadth.rank(&m, &h, 12) {
            prop_assert!(r.score <= bound + 1e-9);
            prop_assert!(r.score >= 1.0 - 1e-9, "scores are positive overlap sums");
        }
    }

    /// Best Match scores are negated distances: within [-max_distance, 0]
    /// for every metric.
    #[test]
    fn best_match_score_ranges((m, h) in model_and_activity()) {
        for metric in DistanceMetric::ALL {
            for r in BestMatch::new(metric).rank(&m, &h, 12) {
                prop_assert!(r.score <= 1e-9, "{metric:?}");
                if metric == DistanceMetric::Cosine {
                    prop_assert!(r.score >= -1.0 - 1e-9, "cosine bounded");
                }
            }
        }
    }

    /// Best Match, on a plain model and on a live base ⊕ delta overlay of
    /// the same library, equals the §5.3 oracle for every metric: ids,
    /// order, score bits and candidate count.
    #[test]
    fn best_match_equals_the_paper_oracle(
        (lib, h) in library_and_activity(),
        k in 1usize..12,
        split in 1usize..25,
    ) {
        assert_best_match_equals_the_paper_oracle(&lib, &h, k, split);
    }

    /// Focus_cmp, Focus_cl and Breadth, on a plain model and on a live
    /// base ⊕ delta overlay of the same library, equal the §5.1/§5.2
    /// oracle: ids, order, score bits and candidate count. Up to 59
    /// implementations put more candidates than Focus's first sorted
    /// chunk; a `k` above every candidate action makes the fill loop read
    /// the whole ranking; activity ids up to `MAX_ACTIONS + 2` reach past
    /// the model's extent.
    #[test]
    fn focus_and_breadth_equal_the_paper_oracle(
        (lib, h) in library_and_activity_sized(60, MAX_ACTIONS + 3),
        k in 1usize..12,
        split in 1usize..60,
    ) {
        let model = GoalModel::build(&lib).unwrap();
        let (base, delta) = split_as_overlay(&lib, split);
        let overlay = LiveRef::overlay(&base, &delta);
        let mut scratch = Scratch::new();
        let past_every_candidate = MAX_ACTIONS as usize + 1;
        for k in [k, past_every_candidate] {
            for variant in [FocusVariant::Completeness, FocusVariant::Closeness] {
                let expect = focus_breadth_oracle::focus(&lib, h.raw(), variant, k);
                let ctx = format!("{variant:?} H={h:?} k={k}");
                let focus = Focus::new(variant);
                let n = focus.rank_into(LiveRef::solid(&model), &h, k, &mut scratch);
                best_match_oracle::assert_matches(scratch.out(), n, &expect, &format!("plain {ctx}"));
                let n = focus.rank_into(overlay, &h, k, &mut scratch);
                best_match_oracle::assert_matches(
                    scratch.out(),
                    n,
                    &expect,
                    &format!("overlay split={split} {ctx}"),
                );
            }
            let expect = focus_breadth_oracle::breadth(&lib, h.raw(), k);
            let ctx = format!("Breadth H={h:?} k={k}");
            let n = Breadth.rank_into(LiveRef::solid(&model), &h, k, &mut scratch);
            best_match_oracle::assert_matches(scratch.out(), n, &expect, &format!("plain {ctx}"));
            let n = Breadth.rank_into(overlay, &h, k, &mut scratch);
            best_match_oracle::assert_matches(
                scratch.out(),
                n,
                &expect,
                &format!("overlay split={split} {ctx}"),
            );
        }
    }

    /// Extending the activity with one of its recommendations never makes
    /// that same action reappear (stability of the candidate exclusion).
    #[test]
    fn following_a_recommendation_consumes_it((m, h) in model_and_activity()) {
        for s in default_strategies() {
            if let Some(first) = s.rank(&m, &h, 5).first().copied() {
                let extended = h.extended([first.action]);
                let again = s.rank(&m, &extended, 10);
                prop_assert!(
                    again.iter().all(|r| r.action != first.action),
                    "{} re-recommended a performed action", s.name()
                );
            }
        }
    }
}
