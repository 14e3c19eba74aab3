//! Property proof that the sharded **base ⊕ delta** overlay is exact.
//!
//! Random base libraries plus random append sequences, partitioned over
//! 1–3 shards: ranking through per-shard live views (compiled sub-model
//! overlaid with that shard's staged delta) must be **bit-for-bit
//! identical** — ids, `f64` score bits, tie-break order — to a full
//! `GoalModel::build` of the merged library, for every supported strategy
//! and both placement policies. This is the sharded half of the live
//! mutation exactness contract; `goalrec-core`'s `live_overlay` test
//! proves the unsharded half.
//!
//! Append routing mirrors the serving plane: an append for a base goal
//! lands on that goal's home shard (goal-wholeness is what makes the
//! merge exact), and an append for a brand-new goal falls back to the
//! deterministic `g % n` placement.
//!
//! Best Match is also held to a literal transcription of §5.3 over the
//! merged library, and Focus and Breadth to one of §5.1/§5.2, at
//! N ∈ {1, 2, 7}.

#[path = "../../core/tests/support/best_match_oracle.rs"]
mod best_match_oracle;
#[path = "support/focus_breadth_checks.rs"]
mod focus_breadth_checks;
#[path = "../../core/tests/support/focus_breadth_oracle.rs"]
mod focus_breadth_oracle;

use goalrec_core::ids::{ActionId, GoalId};
use goalrec_core::scratch::Scratch;
use goalrec_core::strategies::{BestMatch, Breadth, Focus, Strategy};
use goalrec_core::topk::Scored;
use goalrec_core::{Activity, DeltaSegment, GoalLibrary, GoalModel};
use goalrec_shard::{
    PartitionMode, ShardModel, ShardScratch, ShardStrategy, ShardView, ShardedModel,
};
use proptest::prelude::*;

/// A serving-plane-like shard snapshot: compiled base sub-model, staged
/// delta, and the merged (base ⧺ staged) local → global id map.
struct LiveShard {
    base: ShardModel,
    delta: DeltaSegment,
    impl_global: Vec<u32>,
}

impl ShardView for LiveShard {
    fn model(&self) -> Option<&GoalModel> {
        self.base.model()
    }

    fn impl_global(&self) -> &[u32] {
        &self.impl_global
    }

    fn delta(&self) -> Option<&DeltaSegment> {
        (!self.delta.is_empty()).then_some(&self.delta)
    }
}

/// Partitions `base`, then routes every append to its owning shard's
/// delta, extending that shard's id map with the global id the merged
/// rebuild will assign (base total + append index) — monotone because
/// appends arrive in global order.
fn build_live_shards(
    base: &GoalLibrary,
    appends: &[(u32, Vec<u32>)],
    n: usize,
    mode: PartitionMode,
) -> Vec<LiveShard> {
    let sharded = ShardedModel::build(base, n, mode).unwrap();
    let assignments = sharded.assignments().to_vec();
    let base_total = u32::try_from(base.len()).unwrap();
    let mut shards: Vec<LiveShard> = sharded
        .into_shards()
        .into_iter()
        .map(|s| {
            let first = u32::try_from(s.num_impls()).unwrap();
            let impl_global = s.impl_global().to_vec();
            LiveShard {
                base: s,
                delta: DeltaSegment::new(first, base.num_actions(), base.num_goals()),
                impl_global,
            }
        })
        .collect();
    for (i, (g, actions)) in appends.iter().enumerate() {
        let owner = match assignments.get(*g as usize) {
            Some(&s) => s,
            None => (*g as usize) % n,
        };
        shards[owner]
            .delta
            .append(
                GoalId::new(*g),
                actions.iter().copied().map(ActionId::new).collect(),
            )
            .unwrap();
        shards[owner]
            .impl_global
            .push(base_total + u32::try_from(i).unwrap());
    }
    shards
}

/// The merged library the compactor would build: base implementations in
/// order, then the appends in acceptance order.
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

/// Runs the unsharded reference ranking on the merged model.
fn unsharded(
    strategy: &ShardStrategy,
    model: &GoalModel,
    h: &Activity,
    k: usize,
) -> (Vec<Scored>, usize) {
    let mut scratch = Scratch::default();
    let n = match strategy {
        ShardStrategy::Breadth => Breadth.rank_into(model, h, k, &mut scratch),
        ShardStrategy::Focus(v) => Focus::new(*v).rank_into(model, h, k, &mut scratch),
        ShardStrategy::BestMatch(m) => BestMatch::new(*m).rank_into(model, h, k, &mut scratch),
    };
    (scratch.out().to_vec(), n)
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random base + random appends (including brand-new goals and
    /// actions), N ∈ {1, 2, 3}: base ⊕ delta rankings are bit-identical
    /// to the merged rebuild for all six strategies.
    #[test]
    fn live_sharded_topk_is_bit_identical_to_merged_rebuild(
        base_impls in proptest::collection::vec(
            (0u32..6, proptest::collection::btree_set(0u32..12, 1..5)),
            1..18
        ),
        appends_set in proptest::collection::vec(
            (0u32..9, proptest::collection::btree_set(0u32..16, 1..5)),
            0..10
        ),
        h in proptest::collection::btree_set(0u32..16, 0..8),
        k in 1usize..10
    ) {
        let appends: Vec<(u32, Vec<u32>)> = appends_set
            .into_iter()
            .map(|(g, acts)| (g, acts.into_iter().collect()))
            .collect();
        let base = GoalLibrary::from_id_implementations(
            12,
            6,
            base_impls
                .into_iter()
                .map(|(g, acts)| {
                    (GoalId::new(g), acts.into_iter().map(ActionId::new).collect())
                })
                .collect(),
        )
        .unwrap();
        let merged = merged_library(&base, &appends);
        let model = GoalModel::build(&merged).unwrap();
        let h = Activity::from_raw(h);
        let mut sc = ShardScratch::new();

        for strategy in ShardStrategy::ALL {
            let (expect, expect_cand) = unsharded(&strategy, &model, &h, k);
            for mode in [PartitionMode::HashGoal, PartitionMode::BalancedMass] {
                for n in [1usize, 2, 3] {
                    let shards = build_live_shards(&base, &appends, n, mode);
                    let cand = strategy.rank_into(&shards, &h, k, &mut sc);
                    let ctx = format!(
                        "{} {mode:?} n={n} h={h:?} k={k} appends={}",
                        strategy.name(),
                        appends.len()
                    );
                    assert_identical(sc.out(), &expect, &ctx);
                    if !matches!(strategy, ShardStrategy::Breadth) {
                        prop_assert_eq!(cand, expect_cand, "{}", ctx);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Best Match through per-shard base ⊕ delta views equals the §5.3
    /// oracle over the merged library for every metric: ids, order,
    /// score bits and candidate count.
    #[test]
    fn live_sharded_best_match_equals_the_paper_oracle(
        base_impls in proptest::collection::vec(
            (0u32..6, proptest::collection::btree_set(0u32..12, 1..5)),
            1..18
        ),
        appends_set in proptest::collection::vec(
            (0u32..9, proptest::collection::btree_set(0u32..16, 1..5)),
            0..10
        ),
        h in proptest::collection::btree_set(0u32..16, 0..8),
        k in 1usize..10
    ) {
        let appends: Vec<(u32, Vec<u32>)> = appends_set
            .into_iter()
            .map(|(g, acts)| (g, acts.into_iter().collect()))
            .collect();
        let base = GoalLibrary::from_id_implementations(
            12,
            6,
            base_impls
                .into_iter()
                .map(|(g, acts)| {
                    (GoalId::new(g), acts.into_iter().map(ActionId::new).collect())
                })
                .collect(),
        )
        .unwrap();
        let merged = merged_library(&base, &appends);
        let h = Activity::from_raw(h);
        let mut sc = ShardScratch::new();
        for n in [1usize, 2, 7] {
            let shards = build_live_shards(&base, &appends, n, PartitionMode::HashGoal);
            for metric in goalrec_core::DistanceMetric::ALL {
                let expect = best_match_oracle::best_match(&merged, h.raw(), metric, k);
                let cand = ShardStrategy::BestMatch(metric).rank_into(&shards, &h, k, &mut sc);
                best_match_oracle::assert_matches(
                    sc.out(),
                    cand,
                    &expect,
                    &format!("{metric:?} n={n} H={h:?} k={k} appends={}", appends.len()),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Focus_cmp, Focus_cl and Breadth through per-shard base ⊕ delta
    /// views equal the §5.1/§5.2 oracle over the merged library at
    /// N ∈ {1, 2, 7}: ids, order, score bits and candidate count.
    #[test]
    fn live_sharded_focus_and_breadth_equal_the_paper_oracle(
        base_impls in proptest::collection::vec(
            (0u32..6, proptest::collection::btree_set(0u32..12, 1..5)),
            1..40
        ),
        appends_set in proptest::collection::vec(
            (0u32..9, proptest::collection::btree_set(0u32..16, 1..5)),
            0..20
        ),
        h in proptest::collection::btree_set(0u32..19, 0..8),
        k in 1usize..10
    ) {
        let appends: Vec<(u32, Vec<u32>)> = appends_set
            .into_iter()
            .map(|(g, acts)| (g, acts.into_iter().collect()))
            .collect();
        let base = GoalLibrary::from_id_implementations(
            12,
            6,
            base_impls
                .into_iter()
                .map(|(g, acts)| {
                    (GoalId::new(g), acts.into_iter().map(ActionId::new).collect())
                })
                .collect(),
        )
        .unwrap();
        let merged = merged_library(&base, &appends);
        let h = Activity::from_raw(h);
        let mut sc = ShardScratch::new();
        for n in [1usize, 2, 7] {
            let shards = build_live_shards(&base, &appends, n, PartitionMode::HashGoal);
            focus_breadth_checks::assert_focus_and_breadth_match(
                &shards,
                &merged,
                &h,
                k,
                &mut sc,
                &format!("n={n} appends={}", appends.len()),
            );
        }
    }
}

/// An append that lands on a shard with no compiled base at all (more
/// shards than base goals) must still serve — the delta-only view.
#[test]
fn delta_only_shard_serves_new_goal() {
    let base = GoalLibrary::from_id_implementations(
        3,
        1,
        vec![(GoalId::new(0), vec![ActionId::new(0), ActionId::new(1)])],
    )
    .unwrap();
    // One brand-new goal with a brand-new action, three shards: goal 2
    // routes to shard 2 % 3 = 2, which has no base model.
    let appends = vec![(2u32, vec![1u32, 3u32])];
    let shards = build_live_shards(&base, &appends, 3, PartitionMode::HashGoal);
    assert!(shards[2].model().is_none());
    assert!(shards[2].delta().is_some());

    let merged = merged_library(&base, &appends);
    let model = GoalModel::build(&merged).unwrap();
    let h = Activity::from_raw([1]);
    let mut sc = ShardScratch::new();
    for strategy in ShardStrategy::ALL {
        let (expect, _) = unsharded(&strategy, &model, &h, 10);
        strategy.rank_into(&shards, &h, 10, &mut sc);
        assert_identical(sc.out(), &expect, strategy.name());
    }
}
