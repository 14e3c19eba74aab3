//! Property proof of the scatter-gather exactness contract.
//!
//! For random libraries, random activities and every supported strategy,
//! the sharded ranking must be **bit-for-bit identical** to the unsharded
//! `rank_into` — same action ids, same `f64` score bits, same tie-break
//! order — at every shard count and under both partitioning policies.
//! Candidate counts must also agree for Focus and Best Match (Breadth's
//! merged pool deliberately excludes already-performed actions, which the
//! unsharded accumulator counts; the crate docs call this out). Best Match
//! is further held to a literal transcription of §5.3, and Focus and
//! Breadth to one of §5.1/§5.2, not only to the unsharded path.

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
use goalrec_core::{Activity, GoalLibrary, GoalModel};
use goalrec_shard::{PartitionMode, ShardScratch, ShardStrategy, ShardedModel};
use proptest::prelude::*;

/// Runs the unsharded reference ranking into a fresh arena.
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

/// Asserts bit-identical rankings: ids must match and scores must agree
/// down to their `f64` bit patterns — the strongest possible reading of
/// the exactness contract.
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

    /// The headline property: every strategy, every shard count, both
    /// partition modes, random libraries and activities.
    #[test]
    fn sharded_topk_is_bit_identical_to_unsharded(
        impls in proptest::collection::vec(
            (0u32..8, proptest::collection::btree_set(0u32..15, 1..6)),
            1..25
        ),
        h in proptest::collection::btree_set(0u32..15, 0..8),
        k in 1usize..12
    ) {
        let lib = GoalLibrary::from_id_implementations(
            15,
            8,
            impls
                .into_iter()
                .map(|(g, acts)| {
                    (GoalId::new(g), acts.into_iter().map(ActionId::new).collect())
                })
                .collect(),
        )
        .unwrap();
        let model = GoalModel::build(&lib).unwrap();
        let h = Activity::from_raw(h);
        let mut sc = ShardScratch::new();

        for strategy in ShardStrategy::ALL {
            let (expect, expect_cand) = unsharded(&strategy, &model, &h, k);
            for mode in [PartitionMode::HashGoal, PartitionMode::BalancedMass] {
                for n in [1usize, 2, 3, 7] {
                    let sharded = ShardedModel::build(&lib, n, mode).unwrap();
                    let cand = strategy.rank_into(sharded.shards(), &h, k, &mut sc);
                    let ctx = format!(
                        "[{} {mode:?} n={n} H={h:?} k={k}]",
                        strategy.name()
                    );
                    assert_identical(sc.out(), &expect, &ctx);
                    if !matches!(strategy, ShardStrategy::Breadth) {
                        prop_assert_eq!(cand, expect_cand, "candidate count {}", ctx);
                    }
                }
            }
        }
    }

    /// Sharded Best Match at N ∈ {1, 2, 7} equals the §5.3 oracle for
    /// every metric: ids, order, score bits and candidate count.
    #[test]
    fn sharded_best_match_equals_the_paper_oracle(
        impls in proptest::collection::vec(
            (0u32..8, proptest::collection::btree_set(0u32..15, 1..6)),
            1..25
        ),
        h in proptest::collection::btree_set(0u32..15, 0..8),
        k in 1usize..12
    ) {
        let lib = GoalLibrary::from_id_implementations(
            15,
            8,
            impls
                .into_iter()
                .map(|(g, acts)| {
                    (GoalId::new(g), acts.into_iter().map(ActionId::new).collect())
                })
                .collect(),
        )
        .unwrap();
        let h = Activity::from_raw(h);
        let mut sc = ShardScratch::new();
        for n in [1usize, 2, 7] {
            let sharded = ShardedModel::build(&lib, n, PartitionMode::BalancedMass).unwrap();
            for metric in goalrec_core::DistanceMetric::ALL {
                let expect = best_match_oracle::best_match(&lib, h.raw(), metric, k);
                let cand = ShardStrategy::BestMatch(metric).rank_into(sharded.shards(), &h, k, &mut sc);
                best_match_oracle::assert_matches(
                    sc.out(),
                    cand,
                    &expect,
                    &format!("{metric:?} n={n} H={h:?} k={k}"),
                );
            }
        }
    }

    /// Sharded Focus_cmp, Focus_cl and Breadth at N ∈ {1, 2, 7} equal
    /// the §5.1/§5.2 oracle: ids, order, score bits and candidate count.
    /// Up to 69 implementations put more candidates on a shard than its
    /// first sorted chunk, the checks include a `k` past every candidate
    /// action, and activity ids 15..18 lie beyond the extent.
    #[test]
    fn sharded_focus_and_breadth_equal_the_paper_oracle(
        impls in proptest::collection::vec(
            (0u32..8, proptest::collection::btree_set(0u32..15, 1..6)),
            1..70
        ),
        h in proptest::collection::btree_set(0u32..18, 0..8),
        k in 1usize..12
    ) {
        let lib = GoalLibrary::from_id_implementations(
            15,
            8,
            impls
                .into_iter()
                .map(|(g, acts)| {
                    (GoalId::new(g), acts.into_iter().map(ActionId::new).collect())
                })
                .collect(),
        )
        .unwrap();
        let h = Activity::from_raw(h);
        let mut sc = ShardScratch::new();
        for n in [1usize, 2, 7] {
            let sharded = ShardedModel::build(&lib, n, PartitionMode::BalancedMass).unwrap();
            focus_breadth_checks::assert_focus_and_breadth_match(
                sharded.shards(),
                &lib,
                &h,
                k,
                &mut sc,
                &format!("n={n}"),
            );
        }
    }

    /// Reusing one arena across wildly different requests never changes
    /// results (no state leaks between requests or across strategies).
    #[test]
    fn arena_reuse_is_stateless(
        impls in proptest::collection::vec(
            (0u32..6, proptest::collection::btree_set(0u32..12, 1..5)),
            1..15
        ),
        h1 in proptest::collection::btree_set(0u32..12, 1..6),
        h2 in proptest::collection::btree_set(0u32..12, 0..3),
    ) {
        let lib = GoalLibrary::from_id_implementations(
            12,
            6,
            impls
                .into_iter()
                .map(|(g, acts)| {
                    (GoalId::new(g), acts.into_iter().map(ActionId::new).collect())
                })
                .collect(),
        )
        .unwrap();
        let model = GoalModel::build(&lib).unwrap();
        let sharded = ShardedModel::build(&lib, 3, PartitionMode::HashGoal).unwrap();
        let (h1, h2) = (Activity::from_raw(h1), Activity::from_raw(h2));

        let mut shared = ShardScratch::new();
        for strategy in ShardStrategy::ALL {
            // Pollute the shared arena with the first request…
            strategy.rank_into(sharded.shards(), &h1, 10, &mut shared);
            // …then the second request must match a pristine arena's answer.
            let mut fresh = ShardScratch::new();
            strategy.rank_into(sharded.shards(), &h2, 4, &mut fresh);
            strategy.rank_into(sharded.shards(), &h2, 4, &mut shared);
            let (expect, _) = unsharded(&strategy, &model, &h2, 4);
            let ctx = format!("[{} H={h2:?}]", strategy.name());
            assert_identical(shared.out(), fresh.out(), &ctx);
            assert_identical(shared.out(), &expect, &ctx);
        }
    }
}
