//! The scatter-gather ranking itself.
//!
//! [`ShardStrategy::scatter`] runs one shard's share of the work into that
//! shard's [`crate::scratch::ShardSlot`]; [`ShardStrategy::gather`] merges
//! the per-shard results into the global top-k. The contract is
//! **bit-exactness**: for every supported strategy the merged ranking is
//! identical — ids, scores and tie-break order — to running the strategy's
//! `rank_into` on the unsharded model (`tests/exactness.rs` proves it
//! property-style). The merge is exact because shards partition the
//! implementation set by goal; see the [crate docs](crate) for the
//! per-strategy argument. Best Match scatters the core goal-major pass
//! ([`goalrec_core::profile::TermBoard::fill`]) over each shard's goals
//! and gathers by adding the per-shard integer sums — the same pass and
//! the same scoring the unsharded `BestMatch::rank_into` runs.
//!
//! Both phases run on a caller-owned [`ShardScratch`] arena and allocate
//! nothing at steady state (`tests/alloc_counting.rs`).

use crate::model::ShardView;
use crate::scratch::ShardScratch;
use goalrec_core::activity::Activity;
use goalrec_core::distance::DistanceMetric;
use goalrec_core::ids::{ActionId, ImplId};
use goalrec_core::live::AssocView;
use goalrec_core::setops;
use goalrec_core::strategies::{Breadth, Focus, FocusVariant};
use goalrec_core::topk::{kway_next, score_id_cmp, Scored};

/// A strategy that can be served through the scatter-gather path.
///
/// Mirrors the paper's strategies in [`goalrec_core::strategies`], whose
/// rankings all decompose exactly over a goal partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardStrategy {
    /// The Breadth strategy (§5.2): per-shard integer partial sums merged
    /// on a `u64` scoreboard.
    Breadth,
    /// A Focus variant (§5.1): per-shard implementation rankings k-way
    /// merged under (score desc, global implementation id asc), replaying
    /// the unsharded fill loop.
    Focus(FocusVariant),
    /// Best Match (§5.3) with the given metric: per-shard integer sums of
    /// the goal-major pass added up on a merged board, then scored once.
    BestMatch(DistanceMetric),
}

impl ShardStrategy {
    /// Every shardable strategy, in documentation order.
    pub const ALL: [ShardStrategy; 6] = [
        ShardStrategy::Breadth,
        ShardStrategy::Focus(FocusVariant::Completeness),
        ShardStrategy::Focus(FocusVariant::Closeness),
        ShardStrategy::BestMatch(DistanceMetric::Cosine),
        ShardStrategy::BestMatch(DistanceMetric::Euclidean),
        ShardStrategy::BestMatch(DistanceMetric::Manhattan),
    ];

    /// Resolves the serving API's strategy spelling (`breadth` |
    /// `best-match` | `focus-cmp` | `focus-cl`) to its sharded
    /// counterpart. `best-match` uses the cosine metric, matching
    /// `BestMatch::default()`.
    pub fn for_api_name(name: &str) -> Option<Self> {
        match name {
            "breadth" => Some(Self::Breadth),
            "focus-cmp" => Some(Self::Focus(FocusVariant::Completeness)),
            "focus-cl" => Some(Self::Focus(FocusVariant::Closeness)),
            "best-match" => Some(Self::BestMatch(DistanceMetric::Cosine)),
            _ => None,
        }
    }

    /// The unsharded strategy's display name (matches
    /// [`Strategy::name`](goalrec_core::strategies::Strategy::name)).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Breadth => "Breadth",
            Self::Focus(FocusVariant::Completeness) => "Focus_cmp",
            Self::Focus(FocusVariant::Closeness) => "Focus_cl",
            Self::BestMatch(_) => "BestMatch",
        }
    }

    /// Runs shard `idx`'s share of the work for `activity` into the
    /// arena's slot `idx`. Safe to call for empty shards (the slot is
    /// cleared so the merge sees no stale state) and in any shard order —
    /// slots are independent, which is what lets the serving layer scatter
    /// across differently-generated per-shard snapshots.
    pub fn scatter<V: ShardView>(
        &self,
        shard: &V,
        idx: usize,
        activity: &Activity,
        scratch: &mut ShardScratch,
    ) {
        scratch.ensure_shards(idx + 1);
        let slot = &mut scratch.slots[idx];
        slot.clear();
        let live = shard.live();
        if live.is_vacant() || activity.is_empty() {
            return;
        }
        match self {
            Self::Breadth => {
                // Every candidate's integer-valued partial sum, unranked:
                // the gather phase adds them up and ranks once.
                Breadth::scores_live_into(live, activity, &mut slot.scratch);
            }
            Self::Focus(variant) => {
                // Rank this shard's candidate implementations only; the
                // fill loop runs globally in the gather phase.
                match live.unstaged() {
                    Some(model) => {
                        Focus::new(*variant).rank_impls_into(model, activity, &mut slot.scratch);
                    }
                    None => {
                        Focus::new(*variant).rank_impls_into(&live, activity, &mut slot.scratch)
                    }
                }
            }
            // The shard's goal-major sums, the same pass the unsharded
            // Best Match runs; scoring waits for the merge.
            Self::BestMatch(_) => match live.unstaged() {
                Some(model) => slot.scratch.terms_mut().fill(model, activity.raw()),
                None => slot.scratch.terms_mut().fill(&live, activity.raw()),
            },
        }
    }

    /// Merges the per-shard scatter results in the arena into the global
    /// top-`k`, leaving the ranking in [`ShardScratch::out`] and returning
    /// the candidate count (same meaning as the unsharded `rank_into`;
    /// for Breadth, the merged candidate pool `AS(IS(H)) − H`).
    pub fn gather<V: ShardView>(
        &self,
        shards: &[V],
        activity: &Activity,
        k: usize,
        scratch: &mut ShardScratch,
    ) -> usize {
        scratch.ensure_shards(shards.len());
        scratch.out.clear();
        if k == 0 || activity.is_empty() {
            return 0;
        }
        match self {
            Self::Breadth => gather_breadth(shards, k, scratch),
            Self::Focus(_) => gather_focus(shards, activity, k, scratch),
            Self::BestMatch(metric) => gather_best_match(shards, activity, *metric, k, scratch),
        }
    }

    /// Convenience scatter-all-then-gather over a uniform shard slice.
    /// The serving layer drives the phases separately (it wraps each
    /// scatter in a per-shard trace span); tests and offline callers use
    /// this.
    pub fn rank_into<V: ShardView>(
        &self,
        shards: &[V],
        activity: &Activity,
        k: usize,
        scratch: &mut ShardScratch,
    ) -> usize {
        if k > 0 && !activity.is_empty() {
            for (i, shard) in shards.iter().enumerate() {
                self.scatter(shard, i, activity, scratch);
            }
        }
        self.gather(shards, activity, k, scratch)
    }
}

/// The action extent a merge board needs. It comes from the live views:
/// a staged delta may have introduced actions beyond any compiled base
/// model's id space.
fn merged_num_actions<V: ShardView>(shards: &[V]) -> usize {
    shards
        .iter()
        .map(|s| s.live().num_actions())
        .max()
        .unwrap_or(0)
}

/// Breadth merge: per-action scores are integer sums over `IS(H)`, and the
/// per-shard implementation spaces partition `IS(H)`, so summing the
/// per-shard partial scores in `u64` is order-independent and exact.
fn gather_breadth<V: ShardView>(shards: &[V], k: usize, scratch: &mut ShardScratch) -> usize {
    let num_actions = merged_num_actions(shards);
    let ShardScratch {
        slots,
        board,
        topk,
        out,
        ..
    } = scratch;
    board.begin(num_actions);
    for slot in slots.iter().take(shards.len()) {
        for sc in slot.scratch.out() {
            // Per-shard Breadth scores are exact small integers in f64
            // (counts of implementation overlaps), so the u64 round-trip
            // is lossless.
            board.add(sc.action, sc.score as u64);
        }
    }
    topk.reset(k);
    for &a in board.touched() {
        topk.push(Scored::new(a, board.get(a) as f64));
    }
    topk.drain_sorted_into(out);
    board.touched().len()
}

/// Focus merge: the per-shard candidate implementation sets are disjoint
/// and each shard ranks its own under the global total order
/// ([`score_id_cmp`]; `impl_global` is monotone), so a k-way merge visits
/// implementations in exactly the unsharded rank order and the fill loop
/// can be replayed verbatim. Each shard's ranking is a lazily sorted
/// prefix: before every merge step each shard's prefix is extended to
/// cover its head, so the merge sorts no further into a shard than it
/// reads.
fn gather_focus<V: ShardView>(
    shards: &[V],
    activity: &Activity,
    k: usize,
    scratch: &mut ShardScratch,
) -> usize {
    let n = shards.len();
    let ShardScratch {
        slots,
        heads,
        seen,
        remaining,
        out,
        ..
    } = scratch;
    heads[..n].fill(0);
    let num_candidates: usize = slots
        .iter()
        .take(n)
        .map(|s| s.scratch.scored_impls().len())
        .sum();

    let h = activity.raw();
    seen.clear();
    seen.extend_from_slice(h);
    'fill: loop {
        for (slot, &head) in slots.iter_mut().zip(heads.iter()).take(n) {
            slot.scratch.ranked_impl(head);
        }
        let next = kway_next(
            n,
            heads,
            |i, pos| {
                let (score, local) = *slots[i].scratch.scored_impls().get(pos)?;
                let global = *shards[i]
                    .impl_global()
                    .get(usize::try_from(local).unwrap_or(usize::MAX))?;
                Some((score, global))
            },
            score_id_cmp,
        );
        let Some(s) = next else { break };
        let (score, local) = slots[s].scratch.scored_impls()[heads[s] - 1];
        let live = shards[s].live();
        if live.is_vacant() {
            continue;
        }
        // The unsharded fill loop (Focus::rank_into), verbatim: emit the
        // implementation's not-yet-seen actions at its score, growing the
        // exclusion set as we go. The live view dispatches a staged local
        // id to the delta and a compiled one to the base model.
        setops::difference_into(live.impl_actions(ImplId::new(local)), seen, remaining);
        for &a in remaining.iter() {
            out.push(Scored::new(ActionId::new(a), score));
            if let Err(pos) = seen.binary_search(&a) {
                seen.insert(pos, a);
            }
            if out.len() == k {
                break 'fill;
            }
        }
    }
    num_candidates
}

/// Best Match merge: shards own whole goals, so the per-shard sums are
/// sums over disjoint goal sets; adding them in `u64` (and OR-ing the
/// candidate flags) gives the unsharded board exactly, in any order. One
/// shard's board already is the unsharded board and is scored in place.
fn gather_best_match<V: ShardView>(
    shards: &[V],
    activity: &Activity,
    metric: DistanceMetric,
    k: usize,
    scratch: &mut ShardScratch,
) -> usize {
    let h = activity.raw();
    let ShardScratch {
        slots,
        terms,
        topk,
        out,
        ..
    } = scratch;
    if let [slot] = &slots[..shards.len()] {
        return slot.scratch.terms().rank_into(metric, h, k, topk, out);
    }
    terms.begin_merge(merged_num_actions(shards));
    for slot in slots.iter().take(shards.len()) {
        terms.merge(slot.scratch.terms());
    }
    terms.rank_into(metric, h, k, topk, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ShardedModel;
    use crate::partition::PartitionMode;
    use goalrec_core::scratch::Scratch;
    use goalrec_core::strategies::{BestMatch, Strategy};
    use goalrec_core::{GoalLibrary, GoalModel, LibraryBuilder};

    /// Example 3.2 / Figure 1 library.
    fn example_library() -> GoalLibrary {
        let mut b = LibraryBuilder::new();
        b.add_impl("g1", ["a1", "a2"]).unwrap();
        b.add_impl("g1", ["a1", "a3"]).unwrap();
        b.add_impl("g2", ["a1", "a4", "a5"]).unwrap();
        b.add_impl("g3", ["a4", "a6"]).unwrap();
        b.add_impl("g5", ["a1", "a2", "a6"]).unwrap();
        b.build().unwrap()
    }

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

    #[test]
    fn api_name_round_trip() {
        assert_eq!(
            ShardStrategy::for_api_name("breadth"),
            Some(ShardStrategy::Breadth)
        );
        assert_eq!(
            ShardStrategy::for_api_name("focus-cmp"),
            Some(ShardStrategy::Focus(FocusVariant::Completeness))
        );
        assert_eq!(
            ShardStrategy::for_api_name("focus-cl"),
            Some(ShardStrategy::Focus(FocusVariant::Closeness))
        );
        assert_eq!(
            ShardStrategy::for_api_name("best-match"),
            Some(ShardStrategy::BestMatch(DistanceMetric::Cosine))
        );
        assert_eq!(ShardStrategy::for_api_name("weighted-breadth"), None);
        assert_eq!(ShardStrategy::for_api_name(""), None);
    }

    #[test]
    fn names_match_the_unsharded_strategies() {
        assert_eq!(ShardStrategy::Breadth.name(), Breadth.name());
        assert_eq!(
            ShardStrategy::Focus(FocusVariant::Completeness).name(),
            Focus::new(FocusVariant::Completeness).name()
        );
        assert_eq!(
            ShardStrategy::Focus(FocusVariant::Closeness).name(),
            Focus::new(FocusVariant::Closeness).name()
        );
        assert_eq!(
            ShardStrategy::BestMatch(DistanceMetric::Cosine).name(),
            BestMatch::default().name()
        );
    }

    #[test]
    fn sharded_matches_unsharded_on_the_paper_example() {
        let lib = example_library();
        let model = GoalModel::build(&lib).unwrap();
        let activities = [
            Activity::from_raw([0]),
            Activity::from_raw([0, 1]),
            Activity::from_raw([1, 2]),
            Activity::from_raw([3]),
            Activity::from_raw([1, 2, 5]),
        ];
        for strategy in ShardStrategy::ALL {
            for mode in [PartitionMode::HashGoal, PartitionMode::BalancedMass] {
                for n in [1usize, 2, 3, 7] {
                    let sharded = ShardedModel::build(&lib, n, mode).unwrap();
                    let mut sc = ShardScratch::new();
                    for h in &activities {
                        for k in [1usize, 3, 10] {
                            let cand = strategy.rank_into(sharded.shards(), h, k, &mut sc);
                            let (expect, expect_cand) = unsharded(&strategy, &model, h, k);
                            assert_eq!(
                                sc.out(),
                                &expect[..],
                                "{} {mode:?} n={n} h={h:?} k={k}",
                                strategy.name()
                            );
                            assert_eq!(
                                cand,
                                expect_cand,
                                "{} {mode:?} n={n} h={h:?} k={k}",
                                strategy.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_activity_and_zero_k_yield_empty() {
        let lib = example_library();
        let sharded = ShardedModel::build(&lib, 2, PartitionMode::HashGoal).unwrap();
        let mut sc = ShardScratch::new();
        for strategy in ShardStrategy::ALL {
            assert_eq!(
                strategy.rank_into(sharded.shards(), &Activity::new(), 5, &mut sc),
                0
            );
            assert!(sc.out().is_empty());
            assert_eq!(
                strategy.rank_into(sharded.shards(), &Activity::from_raw([0]), 0, &mut sc),
                0
            );
            assert!(sc.out().is_empty());
        }
    }

    #[test]
    fn stale_slot_state_cannot_leak_between_requests() {
        // A broad first request followed by a narrow second one: the second
        // merge must not see the first request's per-shard results.
        let lib = example_library();
        let model = GoalModel::build(&lib).unwrap();
        let sharded = ShardedModel::build(&lib, 3, PartitionMode::HashGoal).unwrap();
        let mut sc = ShardScratch::new();
        for strategy in ShardStrategy::ALL {
            let broad = Activity::from_raw([0, 1, 2, 3]);
            strategy.rank_into(sharded.shards(), &broad, 10, &mut sc);
            let narrow = Activity::from_raw([3]);
            strategy.rank_into(sharded.shards(), &narrow, 10, &mut sc);
            let (expect, _) = unsharded(&strategy, &model, &narrow, 10);
            assert_eq!(sc.out(), &expect[..], "{}", strategy.name());
        }
    }

    #[test]
    fn unknown_actions_are_ignored_like_unsharded() {
        let lib = example_library();
        let model = GoalModel::build(&lib).unwrap();
        let sharded = ShardedModel::build(&lib, 2, PartitionMode::BalancedMass).unwrap();
        let mut sc = ShardScratch::new();
        let h = Activity::from_raw([0, 999]);
        for strategy in ShardStrategy::ALL {
            strategy.rank_into(sharded.shards(), &h, 10, &mut sc);
            let (expect, _) = unsharded(&strategy, &model, &h, 10);
            assert_eq!(sc.out(), &expect[..], "{}", strategy.name());
        }
    }
}
