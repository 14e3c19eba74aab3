//! Per-shard compiled sub-models.
//!
//! [`ShardedModel::build`] partitions a library's implementations by their
//! goal's shard assignment and compiles each partition into an ordinary
//! [`GoalModel`] via the zero-copy CSR entry point. Every shard keeps the
//! **full global action and goal id spaces** — only implementation ids are
//! renumbered locally — so per-shard set algebra speaks global action ids
//! directly and a single monotone `local → global` implementation map per
//! shard recovers global implementation ids during the merge.
//!
//! [`ShardView`] is the read abstraction the scatter/gather code ranks
//! through. The serving layer implements it for its own per-shard snapshot
//! type so reload can swap one shard's model without touching the others.

use crate::partition::{goal_assignments, PartitionMode};
use goalrec_core::{DeltaSegment, Error, GoalLibrary, GoalModel, LiveRef, Result};

/// One shard's compiled sub-model plus its implementation id map.
#[derive(Debug)]
pub struct ShardModel {
    /// The compiled index over this shard's implementations; `None` when
    /// the partition assigned this shard no implementations at all (an
    /// empty shard serves empty results and is skipped by the merge).
    model: Option<GoalModel>,
    /// Monotone map from local implementation id (row in `model`) to the
    /// implementation's id in the unsharded library. Monotone because the
    /// partitioner walks implementations in global order, which is what
    /// lets per-shard rankings merge under the global id tie-break.
    impl_global: Vec<u32>,
}

impl ShardModel {
    /// Reassembles a shard from an already-compiled sub-model and its
    /// local → global implementation map — the entry point for booting a
    /// shard off a persisted snapshot instead of re-partitioning a
    /// library. Enforces what [`ShardedModel::build`] guarantees by
    /// construction: one map entry per model row, and strictly monotone
    /// global ids (the k-way merge's global tie-break depends on it).
    pub fn from_parts(model: Option<GoalModel>, impl_global: Vec<u32>) -> Result<Self> {
        let rows = model.as_ref().map_or(0, GoalModel::num_impls);
        if impl_global.len() != rows {
            return Err(Error::CorruptModel {
                detail: format!(
                    "shard impl map has {} entries for {rows} model rows",
                    impl_global.len()
                ),
            });
        }
        if let Some(w) = impl_global.windows(2).find(|w| w[0] >= w[1]) {
            return Err(Error::CorruptModel {
                detail: format!(
                    "shard impl map is not strictly monotone ({} then {})",
                    w[0], w[1]
                ),
            });
        }
        Ok(ShardModel { model, impl_global })
    }

    /// The shard's compiled model, or `None` for an empty shard.
    pub fn model(&self) -> Option<&GoalModel> {
        self.model.as_ref()
    }

    /// The local → global implementation id map (one entry per local id).
    pub fn impl_global(&self) -> &[u32] {
        &self.impl_global
    }

    /// Number of implementations on this shard.
    pub fn num_impls(&self) -> usize {
        self.impl_global.len()
    }
}

/// Read access to one shard, as the scatter/gather code sees it.
///
/// Implemented by [`ShardModel`] for direct in-process use and by the
/// serving layer's per-shard snapshot (an `Arc` the reload path swaps
/// atomically), so ranking code is generic over where the shard lives.
pub trait ShardView {
    /// The shard's compiled model, or `None` for an empty shard.
    fn model(&self) -> Option<&GoalModel>;
    /// The monotone local → global implementation id map. When the shard
    /// carries a live delta, the map must also cover the staged local ids
    /// (a dense suffix starting at the delta's `first_impl`), still
    /// monotone — staged implementations get ever-larger global ids.
    fn impl_global(&self) -> &[u32];
    /// The shard's staged live-append delta, if any. Defaults to `None`
    /// so existing snapshot types keep compiling unchanged.
    fn delta(&self) -> Option<&DeltaSegment> {
        None
    }
    /// The base ⊕ delta view this shard serves — what the scatter/gather
    /// phases rank through.
    fn live(&self) -> LiveRef<'_> {
        LiveRef::from_parts(self.model(), self.delta())
    }
}

impl ShardView for ShardModel {
    fn model(&self) -> Option<&GoalModel> {
        self.model()
    }

    fn impl_global(&self) -> &[u32] {
        self.impl_global()
    }
}

impl<T: ShardView + ?Sized> ShardView for &T {
    fn model(&self) -> Option<&GoalModel> {
        (**self).model()
    }

    fn impl_global(&self) -> &[u32] {
        (**self).impl_global()
    }

    fn delta(&self) -> Option<&DeltaSegment> {
        (**self).delta()
    }
}

impl<T: ShardView + ?Sized> ShardView for std::sync::Arc<T> {
    fn model(&self) -> Option<&GoalModel> {
        (**self).model()
    }

    fn impl_global(&self) -> &[u32] {
        (**self).impl_global()
    }

    fn delta(&self) -> Option<&DeltaSegment> {
        (**self).delta()
    }
}

/// A goal-partitioned library compiled into per-shard sub-models.
#[derive(Debug)]
pub struct ShardedModel {
    shards: Vec<ShardModel>,
    mode: PartitionMode,
    assignments: Vec<usize>,
}

impl ShardedModel {
    /// Partitions `library` into `num_shards` (clamped to ≥ 1) sub-models
    /// under the given placement policy and compiles each non-empty
    /// partition. Fails only if a sub-model fails validation, which would
    /// indicate a partitioner bug rather than bad input.
    pub fn build(library: &GoalLibrary, num_shards: usize, mode: PartitionMode) -> Result<Self> {
        let n = num_shards.max(1);
        let assignments = goal_assignments(library, n, mode);
        if n == 1 && !library.is_empty() {
            // One shard holds the whole library under its own ids: compile
            // it straight from the library instead of copying it through a
            // partition first (same model, half the peak memory).
            let len = u32::try_from(library.len()).unwrap_or(u32::MAX);
            return Ok(Self {
                shards: vec![ShardModel {
                    model: Some(GoalModel::build(library)?),
                    impl_global: (0..len).collect(),
                }],
                mode,
                assignments,
            });
        }

        // One CSR accumulator per shard; walking implementations in global
        // order keeps every per-shard impl_global map monotone.
        let mut parts: Vec<ShardPart> = (0..n).map(|_| ShardPart::default()).collect();
        for (i, imp) in library.implementations().iter().enumerate() {
            // Ids were handed out by a u32 interner, so they always fit.
            let global = u32::try_from(i).unwrap_or(u32::MAX);
            parts[assignments[imp.goal.index()]].push(global, imp.goal.raw(), imp.action_raw());
        }

        let mut shards = Vec::with_capacity(n);
        for part in parts {
            shards.push(part.compile(library.num_actions(), library.num_goals())?);
        }
        Ok(Self {
            shards,
            mode,
            assignments,
        })
    }

    /// The per-shard sub-models, indexed by shard id.
    pub fn shards(&self) -> &[ShardModel] {
        &self.shards
    }

    /// Number of shards (≥ 1).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The placement policy this model was built with.
    pub fn mode(&self) -> PartitionMode {
        self.mode
    }

    /// The goal → shard assignment used (`assignments[g]` = shard of `g`).
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Consumes the model, yielding the per-shard sub-models — what the
    /// serving layer wraps into individually swappable snapshots.
    pub fn into_shards(self) -> Vec<ShardModel> {
        self.shards
    }
}

/// Flat CSR accumulator for one shard's implementations.
#[derive(Default)]
struct ShardPart {
    impl_goal: Vec<u32>,
    offsets: Vec<u32>,
    data: Vec<u32>,
    impl_global: Vec<u32>,
}

impl ShardPart {
    fn push(&mut self, global_impl: u32, goal: u32, actions: &[u32]) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.impl_goal.push(goal);
        self.data.extend_from_slice(actions);
        // Postings counts come from a u32-indexed library, so they fit.
        self.offsets
            .push(u32::try_from(self.data.len()).unwrap_or(u32::MAX));
        self.impl_global.push(global_impl);
    }

    fn compile(self, num_actions: usize, num_goals: usize) -> Result<ShardModel> {
        let model = if self.impl_goal.is_empty() {
            None
        } else {
            Some(GoalModel::from_csr_parts(
                num_actions,
                num_goals,
                self.impl_goal,
                self.offsets,
                self.data,
            )?)
        };
        Ok(ShardModel {
            model,
            impl_global: self.impl_global,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goalrec_core::ids::ImplId;
    use goalrec_core::LibraryBuilder;

    /// Example 3.2 / Figure 1 library: a1..a6 → 0..5, goals g1,g2,g3,g5 →
    /// 0..3, impls p1..p5 → 0..4.
    fn example_library() -> GoalLibrary {
        let mut b = LibraryBuilder::new();
        b.add_impl("g1", ["a1", "a2"]).unwrap();
        b.add_impl("g1", ["a1", "a3"]).unwrap();
        b.add_impl("g2", ["a1", "a4", "a5"]).unwrap();
        b.add_impl("g3", ["a4", "a6"]).unwrap();
        b.add_impl("g5", ["a1", "a2", "a6"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn shards_partition_the_implementations() {
        let lib = example_library();
        for mode in [PartitionMode::HashGoal, PartitionMode::BalancedMass] {
            for n in [1usize, 2, 3, 7] {
                let sharded = ShardedModel::build(&lib, n, mode).unwrap();
                assert_eq!(sharded.num_shards(), n);
                let mut seen: Vec<u32> = sharded
                    .shards()
                    .iter()
                    .flat_map(|s| s.impl_global().iter().copied())
                    .collect();
                seen.sort_unstable();
                assert_eq!(seen, vec![0, 1, 2, 3, 4], "{mode:?} n={n}");
            }
        }
    }

    #[test]
    fn impl_global_maps_are_monotone() {
        let lib = example_library();
        let sharded = ShardedModel::build(&lib, 3, PartitionMode::HashGoal).unwrap();
        for shard in sharded.shards() {
            assert!(shard.impl_global().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn shard_rows_match_the_global_library() {
        let lib = example_library();
        let global = GoalModel::build(&lib).unwrap();
        let sharded = ShardedModel::build(&lib, 2, PartitionMode::BalancedMass).unwrap();
        for shard in sharded.shards() {
            let Some(model) = shard.model() else { continue };
            // Full global id spaces on every shard.
            assert_eq!(model.num_actions(), global.num_actions());
            assert_eq!(model.num_goals(), global.num_goals());
            for (local, &g) in shard.impl_global().iter().enumerate() {
                let local = ImplId::new(u32::try_from(local).unwrap());
                let global_id = ImplId::new(g);
                assert_eq!(model.impl_actions(local), global.impl_actions(global_id));
                assert_eq!(model.impl_goal(local), global.impl_goal(global_id));
            }
        }
    }

    #[test]
    fn goals_stay_whole() {
        // Every implementation of one goal must land on the same shard.
        let lib = example_library();
        let sharded = ShardedModel::build(&lib, 4, PartitionMode::HashGoal).unwrap();
        let a = sharded.assignments();
        for (s, shard) in sharded.shards().iter().enumerate() {
            let Some(model) = shard.model() else { continue };
            for local in 0..shard.num_impls() {
                let g = model.impl_goal(ImplId::new(u32::try_from(local).unwrap()));
                assert_eq!(a[g.index()], s);
            }
        }
    }

    #[test]
    fn empty_shards_have_no_model() {
        // 7 shards for 4 goals: at least 3 shards must be empty.
        let lib = example_library();
        let sharded = ShardedModel::build(&lib, 7, PartitionMode::BalancedMass).unwrap();
        let empty = sharded
            .shards()
            .iter()
            .filter(|s| s.model().is_none())
            .count();
        assert!(empty >= 3);
        for shard in sharded.shards() {
            assert_eq!(shard.model().is_none(), shard.num_impls() == 0);
        }
    }
}
