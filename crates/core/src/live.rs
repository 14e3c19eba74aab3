//! Base + delta overlay: live library mutation without a rebuild.
//!
//! The serving path wants the immutable CSR [`GoalModel`] — two flat
//! allocations per index, cache-friendly row walks — but a live library
//! grows continuously. Rather than rebuilding `O(model)` per accepted
//! implementation, new implementations land in a small append-only
//! [`DeltaSegment`] side-index that is overlaid *transparently* on the
//! base model: a [`LiveRef`] presents the pair as one logical model
//! through the [`AssocView`] trait, and every built-in strategy ranks
//! through it bit-identically to a full rebuild of the merged library
//! (proven property-style in `tests/live_overlay.rs`).
//!
//! ## Why the overlay is exact
//!
//! Delta implementation ids are a dense suffix of the base id space
//! (`base 0..B`, `delta B..`), so every merged posting list is
//! `base_row ⧺ delta_row` — still strictly increasing, in exactly the
//! order `GoalModel::build` would emit after a merge. Integer partial
//! sums (Breadth), total-order sorts (Focus) and exact count vectors
//! (Best Match) are all insensitive to the row being split in two, so
//! the overlay read path reproduces the rebuilt model's rankings
//! bit-for-bit.
//!
//! ## Allocation discipline
//!
//! A [`LiveRef`] with an empty delta walks the identical slices the
//! plain model path walks — zero heap traffic (pinned by
//! `tests/alloc_counting.rs`). A non-empty delta adds `HashMap` *reads*
//! into the segment's side-indexes; only mutating the segment itself
//! (an admin-rate append) allocates.

use crate::error::{Error, Result};
use crate::ids::{ActionId, GoalId, ImplId};
use crate::library::GoalLibrary;
use crate::model::GoalModel;
use crate::setops;
use std::collections::HashMap;

/// Read access to one logical association model — either a plain
/// [`GoalModel`] or a base + [`DeltaSegment`] overlay.
///
/// The trait mirrors the closed accessor surface the ranking strategies
/// use. Posting-list reads come in two parts (`base`, `delta`) so the
/// overlay never has to materialise a merged row; for a plain model the
/// second part is always empty.
pub trait AssocView {
    /// Number of actions `|𝒜|` (dictionary size).
    fn num_actions(&self) -> usize;
    /// Number of goals `|𝒢|`.
    fn num_goals(&self) -> usize;
    /// Number of implementations `|L|`.
    fn num_impls(&self) -> usize;
    /// `GI-A-idx[p]`: the activity of implementation `p`.
    fn impl_actions(&self, p: ImplId) -> &[u32];
    /// `GI-G-idx[p]`: the goal implementation `p` fulfils.
    fn impl_goal(&self, p: ImplId) -> GoalId;
    /// `A-GI-idx[a]` split as (base row, delta row); both strictly
    /// increasing, every delta id greater than every base id.
    fn action_impls_parts(&self, a: ActionId) -> (&[u32], &[u32]);
    /// Inverse `GI-G-idx[g]` split as (base row, delta row).
    fn goal_impls_parts(&self, g: GoalId) -> (&[u32], &[u32]);
}

impl AssocView for GoalModel {
    fn num_actions(&self) -> usize {
        GoalModel::num_actions(self)
    }

    fn num_goals(&self) -> usize {
        GoalModel::num_goals(self)
    }

    fn num_impls(&self) -> usize {
        GoalModel::num_impls(self)
    }

    fn impl_actions(&self, p: ImplId) -> &[u32] {
        GoalModel::impl_actions(self, p)
    }

    fn impl_goal(&self, p: ImplId) -> GoalId {
        GoalModel::impl_goal(self, p)
    }

    fn action_impls_parts(&self, a: ActionId) -> (&[u32], &[u32]) {
        (GoalModel::action_impls(self, a), &[])
    }

    fn goal_impls_parts(&self, g: GoalId) -> (&[u32], &[u32]) {
        (GoalModel::goal_impls(self, g), &[])
    }
}

/// Implementation space of an activity over any view:
/// `IS(H) = ∪_{a∈H} IS(a)`, into a caller-owned buffer (cleared first).
pub fn implementation_space_into<V: AssocView + ?Sized>(
    view: &V,
    activity: &[u32],
    out: &mut Vec<u32>,
) {
    out.clear();
    for &a in activity {
        let a = ActionId::new(a);
        if a.index() < view.num_actions() {
            let (base, delta) = view.action_impls_parts(a);
            out.extend_from_slice(base);
            out.extend_from_slice(delta);
        }
    }
    setops::normalize(out);
}

/// The distinct goals of a pre-computed implementation set over any
/// view, into a caller-owned buffer (cleared first).
pub fn goals_of_impls_into<V: AssocView + ?Sized>(view: &V, impls: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.extend(impls.iter().map(|&p| view.impl_goal(ImplId::new(p)).raw()));
    setops::normalize(out);
}

/// Action space of an activity over any view from a pre-computed
/// `IS(H)`, into a caller-owned buffer (cleared first).
pub fn action_space_into<V: AssocView + ?Sized>(
    view: &V,
    activity: &[u32],
    impl_space: &[u32],
    out: &mut Vec<u32>,
) {
    out.clear();
    for &p in impl_space {
        out.extend_from_slice(view.impl_actions(ImplId::new(p)));
    }
    setops::normalize(out);
    out.retain(|&x| !setops::contains(activity, x));
}

/// An append-only staging segment holding implementations accepted
/// since the base model was compiled.
///
/// Implementation ids continue the base id space: the first staged
/// implementation gets id `first_impl` (the base's `num_impls`), the
/// next `first_impl + 1`, and so on — a dense suffix. Postings are kept
/// in sparse side-indexes (`HashMap` keyed by action/goal id) whose
/// rows stay strictly increasing because ids are handed out in
/// increasing order; a lookup miss costs one hash probe and zero
/// allocations. The segment is append-only.
#[derive(Debug, Clone, Default)]
pub struct DeltaSegment {
    /// First implementation id owned by this segment (= base impl count).
    first_impl: u32,
    /// Staged impl (local order) → sorted actions.
    impl_actions: Vec<Vec<u32>>,
    /// Staged impl (local order) → goal id.
    impl_goal: Vec<u32>,
    /// Goal id → sorted staged implementation ids (global).
    goal_impls: HashMap<u32, Vec<u32>>,
    /// Action id → sorted staged implementation ids (global).
    action_impls: HashMap<u32, Vec<u32>>,
    /// Merged action-space extent (≥ the base's `num_actions`).
    num_actions: usize,
    /// Merged goal-space extent (≥ the base's `num_goals`).
    num_goals: usize,
}

impl DeltaSegment {
    /// An empty segment whose id spaces start from the given extents.
    pub fn new(first_impl: u32, num_actions: usize, num_goals: usize) -> Self {
        Self {
            first_impl,
            num_actions,
            num_goals,
            ..Self::default()
        }
    }

    /// An empty segment continuing `base`'s id spaces.
    pub fn for_base(base: &GoalModel) -> Self {
        Self::new(
            u32::try_from(base.num_impls()).unwrap_or(u32::MAX),
            base.num_actions(),
            base.num_goals(),
        )
    }

    /// Stages one implementation, growing the action/goal extents as
    /// needed. Returns the new implementation's (global) id.
    pub fn append(&mut self, goal: GoalId, actions: Vec<ActionId>) -> Result<ImplId> {
        let mut acts: Vec<u32> = actions.into_iter().map(ActionId::raw).collect();
        setops::normalize(&mut acts);
        let Some(&last_action) = acts.last() else {
            return Err(Error::EmptyImplementation {
                goal: goal.to_string(),
            });
        };
        let pid = self.first_impl + u32::try_from(self.impl_actions.len()).unwrap_or(u32::MAX);
        self.num_actions = self.num_actions.max(ActionId::new(last_action).index() + 1);
        self.num_goals = self.num_goals.max(goal.index() + 1);
        self.goal_impls.entry(goal.raw()).or_default().push(pid);
        for &a in &acts {
            self.action_impls.entry(a).or_default().push(pid);
        }
        self.impl_actions.push(acts);
        self.impl_goal.push(goal.raw());
        Ok(ImplId::new(pid))
    }

    /// Position of a segment-owned implementation id inside the staged
    /// vectors (callers have checked `p.raw() >= self.first_impl`).
    fn local(&self, p: ImplId) -> usize {
        p.index() - ImplId::new(self.first_impl).index()
    }

    /// First implementation id owned by the segment.
    pub fn first_impl(&self) -> u32 {
        self.first_impl
    }

    /// One past the last assigned implementation id.
    pub fn next_impl(&self) -> u32 {
        self.first_impl + u32::try_from(self.impl_actions.len()).unwrap_or(u32::MAX)
    }

    /// Number of staged implementations.
    pub fn len(&self) -> usize {
        self.impl_actions.len()
    }

    /// Whether the segment stages no implementation.
    pub fn is_empty(&self) -> bool {
        self.impl_actions.is_empty()
    }

    /// Merged action-space extent.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Merged goal-space extent.
    pub fn num_goals(&self) -> usize {
        self.num_goals
    }

    /// Staged postings of action `a` (global ids; empty on a miss).
    pub fn action_impls(&self, a: ActionId) -> &[u32] {
        self.action_impls
            .get(&a.raw())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Staged implementations of goal `g` (global ids; empty on a miss).
    pub fn goal_impls(&self, g: GoalId) -> &[u32] {
        self.goal_impls
            .get(&g.raw())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The activity of staged implementation `p` (global id).
    pub fn impl_actions(&self, p: ImplId) -> &[u32] {
        &self.impl_actions[self.local(p)]
    }

    /// The goal of staged implementation `p` (global id).
    pub fn impl_goal(&self, p: ImplId) -> GoalId {
        GoalId::new(self.impl_goal[self.local(p)])
    }

    /// Iterates the staged implementations in id order as
    /// `(goal, actions)` — the merge/persistence order.
    pub fn staged(&self) -> impl Iterator<Item = (GoalId, &[u32])> + '_ {
        self.impl_actions
            .iter()
            .zip(&self.impl_goal)
            .map(|(acts, &g)| (GoalId::new(g), acts.as_slice()))
    }

    /// Approximate heap footprint of the segment in bytes.
    pub fn memory_bytes(&self) -> usize {
        let posting = std::mem::size_of::<u32>();
        let staged: usize = self.impl_actions.iter().map(|r| r.len() * posting).sum();
        let inverted: usize = self
            .goal_impls
            .values()
            .chain(self.action_impls.values())
            .map(|r| r.len() * posting)
            .sum();
        staged + inverted + self.impl_goal.len() * posting
    }
}

/// A borrowed base + delta overlay presenting one logical model.
///
/// `Copy`, two pointers wide — built per request from whatever snapshot
/// the caller holds. Either side may be absent: a solid model has no
/// delta, and an empty shard that only holds staged appends has no base.
#[derive(Clone, Copy)]
pub struct LiveRef<'a> {
    base: Option<&'a GoalModel>,
    delta: Option<&'a DeltaSegment>,
}

impl<'a> LiveRef<'a> {
    /// A view of a plain model with no staged mutations.
    pub fn solid(base: &'a GoalModel) -> Self {
        Self {
            base: Some(base),
            delta: None,
        }
    }

    /// A view of a base model with a staged overlay. An empty delta is
    /// dropped so the read path degenerates to the solid case.
    pub fn overlay(base: &'a GoalModel, delta: &'a DeltaSegment) -> Self {
        Self {
            base: Some(base),
            delta: (!delta.is_empty()).then_some(delta),
        }
    }

    /// A view over optional parts — the shard plane's entry point,
    /// where a shard may be empty (no base) yet hold staged appends.
    pub fn from_parts(base: Option<&'a GoalModel>, delta: Option<&'a DeltaSegment>) -> Self {
        Self {
            base,
            delta: delta.filter(|d| !d.is_empty()),
        }
    }

    /// The base model, if any.
    pub fn base(&self) -> Option<&'a GoalModel> {
        self.base
    }

    /// The staged (non-empty) delta, if any.
    pub fn delta(&self) -> Option<&'a DeltaSegment> {
        self.delta
    }

    /// The plain compiled model when nothing is staged over it — the
    /// exact fast path every reader dispatches to — or `None` when the
    /// overlay must be read (a vacant view reads as empty).
    pub fn unstaged(&self) -> Option<&'a GoalModel> {
        self.base.filter(|_| self.delta.is_none())
    }

    /// Whether there is nothing to rank over at all.
    pub fn is_vacant(&self) -> bool {
        self.base.is_none() && self.delta.is_none()
    }

    fn split_at(&self) -> u32 {
        match self.delta {
            Some(d) => d.first_impl(),
            None => u32::MAX,
        }
    }

    /// Materialises the merged library `base ⊕ delta` — the compaction
    /// input. Implementations appear in global id order (base first,
    /// then staged ones), so a model built from it assigns every
    /// implementation its overlay id.
    pub fn to_library(&self) -> Result<GoalLibrary> {
        let mut impls: Vec<(GoalId, Vec<ActionId>)> = Vec::with_capacity(self.num_impls());
        if let Some(base) = self.base {
            for p in 0..base.num_impls() {
                let p = ImplId::new(u32::try_from(p).unwrap_or(u32::MAX));
                impls.push((
                    base.impl_goal(p),
                    base.impl_actions(p)
                        .iter()
                        .copied()
                        .map(ActionId::new)
                        .collect(),
                ));
            }
        }
        if let Some(delta) = self.delta {
            for (g, acts) in delta.staged() {
                impls.push((g, acts.iter().copied().map(ActionId::new).collect()));
            }
        }
        GoalLibrary::from_id_implementations(
            u32::try_from(self.num_actions()).unwrap_or(u32::MAX),
            u32::try_from(self.num_goals()).unwrap_or(u32::MAX),
            impls,
        )
    }

    /// Compiles the merged model — what a background compaction swaps
    /// in. Bit-identical to ranking through the overlay (the property
    /// `tests/live_overlay.rs` pins).
    // goalrec-lint:allow(hot-path-alloc): compaction input — built on the supervisor thread; the only serving-path caller is the default `rank_live_into` fallback for third-party strategies (every built-in overrides it with an allocation-free overlay read)
    pub fn to_model(&self) -> Result<GoalModel> {
        GoalModel::build(&self.to_library()?)
    }
}

impl AssocView for LiveRef<'_> {
    fn num_actions(&self) -> usize {
        match (self.delta, self.base) {
            (Some(d), _) => d.num_actions(),
            (None, Some(b)) => b.num_actions(),
            (None, None) => 0,
        }
    }

    fn num_goals(&self) -> usize {
        match (self.delta, self.base) {
            (Some(d), _) => d.num_goals(),
            (None, Some(b)) => b.num_goals(),
            (None, None) => 0,
        }
    }

    fn num_impls(&self) -> usize {
        match (self.delta, self.base) {
            (Some(d), _) => ImplId::new(d.next_impl()).index(),
            (None, Some(b)) => b.num_impls(),
            (None, None) => 0,
        }
    }

    fn impl_actions(&self, p: ImplId) -> &[u32] {
        if p.raw() < self.split_at() {
            match self.base {
                Some(b) => b.impl_actions(p),
                None => &[],
            }
        } else {
            match self.delta {
                Some(d) => d.impl_actions(p),
                None => &[],
            }
        }
    }

    fn impl_goal(&self, p: ImplId) -> GoalId {
        if p.raw() < self.split_at() {
            match self.base {
                Some(b) => b.impl_goal(p),
                None => GoalId::new(0),
            }
        } else {
            match self.delta {
                Some(d) => d.impl_goal(p),
                None => GoalId::new(0),
            }
        }
    }

    fn action_impls_parts(&self, a: ActionId) -> (&[u32], &[u32]) {
        let base = match self.base {
            Some(b) if a.index() < b.num_actions() => b.action_impls(a),
            _ => &[],
        };
        let delta = match self.delta {
            Some(d) => d.action_impls(a),
            None => &[],
        };
        (base, delta)
    }

    fn goal_impls_parts(&self, g: GoalId) -> (&[u32], &[u32]) {
        let base = match self.base {
            Some(b) if g.index() < b.num_goals() => b.goal_impls(g),
            _ => &[],
        };
        let delta = match self.delta {
            Some(d) => d.goal_impls(g),
            None => &[],
        };
        (base, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryBuilder;

    /// Example 3.2 / Figure 1 model.
    fn base() -> GoalModel {
        let mut b = LibraryBuilder::new();
        b.add_impl("g1", ["a1", "a2"]).unwrap();
        b.add_impl("g1", ["a1", "a3"]).unwrap();
        b.add_impl("g2", ["a1", "a4", "a5"]).unwrap();
        b.add_impl("g3", ["a4", "a6"]).unwrap();
        b.add_impl("g5", ["a1", "a2", "a6"]).unwrap();
        GoalModel::build(&b.build().unwrap()).unwrap()
    }

    fn ids(v: &[u32]) -> Vec<ActionId> {
        v.iter().map(|&x| ActionId::new(x)).collect()
    }

    #[test]
    fn solid_view_matches_the_model() {
        let m = base();
        let live = LiveRef::solid(&m);
        assert_eq!(AssocView::num_actions(&live), m.num_actions());
        assert_eq!(AssocView::num_impls(&live), 5);
        assert_eq!(
            live.action_impls_parts(ActionId::new(0)),
            (m.action_impls(ActionId::new(0)), &[][..])
        );
        let mut got = Vec::new();
        let mut want = Vec::new();
        implementation_space_into(&live, &[1], &mut got);
        implementation_space_into(&m, &[1], &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn delta_extends_every_index_as_a_suffix() {
        let m = base();
        let mut d = DeltaSegment::for_base(&m);
        assert_eq!(d.first_impl(), 5);
        // New impl: goal g1 (id 0), actions a1 + a new action a7 (id 6).
        let p = d.append(GoalId::new(0), ids(&[0, 6])).unwrap();
        assert_eq!(p, ImplId::new(5));
        assert_eq!(d.num_actions(), 7);
        let live = LiveRef::overlay(&m, &d);
        assert_eq!(AssocView::num_impls(&live), 6);
        assert_eq!(AssocView::num_actions(&live), 7);
        // a1's posting list grows by the suffix [5].
        let (b, extra) = live.action_impls_parts(ActionId::new(0));
        assert_eq!(b, &[0, 1, 2, 4]);
        assert_eq!(extra, &[5]);
        // The brand-new action only exists in the delta.
        let (b, extra) = live.action_impls_parts(ActionId::new(6));
        assert!(b.is_empty());
        assert_eq!(extra, &[5]);
        // Goal row likewise.
        let (b, extra) = live.goal_impls_parts(GoalId::new(0));
        assert_eq!(b, &[0, 1]);
        assert_eq!(extra, &[5]);
        assert_eq!(AssocView::impl_actions(&live, p), &[0, 6]);
        assert_eq!(AssocView::impl_goal(&live, p), GoalId::new(0));
    }

    #[test]
    fn empty_delta_overlay_degenerates_to_solid() {
        let m = base();
        let d = DeltaSegment::for_base(&m);
        let live = LiveRef::overlay(&m, &d);
        assert!(live.delta().is_none());
        assert_eq!(AssocView::num_impls(&live), 5);
    }

    #[test]
    fn spaces_through_the_overlay_match_a_merged_rebuild() {
        let m = base();
        let mut d = DeltaSegment::for_base(&m);
        d.append(GoalId::new(1), ids(&[1, 6])).unwrap();
        d.append(GoalId::new(4), ids(&[0, 7])).unwrap();
        let live = LiveRef::overlay(&m, &d);
        let merged = live.to_model().unwrap();
        for h in [vec![0u32], vec![1], vec![6], vec![0, 7], vec![9]] {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            implementation_space_into(&live, &h, &mut got);
            implementation_space_into(&merged, &h, &mut want);
            assert_eq!(got, want, "IS H={h:?}");
            let (mut goals, mut want_goals) = (Vec::new(), Vec::new());
            goals_of_impls_into(&live, &got, &mut goals);
            goals_of_impls_into(&merged, &want, &mut want_goals);
            assert_eq!(goals, want_goals, "GS H={h:?}");
            let (mut acts, mut want_acts) = (Vec::new(), Vec::new());
            action_space_into(&live, &h, &got, &mut acts);
            action_space_into(&merged, &h, &want, &mut want_acts);
            assert_eq!(acts, want_acts, "AS H={h:?}");
        }
    }

    #[test]
    fn to_library_round_trips_ids() {
        let m = base();
        let mut d = DeltaSegment::for_base(&m);
        d.append(GoalId::new(0), ids(&[2, 6])).unwrap();
        let live = LiveRef::overlay(&m, &d);
        let merged = live.to_model().unwrap();
        assert_eq!(merged.num_impls(), 6);
        // Overlay ids survive the merge: every impl reads identically.
        for p in 0..6u32 {
            let p = ImplId::new(p);
            assert_eq!(merged.impl_actions(p), AssocView::impl_actions(&live, p));
            assert_eq!(merged.impl_goal(p), AssocView::impl_goal(&live, p));
        }
    }

    #[test]
    fn append_rejects_empty_and_dedups() {
        let mut d = DeltaSegment::new(0, 0, 0);
        assert!(d.append(GoalId::new(0), vec![]).is_err());
        let p = d.append(GoalId::new(2), ids(&[3, 1, 3])).unwrap();
        assert_eq!(d.impl_actions(p), &[1, 3]);
        assert_eq!(d.num_goals(), 3);
        assert_eq!(d.num_actions(), 4);
    }

    #[test]
    fn delta_only_view_serves_without_a_base() {
        let mut d = DeltaSegment::new(0, 0, 0);
        d.append(GoalId::new(0), ids(&[0, 1])).unwrap();
        d.append(GoalId::new(1), ids(&[0])).unwrap();
        let live = LiveRef::from_parts(None, Some(&d));
        let mut impls = Vec::new();
        implementation_space_into(&live, &[0], &mut impls);
        assert_eq!(impls, vec![0, 1]);
        let mut goals = Vec::new();
        goals_of_impls_into(&live, &impls, &mut goals);
        assert_eq!(goals, vec![0, 1]);
    }

    #[test]
    fn unstaged_is_the_base_only_when_nothing_is_staged_and_vacant_ranks_nothing() {
        let m = base();
        assert!(LiveRef::solid(&m).unstaged().is_some());
        let mut d = DeltaSegment::for_base(&m);
        assert!(LiveRef::overlay(&m, &d).unstaged().is_some());
        d.append(GoalId::new(0), ids(&[0, 6])).unwrap();
        assert!(LiveRef::overlay(&m, &d).unstaged().is_none());

        let vacant = LiveRef::from_parts(None, None);
        assert!(vacant.unstaged().is_none());
        let activity = crate::Activity::from_raw([0u32, 1]);
        let mut scratch = crate::scratch::Scratch::new();
        for s in crate::strategies::default_strategies() {
            assert_eq!(s.rank_live_into(vacant, &activity, 3, &mut scratch), 0);
            assert!(scratch.out.is_empty(), "{}", s.name());
        }
    }

    #[test]
    fn memory_accounting_positive() {
        let m = base();
        let mut d = DeltaSegment::for_base(&m);
        assert_eq!(d.memory_bytes(), 0);
        d.append(GoalId::new(0), ids(&[0, 6])).unwrap();
        assert!(d.memory_bytes() > 0);
    }
}
