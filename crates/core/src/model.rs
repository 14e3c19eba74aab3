//! The association-based goal model (§4) — the compiled index structures.
//!
//! The paper materialises the library `L` into a set of indexes so that goal
//! and action spaces can be formed "in real time" (Eq. 1–2):
//!
//! * `GI-A-idx` — implementation id → its activity (sorted action ids);
//! * `GI-G-idx` — implementation id → its goal, plus the inverse goal →
//!   implementation ids;
//! * `A-GI-idx` — action id → the implementation ids it contributes to
//!   (the action's *implementation space* `IS(a)`).
//!
//! [`GoalModel`] stores each posting-list index in CSR form (the
//! crate-private `csr` module): one flat offsets array plus one flat data array, so a
//! whole index is two allocations and walking `IS(H)` streams contiguous
//! memory. Every row is a strictly increasing `u32` slice, which makes the
//! set algebra of [`crate::setops`] directly applicable.

use crate::csr::{self, Csr, CsrBacking};
use crate::error::{Error, Result};
use crate::ids::{ActionId, GoalId, ImplId};
use crate::library::{actions_as_raw, GoalLibrary, LibraryStats};
use crate::live;
use crate::setops;
use goalrec_obs::{self as obs, names, Timer};

/// The compiled association-based goal model.
///
/// Hypergraph reading (Fig. 2 of the paper): every implementation is a
/// hyperedge connecting its actions, labelled by its goal. The model is
/// immutable after construction; rebuilding after library changes is the
/// intended workflow (construction is a handful of linear passes, the
/// counting-sort fills running partition-parallel).
#[derive(Debug, Clone)]
pub struct GoalModel {
    /// `GI-A-idx`: implementation → sorted actions.
    impl_actions: Csr,
    /// `GI-G-idx` (forward): implementation → goal.
    impl_goal: CsrBacking,
    /// `GI-G-idx` (inverse): goal → sorted implementation ids.
    goal_impls: Csr,
    /// `A-GI-idx`: action → sorted implementation ids (`IS(a)`).
    action_impls: Csr,
    num_actions: usize,
    num_goals: usize,
}

impl GoalModel {
    /// Compiles the index structures from a library.
    ///
    /// Cost: `O(Σ|A_p|)` per phase — a linear pass per index, with the two
    /// counting-sort fills (inverse `GI-G-idx` and `A-GI-idx`) split into
    /// per-thread count/fill partitions that produce output identical to
    /// the sequential build. Each phase records a `model.build.<index>`
    /// span in the metrics registry (`a_idx`, `g_idx`, `gi_a_idx`,
    /// `gi_g_idx`, `a_gi_idx`), with the whole build under
    /// `model.build.total`.
    pub fn build(library: &GoalLibrary) -> Result<Self> {
        if library.is_empty() {
            return Err(Error::EmptyLibrary);
        }
        let _total = Timer::scoped(names::MODEL_BUILD_TOTAL);
        obs::counter(names::MODEL_BUILDS).inc();
        let impls = library.implementations();

        // GI-A-idx: forward implementation → activity index, a parallel
        // concatenation into CSR.
        let span = Timer::scoped(names::MODEL_BUILD_GI_A_IDX);
        let impl_actions = csr::concat(impls.len(), csr::partitions(impls.len()), |i| {
            actions_as_raw(&impls[i])
        });
        let impl_goal: Vec<u32> = impls.iter().map(|imp| imp.goal.raw()).collect();
        drop(span);

        Self::assemble(
            library.num_actions(),
            library.num_goals(),
            impl_goal.into(),
            impl_actions,
        )
    }

    /// Assembles a model from all **seven** pre-built flat arrays — the
    /// forward goal labels plus offsets + data of each of the three CSR
    /// indexes — without rebuilding anything. This is the zero-copy entry
    /// point of the GRLB v2 mapped reader: every backing may borrow an
    /// `mmap`'d file in place.
    ///
    /// The arrays are fully bound-checked before the model is returned
    /// (`GoalModel::check_structure`: CSR shapes, offset monotonicity,
    /// per-row strict sortedness, id ranges, posting cardinalities), so a
    /// garbage file yields [`Error::CorruptModel`] and a model that passed
    /// can never index out of bounds. The `O(postings · log)` cross-index
    /// membership probes of [`GoalModel::validate`] are *not* run here —
    /// the on-disk checksums vouch that the sections are the ones a
    /// validated writer produced.
    #[allow(clippy::too_many_arguments)]
    pub fn from_backings(
        num_actions: usize,
        num_goals: usize,
        impl_goal: CsrBacking,
        ia_offsets: CsrBacking,
        ia_data: CsrBacking,
        gi_offsets: CsrBacking,
        gi_data: CsrBacking,
        ai_offsets: CsrBacking,
        ai_data: CsrBacking,
    ) -> Result<Self> {
        if impl_goal.is_empty() {
            return Err(Error::EmptyLibrary);
        }
        let model = Self {
            impl_actions: Csr::from_backings(ia_offsets, ia_data),
            impl_goal,
            goal_impls: Csr::from_backings(gi_offsets, gi_data),
            action_impls: Csr::from_backings(ai_offsets, ai_data),
            num_actions,
            num_goals,
        };
        model.check_structure()?;
        obs::counter(names::MODEL_BUILDS).inc();
        obs::gauge(names::MODEL_IMPLS).set(model.num_impls() as f64);
        obs::gauge(names::MODEL_ACTIONS).set(num_actions as f64);
        obs::gauge(names::MODEL_GOALS).set(num_goals as f64);
        obs::gauge(names::MODEL_MEMORY_BYTES).set(model.memory_bytes() as f64);
        Ok(model)
    }

    /// Back half of [`GoalModel::build`]: the counting phases (A-idx,
    /// G-idx) and the two parallel counting-sort fills producing the
    /// inverse indexes.
    fn assemble(
        num_actions: usize,
        num_goals: usize,
        impl_goal: CsrBacking,
        impl_actions: Csr,
    ) -> Result<Self> {
        let n = impl_actions.rows();
        let parts = csr::partitions(n);

        // A-idx: per-action occurrence counts (partition-parallel), sizing
        // and positioning the A-GI fill below.
        let span = Timer::scoped(names::MODEL_BUILD_A_IDX);
        let a_plan = csr::invert_count(num_actions, n, parts, |i, emit| {
            for &a in impl_actions.row(i) {
                emit(a);
            }
        });
        drop(span);

        // G-idx: per-goal implementation counts, sizing the inverse GI-G
        // fill.
        let span = Timer::scoped(names::MODEL_BUILD_G_IDX);
        let g_plan = csr::invert_count(num_goals, n, parts, |i, emit| emit(impl_goal[i]));
        drop(span);

        // Inverse GI-G-idx: goal → implementation ids. The partitioned
        // counting-sort fill keeps every posting list sorted because
        // partitions cover increasing implementation ranges and each visits
        // its implementations in increasing order.
        let span = Timer::scoped(names::MODEL_BUILD_GI_G_IDX);
        let goal_impls = csr::invert_fill(&g_plan, |i, emit| emit(impl_goal[i]));
        drop(span);

        // A-GI-idx: action → implementation ids (`IS(a)`), same fill.
        let span = Timer::scoped(names::MODEL_BUILD_A_GI_IDX);
        let action_impls = csr::invert_fill(&a_plan, |i, emit| {
            for &a in impl_actions.row(i) {
                emit(a);
            }
        });
        drop(span);

        let model = Self {
            impl_actions,
            impl_goal,
            goal_impls,
            action_impls,
            num_actions,
            num_goals,
        };
        obs::gauge(names::MODEL_IMPLS).set(model.num_impls() as f64);
        obs::gauge(names::MODEL_ACTIONS).set(num_actions as f64);
        obs::gauge(names::MODEL_GOALS).set(num_goals as f64);
        obs::gauge(names::MODEL_MEMORY_BYTES).set(model.memory_bytes() as f64);
        #[cfg(debug_assertions)]
        model.validate()?;
        Ok(model)
    }

    /// Number of implementations `|L|`.
    #[inline]
    pub fn num_impls(&self) -> usize {
        self.impl_actions.rows()
    }

    /// Number of actions `|𝒜|` (dictionary size, including actions that
    /// participate in no implementation).
    #[inline]
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Number of goals `|𝒢|`.
    #[inline]
    pub fn num_goals(&self) -> usize {
        self.num_goals
    }

    /// `GI-A-idx[p]`: the activity of implementation `p`.
    #[inline]
    pub fn impl_actions(&self, p: ImplId) -> &[u32] {
        self.impl_actions.row(p.index())
    }

    /// `GI-G-idx[p]`: the goal implementation `p` fulfils.
    #[inline]
    pub fn impl_goal(&self, p: ImplId) -> GoalId {
        GoalId::new(self.impl_goal[p.index()])
    }

    /// Inverse `GI-G-idx`: all implementation ids for goal `g`.
    #[inline]
    pub fn goal_impls(&self, g: GoalId) -> &[u32] {
        self.goal_impls.row(g.index())
    }

    /// `A-GI-idx[a]`: the implementation space `IS(a)` of action `a`.
    #[inline]
    pub fn action_impls(&self, a: ActionId) -> &[u32] {
        self.action_impls.row(a.index())
    }

    /// The paper's *connectivity* of one action: `|IS(a)|`.
    #[inline]
    pub fn connectivity(&self, a: ActionId) -> usize {
        self.action_impls.row_len(a.index())
    }

    // ------------------------------------------------------------------
    // Space operations (§4, Definitions 4.1–4.2, Eq. 1–2)
    // ------------------------------------------------------------------

    /// Implementation space of an activity: `IS(H) = ∪_{a∈H} IS(a)`,
    /// i.e. every implementation associated with the user activity
    /// (`A ∩ H ≠ ∅`). The allocation-free forms the strategies run are
    /// the generic `live::implementation_space_into` and its siblings.
    pub fn implementation_space(&self, activity: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        live::implementation_space_into(self, activity, &mut out);
        out
    }

    /// Goal space of an activity (Definition 4.1 extended to sets, Eq. 1):
    /// every goal some action of the activity contributes to.
    pub fn goal_space(&self, activity: &[u32]) -> Vec<u32> {
        let impls = self.implementation_space(activity);
        let mut goals = Vec::new();
        live::goals_of_impls_into(self, &impls, &mut goals);
        goals
    }

    /// Action space of an activity (Definition 4.2 extended to sets, Eq. 2):
    /// every action co-contributing with an activity action through some
    /// implementation, *excluding* the activity's own actions.
    pub fn action_space(&self, activity: &[u32]) -> Vec<u32> {
        let impls = self.implementation_space(activity);
        let mut out = Vec::new();
        live::action_space_into(self, activity, &impls, &mut out);
        out
    }

    /// Goal space of a single action: `GS(a)` (Definition 4.1).
    pub fn goal_space_of_action(&self, a: ActionId) -> Vec<u32> {
        let mut goals: Vec<u32> = self
            .action_impls
            .row(a.index())
            .iter()
            .map(|&p| self.impl_goal[p as usize])
            .collect();
        setops::normalize(&mut goals);
        goals
    }

    /// Action space of a single action: `AS(a)` (Definition 4.2) — all
    /// co-contributors, excluding `a` itself.
    pub fn action_space_of_action(&self, a: ActionId) -> Vec<u32> {
        let mut acts: Vec<u32> = Vec::new();
        for &p in self.action_impls.row(a.index()) {
            acts.extend_from_slice(self.impl_actions.row(p as usize));
        }
        setops::normalize(&mut acts);
        acts.retain(|&x| x != a.raw());
        acts
    }

    /// Completeness of a goal `g` for activity `H`: the best completeness
    /// over all implementations of `g` (used by the usefulness metric of
    /// §6.1.1 C.1.3, where goal completeness after following a
    /// recommendation list is reported).
    pub fn goal_completeness(&self, g: GoalId, activity: &[u32]) -> f64 {
        self.goal_impls
            .row(g.index())
            .iter()
            .map(|&p| {
                let acts = self.impl_actions.row(p as usize);
                setops::intersection_len(acts, activity) as f64 / acts.len() as f64
            })
            .fold(0.0, f64::max)
    }

    /// Cross-checks that the five index structures describe one library.
    ///
    /// First the CSR structural invariants of each flat index (offsets
    /// monotone, first 0, last equal to the data length, one row per id),
    /// then the content invariants: the compiled model stores the same
    /// `(g, A)` pairs five ways (A-idx and G-idx as the dense id spaces,
    /// plus the three GI posting-list indexes); any drift between them —
    /// ids out of range, unsorted posting lists, a forward edge without its
    /// inverse — is a construction bug that would otherwise surface as
    /// silently wrong recommendations. `build` runs this check in debug
    /// builds.
    ///
    /// Cost: `O(Σ|A_p| · log)` — a membership probe per posting.
    pub fn validate(&self) -> Result<()> {
        self.check_structure()?;
        let corrupt = |detail: String| Err(Error::CorruptModel { detail });
        let num_impls = self.num_impls();
        for pid in 0..num_impls {
            for &a in self.impl_actions.row(pid) {
                if !setops::contains(self.action_impls.row(a as usize), pid as u32) {
                    return corrupt(format!("A-GI-idx[a{a}] is missing p{pid} from GI-A-idx"));
                }
            }
            let g = self.impl_goal[pid];
            if !setops::contains(self.goal_impls.row(g as usize), pid as u32) {
                return corrupt(format!("inverse GI-G-idx[g{g}] is missing p{pid}"));
            }
        }
        for g in 0..self.num_goals {
            for &p in self.goal_impls.row(g) {
                if self.impl_goal[p as usize] != g as u32 {
                    return corrupt(format!(
                        "GI-G-idx[g{g}] lists p{p}, but p{p} fulfils g{}",
                        self.impl_goal[p as usize]
                    ));
                }
            }
        }
        for a in 0..self.num_actions {
            for &p in self.action_impls.row(a) {
                if !setops::contains(self.impl_actions.row(p as usize), a as u32) {
                    return corrupt(format!("A-GI-idx[a{a}] lists p{p}, which omits a{a}"));
                }
            }
        }
        Ok(())
    }

    /// The linear half of [`GoalModel::validate`]: CSR shapes (offsets
    /// monotone, first 0, last equal to the data length, one row per id),
    /// per-row strict sortedness, id ranges, and posting cardinalities —
    /// everything needed to guarantee that **no accessor of this model can
    /// panic or read out of bounds**, in one `O(Σ postings)` pass with no
    /// membership probes.
    ///
    /// This is the validate-before-trust gate the GRLB v2 mapped reader
    /// runs on every load: a file that passes serves safely; whether its
    /// inverse indexes also *agree* with the forward index is what the
    /// full [`GoalModel::validate`] additionally proves.
    pub(crate) fn check_structure(&self) -> Result<()> {
        let corrupt = |detail: String| Err(Error::CorruptModel { detail });
        // CSR shape first: every content check below slices rows, which is
        // only safe once the offset arrays are known to be well-formed.
        if let Err(detail) = self
            .impl_actions
            .check_shape(self.impl_goal.len(), "GI-A-idx")
        {
            return corrupt(detail);
        }
        if let Err(detail) = self
            .goal_impls
            .check_shape(self.num_goals, "inverse GI-G-idx")
        {
            return corrupt(detail);
        }
        if let Err(detail) = self.action_impls.check_shape(self.num_actions, "A-GI-idx") {
            return corrupt(detail);
        }
        let num_impls = self.num_impls();
        for pid in 0..num_impls {
            let actions = self.impl_actions.row(pid);
            if actions.is_empty() {
                return corrupt(format!("GI-A-idx[p{pid}] is empty"));
            }
            if !setops::is_strictly_sorted(actions) {
                return corrupt(format!("GI-A-idx[p{pid}] is not a strictly sorted set"));
            }
            if let Some(&max) = actions.last() {
                if max as usize >= self.num_actions {
                    return corrupt(format!("GI-A-idx[p{pid}] references unknown action a{max}"));
                }
            }
            let g = self.impl_goal[pid];
            if g as usize >= self.num_goals {
                return corrupt(format!("GI-G-idx[p{pid}] references unknown goal g{g}"));
            }
        }
        for g in 0..self.num_goals {
            let impls = self.goal_impls.row(g);
            if !setops::is_strictly_sorted(impls) {
                return corrupt(format!("GI-G-idx[g{g}] is not a strictly sorted set"));
            }
            if let Some(&max) = impls.last() {
                if max as usize >= num_impls {
                    return corrupt(format!("GI-G-idx[g{g}] references unknown impl p{max}"));
                }
            }
        }
        for a in 0..self.num_actions {
            let impls = self.action_impls.row(a);
            if !setops::is_strictly_sorted(impls) {
                return corrupt(format!("A-GI-idx[a{a}] is not a strictly sorted set"));
            }
            if let Some(&max) = impls.last() {
                if max as usize >= num_impls {
                    return corrupt(format!("A-GI-idx[a{a}] references unknown impl p{max}"));
                }
            }
        }
        let goal_postings = self.goal_impls.data.len();
        if goal_postings != num_impls {
            return corrupt(format!(
                "inverse GI-G-idx holds {goal_postings} postings for {num_impls} impls"
            ));
        }
        let action_postings = self.action_impls.data.len();
        let forward_postings = self.impl_actions.data.len();
        if action_postings != forward_postings {
            return corrupt(format!(
                "A-GI-idx holds {action_postings} postings for {forward_postings} forward postings"
            ));
        }
        Ok(())
    }

    /// Approximate heap footprint of the model in bytes: the six flat CSR
    /// arrays plus the forward goal labels. Reported by the scalability
    /// experiment alongside Fig. 7 timings.
    pub fn memory_bytes(&self) -> usize {
        self.impl_actions.memory_bytes()
            + self.goal_impls.memory_bytes()
            + self.action_impls.memory_bytes()
            + self.impl_goal.len() * std::mem::size_of::<u32>()
    }

    /// The seven flat arrays in GRLB v2 section order: forward goal
    /// labels, then offsets + data of `GI-A-idx`, inverse `GI-G-idx` and
    /// `A-GI-idx`. This is the writer-side mirror of
    /// [`GoalModel::from_backings`] — `write → read → flat_sections`
    /// round-trips bit-identically.
    pub fn flat_sections(&self) -> [&[u32]; 7] {
        [
            &self.impl_goal,
            &self.impl_actions.offsets,
            &self.impl_actions.data,
            &self.goal_impls.offsets,
            &self.goal_impls.data,
            &self.action_impls.offsets,
            &self.action_impls.data,
        ]
    }

    /// Whether any index array borrows a retained buffer (an `mmap`'d
    /// model file) instead of owning heap memory.
    pub fn is_mapped(&self) -> bool {
        self.impl_goal.is_mapped()
            || self.impl_actions.is_mapped()
            || self.goal_impls.is_mapped()
            || self.action_impls.is_mapped()
    }

    /// [`LibraryStats`] computed straight off the compiled indexes — no
    /// [`GoalLibrary`] needed. Per-action connectivity is `A-GI-idx` row
    /// lengths, per-goal counts are inverse `GI-G-idx` row lengths, and
    /// implementation lengths come from the `GI-A-idx` offsets, so a
    /// model-only boot (GRLB v2) serves the same `/v1/stats` numbers a
    /// library-built server would.
    pub fn stats(&self) -> LibraryStats {
        let num_impls = self.num_impls();
        let mut total_len = 0usize;
        let mut max_len = 0usize;
        for p in 0..num_impls {
            let len = self.impl_actions.row_len(p);
            total_len += len;
            max_len = max_len.max(len);
        }
        let mut max_connectivity = 0usize;
        let mut used_actions = 0usize;
        for a in 0..self.num_actions {
            let c = self.action_impls.row_len(a);
            max_connectivity = max_connectivity.max(c);
            if c > 0 {
                used_actions += 1;
            }
        }
        let used_goals = (0..self.num_goals)
            .filter(|&g| self.goal_impls.row_len(g) > 0)
            .count();
        LibraryStats {
            num_implementations: num_impls,
            num_actions: self.num_actions,
            num_goals: self.num_goals,
            connectivity: total_len as f64 / used_actions.max(1) as f64,
            max_connectivity,
            avg_impl_len: total_len as f64 / num_impls.max(1) as f64,
            max_impl_len: max_len,
            avg_impls_per_goal: num_impls as f64 / used_goals.max(1) as f64,
        }
    }

    /// Reconstructs a [`GoalLibrary`] (synthetic `a{i}`/`g{i}` names, as
    /// with every binary format) from the forward indexes — how a server
    /// booted from a model file recovers a library view for the cold admin
    /// paths (append merge, compaction persist).
    pub fn to_library(&self) -> Result<GoalLibrary> {
        crate::live::LiveRef::solid(self).to_library()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryBuilder;

    /// Example 3.2 / Figure 1 library. Ids by insertion order:
    /// actions a1..a6 → 0..5, goals g1,g2,g3,g5 → 0..3,
    /// impls p1..p5 → 0..4.
    fn model() -> GoalModel {
        let mut b = LibraryBuilder::new();
        b.add_impl("g1", ["a1", "a2"]).unwrap();
        b.add_impl("g1", ["a1", "a3"]).unwrap();
        b.add_impl("g2", ["a1", "a4", "a5"]).unwrap();
        b.add_impl("g3", ["a4", "a6"]).unwrap();
        b.add_impl("g5", ["a1", "a2", "a6"]).unwrap();
        GoalModel::build(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn dimensions() {
        let m = model();
        assert_eq!(m.num_impls(), 5);
        assert_eq!(m.num_actions(), 6);
        assert_eq!(m.num_goals(), 4);
    }

    #[test]
    fn forward_indexes() {
        let m = model();
        assert_eq!(m.impl_actions(ImplId::new(0)), &[0, 1]);
        assert_eq!(m.impl_actions(ImplId::new(2)), &[0, 3, 4]);
        assert_eq!(m.impl_goal(ImplId::new(0)), GoalId::new(0));
        assert_eq!(m.impl_goal(ImplId::new(4)), GoalId::new(3));
    }

    #[test]
    fn inverse_goal_index() {
        let m = model();
        assert_eq!(m.goal_impls(GoalId::new(0)), &[0, 1]); // g1 via p1, p2
        assert_eq!(m.goal_impls(GoalId::new(3)), &[4]);
    }

    #[test]
    fn action_implementation_space_matches_example_4_3() {
        let m = model();
        // Example 4.3: IS(a1) = {p1, p2, p3, p5}
        assert_eq!(m.action_impls(ActionId::new(0)), &[0, 1, 2, 4]);
        assert_eq!(m.connectivity(ActionId::new(0)), 4);
    }

    #[test]
    fn goal_space_matches_example_4_3() {
        let m = model();
        // GS(a1) = {g1, g2, g5} as ids {0, 1, 3}
        assert_eq!(m.goal_space_of_action(ActionId::new(0)), vec![0, 1, 3]);
    }

    #[test]
    fn action_space_matches_example_4_3() {
        let m = model();
        // AS(a1) = {a2, a3, a4, a5, a6} as ids {1, 2, 3, 4, 5}
        assert_eq!(
            m.action_space_of_action(ActionId::new(0)),
            vec![1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn activity_spaces() {
        let m = model();
        // H = {a2} (id 1) participates in p1, p5.
        assert_eq!(m.implementation_space(&[1]), vec![0, 4]);
        assert_eq!(m.goal_space(&[1]), vec![0, 3]); // g1, g5
                                                    // AS({a2}) = actions of p1 ∪ p5 minus a2 = {a1, a6}.
        assert_eq!(m.action_space(&[1]), vec![0, 5]);
    }

    #[test]
    fn activity_space_of_unknown_or_empty_activity() {
        let m = model();
        assert!(m.implementation_space(&[]).is_empty());
        assert!(m.goal_space(&[]).is_empty());
        assert!(m.action_space(&[]).is_empty());
        // Out-of-range ids are ignored rather than panicking: activities may
        // legitimately contain actions the library never saw.
        assert!(m.implementation_space(&[999]).is_empty());
    }

    #[test]
    fn space_into_buffers_are_cleared_and_reused() {
        let m = model();
        let mut buf = vec![7, 7, 7]; // stale content must vanish
        live::implementation_space_into(&m, &[1], &mut buf);
        assert_eq!(buf, vec![0, 4]);
        let mut goals = vec![9];
        live::goals_of_impls_into(&m, &buf, &mut goals);
        assert_eq!(goals, vec![0, 3]);
        let mut acts = vec![1, 2, 3];
        live::action_space_into(&m, &[1], &buf, &mut acts);
        assert_eq!(acts, vec![0, 5]);
    }

    #[test]
    fn goal_completeness_takes_best_implementation() {
        let m = model();
        // g1 has p1={a1,a2}, p2={a1,a3}. H={a1,a2} completes p1 fully.
        assert_eq!(m.goal_completeness(GoalId::new(0), &[0, 1]), 1.0);
        // H={a1} gives 1/2 on both.
        assert_eq!(m.goal_completeness(GoalId::new(0), &[0]), 0.5);
        // g2 = p3 = {a1,a4,a5}; H={a1} → 1/3.
        assert!((m.goal_completeness(GoalId::new(1), &[0]) - 1.0 / 3.0).abs() < 1e-12);
        // No overlap → 0.
        assert_eq!(m.goal_completeness(GoalId::new(2), &[0]), 0.0);
    }

    #[test]
    fn memory_accounting_positive() {
        let m = model();
        assert!(m.memory_bytes() > 0);
        // Flat layout: 3 CSR indexes (offsets + data) + forward labels,
        // counted exactly.
        let want = (m.impl_actions.offsets.len() + m.impl_actions.data.len()) * 4
            + (m.goal_impls.offsets.len() + m.goal_impls.data.len()) * 4
            + (m.action_impls.offsets.len() + m.action_impls.data.len()) * 4
            + m.impl_goal.len() * 4;
        assert_eq!(m.memory_bytes(), want);
    }

    #[test]
    fn build_rejects_empty_library() {
        let lib = crate::library::GoalLibrary::default();
        assert!(GoalModel::build(&lib).is_err());
    }

    #[test]
    fn validate_accepts_freshly_built_model() {
        assert_eq!(model().validate(), Ok(()));
    }

    #[test]
    fn validate_detects_a_corrupted_index() {
        // Corrupt each index structure in turn; every corruption must be
        // caught as a cross-consistency violation.
        let mut m = model();
        m.impl_goal[0] = 3; // p1 claims g5, inverse index still lists it under g1
        assert!(matches!(m.validate(), Err(Error::CorruptModel { .. })));

        let mut m = model();
        // g1's inverse row is data[0..2] = [0, 1]; repeating p1 both breaks
        // strict sortedness and drops p2.
        m.goal_impls.data[0] = 1;
        assert!(matches!(m.validate(), Err(Error::CorruptModel { .. })));

        let mut m = model();
        // IS(a1) = data[0..4] = [0, 1, 2, 4]; rewriting the 4 to 3 claims
        // p4 contains a1 (it does not) and drops p5.
        m.action_impls.data[3] = 3;
        assert!(matches!(m.validate(), Err(Error::CorruptModel { .. })));

        let mut m = model();
        // p3's activity is data[4..7] = [0, 3, 4]; swap to [3, 0, 4].
        m.impl_actions.data[4] = 3;
        m.impl_actions.data[5] = 0;
        assert!(matches!(m.validate(), Err(Error::CorruptModel { .. })));

        let mut m = model();
        m.num_actions = 3; // A-idx disagrees with the posting tables
        assert!(matches!(m.validate(), Err(Error::CorruptModel { .. })));
    }

    #[test]
    fn validate_detects_corrupted_csr_offsets() {
        // Non-monotone offsets.
        let mut m = model();
        m.goal_impls.offsets[1] = 5; // > offsets[2] = 3
        assert!(matches!(m.validate(), Err(Error::CorruptModel { .. })));

        // Last offset disagreeing with the data length.
        let mut m = model();
        let last = m.action_impls.offsets.len() - 1;
        m.action_impls.offsets[last] -= 1;
        assert!(matches!(m.validate(), Err(Error::CorruptModel { .. })));

        // First offset not zero.
        let mut m = model();
        m.impl_actions.offsets[0] = 1;
        assert!(matches!(m.validate(), Err(Error::CorruptModel { .. })));
    }
}
