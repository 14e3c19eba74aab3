//! The serving state: one swappable snapshot of the served model.
//!
//! An [`AppState`] is one coherent generation: its library catalog
//! (library, stats, display names), one base model (compiled from a
//! library, or a `.grlb2` file mapped in place), the staged append
//! overlay over it, and the generation number. The [`StateCell`] holds the
//! current snapshot behind an `RwLock<Arc<…>>`. A request loads one `Arc`
//! up front, so no reload, append or compaction that lands mid-request can
//! change what it is answered from. Only the reload supervisor publishes
//! successors, so read-modify-swap is race-free.
//!
//! The generation starts at 1 and moves one on per full reload or
//! compaction; an append publishes a successor at the same generation,
//! since the base model did not change.

use crate::error::ServerError;
use goalrec_core::ids::{ActionId, GoalId};
use goalrec_core::{AssocView, DeltaSegment, GoalLibrary, GoalModel, LibraryStats, LiveRef};
use goalrec_datasets::wal::WalEntry;
use goalrec_obs::{self as obs, names};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// A generation's library and its stats, shared by every snapshot of that
/// generation (appends do not change them).
struct Catalog {
    /// Set eagerly when the generation was compiled from a
    /// [`GoalLibrary`]; materialised from the base model on first use when
    /// it was installed straight from a GRLB v2 file (which stores no
    /// name dictionaries).
    library: OnceLock<Arc<GoalLibrary>>,
    stats: LibraryStats,
}

/// One coherent snapshot of the served model: the generation's catalog,
/// its base model and the staged append overlay. Loaded once per request
/// through `StateCell::load`.
pub struct AppState {
    catalog: Arc<Catalog>,
    model: Arc<GoalModel>,
    /// The staged appends over `model`, `None` between mutations.
    delta: Option<DeltaSegment>,
    generation: u64,
    built_at: Instant,
}

impl AppState {
    /// Compiles `library` at generation 1, with nothing staged.
    pub fn new(library: GoalLibrary) -> Result<Self, ServerError> {
        AppState::build(library, &mut obs::TraceContext::disabled())
    }

    /// [`AppState::new`], recording the model compilation as one
    /// `span.model_build` span on `trace`.
    pub(crate) fn build(
        library: GoalLibrary,
        trace: &mut obs::TraceContext,
    ) -> Result<Self, ServerError> {
        AppState::compiled(library, 1, trace)
    }

    fn compiled(
        library: GoalLibrary,
        generation: u64,
        trace: &mut obs::TraceContext,
    ) -> Result<Self, ServerError> {
        let build = trace.start_span(names::SPAN_MODEL_BUILD);
        let model = GoalModel::build(&library);
        trace.end_span(build);
        let model =
            model.map_err(|e| ServerError::ReloadFailed(format!("model rebuild failed: {e}")))?;
        let stats = library.stats();
        let cell = OnceLock::new();
        let _ = cell.set(Arc::new(library));
        Ok(AppState {
            catalog: Arc::new(Catalog {
                library: cell,
                stats,
            }),
            model: Arc::new(model),
            delta: None,
            generation,
            built_at: Instant::now(),
        })
    }

    /// The successor of this snapshot compiled from `library`: one
    /// generation on, nothing staged. What full reloads and compactions
    /// publish.
    pub(crate) fn rebuilt(
        &self,
        library: GoalLibrary,
        trace: &mut obs::TraceContext,
    ) -> Result<Self, ServerError> {
        AppState::compiled(library, self.generation + 1, trace)
    }

    /// A snapshot at `generation` serving `model` — an already-validated
    /// GRLB v2 model — directly: no compilation, and the library is only
    /// rebuilt (with synthetic `a{i}`/`g{i}` names) if something asks for
    /// it.
    pub(crate) fn installed(model: GoalModel, generation: u64) -> Self {
        AppState {
            catalog: Arc::new(Catalog {
                library: OnceLock::new(),
                stats: model.stats(),
            }),
            model: Arc::new(model),
            delta: None,
            generation,
            built_at: Instant::now(),
        }
    }

    /// The successor publishing `entries` — the whole acknowledged append
    /// log, in acceptance order — as one overlay over this snapshot's base
    /// model. Entry `i` gets implementation id `base + i`. The generation,
    /// build time and catalog are kept: the base did not change. An empty
    /// log clears the overlay.
    pub(crate) fn with_staged(&self, entries: &[WalEntry]) -> Result<Self, ServerError> {
        let delta = if entries.is_empty() {
            None
        } else {
            let mut delta = DeltaSegment::for_base(&self.model);
            for (goal, actions) in entries {
                delta
                    .append(
                        GoalId::new(*goal),
                        actions.iter().copied().map(ActionId::new).collect(),
                    )
                    .map_err(|e| {
                        ServerError::ReloadFailed(format!("staged implementation rejected: {e}"))
                    })?;
            }
            Some(delta)
        };
        Ok(AppState {
            catalog: Arc::clone(&self.catalog),
            model: Arc::clone(&self.model),
            delta,
            generation: self.generation,
            built_at: self.built_at,
        })
    }

    /// Runs `GoalModel::validate` on the base model.
    pub(crate) fn validate(&self) -> Result<(), ServerError> {
        self.model
            .validate()
            .map_err(|e| ServerError::ReloadFailed(format!("model failed validation: {e}")))
    }

    /// The base model (without the staged overlay).
    pub(crate) fn model(&self) -> &GoalModel {
        &self.model
    }

    /// What a recommend ranks over: the base ⊕ staged overlay.
    pub(crate) fn live(&self) -> LiveRef<'_> {
        match &self.delta {
            Some(delta) => LiveRef::overlay(&self.model, delta),
            None => LiveRef::solid(&self.model),
        }
    }

    /// Which reload generation this snapshot is: 1 at startup, +1 per full
    /// reload or compaction. Appends do not bump it.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// How long ago the base model was built — `/healthz` reports it as
    /// `model_age_ms` so operators can tell a reload actually took.
    /// Append swaps share the base, so they do not reset it.
    pub(crate) fn model_age(&self) -> Duration {
        self.built_at.elapsed()
    }

    /// Staged-but-uncompacted implementations.
    pub(crate) fn delta_len(&self) -> usize {
        self.delta.as_ref().map_or(0, DeltaSegment::len)
    }

    /// The action-id extent served: the live (base ⊕ delta) extent, so
    /// staged-only actions are admitted the moment their append returns.
    pub(crate) fn num_actions(&self) -> usize {
        self.live().num_actions()
    }

    /// The precomputed library stats behind `/v1/stats`.
    pub(crate) fn stats(&self) -> &LibraryStats {
        &self.catalog.stats
    }

    /// The generation's library, materialised on first use when the
    /// generation was installed straight from a model file. The rebuild
    /// is cached, so at most one caller per generation pays it.
    pub(crate) fn library(&self) -> Result<&Arc<GoalLibrary>, ServerError> {
        if let Some(lib) = self.catalog.library.get() {
            return Ok(lib);
        }
        let built = self.model.to_library().map_err(ServerError::Recommend)?;
        // `OnceLock::get_or_try_init` is unstable; a racing `set` means
        // another thread finished first — its value wins, which is fine.
        let _ = self.catalog.library.set(Arc::new(built));
        self.catalog
            .library
            .get()
            .ok_or_else(|| ServerError::Internal("library cache lost a completed init".to_owned()))
    }

    /// The display name of `action`, borrowed from the library's
    /// dictionary, without forcing the library rebuild. `None` when the
    /// generation has no library yet or the id is beyond its dictionary
    /// (a staged-only action): the name is then `a{raw}`, the same
    /// synthetic name [`GoalModel::to_library`] would mint.
    pub(crate) fn resolve_action(&self, action: ActionId) -> Option<&str> {
        self.catalog.library.get()?.resolve_action(action)
    }
}

/// The current [`AppState`] behind a poison-recovering
/// `RwLock<Arc<…>>`.
pub(crate) struct StateCell {
    slot: RwLock<Arc<AppState>>,
}

impl StateCell {
    /// Wraps the initial snapshot.
    pub(crate) fn new(initial: AppState) -> Self {
        StateCell {
            slot: RwLock::new(Arc::new(initial)),
        }
    }

    /// The snapshot serving right now. Callers hold the returned `Arc`
    /// for the duration of one request, so a concurrent swap never
    /// changes the model a request is being answered from.
    pub(crate) fn load(&self) -> Arc<AppState> {
        // A poisoned lock only means some thread panicked while holding
        // it; the Arc inside is still intact, so recover and serve.
        Arc::clone(&self.slot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `next`. Single-writer: only the reload supervisor (and
    /// boot, before the first request) calls this.
    pub(crate) fn swap(&self, next: AppState) {
        *self.slot.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goalrec_core::LibraryBuilder;

    fn library() -> GoalLibrary {
        let mut b = LibraryBuilder::new();
        b.add_impl("olivier salad", ["potatoes", "carrots", "pickles"])
            .unwrap();
        b.add_impl("mashed potatoes", ["potatoes", "nutmeg", "butter"])
            .unwrap();
        b.add_impl("pan-fried carrots", ["carrots", "nutmeg"])
            .unwrap();
        b.add_impl("pea soup", ["peas", "carrots", "onion"])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn a_new_state_is_the_compiled_library_at_generation_one() {
        let lib = library();
        let state = AppState::new(lib.clone()).unwrap();
        assert_eq!(state.generation(), 1);
        assert_eq!(state.delta_len(), 0);
        assert_eq!(
            state.model().flat_sections(),
            GoalModel::build(&lib).unwrap().flat_sections()
        );
        assert_eq!(state.stats(), &lib.stats());
        let next = state
            .rebuilt(lib, &mut obs::TraceContext::disabled())
            .unwrap();
        assert_eq!(next.generation(), 2);
    }

    #[test]
    fn held_snapshots_survive_swaps() {
        let lib = library();
        let cell = StateCell::new(AppState::new(lib.clone()).unwrap());
        let held = cell.load();
        cell.swap(
            held.rebuilt(lib, &mut obs::TraceContext::disabled())
                .unwrap(),
        );
        // The request that loaded generation 1 still answers from it.
        assert_eq!(held.generation(), 1);
        assert_eq!(cell.load().generation(), 2);
    }

    #[test]
    fn staged_entries_overlay_the_base_at_the_same_generation() {
        let state = AppState::new(library()).unwrap();
        let entries = vec![(0, vec![0, 1]), (1, vec![1, 2]), (7, vec![0, 9])];
        let staged = state.with_staged(&entries).unwrap();
        assert_eq!(staged.delta_len(), 3);
        assert_eq!(staged.generation(), state.generation());
        assert_eq!(staged.live().num_impls(), state.model().num_impls() + 3);
        // The staged-only action 9 widens the served extent.
        assert_eq!(staged.num_actions(), 10);
        // An empty log clears the overlay.
        let cleared = staged.with_staged(&[]).unwrap();
        assert_eq!(cleared.delta_len(), 0);
        assert_eq!(cleared.num_actions(), state.num_actions());
    }
}
