//! The serving plane: one swappable snapshot of `N` goal-partitioned
//! shard models (`N = 1` unless `--shards` asks for more).
//!
//! The goal library is partitioned into `N` sub-models (see
//! `goalrec-shard`), and `POST /v1/recommend` scatters each request
//! across every shard and k-way merges the per-shard results into the
//! exact global top-k. With one shard, shard 0 *is* the whole model: the
//! library is compiled once, under its own implementation ids.
//!
//! An [`AppState`] is one coherent snapshot of the plane: the
//! generation's library, stats and display names, kept once for all
//! shards, plus one [`ShardState`] per shard (compiled base, staged
//! append overlay, reload lineage). The [`ShardSet`] holds the current
//! snapshot behind an `RwLock<Arc<…>>`. A request loads one `Arc` up
//! front, so no reload, append or compaction that lands mid-request can
//! change what it is answered from. Only the reload supervisor
//! publishes successors, so read-modify-swap is race-free.
//!
//! Generations are **per shard**: every shard starts at generation 1. A
//! full reload or compaction bumps every shard; a targeted
//! `{"shard": i}` reload bumps shard `i` alone. `/healthz` and
//! `/v1/stats` report the per-shard vector plus a scalar `generation`,
//! the minimum across shards.

use crate::error::ServerError;
use goalrec_core::ids::{ActionId, GoalId, ImplId};
use goalrec_core::{AssocView, DeltaSegment, GoalLibrary, GoalModel, LibraryStats};
use goalrec_datasets::wal::WalEntry;
use goalrec_obs::{self as obs, names};
use goalrec_shard::{PartitionMode, ShardModel, ShardView, ShardedModel};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// The on-disk name of shard `i`'s GRLB v2 snapshot next to the model
/// file `base`: `model.grlb2` → `model.shard3.grlb2`. One family of
/// sibling files per model, so `--shards N` can boot every shard mapped
/// instead of re-partitioning the library.
pub fn shard_snapshot_path(base: &Path, shard: usize) -> PathBuf {
    let stem = base
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "model".to_owned());
    base.with_file_name(format!("{stem}.shard{shard}.grlb2"))
}

/// Writes the per-shard GRLB v2 snapshot family for `library` next to
/// `base` (see [`shard_snapshot_path`]), partitioned exactly as a server
/// started with the same `num_shards`/`mode` would partition it. Returns
/// the written paths. Empty shards (more shards than goals) have no
/// snapshot representation; they make the family incomplete and the
/// server falls back to building from the library, so they are reported
/// as an error here rather than silently producing a family that will
/// never be used.
pub fn persist_shard_family(
    library: &GoalLibrary,
    num_shards: usize,
    mode: PartitionMode,
    base: &Path,
) -> Result<Vec<PathBuf>, ServerError> {
    let n = num_shards.clamp(1, names::MAX_NAMED_SHARDS);
    let sharded = ShardedModel::build(library, n, mode).map_err(build_error)?;
    let mut written = Vec::with_capacity(n);
    for (i, shard) in sharded.shards().iter().enumerate() {
        let Some(model) = shard.model() else {
            return Err(ServerError::ReloadFailed(format!(
                "shard {i} of {n} is empty ({} goals cannot fill {n} shards); \
                 lower --shards to persist a bootable family",
                library.num_goals()
            )));
        };
        let path = shard_snapshot_path(base, i);
        goalrec_datasets::grlb2::write_shard_v2(model, shard.impl_global(), &path).map_err(
            |e| {
                ServerError::ReloadFailed(format!(
                    "cannot persist shard {i} to {}: {e}",
                    path.display()
                ))
            },
        )?;
        written.push(path);
    }
    Ok(written)
}

/// One shard's immutable serving snapshot: the compiled sub-model
/// (shared with its predecessors across append swaps), the shard's slice
/// of the staged live-append delta, and its reload lineage.
pub struct ShardState {
    shard: Arc<ShardModel>,
    /// This shard's staged appends, `None` between mutations.
    delta: Option<DeltaSegment>,
    /// Merged `local → global` implementation id map covering base rows
    /// **and** staged rows; empty when nothing is staged (the base map is
    /// served directly).
    merged_global: Vec<u32>,
    generation: u64,
    built_at: Instant,
}

impl ShardState {
    fn new(shard: Arc<ShardModel>, generation: u64) -> Self {
        ShardState {
            shard,
            delta: None,
            merged_global: Vec::new(),
            generation,
            built_at: Instant::now(),
        }
    }

    /// Which reload generation this shard snapshot is: 1 at startup, +1
    /// per successful rebuild of **this shard**. Append swaps share the
    /// predecessor's generation — the compiled base did not change.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// How long ago this shard's compiled base was built.
    pub fn model_age(&self) -> Duration {
        self.built_at.elapsed()
    }

    /// Live staged implementations on this shard (0 between mutations).
    pub fn staged_len(&self) -> usize {
        self.delta.as_ref().map_or(0, DeltaSegment::len)
    }
}

impl ShardView for ShardState {
    fn model(&self) -> Option<&GoalModel> {
        self.shard.model()
    }

    fn impl_global(&self) -> &[u32] {
        if self.merged_global.is_empty() {
            self.shard.impl_global()
        } else {
            &self.merged_global
        }
    }

    fn delta(&self) -> Option<&DeltaSegment> {
        self.delta.as_ref().filter(|d| !d.is_empty())
    }
}

/// A generation's set-level data, kept once however many shards there
/// are: the library (display names, compaction input) and its stats.
struct Catalog {
    /// Set eagerly when the generation was compiled from a
    /// [`GoalLibrary`]; materialised from `source` on first use when it
    /// was installed straight from a GRLB v2 model file (which stores no
    /// name dictionaries).
    library: OnceLock<Arc<GoalLibrary>>,
    /// The installed model a lazy `library` is derived from.
    source: Option<Arc<ShardModel>>,
    stats: LibraryStats,
}

impl Catalog {
    fn of(library: GoalLibrary) -> Arc<Self> {
        let stats = library.stats();
        let cell = OnceLock::new();
        let _ = cell.set(Arc::new(library));
        Arc::new(Catalog {
            library: cell,
            source: None,
            stats,
        })
    }
}

/// Goal-partitioned sub-models plus the goal → shard placement they were
/// compiled under; installed together so append routing can never
/// disagree with the bases.
struct Partitioned {
    parts: Vec<ShardModel>,
    assignments: Vec<usize>,
}

/// Compiles `library` into `num_shards` sub-models (clamped to
/// `1..=`[`names::MAX_NAMED_SHARDS`] so every shard gets its own
/// `span.shard.<i>` name and `shard.<i>.*` metrics) inside one
/// `span.model_build` span.
fn compile(
    library: &GoalLibrary,
    num_shards: usize,
    mode: PartitionMode,
    trace: &mut obs::TraceContext,
) -> Result<Partitioned, ServerError> {
    let n = num_shards.clamp(1, names::MAX_NAMED_SHARDS);
    let build = trace.start_span(names::SPAN_MODEL_BUILD);
    let sharded = ShardedModel::build(library, n, mode);
    trace.end_span(build);
    let sharded = sharded.map_err(build_error)?;
    let assignments = sharded.assignments().to_vec();
    Ok(Partitioned {
        parts: sharded.into_shards(),
        assignments,
    })
}

/// One coherent snapshot of the serving plane: the generation's catalog
/// (library, stats, names) plus every shard's compiled base and staged
/// overlay. Loaded once per request through [`ShardSet::load`].
pub struct AppState {
    catalog: Arc<Catalog>,
    shards: Vec<Arc<ShardState>>,
    /// The goal → shard placement of the current base build — what live
    /// appends are routed by (goal-wholeness keeps the merge exact).
    assignments: Arc<Vec<usize>>,
    mode: PartitionMode,
}

impl AppState {
    /// Compiles `library` as a one-shard plane at generation 1, with
    /// nothing staged.
    pub fn new(library: GoalLibrary) -> Result<Self, ServerError> {
        AppState::build(
            library,
            1,
            PartitionMode::HashGoal,
            &mut obs::TraceContext::disabled(),
        )
    }

    /// Partitions `library` into `num_shards` sub-models under `mode` as
    /// a generation-1 plane. The model compilation is recorded as one
    /// `span.model_build` span on `trace`.
    pub(crate) fn build(
        library: GoalLibrary,
        num_shards: usize,
        mode: PartitionMode,
        trace: &mut obs::TraceContext,
    ) -> Result<Self, ServerError> {
        let compiled = compile(&library, num_shards, mode, trace)?;
        Ok(AppState::assemble(
            Catalog::of(library),
            compiled,
            mode,
            |_| 1,
        ))
    }

    /// Generation 1 of a `num_shards` plane under `mode` at boot: opened
    /// from the persisted per-shard GRLB v2 snapshot family next to
    /// `library_path` when a matching one is there (written by `goalrec
    /// compile --shards N`), else compiled from `library`. A stale or
    /// corrupt family is reported and compiled over.
    pub(crate) fn boot(
        library: GoalLibrary,
        num_shards: usize,
        mode: PartitionMode,
        library_path: &Path,
        trace: &mut obs::TraceContext,
    ) -> Result<Self, ServerError> {
        let family = open_family(library_path, num_shards, &library).unwrap_or_else(|e| {
            eprintln!(
                "goalrec-serve: shard snapshot family next to {} rejected ({e}); \
                 rebuilding shards from the library",
                library_path.display()
            );
            None
        });
        match family {
            Some(family) => {
                eprintln!(
                    "goalrec-serve: booted {} shards from the persisted snapshot family",
                    family.parts.len()
                );
                Ok(AppState::assemble(
                    Catalog::of(library),
                    family,
                    mode,
                    |_| 1,
                ))
            }
            None => AppState::build(library, num_shards, mode, trace),
        }
    }

    fn assemble(
        catalog: Arc<Catalog>,
        compiled: Partitioned,
        mode: PartitionMode,
        generation: impl Fn(usize) -> u64,
    ) -> Self {
        let shards = compiled
            .parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| Arc::new(ShardState::new(Arc::new(part), generation(i))))
            .collect();
        AppState {
            catalog,
            shards,
            assignments: Arc::new(compiled.assignments),
            mode,
        }
    }

    /// The successor of this snapshot compiled from `library`: same shard
    /// count and placement policy, every shard one generation on, nothing
    /// staged. What full reloads and compactions publish.
    pub(crate) fn rebuilt(
        &self,
        library: GoalLibrary,
        trace: &mut obs::TraceContext,
    ) -> Result<Self, ServerError> {
        let compiled = compile(&library, self.shards.len(), self.mode, trace)?;
        Ok(AppState::assemble(
            Catalog::of(library),
            compiled,
            self.mode,
            |i| self.shards.get(i).map_or(1, |s| s.generation + 1),
        ))
    }

    /// A one-shard plane at `generation` serving `model` — an
    /// already-validated GRLB v2 model — as shard 0 directly: no
    /// compilation, and the library is only rebuilt (with synthetic
    /// `a{i}`/`g{i}` names) if something asks for it.
    pub(crate) fn installed(
        model: GoalModel,
        mode: PartitionMode,
        generation: u64,
    ) -> Result<Self, ServerError> {
        let len = u32::try_from(model.num_impls()).unwrap_or(u32::MAX);
        let stats = model.stats();
        let num_goals = model.num_goals();
        let part =
            Arc::new(ShardModel::from_parts(Some(model), (0..len).collect()).map_err(build_error)?);
        let catalog = Arc::new(Catalog {
            library: OnceLock::new(),
            source: Some(Arc::clone(&part)),
            stats,
        });
        Ok(AppState {
            catalog,
            shards: vec![Arc::new(ShardState::new(part, generation))],
            assignments: Arc::new(vec![0; num_goals]),
            mode,
        })
    }

    /// The successor with shard `shard` replaced by `part`, one
    /// generation on and nothing staged on it; every other shard and the
    /// catalog are untouched. What a targeted reload publishes.
    pub(crate) fn with_shard(&self, shard: usize, part: ShardModel) -> Self {
        let mut shards = self.shards.clone();
        if let Some(slot) = shards.get_mut(shard) {
            *slot = Arc::new(ShardState::new(Arc::new(part), slot.generation + 1));
        }
        AppState {
            catalog: Arc::clone(&self.catalog),
            shards,
            assignments: Arc::clone(&self.assignments),
            mode: self.mode,
        }
    }

    /// The successor publishing `entries` — the whole acknowledged append
    /// log, in acceptance order — as per-shard overlays over this
    /// snapshot's compiled bases. Entry `i` gets global implementation id
    /// `base_total + i` and lands on its owning shard (see
    /// [`AppState::owner_of`]); each shard's merged id map stays monotone
    /// because entries arrive in global id order. Generations and build
    /// times are kept: the compiled bases did not change. An empty log
    /// clears every overlay.
    pub(crate) fn with_staged(&self, entries: &[WalEntry]) -> Result<Self, ServerError> {
        let base_total = self
            .shards
            .iter()
            .filter_map(|s| s.shard.impl_global().last())
            .max()
            .map_or(0, |&last| last + 1);
        let mut overlays: Vec<Option<(DeltaSegment, Vec<u32>)>> =
            self.shards.iter().map(|_| None).collect();
        for (i, (goal, actions)) in entries.iter().enumerate() {
            let s = self.owner_of(*goal);
            let (Some(current), Some(overlay)) = (self.shards.get(s), overlays.get_mut(s)) else {
                continue;
            };
            let (delta, merged) = overlay.get_or_insert_with(|| {
                let base = &current.shard;
                let (num_actions, num_goals) = base
                    .model()
                    .map_or((0, 0), |m| (m.num_actions(), m.num_goals()));
                let first = u32::try_from(base.num_impls()).unwrap_or(u32::MAX);
                (
                    DeltaSegment::new(first, num_actions, num_goals),
                    base.impl_global().to_vec(),
                )
            });
            delta
                .append(
                    GoalId::new(*goal),
                    actions.iter().copied().map(ActionId::new).collect(),
                )
                .map_err(|e| {
                    ServerError::ReloadFailed(format!("staged implementation rejected: {e}"))
                })?;
            merged.push(base_total + u32::try_from(i).unwrap_or(u32::MAX));
        }
        let shards = self
            .shards
            .iter()
            .zip(overlays)
            .map(|(current, overlay)| {
                let (delta, merged_global) = match overlay {
                    Some((delta, merged)) => (Some(delta), merged),
                    None => (None, Vec::new()),
                };
                Arc::new(ShardState {
                    shard: Arc::clone(&current.shard),
                    delta,
                    merged_global,
                    generation: current.generation,
                    built_at: current.built_at,
                })
            })
            .collect();
        Ok(AppState {
            catalog: Arc::clone(&self.catalog),
            shards,
            assignments: Arc::clone(&self.assignments),
            mode: self.mode,
        })
    }

    /// A typed `400` unless `shard` names one of this snapshot's shards.
    pub(crate) fn check_shard(&self, shard: usize) -> Result<(), ServerError> {
        if shard < self.shards.len() {
            return Ok(());
        }
        Err(ServerError::BadRequest(format!(
            "shard {shard} out of range (server has {} shards)",
            self.shards.len()
        )))
    }

    /// Runs `GoalModel::validate` on every non-empty shard model.
    pub(crate) fn validate(&self) -> Result<(), ServerError> {
        self.shards.iter().try_for_each(|s| validate_part(&s.shard))
    }

    /// The shard that owns appends for `goal`: its placement in the
    /// current base build when the goal exists there, else the
    /// deterministic `g % n` fallback for brand-new goals.
    pub(crate) fn owner_of(&self, goal: u32) -> usize {
        let g = GoalId::new(goal).index();
        match self.assignments.get(g) {
            Some(&s) => s,
            None => g % self.shards.len().max(1),
        }
    }

    /// How goals are placed onto shards in this plane.
    pub(crate) fn mode(&self) -> PartitionMode {
        self.mode
    }

    /// Every shard's snapshot, indexed by shard.
    pub fn shards(&self) -> &[Arc<ShardState>] {
        &self.shards
    }

    /// Shard `shard`'s generation (0 when out of range).
    pub(crate) fn generation_of(&self, shard: usize) -> u64 {
        self.shards.get(shard).map_or(0, |s| s.generation)
    }

    /// The minimum generation across shards: 1 at startup, +1 per full
    /// reload or compaction. Appends do not bump it.
    pub fn generation(&self) -> u64 {
        self.shards.iter().map(|s| s.generation).min().unwrap_or(0)
    }

    /// Age of the oldest shard's compiled base — `/healthz` reports it
    /// as `model_age_ms` so operators can tell a reload actually took.
    /// Append swaps share the bases, so they do not reset it.
    pub fn model_age(&self) -> Duration {
        self.shards
            .iter()
            .map(|s| s.model_age())
            .max()
            .unwrap_or_default()
    }

    /// Staged-but-uncompacted implementations across all shards.
    pub fn delta_len(&self) -> usize {
        self.shards.iter().map(|s| s.staged_len()).sum()
    }

    /// The action-id extent served: the largest over the shards' live
    /// (base ⊕ delta) views, so staged-only actions are admitted the
    /// moment their append returns.
    pub(crate) fn num_actions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.live().num_actions())
            .max()
            .unwrap_or(0)
    }

    /// The precomputed library stats behind `/v1/stats`.
    pub fn stats(&self) -> &LibraryStats {
        &self.catalog.stats
    }

    /// The generation's library, materialised on first use when the
    /// generation was installed straight from a model file. The rebuild
    /// is cached, so at most one caller per generation pays it.
    pub fn library(&self) -> Result<&Arc<GoalLibrary>, ServerError> {
        if let Some(lib) = self.catalog.library.get() {
            return Ok(lib);
        }
        let built = match self.catalog.source.as_ref().and_then(|s| s.model()) {
            Some(model) => model.to_library().map_err(ServerError::Recommend)?,
            None => {
                return Err(ServerError::Internal(
                    "generation has neither a library nor a source model".to_owned(),
                ))
            }
        };
        // `OnceLock::get_or_try_init` is unstable; a racing `set` means
        // another thread finished first — its value wins, which is fine.
        let _ = self.catalog.library.set(Arc::new(built));
        self.catalog
            .library
            .get()
            .ok_or_else(|| ServerError::Internal("library cache lost a completed init".to_owned()))
    }

    /// Resolves an action id to a display name without forcing the
    /// library rebuild: real names when the library exists, the same
    /// synthetic `a{raw}` that [`GoalModel::to_library`] would mint when
    /// it does not.
    pub fn action_name(&self, action: ActionId) -> String {
        match self.catalog.library.get() {
            Some(lib) => lib.action_name(action),
            // goalrec-lint:allow(hot-path-alloc): response assembly renders display names per request
            None => format!("a{}", action.raw()),
        }
    }
}

/// Pre-resolved per-shard instrumentation handles, so the scatter path
/// never pays the registry's name formatting and lock per request.
struct ShardMetrics {
    requests: Arc<obs::Counter>,
    latency: Arc<obs::Histogram>,
}

/// The server's serving plane: the current [`AppState`] behind a
/// poison-recovering `RwLock<Arc<…>>`, plus the per-shard metric handles.
/// The shard count is fixed for the life of the set.
pub struct ShardSet {
    slot: RwLock<Arc<AppState>>,
    metrics: Vec<ShardMetrics>,
}

impl ShardSet {
    /// Wraps the initial snapshot.
    pub fn new(initial: AppState) -> Self {
        let metrics = (0..initial.shards.len())
            .map(|i| ShardMetrics {
                requests: obs::counter(&names::shard_requests(i)),
                latency: obs::histogram_ns(&names::shard_latency(i)),
            })
            .collect();
        ShardSet {
            slot: RwLock::new(Arc::new(initial)),
            metrics,
        }
    }

    /// The snapshot serving right now. Callers hold the returned `Arc`
    /// for the duration of one request, so a concurrent swap never
    /// changes the shards a request is being answered from.
    pub fn load(&self) -> Arc<AppState> {
        // A poisoned lock only means some thread panicked while holding
        // it; the Arc inside is still intact, so recover and serve.
        Arc::clone(&self.slot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `next`. Single-writer: only the reload supervisor (and
    /// boot, before the first request) calls this.
    pub(crate) fn swap(&self, next: AppState) {
        *self.slot.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
    }

    /// Records one shard's share of a scatter: request count + latency.
    pub(crate) fn observe(&self, shard: usize, elapsed: Duration) {
        if let Some(m) = self.metrics.get(shard) {
            m.requests.inc();
            m.latency
                .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// Opens the persisted GRLB v2 snapshot family next to `base` (see
/// [`shard_snapshot_path`]) instead of re-partitioning `library` — the
/// mapped cold-start path.
///
/// Returns `Ok(None)` when no usable family is there (a snapshot file
/// missing, or the family was written for a different library: id
/// spaces or implementation total disagree, or some snapshot row is not
/// the library's row of the same global id — a library edited in place
/// after `compile --shards N`); the caller then compiles
/// the library, which is always correct, just slower. Returns `Err` only
/// for a family that *claims* to match but is corrupt (failed
/// checksums/structure, or a goal split across shards), so damage is
/// surfaced rather than silently rebuilt over.
fn open_family(
    base: &Path,
    num_shards: usize,
    library: &GoalLibrary,
) -> Result<Option<Partitioned>, ServerError> {
    let n = num_shards.clamp(1, names::MAX_NAMED_SHARDS);
    let paths: Vec<PathBuf> = (0..n).map(|i| shard_snapshot_path(base, i)).collect();
    if !paths.iter().all(|p| p.exists()) {
        return Ok(None);
    }
    let mut parts = Vec::with_capacity(n);
    let mut total_impls = 0usize;
    // Goal placement is re-derived from the snapshots themselves (the
    // format stores no assignment table): every goal with rows lands on
    // the shard holding them, goal-wholeness enforced below. Goals with
    // no implementations anywhere get the same `g % n` fallback as
    // brand-new appended goals.
    let mut assignments: Vec<usize> = vec![usize::MAX; library.num_goals()];
    let rows = library.implementations();
    let mut covered = vec![false; rows.len()];
    for (i, path) in paths.iter().enumerate() {
        let (model, impl_global) = goalrec_datasets::grlb2::read_shard_v2(path).map_err(|e| {
            ServerError::ReloadFailed(format!(
                "shard snapshot {} is unreadable: {e}",
                path.display()
            ))
        })?;
        if model.num_actions() != library.num_actions() || model.num_goals() != library.num_goals()
        {
            // Stale family from another library — not corruption.
            return Ok(None);
        }
        total_impls += model.num_impls();
        for (p, &global) in impl_global.iter().enumerate().take(model.num_impls()) {
            let p = ImplId::new(u32::try_from(p).unwrap_or(u32::MAX));
            // Content check: each snapshot row must be the library's row
            // with the same global id, and no row may be claimed twice.
            let global = usize::try_from(global).unwrap_or(usize::MAX);
            let same_row = rows.get(global).is_some_and(|row| {
                row.goal == model.impl_goal(p) && row.action_raw() == model.impl_actions(p)
            });
            if !same_row || covered[global] {
                // A different build of this library — stale, not corrupt.
                return Ok(None);
            }
            covered[global] = true;
            let g = model.impl_goal(p).index();
            let prior = assignments[g];
            if prior != usize::MAX && prior != i {
                return Err(ServerError::ReloadFailed(format!(
                    "shard family at {} splits goal {g} across shards {prior} and {i}",
                    base.display()
                )));
            }
            assignments[g] = i;
        }
        parts.push(
            ShardModel::from_parts(Some(model), impl_global).map_err(|e| {
                ServerError::ReloadFailed(format!(
                    "shard snapshot {} is corrupt: {e}",
                    path.display()
                ))
            })?,
        );
    }
    if total_impls != library.len() {
        // The family covers a different build of this library.
        return Ok(None);
    }
    for (g, a) in assignments.iter_mut().enumerate() {
        if *a == usize::MAX {
            *a = g % n;
        }
    }
    Ok(Some(Partitioned { parts, assignments }))
}

/// Compiles `library` under `state`'s shard count and placement and
/// returns shard `shard`'s validated sub-model — what a targeted reload
/// swaps in. The whole library is re-partitioned so the target shard's
/// goal assignment stays consistent with its peers.
pub(crate) fn rebuild_shard(
    state: &AppState,
    library: &GoalLibrary,
    shard: usize,
    trace: &mut obs::TraceContext,
) -> Result<ShardModel, ServerError> {
    state.check_shard(shard)?;
    let mut compiled = compile(library, state.shards.len(), state.mode, trace)?;
    let part = compiled.parts.swap_remove(shard);
    let validate = trace.start_span(names::SPAN_RELOAD_VALIDATE);
    let validated = validate_part(&part);
    trace.end_span(validate);
    validated.map(|()| part)
}

/// A shard (re)build failure, as a reload-shaped error: the attempt rolls
/// back and whatever was serving keeps serving.
fn build_error(e: goalrec_core::Error) -> ServerError {
    ServerError::ReloadFailed(format!("shard model rebuild failed: {e}"))
}

fn validate_part(part: &ShardModel) -> Result<(), ServerError> {
    match part.model() {
        Some(model) => model
            .validate()
            .map_err(|e| ServerError::ReloadFailed(format!("shard model failed validation: {e}"))),
        None => Ok(()),
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

    fn build(lib: GoalLibrary, n: usize, mode: PartitionMode) -> AppState {
        AppState::build(lib, n, mode, &mut obs::TraceContext::disabled()).unwrap()
    }

    #[test]
    fn builds_clamped_and_generation_one() {
        let state = build(library(), 3, PartitionMode::HashGoal);
        assert_eq!(state.shards().len(), 3);
        assert_eq!(state.generation(), 1);
        assert!(state.shards().iter().all(|s| s.generation() == 1));
        assert_eq!(state.generation_of(3), 0);
        // Clamping: 0 shards → 1, absurd counts → MAX_NAMED_SHARDS.
        let one = build(library(), 0, PartitionMode::HashGoal);
        assert_eq!(one.shards().len(), 1);
        let many = build(library(), 999, PartitionMode::BalancedMass);
        assert_eq!(many.shards().len(), names::MAX_NAMED_SHARDS);
    }

    #[test]
    fn one_shard_is_the_whole_model_under_its_own_ids() {
        let lib = library();
        let plain = GoalModel::build(&lib).unwrap();
        let state = AppState::new(lib.clone()).unwrap();
        let shard = &state.shards()[0];
        let model = ShardView::model(&**shard).unwrap();
        assert_eq!(model.flat_sections(), plain.flat_sections());
        let ids: Vec<u32> = (0..u32::try_from(lib.len()).unwrap()).collect();
        assert_eq!(shard.impl_global(), &ids[..]);
    }

    #[test]
    fn with_shard_bumps_only_that_shard() {
        let lib = library();
        let state = build(lib.clone(), 2, PartitionMode::BalancedMass);
        let part = rebuild_shard(&state, &lib, 1, &mut obs::TraceContext::disabled()).unwrap();
        let next = state.with_shard(1, part);
        assert_eq!(next.generation_of(0), 1);
        assert_eq!(next.generation_of(1), 2);
        assert_eq!(next.generation(), 1);
        assert!(matches!(
            rebuild_shard(&state, &lib, 7, &mut obs::TraceContext::disabled()),
            Err(ServerError::BadRequest(_))
        ));
    }

    #[test]
    fn rebuilt_moves_every_shard_in_lockstep() {
        let lib = library();
        let state = build(lib.clone(), 2, PartitionMode::HashGoal);
        let part = rebuild_shard(&state, &lib, 1, &mut obs::TraceContext::disabled()).unwrap();
        let next = state
            .with_shard(1, part)
            .rebuilt(lib, &mut obs::TraceContext::disabled())
            .unwrap();
        // Each shard bumps from wherever it was.
        assert_eq!(next.generation_of(0), 2);
        assert_eq!(next.generation_of(1), 3);
        assert_eq!(next.generation(), 2);
    }

    #[test]
    fn held_snapshots_survive_swaps() {
        let lib = library();
        let set = ShardSet::new(build(lib.clone(), 2, PartitionMode::HashGoal));
        let held = set.load();
        let part = rebuild_shard(&held, &lib, 0, &mut obs::TraceContext::disabled()).unwrap();
        set.swap(held.with_shard(0, part));
        // The request that loaded generation 1 still answers from it.
        assert_eq!(held.generation_of(0), 1);
        assert_eq!(set.load().generation_of(0), 2);
    }

    #[test]
    fn staged_entries_land_on_their_owning_shard() {
        let state = build(library(), 2, PartitionMode::HashGoal);
        let entries = vec![(0, vec![0, 1]), (1, vec![1, 2]), (7, vec![0, 9])];
        let staged = state.with_staged(&entries).unwrap();
        assert_eq!(staged.delta_len(), 3);
        assert_eq!(staged.generation(), state.generation());
        for (g, _) in &entries {
            assert!(
                staged.shards()[staged.owner_of(*g)].staged_len() > 0,
                "goal {g}"
            );
        }
        // The staged-only action 9 widens the served extent.
        assert_eq!(staged.num_actions(), 10);
        // An empty log clears every overlay.
        let cleared = staged.with_staged(&[]).unwrap();
        assert_eq!(cleared.delta_len(), 0);
        assert_eq!(cleared.num_actions(), state.num_actions());
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("goalrec-shard-family-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn shard_family_roundtrip_boots_bit_identically() {
        let lib = library();
        let base = tmp("family.grlb2");
        let written = persist_shard_family(&lib, 2, PartitionMode::HashGoal, &base).unwrap();
        assert_eq!(written.len(), 2);
        assert_eq!(written[0], shard_snapshot_path(&base, 0));

        let opened = open_family(&base, 2, &lib)
            .unwrap()
            .expect("a complete matching family must open");
        let opened = AppState::assemble(
            Catalog::of(lib.clone()),
            opened,
            PartitionMode::HashGoal,
            |_| 1,
        );
        let built = build(lib.clone(), 2, PartitionMode::HashGoal);
        assert_eq!(opened.shards().len(), built.shards().len());
        for (i, (a, b)) in opened.shards().iter().zip(built.shards()).enumerate() {
            assert_eq!(a.generation(), 1);
            assert_eq!(a.impl_global(), b.impl_global());
            match (ShardView::model(&**a), ShardView::model(&**b)) {
                (Some(ma), Some(mb)) => {
                    assert_eq!(ma.flat_sections(), mb.flat_sections(), "shard {i}")
                }
                (None, None) => {}
                _ => panic!("shard {i} emptiness disagrees"),
            }
        }
        // Every goal with implementations routes appends to the same
        // shard either way.
        for imp in lib.implementations() {
            let g = imp.goal.raw();
            assert_eq!(opened.owner_of(g), built.owner_of(g), "goal {g}");
        }
        // Booting next to the family takes it.
        let booted = AppState::boot(
            lib,
            2,
            PartitionMode::HashGoal,
            &base,
            &mut obs::TraceContext::disabled(),
        )
        .unwrap();
        assert_eq!(booted.shards().len(), 2);
    }

    #[test]
    fn shard_family_falls_back_when_incomplete_or_stale_and_rejects_corruption() {
        let lib = library();
        let base = tmp("family-edge.grlb2");
        persist_shard_family(&lib, 2, PartitionMode::HashGoal, &base).unwrap();

        // Fewer files than shards → no family (the caller rebuilds).
        assert!(open_family(&base, 3, &lib).unwrap().is_none());

        // A family written for a different library is stale, not corrupt.
        let mut b = LibraryBuilder::new();
        b.add_impl("other", ["x", "y"]).unwrap();
        let other = b.build().unwrap();
        assert!(open_family(&base, 2, &other).unwrap().is_none());

        // A flipped byte in one snapshot is surfaced as an error...
        let victim = shard_snapshot_path(&base, 1);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&victim, &bytes).unwrap();
        assert!(matches!(
            open_family(&base, 2, &lib),
            Err(ServerError::ReloadFailed(_))
        ));
        // ...which boot reports and compiles the library over.
        let booted = AppState::boot(
            lib.clone(),
            2,
            PartitionMode::HashGoal,
            &base,
            &mut obs::TraceContext::disabled(),
        )
        .unwrap();
        assert_eq!(booted.shards().len(), 2);

        // Too many shards for the goal count cannot produce a bootable
        // family, so persisting reports it instead of writing one.
        assert!(persist_shard_family(&lib, 16, PartitionMode::HashGoal, &base).is_err());
    }
}
