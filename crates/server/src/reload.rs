//! Hot model reload with rollback.
//!
//! The serving state is a `StateCell`: one `RwLock` around an
//! `Arc<AppState>` snapshot. Workers `load()` one `Arc`
//! clone per request, so a request that started on generation *n*
//! finishes on generation *n* even if a swap lands mid-flight; the old
//! snapshot is freed when the last in-flight request drops its clone.
//!
//! Reloads are serialized through a single supervisor thread:
//!
//! ```text
//!   POST /v1/admin/reload ──▶ [job queue] ──▶ reloader thread ──▶ swap
//!   SIGHUP (signal counter) ──────────────▶      │ load + validate
//!                                                └─ on error: keep old
//! ```
//!
//! A full reload goes through `load`, the same loader the server boots
//! through: it reads the library file (through the fault-injectable
//! `goalrec-datasets` reader, which decides the format from the file's
//! first bytes), compiles the model and runs
//! [`goalrec_core::GoalModel::validate`] on it — all **off** the request
//! path — and swaps only a fully validated snapshot; any failure (missing
//! file, torn write, injected fault, corrupt model, a GRLB version other
//! than 2) leaves the previous generation serving. A GRLB v2 file skips
//! the compilation: the reader's validated (mapped) model is served as
//! is. The `server.reload.*` metrics and the `server.model_generation`
//! gauge record every attempt.
//!
//! The same supervisor thread owns the **live mutation plane**
//! (`LivePlane`): `POST /v1/admin/library/append` jobs are WAL-logged
//! (crash-safe, fsync-per-batch) before being staged as a
//! [`goalrec_core::DeltaSegment`] overlay on the base model — no
//! rebuild; the published snapshot shares the old base. When
//! the staged log crosses the configured count or age threshold the
//! supervisor compacts in the background: merge the generation's library
//! with the log in global-id order, compile and validate off to the side,
//! persist atomically (temp + fsync + rename, read-back verified), clear
//! the WAL, and only then swap the new generation in. **Any** compaction
//! failure — torn write, injected fault, validation error — leaves the old
//! generation serving with the delta and WAL intact, and retries under
//! bounded exponential backoff. Rollback is free because nothing
//! observable mutates before the final generation-atomic swap.

use crate::error::ServerError;
use crate::queue::{Bounded, Pop, TryPush};
use crate::shutdown::{self, Shutdown};
use crate::state::{AppState, StateCell};
use goalrec_core::ids::{ActionId, GoalId};
use goalrec_core::GoalLibrary;
use goalrec_datasets::io::{read_library_file, LibraryFile};
use goalrec_datasets::wal::{AppendWal, WalEntry};
use goalrec_obs::{self as obs, names};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the supervisor blocks on its queue before re-checking the
/// `SIGHUP` counter, the shutdown token, and the compaction thresholds.
const RELOAD_POLL: Duration = Duration::from_millis(50);
/// Upper bound a caller of [`ReloadHandle::reload_blocking`] waits for
/// the supervisor to report back before giving up.
const MAX_RELOAD_WAIT: Duration = Duration::from_secs(60);
/// Pending reload requests beyond this are refused, not queued — piling
/// up identical reloads helps nobody.
const RELOAD_QUEUE_DEPTH: usize = 4;
/// First retry delay after a failed compaction; doubles per consecutive
/// failure up to [`COMPACT_BACKOFF_CAP`].
const COMPACT_BACKOFF_BASE: Duration = Duration::from_millis(250);
/// Ceiling of the compaction retry backoff.
const COMPACT_BACKOFF_CAP: Duration = Duration::from_secs(30);

/// How long the background compactor waits before its next attempt
/// after `failures` consecutive failed ones: 250 ms, doubled per failure
/// after the first, capped at 30 s.
pub fn compaction_backoff(failures: u32) -> Duration {
    let factor = 1u32 << failures.saturating_sub(1).min(10);
    COMPACT_BACKOFF_BASE
        .saturating_mul(factor)
        .min(COMPACT_BACKOFF_CAP)
}

type ReloadResult = Result<u64, ServerError>;
/// One-shot mailbox a blocking requester waits on.
type DoneSlot = Arc<(Mutex<Option<ReloadResult>>, Condvar)>;

/// What a queued supervisor job asks for.
enum JobKind {
    /// Reload the model from `path`.
    Reload { path: PathBuf },
    /// Stage validated implementations into the live delta (WAL-logged
    /// before acknowledgement).
    Append { entries: Vec<WalEntry> },
    /// Merge base ⊕ delta into a new compiled generation now, regardless
    /// of the auto-compaction thresholds (the unit tests' synchronous
    /// entry into the compactor).
    #[cfg(test)]
    Compact,
}

/// One queued supervisor job. `done` is `None` for fire-and-forget
/// requests (`SIGHUP`, the file watcher), `Some` when a caller is
/// waiting for the outcome.
struct ReloadJob {
    kind: JobKind,
    done: Option<DoneSlot>,
}

/// Client side of the reload supervisor, shared by every worker.
#[derive(Clone)]
pub struct ReloadHandle {
    queue: Arc<Bounded<ReloadJob>>,
    default_path: Option<PathBuf>,
}

impl ReloadHandle {
    /// The library file the server was started from, if it was started
    /// from a file — the target of `SIGHUP` and path-less admin reloads.
    pub(crate) fn default_path(&self) -> Option<&Path> {
        self.default_path.as_deref()
    }

    /// Submits a reload of `path` and blocks until the supervisor reports
    /// the outcome: the new generation on success, the error (with the
    /// old generation still serving) on failure.
    pub fn reload_blocking(&self, path: PathBuf) -> ReloadResult {
        self.submit(JobKind::Reload { path })
    }

    /// Submits a fire-and-forget reload of `path` — what the file watcher
    /// uses, since nobody is around to read the outcome. A full queue
    /// just drops the request; the next poll tick will observe the same
    /// mtime again.
    pub(crate) fn reload_async(&self, path: PathBuf) {
        let _ = self.queue.try_push(ReloadJob {
            kind: JobKind::Reload { path },
            done: None,
        });
    }

    /// Stages `entries` into the live delta and blocks until the
    /// supervisor has WAL-logged and published them; returns the staged
    /// total after this batch. A `200` from the append route therefore
    /// means the entries survive a crash.
    pub(crate) fn append_blocking(&self, entries: Vec<WalEntry>) -> ReloadResult {
        self.submit(JobKind::Append { entries })
    }

    /// Forces a compaction now and blocks for the outcome: the new
    /// generation on success (unchanged if there was nothing staged), the
    /// error — with the old generation still serving and the delta intact
    /// — on failure.
    #[cfg(test)]
    pub(crate) fn compact_blocking(&self) -> ReloadResult {
        self.submit(JobKind::Compact)
    }

    fn submit(&self, kind: JobKind) -> ReloadResult {
        let done: DoneSlot = Arc::new((Mutex::new(None), Condvar::new()));
        let job = ReloadJob {
            kind,
            done: Some(Arc::clone(&done)),
        };
        match self.queue.try_push(job) {
            TryPush::Admitted => {}
            TryPush::Full(_) => {
                return Err(ServerError::ReloadFailed(
                    "too many reloads already queued, try again shortly".to_owned(),
                ))
            }
            TryPush::Closed(_) => {
                return Err(ServerError::ReloadFailed(
                    "server is shutting down".to_owned(),
                ))
            }
        }
        let (slot, ready) = &*done;
        let mut outcome = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let deadline = Instant::now() + MAX_RELOAD_WAIT;
        while outcome.is_none() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ServerError::ReloadFailed(
                    "reload did not finish in time; previous model keeps serving".to_owned(),
                ));
            }
            let (guard, _timed_out) = ready
                .wait_timeout(outcome, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            outcome = guard;
        }
        outcome.take().unwrap_or_else(|| {
            Err(ServerError::ReloadFailed(
                "reload outcome was lost".to_owned(),
            ))
        })
    }

    /// Closes the job queue so the supervisor drains and exits; pending
    /// jobs are still answered.
    pub(crate) fn close(&self) {
        self.queue.close();
    }
}

/// The supervisor-owned state of the live mutation plane: the write-ahead
/// log, the in-memory mirror of its acknowledged entries (the single
/// source of truth every published delta is derived from), the compaction
/// thresholds, and the failure-backoff bookkeeping.
pub(crate) struct LivePlane {
    /// Crash-safety log, sibling of the library file. `None` when the
    /// server was not started from a file — appends then live in memory
    /// only (still generation-consistent, just not crash-durable).
    wal: Option<AppendWal>,
    /// Acknowledged append entries, in acceptance order — the WAL's
    /// in-memory mirror. Every published overlay is rebuilt from this
    /// log, so publishing is stateless.
    entries: Vec<WalEntry>,
    /// Where compaction persists the merged library (the startup library
    /// file). `None` compacts in memory only.
    persist_path: Option<PathBuf>,
    /// Auto-compact when the delta holds at least this many entries
    /// (0 disables the count trigger).
    threshold: usize,
    /// Auto-compact when the oldest staged entry is at least this old
    /// (zero disables the age trigger).
    max_age: Duration,
    /// When the oldest currently-staged entry was accepted.
    staged_since: Option<Instant>,
    /// Consecutive compaction failures since the last success.
    failures: u32,
    /// Do not retry a failed compaction before this instant.
    retry_after: Option<Instant>,
}

impl LivePlane {
    /// A plane with no WAL, no persistence, and no auto-compaction — what
    /// embedded and test servers that never append use.
    pub(crate) fn disabled() -> Self {
        LivePlane {
            wal: None,
            entries: Vec::new(),
            persist_path: None,
            threshold: 0,
            max_age: Duration::ZERO,
            staged_since: None,
            failures: 0,
            retry_after: None,
        }
    }

    /// Opens the plane for `library` (the startup file): binds the
    /// sibling WAL and replays any entries a previous process
    /// acknowledged but had not compacted before it died. Mid-file
    /// garbage is a hard error — a torn *tail* is tolerated (the crash
    /// interrupted the final write, which was never acknowledged), but
    /// corruption before the tail means the log cannot be trusted.
    pub(crate) fn boot(
        library: Option<&Path>,
        threshold: usize,
        max_age: Duration,
    ) -> Result<Self, ServerError> {
        let mut plane = LivePlane::disabled();
        plane.threshold = threshold;
        plane.max_age = max_age;
        let Some(library) = library else {
            return Ok(plane);
        };
        let wal = AppendWal::for_library(library);
        let entries = wal.replay().map_err(|e| {
            ServerError::ReloadFailed(format!(
                "cannot replay append WAL {}: {e}",
                wal.path().display()
            ))
        })?;
        if !entries.is_empty() {
            plane.staged_since = Some(Instant::now());
            eprintln!(
                "goalrec-serve: replayed {} staged append(s) from {}",
                entries.len(),
                wal.path().display()
            );
        }
        plane.entries = entries;
        plane.persist_path = Some(library.to_path_buf());
        plane.wal = Some(wal);
        Ok(plane)
    }

    /// The replayed (or staged) entries, in acceptance order.
    pub(crate) fn entries(&self) -> &[WalEntry] {
        &self.entries
    }

    /// Whether the auto-compaction thresholds say "compact now".
    fn should_compact(&self, now: Instant) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        if let Some(t) = self.retry_after {
            if now < t {
                return false;
            }
        }
        let by_count = self.threshold > 0 && self.entries.len() >= self.threshold;
        let by_age = !self.max_age.is_zero()
            && self
                .staged_since
                .is_some_and(|t| now.duration_since(t) >= self.max_age);
        by_count || by_age
    }

    /// Registers a compaction failure: bounded exponential backoff.
    fn note_failure(&mut self, now: Instant) {
        self.failures = self.failures.saturating_add(1);
        self.retry_after = Some(now + compaction_backoff(self.failures));
    }

    /// Clears the failure bookkeeping after a successful compaction.
    fn note_success(&mut self) {
        self.failures = 0;
        self.retry_after = None;
        self.staged_since = None;
    }
}

/// Publishes the acknowledged entry log as the overlay over the current
/// snapshot's base model (see [`AppState::with_staged`]). Returns the
/// staged total.
pub(crate) fn publish_staged(cell: &StateCell, entries: &[WalEntry]) -> Result<u64, ServerError> {
    let next = cell.load().with_staged(entries)?;
    let staged = u64::try_from(next.delta_len()).unwrap_or(u64::MAX);
    cell.swap(next);
    obs::gauge(names::LIBRARY_DELTA_SIZE).set(staged as f64);
    Ok(staged)
}

/// Starts the reload supervisor for `cell`. `default_path` is what
/// `SIGHUP` (and path-less admin requests) reload. Every attempt is
/// traced (load / model-build / validate spans, generation-tagged) and
/// offered to `tail` under the `reload` route, so `/debug/traces` can
/// answer "what did the last reload spend its time on". `live` is the
/// booted live mutation plane ([`LivePlane::disabled`] when the server
/// does not take appends); its replayed entries must already be staged
/// into `cell` by the caller.
pub(crate) fn spawn_reloader(
    cell: Arc<StateCell>,
    shutdown: Shutdown,
    default_path: Option<PathBuf>,
    tail: Arc<obs::TailSampler>,
    live: LivePlane,
) -> Result<(ReloadHandle, JoinHandle<()>), ServerError> {
    let queue: Arc<Bounded<ReloadJob>> = Arc::new(Bounded::new(RELOAD_QUEUE_DEPTH));
    let handle = ReloadHandle {
        queue: Arc::clone(&queue),
        default_path: default_path.clone(),
    };
    // Publish the serving generation before the supervisor thread is
    // even scheduled, so a freshly started server's gauge is never blank.
    obs::gauge(names::SERVER_MODEL_GENERATION).set(cell.load().generation() as f64);
    let thread = std::thread::Builder::new()
        .name("goalrec-reload".to_owned())
        .spawn(move || reloader_loop(cell, queue, shutdown, default_path, tail, live))
        .map_err(|e| ServerError::Io {
            context: "spawning reload thread",
            detail: e.to_string(),
        })?;
    Ok((handle, thread))
}

/// Per-thread handles to the reload metrics, resolved once.
struct ReloadMetrics {
    attempts: Arc<obs::Counter>,
    failures: Arc<obs::Counter>,
    latency: Arc<obs::Histogram>,
    generation: Arc<obs::Gauge>,
    appends: Arc<obs::Counter>,
    compactions: Arc<obs::Counter>,
    compaction_failures: Arc<obs::Counter>,
    compaction_latency: Arc<obs::Histogram>,
}

impl ReloadMetrics {
    fn new() -> Self {
        ReloadMetrics {
            attempts: obs::counter(names::SERVER_RELOAD_ATTEMPTS),
            failures: obs::counter(names::SERVER_RELOAD_FAILURES),
            latency: obs::histogram_ns(names::SERVER_RELOAD_LATENCY),
            generation: obs::gauge(names::SERVER_MODEL_GENERATION),
            appends: obs::counter(names::LIBRARY_APPENDS),
            compactions: obs::counter(names::LIBRARY_COMPACTIONS),
            compaction_failures: obs::counter(names::LIBRARY_COMPACTION_FAILURES),
            compaction_latency: obs::histogram_ns(names::LIBRARY_COMPACTION_LATENCY),
        }
    }
}

fn reloader_loop(
    cell: Arc<StateCell>,
    queue: Arc<Bounded<ReloadJob>>,
    shutdown: Shutdown,
    default_path: Option<PathBuf>,
    tail: Arc<obs::TailSampler>,
    mut live: LivePlane,
) {
    let metrics = ReloadMetrics::new();
    metrics.generation.set(cell.load().generation() as f64);
    let mut seen_hups = shutdown::reload_signal_count();
    loop {
        match queue.pop(RELOAD_POLL) {
            Pop::Item(job) => {
                let result = match job.kind {
                    JobKind::Reload { path } => {
                        attempt_reload(&cell, &path, &live, &metrics, &tail)
                    }
                    JobKind::Append { entries } => {
                        attempt_append(&cell, entries, &mut live, &metrics)
                    }
                    #[cfg(test)]
                    JobKind::Compact => attempt_compact(&cell, &mut live, &metrics, &tail),
                };
                if let Some(done) = job.done {
                    let (slot, ready) = &*done;
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                    ready.notify_all();
                }
            }
            Pop::Empty => {
                let hups = shutdown::reload_signal_count();
                if hups != seen_hups {
                    seen_hups = hups;
                    match &default_path {
                        Some(path) => {
                            let _ = attempt_reload(&cell, path, &live, &metrics, &tail);
                        }
                        None => eprintln!(
                            "goalrec-serve: SIGHUP received but no library file is \
                             configured; ignoring"
                        ),
                    }
                }
                // Idle ticks are where the background compactor runs: the
                // delta crossed a threshold (or a failed attempt's backoff
                // expired) and no admin job is waiting.
                if live.should_compact(Instant::now()) {
                    let _ = attempt_compact(&cell, &mut live, &metrics, &tail);
                }
                if shutdown.is_set() {
                    // Stop taking new jobs; the next iterations drain
                    // whatever is already queued, then observe Closed.
                    queue.close();
                }
            }
            Pop::Closed => break,
        }
    }
}

/// One append attempt: WAL-log the batch (fsync) so a `200` survives a
/// crash, extend the acknowledged log, and republish the overlay. The
/// base model is shared, so this is O(delta), never a rebuild.
fn attempt_append(
    cell: &StateCell,
    entries: Vec<WalEntry>,
    live: &mut LivePlane,
    metrics: &ReloadMetrics,
) -> ReloadResult {
    if entries.is_empty() {
        return Ok(u64::try_from(live.entries.len()).unwrap_or(u64::MAX));
    }
    if let Some(wal) = &live.wal {
        wal.append_batch(&entries).map_err(|e| {
            ServerError::ReloadFailed(format!(
                "cannot WAL-log the append ({}): {e}; nothing was staged",
                wal.path().display()
            ))
        })?;
    }
    let accepted = entries.len();
    let before = live.entries.len();
    live.entries.extend(entries);
    match publish_staged(cell, &live.entries) {
        Ok(staged) => {
            if live.staged_since.is_none() {
                live.staged_since = Some(Instant::now());
            }
            metrics
                .appends
                .inc_by(u64::try_from(accepted).unwrap_or(u64::MAX));
            Ok(staged)
        }
        Err(err) => {
            // Publishing validated entries cannot fail in practice (the
            // route validated every field); if it somehow does, drop the
            // batch from the log so memory and WAL mirror stay aligned
            // for the *accepted* prefix.
            live.entries.truncate(before);
            Err(err)
        }
    }
}

/// One compaction attempt: merge the generation's library with the
/// staged log, compile and validate the next generation off to the side,
/// persist it crash-safely (atomic temp + fsync + rename, then a
/// read-back verify through the fault-injectable reader), clear the WAL,
/// and only then swap. Every failure path returns **before** the swap, so
/// rollback is literally "do nothing": the old generation keeps serving
/// and the delta + WAL stay intact for the backoff retry.
fn attempt_compact(
    cell: &StateCell,
    live: &mut LivePlane,
    metrics: &ReloadMetrics,
    tail: &obs::TailSampler,
) -> ReloadResult {
    let state = cell.load();
    if live.entries.is_empty() {
        return Ok(state.generation());
    }
    let t0 = Instant::now();
    let mut trace = obs::TraceContext::new(true);
    trace.begin(obs::fresh_trace_id(), t0);
    trace.set_route("compact");
    let result = compact_once(cell, live, &state, &mut trace);
    metrics
        .compaction_latency
        .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    let result = match result {
        Ok(generation) => {
            live.note_success();
            metrics.compactions.inc();
            metrics.generation.set(generation as f64);
            obs::gauge(names::LIBRARY_DELTA_SIZE).set(0.0);
            trace.set_generation(generation);
            trace.finish(200);
            eprintln!(
                "goalrec-serve: compacted the live delta (generation {generation}, trace {})",
                trace.id()
            );
            Ok(generation)
        }
        Err(err) => {
            live.note_failure(Instant::now());
            metrics.compaction_failures.inc();
            let serving = state.generation();
            trace.set_generation(serving);
            trace.finish(500);
            eprintln!(
                "goalrec-serve: compaction failed ({err}); generation {serving} keeps \
                 serving with the delta intact, retry #{} backed off",
                live.failures
            );
            Err(err)
        }
    };
    tail.offer(&trace.snapshot());
    result
}

/// The generation's library followed by the staged `entries`, in global
/// id order — exactly the implementations the overlay serves, so the
/// compacted generation answers every request as the overlay did.
fn merged_library(base: &GoalLibrary, entries: &[WalEntry]) -> Result<GoalLibrary, ServerError> {
    let mut num_actions = u32::try_from(base.num_actions()).unwrap_or(u32::MAX);
    let mut num_goals = u32::try_from(base.num_goals()).unwrap_or(u32::MAX);
    let mut impls: Vec<(GoalId, Vec<ActionId>)> = Vec::with_capacity(base.len() + entries.len());
    impls.extend(
        base.implementations()
            .iter()
            .map(|imp| (imp.goal, imp.actions.clone())),
    );
    for (goal, actions) in entries {
        num_goals = num_goals.max(goal.saturating_add(1));
        num_actions = num_actions.max(actions.iter().max().map_or(0, |a| a.saturating_add(1)));
        impls.push((
            GoalId::new(*goal),
            actions.iter().copied().map(ActionId::new).collect(),
        ));
    }
    GoalLibrary::from_id_implementations(num_actions, num_goals, impls)
        .map_err(|e| ServerError::ReloadFailed(format!("library ⊕ delta merge failed: {e}")))
}

/// The fallible middle of a compaction attempt, in strict
/// merge → build/validate → persist → swap order. Returns the new
/// generation; *no* observable state mutates unless every step succeeded.
fn compact_once(
    cell: &StateCell,
    live: &mut LivePlane,
    state: &AppState,
    trace: &mut obs::TraceContext,
) -> ReloadResult {
    let merge = trace.start_span(names::SPAN_COMPACT_MERGE);
    let merged = state
        .library()
        .and_then(|library| merged_library(library, &live.entries));
    trace.end_span(merge);
    let merged = merged?;

    let next = state.rebuilt(merged, trace)?;
    let validate = trace.start_span(names::SPAN_RELOAD_VALIDATE);
    let validated = next.validate();
    trace.end_span(validate);
    validated?;

    let persist = trace.start_span(names::SPAN_COMPACT_PERSIST);
    let persisted = persist_compacted(live, &next);
    trace.end_span(persist);
    persisted?;

    // The point of no return — and it cannot fail. Workers loading after
    // this line see the compacted base with no overlay; workers
    // mid-request keep the base ⊕ delta snapshot they already hold.
    let swap = trace.start_span(names::SPAN_COMPACT_SWAP);
    let generation = next.generation();
    cell.swap(next);
    live.entries.clear();
    trace.end_span(swap);
    Ok(generation)
}

/// Persists the compacted generation crash-safely and clears the WAL.
/// The atomic write goes through `goalrec-datasets` (temp sibling +
/// fsync + rename + directory sync) and the read-back verify re-reads the
/// renamed file through the fault-injectable reader — a torn or
/// corrupted persist fails *here*, before anything swapped.
fn persist_compacted(live: &LivePlane, next: &AppState) -> Result<(), ServerError> {
    let Some(path) = &live.persist_path else {
        // In-memory server: compaction still swaps generations, there is
        // just nothing to persist (and no WAL to clear).
        return Ok(());
    };
    let library = next.library()?;
    // A `.grlb2` target gets a model, anything else JSONL (the loader
    // tells the two apart by their first bytes, so what we write here is
    // what the next reload — and the read-back verify below — will parse).
    if path.extension().is_some_and(|e| e == "grlb2") {
        // GRLB v2 target: persist the compacted model sections directly,
        // then re-read through the full validate-before-trust pipeline.
        goalrec_datasets::grlb2::write_model_v2(next.model(), path).map_err(|e| {
            ServerError::ReloadFailed(format!(
                "cannot persist the compacted model to {}: {e}",
                path.display()
            ))
        })?;
        let reread = goalrec_datasets::grlb2::read_model_v2(path).map_err(|e| {
            ServerError::ReloadFailed(format!(
                "read-back verify of {} failed: {e}",
                path.display()
            ))
        })?;
        if reread.num_impls() != library.len() {
            return Err(ServerError::ReloadFailed(format!(
                "read-back verify of {} found {} implementations, expected {}",
                path.display(),
                reread.num_impls(),
                library.len()
            )));
        }
    } else {
        goalrec_datasets::io::write_library_jsonl(library, path).map_err(|e| {
            ServerError::ReloadFailed(format!(
                "cannot persist the compacted library to {}: {e}",
                path.display()
            ))
        })?;
        let reread = goalrec_datasets::io::read_library_auto(path).map_err(|e| {
            ServerError::ReloadFailed(format!(
                "read-back verify of {} failed: {e}",
                path.display()
            ))
        })?;
        if reread.len() != library.len() {
            return Err(ServerError::ReloadFailed(format!(
                "read-back verify of {} found {} implementations, expected {}",
                path.display(),
                reread.len(),
                library.len()
            )));
        }
    }
    if let Some(wal) = &live.wal {
        wal.clear().map_err(|e| {
            ServerError::ReloadFailed(format!(
                "cannot clear the append WAL {}: {e}",
                wal.path().display()
            ))
        })?;
    }
    Ok(())
}

/// One reload attempt: build and validate off to the side, swap only on
/// success, roll back (i.e. do nothing) on any failure. The surviving
/// staged entries are re-staged onto the new base before the swap (append
/// entries are raw `(goal, actions)` ids, so they re-stage onto *any*
/// base), keeping uncompacted appends visible across reloads; that
/// re-stage cannot fail in practice, and if it does the reload itself
/// still stands. The whole attempt is traced under the `reload` route and
/// retained by the tail sampler. Returns the new generation.
fn attempt_reload(
    cell: &StateCell,
    path: &Path,
    live: &LivePlane,
    metrics: &ReloadMetrics,
    tail: &obs::TailSampler,
) -> ReloadResult {
    metrics.attempts.inc();
    let t0 = Instant::now();
    let mut trace = obs::TraceContext::new(true);
    trace.begin(obs::fresh_trace_id(), t0);
    trace.set_route("reload");
    let current = cell.load();
    let loaded = load(path, Some(&current), &mut trace);
    metrics
        .latency
        .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    let result = match loaded {
        Ok(next) => {
            let next = match next.with_staged(&live.entries) {
                Ok(staged) => staged,
                Err(err) => {
                    eprintln!(
                        "goalrec-serve: could not re-stage the live delta after reload: {err}"
                    );
                    next
                }
            };
            let generation = next.generation();
            metrics.generation.set(generation as f64);
            cell.swap(next);
            trace.set_generation(generation);
            trace.finish(200);
            eprintln!(
                "goalrec-serve: reloaded {} (generation {generation}, trace {})",
                path.display(),
                trace.id()
            );
            Ok(generation)
        }
        Err(err) => {
            metrics.failures.inc();
            let serving = current.generation();
            trace.set_generation(serving);
            trace.finish(500);
            eprintln!(
                "goalrec-serve: reload of {} failed ({err}); generation {serving} keeps serving",
                path.display()
            );
            Err(err)
        }
    };
    tail.offer(&trace.snapshot());
    result
}

/// The one loader boot and every full reload go through. Reads `path` —
/// its format decided from the file's first bytes by
/// [`goalrec_datasets::io::read_library_file`] — and builds the snapshot
/// that serves it: the successor of `prior` (one generation on), or at
/// boot (`prior` is `None`) generation 1.
///
/// A GRLB v2 model is served as is: the reader has already validated it
/// (header → layout → checksums → structural pass, mapped in place where
/// the platform allows), so there is no compile, no `model.build.*` span
/// and no separate validate span. A library is compiled once; on reload
/// the compiled successor is validated before it may be swapped in. Spans
/// close on the error paths too, so a failed attempt's trace still
/// accounts for its time.
pub(crate) fn load(
    path: &Path,
    prior: Option<&AppState>,
    trace: &mut obs::TraceContext,
) -> Result<AppState, ServerError> {
    let file = timed_load(path, trace)?;
    let library = match file {
        LibraryFile::Model(model) => {
            let generation = prior.map_or(1, |p| p.generation() + 1);
            return Ok(AppState::installed(model, generation));
        }
        file => library_of(path, file)?,
    };
    let Some(prior) = prior else {
        return AppState::build(library, trace);
    };
    let next = prior.rebuilt(library, trace)?;
    let validate = trace.start_span(names::SPAN_RELOAD_VALIDATE);
    let validated = next.validate();
    trace.end_span(validate);
    validated.map(|()| next)
}

/// Reads `path` inside one `span.reload.load` span.
fn timed_load(path: &Path, trace: &mut obs::TraceContext) -> Result<LibraryFile, ServerError> {
    let load = trace.start_span(names::SPAN_RELOAD_LOAD);
    let file = read_library_file(path)
        .map_err(|e| ServerError::ReloadFailed(format!("cannot load {}: {e}", path.display())));
    trace.end_span(load);
    file
}

/// The library a loaded file holds (see [`LibraryFile::into_library`]).
fn library_of(path: &Path, file: LibraryFile) -> Result<GoalLibrary, ServerError> {
    file.into_library()
        .map_err(|e| ServerError::ReloadFailed(format!("cannot load {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{oracle, ServeCtx};
    use goalrec_core::{GoalModel, LibraryBuilder};

    fn library(tag: &str) -> goalrec_core::GoalLibrary {
        let mut b = LibraryBuilder::new();
        b.add_impl(&format!("goal-{tag}"), ["potatoes", "carrots"])
            .unwrap();
        b.add_impl("mash", ["potatoes", "butter"]).unwrap();
        b.build().unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("goalrec-reload-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn tail() -> Arc<obs::TailSampler> {
        Arc::new(obs::TailSampler::new(obs::TailConfig::default()))
    }

    /// A serving state over `lib` at generation 1.
    fn cell(lib: GoalLibrary) -> Arc<StateCell> {
        Arc::new(StateCell::new(AppState::new(lib).unwrap()))
    }

    /// A running supervisor over `cell` without a live plane.
    fn supervise(
        cell: &Arc<StateCell>,
        sampler: &Arc<obs::TailSampler>,
    ) -> (Shutdown, ReloadHandle, JoinHandle<()>) {
        let shutdown = Shutdown::new();
        let (handle, thread) = spawn_reloader(
            Arc::clone(cell),
            shutdown.clone(),
            None,
            Arc::clone(sampler),
            LivePlane::disabled(),
        )
        .unwrap();
        (shutdown, handle, thread)
    }

    fn stop(shutdown: Shutdown, handle: ReloadHandle, thread: JoinHandle<()>) {
        shutdown.request();
        handle.close();
        let _ = thread.join();
    }

    fn model_builds(trace: &obs::CompletedTrace) -> usize {
        trace
            .spans()
            .iter()
            .filter(|s| s.name == names::SPAN_MODEL_BUILD)
            .count()
    }

    #[test]
    fn successful_reload_bumps_generation_and_failure_rolls_back() {
        let good = tmp("reload-good.jsonl");
        goalrec_datasets::io::write_library_jsonl(&library("fresh"), &good).unwrap();
        let cell = cell(library("old"));
        let sampler = tail();
        let (shutdown, handle, thread) = supervise(&cell, &sampler);

        let generation = handle.reload_blocking(good).unwrap();
        assert_eq!(generation, 2);
        assert_eq!(cell.load().generation(), 2);

        // The attempt was traced and retained: load + model-build +
        // validate spans, generation-tagged, under the `reload` route.
        let traces = sampler.snapshot(Some("reload"), None, 0);
        assert_eq!(traces.len(), 1, "one reload attempt so far");
        assert_eq!(traces[0].generation, 2);
        assert_eq!(traces[0].status, 200);
        assert!(traces[0].has_span(names::SPAN_RELOAD_LOAD));
        assert!(traces[0].has_span(names::SPAN_MODEL_BUILD));
        assert!(traces[0].has_span(names::SPAN_RELOAD_VALIDATE));

        // A missing file must fail the attempt and leave generation 2.
        let err = handle
            .reload_blocking(tmp("reload-no-such-file.jsonl"))
            .unwrap_err();
        assert!(matches!(err, ServerError::ReloadFailed(_)), "{err}");
        assert_eq!(cell.load().generation(), 2);

        // A corrupt file likewise.
        let bad = tmp("reload-corrupt.jsonl");
        std::fs::write(&bad, b"{definitely not a library}\n").unwrap();
        assert!(handle.reload_blocking(bad).is_err());
        assert_eq!(cell.load().generation(), 2);

        // Failed attempts are retained too, tagged with the generation
        // that kept serving and a 500 status.
        let failed: Vec<_> = sampler
            .snapshot(Some("reload"), None, 0)
            .into_iter()
            .filter(|t| t.status == 500)
            .collect();
        assert_eq!(failed.len(), 2);
        assert!(failed.iter().all(|t| t.generation == 2));

        stop(shutdown, handle, thread);
    }

    #[test]
    fn closed_supervisor_refuses_new_reloads() {
        let cell = cell(library("x"));
        let (_shutdown, handle, thread) = supervise(&cell, &tail());
        handle.close();
        let _ = thread.join();
        assert!(handle.reload_blocking(tmp("never.jsonl")).is_err());
    }

    /// The `/v1/stats` body served from `cell`'s current snapshot.
    fn stats_body(cell: &Arc<StateCell>) -> String {
        let ctx = ServeCtx::new(Arc::clone(cell), None);
        let request = crate::http::Request {
            method: "GET".to_owned(),
            path: "/v1/stats".to_owned(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        };
        let resp = crate::router::handle(
            &ctx,
            &request,
            &mut crate::router::WorkerArena::new(),
            &mut obs::TraceContext::disabled(),
        )
        .unwrap();
        String::from_utf8(resp.body).unwrap()
    }

    #[test]
    fn a_reload_moves_the_catalog_and_compaction_keeps_the_reloaded_rows() {
        let (path, cell, shutdown, handle, thread) =
            live_fixture("live-catalog-reload.jsonl", &tail());
        // A different library from the fixture's: one more goal.
        let mut b = LibraryBuilder::new();
        b.add_impl("goal-fresh", ["potatoes", "carrots"]).unwrap();
        b.add_impl("mash", ["potatoes", "butter"]).unwrap();
        b.add_impl("soup", ["carrots", "leeks"]).unwrap();
        let fresh = b.build().unwrap();
        let fresh_path = tmp("reload-catalog-target.jsonl");
        goalrec_datasets::io::write_library_jsonl(&fresh, &fresh_path).unwrap();

        assert_eq!(handle.reload_blocking(fresh_path).unwrap(), 2);
        let st = cell.load();
        assert_eq!(st.generation(), 2);
        // The catalog moved with the model: stats, names and library.
        assert_eq!(st.stats(), &fresh.stats());
        let body = stats_body(&cell);
        assert!(body.contains("\"num_implementations\": 3"), "{body}");
        assert_eq!(
            st.library().unwrap().implementations(),
            fresh.implementations()
        );

        // A following append and compaction keep the reloaded rows.
        handle.append_blocking(vec![(0, vec![0, 1])]).unwrap();
        assert_eq!(handle.compact_blocking().unwrap(), 3);
        let merged = goalrec_datasets::io::read_library_auto(&path).unwrap();
        let (reloaded, appended) = merged.implementations().split_at(3);
        assert_eq!(reloaded, fresh.implementations());
        assert_eq!(appended.len(), 1);
        assert_eq!(
            cell.load().library().unwrap().implementations(),
            merged.implementations()
        );
        stop(shutdown, handle, thread);
    }

    #[test]
    fn v2_reload_installs_the_mapped_model() {
        use goalrec_core::strategies::default_strategies;
        let lib = library("fresh");
        let built = GoalModel::build(&lib).unwrap();
        let model_path = tmp("reload-fast.grlb2");
        goalrec_datasets::grlb2::write_model_v2(&built, &model_path).unwrap();

        let cell = cell(library("old"));
        let sampler = tail();
        let (shutdown, handle, thread) = supervise(&cell, &sampler);

        let generation = handle.reload_blocking(model_path.clone()).unwrap();
        assert_eq!(generation, 2);
        let st = cell.load();
        let model = st.model();
        if goalrec_datasets::mmap::mmap_supported() {
            assert!(model.is_mapped(), "v2 reload must serve the mapped file");
        }

        // The reader already proved header + checksums + structure, and
        // the model is installed as is: no validate span, no build span —
        // that skipped work *is* the reload speedup.
        let traces = sampler.snapshot(Some("reload"), None, 0);
        assert_eq!(traces.len(), 1);
        assert!(traces[0].has_span(names::SPAN_RELOAD_LOAD));
        assert!(!traces[0].has_span(names::SPAN_RELOAD_VALIDATE));
        assert_eq!(model_builds(&traces[0]), 0);

        // Bit-identical serving: every strategy ranks the mapped model
        // exactly as it ranks the heap-built original.
        let h = goalrec_core::Activity::from_raw([0u32, 1]);
        for s in default_strategies() {
            assert_eq!(s.rank(model, &h, 5), s.rank(&built, &h, 5), "{}", s.name());
        }
        // Display names degrade to the synthetic ids a v2 file can store:
        // rendered as `a{id}` until the library is materialised, then
        // read from its dictionary of those same names.
        assert_eq!(st.resolve_action(ActionId::new(0)), None);
        assert_eq!(st.library().unwrap().len(), built.num_impls());
        assert_eq!(st.resolve_action(ActionId::new(0)), Some("a0"));
        assert_eq!(st.stats().num_implementations, built.num_impls());

        // A corrupted v2 file is rejected before anything swaps.
        let mut bytes = std::fs::read(&model_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let bad = tmp("reload-fast-corrupt.grlb2");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(matches!(
            handle.reload_blocking(bad),
            Err(ServerError::ReloadFailed(_))
        ));
        assert_eq!(cell.load().generation(), 2);

        stop(shutdown, handle, thread);
    }

    #[test]
    fn compaction_persists_v2_when_the_library_file_is_grlb2() {
        let path = tmp("live-compact.grlb2");
        let lib = library("base");
        let built = GoalModel::build(&lib).unwrap();
        goalrec_datasets::grlb2::write_model_v2(&built, &path).unwrap();
        let _ = std::fs::remove_file(AppendWal::for_library(&path).path());
        // Boot the way the server does: through the one loader.
        let cell = Arc::new(StateCell::new(
            load(&path, None, &mut obs::TraceContext::disabled()).unwrap(),
        ));
        let shutdown = Shutdown::new();
        let live = LivePlane::boot(Some(&path), 0, Duration::ZERO).unwrap();
        let (handle, thread) = spawn_reloader(
            Arc::clone(&cell),
            shutdown.clone(),
            Some(path.clone()),
            tail(),
            live,
        )
        .unwrap();

        let base_impls = built.num_impls();
        handle.append_blocking(vec![(0, vec![0, 1])]).unwrap();
        let generation = handle.compact_blocking().unwrap();
        assert_eq!(generation, 2);

        // The compacted model went to disk as GRLB v2 (not a library
        // stream), so the *next* cold start is a mapped fast-path load.
        assert!(
            matches!(read_library_file(&path).unwrap(), LibraryFile::Model(_)),
            "compaction must persist v2 to a .grlb2 target"
        );
        let reread = goalrec_datasets::grlb2::read_model_v2(&path).unwrap();
        assert_eq!(reread.num_impls(), base_impls + 1);
        assert!(AppendWal::for_library(&path).replay().unwrap().is_empty());

        // And a reload of the file the compaction just wrote works — the
        // post-compaction lifecycle is fully v2.
        assert_eq!(handle.reload_blocking(path).unwrap(), 3);
        if goalrec_datasets::mmap::mmap_supported() {
            assert!(cell.load().model().is_mapped());
        }

        stop(shutdown, handle, thread);
    }

    /// Boots a WAL-backed state over a fresh library file and a running
    /// supervisor; manual compaction only (both auto thresholds off).
    fn live_fixture(
        name: &str,
        sampler: &Arc<obs::TailSampler>,
    ) -> (
        PathBuf,
        Arc<StateCell>,
        Shutdown,
        ReloadHandle,
        JoinHandle<()>,
    ) {
        let path = tmp(name);
        let lib = library("base");
        goalrec_datasets::io::write_library_jsonl(&lib, &path).unwrap();
        // A stale WAL from a previous test run must not leak in.
        let _ = std::fs::remove_file(AppendWal::for_library(&path).path());
        let cell = cell(lib);
        let shutdown = Shutdown::new();
        let live = LivePlane::boot(Some(&path), 0, Duration::ZERO).unwrap();
        let (handle, thread) = spawn_reloader(
            Arc::clone(&cell),
            shutdown.clone(),
            Some(path.clone()),
            Arc::clone(sampler),
            live,
        )
        .unwrap();
        (path, cell, shutdown, handle, thread)
    }

    #[test]
    fn append_stages_without_a_generation_bump_and_compaction_folds_in() {
        let (path, cell, shutdown, handle, thread) = live_fixture("live-append.jsonl", &tail());
        let base_impls = cell.load().library().unwrap().len();

        // Two appends: the second extends both id spaces past the base.
        let staged = handle.append_blocking(vec![(0, vec![0, 1])]).unwrap();
        assert_eq!(staged, 1);
        let staged = handle.append_blocking(vec![(5, vec![2, 9])]).unwrap();
        assert_eq!(staged, 2);
        let st = cell.load();
        assert_eq!(st.delta_len(), 2);
        assert_eq!(st.generation(), 1, "appends must not mint a generation");
        // The WAL holds both acknowledged entries, replayable.
        let wal = AppendWal::for_library(&path);
        assert_eq!(wal.replay().unwrap().len(), 2);

        // Compaction folds the delta into a new compiled generation…
        let generation = handle.compact_blocking().unwrap();
        assert_eq!(generation, 2);
        let st = cell.load();
        assert_eq!(st.generation(), 2);
        assert_eq!(
            st.delta_len(),
            0,
            "the delta must be empty after compaction"
        );
        assert_eq!(st.library().unwrap().len(), base_impls + 2);
        // …persists the merged library crash-safely…
        let merged = goalrec_datasets::io::read_library_auto(&path).unwrap();
        assert_eq!(merged.len(), base_impls + 2);
        // …and clears the WAL.
        assert!(wal.replay().unwrap().is_empty());

        // Compacting an empty delta is a no-op at the same generation.
        assert_eq!(handle.compact_blocking().unwrap(), 2);

        stop(shutdown, handle, thread);
    }

    #[test]
    fn one_model_is_compiled_per_boot_reload_and_compaction() {
        // Boot: one build span.
        let mut trace = obs::TraceContext::new(true);
        trace.begin(obs::fresh_trace_id(), Instant::now());
        AppState::build(library("boot"), &mut trace).unwrap();
        trace.finish(200);
        assert_eq!(model_builds(&trace.snapshot()), 1);

        let sampler = tail();
        let (path, _cell, shutdown, handle, thread) =
            live_fixture("live-one-build.jsonl", &sampler);
        handle.reload_blocking(path).unwrap();
        handle.append_blocking(vec![(1, vec![0, 3])]).unwrap();
        handle.compact_blocking().unwrap();
        for route in ["reload", "compact"] {
            let traces = sampler.snapshot(Some(route), None, 0);
            assert_eq!(traces.len(), 1, "{route}");
            assert_eq!(model_builds(&traces[0]), 1, "{route}");
        }
        stop(shutdown, handle, thread);
    }

    /// The activities every answer check ranks, over the test libraries'
    /// action ids (some past the base extent, for staged actions).
    const ACTIVITIES: [&[u32]; 5] = [&[0], &[0, 1], &[1, 2], &[2], &[3, 4]];

    /// Recommend response bodies for every strategy over the
    /// [`ACTIVITIES`] `cell` admits, answered from its current snapshot.
    fn answers(cell: &Arc<StateCell>) -> Vec<Vec<u8>> {
        let admitted = oracle::admitted(&cell.load(), &ACTIVITIES);
        oracle::served_bodies(&ServeCtx::new(Arc::clone(cell), None), &admitted, 5)
    }

    /// Boots a state from `path` through [`load`], as `goalrec-serve
    /// --library path` does; returns it with the number of model builds
    /// the boot recorded.
    fn boot(path: &Path) -> (Arc<StateCell>, usize) {
        let mut trace = obs::TraceContext::new(true);
        trace.begin(obs::fresh_trace_id(), Instant::now());
        let state = load(path, None, &mut trace).unwrap();
        trace.finish(200);
        (
            Arc::new(StateCell::new(state)),
            model_builds(&trace.snapshot()),
        )
    }

    #[test]
    fn a_grlb2_boot_builds_no_model_and_answers_like_a_jsonl_boot() {
        let lib = library("boot");
        let jsonl = tmp("boot-same.jsonl");
        goalrec_datasets::io::write_library_jsonl(&lib, &jsonl).unwrap();
        let v2 = tmp("boot-same.grlb2");
        goalrec_datasets::grlb2::write_model_v2(&GoalModel::build(&lib).unwrap(), &v2).unwrap();

        let (from_jsonl, jsonl_builds) = boot(&jsonl);
        let (from_v2, v2_builds) = boot(&v2);
        assert_eq!(jsonl_builds, 1, "a JSONL boot compiles the model once");
        assert_eq!(v2_builds, 0, "a .grlb2 boot must not build a model");
        let st = from_v2.load();
        assert_eq!(st.generation(), 1);
        if goalrec_datasets::mmap::mmap_supported() {
            assert!(st.model().is_mapped());
        }
        assert_eq!(answers(&from_v2), answers(&from_jsonl));
        assert_eq!(
            st.stats().num_implementations,
            from_jsonl.load().stats().num_implementations
        );
    }

    #[test]
    fn a_version_one_file_is_a_typed_error_at_boot_and_reload_and_keeps_serving() {
        let retired = tmp("retired.grlb");
        let mut bytes = b"GRLB".to_vec();
        for v in [1u32, 4, 2, 1, 0, 1, 2] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&retired, &bytes).unwrap();
        let named = |err: &ServerError| {
            let msg = err.to_string();
            assert!(
                msg.contains("GRLB version 1") && msg.contains("goalrec compile"),
                "{msg}"
            );
            assert_eq!(err.status(), Some(500));
        };
        let boot_err = load(&retired, None, &mut obs::TraceContext::disabled())
            .err()
            .unwrap();
        named(&boot_err);

        let cell = cell(library("old"));
        let (shutdown, handle, thread) = supervise(&cell, &tail());
        named(&handle.reload_blocking(retired).unwrap_err());
        assert_eq!(cell.load().generation(), 1);
        stop(shutdown, handle, thread);
    }

    /// Checks the served answers against core on a fresh build of `merged`.
    fn assert_answers_match(cell: &Arc<StateCell>, merged: &GoalLibrary, step: &str) {
        let state = cell.load();
        let admitted = oracle::admitted(&state, &ACTIVITIES);
        let expected = oracle::expected_bodies(&state, merged, &admitted, 5);
        assert_eq!(answers(cell), expected, "{step}");
    }

    #[test]
    fn answers_match_core_on_a_fresh_build_at_every_step_of_a_serving_lifetime() {
        let base = library("base");
        let mut b = LibraryBuilder::new();
        b.add_impl("salad", ["a", "b", "c"]).unwrap();
        b.add_impl("mash", ["a", "d"]).unwrap();
        b.add_impl("soup", ["b", "e", "f"]).unwrap();
        b.add_impl("salad", ["c", "f"]).unwrap();
        let next = b.build().unwrap();
        let next_path = tmp("lifetime-next.jsonl");
        goalrec_datasets::io::write_library_jsonl(&next, &next_path).unwrap();
        let v2_path = tmp("lifetime.grlb2");
        goalrec_datasets::grlb2::write_model_v2(&GoalModel::build(&next).unwrap(), &v2_path)
            .unwrap();

        let (_, cell, shutdown, handle, thread) = live_fixture("lifetime.jsonl", &tail());
        assert_answers_match(&cell, &base, "boot");

        let first = vec![(0, vec![1, 4]), (3, vec![0, 2])];
        handle.append_blocking(first.clone()).unwrap();
        let staged = oracle::merged(&base, &first);
        assert_answers_match(&cell, &staged, "staged appends");

        handle.compact_blocking().unwrap();
        assert_eq!(cell.load().delta_len(), 0);
        assert_answers_match(&cell, &staged, "compaction");

        handle.reload_blocking(next_path).unwrap();
        assert_answers_match(&cell, &next, "full reload");

        handle.reload_blocking(v2_path).unwrap();
        assert_answers_match(&cell, &next, ".grlb2 reload");

        let second = vec![(1, vec![3, 6])];
        handle.append_blocking(second.clone()).unwrap();
        let restaged = oracle::merged(&next, &second);
        assert_answers_match(&cell, &restaged, "appends over the .grlb2 model");

        handle.compact_blocking().unwrap();
        assert_answers_match(&cell, &restaged, "compaction over the .grlb2 model");
        stop(shutdown, handle, thread);
    }

    #[test]
    fn replayed_wal_entries_are_restaged_at_boot() {
        let path = tmp("live-replay.jsonl");
        let lib = library("base");
        goalrec_datasets::io::write_library_jsonl(&lib, &path).unwrap();
        let wal = AppendWal::for_library(&path);
        let _ = std::fs::remove_file(wal.path());
        // A "previous process" acknowledged two appends, then died before
        // compacting.
        wal.append_batch(&[(1, vec![0, 2]), (3, vec![1])]).unwrap();

        let live = LivePlane::boot(Some(&path), 0, Duration::ZERO).unwrap();
        assert_eq!(live.entries().len(), 2);
        // What lib.rs does at startup: stage the replayed entries before
        // the server takes traffic.
        let cell = cell(lib);
        let staged = publish_staged(&cell, live.entries()).unwrap();
        assert_eq!(staged, 2);
        assert_eq!(cell.load().delta_len(), 2);
        assert_eq!(cell.load().generation(), 1);
    }

    #[test]
    fn wal_garbage_is_a_hard_boot_error() {
        let path = tmp("live-garbage.jsonl");
        goalrec_datasets::io::write_library_jsonl(&library("base"), &path).unwrap();
        let wal = AppendWal::for_library(&path);
        std::fs::write(
            wal.path(),
            b"{\"goal\": oops}\n{\"goal\": 1, \"actions\": [2]}\n",
        )
        .unwrap();
        assert!(matches!(
            LivePlane::boot(Some(&path), 0, Duration::ZERO),
            Err(ServerError::ReloadFailed(_))
        ));
        let _ = std::fs::remove_file(wal.path());
    }

    #[test]
    fn reload_restages_the_live_delta_onto_the_new_base() {
        let (path, cell, shutdown, handle, thread) = live_fixture("live-reload.jsonl", &tail());
        handle.append_blocking(vec![(2, vec![0, 1])]).unwrap();
        assert_eq!(cell.load().delta_len(), 1);

        // A full reload of the (unchanged) library file swaps a fresh
        // base in; the staged entry must survive on top of it.
        let generation = handle.reload_blocking(path.clone()).unwrap();
        assert_eq!(generation, 2);
        let st = cell.load();
        assert_eq!(st.generation(), 2);
        assert_eq!(st.delta_len(), 1, "the delta must survive a reload");

        // And it still compacts cleanly afterwards.
        assert_eq!(handle.compact_blocking().unwrap(), 3);
        assert_eq!(cell.load().delta_len(), 0);

        stop(shutdown, handle, thread);
    }

    #[test]
    fn faulted_compactions_roll_back_and_a_clean_retry_succeeds() {
        let (path, cell, shutdown, handle, thread) = live_fixture("live-faulted.jsonl", &tail());
        let base_impls = cell.load().library().unwrap().len();
        handle.append_blocking(vec![(0, vec![1, 2])]).unwrap();

        let compaction_failures = obs::counter(names::LIBRARY_COMPACTION_FAILURES);
        let failures_before = compaction_failures.get();
        // Three consecutive faulted compactions: a write error at
        // persist, a torn write at persist, a read error on the
        // read-back verify. Every one must roll back completely.
        let plans = [
            goalrec_faults::FaultPlan::new()
                .for_paths("live-faulted.jsonl")
                .with(
                    goalrec_faults::FaultKind::WriteError,
                    goalrec_faults::Trigger::OpCount(1),
                ),
            goalrec_faults::FaultPlan::new()
                .for_paths("live-faulted.jsonl")
                .with(
                    goalrec_faults::FaultKind::TornWrite,
                    goalrec_faults::Trigger::ByteOffset(8),
                ),
            goalrec_faults::FaultPlan::new()
                .for_paths("live-faulted.jsonl")
                .with(
                    goalrec_faults::FaultKind::ReadError,
                    goalrec_faults::Trigger::OpCount(1),
                ),
        ];
        for plan in plans {
            let err = goalrec_faults::with_plan(plan, || handle.compact_blocking()).unwrap_err();
            assert!(matches!(err, ServerError::ReloadFailed(_)), "{err}");
            let st = cell.load();
            assert_eq!(st.generation(), 1, "old generation must keep serving");
            assert_eq!(st.delta_len(), 1, "the delta must stay intact");
            // The WAL still carries the staged entry for the retry.
            assert_eq!(
                AppendWal::for_library(&path).replay().unwrap().len(),
                1,
                "the WAL must survive a faulted compaction"
            );
            // The library file on disk is never torn: either untouched
            // (persist failed before the rename) or atomically replaced
            // with the full merged library (the fault hit the read-back
            // verify, after the rename).
            let on_disk = goalrec_datasets::io::read_library_auto(&path).unwrap();
            assert!(
                on_disk.len() == base_impls || on_disk.len() == base_impls + 1,
                "on-disk library must be the base or the merged library, got {}",
                on_disk.len()
            );
        }
        assert_eq!(compaction_failures.get(), failures_before + 3);

        // A clean retry (faults disarmed) compacts and bumps the
        // generation exactly once.
        let generation = handle.compact_blocking().unwrap();
        assert_eq!(generation, 2);
        assert_eq!(cell.load().delta_len(), 0);
        assert_eq!(
            goalrec_datasets::io::read_library_auto(&path)
                .unwrap()
                .len(),
            base_impls + 1
        );
        assert!(AppendWal::for_library(&path).replay().unwrap().is_empty());

        stop(shutdown, handle, thread);
    }

    #[test]
    fn compaction_backoff_gates_the_auto_trigger() {
        let mut plane = LivePlane::disabled();
        plane.threshold = 1;
        plane.entries.push((0, vec![1]));
        let now = Instant::now();
        assert!(plane.should_compact(now), "threshold crossed");
        plane.note_failure(now);
        assert!(
            !plane.should_compact(now),
            "a fresh failure must back the retry off"
        );
        assert!(
            plane.should_compact(now + Duration::from_secs(60)),
            "the backoff must expire"
        );
        // Backoff grows but stays bounded.
        for _ in 0..20 {
            plane.note_failure(now);
        }
        let retry = plane.retry_after.unwrap();
        assert!(retry <= now + COMPACT_BACKOFF_CAP);
        plane.note_success();
        assert!(plane.retry_after.is_none());
        assert_eq!(plane.failures, 0);
    }
}
