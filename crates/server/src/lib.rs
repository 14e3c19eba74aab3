//! # goalrec-server
//!
//! A hand-rolled, std-only HTTP/1.1 serving layer for the goal-based
//! recommender — the long-lived counterpart to the one-shot CLI. The
//! design is the classic bounded-queue pipeline:
//!
//! ```text
//!           accept loop            bounded MPMC queue         N workers
//!   TCP ──▶ nonblocking accept ──▶ [Conn|Conn|Conn|…] ──▶ parse → route → write
//!              │ queue full?                                   │
//!              └──▶ 503 + Retry-After (admission control)      └──▶ Arc<AppState>
//! ```
//!
//! * **One serving state** — one swappable [`AppState`] snapshot (one
//!   model plus its staged append overlay) behind a `StateCell`.
//!   Recommends rank through core's strategies on the worker's own
//!   arena; reloads, appends and compactions publish successor snapshots
//!   (see `state` and [`reload`]).
//! * **Admission control** — the queue capacity bounds accepted-but-unserved
//!   connections; beyond it the accept loop answers `503` immediately
//!   instead of letting latency collapse.
//! * **Deadlines** — each request carries a deadline (first request: from
//!   accept, so queue wait counts); expiry answers `408`.
//! * **Graceful shutdown** — on `SIGTERM`/`SIGINT` (or a programmatic
//!   [`ServerHandle::shutdown`]) the accept loop drains the OS backlog,
//!   closes the queue, and the workers finish every admitted request
//!   before exiting. No admitted request is dropped.
//!
//! Everything is instrumented through `goalrec-obs` (`server.*` metrics)
//! and every failure is a typed [`ServerError`] — like the model crates,
//! the crate denies `unwrap`/`expect`/`panic!` outside tests through the
//! clippy attribute below.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::dbg_macro,
        clippy::undocumented_unsafe_blocks,
        clippy::missing_safety_doc
    )
)]

pub(crate) mod args;
mod debug;
pub(crate) mod error;
pub mod http;
mod pool;
pub(crate) mod queue;
pub mod reload;
pub mod router;
pub mod shutdown;
pub(crate) mod state;
mod wire;

pub use args::{parse_args, USAGE};
pub use error::ServerError;
pub(crate) use http::{Limits, Response};
pub(crate) use reload::ReloadHandle;
pub use router::{ServeCtx, WorkerArena, STRATEGY_NAMES};
pub(crate) use shutdown::Shutdown;
pub use state::AppState;
pub(crate) use state::StateCell;

use goalrec_obs as obs;
use pool::{Conn, ConnPolicy, ServerMetrics};
use queue::{Bounded, TryPush};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Interface to bind.
    pub addr: String,
    /// Port to bind; `0` asks the OS for an ephemeral port.
    pub port: u16,
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Admission-queue capacity (see the crate docs).
    pub queue_depth: usize,
    /// Per-request deadline; expiry answers `408`.
    pub deadline: Duration,
    /// How long an idle keep-alive connection may hold a worker.
    pub idle_timeout: Duration,
    /// Request parsing caps.
    pub limits: Limits,
    /// The library file the server was started from, when there is one.
    /// It is the default target of `SIGHUP` and path-less
    /// `POST /v1/admin/reload` requests; `None` (e.g. when serving a
    /// synthetic in-memory library) makes those reloads require an
    /// explicit path.
    pub library_path: Option<PathBuf>,
    /// Whether workers record request-scoped traces. When off, the whole
    /// tracing layer collapses to a no-op (`/debug/traces` serves an
    /// empty set, no `X-Goalrec-Trace` header is emitted).
    pub trace_enabled: bool,
    /// Uniform-sampling period of the tail sampler: 1 in N completed
    /// traces is kept regardless of speed (slow outliers are always
    /// kept). Clamped to at least 1.
    pub trace_sample_every: u64,
    /// Emit a single-line JSON access-log record for every Nth traced
    /// request per worker; `0` disables the access log entirely.
    pub access_log_every: u64,
    /// Deadline for `/v1/admin/*` requests. Admin work (reload, append,
    /// compaction) legitimately takes longer than a recommend, so it gets
    /// its own, longer budget instead of inheriting `deadline`.
    pub admin_deadline: Duration,
    /// Most implementations one `POST /v1/admin/library/append` body may
    /// stage; larger batches are answered `413`.
    pub append_max_entries: usize,
    /// Watch the startup library file for mtime changes and hot-reload it
    /// automatically (debounced polling; no OS-specific watcher APIs).
    pub watch: bool,
    /// Auto-compact the live delta once it holds this many staged
    /// implementations; `0` disables the count trigger.
    pub compact_threshold: usize,
    /// Auto-compact once the oldest staged implementation is this old;
    /// zero disables the age trigger.
    pub compact_max_age: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1".to_owned(),
            port: 7878,
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .min(8),
            queue_depth: 256,
            deadline: Duration::from_millis(1000),
            idle_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            library_path: None,
            trace_enabled: true,
            trace_sample_every: 64,
            access_log_every: 0,
            admin_deadline: Duration::from_secs(10),
            append_max_entries: router::DEFAULT_APPEND_CAP,
            watch: false,
            compact_threshold: 1024,
            compact_max_age: Duration::from_secs(60),
        }
    }
}

/// A running server: join handles plus the shutdown token.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Shutdown,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    reload: ReloadHandle,
    reloader: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-chosen port when `port` was `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The reload supervisor, e.g. to trigger a programmatic hot reload.
    pub fn reload_handle(&self) -> ReloadHandle {
        self.reload.clone()
    }

    /// Requests shutdown and blocks until the accept loop and every
    /// worker have drained and exited.
    pub fn shutdown(mut self) {
        self.shutdown.request();
        self.join_threads();
    }

    /// Blocks until the shutdown token trips (signal or another thread),
    /// then drains exactly like [`ServerHandle::shutdown`].
    pub(crate) fn wait(mut self) {
        self.shutdown.wait();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // The watcher only submits fire-and-forget jobs; stop it before
        // the supervisor so nothing new is enqueued during the drain.
        if let Some(watcher) = self.watcher.take() {
            let _ = watcher.join();
        }
        // Last: the reload supervisor answers any queued jobs, then exits.
        self.reload.close();
        if let Some(reloader) = self.reloader.take() {
            let _ = reloader.join();
        }
    }
}

/// Compiles `library` (in memory — nothing is read from
/// `config.library_path`, which only names the reload target and the
/// WAL's home) and starts serving with a fresh (programmatic-only)
/// shutdown token.
pub fn start(
    library: goalrec_core::GoalLibrary,
    config: ServerConfig,
) -> Result<ServerHandle, ServerError> {
    start_with_shutdown(library, config, Shutdown::new())
}

/// [`start`], but wired to a caller-provided shutdown token — pass one
/// from [`Shutdown::watching_signals`] to drain on `SIGTERM`/`SIGINT`.
pub(crate) fn start_with_shutdown(
    library: goalrec_core::GoalLibrary,
    config: ServerConfig,
    shutdown: Shutdown,
) -> Result<ServerHandle, ServerError> {
    serve(AppState::new(library)?, config, shutdown)
}

/// Starts serving `state`.
fn serve(
    state: AppState,
    config: ServerConfig,
    shutdown: Shutdown,
) -> Result<ServerHandle, ServerError> {
    let cell = Arc::new(StateCell::new(state));
    // Boot the live mutation plane: bind the append WAL next to the
    // library file and re-stage anything a previous process acknowledged
    // but had not compacted — before the first request is admitted.
    let live = reload::LivePlane::boot(
        config.library_path.as_deref(),
        config.compact_threshold,
        config.compact_max_age,
    )?;
    if !live.entries().is_empty() {
        reload::publish_staged(&cell, live.entries())?;
    }
    let bind_addr = format!("{}:{}", config.addr, config.port);
    let listener = TcpListener::bind(&bind_addr).map_err(|e| ServerError::Bind {
        addr: bind_addr.clone(),
        detail: e.to_string(),
    })?;
    let addr = listener.local_addr().map_err(|e| ServerError::Bind {
        addr: bind_addr,
        detail: e.to_string(),
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServerError::Io {
            context: "configuring listener",
            detail: e.to_string(),
        })?;

    let tail = Arc::new(obs::TailSampler::new(obs::TailConfig {
        sample_every: config.trace_sample_every.max(1),
        ..obs::TailConfig::default()
    }));
    let (reload, reloader) = reload::spawn_reloader(
        Arc::clone(&cell),
        shutdown.clone(),
        config.library_path.clone(),
        Arc::clone(&tail),
        live,
    )?;
    let ctx = Arc::new(
        ServeCtx::new(cell, Some(reload.clone()))
            .with_tail(tail)
            .with_append_cap(config.append_max_entries),
    );

    let queue: Arc<Bounded<Conn>> = Arc::new(Bounded::new(config.queue_depth));
    let metrics = Arc::new(ServerMetrics::new());
    let policy = ConnPolicy {
        deadline: config.deadline,
        admin_deadline: config.admin_deadline.max(config.deadline),
        idle_timeout: config.idle_timeout,
        limits: config.limits.clone(),
        trace_enabled: config.trace_enabled,
        access_log_every: config.access_log_every,
    };

    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|i| {
            let ctx = Arc::clone(&ctx);
            let queue = Arc::clone(&queue);
            let shutdown = shutdown.clone();
            let metrics = Arc::clone(&metrics);
            let policy = policy.clone();
            std::thread::Builder::new()
                .name(format!("goalrec-worker-{i}"))
                .spawn(move || pool::worker_loop(i, ctx, queue, shutdown, metrics, policy))
                .map_err(|e| ServerError::Io {
                    context: "spawning worker thread",
                    detail: e.to_string(),
                })
        })
        .collect::<Result<_, _>>()?;

    let accept = {
        let queue = Arc::clone(&queue);
        let shutdown = shutdown.clone();
        let metrics = Arc::clone(&metrics);
        std::thread::Builder::new()
            .name("goalrec-accept".to_owned())
            .spawn(move || accept_loop(listener, queue, shutdown, metrics))
            .map_err(|e| ServerError::Io {
                context: "spawning accept thread",
                detail: e.to_string(),
            })?
    };

    let watcher = match (&config.library_path, config.watch) {
        (Some(path), true) => {
            let path = path.clone();
            let reload = reload.clone();
            let shutdown = shutdown.clone();
            Some(
                std::thread::Builder::new()
                    .name("goalrec-watch".to_owned())
                    .spawn(move || watch_loop(path, reload, shutdown))
                    .map_err(|e| ServerError::Io {
                        context: "spawning watch thread",
                        detail: e.to_string(),
                    })?,
            )
        }
        _ => None,
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        accept: Some(accept),
        workers,
        reload,
        reloader: Some(reloader),
        watcher,
    })
}

/// How often the `--watch` thread polls the library file's mtime.
const WATCH_POLL: Duration = Duration::from_millis(500);

/// Debounced stat polling (std-only — no OS watcher APIs): a change is
/// acted on only after the new `(mtime, len)` signature has been stable
/// across two consecutive polls, so a writer mid-stream does not trigger
/// a reload of a half-written file. The length rides along because mtime
/// granularity is filesystem-dependent (whole seconds on some) — a
/// rewrite landing within the same tick as the previous observation
/// would otherwise go unseen. Atomic writers (like this repo's own
/// tooling) rename into place, so their single signature step debounces
/// in one extra poll. Reloads are submitted fire-and-forget; a full
/// queue simply leaves the change for the next tick. A compaction's own
/// persist also steps the signature — the resulting self-triggered
/// reload re-reads the file the server just wrote, which is redundant
/// but harmless.
fn watch_loop(path: PathBuf, reload: ReloadHandle, shutdown: Shutdown) {
    let sig = |p: &std::path::Path| {
        let m = std::fs::metadata(p).ok()?;
        Some((m.modified().ok()?, m.len()))
    };
    let mut last_known = sig(&path);
    let mut pending: Option<(std::time::SystemTime, u64)> = None;
    while !shutdown.is_set() {
        std::thread::sleep(WATCH_POLL);
        let now = sig(&path);
        match (now, pending) {
            (Some(t), Some(p)) if t == p => {
                // Stable across two polls — debounced; fire if it is
                // genuinely new.
                if last_known != Some(t) {
                    eprintln!(
                        "goalrec-serve: {} changed on disk; reloading",
                        path.display()
                    );
                    reload.reload_async(path.clone());
                    last_known = Some(t);
                }
                pending = None;
            }
            (Some(t), _) if last_known != Some(t) => pending = Some(t),
            _ => pending = None,
        }
    }
}

/// How many backlog connections the accept loop still admits after the
/// shutdown token trips, so a connect flood cannot stall the drain.
const DRAIN_ACCEPT_BUDGET: usize = 1024;

fn accept_loop(
    listener: TcpListener,
    queue: Arc<Bounded<Conn>>,
    shutdown: Shutdown,
    metrics: Arc<ServerMetrics>,
) {
    let mut drain_budget = DRAIN_ACCEPT_BUDGET;
    loop {
        let stopping = shutdown.is_set();
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stopping {
                    if drain_budget == 0 {
                        reject(stream, &metrics);
                        break;
                    }
                    drain_budget -= 1;
                }
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                match queue.try_push(Conn {
                    stream,
                    accepted: Instant::now(),
                }) {
                    TryPush::Admitted => metrics.connections.inc(),
                    TryPush::Full(conn) | TryPush::Closed(conn) => {
                        reject(conn.stream, &metrics);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stopping {
                    // The OS backlog is drained; nothing else was admitted.
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    queue.close();
}

/// Best-effort `503` for a connection that was never admitted.
fn reject(mut stream: TcpStream, metrics: &ServerMetrics) {
    metrics.rejected.inc();
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    if let Some(resp) = Response::from_error(&ServerError::QueueFull) {
        let mut out = Vec::new();
        if resp.write_to(&mut out, false).is_ok() {
            let _ = stream.write_all(&out);
        }
    }
}

/// The body of both the `goalrec-serve` binary and the `goalrec serve`
/// subcommand: loads `config.library_path` through the same loader every
/// full reload uses (`reload::load` — a `.grlb2` is mapped and served in
/// place, anything else compiled once), binds, prints the endpoints,
/// serves until `SIGTERM`/`SIGINT`, then drains.
pub fn run_blocking(config: ServerConfig) -> Result<(), ServerError> {
    let loading = |detail: String| ServerError::Io {
        context: "loading the library",
        detail,
    };
    let path = config
        .library_path
        .clone()
        .ok_or_else(|| loading("no library file given".to_owned()))?;
    let state =
        reload::load(&path, None, &mut obs::TraceContext::disabled()).map_err(|e| match e {
            ServerError::ReloadFailed(detail) => loading(detail),
            other => other,
        })?;
    let stats = state.stats();
    eprintln!(
        "loaded {}: {} implementations, {} goals, {} actions",
        path.display(),
        stats.num_implementations,
        stats.num_goals,
        stats.num_actions
    );
    shutdown::install_signal_handlers();
    let token = Shutdown::watching_signals();
    let watching = config.watch;
    let handle = serve(state, config, token)?;
    println!("goalrec-serve listening on http://{}", handle.local_addr());
    if watching {
        println!("watching the library file for changes (debounced mtime polling)");
    }
    println!("  POST /v1/recommend     {{\"activity\": [ids…], \"strategy\": name, \"k\": n}}");
    println!("  POST /v1/admin/reload  hot-swap the model ({{\"path\": file}} or startup file)");
    println!(
        "  POST /v1/admin/library/append  stage implementations live \
         ({{\"goal\", \"actions\"}} or {{\"implementations\": […]}})"
    );
    println!("  GET  /v1/stats         library statistics + metrics snapshot (JSON)");
    println!("  GET  /metrics          metrics snapshot (text; ?format=prometheus for exposition)");
    println!("  GET  /healthz          liveness JSON (generation, model age, uptime)");
    println!("  GET  /debug/traces     sampled tail traces (?route=&strategy=&min_us=)");
    println!("  GET  /debug/requests   in-flight request snapshot");
    println!("reload with SIGHUP; stop with SIGTERM or ctrl-c (in-flight requests drain)");
    handle.wait();
    eprintln!("goalrec-serve: drained, bye");
    Ok(())
}
