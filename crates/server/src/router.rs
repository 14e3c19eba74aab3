//! Route dispatch: maps parsed requests onto the serving API.
//!
//! Endpoints:
//!
//! | Route | Method | Response |
//! |---|---|---|
//! | `/healthz` | GET | `{"status", "generation", "model_age_ms", "delta_size", …}` liveness JSON |
//! | `/metrics` | GET | `goalrec-obs` snapshot, text form |
//! | `/v1/stats` | GET | [`StatsReport`] JSON (same shape as `goalrec stats --json`) plus serving fields |
//! | `/v1/recommend` | POST | ranked actions for an activity |
//! | `/v1/admin/reload` | POST | hot-swap the model from `{"path": …}` (or the startup file) |
//! | `/v1/admin/library/append` | POST | stage implementations into the live delta (`{"goal", "actions"}` or `{"implementations": […]}`) |
//!
//! The recommend body is `{"activity": [u32, …], "strategy": "breadth" |
//! "best-match" | "focus-cmp" | "focus-cl", "k": usize}` with `strategy`
//! and `k` optional. Recommend and append bodies are read by the
//! byte-level record parser that also reads library files and the append
//! WAL (`goalrec_datasets::record`), so neither goes through a
//! `serde_json` value tree, and an append row is accepted or refused the
//! same way on every ingest path; the recommend response is written
//! straight to bytes (`wire.rs`). Only the control-plane bodies (reload)
//! go through the vendored `serde_json`. Every body parser refuses
//! nesting deeper than 128 levels with a `400`. Every handler returns
//! `Result<Response, ServerError>` and the connection layer turns errors
//! into their status-coded JSON envelopes, so nothing in here can abort a
//! worker.
//!
//! Workers hand requests to [`handle`] with a [`ServeCtx`] and their own
//! [`WorkerArena`]; the handler loads one [`AppState`] snapshot up front,
//! so a hot reload landing mid-request never changes the model a request
//! is being answered from. The recommend route ranks through core's
//! [`Strategy::rank_into`] — the same ranking repro, eval and batch
//! run — into the worker's arena, so a steady-state recommend allocates
//! only its activity set and its response body.

use crate::debug::InflightRegistry;
use crate::error::ServerError;
use crate::http::{Request, Response};
use crate::reload::ReloadHandle;
use crate::state::{AppState, StateCell};
use crate::wire;
use goalrec_core::{
    Activity, BestMatch, Breadth, Focus, FocusVariant, ObservedStrategy, Scratch, StatsReport,
    Strategy,
};
use goalrec_obs::{self as obs, names};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The strategy names the API accepts, in documentation order.
pub const STRATEGY_NAMES: &[&str] = &["breadth", "best-match", "focus-cmp", "focus-cl"];

/// One served strategy under its API name, behind core's observation
/// wrapper (its `strategy.<name>.*` metric handles are resolved once, so
/// the recommend route never pays the registry's name formatting and lock
/// per request).
struct ServedStrategy {
    api_name: &'static str,
    strategy: ObservedStrategy,
}

impl ServedStrategy {
    /// One per [`STRATEGY_NAMES`] entry; `best-match` uses the cosine
    /// metric of `BestMatch::default()`.
    fn all() -> Vec<ServedStrategy> {
        STRATEGY_NAMES
            .iter()
            .filter_map(|&api_name| {
                let strategy: Box<dyn Strategy> = match api_name {
                    "breadth" => Box::new(Breadth),
                    "best-match" => Box::new(BestMatch::default()),
                    "focus-cmp" => Box::new(Focus::new(FocusVariant::Completeness)),
                    "focus-cl" => Box::new(Focus::new(FocusVariant::Closeness)),
                    _ => return None,
                };
                Some(ServedStrategy {
                    api_name,
                    strategy: ObservedStrategy::new(strategy),
                })
            })
            .collect()
    }
}

/// Every route label `handle` can classify a request into. The last entry
/// is the catch-all and backs [`ServeCtx::route_counter`]'s fallback.
const ROUTES: [&str; 9] = [
    "healthz",
    "metrics",
    "stats",
    "recommend",
    "admin_reload",
    "admin_append",
    "debug_traces",
    "debug_requests",
    "other",
];

/// How many implementations one `POST /v1/admin/library/append` body may
/// stage by default; larger batches are answered `413` so a runaway
/// client cannot balloon the delta in one request.
pub(crate) const DEFAULT_APPEND_CAP: usize = 1024;

/// Everything the routing layer needs: the serving state, the reload
/// supervisor (absent in contexts that never reload, e.g. unit tests),
/// the trace tail sampler and the in-flight request registry.
pub struct ServeCtx {
    cell: Arc<StateCell>,
    reload: Option<ReloadHandle>,
    tail: Arc<obs::TailSampler>,
    inflight: Arc<InflightRegistry>,
    started: Instant,
    /// Per-route request counters, resolved once at construction and
    /// indexed in lockstep with [`ROUTES`] — `handle` must not pay the
    /// registry's name formatting and lock on every request.
    route_counters: [Arc<obs::Counter>; 9],
    /// The served strategies, one per [`STRATEGY_NAMES`] entry.
    strategies: Vec<ServedStrategy>,
    /// Most implementations one append body may stage ([`DEFAULT_APPEND_CAP`]
    /// unless overridden with [`ServeCtx::with_append_cap`]).
    append_cap: usize,
}

impl ServeCtx {
    /// Wires the serving state to an optional reload supervisor, with a
    /// default-configured tail sampler and a fresh in-flight registry.
    pub(crate) fn new(cell: Arc<StateCell>, reload: Option<ReloadHandle>) -> Self {
        ServeCtx {
            cell,
            reload,
            tail: Arc::new(obs::TailSampler::new(obs::TailConfig::default())),
            inflight: Arc::new(InflightRegistry::new()),
            started: Instant::now(),
            route_counters: ROUTES.map(|r| obs::counter(&names::server_route_requests(r))),
            strategies: ServedStrategy::all(),
            append_cap: DEFAULT_APPEND_CAP,
        }
    }

    /// Overrides the per-request append cap (`--append-max-entries`).
    pub(crate) fn with_append_cap(mut self, cap: usize) -> Self {
        self.append_cap = cap.max(1);
        self
    }

    /// The pre-resolved request counter for `route`; unknown labels fall
    /// back to the catch-all slot.
    fn route_counter(&self, route: &str) -> &obs::Counter {
        let i = ROUTES
            .iter()
            .position(|r| *r == route)
            .unwrap_or(ROUTES.len() - 1);
        &self.route_counters[i]
    }

    /// Replaces the tail sampler — the server shares one between the
    /// request path and the reload supervisor.
    pub(crate) fn with_tail(mut self, tail: Arc<obs::TailSampler>) -> Self {
        self.tail = tail;
        self
    }

    /// A reload-less context over a fixed snapshot — test and embedding
    /// aid.
    pub fn fixed(state: AppState) -> Self {
        ServeCtx::new(Arc::new(StateCell::new(state)), None)
    }

    /// One consistent snapshot of the serving state.
    pub(crate) fn state(&self) -> Arc<AppState> {
        self.cell.load()
    }

    /// The reload supervisor, when hot reload is enabled.
    pub(crate) fn reload(&self) -> Option<&ReloadHandle> {
        self.reload.as_ref()
    }

    /// The tail sampler behind `GET /debug/traces`.
    pub(crate) fn tail(&self) -> &Arc<obs::TailSampler> {
        &self.tail
    }

    /// The in-flight registry behind `GET /debug/requests`.
    pub(crate) fn inflight(&self) -> &Arc<InflightRegistry> {
        &self.inflight
    }

    /// Milliseconds since this context was built — the serving uptime.
    pub(crate) fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn strategy(&self, api_name: &str) -> Result<&ServedStrategy, ServerError> {
        self.strategies
            .iter()
            .find(|s| s.api_name == api_name)
            .ok_or_else(|| ServerError::UnknownStrategy(api_name.to_owned()))
    }
}

/// One worker's reusable per-request memory: core's ranking arena and
/// the buffer a recommend body's activity ids are read into. Workers own
/// exactly one for their lifetime; its buffers grow to the largest
/// request served and are reused from then on, so a warm recommend
/// allocates only its activity set and its response body (pinned by
/// `tests/request_allocations.rs`).
pub struct WorkerArena {
    scratch: Scratch,
    ids: Vec<u32>,
}

impl WorkerArena {
    /// An empty arena; buffers grow to their steady-state high-water mark
    /// over the first requests and are reused from then on.
    pub fn new() -> Self {
        WorkerArena {
            scratch: Scratch::new(),
            ids: Vec::new(),
        }
    }
}

impl Default for WorkerArena {
    fn default() -> Self {
        Self::new()
    }
}

/// Dispatches one request. The per-route counters are recorded here so
/// they count exactly the requests that reached routing. `arena` is the
/// calling worker's reusable memory; only the recommend route uses it.
/// `trace` is the worker's request-scoped trace — routing tags it with
/// the route name and serving generation, and the recommend route records
/// its ranking spans into it.
pub fn handle(
    ctx: &ServeCtx,
    request: &Request,
    arena: &mut WorkerArena,
    trace: &mut obs::TraceContext,
) -> Result<Response, ServerError> {
    let route = match (request.method.as_str(), request.path.as_str()) {
        (_, "/healthz") => "healthz",
        (_, "/metrics") => "metrics",
        (_, "/v1/stats") => "stats",
        (_, "/v1/recommend") => "recommend",
        (_, "/v1/admin/reload") => "admin_reload",
        (_, "/v1/admin/library/append") => "admin_append",
        (_, "/debug/traces") => "debug_traces",
        (_, "/debug/requests") => "debug_requests",
        _ => "other",
    };
    ctx.route_counter(route).inc();
    trace.set_route(route);

    // One snapshot per request: a hot reload that lands after this line
    // does not change what this request is answered from.
    let state = ctx.state();
    trace.set_generation(state.generation());

    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Ok(healthz(ctx, &state)),
        ("GET", "/metrics") => Ok(metrics(request)),
        ("GET", "/v1/stats") => Ok(stats(ctx, &state)),
        ("GET", "/debug/traces") => Ok(debug_traces(ctx, request)),
        ("GET", "/debug/requests") => Ok(debug_requests(ctx)),
        ("POST", "/v1/recommend") => recommend(ctx, &state, request, arena, trace),
        ("POST", "/v1/admin/reload") => admin_reload(ctx, request),
        ("POST", "/v1/admin/library/append") => admin_append(ctx, request),
        (_, "/healthz")
        | (_, "/metrics")
        | (_, "/v1/stats")
        | (_, "/debug/traces")
        | (_, "/debug/requests") => Err(ServerError::MethodNotAllowed {
            path: request.path.clone(),
            allowed: "GET",
        }),
        (_, "/v1/recommend") | (_, "/v1/admin/reload") | (_, "/v1/admin/library/append") => {
            Err(ServerError::MethodNotAllowed {
                path: request.path.clone(),
                allowed: "POST",
            })
        }
        _ => Err(ServerError::NotFound(request.path.clone())),
    }
}

/// First value of `key` in a raw query string (`k=v&k2=v2`). No
/// percent-decoding: the filters only take identifier-shaped values.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(v)
    })
}

/// `GET /metrics`: the metrics snapshot, JSON by default and Prometheus
/// text when `?format=prometheus`.
fn metrics(request: &Request) -> Response {
    let prometheus = request
        .query
        .as_deref()
        .and_then(|q| query_param(q, "format"))
        .is_some_and(|f| f == "prometheus");
    if prometheus {
        Response::text(200, obs::render_prometheus())
    } else {
        Response::text(200, obs::snapshot().to_string())
    }
}

/// `GET /healthz`: liveness JSON. Also refreshes the `server.model_age_ms`
/// and `server.trace.tail_occupancy` gauges, so scrapes that only read
/// `/metrics` see the same numbers the health probe reports.
fn healthz(ctx: &ServeCtx, state: &AppState) -> Response {
    let model_age_ms = u64::try_from(state.model_age().as_millis()).unwrap_or(u64::MAX);
    let occupancy = ctx.tail().occupancy();
    obs::gauge(names::SERVER_MODEL_AGE_MS).set(model_age_ms as f64);
    obs::gauge(names::SERVER_TRACE_TAIL_OCCUPANCY).set(occupancy as f64);
    let doc = serde_json::json!({
        "status": "ok",
        "generation": state.generation(),
        "model_age_ms": model_age_ms,
        "delta_size": state.delta_len(),
        "uptime_ms": ctx.uptime_ms(),
        "trace_tail_occupancy": occupancy,
    });
    Response::json(200, doc.to_string())
}

/// `GET /v1/stats`: the [`StatsReport`] JSON prefixed with serving-side
/// fields (`uptime_ms`, tail-sampler occupancy, staged delta size).
fn stats(ctx: &ServeCtx, state: &AppState) -> Response {
    let report = StatsReport::new(state.stats().clone(), Some(obs::snapshot()));
    let text = report.to_json_pretty();
    let mut fields = match serde_json::from_str(&text) {
        Ok(Value::Object(fields)) => fields,
        // Unreachable: the report always serializes as a JSON object.
        _ => Vec::new(),
    };
    let occupancy = u64::try_from(ctx.tail().occupancy()).unwrap_or(u64::MAX);
    fields.insert(
        0,
        (
            "delta_size".to_owned(),
            Value::UInt(state.delta_len() as u64),
        ),
    );
    fields.insert(
        0,
        ("trace_tail_occupancy".to_owned(), Value::UInt(occupancy)),
    );
    fields.insert(0, ("uptime_ms".to_owned(), Value::UInt(ctx.uptime_ms())));
    let doc = Value::Object(fields);
    let body = serde_json::to_string_pretty(&doc).unwrap_or_else(|_| doc.to_string());
    Response::json(200, body)
}

/// `GET /debug/traces`: the retained tail traces, slowest first, with
/// optional `route=`, `strategy=` and `min_us=` query filters.
fn debug_traces(ctx: &ServeCtx, request: &Request) -> Response {
    let query = request.query.as_deref().unwrap_or("");
    let route = query_param(query, "route").filter(|v| !v.is_empty());
    let strategy = query_param(query, "strategy").filter(|v| !v.is_empty());
    let min_ns = query_param(query, "min_us")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
        .saturating_mul(1_000);
    let traces = ctx.tail().snapshot(route, strategy, min_ns);
    let rows: Vec<Value> = traces.iter().map(|t| t.to_value()).collect();
    let doc = serde_json::json!({
        "count": rows.len(),
        "offered": ctx.tail().offered(),
        "occupancy": ctx.tail().occupancy(),
        "traces": rows,
    });
    Response::json(200, doc.to_string())
}

/// `GET /debug/requests`: a point-in-time snapshot of every request a
/// worker is currently inside, with age and current span.
fn debug_requests(ctx: &ServeCtx) -> Response {
    let rows = ctx.inflight().snapshot_rows();
    let doc = serde_json::json!({
        "uptime_ms": ctx.uptime_ms(),
        "count": rows.len(),
        "inflight": rows,
    });
    Response::json(200, doc.to_string())
}

/// Parses the optional `{"path": "..."}` reload body; an empty body or a
/// missing/`null` `path` means "reload the startup file".
fn parse_reload_body(body: &[u8]) -> Result<Option<PathBuf>, ServerError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServerError::BadRequest("body is not valid UTF-8".to_owned()))?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    let doc: Value = serde_json::from_str(text)
        .map_err(|e| ServerError::BadRequest(format!("invalid JSON body: {e}")))?;
    match doc.get("path") {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|p| Some(PathBuf::from(p)))
            .ok_or_else(|| ServerError::BadRequest("'path' must be a string".to_owned())),
    }
}

fn admin_reload(ctx: &ServeCtx, request: &Request) -> Result<Response, ServerError> {
    let Some(handle) = ctx.reload() else {
        return Err(ServerError::ReloadFailed(
            "hot reload is not enabled on this server".to_owned(),
        ));
    };
    let path = match parse_reload_body(&request.body)? {
        Some(path) => path,
        None => handle.default_path().map(PathBuf::from).ok_or_else(|| {
            ServerError::BadRequest(
                "no 'path' in the body and the server was not started from a library file"
                    .to_owned(),
            )
        })?,
    };
    let generation = handle.reload_blocking(path.clone())?;
    let doc = serde_json::json!({
        "status": "reloaded",
        "path": path.display().to_string(),
        "generation": generation,
    });
    Ok(Response::json(200, doc.to_string()))
}

/// Parses a `POST /v1/admin/library/append` body: either one
/// implementation (`{"goal": g, "actions": [a, …]}`) or a batch
/// (`{"implementations": [{…}, …]}`). The bytes go through the same
/// record parser as the JSONL reader and the WAL
/// ([`goalrec_datasets::record::parse_append_body`]), so the error for a
/// bad entry names the offending field, and a body that is not JSON names
/// the byte column; a batch larger than `cap` is a typed `413`.
fn parse_append_body(body: &[u8], cap: usize) -> Result<Vec<(u32, Vec<u32>)>, ServerError> {
    use goalrec_datasets::record::{self, AppendError};
    record::parse_append_body(body, cap).map_err(|e| match e {
        AppendError::TooLarge { entries, max } => ServerError::AppendTooLarge { entries, max },
        AppendError::NotUtf8 => ServerError::BadRequest("body is not valid UTF-8".to_owned()),
        AppendError::Empty => ServerError::BadRequest(
            "empty body; expected {\"goal\": .., \"actions\": [..]} \
             or {\"implementations\": [..]}"
                .to_owned(),
        ),
        AppendError::Syntax(e) => ServerError::BadRequest(format!("invalid JSON body: {e}")),
        AppendError::NotArray => ServerError::BadRequest(
            "field `implementations`: expected an array of implementation objects".to_owned(),
        ),
        AppendError::NoEntries => ServerError::BadRequest(
            "field `implementations`: must stage at least one implementation".to_owned(),
        ),
        AppendError::Entry(i, detail) => {
            ServerError::BadRequest(format!("implementation #{i}: {detail}"))
        }
    })
}

/// `POST /v1/admin/library/append`: stage implementations into the live
/// delta. The supervisor WAL-logs the batch before acknowledging, so a
/// `200` means the entries survive a crash; `delta_size` in the response
/// is the staged total after this batch.
fn admin_append(ctx: &ServeCtx, request: &Request) -> Result<Response, ServerError> {
    let Some(handle) = ctx.reload() else {
        return Err(ServerError::ReloadFailed(
            "live appends are not enabled on this server".to_owned(),
        ));
    };
    let entries = parse_append_body(&request.body, ctx.append_cap)?;
    let appended = entries.len();
    let staged_total = handle.append_blocking(entries)?;
    let state = ctx.state();
    let doc = serde_json::json!({
        "status": "staged",
        "appended": appended,
        "delta_size": staged_total,
        "generation": state.generation(),
    });
    Ok(Response::json(200, doc.to_string()))
}

/// Admits an activity against the served id extent (see
/// [`AppState::num_actions`]): staged-only actions are servable the
/// moment the append returns.
fn check_activity(num_actions: usize, activity: &[u32]) -> Result<(), ServerError> {
    for &id in activity {
        if goalrec_core::ids::ActionId::new(id).index() >= num_actions {
            return Err(ServerError::Recommend(goalrec_core::Error::UnknownAction(
                id,
            )));
        }
    }
    Ok(())
}

/// `POST /v1/recommend`: rank the activity over the snapshot's base ⊕
/// staged overlay with core's strategy, into the worker's arena. Core's
/// observation wrapper records the `span.rank` span (tiled by
/// `span.rank.candidates` and `span.rank.topk`) and one tick of the
/// strategy's `strategy.<name>.{requests,latency,candidates}` metrics.
fn recommend(
    ctx: &ServeCtx,
    state: &AppState,
    request: &Request,
    arena: &mut WorkerArena,
    trace: &mut obs::TraceContext,
) -> Result<Response, ServerError> {
    let params = wire::parse_body(&request.body, &mut arena.ids)?;
    check_activity(state.num_actions(), &arena.ids)?;
    let served = ctx.strategy(&params.strategy)?;
    let activity = Activity::from_raw(arena.ids.iter().copied());
    let ranked = served.strategy.rank_into_traced(
        state.live(),
        &activity,
        params.k,
        &mut arena.scratch,
        trace,
    );
    let body = wire::render(state, &params.strategy, params.k, activity.raw(), ranked);
    Ok(Response::json(200, body))
}

/// The paper's rankings as core computes them offline, for checking the
/// served bytes against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use goalrec_core::ids::{ActionId, GoalId};
    use goalrec_core::{GoalLibrary, GoalModel, GoalRecommender, Recommender};

    /// `base` followed by `appends` (raw `(goal, actions)` ids), in id
    /// order: the library a full rebuild after those appends compiles.
    pub(crate) fn merged(base: &GoalLibrary, appends: &[(u32, Vec<u32>)]) -> GoalLibrary {
        let mut impls: Vec<(GoalId, Vec<ActionId>)> = base
            .implementations()
            .iter()
            .map(|imp| (imp.goal, imp.actions.clone()))
            .collect();
        let mut num_actions = u32::try_from(base.num_actions()).unwrap();
        let mut num_goals = u32::try_from(base.num_goals()).unwrap();
        for (goal, actions) in appends {
            num_goals = num_goals.max(goal + 1);
            num_actions = num_actions.max(actions.iter().max().unwrap() + 1);
            impls.push((
                GoalId::new(*goal),
                actions.iter().copied().map(ActionId::new).collect(),
            ));
        }
        GoalLibrary::from_id_implementations(num_actions, num_goals, impls).unwrap()
    }

    /// The activities of `activities` whose every action `state` serves
    /// (staged-only actions count; others are a `400` by design).
    pub(crate) fn admitted<'a>(state: &AppState, activities: &[&'a [u32]]) -> Vec<&'a [u32]> {
        let extent = state.num_actions();
        activities
            .iter()
            .copied()
            .filter(|h| h.iter().all(|&a| ActionId::new(a).index() < extent))
            .collect()
    }

    fn request(name: &str, activity: &[u32], k: usize) -> Request {
        let body = format!("{{\"activity\": {activity:?}, \"strategy\": \"{name}\", \"k\": {k}}}");
        Request {
            method: "POST".to_owned(),
            path: "/v1/recommend".to_owned(),
            query: None,
            headers: Vec::new(),
            body: body.into_bytes(),
            keep_alive: true,
        }
    }

    /// The recommend route's response bodies, every strategy over every
    /// activity, through one worker arena.
    pub(crate) fn served_bodies(ctx: &ServeCtx, activities: &[&[u32]], k: usize) -> Vec<Vec<u8>> {
        let mut arena = WorkerArena::new();
        let mut out = Vec::new();
        for activity in activities {
            for name in STRATEGY_NAMES {
                let resp = super::handle(
                    ctx,
                    &request(name, activity, k),
                    &mut arena,
                    &mut obs::TraceContext::disabled(),
                )
                .unwrap();
                assert_eq!(resp.status, 200, "{name} {activity:?}");
                out.push(resp.body);
            }
        }
        out
    }

    /// The bodies [`served_bodies`] must equal: core [`GoalRecommender`]
    /// on a fresh `GoalModel::build` of `merged`, rendered by the
    /// `serde_json` oracle of the route's writer.
    /// Display names come from `state`'s catalog; the ranking (ids,
    /// scores, order) comes from the fresh build alone.
    pub(crate) fn expected_bodies(
        state: &AppState,
        merged: &GoalLibrary,
        activities: &[&[u32]],
        k: usize,
    ) -> Vec<Vec<u8>> {
        let model = Arc::new(GoalModel::build(merged).unwrap());
        let mut out = Vec::new();
        for activity in activities {
            for &name in STRATEGY_NAMES {
                let strategy: Box<dyn Strategy> = match name {
                    "breadth" => Box::new(Breadth),
                    "best-match" => Box::new(BestMatch::default()),
                    "focus-cmp" => Box::new(Focus::new(FocusVariant::Completeness)),
                    "focus-cl" => Box::new(Focus::new(FocusVariant::Closeness)),
                    other => panic!("no oracle for strategy {other}"),
                };
                let h = Activity::from_raw(activity.iter().copied());
                let ranked = GoalRecommender::new(Arc::clone(&model), strategy).recommend(&h, k);
                out.push(wire::oracle::render(state, name, k, h.raw(), &ranked));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goalrec_core::{GoalLibrary, LibraryBuilder};

    /// Test shim: routes with a fresh arena and a disabled trace,
    /// shadowing [`super::handle`] so call sites stay signature-free.
    fn handle(ctx: &ServeCtx, request: &Request) -> Result<Response, ServerError> {
        super::handle(
            ctx,
            request,
            &mut WorkerArena::new(),
            &mut obs::TraceContext::disabled(),
        )
    }

    fn library() -> GoalLibrary {
        let mut b = LibraryBuilder::new();
        b.add_impl("olivier salad", ["potatoes", "carrots", "pickles"])
            .unwrap();
        b.add_impl("mashed potatoes", ["potatoes", "nutmeg", "butter"])
            .unwrap();
        b.add_impl("pan-fried carrots", ["carrots", "nutmeg"])
            .unwrap();
        b.build().unwrap()
    }

    fn state() -> ServeCtx {
        ServeCtx::fixed(AppState::new(library()).unwrap())
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_owned(),
            path: path.to_owned(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_owned(),
            body: body.as_bytes().to_vec(),
            ..get(path)
        }
    }

    fn get_q(path: &str, query: &str) -> Request {
        Request {
            query: Some(query.to_owned()),
            ..get(path)
        }
    }

    #[test]
    fn healthz_and_metrics_and_stats() {
        let st = state();
        let health = handle(&st, &get("/healthz")).unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.content_type, "application/json");
        let health_text = String::from_utf8(health.body).unwrap();
        assert!(health_text.contains("\"status\":\"ok\""), "{health_text}");
        assert!(health_text.contains("\"generation\":1"), "{health_text}");
        assert!(health_text.contains("\"model_age_ms\""), "{health_text}");
        assert!(health_text.contains("\"uptime_ms\""), "{health_text}");
        assert!(
            health_text.contains("\"trace_tail_occupancy\""),
            "{health_text}"
        );
        let metrics = handle(&st, &get("/metrics")).unwrap();
        assert_eq!(metrics.content_type, "text/plain; charset=utf-8");
        let stats = handle(&st, &get("/v1/stats")).unwrap();
        assert_eq!(stats.content_type, "application/json");
        let text = String::from_utf8(stats.body).unwrap();
        assert!(text.contains("num_implementations"), "{text}");
        assert!(text.contains("\"metrics\""), "{text}");
        assert!(text.contains("\"uptime_ms\""), "{text}");
        assert!(text.contains("\"trace_tail_occupancy\""), "{text}");
    }

    #[test]
    fn healthz_refreshes_the_promoted_gauges() {
        let st = state();
        handle(&st, &get("/healthz")).unwrap();
        let snap = goalrec_obs::snapshot();
        assert!(snap.gauge(names::SERVER_MODEL_AGE_MS).is_some());
        assert!(snap.gauge(names::SERVER_TRACE_TAIL_OCCUPANCY).is_some());
    }

    #[test]
    fn metrics_format_prometheus_renders_exposition() {
        let st = state();
        // Tick at least one counter so the exposition is non-empty.
        handle(&st, &get("/healthz")).unwrap();
        let resp = handle(&st, &get_q("/metrics", "format=prometheus")).unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("# TYPE "), "{text}");
        assert!(text.contains("goalrec_"), "{text}");
        // An unknown format value falls back to the text snapshot.
        let fallback = handle(&st, &get_q("/metrics", "format=wide")).unwrap();
        assert!(!String::from_utf8(fallback.body).unwrap().contains("# TYPE"));
    }

    #[test]
    fn debug_traces_reports_and_filters_offered_traces() {
        let st = state();
        // Serve one traced recommend and offer its trace, as a worker
        // would after responding.
        let mut trace = obs::TraceContext::new(true);
        trace.begin(obs::TraceId(0x51ab), std::time::Instant::now());
        super::handle(
            &st,
            &post("/v1/recommend", r#"{"activity": [0, 1], "k": 2}"#),
            &mut WorkerArena::new(),
            &mut trace,
        )
        .unwrap();
        trace.finish(200);
        st.tail().offer(&trace.snapshot());

        let resp = handle(&st, &get("/debug/traces")).unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"trace\":\"00000000000051ab\""), "{text}");
        assert!(text.contains(names::SPAN_RANK), "{text}");
        assert!(text.contains("\"route\":\"recommend\""), "{text}");

        // Route and strategy filters narrow; a bogus filter empties.
        let hit = handle(
            &st,
            &get_q("/debug/traces", "route=recommend&strategy=Breadth"),
        )
        .unwrap();
        assert!(String::from_utf8(hit.body)
            .unwrap()
            .contains("00000000000051ab"));
        let miss = handle(&st, &get_q("/debug/traces", "route=healthz")).unwrap();
        let miss_text = String::from_utf8(miss.body).unwrap();
        assert!(miss_text.contains("\"count\":0"), "{miss_text}");
        // min_us beyond any plausible duration filters everything out.
        let too_slow = handle(&st, &get_q("/debug/traces", "min_us=60000000")).unwrap();
        assert!(String::from_utf8(too_slow.body)
            .unwrap()
            .contains("\"count\":0"));
    }

    #[test]
    fn debug_requests_snapshots_active_slots() {
        let st = state();
        let empty = handle(&st, &get("/debug/requests")).unwrap();
        let text = String::from_utf8(empty.body).unwrap();
        assert!(text.contains("\"count\":0"), "{text}");

        let slot = st.inflight().register(7);
        slot.begin(
            obs::TraceId(0xfeed),
            st.inflight().offset_us(std::time::Instant::now()),
        );
        let busy = handle(&st, &get("/debug/requests")).unwrap();
        let text = String::from_utf8(busy.body).unwrap();
        assert!(text.contains("\"count\":1"), "{text}");
        assert!(text.contains("000000000000feed"), "{text}");
        assert!(text.contains("\"worker\":7"), "{text}");
        assert!(text.contains(names::SPAN_PARSE), "{text}");
    }

    #[test]
    fn query_param_parses_raw_query_strings() {
        assert_eq!(query_param("a=1&b=2", "b"), Some("2"));
        assert_eq!(query_param("a=1&b=2", "a"), Some("1"));
        assert_eq!(query_param("a=1&b", "b"), Some(""));
        assert_eq!(query_param("a=1", "c"), None);
        assert_eq!(query_param("", "a"), None);
    }

    #[test]
    fn recommend_ranks_completions() {
        let st = state();
        // potatoes + carrots → pickles / nutmeg complete the open goals.
        let resp = handle(
            &st,
            &post("/v1/recommend", r#"{"activity": [0, 1], "k": 2}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(
            text.contains("pickles") || text.contains("nutmeg"),
            "{text}"
        );
        assert!(text.contains("\"strategy\""), "{text}");
    }

    #[test]
    fn every_strategy_name_is_servable() {
        let st = state();
        for name in STRATEGY_NAMES {
            let body = format!("{{\"activity\": [0], \"strategy\": \"{name}\"}}");
            let resp = handle(&st, &post("/v1/recommend", &body)).unwrap();
            assert_eq!(resp.status, 200, "strategy {name}");
        }
    }

    #[test]
    fn recommend_rejects_bad_payloads() {
        let st = &state();
        let cases = [
            ("", "empty body"),
            ("{not json", "invalid JSON"),
            (r#"{"k": 3}"#, "missing activity"),
            (r#"{"activity": "zero"}"#, "non-array activity"),
            (r#"{"activity": [-1]}"#, "negative id"),
            (r#"{"activity": [0], "k": 0}"#, "zero k"),
            (r#"{"activity": [0], "strategy": 7}"#, "non-string strategy"),
        ];
        for (body, why) in cases {
            assert!(
                matches!(
                    handle(st, &post("/v1/recommend", body)),
                    Err(ServerError::BadRequest(_))
                ),
                "case: {why}"
            );
        }
        assert!(matches!(
            handle(
                st,
                &post(
                    "/v1/recommend",
                    r#"{"activity": [0], "strategy": "voodoo"}"#
                )
            ),
            Err(ServerError::UnknownStrategy(_))
        ));
        assert!(matches!(
            handle(st, &post("/v1/recommend", r#"{"activity": [999]}"#)),
            Err(ServerError::Recommend(goalrec_core::Error::UnknownAction(
                999
            )))
        ));
    }

    #[test]
    fn routing_rejects_wrong_methods_and_unknown_paths() {
        let st = state();
        assert!(matches!(
            handle(&st, &post("/healthz", "")),
            Err(ServerError::MethodNotAllowed { .. })
        ));
        assert!(matches!(
            handle(&st, &get("/v1/recommend")),
            Err(ServerError::MethodNotAllowed { .. })
        ));
        assert!(matches!(
            handle(&st, &get("/v1/admin/reload")),
            Err(ServerError::MethodNotAllowed { .. })
        ));
        assert!(matches!(
            handle(&st, &post("/debug/traces", "")),
            Err(ServerError::MethodNotAllowed { .. })
        ));
        assert!(matches!(
            handle(&st, &post("/debug/requests", "")),
            Err(ServerError::MethodNotAllowed { .. })
        ));
        assert!(matches!(
            handle(&st, &get("/nope")),
            Err(ServerError::NotFound(_))
        ));
    }

    #[test]
    fn reload_route_without_a_supervisor_is_a_typed_error() {
        let st = state();
        assert!(matches!(
            handle(&st, &post("/v1/admin/reload", "")),
            Err(ServerError::ReloadFailed(_))
        ));
        // Body validation still runs ahead of dispatch semantics.
        assert!(matches!(
            parse_reload_body(br#"{"path": 7}"#),
            Err(ServerError::BadRequest(_))
        ));
        assert_eq!(parse_reload_body(b"").unwrap(), None);
        assert_eq!(parse_reload_body(br#"{"path": null}"#).unwrap(), None);
        assert_eq!(
            parse_reload_body(br#"{"path": "x.grlb2"}"#).unwrap(),
            Some(PathBuf::from("x.grlb2"))
        );
    }

    #[test]
    fn append_route_without_a_supervisor_is_a_typed_error() {
        let st = state();
        assert!(matches!(
            handle(
                &st,
                &post("/v1/admin/library/append", r#"{"goal": 0, "actions": [1]}"#)
            ),
            Err(ServerError::ReloadFailed(_))
        ));
        assert!(matches!(
            handle(&st, &get("/v1/admin/library/append")),
            Err(ServerError::MethodNotAllowed { .. })
        ));
    }

    #[test]
    fn append_bodies_parse_in_both_forms() {
        assert_eq!(
            parse_append_body(br#"{"goal": 2, "actions": [0, 5]}"#, 8).unwrap(),
            vec![(2, vec![0, 5])]
        );
        let batch = parse_append_body(
            br#"{"implementations": [{"goal": 0, "actions": [1]}, {"goal": 1, "actions": [2, 3]}]}"#,
            8,
        )
        .unwrap();
        assert_eq!(batch, vec![(0, vec![1]), (1, vec![2, 3])]);
    }

    #[test]
    fn append_bodies_above_the_cap_are_a_typed_413() {
        let body = br#"{"implementations": [
            {"goal": 0, "actions": [1]},
            {"goal": 1, "actions": [2]},
            {"goal": 2, "actions": [3]}
        ]}"#;
        assert!(matches!(
            parse_append_body(body, 2),
            Err(ServerError::AppendTooLarge { entries: 3, max: 2 })
        ));
        // At the cap exactly, the batch is admitted.
        assert_eq!(parse_append_body(body, 3).unwrap().len(), 3);
    }

    #[test]
    fn append_errors_name_the_offending_field() {
        let cases: [(&[u8], &str); 4] = [
            (br#"{"goal": "zero", "actions": [1]}"#, "goal"),
            (br#"{"goal": 0}"#, "actions"),
            (br#"{"goal": 0, "actions": []}"#, "actions"),
            (br#"{"goal": 0, "actions": [-1]}"#, "actions"),
        ];
        for (body, field) in cases {
            match parse_append_body(body, 8) {
                Err(ServerError::BadRequest(msg)) => {
                    assert!(msg.contains(field), "expected `{field}` in: {msg}");
                    assert!(msg.contains("implementation #0"), "{msg}");
                }
                other => panic!("expected BadRequest naming `{field}`, got {other:?}"),
            }
        }
        // Batch entries report their index.
        match parse_append_body(
            br#"{"implementations": [{"goal": 0, "actions": [1]}, {"goal": 1}]}"#,
            8,
        ) {
            Err(ServerError::BadRequest(msg)) => {
                assert!(msg.contains("implementation #1"), "{msg}");
            }
            other => panic!("expected BadRequest for entry #1, got {other:?}"),
        }
        assert!(matches!(
            parse_append_body(br#"{"implementations": []}"#, 8),
            Err(ServerError::BadRequest(_))
        ));
        assert!(matches!(
            parse_append_body(br#"{"implementations": 3}"#, 8),
            Err(ServerError::BadRequest(_))
        ));
        assert!(matches!(
            parse_append_body(b"", 8),
            Err(ServerError::BadRequest(_))
        ));
    }

    #[test]
    fn healthz_reports_the_delta_size() {
        let st = state();
        let health = handle(&st, &get("/healthz")).unwrap();
        let text = String::from_utf8(health.body).unwrap();
        assert!(text.contains("\"delta_size\":0"), "{text}");
        let stats = handle(&st, &get("/v1/stats")).unwrap();
        let text = String::from_utf8(stats.body).unwrap();
        assert!(text.contains("\"delta_size\": 0"), "{text}");
    }

    #[test]
    fn staged_state_serves_staged_actions_without_a_rebuild() {
        let st = state();
        let base = st.state();
        // Stage a brand-new goal whose actions include an id one past the
        // base extent.
        let base_actions = base.num_actions();
        let staged = base
            .with_staged(&[(3, vec![0, u32::try_from(base_actions).unwrap()])])
            .unwrap();
        assert_eq!(staged.delta_len(), 1);
        assert_eq!(staged.generation(), base.generation());
        let ctx = ServeCtx::fixed(staged);
        // An activity naming the staged-only action id is admitted and
        // ranked; the same id on the un-staged context is a 400.
        let body = format!("{{\"activity\": [{base_actions}], \"k\": 3}}");
        let resp = handle(&ctx, &post("/v1/recommend", &body)).unwrap();
        assert_eq!(resp.status, 200);
        assert!(matches!(
            handle(&st, &post("/v1/recommend", &body)),
            Err(ServerError::Recommend(_))
        ));
    }

    #[test]
    fn recommend_bytes_match_core_on_a_fresh_build_of_the_merged_library() {
        let lib = library();
        let plain = state();
        let appends = [(0, vec![1, 5]), (4, vec![0, 3, 6]), (1, vec![2])];
        let staged = ServeCtx::fixed(plain.state().with_staged(&appends).unwrap());
        let activities: [&[u32]; 5] = [&[0, 1], &[0], &[2, 4], &[1, 3, 4], &[6]];
        for (ctx, merged) in [
            (&plain, oracle::merged(&lib, &[])),
            (&staged, oracle::merged(&lib, &appends)),
        ] {
            let state = ctx.state();
            let admitted = oracle::admitted(&state, &activities);
            assert_eq!(
                oracle::served_bodies(ctx, &admitted, 4),
                oracle::expected_bodies(&state, &merged, &admitted, 4)
            );
        }
        // The staged-only action 6 is served once its append is staged.
        assert_eq!(oracle::admitted(&plain.state(), &activities).len(), 4);
        assert_eq!(oracle::admitted(&staged.state(), &activities).len(), 5);
    }

    #[test]
    fn recommend_reuses_one_arena_and_records_the_rank_spans() {
        let st = state();
        let mut arena = WorkerArena::new();
        let mut trace = obs::TraceContext::new(true);
        trace.begin(obs::TraceId(0x54a2), std::time::Instant::now());
        // Two requests through one arena: no state may leak between them.
        super::handle(
            &st,
            &post("/v1/recommend", r#"{"activity": [0, 1, 3], "k": 5}"#),
            &mut arena,
            &mut trace,
        )
        .unwrap();
        trace.begin(obs::TraceId(0x54a3), std::time::Instant::now());
        let resp = super::handle(
            &st,
            &post("/v1/recommend", r#"{"activity": [0, 1], "k": 2}"#),
            &mut arena,
            &mut trace,
        )
        .unwrap();
        trace.finish(200);
        let fresh = handle(
            &st,
            &post("/v1/recommend", r#"{"activity": [0, 1], "k": 2}"#),
        )
        .unwrap();
        assert_eq!(resp.body, fresh.body);
        // The trace carries the rank span, tiled by its two children.
        let snap = trace.snapshot();
        let dur = |name: &str| {
            snap.spans()
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("no {name} span"))
                .dur_ns
        };
        assert_eq!(
            dur(names::SPAN_RANK_CANDIDATES) + dur(names::SPAN_RANK_TOPK),
            dur(names::SPAN_RANK)
        );
    }

    #[test]
    fn recommend_ticks_the_strategy_metrics() {
        let st = state();
        let count = |name: &str| goalrec_obs::snapshot().counter(name).unwrap_or(0);
        let before = count(&names::strategy_requests("Focus_cl"));
        handle(
            &st,
            &post(
                "/v1/recommend",
                r#"{"activity": [0], "strategy": "focus-cl", "k": 3}"#,
            ),
        )
        .unwrap();
        // Other tests share the process-global registry, so the count
        // moved by at least this request.
        assert!(count(&names::strategy_requests("Focus_cl")) > before);
    }

    #[test]
    fn route_counters_tick() {
        let st = state();
        let before = goalrec_obs::snapshot()
            .counter(&names::server_route_requests("healthz"))
            .unwrap_or(0);
        handle(&st, &get("/healthz")).unwrap();
        let after = goalrec_obs::snapshot()
            .counter(&names::server_route_requests("healthz"))
            .unwrap_or(0);
        assert_eq!(after, before + 1);
    }
}
