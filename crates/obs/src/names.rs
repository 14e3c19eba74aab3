//! Central registry of every metric name the workspace records.
//!
//! All metric names recorded through `goalrec-obs` MUST be declared here —
//! either as a concrete constant or as a `<placeholder>` pattern expanded
//! through one of the helper functions. The `goalrec-lint`
//! `metric-name-registry` rule enforces both directions:
//!
//! * call sites outside this module may not pass metric-name string
//!   literals to the recording functions;
//! * the README "Observability" table and this registry must list exactly
//!   the same names (drift is reported either way).

// ---------------------------------------------------------------------
// Model construction (`GoalModel::build`).
// ---------------------------------------------------------------------

/// Counter: number of model compilations.
pub const MODEL_BUILDS: &str = "model.builds";
/// Histogram (ns): whole-build wall time.
pub const MODEL_BUILD_TOTAL: &str = "model.build.total";
/// Histogram (ns): `A-idx` phase (per-action occurrence counts).
pub const MODEL_BUILD_A_IDX: &str = "model.build.a_idx";
/// Histogram (ns): `G-idx` phase (per-goal implementation counts).
pub const MODEL_BUILD_G_IDX: &str = "model.build.g_idx";
/// Histogram (ns): `GI-A-idx` phase (implementation → activity).
pub const MODEL_BUILD_GI_A_IDX: &str = "model.build.gi_a_idx";
/// Histogram (ns): `GI-G-idx` phase (implementation ↔ goal).
pub const MODEL_BUILD_GI_G_IDX: &str = "model.build.gi_g_idx";
/// Histogram (ns): `A-GI-idx` phase (action → implementations).
pub const MODEL_BUILD_A_GI_IDX: &str = "model.build.a_gi_idx";
/// Gauge: `|L|` of the most recently built model.
pub const MODEL_IMPLS: &str = "model.impls";
/// Gauge: `|𝒜|` of the most recently built model.
pub const MODEL_ACTIONS: &str = "model.actions";
/// Gauge: `|𝒢|` of the most recently built model.
pub const MODEL_GOALS: &str = "model.goals";
/// Gauge: approximate heap footprint of the most recently built model.
pub const MODEL_MEMORY_BYTES: &str = "model.memory_bytes";

// ---------------------------------------------------------------------
// Per-strategy serving (`GoalRecommender::recommend`).
// ---------------------------------------------------------------------

/// Pattern — counter: requests served by one strategy.
pub(crate) const STRATEGY_REQUESTS: &str = "strategy.<name>.requests";
/// Pattern — histogram (ns): per-request latency of one strategy.
pub(crate) const STRATEGY_LATENCY: &str = "strategy.<name>.latency";
/// Pattern — histogram: pre-truncation candidate-set size per request.
pub(crate) const STRATEGY_CANDIDATES: &str = "strategy.<name>.candidates";

/// `strategy.<name>.requests` for a concrete strategy name.
pub fn strategy_requests(name: &str) -> String {
    expand(STRATEGY_REQUESTS, name)
}

/// `strategy.<name>.latency` for a concrete strategy name.
pub fn strategy_latency(name: &str) -> String {
    expand(STRATEGY_LATENCY, name)
}

/// `strategy.<name>.candidates` for a concrete strategy name.
pub fn strategy_candidates(name: &str) -> String {
    expand(STRATEGY_CANDIDATES, name)
}

// ---------------------------------------------------------------------
// Batch serving (`recommend_batch{,_actions}`).
// ---------------------------------------------------------------------

/// Counter: total batch requests across all methods.
pub const BATCH_REQUESTS: &str = "batch.requests";
/// Histogram (ns): per-request latency inside the batch workers.
pub const BATCH_LATENCY: &str = "batch.latency";
/// Gauge: requests per second of the most recent batch run.
pub const BATCH_THROUGHPUT_RPS: &str = "batch.throughput_rps";
/// Pattern — histogram (ns): one method's batch wall clock.
pub(crate) const BATCH_METHOD_WALL: &str = "batch.<method>.wall";

/// `batch.<method>.wall` for a concrete method name.
pub fn batch_method_wall(method: &str) -> String {
    expand(BATCH_METHOD_WALL, method)
}

// ---------------------------------------------------------------------
// HTTP serving (`goalrec-serve`, crates/server).
// ---------------------------------------------------------------------

/// Counter: requests that received a response (any status).
pub const SERVER_REQUESTS: &str = "server.requests";
/// Counter: connections refused with 503 because the accept queue was full.
pub const SERVER_REJECTED: &str = "server.rejected";
/// Counter: requests answered 408 because the per-request deadline expired.
pub const SERVER_TIMEOUTS: &str = "server.timeouts";
/// Counter: connections accepted into the queue.
pub const SERVER_CONNECTIONS: &str = "server.connections";
/// Histogram (ns): wall time from dequeue/first byte to response written.
pub const SERVER_LATENCY: &str = "server.latency";
/// Gauge: requests currently being parsed, routed, or written.
pub const SERVER_INFLIGHT: &str = "server.inflight";
/// Pattern — counter: requests dispatched to one route.
pub(crate) const SERVER_ROUTE_REQUESTS: &str = "server.route.<route>.requests";
/// Counter: hot-reload attempts (admin endpoint or `SIGHUP`).
pub const SERVER_RELOAD_ATTEMPTS: &str = "server.reload.attempts";
/// Counter: hot-reload attempts that failed and rolled back.
pub const SERVER_RELOAD_FAILURES: &str = "server.reload.failures";
/// Histogram (ns): wall time of one reload attempt (load + validate +
/// recommender rebuild + swap).
pub const SERVER_RELOAD_LATENCY: &str = "server.reload.latency";
/// Gauge: generation of the model currently serving (bumps on every
/// successful reload).
pub const SERVER_MODEL_GENERATION: &str = "server.model_generation";
/// Gauge: milliseconds since the serving model was built (refreshed on
/// every `/healthz` probe).
pub const SERVER_MODEL_AGE_MS: &str = "server.model_age_ms";
/// Counter: completed traces offered to the tail sampler.
pub(crate) const SERVER_TRACE_SAMPLED: &str = "server.trace.sampled";
/// Gauge: completed traces currently retained by the tail sampler
/// (slow sets + uniform ring), refreshed on every `/healthz` probe.
pub const SERVER_TRACE_TAIL_OCCUPANCY: &str = "server.trace.tail_occupancy";

/// `server.route.<route>.requests` for a concrete route name.
pub fn server_route_requests(route: &str) -> String {
    expand(SERVER_ROUTE_REQUESTS, route)
}

// ---------------------------------------------------------------------
// Live library mutation (`/v1/admin/library/append` + background
// compaction, crates/server).
// ---------------------------------------------------------------------

/// Counter: implementations accepted into the staging delta segment.
pub const LIBRARY_APPENDS: &str = "library.appends";
/// Gauge: live implementations currently staged in the delta segment
/// (drops to 0 on compaction).
pub const LIBRARY_DELTA_SIZE: &str = "library.delta_size";
/// Counter: compactions that merged the delta into a fresh CSR base and
/// swapped it in generation-atomically.
pub const LIBRARY_COMPACTIONS: &str = "library.compactions";
/// Counter: compaction attempts that failed at any phase and rolled
/// back, leaving the old generation serving and the delta intact.
pub const LIBRARY_COMPACTION_FAILURES: &str = "library.compaction_failures";
/// Histogram (ns): wall time of one compaction attempt
/// (merge + persist + swap).
pub const LIBRARY_COMPACTION_LATENCY: &str = "library.compaction_latency";

// ---------------------------------------------------------------------
// Trace span names (`TraceContext` spans; same registry discipline as
// metric names — the `span` namespace is protected by `goalrec-lint`).
// ---------------------------------------------------------------------

/// Span: time an admitted connection waited in the admission queue
/// before a worker picked it up (first request of a connection only).
pub const SPAN_QUEUE_WAIT: &str = "span.queue_wait";
/// Span: awaiting the first byte plus parsing the request head and body.
pub const SPAN_PARSE: &str = "span.parse";
/// Span: `router::handle` — routing plus the handler body.
pub const SPAN_HANDLE: &str = "span.handle";
/// Span: one ranking (`Strategy::rank_into`) inside the recommend
/// handler.
pub const SPAN_RANK: &str = "span.rank";
/// Child span of `span.rank`: candidate generation.
pub const SPAN_RANK_CANDIDATES: &str = "span.rank.candidates";
/// Child span of `span.rank`: top-k selection over the candidates.
pub const SPAN_RANK_TOPK: &str = "span.rank.topk";
/// Span: serializing and writing the response bytes.
pub const SPAN_WRITE: &str = "span.write";
/// Span: reading the library file during a hot reload.
pub const SPAN_RELOAD_LOAD: &str = "span.reload.load";
/// Span: `GoalModel::validate` during a hot reload.
pub const SPAN_RELOAD_VALIDATE: &str = "span.reload.validate";
/// Span: `GoalModel::build` plus recommender construction (reloads and
/// first boot).
pub const SPAN_MODEL_BUILD: &str = "span.model_build";
/// Span: compaction merge phase — base ⊕ delta into a fresh CSR model.
pub const SPAN_COMPACT_MERGE: &str = "span.compact.merge";
/// Span: compaction persist phase — crash-safe `atomic_write` of the
/// merged library (plus read-back verification) and WAL truncation.
pub const SPAN_COMPACT_PERSIST: &str = "span.compact.persist";
/// Span: compaction swap phase — generation-atomic publication of the
/// merged base with an empty delta.
pub const SPAN_COMPACT_SWAP: &str = "span.compact.swap";

// ---------------------------------------------------------------------
// Evaluation harness (eval context + `repro`).
// ---------------------------------------------------------------------

/// Histogram (ns): full evaluation-context build.
pub const EVAL_CONTEXT_BUILD: &str = "eval.context.build";
/// Histogram (ns): FoodMart side of the context build.
pub const EVAL_CONTEXT_FOODMART: &str = "eval.context.foodmart";
/// Histogram (ns): 43Things side of the context build.
pub const EVAL_CONTEXT_FORTYTHREE: &str = "eval.context.fortythree";
/// Pattern — histogram (ns): one experiment's wall clock in `repro`.
pub(crate) const EVAL_EXPERIMENT_WALL: &str = "eval.<experiment>.wall";

/// `eval.<experiment>.wall` for a concrete experiment name.
pub fn eval_experiment_wall(experiment: &str) -> String {
    expand(EVAL_EXPERIMENT_WALL, experiment)
}

/// Substitutes the single `<placeholder>` segment of a pattern constant.
///
/// Patterns without a placeholder come back unchanged, so the helpers can
/// never produce a name outside the registered shape.
fn expand(pattern: &str, value: &str) -> String {
    match (pattern.find('<'), pattern.rfind('>')) {
        (Some(start), Some(end)) if start < end => {
            let mut out = String::with_capacity(pattern.len() + value.len());
            out.push_str(&pattern[..start]);
            out.push_str(value);
            out.push_str(&pattern[end + 1..]);
            out
        }
        _ => pattern.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every registered name and pattern: the value of each string
    /// constant declared above the tests.
    fn registered() -> Vec<&'static str> {
        let source = include_str!("names.rs");
        let declarations = &source[..source.find("#[cfg(test)]").unwrap()];
        declarations
            .lines()
            .filter(|l| l.contains(" const ") && l.contains(": &str = \""))
            .filter_map(|l| l.split('"').nth(1))
            .collect()
    }

    #[test]
    fn all_is_duplicate_free_and_complete() {
        let names = registered();
        let mut seen = std::collections::HashSet::new();
        for name in &names {
            assert!(seen.insert(*name), "duplicate registry entry {name}");
        }
        assert_eq!(names.len(), 54);
    }

    #[test]
    fn names_follow_the_dotted_lowercase_scheme() {
        for name in registered() {
            assert!(name.contains('.'), "{name} has no namespace");
            for segment in name.split('.') {
                assert!(!segment.is_empty(), "{name} has an empty segment");
                let pattern = segment.starts_with('<') && segment.ends_with('>');
                let inner = if pattern {
                    &segment[1..segment.len() - 1]
                } else {
                    segment
                };
                assert!(
                    inner
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "{name}: segment {segment} breaks the naming scheme"
                );
            }
        }
    }

    #[test]
    fn helpers_expand_their_patterns() {
        assert_eq!(strategy_requests("Breadth"), "strategy.Breadth.requests");
        assert_eq!(strategy_latency("Focus_cmp"), "strategy.Focus_cmp.latency");
        assert_eq!(strategy_candidates("X"), "strategy.X.candidates");
        assert_eq!(batch_method_wall("Breadth"), "batch.Breadth.wall");
        assert_eq!(
            server_route_requests("healthz"),
            "server.route.healthz.requests"
        );
        assert_eq!(eval_experiment_wall("table6"), "eval.table6.wall");
    }

    #[test]
    fn expand_without_placeholder_is_identity() {
        assert_eq!(expand(BATCH_REQUESTS, "x"), BATCH_REQUESTS);
    }
}
