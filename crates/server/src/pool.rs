//! The worker pool: N threads draining the admission queue, each owning a
//! handle to the shared [`ServeCtx`] and serving whole keep-alive
//! connections. Each request loads one `AppState` snapshot through the
//! context, so hot reloads never swap the model under a request.
//!
//! Time discipline per connection:
//!
//! * the **first** request's clock starts at *accept* time, so time spent
//!   waiting in the admission queue counts against the deadline — a
//!   request that aged out in the queue is answered `408` without even
//!   being parsed;
//! * each subsequent keep-alive request's clock starts when its first
//!   byte arrives;
//! * while a request is being read, every socket read is capped by the
//!   remaining deadline (see [`ConnStream`]), so a slow sender cannot pin
//!   a worker past the deadline;
//! * between requests the worker waits in short slices, polling the
//!   shutdown token and the idle budget, so an idle keep-alive connection
//!   neither blocks shutdown nor holds a worker forever.

use crate::debug::{self, InflightSlot};
use crate::error::ServerError;
use crate::http::{self, HttpReader, Limits, Response};
use crate::queue::{Bounded, Pop};
use crate::router::{self, ServeCtx, WorkerArena};
use crate::shutdown::Shutdown;
use goalrec_obs::{self as obs, names};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a worker blocks on the queue before re-checking for close.
const QUEUE_POLL: Duration = Duration::from_millis(50);
/// Idle-wait slice between keep-alive requests.
const IDLE_SLICE: Duration = Duration::from_millis(25);
/// Cap on any single blocking read, even far from the deadline.
const MAX_READ_SLICE: Duration = Duration::from_secs(5);
/// How long a response write may block before the connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One admitted connection, stamped with its accept time so queue wait
/// counts against the first request's deadline.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub accepted: Instant,
}

/// Per-connection timing and tracing knobs handed to each worker.
#[derive(Clone)]
pub(crate) struct ConnPolicy {
    pub deadline: Duration,
    /// Deadline for `/v1/admin/*` routes. Admin work (reloads, appends)
    /// legitimately outlives the data-plane budget, so it gets its own;
    /// reads are capped by the larger of the two until the path is known.
    pub admin_deadline: Duration,
    pub idle_timeout: Duration,
    pub limits: Limits,
    /// Request-scoped tracing: spans, tail capture, `X-Goalrec-Trace`.
    pub trace_enabled: bool,
    /// Print every Nth traced request as a JSON access-log line on
    /// stderr; `0` disables the log.
    pub access_log_every: u64,
}

/// The serving metrics, resolved once and shared by every thread.
pub(crate) struct ServerMetrics {
    pub requests: Arc<obs::Counter>,
    pub rejected: Arc<obs::Counter>,
    pub timeouts: Arc<obs::Counter>,
    pub connections: Arc<obs::Counter>,
    pub latency: Arc<obs::Histogram>,
    inflight_gauge: Arc<obs::Gauge>,
    inflight: AtomicI64,
}

impl ServerMetrics {
    pub(crate) fn new() -> Self {
        ServerMetrics {
            requests: obs::counter(names::SERVER_REQUESTS),
            rejected: obs::counter(names::SERVER_REJECTED),
            timeouts: obs::counter(names::SERVER_TIMEOUTS),
            connections: obs::counter(names::SERVER_CONNECTIONS),
            latency: obs::histogram_ns(names::SERVER_LATENCY),
            inflight_gauge: obs::gauge(names::SERVER_INFLIGHT),
            inflight: AtomicI64::new(0),
        }
    }

    fn enter_inflight(&self) {
        // ordering: pure occupancy counter feeding the inflight gauge;
        // fetch_add keeps the count exact and publishes nothing else.
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.inflight_gauge.set(now as f64);
    }

    fn exit_inflight(&self) {
        // ordering: pure occupancy counter feeding the inflight gauge;
        // fetch_sub keeps the count exact and publishes nothing else.
        let now = self.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
        self.inflight_gauge.set(now as f64);
    }
}

/// A [`TcpStream`] whose reads respect an optional absolute deadline.
///
/// With a deadline set, each read blocks at most until the deadline (and
/// reports [`std::io::ErrorKind::TimedOut`] once it has passed); without
/// one, reads block in [`IDLE_SLICE`] increments so the caller can poll
/// shutdown and idle budgets between slices.
pub(crate) struct ConnStream {
    stream: TcpStream,
    pub deadline: Option<Instant>,
}

impl ConnStream {
    fn new(stream: TcpStream) -> Self {
        ConnStream {
            stream,
            deadline: None,
        }
    }
}

impl Read for ConnStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let slice = match self.deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(std::io::Error::from(std::io::ErrorKind::TimedOut));
                }
                remaining.min(MAX_READ_SLICE)
            }
            None => IDLE_SLICE,
        };
        self.stream
            .set_read_timeout(Some(slice.max(Duration::from_millis(1))))?;
        self.stream.read(buf)
    }
}

impl Write for ConnStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// The worker thread body: drain connections until the queue is closed
/// *and* empty — exactly the graceful-drain contract. Each worker owns one
/// [`WorkerArena`] and one reusable [`obs::TraceContext`] for the whole
/// loop, so recommend requests rank (and trace) into warm buffers instead
/// of allocating per request.
pub(crate) fn worker_loop(
    worker: usize,
    ctx: Arc<ServeCtx>,
    queue: Arc<Bounded<Conn>>,
    shutdown: Shutdown,
    metrics: Arc<ServerMetrics>,
    policy: ConnPolicy,
) {
    let mut arena = WorkerArena::new();
    let mut trace = obs::TraceContext::new(policy.trace_enabled);
    let mut wobs = WorkerObs {
        tail: Arc::clone(ctx.tail()),
        slot: ctx.inflight().register(worker),
        access_every: policy.access_log_every,
        served: 0,
    };
    loop {
        match queue.pop(QUEUE_POLL) {
            Pop::Item(conn) => handle_connection(
                conn, &ctx, &shutdown, &metrics, &policy, &mut arena, &mut trace, &mut wobs,
            ),
            Pop::Empty => {}
            Pop::Closed => break,
        }
    }
}

/// Per-worker tracing sinks: the shared tail sampler, this worker's
/// in-flight slot, and the access-log sampling state.
struct WorkerObs {
    tail: Arc<obs::TailSampler>,
    slot: Arc<InflightSlot>,
    access_every: u64,
    served: u64,
}

/// Writes one response and maintains the request/latency metrics plus the
/// trace epilogue: the `X-Goalrec-Trace` header, the `span.write` span,
/// the tail-sampler offer and the sampled access log. Returns whether the
/// socket is still usable.
fn respond(
    reader: &mut HttpReader<ConnStream>,
    response: &mut Response,
    keep_alive: bool,
    metrics: &ServerMetrics,
    trace: &mut obs::TraceContext,
    wobs: &mut WorkerObs,
) -> bool {
    let traced = trace.is_enabled();
    if traced {
        response
            .extra_headers
            .push(("X-Goalrec-Trace", trace.id().to_hex()));
    }
    wobs.slot.set_stage(debug::STAGE_WRITE);
    let write = trace.start_span(names::SPAN_WRITE);
    let ok = response.write_to(reader.get_mut(), keep_alive).is_ok();
    trace.end_span(write);
    metrics.requests.inc();
    // One clock read — the one that closed the write span — seals the
    // trace AND feeds the latency histogram, so a trace's total_ns is
    // byte-identical to its latency observation. (Untraced, begin() still
    // anchored the trace at t0 and finish reads the clock itself.)
    let total_ns = trace.finish(response.status);
    metrics.latency.record(total_ns);
    if traced {
        let snap = trace.snapshot();
        wobs.tail.offer(&snap);
        wobs.served += 1;
        if wobs.access_every > 0 && wobs.served.is_multiple_of(wobs.access_every) {
            access_log(&snap);
        }
    }
    ok && keep_alive && !response.close
}

/// One single-line JSON access-log record on stderr.
fn access_log(snap: &obs::CompletedTrace) {
    let handler_us = snap
        .spans()
        .iter()
        .find(|s| s.name == names::SPAN_HANDLE)
        .map(|s| s.dur_ns / 1_000)
        .unwrap_or(0);
    let doc = serde_json::json!({
        "ts_ms": snap.unix_ms,
        "trace": snap.id.to_hex(),
        "route": snap.route,
        "status": snap.status,
        "queue_wait_us": snap.queue_wait_ns / 1_000,
        "handler_us": handler_us,
        "total_us": snap.total_ns / 1_000,
    });
    eprintln!("{doc}");
}

/// Serves every request of one connection.
#[allow(clippy::too_many_arguments)]
fn handle_connection(
    conn: Conn,
    ctx: &ServeCtx,
    shutdown: &Shutdown,
    metrics: &ServerMetrics,
    policy: &ConnPolicy,
    arena: &mut WorkerArena,
    trace: &mut obs::TraceContext,
    wobs: &mut WorkerObs,
) {
    // Queue wait: accept → this worker picking the connection up. It is
    // charged to the first request only (whose clock starts at accept).
    let queue_wait_ns = u64::try_from(
        Instant::now()
            .saturating_duration_since(conn.accepted)
            .as_nanos(),
    )
    .unwrap_or(u64::MAX);
    let stream = conn.stream;
    let _ = stream.set_nodelay(true);
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let mut reader = HttpReader::new(ConnStream::new(stream));
    // The first request is accounted from accept time (queue wait included).
    let mut pending_t0 = Some(conn.accepted);

    loop {
        // --- idle phase: wait for the first byte of the next request ----
        let idle_started = Instant::now();
        let got_data = loop {
            if reader.has_buffered() {
                break true;
            }
            if shutdown.is_set() {
                // Draining: wait (at most one deadline) for the first
                // request of an admitted connection, but take no further
                // requests from idle keep-alive connections.
                match pending_t0 {
                    None => break false,
                    Some(t) if t.elapsed() >= policy.deadline => break false,
                    Some(_) => {}
                }
            }
            reader.get_mut().deadline = None;
            match reader.fill_once() {
                Ok(0) => break false,
                Ok(_) => break true,
                Err(ServerError::Timeout) => {
                    if idle_started.elapsed() >= policy.idle_timeout {
                        break false;
                    }
                }
                Err(_) => break false,
            }
        };
        if !got_data {
            break;
        }
        // The request's first byte has just been read (or was already
        // buffered behind the previous request).
        let first_byte = Instant::now();

        // First request: clocked from accept, charged with the queue
        // wait. Keep-alive successors: clocked from their first byte, so
        // the idle gap before them is never charged to their deadline.
        let (t0, queue_wait) = match pending_t0.take() {
            Some(accepted) => (accepted, queue_wait_ns),
            None => (first_byte, 0),
        };
        metrics.enter_inflight();

        // --- trace prologue: one id per request, spans offset from t0 --
        let id = if trace.is_enabled() {
            obs::fresh_trace_id()
        } else {
            obs::TraceId(0)
        };
        trace.begin(id, t0);
        wobs.slot.begin(id, ctx.inflight().offset_us(t0));
        if queue_wait > 0 {
            trace.add_span(names::SPAN_QUEUE_WAIT, 0, queue_wait, false);
            trace.set_queue_wait_ns(queue_wait);
        }

        // Until the request line is parsed the route is unknown, so the
        // read path is budgeted by the most generous deadline on offer;
        // the per-route deadline is enforced right after parsing.
        let read_budget = policy.deadline.max(policy.admin_deadline);

        // Queue-aged admission: the deadline may already be gone before a
        // single byte is parsed.
        if t0.elapsed() >= read_budget {
            metrics.timeouts.inc();
            if let Some(mut resp) = Response::from_error(&ServerError::Timeout) {
                let _ = respond(&mut reader, &mut resp, false, metrics, trace, wobs);
            }
            wobs.slot.end();
            metrics.exit_inflight();
            break;
        }

        // --- parse phase: every read capped by the remaining deadline ---
        // The parse span starts where the queue wait ended, so it also
        // absorbs the wait for the request's first byte: the top-level
        // spans of a completed trace partition [0, total_ns].
        reader.get_mut().deadline = Some(t0 + read_budget);
        let parsed = http::read_request(&mut reader, &policy.limits);
        reader.get_mut().deadline = None;
        let parse_end = trace.elapsed_ns();
        trace.add_span(
            names::SPAN_PARSE,
            queue_wait,
            parse_end.saturating_sub(queue_wait),
            false,
        );

        let alive = match parsed {
            Ok(None) => {
                wobs.slot.end();
                metrics.exit_inflight();
                break;
            }
            Ok(Some(request)) => {
                // An inbound trace id (from a caller propagating its own
                // context) replaces the generated one.
                if let Some(inbound) = request
                    .header("x-goalrec-trace")
                    .and_then(obs::TraceId::parse_hex)
                {
                    trace.set_id(inbound);
                    wobs.slot.set_trace(inbound);
                }
                let keep = request.keep_alive && !shutdown.is_set();
                // Route known: admin routes live on their own budget, the
                // data plane on the tight one.
                let route_deadline = if request.path.starts_with("/v1/admin/") {
                    policy.admin_deadline
                } else {
                    policy.deadline
                };
                if t0.elapsed() >= route_deadline {
                    metrics.timeouts.inc();
                    match Response::from_error(&ServerError::Timeout) {
                        Some(mut resp) => {
                            respond(&mut reader, &mut resp, false, metrics, trace, wobs)
                        }
                        None => false,
                    }
                } else {
                    wobs.slot.set_stage(debug::STAGE_HANDLE);
                    let handling = trace.start_span(names::SPAN_HANDLE);
                    let routed = router::handle(ctx, &request, arena, trace);
                    trace.end_span(handling);
                    let mut response = match routed {
                        Ok(resp) => resp,
                        Err(err) => match Response::from_error(&err) {
                            Some(resp) => resp,
                            None => {
                                wobs.slot.end();
                                metrics.exit_inflight();
                                break;
                            }
                        },
                    };
                    respond(&mut reader, &mut response, keep, metrics, trace, wobs)
                }
            }
            Err(err) => {
                if matches!(err, ServerError::Timeout) {
                    metrics.timeouts.inc();
                }
                match Response::from_error(&err) {
                    Some(mut resp) => respond(&mut reader, &mut resp, false, metrics, trace, wobs),
                    None => {
                        wobs.slot.end();
                        metrics.exit_inflight();
                        break;
                    }
                }
            }
        };
        wobs.slot.end();
        metrics.exit_inflight();
        if !alive {
            break;
        }
    }
}
