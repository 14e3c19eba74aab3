//! Request-scoped tracing: a bounded, allocation-free span recorder.
//!
//! A [`TraceContext`] lives on one worker thread and is reused across
//! requests: [`TraceContext::begin`] rewinds it in place, so the steady
//! state touches no allocator — spans land in a fixed `[Span; MAX_SPANS]`
//! array and overflow is counted, not grown. Span clocks are offsets from
//! the context's monotonic start instant, which makes every span directly
//! comparable to the request's `server.latency` observation: the
//! top-level (non-child) spans of a completed trace partition the same
//! `[0, total_ns]` window that the latency histogram records. They tile
//! it by construction: a top-level span starts at the clock read that
//! ended the previous one, and [`TraceContext::finish`] ends the trace
//! at the last one's end, so a thread descheduled between two spans
//! stretches a span instead of opening a hole in the sum.
//!
//! Span names are `&'static str` constants from [`crate::names`] — the
//! same registry discipline (and `goalrec-lint` rule) as metric names.
//!
//! Completed traces are snapshot into the `Copy` type [`CompletedTrace`]
//! so the tail sampler (see [`crate::tail`]) can retain them by memcpy
//! into preallocated ring slots.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Spans one trace can hold; later spans are dropped (and counted).
pub(crate) const MAX_SPANS: usize = 16;

/// A 64-bit trace identifier, rendered as 16 lowercase hex digits.
///
/// `0` is reserved as "no id": [`fresh_trace_id`] never returns it and
/// [`TraceId::parse_hex`] rejects it, so a zero id cannot masquerade as a
/// real inbound trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Parses the 16-hex-digit wire form (also accepts shorter hex).
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        match u64::from_str_radix(s, 16) {
            Ok(v) if v != 0 => Some(TraceId(v)),
            _ => None,
        }
    }

    /// The 16-hex-digit wire form (header value, JSON field), in one
    /// allocation whatever the id: `format!` would grow its buffer once
    /// more for ids whose zero padding is written separately.
    pub fn to_hex(self) -> String {
        let mut out = String::with_capacity(16);
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{:016x}", self.0);
        out
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

static SEED_COUNTER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACE_RNG: RefCell<StdRng> = RefCell::new(StdRng::seed_from_u64(thread_seed()));
}

fn thread_seed() -> u64 {
    // Golden-ratio stride keeps per-thread seeds far apart; the wall
    // clock decorrelates seeds across process restarts.
    // ordering: Relaxed — only the atomicity matters: each thread draws a
    // distinct stride; nothing is published through the counter.
    let stride = SEED_COUNTER
        .fetch_add(1, Ordering::Relaxed)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5bd1_e995);
    stride ^ nanos
}

/// A fresh, never-zero trace id from the calling thread's RNG.
pub fn fresh_trace_id() -> TraceId {
    TRACE_RNG.with(|rng| {
        let mut rng = rng.borrow_mut();
        loop {
            let v = rng.next_u64();
            if v != 0 {
                return TraceId(v);
            }
        }
    })
}

/// One named span: an offset window inside its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Registered span name (a `names::SPAN_*` constant).
    pub name: &'static str,
    /// Start offset from the trace start, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Child spans subdivide a parent and are excluded from the
    /// top-level span-sum invariant.
    pub child: bool,
}

const EMPTY_SPAN: Span = Span {
    name: "",
    start_ns: 0,
    dur_ns: 0,
    child: false,
};

/// Handle returned by [`TraceContext::start_span`]; pass it back to
/// [`TraceContext::end_span`]. The sentinel value means "not recording"
/// (tracing disabled or span table full) and ends as a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken(u32);

impl SpanToken {
    const NONE: SpanToken = SpanToken(u32::MAX);
}

/// A reusable per-request trace recorder. See the module docs.
#[derive(Debug)]
pub struct TraceContext {
    enabled: bool,
    id: TraceId,
    started: Instant,
    route: &'static str,
    strategy: &'static str,
    status: u16,
    generation: u64,
    queue_wait_ns: u64,
    total_ns: u64,
    /// Where the last top-level span ended (0 before the first): the
    /// next top-level span starts here, and the trace ends here.
    tiled_ns: u64,
    spans: [Span; MAX_SPANS],
    len: u32,
    dropped: u32,
}

impl TraceContext {
    /// A fresh context; `enabled = false` turns every recording call
    /// into a cheap no-op while keeping the API uniform.
    pub fn new(enabled: bool) -> Self {
        TraceContext {
            enabled,
            id: TraceId::default(),
            started: Instant::now(),
            route: "",
            strategy: "",
            status: 0,
            generation: 0,
            queue_wait_ns: 0,
            total_ns: 0,
            tiled_ns: 0,
            spans: [EMPTY_SPAN; MAX_SPANS],
            len: 0,
            dropped: 0,
        }
    }

    /// A permanently disabled context for untraced call paths.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Rewinds the context in place for a new request: no allocation,
    /// just field stores. `started` anchors every span offset — pass the
    /// same instant the latency histogram measures from.
    pub fn begin(&mut self, id: TraceId, started: Instant) {
        self.id = id;
        self.started = started;
        self.route = "";
        self.strategy = "";
        self.status = 0;
        self.generation = 0;
        self.queue_wait_ns = 0;
        self.total_ns = 0;
        self.tiled_ns = 0;
        self.len = 0;
        self.dropped = 0;
    }

    /// Whether recording calls do anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Overrides the id (inbound `X-Goalrec-Trace` header).
    pub fn set_id(&mut self, id: TraceId) {
        self.id = id;
    }

    /// Tags the trace with its route name.
    pub fn set_route(&mut self, route: &'static str) {
        self.route = route;
    }

    /// Tags the trace with the strategy that served it.
    pub fn set_strategy(&mut self, strategy: &'static str) {
        self.strategy = strategy;
    }

    /// Tags the trace with the model generation that served it.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Records the admission-queue wait (also kept as a named span via
    /// [`TraceContext::add_span`] by the caller).
    pub fn set_queue_wait_ns(&mut self, ns: u64) {
        self.queue_wait_ns = ns;
    }

    /// Nanoseconds since the trace's start instant.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a top-level span where the previous top-level span ended
    /// (at the trace start for the first one), so time between two spans
    /// is charged to the later one. Returns a token for
    /// [`TraceContext::end_span`]; the sentinel when not recording.
    #[inline]
    pub fn start_span(&mut self, name: &'static str) -> SpanToken {
        if !self.enabled {
            return SpanToken::NONE;
        }
        let i = self.len as usize;
        if i >= MAX_SPANS {
            self.dropped += 1;
            return SpanToken::NONE;
        }
        self.spans[i] = Span {
            name,
            start_ns: self.tiled_ns,
            dur_ns: 0,
            child: false,
        };
        self.len += 1;
        SpanToken(i as u32)
    }

    /// Closes a span opened by [`TraceContext::start_span`].
    #[inline]
    pub fn end_span(&mut self, token: SpanToken) {
        if token == SpanToken::NONE {
            return;
        }
        let i = token.0 as usize;
        if i < self.len as usize {
            let now = self.elapsed_ns();
            let span = &mut self.spans[i];
            span.dur_ns = now.saturating_sub(span.start_ns);
            self.tiled_ns = now;
        }
    }

    /// Records a span with an explicit offset window (e.g. a phase whose
    /// boundaries were measured elsewhere, or a queue wait that ended
    /// before the context was begun).
    #[inline]
    pub fn add_span(&mut self, name: &'static str, start_ns: u64, dur_ns: u64, child: bool) {
        if !self.enabled {
            return;
        }
        let i = self.len as usize;
        if i >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans[i] = Span {
            name,
            start_ns,
            dur_ns,
            child,
        };
        self.len += 1;
        if !child {
            self.tiled_ns = start_ns.saturating_add(dur_ns);
        }
    }

    /// Seals the trace: records the response status and the total
    /// duration (which it also returns, in nanoseconds). The total is the
    /// end of the last top-level span — the clock read that closed it —
    /// so the top-level spans sum to it; a trace without one reads the
    /// clock now.
    pub fn finish(&mut self, status: u16) -> u64 {
        self.status = status;
        self.total_ns = if self.tiled_ns > 0 {
            self.tiled_ns
        } else {
            self.elapsed_ns()
        };
        self.total_ns
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.len as usize]
    }

    /// A `Copy` snapshot of the finished trace, stamped with the wall
    /// clock so dumps can be ordered across processes.
    pub fn snapshot(&self) -> CompletedTrace {
        CompletedTrace {
            id: self.id,
            route: self.route,
            strategy: self.strategy,
            status: self.status,
            generation: self.generation,
            queue_wait_ns: self.queue_wait_ns,
            total_ns: self.total_ns,
            unix_ms: unix_ms(),
            spans: self.spans,
            len: self.len,
            dropped: self.dropped,
        }
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// A finished trace, fixed-size and `Copy` so retention is a memcpy
/// into a preallocated slot (no allocation on the serving path).
#[derive(Debug, Clone, Copy)]
pub struct CompletedTrace {
    /// Trace id (wire form: 16 hex digits).
    pub id: TraceId,
    /// Route name ("recommend", "healthz", "reload", …).
    pub route: &'static str,
    /// Strategy that served the request; empty when not a recommend.
    pub strategy: &'static str,
    /// HTTP status of the response (0 for non-HTTP traces).
    pub status: u16,
    /// Model generation that served the request.
    pub generation: u64,
    /// Admission-queue wait, nanoseconds.
    pub queue_wait_ns: u64,
    /// Total duration, nanoseconds (same window as `server.latency`).
    pub total_ns: u64,
    /// Wall-clock completion time, milliseconds since the epoch.
    pub unix_ms: u64,
    /// The span table; only the first `len` entries are meaningful.
    pub spans: [Span; MAX_SPANS],
    /// Number of recorded spans.
    pub len: u32,
    /// Spans dropped after the table filled.
    pub dropped: u32,
}

impl Default for CompletedTrace {
    fn default() -> Self {
        CompletedTrace {
            id: TraceId::default(),
            route: "",
            strategy: "",
            status: 0,
            generation: 0,
            queue_wait_ns: 0,
            total_ns: 0,
            unix_ms: 0,
            spans: [EMPTY_SPAN; MAX_SPANS],
            len: 0,
            dropped: 0,
        }
    }
}

impl CompletedTrace {
    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.len as usize]
    }

    /// Whether a span with this name was recorded.
    pub fn has_span(&self, name: &str) -> bool {
        self.spans().iter().any(|s| s.name == name)
    }

    /// The trace as a JSON value for `/debug/traces` and dumps.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        let spans: Vec<Value> = self
            .spans()
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_owned(), Value::Str(s.name.to_owned())),
                    ("start_ns".to_owned(), Value::UInt(s.start_ns)),
                    ("dur_ns".to_owned(), Value::UInt(s.dur_ns)),
                    ("child".to_owned(), Value::Bool(s.child)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("trace".to_owned(), Value::Str(self.id.to_hex())),
            ("route".to_owned(), Value::Str(self.route.to_owned())),
            ("strategy".to_owned(), Value::Str(self.strategy.to_owned())),
            ("status".to_owned(), Value::UInt(u64::from(self.status))),
            ("generation".to_owned(), Value::UInt(self.generation)),
            ("queue_wait_ns".to_owned(), Value::UInt(self.queue_wait_ns)),
            ("total_ns".to_owned(), Value::UInt(self.total_ns)),
            ("unix_ms".to_owned(), Value::UInt(self.unix_ms)),
            (
                "dropped_spans".to_owned(),
                Value::UInt(u64::from(self.dropped)),
            ),
            ("spans".to_owned(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_nonzero_unique_and_roundtrip() {
        let a = fresh_trace_id();
        let b = fresh_trace_id();
        assert_ne!(a.0, 0);
        assert_ne!(a, b, "consecutive ids must differ");
        assert_eq!(a.to_hex().len(), 16);
        assert_eq!(TraceId::parse_hex(&a.to_hex()), Some(a));
        assert_eq!(TraceId::parse_hex("0000000000000000"), None);
        assert_eq!(TraceId::parse_hex(""), None);
        assert_eq!(TraceId::parse_hex("zz"), None);
        assert_eq!(TraceId::parse_hex("deadbeef"), Some(TraceId(0xdead_beef)));
    }

    #[test]
    fn spans_record_and_finish() {
        let mut t = TraceContext::new(true);
        t.begin(TraceId(7), Instant::now());
        t.set_route("recommend");
        t.set_strategy("BestMatch");
        t.set_generation(3);
        let tok = t.start_span(crate::names::SPAN_HANDLE);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end_span(tok);
        t.add_span(crate::names::SPAN_RANK_CANDIDATES, 0, 500, true);
        let rank_start = t.elapsed_ns();
        t.add_span(
            crate::names::SPAN_RANK,
            rank_start,
            t.elapsed_ns() - rank_start,
            true,
        );
        let total = t.finish(200);
        assert!(total > 0);
        let snap = t.snapshot();
        assert_eq!(snap.id, TraceId(7));
        assert_eq!(snap.status, 200);
        assert_eq!(snap.generation, 3);
        assert_eq!(snap.len, 3);
        assert!(snap.spans()[2].child, "add_span(.., true) marks the span");
        assert!(snap.has_span(crate::names::SPAN_HANDLE));
        assert!(snap.spans()[0].dur_ns >= 1_000_000);
        // Child spans are excluded from the top-level sum.
        assert_eq!(top_level_sum(&snap), snap.spans()[0].dur_ns);
        assert!(snap.total_ns >= snap.spans()[0].dur_ns);
    }

    /// Sum of the top-level (non-child) span durations, nanoseconds.
    fn top_level_sum(trace: &CompletedTrace) -> u64 {
        trace
            .spans()
            .iter()
            .filter(|s| !s.child)
            .map(|s| s.dur_ns)
            .sum()
    }

    #[test]
    fn top_level_spans_tile_the_trace_across_stalls_between_them() {
        use crate::names::{SPAN_HANDLE, SPAN_PARSE, SPAN_QUEUE_WAIT, SPAN_RANK, SPAN_WRITE};
        let stall = || std::thread::sleep(std::time::Duration::from_millis(5));
        let mut t = TraceContext::new(true);
        t.begin(TraceId(9), Instant::now());
        t.add_span(SPAN_QUEUE_WAIT, 0, 1_000, false);
        stall();
        t.add_span(SPAN_PARSE, 1_000, t.elapsed_ns() - 1_000, false);
        stall(); // descheduled after parse, before handle opens
        let handle = t.start_span(SPAN_HANDLE);
        let rank_start = t.elapsed_ns();
        t.add_span(SPAN_RANK, rank_start, t.elapsed_ns() - rank_start, true);
        t.end_span(handle);
        stall(); // ... after handle, before write opens
        let write = t.start_span(SPAN_WRITE);
        t.end_span(write);
        stall(); // ... after write, before the trace is sealed
        let total = t.finish(200);

        let snap = t.snapshot();
        assert_eq!(top_level_sum(&snap), total);
        assert!(total >= 15_000_000, "the stalls land inside the spans");
        let top: Vec<&Span> = snap.spans().iter().filter(|s| !s.child).collect();
        for pair in top.windows(2) {
            assert_eq!(pair[0].start_ns + pair[0].dur_ns, pair[1].start_ns);
        }
        assert_eq!(top[0].start_ns, 0);
        // A child span is clocked from its own start, inside its parent.
        let child = snap.spans().iter().find(|s| s.child).unwrap();
        assert!(child.start_ns >= top[2].start_ns);
        // A trace with no top-level span reads the clock when sealed.
        t.begin(TraceId(10), Instant::now());
        stall();
        assert!(t.finish(200) >= 5_000_000);
    }

    #[test]
    fn disabled_context_is_inert() {
        let mut t = TraceContext::disabled();
        let tok = t.start_span(crate::names::SPAN_PARSE);
        t.end_span(tok);
        t.add_span(crate::names::SPAN_WRITE, 0, 9, false);
        assert_eq!(t.finish(200), t.snapshot().total_ns);
        assert_eq!(t.spans().len(), 0);
        assert_eq!(tok, SpanToken::NONE);
    }

    #[test]
    fn overflow_is_counted_not_grown() {
        let mut t = TraceContext::new(true);
        t.begin(TraceId(1), Instant::now());
        for _ in 0..MAX_SPANS + 3 {
            let tok = t.start_span(crate::names::SPAN_PARSE);
            t.end_span(tok);
        }
        assert_eq!(t.spans().len(), MAX_SPANS);
        assert_eq!(t.snapshot().dropped, 3);
    }

    #[test]
    fn begin_rewinds_in_place() {
        let mut t = TraceContext::new(true);
        t.begin(TraceId(1), Instant::now());
        t.start_span(crate::names::SPAN_PARSE);
        t.finish(500);
        t.begin(TraceId(2), Instant::now());
        assert_eq!(t.spans().len(), 0);
        assert_eq!(t.id(), TraceId(2));
        assert_eq!(t.snapshot().status, 0);
    }

    #[test]
    fn to_value_serializes_the_span_table() {
        let mut t = TraceContext::new(true);
        t.begin(TraceId(0xabc), Instant::now());
        t.set_route("recommend");
        let tok = t.start_span(crate::names::SPAN_RANK);
        t.end_span(tok);
        t.finish(200);
        let v = t.snapshot().to_value();
        assert_eq!(
            v.get("trace").and_then(|x| x.as_str()),
            Some("0000000000000abc")
        );
        assert_eq!(v.get("route").and_then(|x| x.as_str()), Some("recommend"));
        let spans = match v.get("spans") {
            Some(serde_json::Value::Array(items)) => items,
            other => panic!("spans must be an array, got {other:?}"),
        };
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("name").and_then(|x| x.as_str()),
            Some(crate::names::SPAN_RANK)
        );
    }
}
