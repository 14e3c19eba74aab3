//! Observability layer for the goalrec workspace: metrics and lightweight
//! tracing for model builds, recommendation strategies, and batch serving.
//!
//! The crate is deliberately dependency-light and lock-free on the hot
//! path. Three metric kinds cover the workspace's needs:
//!
//! * [`Counter`] — monotonically increasing `AtomicU64` event counts;
//! * [`Gauge`] — last-written `f64` values (throughput, model sizes);
//! * [`Histogram`] — log2-bucketed value distributions with `p50`/`p95`/
//!   `p99` summaries, used for latencies (nanoseconds) and set sizes.
//!
//! Handles are interned in a process-global [`Registry`] keyed by
//! dot-separated metric names. The naming scheme used across the
//! workspace:
//!
//! * `model.build.*` — one span per compiled index (`a_idx`, `g_idx`,
//!   `gi_a_idx`, `gi_g_idx`, `a_gi_idx`) plus `model.build.total`;
//! * `strategy.<name>.*` — per-strategy `requests`, `latency`
//!   (nanoseconds) and `candidates` (pre-truncation candidate-set size);
//! * `batch.*` — batch-serving throughput and per-request latency, with
//!   `batch.<method>.wall` capturing each method's batch wall clock.
//!
//! Timing uses the RAII [`Timer`]: the span is recorded into its
//! histogram when the guard drops.
//!
//! ```
//! use goalrec_obs as obs;
//!
//! obs::counter("demo.requests").inc();
//! {
//!     let _span = obs::Timer::scoped("demo.latency");
//!     // ... timed work ...
//! }
//! obs::histogram("demo.sizes").record(42);
//! let report = obs::snapshot();
//! assert_eq!(report.counter("demo.requests"), Some(1));
//! println!("{report}");
//! ```
//!
//! Recording costs a handle lookup (one `RwLock` read + map probe) plus a
//! few atomic adds; hot call sites cache the `Arc` handles returned by
//! [`counter`]/[`gauge`]/[`histogram`] to skip the lookup entirely.

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

mod histogram;
pub mod names;
mod registry;
mod report;
pub(crate) mod tail;
mod timer;
pub(crate) mod trace;

pub use histogram::{Histogram, Unit};
pub use registry::{Counter, Gauge, Registry};
pub use report::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsReport};
pub use tail::{TailConfig, TailSampler};
pub use timer::Timer;
pub use trace::{fresh_trace_id, CompletedTrace, Span, SpanToken, TraceContext, TraceId};

use std::sync::Arc;

/// The process-global registry backing the convenience functions.
pub fn global() -> &'static Registry {
    registry::global()
}

/// Counter handle from the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Gauge handle from the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Count-unit histogram handle from the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Nanosecond-unit histogram handle from the global registry.
pub fn histogram_ns(name: &str) -> Arc<Histogram> {
    global().histogram_ns(name)
}

/// Snapshot of every metric in the global registry.
pub fn snapshot() -> MetricsReport {
    global().snapshot()
}

/// Prometheus text exposition of every metric in the global registry.
pub fn render_prometheus() -> String {
    global().render_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_through_global_registry() {
        // One shared registry per process: namespace this test's metrics.
        counter("lib_test.requests").inc_by(3);
        gauge("lib_test.throughput").set(125.5);
        histogram("lib_test.sizes").record(7);
        {
            let _t = Timer::scoped("lib_test.latency");
            std::hint::black_box(1 + 1);
        }
        let report = snapshot();
        assert_eq!(report.counter("lib_test.requests"), Some(3));
        assert_eq!(report.gauge("lib_test.throughput"), Some(125.5));
        let h = report
            .histogram("lib_test.latency")
            .expect("latency recorded");
        assert_eq!(h.count, 1);
        assert!(h.max > 0, "timer span must be nonzero");
        let text = report.to_string();
        assert!(text.contains("lib_test.requests"));
        assert!(text.contains("lib_test.latency"));
    }
}
