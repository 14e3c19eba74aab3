//! The metric registry: named handles with a process-global instance.

use crate::histogram::{Histogram, Unit};
use crate::report::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsReport};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing event counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn inc_by(&self, n: u64) {
        // ordering: Relaxed — a pure statistic; atomicity keeps the total
        // exact and no reader infers other memory's visibility from it.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — scrape-side read of a pure statistic.
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        // ordering: Relaxed — races with concurrent increments benignly;
        // an increment landing mid-reset survives or vanishes whole.
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins `f64` metric (stored as bit pattern in an atomic).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: f64) {
        // ordering: Relaxed — last-value-wins gauge; the single u64 store
        // is indivisible, so readers always see a complete bit pattern.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // ordering: Relaxed — scrape-side read of a last-value-wins gauge.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        // ordering: Relaxed — races with concurrent sets benignly; one of
        // the complete values wins.
        self.0.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Interns metric handles by name and snapshots them into reports.
///
/// Handle lookup takes a read lock; registration (first use of a name)
/// briefly takes the write lock. Handles are `Arc`s — hot call sites keep
/// them around and never touch the lock again.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

// Poisoned locks are recovered with `PoisonError::into_inner` throughout:
// the maps only ever grow and their values are atomics, so a panic while
// holding a guard cannot leave them inconsistent — and telemetry must never
// take the process down.
fn intern<T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(found) = map
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(name)
    {
        return Arc::clone(found);
    }
    let mut write = map
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(
        write
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(make())),
    )
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses [`crate::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter handle, registered on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name, Counter::default)
    }

    /// Gauge handle, registered on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name, Gauge::default)
    }

    /// Count-unit histogram handle, registered on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name, || Histogram::new(Unit::Count))
    }

    /// Nanosecond-unit histogram handle, registered on first use.
    ///
    /// The unit is fixed at registration: if the name already exists the
    /// existing histogram is returned regardless of unit.
    pub fn histogram_ns(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name, || Histogram::new(Unit::Nanos))
    }

    /// A point-in-time, serializable copy of every metric, sorted by name.
    // goalrec-lint:allow(hot-path-alloc): scrape-side introspection; name-aliases with TraceContext::snapshot
    pub fn snapshot(&self) -> MetricsReport {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, g)| GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, h)| HistogramSnapshot::of(name, h))
            .collect();
        MetricsReport {
            counters,
            gauges,
            histograms,
        }
    }

    /// Renders every metric in the Prometheus text exposition format.
    ///
    /// Dots in the registry's names become underscores under a
    /// `goalrec_` prefix (`server.latency` → `goalrec_server_latency`).
    /// Counters and gauges map one-to-one; log2 histograms are emitted as
    /// the standard cumulative `_bucket{le="…"}`/`_sum`/`_count` series,
    /// with one `le` boundary per occupied log2 bucket (upper bound
    /// inclusive) and the mandatory `+Inf` terminator.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, c) in self
            .counters
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE {prom} counter");
            let _ = writeln!(out, "{prom} {}", c.get());
        }
        for (name, g) in self
            .gauges
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE {prom} gauge");
            let _ = writeln!(out, "{prom} {}", g.get());
        }
        for (name, h) in self
            .histograms
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE {prom} histogram");
            let highest = (0..crate::histogram::NUM_BUCKETS)
                .rev()
                .find(|&i| h.bucket_count(i) > 0);
            let mut cumulative = 0u64;
            for i in 0..=highest.unwrap_or(0) {
                cumulative += h.bucket_count(i);
                let _ = writeln!(
                    out,
                    "{prom}_bucket{{le=\"{}\"}} {cumulative}",
                    Histogram::bucket_upper(i)
                );
            }
            let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{prom}_sum {}", h.sum());
            let _ = writeln!(out, "{prom}_count {}", h.count());
        }
        out
    }

    /// Zeroes every registered metric in place. Outstanding handles stay
    /// bound to their metrics and keep recording.
    pub fn reset(&self) {
        for c in self
            .counters
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
        {
            c.reset();
        }
        for g in self
            .gauges
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
        {
            g.reset();
        }
        for h in self
            .histograms
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
        {
            h.reset();
        }
    }
}

/// Maps a dotted registry name onto the Prometheus grammar.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("goalrec_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_interned() {
        let r = Registry::new();
        r.counter("x").inc();
        r.counter("x").inc();
        assert_eq!(r.counter("x").get(), 2);
        assert!(Arc::ptr_eq(&r.counter("x"), &r.counter("x")));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b.count").inc();
        r.counter("a.count").inc_by(5);
        r.gauge("z.rate").set(1.25);
        r.histogram_ns("m.latency").record(100);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a.count", "b.count"]);
        assert_eq!(snap.gauges[0].value, 1.25);
        assert_eq!(snap.histograms[0].count, 1);
    }

    #[test]
    fn prometheus_names_and_cumulative_buckets() {
        assert_eq!(prom_name("server.latency"), "goalrec_server_latency");
        assert_eq!(
            prom_name("strategy.Breadth.requests"),
            "goalrec_strategy_Breadth_requests"
        );
        let r = Registry::new();
        let h = r.histogram("sizes");
        h.record(0);
        h.record(3);
        h.record(3);
        let text = r.render_prometheus();
        // Buckets 0 (value 0) and 2 (values 2..=3) are occupied; the
        // series is cumulative and closes with +Inf, sum, count.
        assert!(text.contains("goalrec_sizes_bucket{le=\"0\"} 1"), "{text}");
        assert!(text.contains("goalrec_sizes_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("goalrec_sizes_bucket{le=\"3\"} 3"), "{text}");
        assert!(
            text.contains("goalrec_sizes_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("goalrec_sizes_sum 6"), "{text}");
        assert!(text.contains("goalrec_sizes_count 3"), "{text}");
    }

    #[test]
    fn reset_keeps_registrations() {
        let r = Registry::new();
        let c = r.counter("keep");
        c.inc_by(9);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.snapshot().counter("keep"), Some(1));
    }
}
