//! Serializable point-in-time metric snapshots and their text rendering.

use crate::histogram::{Histogram, Unit};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One counter at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Dot-separated metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Dot-separated metric name.
    pub name: String,
    /// Last value written.
    pub value: f64,
}

/// One histogram's summary at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Dot-separated metric name.
    pub name: String,
    /// What the values measure.
    pub unit: Unit,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median estimate (bucket resolution); `None` when no value was
    /// recorded — a clamped 0 would be ambiguous with a real 0
    /// observation.
    pub p50: Option<u64>,
    /// 95th percentile estimate (bucket resolution); `None` when empty.
    pub p95: Option<u64>,
    /// 99th percentile estimate (bucket resolution); `None` when empty.
    pub p99: Option<u64>,
}

impl HistogramSnapshot {
    /// Summarizes a live histogram.
    pub(crate) fn of(name: &str, h: &Histogram) -> Self {
        let quantile = |q| {
            if h.count() == 0 {
                None
            } else {
                Some(h.quantile(q))
            }
        };
        HistogramSnapshot {
            name: name.to_string(),
            unit: h.unit(),
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// Every metric of a registry at one point in time, sorted by name.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsReport {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histogram summaries.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsReport {
    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// A histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// True when no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Compact JSON encoding of the report.
    #[expect(
        clippy::expect_used,
        reason = "serializing a plain struct of names and numbers cannot fail; an error here is a serializer bug, not input"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }
}

/// Renders an optional value (empty-histogram percentiles) as `-`.
fn fmt_opt(v: Option<u64>, unit: Unit) -> String {
    match v {
        Some(v) => fmt_value(v, unit),
        None => "-".to_owned(),
    }
}

/// Renders a duration-or-count value according to the histogram's unit.
fn fmt_value(v: u64, unit: Unit) -> String {
    match unit {
        Unit::Count => v.to_string(),
        Unit::Nanos => {
            if v < 1_000 {
                format!("{v}ns")
            } else if v < 1_000_000 {
                format!("{:.1}µs", v as f64 / 1_000.0)
            } else if v < 1_000_000_000 {
                format!("{:.1}ms", v as f64 / 1_000_000.0)
            } else {
                format!("{:.2}s", v as f64 / 1_000_000_000.0)
            }
        }
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "metrics: (none recorded)");
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters")?;
            for c in &self.counters {
                writeln!(f, "  {:<42} {:>12}", c.name, c.value)?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges")?;
            for g in &self.gauges {
                writeln!(f, "  {:<42} {:>12.3}", g.name, g.value)?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(
                f,
                "histograms\n  {:<42} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "mean", "p50", "p95", "p99", "max"
            )?;
            for h in &self.histograms {
                writeln!(
                    f,
                    "  {:<42} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    h.name,
                    h.count,
                    fmt_value(h.mean as u64, h.unit),
                    fmt_opt(h.p50, h.unit),
                    fmt_opt(h.p95, h.unit),
                    fmt_opt(h.p99, h.unit),
                    fmt_value(h.max, h.unit),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> MetricsReport {
        let r = Registry::new();
        r.counter("model.builds").inc();
        r.gauge("batch.throughput_rps").set(1234.5);
        let h = r.histogram_ns("strategy.Breadth.latency");
        h.record(1_500);
        h.record(2_500_000);
        r.snapshot()
    }

    #[test]
    fn lookup_helpers() {
        let rep = sample();
        assert_eq!(rep.counter("model.builds"), Some(1));
        assert_eq!(rep.counter("missing"), None);
        assert_eq!(rep.gauge("batch.throughput_rps"), Some(1234.5));
        assert_eq!(rep.histogram("strategy.Breadth.latency").unwrap().count, 2);
    }

    #[test]
    fn json_roundtrip() {
        let rep = sample();
        let back: MetricsReport = serde_json::from_str(&rep.to_json()).unwrap();
        assert_eq!(rep, back);
    }

    #[test]
    fn display_renders_units() {
        let text = sample().to_string();
        assert!(text.contains("counters"), "{text}");
        assert!(text.contains("model.builds"));
        assert!(text.contains("µs") || text.contains("ms"), "{text}");
    }

    #[test]
    fn empty_report_renders_placeholder() {
        assert!(MetricsReport::default()
            .to_string()
            .contains("none recorded"));
    }

    #[test]
    fn empty_histogram_percentiles_are_none_not_zero() {
        let r = Registry::new();
        let _ = r.histogram_ns("idle.latency");
        let zeros = r.histogram("real.zeros");
        zeros.record(0);
        let snap = r.snapshot();
        let idle = snap.histogram("idle.latency").unwrap();
        assert_eq!(idle.count, 0);
        assert_eq!((idle.p50, idle.p95, idle.p99), (None, None, None));
        // A genuine 0 observation stays distinguishable.
        let real = snap.histogram("real.zeros").unwrap();
        assert_eq!(real.p50, Some(0));
        // Serialization keeps the distinction: null vs 0.
        let json = snap.to_json();
        assert!(json.contains("null"), "{json}");
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.histogram("idle.latency").unwrap().p50, None);
        assert_eq!(back.histogram("real.zeros").unwrap().p50, Some(0));
        // Text rendering shows a placeholder, not a fake 0.
        let text = snap.to_string();
        assert!(text.contains('-'), "{text}");
    }
}
