//! Lock-free log2-bucketed histogram.
//!
//! Values (nanoseconds, set sizes, …) land in 65 buckets: bucket 0 holds
//! the value `0`, bucket `i ≥ 1` holds `[2^(i-1), 2^i)`. Relative bucket
//! resolution is a factor of two, which is plenty for latency summaries
//! while keeping recording to two atomic adds plus min/max updates — safe
//! to call concurrently from every rayon worker.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: value 0 plus one bucket per u64 bit position.
pub(crate) const NUM_BUCKETS: usize = 65;

/// What a histogram's values measure, for report rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Unit {
    /// Durations in nanoseconds (fed by [`crate::Timer`]).
    Nanos,
    /// Dimensionless counts (set sizes, result lengths).
    Count,
}

/// A concurrent log2-bucketed histogram.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    unit: Unit,
}

impl Histogram {
    /// Creates an empty histogram measuring `unit`.
    pub fn new(unit: Unit) -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            unit,
        }
    }

    /// The measured unit.
    pub(crate) fn unit(&self) -> Unit {
        self.unit
    }

    /// Bucket index a value lands in: 0 for 0, else `64 - leading_zeros`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lower(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        // ordering: Relaxed throughout — the histogram is pure statistics;
        // no reader infers the visibility of other memory from a counter
        // value, and the fields are never read as a consistent snapshot
        // (quantile/mean tolerate torn reads across buckets by design).
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: as above
        self.sum.fetch_add(value, Ordering::Relaxed); // ordering: as above
        self.min.fetch_min(value, Ordering::Relaxed); // ordering: as above
        self.max.fetch_max(value, Ordering::Relaxed); // ordering: as above
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub(crate) fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — statistics read, no cross-field consistency.
        self.count.load(Ordering::Relaxed)
    }

    /// Number of values recorded into bucket `i` (`i < NUM_BUCKETS`),
    /// for cumulative exposition formats.
    pub(crate) fn bucket_count(&self, i: usize) -> u64 {
        // ordering: Relaxed — statistics read, no cross-field consistency.
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping only past `u64::MAX` total).
    pub fn sum(&self) -> u64 {
        // ordering: Relaxed — statistics read, no cross-field consistency.
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value, 0 when empty.
    pub fn min(&self) -> u64 {
        // ordering: Relaxed — statistics read, no cross-field consistency.
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        // ordering: Relaxed — statistics read, no cross-field consistency.
        self.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of recorded values, 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`) by nearest rank over the
    /// buckets. The estimate is the upper bound of the rank's bucket
    /// (clamped to the observed maximum), so it is exact up to bucket
    /// resolution: within a factor of two of the true quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for i in 0..NUM_BUCKETS {
            // ordering: Relaxed — the quantile is a bucket-resolution
            // estimate and tolerates concurrent recording mid-scan.
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            if cumulative >= rank {
                return Self::bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn summary_statistics() {
        let h = Histogram::new(Unit::Count);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_land_in_right_bucket() {
        let h = Histogram::new(Unit::Nanos);
        for v in 1..=1000u64 {
            h.record(v);
        }
        // True p50 = 500 (bucket 9: 256..=511); estimate must agree
        // up to bucket resolution.
        let p50 = h.quantile(0.5);
        assert_eq!(Histogram::bucket_index(p50), Histogram::bucket_index(500));
        let p99 = h.quantile(0.99);
        assert_eq!(Histogram::bucket_index(p99), Histogram::bucket_index(990));
        // p100 clamps to the observed max exactly.
        assert_eq!(h.quantile(1.0), 1000);
    }
}
