//! Order statistics over measured samples.

/// Nearest-rank percentile of `sorted` (ascending) at `p` in `(0, 1]`:
/// the smallest sample with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`.
pub fn median(samples: impl IntoIterator<Item = f64>) -> f64 {
    percentile(&sorted(samples), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
    }
}
