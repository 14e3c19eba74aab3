//! Zipf-distributed sampling.
//!
//! Item popularity in both of the paper's domains is heavily skewed: a few
//! staple ingredients appear in a large share of recipes, and a few everyday
//! actions serve many life goals, while the tail is rare. The generators use
//! a classic Zipf(s) sampler over ranks `1..=n` built on an inverse-CDF
//! table, which makes sampling `O(log n)` and exactly reproducible from the
//! seed.

use rand::Rng;

/// A Zipf distribution over `0..n` (rank 0 is the most popular item).
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution with `n` items and exponent `s ≥ 0`.
    /// `s = 0` degenerates to the uniform distribution.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating point leaving the last entry below 1.0.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Number of items.
    pub(crate) fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Samples one rank in `0..n`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Samples `k` *distinct* ranks. Falls back to enumerating the support
    /// when `k` approaches `n`, so it always terminates.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub(crate) fn sample_distinct<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<usize> {
        let n = self.len();
        assert!(k <= n, "cannot draw {k} distinct items from {n}");
        if k == n {
            return (0..n).collect();
        }
        let mut chosen = std::collections::HashSet::with_capacity(k * 2);
        let mut out = Vec::with_capacity(k);
        // Rejection sampling is fast while the acceptance rate is high;
        // bail to a uniform fill for the (rare) dense case.
        let mut attempts = 0usize;
        let max_attempts = 20 * k + 100;
        while out.len() < k && attempts < max_attempts {
            attempts += 1;
            let r = self.sample(rng);
            if chosen.insert(r) {
                out.push(r);
            }
        }
        while out.len() < k {
            let r = rng.gen_range(0..n);
            if chosen.insert(r) {
                out.push(r);
            }
        }
        out
    }
}

/// Samples an integer from a discrete distribution given by `weights`.
/// Linear scan — intended for small supports such as cart-count or
/// goal-count distributions.
pub(crate) fn sample_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    let mut u: f64 = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn skew_orders_ranks() {
        let z = Zipf::new(100, 1.1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[70]);
        // Rank 0 of Zipf(1.1) over 100 items should take a large share.
        assert!(counts[0] > 15_000, "rank 0 got {}", counts[0]);
    }

    #[test]
    fn samples_within_bounds() {
        let z = Zipf::new(5, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 5);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let z = Zipf::new(50, 1.0);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn sample_distinct_yields_unique_items() {
        let z = Zipf::new(30, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        for k in [0, 1, 5, 29, 30] {
            let got = z.sample_distinct(&mut rng, k);
            assert_eq!(got.len(), k);
            let mut dedup = got.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), k);
        }
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn sample_distinct_rejects_oversized_k() {
        let z = Zipf::new(3, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        z.sample_distinct(&mut rng, 4);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_rejected() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_weighted(&mut rng, &[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        assert!((counts[2] as f64 / 30_000.0 - 0.7).abs() < 0.05);
    }

    #[test]
    fn len_accessors() {
        let z = Zipf::new(9, 1.0);
        assert_eq!(z.len(), 9);
    }
}
