//! Vector distances for the Best Match strategy (§5.3, Eq. 10).
//!
//! The paper ranks candidate actions by `dist(H⃗, a⃗)` with a "standard
//! metric"; the metric is pluggable here. Cosine distance is the default
//! because the profile magnitudes of user and candidate vectors differ by
//! construction (the profile aggregates every action in `H`), and the
//! ablation experiment compares all three.
//!
//! Each metric is evaluated from the exact integer sums of the
//! crate-private `profile` module rather than from dense vectors; its
//! module docs explain why the result is bit-identical to the dense
//! definition.

use crate::profile::{ActionTerms, ProfileNorms};
use serde::{Deserialize, Serialize};

/// Supported distance metrics between goal-space count vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DistanceMetric {
    /// `1 − cos(u, v)`: scale-invariant; the default.
    #[default]
    Cosine,
    /// Euclidean (L2) distance.
    Euclidean,
    /// Manhattan (L1) distance.
    Manhattan,
}

/// 2⁵³: every integer below it is an `f64` exactly.
const EXACT_LIMIT: u64 = 1 << 53;

impl DistanceMetric {
    /// `dist(H⃗, a⃗)` from the profile's norms and the action's sums:
    ///
    /// * cosine: `1 − dot / (√P2 · √c2)`, and 1.0 when either norm is 0
    ///   (a zero vector has no direction, so it ranks last);
    /// * Euclidean: `√(P2 + c2 − 2·dot)`, the integer `Σ (p_g − c_g)²`;
    /// * Manhattan: `P1 + l1`, the integer `Σ |p_g − c_g|`.
    pub(crate) fn distance(self, profile: ProfileNorms, a: &ActionTerms) -> f64 {
        // Below 2⁵³ each integer converts to f64 exactly; so did every
        // partial sum of the same non-negative terms in a dense f64
        // evaluation, which is why the two agree to the bit.
        debug_assert!(
            [profile.p1, profile.p2, a.dot, a.c2, a.l1.unsigned_abs()]
                .iter()
                .all(|&x| x < EXACT_LIMIT),
            "Best Match sums exceed 2^53: {profile:?} {a:?}"
        );
        match self {
            DistanceMetric::Cosine => {
                let (dot, nu, nv) = (a.dot as f64, profile.p2 as f64, a.c2 as f64);
                if nu == 0.0 || nv == 0.0 {
                    return 1.0;
                }
                // Clamp for floating-point drift so the distance is always
                // in [0, 1] for the non-negative count vectors used here.
                1.0 - (dot / (nu.sqrt() * nv.sqrt())).clamp(-1.0, 1.0)
            }
            DistanceMetric::Euclidean => {
                let squared = profile.p2 + a.c2 - 2 * a.dot;
                debug_assert!(squared < EXACT_LIMIT);
                (squared as f64).sqrt()
            }
            DistanceMetric::Manhattan => {
                let l1 = i64::try_from(profile.p1).unwrap_or(i64::MAX) + a.l1;
                debug_assert!(l1 >= 0);
                l1 as f64
            }
        }
    }

    /// Human-readable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DistanceMetric::Cosine => "cosine",
            DistanceMetric::Euclidean => "euclidean",
            DistanceMetric::Manhattan => "manhattan",
        }
    }

    /// All metrics, for ablation sweeps.
    pub const ALL: [DistanceMetric; 3] = [
        DistanceMetric::Cosine,
        DistanceMetric::Euclidean,
        DistanceMetric::Manhattan,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sums of two count vectors over the same goals.
    fn sums(p: &[u64], c: &[u64]) -> (ProfileNorms, ActionTerms) {
        let norms = ProfileNorms {
            p1: p.iter().sum(),
            p2: p.iter().map(|x| x * x).sum(),
        };
        let terms = ActionTerms {
            dot: p.iter().zip(c).map(|(x, y)| x * y).sum(),
            c2: c.iter().map(|y| y * y).sum(),
            l1: p
                .iter()
                .zip(c)
                .map(|(&x, &y)| i64::try_from(x.abs_diff(y)).unwrap() - i64::try_from(x).unwrap())
                .sum(),
        };
        (norms, terms)
    }

    fn dist(m: DistanceMetric, p: &[u64], c: &[u64]) -> f64 {
        let (norms, terms) = sums(p, c);
        m.distance(norms, &terms)
    }

    #[test]
    fn cosine_identical_direction_is_zero() {
        assert!(dist(DistanceMetric::Cosine, &[1, 2], &[2, 4]) < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_is_one() {
        assert_eq!(dist(DistanceMetric::Cosine, &[1, 0], &[0, 1]), 1.0);
    }

    #[test]
    fn cosine_zero_vector_is_max_distance() {
        assert_eq!(dist(DistanceMetric::Cosine, &[0, 0], &[1, 1]), 1.0);
        assert_eq!(dist(DistanceMetric::Cosine, &[1, 1], &[0, 0]), 1.0);
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        assert_eq!(dist(DistanceMetric::Euclidean, &[0, 3], &[4, 0]), 5.0);
    }

    #[test]
    fn manhattan_matches_hand_computation() {
        assert_eq!(dist(DistanceMetric::Manhattan, &[1, 2], &[3, 0]), 4.0);
    }

    #[test]
    fn names_and_all() {
        assert_eq!(DistanceMetric::default(), DistanceMetric::Cosine);
        let names: Vec<_> = DistanceMetric::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["cosine", "euclidean", "manhattan"]);
    }

    fn counts() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
        (1usize..20).prop_flat_map(|n| {
            (
                proptest::collection::vec(1u64..50, n),
                proptest::collection::vec(0u64..50, n),
            )
        })
    }

    proptest! {
        #[test]
        fn prop_self_distance_zero(p in proptest::collection::vec(1u64..50, 1..20)) {
            for m in DistanceMetric::ALL {
                prop_assert!(dist(m, &p, &p) < 1e-9);
            }
        }

        #[test]
        fn prop_distances_nonnegative_and_cosine_bounded((p, c) in counts()) {
            for m in DistanceMetric::ALL {
                prop_assert!(dist(m, &p, &c) >= 0.0, "{:?} gave negative distance", m);
            }
            prop_assert!((0.0..=1.0).contains(&dist(DistanceMetric::Cosine, &p, &c)));
        }
    }
}
