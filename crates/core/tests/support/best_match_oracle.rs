//! Best Match (§5.3, Algorithms 3–4, Eq. 8–10) transcribed literally, as a
//! test oracle: plain sets over the implementation list, dense `f64`
//! vectors over `GS(H)`, and each metric applied as written. No index,
//! no sparse trick, no shared code with the strategy it checks.

use goalrec_core::topk::Scored;
use goalrec_core::{ActionId, DistanceMetric, GoalLibrary};
use std::collections::{BTreeMap, BTreeSet};

/// Best Match over `library` for activity `h` (raw action ids): the top
/// `k` actions scored by negated distance, best first with ties broken by
/// ascending id, and the candidate count `|AS(H) − H|`.
pub fn best_match(
    library: &GoalLibrary,
    h: &[u32],
    metric: DistanceMetric,
    k: usize,
) -> (Vec<Scored>, usize) {
    let impls: Vec<(u32, BTreeSet<u32>)> = library
        .implementations()
        .iter()
        .map(|imp| (imp.goal.raw(), imp.action_raw().iter().copied().collect()))
        .collect();
    let h: BTreeSet<u32> = h.iter().copied().collect();

    // IS(H): the implementations that share an action with H.
    let is_h: Vec<&(u32, BTreeSet<u32>)> = impls
        .iter()
        .filter(|(_, acts)| !acts.is_disjoint(&h))
        .collect();
    // H⃗ over GS(H) (Eq. 9, Algorithm 3): per goal, one count per pair
    // (a ∈ H, p ∈ IS(a)) with p an implementation of that goal.
    let mut profile: BTreeMap<u32, f64> = BTreeMap::new();
    for (g, acts) in &is_h {
        *profile.entry(*g).or_default() += acts.intersection(&h).count() as f64;
    }
    let space: Vec<u32> = profile.keys().copied().collect();
    let hv: Vec<f64> = profile.values().copied().collect();
    // CA = AS(H) − H (Algorithm 4).
    let candidates: BTreeSet<u32> = is_h
        .iter()
        .flat_map(|(_, acts)| acts.iter().copied())
        .filter(|a| !h.contains(a))
        .collect();

    let mut scored: Vec<Scored> = candidates
        .iter()
        .map(|&a| {
            // a⃗ (Eq. 8): per goal of GS(H), the implementations of that
            // goal that contain a.
            let av: Vec<f64> = space
                .iter()
                .map(|&g| {
                    impls
                        .iter()
                        .filter(|(ig, acts)| *ig == g && acts.contains(&a))
                        .count() as f64
                })
                .collect();
            Scored::new(ActionId::new(a), -distance(metric, &hv, &av))
        })
        .collect();
    scored.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .expect("distances are never NaN")
            .then(x.action.cmp(&y.action))
    });
    let num_candidates = scored.len();
    scored.truncate(k);
    (scored, num_candidates)
}

/// Eq. 10 between dense vectors. Cosine distance of a zero vector is 1,
/// and the cosine is clamped to [−1, 1] against rounding.
fn distance(metric: DistanceMetric, u: &[f64], v: &[f64]) -> f64 {
    let pairs = || u.iter().zip(v);
    match metric {
        DistanceMetric::Cosine => {
            let dot: f64 = pairs().map(|(a, b)| a * b).sum();
            let nu: f64 = u.iter().map(|a| a * a).sum();
            let nv: f64 = v.iter().map(|b| b * b).sum();
            if nu == 0.0 || nv == 0.0 {
                1.0
            } else {
                1.0 - (dot / (nu.sqrt() * nv.sqrt())).clamp(-1.0, 1.0)
            }
        }
        DistanceMetric::Euclidean => pairs().map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt(),
        DistanceMetric::Manhattan => pairs().map(|(a, b)| (a - b).abs()).sum(),
    }
}

/// Asserts that a ranking and candidate count equal the oracle's: same
/// ids, same order, same `f64` score bits.
pub fn assert_matches(
    got: &[Scored],
    got_candidates: usize,
    expect: &(Vec<Scored>, usize),
    ctx: &str,
) {
    let (want, want_candidates) = expect;
    assert_eq!(got_candidates, *want_candidates, "candidate count {ctx}");
    assert_eq!(got.len(), want.len(), "length {ctx}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.action, w.action, "action #{i} {ctx}");
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "score bits #{i} {ctx}"
        );
    }
}
