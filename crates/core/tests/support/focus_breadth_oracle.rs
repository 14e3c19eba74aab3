//! Focus (§5.1, Eq. 3–4, Algorithm 1) and Breadth (§5.2, Eq. 5–6)
//! transcribed literally, as a test oracle: plain sets over the
//! implementation list, one set intersection per implementation, each
//! score computed as the equations write it. No index, no counting pass,
//! no shared code with the strategies it checks. Rankings compare with
//! `best_match_oracle::assert_matches`.

use goalrec_core::topk::Scored;
use goalrec_core::{ActionId, FocusVariant, GoalLibrary};
use std::collections::BTreeSet;

/// The library as `(goal, action set)`, indexed by implementation id.
fn implementations(library: &GoalLibrary) -> Vec<(u32, BTreeSet<u32>)> {
    library
        .implementations()
        .iter()
        .map(|imp| (imp.goal.raw(), imp.action_raw().iter().copied().collect()))
        .collect()
}

/// Focus over `library` for activity `h` (raw action ids): the first `k`
/// actions Algorithm 1 emits, and the number of candidate
/// implementations it ranked.
pub fn focus(
    library: &GoalLibrary,
    h: &[u32],
    variant: FocusVariant,
    k: usize,
) -> (Vec<Scored>, usize) {
    let impls = implementations(library);
    let h: BTreeSet<u32> = h.iter().copied().collect();

    // GS(H): the goals of the implementations that share an action with H.
    let goal_space: BTreeSet<u32> = impls
        .iter()
        .filter(|(_, acts)| !acts.is_disjoint(&h))
        .map(|(g, _)| *g)
        .collect();
    // Every implementation (g, A) with g ∈ GS(H) and an action left to
    // recommend, scored by Eq. 3 (|A ∩ H| / |A|) or Eq. 4 (1 / |A − H|).
    let mut ranked: Vec<(f64, usize)> = impls
        .iter()
        .enumerate()
        .filter(|(_, (g, _))| goal_space.contains(g))
        .filter_map(|(p, (_, acts))| {
            let common = acts.intersection(&h).count();
            let missing = acts.difference(&h).count();
            if missing == 0 {
                return None;
            }
            let score = match variant {
                FocusVariant::Completeness => common as f64 / acts.len() as f64,
                FocusVariant::Closeness => 1.0 / missing as f64,
            };
            Some((score, p))
        })
        .collect();
    // Best implementation first; ties by ascending implementation id.
    ranked.sort_by(|x, y| {
        y.0.partial_cmp(&x.0)
            .expect("scores are never NaN")
            .then(x.1.cmp(&y.1))
    });
    let num_candidates = ranked.len();

    // Algorithm 1: R starts as H; each implementation in rank order
    // contributes its actions not yet in R, at the implementation's score,
    // until k are out.
    let mut r = h;
    let mut out = Vec::new();
    'fill: for (score, p) in ranked {
        for &a in &impls[p].1 {
            if out.len() == k {
                break 'fill;
            }
            if r.insert(a) {
                out.push(Scored::new(ActionId::new(a), score));
            }
        }
    }
    (out, num_candidates)
}

/// Breadth over `library` for activity `h` (raw action ids): the top `k`
/// candidates by Eq. 6, best first with ties broken by ascending id, and
/// the number of candidates, `|AS(IS(H)) − H|`: every action of an
/// implementation in `IS(H)` that was not performed — what Breadth can
/// recommend.
pub fn breadth(library: &GoalLibrary, h: &[u32], k: usize) -> (Vec<Scored>, usize) {
    let impls = implementations(library);
    let h: BTreeSet<u32> = h.iter().copied().collect();

    // IS(H) and the actions of its implementations.
    let impl_space: Vec<&BTreeSet<u32>> = impls
        .iter()
        .map(|(_, acts)| acts)
        .filter(|acts| !acts.is_disjoint(&h))
        .collect();
    let actions: BTreeSet<u32> = impl_space
        .iter()
        .flat_map(|acts| acts.iter().copied())
        .collect();

    // Eq. 5–6: a candidate's score sums |A ∩ H| over the implementations
    // of IS(H) that contain it.
    let mut scored: Vec<Scored> = actions
        .difference(&h)
        .map(|&a| {
            let score: usize = impl_space
                .iter()
                .filter(|acts| acts.contains(&a))
                .map(|acts| acts.intersection(&h).count())
                .sum();
            Scored::new(ActionId::new(a), score as f64)
        })
        .collect();
    scored.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .expect("scores are never NaN")
            .then(x.action.cmp(&y.action))
    });
    let num_candidates = scored.len();
    scored.truncate(k);
    (scored, num_candidates)
}
