//! Output checks: the served library's statistics and recommend bodies
//! against the in-process recommender on the same library.

use crate::workload::{activity_of, Request, K, STRATEGIES};
use goalrec_core::{
    BestMatch, Breadth, Focus, FocusVariant, GoalLibrary, GoalModel, GoalRecommender, Scored,
    Scratch, Strategy,
};
use serde_json::Value;
use std::sync::Arc;

/// The four served strategies, in [`STRATEGIES`] order.
pub fn strategies() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(Breadth),
        Box::new(BestMatch::default()),
        Box::new(Focus::new(FocusVariant::Completeness)),
        Box::new(Focus::new(FocusVariant::Closeness)),
    ]
}

/// One recommender per served strategy over `model`.
pub fn recommenders(model: &Arc<GoalModel>) -> Vec<GoalRecommender> {
    strategies()
        .into_iter()
        .map(|s| GoalRecommender::new(Arc::clone(model), s))
        .collect()
}

/// Fails unless the server's `GET /v1/stats` body reports exactly the
/// statistics of `library`.
pub fn stats_match(
    body: &[u8],
    library: &GoalLibrary,
    generated_rows: usize,
) -> Result<(), String> {
    let doc: Value = serde_json::from_str(std::str::from_utf8(body).map_err(|e| e.to_string())?)
        .map_err(|e| format!("/v1/stats is not JSON: {e}"))?;
    let served = doc.get("stats").ok_or("/v1/stats has no `stats` object")?;
    let want = library.stats();
    let int = |k: &str| served.get(k).and_then(Value::as_u64);
    let float = |k: &str| served.get(k).and_then(Value::as_f64);
    let pairs = [
        ("num_implementations", want.num_implementations),
        ("num_actions", want.num_actions),
        ("num_goals", want.num_goals),
        ("max_connectivity", want.max_connectivity),
        ("max_impl_len", want.max_impl_len),
    ];
    for (key, expected) in pairs {
        if int(key) != Some(expected as u64) {
            return Err(format!(
                "/v1/stats {key} = {:?}, the generated library has {expected}",
                int(key)
            ));
        }
    }
    for (key, expected) in [
        ("connectivity", want.connectivity),
        ("avg_impl_len", want.avg_impl_len),
    ] {
        match float(key) {
            Some(v) if (v - expected).abs() <= 1e-9 * expected.abs().max(1.0) => {}
            other => {
                return Err(format!(
                    "/v1/stats {key} = {other:?}, the generated library has {expected}"
                ))
            }
        }
    }
    if want.num_implementations != generated_rows {
        return Err(format!(
            "the library read back holds {} rows, the generator made {generated_rows}",
            want.num_implementations
        ));
    }
    Ok(())
}

/// A recommend body as served.
struct Answer {
    strategy: String,
    activity: Vec<u32>,
    /// The ranked `(action, score)` list.
    ranked: Vec<(u32, f64)>,
}

fn parse_answer(body: &[u8]) -> Result<Answer, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let strategy = doc
        .get("strategy")
        .and_then(Value::as_str)
        .ok_or("body has no strategy")?
        .to_owned();
    let activity = match doc.get("activity") {
        Some(Value::Array(ids)) => ids
            .iter()
            .map(|v| v.as_u64().and_then(|u| u32::try_from(u).ok()))
            .collect::<Option<Vec<u32>>>()
            .ok_or("activity holds a non-id")?,
        _ => return Err("body has no activity".to_owned()),
    };
    let ranked = match doc.get("recommendations") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|it| {
                let a = it.get("action").and_then(Value::as_u64)?;
                let s = it.get("score").and_then(Value::as_f64)?;
                Some((u32::try_from(a).ok()?, s))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("a recommendation lacks action or score")?,
        _ => return Err("body has no recommendations".to_owned()),
    };
    Ok(Answer {
        strategy,
        activity,
        ranked,
    })
}

fn same_ranking(served: &[(u32, f64)], expected: &[Scored]) -> bool {
    served.len() == expected.len()
        && served.iter().zip(expected).all(|(&(a, s), e)| {
            a == e.action.raw() && (s - e.score).abs() <= 1e-9 * e.score.abs().max(1.0)
        })
}

/// One sampled recommend answer.
pub struct Sample<'a> {
    /// The request as sent.
    pub request: &'a Request,
    /// The body as answered.
    pub body: &'a [u8],
}

/// Checks every sample against in-process `recommend_into` on `library`;
/// ids, order and scores must match. Returns the number checked.
pub fn bodies_match(library: &GoalLibrary, samples: &[Sample<'_>]) -> Result<usize, String> {
    let model = Arc::new(GoalModel::build(library).map_err(|e| e.to_string())?);
    let recs = recommenders(&model);
    let mut scratch = Scratch::new();
    for s in samples {
        let Answer {
            strategy,
            activity,
            ranked: served,
        } = parse_answer(s.body)?;
        let want_activity = activity_of(s.request);
        if strategy != STRATEGIES[s.request.strategy] || activity != want_activity.raw() {
            return Err(format!(
                "answer echoes strategy {strategy} / activity {activity:?}, the request \
                 sent {} / {:?}",
                STRATEGIES[s.request.strategy],
                want_activity.raw()
            ));
        }
        let expected = recs[s.request.strategy].recommend_into(&want_activity, K, &mut scratch);
        if !same_ranking(&served, expected) {
            return Err(format!(
                "{} on activity {:?} answered {:?}, in-process ranking is {:?}",
                strategy,
                want_activity.raw(),
                served,
                expected
                    .iter()
                    .map(|e| (e.action.raw(), e.score))
                    .collect::<Vec<_>>()
            ));
        }
    }
    Ok(samples.len())
}
