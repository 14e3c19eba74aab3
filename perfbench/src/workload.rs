//! Seeded workload inputs: the served library, the recommend requests and
//! their Poisson arrival offsets.
//!
//! Everything here is a pure function of `(workload, seed)`: the same seed
//! gives byte-identical requests and identical arrival offsets. The
//! library is the paper-scale dataset at its generator's own fixed seed —
//! one library per workload, as the paper has — and the benchmark seed
//! draws the traffic: the §6 hide split (whose visible 30 % is each
//! activity), which activities are replayed in which order, the strategy
//! of each request (one of the four served, `k = 10`) and the arrivals.

use goalrec_core::{Activity, GoalLibrary, ImplId};
use goalrec_datasets::{hide_split_all, FoodMart, FoodMartConfig, FortyThings, FortyThingsConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The p99 latency limit of the `max_rate_rps` confirm steps, on every
/// workload: several times the heaviest single request (Best Match on
/// FoodMart, ~0.1 s), so a growing backlog, not a noisy tail, decides.
pub const P99_LIMIT: Duration = Duration::from_secs(1);
/// Client timeout of a recommend, counted from its due time.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// The strategies `goalrec-serve` accepts, in its own order.
pub const STRATEGIES: [&str; 4] = ["breadth", "best-match", "focus-cmp", "focus-cl"];
/// Recommendations per request.
pub const K: usize = 10;
/// The visible share of each §6 activity.
pub const VISIBLE_FRACTION: f64 = 0.3;
/// One library row as raw ids: `(goal, actions)`.
pub type Row = (u32, Vec<u32>);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale FoodMart carts: ranking dominates every request.
    FoodmartCarts,
    /// Paper-scale 43Things users, whose ranking takes microseconds so the
    /// HTTP layers are a large share.
    FortyThingsUsers,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::FoodmartCarts, Workload::FortyThingsUsers];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FoodmartCarts => "foodmart-carts",
            Workload::FortyThingsUsers => "43things-users",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Answers of the fixed-rate phase checked against the in-process
    /// recommender (a seeded sample; Best Match on FoodMart costs ~0.1 s
    /// a check).
    pub fn check_samples(self) -> usize {
        match self {
            Workload::FoodmartCarts => 32,
            Workload::FortyThingsUsers => 400,
        }
    }

    /// Recommend rate of the fixed-rate phase, requests per second.
    pub fn fixed_rate(self) -> f64 {
        match self {
            // About 0.4 of the measured `max_rate_rps` (~28/s); at 15/s
            // the p90 spread across seeds three times as much. Much lower
            // rates leave gaps of over 1 s, after which the server answers
            // a keep-alive request `408` and closes the connection.
            Workload::FoodmartCarts => 11.0,
            // Under 0.2 of the measured `max_rate_rps` (~9 500/s). A request
            // costs ~0.1 ms, so millisecond stalls of a shared machine
            // back requests up; at 0.4 and 0.5 of the maximum that backlog
            // spread `lat_p90_ms` across seeds two to three times as much.
            Workload::FortyThingsUsers => 1_600.0,
        }
    }
}

/// One recommend request, pre-rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Index into [`STRATEGIES`].
    pub strategy: usize,
    /// The visible activity, as sorted raw action ids.
    pub activity: Vec<u32>,
    /// The full HTTP/1.1 request bytes.
    pub bytes: Vec<u8>,
}

/// Everything a run replays, generated from the seed alone.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The library the server is started on.
    pub library: GoalLibrary,
    /// The recommend request stream, in replay order.
    pub requests: Vec<Request>,
    /// Unit-rate exponential inter-arrival gaps; a phase at rate `r`
    /// scales their running sum by `1/r`.
    pub unit_gaps: Vec<f64>,
}

impl Inputs {
    /// Generates the workload's inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64, num_requests: usize) -> Result<Self, String> {
        let (library, activities) = match workload {
            Workload::FoodmartCarts => {
                let world = FoodMart::generate(&FoodMartConfig::paper_scale());
                (world.library, world.carts)
            }
            Workload::FortyThingsUsers => {
                let world = FortyThings::generate(&FortyThingsConfig::paper_scale());
                (world.library, world.full_activities)
            }
        };
        let visible = hide_split_all(&activities, VISIBLE_FRACTION, seed ^ 0x5EED_0001);
        let pool: Vec<Vec<u32>> = visible
            .iter()
            .map(|s| s.visible.raw().to_vec())
            .filter(|a| !a.is_empty())
            .collect();
        if pool.is_empty() {
            return Err("the generated workload has no non-empty activity".to_owned());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0002);
        let mut requests = Vec::with_capacity(num_requests);
        // Strategies come in shuffled blocks of four, so every window of
        // the stream carries the same mix (uniform, but never lopsided).
        let mut block = [0usize, 1, 2, 3];
        while requests.len() < num_requests {
            block.shuffle(&mut rng);
            for &strategy in &block {
                if requests.len() == num_requests {
                    break;
                }
                let activity = pool[rng.gen_range(0..pool.len())].clone();
                let bytes = recommend_bytes(strategy, &activity);
                requests.push(Request {
                    strategy,
                    activity,
                    bytes,
                });
            }
        }
        let mut gap_rng = StdRng::seed_from_u64(seed ^ 0x5EED_0003);
        let unit_gaps = (0..num_requests)
            .map(|_| exponential(&mut gap_rng))
            .collect();
        Ok(Inputs {
            workload,
            library,
            requests,
            unit_gaps,
        })
    }
}

/// Arrival offsets of `n` requests at `rate` per second: the running sum
/// of the scaled unit gaps, starting at `start`.
pub fn arrivals(unit_gaps: &[f64], start: usize, n: usize, rate: f64) -> Vec<Duration> {
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            t += unit_gaps[(start + i) % unit_gaps.len()] / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// An `Exp(1)` draw by inversion.
fn exponential(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).max(f64::MIN_POSITIVE).ln()
}

/// Splits the last `held` rows off `full`, renumbering nothing: goal and
/// action ids keep their generator values, and implementation ids of the
/// served rows are unchanged because only a suffix is removed.
pub fn split_library(full: &GoalLibrary, held: usize) -> Result<(GoalLibrary, Vec<Row>), String> {
    let n = full.len();
    if held >= n {
        return Err(format!("cannot hold back {held} of {n} rows"));
    }
    let rows = |range: std::ops::Range<usize>| {
        range
            .map(|i| {
                let imp = full
                    .implementation(ImplId::new(u32::try_from(i).unwrap_or(u32::MAX)))
                    .expect("row index is inside the library");
                (imp.goal, imp.actions.clone())
            })
            .collect::<Vec<_>>()
    };
    let served = rows(0..n - held);
    let max_action = served
        .iter()
        .flat_map(|(_, acts)| acts.iter().map(|a| a.raw()))
        .max()
        .unwrap_or(0);
    let max_goal = served.iter().map(|(g, _)| g.raw()).max().unwrap_or(0);
    let library = GoalLibrary::from_id_implementations(max_action + 1, max_goal + 1, served)
        .map_err(|e| format!("cannot build the served library: {e}"))?;
    let held_back = rows(n - held..n)
        .into_iter()
        .map(|(g, acts)| (g.raw(), acts.iter().map(|a| a.raw()).collect()))
        .collect();
    Ok((library, held_back))
}

/// `POST /v1/recommend` bytes for one request.
pub fn recommend_bytes(strategy: usize, activity: &[u32]) -> Vec<u8> {
    let ids: Vec<String> = activity.iter().map(u32::to_string).collect();
    let body = format!(
        "{{\"activity\":[{}],\"strategy\":\"{}\",\"k\":{K}}}",
        ids.join(","),
        STRATEGIES[strategy]
    );
    post_bytes("/v1/recommend", &body)
}

fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The activity of a request as the in-process recommender takes it.
pub fn activity_of(request: &Request) -> Activity {
    Activity::from_raw(request.activity.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_requests_and_arrivals() {
        let a = Inputs::generate(Workload::FortyThingsUsers, 7, 500).unwrap();
        let b = Inputs::generate(Workload::FortyThingsUsers, 7, 500).unwrap();
        assert_eq!(a.requests, b.requests);
        assert_eq!(
            arrivals(&a.unit_gaps, 0, 500, 100.0),
            arrivals(&b.unit_gaps, 0, 500, 100.0)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = Inputs::generate(Workload::FortyThingsUsers, 7, 200).unwrap();
        let b = Inputs::generate(Workload::FortyThingsUsers, 8, 200).unwrap();
        assert_ne!(a.requests, b.requests);
        assert_ne!(
            arrivals(&a.unit_gaps, 0, 200, 100.0),
            arrivals(&b.unit_gaps, 0, 200, 100.0)
        );
    }

    #[test]
    fn strategy_mix_is_balanced_and_requests_stay_in_the_library_extent() {
        let inputs = Inputs::generate(Workload::FortyThingsUsers, 3, 1_000).unwrap();
        let mut counts = [0usize; 4];
        for r in &inputs.requests {
            counts[r.strategy] += 1;
            assert!(r
                .activity
                .iter()
                .all(|&a| (a as usize) < inputs.library.num_actions()));
        }
        assert_eq!(counts, [250; 4]);
        assert_eq!(inputs.library.len(), 18_047);
    }

    #[test]
    fn arrivals_scale_with_the_rate() {
        let gaps = vec![1.0, 2.0, 3.0];
        let slow = arrivals(&gaps, 0, 3, 1.0);
        let fast = arrivals(&gaps, 0, 3, 10.0);
        assert_eq!(slow[2], Duration::from_secs(6));
        assert_eq!(fast[2], Duration::from_millis(600));
    }
}
