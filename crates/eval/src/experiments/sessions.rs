//! Multi-round session simulation: which policy gets users to their goals
//! fastest?
//!
//! The paper motivates its strategies with *policies*: Focus is "for users
//! that need to fulfil at least one goal through the actions in the
//! current recommendation list", Breadth "keeps paths open" to maximise
//! eventually-fulfilled goals (§1, §5). Its single-shot metrics can't test
//! those claims — so this experiment simulates interactive sessions on the
//! 43Things world:
//!
//! 1. a user starts from the visible 30 % of their activity;
//! 2. each round, the strategy recommends `k` actions and the user
//!    performs the ones belonging to their *true* chosen implementations
//!    (their actual intent, known to the generator);
//! 3. repeat for `rounds` rounds.
//!
//! Reported per strategy: mean rounds until the *first* goal completes
//! (Focus's design target) and the mean number of goals completed by the
//! horizon (Breadth's design target).

use crate::context::EvalContext;
use crate::report::{f3, TextTable};
use goalrec_core::{ActionId, Activity, GoalRecommender, ImplId, Recommender};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Recommendations per round.
    pub k: usize,
    /// Number of rounds simulated.
    pub rounds: usize,
    /// Cap on the number of users simulated (None = all inputs).
    pub max_users: Option<usize>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            k: 5,
            rounds: 6,
            max_users: Some(400),
        }
    }
}

/// One strategy's session statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionRow {
    /// Strategy name.
    pub strategy: String,
    /// Mean round index (1-based) at which the first goal completed, over
    /// users who completed at least one goal within the horizon.
    pub mean_rounds_to_first_goal: f64,
    /// Fraction of users who completed ≥1 goal within the horizon.
    pub users_with_a_completed_goal: f64,
    /// Mean number of the user's goals completed by the horizon.
    pub mean_goals_completed: f64,
    /// Mean fraction of recommended actions the user accepted (actions in
    /// their true implementations).
    pub acceptance_rate: f64,
}

/// Full session-simulation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sessions {
    /// Simulation parameters echoed back.
    pub rounds: usize,
    /// Recommendations per round.
    pub k: usize,
    /// One row per goal-based strategy.
    pub rows: Vec<SessionRow>,
}

/// Runs the simulation on the 43Things bundle.
pub fn run(ctx: &EvalContext, cfg: &SessionConfig) -> Sessions {
    let ft = &ctx.fortythree;
    let n_users = cfg
        .max_users
        .unwrap_or(ft.inputs.len())
        .min(ft.inputs.len());

    let rows = GoalRecommender::all_strategies(Arc::clone(&ft.model))
        .into_iter()
        .map(|rec| {
            let per_user: Vec<(Option<usize>, usize, usize, usize)> = (0..n_users)
                .into_par_iter()
                .map(|u| simulate_user(ctx, &rec, u, cfg))
                .collect();

            let completed_users: Vec<usize> =
                per_user.iter().filter_map(|(first, ..)| *first).collect();
            let total_goals: usize = per_user.iter().map(|&(_, g, ..)| g).sum();
            let accepted: usize = per_user.iter().map(|&(_, _, a, _)| a).sum();
            let offered: usize = per_user.iter().map(|&(_, _, _, o)| o).sum();
            SessionRow {
                strategy: rec.name(),
                mean_rounds_to_first_goal: completed_users.iter().sum::<usize>() as f64
                    / completed_users.len().max(1) as f64,
                users_with_a_completed_goal: completed_users.len() as f64 / n_users.max(1) as f64,
                mean_goals_completed: total_goals as f64 / n_users.max(1) as f64,
                acceptance_rate: accepted as f64 / offered.max(1) as f64,
            }
        })
        .collect();

    Sessions {
        rounds: cfg.rounds,
        k: cfg.k,
        rows,
    }
}

/// Simulates one user; returns (first-completion round, goals completed,
/// accepted recommendations, offered recommendations).
fn simulate_user(
    ctx: &EvalContext,
    rec: &GoalRecommender,
    user: usize,
    cfg: &SessionConfig,
) -> (Option<usize>, usize, usize, usize) {
    let ft = &ctx.fortythree;
    let model = &ft.model;
    let true_impls: &[ImplId] = &ft.data.user_impls[ft.input_users[user]];
    // An action is "acceptable" if it belongs to one of the user's chosen
    // implementations — the generator's ground-truth intent.
    let acceptable: Vec<u32> = {
        let mut v: Vec<u32> = true_impls
            .iter()
            .flat_map(|p| model.impl_actions(*p).iter().copied())
            .collect();
        goalrec_core::setops::normalize(&mut v);
        v
    };

    let mut current: Activity = ft.inputs[user].clone();
    let completed_at_start = completed_goals(model, true_impls, &current);
    let mut first_completion: Option<usize> = None;
    let mut accepted = 0usize;
    let mut offered = 0usize;

    for round in 1..=cfg.rounds {
        let recs = rec.recommend_actions(&current, cfg.k);
        if recs.is_empty() {
            break;
        }
        offered += recs.len();
        let take: Vec<ActionId> = recs
            .into_iter()
            .filter(|a| acceptable.binary_search(&a.raw()).is_ok())
            .collect();
        accepted += take.len();
        if !take.is_empty() {
            current = current.extended(take);
        }
        if first_completion.is_none()
            && completed_goals(model, true_impls, &current) > completed_at_start
        {
            first_completion = Some(round);
        }
    }
    let completed = completed_goals(model, true_impls, &current) - completed_at_start;
    (first_completion, completed, accepted, offered)
}

/// Number of the user's chosen implementations fully covered by `h`.
fn completed_goals(model: &goalrec_core::GoalModel, true_impls: &[ImplId], h: &Activity) -> usize {
    true_impls
        .iter()
        .filter(|p| {
            let acts = model.impl_actions(**p);
            goalrec_core::setops::intersection_len(acts, h.raw()) == acts.len()
        })
        .count()
}

impl fmt::Display for Sessions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            format!(
                "Session simulation (43Things): {} rounds × top-{}",
                self.rounds, self.k
            ),
            &[
                "Strategy",
                "Rounds to 1st goal",
                "Users w/ goal done",
                "Goals done",
                "Acceptance",
            ],
        );
        for row in &self.rows {
            t.row(vec![
                row.strategy.clone(),
                f3(row.mean_rounds_to_first_goal),
                crate::report::pct(row.users_with_a_completed_goal),
                f3(row.mean_goals_completed),
                crate::report::pct(row.acceptance_rate),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalConfig;

    fn sessions() -> Sessions {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        run(
            &ctx,
            &SessionConfig {
                k: 5,
                rounds: 5,
                max_users: Some(60),
            },
        )
    }

    #[test]
    fn all_strategies_complete_goals_in_session() {
        let s = sessions();
        assert_eq!(s.rows.len(), 4);
        for row in &s.rows {
            assert!(
                row.users_with_a_completed_goal > 0.3,
                "{}: only {:.0}% of users completed a goal",
                row.strategy,
                row.users_with_a_completed_goal * 100.0
            );
            assert!(row.mean_rounds_to_first_goal >= 1.0);
            assert!((0.0..=1.0).contains(&row.acceptance_rate));
            assert!(row.mean_goals_completed >= 0.0);
        }
        assert!(s.to_string().contains("Session simulation"));
    }

    #[test]
    fn focus_cmp_completes_first_goal_at_least_as_fast_as_best_match() {
        // The §5.1 design claim: Focus targets fastest single-goal
        // completion. Compare against Best Match, the most diffuse policy.
        let s = sessions();
        let get = |name: &str| {
            s.rows
                .iter()
                .find(|r| r.strategy == name)
                .unwrap()
                .mean_rounds_to_first_goal
        };
        assert!(
            get("Focus_cmp") <= get("BestMatch") + 0.25,
            "Focus_cmp {} vs BestMatch {}",
            get("Focus_cmp"),
            get("BestMatch")
        );
    }

    #[test]
    fn simulation_progress_is_monotone_in_rounds() {
        let ctx = EvalContext::build(EvalConfig::test_scale());
        let short = run(
            &ctx,
            &SessionConfig {
                k: 5,
                rounds: 1,
                max_users: Some(40),
            },
        );
        let long = run(
            &ctx,
            &SessionConfig {
                k: 5,
                rounds: 6,
                max_users: Some(40),
            },
        );
        for (a, b) in short.rows.iter().zip(&long.rows) {
            assert!(
                b.mean_goals_completed >= a.mean_goals_completed - 1e-9,
                "{}: more rounds completed fewer goals",
                a.strategy
            );
        }
    }
}
