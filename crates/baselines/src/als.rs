//! Matrix-factorisation CF: ALS with weighted-λ regularisation
//! (the paper's "CF MF", §6; algorithm of Zhou et al. \[8\], adapted to the
//! implicit selection/non-selection feedback of both datasets).
//!
//! The user–action matrix induced by the training activities is factorised
//! into `num_factors`-dimensional user and action embeddings by alternating
//! least squares. Regularisation is weighted by the number of observations
//! per row/column — the "WR" in ALS-WR — and implicit feedback enters via
//! confidence weighting `c = 1 + α` on observed cells (Hu–Koren style), so
//! unobserved actions act as weak negatives instead of being ignored.
//!
//! Query activities unseen at training time are *folded in*: one
//! least-squares solve against the fixed action factors produces the user
//! embedding, exactly the update a training sweep would apply.

use crate::linalg::{cholesky_solve, dot, Matrix};
use crate::training::TrainingSet;
use goalrec_core::{ActionId, Activity, Recommender, Scored};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Hyper-parameters for [`AlsWr`].
#[derive(Debug, Clone)]
pub struct AlsConfig {
    /// Latent dimensionality.
    pub num_factors: usize,
    /// Number of alternating sweeps.
    pub num_iterations: usize,
    /// Regularisation strength λ (scaled per row by observation count).
    pub lambda: f64,
    /// Implicit-feedback confidence boost α: observed cells get weight 1+α.
    pub alpha: f64,
    /// Seed for factor initialisation.
    pub seed: u64,
}

impl Default for AlsConfig {
    fn default() -> Self {
        Self {
            num_factors: 16,
            num_iterations: 10,
            lambda: 0.05,
            alpha: 20.0,
            seed: 7,
        }
    }
}

/// The trained factor model.
#[derive(Debug, Clone)]
pub struct AlsWr {
    item_factors: Matrix,
    cfg: AlsConfig,
    /// Precomputed Gram matrix `YᵀY` of the item factors, reused by every
    /// fold-in solve.
    gram: Matrix,
}

impl AlsWr {
    /// Trains the factorisation on a corpus of activities.
    pub fn train(training: &TrainingSet, cfg: AlsConfig) -> Self {
        assert!(cfg.num_factors > 0 && cfg.num_iterations > 0);
        let f = cfg.num_factors;
        let n_items = training.num_actions;
        let n_users = training.num_users();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Item → users posting lists (the transpose of the training rows).
        let mut item_users: Vec<Vec<u32>> = vec![Vec::new(); n_items];
        for (u, acts) in training.users.iter().enumerate() {
            for &a in acts.raw() {
                item_users[a as usize].push(u as u32);
            }
        }

        let mut users = random_matrix(n_users, f, &mut rng);
        let mut items = random_matrix(n_items, f, &mut rng);

        for _ in 0..cfg.num_iterations {
            // Update users given items.
            let item_gram = gram(&items);
            let new_users: Vec<Vec<f64>> = (0..n_users)
                .into_par_iter()
                .map(|u| solve_side(training.users[u].raw(), &items, &item_gram, &cfg))
                .collect();
            for (u, row) in new_users.into_iter().enumerate() {
                users.row_mut(u).copy_from_slice(&row);
            }

            // Update items given users.
            let user_gram = gram(&users);
            let new_items: Vec<Vec<f64>> = (0..n_items)
                .into_par_iter()
                .map(|i| solve_side(&item_users[i], &users, &user_gram, &cfg))
                .collect();
            for (i, row) in new_items.into_iter().enumerate() {
                items.row_mut(i).copy_from_slice(&row);
            }
        }

        let gram = gram(&items);
        Self {
            item_factors: items,
            cfg,
            gram,
        }
    }

    /// Folds in an unseen activity: the user-factor solve with item factors
    /// held fixed.
    pub(crate) fn fold_in(&self, activity: &Activity) -> Vec<f64> {
        solve_side(activity.raw(), &self.item_factors, &self.gram, &self.cfg)
    }

    /// Predicted affinity of a folded-in user for one action.
    pub(crate) fn score(&self, user_factor: &[f64], action: ActionId) -> f64 {
        dot(user_factor, self.item_factors.row(action.index()))
    }

    /// Number of actions in the model.
    pub(crate) fn num_actions(&self) -> usize {
        self.item_factors.rows()
    }
}

/// One ALS half-step for a single row: solve
/// `(Yᵀ C Y + λ n I) x = Yᵀ C p` where `C` boosts observed cells by `α`
/// and `p` is the binary preference vector. Using the precomputed Gram
/// matrix, `YᵀCY = YᵀY + α Σ_{observed} y yᵀ`, so the cost is
/// `O(|observed| f² + f³)`.
fn solve_side(observed: &[u32], factors: &Matrix, gram_full: &Matrix, cfg: &AlsConfig) -> Vec<f64> {
    let f = cfg.num_factors;
    if observed.is_empty() {
        return vec![0.0; f];
    }
    let mut a = gram_full.clone();
    let mut b = vec![0.0; f];
    for &obs in observed {
        let y = factors.row(obs as usize);
        a.syr(cfg.alpha, y);
        for (bi, &yi) in b.iter_mut().zip(y) {
            *bi += (1.0 + cfg.alpha) * yi;
        }
    }
    // Weighted-λ: scale the ridge by the row's observation count.
    a.add_diagonal(cfg.lambda * observed.len() as f64);
    cholesky_solve(&a, &b).unwrap_or_else(|| vec![0.0; f])
}

fn gram(m: &Matrix) -> Matrix {
    let f = m.cols();
    let mut g = Matrix::zeros(f, f);
    for r in 0..m.rows() {
        g.syr(1.0, m.row(r));
    }
    g
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        for v in m.row_mut(r) {
            *v = rng.gen_range(-0.1..0.1);
        }
    }
    m
}

impl Recommender for AlsWr {
    fn name(&self) -> String {
        "CF-MF".to_owned()
    }

    fn recommend(&self, activity: &Activity, k: usize) -> Vec<Scored> {
        if k == 0 || activity.is_empty() {
            return Vec::new();
        }
        let x = self.fold_in(activity);
        if x.iter().all(|&v| v == 0.0) {
            return Vec::new();
        }
        goalrec_core::topk::top_k(
            (0..self.num_actions() as u32)
                .filter(|&a| !activity.contains(ActionId::new(a)))
                .map(|a| Scored::new(ActionId::new(a), self.score(&x, ActionId::new(a)))),
            k,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint taste clusters: users 0-3 pick from items 0-4,
    /// users 4-7 from items 5-9.
    fn clustered_training() -> TrainingSet {
        TrainingSet::new(
            vec![
                Activity::from_raw([0, 1, 2]),
                Activity::from_raw([1, 2, 3]),
                Activity::from_raw([0, 2, 4]),
                Activity::from_raw([0, 3, 4]),
                Activity::from_raw([5, 6, 7]),
                Activity::from_raw([6, 7, 8]),
                Activity::from_raw([5, 7, 9]),
                Activity::from_raw([5, 8, 9]),
            ],
            10,
        )
    }

    fn quick_cfg() -> AlsConfig {
        AlsConfig {
            num_factors: 8,
            num_iterations: 8,
            ..AlsConfig::default()
        }
    }

    #[test]
    fn learns_cluster_structure() {
        let model = AlsWr::train(&clustered_training(), quick_cfg());
        // A user who selected items 0 and 1 should prefer the 0-4 cluster:
        // the top recommendations are the strongly co-occurring items 2/3,
        // well ahead of anything from the other cluster.
        let h = Activity::from_raw([0, 1]);
        let recs = model.recommend(&h, 2);
        assert_eq!(recs.len(), 2);
        for rec in &recs {
            assert!(
                rec.action.raw() <= 4,
                "expected in-cluster item, got {} in {recs:?}",
                rec.action
            );
        }
        let best_cross = (5..10u32)
            .map(|a| model.score(&model.fold_in(&h), ActionId::new(a)))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(recs[0].score > best_cross + 0.05);
    }

    #[test]
    fn in_cluster_scores_beat_cross_cluster() {
        let model = AlsWr::train(&clustered_training(), quick_cfg());
        let x = model.fold_in(&Activity::from_raw([0, 1]));
        let in_cluster = model.score(&x, ActionId::new(2));
        let cross = model.score(&x, ActionId::new(7));
        assert!(
            in_cluster > cross,
            "in-cluster {in_cluster} vs cross {cross}"
        );
    }

    #[test]
    fn never_recommends_performed_actions() {
        let model = AlsWr::train(&clustered_training(), quick_cfg());
        let h = Activity::from_raw([0, 1, 2]);
        for rec in model.recommend(&h, 10) {
            assert!(!h.contains(rec.action));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = AlsWr::train(&clustered_training(), quick_cfg());
        let b = AlsWr::train(&clustered_training(), quick_cfg());
        let h = Activity::from_raw([0, 1]);
        assert_eq!(a.recommend(&h, 5), b.recommend(&h, 5));
    }

    #[test]
    fn empty_activity_and_zero_k() {
        let model = AlsWr::train(&clustered_training(), quick_cfg());
        assert!(model.recommend(&Activity::new(), 5).is_empty());
        assert!(model.recommend(&Activity::from_raw([0]), 0).is_empty());
    }

    #[test]
    fn fold_in_of_empty_is_zero_vector() {
        let model = AlsWr::train(&clustered_training(), quick_cfg());
        assert!(model.fold_in(&Activity::new()).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn accessors() {
        let model = AlsWr::train(&clustered_training(), quick_cfg());
        assert_eq!(model.num_actions(), 10);
        assert_eq!(model.name(), "CF-MF");
    }

    #[test]
    fn reconstructs_observed_preferences() {
        // With enough factors the model should score a user's own items
        // well above unrelated ones on average.
        let training = clustered_training();
        let model = AlsWr::train(&training, quick_cfg());
        let mut own = 0.0;
        let mut other = 0.0;
        for u in &training.users {
            let x = model.fold_in(u);
            for a in 0..10u32 {
                let s = model.score(&x, ActionId::new(a));
                if u.contains(ActionId::new(a)) {
                    own += s;
                } else {
                    other += s;
                }
            }
        }
        assert!(own / 24.0 > other / 56.0, "own {own} other {other}");
    }
}
