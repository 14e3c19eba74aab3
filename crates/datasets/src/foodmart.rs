//! Synthetic FoodMart: the grocery scenario of §6, dataset (a).
//!
//! The paper pairs an open FoodMart purchase log (1 560 products organised
//! in 128 (sub)categories, 20 500 carts, at most 3 carts per customer) with
//! 56 500 recipes from a food ontology, yielding a goal implementation
//! library whose actions have a *very high* connectivity (an ingredient
//! participates in ≈1.2k recipes on average). Neither source is available
//! any more, so this module generates a synthetic equivalent calibrated to
//! every statistic the paper reports; see DESIGN.md §3 for the substitution
//! rationale.
//!
//! Structure of the generated world:
//!
//! * products get a (class, subcategory) pair — the domain features the
//!   content-based baseline and the Table 5 similarity study use;
//! * recipes (goals) draw Zipf-skewed ingredient sets, so staples appear in
//!   thousands of recipes while tail products are rare — matching the
//!   connectivity skew Figures 5–6 depend on;
//! * carts belong to users (≤3 carts each); a cart is assembled from
//!   partial ingredient lists of the user's *intended dishes* plus noise,
//!   which gives the goal-based methods a recoverable signal and the CF
//!   baselines genuine co-occurrence structure.

use crate::zipf::{sample_weighted, Zipf};
use goalrec_core::{ActionId, Activity, GoalId, GoalLibrary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Generation parameters. [`FoodMartConfig::paper_scale`] matches the
/// paper; [`FoodMartConfig::test_scale`] is a fast miniature with the same
/// shape for unit tests and examples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FoodMartConfig {
    /// Number of products (actions). Paper: 1 560.
    pub num_products: usize,
    /// Number of product subcategories ("baking goods", "seafood", …).
    /// Paper: 128.
    pub num_subcategories: usize,
    /// Number of top-level classes grouping subcategories.
    pub num_classes: usize,
    /// Number of recipes (goal implementations). Paper: 56 500.
    pub num_recipes: usize,
    /// Number of carts (input activities). Paper: 20 500.
    pub num_carts: usize,
    /// Maximum carts per customer. Paper: "no more than 3".
    pub max_carts_per_user: usize,
    /// Recipe ingredient count is uniform in this inclusive range. The
    /// default range centres on ≈33, which reproduces the paper's mean
    /// action connectivity of ≈1.2k at full scale
    /// (56 500 × 33 / 1 560 ≈ 1 195).
    pub recipe_len: (usize, usize),
    /// Cart size is uniform in this inclusive range.
    pub cart_len: (usize, usize),
    /// Zipf exponent for ingredient popularity across recipes.
    pub ingredient_skew: f64,
    /// Number of cuisines. Recipes draw most ingredients from their
    /// cuisine's product pool, which keeps different carts' recommendation
    /// pools distinct (real recipes cluster by cuisine; fully independent
    /// Zipf draws would let a handful of staples dominate every list).
    pub num_cuisines: usize,
    /// Probability that a recipe ingredient comes from the cuisine pool
    /// rather than the global staple distribution.
    pub cuisine_affinity: f64,
    /// Zipf exponent for cart *noise* items. Noticeably higher than
    /// `ingredient_skew`: customers buy the popular staples on most trips,
    /// so the globally popular products are usually already in the cart —
    /// the mechanism behind the paper's negative popularity correlations
    /// (Table 3).
    pub noise_skew: f64,
    /// Probability that a recipe is an *alternative implementation* of the
    /// previous recipe's dish instead of a new dish — the model's
    /// several-implementations-per-goal case (Definition 3.1) exercised at
    /// dataset scale.
    pub alt_impl_probability: f64,
    /// Zipf exponent for dish popularity across users.
    pub dish_skew: f64,
    /// Number of intended dishes per user, inclusive range.
    pub dishes_per_user: (usize, usize),
    /// Fraction of each intended dish's ingredients already in a cart.
    pub dish_coverage: f64,
    /// Fraction of cart items that are noise (not from intended dishes).
    pub noise_fraction: f64,
    /// RNG seed; everything is deterministic given the seed.
    pub seed: u64,
}

impl FoodMartConfig {
    /// Full paper-scale configuration.
    pub fn paper_scale() -> Self {
        Self {
            num_products: 1_560,
            num_subcategories: 128,
            num_classes: 16,
            num_recipes: 56_500,
            num_carts: 20_500,
            max_carts_per_user: 3,
            recipe_len: (8, 58),
            cart_len: (5, 25),
            ingredient_skew: 0.75,
            num_cuisines: 16,
            cuisine_affinity: 0.6,
            noise_skew: 1.45,
            alt_impl_probability: 0.15,
            dish_skew: 0.9,
            dishes_per_user: (2, 5),
            dish_coverage: 0.55,
            noise_fraction: 0.25,
            seed: 0xF00D,
        }
    }

    /// Miniature configuration (same shape, ~100× smaller) for tests.
    pub fn test_scale() -> Self {
        Self {
            num_products: 120,
            num_subcategories: 16,
            num_classes: 4,
            num_recipes: 400,
            num_carts: 150,
            max_carts_per_user: 3,
            recipe_len: (4, 12),
            cart_len: (3, 10),
            ingredient_skew: 0.75,
            num_cuisines: 4,
            cuisine_affinity: 0.6,
            noise_skew: 1.45,
            alt_impl_probability: 0.15,
            dish_skew: 0.9,
            dishes_per_user: (2, 4),
            dish_coverage: 0.55,
            noise_fraction: 0.25,
            seed: 0xF00D,
        }
    }

    /// Scales recipe/cart counts by `factor` (products and categories stay
    /// fixed, as in the paper's scalability sweep which varies the library).
    pub fn with_scale(mut self, factor: f64) -> Self {
        self.num_recipes = ((self.num_recipes as f64 * factor) as usize).max(1);
        self.num_carts = ((self.num_carts as f64 * factor) as usize).max(1);
        self
    }
}

/// The generated grocery world.
#[derive(Debug, Clone)]
pub struct FoodMart {
    /// The recipe library (goal = dish, actions = ingredient purchases).
    pub library: GoalLibrary,
    /// Per-product subcategory id (`0..num_subcategories`).
    pub product_subcategory: Vec<u32>,
    /// Per-subcategory class id (`0..num_classes`).
    pub subcategory_class: Vec<u32>,
    /// The carts, each a purchase activity.
    pub carts: Vec<Activity>,
    /// Cart → user id.
    pub cart_user: Vec<u32>,
    /// Number of distinct users.
    pub num_users: usize,
}

impl FoodMart {
    /// Generates the dataset from a configuration.
    pub fn generate(cfg: &FoodMartConfig) -> Self {
        assert!(cfg.num_products > 0 && cfg.num_recipes > 0 && cfg.num_carts > 0);
        assert!(cfg.recipe_len.0 >= 1 && cfg.recipe_len.0 <= cfg.recipe_len.1);
        assert!(cfg.recipe_len.1 <= cfg.num_products);
        assert!(cfg.cart_len.0 >= 1 && cfg.cart_len.0 <= cfg.cart_len.1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Products: subcategory via Zipf (category sizes are skewed in the
        // real FoodMart), class derived uniformly over subcategories.
        let subcat_dist = Zipf::new(cfg.num_subcategories, 0.6);
        let product_subcategory: Vec<u32> = (0..cfg.num_products)
            .map(|_| subcat_dist.sample(&mut rng) as u32)
            .collect();
        let subcategory_class: Vec<u32> = (0..cfg.num_subcategories)
            .map(|i| (i % cfg.num_classes) as u32)
            .collect();

        // Recipes: each recipe is one implementation of a distinct dish.
        // A recipe belongs to a cuisine and draws `cuisine_affinity` of its
        // ingredients from the cuisine's product pool (Zipf within the
        // pool), the rest from the global staple distribution.
        let ingredient_dist = Zipf::new(cfg.num_products, cfg.ingredient_skew);
        let cuisine_pools: Vec<Vec<u32>> = (0..cfg.num_cuisines)
            .map(|c| {
                (0..cfg.num_products)
                    .filter(|p| p % cfg.num_cuisines == c)
                    .map(|p| p as u32)
                    .collect()
            })
            .collect();
        let pool_dists: Vec<Zipf> = cuisine_pools
            .iter()
            .map(|pool| Zipf::new(pool.len().max(1), cfg.ingredient_skew))
            .collect();
        let mut impls: Vec<(GoalId, Vec<ActionId>)> = Vec::with_capacity(cfg.num_recipes);
        let mut next_dish = 0u32;
        let mut last_cuisine = 0usize;
        for r in 0..cfg.num_recipes {
            // Either a brand-new dish, or an alternative implementation of
            // the previous one (sharing its goal and cuisine).
            let is_variant = r > 0 && rng.gen::<f64>() < cfg.alt_impl_probability;
            let dish = if is_variant {
                impls[r - 1].0
            } else {
                let d = next_dish;
                next_dish += 1;
                GoalId::new(d)
            };
            let len = rng.gen_range(cfg.recipe_len.0..=cfg.recipe_len.1);
            let cuisine = if is_variant {
                last_cuisine
            } else {
                rng.gen_range(0..cfg.num_cuisines)
            };
            last_cuisine = cuisine;
            let pool = &cuisine_pools[cuisine];
            let mut ingredients: Vec<u32> = Vec::with_capacity(len);
            let mut guard = 0;
            while ingredients.len() < len && guard < 50 * len + 50 {
                guard += 1;
                let p = if rng.gen::<f64>() < cfg.cuisine_affinity {
                    pool[pool_dists[cuisine].sample(&mut rng)]
                } else {
                    ingredient_dist.sample(&mut rng) as u32
                };
                if !ingredients.contains(&p) {
                    ingredients.push(p);
                }
            }
            impls.push((
                dish,
                ingredients
                    .into_iter()
                    .map(ActionId::new)
                    .collect::<Vec<_>>(),
            ));
        }
        #[expect(
            clippy::expect_used,
            reason = "the generator mints ids below the bounds it passes; a failure here is a generator bug, not user input"
        )]
        let library =
            GoalLibrary::from_id_implementations(cfg.num_products as u32, next_dish.max(1), impls)
                .expect("generator produces valid implementations");

        // Users and carts. Noise items follow a steeper popularity curve
        // than recipe membership: staples land in most carts.
        let noise_dist = Zipf::new(cfg.num_products, cfg.noise_skew);
        let dish_dist = Zipf::new(cfg.num_recipes, cfg.dish_skew);
        let mut carts = Vec::with_capacity(cfg.num_carts);
        let mut cart_user = Vec::with_capacity(cfg.num_carts);
        let mut user = 0u32;
        let mut produced = 0usize;
        while produced < cfg.num_carts {
            // Cart-count weights 1:2:3 ≈ 40/35/25 keeps the average under 2,
            // matching "no more than 3 carts per user".
            let n_carts = (sample_weighted(&mut rng, &[0.40, 0.35, 0.25]) + 1)
                .min(cfg.max_carts_per_user)
                .min(cfg.num_carts - produced);
            let n_dishes = rng.gen_range(cfg.dishes_per_user.0..=cfg.dishes_per_user.1);
            let dishes = dish_dist.sample_distinct(&mut rng, n_dishes);
            for _ in 0..n_carts.max(1) {
                let cart = Self::make_cart(cfg, &library, &dishes, &noise_dist, &mut rng);
                carts.push(cart);
                cart_user.push(user);
                produced += 1;
                if produced == cfg.num_carts {
                    break;
                }
            }
            user += 1;
        }

        Self {
            library,
            product_subcategory,
            subcategory_class,
            carts,
            cart_user,
            num_users: user as usize,
        }
    }

    fn make_cart(
        cfg: &FoodMartConfig,
        library: &GoalLibrary,
        user_dishes: &[usize],
        noise_dist: &Zipf,
        rng: &mut StdRng,
    ) -> Activity {
        let target = rng.gen_range(cfg.cart_len.0..=cfg.cart_len.1);
        let mut items: Vec<u32> = Vec::with_capacity(target + 8);

        // Shop for one or two of the intended dishes per trip.
        let trips = rng.gen_range(1..=2.min(user_dishes.len()));
        let mut order: Vec<usize> = user_dishes.to_vec();
        partial_shuffle(&mut order, rng);
        for &dish in order.iter().take(trips) {
            let recipe = &library.implementations()[dish];
            for a in &recipe.actions {
                if rng.gen::<f64>() < cfg.dish_coverage {
                    items.push(a.raw());
                }
            }
        }

        // Trim to leave room for noise, then top up with noise items.
        let noise_target = ((target as f64) * cfg.noise_fraction).round() as usize;
        partial_shuffle(&mut items, rng);
        items.truncate(target.saturating_sub(noise_target).max(1));
        while items.len() < target {
            items.push(noise_dist.sample(rng) as u32);
        }
        Activity::from_raw(items)
    }

    /// Sparse domain-feature vector per product: weight 1 on the
    /// subcategory dimension, 0.5 on the class dimension (dimensions
    /// `0..num_subcategories` are subcategories, the rest classes). Feeds
    /// the content-based baseline and the Table 5 similarity metric.
    pub fn product_feature_vectors(&self) -> Vec<Vec<(u32, f64)>> {
        let n_sub = self.subcategory_class.len() as u32;
        self.product_subcategory
            .iter()
            .map(|&sub| {
                vec![
                    (sub, 1.0),
                    (n_sub + self.subcategory_class[sub as usize], 0.5),
                ]
            })
            .collect()
    }

    /// Carts grouped by user: `user → cart indexes`.
    pub fn user_carts(&self) -> Vec<Vec<usize>> {
        let mut by_user = vec![Vec::new(); self.num_users];
        for (cart, &u) in self.cart_user.iter().enumerate() {
            by_user[u as usize].push(cart);
        }
        by_user
    }
}

/// Fisher–Yates shuffle; `rand`'s `SliceRandom` is avoided to keep the
/// generated sequences stable across `rand` minor versions.
fn partial_shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FoodMart {
        FoodMart::generate(&FoodMartConfig::test_scale())
    }

    #[test]
    fn respects_configured_counts() {
        let cfg = FoodMartConfig::test_scale();
        let fm = small();
        assert_eq!(fm.library.len(), cfg.num_recipes);
        assert_eq!(fm.library.num_actions(), cfg.num_products);
        assert_eq!(fm.carts.len(), cfg.num_carts);
        assert_eq!(fm.cart_user.len(), cfg.num_carts);
        assert_eq!(fm.product_subcategory.len(), cfg.num_products);
        assert_eq!(fm.subcategory_class.len(), cfg.num_subcategories);
    }

    #[test]
    fn recipe_lengths_within_bounds() {
        let cfg = FoodMartConfig::test_scale();
        let fm = small();
        for imp in fm.library.implementations() {
            assert!(imp.len() >= cfg.recipe_len.0 && imp.len() <= cfg.recipe_len.1);
        }
    }

    #[test]
    fn cart_sizes_within_bounds() {
        let cfg = FoodMartConfig::test_scale();
        let fm = small();
        for cart in &fm.carts {
            assert!(!cart.is_empty());
            assert!(cart.len() <= cfg.cart_len.1);
        }
    }

    #[test]
    fn carts_reference_valid_products() {
        let cfg = FoodMartConfig::test_scale();
        let fm = small();
        for cart in &fm.carts {
            for a in cart.iter() {
                assert!(a.index() < cfg.num_products);
            }
        }
    }

    #[test]
    fn users_have_at_most_max_carts() {
        let cfg = FoodMartConfig::test_scale();
        let fm = small();
        for carts in fm.user_carts() {
            assert!(!carts.is_empty());
            assert!(carts.len() <= cfg.max_carts_per_user);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.carts, b.carts);
        assert_eq!(a.library.implementations(), b.library.implementations());
        assert_eq!(a.product_subcategory, b.product_subcategory);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = FoodMartConfig::test_scale();
        cfg.seed = 1;
        let a = FoodMart::generate(&cfg);
        cfg.seed = 2;
        let b = FoodMart::generate(&cfg);
        assert_ne!(a.carts, b.carts);
    }

    #[test]
    fn connectivity_matches_configured_shape() {
        // connectivity ≈ num_recipes × mean_len / num_products.
        let cfg = FoodMartConfig::test_scale();
        let fm = small();
        let stats = fm.library.stats();
        let expected = cfg.num_recipes as f64 * (cfg.recipe_len.0 + cfg.recipe_len.1) as f64
            / 2.0
            / cfg.num_products as f64;
        assert!(
            (stats.connectivity - expected).abs() / expected < 0.25,
            "connectivity {} vs expected {expected}",
            stats.connectivity
        );
    }

    #[test]
    fn popularity_is_skewed() {
        let fm = small();
        let m = goalrec_core::GoalModel::build(&fm.library).unwrap();
        let head = m.connectivity(ActionId::new(0));
        let tail = m.connectivity(ActionId::new((fm.library.num_actions() - 1) as u32));
        assert!(head > tail, "head {head} tail {tail}");
    }

    #[test]
    fn feature_vectors_have_subcategory_and_class() {
        let fm = small();
        let feats = fm.product_feature_vectors();
        assert_eq!(feats.len(), fm.library.num_actions());
        for (p, f) in feats.iter().enumerate() {
            assert_eq!(f.len(), 2);
            assert_eq!(f[0].0, fm.product_subcategory[p]);
            assert_eq!(f[0].1, 1.0);
            assert_eq!(f[1].1, 0.5);
        }
    }

    #[test]
    fn some_dishes_have_alternative_implementations() {
        let fm = small();
        let mut per_goal = std::collections::HashMap::new();
        for imp in fm.library.implementations() {
            *per_goal.entry(imp.goal).or_insert(0usize) += 1;
        }
        let with_variants = per_goal.values().filter(|&&c| c > 1).count();
        // ~15% of recipes are variants, so a healthy number of dishes have
        // more than one implementation.
        assert!(
            with_variants > 10,
            "only {with_variants} dishes with variants"
        );
        // Goal ids are dense: every goal below num_goals() has an impl.
        assert_eq!(per_goal.len(), fm.library.num_goals());
    }

    #[test]
    fn with_scale_shrinks_library_and_carts() {
        let cfg = FoodMartConfig::test_scale().with_scale(0.5);
        assert_eq!(cfg.num_recipes, 200);
        assert_eq!(cfg.num_carts, 75);
    }
}
