//! The shared experimental setup of §6: datasets, trained methods, and
//! precomputed recommendation lists.
//!
//! Every table and figure of the paper aggregates the same underlying
//! artefact — the top-k lists each method produces for each input
//! activity. [`EvalContext::build`] materialises those lists once (the
//! expensive step, parallelised over inputs), and the per-experiment
//! modules reduce them into the published statistics.

use goalrec_baselines::{
    AlsConfig, AlsWr, Apriori, AprioriConfig, CfKnn, ContentBased, ItemFeatures, Popularity,
    TrainingSet,
};
use goalrec_core::{
    batch::recommend_batch_actions, ActionId, Activity, GoalModel, GoalRecommender, Recommender,
};
use goalrec_datasets::{
    hide_split_all, FoodMart, FoodMartConfig, FortyThings, FortyThingsConfig, SplitActivity,
};
use std::sync::Arc;

/// Canonical method names, in the order the paper's tables list them.
pub(crate) mod method {
    /// Focus with the completeness measure (§5.1).
    pub(crate) const FOCUS_CMP: &str = "Focus_cmp";
    /// Content-based filtering.
    pub(crate) const CONTENT: &str = "Content";
    /// Collaborative filtering, user kNN.
    pub(crate) const CF_KNN: &str = "CF-kNN";
    /// Collaborative filtering, ALS-WR matrix factorisation.
    pub(crate) const CF_MF: &str = "CF-MF";
    /// Popularity reference.
    pub(crate) const POPULARITY: &str = "Popularity";
}

/// Configuration of one full evaluation run.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// FoodMart generator parameters.
    pub foodmart: FoodMartConfig,
    /// 43Things generator parameters.
    pub fortythree: FortyThingsConfig,
    /// Recommendation list length (the paper reports top-10, with top-5
    /// prefixes for Fig. 4).
    pub k: usize,
    /// Cap on the number of FoodMart input carts (None = all).
    pub max_foodmart_inputs: Option<usize>,
    /// Cap on the number of 43Things input users (None = all).
    pub max_fortythree_inputs: Option<usize>,
    /// CF-kNN neighbourhood size.
    pub knn_neighbourhood: usize,
    /// ALS-WR hyper-parameters.
    pub als: AlsConfig,
    /// Apriori mining parameters.
    pub apriori: AprioriConfig,
    /// Visible fraction for the 43Things hide split (paper: 0.3).
    pub visible_fraction: f64,
    /// Seed for the hide split.
    pub split_seed: u64,
}

impl EvalConfig {
    /// Full paper-scale run (minutes, release build).
    pub fn paper_scale() -> Self {
        Self {
            foodmart: FoodMartConfig::paper_scale(),
            fortythree: FortyThingsConfig::paper_scale(),
            k: 10,
            max_foodmart_inputs: None,
            max_fortythree_inputs: None,
            knn_neighbourhood: 50,
            als: AlsConfig::default(),
            apriori: AprioriConfig {
                min_support: 20,
                min_confidence: 0.2,
                max_itemset_size: 3,
            },
            visible_fraction: 0.3,
            split_seed: 0x5EED,
        }
    }

    /// Large run: the 43Things side at **full paper scale** and FoodMart
    /// at 1/4 scale with 5 000 input carts — the biggest configuration
    /// that completes in minutes on a single core. (`paper_scale` is exact
    /// but its Best Match pass over 20 500 carts at connectivity ≈1.2k
    /// wants a many-core machine.)
    pub fn large_scale() -> Self {
        let mut cfg = Self::paper_scale();
        cfg.foodmart = FoodMartConfig::paper_scale().with_scale(0.25);
        cfg.max_foodmart_inputs = Some(5_000);
        cfg.max_fortythree_inputs = None; // all 8 071 users
        cfg.apriori.min_support = 10;
        cfg
    }

    /// Reduced-scale run with the paper's shape (seconds, release build).
    /// Default for the `repro` harness.
    pub fn medium_scale() -> Self {
        let mut cfg = Self::paper_scale();
        cfg.foodmart = FoodMartConfig::paper_scale().with_scale(0.1);
        cfg.fortythree = FortyThingsConfig {
            num_goals: 800,
            num_actions: 1_200,
            num_impls: 3_800,
            num_users: 1_600,
            num_families: 90,
            ..FortyThingsConfig::paper_scale()
        };
        cfg.max_foodmart_inputs = Some(1_500);
        cfg.max_fortythree_inputs = Some(1_600);
        cfg.apriori.min_support = 8;
        cfg
    }

    /// Miniature run for unit tests (sub-second, debug build).
    pub fn test_scale() -> Self {
        Self {
            foodmart: FoodMartConfig::test_scale(),
            fortythree: FortyThingsConfig::test_scale(),
            k: 10,
            max_foodmart_inputs: Some(60),
            max_fortythree_inputs: Some(80),
            knn_neighbourhood: 10,
            als: AlsConfig {
                num_factors: 8,
                num_iterations: 4,
                ..AlsConfig::default()
            },
            apriori: AprioriConfig {
                min_support: 3,
                min_confidence: 0.2,
                max_itemset_size: 2,
            },
            visible_fraction: 0.3,
            split_seed: 0x5EED,
        }
    }
}

/// One method's precomputed lists: `lists[i]` is the top-k for input `i`.
#[derive(Debug, Clone)]
pub struct MethodLists {
    /// Canonical method name (see [`method`]).
    pub name: String,
    /// Whether this is one of the four goal-based mechanisms.
    pub goal_based: bool,
    /// The top-k lists, parallel to the bundle's inputs.
    pub lists: Vec<Vec<ActionId>>,
}

/// Everything the FoodMart-side experiments consume.
pub struct FoodmartEval {
    /// The generated dataset.
    pub data: FoodMart,
    /// The compiled goal model over the recipe library.
    pub model: Arc<GoalModel>,
    /// Input activities (sampled carts).
    pub inputs: Vec<Activity>,
    /// Index of each input in `data.carts`.
    pub input_carts: Vec<usize>,
    /// Per-input ground truth: actions in the *other* carts of the same
    /// user (sorted), for the Fig. 4 TPR study.
    pub other_cart_actions: Vec<Vec<ActionId>>,
    /// Product domain features.
    pub features: ItemFeatures,
    /// Selection counts per action over all carts (Table 3 popularity).
    pub activity_counts: Vec<u32>,
    /// Precomputed lists per method.
    pub methods: Vec<MethodLists>,
}

/// Everything the 43Things-side experiments consume.
pub struct FortyThreeEval {
    /// The generated dataset.
    pub data: FortyThings,
    /// The compiled goal model over the implementation library.
    pub model: Arc<GoalModel>,
    /// Hide splits of the sampled users' full activities.
    pub splits: Vec<SplitActivity>,
    /// Index of each input in `data.full_activities`.
    pub input_users: Vec<usize>,
    /// Visible activities (the recommender inputs), parallel to `splits`.
    pub inputs: Vec<Activity>,
    /// Selection counts per action over all full activities.
    pub activity_counts: Vec<u32>,
    /// Precomputed lists per method (no Content: the paper notes the
    /// dataset has no accepted domain features).
    pub methods: Vec<MethodLists>,
}

/// The full §6 setup.
pub struct EvalContext {
    /// Evaluation configuration used to build this context.
    pub cfg: EvalConfig,
    /// FoodMart side.
    pub foodmart: FoodmartEval,
    /// 43Things side.
    pub fortythree: FortyThreeEval,
}

impl EvalContext {
    /// Generates both datasets, trains every method, and precomputes all
    /// recommendation lists.
    pub fn build(cfg: EvalConfig) -> Self {
        let _span = goalrec_obs::Timer::scoped(goalrec_obs::names::EVAL_CONTEXT_BUILD);
        let foodmart = {
            let _span = goalrec_obs::Timer::scoped(goalrec_obs::names::EVAL_CONTEXT_FOODMART);
            build_foodmart(&cfg)
        };
        let fortythree = {
            let _span = goalrec_obs::Timer::scoped(goalrec_obs::names::EVAL_CONTEXT_FORTYTHREE);
            build_fortythree(&cfg)
        };
        Self {
            cfg,
            foodmart,
            fortythree,
        }
    }
}

fn build_foodmart(cfg: &EvalConfig) -> FoodmartEval {
    let data = FoodMart::generate(&cfg.foodmart);
    #[expect(
        clippy::expect_used,
        reason = "generated eval libraries are never empty, and the context builder has no error channel"
    )]
    let model = Arc::new(GoalModel::build(&data.library).expect("non-empty library"));

    let n_inputs = cfg
        .max_foodmart_inputs
        .unwrap_or(data.carts.len())
        .min(data.carts.len());
    let input_carts: Vec<usize> = (0..n_inputs).collect();
    let inputs: Vec<Activity> = input_carts.iter().map(|&i| data.carts[i].clone()).collect();

    // Ground truth for TPR: the user's other carts.
    let user_carts = data.user_carts();
    let other_cart_actions: Vec<Vec<ActionId>> = input_carts
        .iter()
        .map(|&cart| {
            let user = data.cart_user[cart] as usize;
            let mut ids: Vec<u32> = Vec::new();
            for &other in &user_carts[user] {
                if other != cart {
                    ids.extend_from_slice(data.carts[other].raw());
                }
            }
            goalrec_core::setops::normalize(&mut ids);
            ids.into_iter().map(ActionId::new).collect()
        })
        .collect();

    let training = TrainingSet::new(data.carts.clone(), data.library.num_actions());
    let activity_counts = training.action_counts();
    let features = ItemFeatures::new(data.product_feature_vectors());

    let mut methods = goal_based_methods(&model, &inputs, cfg.k);
    let standard: Vec<Box<dyn Recommender>> = vec![
        Box::new(ContentBased::new(ItemFeatures::new(
            data.product_feature_vectors(),
        ))),
        Box::new(CfKnn::tanimoto(training.clone(), cfg.knn_neighbourhood)),
        Box::new(AlsWr::train(&training, cfg.als.clone())),
        Box::new(Apriori::mine(&training, &cfg.apriori)),
        Box::new(Popularity::from_training(&training)),
    ];
    for rec in &standard {
        methods.push(MethodLists {
            name: rec.name(),
            goal_based: false,
            lists: recommend_batch_actions(rec.as_ref(), &inputs, cfg.k),
        });
    }

    FoodmartEval {
        data,
        model,
        inputs,
        input_carts,
        other_cart_actions,
        features,
        activity_counts,
        methods,
    }
}

fn build_fortythree(cfg: &EvalConfig) -> FortyThreeEval {
    let data = FortyThings::generate(&cfg.fortythree);
    #[expect(
        clippy::expect_used,
        reason = "generated eval libraries are never empty, and the context builder has no error channel"
    )]
    let model = Arc::new(GoalModel::build(&data.library).expect("non-empty library"));

    let n_inputs = cfg
        .max_fortythree_inputs
        .unwrap_or(data.full_activities.len())
        .min(data.full_activities.len());
    let input_users: Vec<usize> = (0..n_inputs).collect();
    let sampled: Vec<Activity> = input_users
        .iter()
        .map(|&u| data.full_activities[u].clone())
        .collect();
    let splits = hide_split_all(&sampled, cfg.visible_fraction, cfg.split_seed);
    let inputs: Vec<Activity> = splits.iter().map(|s| s.visible.clone()).collect();

    // CF baselines train on the *visible* parts of all users (the
    // information a deployed system would actually have).
    let training = TrainingSet::new(
        hide_split_all(&data.full_activities, cfg.visible_fraction, cfg.split_seed)
            .into_iter()
            .map(|s| s.visible)
            .collect(),
        data.library.num_actions(),
    );
    let activity_counts = {
        let full = TrainingSet::new(data.full_activities.clone(), data.library.num_actions());
        full.action_counts()
    };

    let mut methods = goal_based_methods(&model, &inputs, cfg.k);
    let standard: Vec<Box<dyn Recommender>> = vec![
        Box::new(CfKnn::tanimoto(training.clone(), cfg.knn_neighbourhood)),
        Box::new(AlsWr::train(&training, cfg.als.clone())),
        Box::new(Apriori::mine(&training, &cfg.apriori)),
        Box::new(Popularity::from_training(&training)),
    ];
    for rec in &standard {
        methods.push(MethodLists {
            name: rec.name(),
            goal_based: false,
            lists: recommend_batch_actions(rec.as_ref(), &inputs, cfg.k),
        });
    }

    FortyThreeEval {
        data,
        model,
        splits,
        input_users,
        inputs,
        activity_counts,
        methods,
    }
}

fn goal_based_methods(model: &Arc<GoalModel>, inputs: &[Activity], k: usize) -> Vec<MethodLists> {
    GoalRecommender::all_strategies(Arc::clone(model))
        .into_iter()
        .map(|rec| MethodLists {
            name: rec.name(),
            goal_based: true,
            lists: recommend_batch_actions(&rec, inputs, k),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> EvalContext {
        EvalContext::build(EvalConfig::test_scale())
    }

    #[test]
    fn builds_all_methods_in_canonical_order() {
        let c = ctx();
        let fm_names: Vec<&str> = c.foodmart.methods.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            fm_names,
            vec![
                "BestMatch",
                "Focus_cmp",
                "Focus_cl",
                "Breadth",
                "Content",
                "CF-kNN",
                "CF-MF",
                "Apriori",
                "Popularity"
            ]
        );
        let ft_names: Vec<&str> = c
            .fortythree
            .methods
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert!(!ft_names.contains(&"Content"));
        assert!(ft_names.contains(&"CF-kNN"));
    }

    #[test]
    fn lists_are_parallel_to_inputs_and_capped_at_k() {
        let c = ctx();
        let k = c.cfg.k;
        for m in &c.foodmart.methods {
            assert_eq!(m.lists.len(), c.foodmart.inputs.len());
            assert!(m.lists.iter().all(|l| l.len() <= k));
        }
        for m in &c.fortythree.methods {
            assert_eq!(m.lists.len(), c.fortythree.inputs.len());
            assert!(m.lists.iter().all(|l| l.len() <= k));
        }
    }

    #[test]
    fn goal_based_flags() {
        let c = ctx();
        let mut goal_based: Vec<&str> = c
            .foodmart
            .methods
            .iter()
            .filter(|m| m.goal_based)
            .map(|m| m.name.as_str())
            .collect();
        goal_based.sort_unstable();
        assert_eq!(
            goal_based,
            ["BestMatch", "Breadth", "Focus_cl", "Focus_cmp"]
        );
    }

    #[test]
    fn recommendations_exclude_inputs() {
        let c = ctx();
        for m in &c.foodmart.methods {
            for (h, list) in c.foodmart.inputs.iter().zip(&m.lists) {
                for a in list {
                    assert!(!h.contains(*a), "{} recommended a performed action", m.name);
                }
            }
        }
    }

    #[test]
    fn fortythree_truth_is_disjoint_from_input() {
        let c = ctx();
        for (input, split) in c.fortythree.inputs.iter().zip(&c.fortythree.splits) {
            for a in &split.hidden {
                assert!(!input.contains(*a));
            }
        }
    }

    #[test]
    fn goal_based_lists_are_mostly_nonempty() {
        let c = ctx();
        for m in c.foodmart.methods.iter().filter(|m| m.goal_based) {
            let nonempty = m.lists.iter().filter(|l| !l.is_empty()).count();
            assert!(
                nonempty * 10 >= m.lists.len() * 9,
                "{} produced too many empty lists",
                m.name
            );
        }
    }
}
