//! Association-rule mining baseline (Apriori).
//!
//! §2 of the paper argues association rules cannot replicate goal-based
//! recommendations because they are popularity-driven and conflate actions
//! co-occurring for *different* goals. This module implements classic
//! Apriori over the training activities — frequent itemsets up to a size
//! bound, then rules `X → y` filtered by confidence — so that claim can be
//! tested empirically.

use crate::training::TrainingSet;
use goalrec_core::{setops, ActionId, Activity, Recommender, Scored};
use std::collections::HashMap;

/// Mining parameters.
#[derive(Debug, Clone)]
pub struct AprioriConfig {
    /// Minimum support as an absolute transaction count.
    pub min_support: usize,
    /// Minimum rule confidence in `[0, 1]`.
    pub min_confidence: f64,
    /// Maximum itemset size (antecedent size + 1). 3 keeps mining tractable
    /// on cart-sized transactions.
    pub max_itemset_size: usize,
}

impl Default for AprioriConfig {
    fn default() -> Self {
        Self {
            min_support: 4,
            min_confidence: 0.2,
            max_itemset_size: 3,
        }
    }
}

/// One mined rule `antecedent → consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Sorted antecedent item ids.
    pub antecedent: Vec<u32>,
    /// The single consequent item.
    pub consequent: u32,
    /// Rule confidence `support(X ∪ {y}) / support(X)`.
    pub confidence: f64,
    /// Absolute support of the full itemset.
    pub support: usize,
}

/// The association-rule recommender.
#[derive(Debug, Clone)]
pub struct Apriori {
    rules: Vec<Rule>,
}

impl Apriori {
    /// Mines rules from the training corpus.
    pub fn mine(training: &TrainingSet, cfg: &AprioriConfig) -> Self {
        assert!(cfg.max_itemset_size >= 2, "rules need itemsets of size ≥ 2");
        let transactions: Vec<&[u32]> = training.users.iter().map(|u| u.raw()).collect();

        // Level 1: frequent single items.
        let mut item_support: HashMap<u32, usize> = HashMap::new();
        for t in &transactions {
            for &a in *t {
                *item_support.entry(a).or_insert(0) += 1;
            }
        }
        let mut frequent: Vec<(Vec<u32>, usize)> = item_support
            .iter()
            .filter(|&(_, &s)| s >= cfg.min_support)
            .map(|(&a, &s)| (vec![a], s))
            .collect();
        frequent.sort_by(|a, b| a.0.cmp(&b.0));

        let mut support_of: HashMap<Vec<u32>, usize> = frequent.iter().cloned().collect();
        let mut level = frequent;

        for _size in 2..=cfg.max_itemset_size {
            // Candidate generation: join sets sharing a (size−1)-prefix.
            let mut candidates: Vec<Vec<u32>> = Vec::new();
            for i in 0..level.len() {
                for j in (i + 1)..level.len() {
                    let (a, b) = (&level[i].0, &level[j].0);
                    if a[..a.len() - 1] != b[..b.len() - 1] {
                        break; // sorted level → prefixes diverge for good
                    }
                    let mut cand = a.clone();
                    cand.push(b[b.len() - 1]);
                    // Prune: all (size−1)-subsets must be frequent.
                    let all_frequent = (0..cand.len()).all(|drop| {
                        let mut sub = cand.clone();
                        sub.remove(drop);
                        support_of.contains_key(&sub)
                    });
                    if all_frequent {
                        candidates.push(cand);
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            // Count support by enumerating each transaction's size-_size_
            // subsets over level-1 frequent items and probing the candidate
            // set — O(Σ C(|t|, size)) instead of |candidates| × |T| scans,
            // which is what makes mining tractable on 20k carts.
            let candidate_set: std::collections::HashSet<&[u32]> =
                candidates.iter().map(Vec::as_slice).collect();
            let frequent_items: std::collections::HashSet<u32> = support_of
                .keys()
                .filter(|k| k.len() == 1)
                .map(|k| k[0])
                .collect();
            let size = candidates[0].len();
            let mut counts: HashMap<&[u32], usize> = HashMap::new();
            let mut scratch = Vec::with_capacity(size);
            for t in &transactions {
                let filtered: Vec<u32> = t
                    .iter()
                    .copied()
                    .filter(|a| frequent_items.contains(a))
                    .collect();
                if filtered.len() < size {
                    continue;
                }
                for_each_combination(&filtered, size, &mut scratch, &mut |subset| {
                    if let Some(&key) = candidate_set.get(subset) {
                        *counts.entry(key).or_insert(0) += 1;
                    }
                });
            }
            let mut next: Vec<(Vec<u32>, usize)> = counts
                .into_iter()
                .filter(|&(_, s)| s >= cfg.min_support)
                .map(|(k, s)| (k.to_vec(), s))
                .collect();
            next.sort_by(|a, b| a.0.cmp(&b.0));
            if next.is_empty() {
                break;
            }
            for (k, s) in &next {
                support_of.insert(k.clone(), *s);
            }
            level = next;
        }

        // Rule generation: for every frequent itemset of size ≥ 2, peel off
        // each single item as the consequent.
        let mut rules = Vec::new();
        for (itemset, &support) in &support_of {
            if itemset.len() < 2 {
                continue;
            }
            for (pos, &consequent) in itemset.iter().enumerate() {
                let mut antecedent = itemset.clone();
                antecedent.remove(pos);
                // Subsets of frequent sets are frequent (the a-priori
                // property), so the antecedent is always present; skip the
                // rule rather than abort if that invariant ever breaks.
                let Some(ante_support) = support_of.get(&antecedent).copied() else {
                    continue;
                };
                let confidence = support as f64 / ante_support as f64;
                if confidence >= cfg.min_confidence {
                    rules.push(Rule {
                        antecedent,
                        consequent,
                        confidence,
                        support,
                    });
                }
            }
        }
        rules.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.antecedent.cmp(&b.antecedent))
                .then_with(|| a.consequent.cmp(&b.consequent))
        });
        Self { rules }
    }
}

/// Calls `f` on every sorted `size`-combination of `items` (which must be
/// sorted), using `scratch` as the working buffer.
fn for_each_combination(
    items: &[u32],
    size: usize,
    scratch: &mut Vec<u32>,
    f: &mut impl FnMut(&[u32]),
) {
    if scratch.len() == size {
        f(scratch);
        return;
    }
    let needed = size - scratch.len();
    for (i, &item) in items.iter().enumerate() {
        if items.len() - i < needed {
            break;
        }
        scratch.push(item);
        for_each_combination(&items[i + 1..], size, scratch, f);
        scratch.pop();
    }
}

impl Recommender for Apriori {
    fn name(&self) -> String {
        "Apriori".to_owned()
    }

    fn recommend(&self, activity: &Activity, k: usize) -> Vec<Scored> {
        if k == 0 || activity.is_empty() {
            return Vec::new();
        }
        // Score each candidate by the best firing rule's confidence; break
        // confidence ties with support (scaled into the fraction digits so
        // confidence dominates).
        let mut best: HashMap<u32, f64> = HashMap::new();
        for rule in &self.rules {
            if activity.contains(ActionId::new(rule.consequent)) {
                continue;
            }
            if setops::intersection_len(&rule.antecedent, activity.raw()) == rule.antecedent.len() {
                let score = rule.confidence + (rule.support as f64).min(1e6) * 1e-9;
                let e = best.entry(rule.consequent).or_insert(0.0);
                if score > *e {
                    *e = score;
                }
            }
        }
        goalrec_core::topk::top_k(
            best.into_iter()
                .map(|(a, s)| Scored::new(ActionId::new(a), s)),
            k,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Beer–diapers style corpus: {0,1} co-occur strongly; 2 tags along
    /// half the time; 3 is frequent alone.
    fn training() -> TrainingSet {
        let mut users = Vec::new();
        for i in 0..8 {
            let mut t = vec![0u32, 1];
            if i % 2 == 0 {
                t.push(2);
            }
            users.push(Activity::from_raw(t));
        }
        for _ in 0..6 {
            users.push(Activity::from_raw([3u32]));
        }
        TrainingSet::new(users, 5)
    }

    fn mined() -> Apriori {
        Apriori::mine(
            &training(),
            &AprioriConfig {
                min_support: 3,
                min_confidence: 0.3,
                max_itemset_size: 3,
            },
        )
    }

    #[test]
    fn mines_expected_rules() {
        let ap = mined();
        // 0→1 should exist with confidence 1.0 (always together).
        let r = ap
            .rules
            .iter()
            .find(|r| r.antecedent == vec![0] && r.consequent == 1)
            .expect("rule 0→1 missing");
        assert_eq!(r.confidence, 1.0);
        assert_eq!(r.support, 8);
        // {0,1}→2 has confidence 0.5.
        let r2 = ap
            .rules
            .iter()
            .find(|r| r.antecedent == vec![0, 1] && r.consequent == 2)
            .expect("rule {0,1}→2 missing");
        assert!((r2.confidence - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_rules_for_isolated_items() {
        let ap = mined();
        assert!(ap.rules.iter().all(|r| r.consequent != 3));
        assert!(ap.rules.iter().all(|r| !r.antecedent.contains(&3)));
    }

    #[test]
    fn recommends_rule_consequents() {
        let ap = mined();
        let recs = ap.recommend(&Activity::from_raw([0]), 5);
        let ids: Vec<u32> = recs.iter().map(|r| r.action.raw()).collect();
        assert_eq!(ids[0], 1, "strongest consequent first: {recs:?}");
        assert!(ids.contains(&2));
        assert!(!ids.contains(&3), "popular-but-uncorrelated item excluded");
    }

    #[test]
    fn firing_requires_full_antecedent() {
        let ap = mined();
        // Activity {2}: rules with antecedent {0,1} or {0} don't fire from
        // item 2 alone except those with antecedent {2}.
        let recs = ap.recommend(&Activity::from_raw([2]), 5);
        for r in &recs {
            assert_ne!(r.action.raw(), 3);
        }
    }

    #[test]
    fn never_recommends_performed() {
        let ap = mined();
        let h = Activity::from_raw([0, 1]);
        for r in ap.recommend(&h, 5) {
            assert!(!h.contains(r.action));
        }
    }

    #[test]
    fn support_threshold_filters() {
        let strict = Apriori::mine(
            &training(),
            &AprioriConfig {
                min_support: 100,
                min_confidence: 0.1,
                max_itemset_size: 3,
            },
        );
        assert!(strict.rules.is_empty());
        assert!(strict.recommend(&Activity::from_raw([0]), 5).is_empty());
    }

    #[test]
    fn empty_inputs() {
        let ap = mined();
        assert!(ap.recommend(&Activity::new(), 5).is_empty());
        assert!(ap.recommend(&Activity::from_raw([0]), 0).is_empty());
        assert_eq!(ap.name(), "Apriori");
    }

    #[test]
    fn deterministic_rule_order() {
        let a = mined();
        let b = mined();
        assert_eq!(a.rules, b.rules);
    }
}
