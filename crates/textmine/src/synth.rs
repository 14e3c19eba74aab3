//! Synthetic success-story generation.
//!
//! The authors' 43Things crawl is gone, so there is no large text corpus
//! to run the extractor on. This module generates one: given goal names
//! and per-goal action phrases, it renders stories in varied surface forms
//! (imperative lists, first-person prose, mixed inflections and filler
//! sentences) such that the extraction pipeline has to do real work —
//! segmenting, anchoring on verbs, stemming — to recover the planted
//! implementation structure.

use crate::lexicon::is_action_verb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A planted corpus: the rendered stories plus the ground-truth actions of
/// each story (in normalised phrase form, *before* stemming).
#[derive(Debug, Clone)]
pub struct SynthCorpus {
    /// Rendered stories, one per planted implementation.
    pub stories: Vec<crate::Story>,
    /// Ground truth: for each story, the action phrases planted into it.
    pub planted: Vec<Vec<String>>,
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of stories to render.
    pub num_stories: usize,
    /// Actions planted per story, inclusive range.
    pub actions_per_story: (usize, usize),
    /// Probability of rendering a story as a numbered/bulleted list rather
    /// than prose.
    pub list_probability: f64,
    /// Probability of interleaving a non-action filler sentence.
    pub filler_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            num_stories: 50,
            actions_per_story: (2, 5),
            list_probability: 0.4,
            filler_probability: 0.3,
            seed: 0x5709,
        }
    }
}

/// Built-in goal → candidate action phrases, all anchored on lexicon
/// verbs. Callers can supply their own via [`generate_with_catalog`].
pub(crate) fn default_catalog() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "lose weight",
            vec![
                "join a gym",
                "stop eating at restaurants",
                "drink more water",
                "track calories",
                "walk to work",
                "cut sugar",
                "cook at home",
            ],
        ),
        (
            "get fit",
            vec![
                "join a gym",
                "lift weights",
                "stretch every morning",
                "swim twice weekly",
                "run intervals",
            ],
        ),
        (
            "learn english",
            vec![
                "enroll in a class",
                "watch films without subtitles",
                "read novels",
                "practice with natives",
                "write a diary",
            ],
        ),
        (
            "save money",
            vec![
                "track expenses",
                "cut subscriptions",
                "cook at home",
                "stop eating at restaurants",
                "open a savings account",
            ],
        ),
        (
            "get a new job",
            vec![
                "update the resume",
                "attend meetups",
                "practice interviews",
                "learn a framework",
                "ask for referrals",
            ],
        ),
    ]
}

const FILLERS: &[&str] = &[
    "It was harder than expected.",
    "My friends were very supportive.",
    "The first week felt impossible.",
    "Honestly, the weather helped.",
    "Progress was slow but steady.",
];

/// Generates a corpus from the default catalog.
pub fn generate(cfg: &SynthConfig) -> SynthCorpus {
    let catalog: Vec<(String, Vec<String>)> = default_catalog()
        .into_iter()
        .map(|(g, acts)| (g.to_owned(), acts.into_iter().map(str::to_owned).collect()))
        .collect();
    generate_with_catalog(cfg, &catalog)
}

/// Generates a corpus from a caller-supplied goal → action-phrase catalog.
///
/// # Panics
/// Panics if the catalog is empty, any goal has no actions, or any action
/// phrase does not start with a lexicon verb (it could never be
/// extracted, making the ground truth unsatisfiable).
pub(crate) fn generate_with_catalog(
    cfg: &SynthConfig,
    catalog: &[(String, Vec<String>)],
) -> SynthCorpus {
    assert!(!catalog.is_empty(), "catalog must not be empty");
    for (goal, actions) in catalog {
        assert!(!actions.is_empty(), "goal {goal} has no actions");
        for a in actions {
            let first = a.split_whitespace().next().unwrap_or("");
            assert!(
                is_action_verb(first),
                "action phrase '{a}' does not start with a lexicon verb"
            );
        }
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut stories = Vec::with_capacity(cfg.num_stories);
    let mut planted = Vec::with_capacity(cfg.num_stories);
    for _ in 0..cfg.num_stories {
        let (goal, pool) = &catalog[rng.gen_range(0..catalog.len())];
        let n = rng
            .gen_range(cfg.actions_per_story.0..=cfg.actions_per_story.1)
            .min(pool.len());
        // Distinct actions, order shuffled.
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        for i in (1..idx.len()).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
        let chosen: Vec<String> = idx[..n].iter().map(|&i| pool[i].clone()).collect();
        let text = if rng.gen::<f64>() < cfg.list_probability {
            render_list(&chosen, &mut rng)
        } else {
            render_prose(&chosen, cfg.filler_probability, &mut rng)
        };
        stories.push(crate::Story::new(goal.clone(), text));
        planted.push(chosen);
    }
    SynthCorpus { stories, planted }
}

fn render_list(actions: &[String], rng: &mut StdRng) -> String {
    let numbered = rng.gen::<bool>();
    actions
        .iter()
        .enumerate()
        .map(|(i, a)| {
            if numbered {
                format!("{}. {a}", i + 1)
            } else {
                format!("- {a}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn render_prose(actions: &[String], filler_probability: f64, rng: &mut StdRng) -> String {
    let mut sentences = Vec::new();
    for a in actions {
        let sentence = match rng.gen_range(0..3) {
            // Every word before the planted verb is a stopword, so the
            // extractor's anchor lands on the verb itself.
            0 => format!("So I had to {a}."),
            1 => {
                let past = past_tense(a);
                if conflates(a, &past) {
                    format!("Then I {past}.")
                } else {
                    // Irregular verb: the naive past form would not stem
                    // back to the base, so keep the base form.
                    format!("After that I would {a}.")
                }
            }
            _ => format!("First, {a}."),
        };
        sentences.push(sentence);
        if rng.gen::<f64>() < filler_probability {
            sentences.push(FILLERS[rng.gen_range(0..FILLERS.len())].to_owned());
        }
    }
    sentences.join(" ")
}

/// Whether the inflected phrase stems back to the base phrase's verb —
/// the precondition for the extractor to unify the two surface forms.
fn conflates(base: &str, inflected: &str) -> bool {
    let v = |p: &str| crate::stem::stem(p.split_whitespace().next().unwrap_or(""));
    v(base) == v(inflected)
}

/// Crude past-tense inflection of the leading verb — enough surface
/// variation to exercise the stemmer ("join a gym" → "joined a gym").
fn past_tense(phrase: &str) -> String {
    let mut parts = phrase.splitn(2, ' ');
    let verb = parts.next().unwrap_or("");
    let rest = parts.next().unwrap_or("");
    let past = if verb.ends_with('e') {
        format!("{verb}d")
    } else if verb.ends_with('p') && verb.len() == 4 {
        // stop → stopped (final-consonant doubling for short CVC verbs)
        format!("{verb}{}ed", &verb[verb.len() - 1..])
    } else {
        format!("{verb}ed")
    };
    if rest.is_empty() {
        past
    } else {
        format!("{past} {rest}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_library, ActionExtractor};

    #[test]
    fn generates_requested_story_count() {
        let corpus = generate(&SynthConfig::default());
        assert_eq!(corpus.stories.len(), 50);
        assert_eq!(corpus.planted.len(), 50);
        for (story, planted) in corpus.stories.iter().zip(&corpus.planted) {
            assert!(!story.text.is_empty());
            assert!(!planted.is_empty());
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate(&SynthConfig::default());
        let b = generate(&SynthConfig::default());
        assert_eq!(a.stories, b.stories);
    }

    #[test]
    fn extraction_recovers_planted_actions() {
        // The whole point: the pipeline must recover what was planted,
        // despite inflection and filler noise.
        let corpus = generate(&SynthConfig {
            num_stories: 80,
            ..SynthConfig::default()
        });
        let extractor = ActionExtractor::default();
        let mut recovered = 0usize;
        let mut total = 0usize;
        for (story, planted) in corpus.stories.iter().zip(&corpus.planted) {
            let keys: Vec<String> = extractor
                .extract(&story.text)
                .into_iter()
                .map(|a| a.key)
                .collect();
            for phrase in planted {
                total += 1;
                // The planted phrase, extracted in isolation, gives the
                // expected key; it must appear among the story's keys.
                let expect = &extractor.extract(phrase)[0].key;
                if keys.contains(expect) {
                    recovered += 1;
                }
            }
        }
        let rate = recovered as f64 / total as f64;
        assert!(rate > 0.95, "recovery rate {rate} ({recovered}/{total})");
    }

    #[test]
    fn corpus_builds_a_recommendable_library() {
        let corpus = generate(&SynthConfig {
            num_stories: 60,
            ..SynthConfig::default()
        });
        let build = build_library(&corpus.stories, &ActionExtractor::default()).unwrap();
        assert!(build.library.len() >= 55, "too many skipped stories");
        assert!(build.library.num_goals() <= 5);
        // Shared actions across goals exist ("join a gym" serves both
        // lose-weight and get-fit).
        let stats = build.library.stats();
        assert!(
            stats.connectivity > 1.5,
            "connectivity {}",
            stats.connectivity
        );
    }

    #[test]
    fn past_tense_inflections() {
        assert_eq!(past_tense("join a gym"), "joined a gym");
        assert_eq!(past_tense("practice interviews"), "practiced interviews");
        assert_eq!(past_tense("stop eating out"), "stopped eating out");
    }

    #[test]
    #[should_panic(expected = "lexicon verb")]
    fn catalog_validation_rejects_non_verb_phrases() {
        let catalog = vec![("g".to_owned(), vec!["banana split".to_owned()])];
        generate_with_catalog(&SynthConfig::default(), &catalog);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_catalog_rejected() {
        generate_with_catalog(&SynthConfig::default(), &[]);
    }
}
