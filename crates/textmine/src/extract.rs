//! Action identification over success-story segments.
//!
//! This is the module the paper alludes to in §3: the authors "did this
//! action extraction with a module \[they\] developed for this purpose, that
//! works on a simpler model and for plain text". The simpler model here:
//!
//! 1. split the story into segments (sentences / list items);
//! 2. a segment yields an action when a lexicon verb anchors it — in
//!    imperative position ("join a gym"), or after a first-person subject
//!    ("I joined a gym", "then I finally quit soda");
//! 3. the action key is the stemmed verb plus up to `max_object_tokens`
//!    stemmed non-stopword tokens that follow it, so "stopped eating at
//!    restaurants" and "stop eating at restaurant" collapse to the same
//!    identifier.

use crate::lexicon::{is_action_verb, is_stopword};
use crate::stem::stem;
use crate::tokenize::{segments, tokenize};

/// Extraction parameters.
#[derive(Debug, Clone)]
pub(crate) struct ExtractorConfig {
    /// Maximum non-stopword object tokens appended after the verb.
    pub max_object_tokens: usize,
    /// How deep into a segment the anchor verb may sit (imperatives sit at
    /// 0; "then I finally quit" puts it at 3).
    pub max_anchor_offset: usize,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        Self {
            max_object_tokens: 3,
            max_anchor_offset: 4,
        }
    }
}

/// An extracted action occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExtractedAction {
    /// Normalised action key, e.g. `"stop eat restaur"`.
    pub key: String,
    /// The segment the action came from (for provenance/debugging).
    pub segment: String,
}

/// The action extractor.
#[derive(Debug, Clone, Default)]
pub struct ActionExtractor {
    cfg: ExtractorConfig,
}

impl ActionExtractor {
    /// Extracts all action occurrences from a story text, in order,
    /// deduplicated by key.
    pub(crate) fn extract(&self, text: &str) -> Vec<ExtractedAction> {
        let mut out: Vec<ExtractedAction> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for segment in segments(text) {
            for chunk in split_conjunctions(&segment) {
                if let Some(key) = self.segment_action(&chunk) {
                    if seen.insert(key.clone()) {
                        out.push(ExtractedAction {
                            key,
                            segment: segment.clone(),
                        });
                    }
                }
            }
        }
        out
    }

    /// Tries to read one action from a segment: finds the first lexicon
    /// verb within the anchor window and builds the normalised key.
    fn segment_action(&self, segment: &str) -> Option<String> {
        let tokens = tokenize(segment);
        let anchor = tokens
            .iter()
            .take(self.cfg.max_anchor_offset + 1)
            .position(|t| is_action_verb(t))?;
        // Imperative ("join a gym") or first-person report ("I joined…"):
        // everything before the anchor must be stopwords (subjects,
        // adverbs); a content word before the verb means the verb is
        // probably not the predicate ("my gym membership started…" would
        // be rejected by "gym"/"membership").
        if !tokens[..anchor].iter().all(|t| is_stopword(t)) {
            return None;
        }
        let mut key = stem(&tokens[anchor]);
        let mut object_tokens = 0;
        for t in &tokens[anchor + 1..] {
            if object_tokens == self.cfg.max_object_tokens {
                break;
            }
            if is_stopword(t) {
                continue;
            }
            key.push(' ');
            key.push_str(&stem(t));
            object_tokens += 1;
        }
        Some(key)
    }
}

/// Splits a segment at coordinating "and"s that introduce a *new verb
/// phrase* ("join a gym and drink more water" → two chunks), while
/// leaving object conjunctions intact ("cut sugar and carbs" stays one
/// chunk). An "and" is a boundary when the next non-stopword word is a
/// lexicon verb.
fn split_conjunctions(segment: &str) -> Vec<String> {
    let words: Vec<&str> = segment.split_whitespace().collect();
    let mut chunks: Vec<String> = Vec::new();
    let mut start = 0usize;
    for i in 0..words.len() {
        if !words[i].eq_ignore_ascii_case("and") {
            continue;
        }
        let next_content = words[i + 1..]
            .iter()
            .map(|w| w.to_ascii_lowercase())
            .find(|w| !is_stopword(w));
        if next_content.as_deref().is_some_and(is_action_verb) && i > start {
            chunks.push(words[start..i].join(" "));
            start = i + 1;
        }
    }
    if start == 0 {
        return vec![segment.to_owned()];
    }
    if start < words.len() {
        chunks.push(words[start..].join(" "));
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(text: &str) -> Vec<String> {
        ActionExtractor::default()
            .extract(text)
            .into_iter()
            .map(|a| a.key)
            .collect()
    }

    #[test]
    fn imperative_list_items() {
        let got = keys("1. join a gym\n2. drink more water\n3. stop eating at restaurants");
        assert_eq!(got, vec!["join gym", "drink water", "stop eat restaur"]);
    }

    #[test]
    fn first_person_reports() {
        let got = keys("I joined a gym. Then I finally quit soda.");
        assert_eq!(got, vec!["join gym", "quit soda"]);
    }

    #[test]
    fn inflections_collapse_to_one_key() {
        let a = keys("stop eating at restaurants");
        let b = keys("I stopped eating at restaurants");
        let c = keys("Stopped eating at the restaurant");
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn non_action_segments_skipped() {
        assert!(keys("The weather was lovely").is_empty());
        assert!(keys("My gym membership started in June").is_empty());
        assert!(keys("").is_empty());
    }

    #[test]
    fn anchor_window_limits_search() {
        // Verb beyond the window (offset 5 with default window 4).
        let tight = ActionExtractor {
            cfg: ExtractorConfig {
                max_object_tokens: 3,
                max_anchor_offset: 0,
            },
        };
        assert!(tight.extract("I joined a gym").is_empty()); // anchor at 1
        assert_eq!(tight.extract("join a gym").len(), 1); // anchor at 0
    }

    #[test]
    fn object_tokens_capped() {
        let short = ActionExtractor {
            cfg: ExtractorConfig {
                max_object_tokens: 1,
                max_anchor_offset: 4,
            },
        };
        let got = short.extract("stop eating greasy fried food");
        assert_eq!(got[0].key, "stop eat");
    }

    #[test]
    fn duplicates_within_story_dedup() {
        let got = keys("I joined a gym. Later I joined the gym again.");
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn provenance_segment_retained() {
        let acts = ActionExtractor::default().extract("1. join a gym");
        assert_eq!(acts[0].segment, "join a gym");
    }

    #[test]
    fn content_word_before_verb_blocks_extraction() {
        assert!(keys("healthy meals take time").is_empty());
    }

    #[test]
    fn verb_conjunctions_split_into_separate_actions() {
        assert_eq!(
            keys("join a gym and drink more water"),
            vec!["join gym", "drink water"]
        );
        assert_eq!(
            keys("I joined a gym and quit soda."),
            vec!["join gym", "quit soda"]
        );
    }

    #[test]
    fn object_conjunctions_stay_one_action() {
        // "carbs" is not a verb, so the "and" is part of the object.
        assert_eq!(keys("cut sugar and carbs"), vec!["cut sugar carb"]);
    }

    #[test]
    fn stopwords_between_and_and_verb_are_skipped() {
        // "and then I quit soda" — "then"/"i" are stopwords before the verb.
        assert_eq!(
            keys("I joined a gym and then I quit soda"),
            vec!["join gym", "quit soda"]
        );
    }

    #[test]
    fn auxiliary_verb_chains_are_handled() {
        // Auxiliaries are stopwords, so the anchor lands on the gerund.
        assert_eq!(keys("I have been drinking more water"), vec!["drink water"]);
        assert_eq!(keys("I will join a gym"), vec!["join gym"]);
    }

    #[test]
    fn trailing_and_does_not_panic() {
        let got = keys("join a gym and");
        assert_eq!(got, vec!["join gym"]);
    }
}
