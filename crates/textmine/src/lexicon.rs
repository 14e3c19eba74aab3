//! Verb lexicon and stopwords for action identification.
//!
//! The extractor recognises a segment as an action when it is anchored on
//! a verb from this lexicon — either in imperative position ("join a gym")
//! or as a first-person past/present report ("I joined a gym"). The
//! lexicon stores *stems* so every inflection matches.

use crate::stem::stem;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Common action verbs in goal-fulfilment stories (stored unstemmed here;
/// compare via [`is_action_verb`], which stems both sides).
const ACTION_VERBS: &[&str] = &[
    "add",
    "ask",
    "attend",
    "avoid",
    "bake",
    "become",
    "begin",
    "book",
    "build",
    "buy",
    "call",
    "change",
    "check",
    "choose",
    "clean",
    "close",
    "commit",
    "complete",
    "cook",
    "count",
    "create",
    "cut",
    "decide",
    "download",
    "drink",
    "eat",
    "enroll",
    "exercise",
    "find",
    "finish",
    "follow",
    "get",
    "give",
    "go",
    "grow",
    "hire",
    "install",
    "join",
    "jog",
    "keep",
    "learn",
    "leave",
    "limit",
    "listen",
    "lift",
    "make",
    "measure",
    "meditate",
    "meet",
    "move",
    "open",
    "organize",
    "pay",
    "plan",
    "practice",
    "prepare",
    "quit",
    "read",
    "record",
    "reduce",
    "register",
    "remove",
    "run",
    "save",
    "schedule",
    "set",
    "sign",
    "sleep",
    "speak",
    "start",
    "stop",
    "stretch",
    "study",
    "swim",
    "take",
    "talk",
    "track",
    "train",
    "travel",
    "try",
    "turn",
    "update",
    "use",
    "visit",
    "volunteer",
    "wake",
    "walk",
    "watch",
    "write",
];

/// English stopwords dropped from action phrases (pronouns, articles,
/// auxiliaries, common prepositions).
const STOPWORDS: &[&str] = &[
    "a", "about", "after", "again", "all", "also", "am", "an", "and", "any", "are", "as", "at",
    "be", "because", "been", "before", "being", "but", "by", "can", "could", "did", "do", "does",
    "doing", "down", "each", "every", "few", "finally", "first", "for", "from", "had", "has",
    "have", "having", "he", "her", "here", "him", "his", "how", "i", "if", "in", "into", "is",
    "it", "its", "just", "me", "more", "most", "my", "myself", "next", "no", "not", "now", "of",
    "off", "on", "once", "only", "or", "other", "our", "out", "over", "own", "really", "she",
    "should", "so", "some", "soon", "such", "than", "that", "the", "their", "them", "then",
    "there", "these", "they", "this", "those", "through", "to", "too", "under", "until", "up",
    "very", "was", "we", "were", "what", "when", "where", "which", "while", "who", "why", "will",
    "with", "would", "you", "your",
];

fn verb_stems() -> &'static HashSet<String> {
    static SET: OnceLock<HashSet<String>> = OnceLock::new();
    SET.get_or_init(|| ACTION_VERBS.iter().map(|v| stem(v)).collect())
}

fn stopword_set() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| STOPWORDS.iter().copied().collect())
}

/// Whether a (lowercase) token is an action verb in any inflection.
pub(crate) fn is_action_verb(token: &str) -> bool {
    verb_stems().contains(stem(token).as_str())
}

/// Whether a (lowercase) token is a stopword.
pub(crate) fn is_stopword(token: &str) -> bool {
    stopword_set().contains(token)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflections_match_the_lexicon() {
        for v in ["join", "joined", "joining", "joins"] {
            assert!(is_action_verb(v), "{v}");
        }
        assert!(is_action_verb("stopped"));
        assert!(is_action_verb("studies"));
        assert!(is_action_verb("exercising"));
    }

    #[test]
    fn non_verbs_rejected() {
        for w in ["gym", "restaurant", "water", "the", "happy"] {
            assert!(!is_action_verb(w), "{w}");
        }
    }

    #[test]
    fn stopwords_detected() {
        for w in ["the", "i", "at", "to", "was"] {
            assert!(is_stopword(w), "{w}");
        }
        for w in ["gym", "run", "sugar"] {
            assert!(!is_stopword(w), "{w}");
        }
    }

    #[test]
    fn lexicon_entries_are_lowercase_and_sorted_for_review() {
        for list in [ACTION_VERBS, STOPWORDS] {
            for w in list {
                assert_eq!(*w, w.to_ascii_lowercase());
            }
        }
    }
}
