//! Tokenisation and segment splitting for success-story text.
//!
//! Stories on goal-sharing sites mix prose ("First I joined a gym. Then I
//! stopped eating out.") with enumerations ("1. join a gym\n2. eat less").
//! The extractor works segment-by-segment, where a segment is a sentence
//! or a list item — the same structural cues (punctuation, enumeration)
//! the extraction literature cited in §3 uses.

/// Lowercase word tokens of a segment; alphabetic runs only, apostrophes
/// collapsed ("don't" → "dont").
pub(crate) fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_ascii_alphabetic() {
            current.push(ch.to_ascii_lowercase());
        } else if ch == '\'' {
            // join contractions
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Splits a story into segments: list items (lines starting with a bullet
/// or `N.`/`N)` enumerator) and sentences (split on `.`, `!`, `?`, `;`).
pub(crate) fn segments(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let body = strip_enumerator(trimmed);
        if body.len() != trimmed.len() {
            // Enumerated list item: one segment, whole line.
            let body = body.trim();
            if !body.is_empty() {
                out.push(body.to_owned());
            }
            continue;
        }
        for sentence in trimmed.split(['.', '!', '?', ';']) {
            let s = sentence.trim();
            if !s.is_empty() {
                out.push(s.to_owned());
            }
        }
    }
    out
}

/// Removes a leading list enumerator (`-`, `*`, `•`, `1.`, `2)` …),
/// returning the remainder (or the input unchanged when there is none).
fn strip_enumerator(line: &str) -> &str {
    let l = line.trim_start();
    if let Some(rest) = l.strip_prefix(['-', '*', '•']) {
        return rest;
    }
    let digits = l.chars().take_while(|c| c.is_ascii_digit()).count();
    if digits > 0 {
        let after = &l[digits..];
        if let Some(rest) = after.strip_prefix(['.', ')']) {
            return rest;
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_lowercase_words() {
        assert_eq!(
            tokenize("Stopped eating at Restaurants!"),
            vec!["stopped", "eating", "at", "restaurants"]
        );
    }

    #[test]
    fn contractions_join() {
        assert_eq!(tokenize("don't stop"), vec!["dont", "stop"]);
    }

    #[test]
    fn numbers_and_punctuation_split_tokens() {
        assert_eq!(tokenize("run 5km/day"), vec!["run", "km", "day"]);
        assert!(tokenize("123 456").is_empty());
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn sentences_split_on_terminators() {
        let segs = segments("I joined a gym. Then I ran; it helped! Really?");
        assert_eq!(
            segs,
            vec!["I joined a gym", "Then I ran", "it helped", "Really"]
        );
    }

    #[test]
    fn list_items_are_single_segments() {
        let segs = segments("1. join a gym\n2) eat less sugar\n- drink more water\n* sleep early");
        assert_eq!(
            segs,
            vec![
                "join a gym",
                "eat less sugar",
                "drink more water",
                "sleep early"
            ]
        );
    }

    #[test]
    fn list_item_with_inner_period_stays_whole() {
        let segs = segments("- run 5km. every morning");
        assert_eq!(segs, vec!["run 5km. every morning"]);
    }

    #[test]
    fn mixed_prose_and_lists() {
        let segs = segments("Here is what I did.\n1. quit soda\nIt worked. Truly.");
        assert_eq!(
            segs,
            vec!["Here is what I did", "quit soda", "It worked", "Truly"]
        );
    }

    #[test]
    fn blank_lines_and_bare_enumerators_skipped() {
        let segs = segments("\n\n1.\n- \nreal content");
        assert_eq!(segs, vec!["real content"]);
    }

    #[test]
    fn strip_enumerator_leaves_plain_lines() {
        assert_eq!(strip_enumerator("plain line"), "plain line");
        assert_eq!(strip_enumerator("12 monkeys"), "12 monkeys");
    }
}
