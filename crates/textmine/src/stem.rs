//! Porter stemmer (Porter, 1980), implemented from the original paper.
//!
//! Action identification needs to conflate inflected verb forms — a story
//! saying "stopped eating at restaurants" and another saying "stop eating
//! at restaurants" describe the same action. The classic five-step Porter
//! algorithm reduces English words to stems ("stopped" → "stop",
//! "running" → "run", "relational" → "relat").

/// Stems one lowercase ASCII word. Words shorter than 3 characters are
/// returned unchanged, as in the original algorithm.
pub(crate) fn stem(word: &str) -> String {
    let mut w: Vec<u8> = word
        .bytes()
        .filter(|b| b.is_ascii_alphabetic())
        .map(|b| b.to_ascii_lowercase())
        .collect();
    if w.len() <= 2 {
        return String::from_utf8_lossy(&w).into_owned();
    }
    step_1a(&mut w);
    step_1b(&mut w);
    step_1c(&mut w);
    step_2(&mut w);
    step_3(&mut w);
    step_4(&mut w);
    step_5a(&mut w);
    step_5b(&mut w);
    String::from_utf8_lossy(&w).into_owned()
}

fn is_consonant(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => i == 0 || !is_consonant(w, i - 1),
        _ => true,
    }
}

/// The *measure* m of the stem `w[..len]`: the number of VC sequences in
/// its C?(VC)^m V? form.
fn measure(w: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // Skip initial consonants.
    while i < len && is_consonant(w, i) {
        i += 1;
    }
    loop {
        // Skip vowels.
        while i < len && !is_consonant(w, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        // Skip consonants — completes one VC.
        while i < len && is_consonant(w, i) {
            i += 1;
        }
        m += 1;
    }
}

fn has_vowel(w: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_consonant(w, i))
}

fn ends_double_consonant(w: &[u8]) -> bool {
    let n = w.len();
    n >= 2 && w[n - 1] == w[n - 2] && is_consonant(w, n - 1)
}

/// *o condition: stem ends CVC where the final C is not w, x or y.
fn ends_cvc(w: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    is_consonant(w, len - 3)
        && !is_consonant(w, len - 2)
        && is_consonant(w, len - 1)
        && !matches!(w[len - 1], b'w' | b'x' | b'y')
}

fn ends_with(w: &[u8], suffix: &str) -> bool {
    w.ends_with(suffix.as_bytes())
}

fn replace_suffix(w: &mut Vec<u8>, suffix: &str, replacement: &str) {
    let new_len = w.len() - suffix.len();
    w.truncate(new_len);
    w.extend_from_slice(replacement.as_bytes());
}

/// Applies `old → new` if the word ends with `old` and the remaining stem
/// has measure > `min_m`. Returns true if the suffix matched (even when
/// the measure test failed), following the first-match-wins rule lists.
fn try_rule(w: &mut Vec<u8>, old: &str, new: &str, min_m: usize) -> bool {
    if !ends_with(w, old) {
        return false;
    }
    let stem_len = w.len() - old.len();
    if measure(w, stem_len) > min_m {
        replace_suffix(w, old, new);
    }
    true
}

fn step_1a(w: &mut Vec<u8>) {
    if ends_with(w, "sses") {
        replace_suffix(w, "sses", "ss");
    } else if ends_with(w, "ies") {
        replace_suffix(w, "ies", "i");
    } else if ends_with(w, "ss") {
        // keep
    } else if ends_with(w, "s") {
        w.pop();
    }
}

fn step_1b(w: &mut Vec<u8>) {
    if ends_with(w, "eed") {
        if measure(w, w.len() - 3) > 0 {
            w.pop();
        }
        return;
    }
    let stripped = if ends_with(w, "ing") && has_vowel(w, w.len() - 3) {
        w.truncate(w.len() - 3);
        true
    } else if ends_with(w, "ed") && has_vowel(w, w.len() - 2) {
        w.truncate(w.len() - 2);
        true
    } else {
        false
    };
    if stripped {
        if ends_with(w, "at") || ends_with(w, "bl") || ends_with(w, "iz") {
            w.push(b'e');
        } else if ends_double_consonant(w) && !matches!(w[w.len() - 1], b'l' | b's' | b'z') {
            w.pop();
        } else if measure(w, w.len()) == 1 && ends_cvc(w, w.len()) {
            w.push(b'e');
        }
    }
}

fn step_1c(w: &mut [u8]) {
    if ends_with(w, "y") && has_vowel(w, w.len() - 1) {
        let n = w.len();
        w[n - 1] = b'i';
    }
}

fn step_2(w: &mut Vec<u8>) {
    const RULES: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ];
    for &(old, new) in RULES {
        if try_rule(w, old, new, 0) {
            return;
        }
    }
}

fn step_3(w: &mut Vec<u8>) {
    const RULES: &[(&str, &str)] = &[
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ];
    for &(old, new) in RULES {
        if try_rule(w, old, new, 0) {
            return;
        }
    }
}

fn step_4(w: &mut Vec<u8>) {
    const RULES: &[&str] = &[
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ou",
        "ism", "ate", "iti", "ous", "ive", "ize",
    ];
    // "ion" needs the extra (s|t) condition; handle the list in order of
    // the original paper (which interleaves "ion" after "ent").
    for &old in &RULES[..11] {
        if ends_with(w, old) {
            let stem_len = w.len() - old.len();
            if measure(w, stem_len) > 1 {
                w.truncate(stem_len);
            }
            return;
        }
    }
    if ends_with(w, "ion") {
        let stem_len = w.len() - 3;
        if stem_len > 0 && matches!(w[stem_len - 1], b's' | b't') && measure(w, stem_len) > 1 {
            w.truncate(stem_len);
        }
        return;
    }
    for &old in &RULES[11..] {
        if ends_with(w, old) {
            let stem_len = w.len() - old.len();
            if measure(w, stem_len) > 1 {
                w.truncate(stem_len);
            }
            return;
        }
    }
}

fn step_5a(w: &mut Vec<u8>) {
    if ends_with(w, "e") {
        let stem_len = w.len() - 1;
        let m = measure(w, stem_len);
        if m > 1 || (m == 1 && !ends_cvc(w, stem_len)) {
            w.pop();
        }
    }
}

fn step_5b(w: &mut Vec<u8>) {
    if measure(w, w.len()) > 1 && ends_double_consonant(w) && w[w.len() - 1] == b'l' {
        w.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn canonical_examples_from_the_paper() {
        // Examples from Porter (1980).
        assert_eq!(stem("caresses"), "caress");
        assert_eq!(stem("ponies"), "poni");
        assert_eq!(stem("caress"), "caress");
        assert_eq!(stem("cats"), "cat");
        assert_eq!(stem("feed"), "feed");
        assert_eq!(stem("agreed"), "agre");
        assert_eq!(stem("plastered"), "plaster");
        assert_eq!(stem("bled"), "bled");
        assert_eq!(stem("motoring"), "motor");
        assert_eq!(stem("sing"), "sing");
        assert_eq!(stem("conflated"), "conflat");
        assert_eq!(stem("troubled"), "troubl");
        assert_eq!(stem("sized"), "size");
        assert_eq!(stem("hopping"), "hop");
        assert_eq!(stem("tanned"), "tan");
        assert_eq!(stem("falling"), "fall");
        assert_eq!(stem("hissing"), "hiss");
        assert_eq!(stem("fizzed"), "fizz");
        assert_eq!(stem("failing"), "fail");
        assert_eq!(stem("filing"), "file");
        assert_eq!(stem("happy"), "happi");
        assert_eq!(stem("sky"), "sky");
        assert_eq!(stem("relational"), "relat");
        assert_eq!(stem("conditional"), "condit");
        assert_eq!(stem("rational"), "ration");
        assert_eq!(stem("triplicate"), "triplic");
        assert_eq!(stem("formative"), "form");
        assert_eq!(stem("formalize"), "formal");
        assert_eq!(stem("revival"), "reviv");
        assert_eq!(stem("allowance"), "allow");
        assert_eq!(stem("inference"), "infer");
        assert_eq!(stem("adjustment"), "adjust");
        assert_eq!(stem("adoption"), "adopt");
        assert_eq!(stem("probate"), "probat");
        assert_eq!(stem("rate"), "rate");
        assert_eq!(stem("cease"), "ceas");
        assert_eq!(stem("controll"), "control");
        assert_eq!(stem("roll"), "roll");
    }

    #[test]
    fn verb_inflections_conflate_for_action_matching() {
        // The property the extractor relies on.
        assert_eq!(stem("stopped"), stem("stop"));
        assert_eq!(stem("running"), stem("runs"));
        assert_eq!(stem("eating"), stem("eats"));
        assert_eq!(stem("studied"), stem("study"));
        assert_eq!(stem("exercising"), stem("exercise"));
    }

    #[test]
    fn short_words_unchanged() {
        assert_eq!(stem("be"), "be");
        assert_eq!(stem("a"), "a");
        assert_eq!(stem(""), "");
        assert_eq!(stem("go"), "go");
    }

    #[test]
    fn non_alphabetic_characters_are_dropped() {
        assert_eq!(stem("run-ning"), stem("running"));
        assert_eq!(stem("Stop!"), "stop");
        assert_eq!(stem("DON'T"), "dont");
    }

    #[test]
    fn measure_computation() {
        // From the Porter paper: tr(m=0), ee(0), tree(0), y(0), by(0);
        // trouble(1), oats(1), trees(1), ivy(1); troubles(2), private(2).
        let m = |s: &str| measure(s.as_bytes(), s.len());
        assert_eq!(m("tr"), 0);
        assert_eq!(m("ee"), 0);
        assert_eq!(m("tree"), 0);
        assert_eq!(m("by"), 0);
        assert_eq!(m("trouble"), 1);
        assert_eq!(m("oats"), 1);
        assert_eq!(m("ivy"), 1);
        assert_eq!(m("troubles"), 2);
        assert_eq!(m("private"), 2);
    }

    proptest! {
        #[test]
        fn prop_stemming_is_idempotent(word in "[a-z]{1,15}") {
            let once = stem(&word);
            // A second application may shrink further only in pathological
            // Porter edge cases; classic Porter is *not* formally
            // idempotent, but stems never grow and never panic.
            let twice = stem(&once);
            prop_assert!(twice.len() <= once.len());
        }

        #[test]
        fn prop_output_is_lowercase_ascii(word in "[a-zA-Z]{0,20}") {
            let s = stem(&word);
            prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
            prop_assert!(s.len() <= word.len());
        }
    }
}
