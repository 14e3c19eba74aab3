//! A minimal string-, comment- and attribute-aware Rust scanner.
//!
//! The container is registry-less, so `goalrec-lint` cannot pull in a real
//! Rust parser; this hand-rolled lexer covers exactly what the rules need:
//!
//! * comments are skipped (and mined for `goalrec-lint:allow` directives);
//! * string/char/lifetime literals are tokenized, never confused with
//!   code (including raw/byte strings and nested block comments);
//! * `#[cfg(test)]` / `#[test]` / `#[bench]` items are resolved to line
//!   ranges so rules can exempt test code.
//!
//! Everything that is not an identifier or a string literal comes out as a
//! single-character punctuation token; numbers are consumed and dropped.

/// One meaningful token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// String literal content (escapes kept verbatim, delimiters stripped).
    Str(String),
    /// Any other non-whitespace character.
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

/// An inline `goalrec-lint:allow` comment directive: the rules it names in
/// parentheses, then a `: justification` tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Line the comment sits on; it suppresses findings on this line and
    /// the next one.
    pub line: u32,
    /// Rule identifiers listed inside the parentheses.
    pub rules: Vec<String>,
    /// Free-text justification after the closing parenthesis (mandatory —
    /// the engine reports empty justifications as findings).
    pub justification: String,
}

/// A comment's text and the lines it spans (equal for line comments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on.
    pub end_line: u32,
    /// Comment text, delimiters included.
    pub text: String,
}

impl Comment {
    /// Whether this comment can annotate code on `line`: it sits on the
    /// same line (trailing) or ends on the line directly above.
    pub fn annotates(&self, line: u32) -> bool {
        self.line <= line && line <= self.end_line + 1
    }
}

/// The full scan result for one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream, comments and whitespace removed.
    pub tokens: Vec<Token>,
    /// All suppression directives found in comments.
    pub suppressions: Vec<Suppression>,
    /// Inclusive line ranges covered by test-only items.
    pub test_ranges: Vec<(u32, u32)>,
    /// Every comment, in source order (mined for justification tags).
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// Whether a line falls inside a `#[cfg(test)]`/`#[test]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// Whether a comment containing `tag` annotates `line` (trailing on
    /// the same line or ending on the line above).
    pub fn has_comment_tag(&self, line: u32, tag: &str) -> bool {
        self.comments
            .iter()
            .any(|c| c.annotates(line) && c.text.contains(tag))
    }
}

const SUPPRESSION_DIRECTIVE: &str = "goalrec-lint:allow(";

/// Scans one Rust source file.
pub fn lex(src: &str) -> Lexed {
    let cs: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut suppressions = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < cs.len() {
        let c = cs[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && cs.get(i + 1) == Some(&'/') {
            let start = i;
            while i < cs.len() && cs[i] != '\n' {
                i += 1;
            }
            let text: String = cs[start..i].iter().collect();
            // Doc comments (`///`, `//!`) are prose: one that quotes the
            // directive syntax is not a directive.
            let doc = text.starts_with("///") || text.starts_with("//!");
            if let Some(s) = parse_suppression(&text, line).filter(|_| !doc) {
                suppressions.push(s);
            }
            // A run of `//` lines with no code between them is one logical
            // comment block: merge so a tag anywhere in the block annotates
            // the line after its last line. Any code on or after the block's
            // first line (a trailing comment, or code before this one) breaks
            // the run and starts a fresh block instead.
            let last_tok_line = tokens.last().map(|t: &Token| t.line);
            match comments.last_mut() {
                Some(prev)
                    if prev.text.starts_with("//")
                        && prev.end_line + 1 == line
                        && last_tok_line.is_none_or(|l| l < prev.line) =>
                {
                    prev.end_line = line;
                    prev.text.push('\n');
                    prev.text.push_str(&text);
                }
                _ => comments.push(Comment {
                    line,
                    end_line: line,
                    text,
                }),
            }
        } else if c == '/' && cs.get(i + 1) == Some(&'*') {
            let start = i;
            let start_line = line;
            let mut depth = 1;
            i += 2;
            while i < cs.len() && depth > 0 {
                if cs[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if cs[i] == '/' && cs.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if cs[i] == '*' && cs.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            comments.push(Comment {
                line: start_line,
                end_line: line,
                text: cs[start..i].iter().collect(),
            });
        } else if c == '"' {
            let (tok, ni, nl) = lex_plain_string(&cs, i, line);
            tokens.push(tok);
            i = ni;
            line = nl;
        } else if (c == 'r' || c == 'b') && starts_raw_or_byte_string(&cs, i) {
            let (tok, ni, nl) = lex_prefixed_string(&cs, i, line);
            if let Some(t) = tok {
                tokens.push(t);
            }
            i = ni;
            line = nl;
        } else if c == '_' || c.is_alphabetic() {
            let start = i;
            while i < cs.len() && (cs[i] == '_' || cs[i].is_alphanumeric()) {
                i += 1;
            }
            tokens.push(Token {
                tok: Tok::Ident(cs[start..i].iter().collect()),
                line,
            });
        } else if c.is_ascii_digit() {
            // Numbers carry no signal for any rule; consume and drop.
            while i < cs.len() && (cs[i] == '_' || cs[i].is_alphanumeric()) {
                i += 1;
            }
        } else if c == '\'' {
            i = skip_char_or_lifetime(&cs, i);
        } else {
            tokens.push(Token {
                tok: Tok::Punct(c),
                line,
            });
            i += 1;
        }
    }

    let test_ranges = compute_test_ranges(&tokens);
    Lexed {
        tokens,
        suppressions,
        test_ranges,
        comments,
    }
}

fn parse_suppression(comment: &str, line: u32) -> Option<Suppression> {
    let pos = comment.find(SUPPRESSION_DIRECTIVE)?;
    let after = &comment[pos + SUPPRESSION_DIRECTIVE.len()..];
    let close = after.find(')')?;
    let rules: Vec<String> = after[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    let justification = after[close + 1..]
        .trim_start()
        .trim_start_matches(':')
        .trim()
        .to_owned();
    Some(Suppression {
        line,
        rules,
        justification,
    })
}

fn lex_plain_string(cs: &[char], mut i: usize, mut line: u32) -> (Token, usize, u32) {
    let start_line = line;
    let mut s = String::new();
    i += 1; // opening quote
    while i < cs.len() {
        match cs[i] {
            '\\' => {
                s.push('\\');
                if let Some(&next) = cs.get(i + 1) {
                    if next == '\n' {
                        line += 1;
                    }
                    s.push(next);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            '"' => {
                i += 1;
                break;
            }
            c => {
                if c == '\n' {
                    line += 1;
                }
                s.push(c);
                i += 1;
            }
        }
    }
    (
        Token {
            tok: Tok::Str(s),
            line: start_line,
        },
        i,
        line,
    )
}

fn starts_raw_or_byte_string(cs: &[char], i: usize) -> bool {
    let rest: String = cs[i..cs.len().min(i + 4)].iter().collect();
    rest.starts_with("r\"")
        || rest.starts_with("r#")
        || rest.starts_with("b\"")
        || rest.starts_with("b'")
        || rest.starts_with("br\"")
        || rest.starts_with("br#")
}

/// Lexes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` and `b'…'` forms, plus raw
/// identifiers (`r#type`), which keep their `r#` prefix in the token so
/// they can never collide with the bare keyword.
fn lex_prefixed_string(cs: &[char], mut i: usize, mut line: u32) -> (Option<Token>, usize, u32) {
    let start_line = line;
    // Skip the r/b/br prefix.
    let prefix_start = i;
    while i < cs.len() && (cs[i] == 'r' || cs[i] == 'b') {
        i += 1;
    }
    let prefix_len = i - prefix_start;
    let prefix_is_r = prefix_len == 1 && cs[prefix_start] == 'r';
    if cs.get(i) == Some(&'\'') {
        // Byte char literal b'x'.
        return (None, skip_char_or_lifetime(cs, i), line);
    }
    let mut hashes = 0usize;
    while cs.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if cs.get(i) != Some(&'"') {
        // Not a string after all: a raw identifier like `r#type`. Emit it
        // with the `r#` prefix intact — `r#fn` is a name, not the `fn`
        // keyword, and the call-graph pass relies on the distinction.
        let start = i;
        while i < cs.len() && (cs[i] == '_' || cs[i].is_alphanumeric()) {
            i += 1;
        }
        let name: String = cs[start..i].iter().collect();
        let tok = if name.is_empty() {
            None
        } else if prefix_is_r && hashes == 1 {
            Some(Token {
                tok: Tok::Ident(format!("r#{name}")),
                line,
            })
        } else {
            Some(Token {
                tok: Tok::Ident(name),
                line,
            })
        };
        return (tok, i, line);
    }
    i += 1; // opening quote
    let mut s = String::new();
    while i < cs.len() {
        if cs[i] == '"' {
            let mut matched = true;
            for h in 0..hashes {
                if cs.get(i + 1 + h) != Some(&'#') {
                    matched = false;
                    break;
                }
            }
            if matched {
                i += 1 + hashes;
                break;
            }
        }
        if cs[i] == '\n' {
            line += 1;
        }
        s.push(cs[i]);
        i += 1;
    }
    (
        Some(Token {
            tok: Tok::Str(s),
            line: start_line,
        }),
        i,
        line,
    )
}

fn skip_char_or_lifetime(cs: &[char], mut i: usize) -> usize {
    if cs.get(i + 1) == Some(&'\\') {
        // Escaped char literal: skip to the closing quote.
        i += 2;
        while i < cs.len() && cs[i] != '\'' {
            i += 1;
        }
        i + 1
    } else if cs.get(i + 2) == Some(&'\'') && cs.get(i + 1) != Some(&'\'') {
        // Plain char literal 'x'.
        i + 3
    } else {
        // Lifetime: consume the tick and the identifier after it.
        i += 1;
        while i < cs.len() && (cs[i] == '_' || cs[i].is_alphanumeric()) {
            i += 1;
        }
        i
    }
}

/// The identifier `t` holds, if it is one.
pub(crate) fn ident(t: Option<&Token>) -> Option<&str> {
    match t {
        Some(Token {
            tok: Tok::Ident(s), ..
        }) => Some(s.as_str()),
        _ => None,
    }
}

/// Whether `t` is the punctuation character `c`.
pub(crate) fn is_punct(t: Option<&Token>, c: char) -> bool {
    matches!(t, Some(Token { tok: Tok::Punct(p), .. }) if *p == c)
}

/// Resolves `#[cfg(test)]` / `#[test]` / `#[bench]` attributes to the line
/// ranges of the items they gate.
fn compute_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(is_punct(tokens.get(i), '#') && is_punct(tokens.get(i + 1), '[')) {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        // Collect the attribute's identifiers up to the matching ']'.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < tokens.len() && depth > 0 {
            match &tokens[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                Tok::Ident(s) => idents.push(s),
                _ => {}
            }
            j += 1;
        }
        let is_test = idents == ["test"]
            || idents == ["bench"]
            || (idents.first() == Some(&"cfg")
                && idents.contains(&"test")
                && !idents.contains(&"not"));
        if !is_test {
            i = j;
            continue;
        }
        // The gated item runs to its block's closing brace (or to the
        // semicolon for brace-less items like gated `use` statements).
        let mut k = j;
        while k < tokens.len() && !is_punct(tokens.get(k), '{') && !is_punct(tokens.get(k), ';') {
            k += 1;
        }
        if is_punct(tokens.get(k), '{') {
            let mut depth = 1usize;
            let mut m = k + 1;
            while m < tokens.len() && depth > 0 {
                match tokens[m].tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => depth -= 1,
                    _ => {}
                }
                m += 1;
            }
            let end_line = tokens
                .get(m.saturating_sub(1))
                .map_or(attr_line, |t| t.line);
            ranges.push((attr_line, end_line));
            i = m;
        } else {
            let end_line = tokens.get(k).map_or(attr_line, |t| t.line);
            ranges.push((attr_line, end_line));
            i = k + 1;
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(lexed: &Lexed) -> Vec<String> {
        lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_code() {
        let lexed = lex(concat!(
            "// x.unwrap() in a line comment\n",
            "/* x.unwrap() /* nested */ still comment */\n",
            "let s = \"x.unwrap() in a string\";\n",
            "let r = r#\"raw \"quoted\" unwrap()\"#;\n",
        ));
        assert_eq!(idents(&lexed), vec!["let", "s", "let", "r"]);
        let strs: Vec<&str> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            strs,
            vec!["x.unwrap() in a string", "raw \"quoted\" unwrap()"]
        );
    }

    #[test]
    fn lifetimes_and_char_literals_do_not_derail() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { let c = '\"'; let d = '\\''; c }");
        assert!(idents(&lexed).contains(&"str".to_owned()));
        // No string token was falsely opened by the quote chars.
        assert!(lexed.tokens.iter().all(|t| !matches!(t.tok, Tok::Str(_))));
    }

    #[test]
    fn line_numbers_are_accurate() {
        let lexed = lex("a\n\nb \"s\"\nc");
        let got: Vec<(String, u32)> = lexed
            .tokens
            .iter()
            .map(|t| {
                let text = match &t.tok {
                    Tok::Ident(s) | Tok::Str(s) => s.clone(),
                    Tok::Punct(p) => p.to_string(),
                };
                (text, t.line)
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("a".into(), 1),
                ("b".into(), 3),
                ("s".into(), 3),
                ("c".into(), 4)
            ]
        );
    }

    #[test]
    fn test_module_ranges_cover_the_block() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
fn live2() {}
";
        let lexed = lex(src);
        assert_eq!(lexed.test_ranges, vec![(2, 6)]);
        assert!(!lexed.is_test_line(1));
        assert!(lexed.is_test_line(5));
        assert!(!lexed.is_test_line(7));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_range() {
        let lexed = lex("#[cfg(not(test))]\nfn live() { x.unwrap(); }\n");
        assert!(lexed.test_ranges.is_empty());
    }

    #[test]
    fn test_fn_with_extra_attributes() {
        let src = "\
#[test]
#[should_panic]
fn t() {
    boom();
}
";
        let lexed = lex(src);
        assert_eq!(lexed.test_ranges, vec![(1, 5)]);
    }

    #[test]
    fn raw_identifiers_keep_their_prefix() {
        // `r#fn` is a name, not the keyword; `r#type` likewise. A raw
        // string must still lex as a string, not a raw identifier.
        let lexed = lex("fn r#fn() {} let r#type = 1; let s = r#\"str\"#;");
        assert_eq!(
            idents(&lexed),
            vec!["fn", "r#fn", "let", "r#type", "let", "s"]
        );
        assert!(lexed
            .tokens
            .iter()
            .any(|t| matches!(&t.tok, Tok::Str(s) if s == "str")));
    }

    #[test]
    fn comments_are_captured_with_spans() {
        let src = "\
// ordering: relaxed is fine, gauge only
x.load(o);
/* block
   spanning */ y.load(o);
z.load(o);
";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[0].end_line, 1);
        assert_eq!(lexed.comments[1].line, 3);
        assert_eq!(lexed.comments[1].end_line, 4);
        // The line comment annotates itself and the next line only.
        assert!(lexed.has_comment_tag(1, "ordering:"));
        assert!(lexed.has_comment_tag(2, "ordering:"));
        assert!(!lexed.has_comment_tag(3, "ordering:"));
        // The block comment annotates through its end line + 1.
        assert!(lexed.has_comment_tag(4, "spanning"));
        assert!(lexed.has_comment_tag(5, "spanning"));
        assert!(!lexed.has_comment_tag(6, "spanning"));
    }

    #[test]
    fn adjacent_line_comments_merge_into_one_block() {
        let src = "\
// ordering: Release pairs with the Acquire load in is_set;
// the flag itself is the only state this store publishes.
x.store(true, Ordering::Release);
y.load(o); // trailing note
// fresh block after a trailing comment
z.load(o);
";
        let lexed = lex(src);
        // Lines 1-2 merge; the trailing comment on line 4 and the line-5
        // comment stay separate (code sits between / before them).
        assert_eq!(lexed.comments.len(), 3);
        assert_eq!((lexed.comments[0].line, lexed.comments[0].end_line), (1, 2));
        assert!(lexed.comments[0].text.contains("ordering:"));
        assert!(lexed.comments[0].text.contains("only state"));
        assert_eq!((lexed.comments[1].line, lexed.comments[1].end_line), (4, 4));
        assert_eq!((lexed.comments[2].line, lexed.comments[2].end_line), (5, 5));
        // The tag on the block's first line now annotates the op two
        // lines below — the multi-line justification case.
        assert!(lexed.has_comment_tag(3, "ordering:"));
        assert!(!lexed.has_comment_tag(4, "ordering:"));
        // A trailing comment does not absorb the block above its line.
        assert!(lexed.has_comment_tag(6, "fresh block"));
    }

    #[test]
    fn suppression_parsing() {
        let src = "\
x as u32; // goalrec-lint:allow(raw-id-cast): fixture boundary, cannot overflow
// goalrec-lint:allow(raw-id-cast, metric-name-registry): two rules
y as u32; // goalrec-lint:allow(raw-id-cast)
/// Prose quoting `goalrec-lint:allow(raw-id-cast): why` is no directive.
//! Nor in module docs: `goalrec-lint:allow(lock-discipline): why`.
";
        let lexed = lex(src);
        assert_eq!(lexed.suppressions.len(), 3);
        assert_eq!(lexed.suppressions[0].line, 1);
        assert_eq!(lexed.suppressions[0].rules, vec!["raw-id-cast"]);
        assert_eq!(
            lexed.suppressions[0].justification,
            "fixture boundary, cannot overflow"
        );
        assert_eq!(
            lexed.suppressions[1].rules,
            vec!["raw-id-cast", "metric-name-registry"]
        );
        assert!(lexed.suppressions[2].justification.is_empty());
    }
}
