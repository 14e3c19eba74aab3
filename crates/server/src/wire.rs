//! The `POST /v1/recommend` wire format, read and written straight from
//! and to bytes.
//!
//! A body is read by the byte-level cursor of `goalrec_datasets::record`
//! (the reader of library files, append bodies and the WAL): no JSON value
//! tree is built, the activity's ids land in the worker's reused buffer,
//! and the strategy name stays borrowed from the body. A response is
//! appended into one body buffer, sized once for the ranked list. Both
//! halves are held to a `serde_json` reference, the `#[cfg(test)]`
//! oracles below: a body is accepted with the same fields or refused with
//! the same `400` message (bar a syntax error's wording) as a `Value`
//! read, and a response is byte for byte what a `json!` tree prints.

use crate::error::ServerError;
use crate::state::AppState;
use goalrec_core::Scored;
use goalrec_datasets::record::{self, RecommendError};
use std::borrow::Cow;
use std::io::Write as _;

/// The strategy a body without one (or with `null`) is ranked by.
const DEFAULT_STRATEGY: &str = "breadth";
/// The list length a body without `k` (or with `null`) asks for.
const DEFAULT_K: usize = 10;

/// A parsed `/v1/recommend` body; its activity ids are in the buffer
/// [`parse_body`] was given.
pub(crate) struct Params<'a> {
    /// The API strategy name, borrowed from the body unless it was
    /// written with escapes.
    pub(crate) strategy: Cow<'a, str>,
    /// The list length asked for, at least 1.
    pub(crate) k: usize,
}

/// Reads a recommend body, leaving its activity ids (as sent: unsorted,
/// duplicates kept) in `activity`. Every refusal is a typed `400`.
pub(crate) fn parse_body<'a>(
    body: &'a [u8],
    activity: &mut Vec<u32>,
) -> Result<Params<'a>, ServerError> {
    let read = record::parse_recommend_body(body, activity).map_err(refusal)?;
    let k = match read.k {
        None => DEFAULT_K,
        Some(k) => usize::try_from(k)
            .ok()
            .filter(|&k| k > 0)
            .ok_or_else(|| refusal(RecommendError::BadK))?,
    };
    Ok(Params {
        strategy: read.strategy.unwrap_or(Cow::Borrowed(DEFAULT_STRATEGY)),
        k,
    })
}

/// The `400` for a refused body.
fn refusal(e: RecommendError) -> ServerError {
    ServerError::BadRequest(match e {
        RecommendError::NotUtf8 => "body is not valid UTF-8".to_owned(),
        RecommendError::Empty => {
            "empty body; expected {\"activity\": [..], \"strategy\": .., \"k\": ..}".to_owned()
        }
        RecommendError::Syntax(e) => format!("invalid JSON body: {e}"),
        RecommendError::NoActivity => "missing 'activity' (array of action ids)".to_owned(),
        RecommendError::BadActivity => {
            "'activity' must be an array of non-negative action ids".to_owned()
        }
        RecommendError::BadStrategy => "'strategy' must be a string".to_owned(),
        RecommendError::BadK => "'k' must be a positive integer".to_owned(),
    })
}

/// Bytes reserved per score: any finite score in `[1e-5, 1e15)` and its
/// sign fit. A longer one (tiny or huge magnitudes) grows the buffer.
const SCORE_WIDTH: usize = 24;
/// Bytes of one ranked entry besides its name and score: the keys, the
/// punctuation and a `u32` id.
const ENTRY_WIDTH: usize = r#"{"action":,"name":,"score":},"#.len() + 10;
/// Bytes of the envelope besides the strategy name, `k` and the lists.
const ENVELOPE_WIDTH: usize = r#"{"strategy":,"k":,"activity":[],"recommendations":[]}"#.len();

/// The recommend response body for `ranked`:
/// `{"strategy":…,"k":…,"activity":[…],"recommendations":[{"action":…,"name":…,"score":…},…]}`.
/// Display names are copied from the library's dictionary, or written as
/// `a{id}` where the state has none (see [`AppState::resolve_action`]).
pub(crate) fn render(
    state: &AppState,
    strategy: &str,
    k: usize,
    activity: &[u32],
    ranked: &[Scored],
) -> Vec<u8> {
    let names = ranked
        .iter()
        .map(|s| state.resolve_action(s.action).map_or(13, escaped_len))
        .sum::<usize>();
    let mut out = Vec::with_capacity(
        ENVELOPE_WIDTH
            + escaped_len(strategy)
            + 20
            + activity.len() * 11
            + ranked.len() * (ENTRY_WIDTH + SCORE_WIDTH)
            + names,
    );
    out.extend_from_slice(b"{\"strategy\":");
    push_str(&mut out, strategy);
    out.extend_from_slice(b",\"k\":");
    push_uint(&mut out, k as u64);
    out.extend_from_slice(b",\"activity\":[");
    for (i, &a) in activity.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_uint(&mut out, u64::from(a));
    }
    out.extend_from_slice(b"],\"recommendations\":[");
    for (i, s) in ranked.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        let id = u64::from(s.action.raw());
        out.extend_from_slice(b"{\"action\":");
        push_uint(&mut out, id);
        out.extend_from_slice(b",\"name\":");
        match state.resolve_action(s.action) {
            Some(name) => push_str(&mut out, name),
            None => {
                out.extend_from_slice(b"\"a");
                push_uint(&mut out, id);
                out.push(b'"');
            }
        }
        out.extend_from_slice(b",\"score\":");
        push_score(&mut out, s.score);
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
    out
}

/// The escape of byte `b` inside a JSON string, as the vendored `Value`
/// `Display` writes it: `\"`, `\\`, `\n`, `\r`, `\t`, other control bytes
/// as `\u00xx`; `None` for a byte written as is (every byte of a
/// multi-byte character is ≥ 0x80, so escaping byte by byte is escaping
/// character by character).
fn escape(b: u8) -> Option<([u8; 6], usize)> {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let short = |c: u8| Some(([b'\\', c, 0, 0, 0, 0], 2));
    match b {
        b'"' => short(b'"'),
        b'\\' => short(b'\\'),
        b'\n' => short(b'n'),
        b'\r' => short(b'r'),
        b'\t' => short(b't'),
        0..=0x1f => Some((
            [
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ],
            6,
        )),
        _ => None,
    }
}

/// The length of `s` written as a JSON string, quotes included.
fn escaped_len(s: &str) -> usize {
    2 + s
        .bytes()
        .map(|b| escape(b).map_or(1, |(_, n)| n))
        .sum::<usize>()
}

/// Appends `s` as a JSON string, copying the runs between escapes whole.
fn push_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if let Some((esc, n)) = escape(b) {
            out.extend_from_slice(&bytes[run..i]);
            out.extend_from_slice(&esc[..n]);
            run = i + 1;
        }
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Appends `n` in decimal.
fn push_uint(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends a score by the vendored `Value` `Display` float rule:
/// non-finite as `null`, a whole value below 1e15 in magnitude with one
/// decimal (`3.0`, `-0.0`), anything else in Rust's shortest form.
fn push_score(out: &mut Vec<u8>, x: f64) {
    // Writing into a `Vec` cannot fail.
    let _ = if !x.is_finite() {
        out.write_all(b"null")
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        write!(out, "{x:.1}")
    } else {
        write!(out, "{x}")
    };
}

/// The `serde_json` path the wire format replaced, kept as the oracle
/// the tests hold it to.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use serde_json::Value;

    /// The recommend response as a `json!` tree printed by the vendored
    /// `Value` `Display`.
    pub(crate) fn render(
        state: &AppState,
        strategy: &str,
        k: usize,
        activity: &[u32],
        ranked: &[Scored],
    ) -> Vec<u8> {
        let name = |s: &Scored| {
            state
                .resolve_action(s.action)
                .map_or_else(|| format!("a{}", s.action.raw()), str::to_owned)
        };
        let items: Vec<Value> = ranked
            .iter()
            .map(|s| {
                serde_json::json!({
                    "action": s.action.raw(),
                    "name": name(s),
                    "score": s.score,
                })
            })
            .collect();
        let doc = serde_json::json!({
            "strategy": strategy,
            "k": k,
            "activity": activity.to_vec(),
            "recommendations": items,
        });
        doc.to_string().into_bytes()
    }

    /// A body read through a `serde_json` `Value`: `(activity, strategy,
    /// k)` or the `400` message.
    pub(crate) fn parse_body(body: &[u8]) -> Result<(Vec<u32>, String, usize), String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_owned())?;
        if text.trim().is_empty() {
            return Err(
                "empty body; expected {\"activity\": [..], \"strategy\": .., \"k\": ..}".to_owned(),
            );
        }
        let doc: Value =
            serde_json::from_str(text).map_err(|e| format!("invalid JSON body: {e}"))?;
        let activity = match doc.get("activity") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|u| u32::try_from(u).ok())
                        .ok_or_else(|| {
                            "'activity' must be an array of non-negative action ids".to_owned()
                        })
                })
                .collect::<Result<Vec<u32>, String>>()?,
            _ => return Err("missing 'activity' (array of action ids)".to_owned()),
        };
        let strategy = match doc.get("strategy") {
            None | Some(Value::Null) => "breadth".to_owned(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| "'strategy' must be a string".to_owned())?
                .to_owned(),
        };
        let k = match doc.get("k") {
            None | Some(Value::Null) => 10,
            Some(v) => v
                .as_u64()
                .and_then(|u| usize::try_from(u).ok())
                .filter(|&k| k > 0)
                .ok_or_else(|| "'k' must be a positive integer".to_owned())?,
        };
        Ok((activity, strategy, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goalrec_core::ids::ActionId;
    use goalrec_core::{GoalModel, LibraryBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Action names at every escaping edge, in id order.
    const NAMES: &[&str] = &[
        "plain",
        "quote \" inside",
        "back\\slash",
        "new\nline",
        "carriage\rreturn",
        "tab\there",
        "\u{1}",
        "\u{8}",
        "\u{c}",
        "\u{1f}\u{7f}",
        "caf\u{e9} \u{2615} \u{1f600}",
        "",
    ];

    /// Scores at every edge of the float rule.
    const SCORES: &[f64] = &[
        0.0,
        -0.0,
        3.0,
        -3.0,
        999_999_999_999_999.0,
        1e15,
        -1e15,
        1e16,
        1.5e300,
        5e-324,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        0.1,
        -0.123_456_789_012_345_67,
        1e-7,
        2.5,
    ];

    fn named_state() -> AppState {
        let mut b = LibraryBuilder::new();
        b.add_impl("g", NAMES.iter().copied()).unwrap();
        AppState::new(b.build().unwrap()).unwrap()
    }

    /// Every action of `state` (and two past its dictionary), each with
    /// every score in turn.
    fn ranked(state: &AppState) -> Vec<Scored> {
        let extent = u32::try_from(state.num_actions()).unwrap() + 2;
        (0..extent)
            .flat_map(|a| {
                SCORES
                    .iter()
                    .map(move |&x| Scored::new(ActionId::new(a), x))
            })
            .collect()
    }

    fn assert_same_bytes(state: &AppState, strategy: &str, k: usize, h: &[u32], r: &[Scored]) {
        let new = render(state, strategy, k, h, r);
        let old = oracle::render(state, strategy, k, h, r);
        assert_eq!(
            String::from_utf8_lossy(&new),
            String::from_utf8_lossy(&old),
            "strategy {strategy:?}, k {k}"
        );
        assert_eq!(new, old);
    }

    #[test]
    fn rendered_bytes_match_the_value_tree_at_every_edge() {
        let named = named_state();
        let r = ranked(&named);
        assert_eq!(named.resolve_action(ActionId::new(11)), Some(""));
        // Ids past the dictionary fall back to `a{id}`.
        assert_eq!(named.resolve_action(ActionId::new(12)), None);
        for strategy in ["breadth", "best-match", "", "\"\\\n\u{1}\u{e9}"] {
            for k in [1, 10, usize::MAX] {
                assert_same_bytes(&named, strategy, k, &[0, 3, 7, u32::MAX], &r);
            }
        }
        // Empty activity, empty list, one entry.
        assert_same_bytes(&named, "focus-cl", 10, &[], &[]);
        assert_same_bytes(&named, "focus-cl", 10, &[], &r[..1]);
        assert_same_bytes(&named, "focus-cmp", 10, &[5], &[]);
        // A catalog-less state (a mapped `.grlb2`) names every action
        // `a{id}`.
        let installed = AppState::installed(GoalModel::build(named.library().unwrap()).unwrap(), 1);
        assert_eq!(installed.resolve_action(ActionId::new(0)), None);
        assert_same_bytes(&installed, "breadth", 3, &[1, 2], &ranked(&installed));
    }

    fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
        items[rng.gen_range(0..items.len())]
    }

    /// Whitespace between tokens, now and then a byte JSON does not
    /// allow there.
    fn ws(rng: &mut StdRng) -> &'static str {
        pick(
            rng,
            &[
                "", "", "", "", "", " ", " ", "\t", "\r\n", "\u{b}", "\u{a0}",
            ],
        )
    }

    /// Number spellings: small ids mostly, else the edges of the `u32`
    /// and `u64` ranges and of JSON number syntax.
    fn number(rng: &mut StdRng) -> String {
        if rng.gen_range(0..3) > 0 {
            return rng.gen_range(0..40u32).to_string();
        }
        pick(
            rng,
            &[
                "0",
                "-0",
                "007",
                "4294967295",
                "4294967296",
                "18446744073709551615",
                "18446744073709551616",
                "99999999999999999999999",
                "-1",
                "-9223372036854775808",
                "2.0",
                "1e2",
                "1E+2",
                "1.5",
                "1e400",
                "-0.0",
                "1.",
                "1e",
                "-",
                "1-2",
                "+1",
                "1.8e19",
                "1.9e19",
                "18446744073709551615.0",
            ],
        )
        .to_owned()
    }

    fn string(rng: &mut StdRng) -> String {
        pick(
            rng,
            &[
                r#""breadth""#,
                r#""best-match""#,
                r#""focus-cl""#,
                r#""bre\u0061dth""#,
                r#""""#,
                r#""a\"b""#,
                r#""\ud800""#,
                r#""\u+04a""#,
                r#""\x""#,
                "\"caf\u{e9}\"",
                r#""\/\b\f\n\r\t\\""#,
                "\"raw\ttab\u{1}\"",
                "\"unterminated",
            ],
        )
        .to_owned()
    }

    fn key(rng: &mut StdRng) -> String {
        pick(
            rng,
            &[
                r#""activity""#,
                r#""strategy""#,
                r#""k""#,
                r#""act\u0069vity""#,
                r#""\u006b""#,
                r#""K""#,
                r#""x""#,
                r#""activity ""#,
                "activity",
            ],
        )
        .to_owned()
    }

    /// Any JSON-ish value held in a container at `depth`.
    fn value(rng: &mut StdRng, depth: usize) -> String {
        match rng.gen_range(0..12) {
            0..=3 => number(rng),
            4..=5 => string(rng),
            6 => pick(rng, &["true", "false", "null", "nul", "nulll"]).to_owned(),
            7 if depth < 5 => {
                let items: Vec<String> = (0..rng.gen_range(0..4))
                    .map(|_| value(rng, depth + 1))
                    .collect();
                format!("[{}]", items.join(","))
            }
            8 if depth < 5 => {
                let items: Vec<String> = (0..rng.gen_range(0..3))
                    .map(|_| format!("{}:{}", key(rng), value(rng, depth + 1)))
                    .collect();
                format!("{{{}}}", items.join(","))
            }
            // Straddle the 128-level nesting limit.
            9 => {
                let levels = record::MAX_DEPTH.saturating_sub(depth + 1) + rng.gen_range(0..3usize);
                format!("{}1{}", "[".repeat(levels), "]".repeat(levels))
            }
            _ => number(rng),
        }
    }

    /// A recommend body: mostly well formed, with extra, duplicated,
    /// reordered and missing fields, then damaged byte by byte.
    fn body(rng: &mut StdRng) -> Vec<u8> {
        let mut fields = Vec::new();
        if rng.gen_range(0..10) > 0 {
            let activity = if rng.gen_range(0..6) > 0 {
                let ids: Vec<String> = (0..rng.gen_range(0..6))
                    .map(|_| {
                        if rng.gen_range(0..8) > 0 {
                            number(rng)
                        } else {
                            value(rng, 2)
                        }
                    })
                    .collect();
                format!("[{}{}]", ws(rng), ids.join(&format!("{},", ws(rng))))
            } else {
                value(rng, 1)
            };
            fields.push(format!("\"activity\":{}{activity}", ws(rng)));
        }
        if rng.gen_range(0..3) > 0 {
            let strategy = match rng.gen_range(0..5) {
                0 => "null".to_owned(),
                1 => value(rng, 1),
                _ => string(rng),
            };
            fields.push(format!("\"strategy\":{strategy}"));
        }
        if rng.gen_range(0..3) > 0 {
            let k = match rng.gen_range(0..5) {
                0 => "null".to_owned(),
                1 => value(rng, 1),
                _ => number(rng),
            };
            fields.push(format!("\"k\":{k}"));
        }
        for _ in 0..rng.gen_range(0..3) {
            fields.push(format!("{}:{}", key(rng), value(rng, 1)));
        }
        if !fields.is_empty() && rng.gen_range(0..6) == 0 {
            let dup = fields[rng.gen_range(0..fields.len())].clone();
            fields.push(dup);
        }
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.gen_range(0..=i));
        }
        let text = if rng.gen_range(0..12) == 0 {
            value(rng, 0)
        } else {
            let sep = format!("{},{}", ws(rng), ws(rng));
            format!("{}{{{}}}{}", ws(rng), fields.join(&sep), ws(rng))
        };
        mutate(rng, text.into_bytes())
    }

    /// Byte-level damage: flips, truncation, insertions, deletions and
    /// repeated spans.
    fn mutate(rng: &mut StdRng, mut bytes: Vec<u8>) -> Vec<u8> {
        const INSERTS: &[u8] = b"{}[],:\"\\ \t0123456789eE.+-nul\x0b\x80\xff";
        for _ in 0..rng.gen_range(0..3) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..6) {
                0 if at < bytes.len() => bytes[at] = rng.gen_range(0..=255u8),
                1 => bytes.truncate(at),
                2 => bytes.insert(at, INSERTS[rng.gen_range(0..INSERTS.len())]),
                3 if at < bytes.len() => {
                    bytes.remove(at);
                }
                4 => {
                    let end = rng.gen_range(at..=bytes.len().min(at + 12));
                    let span = bytes[at..end].to_vec();
                    bytes.splice(at..at, span);
                }
                _ => {}
            }
        }
        bytes
    }

    struct Body;

    impl Strategy for Body {
        type Value = Vec<u8>;
        fn generate(&self, rng: &mut StdRng) -> Vec<u8> {
            body(rng)
        }
    }

    /// The byte-level read of `body` agrees with the `serde_json` path: the
    /// same `(activity, strategy, k)`, or the same `400` message (for a
    /// syntax error, both messages name one).
    fn assert_agree(body: &[u8]) {
        let mut ids = Vec::new();
        let new = match parse_body(body, &mut ids) {
            Ok(p) => Ok((p.strategy.into_owned(), p.k)),
            Err(ServerError::BadRequest(msg)) => Err(msg),
            Err(other) => panic!("not a 400: {other:?}"),
        }
        .map(|(strategy, k)| (ids, strategy, k));
        let old = oracle::parse_body(body);
        let syntax = |r: &Result<_, String>| {
            r.as_ref()
                .err()
                .is_some_and(|m| m.starts_with("invalid JSON body: "))
        };
        if syntax(&new) || syntax(&old) {
            assert!(
                syntax(&new) && syntax(&old),
                "parser {new:?} but oracle {old:?} on {:?}",
                String::from_utf8_lossy(body)
            );
        } else {
            assert_eq!(new, old, "on {:?}", String::from_utf8_lossy(body));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn mutated_bodies_read_as_the_serde_path_reads_them(body in Body) {
            assert_agree(&body);
        }
    }

    #[test]
    fn corner_bodies_read_as_the_serde_path_reads_them() {
        let deep = |levels: usize| {
            format!(
                r#"{{"activity":[1],"x":{}0{}}}"#,
                "[".repeat(levels),
                "]".repeat(levels)
            )
        };
        let bodies: Vec<String> = [
            r#"{"activity": [0, 1], "k": 2}"#,
            r#"{"activity": [], "strategy": null, "k": null}"#,
            r#"{"activity": [3, 3, 1], "strategy": "breadth", "k": 1e1}"#,
            r#"{"activity": [1], "activity": "x", "k": 3, "k": 0}"#,
            r#"{"activity": [1], "k": 18446744073709551615}"#,
            r#"{"activity": [1], "k": 18446744073709551616}"#,
            r#"{"activity": [1], "k": 1.9e19}"#,
            r#"{"activity": [1], "k": -0}"#,
            r#"{"activity": [1], "k": 0}"#,
            r#"{"activity": [1], "k": "3"}"#,
            r#"{"activity": [1], "strategy": 7}"#,
            r#"{"activity": [-1]}"#,
            r#"{"activity": [4294967296]}"#,
            r#"{"activity": [4294967295.0, -0.0, 2e0]}"#,
            r#"{"activity": "zero"}"#,
            r#"{"k": 3}"#,
            "[1, 2]",
            "7",
            "",
            " \t ",
            "\u{a0}",
            "{not json",
            r#"{"activity": [1]} x"#,
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .chain([deep(126), deep(127), deep(128)])
        .collect();
        for body in &bodies {
            assert_agree(body.as_bytes());
        }
        assert_agree(b"{\"activity\": [1], \"strategy\": \"\xff\"}");
        // The last `k` case sits exactly at the nesting limit: 127 arrays
        // inside the object are 128 levels, one more is refused.
        assert!(oracle::parse_body(deep(127).as_bytes()).is_ok());
        assert!(oracle::parse_body(deep(128).as_bytes()).is_err());
    }

    #[test]
    fn strategy_names_without_escapes_stay_borrowed() {
        let mut ids = Vec::new();
        let plain =
            parse_body(br#"{"activity": [2, 1], "strategy": "focus-cl"}"#, &mut ids).unwrap();
        assert!(matches!(plain.strategy, Cow::Borrowed("focus-cl")));
        assert_eq!(plain.k, DEFAULT_K);
        assert_eq!(ids, [2, 1]);
        let escaped = parse_body(
            br#"{"activity": [], "strategy": "focus\u002dcl"}"#,
            &mut ids,
        )
        .unwrap();
        assert!(matches!(escaped.strategy, Cow::Owned(_)));
        assert_eq!(escaped.strategy, "focus-cl");
        assert!(ids.is_empty());
        let default = parse_body(br#"{"activity": [0]}"#, &mut ids).unwrap();
        assert_eq!(default.strategy, DEFAULT_STRATEGY);
    }
}
