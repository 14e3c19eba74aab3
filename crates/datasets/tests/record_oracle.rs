//! Differential fuzzing of the byte-level record parser against the
//! `serde_json` + schema-check oracle (`support`): mutated JSONL lines,
//! whole JSONL sources and mutated append bodies. For every input both
//! reject it — for the same kind of reason, naming the same field — or
//! both accept it with equal ids. A panic in the parser fails the test.

mod support;

use goalrec_datasets::record::{self, AppendError, RecordError, RecordReader, MAX_DEPTH};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use support::Verdict;

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// Whitespace between tokens: mostly JSON whitespace, now and then a
/// byte JSON does not allow there.
fn ws(rng: &mut StdRng) -> &'static str {
    match rng.gen_range(0..40) {
        0..=24 => "",
        25..=31 => " ",
        32..=34 => "\t",
        35 => "\r\n",
        36 => "  \n ",
        37 => "\u{b}",
        38 => "\u{a0}",
        _ => "\r",
    }
}

/// Number spellings: canonical ids most of the time, else the forms at
/// the edges of "a whole value in `0..=u32::MAX`" and of JSON number
/// syntax.
fn number(rng: &mut StdRng) -> String {
    if rng.gen_range(0..3) > 0 {
        return rng.gen_range(0..60u32).to_string();
    }
    pick(
        rng,
        &[
            "0",
            "-0",
            "007",
            "00000000000000000000000000001",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999",
            "-1",
            "-000",
            "-9223372036854775808",
            "-9223372036854775809",
            "2.0",
            "1e2",
            "1E+2",
            "1.5",
            "0.5e1",
            "200e-2",
            "1e400",
            "-1e400",
            "-0.0",
            "-0.5",
            "1.",
            "1e",
            "1e+",
            "-",
            "--1",
            "1-2",
            "1.2.3",
            "0x10",
            "+1",
            "-.5",
            "1.0e-0",
            "4294967295.0",
            "4294967296.0",
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
            r#""g9""#,
            r#""""#,
            r#""a\"b""#,
            r#""A""#,
            r#""\ud800""#,
            r#""\u+04a""#,
            r#""\u00""#,
            r#""\x""#,
            "\"caf\u{e9} \u{2615}\"",
            r#""\/\b\f\n\r\t\\""#,
            "\"raw\ttab\u{1}\"",
            "\"unterminated",
            r#""}""#,
        ],
    )
    .to_owned()
}

fn key(rng: &mut StdRng) -> String {
    pick(
        rng,
        &[
            r#""x""#,
            r#""goal""#,
            r#""actions""#,
            r#""go\u0061l""#,
            r#""act\u0069ons""#,
            r#""\u0067oal""#,
            r#""actions ""#,
            r#""Goal""#,
            r#""implementations""#,
            r#""go\u+061l""#,
            "goal",
        ],
    )
    .to_owned()
}

/// `levels` nested containers around a scalar.
fn nested(rng: &mut StdRng, levels: usize) -> String {
    let mut open = String::new();
    let mut close = String::new();
    for _ in 0..levels {
        if rng.gen_range(0..3) == 0 {
            open.push_str("{\"k\":");
            close.insert(0, '}');
        } else {
            open.push('[');
            close.insert(0, ']');
        }
    }
    format!("{open}1{close}")
}

/// Any JSON-ish value, nested containers counted from `depth` (the depth
/// of the container holding it).
fn value(rng: &mut StdRng, depth: usize) -> String {
    match rng.gen_range(0..14) {
        0..=3 => number(rng),
        4..=5 => string(rng),
        6 => pick(rng, &["true", "false", "null", "tru", "nul", "nulll"]).to_owned(),
        7..=8 if depth < 6 => {
            let n = rng.gen_range(0..4);
            let items: Vec<String> = (0..n).map(|_| value(rng, depth + 1)).collect();
            format!("[{}]", items.join(&format!(",{}", ws(rng))))
        }
        9..=10 if depth < 6 => {
            let n = rng.gen_range(0..3);
            let items: Vec<String> = (0..n)
                .map(|_| format!("{}:{}{}", key(rng), ws(rng), value(rng, depth + 1)))
                .collect();
            format!("{{{}}}", items.join(","))
        }
        // Straddle the nesting limit from wherever this value sits.
        11 => {
            let levels = MAX_DEPTH.saturating_sub(depth + 2) + rng.gen_range(0..5usize);
            nested(rng, levels)
        }
        _ => number(rng),
    }
}

/// A record object at `depth` (1 for a JSONL line): mostly well formed,
/// with extra, duplicated and reordered fields.
fn record_text(rng: &mut StdRng, depth: usize) -> String {
    let mut fields = Vec::new();
    if rng.gen_range(0..10) > 0 {
        let goal = if rng.gen_range(0..5) > 0 {
            number(rng)
        } else {
            value(rng, depth)
        };
        fields.push(format!("\"goal\":{}{goal}", ws(rng)));
    }
    if rng.gen_range(0..10) > 0 {
        let actions = if rng.gen_range(0..6) > 0 {
            let n = rng.gen_range(0..6);
            let ids: Vec<String> = (0..n)
                .map(|_| {
                    if rng.gen_range(0..8) > 0 {
                        number(rng)
                    } else {
                        value(rng, depth + 1)
                    }
                })
                .collect();
            format!("[{}{}]", ws(rng), ids.join(&format!("{},", ws(rng))))
        } else {
            value(rng, depth)
        };
        fields.push(format!("\"actions\":{actions}"));
    }
    for _ in 0..rng.gen_range(0..3) {
        fields.push(format!("{}:{}", key(rng), value(rng, depth)));
    }
    if !fields.is_empty() && rng.gen_range(0..6) == 0 {
        let dup = fields[rng.gen_range(0..fields.len())].clone();
        fields.push(dup);
    }
    for i in (1..fields.len()).rev() {
        let j = rng.gen_range(0..=i);
        fields.swap(i, j);
    }
    let sep = format!("{},{}", ws(rng), ws(rng));
    format!("{}{{{}{}}}{}", ws(rng), fields.join(&sep), ws(rng), ws(rng))
}

/// Byte-level damage: flips, truncation, insertions, deletions,
/// repeated spans, and structural bytes dropped or swapped.
fn mutate(rng: &mut StdRng, mut bytes: Vec<u8>) -> Vec<u8> {
    const INSERTS: &[u8] = b"{}[],:\"\\ \t\r0123456789eE.+-tfnul\x0b\x80\xff";
    for _ in 0..rng.gen_range(0..4) {
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..8) {
            5 | 6 => {
                let structural: Vec<usize> = (0..bytes.len())
                    .filter(|&i| b",:[]{}\"".contains(&bytes[i]))
                    .collect();
                if let Some(&i) = structural.get(rng.gen_range(0..structural.len().max(1))) {
                    if rng.gen_range(0..2) == 0 {
                        bytes.remove(i);
                    } else {
                        bytes[i] = INSERTS[rng.gen_range(0..INSERTS.len())];
                    }
                }
            }
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

/// A mutated JSONL line.
struct Line;

impl Strategy for Line {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut StdRng) -> Vec<u8> {
        let text = if rng.gen_range(0..12) == 0 {
            value(rng, 0)
        } else {
            record_text(rng, 1)
        };
        mutate(rng, text.into_bytes())
    }
}

/// A JSONL source of a few lines, blank and damaged ones among them.
struct Source;

impl Strategy for Source {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut StdRng) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..rng.gen_range(0..5) {
            match rng.gen_range(0..8) {
                0 => out.extend_from_slice(pick(rng, &["", " \t", "\u{a0}", "\r"]).as_bytes()),
                1 => out.extend(Line.generate(rng)),
                _ => {
                    let mut line = Vec::new();
                    let n = rng.gen_range(1..4);
                    let actions: Vec<u32> = (0..n).map(|_| rng.gen_range(0..100)).collect();
                    record::encode_record(&mut line, rng.gen_range(0..100), actions);
                    line.pop();
                    out.extend(line);
                }
            }
            out.extend_from_slice(pick(rng, &["\n", "\n", "\r\n"]).as_bytes());
        }
        if rng.gen_range(0..4) == 0 {
            out.pop();
        }
        out
    }
}

/// A mutated append body: one record, or a batch with fields around it.
struct Body;

impl Strategy for Body {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut StdRng) -> Vec<u8> {
        let text = match rng.gen_range(0..8) {
            0..=2 => record_text(rng, 1),
            3 => value(rng, 0),
            _ => {
                let items = if rng.gen_range(0..8) > 0 {
                    let n = rng.gen_range(0..5);
                    let entries: Vec<String> = (0..n)
                        .map(|_| {
                            if rng.gen_range(0..10) > 0 {
                                record_text(rng, 3)
                            } else {
                                value(rng, 2)
                            }
                        })
                        .collect();
                    format!("[{}]", entries.join(","))
                } else {
                    value(rng, 1)
                };
                let mut fields = vec![format!("\"implementations\":{}{items}", ws(rng))];
                for _ in 0..rng.gen_range(0..3) {
                    let field = match rng.gen_range(0..3) {
                        0 => format!("\"goal\":{}", number(rng)),
                        1 => format!("\"implementations\":{}", value(rng, 1)),
                        _ => format!("{}:{}", key(rng), value(rng, 1)),
                    };
                    fields.insert(rng.gen_range(0..=fields.len()), field);
                }
                format!("{}{{{}}}{}", ws(rng), fields.join(","), ws(rng))
            }
        };
        mutate(rng, text.into_bytes())
    }
}

fn new_line(bytes: &[u8]) -> Verdict {
    let mut actions = Vec::new();
    match record::parse_record(bytes, &mut actions) {
        Ok(goal) => Verdict::Ok(vec![(goal, actions)]),
        Err(RecordError::Syntax(_)) => Verdict::Syntax,
        Err(RecordError::Field(why)) => Verdict::Field(why),
    }
}

fn new_source(bytes: &[u8]) -> Result<Vec<(u32, Vec<u32>)>, ()> {
    let mut reader = RecordReader::new(bytes);
    let mut records = Vec::new();
    while let Some((_, goal)) = reader.next_record().map_err(drop)? {
        records.push((goal.map_err(drop)?, reader.actions().to_vec()));
    }
    Ok(records)
}

fn new_body(body: &[u8], cap: usize) -> Verdict {
    match record::parse_append_body(body, cap) {
        Ok(records) => Verdict::Ok(records),
        Err(AppendError::Syntax(_)) => Verdict::Syntax,
        Err(AppendError::Entry(i, why)) => Verdict::Field(format!("implementation #{i}: {why}")),
        Err(AppendError::NotUtf8) => Verdict::Refused("not UTF-8".to_owned()),
        Err(AppendError::Empty) => Verdict::Refused("empty".to_owned()),
        Err(AppendError::NotArray) => Verdict::Refused("implementations not an array".to_owned()),
        Err(AppendError::NoEntries) => Verdict::Refused("no entries".to_owned()),
        Err(AppendError::TooLarge { entries, .. }) => {
            Verdict::Refused(format!("{entries} entries over the cap"))
        }
    }
}

/// Same verdict; field errors must name the same field.
fn assert_agree(new: Verdict, oracle: Verdict, input: &[u8]) {
    let same = match (&new, &oracle) {
        (Verdict::Field(a), Verdict::Field(b)) => {
            support::field_named(a) == support::field_named(b)
        }
        (a, b) => a == b,
    };
    assert!(
        same,
        "parser {new:?} but oracle {oracle:?} on {:?}",
        String::from_utf8_lossy(input)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn mutated_lines_agree_with_the_oracle(line in Line) {
        assert_agree(new_line(&line), support::line(&line), &line);
    }

    #[test]
    fn mutated_sources_agree_with_the_line_loop(source in Source) {
        let (new, oracle) = (new_source(&source), support::file(&source));
        prop_assert_eq!(&new, &oracle, "on {:?}", String::from_utf8_lossy(&source));
    }

    #[test]
    fn mutated_append_bodies_agree_with_the_oracle(body in Body, cap in 0usize..5) {
        assert_agree(new_body(&body, cap), support::append_body(&body, cap), &body);
    }
}

/// Corner cases written out, each one a rule the parser must share with
/// the oracle.
#[test]
fn corner_cases_agree_with_the_oracle() {
    let deep = |levels: usize| {
        format!(
            "{{\"goal\":1,\"actions\":[2],\"x\":{}0{}}}",
            "[".repeat(levels),
            "]".repeat(levels)
        )
    };
    let mut lines: Vec<String> = [
        r#"{"goal":1,"actions":[2]}"#,
        r#"{"go\u0061l":1,"act\u0069ons":[2]}"#,
        r#"{"go\u+061l":1,"actions":[2]}"#,
        r#"{"goal":1,"actions":[2],"s":"\u+04a"}"#,
        r#"{"goal":1,"actions":[2],"s":"\ud800"}"#,
        r#"{"goal":-0,"actions":[-0.0,0e5,1.0]}"#,
        r#"{"goal":1e400,"actions":[2]}"#,
        r#"{"goal":4294967295,"actions":[4294967296]}"#,
        r#"{"goal":18446744073709551616,"actions":[2]}"#,
        r#"{"goal":1.9e19,"actions":[2]}"#,
        r#"{"goal":1,"actions":[2],"goal":"x"}"#,
        r#"{"goal":"x","actions":[2],"goal":1}"#,
        r#"{"goal":1,"actions":[-1],"actions":[2]}"#,
        r#"{"goal":1,"actions":[2,]}"#,
        r#"{"goal":1,"actions":[2 3]}"#,
        r#"{"goal":1,"actions":[2,,3]}"#,
        r#"{"goal":1,"actions":[,2]}"#,
        r#"{"goal":1,"actions":[ 2 , 3 ]}"#,
        r#"{"goal":1,"actions":[999999999,1000000000,0004294967295]}"#,
        r#"{"goal":1,"actions":[2]"#,
        r#"{"goal":1.,"actions":[2]}"#,
        r#"{"goal":-.5,"actions":[2]}"#,
        r#"{"goal":1,"actions":[2]} {"goal":1,"actions":[2]}"#,
        "{\"goal\":1,\"actions\":[2],\"raw\":\"\t\u{1}\"}",
        "\u{a0}{\"goal\":1,\"actions\":[2]}",
        "[]",
        "\"str\"",
        "",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for levels in MAX_DEPTH - 3..MAX_DEPTH + 3 {
        lines.push(deep(levels));
    }
    for line in &lines {
        assert_agree(
            new_line(line.as_bytes()),
            support::line(line.as_bytes()),
            line.as_bytes(),
        );
        assert_agree(
            new_body(line.as_bytes(), 4),
            support::append_body(line.as_bytes(), 4),
            line.as_bytes(),
        );
    }
}
