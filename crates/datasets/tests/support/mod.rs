//! The reference oracle for `goalrec_datasets::record`: a general JSON
//! parser (the vendored `serde_json`) building a `Value` tree, then a
//! schema check over the tree. This is how records were read before the
//! byte-level parser; the differential tests hold the two to the same
//! verdict on every input.

use serde_json::Value;

/// How an input was judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A record (or a batch of them).
    Ok(Vec<(u32, Vec<u32>)>),
    /// Not JSON (or not UTF-8).
    Syntax,
    /// JSON, but not a record: the field-named reason.
    Field(String),
    /// An append-body refusal other than the two above, by name.
    Refused(String),
}

/// The field-named schema check over a parsed value.
pub fn implementation_from_value(value: &Value) -> Result<(u32, Vec<u32>), String> {
    let fields = match value {
        Value::Object(fields) => fields,
        other => {
            return Err(format!(
                "expected an object with `goal` and `actions` fields, got {other}"
            ))
        }
    };
    let id_of = |v: &Value| v.as_u64().and_then(|n| u32::try_from(n).ok());
    let goal = match fields.iter().find(|(k, _)| k == "goal") {
        None => return Err("field `goal`: missing".to_owned()),
        Some((_, v)) => id_of(v)
            .ok_or_else(|| format!("field `goal`: expected a non-negative integer id, got {v}"))?,
    };
    let actions = match fields.iter().find(|(k, _)| k == "actions") {
        None => return Err("field `actions`: missing".to_owned()),
        Some((_, Value::Array(items))) => {
            if items.is_empty() {
                return Err("field `actions`: must list at least one action".to_owned());
            }
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                out.push(id_of(item).ok_or_else(|| {
                    format!("field `actions`[{i}]: expected a non-negative integer id, got {item}")
                })?);
            }
            out
        }
        Some((_, v)) => {
            return Err(format!(
                "field `actions`: expected an array of action ids, got {v}"
            ))
        }
    };
    Ok((goal, actions))
}

/// One JSONL line, judged by the oracle.
pub fn line(bytes: &[u8]) -> Verdict {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return Verdict::Syntax;
    };
    match serde_json::from_str::<Value>(text) {
        Err(_) => Verdict::Syntax,
        Ok(value) => match implementation_from_value(&value) {
            Ok(record) => Verdict::Ok(vec![record]),
            Err(why) => Verdict::Field(why),
        },
    }
}

/// A whole JSONL source, judged the way the line loop read it: split by
/// `BufRead::lines`, lines that trim to nothing skipped. `Ok` holds
/// every record; any bad line makes the source bad.
pub fn file(bytes: &[u8]) -> Result<Vec<(u32, Vec<u32>)>, ()> {
    use std::io::BufRead;
    let mut records = Vec::new();
    for line_text in bytes.lines() {
        let line_text = line_text.map_err(drop)?;
        if line_text.trim().is_empty() {
            continue;
        }
        match line(line_text.as_bytes()) {
            Verdict::Ok(mut one) => records.append(&mut one),
            _ => return Err(()),
        }
    }
    Ok(records)
}

/// An append body with an entry cap, judged by the oracle.
pub fn append_body(body: &[u8], cap: usize) -> Verdict {
    let Ok(text) = std::str::from_utf8(body) else {
        return Verdict::Refused("not UTF-8".to_owned());
    };
    if text.trim().is_empty() {
        return Verdict::Refused("empty".to_owned());
    }
    let Ok(doc) = serde_json::from_str::<Value>(text) else {
        return Verdict::Syntax;
    };
    let items: Vec<&Value> = match doc.get("implementations") {
        Some(Value::Array(items)) => items.iter().collect(),
        Some(_) => return Verdict::Refused("implementations not an array".to_owned()),
        None => vec![&doc],
    };
    if items.is_empty() {
        return Verdict::Refused("no entries".to_owned());
    }
    if items.len() > cap {
        return Verdict::Refused(format!("{} entries over the cap", items.len()));
    }
    let mut records = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match implementation_from_value(item) {
            Ok(record) => records.push(record),
            Err(why) => return Verdict::Field(format!("implementation #{i}: {why}")),
        }
    }
    Verdict::Ok(records)
}

/// The part of a field-named message both parsers word alike: the
/// rejected value is quoted from the source by one and re-rendered from
/// the tree by the other.
pub fn field_named(msg: &str) -> &str {
    msg.split(", got ").next().unwrap_or(msg)
}
