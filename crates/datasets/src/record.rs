//! The one reader and writer of implementation records.
//!
//! Every library file line, every append-WAL line and every
//! `POST /v1/admin/library/append` body holds records of one fixed
//! schema, `{"goal": id, "actions": [id, …]}`. This module parses that
//! schema straight from bytes — no generic JSON value tree is built — and
//! encodes it back ([`encode_record`]).
//!
//! What it accepts is exactly what a general JSON parser followed by a
//! schema check accepts:
//!
//! * keys in any order, any JSON whitespace, escaped keys (`"go\u0061l"`);
//! * unknown fields, whatever JSON value they hold — skipped, but still
//!   checked to be JSON, nested at most [`MAX_DEPTH`] levels;
//! * for a duplicated key, the first occurrence;
//! * any JSON number that is a whole value in `0..=u32::MAX` as an id
//!   (`7`, `007`, `7.0`, `7e0`, `-0`);
//! * only valid UTF-8.
//!
//! A record that is not JSON is a [`RecordError::Syntax`] naming the byte
//! column; one that is JSON but not a record is a [`RecordError::Field`]
//! naming the offending field (``field `actions`[2]: …``). Syntax is
//! checked over the whole record before any field is judged, so the same
//! input always gets the same kind of error.
//!
//! [`RecordReader`] streams a JSON-lines file through one reused line
//! buffer; [`parse_append_body`] reads the single-record and batch
//! (`{"implementations": […]}`) forms of an append body.
//!
//! The same cursor reads the other body the server parses per request,
//! `POST /v1/recommend`'s `{"activity": [id, …], "strategy": …, "k": …}`
//! ([`parse_recommend_body`]), under the same rules: what the vendored
//! `serde_json` parser followed by the route's field checks accepts.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, BufRead, Write};

/// The deepest nesting of arrays and objects a record may contain
/// (counting the record object itself), the limit of the vendored
/// `serde_json` parser. Deeper input is a syntax error, not a stack
/// overflow.
pub const MAX_DEPTH: usize = 128;

/// One implementation record: a goal id and its action ids, in the
/// order written.
pub(crate) type Record = (u32, Vec<u32>);

/// Why bytes are not JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    /// 1-based byte column of the offending byte (one past the end for
    /// truncated input).
    pub column: usize,
    /// What was expected or found there.
    pub what: &'static str,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid JSON at byte column {}: {}",
            self.column, self.what
        )
    }
}

impl std::error::Error for SyntaxError {}

/// Why one record was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The bytes are not JSON.
    Syntax(SyntaxError),
    /// The bytes are JSON but not a record; the text names the field.
    Field(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Syntax(e) => e.fmt(f),
            RecordError::Field(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<SyntaxError> for RecordError {
    fn from(e: SyntaxError) -> Self {
        RecordError::Syntax(e)
    }
}

/// Parses one record from `bytes` (one JSONL line, surrounding JSON
/// whitespace allowed). The goal id is returned and the action ids are
/// left in `actions` (cleared first), so a caller parsing many records
/// reuses one buffer.
pub fn parse_record(bytes: &[u8], actions: &mut Vec<u32>) -> Result<u32, RecordError> {
    let mut p = Cursor::new(bytes)?;
    p.ws();
    let record = p.record(1, actions)?;
    p.end()?;
    record.map_err(RecordError::Field)
}

/// Appends `record` as one canonical JSONL line — `{"goal":g,"actions":[a,…]}`
/// and a newline — to `out`. Every library and WAL writer goes through
/// this, so what [`parse_record`] reads back is byte-for-byte what was
/// written.
pub fn encode_record(out: &mut Vec<u8>, goal: u32, actions: impl IntoIterator<Item = u32>) {
    out.extend_from_slice(b"{\"goal\":");
    push_u32(out, goal);
    out.extend_from_slice(b",\"actions\":[");
    for (i, a) in actions.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_u32(out, a);
    }
    out.extend_from_slice(b"]}\n");
}

/// Writes `records` through `w` as JSONL, one [`encode_record`] line
/// each, through one reused line buffer.
pub(crate) fn write_records<W: Write + ?Sized, A: IntoIterator<Item = u32>>(
    w: &mut W,
    records: impl IntoIterator<Item = (u32, A)>,
) -> io::Result<()> {
    let mut line = Vec::with_capacity(256);
    for (goal, actions) in records {
        line.clear();
        encode_record(&mut line, goal, actions);
        w.write_all(&line)?;
    }
    Ok(())
}

fn push_u32(out: &mut Vec<u8>, mut n: u32) {
    let mut digits = [0u8; 10];
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

/// Streams the records of a JSON-lines source, one line at a time
/// through one reused buffer; the whole source is never held in memory.
/// Blank lines are skipped but still counted, so line numbers match the
/// file.
pub struct RecordReader<R> {
    inner: R,
    line: Vec<u8>,
    line_no: usize,
    actions: Vec<u32>,
}

impl<R: BufRead> RecordReader<R> {
    /// A reader over `inner`.
    pub fn new(inner: R) -> Self {
        RecordReader {
            inner,
            line: Vec::with_capacity(256),
            line_no: 0,
            actions: Vec::new(),
        }
    }

    /// The next non-blank line: its 1-based number and its goal id or
    /// the reason it is not a record. On success the line's action ids
    /// are in [`RecordReader::actions`]. `Ok(None)` at the end of the
    /// source; `Err` only for a read error.
    pub fn next_record(&mut self) -> io::Result<Option<(usize, Result<u32, RecordError>)>> {
        loop {
            self.line.clear();
            if self.inner.read_until(b'\n', &mut self.line)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if self.line.iter().all(|&b| is_ws(b)) {
                continue;
            }
            match parse_record(&self.line, &mut self.actions) {
                Ok(goal) => return Ok(Some((self.line_no, Ok(goal)))),
                // A line of only non-JSON Unicode whitespace (a vertical
                // tab, a no-break space) is blank too.
                Err(_) if is_unicode_blank(&self.line) => continue,
                Err(e) => return Ok(Some((self.line_no, Err(e)))),
            }
        }
    }

    /// The action ids of the record [`RecordReader::next_record`] last
    /// returned as `Ok`.
    pub fn actions(&self) -> &[u32] {
        &self.actions
    }
}

/// Whether `line` is valid UTF-8 holding only (Unicode) whitespace.
fn is_unicode_blank(line: &[u8]) -> bool {
    std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty())
}

/// Why a `POST /v1/admin/library/append` body was refused, in the order
/// the checks run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendError {
    /// The body is not UTF-8.
    NotUtf8,
    /// The body is empty or whitespace.
    Empty,
    /// The body is not JSON.
    Syntax(SyntaxError),
    /// `implementations` is not an array.
    NotArray,
    /// `implementations` is an empty array.
    NoEntries,
    /// The body holds more entries than the cap.
    TooLarge {
        /// Entries in the body.
        entries: usize,
        /// The cap.
        max: usize,
    },
    /// Entry `.0` (0 for a single-record body) is not a record: `.1`
    /// names the field.
    Entry(usize, String),
}

/// Parses an append body: one record `{"goal": …, "actions": […]}` or a
/// batch `{"implementations": [{…}, …]}` of at most `cap` records. The
/// first `implementations` field decides, wherever it stands; a body
/// that is not an object is a single (bad) entry. Syntax is checked over
/// the whole body before any entry is judged, and the entry count before
/// any entry's fields.
pub fn parse_append_body(body: &[u8], cap: usize) -> Result<Vec<Record>, AppendError> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Err(AppendError::NotUtf8);
    };
    if text.trim().is_empty() {
        return Err(AppendError::Empty);
    }
    let (len, records) = match append_body(text).map_err(AppendError::Syntax)? {
        Body::Single(record) => (1, record.map(|r| vec![r]).map_err(|why| (0, why))),
        Body::Batch { len, records } => (len, records),
        Body::NotArray => return Err(AppendError::NotArray),
    };
    if len == 0 {
        return Err(AppendError::NoEntries);
    }
    if len > cap {
        return Err(AppendError::TooLarge {
            entries: len,
            max: cap,
        });
    }
    records.map_err(|(i, why)| AppendError::Entry(i, why))
}

/// A `POST /v1/recommend` body as read. The activity's ids go to the
/// caller's buffer, so a server worker reuses one across requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecommendBody<'a> {
    /// The first `strategy` field; `None` when absent or `null`. Borrowed
    /// from the body unless the string is written with escapes.
    pub strategy: Option<Cow<'a, str>>,
    /// The first `k` field as a whole number (the vendored
    /// `Value::as_u64` rule, so `10`, `10.0` and `1e1` are all 10); `None`
    /// when absent or `null`.
    pub k: Option<u64>,
}

/// Why a `POST /v1/recommend` body was refused, in the order the checks
/// run: the whole body's syntax first, then `activity`, `strategy`, `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecommendError {
    /// The body is not UTF-8.
    NotUtf8,
    /// The body is empty or whitespace.
    Empty,
    /// The body is not JSON.
    Syntax(SyntaxError),
    /// No `activity` array (absent, or not an array; also any body that
    /// is not an object).
    NoActivity,
    /// An `activity` entry is not an id in `0..=u32::MAX`.
    BadActivity,
    /// `strategy` is neither a string nor `null`.
    BadStrategy,
    /// `k` is neither a whole non-negative number nor `null`.
    BadK,
}

/// Parses a recommend body: `activity` (required, an array of ids, left
/// in `activity`), `strategy` and `k` (both optional). As for records,
/// unknown fields are skipped, the first of duplicated keys counts, and
/// syntax is checked over the whole body before any field is judged.
pub fn parse_recommend_body<'a>(
    body: &'a [u8],
    activity: &mut Vec<u32>,
) -> Result<RecommendBody<'a>, RecommendError> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Err(RecommendError::NotUtf8);
    };
    if text.trim().is_empty() {
        return Err(RecommendError::Empty);
    }
    activity.clear();
    let mut ids = None;
    let mut strategy = None;
    let mut k = None;
    let mut p = Cursor::of_str(text);
    p.ws();
    let parsed = if p.peek() == Some(b'{') {
        p.object(1, |p, key| match key {
            Key::Activity if ids.is_none() => {
                ids = Some(p.actions(1, activity)?);
                Ok(())
            }
            Key::Strategy if strategy.is_none() => {
                strategy = Some(p.text(1, text)?);
                Ok(())
            }
            Key::K if k.is_none() => {
                let start = p.pos;
                p.skip_value(1)?;
                k = Some(whole_number(&text[start..p.pos]));
                Ok(())
            }
            _ => p.skip_value(1),
        })
    } else {
        p.skip_value(0)
    };
    parsed
        .and_then(|()| p.end())
        .map_err(RecommendError::Syntax)?;
    match ids {
        Some(Actions::Ids) => {}
        Some(Actions::BadItem(..)) => return Err(RecommendError::BadActivity),
        Some(Actions::NotArray(_)) | None => return Err(RecommendError::NoActivity),
    }
    Ok(RecommendBody {
        strategy: strategy
            .unwrap_or(Ok(None))
            .map_err(|()| RecommendError::BadStrategy)?,
        k: k.unwrap_or(Ok(None)).map_err(|()| RecommendError::BadK)?,
    })
}

/// A checked number or `null` as `k` reads it: `Ok(None)` for `null`,
/// `Ok(Some(n))` for a whole number in `0..=u64::MAX`, else `Err`. The
/// vendored parser reads a number without `.eE+-` (after the sign) as an
/// `i64`, else a `u64`, else an `f64`, and one with them as an `f64`;
/// `Value::as_u64` then takes a non-negative integer, or a float that is
/// whole and below 1.9e19 (saturating at `u64::MAX`).
fn whole_number(value: &str) -> Result<Option<u64>, ()> {
    if value == "null" {
        return Ok(None);
    }
    if !value.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
        return Err(());
    }
    let unsigned = value.strip_prefix('-').unwrap_or(value);
    let whole = if unsigned.bytes().all(|b| b.is_ascii_digit()) {
        match (value.parse::<i64>(), value.parse::<u64>()) {
            (Ok(i), _) => u64::try_from(i).ok(),
            (_, Ok(u)) => Some(u),
            _ => value.parse::<f64>().ok().and_then(float_as_u64),
        }
    } else {
        value.parse::<f64>().ok().and_then(float_as_u64)
    };
    whole.map(Some).ok_or(())
}

/// `Value::as_u64` of a float.
fn float_as_u64(f: f64) -> Option<u64> {
    (f.fract() == 0.0 && (0.0..1.9e19).contains(&f)).then_some(f as u64)
}

/// What an append body holds.
enum Body {
    /// No `implementations` field: the body is one record (or the reason
    /// it is not one).
    Single(Result<Record, String>),
    /// `{"implementations": […]}`: the entry count, and every record or
    /// the first entry that is not one, by index.
    Batch {
        len: usize,
        records: Result<Vec<Record>, (usize, String)>,
    },
    /// An `implementations` field whose value is not an array.
    NotArray,
}

fn append_body(text: &str) -> Result<Body, SyntaxError> {
    let mut p = Cursor::of_str(text);
    p.ws();
    if p.peek() != Some(b'{') {
        let mut actions = Vec::new();
        let single = p.record(1, &mut actions)?;
        p.end()?;
        return Ok(Body::Single(single.map(|goal| (goal, actions))));
    }
    let mut fields = Fields::default();
    let mut actions = Vec::new();
    let mut batch: Option<Body> = None;
    p.object(1, |p, key| {
        if key == Key::Implementations && batch.is_none() {
            batch = Some(p.batch(1)?);
            return Ok(());
        }
        fields.value(p, key, 1, &mut actions)
    })?;
    p.end()?;
    Ok(batch.unwrap_or_else(|| {
        Body::Single(fields.finish(p.bytes, &actions).map(|goal| (goal, actions)))
    }))
}

/// JSON whitespace.
fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

/// The object keys the schemas know (records and append bodies, then
/// recommend bodies); every other key is skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    Goal,
    Actions,
    Implementations,
    Activity,
    Strategy,
    K,
    Other,
}

impl Key {
    fn of(name: &[u8]) -> Key {
        match name {
            b"goal" => Key::Goal,
            b"actions" => Key::Actions,
            b"implementations" => Key::Implementations,
            b"activity" => Key::Activity,
            b"strategy" => Key::Strategy,
            b"k" => Key::K,
            _ => Key::Other,
        }
    }
}

/// A field's value span, `start..end` in the input.
type Span = (usize, usize);

/// The first `goal` and `actions` of one record object, as found.
#[derive(Default)]
struct Fields {
    goal: Option<Result<u32, Span>>,
    actions: Option<Actions>,
}

/// What the first `actions` field held. Its ids go to the caller's
/// buffer.
enum Actions {
    Ids,
    NotArray(Span),
    BadItem(usize, Span),
}

impl Fields {
    /// Consumes the value of `key` in an object at `depth`: the first
    /// `goal` and `actions` are read, anything else is skipped.
    fn value(
        &mut self,
        p: &mut Cursor<'_>,
        key: Key,
        depth: usize,
        actions: &mut Vec<u32>,
    ) -> Result<(), SyntaxError> {
        match key {
            Key::Goal if self.goal.is_none() => {
                let start = p.pos;
                let id = p.id(depth)?;
                self.goal = Some(id.ok_or((start, p.pos)));
            }
            Key::Actions if self.actions.is_none() => {
                self.actions = Some(p.actions(depth, actions)?);
            }
            _ => p.skip_value(depth)?,
        }
        Ok(())
    }

    /// The schema verdict once the object is read: the goal id, or the
    /// field-named reason, goal before actions.
    fn finish(self, bytes: &[u8], actions: &[u32]) -> Result<u32, String> {
        let goal = match self.goal {
            None => return Err("field `goal`: missing".to_owned()),
            Some(Ok(goal)) => goal,
            Some(Err(span)) => {
                return Err(format!(
                    "field `goal`: expected a non-negative integer id, got {}",
                    show(bytes, span)
                ))
            }
        };
        match self.actions {
            None => Err("field `actions`: missing".to_owned()),
            Some(Actions::NotArray(span)) => Err(format!(
                "field `actions`: expected an array of action ids, got {}",
                show(bytes, span)
            )),
            Some(Actions::Ids) if actions.is_empty() => {
                Err("field `actions`: must list at least one action".to_owned())
            }
            Some(Actions::BadItem(i, span)) => Err(format!(
                "field `actions`[{i}]: expected a non-negative integer id, got {}",
                show(bytes, span)
            )),
            Some(Actions::Ids) => Ok(goal),
        }
    }
}

/// The source text of a rejected value, shortened for an error message.
fn show(bytes: &[u8], (start, end): Span) -> String {
    const MAX: usize = 64;
    let text = String::from_utf8_lossy(&bytes[start..end]);
    match text.char_indices().nth(MAX) {
        Some((cut, _)) => format!("{}…", &text[..cut]),
        None => text.into_owned(),
    }
}

/// A position in one UTF-8-checked input.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`, which must be valid UTF-8.
    fn new(bytes: &'a [u8]) -> Result<Self, SyntaxError> {
        if let Err(e) = std::str::from_utf8(bytes) {
            return Err(SyntaxError {
                column: e.valid_up_to() + 1,
                what: "invalid UTF-8",
            });
        }
        Ok(Cursor { bytes, pos: 0 })
    }

    /// A cursor at the start of `text`, already known to be UTF-8.
    fn of_str(text: &'a str) -> Self {
        Cursor {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &'static str) -> SyntaxError {
        SyntaxError {
            column: self.pos + 1,
            what,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(is_ws) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, what: &'static str) -> Result<(), SyntaxError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    /// Only whitespace may follow the document.
    fn end(&mut self) -> Result<(), SyntaxError> {
        self.ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing data after the value"))
        }
    }

    /// Enters an array or object at `depth` (the top-level value is 1).
    fn open(&mut self, depth: usize) -> Result<(), SyntaxError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.pos += 1;
        self.ws();
        Ok(())
    }

    /// One record at `depth`: the goal id (action ids in `actions`) or
    /// the field-named reason it is not a record. A value that is not an
    /// object is skipped and named.
    fn record(
        &mut self,
        depth: usize,
        actions: &mut Vec<u32>,
    ) -> Result<Result<u32, String>, SyntaxError> {
        actions.clear();
        if self.peek() != Some(b'{') {
            let start = self.pos;
            self.skip_value(depth - 1)?;
            return Ok(Err(format!(
                "expected an object with `goal` and `actions` fields, got {}",
                show(self.bytes, (start, self.pos))
            )));
        }
        let mut fields = Fields::default();
        self.object(depth, |p, key| fields.value(p, key, depth, actions))?;
        Ok(fields.finish(self.bytes, actions))
    }

    /// Walks the object at `pos` (at `depth`), handing each key to
    /// `field`, which must consume the key's value.
    fn object(
        &mut self,
        depth: usize,
        mut field: impl FnMut(&mut Self, Key) -> Result<(), SyntaxError>,
    ) -> Result<(), SyntaxError> {
        self.open(depth)?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.key()?;
            self.ws();
            self.eat(b':', "expected `:` after a key")?;
            self.ws();
            field(self, key)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// The value of an `actions` field in an object at `depth`: ids are
    /// pushed to `out` until the first entry that is not one.
    fn actions(&mut self, depth: usize, out: &mut Vec<u32>) -> Result<Actions, SyntaxError> {
        if self.peek() != Some(b'[') {
            let start = self.pos;
            self.skip_value(depth)?;
            return Ok(Actions::NotArray((start, self.pos)));
        }
        // A record sits at depth 1 or 3, so its `actions` array is far
        // from the nesting limit.
        if let Some(end) = canonical_ids(self.bytes, self.pos + 1, out) {
            self.pos = end;
            return Ok(Actions::Ids);
        }
        out.clear();
        let mut verdict = Actions::Ids;
        self.array(depth + 1, |p, i| {
            let start = p.pos;
            let id = p.id(depth + 1)?;
            if matches!(verdict, Actions::Ids) {
                match id {
                    Some(a) => out.push(a),
                    None => verdict = Actions::BadItem(i, (start, p.pos)),
                }
            }
            Ok(())
        })?;
        Ok(verdict)
    }

    /// A string or `null` held in a container at `depth`: `Ok(Some(_))`
    /// for a string (decoded; borrowed from `text`, the cursor's input,
    /// when it has no escapes), `Ok(None)` for `null`, `Err` for any
    /// other value (skipped).
    fn text<'t>(
        &mut self,
        depth: usize,
        text: &'t str,
    ) -> Result<Result<Option<Cow<'t, str>>, ()>, SyntaxError> {
        match self.peek() {
            Some(b'"') => {
                let start = self.pos + 1;
                self.string()?;
                let raw = &text[start..self.pos - 1];
                Ok(Ok(Some(if raw.contains('\\') {
                    Cow::Owned(unescape(raw.as_bytes()))
                } else {
                    Cow::Borrowed(raw)
                })))
            }
            Some(b'n') => self.literal(b"null").map(|()| Ok(None)),
            _ => self.skip_value(depth).map(|()| Err(())),
        }
    }

    /// The value of an `implementations` field in an object at `depth`.
    fn batch(&mut self, depth: usize) -> Result<Body, SyntaxError> {
        if self.peek() != Some(b'[') {
            self.skip_value(depth)?;
            return Ok(Body::NotArray);
        }
        let mut len = 0;
        let mut records = Ok(Vec::new());
        let mut actions = Vec::new();
        self.array(depth + 1, |p, i| {
            len += 1;
            let record = p.record(depth + 2, &mut actions)?;
            match (record, &mut records) {
                (Ok(goal), Ok(list)) => list.push((goal, actions.clone())),
                (Err(why), Ok(_)) => records = Err((i, why)),
                (_, Err(_)) => {}
            }
            Ok(())
        })?;
        Ok(Body::Batch { len, records })
    }

    /// Walks the array at `pos` (at `depth`), handing each element's index
    /// to `item`, which must consume the element.
    fn array(
        &mut self,
        depth: usize,
        mut item: impl FnMut(&mut Self, usize) -> Result<(), SyntaxError>,
    ) -> Result<(), SyntaxError> {
        self.open(depth)?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        let mut i = 0;
        loop {
            self.ws();
            item(self, i)?;
            i += 1;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// One value held in a container at `depth`, as an id: a number that
    /// is one, else `None` (any other value is skipped).
    fn id(&mut self, depth: usize) -> Result<Option<u32>, SyntaxError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.skip_value(depth).map(|()| None),
        }
    }

    /// Skips one JSON value held in a container at `depth` (0 for the
    /// top level), checking its syntax.
    fn skip_value(&mut self, depth: usize) -> Result<(), SyntaxError> {
        match self.peek() {
            Some(b'{') => self.object(depth + 1, |p, _| p.skip_value(depth + 1)),
            Some(b'[') => self.array(depth + 1, |p, _| p.skip_value(depth + 1)),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), SyntaxError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// An object key, classified. A key with escapes is decoded first,
    /// so `"go\u0061l"` is `goal`.
    fn key(&mut self) -> Result<Key, SyntaxError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string key"));
        }
        let start = self.pos + 1;
        self.string()?;
        let raw = &self.bytes[start..self.pos - 1];
        if !raw.contains(&b'\\') {
            return Ok(Key::of(raw));
        }
        Ok(Key::of(unescape(raw).as_bytes()))
    }

    /// Skips one string, checking its escapes. Any other byte — control
    /// bytes included — is taken as is.
    fn string(&mut self) -> Result<(), SyntaxError> {
        self.pos += 1; // the opening quote
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(n) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += n;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(());
            }
            self.pos += 1; // the backslash
            match self.peek() {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.pos += 1,
                Some(b'u') => {
                    if unicode_escape(self.bytes.get(self.pos + 1..self.pos + 5)).is_none() {
                        return Err(self.err("invalid \\u escape"));
                    }
                    self.pos += 5;
                }
                _ => return Err(self.err("invalid escape")),
            }
        }
    }

    /// One number, checked, as an id if it is a whole value in
    /// `0..=u32::MAX`. Its extent and its value follow the vendored
    /// `serde_json` parser and `Value::as_u64`: a run of digits and
    /// `.eE+-` after an optional sign; without `.eE+-` an integer, else a
    /// float.
    fn number(&mut self) -> Result<Option<u32>, SyntaxError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut is_float = false;
        let mut value: u64 = 0;
        let mut too_big = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    value = value * 10 + u64::from(b - b'0');
                    if value > u64::from(u32::MAX) {
                        // Keep the flag, not the value: no id is this large.
                        too_big = true;
                        value = u64::from(u32::MAX) + 1;
                    }
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        if !is_float {
            if self.pos == start + usize::from(negative) {
                return Err(SyntaxError {
                    column: start + 1,
                    what: "invalid number",
                });
            }
            // An integer: -0 is the id 0, any other negative is no id.
            return Ok(match (negative, too_big) {
                (false, false) => u32::try_from(value).ok(),
                (true, false) if value == 0 => Some(0),
                _ => None,
            });
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        let f: f64 = text.parse().map_err(|_| SyntaxError {
            column: start + 1,
            what: "invalid number",
        })?;
        Ok(float_as_u64(f).and_then(|n| u32::try_from(n).ok()))
    }
}

/// The fast path for an `actions` array as the writers spell it:
/// `a,b,…]` from `i` (just past the `[`), each id at most nine digits,
/// no whitespace. Pushes the ids to `out` and returns the index past the
/// `]`, or `None` at the first byte it does not expect — the caller then
/// clears `out` and reads the array in full. It halves the parse of a
/// paper-scale FoodMart library (most of its bytes are action ids).
fn canonical_ids(bytes: &[u8], mut i: usize, out: &mut Vec<u32>) -> Option<usize> {
    loop {
        let start = i;
        let mut id: u32 = 0;
        while let Some(&b) = bytes.get(i).filter(|b| b.is_ascii_digit()) {
            if i - start == 9 {
                return None;
            }
            id = id * 10 + u32::from(b - b'0');
            i += 1;
        }
        if i == start {
            return None;
        }
        out.push(id);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b']') => return Some(i + 1),
            _ => return None,
        }
    }
}

/// The character a `\u` escape's four bytes name, if they are hex for a
/// non-surrogate code point (the vendored parser's rule: `u32` radix-16
/// parsing, so a leading `+` is taken).
fn unicode_escape(hex: Option<&[u8]>) -> Option<char> {
    let hex = std::str::from_utf8(hex?).ok()?;
    char::from_u32(u32::from_str_radix(hex, 16).ok()?)
}

/// Decodes the body of a string already checked by [`Cursor::string`].
fn unescape(raw: &[u8]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < raw.len() {
        let run = raw[i..]
            .iter()
            .position(|&b| b == b'\\')
            .map_or(raw.len(), |n| i + n);
        out.push_str(&String::from_utf8_lossy(&raw[i..run]));
        if run == raw.len() {
            break;
        }
        let esc = raw[run + 1];
        i = run + 2;
        out.push(match esc {
            b'b' => '\x08',
            b'f' => '\x0c',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                i += 4;
                unicode_escape(raw.get(run + 2..run + 6)).unwrap_or('\u{fffd}')
            }
            other => char::from(other),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Record, RecordError> {
        let mut actions = Vec::new();
        parse_record(line.as_bytes(), &mut actions).map(|goal| (goal, actions))
    }

    fn field_err(line: &str) -> String {
        match parse(line) {
            Err(RecordError::Field(msg)) => msg,
            other => panic!("expected a field error for {line:?}, got {other:?}"),
        }
    }

    fn syntax_err(line: &str) -> SyntaxError {
        match parse(line) {
            Err(RecordError::Syntax(e)) => e,
            other => panic!("expected a syntax error for {line:?}, got {other:?}"),
        }
    }

    #[test]
    fn canonical_lines_round_trip_byte_for_byte() {
        let mut line = Vec::new();
        encode_record(&mut line, 3, [0, 17, 4_294_967_295]);
        assert_eq!(line, b"{\"goal\":3,\"actions\":[0,17,4294967295]}\n");
        assert_eq!(
            parse(std::str::from_utf8(&line).unwrap()).unwrap(),
            (3, vec![0, 17, u32::MAX])
        );
    }

    #[test]
    fn accepts_what_a_json_parser_and_the_schema_accept() {
        let want = Ok((2, vec![5, 1]));
        for line in [
            r#"{"goal":2,"actions":[5,1]}"#,
            " \t{ \"actions\" : [ 5 ,1 ] ,\r\n\"goal\":2 }  \r\n",
            r#"{"goal":2,"x":{"y":[null,true,false,"s\"}",-1.5e3]},"actions":[5,1]}"#,
            r#"{"goal":2,"goal":"ignored","actions":[5,1],"actions":7}"#,
            r#"{"go\u0061l":2,"act\/ions":0,"actions":[5,1]}"#,
            r#"{"goal":2.0,"actions":[5e0,0001]}"#,
            r#"{"goal":200e-2,"actions":[0.5e1,1]}"#,
        ] {
            assert_eq!(parse(line), want, "{line}");
        }
        assert_eq!(parse(r#"{"goal":-0,"actions":[-0.0]}"#), Ok((0, vec![0])));
    }

    #[test]
    fn field_errors_name_the_field() {
        assert_eq!(field_err(r#"{"actions":[1]}"#), "field `goal`: missing");
        assert_eq!(
            field_err(r#"{"goal":"g9","actions":[1]}"#),
            "field `goal`: expected a non-negative integer id, got \"g9\""
        );
        assert_eq!(field_err(r#"{"goal":1}"#), "field `actions`: missing");
        assert_eq!(
            field_err(r#"{"goal":1,"actions":{}}"#),
            "field `actions`: expected an array of action ids, got {}"
        );
        assert_eq!(
            field_err(r#"{"goal":1,"actions":[]}"#),
            "field `actions`: must list at least one action"
        );
        assert_eq!(
            field_err(r#"{"goal":1,"actions":[2,-3,"x"]}"#),
            "field `actions`[1]: expected a non-negative integer id, got -3"
        );
        for out_of_range in ["4294967296", "1.5", "1e10", "-1", "1e400"] {
            let msg = field_err(&format!("{{\"goal\":{out_of_range},\"actions\":[1]}}"));
            assert!(msg.starts_with("field `goal`:"), "{msg}");
        }
        assert!(field_err("[1,2]").starts_with("expected an object"));
        // The goal is judged before the actions.
        assert!(field_err(r#"{"goal":null,"actions":[]}"#).starts_with("field `goal`"));
        // A long rejected value is shortened in the message.
        let long = format!("{{\"goal\":\"{}\",\"actions\":[1]}}", "x".repeat(500));
        assert!(field_err(&long).len() < 200);
    }

    #[test]
    fn syntax_errors_name_the_byte_column_and_win_over_field_errors() {
        assert_eq!(syntax_err(r#"{"goal":1 "actions":[1]}"#).column, 11);
        // The goal is wrong, but the line is not even JSON.
        let e = syntax_err(r#"{"goal":"x","actions":[1],}"#);
        assert_eq!(e.what, "expected a string key");
        assert_eq!(syntax_err(r#"{"goal":1,"actions":[1]} x"#).column, 26);
        for bad in [
            "",
            "{",
            r#"{"goal":01x,"actions":[1]}"#,
            r#"{"goal":1-2,"actions":[1]}"#,
            r#"{"goal":-,"actions":[1]}"#,
            r#"{"goal":1,"actions":[1,]}"#,
            r#"{"goal":1,"actions":[1],"s":"\x"}"#,
            r#"{"goal":1,"actions":[1],"s":"\ud800"}"#,
            r#"{"goal":1,"actions":[1],"s":"\u12"}"#,
            r#"{"goal":1,"actions":[1],"s":"open}"#,
            r#"{"goal":1,"actions":[1],"t":tru}"#,
            "{\"goal\":1,\"actions\":[1]}\x0b",
        ] {
            syntax_err(bad);
        }
        let mut actions = Vec::new();
        let e = parse_record(b"{\"goal\":1,\"s\":\"\xff\"}", &mut actions).unwrap_err();
        assert_eq!(
            e,
            RecordError::Syntax(SyntaxError {
                column: 16,
                what: "invalid UTF-8"
            })
        );
    }

    #[test]
    fn nesting_is_limited_like_the_vendored_parser() {
        // The record object is level 1, so an unknown field may nest 127
        // more levels.
        let nested = |levels: usize| {
            format!(
                "{{\"goal\":1,\"actions\":[1],\"x\":{}{}}}",
                "[".repeat(levels),
                "]".repeat(levels)
            )
        };
        assert!(parse(&nested(MAX_DEPTH - 1)).is_ok());
        assert_eq!(
            syntax_err(&nested(MAX_DEPTH)).what,
            "nesting deeper than 128 levels"
        );
        // Far deeper, unclosed: a typed error, not a stack overflow.
        let deep = format!("{{\"x\":{}", "[".repeat(200_000));
        assert_eq!(syntax_err(&deep).what, "nesting deeper than 128 levels");
        assert!(
            field_err(&format!("{}{}", "[".repeat(128), "]".repeat(128)))
                .starts_with("expected an object")
        );
        assert_eq!(
            syntax_err(&"[".repeat(200_000)).what,
            "nesting deeper than 128 levels"
        );
    }

    #[test]
    fn the_reader_skips_blank_lines_and_counts_them() {
        let text =
            "\n{\"goal\":1,\"actions\":[2]}\n \t\r\n\u{a0}\x0b\n{\"goal\":3,\"actions\":[4,5]}";
        let mut r = RecordReader::new(text.as_bytes());
        assert_eq!(r.next_record().unwrap(), Some((2, Ok(1))));
        assert_eq!(r.actions(), [2]);
        assert_eq!(r.next_record().unwrap(), Some((5, Ok(3))));
        assert_eq!(r.actions(), [4, 5]);
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn append_bodies_in_both_forms() {
        assert_eq!(
            parse_append_body(br#"{"goal": 2, "actions": [0, 5]}"#, 8),
            Ok(vec![(2, vec![0, 5])])
        );
        assert_eq!(
            parse_append_body(
                br#"{"goal":"x","implementations":[{"goal":0,"actions":[1]},{"actions":[2,3],"goal":1}]}"#,
                8
            ),
            Ok(vec![(0, vec![1]), (1, vec![2, 3])])
        );
        assert_eq!(
            parse_append_body(br#"{"implementations":[{"goal":0,"actions":[1]},7,{}]}"#, 8),
            Err(AppendError::Entry(
                1,
                "expected an object with `goal` and `actions` fields, got 7".to_owned()
            ))
        );
        // The entry count is judged before any entry.
        assert_eq!(
            parse_append_body(br#"{"implementations":[7,7,7]}"#, 2),
            Err(AppendError::TooLarge { entries: 3, max: 2 })
        );
        assert_eq!(
            parse_append_body(br#"{"implementations":{},"implementations":[]}"#, 8),
            Err(AppendError::NotArray)
        );
        assert_eq!(
            parse_append_body(br#"{"implementations":[]}"#, 8),
            Err(AppendError::NoEntries)
        );
        assert!(matches!(
            parse_append_body(b"[1]", 8),
            Err(AppendError::Entry(0, _))
        ));
        assert_eq!(parse_append_body(b" \n", 8), Err(AppendError::Empty));
        assert_eq!(parse_append_body(b"\xff", 8), Err(AppendError::NotUtf8));
        assert!(matches!(
            parse_append_body(br#"{"implementations":[{"goal":0,"actions":[1]}"#, 8),
            Err(AppendError::Syntax(_))
        ));
    }
}
