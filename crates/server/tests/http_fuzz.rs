//! Fuzzes the HTTP request reader. Arbitrary bytes and mutated valid
//! requests, delivered 1–3 bytes per `read` under small [`Limits`], must
//! each end in a parsed request, a clean end of stream, or a typed
//! client-side [`ServerError`] — never a panic, and never an error the
//! in-memory transport cannot have caused.
//!
//! The vendored proptest ignores `.proptest-regressions` files, so a
//! failing case the properties find is kept as a hand-written case in
//! [`hand_written_cases`].

use goalrec_server::http::{read_request, HttpReader, Limits};
use goalrec_server::ServerError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Read;

/// Small caps, so every limit is reachable from short inputs, yet wide
/// enough that every unmutated request below fits.
fn limits() -> Limits {
    Limits {
        max_request_line: 48,
        max_header_bytes: 96,
        max_headers: 4,
        max_body_bytes: 24,
    }
}

/// An in-memory transport that hands out 1–3 bytes per `read`, cycling
/// through `steps`.
struct Trickle {
    data: Vec<u8>,
    pos: usize,
    steps: Vec<usize>,
    step: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.steps[self.step % self.steps.len()];
        self.step += 1;
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// One parsed request, reduced to what the assertions compare.
type Parsed = (String, String, Vec<u8>);

/// Reads requests off `data` until the stream ends or a request fails.
/// Returns the parsed requests and the error that ended the stream, if
/// any; fails the property on an outcome the input cannot justify.
fn drain(data: &[u8], steps: &[usize]) -> (Vec<Parsed>, Option<ServerError>) {
    let limits = limits();
    let mut reader = HttpReader::new(Trickle {
        data: data.to_vec(),
        pos: 0,
        steps: steps.to_vec(),
        step: 0,
    });
    let mut parsed = Vec::new();
    loop {
        match read_request(&mut reader, &limits) {
            Ok(Some(request)) => {
                assert!(request.body.len() <= limits.max_body_bytes);
                assert!(request.headers.len() <= limits.max_headers);
                parsed.push((request.method, request.path, request.body));
                // Every request consumes at least its request line.
                assert!(parsed.len() <= data.len(), "more requests than bytes");
            }
            Ok(None) => return (parsed, None),
            Err(err) => {
                assert!(
                    matches!(
                        err,
                        ServerError::BadRequest(_)
                            | ServerError::UriTooLong(_)
                            | ServerError::HeadersTooLarge(_)
                            | ServerError::BodyTooLarge(_)
                            | ServerError::ConnectionClosed
                    ),
                    "input bytes {data:?} gave {err:?}"
                );
                return (parsed, Some(err));
            }
        }
    }
}

/// A request kept as its request line, headers and body, so the
/// mutations can target each before it is serialized.
struct Wire {
    line: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Wire {
    fn bytes(&self) -> Vec<u8> {
        let mut out = format!("{}\r\n", self.line).into_bytes();
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    fn set_header(&mut self, name: &str, value: &str) {
        match self.headers.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value.to_owned(),
            None => self.headers.push((name.to_owned(), value.to_owned())),
        }
    }
}

const LENGTHS: &[&str] = &[
    "",
    "-1",
    "+3",
    " 5",
    "1 2",
    "abc",
    "0x10",
    "25",
    "18446744073709551615",
    "99999999999999999999999",
];
const ENCODINGS: &[&str] = &["chunked", "identity", "IDENTITY", "gzip, chunked", ""];
const LINES: &[&str] = &[
    "GET",
    "GET /",
    "GET / HTTP/1.1 extra",
    "GET / HTTP/2.0",
    "GET\t/\tHTTP/1.1",
    " GET / HTTP/1.1",
    "GET /aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa HTTP/1.1",
];

/// One of `options`, uniformly.
fn pick(rng: &mut StdRng, options: &[&'static str]) -> &'static str {
    options[rng.gen_range(0..options.len())]
}

/// Applies one structural mutation to `wire` (request line, header
/// framing, `content-length`, `transfer-encoding`), then re-serializes it
/// into `bytes` with at most one byte-level mutation on top; a byte-level
/// mutation from an earlier round is replaced by this one.
fn mutate(wire: &mut Wire, bytes: &mut Vec<u8>, rng: &mut StdRng) {
    match rng.gen_range(0..12u32) {
        0 => {
            let v = pick(rng, LENGTHS);
            wire.set_header("content-length", v);
        }
        1 => {
            let delta = rng.gen_range(1..8usize);
            let len = if rng.gen_bool(0.5) {
                wire.body.len() + delta
            } else {
                wire.body.len().saturating_sub(delta)
            };
            wire.set_header("content-length", &len.to_string());
        }
        2 => {
            let v = pick(rng, ENCODINGS);
            wire.set_header("transfer-encoding", v);
        }
        3 => {
            let v = pick(rng, LENGTHS);
            wire.headers
                .push(("content-length".to_owned(), v.to_owned()));
        }
        4 => wire.line = pick(rng, LINES).to_owned(),
        5 if !wire.headers.is_empty() => {
            // Header framing: drop the colon, fold the line, or pad the name.
            let i = rng.gen_range(0..wire.headers.len());
            let (name, value) = wire.headers[i].clone();
            wire.headers[i] = match rng.gen_range(0..3u32) {
                0 => (format!("{name}{value}"), String::new()),
                1 => (format!(" {name}"), value),
                _ => (format!("{name} "), value),
            };
        }
        6 => {
            for i in 0..rng.gen_range(1..8u32) {
                wire.headers
                    .push((format!("x-{i}"), "v".repeat(i as usize * 7)));
            }
        }
        _ => {}
    }
    *bytes = wire.bytes();
    match rng.gen_range(0..8u32) {
        0 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
        }
        1 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            let end = (at + rng.gen_range(1..6usize)).min(bytes.len());
            bytes.drain(at..end);
        }
        2 => {
            let at = rng.gen_range(0..=bytes.len());
            let junk: Vec<u8> = (0..rng.gen_range(1..6u32))
                .map(|_| rng.gen_range(0..=255u8))
                .collect();
            bytes.splice(at..at, junk);
        }
        3 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        4 => {
            // Swap one line ending for a bare `\n`, a bare `\r` or `\r\r\n`.
            let ends: Vec<usize> = bytes
                .windows(2)
                .enumerate()
                .filter(|(_, w)| w == b"\r\n")
                .map(|(i, _)| i)
                .collect();
            if let Some(&at) = ends.get(rng.gen_range(0..ends.len().max(1))) {
                let with: &[u8] = pick(rng, &["\n", "\r", "\r\r\n"]).as_bytes();
                bytes.splice(at..at + 2, with.iter().copied());
            }
        }
        5 => {
            // Pipeline a second copy behind the first.
            let copy = bytes.clone();
            bytes.extend_from_slice(&copy);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(
        data in collection::vec(0u8..=255, 0..160),
        steps in collection::vec(1usize..=3, 1..6),
    ) {
        drain(&data, &steps);
    }

    #[test]
    fn arbitrary_header_shaped_bytes_never_panic(
        data in collection::vec(prop_oneof![
            4 => 0x20u8..0x7f,
            1 => Just(b'\r'),
            2 => Just(b'\n'),
            1 => Just(b':'),
        ], 0..160),
        steps in collection::vec(1usize..=3, 1..6),
    ) {
        let mut input = b"POST / HTTP/1.1\r\n".to_vec();
        input.extend_from_slice(&data);
        drain(&input, &steps);
    }

    #[test]
    fn mutated_requests_parse_or_fail_typed(
        method in "[A-Z]{1,7}",
        path in "[a-z0-9/]{0,12}",
        names in collection::vec("[a-z-]{1,10}", 0..4),
        values in collection::vec("[a-z0-9]{0,6}", 4),
        body in collection::vec(0u8..=255, 0..=24),
        mutations in 0u32..4,
        seed in 0u64..u64::MAX,
        steps in collection::vec(1usize..=3, 1..6),
    ) {
        let mut wire = Wire {
            line: format!("{method} /{path} HTTP/1.1"),
            headers: names.into_iter().zip(values).collect(),
            body,
        };
        wire.set_header("content-length", &wire.body.len().to_string());
        let mut bytes = wire.bytes();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..mutations {
            mutate(&mut wire, &mut bytes, &mut rng);
        }
        let (parsed, err) = drain(&bytes, &steps);
        if mutations == 0 {
            // The unmutated request is within every limit: it parses whole.
            prop_assert!(err.is_none(), "valid request failed: {err:?}");
            prop_assert_eq!(parsed, vec![(method, format!("/{path}"), wire.body)]);
        }
    }
}

/// Framing edge cases, kept as fixed inputs (each also fed whole and one
/// byte at a time).
#[test]
fn hand_written_cases() {
    let cases: &[(&[u8], Option<usize>)] = &[
        // Clean end of stream before any byte.
        (b"", Some(0)),
        // A content-length past `usize` is a bad request, not an overflow.
        (
            b"POST / HTTP/1.1\r\ncontent-length: 99999999999999999999999\r\n\r\n",
            None,
        ),
        // The body is capped before it is read.
        (b"POST / HTTP/1.1\r\ncontent-length: 25\r\n\r\n", None),
        // Content-Length is `1*DIGIT`: no sign.
        (b"POST / HTTP/1.1\r\ncontent-length: +3\r\n\r\nabc", None),
        // Two differing Content-Length headers are refused, not resolved
        // first-wins (a request-smuggling shape behind a proxy).
        (
            b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\nab",
            None,
        ),
        // A body shorter than declared ends in a closed connection.
        (b"POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nab", None),
        // Chunked bodies are refused; identity is the absence of one.
        (
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            None,
        ),
        (
            b"GET / HTTP/1.1\r\ntransfer-encoding: IDENTITY\r\n\r\n",
            Some(1),
        ),
        // Bare `\n` line endings parse; two pipelined requests both do.
        (b"GET /a HTTP/1.0\n\nGET /b HTTP/1.1\r\n\r\n", Some(2)),
        // A header line without a colon.
        (b"GET / HTTP/1.1\r\nno-colon\r\n\r\n", None),
        // More headers than `max_headers`.
        (
            b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\nd: 4\r\ne: 5\r\n\r\n",
            None,
        ),
    ];
    for &(input, expect) in cases {
        for steps in [&[3usize][..], &[1]] {
            let (parsed, err) = drain(input, steps);
            match expect {
                Some(n) => assert!(
                    err.is_none() && parsed.len() == n,
                    "{input:?}: {parsed:?} {err:?}"
                ),
                None => assert!(err.is_some(), "{input:?} parsed as {parsed:?}"),
            }
        }
    }
}
