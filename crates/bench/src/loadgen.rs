//! `loadgen` — CI smokes for `goalrec-server`, each against an in-process
//! server on an ephemeral loopback port (no network noise, no fixed-port
//! races). One mode flag is required.
//!
//! ```text
//! loadgen --smoke | --chaos-smoke
//!
//! --smoke         probe /healthz and /v1/recommend against an in-process
//!                 server, raise a real SIGTERM, assert a clean drain,
//!                 exit 0 — no load, no report
//! --chaos-smoke   drive recommend traffic while hot reloads go through
//!                 injected fault plans (IO error, torn write, slow read);
//!                 assert every faulted reload rolls back, no request is
//!                 dropped or 5xx'd, and a clean reload then bumps the
//!                 model generation. Then validates the tracing pipeline:
//!                 every response carries an `X-Goalrec-Trace` id, and the
//!                 final `/debug/traces` snapshot (written to
//!                 DEBUG_traces.json for CI artifacts) holds ≥1 trace per
//!                 strategy, each with a `span.rank` span and top-level
//!                 spans summing to within 10% of the trace total. A
//!                 second section drives the live
//!                 mutation plane: rows are appended into the delta and
//!                 three consecutive background compactions are faulted
//!                 (read error at the read-back verify, torn write at the
//!                 persist, stall-then-error write) — each must roll back
//!                 whole with the old generation serving and the delta and
//!                 WAL intact, and the clean backoff retry must then
//!                 compact, bump the generation, and clear the WAL, all
//!                 with zero dropped or non-200 requests
//! ```
//!
//! The hot-path guard rails live in this file's `guard_rails` test module
//! (timing gates, run in release only:
//! `cargo test --release -p goalrec-bench --bin loadgen -- --test-threads=1`).
//! End-to-end performance is measured by `perfbench/`.

use goalrec_core::LibraryBuilder;
use goalrec_server::{shutdown, start, ServerConfig, Shutdown};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A synthetic goal library: `goals` implementations of `impl_len`
/// actions each over an `actions`-word vocabulary.
fn synthetic_library_sized(goals: u64, actions: u64, impl_len: usize) -> goalrec_core::GoalLibrary {
    let mut builder = LibraryBuilder::new();
    let mut seed = 0x9e37_79b9_u64;
    let mut next = move |m: u64| {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) % m
    };
    for g in 0..goals {
        let names: Vec<String> = (0..impl_len)
            .map(|_| format!("action-{}", next(actions)))
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        builder
            .add_impl(&format!("goal-{g}"), refs)
            .expect("synthetic library");
    }
    builder.build().expect("synthetic library")
}

/// The serving-phase library: big enough to make ranking do real work —
/// 200 goals over a 300-action vocabulary, 6 actions per implementation.
fn synthetic_library() -> goalrec_core::GoalLibrary {
    synthetic_library_sized(200, 300, 6)
}

fn config(workers: usize, queue_depth: usize) -> ServerConfig {
    ServerConfig {
        port: 0,
        workers,
        queue_depth,
        deadline: Duration::from_millis(1000),
        idle_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

const RECOMMEND_BODY: &str = r#"{"activity": [1, 2, 3, 4], "strategy": "breadth", "k": 10}"#;

fn recommend_request(keep_alive: bool) -> Vec<u8> {
    format!(
        "POST /v1/recommend HTTP/1.1\r\nhost: loadgen\r\ncontent-length: {}\r\n\
         connection: {}\r\n\r\n{RECOMMEND_BODY}",
        RECOMMEND_BODY.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes()
}

/// Reads one response off `stream`; returns its status code.
fn read_status(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<u16> {
    buf.clear();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(std::io::ErrorKind::InvalidData)?;
    let len: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(n, _)| n.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let mut have = buf.len() - header_end;
    while have < len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        have += n;
    }
    Ok(status)
}

/// Per-outcome request counts of one or more keep-alive clients.
#[derive(Default)]
struct ClientTally {
    ok: u64,
    rejected: u64,
    other: u64,
    errors: u64,
}

/// One keep-alive client: a single connection reused for every request.
fn keep_alive_client(addr: SocketAddr, stop: Arc<AtomicBool>) -> ClientTally {
    let mut tally = ClientTally::default();
    let request = recommend_request(true);
    let mut buf = Vec::with_capacity(8192);
    // ordering: Relaxed — `stop` only quiesces the request loop; the
    // tallies are handed back through thread join, which synchronizes.
    'reconnect: while !stop.load(Ordering::Relaxed) {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            tally.errors += 1;
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        // ordering: as above
        while !stop.load(Ordering::Relaxed) {
            if stream.write_all(&request).is_err() {
                tally.errors += 1;
                continue 'reconnect;
            }
            match read_status(&mut stream, &mut buf) {
                Ok(200) => tally.ok += 1,
                Ok(503) => {
                    tally.rejected += 1;
                    continue 'reconnect; // 503s close the connection
                }
                Ok(_) => {
                    tally.other += 1;
                    continue 'reconnect;
                }
                Err(_) => {
                    tally.errors += 1;
                    continue 'reconnect;
                }
            }
        }
        break;
    }
    tally
}

/// Starts `n` keep-alive clients against `addr`; they run until `stop`.
fn spawn_clients(
    addr: SocketAddr,
    n: usize,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<ClientTally>> {
    (0..n)
        .map(|_| {
            let stop = Arc::clone(stop);
            std::thread::spawn(move || keep_alive_client(addr, stop))
        })
        .collect()
}

/// Stops the clients and returns their merged tally.
fn stop_clients(
    stop: &AtomicBool,
    clients: Vec<std::thread::JoinHandle<ClientTally>>,
) -> ClientTally {
    // ordering: Relaxed — quiesce signal only; the join below is the
    // synchronization point for the tallies.
    stop.store(true, Ordering::Relaxed);
    let mut merged = ClientTally::default();
    for c in clients {
        let tally = c.join().expect("client thread");
        merged.ok += tally.ok;
        merged.rejected += tally.rejected;
        merged.other += tally.other;
        merged.errors += tally.errors;
    }
    merged
}

/// CI smoke: probe every route once, then exercise the *real* SIGTERM
/// path and require a clean drain.
fn smoke() {
    shutdown::install_signal_handlers();
    let token = Shutdown::watching_signals();
    let handle = goalrec_server::start_with_shutdown(synthetic_library(), config(2, 16), token)
        .expect("start server");
    let addr = handle.local_addr();
    let mut buf = Vec::new();

    let mut health = TcpStream::connect(addr).expect("connect /healthz");
    health
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: smoke\r\nconnection: close\r\n\r\n")
        .expect("write /healthz");
    assert_eq!(
        read_status(&mut health, &mut buf).expect("read /healthz"),
        200
    );
    eprintln!("smoke: /healthz ok");

    let mut rec = TcpStream::connect(addr).expect("connect /v1/recommend");
    rec.write_all(&recommend_request(false))
        .expect("write /v1/recommend");
    assert_eq!(
        read_status(&mut rec, &mut buf).expect("read /v1/recommend"),
        200
    );
    eprintln!("smoke: /v1/recommend ok");

    // Real signal, real drain: the accept loop and both workers must exit.
    shutdown::raise_signal(shutdown::SIGTERM);
    let drained = std::thread::spawn(move || handle.wait());
    std::thread::sleep(Duration::from_millis(50));
    drained.join().expect("graceful drain after SIGTERM");
    eprintln!("smoke: SIGTERM drained cleanly");
}

/// Fetches one full response: status plus body text.
fn fetch(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("chaos: connect");
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    stream.write_all(raw.as_bytes()).expect("chaos: write");
    let mut raw_reply = Vec::new();
    stream.read_to_end(&mut raw_reply).expect("chaos: read");
    let text = String::from_utf8_lossy(&raw_reply).into_owned();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("chaos: status line");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// A numeric field from the `/healthz` body.
fn healthz_u64(addr: SocketAddr, key: &str) -> u64 {
    let (status, body) = fetch(
        addr,
        "GET /healthz HTTP/1.1\r\nhost: chaos\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "/healthz must stay green, body: {body}");
    body.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no {key} in /healthz body: {body}"))
}

/// The serving generation as reported by `/healthz`.
fn generation(addr: SocketAddr) -> u64 {
    healthz_u64(addr, "generation")
}

/// One counter's value from `/metrics?format=prometheus` (the registry is
/// process-global, so chaos sections diff against a baseline read).
fn metric_counter(addr: SocketAddr, prom: &str) -> u64 {
    metric_value(addr, prom).unwrap_or_else(|| panic!("no {prom} counter in /metrics")) as u64
}

/// `POST /v1/admin/reload` with `body`; returns the status code.
fn admin_reload(addr: SocketAddr, body: &str) -> u16 {
    let raw = format!(
        "POST /v1/admin/reload HTTP/1.1\r\nhost: chaos\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    );
    fetch(addr, &raw).0
}

/// One traced recommend round-trip: asserts a 200 and returns the
/// response's `X-Goalrec-Trace` id.
fn recommend_traced(addr: SocketAddr, strategy: &str) -> String {
    let body = format!(r#"{{"activity": [1, 2, 3, 4], "strategy": "{strategy}", "k": 10}}"#);
    let raw = format!(
        "POST /v1/recommend HTTP/1.1\r\nhost: chaos\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).expect("chaos: connect");
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    stream.write_all(raw.as_bytes()).expect("chaos: write");
    let mut raw_reply = Vec::new();
    stream.read_to_end(&mut raw_reply).expect("chaos: read");
    let text = String::from_utf8_lossy(&raw_reply);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("chaos: status line");
    assert_eq!(status, 200, "traced {strategy} recommend must answer 200");
    text.lines()
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("x-goalrec-trace"))
        .map(|(_, v)| v.trim().to_owned())
        .expect("every response from a tracing server must carry X-Goalrec-Trace")
}

/// The strategies the API accepts, paired with the internal names traces
/// are tagged with.
const TRACE_STRATEGIES: &[(&str, &str)] = &[
    ("breadth", "Breadth"),
    ("best-match", "BestMatch"),
    ("focus-cmp", "Focus_cmp"),
    ("focus-cl", "Focus_cl"),
];

/// Drives a few requests per strategy, snapshots `/debug/traces`, writes
/// the dump to `out`, and checks the coherence invariants: at least one
/// captured trace per strategy; every completed recommend trace carries a
/// `span.rank` span and a positive total; and on every captured trace the
/// top-level spans sum to within 10% of the trace total (which is, by
/// construction, the request's `server.latency` observation).
fn validate_traces(addr: SocketAddr, out: &std::path::Path) {
    use serde_json::Value;

    for (api, _) in TRACE_STRATEGIES {
        for _ in 0..4 {
            let id = recommend_traced(addr, api);
            assert_eq!(id.len(), 16, "trace ids are 16 hex chars, got '{id}'");
            assert!(
                id.chars().all(|c| c.is_ascii_hexdigit()),
                "trace id '{id}' is not hex"
            );
        }
    }

    let (status, body) = fetch(
        addr,
        "GET /debug/traces HTTP/1.1\r\nhost: chaos\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "/debug/traces must answer 200, body: {body}");
    std::fs::write(out, &body).expect("chaos: write trace dump");

    let doc: Value = serde_json::from_str(&body).expect("chaos: parse /debug/traces");
    let traces = match doc.get("traces") {
        Some(Value::Array(items)) => items,
        other => panic!("/debug/traces must hold a 'traces' array, got {other:?}"),
    };
    assert!(
        !traces.is_empty(),
        "chaos left no traces in the tail sampler"
    );

    let mut seen_strategies: Vec<&str> = Vec::new();
    for trace in traces {
        let total = trace
            .get("total_ns")
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("trace without a numeric total_ns: {trace}"));
        assert!(total > 0, "captured trace with zero total: {trace}");
        let spans = match trace.get("spans") {
            Some(Value::Array(items)) => items,
            other => panic!("trace without a spans array: {other:?}"),
        };
        let top_level_sum: u64 = spans
            .iter()
            .filter(|s| s.get("child") != Some(&Value::Bool(true)))
            .filter_map(|s| s.get("dur_ns").and_then(Value::as_u64))
            .sum();
        assert!(
            total.abs_diff(top_level_sum) * 10 <= total,
            "top-level spans ({top_level_sum} ns) must sum to within 10% of the \
             trace total ({total} ns): {trace}"
        );
        let route = trace.get("route").and_then(Value::as_str).unwrap_or("");
        let status = trace.get("status").and_then(Value::as_u64).unwrap_or(0);
        if route == "recommend" && status == 200 {
            assert!(
                spans.iter().any(|s| s.get("name").and_then(Value::as_str)
                    == Some(goalrec_obs::names::SPAN_RANK)),
                "completed recommend trace without a span.rank span: {trace}"
            );
            if let Some(strategy) = trace.get("strategy").and_then(Value::as_str) {
                if let Some(known) = TRACE_STRATEGIES
                    .iter()
                    .map(|(_, internal)| *internal)
                    .find(|internal| *internal == strategy)
                {
                    if !seen_strategies.contains(&known) {
                        seen_strategies.push(known);
                    }
                }
            }
        }
    }
    for (_, internal) in TRACE_STRATEGIES {
        assert!(
            seen_strategies.contains(internal),
            "no captured trace for strategy {internal} (saw {seen_strategies:?})"
        );
    }
    eprintln!(
        "chaos: {} traces captured, all strategies covered, span sums coherent → {}",
        traces.len(),
        out.display()
    );
}

/// Writes the serving library's compiled model to `path` cut at three
/// fifths: the partial file a non-crash-safe writer would leave behind.
fn torn_model(path: &std::path::Path) -> std::path::PathBuf {
    let model = goalrec_core::GoalModel::build(&synthetic_library()).expect("chaos: model");
    goalrec_datasets::grlb2::write_model_v2(&model, path).expect("chaos: write model");
    let bytes = std::fs::read(path).expect("chaos: read model");
    std::fs::write(path, &bytes[..bytes.len() * 3 / 5]).expect("chaos: torn file");
    path.to_path_buf()
}

/// Chaos smoke: recommend traffic flows continuously while reload
/// attempts are pushed through injected fault plans. Every faulted
/// attempt must answer 500 and leave the last good generation serving;
/// the traffic tally must show zero non-200 responses and zero transport
/// errors; and once the chaos stops, a clean reload must bump the
/// generation.
fn chaos_smoke() {
    use goalrec_faults::{with_plan, FaultPlan};

    let dir = std::env::temp_dir().join("goalrec-chaos-smoke");
    std::fs::create_dir_all(&dir).expect("chaos: temp dir");
    // A JSONL serving file: every byte of it is read through the fault
    // layer, so plans may fire anywhere in it (a mapped `.grlb2` reads
    // only its 256-byte header that way).
    let serving = dir.join("chaos-serving.jsonl");
    goalrec_datasets::io::write_library_jsonl(&synthetic_library(), &serving)
        .expect("chaos: seed library");
    let good_bytes = std::fs::read(&serving).expect("chaos: read seed");

    // Each keep-alive client pins a worker for the whole window, so give
    // the probes and the admin endpoint headroom beyond the 4 clients.
    let mut cfg = config(8, 64);
    cfg.library_path = Some(serving.clone());
    let handle = start(synthetic_library(), cfg).expect("chaos: start server");
    let addr = handle.local_addr();

    // Continuous recommend traffic for the whole chaos window.
    let stop = Arc::new(AtomicBool::new(false));
    let clients = spawn_clients(addr, 4, &stop);

    assert_eq!(generation(addr), 1);

    // Faulted attempt 1: the library read dies with an injected IO error.
    with_plan(
        FaultPlan::parse("path=chaos-serving;read-error@byte=8").expect("chaos: plan"),
        || {
            assert_eq!(admin_reload(addr, ""), 500, "faulted reload must 500");
        },
    );
    assert_eq!(generation(addr), 1, "failed reload must roll back");
    eprintln!("chaos: reload under injected read error rolled back, generation 1 serving");

    // Faulted attempt 2: a torn-write artifact — the partial model file a
    // non-crash-safe writer would leave behind — must be rejected whole.
    let torn = torn_model(&dir.join("chaos-torn.grlb2"));
    assert_eq!(
        admin_reload(addr, &format!(r#"{{"path": "{}"}}"#, torn.display())),
        500,
        "a torn library file must never be swapped in"
    );
    assert_eq!(generation(addr), 1, "torn-file reload must roll back");
    // And the crate's own writer cannot produce such a file: a torn write
    // through the crash-safe writer leaves the serving file untouched.
    with_plan(
        FaultPlan::parse("path=chaos-serving;torn-write@byte=64").expect("chaos: plan"),
        || {
            assert!(
                goalrec_datasets::io::write_library_jsonl(&synthetic_library(), &serving).is_err(),
                "torn write must fail the writer"
            );
        },
    );
    assert_eq!(
        std::fs::read(&serving).expect("chaos: reread"),
        good_bytes,
        "crash-safe writer must leave the target byte-identical after a torn write"
    );
    eprintln!("chaos: torn-write artifact rejected, crash-safe writer kept the target intact");

    // Faulted attempt 3: a slow read that then errors mid-file.
    with_plan(
        FaultPlan::parse("path=chaos-serving;stall-50ms@op=1;read-error@byte=512")
            .expect("chaos: plan"),
        || {
            assert_eq!(admin_reload(addr, ""), 500, "slow faulted reload must 500");
        },
    );
    assert_eq!(generation(addr), 1, "slow faulted reload must roll back");
    eprintln!("chaos: reload under stalled-then-failing read rolled back, generation 1 serving");

    // Chaos over: a clean reload must go through and bump the generation.
    assert_eq!(admin_reload(addr, ""), 200, "clean reload must succeed");
    assert_eq!(generation(addr), 2, "clean reload must bump the generation");
    eprintln!("chaos: clean reload bumped to generation 2");

    let merged = stop_clients(&stop, clients);

    // With the background traffic stopped, validate the tracing pipeline
    // end to end and leave the dump behind for CI artifacts.
    validate_traces(addr, std::path::Path::new("DEBUG_traces.json"));

    handle.shutdown();

    assert!(
        merged.ok > 0,
        "chaos traffic produced no successful requests"
    );
    assert_eq!(
        (merged.other, merged.errors, merged.rejected),
        (0, 0, 0),
        "chaos reloads must not fail, drop, or shed recommend traffic \
         (ok {}, non-200 {}, transport errors {}, 503s {})",
        merged.ok,
        merged.other,
        merged.errors,
        merged.rejected
    );
    eprintln!(
        "chaos: {} recommend requests answered 200, zero dropped, zero 5xx, zero 503",
        merged.ok
    );
}

/// `POST /v1/admin/library/append` with `body`; returns status and body.
fn admin_append(addr: SocketAddr, body: &str) -> (u16, String) {
    let raw = format!(
        "POST /v1/admin/library/append HTTP/1.1\r\nhost: chaos\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    );
    fetch(addr, &raw)
}

/// Polls `probe` every 25 ms until it returns true, or panics with `what`
/// after ten seconds.
fn wait_until(what: &str, probe: impl FnMut() -> bool) {
    wait_until_or(what, probe, String::new);
}

/// [`wait_until`], with `why` telling what the server reported when the
/// wait timed out.
fn wait_until_or(what: &str, mut probe: impl FnMut() -> bool, why: impl FnOnce() -> String) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !probe() {
        if Instant::now() >= deadline {
            panic!("timed out waiting for {what}; {}", why());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One numeric series from `/metrics?format=prometheus`, `None` while
/// the server has not created it.
fn metric_value(addr: SocketAddr, prom: &str) -> Option<f64> {
    let (status, body) = fetch(
        addr,
        "GET /metrics?format=prometheus HTTP/1.1\r\nhost: chaos\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "/metrics must stay green");
    body.lines().find_map(|l| {
        let mut parts = l.split_whitespace();
        (parts.next() == Some(prom)).then(|| parts.next().and_then(|v| v.parse().ok()))?
    })
}

/// The background compactor's state as `/metrics` reports it: what a
/// timed-out wait for a compaction prints. Each failure's reason is on
/// stderr already, one `goalrec-serve: compaction failed (…)` line each.
fn compaction_report(addr: SocketAddr, attempts_before: f64) -> String {
    let value = |prom: &str| metric_value(addr, prom).unwrap_or(f64::NAN);
    let failures = value("goalrec_library_compaction_failures");
    format!(
        "compaction failures {failures} (backoff {} ms after that many in a row), {} \
         compaction attempts in the wait window; the last `compaction failed` line above \
         says why",
        goalrec_server::reload::compaction_backoff(failures as u32).as_millis(),
        value("goalrec_library_compaction_latency_count") - attempts_before,
    )
}

/// Faulted-compaction chaos: rows are appended into the live delta, and
/// the age-triggered background compaction is then driven through three
/// consecutive injected fault plans — a read error at the read-back
/// verify, a torn write at the persist, and a stall-then-error write.
/// Every faulted compaction must roll back whole (old generation serving,
/// delta and WAL intact, serving file never torn), recommend traffic must
/// see zero drops and zero non-200s throughout, and once the faults are
/// lifted the backoff-gated retry must compact cleanly: generation
/// bumped, delta emptied, WAL cleared, merged library on disk.
fn compaction_chaos() {
    use goalrec_faults::{arm, disarm, FaultPlan};

    let dir = std::env::temp_dir().join("goalrec-chaos-compact");
    std::fs::create_dir_all(&dir).expect("chaos: temp dir");
    let serving = dir.join("chaos-live.jsonl");
    goalrec_datasets::io::write_library_jsonl(&synthetic_library(), &serving)
        .expect("chaos: seed library");
    let _ = std::fs::remove_file(dir.join("chaos-live.jsonl.wal"));
    let base_impls = synthetic_library().len();

    let mut cfg = config(8, 64);
    cfg.library_path = Some(serving.clone());
    cfg.compact_threshold = 0; // no count trigger —
    cfg.compact_max_age = Duration::from_millis(500); // — age drives it
    let handle = start(synthetic_library(), cfg).expect("chaos: start live server");
    let addr = handle.local_addr();

    // Continuous recommend traffic for the whole faulted-compaction window.
    let stop = Arc::new(AtomicBool::new(false));
    let clients = spawn_clients(addr, 4, &stop);

    let failures0 = metric_counter(addr, "goalrec_library_compaction_failures");
    let compactions0 = metric_counter(addr, "goalrec_library_compactions");

    // Three consecutive fault plans, armed back to back with no unarmed
    // gap (a plan faults every attempt while armed, so a backoff retry
    // landing before the next plan is armed still fails and rolls back).
    let plans = [
        (
            "read error at the read-back verify",
            "path=chaos-live.jsonl;read-error@op=1",
        ),
        (
            "torn write at the persist",
            "path=chaos-live.jsonl;torn-write@byte=64",
        ),
        (
            "stall-then-error write",
            "path=chaos-live.jsonl;stall-50ms@op=1;write-error@op=2",
        ),
    ];
    arm(FaultPlan::parse(plans[0].1).expect("chaos: plan"));

    // Stage two rows; the age trigger fires the first compaction ~500ms on.
    for body in [
        r#"{"goal": 0, "actions": [1, 2, 3]}"#,
        r#"{"implementations": [{"goal": 1, "actions": [4, 5]}]}"#,
    ] {
        let (status, reply) = admin_append(addr, body);
        assert_eq!(status, 200, "append must stage: {reply}");
    }
    assert_eq!(healthz_u64(addr, "delta_size"), 2);
    assert_eq!(generation(addr), 1);

    for (i, (what, plan)) in plans.iter().enumerate() {
        if i > 0 {
            arm(FaultPlan::parse(plan).expect("chaos: plan"));
        }
        let want = failures0 + i as u64 + 1;
        let attempts_before =
            metric_value(addr, "goalrec_library_compaction_latency_count").unwrap_or(0.0);
        wait_until_or(
            &format!("faulted compaction #{} ({what})", i + 1),
            || metric_counter(addr, "goalrec_library_compaction_failures") >= want,
            || compaction_report(addr, attempts_before),
        );
        assert_eq!(
            generation(addr),
            1,
            "a faulted compaction must leave the old generation serving"
        );
        assert_eq!(
            healthz_u64(addr, "delta_size"),
            2,
            "a faulted compaction must leave the delta intact"
        );
        // The serving file is never torn: every line parses, and the row
        // count is either the base or the merged library (a failure after
        // the atomic rename but before the WAL clear legitimately leaves
        // the merge behind). Read with std::fs — the datasets readers
        // would go through the armed fault plan.
        let raw = std::fs::read(&serving).expect("chaos: raw read of the serving file");
        let mut records = goalrec_datasets::record::RecordReader::new(&raw[..]);
        let mut rows = 0;
        while let Some((line, goal)) = records.next_record().expect("chaos: in-memory read") {
            if let Err(e) = goal {
                panic!("chaos: the serving file must never be torn (line {line}: {e})");
            }
            rows += 1;
        }
        assert!(
            rows == base_impls || rows == base_impls + 2,
            "serving file holds {rows} implementations, expected {base_impls} or {}",
            base_impls + 2
        );
        eprintln!(
            "chaos: compaction under {what} rolled back — generation 1 serving, delta intact"
        );
    }
    disarm();

    // Faults lifted: the backoff-gated retry must compact cleanly. A
    // timeout names the compactor's failures, backoff and the attempts
    // it made while we waited.
    let attempts_before =
        metric_value(addr, "goalrec_library_compaction_latency_count").unwrap_or(0.0);
    wait_until_or(
        "the clean compaction retry",
        || generation(addr) == 2,
        || compaction_report(addr, attempts_before),
    );
    wait_until("the delta to empty", || {
        healthz_u64(addr, "delta_size") == 0
    });
    assert!(
        metric_counter(addr, "goalrec_library_compactions") > compactions0,
        "the clean retry must count as a compaction"
    );
    let on_disk = goalrec_datasets::io::read_library_auto(&serving).expect("chaos: reread");
    assert_eq!(
        on_disk.len(),
        base_impls + 2,
        "the merged library must be persisted after the clean compaction"
    );
    let wal = dir.join("chaos-live.jsonl.wal");
    assert_eq!(
        std::fs::read(&wal).map(|b| b.len()).unwrap_or(0),
        0,
        "the WAL must be cleared by the clean compaction"
    );
    eprintln!("chaos: clean retry compacted to generation 2, delta 0, WAL cleared");

    let merged = stop_clients(&stop, clients);
    handle.shutdown();

    assert!(
        merged.ok > 0,
        "compaction chaos traffic produced no successful requests"
    );
    assert_eq!(
        (merged.other, merged.errors, merged.rejected),
        (0, 0, 0),
        "faulted compactions must not fail, drop, or shed recommend traffic \
         (ok {}, non-200 {}, transport errors {}, 503s {})",
        merged.ok,
        merged.other,
        merged.errors,
        merged.rejected
    );
    eprintln!(
        "chaos: {} recommend requests answered 200 across three faulted compactions, \
         zero dropped, zero 5xx, zero 503",
        merged.ok
    );
}

fn main() {
    let mut is_smoke = false;
    let mut is_chaos = false;

    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => is_smoke = true,
            "--chaos-smoke" => is_chaos = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument: {other}")),
        }
    }

    if is_chaos {
        chaos_smoke();
        compaction_chaos();
        println!(
            "loadgen --chaos-smoke: faulted reloads and compactions rolled back (model and \
             live delta), traffic unharmed, clean retries bumped the generations"
        );
        return;
    }

    if is_smoke {
        smoke();
        println!("loadgen --smoke: all probes ok, graceful drain ok");
        return;
    }

    usage("one of --smoke or --chaos-smoke is required");
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("usage: loadgen --smoke | --chaos-smoke");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The hot-path guard rails: one timing gate per test, each failing with
/// its gate, its bound and the measured value. They are meaningless in a
/// debug build, so they run in release only, one at a time:
/// `cargo test --release -p goalrec-bench --bin loadgen -- --test-threads=1`.
#[cfg(test)]
mod guard_rails {
    use super::*;
    use goalrec_core::strategies::Strategy;
    use goalrec_core::{
        Activity, BestMatch, Breadth, Focus, FocusVariant, GoalModel, LiveRef, Scratch,
    };
    use goalrec_datasets::foodmart::{FoodMart, FoodMartConfig};
    use std::hint::black_box;

    /// BestMatch's p95 budget over the FoodMart test-scale carts.
    const BEST_MATCH_P95_LIMIT_US: f64 = 1_000.0;

    /// The same budget for each of Breadth, Focus_cmp and Focus_cl.
    const FOCUS_AND_BREADTH_P95_LIMIT_US: f64 = 1_000.0;

    /// Opening a compiled GRLB v2 model (validate checksums + mmap) must
    /// beat parsing the JSONL source and building the model by at least
    /// this factor at the 200k-implementation scale.
    const COLD_START_V2_SPEEDUP_FLOOR: f64 = 10.0;

    /// Keep-alive throughput committed with the CSR + scratch-arena
    /// change; a run more than 30% below it fails.
    const KEEPALIVE_BASELINE_RPS: f64 = 30_000.0;
    const KEEPALIVE_FLOOR_RPS: f64 = KEEPALIVE_BASELINE_RPS * 0.7;

    /// The idle live mutation plane (library path set, empty delta) must
    /// keep at least this share of the plain server's throughput.
    const IDLE_LIVE_PLANE_RATIO_FLOOR: f64 = 0.95;

    /// Keep-alive clients and window length of each throughput window.
    const CLIENTS: usize = 8;
    const WINDOW: Duration = Duration::from_secs(2);

    /// The nearest-rank p95 of a sorted, non-empty sample, in µs.
    fn p95_us(sorted_ns: &[u64]) -> f64 {
        let rank = (0.95 * (sorted_ns.len() - 1) as f64).round() as usize;
        sorted_ns[rank] as f64 / 1_000.0
    }

    /// Sorted per-call latencies (ns) of `rank` over three passes of
    /// `carts`.
    fn time_over_carts(carts: &[Activity], mut rank: impl FnMut(&Activity)) -> Vec<u64> {
        let mut lat_ns: Vec<u64> = Vec::with_capacity(carts.len() * 3);
        for _ in 0..3 {
            lat_ns.extend(carts.iter().map(|cart| {
                let t0 = Instant::now();
                rank(cart);
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }));
        }
        lat_ns.sort_unstable();
        lat_ns
    }

    /// The FoodMart test-scale carts (the `repro table6 --scale test`
    /// workload) and their library.
    fn foodmart() -> FoodMart {
        FoodMart::generate(&FoodMartConfig::test_scale())
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing gate: check.sh runs it in release")]
    fn best_match_p95_under_1_ms() {
        let fm = foodmart();
        let model = GoalModel::build(&fm.library).expect("foodmart model");
        let best_match = BestMatch::default();
        let mut scratch = Scratch::new();
        let mut rank = |cart: &Activity| {
            black_box(best_match.rank_into(LiveRef::solid(&model), cart, 10, &mut scratch));
        };
        // Two untimed passes settle the arena, caches and branch
        // predictors; the timed window covers the carts three times.
        for _ in 0..2 {
            fm.carts.iter().for_each(&mut rank);
        }
        let p95 = p95_us(&time_over_carts(&fm.carts, rank));
        eprintln!("BestMatch p95 {p95:.0} µs (bound {BEST_MATCH_P95_LIMIT_US:.0} µs)");
        assert!(
            p95 < BEST_MATCH_P95_LIMIT_US,
            "BestMatch p95 gate: {p95:.0} µs over the FoodMart test-scale carts, \
             bound < {BEST_MATCH_P95_LIMIT_US:.0} µs"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing gate: check.sh runs it in release")]
    fn focus_and_breadth_p95_under_1_ms() {
        let fm = foodmart();
        let model = GoalModel::build(&fm.library).expect("foodmart model");
        let strategies: [&dyn Strategy; 3] = [
            &Breadth,
            &Focus::new(FocusVariant::Completeness),
            &Focus::new(FocusVariant::Closeness),
        ];
        let mut scratch = Scratch::new();
        for strategy in strategies {
            let mut rank = |cart: &Activity| {
                black_box(strategy.rank_into(LiveRef::solid(&model), cart, 10, &mut scratch));
            };
            // The same method as the BestMatch gate: two untimed passes,
            // then three timed passes over the carts.
            for _ in 0..2 {
                fm.carts.iter().for_each(&mut rank);
            }
            let p95 = p95_us(&time_over_carts(&fm.carts, rank));
            let name = strategy.name();
            eprintln!("{name} p95 {p95:.0} µs (bound {FOCUS_AND_BREADTH_P95_LIMIT_US:.0} µs)");
            assert!(
                p95 < FOCUS_AND_BREADTH_P95_LIMIT_US,
                "{name} p95 gate: {p95:.0} µs over the FoodMart test-scale carts, \
                 bound < {FOCUS_AND_BREADTH_P95_LIMIT_US:.0} µs"
            );
        }
    }

    /// Best-of-3 cold start, milliseconds (one untimed warm-up first so
    /// the page cache holds the file either way — the comparison is about
    /// work per byte, not disk speed).
    fn best_cold_start_ms(mut boot: impl FnMut() -> usize) -> f64 {
        black_box(boot());
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                black_box(boot());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing gate: check.sh runs it in release")]
    fn grlb2_cold_start_at_least_10x_faster_than_jsonl() {
        let dir = std::env::temp_dir().join(format!("goalrec-guard-cold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("cold-start temp dir");
        let (jsonl, v2) = (dir.join("cold.jsonl"), dir.join("cold.grlb2"));
        let lib = synthetic_library_sized(200_000, 8_000, 8);
        goalrec_datasets::io::write_library_jsonl(&lib, &jsonl).expect("write jsonl");
        let built = GoalModel::build(&lib).expect("cold-start model");
        goalrec_datasets::grlb2::write_model_v2(&built, &v2).expect("write grlb v2");
        drop((lib, built));

        let jsonl_ms = best_cold_start_ms(|| {
            let l = goalrec_datasets::io::read_library_auto(&jsonl).expect("read jsonl");
            GoalModel::build(&l).expect("jsonl build").num_impls()
        });
        let v2_ms = best_cold_start_ms(|| {
            goalrec_datasets::grlb2::read_model_v2(&v2)
                .expect("read grlb v2")
                .num_impls()
        });
        std::fs::remove_dir_all(&dir).ok();
        let speedup = jsonl_ms / v2_ms.max(f64::EPSILON);
        eprintln!("200k impls: jsonl {jsonl_ms:.1} ms, v2 mmap {v2_ms:.2} ms ({speedup:.1}x)");
        assert!(
            speedup >= COLD_START_V2_SPEEDUP_FLOOR,
            "cold-start gate: GRLB v2 open ({v2_ms:.2} ms) is {speedup:.1}x faster than the \
             JSONL read + build ({jsonl_ms:.1} ms) at 200k implementations, \
             bound ≥ {COLD_START_V2_SPEEDUP_FLOOR}x"
        );
    }

    /// One throughput window: [`CLIENTS`] keep-alive clients against a
    /// fresh server on [`synthetic_library`] for [`WINDOW`]; returns the
    /// 200s per second. Any transport error fails the gate.
    fn window_req_per_s(cfg: ServerConfig) -> f64 {
        let handle = start(synthetic_library(), cfg).expect("start server");
        let stop = Arc::new(AtomicBool::new(false));
        let t0 = Instant::now();
        let clients = spawn_clients(handle.local_addr(), CLIENTS, &stop);
        std::thread::sleep(WINDOW);
        let tally = stop_clients(&stop, clients);
        let elapsed = t0.elapsed().as_secs_f64();
        handle.shutdown();
        assert_eq!(
            tally.errors, 0,
            "keep-alive window: {} transport errors, bound 0",
            tally.errors
        );
        tally.ok as f64 / elapsed
    }

    fn best_of_three_windows(cfg: impl Fn() -> ServerConfig) -> f64 {
        (1..=3)
            .map(|window| {
                let req_per_s = window_req_per_s(cfg());
                eprintln!("  window {window}: {req_per_s:.0} req/s");
                req_per_s
            })
            .fold(0.0, f64::max)
    }

    /// Gates 4 and 5 in one test, so the idle-plane ratio compares windows
    /// from the same run on the same machine.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing gate: check.sh runs it in release")]
    fn keep_alive_floor_and_idle_live_plane_ratio() {
        let defaults = ServerConfig::default();
        let plain = || config(defaults.workers, defaults.queue_depth);
        // The live mutation plane enabled but idle: a library path, no
        // compaction, no appends — the delta stays empty all window.
        let dir = std::env::temp_dir().join(format!("goalrec-guard-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("live temp dir");
        let serving = dir.join("live.jsonl");
        goalrec_datasets::io::write_library_jsonl(&synthetic_library(), &serving)
            .expect("seed live library");
        let live = || {
            let _ = std::fs::remove_file(dir.join("live.jsonl.wal"));
            let mut cfg = plain();
            cfg.library_path = Some(serving.clone());
            cfg.compact_threshold = 0;
            cfg.compact_max_age = Duration::ZERO;
            cfg
        };

        // Best of three windows a side, the plain server's first: a
        // closed-loop load test only loses throughput to scheduler noise,
        // so the best window is the machine's capability.
        let req_per_s = best_of_three_windows(plain);
        let idle_req_per_s = best_of_three_windows(live);
        std::fs::remove_dir_all(&dir).ok();
        eprintln!("keep-alive: {req_per_s:.0} req/s (floor {KEEPALIVE_FLOOR_RPS:.0})");
        assert!(
            req_per_s >= KEEPALIVE_FLOOR_RPS,
            "keep-alive floor gate: {req_per_s:.0} req/s with {CLIENTS} clients, \
             bound ≥ {KEEPALIVE_FLOOR_RPS:.0} req/s (0.7 × {KEEPALIVE_BASELINE_RPS:.0})"
        );
        let ratio = idle_req_per_s / req_per_s;
        eprintln!("idle live plane: {idle_req_per_s:.0} req/s ({ratio:.3}x the plain server)");
        assert!(
            ratio >= IDLE_LIVE_PLANE_RATIO_FLOOR,
            "idle live plane gate: {idle_req_per_s:.0} req/s is {ratio:.3}x the plain \
             server's {req_per_s:.0} req/s, bound ≥ {IDLE_LIVE_PLANE_RATIO_FLOOR}x"
        );
    }
}
