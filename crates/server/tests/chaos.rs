//! Chaos under live traffic, against an in-process server on an
//! ephemeral loopback port. Recommend clients run the whole time while
//!
//! * hot reloads go through injected fault plans (IO error, torn write,
//!   slow read): every faulted reload must roll back, no request may be
//!   dropped or 5xx'd, and a clean reload must then bump the generation;
//! * the tracing pipeline is checked end to end: every response carries
//!   an `X-Goalrec-Trace` id, and the final `/debug/traces` snapshot
//!   (kept as `DEBUG_traces.json` under the target directory's `tmp/`)
//!   holds a trace per strategy, each with a `span.rank` span and
//!   top-level spans summing to within 10% of the trace total;
//! * rows are appended into the live delta and three consecutive
//!   background compactions are faulted (read error at the read-back
//!   verify, torn write at the persist, stall-then-error write): each
//!   must roll back whole with the old generation serving and the delta
//!   and WAL intact, and the clean backoff retry must then compact, bump
//!   the generation and clear the WAL, again with zero dropped or non-200
//!   requests.
//!
//! Fault plans are armed process-wide, so both scenarios run in one test.
//! `check.sh` runs it in release:
//! `cargo test --release -p goalrec-server --test chaos -- --test-threads=1`.

#[path = "support/load.rs"]
mod load;

use goalrec_server::start;
use load::{config, spawn_clients, stop_clients, synthetic_library};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn faulted_reloads_and_compactions_roll_back_under_live_traffic() {
    chaos_reloads();
    chaos_compactions();
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

/// Recommend traffic flows continuously while reload
/// attempts are pushed through injected fault plans. Every faulted
/// attempt must answer 500 and leave the last good generation serving;
/// the traffic tally must show zero non-200 responses and zero transport
/// errors; and once the chaos stops, a clean reload must bump the
/// generation.
fn chaos_reloads() {
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
    validate_traces(
        addr,
        &std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("DEBUG_traces.json"),
    );

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
fn chaos_compactions() {
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
