//! End-to-end tests over real sockets: round-trips for every route,
//! admission control under a saturated queue, deadline expiry, and the
//! zero-drop graceful-drain guarantee.

use goalrec_core::LibraryBuilder;
use goalrec_server::{start, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A small recipe library with enough structure for every strategy.
fn tiny_library() -> goalrec_core::GoalLibrary {
    let mut b = LibraryBuilder::new();
    b.add_impl("olivier salad", ["potatoes", "carrots", "pickles", "peas"])
        .unwrap();
    b.add_impl("mashed potatoes", ["potatoes", "nutmeg", "butter"])
        .unwrap();
    b.add_impl("pan-fried carrots", ["carrots", "nutmeg", "butter"])
        .unwrap();
    b.add_impl("pea soup", ["peas", "carrots", "onion"])
        .unwrap();
    b.build().unwrap()
}

fn config(workers: usize, queue_depth: usize, deadline_ms: u64) -> ServerConfig {
    ServerConfig {
        port: 0, // ephemeral: tests never race over a fixed port
        workers,
        queue_depth,
        deadline: Duration::from_millis(deadline_ms),
        // Pin the admin budget to the data-plane one so deadline tests
        // keep their tight read budget (the pre-parse read is capped by
        // the larger of the two).
        admin_deadline: Duration::from_millis(deadline_ms),
        idle_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

/// One parsed response: status code, headers (lowercased names), body.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads exactly one response off `stream` (keep-alive friendly: stops at
/// content-length instead of waiting for EOF).
fn read_reply(stream: &mut TcpStream) -> Reply {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut buf).expect("read response head");
        assert!(n > 0, "connection closed before a full response head");
        raw.extend_from_slice(&buf[..n]);
    };

    let head = String::from_utf8_lossy(&raw[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line '{status_line}'"));
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();

    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = raw[header_end..].to_vec();
    while body.len() < len {
        let n = stream.read(&mut buf).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(len);
    Reply {
        status,
        headers,
        body: String::from_utf8_lossy(&body).into_owned(),
    }
}

/// Connection-per-request helper: send `raw`, read one reply.
fn roundtrip(addr: SocketAddr, raw: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write request");
    read_reply(&mut stream)
}

fn get(addr: SocketAddr, path: &str) -> Reply {
    roundtrip(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
    )
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> Reply {
    roundtrip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn routes_round_trip() {
    let handle = start(tiny_library(), config(2, 16, 2_000)).unwrap();
    let addr = handle.local_addr();

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.header("content-type"), Some("application/json"));
    assert!(
        health.body.contains("\"status\":\"ok\""),
        "body: {}",
        health.body
    );
    assert!(
        health.body.contains("\"generation\":1"),
        "body: {}",
        health.body
    );
    assert!(
        health.body.contains("\"model_age_ms\""),
        "body: {}",
        health.body
    );

    let stats = get(addr, "/v1/stats");
    assert_eq!(stats.status, 200);
    assert_eq!(stats.header("content-type"), Some("application/json"));
    assert!(stats.body.contains("\"stats\""), "body: {}", stats.body);

    let rec = post_json(
        addr,
        "/v1/recommend",
        r#"{"activity": [0, 1], "strategy": "breadth", "k": 3}"#,
    );
    assert_eq!(rec.status, 200, "body: {}", rec.body);
    assert!(
        rec.body.contains("\"recommendations\""),
        "body: {}",
        rec.body
    );

    // Defaults: no strategy/k keys.
    let rec = post_json(addr, "/v1/recommend", r#"{"activity": [0]}"#);
    assert_eq!(rec.status, 200, "body: {}", rec.body);

    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("server.requests"),
        "body: {}",
        metrics.body
    );

    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/v1/recommend").status, 405);
    assert_eq!(
        post_json(addr, "/v1/recommend", r#"{"activity": [999]}"#).status,
        400
    );
    assert_eq!(post_json(addr, "/v1/recommend", "{not json").status, 400);

    handle.shutdown();
}

/// Hot reload end to end: path-less admin reload re-reads the startup
/// file, explicit paths load other files, a corrupt file answers 500 and
/// rolls back (old generation keeps serving), and `SIGHUP` reloads like
/// the admin endpoint does. One test on purpose: `SIGHUP` is
/// process-global, so raising it concurrently with the other reload
/// assertions would race.
#[test]
fn hot_reload_swaps_generations_and_rolls_back_on_bad_files() {
    let dir = std::env::temp_dir().join("goalrec-server-reload-test");
    std::fs::create_dir_all(&dir).unwrap();
    let lib_path = dir.join("serving.jsonl");
    goalrec_datasets::io::write_library_jsonl(&tiny_library(), &lib_path).unwrap();

    let mut cfg = config(2, 16, 2_000);
    cfg.library_path = Some(lib_path.clone());
    let handle = start(tiny_library(), cfg).unwrap();
    let addr = handle.local_addr();

    // Path-less reload re-reads the startup file → generation 2.
    let reply = post_json(addr, "/v1/admin/reload", "");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert!(
        reply.body.contains("\"generation\":2"),
        "body: {}",
        reply.body
    );
    assert!(
        get(addr, "/healthz").body.contains("\"generation\":2"),
        "healthz must report the reloaded generation"
    );

    // A corrupt file answers 500; generation 2 keeps serving.
    let bad = dir.join("corrupt.jsonl");
    std::fs::write(&bad, b"{definitely not a library}\n").unwrap();
    let reply = post_json(
        addr,
        "/v1/admin/reload",
        &format!(r#"{{"path": "{}"}}"#, bad.display()),
    );
    assert_eq!(reply.status, 500, "body: {}", reply.body);
    assert!(
        get(addr, "/healthz").body.contains("\"generation\":2"),
        "failed reload must leave the old generation serving"
    );
    assert_eq!(
        post_json(addr, "/v1/recommend", r#"{"activity": [0]}"#).status,
        200,
        "requests must keep being served after a failed reload"
    );

    // A GRLB version-1 file (the retired stream format) is the typed
    // version error: 500 naming the version and `goalrec compile`, and
    // generation 2 keeps serving.
    let retired = dir.join("retired.grlb");
    let mut bytes = b"GRLB".to_vec();
    for v in [1u32, 4, 2, 1, 0, 1, 2] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(&retired, &bytes).unwrap();
    let reply = post_json(
        addr,
        "/v1/admin/reload",
        &format!(r#"{{"path": "{}"}}"#, retired.display()),
    );
    assert_eq!(reply.status, 500, "body: {}", reply.body);
    assert!(
        reply.body.contains("GRLB version 1") && reply.body.contains("goalrec compile"),
        "body: {}",
        reply.body
    );
    assert!(
        get(addr, "/healthz").body.contains("\"generation\":2"),
        "a version-1 reload must leave the old generation serving"
    );

    // An explicit good path (a compiled model this time) → generation 3.
    let good = dir.join("replacement.grlb2");
    goalrec_datasets::grlb2::write_model_v2(
        &goalrec_core::GoalModel::build(&tiny_library()).unwrap(),
        &good,
    )
    .unwrap();
    let reply = post_json(
        addr,
        "/v1/admin/reload",
        &format!(r#"{{"path": "{}"}}"#, good.display()),
    );
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert!(
        reply.body.contains("\"generation\":3"),
        "body: {}",
        reply.body
    );

    // SIGHUP drives the same path as a path-less admin reload.
    goalrec_server::shutdown::install_signal_handlers();
    let hup = std::process::Command::new("kill")
        .args(["-HUP", &std::process::id().to_string()])
        .status()
        .unwrap();
    assert!(hup.success());
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if get(addr, "/healthz").body.contains("\"generation\":4") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "SIGHUP did not trigger a reload within 5s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.shutdown();
}

/// Polls `/healthz` until `needle` appears in the body (or panics after
/// five seconds) — how the tests observe background swaps landing.
fn wait_for_healthz(addr: SocketAddr, needle: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if get(addr, "/healthz").body.contains(needle) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "healthz never reported {needle}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The live mutation plane end to end: appends stage over HTTP without a
/// generation bump (including a brand-new action id, recommendable
/// immediately), the configured threshold compacts in the background into
/// generation 2 with an empty delta, and the compacted library is
/// persisted back to the serving file.
#[test]
fn live_appends_stage_then_background_compaction_lands() {
    let dir = std::env::temp_dir().join("goalrec-server-live-append-test");
    std::fs::create_dir_all(&dir).unwrap();
    let lib_path = dir.join("serving.jsonl");
    goalrec_datasets::io::write_library_jsonl(&tiny_library(), &lib_path).unwrap();
    let wal = lib_path.with_extension("jsonl.wal");
    let _ = std::fs::remove_file(&wal);

    let mut cfg = config(2, 16, 2_000);
    cfg.library_path = Some(lib_path.clone());
    cfg.compact_threshold = 2; // auto-compact once two rows are staged
    let handle = start(tiny_library(), cfg).unwrap();
    let addr = handle.local_addr();

    // Single-object form: stages one row, generation stays 1.
    let reply = post_json(
        addr,
        "/v1/admin/library/append",
        r#"{"goal": 0, "actions": [0, 6]}"#,
    );
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert!(
        reply.body.contains("\"appended\":1"),
        "body: {}",
        reply.body
    );
    assert!(
        reply.body.contains("\"delta_size\":1"),
        "body: {}",
        reply.body
    );
    assert!(
        reply.body.contains("\"generation\":1"),
        "body: {}",
        reply.body
    );

    // Batch form, introducing action id 7 (one past the base id space):
    // it must be recommendable immediately, with no rebuild in between.
    let reply = post_json(
        addr,
        "/v1/admin/library/append",
        r#"{"implementations": [{"goal": 3, "actions": [3, 7]}]}"#,
    );
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let rec = post_json(addr, "/v1/recommend", r#"{"activity": [7], "k": 2}"#);
    assert_eq!(rec.status, 200, "staged action must serve: {}", rec.body);

    // Threshold reached → the supervisor compacts in the background.
    wait_for_healthz(addr, "\"generation\":2");
    wait_for_healthz(addr, "\"delta_size\":0");

    // The compacted generation still serves the appended action, and the
    // merged library was persisted back to the serving file (WAL cleared).
    let rec = post_json(addr, "/v1/recommend", r#"{"activity": [7], "k": 2}"#);
    assert_eq!(rec.status, 200, "compacted action must serve: {}", rec.body);
    let on_disk = goalrec_datasets::io::read_library_auto(&lib_path).unwrap();
    assert_eq!(on_disk.len(), tiny_library().len() + 2);
    assert_eq!(std::fs::read(&wal).map(|b| b.len()).unwrap_or(0), 0);

    handle.shutdown();
}

/// The append body cap is enforced over HTTP with a typed `413`, and a
/// malformed row answers `400` naming the offending field.
#[test]
fn append_cap_and_schema_errors_have_typed_statuses() {
    let mut cfg = config(1, 8, 2_000);
    cfg.append_max_entries = 1;
    let handle = start(tiny_library(), cfg).unwrap();
    let addr = handle.local_addr();

    let reply = post_json(
        addr,
        "/v1/admin/library/append",
        r#"{"implementations": [{"goal": 0, "actions": [0]}, {"goal": 1, "actions": [1]}]}"#,
    );
    assert_eq!(reply.status, 413, "body: {}", reply.body);
    assert!(
        reply.body.contains("per-request cap"),
        "body: {}",
        reply.body
    );

    let reply = post_json(addr, "/v1/admin/library/append", r#"{"goal": 0}"#);
    assert_eq!(reply.status, 400, "body: {}", reply.body);
    assert!(
        reply.body.contains("field `actions`"),
        "the error must name the offending field: {}",
        reply.body
    );

    handle.shutdown();
}

/// Bodies nested far past the JSON parsers' depth limit are a typed
/// `400` on both routes that parse JSON records, not a worker stack
/// overflow, and the server goes on serving.
#[test]
fn deeply_nested_bodies_are_a_400_not_a_crash() {
    let handle = start(tiny_library(), config(1, 8, 2_000)).unwrap();
    let addr = handle.local_addr();
    let deep = "[".repeat(100_000);
    for (path, body) in [
        ("/v1/recommend", format!("{{\"activity\": {deep}")),
        ("/v1/recommend", deep.clone()),
        (
            "/v1/admin/library/append",
            format!("{{\"goal\": 0, \"x\": {deep}"),
        ),
        (
            "/v1/admin/library/append",
            format!("{{\"implementations\": {deep}"),
        ),
    ] {
        let reply = post_json(addr, path, &body);
        assert_eq!(reply.status, 400, "{path}: {}", reply.body);
        assert!(
            reply.body.contains("nesting deeper than 128"),
            "{path}: {}",
            reply.body
        );
    }
    let rec = post_json(addr, "/v1/recommend", r#"{"activity": [0], "k": 2}"#);
    assert_eq!(
        rec.status, 200,
        "the next request must be served: {}",
        rec.body
    );
    assert_eq!(get(addr, "/healthz").status, 200);
    handle.shutdown();
}

/// Admin routes run on their own deadline: a body that dribbles in past
/// the data-plane deadline 408s on `/v1/recommend` but is answered on
/// `/v1/admin/reload`, which is budgeted by `admin_deadline`.
#[test]
fn admin_routes_get_their_own_deadline() {
    let dir = std::env::temp_dir().join("goalrec-server-admin-deadline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let lib_path = dir.join("serving.jsonl");
    goalrec_datasets::io::write_library_jsonl(&tiny_library(), &lib_path).unwrap();

    let mut cfg = config(2, 8, 150);
    cfg.admin_deadline = Duration::from_secs(5);
    cfg.library_path = Some(lib_path);
    let handle = start(tiny_library(), cfg).unwrap();
    let addr = handle.local_addr();

    let slow_post = |path: &str, body: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let (head, tail) = body.split_at(body.len() / 2);
        stream
            .write_all(
                format!(
                    "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\
                     connection: close\r\n\r\n{head}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(400)); // past 150ms, inside 5s
        stream.write_all(tail.as_bytes()).unwrap();
        read_reply(&mut stream)
    };

    let reply = slow_post("/v1/recommend", r#"{"activity": [0], "k": 2}"#);
    assert_eq!(reply.status, 408, "data plane must keep the tight deadline");

    let reply = slow_post("/v1/admin/reload", "{}");
    assert_eq!(
        reply.status, 200,
        "admin plane must run on its own budget: {}",
        reply.body
    );

    handle.shutdown();
}

/// `--watch` end to end: overwriting the library file on disk triggers a
/// debounced background reload into generation 2.
#[test]
fn watch_mode_reloads_on_library_file_changes() {
    let dir = std::env::temp_dir().join("goalrec-server-watch-test");
    std::fs::create_dir_all(&dir).unwrap();
    let lib_path = dir.join("serving.jsonl");
    goalrec_datasets::io::write_library_jsonl(&tiny_library(), &lib_path).unwrap();

    let mut cfg = config(1, 8, 2_000);
    cfg.library_path = Some(lib_path.clone());
    cfg.watch = true;
    let handle = start(tiny_library(), cfg).unwrap();
    let addr = handle.local_addr();
    assert!(get(addr, "/healthz").body.contains("\"generation\":1"));

    // Grow the library on disk (atomic rename → one mtime step, so the
    // debounce clears after one extra poll tick).
    let mut b = LibraryBuilder::new();
    b.add_impl("olivier salad", ["potatoes", "carrots", "pickles", "peas"])
        .unwrap();
    b.add_impl("mashed potatoes", ["potatoes", "nutmeg", "butter"])
        .unwrap();
    b.add_impl("pan-fried carrots", ["carrots", "nutmeg", "butter"])
        .unwrap();
    b.add_impl("pea soup", ["peas", "carrots", "onion"])
        .unwrap();
    b.add_impl("carrot cake", ["carrots", "flour", "sugar"])
        .unwrap();
    goalrec_datasets::io::write_library_jsonl(&b.build().unwrap(), &lib_path).unwrap();

    wait_for_healthz(addr, "\"generation\":2");
    handle.shutdown();
}

#[test]
fn saturated_queue_answers_503_not_hangs() {
    // One worker, queue depth one: a pinned keep-alive connection occupies
    // the worker, a second fills the queue, a third must be turned away.
    let handle = start(tiny_library(), config(1, 1, 2_000)).unwrap();
    let addr = handle.local_addr();

    let mut pinned = TcpStream::connect(addr).expect("connect pinned");
    pinned
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let first = read_reply(&mut pinned);
    assert_eq!(first.status, 200);
    // `pinned` is now a live keep-alive session holding the only worker.

    let mut queued = TcpStream::connect(addr).expect("connect queued");
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(150)); // let it land in the queue

    let rejected = get(addr, "/healthz");
    assert_eq!(rejected.status, 503, "expected admission-control rejection");
    assert_eq!(rejected.header("retry-after"), Some("1"));

    // Releasing the worker lets the queued connection get served.
    drop(pinned);
    let second = read_reply(&mut queued);
    assert_eq!(second.status, 200);

    handle.shutdown();
}

#[test]
fn slow_request_gets_408() {
    let handle = start(tiny_library(), config(1, 4, 300)).unwrap();
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    // A forever-unfinished request line: the deadline must fire.
    stream.write_all(b"GET /heal").unwrap();
    let reply = read_reply(&mut stream);
    assert_eq!(reply.status, 408);

    handle.shutdown();
}

#[test]
fn graceful_drain_drops_no_admitted_request() {
    let handle = start(tiny_library(), config(2, 64, 5_000)).unwrap();
    let addr = handle.local_addr();

    // Eight clients connect and send a full request each, *then* shutdown
    // is requested. Every one of them must still get a 200.
    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let body = format!(r#"{{"activity": [{}], "k": 2}}"#, i % 4);
                stream
                    .write_all(
                        format!(
                            "POST /v1/recommend HTTP/1.1\r\nhost: t\r\n\
                             content-length: {}\r\nconnection: close\r\n\r\n{body}",
                            body.len()
                        )
                        .as_bytes(),
                    )
                    .expect("write request");
                read_reply(&mut stream).status
            })
        })
        .collect();

    // Give the requests time to hit the OS backlog, then drain.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    for client in clients {
        let status = client.join().expect("client thread");
        assert_eq!(status, 200, "an admitted request was dropped during drain");
    }
}

#[test]
fn keep_alive_request_after_an_idle_gap_is_not_charged_the_gap() {
    // The deadline clock of a keep-alive successor starts at its first
    // byte, not when the connection went idle: a request sent 2 s after
    // the previous answer, on a 1 s deadline, is answered 200.
    let mut cfg = config(1, 4, 1_000);
    cfg.idle_timeout = Duration::from_secs(10);
    let handle = start(tiny_library(), cfg).unwrap();
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = r#"{"activity": [0], "k": 2}"#;
    let request = format!(
        "POST /v1/recommend HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    assert_eq!(read_reply(&mut stream).status, 200);

    std::thread::sleep(Duration::from_secs(2));
    stream.write_all(request.as_bytes()).unwrap();
    let second = read_reply(&mut stream);
    assert_eq!(second.status, 200, "body: {}", second.body);

    handle.shutdown();
}
