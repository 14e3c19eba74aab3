//! The `goalrec-serve` binary end to end: how it boots from a library
//! file, what it answers, and how it refuses what it cannot serve.

use goalrec_core::{GoalModel, LibraryBuilder};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn library() -> goalrec_core::GoalLibrary {
    builder().build().unwrap()
}

fn builder() -> LibraryBuilder {
    let mut b = LibraryBuilder::new();
    b.add_impl("olivier salad", ["potatoes", "carrots", "pickles", "peas"])
        .unwrap();
    b.add_impl("mashed potatoes", ["potatoes", "nutmeg", "butter"])
        .unwrap();
    b.add_impl("pan-fried carrots", ["carrots", "nutmeg", "butter"])
        .unwrap();
    b.add_impl("pea soup", ["peas", "carrots", "onion"])
        .unwrap();
    b
}

/// A fresh directory per test, so parallel tests never share files.
fn dir(test: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("goalrec-serve-bin-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn serve_command(library: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_goalrec-serve"));
    cmd.arg("--library")
        .arg(library)
        .args(["--port", "0", "--workers", "1"]);
    cmd
}

/// A running server process, killed on drop.
struct Served {
    child: Child,
    addr: SocketAddr,
}

impl Served {
    /// Starts the binary on `library` and waits for its listening line.
    fn start(library: &Path) -> Served {
        let mut child = serve_command(library)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn goalrec-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("goalrec-serve exited before listening")
                .expect("read stdout");
            if let Some(addr) = line.strip_prefix("goalrec-serve listening on http://") {
                break addr.parse().expect("listening address");
            }
        };
        // Keep draining stdout so the server never blocks on a full pipe.
        std::thread::spawn(move || lines.for_each(drop));
        Served { child, addr }
    }

    /// One request on its own connection; the response body.
    fn fetch(&self, method: &str, path: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\
             connection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("response head");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        body.to_owned()
    }

    /// The `model.build.*` span histograms on `/metrics` that recorded
    /// anything, with their counts.
    fn build_spans(&self) -> Vec<(String, u64)> {
        self.fetch("GET", "/metrics", "")
            .lines()
            .filter_map(|l| {
                let mut parts = l.split_whitespace();
                let name = parts.next()?.strip_prefix("model.build.")?;
                let count: u64 = parts.next()?.parse().ok()?;
                (count > 0).then(|| (name.to_owned(), count))
            })
            .collect()
    }

    /// Recommend bodies for every strategy over a few activities.
    fn answers(&self) -> Vec<String> {
        let mut out = Vec::new();
        for activity in ["[0]", "[0, 1]", "[1, 4]", "[5]"] {
            for strategy in goalrec_server::STRATEGY_NAMES {
                let body =
                    format!(r#"{{"activity": {activity}, "strategy": "{strategy}", "k": 5}}"#);
                out.push(self.fetch("POST", "/v1/recommend", &body));
            }
        }
        out
    }
}

/// Sends `signal` (a `kill` name such as `HUP`) to the server process.
fn kill(served: &Served, signal: &str) {
    let status = Command::new("kill")
        .arg(format!("-{signal}"))
        .arg(served.child.id().to_string())
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -{signal} failed");
}

/// The serving generation as `/healthz` reports it.
fn generation(served: &Served) -> u64 {
    let health = served.fetch("GET", "/healthz", "");
    health
        .split("\"generation\":")
        .nth(1)
        .and_then(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .unwrap_or_else(|| panic!("no generation in /healthz: {health}"))
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn a_grlb2_boot_builds_no_model_and_answers_byte_identically_to_jsonl() {
    let d = dir("boot");
    let jsonl = d.join("lib.jsonl");
    goalrec_datasets::io::write_library_jsonl(&library(), &jsonl).unwrap();
    let model = d.join("lib.grlb2");
    goalrec_datasets::grlb2::write_model_v2(&GoalModel::build(&library()).unwrap(), &model)
        .unwrap();

    let from_jsonl = Served::start(&jsonl);
    let from_model = Served::start(&model);
    assert!(
        from_jsonl.build_spans().contains(&("total".to_owned(), 1)),
        "a JSONL boot compiles once: {:?}",
        from_jsonl.build_spans()
    );
    assert_eq!(
        from_model.build_spans(),
        vec![],
        "a .grlb2 boot must serve the file, not rebuild it"
    );
    assert_eq!(from_model.answers(), from_jsonl.answers());
    let _ = std::fs::remove_dir_all(&d);
}

/// Each served `strategy.<name>.candidates` histogram sums the counts
/// core `Strategy::rank_into` returns for the same requests: the
/// pre-truncation candidates, not the `k` the response keeps.
#[test]
fn served_candidates_count_what_core_strategies_count() {
    use goalrec_core::{
        Activity, BestMatch, Breadth, Focus, FocusVariant, LiveRef, Scratch, Strategy,
    };
    let d = dir("candidates");
    let jsonl = d.join("lib.jsonl");
    goalrec_datasets::io::write_library_jsonl(&library(), &jsonl).unwrap();
    let served = Served::start(&jsonl);
    let model = GoalModel::build(&library()).unwrap();
    let strategies: [(&str, Box<dyn Strategy>); 4] = [
        ("breadth", Box::new(Breadth)),
        ("best-match", Box::new(BestMatch::default())),
        (
            "focus-cmp",
            Box::new(Focus::new(FocusVariant::Completeness)),
        ),
        ("focus-cl", Box::new(Focus::new(FocusVariant::Closeness))),
    ];
    let activities = [&[0u32][..], &[0, 1], &[1, 4], &[5]];
    let mut scratch = Scratch::new();
    for (wire_name, strategy) in strategies {
        let mut want = 0;
        for activity in activities {
            let body =
                format!(r#"{{"activity": {activity:?}, "strategy": "{wire_name}", "k": 1}}"#);
            served.fetch("POST", "/v1/recommend", &body);
            let h = Activity::from_raw(activity.iter().copied());
            want += strategy.rank_into(LiveRef::solid(&model), &h, 1, &mut scratch) as u64;
        }
        let metrics = served.fetch("GET", "/metrics?format=prometheus", "");
        let series = format!(
            "strategy_{}_candidates",
            strategy.name().to_ascii_lowercase()
        );
        let sum: u64 = metrics
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(' ')?;
                let name = name.to_ascii_lowercase();
                (name.contains(&series) && name.ends_with("_sum"))
                    .then(|| value.trim().parse().ok())?
            })
            .unwrap_or_else(|| panic!("no {series} sum in:\n{metrics}"));
        // Pre-truncation counts exceed the one action `k = 1` keeps.
        assert!(want > activities.len() as u64, "{wire_name}: {want}");
        assert_eq!(sum, want, "{wire_name}");
    }
}

/// The binary's own signal wiring: `SIGHUP` reloads the library file it
/// was started from, and `SIGTERM` drains every admitted request before
/// the process exits 0.
#[test]
fn sighup_reloads_the_file_and_sigterm_drains_admitted_requests() {
    let d = dir("signals");
    let jsonl = d.join("lib.jsonl");
    goalrec_datasets::io::write_library_jsonl(&library(), &jsonl).unwrap();
    let mut served = Served::start(&jsonl);
    assert_eq!(generation(&served), 1);

    let mut grown = builder();
    grown.add_impl("onion soup", ["onion", "butter"]).unwrap();
    goalrec_datasets::io::write_library_jsonl(&grown.build().unwrap(), &jsonl).unwrap();
    kill(&served, "HUP");
    let deadline = Instant::now() + Duration::from_secs(10);
    while generation(&served) != 2 {
        assert!(
            Instant::now() < deadline,
            "SIGHUP did not reload the library"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let body = r#"{"activity": [0], "strategy": "breadth", "k": 5}"#;

    // Eight admitted connections: four send their request before SIGTERM,
    // four only once the drain has begun. The drain owes every admitted
    // connection its first request, so all eight must answer 200.
    let request = format!(
        "POST /v1/recommend HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    );
    let mut burst: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(served.addr).expect("connect"))
        .collect();
    for stream in &mut burst[..4] {
        stream.write_all(request.as_bytes()).expect("write request");
    }
    kill(&served, "TERM");
    std::thread::sleep(Duration::from_millis(100));
    for stream in &mut burst[4..] {
        stream.write_all(request.as_bytes()).expect("write request");
    }
    for mut stream in burst {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        assert!(
            raw.starts_with("HTTP/1.1 200"),
            "dropped in the drain: {raw:?}"
        );
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = served.child.try_wait().expect("wait for the server") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "the server did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(status.code(), Some(0), "exit status after SIGTERM");
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn a_version_one_file_fails_boot_naming_the_version_and_compile() {
    let d = dir("retired");
    let retired = d.join("lib.grlb");
    let mut bytes = b"GRLB".to_vec();
    for v in [1u32, 4, 2, 1, 0, 1, 2] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(&retired, &bytes).unwrap();
    let out = serve_command(&retired).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("GRLB version 1") && stderr.contains("goalrec compile"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn bad_flags_fail_with_the_shared_parsers_message() {
    for bad in [
        &["--library", "x.jsonl", "--bogus"][..],
        &["--library", "x.jsonl", "--port", "hi"],
        &["--port", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_goalrec-serve"))
            .args(bad)
            .output()
            .unwrap();
        let argv: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
        let expected = goalrec_server::parse_args(&argv).unwrap_err();
        assert_eq!(out.status.code(), Some(2));
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {expected}\n")
        );
    }
}
