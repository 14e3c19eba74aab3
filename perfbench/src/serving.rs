//! The serving run (`--trace 0`): open-loop HTTP replay against the
//! release server, producing the end-to-end metrics.
//!
//! Every phase runs on its own freshly started server, so the phases
//! cannot leak state (a saturated socket backlog) into each other, and
//! every start is one more `setup_s` sample. The first two phases
//! alternate, [`PIECES`] times each, so both sample the whole run: the
//! speed of a shared host drifts over tens of seconds, and a figure taken
//! in one stretch of the run follows that drift.
//!
//! 1. **fixed rate** — the workload's fixed offered rate for 64 % of the run:
//!    `lat_strategy_p50_ms`, `lat_p90_ms`, `ok_share`, `rss_mb`;
//! 2. **service rate** — a probe that keeps a fixed number of requests
//!    queued at the server, so its one worker never idles: answers per
//!    second, over all pieces, is the rate beyond which a backlog must
//!    grow;
//! 3. **confirm** — open-loop steps at 0.9, 0.8, … of that rate; the
//!    first step that meets the p99 limit with every recommend answered
//!    `200` gives `max_rate_rps`.

use crate::check::{self, Sample};
use crate::loadgen::{self, Op, Outcome, PhaseRun};
use crate::server::{self, Server};
use crate::stats::{median, percentile, sorted};
use crate::workload::{arrivals, Inputs, P99_LIMIT, READ_TIMEOUT, STRATEGIES};
use crate::{ms, Args, Metric, Report};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Warmup of every fresh server before it is timed.
const WARMUP: Duration = Duration::from_millis(250);
const WARMUP_MIN: usize = 8;
/// Shares of `--seconds` given to the fixed-rate phase and the
/// service-rate probe (each over all its pieces), and to each confirm
/// step.
const FIXED_SHARE: f64 = 0.64;
const SERVICE_SHARE: f64 = 0.16;
const CONFIRM_SHARE: f64 = 0.1;
/// Pieces the fixed-rate phase and the service-rate probe are cut into.
const PIECES: usize = 4;
/// Requests the service-rate probe keeps queued at the server.
const QUEUED: usize = 16;
/// The service-rate probe counts answers from this share of it onwards.
const SERVICE_SETTLE: f64 = 0.1;
/// Offered rate of the first confirm step, as a share of the service
/// rate, and how much each failed step lowers it.
const CONFIRM_FRACTION: f64 = 0.9;
const CONFIRM_STEP: f64 = 0.1;
/// Fewest server starts per run behind the `setup_s` median.
const SETUP_SAMPLES: usize = 11;
/// Length of the request stream; phases index it cyclically.
pub const STREAM_LEN: usize = 60_000;

/// Outcome tallies of one phase; they must sum to the attempted count.
#[derive(Default)]
struct Buckets {
    attempted: u64,
    ok: u64,
    status: BTreeMap<u16, u64>,
    timeout: u64,
    transport: u64,
}

impl Buckets {
    fn of(records: &[&loadgen::Record]) -> Buckets {
        let mut b = Buckets {
            attempted: records.len() as u64,
            ..Buckets::default()
        };
        for r in records {
            match r.outcome {
                Outcome::Ok => b.ok += 1,
                Outcome::Status(s) => *b.status.entry(s).or_default() += 1,
                Outcome::Timeout => b.timeout += 1,
                Outcome::Transport => b.transport += 1,
            }
        }
        b
    }

    fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Fails unless the buckets hold exactly the `sent` operations: each
    /// in one bucket, none missing.
    fn check(&self, phase: &str, sent: u64) -> Result<(), String> {
        let sum = self.ok + self.status.values().sum::<u64>() + self.timeout + self.transport;
        if sum != sent || self.attempted != sent {
            return Err(format!(
                "{phase}: buckets hold {sum} operations, {sent} were sent"
            ));
        }
        Ok(())
    }

    fn to_value(&self) -> Value {
        let status: Vec<(String, Value)> = self
            .status
            .iter()
            .map(|(s, n)| (s.to_string(), Value::UInt(*n)))
            .collect();
        serde_json::json!({
            "sent": self.attempted,
            "200": self.ok,
            "status": Value::Object(status),
            "timeout": self.timeout,
            "transport": self.transport,
        })
    }
}

/// The run's servers, phases and their accounting.
pub struct Session<'a> {
    args: &'a Args,
    inputs: &'a Inputs,
    dir: &'a Path,
    library: &'a Path,
    spawned: usize,
    setups: Vec<f64>,
    /// Next unread position of the request stream.
    cursor: usize,
    /// `(phase, buckets)` of every phase run.
    ledger: Vec<(String, Buckets)>,
    /// Per-phase generator figures.
    phases: Vec<Value>,
}

impl<'a> Session<'a> {
    fn start_server(&mut self) -> Result<Server, String> {
        let dir = self.dir.join(format!("server-{}", self.spawned));
        self.spawned += 1;
        let s = Server::start(&self.args.server, self.library, &dir, self.args.server_cpu)?;
        self.setups.push(s.setup.as_secs_f64());
        Ok(s)
    }

    /// The next `n` reads of the stream, arriving at `rate`.
    fn reads(&mut self, n: usize, rate: f64) -> Vec<Op<'a>> {
        let inputs = self.inputs;
        let start = self.cursor;
        self.cursor += n;
        arrivals(&inputs.unit_gaps, start, n, rate)
            .into_iter()
            .enumerate()
            .map(|(i, due)| Op {
                conn: 0,
                due,
                bytes: &inputs.requests[(start + i) % inputs.requests.len()].bytes,
                timeout: READ_TIMEOUT,
                keep_body: false,
            })
            .collect()
    }

    /// Runs one phase and books its operations.
    fn phase(&mut self, name: &str, server: &Server, ops: &[Op<'_>]) -> Result<PhaseRun, String> {
        let run = loadgen::run_phase(server.addr, 1, ops)?;
        let b = Buckets::of(&run.records.iter().collect::<Vec<_>>());
        b.check(name, ops.len() as u64)?;
        self.ledger.push((name.to_owned(), b));
        let (late, wait) = run.generator_p99_ms();
        self.phases.push(serde_json::json!({
            "phase": name,
            "operations": ops.len(),
            "elapsed_s": run.elapsed.as_secs_f64(),
            "late_p99_ms": late,
            "wait_p99_ms": wait,
        }));
        Ok(run)
    }

    /// A short warmup on a fresh server, so lazy set-up and cold caches
    /// are not timed: one request at a time for [`WARMUP`], at least
    /// [`WARMUP_MIN`] of them.
    fn warm(&mut self, server: &Server) -> Result<(), String> {
        self.round_trips(server, "warmup", WARMUP_MIN, WARMUP)
            .map(|_| ())
    }

    /// Sends stream requests one at a time on one connection, each after
    /// the previous answer, until at least `min` were sent and `span`
    /// passed; returns each round trip. Any answer but `200` fails.
    fn round_trips(
        &mut self,
        server: &Server,
        phase: &str,
        min: usize,
        span: Duration,
    ) -> Result<Vec<Duration>, String> {
        let inputs = self.inputs;
        let mut conn = TcpStream::connect(server.addr).map_err(|e| e.to_string())?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        conn.set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut out = Vec::new();
        while out.len() < min || t0.elapsed() < span {
            let r = &inputs.requests[self.cursor % inputs.requests.len()];
            self.cursor += 1;
            let sent = Instant::now();
            conn.write_all(&r.bytes)
                .map_err(|e| format!("{phase}: {e}"))?;
            let (status, _) = server::read_one(&mut conn).map_err(|e| format!("{phase}: {e}"))?;
            out.push(sent.elapsed());
            if status != 200 {
                return Err(format!("{phase} request answered {status}"));
            }
        }
        self.ledger.push((
            phase.to_owned(),
            Buckets {
                attempted: out.len() as u64,
                ok: out.len() as u64,
                ..Buckets::default()
            },
        ));
        Ok(out)
    }
}

/// Recommend latencies of a phase in due order, failures counted at no
/// less than the client timeout (they miss every limit).
fn read_latencies(run: &PhaseRun) -> Vec<f64> {
    run.records
        .iter()
        .map(|r| match r.outcome {
            Outcome::Ok => ms(r.latency()),
            _ => ms(r.latency().max(READ_TIMEOUT)),
        })
        .collect()
}

/// What the fixed-rate phase measured.
pub struct Fixed {
    /// Recommend latencies from the due time, in due order, in ms.
    pub lat: Vec<f64>,
    /// The strategy of each, in the same order (an index into
    /// [`STRATEGIES`]).
    pub strategy: Vec<usize>,
    /// Operations sent.
    pub sent: u64,
    /// How many of them were answered `200`.
    pub ok: u64,
    /// Peak RSS of the server, MB.
    pub rss_mb: f64,
    /// Sampled answers checked against the in-process recommender.
    pub checked: usize,
    /// Generator lateness (pick − due), p99 ms.
    pub late_p99_ms: f64,
    /// Send wait behind a full socket (sent − pick), p99 ms.
    pub wait_p99_ms: f64,
}

impl<'a> Session<'a> {
    pub fn new(args: &'a Args, inputs: &'a Inputs, dir: &'a Path, library: &'a Path) -> Self {
        Session {
            args,
            inputs,
            dir,
            library,
            spawned: 0,
            setups: Vec::new(),
            cursor: 0,
            ledger: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// The fixed-rate phase over `span` on a fresh server, with its
    /// output checks: `/v1/stats` before it, `checks` sampled bodies after
    /// it.
    pub fn fixed_phase(&mut self, span: Duration, checks: usize) -> Result<Fixed, String> {
        let inputs = self.inputs;
        let rate = inputs.workload.fixed_rate();
        let server = self.start_server()?;
        let (status, body) = server::get(server.addr, "/v1/stats", Duration::from_secs(10))?;
        if status != 200 {
            return Err(format!("/v1/stats answered {status}"));
        }
        let served = goalrec_datasets::io::read_library_auto(self.library)
            .map_err(|e| format!("read library back: {e}"))?;
        check::stats_match(&body, &served, inputs.library.len())?;
        self.warm(&server)?;
        let n = (span.as_secs_f64() * rate).ceil() as usize;
        let first_read = self.cursor;
        let mut ops = self.reads(n, rate);
        let mut rng = StdRng::seed_from_u64(self.args.seed ^ 0xC0FFEE);
        let mut idx: Vec<usize> = (0..ops.len()).collect();
        idx.shuffle(&mut rng);
        for &i in idx.iter().take(checks) {
            ops[i].keep_body = true;
        }
        let run = self.phase("fixed", &server, &ops)?;
        let lat = read_latencies(&run);
        let strategy = (0..lat.len())
            .map(|i| inputs.requests[(first_read + i) % inputs.requests.len()].strategy)
            .collect();
        let all = Buckets::of(&run.records.iter().collect::<Vec<_>>());
        let rss_mb = server.peak_rss_bytes()? as f64 / 1e6;
        server.stop()?;

        // The sampled answers, checked off the timed path.
        let by_op: BTreeMap<usize, &loadgen::Record> =
            run.records.iter().map(|r| (r.op, r)).collect();
        let samples: Vec<Sample<'_>> = run
            .bodies
            .iter()
            .filter(|(op, _)| by_op[op].outcome == Outcome::Ok)
            .map(|(op, body)| Sample {
                request: &inputs.requests[(first_read + op) % inputs.requests.len()],
                body,
            })
            .collect();
        let checked = check::bodies_match(&served, &samples)?;
        let (late_p99_ms, wait_p99_ms) = run.generator_p99_ms();
        Ok(Fixed {
            lat,
            strategy,
            sent: all.attempted,
            ok: all.ok,
            rss_mb,
            checked,
            late_p99_ms,
            wait_p99_ms,
        })
    }

    /// One piece of the service-rate probe: the server always has
    /// [`QUEUED`] requests queued on one pipelined connection, so it is
    /// never idle. Every answer must be `200`. Returns the answers after
    /// the first counted one and the seconds they took.
    fn service_rate(&mut self, span: Duration) -> Result<(u64, f64), String> {
        let inputs = self.inputs;
        let server = self.start_server()?;
        self.warm(&server)?;
        let mut conn = TcpStream::connect(server.addr).map_err(|e| e.to_string())?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        conn.set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let settle = span.mul_f64(SERVICE_SETTLE);
        let mut buckets = Buckets::default();
        // Arrival times of the answers after the settle point.
        let mut counted: Vec<Duration> = Vec::new();
        let mut buf = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let t0 = Instant::now();
        let mut outstanding = 0usize;
        let failure = 'probe: loop {
            while outstanding < QUEUED && t0.elapsed() < span {
                let r = &inputs.requests[self.cursor % inputs.requests.len()];
                self.cursor += 1;
                buckets.attempted += 1;
                outstanding += 1;
                if conn.write_all(&r.bytes).is_err() {
                    break 'probe Some(Outcome::Transport);
                }
            }
            if outstanding == 0 {
                break None;
            }
            let n = match conn.read(&mut chunk) {
                Ok(0) => break Some(Outcome::Transport),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break Some(Outcome::Timeout)
                }
                Err(_) => break Some(Outcome::Transport),
            };
            let at = t0.elapsed();
            buf.extend_from_slice(&chunk[..n]);
            let mut consumed = 0;
            while let Some((status, _, len)) = loadgen::parse_response(&buf[consumed..]) {
                consumed += len;
                outstanding -= 1;
                if status == 200 {
                    buckets.ok += 1;
                    if at >= settle && at <= span {
                        counted.push(at);
                    }
                } else {
                    *buckets.status.entry(status).or_default() += 1;
                }
            }
            buf.drain(..consumed);
        };
        match failure {
            Some(Outcome::Timeout) => buckets.timeout += outstanding as u64,
            Some(_) => buckets.transport += outstanding as u64,
            None => {}
        }
        drop(conn);
        server.stop()?;
        let sent = buckets.attempted;
        buckets.check("service-rate", sent)?;
        let failed = buckets.failed();
        self.ledger.push(("service-rate".to_owned(), buckets));
        if failed > 0 {
            return Err(format!("{failed} service-rate probe requests failed"));
        }
        match (counted.first(), counted.last()) {
            (Some(a), Some(b)) if b > a => {
                Ok(((counted.len() - 1) as u64, (*b - *a).as_secs_f64()))
            }
            _ => Err("the service-rate probe saw too few answers to time".to_owned()),
        }
    }

    /// Whether `rate` meets the p99 limit with every recommend answered.
    fn confirm(&mut self, rate: f64, span: Duration) -> Result<bool, String> {
        let server = self.start_server()?;
        self.warm(&server)?;
        let n = (span.as_secs_f64() * rate).ceil() as usize;
        let ops = self.reads(n, rate);
        let run = self.phase(&format!("confirm@{rate:.1}"), &server, &ops)?;
        server.stop()?;
        let lat = sorted(read_latencies(&run));
        let all_ok = run.records.iter().all(|r| r.outcome == Outcome::Ok);
        Ok(all_ok && percentile(&lat, 0.99) <= ms(P99_LIMIT))
    }

    /// Round trips of the first `n` stream requests, one at a time on
    /// one connection to a fresh server: nothing queues, so each is the
    /// server's own time plus the wire.
    pub fn idle_round_trips(&mut self, n: usize) -> Result<Vec<Duration>, String> {
        let server = self.start_server()?;
        self.warm(&server)?;
        // The in-process layer timings replay the stream from its start.
        self.cursor = 0;
        let out = self.round_trips(&server, "idle", n, Duration::ZERO)?;
        server.stop()?;
        Ok(out)
    }

    /// The ledger as JSON, with its totals: `(attempted, failed, rows)`.
    pub fn ledger(&self) -> (u64, u64, Value) {
        let (mut attempted, mut failed) = (0, 0);
        let mut rows = Vec::new();
        for (phase, b) in &self.ledger {
            attempted += b.attempted;
            failed += b.failed();
            rows.push(serde_json::json!({
                "phase": phase,
                "buckets": b.to_value(),
            }));
        }
        (attempted, failed, Value::Array(rows))
    }
}

pub fn run(args: &Args, inputs: &Inputs, dir: &Path, library: &Path) -> Result<Report, String> {
    let mut s = Session::new(args, inputs, dir, library);
    let span = |share: f64| Duration::from_secs_f64(args.seconds * share);

    let checks = inputs.workload.check_samples().div_ceil(PIECES);
    let (mut fixed, mut probes) = (Vec::new(), Vec::new());
    for _ in 0..PIECES {
        fixed.push(s.fixed_phase(span(FIXED_SHARE / PIECES as f64), checks)?);
        probes.push(s.service_rate(span(SERVICE_SHARE / PIECES as f64))?);
    }
    let service_rate =
        probes.iter().map(|p| p.0).sum::<u64>() as f64 / probes.iter().map(|p| p.1).sum::<f64>();
    let mut fraction = CONFIRM_FRACTION;
    let max_rate = loop {
        if s.confirm(service_rate * fraction, span(CONFIRM_SHARE))? {
            break service_rate * fraction;
        }
        fraction -= CONFIRM_STEP;
        if fraction < CONFIRM_STEP / 2.0 {
            return Err(format!(
                "no offered rate down to {:.1}/s met the p99 limit of {} ms",
                service_rate * CONFIRM_STEP,
                ms(P99_LIMIT)
            ));
        }
    };
    // Setup-only starts until the median has its samples.
    while s.setups.len() < SETUP_SAMPLES {
        let server = s.start_server()?;
        server.stop()?;
    }
    let setup = median(s.setups.iter().copied());
    let (attempted, failed, ledger) = s.ledger();
    // The pieces of the fixed-rate phase, pooled.
    let lat_all: Vec<f64> = fixed.iter().flat_map(|f| f.lat.iter().copied()).collect();
    let strategy_all: Vec<usize> = fixed
        .iter()
        .flat_map(|f| f.strategy.iter().copied())
        .collect();
    let sent: u64 = fixed.iter().map(|f| f.sent).sum();
    let ok: u64 = fixed.iter().map(|f| f.ok).sum();
    let rss_mb = fixed.iter().map(|f| f.rss_mb).fold(0.0, f64::max);
    let lat = sorted(lat_all.iter().copied());
    let p99 = percentile(&lat, 0.99);
    // Each strategy's median, then their mean: on FoodMart the latencies
    // of the mix form two modes (fast strategies, and requests at or
    // behind a Best Match) and the mix's p50 falls in the gap between
    // them, where it jumps from seed to seed.
    let by_strategy: Vec<Vec<f64>> = (0..STRATEGIES.len())
        .map(|k| {
            let of_k = lat_all.iter().zip(&strategy_all).filter(|(_, &s)| s == k);
            sorted(of_k.map(|(&l, _)| l))
        })
        .collect();
    let strategy_p50: Vec<f64> = by_strategy.iter().map(|v| percentile(v, 0.5)).collect();
    let lat_strategy_p50 = strategy_p50.iter().sum::<f64>() / STRATEGIES.len() as f64;
    let per_strategy: Vec<(String, Value)> = STRATEGIES
        .iter()
        .zip(by_strategy.iter().zip(&strategy_p50))
        .map(|(name, (v, p50))| {
            (
                name.to_string(),
                serde_json::json!({"n": v.len(), "p50_ms": p50}),
            )
        })
        .collect();
    let env = vec![
        (
            "fixed_rate_rps".into(),
            Value::Float(inputs.workload.fixed_rate()),
        ),
        (
            "lat_samples".into(),
            serde_json::json!({
                "n": lat.len(),
                "p50_ms": percentile(&lat, 0.5),
                "p99_ms": p99,
                "beyond_p99": lat.iter().filter(|&&x| x > p99).count(),
                "strategies": Value::Object(per_strategy),
            }),
        ),
        ("service_rate_rps".into(), Value::Float(service_rate)),
        (
            "service_rate_pieces_rps".into(),
            serde_json::json!(probes
                .iter()
                .map(|p| p.0 as f64 / p.1)
                .collect::<Vec<f64>>()),
        ),
        ("max_rate_fraction".into(), Value::Float(fraction)),
        (
            "setup_samples_s".into(),
            serde_json::json!(s.setups.clone()),
        ),
        (
            "bodies_checked".into(),
            Value::UInt(fixed.iter().map(|f| f.checked as u64).sum()),
        ),
        ("p99_limit_ms".into(), Value::Float(ms(P99_LIMIT))),
        (
            "generator".into(),
            serde_json::json!({
                "fixed_late_p99_ms": fixed.iter().map(|f| f.late_p99_ms).fold(0.0, f64::max),
                "fixed_wait_p99_ms": fixed.iter().map(|f| f.wait_p99_ms).fold(0.0, f64::max),
            }),
        ),
        ("phases".into(), Value::Array(std::mem::take(&mut s.phases))),
        ("ledger".into(), ledger),
    ];
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", setup, "s"),
            Metric::new("lat_strategy_p50_ms", lat_strategy_p50, "ms"),
            Metric::new("lat_p90_ms", percentile(&lat, 0.9), "ms"),
            Metric::new("max_rate_rps", max_rate, "1/s"),
            Metric::new("ok_share", ok as f64 / sent as f64, "share"),
            Metric::new("rss_mb", rss_mb, "MB"),
        ],
        env,
    })
}
