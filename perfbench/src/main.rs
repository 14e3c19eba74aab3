//! `goalrec-perfbench` — the repository's benchmark.
//!
//! ```text
//! goalrec-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                   --server PATH --work DIR [--source ID]
//! ```
//!
//! With `--trace 0` it replays the workload open-loop over HTTP against
//! the release `goalrec-serve` and prints the end-to-end metrics; with
//! `--trace 1` it times each layer's public calls in-process on the same
//! inputs (plus an idle-rate HTTP probe) and prints the per-layer metrics.
//! Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, the line before it is
//! the run's environment record, and any unaccounted operation or wrong
//! answer fails the run with a non-zero exit.

mod check;
mod loadgen;
mod server;
mod serving;
mod stats;
mod traced;
mod workload;

use serde_json::Value;
use std::path::PathBuf;
use std::time::Duration;
use workload::{Inputs, Workload};

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server: PathBuf,
    pub work: PathBuf,
    pub source: String,
    /// CPU the server is pinned to; the generator keeps another one.
    pub server_cpu: Option<usize>,
}

const USAGE: &str = "usage: goalrec-perfbench --workload NAME --seed N --seconds S \
    --trace 0|1 --server PATH --work DIR [--source ID]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut server, mut work, mut source) = (None, None, String::from("unknown"));
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}'; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".to_owned());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                })
            }
            "--server" => server = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--source" => source = value()?,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let need = |name: &str| format!("missing required {name}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        server: server.ok_or_else(|| need("--server"))?,
        work: work.ok_or_else(|| need("--work"))?,
        source,
        server_cpu: None,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The environment record printed beside the metrics.
    pub env: Vec<(String, Value)>,
}

/// A fresh, empty run directory under `work`.
fn fresh_run_dir(work: &std::path::Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir = work.join(format!("run-{}-{stamp}", std::process::id()));
    // `create_dir` (not `_all`) fails if the directory exists: every run
    // starts from nothing.
    std::fs::create_dir(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    server::assert_only(&dir, &[])?;
    Ok(dir)
}

fn run(args: &mut Args) -> Result<Report, String> {
    // With two CPUs or more, the generator (this process, and every
    // thread it starts) keeps the first and the server gets the second,
    // so the two never queue for the same core; an idle-priority spinner
    // on each keeps both from halting between requests.
    let cpus = server::allowed_cpus();
    // Read before pinning, which narrows what this thread may use.
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let mut spin_cpus = Vec::new();
    if let [generator, server_cpu, ..] = cpus[..] {
        server::pin_current_thread(generator)?;
        args.server_cpu = Some(server_cpu);
        spin_cpus = vec![generator, server_cpu];
    }
    let spinners = server::IdleSpinners::start(&spin_cpus);
    let inputs = Inputs::generate(args.workload, args.seed, serving::STREAM_LEN)?;
    let dir = fresh_run_dir(&args.work)?;
    let library_path = dir.join("library.jsonl");
    goalrec_datasets::io::write_library_jsonl(&inputs.library, &library_path)
        .map_err(|e| format!("write library: {e}"))?;
    let result = if args.trace {
        traced::run(args, &inputs, &dir, &library_path)
    } else {
        serving::run(args, &inputs, &dir, &library_path)
    };
    // Servers remove their own directories on a clean stop; the run
    // directory goes either way.
    let _ = std::fs::remove_dir_all(&dir);
    let mut report = result?;
    let stats = inputs.library.stats();
    let mut env: Vec<(String, Value)> = vec![
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("available_parallelism".into(), Value::UInt(parallelism)),
        ("server_workers".into(), Value::UInt(server::WORKERS as u64)),
        (
            "cpus".into(),
            serde_json::json!({
                "allowed": cpus,
                "server": args.server_cpu,
                "generator": args.server_cpu.and(cpus.first()),
                "idle_spinners": spinners.active(),
            }),
        ),
        ("source".into(), Value::Str(args.source.clone())),
        (
            "library".into(),
            serde_json::json!({
                "implementations": stats.num_implementations,
                "actions": stats.num_actions,
                "goals": stats.num_goals,
                "connectivity": stats.connectivity,
            }),
        ),
    ];
    env.append(&mut report.env);
    report.env = env;
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&mut args) {
        Ok(report) => {
            println!("{}", Value::Object(report.env));
            let metrics: Vec<(String, Value)> = report
                .metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        serde_json::json!({"value": m.value, "unit": m.unit}),
                    )
                })
                .collect();
            let out = serde_json::json!({
                "correct": true,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": Value::Object(metrics),
            });
            println!("{out}");
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Milliseconds of a duration, with every digit.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration, with every digit.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
