//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Each layer is timed from here, around calls into its public functions,
//! on the workload's own inputs in schedule order; nothing inside the
//! program is instrumented for it. Two HTTP measurements complete the
//! ledger: an idle-rate round trip on a fresh server (its p50 minus the
//! in-process parse, handle and write medians is the wire share nobody
//! has attributed yet), and a fixed-rate phase whose send times show how
//! late the generator itself ran.

use crate::check;
use crate::serving::Session;
use crate::stats::{median, percentile, sorted};
use crate::workload::Inputs;
use crate::workload::{activity_of, split_library, Workload, K, STRATEGIES};
use crate::{ms, us, Args, Metric, Report};
use goalrec_core::{ActionId, DeltaSegment, GoalId, GoalModel, LiveRef, Scratch};
use goalrec_obs::{self as obs, names, TraceContext};
use goalrec_server::http::{read_request, HttpReader, Limits};
use goalrec_server::{router, AppState, ServeCtx, WorkerArena};
use serde_json::Value;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of the whole-library calls (read, build, write, open).
const REPS: usize = 3;
/// Rows staged in the delta for the live-overlay timings.
const LIVE_ROWS: usize = 128;
/// Rows per WAL append, as one append body carries them.
const APPEND_BATCH: usize = 4;
/// Share of `--seconds` given to the fixed-rate generator phase.
const LOADGEN_SHARE: f64 = 0.3;

/// How many stream requests each timing replays.
struct Sizes {
    rank: usize,
    live: usize,
    http: usize,
}

fn sizes(w: Workload) -> Sizes {
    match w {
        // Best Match costs ~0.1 s a call here.
        Workload::FoodmartCarts => Sizes {
            rank: 96,
            live: 48,
            http: 48,
        },
        Workload::FortyThingsUsers => Sizes {
            rank: 20_000,
            live: 8_000,
            http: 8_000,
        },
    }
}

/// Times `f` `REPS` times; returns the last result and the median, ms.
fn repeat<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = f()?;
        times.push(ms(t0.elapsed()));
        last = Some(out);
    }
    let out = last.ok_or("no repetition ran")?;
    Ok((out, median(times)))
}

pub fn run(args: &Args, inputs: &Inputs, dir: &Path, library: &Path) -> Result<Report, String> {
    let size = sizes(inputs.workload);
    let requests = |n: usize| inputs.requests.iter().take(n);
    let mut m: Vec<Metric> = Vec::new();
    let mut env: Vec<(String, Value)> = Vec::new();

    // datasets + core: what setup does.
    let (served, read_ms) =
        repeat(|| goalrec_datasets::io::read_library_auto(library).map_err(|e| e.to_string()))?;
    m.push(Metric::new("datasets.jsonl_read_ms", read_ms, "ms"));
    let (model, build_ms) = repeat(|| GoalModel::build(&served).map_err(|e| e.to_string()))?;
    m.push(Metric::new("core.build_ms", build_ms, "ms"));
    m.push(Metric::new(
        "core.model_mb",
        model.memory_bytes() as f64 / 1e6,
        "MB",
    ));
    let model = Arc::new(model);

    // core: ranking, per strategy, in schedule order.
    let strategies = check::strategies();
    let recs = check::recommenders(&model);
    let candidates: Vec<Arc<obs::Histogram>> = strategies
        .iter()
        .map(|s| obs::histogram(&names::strategy_candidates(s.name())))
        .collect();
    let before: Vec<(u64, u64)> = candidates.iter().map(|h| (h.count(), h.sum())).collect();
    let mut scratch = Scratch::new();
    let mut rank_us: Vec<Vec<f64>> = vec![Vec::new(); STRATEGIES.len()];
    for r in requests(size.rank) {
        let activity = activity_of(r);
        let t0 = Instant::now();
        black_box(recs[r.strategy].recommend_into(&activity, K, &mut scratch));
        rank_us[r.strategy].push(us(t0.elapsed()));
    }
    let mut samples = Vec::new();
    for (i, name) in STRATEGIES.iter().enumerate() {
        let v = sorted(rank_us[i].iter().copied());
        let (count, sum) = (candidates[i].count(), candidates[i].sum());
        let calls = count - before[i].0;
        m.push(Metric::new(
            format!("core.rank.{name}.p50_us"),
            percentile(&v, 0.5),
            "us",
        ));
        m.push(Metric::new(
            format!("core.rank.{name}.p99_us"),
            percentile(&v, 0.99),
            "us",
        ));
        m.push(Metric::new(
            format!("core.rank.{name}.candidates"),
            (sum - before[i].1) as f64 / calls.max(1) as f64,
            "count",
        ));
        samples.push((name.to_string(), Value::UInt(v.len() as u64)));
    }
    env.push(("rank_samples".into(), Value::Object(samples)));

    // The write path: WAL, delta staging, and ranking on base ⊕ delta.
    // The library's last rows are the staged delta, so base ⊕ delta is
    // exactly the served library.
    let (base_lib, rows) = split_library(&served, LIVE_ROWS)?;
    let base = Arc::new(GoalModel::build(&base_lib).map_err(|e| e.to_string())?);
    let wal = goalrec_datasets::AppendWal::at(dir.join("traced.wal"));
    let mut wal_us = Vec::new();
    for batch in rows.chunks(APPEND_BATCH) {
        let t0 = Instant::now();
        wal.append_batch(batch)
            .map_err(|e| format!("WAL append: {e}"))?;
        wal_us.push(us(t0.elapsed()));
    }
    m.push(Metric::new("datasets.wal_append_us", median(wal_us), "us"));
    let mut delta = DeltaSegment::for_base(&base);
    let mut delta_us = Vec::new();
    for (g, acts) in &rows {
        let actions: Vec<ActionId> = acts.iter().map(|&a| ActionId::new(a)).collect();
        let t0 = Instant::now();
        delta
            .append(GoalId::new(*g), actions)
            .map_err(|e| e.to_string())?;
        delta_us.push(us(t0.elapsed()));
    }
    m.push(Metric::new("core.delta_append_us", median(delta_us), "us"));
    let live_recs = check::recommenders(&base);
    let live = LiveRef::overlay(&base, &delta);
    let mut live_us = Vec::new();
    let mut trace = TraceContext::disabled();
    for r in requests(size.live) {
        let activity = activity_of(r);
        let t0 = Instant::now();
        black_box(live_recs[r.strategy].recommend_live_into_traced(
            live,
            &activity,
            K,
            &mut scratch,
            &mut trace,
        ));
        live_us.push(us(t0.elapsed()));
    }
    m.push(Metric::new("core.rank_live.p50_us", median(live_us), "us"));

    // datasets: the compaction persist and reload.
    let v2 = dir.join("traced.grlb2");
    let ((), w2) =
        repeat(|| goalrec_datasets::grlb2::write_model_v2(&model, &v2).map_err(|e| e.to_string()))?;
    let (_, o2) =
        repeat(|| goalrec_datasets::grlb2::read_model_v2(&v2).map_err(|e| e.to_string()))?;
    m.push(Metric::new("datasets.grlb2_write_ms", w2, "ms"));
    m.push(Metric::new("datasets.grlb2_open_ms", o2, "ms"));
    let persisted = dir.join("traced.jsonl");
    let ((), wj) = repeat(|| {
        goalrec_datasets::io::write_library_jsonl(&served, &persisted).map_err(|e| e.to_string())
    })?;
    m.push(Metric::new("datasets.jsonl_write_ms", wj, "ms"));

    // server: parse, route + handle, and response write on the exact bytes.
    let ctx = ServeCtx::fixed(AppState::new(served.clone()).map_err(|e| e.to_string())?);
    let mut arena = WorkerArena::new();
    let mut trace = TraceContext::new(true);
    let limits = Limits::default();
    let (mut parse, mut handle, mut write) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = Vec::with_capacity(16 * 1024);
    for r in requests(size.http) {
        trace.begin(obs::fresh_trace_id(), Instant::now());
        let t0 = Instant::now();
        let mut reader = HttpReader::new(&r.bytes[..]);
        let request = read_request(&mut reader, &limits)
            .map_err(|e| e.to_string())?
            .ok_or("a request parsed as end of stream")?;
        let t1 = Instant::now();
        let response = router::handle(&ctx, &request, &mut arena, &mut trace)
            .map_err(|e| format!("in-process handle failed: {e}"))?;
        let t2 = Instant::now();
        out.clear();
        response
            .write_to(&mut out, request.keep_alive)
            .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        trace.finish(response.status);
        black_box(&out);
        parse.push(us(t1 - t0));
        handle.push(us(t2 - t1));
        write.push(us(t3 - t2));
    }
    let (parse, handle, write) = (median(parse), median(handle), median(write));
    m.push(Metric::new("server.parse_us", parse, "us"));
    m.push(Metric::new("server.handle_us", handle, "us"));
    m.push(Metric::new("server.write_us", write, "us"));

    // The HTTP round trip at an idle rate, and what the layers leave over.
    let mut session = Session::new(args, inputs, dir, library);
    let idle = session.idle_round_trips(size.http)?;
    let idle_p50 = median(idle.iter().map(|d| us(*d)));
    let layers = parse + handle + write;
    m.push(Metric::new("server.wire_us", idle_p50 - layers, "us"));
    m.push(Metric::new(
        "ledger.unattributed_share",
        1.0 - layers / idle_p50,
        "share",
    ));
    env.push(("idle_round_trip_p50_us".into(), Value::Float(idle_p50)));
    env.push(("http_samples".into(), Value::UInt(size.http as u64)));

    // loadgen: how far behind its schedule the generator ran.
    let span = Duration::from_secs_f64(args.seconds * LOADGEN_SHARE);
    let fixed = session.fixed_phase(span, inputs.workload.check_samples())?;
    m.push(Metric::new("loadgen.late_p99_ms", fixed.late_p99_ms, "ms"));
    m.push(Metric::new("loadgen.wait_p99_ms", fixed.wait_p99_ms, "ms"));

    let (attempted, failed, ledger) = session.ledger();
    env.push(("bodies_checked".into(), Value::UInt(fixed.checked as u64)));
    env.push(("ledger".into(), ledger));
    Ok(Report {
        attempted,
        failed,
        metrics: m,
        env,
    })
}
