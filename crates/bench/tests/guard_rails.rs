//! The hot-path guard rails: one timing gate per test, each failing with
//! its gate, its bound and the measured value. They are meaningless in a
//! debug build, so they run in release only, one at a time:
//! `cargo test --release -p goalrec-bench --test guard_rails -- --test-threads=1`
//! (add `--nocapture` to print each measured value). End-to-end
//! performance is measured by `perfbench/`.

#[path = "../../server/tests/support/load.rs"]
mod load;

use goalrec_core::strategies::Strategy;
use goalrec_core::{
    Activity, BestMatch, Breadth, Focus, FocusVariant, GoalModel, LiveRef, Scratch,
};
use goalrec_datasets::foodmart::{FoodMart, FoodMartConfig};
use goalrec_server::{start, ServerConfig};
use load::{config, spawn_clients, stop_clients, synthetic_library, synthetic_library_sized};
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
