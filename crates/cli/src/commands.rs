//! CLI subcommands.

use crate::args::Args;
use goalrec_core::{
    explain, Activity, GoalModel, GoalRecommender, LibraryBuilder, Recommender, StatsReport,
    Strategy,
};
use goalrec_datasets::{io as dsio, FoodMart, FoodMartConfig, FortyThings, FortyThingsConfig};
use goalrec_textmine::{build_library, ActionExtractor, Story};
use serde::Deserialize;
use std::path::Path;

type CmdResult = Result<(), String>;

/// Dispatches a parsed command line.
pub fn dispatch(argv: &[String]) -> CmdResult {
    let args = Args::parse(argv);
    match args.positional(0) {
        Some("generate") => generate(&args),
        Some("extract") => extract(&args),
        Some("synth") => synth(&args),
        Some("convert") => convert(&args),
        Some("compile") => compile(&args),
        Some("stats") => stats(&args),
        Some("recommend") => recommend(&args),
        Some("serve") => serve(&args),
        Some("demo") => demo(),
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
        None => Err(USAGE.to_owned()),
    }
}

const USAGE: &str = "usage:\n  \
    goalrec generate  foodmart|fortythree [--scale test|paper] --out FILE\n  \
    goalrec synth     --out FILE.json [--stories N] [--seed N]\n  \
    goalrec extract   --stories FILE.json --out FILE.jsonl\n  \
    goalrec convert   --library FILE.jsonl --out FILE.grlb (and back)\n  \
    goalrec compile   --library FILE --out MODEL.grlb2 [--shards N] [--shard-mode hash|balanced]\n  \
    goalrec stats     --library FILE.jsonl [--json] [--metrics] [--actions N] [--goals N]\n  \
    goalrec recommend --library FILE.jsonl --activity a1,a2,... \
[--strategy breadth|best-match|focus-cmp|focus-cl] [--k N] [--explain]\n  \
    goalrec serve     --library FILE.jsonl [--addr HOST] [--port N] [--workers N] \
[--queue-depth N] [--deadline-ms N] [--idle-ms N] [--no-trace] \
[--trace-sample-every N] [--access-log] [--access-log-every N] \
[--shards N] [--shard-mode hash|balanced] [--admin-deadline-ms N] \
[--append-max-entries N] [--watch] [--compact-threshold N] [--compact-max-age-ms N]\n  \
    goalrec demo";

fn generate(args: &Args) -> CmdResult {
    let which = args
        .positional(1)
        .ok_or("generate needs a dataset: foodmart | fortythree")?;
    let out = args.required("out")?;
    let scale = args.flag("scale").unwrap_or("test");
    match which {
        "foodmart" => {
            let cfg = match scale {
                "paper" => FoodMartConfig::paper_scale(),
                "test" => FoodMartConfig::test_scale(),
                other => return Err(format!("unknown scale '{other}'")),
            };
            let fm = FoodMart::generate(&cfg);
            dsio::write_json(&fm, Path::new(out)).map_err(|e| e.to_string())?;
            let s = fm.library.stats();
            println!(
                "wrote {out}: {} recipes, {} products, {} carts (connectivity {:.1})",
                s.num_implementations,
                s.num_actions,
                fm.carts.len(),
                s.connectivity
            );
        }
        "fortythree" => {
            let cfg = match scale {
                "paper" => FortyThingsConfig::paper_scale(),
                "test" => FortyThingsConfig::test_scale(),
                other => return Err(format!("unknown scale '{other}'")),
            };
            let ft = FortyThings::generate(&cfg);
            dsio::write_json(&ft, Path::new(out)).map_err(|e| e.to_string())?;
            let s = ft.library.stats();
            println!(
                "wrote {out}: {} implementations, {} goals, {} actions, {} users",
                s.num_implementations,
                s.num_goals,
                s.num_actions,
                ft.full_activities.len()
            );
        }
        other => return Err(format!("unknown dataset '{other}'")),
    }
    Ok(())
}

#[derive(Deserialize)]
struct StoryIn {
    goal: String,
    text: String,
}

fn synth(args: &Args) -> CmdResult {
    use goalrec_textmine::{generate_stories, SynthConfig};
    let out = args.required("out")?;
    let cfg = SynthConfig {
        num_stories: args.num("stories", 50)?,
        seed: args.num("seed", 0x5709)? as u64,
        ..SynthConfig::default()
    };
    let corpus = generate_stories(&cfg);
    let json: Vec<serde_json::Value> = corpus
        .stories
        .iter()
        .map(|s| serde_json::json!({"goal": s.goal, "text": s.text}))
        .collect();
    std::fs::write(
        out,
        serde_json::to_string_pretty(&json).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    println!("wrote {} synthetic stories → {out}", corpus.stories.len());
    Ok(())
}

fn extract(args: &Args) -> CmdResult {
    let stories_path = args.required("stories")?;
    let out = args.required("out")?;
    let raw = std::fs::read_to_string(stories_path).map_err(|e| e.to_string())?;
    let stories_in: Vec<StoryIn> = serde_json::from_str(&raw).map_err(|e| e.to_string())?;
    let stories: Vec<Story> = stories_in
        .into_iter()
        .map(|s| Story::new(s.goal, s.text))
        .collect();
    let build = build_library(&stories, &ActionExtractor::default()).map_err(|e| e.to_string())?;
    dsio::write_library_jsonl(&build.library, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "extracted {} implementations / {} goals / {} actions from {} stories ({} skipped) → {out}",
        build.library.len(),
        build.library.num_goals(),
        build.library.num_actions(),
        stories.len(),
        build.skipped.len()
    );
    // Sidecar with the name dictionaries so `recommend` can map names.
    let names = serde_json::json!({
        "actions": build.library.action_names().iter().map(|(_, n)| n).collect::<Vec<_>>(),
        "goals": build.library.goal_names().iter().map(|(_, n)| n).collect::<Vec<_>>(),
    });
    let sidecar = format!("{out}.names.json");
    std::fs::write(&sidecar, names.to_string()).map_err(|e| e.to_string())?;
    println!("name dictionaries → {sidecar}");
    Ok(())
}

/// Loads a library: `GRLB` binary (v1 stream or v2 model file, the
/// reader dispatches on the version stamp) when the file has a `.grlb` /
/// `.grlb2` extension, JSON-lines otherwise (with id spaces inferred
/// when the `--actions`/`--goals` flags are absent).
fn load_library(args: &Args) -> Result<goalrec_core::GoalLibrary, String> {
    let path = args.required("library")?;
    if dsio::is_binary_library(Path::new(path)) {
        return dsio::read_library_auto(Path::new(path)).map_err(|e| e.to_string());
    }
    // First pass to infer bounds if flags are absent.
    let (mut max_a, mut max_g) = (0u32, 0u32);
    let raw = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    for line in raw.lines().filter(|l| !l.trim().is_empty()) {
        let imp: goalrec_core::Implementation =
            serde_json::from_str(line).map_err(|e| e.to_string())?;
        max_g = max_g.max(imp.goal.raw());
        for a in &imp.actions {
            max_a = max_a.max(a.raw());
        }
    }
    let actions = args.num("actions", (max_a + 1) as usize)? as u32;
    let goals = args.num("goals", (max_g + 1) as usize)? as u32;
    dsio::read_library_jsonl(Path::new(path), actions, goals).map_err(|e| e.to_string())
}

fn convert(args: &Args) -> CmdResult {
    let lib = load_library(args)?;
    let out = args.required("out")?;
    if out.ends_with(".grlb2") {
        return Err(
            "convert writes library formats; use `goalrec compile` for GRLB v2 model files"
                .to_owned(),
        );
    }
    if out.ends_with(".grlb") {
        goalrec_datasets::binary::write_library_binary(&lib, Path::new(out))
            .map_err(|e| e.to_string())?;
    } else {
        dsio::write_library_jsonl(&lib, Path::new(out)).map_err(|e| e.to_string())?;
    }
    println!("converted {} implementations → {out}", lib.len());
    Ok(())
}

/// Compiles a library into the GRLB v2 model format: the aligned,
/// sectioned, checksummed file `goalrec serve` maps into place (no JSON
/// parse, no CSR rebuild at startup). With `--shards N` the matching
/// per-shard snapshot family (`MODEL.shard<i>.grlb2`) is written next to
/// it, so `goalrec serve --shards N` boots every shard mapped as well.
fn compile(args: &Args) -> CmdResult {
    let lib = load_library(args)?;
    let out = args.required("out")?;
    if !out.ends_with(".grlb2") {
        return Err("compile writes GRLB v2 model files; --out must end in .grlb2".to_owned());
    }
    let model = GoalModel::build(&lib).map_err(|e| e.to_string())?;
    goalrec_datasets::grlb2::write_model_v2(&model, Path::new(out)).map_err(|e| e.to_string())?;
    // Read-back verify through the full validate-before-trust pipeline:
    // a model file that cannot be served must not leave this command.
    let reread = goalrec_datasets::grlb2::read_model_v2(Path::new(out))
        .map_err(|e| format!("read-back verify of {out} failed: {e}"))?;
    if reread.num_impls() != model.num_impls() {
        return Err(format!(
            "read-back verify of {out} found {} implementations, expected {}",
            reread.num_impls(),
            model.num_impls()
        ));
    }
    println!(
        "compiled {} implementations / {} goals / {} actions → {out} ({} bytes, mmap-servable)",
        lib.len(),
        lib.num_goals(),
        lib.num_actions(),
        std::fs::metadata(out).map(|m| m.len()).unwrap_or(0)
    );
    let shards = args.num("shards", 0)?;
    if shards > 0 {
        let mode = match args.flag("shard-mode") {
            Some(m) => goalrec_server::PartitionMode::parse(m)
                .ok_or_else(|| format!("--shard-mode expects 'hash' or 'balanced', got '{m}'"))?,
            None => goalrec_server::PartitionMode::HashGoal,
        };
        let family =
            goalrec_server::shards::persist_shard_family(&lib, shards, mode, Path::new(out))
                .map_err(|e| e.to_string())?;
        for path in &family {
            println!("  shard snapshot → {}", path.display());
        }
        println!(
            "serve with: goalrec serve --library {out} --shards {} --shard-mode {}",
            family.len(),
            match mode {
                goalrec_server::PartitionMode::HashGoal => "hash",
                goalrec_server::PartitionMode::BalancedMass => "balanced",
            }
        );
    }
    Ok(())
}

/// Prints library statistics. `--json` emits a machine-readable object;
/// `--metrics` additionally compiles the model so the `model.build.*`
/// spans populate, then appends the metrics snapshot.
fn stats(args: &Args) -> CmdResult {
    let lib = load_library(args)?;
    let s = lib.stats();
    let metrics = if args.has("metrics") {
        // Building the model is what produces the build-span timings.
        let _ = GoalModel::build(&lib).map_err(|e| e.to_string())?;
        Some(goalrec_obs::snapshot())
    } else {
        None
    };
    if args.has("json") {
        // Shared shape with the server's GET /v1/stats — see StatsReport.
        println!("{}", StatsReport::new(s, metrics).to_json_pretty());
        return Ok(());
    }
    println!("implementations : {}", s.num_implementations);
    println!("actions         : {}", s.num_actions);
    println!("goals           : {}", s.num_goals);
    println!(
        "connectivity    : {:.2} (max {})",
        s.connectivity, s.max_connectivity
    );
    println!(
        "avg impl length : {:.2} (max {})",
        s.avg_impl_len, s.max_impl_len
    );
    println!("impls per goal  : {:.2}", s.avg_impls_per_goal);
    if let Some(report) = metrics {
        println!();
        println!("{report}");
    }
    Ok(())
}

fn parse_strategy(name: &str) -> Result<Box<dyn Strategy>, String> {
    use goalrec_core::{BestMatch, Breadth, Focus, FocusVariant};
    Ok(match name {
        "breadth" => Box::new(Breadth),
        "best-match" => Box::new(BestMatch::default()),
        "focus-cmp" => Box::new(Focus::new(FocusVariant::Completeness)),
        "focus-cl" => Box::new(Focus::new(FocusVariant::Closeness)),
        other => return Err(format!("unknown strategy '{other}'")),
    })
}

fn recommend(args: &Args) -> CmdResult {
    let lib = load_library(args)?;
    let activity_spec = args.required("activity")?;
    let ids: Result<Vec<u32>, _> = activity_spec
        .split(',')
        .map(|t| t.trim().trim_start_matches('a').parse::<u32>())
        .collect();
    let ids = ids.map_err(|e| format!("--activity expects ids like 3,17,42: {e}"))?;
    let activity = Activity::from_raw(ids);
    let k = args.num("k", 10)?;
    let strategy = parse_strategy(args.flag("strategy").unwrap_or("breadth"))?;
    let strategy_name = strategy.name();

    let model = GoalModel::build(&lib).map_err(|e| e.to_string())?;
    let rec = GoalRecommender::from_library(&lib, strategy).map_err(|e| e.to_string())?;
    let top = rec.recommend(&activity, k);
    println!("{strategy_name} top-{k} for activity [{activity_spec}]:");
    for (rank, s) in top.iter().enumerate() {
        println!(
            "  {:>2}. {} (score {:.4})",
            rank + 1,
            lib.action_name(s.action),
            s.score
        );
        if args.has("explain") {
            let ex = explain(&model, &activity, s.action, 3);
            for j in &ex.justifications {
                let missing: Vec<String> = j
                    .still_missing
                    .iter()
                    .map(|a| lib.action_name(*a))
                    .collect();
                println!(
                    "        → {} via {}: {:.0}% → {:.0}%{}",
                    lib.goal_name(j.goal),
                    j.implementation,
                    j.completeness_before * 100.0,
                    j.completeness_after * 100.0,
                    if missing.is_empty() {
                        " (completes the goal)".to_owned()
                    } else {
                        format!(", still missing [{}]", missing.join(", "))
                    }
                );
            }
        }
    }
    Ok(())
}

/// Runs the HTTP server over a library file: a thin wrapper around
/// `goalrec_server::run_blocking` so `goalrec serve` and the standalone
/// `goalrec-serve` binary behave identically.
fn serve(args: &Args) -> CmdResult {
    use std::time::Duration;
    let lib = load_library(args)?;
    let mut cfg = goalrec_server::ServerConfig::default();
    if let Some(addr) = args.flag("addr") {
        cfg.addr = addr.to_owned();
    }
    cfg.port = u16::try_from(args.num("port", usize::from(cfg.port))?)
        .map_err(|_| "--port must fit in 16 bits".to_owned())?;
    cfg.workers = args.num("workers", cfg.workers)?;
    cfg.queue_depth = args.num("queue-depth", cfg.queue_depth)?;
    cfg.deadline =
        Duration::from_millis(u64::try_from(args.num("deadline-ms", 1000)?).unwrap_or(u64::MAX));
    cfg.idle_timeout =
        Duration::from_millis(u64::try_from(args.num("idle-ms", 5000)?).unwrap_or(u64::MAX));
    cfg.trace_enabled = !args.has("no-trace");
    cfg.trace_sample_every = u64::try_from(args.num("trace-sample-every", 64)?).unwrap_or(u64::MAX);
    if args.has("access-log") {
        cfg.access_log_every = 1;
    }
    cfg.access_log_every = u64::try_from(args.num(
        "access-log-every",
        usize::try_from(cfg.access_log_every).unwrap_or(0),
    )?)
    .unwrap_or(u64::MAX);
    cfg.shards = args.num("shards", cfg.shards)?;
    if let Some(mode) = args.flag("shard-mode") {
        cfg.shard_mode = goalrec_server::PartitionMode::parse(mode)
            .ok_or_else(|| format!("--shard-mode expects 'hash' or 'balanced', got '{mode}'"))?;
    }
    cfg.admin_deadline = Duration::from_millis(
        u64::try_from(args.num("admin-deadline-ms", 10_000)?).unwrap_or(u64::MAX),
    );
    cfg.append_max_entries = args.num("append-max-entries", cfg.append_max_entries)?;
    cfg.watch = args.has("watch");
    cfg.compact_threshold = args.num("compact-threshold", cfg.compact_threshold)?;
    cfg.compact_max_age = Duration::from_millis(
        u64::try_from(args.num("compact-max-age-ms", 60_000)?).unwrap_or(u64::MAX),
    );
    // SIGHUP and path-less admin reloads re-read the same file.
    cfg.library_path = args.required("library").ok().map(std::path::PathBuf::from);
    goalrec_server::run_blocking(lib, cfg).map_err(|e| e.to_string())
}

fn demo() -> CmdResult {
    let mut b = LibraryBuilder::new();
    b.add_impl("olivier salad", ["potatoes", "carrots", "pickles"])
        .map_err(|e| e.to_string())?;
    b.add_impl("mashed potatoes", ["potatoes", "nutmeg", "butter"])
        .map_err(|e| e.to_string())?;
    b.add_impl("pan-fried carrots", ["carrots", "nutmeg"])
        .map_err(|e| e.to_string())?;
    let lib = b.build().map_err(|e| e.to_string())?;
    let cart = Activity::from_actions([
        lib.action_id("potatoes").expect("known"),
        lib.action_id("carrots").expect("known"),
    ]);
    let model = GoalModel::build(&lib).map_err(|e| e.to_string())?;
    let rec = GoalRecommender::from_library(&lib, Box::new(goalrec_core::Breadth))
        .map_err(|e| e.to_string())?;
    println!("cart: potatoes, carrots\n");
    for s in rec.recommend(&cart, 3) {
        println!(
            "recommend {} (score {})",
            lib.action_name(s.action),
            s.score
        );
        let ex = explain(&model, &cart, s.action, 2);
        for j in &ex.justifications {
            println!(
                "  advances '{}' {:.0}% → {:.0}%",
                lib.goal_name(j.goal),
                j.completeness_before * 100.0,
                j.completeness_after * 100.0
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(parts: &[&str]) -> CmdResult {
        dispatch(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join("goalrec-cli-tests");
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn demo_runs() {
        run(&["demo"]).unwrap();
    }

    #[test]
    fn unknown_command_and_usage() {
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn generate_then_stats_roundtrip() {
        let lib_path = tmpdir().join("ft.jsonl");
        // Generate a library jsonl via the datasets crate directly, then
        // run stats on it through the CLI path.
        let ft = FortyThings::generate(&FortyThingsConfig::test_scale());
        dsio::write_library_jsonl(&ft.library, &lib_path).unwrap();
        run(&["stats", "--library", lib_path.to_str().unwrap()]).unwrap();
    }

    #[test]
    fn stats_json_and_metrics_modes() {
        let lib_path = tmpdir().join("ft-stats.jsonl");
        let ft = FortyThings::generate(&FortyThingsConfig::test_scale());
        dsio::write_library_jsonl(&ft.library, &lib_path).unwrap();
        let p = lib_path.to_str().unwrap();
        run(&["stats", "--library", p, "--json"]).unwrap();
        run(&["stats", "--library", p, "--metrics"]).unwrap();
        run(&["stats", "--library", p, "--json", "--metrics"]).unwrap();
        // --metrics compiles the model, so the build spans must be live.
        let report = goalrec_obs::snapshot();
        for span in [
            goalrec_obs::names::MODEL_BUILD_A_IDX,
            goalrec_obs::names::MODEL_BUILD_G_IDX,
            goalrec_obs::names::MODEL_BUILD_GI_A_IDX,
            goalrec_obs::names::MODEL_BUILD_GI_G_IDX,
            goalrec_obs::names::MODEL_BUILD_A_GI_IDX,
        ] {
            assert!(
                report.histogram(span).is_some_and(|h| h.count >= 1),
                "span {span} not recorded by stats --metrics"
            );
        }
    }

    #[test]
    fn generate_dataset_json() {
        let out = tmpdir().join("fm.json");
        run(&[
            "generate",
            "foodmart",
            "--scale",
            "test",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.exists());
        assert!(run(&["generate", "nonsense", "--out", "x"]).is_err());
        assert!(run(&["generate", "foodmart"]).is_err()); // missing --out
    }

    #[test]
    fn convert_roundtrips_between_formats() {
        let dir = tmpdir();
        let ft = FortyThings::generate(&FortyThingsConfig::test_scale());
        let jsonl = dir.join("conv.jsonl");
        dsio::write_library_jsonl(&ft.library, &jsonl).unwrap();
        let grlb = dir.join("conv.grlb");
        run(&[
            "convert",
            "--library",
            jsonl.to_str().unwrap(),
            "--out",
            grlb.to_str().unwrap(),
        ])
        .unwrap();
        // Stats and recommend work on the binary file directly.
        run(&["stats", "--library", grlb.to_str().unwrap()]).unwrap();
        run(&[
            "recommend",
            "--library",
            grlb.to_str().unwrap(),
            "--activity",
            "0",
        ])
        .unwrap();
    }

    #[test]
    fn compile_writes_a_servable_v2_model_and_shard_family() {
        let dir = tmpdir();
        let ft = FortyThings::generate(&FortyThingsConfig::test_scale());
        let jsonl = dir.join("compile-src.jsonl");
        dsio::write_library_jsonl(&ft.library, &jsonl).unwrap();
        let model = dir.join("compiled.grlb2");
        run(&[
            "compile",
            "--library",
            jsonl.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--shards",
            "2",
        ])
        .unwrap();
        assert!(model.exists());
        assert!(dir.join("compiled.shard0.grlb2").exists());
        assert!(dir.join("compiled.shard1.grlb2").exists());
        // The model file round-trips through every read-side command.
        run(&["stats", "--library", model.to_str().unwrap()]).unwrap();
        run(&[
            "recommend",
            "--library",
            model.to_str().unwrap(),
            "--activity",
            "0",
        ])
        .unwrap();
        // Guard rails: compile insists on .grlb2, convert refuses it.
        assert!(run(&[
            "compile",
            "--library",
            jsonl.to_str().unwrap(),
            "--out",
            dir.join("nope.grlb").to_str().unwrap(),
        ])
        .is_err());
        assert!(run(&[
            "convert",
            "--library",
            jsonl.to_str().unwrap(),
            "--out",
            dir.join("nope.grlb2").to_str().unwrap(),
        ])
        .is_err());
    }

    #[test]
    fn synth_extract_recommend_full_pipeline() {
        let dir = tmpdir();
        let stories = dir.join("synth-stories.json");
        run(&[
            "synth",
            "--out",
            stories.to_str().unwrap(),
            "--stories",
            "30",
        ])
        .unwrap();
        let lib = dir.join("synth-lib.jsonl");
        run(&[
            "extract",
            "--stories",
            stories.to_str().unwrap(),
            "--out",
            lib.to_str().unwrap(),
        ])
        .unwrap();
        run(&[
            "recommend",
            "--library",
            lib.to_str().unwrap(),
            "--activity",
            "0",
            "--strategy",
            "focus-cmp",
            "--explain",
        ])
        .unwrap();
    }

    #[test]
    fn extract_then_recommend_with_explanations() {
        let dir = tmpdir();
        let stories = dir.join("stories.json");
        std::fs::write(
            &stories,
            serde_json::json!([
                {"goal": "lose weight", "text": "1. join a gym\n2. drink more water"},
                {"goal": "get fit", "text": "I joined a gym. I lifted weights."}
            ])
            .to_string(),
        )
        .unwrap();
        let lib = dir.join("extracted.jsonl");
        run(&[
            "extract",
            "--stories",
            stories.to_str().unwrap(),
            "--out",
            lib.to_str().unwrap(),
        ])
        .unwrap();
        // Action a0 = "join gym" (first interned).
        run(&[
            "recommend",
            "--library",
            lib.to_str().unwrap(),
            "--activity",
            "0",
            "--k",
            "5",
            "--explain",
        ])
        .unwrap();
        // Unknown strategy is rejected.
        assert!(run(&[
            "recommend",
            "--library",
            lib.to_str().unwrap(),
            "--activity",
            "0",
            "--strategy",
            "voodoo",
        ])
        .is_err());
    }
}
