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

/// Each command's name, the flags it reads and its usage line. A flag a
/// command does not read is an error naming the flag and that usage, so
/// a mistyped or retired flag never passes silently. `serve` hands its
/// arguments to the server's own parser, which is just as strict.
const COMMANDS: &[(&str, &[&str], &str)] = &[
    (
        "generate",
        &["scale", "out"],
        "goalrec generate  foodmart|fortythree [--scale test|paper] --out FILE.jsonl",
    ),
    (
        "synth",
        &["out", "stories", "seed"],
        "goalrec synth     --out FILE.json [--stories N] [--seed N]",
    ),
    (
        "extract",
        &["stories", "out"],
        "goalrec extract   --stories FILE.json --out FILE.jsonl",
    ),
    (
        "convert",
        &["library", "out"],
        "goalrec convert   --library FILE --out FILE.jsonl",
    ),
    (
        "compile",
        &["library", "out"],
        "goalrec compile   --library FILE --out MODEL.grlb2",
    ),
    (
        "stats",
        &["library", "json", "metrics"],
        "goalrec stats     --library FILE [--json] [--metrics]",
    ),
    (
        "recommend",
        &["library", "activity", "strategy", "k", "explain"],
        "goalrec recommend --library FILE --activity a1,a2,... \
         [--strategy breadth|best-match|focus-cmp|focus-cl] [--k N] [--explain]",
    ),
    (
        "serve",
        &[],
        "goalrec serve     --library FILE [the goalrec-serve flags; goalrec serve --help]",
    ),
    ("demo", &[], "goalrec demo"),
];

/// The full usage text: every command's line.
fn usage() -> String {
    let mut text = "usage:\n".to_owned();
    for (_, _, line) in COMMANDS {
        text.push_str("  ");
        text.push_str(line);
        text.push('\n');
    }
    text.push_str(
        "  a library FILE is JSON lines or a compiled GRLB v2 model, told apart by its first bytes",
    );
    text
}

/// Dispatches a parsed command line.
pub(crate) fn dispatch(argv: &[String]) -> CmdResult {
    let args = Args::parse(argv);
    let Some(command) = args.positional(0) else {
        return Err(usage());
    };
    if command == "serve" {
        return serve(argv.get(1..).unwrap_or_default());
    }
    let Some(&(_, flags, line)) = COMMANDS.iter().find(|(name, _, _)| *name == command) else {
        return Err(format!("unknown command '{command}'\n{}", usage()));
    };
    if let Some(flag) = args.unknown_flag(flags) {
        return Err(format!("'{command}' takes no --{flag} flag\nusage: {line}"));
    }
    match command {
        "generate" => generate(&args),
        "extract" => extract(&args),
        "synth" => synth(&args),
        "convert" => convert(&args),
        "compile" => compile(&args),
        "stats" => stats(&args),
        "recommend" => recommend(&args),
        _ => demo(), // the one command of `COMMANDS` left
    }
}

fn generate(args: &Args) -> CmdResult {
    let which = args
        .positional(1)
        .ok_or("generate needs a dataset: foodmart | fortythree")?;
    let out = args.required("out")?;
    let scale = args.flag("scale").unwrap_or("test");
    if !matches!(scale, "paper" | "test") {
        return Err(format!("unknown scale '{scale}'"));
    }
    let paper = scale == "paper";
    // Only the goal library is written; the generated carts and user
    // activities are not.
    let library = match which {
        "foodmart" => {
            let cfg = if paper {
                FoodMartConfig::paper_scale()
            } else {
                FoodMartConfig::test_scale()
            };
            FoodMart::generate(&cfg).library
        }
        "fortythree" => {
            let cfg = if paper {
                FortyThingsConfig::paper_scale()
            } else {
                FortyThingsConfig::test_scale()
            };
            FortyThings::generate(&cfg).library
        }
        other => return Err(format!("unknown dataset '{other}'")),
    };
    dsio::write_library_jsonl(&library, Path::new(out)).map_err(|e| e.to_string())?;
    let s = library.stats();
    println!(
        "wrote {out}: {} implementations, {} goals, {} actions (connectivity {:.1})",
        s.num_implementations, s.num_goals, s.num_actions, s.connectivity
    );
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

/// Loads `--library`: JSON lines or a compiled GRLB v2 model, told apart
/// by the file's first bytes (see `goalrec_datasets::io::read_library_file`).
fn load_library(args: &Args) -> Result<goalrec_core::GoalLibrary, String> {
    dsio::read_library_auto(Path::new(args.required("library")?)).map_err(|e| e.to_string())
}

/// Writes any library file back out as JSON lines (`goalrec compile`
/// goes the other way).
fn convert(args: &Args) -> CmdResult {
    let lib = load_library(args)?;
    let out = args.required("out")?;
    if Path::new(out)
        .extension()
        .is_some_and(|e| e.to_string_lossy().starts_with("grlb"))
    {
        return Err(format!(
            "convert writes JSON-lines libraries, not {out}; \
             use `goalrec compile --library FILE --out MODEL.grlb2` for a model file"
        ));
    }
    dsio::write_library_jsonl(&lib, Path::new(out)).map_err(|e| e.to_string())?;
    println!("converted {} implementations → {out}", lib.len());
    Ok(())
}

/// Compiles a library into the GRLB v2 model format: the aligned,
/// sectioned, checksummed file `goalrec serve` maps into place (no JSON
/// parse, no CSR rebuild at startup).
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

/// Runs the HTTP server over a library file. The flags are handed to
/// the parser the `goalrec-serve` binary uses, so both entry points take
/// the same flags with the same defaults and serve identically.
fn serve(argv: &[String]) -> CmdResult {
    let config = goalrec_server::parse_args(argv)?;
    goalrec_server::run_blocking(config).map_err(|e| e.to_string())
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
    fn a_flag_the_command_does_not_read_fails_naming_it_and_the_usage() {
        let d = tmpdir();
        let lib = d.join("flags.jsonl");
        let lib = lib.to_str().unwrap();
        run(&["generate", "fortythree", "--out", lib]).unwrap();
        let out = d.join("flags.grlb2");
        let out = out.to_str().unwrap();
        for (bad, flag) in [
            (&["--shards", "2"][..], "--shards"),
            (&["--bogus", "7"], "--bogus"),
            (&["--shards", "2", "--bogus", "7"], "--bogus"),
        ] {
            let mut argv = vec!["compile", "--library", lib, "--out", out];
            argv.extend_from_slice(bad);
            let err = run(&argv).unwrap_err();
            assert!(err.contains(flag), "{argv:?}: {err}");
            assert!(
                err.contains("usage: goalrec compile   --library FILE --out MODEL.grlb2"),
                "{argv:?}: {err}"
            );
        }
        // A flag another command reads is still foreign to this one.
        let err = run(&["stats", "--library", lib, "--explain"]).unwrap_err();
        assert!(
            err.contains("--explain") && err.contains("goalrec stats"),
            "{err}"
        );
        let err = run(&["demo", "--k", "3"]).unwrap_err();
        assert!(err.contains("--k") && err.contains("goalrec demo"), "{err}");
        // Every flag a command documents is accepted.
        run(&["compile", "--library", lib, "--out", out]).unwrap();
        run(&["stats", "--library", lib, "--json", "--metrics"]).unwrap();
        run(&[
            "recommend",
            "--library",
            lib,
            "--activity",
            "0",
            "--strategy",
            "focus-cl",
            "-k",
            "2",
            "--explain",
        ])
        .unwrap();
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
    fn generate_writes_a_library_the_other_commands_read() {
        let dir = tmpdir();
        let lib = dir.join("generated-ft.jsonl");
        let model = dir.join("generated-ft.grlb2");
        let (lib_s, model_s) = (lib.to_str().unwrap(), model.to_str().unwrap());
        run(&["generate", "fortythree", "--out", lib_s]).unwrap();
        run(&["stats", "--library", lib_s]).unwrap();
        run(&["compile", "--library", lib_s, "--out", model_s]).unwrap();
        run(&["stats", "--library", model_s]).unwrap();
        // The same library the generator holds, whichever file is read.
        let ft = FortyThings::generate(&FortyThingsConfig::test_scale());
        for path in [&lib, &model] {
            let back = dsio::read_library_auto(path).unwrap();
            assert_eq!(back.implementations(), ft.library.implementations());
        }
    }

    #[test]
    fn generate_library_jsonl() {
        let out = tmpdir().join("fm.jsonl");
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
    fn convert_writes_jsonl_from_any_library_file() {
        let dir = tmpdir();
        let ft = FortyThings::generate(&FortyThingsConfig::test_scale());
        let jsonl = dir.join("conv.jsonl");
        dsio::write_library_jsonl(&ft.library, &jsonl).unwrap();
        let model = dir.join("conv.grlb2");
        run(&[
            "compile",
            "--library",
            jsonl.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ])
        .unwrap();
        let back = dir.join("conv-back.jsonl");
        run(&[
            "convert",
            "--library",
            model.to_str().unwrap(),
            "--out",
            back.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            dsio::read_library_auto(&back).unwrap().implementations(),
            ft.library.implementations()
        );
        // A model name is refused with the command that writes one.
        let err = run(&[
            "convert",
            "--library",
            jsonl.to_str().unwrap(),
            "--out",
            dir.join("conv.grlb").to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("goalrec compile"), "{err}");
    }

    #[test]
    fn a_version_one_file_fails_compile_and_stats_naming_version_and_compile() {
        let dir = tmpdir();
        let retired = dir.join("retired.grlb");
        let mut bytes = b"GRLB".to_vec();
        for v in [1u32, 2, 1, 1, 0, 1, 0] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&retired, &bytes).unwrap();
        let lib = retired.to_str().unwrap();
        let out = dir.join("never.grlb2");
        for cmd in [
            vec!["stats", "--library", lib],
            vec!["compile", "--library", lib, "--out", out.to_str().unwrap()],
        ] {
            let err = run(&cmd).unwrap_err();
            assert!(
                err.contains("GRLB version 1") && err.contains("goalrec compile"),
                "{cmd:?}: {err}"
            );
        }
        assert!(!out.exists());
    }

    #[test]
    fn serve_takes_the_server_binarys_flags() {
        let argv = |parts: &[&str]| parts.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Bad flags fail exactly as goalrec-serve's own parser fails them.
        for bad in [
            &["--library", "x.jsonl", "--port", "hi"][..],
            &["--library", "x.jsonl", "--bogus"],
            &["--library", "x.jsonl", "--actions", "9"],
            &["--port", "1"],
            &["--help"],
        ] {
            let mut cmd = vec!["serve"];
            cmd.extend_from_slice(bad);
            assert_eq!(
                run(&cmd).unwrap_err(),
                goalrec_server::parse_args(&argv(bad)).unwrap_err(),
                "{bad:?}"
            );
        }
        // A full, valid flag set parses and reaches the loader, which
        // names the missing file — before anything is bound.
        let missing = tmpdir().join("no-such-library.jsonl");
        let err = run(&[
            "serve",
            "--library",
            missing.to_str().unwrap(),
            "--port",
            "0",
            "--workers",
            "1",
            "--watch",
        ])
        .unwrap_err();
        assert!(
            err.contains("loading the library") && err.contains("no-such-library.jsonl"),
            "{err}"
        );
    }

    #[test]
    fn compile_writes_a_servable_v2_model() {
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
        ])
        .unwrap();
        assert!(model.exists());
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
