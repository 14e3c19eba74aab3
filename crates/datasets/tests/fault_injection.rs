//! Chaos tests for dataset persistence: every writer must be crash-safe
//! under injected torn writes and IO errors, and every reader must turn
//! injected faults into errors — never panics, never a half-read library
//! accepted as whole.
//!
//! Fault plans are process-global, so every test takes the `GATE` mutex
//! and scopes its plan with a path filter unique to its own files.

use goalrec_core::{GoalLibrary, GoalModel, LibraryBuilder};
use goalrec_datasets::grlb2::write_model_v2;
use goalrec_datasets::io::{read_library_auto, write_library_jsonl};
use goalrec_faults::{with_plan, FaultPlan};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

static GATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("goalrec-fault-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn library_a() -> GoalLibrary {
    let mut b = LibraryBuilder::new();
    b.add_impl("salad", ["potatoes", "carrots", "pickles"])
        .unwrap();
    b.add_impl("mash", ["potatoes", "butter"]).unwrap();
    b.add_impl("soup", ["peas", "carrots", "onion"]).unwrap();
    b.build().unwrap()
}

/// A different library, so "the old file survived" is distinguishable
/// from "the new write half-succeeded".
fn library_b() -> GoalLibrary {
    let mut b = LibraryBuilder::new();
    b.add_impl("omelette", ["eggs", "butter", "chives"])
        .unwrap();
    b.add_impl("custard", ["eggs", "milk", "sugar", "vanilla"])
        .unwrap();
    b.build().unwrap()
}

/// Kill-between-write simulation: a torn write at *every* byte offset of
/// the replacement file must leave the previously persisted library
/// byte-identical at the target path — a reader can never observe a
/// partial file.
#[test]
fn torn_write_at_every_offset_never_corrupts_the_target() {
    let _g = lock();
    let path = tmp("torn-every-offset.jsonl");
    write_library_jsonl(&library_a(), &path).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Size the sweep off a throwaway clean write of the replacement.
    let probe = tmp("torn-probe.jsonl");
    write_library_jsonl(&library_b(), &probe).unwrap();
    let new_len = std::fs::read(&probe).unwrap().len();

    for offset in 0..new_len as u64 {
        let plan =
            FaultPlan::parse(&format!("path=torn-every-offset;torn-write@byte={offset}")).unwrap();
        with_plan(plan, || {
            let err = write_library_jsonl(&library_b(), &path)
                .expect_err("torn write must fail the writer");
            assert!(err.to_string().contains("torn write"), "{err}");
        });
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good,
            "target corrupted by a tear at byte {offset}"
        );
        // And the surviving file still loads.
        assert_eq!(
            read_library_auto(&path).unwrap().implementations(),
            library_a().implementations()
        );
    }

    // With the chaos over, the replacement goes through.
    write_library_jsonl(&library_b(), &path).unwrap();
    assert_eq!(
        read_library_auto(&path).unwrap().implementations(),
        library_b().implementations()
    );
}

/// The model writer shares the crash-safe path: a tear anywhere in a
/// `.grlb2` replacement (header, section, padding) leaves the old model.
#[test]
fn torn_model_write_never_corrupts_the_target() {
    let _g = lock();
    let path = tmp("torn-model.grlb2");
    let model_a = GoalModel::build(&library_a()).unwrap();
    let model_b = GoalModel::build(&library_b()).unwrap();
    write_model_v2(&model_a, &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let probe = tmp("torn-model-probe.grlb2");
    write_model_v2(&model_b, &probe).unwrap();
    let new_len = std::fs::read(&probe).unwrap().len() as u64;
    for offset in (0..new_len).step_by(61).chain([new_len - 1]) {
        let plan = FaultPlan::parse(&format!("path=torn-model;torn-write@byte={offset}")).unwrap();
        with_plan(plan, || {
            assert!(write_model_v2(&model_b, &path).is_err());
        });
        assert_eq!(std::fs::read(&path).unwrap(), good, "tear at byte {offset}");
    }
    assert_eq!(read_library_auto(&path).unwrap().len(), library_a().len());
}

#[test]
fn write_error_leaves_jsonl_target_untouched() {
    let _g = lock();
    let path = tmp("werr.jsonl");
    write_library_jsonl(&library_a(), &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let plan = FaultPlan::parse("path=werr;write-error@op=1").unwrap();
    with_plan(plan, || {
        assert!(write_library_jsonl(&library_b(), &path).is_err());
    });
    assert_eq!(std::fs::read(&path).unwrap(), good);
    assert_eq!(
        read_library_auto(&path).unwrap().implementations(),
        library_a().implementations()
    );
}

#[test]
fn injected_read_errors_surface_as_errors_not_panics() {
    let _g = lock();
    let grlb2 = tmp("rerr.grlb2");
    let jsonl = tmp("rerr.jsonl");
    write_model_v2(&GoalModel::build(&library_a()).unwrap(), &grlb2).unwrap();
    write_library_jsonl(&library_a(), &jsonl).unwrap();

    for (path, filter) in [(&grlb2, "rerr.grlb2"), (&jsonl, "rerr.jsonl")] {
        let plan = FaultPlan::parse(&format!("path={filter};read-error@byte=8")).unwrap();
        with_plan(plan, || {
            let err = read_library_auto(path).expect_err("injected read error must surface");
            assert!(err.to_string().contains("injected"), "{err}");
        });
        // One-shot plan consumed per stream; disarmed read works again.
        assert!(read_library_auto(path).is_ok());
    }
}

#[test]
fn short_reads_and_stalls_still_load_correctly() {
    let _g = lock();
    let grlb2 = tmp("slow.grlb2");
    let jsonl = tmp("slow.jsonl");
    write_model_v2(&GoalModel::build(&library_a()).unwrap(), &grlb2).unwrap();
    write_library_jsonl(&library_a(), &jsonl).unwrap();
    for path in [&grlb2, &jsonl] {
        let plan = FaultPlan::parse("path=slow.;short-read@op=1;stall-20ms@op=2").unwrap();
        let t0 = std::time::Instant::now();
        let lib = with_plan(plan, || read_library_auto(path).unwrap());
        assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
        assert_eq!(lib.implementations(), library_a().implementations());
    }
}

#[test]
fn faulted_read_past_the_first_bytes_rolls_up_cleanly() {
    let _g = lock();
    let path = tmp("auto-fault.jsonl");
    write_library_jsonl(&library_a(), &path).unwrap();
    // Error in the middle of the records: must be an Err, and the next
    // (unfaulted) load must succeed — no sticky state.
    let plan = FaultPlan::parse("path=auto-fault;read-error@op=2").unwrap();
    with_plan(plan, || {
        assert!(read_library_auto(&path).is_err());
    });
    assert!(read_library_auto(&path).is_ok());
}
