//! GRLB v2 round-trip equivalence.
//!
//! A model written to the v2 format and read back — mapped in place or
//! through the heap fallback — must be observationally identical to the
//! heap-built original: every §4 space operator and every strategy's full
//! ranking (scores included) must match bit for bit, under both the
//! allocating and the arena-based entry points. This is the property that
//! makes `goalrec compile` + mmap serving a pure performance change.

use goalrec_core::strategies::default_strategies;
use goalrec_core::{ActionId, Activity, GoalId, GoalLibrary, GoalModel, LiveRef, Scratch};
use goalrec_datasets::{grlb2, mmap};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const MAX_ACTIONS: u32 = 18;
const MAX_GOALS: u32 = 7;

/// Same generator family as core's `csr_equivalence` suite: small dense
/// id spaces so goal/action collisions (the interesting cases) are common.
fn library_and_activity() -> impl Strategy<Value = (GoalLibrary, Activity)> {
    (
        proptest::collection::vec(
            (
                0..MAX_GOALS,
                proptest::collection::btree_set(0..MAX_ACTIONS, 1..6),
            ),
            1..25,
        ),
        proptest::collection::btree_set(0..MAX_ACTIONS, 0..7),
    )
        .prop_map(|(impls, h)| {
            let lib = GoalLibrary::from_id_implementations(
                MAX_ACTIONS,
                MAX_GOALS,
                impls
                    .into_iter()
                    .map(|(g, acts)| {
                        (
                            GoalId::new(g),
                            acts.into_iter().map(ActionId::new).collect(),
                        )
                    })
                    .collect(),
            )
            .unwrap();
            (lib, Activity::from_raw(h))
        })
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_model_path() -> PathBuf {
    let dir = std::env::temp_dir().join("goalrec-v2-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "case-{}-{}.grlb2",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// write → read (mapped AND heap-fallback) → rank is bit-identical to
    /// the heap-built model for every strategy, every score, every rank.
    #[test]
    fn v2_roundtrip_ranks_bit_identically(
        (lib, h) in library_and_activity(),
        k in 0usize..12,
    ) {
        let built = GoalModel::build(&lib).unwrap();
        let path = tmp_model_path();
        grlb2::write_model_v2(&built, &path).unwrap();
        let mapped = grlb2::read_model_v2(&path).unwrap();
        let heap = grlb2::read_model_v2_heap(&path).unwrap();
        // Both readers hand out borrowed section views (the heap fallback
        // borrows one shared word buffer), so `is_mapped` is true either
        // way; what distinguishes them is only where the bytes live.
        if mmap::mmap_supported() {
            prop_assert!(mapped.is_mapped(), "expected an mmap-backed model");
        }

        let raw = h.raw();
        let mut scratch = Scratch::new();
        for reread in [&mapped, &heap] {
            prop_assert_eq!(reread.num_impls(), built.num_impls());
            prop_assert_eq!(
                reread.implementation_space(raw),
                built.implementation_space(raw)
            );
            prop_assert_eq!(reread.goal_space(raw), built.goal_space(raw));
            prop_assert_eq!(reread.action_space(raw), built.action_space(raw));
            for s in default_strategies() {
                let expect = s.rank(&built, &h, k);
                let got = s.rank(reread, &h, k);
                prop_assert_eq!(&got, &expect, "{} k={}", s.name(), k);
                s.rank_into(LiveRef::solid(reread), &h, k, &mut scratch);
                prop_assert_eq!(scratch.out(), &expect[..], "{} rank_into", s.name());
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
