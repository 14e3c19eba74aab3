//! Counting-allocator proof of the zero-allocation hot path.
//!
//! A global allocator wrapper counts every `alloc`/`realloc`; after two
//! warm-up calls per (strategy, activity) pair have sized the arena's
//! buffers, a steady-state `rank_into` — and the full `recommend_into`
//! facade — must perform exactly zero heap allocations.
//!
//! Deliberately a single `#[test]`: the counter is process-global, so a
//! second concurrent test would pollute the measurement.

use goalrec_core::strategies::default_strategies;
use goalrec_core::{Activity, GoalModel, GoalRecommender, LibraryBuilder, LiveRef, Scratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A library big enough that sloppy per-request allocation would show up
/// (dozens of goals, overlapping action sets). Goals `g*` have three
/// implementations each and goals `solo*` one, so every activity below
/// reaches both kinds and Best Match's walk runs both of its branches.
fn library_builder() -> LibraryBuilder {
    let mut b = LibraryBuilder::new();
    for g in 0..24u32 {
        for v in 0..3u32 {
            let actions: Vec<String> = (0..4u32)
                .map(|i| format!("a{}", (g * 7 + v * 13 + i * 5) % 40))
                .collect();
            let refs: Vec<&str> = actions.iter().map(String::as_str).collect();
            b.add_impl(&format!("g{g}"), refs).unwrap();
        }
    }
    for g in 0..10u32 {
        let actions: Vec<String> = (0..4u32).map(|i| format!("a{}", g + 10 * i)).collect();
        let refs: Vec<&str> = actions.iter().map(String::as_str).collect();
        b.add_impl(&format!("solo{g}"), refs).unwrap();
    }
    b
}

#[test]
fn steady_state_rank_into_performs_zero_heap_allocations() {
    let lib = library_builder().build().unwrap();
    let model = Arc::new(GoalModel::build(&lib).unwrap());
    let activities: Vec<Activity> = vec![
        Activity::from_raw([0]),
        Activity::from_raw([1, 5, 9]),
        Activity::from_raw([2, 3, 17, 30]),
    ];
    for h in &activities {
        let sizes: Vec<usize> = h
            .raw()
            .iter()
            .flat_map(|&a| model.goal_space_of_action(goalrec_core::ActionId::new(a)))
            .map(|g| model.goal_impls(goalrec_core::GoalId::new(g)).len())
            .collect();
        assert!(
            sizes.contains(&1) && sizes.contains(&3),
            "H={h:?} must reach goals with one and with three implementations"
        );
    }
    let mut scratch = Scratch::new();

    // Warm-up: two rounds per (strategy, activity) pair grow every arena
    // buffer to its steady-state capacity.
    let strategies = default_strategies();
    for _ in 0..2 {
        for s in &strategies {
            for h in &activities {
                s.rank_into(LiveRef::solid(&model), h, 10, &mut scratch);
            }
        }
    }

    for s in &strategies {
        for h in &activities {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let n = s.rank_into(LiveRef::solid(&model), h, 10, &mut scratch);
            let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(
                delta,
                0,
                "{} allocated {delta} time(s) on a steady-state rank_into (H={:?})",
                s.name(),
                h
            );
            assert!(
                n > 0,
                "{} found no candidates — vacuous measurement",
                s.name()
            );
            assert!(!scratch.out().is_empty());
        }
    }

    // The serving facade stays allocation-free too: metrics are atomics
    // and the result is a borrow of the arena's output buffer.
    let rec = GoalRecommender::new(Arc::clone(&model), Box::new(goalrec_core::Breadth));
    for _ in 0..2 {
        rec.recommend_into(&activities[1], 10, &mut scratch);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let ranked = rec.recommend_into(&activities[1], 10, &mut scratch);
    assert!(!ranked.is_empty());
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "recommend_into allocated {delta} time(s) on the steady-state path"
    );

    // With tracing ENABLED the path must stay allocation-free too: spans
    // land in the trace's fixed array and the phase marks are plain clock
    // reads. This is the guarantee that lets the server trace every
    // request by default.
    let mut trace = goalrec_obs::TraceContext::new(true);
    let solid = LiveRef::solid(&model);
    for _ in 0..2 {
        trace.begin(goalrec_obs::TraceId(7), std::time::Instant::now());
        rec.recommend_live_into_traced(solid, &activities[1], 10, &mut scratch, &mut trace);
        trace.finish(200);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    trace.begin(goalrec_obs::TraceId(8), std::time::Instant::now());
    let ranked =
        rec.recommend_live_into_traced(solid, &activities[1], 10, &mut scratch, &mut trace);
    assert!(!ranked.is_empty());
    trace.finish(200);
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "recommend_live_into_traced with an enabled trace allocated {delta} time(s)"
    );
    assert!(
        trace
            .spans()
            .iter()
            .any(|s| s.name == goalrec_obs::names::SPAN_RANK),
        "the traced call must actually record a rank span"
    );

    // The live-mutation hot path with an EMPTY delta — what the server
    // serves between appends — must be exactly as allocation-free as the
    // plain path: `LiveRef::overlay` drops an empty delta, so every
    // strategy's `rank_into` dispatches straight to the compiled
    // base with no per-request overlay bookkeeping.
    let empty_delta = goalrec_core::DeltaSegment::for_base(&model);
    let live = LiveRef::overlay(&model, &empty_delta);
    assert!(
        live.unstaged().is_some(),
        "an empty delta must vanish from the read path"
    );
    for s in &strategies {
        for h in &activities {
            for _ in 0..2 {
                s.rank_into(live, h, 10, &mut scratch);
            }
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let n = s.rank_into(live, h, 10, &mut scratch);
            let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(
                delta,
                0,
                "{} allocated {delta} time(s) on an empty-delta rank_into (H={:?})",
                s.name(),
                h
            );
            assert!(n > 0, "{} found no candidates on the live path", s.name());
        }
    }
}
