//! Counting-allocator proof that serving from an mmap-backed GRLB v2
//! model is as allocation-free as serving from a heap-built one.
//!
//! The core suite (`goalrec-core/tests/alloc_counting.rs`) pins the
//! zero-allocation steady state for heap-built models; this is the same
//! measurement against a model whose CSR sections are borrowed views of a
//! live file mapping. Deliberately a single `#[test]` — the counter is
//! process-global.

use goalrec_core::strategies::default_strategies;
use goalrec_core::{Activity, GoalModel, LibraryBuilder, LiveRef, Scratch};
use goalrec_datasets::grlb2;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Same shape as the core alloc test's library: dozens of goals with
/// overlapping action sets, big enough that per-request sloppiness shows.
fn library() -> goalrec_core::GoalLibrary {
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
    b.build().unwrap()
}

#[test]
fn steady_state_rank_on_a_mapped_model_performs_zero_heap_allocations() {
    let lib = library();
    let built = GoalModel::build(&lib).unwrap();
    let dir = std::env::temp_dir().join("goalrec-mapped-alloc");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("model-{}.grlb2", std::process::id()));
    grlb2::write_model_v2(&built, &path).unwrap();
    let model = grlb2::read_model_v2(&path).unwrap();
    if goalrec_datasets::mmap::mmap_supported() {
        assert!(model.is_mapped(), "expected an mmap-backed model");
    }

    let activities: Vec<Activity> = vec![
        Activity::from_raw([0]),
        Activity::from_raw([1, 5, 9]),
        Activity::from_raw([2, 3, 17, 30]),
    ];
    let mut scratch = Scratch::new();
    let strategies = default_strategies();

    // Warm-up: two rounds per (strategy, activity) pair size the arena.
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
                "{} allocated {delta} time(s) ranking a mapped model (H={:?})",
                s.name(),
                h
            );
            assert!(
                n > 0,
                "{} found no candidates on the mapped model",
                s.name()
            );
            assert!(!scratch.out().is_empty());
        }
    }

    std::fs::remove_file(&path).ok();
}
