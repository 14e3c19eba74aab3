//! Counting-allocator proof of the recommend route's allocation budget.
//!
//! A global allocator wrapper counts every `alloc`/`realloc`. After one
//! warm-up pass over every case has grown the worker arena's buffers, a
//! warm `POST /v1/recommend` through the same three calls a worker makes
//! — `http::read_request`, `router::handle` and `Response::write_to` —
//! must allocate the same number of times whatever the strategy, `k` or
//! activity size: twice in `handle` (the activity set and the response
//! body) and once in `write_to` (the wire buffer). Parsing allocates a
//! constant number of times too (the request line, header and body
//! strings).
//!
//! Deliberately a single `#[test]`: the counter is process-global, so a
//! second concurrent test would pollute the measurement.

use goalrec_core::LibraryBuilder;
use goalrec_obs::TraceContext;
use goalrec_server::http::{read_request, HttpReader, Limits};
use goalrec_server::{router, AppState, ServeCtx, WorkerArena, STRATEGY_NAMES};
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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// 240 actions over 60 goals of three overlapping implementations each,
/// so every strategy has well over 100 candidates for the activities
/// below, and display names that need escaping.
fn library() -> goalrec_core::GoalLibrary {
    let mut b = LibraryBuilder::new();
    for g in 0..60u32 {
        for v in 0..3u32 {
            let actions: Vec<String> = (0..6u32)
                .map(|i| format!("item \"{}\"\t#", (g * 7 + v * 13 + i * 41) % 240))
                .collect();
            b.add_impl(&format!("goal {g}"), &actions).unwrap();
        }
    }
    b.build().unwrap()
}

/// One recommend request on the wire, as a client sends it.
fn wire(strategy: &str, k: usize, h: usize) -> Vec<u8> {
    let activity: Vec<String> = (0..h).map(|i| ((i * 37) % 240).to_string()).collect();
    let body = format!(
        "{{\"activity\": [{}], \"strategy\": \"{strategy}\", \"k\": {k}}}",
        activity.join(", ")
    );
    format!(
        "POST /v1/recommend HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Allocations of one request in the three calls a worker makes:
/// `(read_request, handle, write_to)`.
fn serve(ctx: &ServeCtx, arena: &mut WorkerArena, request: &[u8]) -> (u64, u64, u64) {
    let limits = Limits::default();
    let mut reader = HttpReader::new(request);
    let mut trace = TraceContext::disabled();
    let t0 = allocations();
    let parsed = read_request(&mut reader, &limits).unwrap().unwrap();
    let t1 = allocations();
    let response = router::handle(ctx, &parsed, arena, &mut trace).unwrap();
    let t2 = allocations();
    response
        .write_to(&mut std::io::sink(), parsed.keep_alive)
        .unwrap();
    let t3 = allocations();
    assert_eq!(response.status, 200);
    (t1 - t0, t2 - t1, t3 - t2)
}

#[test]
fn a_warm_recommend_allocates_a_constant_few_times() {
    let ctx = ServeCtx::fixed(AppState::new(library()).unwrap());
    let mut arena = WorkerArena::new();
    let cases: Vec<(&str, usize, usize, Vec<u8>)> = STRATEGY_NAMES
        .iter()
        .flat_map(|&s| {
            [1, 10, 100]
                .into_iter()
                .flat_map(move |k| [1, 4, 16, 64].map(|h| (s, k, h, wire(s, k, h))))
        })
        .collect();
    // Warm-up: grow the arena to every case's high-water mark and
    // register every metric the route touches.
    for (_, _, _, request) in &cases {
        serve(&ctx, &mut arena, request);
    }
    let mut counts = Vec::new();
    for (strategy, k, h, request) in &cases {
        let (parse, handle, write) = serve(&ctx, &mut arena, request);
        println!("{strategy} k={k} |H|={h}: parse {parse}, handle {handle}, write {write}");
        counts.push((parse, handle, write));
    }
    let (parse, handle, write) = counts[0];
    assert!(handle <= 2, "handle allocated {handle} times");
    assert!(write <= 1, "write_to allocated {write} times");
    assert!(
        counts.iter().all(|&c| c == (parse, handle, write)),
        "allocation counts vary with the case: {counts:?}"
    );
}
