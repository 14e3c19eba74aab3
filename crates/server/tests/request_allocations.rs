//! Counting-allocator proof of the recommend route's allocation budget.
//!
//! A global allocator wrapper counts every `alloc`/`realloc`. After one
//! warm-up pass over every case has grown the worker arena's buffers, a
//! warm `POST /v1/recommend` must allocate the same number of times
//! whatever the strategy, `k` or activity size, measured two ways:
//!
//! * **per layer**, through the same three calls a worker makes —
//!   `http::read_request`, `router::handle` and `Response::write_to`:
//!   twice in `handle` (the activity set and the response body), once in
//!   `write_to` (the wire buffer), and a constant few times in parsing
//!   (the request line, header and body strings);
//! * **end to end**, through a server started in-process, over one
//!   keep-alive loopback connection, so every byte passes through the
//!   pool's `worker_loop` → `handle_connection` → `respond`. An
//!   untraced request allocates exactly what the three layers do; a
//!   traced one allocates at most two more times (the trace id's hex
//!   string and the response's extra-header vector).
//!
//! Deliberately a single `#[test]`: the counter is process-global, so a
//! second concurrent test would pollute the measurement. For the same
//! reason the loopback client allocates nothing while counting: its
//! request bytes and response buffer are built beforehand.

use goalrec_core::LibraryBuilder;
use goalrec_obs::TraceContext;
use goalrec_server::http::{read_request, HttpReader, Limits};
use goalrec_server::{router, AppState, ServeCtx, ServerConfig, WorkerArena, STRATEGY_NAMES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// Every (strategy, k, |H|) case with its request bytes.
fn cases() -> Vec<(&'static str, usize, usize, Vec<u8>)> {
    STRATEGY_NAMES
        .iter()
        .flat_map(|&s| {
            [1, 10, 100]
                .into_iter()
                .flat_map(move |k| [1, 4, 16, 64].map(|h| (s, k, h, wire(s, k, h))))
        })
        .collect()
}

/// Asserts that every case allocated the same number of times.
fn assert_constant<T: PartialEq + std::fmt::Debug>(what: &str, counts: &[T]) {
    assert!(
        counts.iter().all(|c| *c == counts[0]),
        "{what}: allocation counts vary with the case: {counts:?}"
    );
}

/// Per layer: the three calls a worker makes, driven directly. Returns
/// one request's total.
fn per_layer() -> u64 {
    let ctx = ServeCtx::fixed(AppState::new(library()).unwrap());
    let mut arena = WorkerArena::new();
    let cases = cases();
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
    let (_, handle, write) = counts[0];
    assert!(handle <= 2, "handle allocated {handle} times");
    assert!(write <= 1, "write_to allocated {write} times");
    assert_constant("per layer", &counts);
    counts[0].0 + handle + write
}

/// A keep-alive loopback client whose round trips allocate nothing.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Sends one request and reads its whole response into `buf`;
    /// returns the status code.
    fn round_trip(&mut self, request: &[u8]) -> u16 {
        self.stream.write_all(request).unwrap();
        let mut filled = 0;
        loop {
            let n = self.stream.read(&mut self.buf[filled..]).unwrap();
            assert!(n > 0, "the server closed the keep-alive connection");
            filled += n;
            let got = &self.buf[..filled];
            let Some(head) = got.windows(4).position(|w| w == b"\r\n\r\n") else {
                continue;
            };
            if filled == head + 4 + content_length(&got[..head]) {
                return got[9..12]
                    .iter()
                    .fold(0, |acc, &d| acc * 10 + u16::from(d - b'0'));
            }
        }
    }
}

/// The `content-length` of a response head, parsed without allocating.
fn content_length(head: &[u8]) -> usize {
    const NAME: &[u8] = b"content-length: ";
    head.split(|&b| b == b'\n')
        .find_map(|line| line.strip_prefix(NAME))
        .expect("the response carries a content-length")
        .iter()
        .take_while(|d| d.is_ascii_digit())
        .fold(0, |acc, &d| acc * 10 + usize::from(d - b'0'))
}

/// End to end: warm recommends through a server started in-process,
/// each counted from just before its request is sent until the worker
/// has finished the request's epilogue (the `server.inflight` gauge
/// drops back to zero after the trace is offered and the slot freed).
/// The gauge and the counter are both `Relaxed` atomics, so this relies
/// on x86-64's store order; a stale count would show as a varying count.
fn through_worker_loop(trace_enabled: bool) -> u64 {
    let config = ServerConfig {
        port: 0,
        workers: 1,
        trace_enabled,
        trace_sample_every: 1,
        ..ServerConfig::default()
    };
    let server = goalrec_server::start(library(), config).unwrap();
    let inflight = goalrec_obs::gauge(goalrec_obs::names::SERVER_INFLIGHT);
    let mut client = Client {
        stream: TcpStream::connect(server.local_addr()).unwrap(),
        buf: vec![0; 1 << 20],
    };
    client.stream.set_nodelay(true).unwrap();
    let cases = cases();
    let mut counts = Vec::with_capacity(cases.len());
    // Warm-up pass, then the counted pass.
    for counted in [false, true] {
        for (_, _, _, request) in &cases {
            let before = allocations();
            assert_eq!(client.round_trip(request), 200);
            while inflight.get() != 0.0 {
                std::thread::yield_now();
            }
            if counted {
                counts.push(allocations() - before);
            }
        }
    }
    drop(client);
    server.shutdown();
    for ((strategy, k, h, _), n) in cases.iter().zip(&counts) {
        println!("worker loop (traced: {trace_enabled}) {strategy} k={k} |H|={h}: {n}");
    }
    assert_constant("worker loop", &counts);
    counts[0]
}

#[test]
fn a_warm_recommend_allocates_a_constant_few_times() {
    let layers = per_layer();
    let untraced = through_worker_loop(false);
    let traced = through_worker_loop(true);
    println!("worker loop: {untraced} untraced, {traced} traced");
    // The pool's own per-request code adds nothing to the three layers;
    // tracing adds the id's hex string and the response's header vector.
    assert_eq!(untraced, layers, "the worker loop allocates on its own");
    assert!(
        (untraced..=untraced + 2).contains(&traced),
        "a traced request allocates {traced} times, untraced {untraced}"
    );
}
