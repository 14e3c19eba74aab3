//! A closed-loop keep-alive load harness over an in-process server: a
//! synthetic library, a server config, and recommend clients that tally
//! every outcome. Shared by the chaos test and the bench crate's guard
//! rails.

use goalrec_core::LibraryBuilder;
use goalrec_server::ServerConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A synthetic goal library: `goals` implementations of `impl_len`
/// actions each over an `actions`-word vocabulary.
pub fn synthetic_library_sized(
    goals: u64,
    actions: u64,
    impl_len: usize,
) -> goalrec_core::GoalLibrary {
    let mut builder = LibraryBuilder::new();
    let mut seed = 0x9e37_79b9_u64;
    let mut next = move |m: u64| {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) % m
    };
    for g in 0..goals {
        let names: Vec<String> = (0..impl_len)
            .map(|_| format!("action-{}", next(actions)))
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        builder
            .add_impl(&format!("goal-{g}"), refs)
            .expect("synthetic library");
    }
    builder.build().expect("synthetic library")
}

/// The serving-phase library: big enough to make ranking do real work —
/// 200 goals over a 300-action vocabulary, 6 actions per implementation.
pub fn synthetic_library() -> goalrec_core::GoalLibrary {
    synthetic_library_sized(200, 300, 6)
}

pub fn config(workers: usize, queue_depth: usize) -> ServerConfig {
    ServerConfig {
        port: 0,
        workers,
        queue_depth,
        deadline: Duration::from_millis(1000),
        idle_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

const RECOMMEND_BODY: &str = r#"{"activity": [1, 2, 3, 4], "strategy": "breadth", "k": 10}"#;

fn recommend_request() -> Vec<u8> {
    format!(
        "POST /v1/recommend HTTP/1.1\r\nhost: load\r\ncontent-length: {}\r\n\
         connection: keep-alive\r\n\r\n{RECOMMEND_BODY}",
        RECOMMEND_BODY.len(),
    )
    .into_bytes()
}

/// Reads one response off `stream`; returns its status code.
fn read_status(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<u16> {
    buf.clear();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(std::io::ErrorKind::InvalidData)?;
    let len: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(n, _)| n.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let mut have = buf.len() - header_end;
    while have < len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        have += n;
    }
    Ok(status)
}

/// Per-outcome request counts of one or more keep-alive clients.
#[derive(Default)]
pub struct ClientTally {
    pub ok: u64,
    pub rejected: u64,
    pub other: u64,
    pub errors: u64,
}

/// One keep-alive client: a single connection reused for every request.
fn keep_alive_client(addr: SocketAddr, stop: Arc<AtomicBool>) -> ClientTally {
    let mut tally = ClientTally::default();
    let request = recommend_request();
    let mut buf = Vec::with_capacity(8192);
    // ordering: Relaxed — `stop` only quiesces the request loop; the
    // tallies are handed back through thread join, which synchronizes.
    'reconnect: while !stop.load(Ordering::Relaxed) {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            tally.errors += 1;
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        // ordering: as above
        while !stop.load(Ordering::Relaxed) {
            if stream.write_all(&request).is_err() {
                tally.errors += 1;
                continue 'reconnect;
            }
            match read_status(&mut stream, &mut buf) {
                Ok(200) => tally.ok += 1,
                Ok(503) => {
                    tally.rejected += 1;
                    continue 'reconnect; // 503s close the connection
                }
                Ok(_) => {
                    tally.other += 1;
                    continue 'reconnect;
                }
                Err(_) => {
                    tally.errors += 1;
                    continue 'reconnect;
                }
            }
        }
        break;
    }
    tally
}

/// Starts `n` keep-alive clients against `addr`; they run until `stop`.
pub fn spawn_clients(
    addr: SocketAddr,
    n: usize,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<ClientTally>> {
    (0..n)
        .map(|_| {
            let stop = Arc::clone(stop);
            std::thread::spawn(move || keep_alive_client(addr, stop))
        })
        .collect()
}

/// Stops the clients and returns their merged tally.
pub fn stop_clients(
    stop: &AtomicBool,
    clients: Vec<std::thread::JoinHandle<ClientTally>>,
) -> ClientTally {
    // ordering: Relaxed — quiesce signal only; the join below is the
    // synchronization point for the tallies.
    stop.store(true, Ordering::Relaxed);
    let mut merged = ClientTally::default();
    for c in clients {
        let tally = c.join().expect("client thread");
        merged.ok += tally.ok;
        merged.rejected += tally.rejected;
        merged.other += tally.other;
        merged.errors += tally.errors;
    }
    merged
}
