//! The open-loop load generator.
//!
//! Two threads drive at most two keep-alive connections. The *sender*
//! sleeps until each operation is due, then hands every operation due by
//! then to its connection in one write; it never waits for a response, so
//! requests pipeline and a stalled server builds a visible backlog instead
//! of slowing the schedule (no coordinated omission). The *receiver* polls
//! the connections, matches responses to operations in send order, and
//! declares an operation timed out once its client timeout has passed.
//!
//! Every time is an offset from the phase start, and latency is measured
//! from the operation's **due** time, so the generator's own lateness and
//! any backpressure count against the server's latency. Every operation
//! the sender attempts ends in exactly one [`Outcome`].

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One operation of a phase.
#[derive(Debug, Clone)]
pub struct Op<'a> {
    /// Connection index (`0` = data plane, `1` = admin).
    pub conn: usize,
    /// Due time, as an offset from the phase start.
    pub due: Duration,
    /// The full request bytes.
    pub bytes: &'a [u8],
    /// Client timeout, counted from `due`.
    pub timeout: Duration,
    /// Keep the response body for an output check.
    pub keep_body: bool,
}

/// Where one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered `200`.
    Ok,
    /// Answered with another status.
    Status(u16),
    /// No answer within the client timeout.
    Timeout,
    /// The connection failed before an answer arrived.
    Transport,
}

/// What happened to one attempted operation. Times are offsets from the
/// phase start.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index of the operation in the phase's op list.
    pub op: usize,
    /// When it was due.
    pub due: Duration,
    /// When the sender picked it up (`>= due`).
    pub picked: Duration,
    /// When its last byte reached the kernel (`None`: never fully sent).
    pub sent: Option<Duration>,
    /// When it was resolved: the answer's arrival, or the moment the
    /// receiver gave up on it.
    pub done: Duration,
    /// The outcome.
    pub outcome: Outcome,
}

impl Record {
    /// Latency from the due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }
}

/// The result of one phase.
pub struct PhaseRun {
    /// One record per attempted operation, in op order.
    pub records: Vec<Record>,
    /// Kept response bodies, by op index.
    pub bodies: Vec<(usize, Vec<u8>)>,
    /// Wall time from the phase start to the last resolution.
    pub elapsed: Duration,
}

impl PhaseRun {
    /// The generator's own p99s, in ms: lateness (pick − due: how far
    /// behind its schedule the sender ran) and send wait (sent − pick:
    /// how long the bytes queued behind a full socket).
    pub fn generator_p99_ms(&self) -> (f64, f64) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let late = crate::stats::sorted(
            self.records
                .iter()
                .map(|r| ms(r.picked.saturating_sub(r.due))),
        );
        let wait = crate::stats::sorted(
            self.records
                .iter()
                .filter_map(|r| r.sent.map(|s| ms(s.saturating_sub(r.picked)))),
        );
        (
            crate::stats::percentile(&late, 0.99),
            crate::stats::percentile(&wait, 0.99),
        )
    }
}

const PENDING: u32 = 0;
const OK: u32 = 1;
const TIMEOUT: u32 = 2;
const TRANSPORT: u32 = 3;
/// Non-200 statuses are stored as `STATUS_BASE + status`.
const STATUS_BASE: u32 = 1_000;
const NOT_YET: u64 = u64::MAX;

/// Shared per-operation state; every field is written once.
struct Slot {
    outcome: AtomicU32,
    picked_ns: AtomicU64,
    sent_ns: AtomicU64,
    done_ns: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            outcome: AtomicU32::new(PENDING),
            picked_ns: AtomicU64::new(NOT_YET),
            sent_ns: AtomicU64::new(NOT_YET),
            done_ns: AtomicU64::new(NOT_YET),
        }
    }

    /// Resolves the slot unless it already is; returns whether this call
    /// did it.
    fn resolve(&self, code: u32, at_ns: u64) -> bool {
        // ordering: the winner's done_ns store is published to the
        // collector through the thread join, not through this flag.
        let won = self
            .outcome
            .compare_exchange(PENDING, code, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if won {
            self.done_ns.store(at_ns, Ordering::SeqCst);
        }
        won
    }
}

/// Runs one phase: opens `num_conns` fresh connections to `addr`, replays
/// `ops` (sorted by due time) open-loop, and waits until every attempted
/// operation resolved. Connections are closed on return.
pub fn run_phase(addr: SocketAddr, num_conns: usize, ops: &[Op<'_>]) -> Result<PhaseRun, String> {
    if ops.windows(2).any(|w| w[1].due < w[0].due) {
        return Err("phase operations must be sorted by due time".to_owned());
    }
    if ops.iter().any(|op| op.conn >= num_conns) {
        return Err("operation names a connection the phase does not open".to_owned());
    }
    let conns: Vec<TcpStream> = (0..num_conns)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect::<Result<_, String>>()?;
    let slots: Vec<Slot> = ops.iter().map(|_| Slot::new()).collect();
    // Per connection: op indices in send order, and how many of them the
    // sender has attempted so far.
    let lanes: Vec<Vec<usize>> = (0..num_conns)
        .map(|c| (0..ops.len()).filter(|&i| ops[i].conn == c).collect())
        .collect();
    let attempted: Vec<AtomicUsize> = (0..num_conns).map(|_| AtomicUsize::new(0)).collect();
    let sender_done = AtomicBool::new(false);
    let receiver_done = AtomicBool::new(false);
    let start = Instant::now();
    let ns = |t: Instant| u64::try_from(t.saturating_duration_since(start).as_nanos()).unwrap_or(0);

    let bodies = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            send_loop(
                &conns,
                ops,
                &slots,
                &lanes,
                &attempted,
                &receiver_done,
                start,
            );
            sender_done.store(true, Ordering::SeqCst);
        });
        let bodies = receive_loop(
            &conns,
            ops,
            &slots,
            &lanes,
            &attempted,
            &sender_done,
            start,
            &ns,
        );
        receiver_done.store(true, Ordering::SeqCst);
        let joined = sender.join();
        joined.map(|()| bodies)
    })
    .map_err(|_| "the sender thread panicked".to_owned())?;
    let elapsed = start.elapsed();
    drop(conns);

    let mut records = Vec::with_capacity(ops.len());
    for (i, (op, slot)) in ops.iter().zip(&slots).enumerate() {
        let picked = slot.picked_ns.load(Ordering::SeqCst);
        if picked == NOT_YET {
            return Err(format!("operation {i} was never sent"));
        }
        let outcome = match slot.outcome.load(Ordering::SeqCst) {
            OK => Outcome::Ok,
            TIMEOUT => Outcome::Timeout,
            TRANSPORT => Outcome::Transport,
            code if code > STATUS_BASE => {
                Outcome::Status(u16::try_from(code - STATUS_BASE).unwrap_or(0))
            }
            _ => return Err(format!("operation {i} was attempted but never resolved")),
        };
        let sent = slot.sent_ns.load(Ordering::SeqCst);
        records.push(Record {
            op: i,
            due: op.due,
            picked: Duration::from_nanos(picked),
            sent: (sent != NOT_YET).then(|| Duration::from_nanos(sent)),
            done: Duration::from_nanos(slot.done_ns.load(Ordering::SeqCst)),
            outcome,
        });
    }
    Ok(PhaseRun {
        records,
        bodies,
        elapsed,
    })
}

/// Bytes queued on one connection but not yet accepted by the kernel.
struct Outbox {
    buf: Vec<u8>,
    /// Offset of the first unsent byte in `buf`.
    head: usize,
    /// `(op index, end offset in buf)` of queued operations not fully sent.
    ends: std::collections::VecDeque<(usize, usize)>,
    dead: bool,
}

#[allow(clippy::too_many_arguments)]
fn send_loop(
    conns: &[TcpStream],
    ops: &[Op<'_>],
    slots: &[Slot],
    lanes: &[Vec<usize>],
    attempted: &[AtomicUsize],
    receiver_done: &AtomicBool,
    start: Instant,
) {
    set_fine_timer_slack();
    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    let mut boxes: Vec<Outbox> = conns
        .iter()
        .map(|_| Outbox {
            buf: Vec::with_capacity(64 * 1024),
            head: 0,
            ends: std::collections::VecDeque::new(),
            dead: false,
        })
        .collect();
    let mut next = 0usize;
    let mut lane_pos = vec![0usize; conns.len()];
    loop {
        if receiver_done.load(Ordering::SeqCst) {
            break;
        }
        let now = start.elapsed();
        {
            while next < ops.len() && ops[next].due <= now {
                let op = &ops[next];
                let c = op.conn;
                slots[next].picked_ns.store(ns(now), Ordering::SeqCst);
                let ob = &mut boxes[c];
                if ob.dead {
                    slots[next].resolve(TRANSPORT, ns(now));
                } else {
                    ob.buf.extend_from_slice(op.bytes);
                    ob.ends.push_back((next, ob.buf.len()));
                }
                debug_assert_eq!(lanes[c][lane_pos[c]], next);
                lane_pos[c] += 1;
                attempted[c].store(lane_pos[c], Ordering::SeqCst);
                next += 1;
            }
        }
        let mut backlog = false;
        for (c, ob) in boxes.iter_mut().enumerate() {
            flush(&conns[c], ob, slots, start);
            backlog |= !ob.ends.is_empty();
        }
        let queued_all = next == ops.len();
        if queued_all && !backlog {
            break;
        }
        // Sleep to the next due time; with bytes stuck behind a full
        // socket buffer, retry the flush every millisecond instead.
        let now = start.elapsed();
        let mut wake = if queued_all {
            now + Duration::from_millis(1)
        } else {
            ops[next].due
        };
        if backlog {
            wake = wake.min(now + Duration::from_millis(1));
        }
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
}

/// Writes as much of the outbox as the kernel takes without blocking and
/// stamps every operation whose last byte went out.
fn flush(conn: &TcpStream, ob: &mut Outbox, slots: &[Slot], start: Instant) {
    let ns = || u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    while ob.head < ob.buf.len() && !ob.dead {
        match (&*conn).write(&ob.buf[ob.head..]) {
            Ok(0) => ob.dead = true,
            Ok(n) => ob.head += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => ob.dead = true,
        }
    }
    let now = ns();
    while let Some(&(op, end)) = ob.ends.front() {
        if end <= ob.head {
            slots[op].sent_ns.store(now, Ordering::SeqCst);
            ob.ends.pop_front();
        } else if ob.dead {
            slots[op].resolve(TRANSPORT, now);
            ob.ends.pop_front();
        } else {
            break;
        }
    }
    if ob.head == ob.buf.len() {
        ob.buf.clear();
        ob.head = 0;
        let _ = (&*conn).flush();
    }
}

/// Per-connection receive state.
struct Inbox {
    buf: Vec<u8>,
    /// Position in the connection's lane of the next expected response.
    cursor: usize,
    /// Lane position of the oldest operation not yet resolved.
    oldest: usize,
    closed: bool,
}

#[allow(clippy::too_many_arguments)]
fn receive_loop(
    conns: &[TcpStream],
    ops: &[Op<'_>],
    slots: &[Slot],
    lanes: &[Vec<usize>],
    attempted: &[AtomicUsize],
    sender_done: &AtomicBool,
    start: Instant,
    ns: &dyn Fn(Instant) -> u64,
) -> Vec<(usize, Vec<u8>)> {
    let mut boxes: Vec<Inbox> = conns
        .iter()
        .map(|_| Inbox {
            buf: Vec::with_capacity(64 * 1024),
            cursor: 0,
            oldest: 0,
            closed: false,
        })
        .collect();
    let mut bodies = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        // Every operation queued counts as sent here: bytes stuck behind a
        // server that stopped reading must not keep the phase open once
        // their operations timed out.
        let finished_sending = sender_done.load(Ordering::SeqCst)
            || lanes
                .iter()
                .zip(attempted)
                .all(|(lane, a)| a.load(Ordering::SeqCst) == lane.len());
        let now = start.elapsed();
        let now_ns = u64::try_from(now.as_nanos()).unwrap_or(u64::MAX);
        // Expire overdue operations and advance each lane's `oldest`.
        let mut next_deadline: Option<Duration> = None;
        let mut unresolved = 0usize;
        for (c, ib) in boxes.iter_mut().enumerate() {
            let sent = attempted[c].load(Ordering::SeqCst);
            let lane = &lanes[c];
            let mut pos = ib.oldest;
            while pos < sent {
                let op = lane[pos];
                if slots[op].outcome.load(Ordering::SeqCst) != PENDING {
                    if pos == ib.oldest {
                        ib.oldest += 1;
                    }
                    pos += 1;
                    continue;
                }
                let deadline = ops[op].due + ops[op].timeout;
                if ib.closed {
                    // Sent after the connection died: no answer can come.
                    slots[op].resolve(TRANSPORT, now_ns);
                    if pos == ib.oldest {
                        ib.oldest += 1;
                    }
                } else if deadline <= now {
                    slots[op].resolve(TIMEOUT, now_ns);
                    if pos == ib.oldest {
                        ib.oldest += 1;
                    }
                } else {
                    unresolved += 1;
                    next_deadline = Some(next_deadline.map_or(deadline, |d| d.min(deadline)));
                }
                pos += 1;
            }
        }
        if finished_sending && unresolved == 0 && all_attempted_resolved(&boxes, attempted) {
            break;
        }
        // Wait for readable connections, at most until the next deadline.
        let wait = next_deadline
            .map(|d| d.saturating_sub(start.elapsed()))
            .unwrap_or(Duration::from_millis(5))
            .min(Duration::from_millis(5));
        let open: Vec<usize> = (0..conns.len()).filter(|&c| !boxes[c].closed).collect();
        let ready = poll_readable(conns, &open, wait);
        for c in ready {
            let ib = &mut boxes[c];
            let got = (&conns[c]).read(&mut chunk);
            let at = ns(Instant::now());
            match got {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Ok(0) | Err(_) => {
                    ib.closed = true;
                    // Everything still in flight on this connection is
                    // lost with it.
                    let sent = attempted[c].load(Ordering::SeqCst);
                    for &op in &lanes[c][ib.cursor.min(sent)..sent] {
                        slots[op].resolve(TRANSPORT, at);
                    }
                    ib.cursor = sent;
                }
                Ok(n) => {
                    ib.buf.extend_from_slice(&chunk[..n]);
                    let mut consumed = 0;
                    while let Some((status, body, len)) = parse_response(&ib.buf[consumed..]) {
                        consumed += len;
                        let Some(&op) = lanes[c].get(ib.cursor) else {
                            // An answer nobody asked for: the stream is
                            // out of step, so nothing on it can be trusted.
                            ib.closed = true;
                            break;
                        };
                        ib.cursor += 1;
                        let code = if status == 200 {
                            OK
                        } else {
                            STATUS_BASE + u32::from(status)
                        };
                        if slots[op].resolve(code, at) && ops[op].keep_body {
                            bodies.push((op, body.to_vec()));
                        }
                    }
                    ib.buf.drain(..consumed);
                }
            }
        }
        if boxes.iter().all(|b| b.closed) && finished_sending {
            // Nothing more can arrive; whatever is pending times out or
            // was already resolved as a transport failure.
            let at = ns(Instant::now());
            for (c, lane) in lanes.iter().enumerate() {
                let sent = attempted[c].load(Ordering::SeqCst);
                for &op in &lane[..sent] {
                    slots[op].resolve(TRANSPORT, at);
                }
            }
            break;
        }
    }
    bodies
}

fn all_attempted_resolved(boxes: &[Inbox], attempted: &[AtomicUsize]) -> bool {
    boxes
        .iter()
        .zip(attempted)
        .all(|(b, a)| b.oldest >= a.load(Ordering::SeqCst))
}

/// Parses one complete HTTP/1.1 response off the front of `buf`:
/// `(status, body, bytes consumed)`, or `None` until it is complete.
pub fn parse_response(buf: &[u8]) -> Option<(u16, &[u8], usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut len = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().ok()?;
            }
        }
    }
    let end = head_end.checked_add(len)?;
    (buf.len() >= end).then(|| (status, &buf[head_end..end], end))
}

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
    fn prctl(option: std::os::raw::c_int, arg2: std::os::raw::c_ulong, ...) -> std::os::raw::c_int;
}

const POLLIN: std::os::raw::c_short = 0x001;
const POLLERR: std::os::raw::c_short = 0x008;
const POLLHUP: std::os::raw::c_short = 0x010;
const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;

/// The connections among `open` that have data (or an error) to read,
/// waiting at most `wait`. std has no readiness API, hence `poll(2)`.
fn poll_readable(conns: &[TcpStream], open: &[usize], wait: Duration) -> Vec<usize> {
    if open.is_empty() {
        std::thread::sleep(wait);
        return Vec::new();
    }
    let mut fds: Vec<PollFd> = open
        .iter()
        .map(|&c| PollFd {
            fd: conns[c].as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // Round up so a sub-millisecond wait does not become a busy spin.
    let ms = std::os::raw::c_int::try_from(wait.as_micros().div_ceil(1_000)).unwrap_or(5);
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `pollfd`-layout structs whose descriptors stay open for the call.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, ms) };
    if n <= 0 {
        return Vec::new();
    }
    open.iter()
        .zip(&fds)
        .filter(|(_, f)| f.revents & (POLLIN | POLLERR | POLLHUP) != 0)
        .map(|(&c, _)| c)
        .collect()
}

/// Shrinks the calling thread's timer slack to 1 ns so the sender wakes
/// close to each due time instead of up to 50 µs late. Best effort.
fn set_fine_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's scheduling attributes.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_pipelined_responses() {
        let two = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nhiHTTP/1.1 408 Request Timeout\r\ncontent-length: 0\r\n\r\n";
        let (s, body, n) = parse_response(two).unwrap();
        assert_eq!((s, body), (200, &b"hi"[..]));
        let (s, body, m) = parse_response(&two[n..]).unwrap();
        assert_eq!((s, body.len()), (408, 0));
        assert_eq!(n + m, two.len());
        assert!(parse_response(&two[..n - 1]).is_none());
    }

    /// A fake server that reads nothing for `stall`, then answers every
    /// request it reads with an empty `200`.
    fn stalled_server(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            std::thread::sleep(stall);
            stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let mut buf = vec![0u8; 1 << 16];
            // Each request is answered once its whole body is read: the
            // head so far, and the body bytes still to come.
            let (mut head, mut body_left) = (Vec::new(), 0usize);
            loop {
                let n = match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                let mut i = 0;
                while i < n {
                    if body_left > 0 {
                        let take = body_left.min(n - i);
                        body_left -= take;
                        i += take;
                    } else {
                        head.push(buf[i]);
                        i += 1;
                        if !head.ends_with(b"\r\n\r\n") {
                            continue;
                        }
                        body_left = String::from_utf8_lossy(&head)
                            .lines()
                            .find_map(|l| l.strip_prefix("content-length: "))
                            .map_or(0, |v| v.trim().parse().unwrap());
                        head.clear();
                    }
                    if body_left == 0 && head.is_empty() {
                        stream
                            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n")
                            .unwrap();
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_counts_from_the_due_time_through_a_stall() {
        let (addr, server) = stalled_server(Duration::from_millis(300));
        let req = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
        let ops: Vec<Op<'_>> = (0..10)
            .map(|i| Op {
                conn: 0,
                due: Duration::from_millis(20 * i),
                bytes: req,
                timeout: Duration::from_secs(5),
                keep_body: false,
            })
            .collect();
        let run = run_phase(addr, 1, &ops).unwrap();
        server.join().unwrap();
        assert_eq!(run.records.len(), 10);
        assert!(run.records.iter().all(|r| r.outcome == Outcome::Ok));
        // Every answer arrives after the 300 ms stall, so each latency is
        // at least the stall minus the op's own due offset: nothing is
        // timed from the send or from the previous answer.
        for r in &run.records {
            let floor = Duration::from_millis(300).saturating_sub(r.due);
            assert!(r.latency() + Duration::from_millis(5) >= floor, "{r:?}");
        }
        // The sender was not held back by the stall: it picked every op
        // up close to its due time.
        let late = run
            .records
            .iter()
            .map(|r| r.picked.saturating_sub(r.due))
            .max()
            .unwrap();
        assert!(
            late < Duration::from_millis(100),
            "sender lateness {late:?}"
        );
    }

    #[test]
    fn a_silent_server_times_every_op_out_from_its_due_time() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let req = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
        let ops: Vec<Op<'_>> = (0..3)
            .map(|i| Op {
                conn: 0,
                due: Duration::from_millis(30 * i),
                bytes: req,
                timeout: Duration::from_millis(100),
                keep_body: false,
            })
            .collect();
        let run = run_phase(addr, 1, &ops).unwrap();
        drop(listener);
        assert_eq!(run.records.len(), 3);
        for r in &run.records {
            assert_eq!(r.outcome, Outcome::Timeout);
            assert!(r.latency() >= Duration::from_millis(100));
            assert!(r.latency() < Duration::from_millis(150), "{r:?}");
        }
    }

    #[test]
    fn a_server_that_never_reads_still_ends_the_phase_at_the_timeouts() {
        // The listener never accepts, so nothing is read and most of these
        // bytes can never leave the outbox; the phase must still end once
        // every operation has timed out.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let req = vec![b'x'; 16 << 20];
        let ops: Vec<Op<'_>> = (0..3)
            .map(|i| Op {
                conn: 0,
                due: Duration::from_millis(10 * i),
                bytes: &req,
                timeout: Duration::from_millis(200),
                keep_body: false,
            })
            .collect();
        let t0 = Instant::now();
        let run = run_phase(addr, 1, &ops).unwrap();
        drop(listener);
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        assert!(run.records.iter().all(|r| r.outcome == Outcome::Timeout));
        assert!(run.records.iter().any(|r| r.sent.is_none()));
    }

    #[test]
    fn a_stalled_server_makes_sends_wait_and_the_wait_is_reported() {
        // Requests far larger than the socket buffers: while the server
        // reads nothing, the sender cannot hand them over, and each
        // record shows how long its bytes waited (sent − picked) on top
        // of when the generator picked it up (picked − due).
        let (addr, server) = stalled_server(Duration::from_millis(300));
        let body = vec![b'x'; 4 << 20];
        let mut req = format!(
            "POST /x HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(&body);
        let ops: Vec<Op<'_>> = (0..4)
            .map(|i| Op {
                conn: 0,
                due: Duration::from_millis(10 * i),
                bytes: &req,
                timeout: Duration::from_secs(5),
                keep_body: false,
            })
            .collect();
        let run = run_phase(addr, 1, &ops).unwrap();
        server.join().unwrap();
        assert!(run.records.iter().all(|r| r.outcome == Outcome::Ok));
        assert!(run.records.iter().all(|r| r.picked >= r.due));
        let waited = run
            .records
            .iter()
            .map(|r| r.sent.unwrap().saturating_sub(r.picked))
            .max()
            .unwrap();
        assert!(waited >= Duration::from_millis(200), "send wait {waited:?}");
        for r in &run.records {
            assert!(r.latency() + r.due >= Duration::from_millis(300), "{r:?}");
        }
    }
}
