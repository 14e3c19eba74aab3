//! Spawning, probing and stopping the release `goalrec-serve` binary.
//!
//! Every server starts in a fresh directory holding a fresh copy of the
//! library, so no WAL or compacted file can leak from one server into the
//! next; the directory is checked before the spawn and removed after the
//! stop.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workers the benchmark runs the server with. The box has two cores:
/// one serves, the other drives load.
pub const WORKERS: usize = 1;
/// How long a server may take from spawn to its first healthy answer.
const SETUP_LIMIT: Duration = Duration::from_secs(60);
/// How long a stopping server may take to drain and exit.
const STOP_LIMIT: Duration = Duration::from_secs(10);

/// A running server. Dropping it kills the process and waits for it.
pub struct Server {
    child: Option<Child>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Spawn to first `/healthz` 200.
    pub setup: Duration,
    dir: PathBuf,
}

impl Server {
    /// Copies `library` into the new directory `dir`, checks that nothing
    /// else is there, starts the server on it (pinned to `cpu`, when
    /// given) and waits for `/healthz`.
    pub fn start(
        binary: &Path,
        library: &Path,
        dir: &Path,
        cpu: Option<usize>,
    ) -> Result<Server, String> {
        std::fs::create_dir(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let name = library
            .file_name()
            .ok_or_else(|| format!("{} has no file name", library.display()))?;
        let copy = dir.join(name);
        std::fs::copy(library, &copy).map_err(|e| format!("copy library: {e}"))?;
        // The copy goes to disk now, not with the server's first WAL
        // fsync, which would then pay for writing the whole library.
        std::fs::File::open(&copy)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync library copy: {e}"))?;
        assert_only(dir, &[copy.as_path()])?;
        let port = free_port()?;
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let log = |n: &str| {
            std::fs::File::create(dir.join(n)).map_err(|e| format!("create server log: {e}"))
        };
        let (out, err) = (log("stdout.log")?, log("stderr.log")?);
        let mut cmd = Command::new(binary);
        cmd.arg("--library")
            .arg(&copy)
            .args(["--port", &port.to_string()])
            .args(["--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err);
        if let Some(cpu) = cpu {
            let mask = cpu_mask(cpu);
            // SAFETY: the closure runs in the forked child before exec and
            // makes one async-signal-safe system call on a mask it owns.
            unsafe {
                cmd.pre_exec(move || {
                    if sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) != 0 {
                        return Err(std::io::Error::last_os_error());
                    }
                    Ok(())
                });
            }
        }
        let t0 = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut server = Server {
            child: Some(child),
            addr,
            setup: Duration::ZERO,
            dir: dir.to_path_buf(),
        };
        loop {
            if let Ok((200, _)) = get(addr, "/healthz", Duration::from_millis(500)) {
                server.setup = t0.elapsed();
                return Ok(server);
            }
            if let Some(child) = server.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!(
                        "server exited during setup ({status}): {}",
                        server.stderr_tail()
                    ));
                }
            }
            if t0.elapsed() > SETUP_LIMIT {
                return Err("server did not become healthy within 60 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The process's peak resident set (`VmHWM`), in bytes.
    pub fn peak_rss_bytes(&self) -> Result<u64, String> {
        let pid = self
            .child
            .as_ref()
            .map(Child::id)
            .ok_or("server already stopped")?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| "no VmHWM in /proc status".to_owned())
    }

    /// Sends SIGTERM, waits for the drain, and removes the directory.
    /// Fails if the server does not exit cleanly in time.
    pub fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().ok_or("server already stopped")?;
        terminate(&child);
        let t0 = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if t0.elapsed() < STOP_LIMIT => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not drain within 10 s of SIGTERM".to_owned());
                }
            }
        };
        if !status.success() {
            return Err(format!(
                "server exited with {status}: {}",
                self.stderr_tail()
            ));
        }
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("remove server dir: {e}"))
    }

    fn stderr_tail(&self) -> String {
        let text = std::fs::read_to_string(self.dir.join("stderr.log")).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Fails unless `dir` holds exactly the files in `expected`: a leftover
/// `.wal` or compacted file from an earlier run would change what the
/// server boots into.
pub fn assert_only(dir: &Path, expected: &[&Path]) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if !expected.contains(&path.as_path()) {
            return Err(format!(
                "stale file {} in a fresh server directory",
                path.display()
            ));
        }
    }
    Ok(())
}

/// An ephemeral loopback port that was free a moment ago.
fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind probe: {e}"))?;
    l.local_addr().map(|a| a.port()).map_err(|e| e.to_string())
}

extern "C" {
    fn kill(pid: std::os::raw::c_int, sig: std::os::raw::c_int) -> std::os::raw::c_int;
    fn sched_setaffinity(
        pid: std::os::raw::c_int,
        size: usize,
        mask: *const u64,
    ) -> std::os::raw::c_int;
    fn sched_getaffinity(
        pid: std::os::raw::c_int,
        size: usize,
        mask: *mut u64,
    ) -> std::os::raw::c_int;
    fn sched_setscheduler(
        pid: std::os::raw::c_int,
        policy: std::os::raw::c_int,
        param: *const SchedParam,
    ) -> std::os::raw::c_int;
}

/// `struct sched_param`.
#[repr(C)]
struct SchedParam {
    sched_priority: std::os::raw::c_int,
}

const SCHED_IDLE: std::os::raw::c_int = 5;

/// A `cpu_set_t` (1 024 CPUs) holding `cpu` alone.
fn cpu_mask(cpu: usize) -> [u64; 16] {
    let mut mask = [0u64; 16];
    if cpu < 1024 {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: the kernel writes at most `size` bytes into `mask`, which
    // is exactly that large and exclusively borrowed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Pins the calling thread (and every thread it spawns later) to `cpu`.
pub fn pin_current_thread(cpu: usize) -> Result<(), String> {
    let mask = cpu_mask(cpu);
    // SAFETY: reads `size` bytes from a live mask; pid 0 is this thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "pin to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Threads that keep CPUs busy at the lowest priority while a run lasts.
/// A virtual CPU that halts when idle has to be woken through the host
/// for every request that reaches it, and on a shared machine that
/// wake-up swings with the host's load. A `SCHED_IDLE` thread runs only
/// when nothing else on its CPU can, so the CPU never halts and the
/// server and the generator still get it whenever they are runnable.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl IdleSpinners {
    /// One spinner on each of `cpus`. A thread that cannot pin itself or
    /// lower its own priority does not spin.
    pub fn start(cpus: &[usize]) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let (stop, active) = (Arc::clone(&stop), Arc::clone(&active));
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: reads one live `sched_param`; pid 0 is this
                    // thread.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    if pin_current_thread(cpu).is_err() || !idle {
                        return;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        IdleSpinners {
            stop,
            active,
            threads,
        }
    }

    /// How many spinners are spinning.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

const SIGTERM: std::os::raw::c_int = 15;

fn terminate(child: &Child) {
    if let Ok(pid) = std::os::raw::c_int::try_from(child.id()) {
        // SAFETY: kill(2) takes two integers and has no memory effects;
        // the pid is our own unreaped child, so it cannot name a stranger.
        unsafe {
            kill(pid, SIGTERM);
        }
    }
}

/// One request on a fresh connection: `(status, body)`.
pub fn request(addr: SocketAddr, raw: &[u8], timeout: Duration) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect_timeout(&addr, timeout).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.write_all(raw).map_err(|e| e.to_string())?;
    read_one(&mut s)
}

/// Reads one response off a blocking stream.
pub fn read_one(s: &mut TcpStream) -> Result<(u16, Vec<u8>), String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some((status, body, _)) = crate::loadgen::parse_response(&buf) {
            return Ok((status, body.to_vec()));
        }
        let n = s.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed before a full response".to_owned());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// `GET path` with `Connection: close`.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<(u16, Vec<u8>), String> {
    let raw = format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\n\r\n");
    request(addr, raw.as_bytes(), timeout)
}
