//! The runtime half: [`Read`]/[`Write`] wrappers that execute a
//! [`FaultPlan`], and the process-global switch that arms one.
//!
//! The default is zero-cost: with no plan armed, [`read_wrap`] and
//! [`write_wrap`] return passthrough wrappers whose per-call overhead is a
//! single `Option` check; arming is a relaxed atomic load away. Plans are
//! armed process-globally (not thread-locally) because the interesting
//! victims — a server's reload path, a writer on another thread — do their
//! IO far from the thread that scheduled the chaos.

use crate::plan::{FaultKind, FaultPlan, Trigger};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Arms `plan` for every subsequently wrapped stream whose path matches
/// its filter. Replaces any previously armed plan.
pub fn arm(plan: FaultPlan) {
    let mut slot = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(plan);
    // ordering: Release pairs with the Acquire load in plan_for; the PLAN
    // mutex separately synchronizes the plan contents, so the flag only
    // needs to order itself after the install above.
    ARMED.store(true, Ordering::Release);
}

/// Disarms fault injection; wrapping returns to plain passthrough.
pub fn disarm() {
    let mut slot = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = None;
    // ordering: Release, mirroring arm — a disarm observed via Acquire
    // happens-after the plan was cleared under the mutex.
    ARMED.store(false, Ordering::Release);
}

/// Runs `f` with `plan` armed, disarming afterwards even on early return.
/// Intended for tests; real chaos drivers arm/disarm explicitly.
pub fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            disarm();
        }
    }
    arm(plan);
    let _guard = Disarm;
    f()
}

/// The armed plan, if one exists and matches `path`.
fn plan_for(path: &Path) -> Option<FaultPlan> {
    // ordering: Acquire pairs with the Release store in arm — the fast
    // path skips the mutex entirely, so the flag carries the ordering.
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    let slot = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    let plan = slot.as_ref()?;
    let text = path.to_string_lossy();
    plan.matches(&text).then(|| plan.clone())
}

/// Per-stream execution state of one plan.
struct StreamFaults {
    events: Vec<(crate::plan::FaultEvent, bool)>,
    read_bytes: u64,
    read_ops: u64,
    write_bytes: u64,
    write_ops: u64,
}

impl StreamFaults {
    fn new(plan: FaultPlan) -> Self {
        StreamFaults {
            events: plan.events.into_iter().map(|e| (e, false)).collect(),
            read_bytes: 0,
            read_ops: 0,
            write_bytes: 0,
            write_ops: 0,
        }
    }
}

fn injected(kind: &str) -> io::Error {
    io::Error::other(format!("injected fault: {kind}"))
}

/// What the pre-call evaluation decided for this IO call.
enum Action {
    /// Proceed normally, but read/write at most this many bytes when set
    /// (used to stop exactly at a byte-offset boundary).
    Proceed(Option<u64>),
    /// Fail the call now.
    Fail(&'static str),
    /// Complete the call but hand back at most one byte.
    Short,
}

impl StreamFaults {
    /// Evaluates the read-side events for the call about to happen.
    fn before_read(&mut self) -> Action {
        self.read_ops += 1;
        let mut cap: Option<u64> = None;
        for (event, fired) in &mut self.events {
            if *fired || !event.kind.is_read_side() {
                continue;
            }
            let hit = match event.trigger {
                Trigger::OpCount(n) => self.read_ops >= n,
                Trigger::ByteOffset(off) => self.read_bytes >= off,
            };
            if hit {
                *fired = true;
                match &event.kind {
                    FaultKind::ReadError => return Action::Fail("read error"),
                    FaultKind::ShortRead => return Action::Short,
                    FaultKind::Stall(d) => std::thread::sleep(*d),
                    // Write-side kinds are filtered out above.
                    FaultKind::WriteError | FaultKind::TornWrite => {}
                }
            } else if let (Trigger::ByteOffset(off), FaultKind::ReadError) =
                (event.trigger, &event.kind)
            {
                // Stop this read exactly at the boundary so the *next*
                // call fails at the scheduled offset, byte-exactly.
                let room = off - self.read_bytes;
                cap = Some(cap.map_or(room, |c| c.min(room)));
            }
        }
        Action::Proceed(cap)
    }

    /// Evaluates the write-side events; `len` is the caller's buffer size.
    fn before_write(&mut self, len: u64) -> Action {
        self.write_ops += 1;
        let mut cap: Option<u64> = None;
        for (event, fired) in &mut self.events {
            if *fired || event.kind.is_read_side() {
                continue;
            }
            let boundary = match event.trigger {
                Trigger::OpCount(n) => {
                    if self.write_ops >= n {
                        Some(0)
                    } else {
                        None
                    }
                }
                Trigger::ByteOffset(off) => {
                    if self.write_bytes >= off {
                        Some(0)
                    } else if self.write_bytes + len > off {
                        // This call crosses the offset: a torn write
                        // persists the prefix below it, an error stops
                        // exactly at it.
                        Some(off - self.write_bytes)
                    } else {
                        None
                    }
                }
            };
            match (boundary, &event.kind) {
                (Some(0), FaultKind::WriteError | FaultKind::TornWrite) => {
                    *fired = true;
                    return Action::Fail(if matches!(event.kind, FaultKind::TornWrite) {
                        "torn write"
                    } else {
                        "write error"
                    });
                }
                (Some(keep), FaultKind::TornWrite) => {
                    // Persist the prefix this call; the next call (offset
                    // reached) fails.
                    cap = Some(cap.map_or(keep, |c| c.min(keep)));
                }
                (Some(keep), FaultKind::WriteError) => {
                    cap = Some(cap.map_or(keep, |c| c.min(keep)));
                }
                _ => {}
            }
        }
        Action::Proceed(cap)
    }
}

/// A [`Read`] wrapper executing the armed plan; passthrough when none.
pub struct FaultyRead<R> {
    inner: R,
    faults: Option<Box<StreamFaults>>,
}

impl<R: Read> Read for FaultyRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(faults) = self.faults.as_deref_mut() else {
            return self.inner.read(buf);
        };
        let n = match faults.before_read() {
            Action::Fail(kind) => return Err(injected(kind)),
            Action::Short => {
                let end = buf.len().min(1);
                self.inner.read(&mut buf[..end])?
            }
            Action::Proceed(cap) => {
                let end = match cap {
                    Some(c) => buf.len().min(usize::try_from(c).unwrap_or(usize::MAX)),
                    None => buf.len(),
                };
                if end == 0 && !buf.is_empty() {
                    // The boundary sits exactly here; deliver nothing and
                    // let the next call fire the event.
                    0
                } else {
                    self.inner.read(&mut buf[..end])?
                }
            }
        };
        faults.read_bytes += n as u64;
        Ok(n)
    }
}

/// A [`Write`] wrapper executing the armed plan; passthrough when none.
pub struct FaultyWrite<W> {
    inner: W,
    faults: Option<Box<StreamFaults>>,
}

impl<W> FaultyWrite<W> {
    /// The wrapped writer (e.g. to fsync the underlying file).
    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

impl<W: Write> Write for FaultyWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(faults) = self.faults.as_deref_mut() else {
            return self.inner.write(buf);
        };
        match faults.before_write(buf.len() as u64) {
            Action::Fail(kind) => Err(injected(kind)),
            Action::Short => {
                let n = self.inner.write(&buf[..buf.len().min(1)])?;
                faults.write_bytes += n as u64;
                Ok(n)
            }
            Action::Proceed(cap) => {
                let end = match cap {
                    Some(c) => buf.len().min(usize::try_from(c).unwrap_or(usize::MAX)),
                    None => buf.len(),
                };
                let n = self.inner.write(&buf[..end])?;
                faults.write_bytes += n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Wraps a reader opened at `path`, consulting the armed plan. With no
/// matching plan this is a plain passthrough.
pub fn read_wrap<R: Read>(path: &Path, inner: R) -> FaultyRead<R> {
    FaultyRead {
        inner,
        faults: plan_for(path).map(|p| Box::new(StreamFaults::new(p))),
    }
}

/// Wraps a writer destined for `path`, consulting the armed plan. With no
/// matching plan this is a plain passthrough.
///
/// Pass the *target* path even when physically writing a temp file, so
/// path filters describe what the caller is persisting, not the
/// implementation detail of where bytes land first.
pub fn write_wrap<W: Write>(path: &Path, inner: W) -> FaultyWrite<W> {
    FaultyWrite {
        inner,
        faults: plan_for(path).map(|p| Box::new(StreamFaults::new(p))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultKind, FaultPlan, Trigger};
    use std::time::{Duration, Instant};

    fn path() -> &'static Path {
        Path::new("/virtual/test.grlb")
    }

    /// A pseudo-random single-event plan derived from `seed`. `len_hint`
    /// bounds the byte offsets so the fault lands inside a stream of
    /// roughly that size.
    fn seeded_plan(seed: u64, len_hint: u64) -> FaultPlan {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move |m: u64| {
            // splitmix64: full-period, seed-deterministic.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % m.max(1)
        };
        let offset = next(len_hint.max(1));
        let kind = match next(5) {
            0 => FaultKind::ReadError,
            1 => FaultKind::WriteError,
            2 => FaultKind::ShortRead,
            3 => FaultKind::TornWrite,
            _ => FaultKind::Stall(Duration::from_millis(1 + next(20))),
        };
        let trigger = if next(2) == 0 {
            Trigger::ByteOffset(offset)
        } else {
            Trigger::OpCount(1 + next(8))
        };
        FaultPlan::new().with(kind, trigger)
    }

    /// Serializes tests that arm the process-global plan.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn unarmed_wrapping_is_passthrough() {
        let _g = lock();
        disarm();
        let mut r = read_wrap(path(), &b"hello"[..]);
        assert!(r.faults.is_none());
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"hello");
    }

    #[test]
    fn read_error_fires_at_exact_byte_offset() {
        let _g = lock();
        let data = [7u8; 100];
        with_plan(FaultPlan::parse("read-error@byte=40").unwrap(), || {
            let mut r = read_wrap(path(), &data[..]);
            let mut out = Vec::new();
            let err = r.read_to_end(&mut out).unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            assert_eq!(out.len(), 40, "must stop exactly at the boundary");
        });
    }

    #[test]
    fn read_error_fires_at_op_count() {
        let _g = lock();
        let data = [1u8; 64];
        with_plan(FaultPlan::parse("read-error@op=3").unwrap(), || {
            let mut r = read_wrap(path(), &data[..]);
            let mut buf = [0u8; 8];
            assert_eq!(r.read(&mut buf).unwrap(), 8);
            assert_eq!(r.read(&mut buf).unwrap(), 8);
            assert!(r.read(&mut buf).is_err());
        });
    }

    #[test]
    fn short_read_returns_one_byte_without_error() {
        let _g = lock();
        let data = [9u8; 64];
        with_plan(FaultPlan::parse("short-read@op=1").unwrap(), || {
            let mut r = read_wrap(path(), &data[..]);
            let mut buf = [0u8; 32];
            assert_eq!(r.read(&mut buf).unwrap(), 1);
            // One-shot: the next read is full-size again.
            assert_eq!(r.read(&mut buf).unwrap(), 32);
        });
    }

    #[test]
    fn stall_delays_but_succeeds() {
        let _g = lock();
        let data = [2u8; 16];
        with_plan(FaultPlan::parse("stall-30ms@op=1").unwrap(), || {
            let mut r = read_wrap(path(), &data[..]);
            let t0 = Instant::now();
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            assert_eq!(out.len(), 16);
            assert!(t0.elapsed() >= Duration::from_millis(25));
        });
    }

    #[test]
    fn torn_write_persists_exactly_the_prefix() {
        let _g = lock();
        with_plan(FaultPlan::parse("torn-write@byte=10").unwrap(), || {
            let mut sink = Vec::new();
            let mut w = write_wrap(path(), &mut sink);
            // First write crosses the boundary: the prefix lands.
            assert_eq!(w.write(&[1u8; 25]).unwrap(), 10);
            // Next write fails: the tear happened.
            assert!(w.write(&[2u8; 5]).is_err());
            drop(w);
            assert_eq!(sink, vec![1u8; 10]);
        });
    }

    #[test]
    fn write_error_fires_at_op_count() {
        let _g = lock();
        with_plan(FaultPlan::parse("write-error@op=2").unwrap(), || {
            let mut sink = Vec::new();
            let mut w = write_wrap(path(), &mut sink);
            assert_eq!(w.write(&[0u8; 4]).unwrap(), 4);
            assert!(w.write(&[0u8; 4]).is_err());
        });
    }

    #[test]
    fn path_filter_scopes_injection() {
        let _g = lock();
        with_plan(
            FaultPlan::parse("path=.grlb;read-error@op=1").unwrap(),
            || {
                let mut faulted = read_wrap(Path::new("/x/lib.grlb"), &b"abc"[..]);
                assert!(faulted.read(&mut [0u8; 4]).is_err());
                let mut clean = read_wrap(Path::new("/x/lib.jsonl"), &b"abc"[..]);
                assert_eq!(clean.read(&mut [0u8; 4]).unwrap(), 3);
            },
        );
    }

    #[test]
    fn disarm_restores_passthrough() {
        let _g = lock();
        arm(FaultPlan::parse("read-error@op=1").unwrap());
        assert!(read_wrap(path(), &b"ok"[..]).read(&mut [0u8; 4]).is_err());
        disarm();
        let mut r = read_wrap(path(), &b"ok"[..]);
        assert_eq!(r.read(&mut [0u8; 4]).unwrap(), 2);
    }

    #[test]
    fn seeded_plans_never_hang_or_panic_the_stream() {
        let _g = lock();
        for seed in 0..32u64 {
            with_plan(seeded_plan(seed, 64), || {
                let data = vec![3u8; 64];
                let mut r = read_wrap(path(), &data[..]);
                let mut out = Vec::new();
                let _ = r.read_to_end(&mut out); // Ok or Err, never a panic
                let mut sink = Vec::new();
                let mut w = write_wrap(path(), &mut sink);
                let _ = w.write_all(&data);
            });
        }
    }
}
