//! Cooperative shutdown: a shared flag polled by every server loop, plus
//! optional wiring of that flag to `SIGTERM`/`SIGINT`.
//!
//! The signal path uses the C `signal(2)` entry point directly — std
//! already links libc, so this adds no dependency. The handler does the
//! only async-signal-safe thing possible: store into a process-global
//! atomic. `Shutdown::is_set` reads both its own flag (programmatic
//! shutdown, used by tests and `ServerHandle::shutdown`) and the signal
//! flag, so either path drains the server the same way.

use std::os::raw::c_int;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `SIGHUP` — the classic "reload your configuration" signal; here it
/// asks the server to hot-reload its library file.
pub(crate) const SIGHUP: c_int = 1;
/// `SIGINT` — ctrl-c.
pub(crate) const SIGINT: c_int = 2;
/// `SIGTERM` — polite termination, e.g. from an orchestrator.
pub(crate) const SIGTERM: c_int = 15;

static SIGNAL_RECEIVED: AtomicBool = AtomicBool::new(false);
static RELOAD_SIGNALS: AtomicU64 = AtomicU64::new(0);

extern "C" {
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
}

extern "C" fn on_signal(_signum: c_int) {
    // ordering: Release pairs with the Acquire load in signal_received;
    // the flag itself is the only state the handler publishes.
    SIGNAL_RECEIVED.store(true, Ordering::Release);
}

extern "C" fn on_reload_signal(_signum: c_int) {
    // ordering: Release pairs with the Acquire load in reload_signal_count;
    // the count itself is the only state the handler publishes.
    RELOAD_SIGNALS.fetch_add(1, Ordering::Release);
}

/// Installs the `SIGTERM`/`SIGINT` shutdown handlers and the `SIGHUP`
/// reload handler. Each handler performs a single atomic store/add — the
/// only async-signal-safe things a handler may do. Idempotent; later
/// installs simply re-register the same handlers.
pub fn install_signal_handlers() {
    // Safety: registering async-signal-safe handlers (single atomic
    // operations) for three standard signals; `signal` itself cannot fault.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
        signal(SIGHUP, on_reload_signal);
    }
}

/// Whether a termination signal has been received by this process.
pub(crate) fn signal_received() -> bool {
    // ordering: Acquire pairs with the handler's Release store.
    SIGNAL_RECEIVED.load(Ordering::Acquire)
}

/// How many `SIGHUP` reload requests this process has received. The
/// reload supervisor compares successive readings, so every delivered
/// signal triggers exactly one reload attempt.
pub(crate) fn reload_signal_count() -> u64 {
    // ordering: Acquire pairs with the handler's Release increment.
    RELOAD_SIGNALS.load(Ordering::Acquire)
}

/// A cloneable shutdown token shared by the accept loop and the workers.
#[derive(Clone, Default)]
pub(crate) struct Shutdown {
    requested: Arc<AtomicBool>,
    /// When true, `is_set` also honours the process-global signal flag.
    watch_signals: bool,
}

impl Shutdown {
    /// A token that only reacts to [`Shutdown::request`].
    pub(crate) fn new() -> Self {
        Shutdown {
            requested: Arc::new(AtomicBool::new(false)),
            watch_signals: false,
        }
    }

    /// A token that additionally trips when `SIGTERM`/`SIGINT` arrives
    /// (callers should pair this with [`install_signal_handlers`]).
    pub(crate) fn watching_signals() -> Self {
        Shutdown {
            requested: Arc::new(AtomicBool::new(false)),
            watch_signals: true,
        }
    }

    /// Requests shutdown programmatically.
    pub(crate) fn request(&self) {
        // ordering: Release pairs with the Acquire load in is_set; shutdown
        // consumers re-check their own queues after observing the flag, so
        // the flag itself is all this store publishes.
        self.requested.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested (or signalled, for tokens from
    /// [`Shutdown::watching_signals`]).
    pub(crate) fn is_set(&self) -> bool {
        // ordering: Acquire pairs with the Release store in request.
        self.requested.load(Ordering::Acquire) || (self.watch_signals && signal_received())
    }

    /// Blocks until the token trips, polling every 25 ms.
    pub(crate) fn wait(&self) {
        while !self.is_set() {
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_trips_every_clone() {
        let s = Shutdown::new();
        let c = s.clone();
        assert!(!c.is_set());
        s.request();
        assert!(c.is_set());
    }

    #[test]
    fn plain_tokens_ignore_the_signal_flag() {
        // Cannot raise a real signal here without affecting the whole test
        // process; assert the wiring flag instead.
        let plain = Shutdown::new();
        assert!(!plain.watch_signals);
        let wired = Shutdown::watching_signals();
        assert!(wired.watch_signals);
    }

    #[test]
    fn wait_returns_after_request() {
        let s = Shutdown::new();
        let waiter = {
            let s = s.clone();
            std::thread::spawn(move || s.wait())
        };
        std::thread::sleep(Duration::from_millis(10));
        s.request();
        waiter.join().unwrap();
    }
}
