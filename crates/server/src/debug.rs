//! The `/debug` introspection surface: per-worker in-flight request
//! slots, readable without stopping the world.
//!
//! Each worker registers one [`InflightSlot`] at startup and updates it
//! with plain atomic stores as a request moves through parse → handle →
//! write; `GET /debug/requests` walks the slots and reports every active
//! request's trace id, age and current span. The write side is
//! allocation-free and lock-free — the only lock guards the (cold) slot
//! list, taken at worker registration and snapshot time.

use goalrec_obs::{names, TraceId};
use serde_json::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Request phases a slot can report.
pub(crate) const STAGE_IDLE: u8 = 0;
/// Reading and parsing the request head/body.
pub(crate) const STAGE_PARSE: u8 = 1;
/// Inside the router (including the ranking pass).
pub(crate) const STAGE_HANDLE: u8 = 2;
/// Serializing and writing the response.
pub(crate) const STAGE_WRITE: u8 = 3;

fn stage_name(stage: u8) -> &'static str {
    match stage {
        STAGE_PARSE => names::SPAN_PARSE,
        STAGE_HANDLE => names::SPAN_HANDLE,
        STAGE_WRITE => names::SPAN_WRITE,
        _ => "idle",
    }
}

/// One worker's current request, written with relaxed atomic stores on
/// the hot path and read by `/debug/requests` snapshots.
pub(crate) struct InflightSlot {
    worker: u64,
    active: AtomicBool,
    trace_id: AtomicU64,
    started_us: AtomicU64,
    stage: AtomicU8,
}

impl InflightSlot {
    /// Marks the slot active for a new request (entering the parse phase).
    /// `started_us` is the request start in the owning registry's time
    /// base (see [`InflightRegistry::offset_us`]).
    pub(crate) fn begin(&self, id: TraceId, started_us: u64) {
        // ordering: the payload fields are Relaxed and published by the
        // Release store of `active`, which pairs with the Acquire load in
        // snapshot_rows — a snapshot that observes active=true also
        // observes the trace id, start time and stage written before it.
        self.trace_id.store(id.0, Ordering::Relaxed);
        self.started_us.store(started_us, Ordering::Relaxed); // ordering: as above
        self.stage.store(STAGE_PARSE, Ordering::Relaxed); // ordering: as above
        self.active.store(true, Ordering::Release); // ordering: as above
    }

    /// Re-stamps the trace id (an inbound `X-Goalrec-Trace` header landed
    /// after the slot was begun).
    pub(crate) fn set_trace(&self, id: TraceId) {
        // ordering: Relaxed — a mid-request re-stamp; a snapshot racing
        // with it may report either id, both of which were current.
        self.trace_id.store(id.0, Ordering::Relaxed);
    }

    /// Moves the request to a new phase (one of the `STAGE_*` constants).
    pub(crate) fn set_stage(&self, stage: u8) {
        // ordering: Relaxed — stage is advisory; a snapshot racing with a
        // transition reports the adjacent phase, which is equally true.
        self.stage.store(stage, Ordering::Relaxed);
    }

    /// Marks the slot idle again.
    pub(crate) fn end(&self) {
        // ordering: Release so a snapshot that still sees active=true saw
        // payload fields from this request, not a later reuse; the stage
        // reset below is advisory (Relaxed) — an idle slot is filtered out
        // by the active check before stage is read.
        self.active.store(false, Ordering::Release);
        self.stage.store(STAGE_IDLE, Ordering::Relaxed); // ordering: as above
    }
}

/// All workers' slots plus the common time epoch their ages are measured
/// against.
pub(crate) struct InflightRegistry {
    epoch: Instant,
    slots: Mutex<Vec<Arc<InflightSlot>>>,
}

impl Default for InflightRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl InflightRegistry {
    /// An empty registry; its construction time is the age epoch.
    pub(crate) fn new() -> Self {
        InflightRegistry {
            epoch: Instant::now(),
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds from the registry epoch to `t` — the time base slot
    /// ages are reported in.
    pub(crate) fn offset_us(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    /// Registers one worker's slot.
    pub(crate) fn register(&self, worker: usize) -> Arc<InflightSlot> {
        let slot = Arc::new(InflightSlot {
            worker: worker as u64,
            active: AtomicBool::new(false),
            trace_id: AtomicU64::new(0),
            started_us: AtomicU64::new(0),
            stage: AtomicU8::new(STAGE_IDLE),
        });
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&slot));
        slot
    }

    /// A point-in-time JSON row per active request: trace id, worker,
    /// age and the span the request is currently inside.
    pub(crate) fn snapshot_rows(&self) -> Vec<Value> {
        let now_us = self.offset_us(Instant::now());
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots
            .iter()
            // ordering: Acquire pairs with the Release store in begin —
            // observing active=true makes the Relaxed payload loads below
            // read values from this request (or newer re-stamps).
            .filter(|slot| slot.active.load(Ordering::Acquire))
            .map(|slot| {
                let started = slot.started_us.load(Ordering::Relaxed); // ordering: as above
                serde_json::json!({
                    // ordering: as above
                    "trace": TraceId(slot.trace_id.load(Ordering::Relaxed)).to_hex(),
                    "worker": slot.worker,
                    "age_ms": now_us.saturating_sub(started) / 1_000,
                    // ordering: as above
                    "span": stage_name(slot.stage.load(Ordering::Relaxed)),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_lifecycle_shows_up_in_snapshots() {
        let reg = InflightRegistry::new();
        let slot = reg.register(3);
        assert!(reg.snapshot_rows().is_empty());

        slot.begin(TraceId(0xabc), reg.offset_us(Instant::now()));
        slot.set_stage(STAGE_HANDLE);
        let rows = reg.snapshot_rows();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(
            row.get("trace").and_then(|v| v.as_str()),
            Some("0000000000000abc")
        );
        assert_eq!(row.get("worker").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(
            row.get("span").and_then(|v| v.as_str()),
            Some(names::SPAN_HANDLE)
        );
        assert!(row.get("age_ms").and_then(|v| v.as_u64()).is_some());

        slot.set_trace(TraceId(0xdef));
        assert_eq!(
            reg.snapshot_rows()[0].get("trace").and_then(|v| v.as_str()),
            Some("0000000000000def".to_owned()).as_deref()
        );

        slot.end();
        assert!(reg.snapshot_rows().is_empty());
    }

    #[test]
    fn stage_names_come_from_the_registry() {
        assert_eq!(stage_name(STAGE_PARSE), names::SPAN_PARSE);
        assert_eq!(stage_name(STAGE_HANDLE), names::SPAN_HANDLE);
        assert_eq!(stage_name(STAGE_WRITE), names::SPAN_WRITE);
        assert_eq!(stage_name(STAGE_IDLE), "idle");
        assert_eq!(stage_name(99), "idle");
    }
}
