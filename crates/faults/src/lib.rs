//! # goalrec-faults
//!
//! Deterministic, seedable IO fault injection for the goalrec stack.
//!
//! Production code opens its files through [`read_wrap`]/[`write_wrap`];
//! by default these are passthrough wrappers costing one `Option` check
//! per call. A chaos driver (a test, such as the server's chaos test)
//! arms a [`FaultPlan`] — a schedule of IO errors, short reads, latency
//! stalls and torn writes at chosen byte offsets or operation counts — and
//! every stream subsequently opened on a matching path misbehaves exactly
//! as scheduled:
//!
//! ```
//! use goalrec_faults::{FaultPlan, with_plan, read_wrap};
//! use std::io::Read;
//!
//! let plan = FaultPlan::parse("path=.grlb;read-error@byte=64").unwrap();
//! with_plan(plan, || {
//!     let data = vec![0u8; 256];
//!     let mut r = read_wrap(std::path::Path::new("lib.grlb"), &data[..]);
//!     let mut out = Vec::new();
//!     assert!(r.read_to_end(&mut out).is_err()); // fails at byte 64
//!     assert_eq!(out.len(), 64);
//! });
//! ```
//!
//! Everything is deterministic: the same plan against the same byte
//! stream fires at the same offsets. The crate depends on nothing and
//! injects nothing unless armed, so shipping it in the serving path is
//! free.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::dbg_macro,
        clippy::undocumented_unsafe_blocks,
        clippy::missing_safety_doc
    )
)]

mod inject;
mod plan;

pub use inject::{arm, disarm, read_wrap, with_plan, write_wrap, FaultyRead, FaultyWrite};
pub use plan::{FaultEvent, FaultKind, FaultPlan, PlanParseError, Trigger};
