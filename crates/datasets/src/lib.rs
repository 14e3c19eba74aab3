//! # goalrec-datasets
//!
//! Synthetic dataset generators calibrated to the two evaluation scenarios
//! of the paper (§6), the hide-split evaluation protocol, and dataset IO.
//!
//! * [`foodmart`] — the grocery scenario: high-connectivity recipe library
//!   plus customer carts.
//! * `fortythree` — the 43Things life-goal scenario: low-connectivity,
//!   family-local library plus user goal activities.
//! * `split` — the 30 %-visible / 70 %-hidden evaluation protocol.
//! * `zipf` — the skewed samplers both generators share.
//! * [`io`] — JSON-lines library persistence and the one library-file
//!   loader, over [`record`]'s streaming record parser; [`grlb2`] — the aligned, sectioned `GRLB` v2 model format
//!   that serves in place via [`mmap`].
//! * [`wal`] — the append-ahead log that makes live library appends
//!   durable between admission and background compaction.
//!
//! Both real sources are gone (the FoodMart mirror and food ontology, and
//! the 43Things site); DESIGN.md §3 documents how the synthetic stand-ins
//! preserve the statistics that drive the paper's results.

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

pub mod foodmart;
pub(crate) mod fortythree;
pub mod grlb2;
pub mod io;
pub mod mmap;
pub mod record;
pub(crate) mod split;
pub mod wal;
pub(crate) mod zipf;

pub use foodmart::{FoodMart, FoodMartConfig};
pub use fortythree::{FortyThings, FortyThingsConfig};
pub use split::{hide_split, hide_split_all, SplitActivity};
pub use wal::AppendWal;
