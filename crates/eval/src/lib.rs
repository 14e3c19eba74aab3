//! # goalrec-eval
//!
//! Metrics and experiment drivers reproducing the evaluation section (§6)
//! of *"Modeling and Exploiting Goal and Action Associations for
//! Recommendations"* (EDBT 2018).
//!
//! The entry point is [`context::EvalContext::build`]: it generates both
//! synthetic datasets, trains every method (the four goal-based strategies
//! plus CF-kNN, CF-MF, Content, Apriori and Popularity), and precomputes
//! all top-k recommendation lists. Each module under [`experiments`]
//! reduces those lists into one of the paper's tables or figures; the
//! [`metrics`] modules hold the underlying measures.

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

pub(crate) mod context;
pub mod experiments;
pub mod metrics;
pub(crate) mod report;

pub use context::{EvalConfig, EvalContext};
