//! goalrec-lint: in-tree static analysis for the goalrec workspace.
//!
//! Four deny-by-default rules over a hand-rolled, string/comment/attribute
//! aware token scan (the container is registry-less, so no external
//! parser crates). Each checks a project invariant that neither rustc nor
//! clippy can express:
//!
//! * `raw-id-cast` — no raw `as u32`/`as usize` casts in library files
//!   importing the `core::ids` newtypes;
//! * `metric-name-registry` — metric names live in
//!   `crates/obs/src/names.rs` and stay in sync with the README's
//!   Observability table (drift reported in both directions);
//! * `atomic-ordering` — every `Ordering::*` use carries an `// ordering:`
//!   justification; `SeqCst` denied outright; `Relaxed` on registered
//!   cross-thread atomics flagged regardless;
//! * `lock-discipline` — nested lock acquisition must match the declared
//!   `[[lock_order]]` hierarchy.
//!
//! Panicking calls and undocumented `unsafe` in library code are clippy's
//! job (a crate-level attribute in each library crate's `lib.rs`), and
//! the serving path's allocation budget is pinned by counting-allocator
//! tests in `core`, `datasets` and `server`.
//!
//! Escapes: an inline `goalrec-lint:allow` comment directive — the rule
//! in parentheses, then a mandatory `: justification` tail, covering its
//! own line and the next — or a `lint.toml` `[[allow]]` entry (rule +
//! path prefix + reason). A malformed, unknown-rule or stale directive is
//! a `suppression-format` finding of its own. The committed
//! `lint-baseline.json` pins the allow-listed finding counts so
//! allowlisted debt cannot grow silently.

pub mod baseline;
mod concurrency;
mod config;
pub mod engine;
mod lexer;
pub mod rules;

pub use engine::{run_workspace, RunResult};
pub use rules::Finding;
