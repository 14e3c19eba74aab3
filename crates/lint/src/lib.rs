//! goalrec-lint: in-tree static analysis for the goalrec workspace.
//!
//! Seven deny-by-default rules over a hand-rolled, string/comment/attribute
//! aware token scan plus a conservative workspace call graph (the container
//! is registry-less, so no external parser crates):
//!
//! * `no-panic-paths` — no `unwrap`/`expect`/`panic!`-family calls in
//!   non-test library-crate code;
//! * `raw-id-cast` — no raw `as u32`/`as usize` casts in files importing
//!   the `core::ids` newtypes;
//! * `metric-name-registry` — metric names live in
//!   `crates/obs/src/names.rs` and stay in sync with the README's
//!   Observability table (drift reported in both directions);
//! * `hot-path-alloc` — no allocation or blocking call reachable from the
//!   serving roots ([`callgraph`]), with the reachability trace in every
//!   finding;
//! * `atomic-ordering` — every `Ordering::*` use carries an `// ordering:`
//!   justification; `SeqCst` denied outright; `Relaxed` on registered
//!   cross-thread atomics flagged regardless;
//! * `lock-discipline` — nested lock acquisition must match the declared
//!   `[[lock_order]]` hierarchy;
//! * `justified-unsafe` — every `unsafe` in non-test library code carries
//!   a `// safety:` comment (or rustdoc `# Safety` section) saying why it
//!   is sound.
//!
//! Escapes: an inline `goalrec-lint:allow` comment directive — the rule
//! in parentheses, then a mandatory `: justification` tail, covering its
//! own line and the next — or a `lint.toml` `[[allow]]` entry (rule +
//! path prefix + reason). The committed `lint-baseline.json` pins the
//! allow-listed finding counts so allowlisted debt cannot grow silently.

pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod rules;

pub use engine::{run_workspace, RunResult};
pub use rules::{Finding, RULES};
