//! `goalrec-serve` — the standalone server binary.
//!
//! ```text
//! goalrec-serve --library FILE[.jsonl|.grlb2]
//!               [--addr HOST] [--port N] [--workers N]
//!               [--queue-depth N] [--deadline-ms N] [--idle-ms N]
//!               [--admin-deadline-ms N] [--append-max-entries N]
//!               [--watch] [--compact-threshold N] [--compact-max-age-ms N]
//!               [--no-trace] [--trace-sample-every N]
//!               [--access-log] [--access-log-every N]
//! ```
//!
//! Loads the library file through the same loader every full reload
//! uses — a compiled `.grlb2` is mapped and served in place, a JSONL
//! library is compiled once — and serves until `SIGTERM`/ctrl-c, draining in-flight requests before
//! exit. The `goalrec serve` CLI subcommand parses the same flags
//! ([`goalrec_server::parse_args`]) into the same
//! [`goalrec_server::run_blocking`] entry point.

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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let served = goalrec_server::parse_args(&argv)
        .and_then(|config| goalrec_server::run_blocking(config).map_err(|e| e.to_string()));
    if let Err(e) = served {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
