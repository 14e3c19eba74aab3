//! `goalrec` — command-line front end for the goal-based recommender.
//!
//! ```text
//! goalrec generate  foodmart|fortythree [--scale test|paper] --out FILE.jsonl
//! goalrec synth     --out FILE.json [--stories N] [--seed N]
//! goalrec extract   --stories FILE.json --out FILE.jsonl
//! goalrec convert   --library FILE --out FILE.jsonl
//! goalrec compile   --library FILE --out MODEL.grlb2
//! goalrec stats     --library FILE [--json] [--metrics]
//! goalrec recommend --library FILE --activity a1,a2,…
//!                   [--strategy breadth|best-match|focus-cmp|focus-cl]
//!                   [-k N] [--explain]
//! goalrec serve     --library FILE [the goalrec-serve flags]
//! goalrec demo
//! ```
//!
//! Libraries are exchanged as JSON-lines (`io::write_library_jsonl`;
//! `generate` writes its dataset's library in this form) and compiled to GRLB v2 model files by `compile`; every `--library` takes
//! either, told apart by the file's first bytes. Stories are a JSON array
//! of `{"goal": …, "text": …}` objects.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match commands::dispatch(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}
