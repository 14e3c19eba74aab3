#!/usr/bin/env bash
# Full verification pipeline: what CI would run.
#
#   ./check.sh                build, goalrec-lint, clippy, tests, docs
#                             (warnings denied), examples, repro smoke,
#                             and in release the chaos test and the
#                             hot-path guard rails
#
# End-to-end performance is measured by perfbench/ (see BENCHMARK.json);
# the guard rails here are in-process timing gates (BestMatch p95,
# Breadth/Focus p95, GRLB v2 cold start, keep-alive floor, idle live
# plane) in crates/bench/tests/guard_rails.rs. The server binary's signal
# handling (SIGHUP reload, SIGTERM drain) is tested by the workspace tests
# (crates/server/tests/serve_binary.rs).
# Reports go under target/ (the chaos test's trace dump lands in
# target/tmp/DEBUG_traces.json), so a run leaves every tracked file as it
# was.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build =="
cargo build --workspace --all-targets

echo "== static analysis =="
cargo run -q -p goalrec-lint --bin goalrec-lint -- --baseline lint-baseline.json

echo "== clippy (warnings denied; library crates deny panics and undocumented unsafe) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test --workspace

echo "== perfbench tests (the server API the benchmark imports) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "== docs (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== examples =="
for ex in quickstart text_extraction explanations; do
    cargo run -q --example "$ex" > /dev/null
done
for ex in grocery_store life_goals scalability; do
    cargo run -q --release --example "$ex" > /dev/null
done

echo "== repro smoke (test scale) =="
cargo run -q --release -p goalrec-bench --bin repro -- stats table6 --scale test --json target \
    > /dev/null

echo "== chaos (release: faulted reloads and compactions roll back under live traffic) =="
cargo test --release -p goalrec-server --test chaos -- --test-threads=1

echo "== hot-path guard rails (release, one timing gate at a time) =="
cargo test --release -p goalrec-bench --test guard_rails -- --test-threads=1

echo "OK"
