#!/usr/bin/env bash
# Full verification pipeline: what CI would run.
#
#   ./check.sh                build, lint, tests, docs (warnings denied),
#                             examples, repro smoke, server smokes, and the
#                             release-mode hot-path guard rails
#
# End-to-end performance is measured by perfbench/ (see BENCHMARK.json);
# the guard rails here are in-process timing gates (BestMatch p95, N=1
# scatter-gather overhead, GRLB v2 cold start, keep-alive floor, idle
# live plane) in crates/bench/src/loadgen.rs's `guard_rails` module.
# Reports go under target/, so a run leaves every tracked file as it was.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build =="
cargo build --workspace --all-targets

echo "== static analysis =="
cargo run -q -p goalrec-lint --bin goalrec-lint -- --baseline lint-baseline.json

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

echo "== server smoke (1 shard: healthz + recommend + SIGTERM drain) =="
cargo run -q --release -p goalrec-bench --bin loadgen -- --smoke

echo "== sharded server smoke (2 shards) =="
cargo run -q --release -p goalrec-bench --bin loadgen -- --smoke --shards 2

echo "== chaos-reload smoke (faulted reloads roll back under live traffic) =="
cargo run -q --release -p goalrec-bench --bin loadgen -- --chaos-smoke

echo "== hot-path guard rails (release, one timing gate at a time) =="
cargo test --release -p goalrec-bench --bin loadgen -- --test-threads=1

echo "OK"
