#!/usr/bin/env bash
# Full verification pipeline: what CI would run.
#
#   ./check.sh                full pipeline
#   ./check.sh --perf-smoke   only the hot-path perf gate (build timing,
#                             per-strategy latency, serve throughput →
#                             target/BENCH_perf.json; fails on >30%
#                             throughput regression or BestMatch p95 ≥ 1 ms)
#
# Reports go under target/, so a run leaves every tracked file as it was.
# The committed BENCH_perf.json / BENCH_obs.json are refreshed by hand
# (same commands, --out / --json pointing at the repository root) when
# the hot path changes on purpose.
set -euo pipefail
cd "$(dirname "$0")"

perf_smoke() {
    echo "== perf smoke (hot-path regression gate) =="
    cargo run -q --release -p goalrec-bench --bin loadgen -- --perf --seconds 2 \
        --out target/BENCH_perf.json
    cargo run -q --release -p goalrec-bench --bin repro -- stats table6 --scale test \
        --json target > /dev/null
}

if [[ "${1:-}" == "--perf-smoke" ]]; then
    perf_smoke
    echo "OK"
    exit 0
fi

echo "== build =="
cargo build --workspace --all-targets

echo "== static analysis =="
cargo run -q -p goalrec-lint --bin goalrec-lint -- --baseline lint-baseline.json

echo "== tests =="
cargo test --workspace

echo "== perfbench tests (the server API the benchmark imports) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "== docs =="
cargo doc --workspace --no-deps

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

perf_smoke

echo "OK"
