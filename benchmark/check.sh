#!/usr/bin/env bash
# Self-check of the benchmark: unit tests (which include the schema check of
# BENCHMARK.json against the metric and workload tables), then the whole
# benchmark at one twentieth of its size. Run from anywhere; takes under a
# minute after the first build.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- run --quick
test -s benchmark/out/results.json
for w in ladder_pair dht_locked serve_mixed himeno_halo; do
    test -s "benchmark/out/trace_$w.json"
done
echo "benchmark check: ok"
