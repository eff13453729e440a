#!/usr/bin/env bash
# Smoke-test the benchmark: build it, run its unit tests, validate
# BENCHMARK.json against the binary, then run every workload for one second
# untraced and traced with every correctness check on. Finishes in about a
# minute after the build. Run from anywhere; a CI job can call this file as is.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml

bin="${CARGO_TARGET_DIR:-benchmark/target}/release/spitz-benchmark"
"$bin" check-manifest BENCHMARK.json
"$bin" all --smoke
echo "benchmark smoke: ok"
