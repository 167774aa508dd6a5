#!/usr/bin/env bash
# Builds the benchmark once, runs the whole set twice (A, then B) and
# compares the two: every end-to-end median within its bound, exact
# counts identical on the deterministic workloads, no failed operation.
# Extra arguments go to both `suite` runs (e.g. `--seed 7`).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/orochi-benchmark"
"$bin" suite --results benchmark/out/A.json "$@"
"$bin" suite --results benchmark/out/B.json "$@"
"$bin" compare benchmark/out/A.json benchmark/out/B.json
