#!/usr/bin/env bash
# Builds the benchmark and the `sweep` binary it drives, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload synth_idle --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of standard output is
# the benchmark's JSON result.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --offline --release --quiet -p runner --bin sweep >&2

exec "$target/release/perfbench" \
    --work-dir "$target/perfbench" \
    --sweep-bin "$target/release/sweep" \
    "$@"
