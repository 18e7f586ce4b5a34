#!/usr/bin/env bash
# Builds the benchmark and the cn-netd daemon from this checkout, then
# runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload mc_lenet --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the result object.
# CARGO_TARGET_DIR defaults to .bench_build; CN_THREADS defaults to the
# number of CPUs.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
export CN_THREADS="${CN_THREADS:-$(nproc)}"

cargo build --release --quiet --manifest-path Cargo.toml -p cn-net --bin cn-netd >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --netd "$target/release/cn-netd" "$@"
