#!/usr/bin/env bash
# Builds the served binary and the benchmark from source, then runs one
# workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run files go to .bench_run/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin cookiepicker >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin "$CARGO_TARGET_DIR/release/cookiepicker" "$@"
