#!/usr/bin/env bash
# Builds the mmsec release binary and the benchmark from this checkout,
# then runs one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-srpt --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/apps ]; then
    echo "perfbench: run from a full mmsec checkout (no Cargo.toml or crates/apps here)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q -p mmsec-apps --bin mmsec >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/perfbench" --mmsec "$CARGO_TARGET_DIR/release/mmsec" "$@"
