#!/usr/bin/env bash
# Build the program under test (the repository's qsync-serve) and the
# benchmark from source into one target directory, then run the benchmark
# with the arguments given. Run from the repository root.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin qsync-serve
cargo build --release --offline --quiet --manifest-path qsync_benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/qsync_benchmark" "$@"
