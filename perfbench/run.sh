#!/usr/bin/env bash
# Builds the real `ccs-server` binary and this benchmark from source, then
# runs one benchmark pass.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: the repository's
# `target/`).  The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ccs-server --bin ccs-server >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ccs-perfbench" "$@"
