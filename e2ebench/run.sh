#!/usr/bin/env bash
# Builds the release daemon and the load engine from this checkout, then
# runs one benchmark invocation:
#
#   bash e2ebench/run.sh --workload serve-hot --seed 2014 --seconds 36 --trace 0
#
# Run it from the root of the checkout. Build output goes to stderr; the
# last line on stdout is the JSON result.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p circlekit-cli >&2
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --daemon "$CARGO_TARGET_DIR/release/circlekit" "$@"
