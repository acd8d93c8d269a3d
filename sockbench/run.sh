#!/usr/bin/env bash
# Builds the benchmark from source, then runs `bench` with the given
# arguments, from the repository root:
#
#   bash sockbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Cargo's progress goes to standard error, so standard output carries only
# the benchmark's own report. Binaries land in $CARGO_TARGET_DIR, or in
# sockbench/target when it is unset.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --bins --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/bench" "$@"
