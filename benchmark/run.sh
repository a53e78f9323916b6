#!/usr/bin/env bash
# The one command: builds the harness from source, then runs it.
#
#   bash benchmark/run.sh                      every workload, untraced then traced
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                              what /BENCHMARK.json's driver calls
#   bash benchmark/run.sh --smoke              one repetition at one-tenth size
#   bash benchmark/run.sh --self-check         the suite twice, B held to A
#
# Run it from the repository root. The build goes to $CARGO_TARGET_DIR, or to
# .bench_build in the repository root when that is unset.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

# Build output goes to stderr so that standard output ends with the result line.
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" 1>&2

cd "$root"
exec "$CARGO_TARGET_DIR/release/am-benchmark" "$@"
