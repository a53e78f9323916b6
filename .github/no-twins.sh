#!/usr/bin/env bash
# One implementation of each idea in src/: fails on a reference twin, a
# switch that selects one, or a per-PR bench file. `#[cfg(test)] mod tests`
# (always last in a file here) is exempt — that is where references live.
set -euo pipefail
if awk 'prev ~ /^#\[cfg\(test\)\]/ && /^mod tests/ {nextfile} {prev = $0; print FILENAME ":" FNR ":" $0}' \
  crates/*/src/*.rs |
  grep -E 'fn [A-Za-z0-9_]+_(naive|rebuild|rescan|cloning)\b|set_naive|dense_stats|acks_hashmap'; then
  echo "error: reference twin in src/ — move it test-side (CONTRIBUTING.md)" >&2
  exit 1
fi
if compgen -G 'BENCH_PR*.json' >/dev/null; then
  echo "error: per-PR bench file at the root — record into BENCH_TRAJECTORY.json" >&2
  exit 1
fi
