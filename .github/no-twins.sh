#!/usr/bin/env bash
# One implementation of each idea in src/: fails on a reference twin, a
# switch that selects one, a per-PR bench file, or a second timing loop /
# pretend thread pool (the deleted criterion and rayon shims).
# `#[cfg(test)] mod tests` (always last in a file here) is exempt from the
# twin check — that is where references live.
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
if [ -e vendor/criterion ] || [ -e vendor/rayon ] ||
  grep -nE '^(criterion|rayon)\b' Cargo.toml crates/*/Cargo.toml ||
  grep -rnE 'criterion_(group|main)!|par_iter' crates; then
  echo "error: criterion/rayon shim, manifest entry or call site — time through am_bench::recorder::Recorder, fan out with std::thread::scope (CONTRIBUTING.md)" >&2
  exit 1
fi
