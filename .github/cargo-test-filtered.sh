#!/usr/bin/env bash
# `cargo test "$@"` for steps that select tests by name: cargo exits 0 when
# a filter matches nothing, so a renamed test would leave the step green
# and empty. Fails unless at least one test ran and passed.
set -euo pipefail
out=$(cargo test "$@" 2>&1 | tee /dev/stderr)
passed=$(grep -Eo '[0-9]+ passed' <<<"$out" | awk '{s += $1} END {print s + 0}')
if [ "$passed" -eq 0 ]; then
  echo "error: no test matched: cargo test $*" >&2
  exit 1
fi
