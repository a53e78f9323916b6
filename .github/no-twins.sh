#!/usr/bin/env bash
# One implementation of each idea in src/: fails on a reference twin, a
# switch that selects one, a per-PR bench file, a second timing loop /
# pretend thread pool (the deleted criterion and rayon shims), a SipHash
# map / an `Arc`ed payload / a label-keyed stats hook on the simulator's
# per-message path, a per-node backlog scan in the ABD pump, a public way
# to pick the event queue's lane or the link table's representation, a
# link-keyed map beside the `LinkTable` or a pairing heap, or a
# second copy of a trial's graph beside its `TrialDag` or of any DAG's
# columns beside its `BlockStore`, or a listed stabilizer in the
# model checker's canonicalizer, or a process spawn in the experiments
# harness, or a second shipped `Transport` impl, or a second serving
# load harness beside `benchmark/`'s or the histograms it alone read.
# `#[cfg(test)] mod tests` (always last in a file here) is exempt from the
# source checks — that is where references live.
set -euo pipefail
# The lines of the given files before their test module, as file:line:text.
shipped() {
  awk 'prev ~ /^#\[cfg\(test\)\]/ && /^mod tests/ {nextfile} {prev = $0; print FILENAME ":" FNR ":" $0}' "$@"
}
if shipped crates/*/src/*.rs |
  grep -E 'fn [A-Za-z0-9_]+_(naive|rebuild|rescan|cloning)\b|set_naive|dense_stats|acks_hashmap'; then
  echo "error: reference twin in src/ — move it test-side (CONTRIBUTING.md)" >&2
  exit 1
fi
# Per-message maps are `am_net::hash::{IntMap, IntSet}`; a std map spelled
# out in these files is a default-hasher one. Comment lines may name them.
if shipped crates/net/src/sim.rs crates/net/src/stats.rs crates/mp/src/abd.rs crates/mp/src/view.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\b(HashMap|HashSet|RandomState)\b'; then
  echo "error: default-hasher map on the per-message path — use am_net::hash::{IntMap, IntSet} (DESIGN.md §10)" >&2
  exit 1
fi
if shipped crates/net/src/sim.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\b(Arc|Gossip)\b'; then
  echo "error: SimNet carries parcel handles, not shared payloads — keep Arc/Gossip out of sim.rs (DESIGN.md §10)" >&2
  exit 1
fi
# A parcel's kind is resolved once, into a slot of the `NetStats` kind
# table; the simulator's per-message hooks index by that slot. The
# label-keyed `on_*` hooks search the table and are for callers outside
# the simulator.
if shipped crates/net/src/sim.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\.on_(sent|dropped|duplicated|delivered)\('; then
  echo "error: a label-keyed NetStats hook on SimNet's per-message path — count through the parcel's kind slot (DESIGN.md §10)" >&2
  exit 1
fi
# The ABD pump picks its target from the substrate's maintained backlog set
# (`Transport::backlogged`); it asks `backlog` only of the node it picked.
if shipped crates/mp/src/abd.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\bbacklog\(' | grep -vE '\bbacklog\(target\)'; then
  echo "error: a per-node backlog scan in the ABD pump — pick from Transport::backlogged (DESIGN.md §10)" >&2
  exit 1
fi
# The event queue adapts to the order events arrive in and the link table's
# representation follows from the topology: neither is a caller's choice. A public
# function, `NetConfig` field or builder method in am-net naming either is
# the second code path keyed on config that PR 24 avoided.
if shipped crates/net/src/*.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -iE 'pub (const )?fn [a-z0-9_]*(dense|sparse|in_?order|heap_only|run_only|fast_path)[a-z0-9_]*\(|pub [a-z0-9_]*(dense|sparse|in_?order|heap_only|run_only|fast_path)[a-z0-9_]*:'; then
  echo "error: a public switch for the queue lane or the link-table representation in am-net — the queue reads the event order, the table reads the topology (DESIGN.md §10)" >&2
  exit 1
fi
# Per-link state — `NetStats` counters, busy horizons, latency overrides —
# is a `LinkTable` over the topology (`crates/net/src/topology.rs`): one
# dense row per edge, one spill map. A link-keyed `IntMap` elsewhere in
# am-net is a second link table; `pair_scratch` / `meld(` are the pairing
# heap the 4-ary event heap replaced.
if shipped $(ls crates/net/src/*.rs | grep -v '^crates/net/src/topology\.rs$') |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\bIntMap<u64\b|\blink_key\b'; then
  echo "error: a link-keyed map outside the LinkTable in am-net — index per-link state by TopologyMap::edge_index (DESIGN.md §10)" >&2
  exit 1
fi
if shipped crates/*/src/*.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\bpair_scratch\b|\bmeld\('; then
  echo "error: a pairing heap in src/ — the event queue is the in-order run beside the 4-ary heap (DESIGN.md §10)" >&2
  exit 1
fi
# A trial runner keeps its history in the pooled `TrialDag` and decides on
# it in place; the memory + snapshot index it replaced is the test-side
# reference (`crates/protocols/tests/trial_dag_spec.rs`).
if shipped crates/protocols/src/chain.rs crates/protocols/src/dag.rs \
  crates/protocols/src/timestamp.rs crates/protocols/src/weak.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\b(AppendMemory|MessageBuilder)\b|DagIndex::new'; then
  echo "error: a trial runner builds a second copy of its graph — append to and decide on the TrialDag (DESIGN.md, \"Trial DAG\")" >&2
  exit 1
fi
# A BFT trial interprets its DAG once, into the pooled table, and gives each
# observer a pooled `FinalityView`; `Propagation` keeps per-node flags as
# block-major bitmaps. A per-trial oracle or table, or a per-node bool row,
# in the drivers is the rebuilt-per-trial state PR 25 removed.
if shipped crates/protocols/src/bft.rs crates/protocols/src/propagation.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E 'FinalityOracle::new|DagInterpreter::new|Vec<Vec<bool>>'; then
  echo "error: a BFT or gossip trial builds its own oracle, table or per-node bool rows — take the pooled table, views and bitmaps (DESIGN.md §12, §16)" >&2
  exit 1
fi
# Every DAG — a trial's, a BFT table's, `Propagation`'s, a snapshot's
# `DagIndex` — keeps its graph in an `am_core::BlockStore`, and child edges
# come from its one `ChildIndex` builder. A parent-CSR or first-child column
# spelled out anywhere else is a second copy of the store.
if shipped $(ls crates/*/src/*.rs | grep -v '^crates/core/src/incremental\.rs$') |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\b(par_off|parent_off|parent_ids|first_child)\b([^(]|$)'; then
  echo "error: a parent-CSR / first-child column outside am_core::BlockStore — hold a store (DESIGN.md §16, \"Block store\")" >&2
  exit 1
fi
# The finality rule exists once, in `FinalityView`; `FinalityOracle` owns a
# table and a view, it does not carry a copy of the rule.
if [ "$(shipped crates/bft/src/*.rs | grep -cE '\bfn try_advance\b')" -gt 1 ]; then
  shipped crates/bft/src/*.rs | grep -E '\bfn try_advance\b'
  echo "error: a second finality rule in am-bft — the rule lives once, in FinalityView (DESIGN.md §12)" >&2
  exit 1
fi
# A model-checker state costs no heap traffic: the visited sets are keyed by
# the fingerprint itself over the pass-through hasher (`FpMap` / `FpSet`), and
# the nonforking DFS refills one oracle per depth with `clone_from`.
if shipped crates/sched/src/search.rs crates/sched/src/nonforking.rs crates/sched/src/bivalence.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\bHash(Map|Set)<\(?(u128|u64|\(u32, ?u64\))\b'; then
  echo "error: default-hasher map keyed by a fingerprint in the model checker — use FpMap / FpSet (DESIGN.md §14)" >&2
  exit 1
fi
if shipped crates/sched/src/nonforking.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E 'oracles?[A-Za-z0-9_]*(\[[^]]*\])?\.clone\(\)|FinalityOracle::clone\b'; then
  echo "error: a finality oracle cloned per nonforking state — clone_from into the depth's slot (DESIGN.md §14)" >&2
  exit 1
fi
# The symmetry canonicalizer refines a partition; it never lists the
# stabilizer. A materialised permutation list is the spec in
# `crates/sched/tests/canon_spec.rs`, not the search path.
if shipped crates/sched/src/search.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E 'Vec<\[u8; ?MAX_N\]>'; then
  echo "error: a materialised permutation list in search.rs — canonicalize by refinement; the list is the test-side spec (DESIGN.md §14)" >&2
  exit 1
fi
# On one box `--workers` runs its shards on scoped threads inside
# `am_experiments::coordinate`; a harness or example that re-executes the
# binary per shard is a second, process-level fan-out beside it. Separate
# processes are the cross-machine path (`--shard` / `--merge-shards`).
if shipped crates/experiments/src/*.rs examples/*.rs |
  grep -E 'Command::new|current_exe|process::Child'; then
  echo "error: a process spawn in the experiments harness or an example — the local fan-out is std::thread::scope in coordinate (DESIGN.md, \"Sweep lifecycle\")" >&2
  exit 1
fi
# One shipped transport: `SimNet` is the only `Transport` impl in src/. The
# reliable reference network and the backlog-checking wrapper substitute
# for it through the trait from `crates/mp/tests/`.
transports=$(shipped crates/*/src/*.rs | grep -E '^[^:]+:[0-9]+:[[:space:]]*impl\b.*\bTransport<.*>[[:space:]]+for\b' || true)
if [ "$(printf '%s' "$transports" | grep -c .)" -ne 1 ]; then
  printf '%s\n' "$transports"
  echo "error: SimNet must be the one shipped Transport impl — keep reference networks test-side (DESIGN.md §10)" >&2
  exit 1
fi
# The serving stack has one ruler: `benchmark/`'s `serve_read_heavy` /
# `serve_append_heavy` workloads, which split the time by layer with exact
# per-class percentiles. A load generator in am-node or the examples is a
# second one, and am-obs keeps no histograms (spans carry their own
# buckets; the manifest exports spans, counters and events).
if shipped crates/*/src/*.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E 'static_histogram!|am_obs::histogram\(|Histogram::detached'; then
  echo "error: an am-obs histogram in src/ — count with a counter or time with a span (DESIGN.md §7)" >&2
  exit 1
fi
for f in crates/node/src/loadgen.rs examples/loadgen.rs; do
  if [ -e "$f" ]; then
    echo "error: $f is a second serving load harness — measure the node through benchmark/'s serve workloads (DESIGN.md §11)" >&2
    exit 1
  fi
done
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
