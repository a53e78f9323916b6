#!/usr/bin/env bash
# One implementation of each idea in src/: fails on a reference twin, a
# switch that selects one, a per-PR bench file, a second timing loop /
# pretend thread pool (the deleted criterion and rayon shims), a SipHash
# map / an `Arc`ed payload / a label-keyed stats hook on the simulator's
# per-message path, a per-node backlog scan in the ABD pump, a public way
# to pick the event queue's lane or the link table's representation, a
# link-keyed map beside the `LinkTable` or a pairing heap, or a
# second copy of a trial's graph beside its `TrialDag` or of any DAG's
# columns beside its `BlockStore`, or a listed stabilizer or a second
# `canonicalize` pass in the model checker, or a process spawn in the experiments
# harness, or a second shipped `Transport` impl, or a second serving
# load harness beside `benchmark/`'s or the histograms it alone read, or
# a second chain-rule dispatch or `Params` constructor, or a prefix view or a
# collected mempool batch on the serving path, or a per-send fact (sender,
# send time) carried by every message copy in the simulator, or a second
# home for experiment wall time beside the registry and the manifest, or
# a second way to give a network faults beside its `NetConfig`.
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
# Per-message (and the mempool's per-request) maps are
# `am_net::hash::{IntMap, IntSet}`; a std map spelled
# out in these files is a default-hasher one. Comment lines may name them.
if shipped crates/net/src/sim.rs crates/net/src/stats.rs crates/mp/src/abd.rs crates/mp/src/view.rs \
  crates/node/src/mempool.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\b(HashMap|HashSet|RandomState)\b'; then
  echo "error: default-hasher map on the per-message or per-request path — use am_net::hash::{IntMap, IntSet} (DESIGN.md §10)" >&2
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
# heap the 4-ary event heap replaced, and `sift_up` / `ARITY` that 4-ary
# heap, which the calendar queue replaced (one ordered store beside the
# in-order run, not two).
if shipped $(ls crates/net/src/*.rs | grep -v '^crates/net/src/topology\.rs$') |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\bIntMap<u64\b|\blink_key\b'; then
  echo "error: a link-keyed map outside the LinkTable in am-net — index per-link state by TopologyMap::edge_index (DESIGN.md §10)" >&2
  exit 1
fi
if shipped crates/*/src/*.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\bpair_scratch\b|\bmeld\(|\bsift_up\b|\bARITY\b'; then
  echo "error: a heap in src/ — the event queue is the in-order run beside the calendar (DESIGN.md §10)" >&2
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
# A view of a prefix that only grows — `SharedLog`'s, an omniscient
# adversary's — owns an `am_core::Frontier` and extends it over the new
# rows. The O(prefix) scans it replaced are the test-side oracle in
# `crates/core/tests/block_store_spec.rs`.
if shipped crates/*/src/*.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\b(tips_of_prefix_into|deepest_in_prefix_into)\('; then
  echo "error: a prefix rescan in src/ — extend a Frontier (DESIGN.md §16, \"Block store\")" >&2
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
# `canonicalize` is the one entry point: the representative, its encoding,
# the winning permutation and the `moved` mask all come out of the one
# refinement search. A second `canonicalize*` fn would be a second pass
# (or a listed group) computing the mask apart from the search it describes.
canon_fns=$(shipped crates/sched/src/search.rs | grep -E '\bfn canonicalize[A-Za-z0-9_]*' || true)
if [ "$(printf '%s' "$canon_fns" | grep -c .)" -ne 1 ]; then
  printf '%s\n' "$canon_fns" >&2
  echo "error: search.rs must have exactly one canonicalize-prefixed fn — the moved mask comes out of the one refinement search, not a second pass or a listed group (DESIGN.md §14)" >&2
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
# An experiment is a registry entry plus `run(ctx, rep)`: `run_with` opens
# the report from the entry's id, title and paper reference, and every
# Monte-Carlo point goes through a `Sweep`, which keeps the points for the
# sweep record. A report opened, an engine runner taken, a points list
# kept or a second budget knob asked for in an experiment module states
# again what the registry and `Sweep` already state.
if shipped crates/experiments/src/e*.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E 'Report::new\(|\.runner\(\)|points\.(push|extend)\(|ctx\.reps\b'; then
  echo "error: an experiment opens its own report or keeps its own sweep points — take the report run_with opens and funnel points through ctx.sweep() (DESIGN.md, \"Sweep lifecycle\")" >&2
  exit 1
fi
# A message copy in `SimNet`'s queue or inboxes is its receiver, parcel and
# link row; the sender and send time are per send and live once in the
# parcel's `Stamp`, which every copy of the send shares.
if shipped crates/net/src/sim.rs |
  awk '/^[^:]+:[0-9]+:(pub(\([a-z]+\))? )?struct (Flight|Arrival) \{/ {inside = 1}
       inside {print}
       inside && /^[^:]+:[0-9]+:\}/ {inside = 0}' |
  grep -E '^[^:]+:[0-9]+:[[:space:]]*(pub(\([a-z]+\))? )?(sent_ns|from)[[:space:]]*:'; then
  echo "error: a per-send fact on a per-copy handle in sim.rs — keep the sender and send time in the parcel's Stamp (DESIGN.md §10)" >&2
  exit 1
fi
# A network's faults are its `NetConfig`: `SimNet` keeps the config it was
# built from and applies its drop, duplicate, reorder and partition at the
# send. An injector list, a fault enum or a partition member list is the
# second, open-ended fault path that config replaced.
if shipped crates/net/src/*.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\badd_fault\b|\benum Fault\b|\bPartitionSpec\b|\bside_a\b'; then
  echo "error: a second fault path in am-net — a network's faults are its NetConfig (DESIGN.md §10)" >&2
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
# Algorithm 6's chain rule is picked through one dispatch,
# `am_protocols::DagRule`; am-core ships the rules as plain functions. A
# `Params` is built by `Params::new` and varied by `with_*`, and a token
# lives one Δ (`Params.delta`): a rule trait, a second builder or a
# lifetime field is a second spelling nothing ships against.
if shipped crates/*/src/*.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\btrait OrderingRule\b|\bParamsBuilder\b|\btoken_ttl\b'; then
  echo "error: a second chain-rule dispatch or Params constructor in src/ — dispatch through DagRule, build with Params::new (DESIGN.md §16)" >&2
  exit 1
fi
# The archive's log is append-only, so a serving query reads the messages
# below its height in place (`Archive::tail_at`); a prefix view per request
# is what a caller keeps, not what the cluster answers with. The executor
# drains the mempool one `pop` at a time; a collected batch per append is
# the `Vec` that path stopped paying for.
if shipped crates/node/src/cluster.rs |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -E '\b(snapshot_at|take_batch)\('; then
  echo "error: a prefix view or a collected batch on Cluster::handle's path — read with Archive::tail_at, drain with Mempool::pop (DESIGN.md §11)" >&2
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
# An experiment's wall time has one home: its `budget_s` sits in its
# `REGISTRY` entry and the manifest records it beside `duration_ms`. The
# perf ledger holds the eight kernel layers' lanes only, and the harness
# neither writes it nor links the crate that does.
if grep -n 'am-bench' crates/experiments/Cargo.toml ||
  grep -n '"--record"' crates/experiments/src/main.rs ||
  ! python3 - BENCH_TRAJECTORY.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
kernel = ("core/", "protocols/", "mp/", "net/", "sync/", "bft/", "sched/", "obs/")
stray = [op for op in doc.get("ops", {}) if not op.startswith(kernel)]
for line in ["top-level `budgets`"] * ("budgets" in doc) + stray:
    print(f"BENCH_TRAJECTORY.json: {line}")
sys.exit(1 if "budgets" in doc or stray else 0)
EOF
then
  echo "error: a second home for experiment wall time — budgets live in REGISTRY, durations in manifest.json, and the ledger holds kernel lanes only (DESIGN.md §15)" >&2
  exit 1
fi
