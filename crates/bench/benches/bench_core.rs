//! The `core/*` lanes of the perf ledger: ablation A1 (what a snapshot
//! read costs as the history grows), ablation A2 (ordering-rule cost on a
//! bushy DAG) and the decision path's kernels.

use am_bench::{chain_history, dag_history, recorder::Recorder};
use am_core::chain::longest_chain_positions;
use am_core::{
    ghost, linearize_in, linearize_with, longest_chain, longest_chain_with, BlockStore,
    ConeCoverTracker, DagIndex, LinScratch, NodeId, Time,
};
use std::hint::black_box;
use std::time::Duration;

fn main() {
    let mut rec = Recorder::layer("core");
    let budget = Duration::from_millis(400);

    // A1: a read with no append since the last one hands out the shared
    // snapshot, so its cost must not grow with the history behind it.
    for len in [100usize, 1000, 5000] {
        let mem = chain_history(8, len);
        rec.measure_absolute(&format!("core/snapshot_read_h{len}"), 1, budget, || {
            black_box(mem.read().len())
        });
    }

    // A2: longest chain vs GHOST's exact distinct-descendant weights,
    // from a view (index build included), ns per message.
    let view = dag_history(8, 2000, 7).read();
    let msgs = view.len() as u64;
    rec.measure_absolute("core/a2_longest_chain_h2000", msgs, budget, || {
        black_box(longest_chain(&view).len())
    });
    rec.measure_absolute("core/a2_ghost_h2000", msgs, budget, || {
        black_box(ghost::ghost_pivot(&view).len())
    });

    // The decision path's kernels on a bushy 1500-message DAG, ns per
    // message.
    let view = dag_history(8, 1500, 11).read();
    let msgs = view.len() as u64;
    // Per-message parent rows, as the trial's store receives them.
    let parents: Vec<Vec<u32>> = view
        .iter()
        .map(|m| m.parents.iter().map(|p| p.0 as u32).collect())
        .collect();
    // Gate kernel: push into a reset store, then the covered count of the
    // deepest tip, after every append.
    let mut store = BlockStore::new();
    let mut t = ConeCoverTracker::new();
    rec.measure_absolute("core/cone_cover_incremental_gate", msgs - 1, budget, || {
        store.reset();
        t.reset();
        let mut acc = 0usize;
        for ps in &parents[1..] {
            store.push(NodeId(0), ps.iter().copied(), Time::ZERO);
            acc += t.cover_of(&store, store.deepest(), |_| true);
        }
        black_box(acc)
    });
    // Decision kernel: one shared DagIndex for select + linearize.
    rec.measure_absolute("core/decide_shared_index", msgs, budget, || {
        let dag = DagIndex::new(&view);
        let chain = longest_chain_with(&dag);
        black_box(linearize_with(&dag, &chain).order.len())
    });
    // The trial path's share of it: the same linearization over a built
    // index into warm scratch — no allocation.
    let dag = DagIndex::new(&view);
    let chain = longest_chain_positions(&dag);
    let mut lin = LinScratch::new();
    rec.measure_absolute("core/linearize_in_warm_scratch", msgs, budget, || {
        linearize_in(&dag, &chain, &mut lin);
        black_box(lin.order().len())
    });
    // GHOST kernel: pooled scratch over a prebuilt index.
    let mut gs = ghost::GhostScratch::new();
    rec.measure_absolute("core/ghost_pivot_pooled_scratch", msgs, budget, || {
        black_box(ghost::ghost_pivot_in(&dag, &mut gs).len())
    });
    rec.write().unwrap_or_else(|e| panic!("{e}"));
}
