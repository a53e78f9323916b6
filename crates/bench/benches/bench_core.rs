//! Core data-structure benches + ablation A2 (ordering-rule cost on
//! adversarial DAGs), and the `core/*` lanes of the perf ledger.

use am_bench::{chain_history, dag_history, recorder::Recorder};
use am_core::{
    ghost, linearize, linearize_with, longest_chain, longest_chain_with, ConeCoverTracker,
    DagIndex, MsgId,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Shared-Arc snapshot reads across history lengths.
fn bench_snapshot(c: &mut Criterion) {
    let mut g = c.benchmark_group("snapshot");
    g.sample_size(20);
    for len in [100usize, 1000, 5000] {
        let mem = chain_history(8, len);
        g.bench_with_input(BenchmarkId::new("shared_arc", len), &mem, |b, mem| {
            b.iter(|| black_box(mem.read().len()))
        });
    }
    g.finish();
}

/// DagIndex construction cost on chains and bushy DAGs.
fn bench_dag_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag_index");
    g.sample_size(20);
    for len in [100usize, 1000] {
        let chain = chain_history(8, len).read();
        let dag = dag_history(8, len, 42).read();
        g.bench_with_input(BenchmarkId::new("chain", len), &chain, |b, v| {
            b.iter(|| black_box(DagIndex::new(v).max_depth()))
        });
        g.bench_with_input(BenchmarkId::new("bushy", len), &dag, |b, v| {
            b.iter(|| black_box(DagIndex::new(v).max_depth()))
        });
    }
    g.finish();
}

/// A2: GHOST vs longest-chain selection on bushy DAGs.
fn bench_ordering_rules(c: &mut Criterion) {
    let mut g = c.benchmark_group("A2_ordering_rule");
    g.sample_size(20);
    for len in [100usize, 500, 2000] {
        let view = dag_history(8, len, 7).read();
        g.bench_with_input(BenchmarkId::new("longest_chain", len), &view, |b, v| {
            b.iter(|| black_box(longest_chain(v).len()))
        });
        g.bench_with_input(BenchmarkId::new("ghost", len), &view, |b, v| {
            b.iter(|| black_box(ghost::ghost_pivot(v).len()))
        });
    }
    g.finish();
}

/// Linearization cost along the longest chain.
fn bench_linearize(c: &mut Criterion) {
    let mut g = c.benchmark_group("linearize");
    g.sample_size(20);
    for len in [100usize, 1000] {
        let view = dag_history(8, len, 3).read();
        let chain = longest_chain(&view);
        g.bench_with_input(
            BenchmarkId::new("bushy", len),
            &(view, chain),
            |b, (v, ch)| b.iter(|| black_box(linearize(v, ch).order.len())),
        );
    }
    g.finish();
}

/// The `core/*` ledger lanes: the decision path's kernels on a bushy
/// 1500-message DAG, ns per message.
fn bench_core_absolute(_c: &mut Criterion) {
    let mut rec = Recorder::new();
    let budget = Duration::from_millis(400);
    let view = dag_history(8, 1500, 11).read();
    let msgs = view.len() as u64;
    // Per-message parent table + running deepest tip, as the gate sees it.
    let parents: Vec<Vec<MsgId>> = view.iter().map(|m| m.parents.clone()).collect();
    let mut depth = vec![0u32; parents.len()];
    let mut deepest: Vec<MsgId> = Vec::with_capacity(parents.len());
    for (i, ps) in parents.iter().enumerate() {
        depth[i] = ps.iter().map(|p| depth[p.index()] + 1).max().unwrap_or(0);
        let best = deepest.last().copied().unwrap_or(MsgId(0));
        deepest.push(if i == 0 || depth[i] > depth[best.index()] {
            MsgId(i as u64)
        } else {
            best
        });
    }
    // Gate kernel: covered count of the deepest tip after every append.
    rec.measure_absolute("core/cone_cover_incremental_gate", msgs - 1, budget, || {
        let mut t = ConeCoverTracker::new();
        let mut acc = 0usize;
        for (i, ps) in parents.iter().enumerate().skip(1) {
            t.on_append(MsgId(i as u64), ps, true);
            acc += t.cover_of(deepest[i]);
        }
        black_box(acc)
    });
    // Decision kernel: one shared DagIndex for select + linearize.
    rec.measure_absolute("core/decide_shared_index", msgs, budget, || {
        let dag = DagIndex::new(&view);
        let chain = longest_chain_with(&dag);
        black_box(linearize_with(&dag, &chain).order.len())
    });
    // GHOST kernel: pooled scratch over a prebuilt index.
    let dag = DagIndex::new(&view);
    let mut gs = ghost::GhostScratch::new();
    rec.measure_absolute("core/ghost_pivot_pooled_scratch", msgs, budget, || {
        black_box(ghost::ghost_pivot_in(&dag, &mut gs).len())
    });
    rec.write();
}

criterion_group!(
    benches,
    bench_snapshot,
    bench_dag_index,
    bench_ordering_rules,
    bench_linearize,
    bench_core_absolute
);
criterion_main!(benches);
