//! am-bft kernels: the cost of deterministic finality over the DAG.
//!
//! The finality oracle is *incremental* — each observed block updates
//! justification heights, latest-block pointers, and the quorum scan in
//! amortized O(cone frontier). The natural naive alternative (what a
//! first implementation of Casper-CBC-style clique finality over a
//! BlockDAG does) replays the whole DAG into a fresh oracle after every
//! block to recompute the watermark. Both produce the identical
//! watermark trajectory; the bench pair times the gap.

use am_bench::{presets::Preset, recorder};
use am_bft::FinalityOracle;
use am_core::{MsgId, GENESIS};
use am_protocols::{run_bft, BftAdversary, Params};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// A deterministic round-robin block DAG: each block references the
/// global tip plus its author's previous block — the shape the honest
/// append rule produces on a quiet network.
fn make_blocks(n: usize, total: usize) -> Vec<(MsgId, usize, Vec<MsgId>)> {
    let mut last_own = vec![GENESIS; n];
    let mut prev = GENESIS;
    let mut blocks = Vec::with_capacity(total);
    for i in 0..total {
        let author = i % n;
        let id = MsgId(i as u64 + 1);
        let mut parents = vec![prev];
        if last_own[author] != prev && last_own[author] != GENESIS {
            parents.push(last_own[author]);
        }
        blocks.push((id, author, parents));
        last_own[author] = id;
        prev = id;
    }
    blocks
}

/// Watermark after every block, one long-lived oracle: the shipped path.
fn trajectory_incremental(n: usize, blocks: &[(MsgId, usize, Vec<MsgId>)]) -> u64 {
    let mut oracle = FinalityOracle::new(n);
    let mut acc = 0u64;
    for (id, author, parents) in blocks {
        oracle.observe(*id, *author, parents);
        acc += oracle.finalized_height() as u64;
    }
    acc
}

/// Watermark after every block, a fresh oracle replaying the prefix each
/// time: the O(blocks^2) baseline.
fn trajectory_replay(n: usize, blocks: &[(MsgId, usize, Vec<MsgId>)]) -> u64 {
    let mut acc = 0u64;
    for end in 1..=blocks.len() {
        let mut oracle = FinalityOracle::new(n);
        for (id, author, parents) in &blocks[..end] {
            oracle.observe(*id, *author, parents);
        }
        acc += oracle.finalized_height() as u64;
    }
    acc
}

fn bench_oracle(c: &mut Criterion) {
    let mut g = c.benchmark_group("bft_oracle");
    g.sample_size(20);
    let blocks = make_blocks(8, 400);
    g.bench_function("incremental_400", |b| {
        b.iter(|| black_box(trajectory_incremental(8, &blocks)))
    });
    g.bench_function("replay_400", |b| {
        b.iter(|| black_box(trajectory_replay(8, &blocks)))
    });
    g.finish();
}

/// PR7: finality-latency kernel plus an E15 sweep cell, merged into
/// `BENCH_PR7.json` (see CONTRIBUTING.md "Benchmark trajectory files").
fn bench_pr7_finality(_c: &mut Criterion) {
    let mut rec = recorder::Recorder::preset(Preset::Pr7);
    let budget = Duration::from_millis(700);

    // Headline kernel: the full watermark trajectory of a 400-block,
    // 8-author DAG — incremental oracle vs replay-from-scratch.
    let blocks = make_blocks(8, 400);
    let sanity = trajectory_incremental(8, &blocks);
    assert_eq!(
        sanity,
        trajectory_replay(8, &blocks),
        "both paths must compute the identical watermark trajectory"
    );
    rec.measure(
        "bft/watermark_trajectory",
        Some("bft/watermark_replay"),
        budget,
        || black_box(trajectory_incremental(8, &blocks)),
    );
    rec.measure("bft/watermark_replay", None, budget, || {
        black_box(trajectory_replay(8, &blocks))
    });

    // An E15 sweep cell: end-to-end finality trials at the experiment's
    // own grid point (n = 12, k = 9), fault-free and at the tolerance
    // edge. Not a kernel pair — a wall-clock record of what one adaptive
    // sweep cell costs the harness.
    rec.measure("bft_sweep/e15_cell_t0", None, budget, || {
        let p = Params::new(12, 0, 0.5, 9, 0x15);
        black_box(run_bft(&p, BftAdversary::Absent).finalized_height)
    });
    rec.measure("bft_sweep/e15_cell_t2_equivocator", None, budget, || {
        let p = Params::new(12, 2, 0.5, 9, 0x15);
        black_box(run_bft(&p, BftAdversary::Equivocator).finalized_height)
    });
    rec.write();
}

/// Absolute lanes: ns per [`FinalityOracle::observe`] on the
/// honest-append shape at n = 12 and n = 48 (20 rounds of blocks each),
/// recorded into `BENCH_TRAJECTORY.json`. This shape finalizes a height
/// per block, so every observe pays a full passing scan; n = 48 must
/// still cost far less than the 16× of a rule that walks the quorum and
/// the clique per block.
fn bench_observe_absolute(_c: &mut Criterion) {
    let mut rec = recorder::Recorder::preset(Preset::Trajectory);
    for n in [12usize, 48] {
        let blocks = make_blocks(n, 20 * n);
        rec.measure_absolute(
            &format!("bft/observe_ns_n{n}"),
            blocks.len() as u64,
            Duration::from_millis(700),
            || black_box(trajectory_incremental(n, &blocks)),
        );
    }
    rec.write();
}

criterion_group!(
    benches,
    bench_oracle,
    bench_pr7_finality,
    bench_observe_absolute
);
criterion_main!(benches);
