//! am-bft kernels: the cost of deterministic finality over the DAG, and
//! the `bft/*` lanes of the perf ledger.
//!
//! The finality oracle is *incremental* — each observed block updates
//! justification heights, latest-block pointers, and the quorum scan in
//! amortized O(cone frontier); the from-scratch rule it implements is the
//! spec in `crates/bft/tests/oracle_spec.rs`.

use am_bench::recorder::Recorder;
use am_bft::FinalityOracle;
use am_core::{MsgId, GENESIS};
use am_net::{LatencyModel, NetConfig};
use am_protocols::{run_bft, run_bft_net, BftAdversary, Params};
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

/// Watermark after every block, one long-lived oracle.
fn trajectory_incremental(n: usize, blocks: &[(MsgId, usize, Vec<MsgId>)]) -> u64 {
    let mut oracle = FinalityOracle::new(n);
    let mut acc = 0u64;
    for (id, author, parents) in blocks {
        oracle.observe(*id, *author, parents);
        acc += oracle.finalized_height() as u64;
    }
    acc
}

/// The `bft/*` ledger lanes. ns per [`FinalityOracle::observe`] on the
/// honest-append shape: the 400-block watermark trajectory at n = 8, and
/// 20 rounds of blocks at n = 12 and n = 48. This shape finalizes a
/// height per block, so every observe pays a full passing scan; n = 48
/// must still cost far less than the 16× of a rule that walks the quorum
/// and the clique per block. Then one end-to-end finality trial at E15's
/// own grid point (n = 12, k = 9), fault-free and at the tolerance edge,
/// and one networked trial at `bft_finality`'s third point (t = 3
/// equivocators, 10 % drops at 0.05 Δ: twelve per-node views over one
/// table, the workload's dominant cost).
fn main() {
    let mut rec = Recorder::layer("bft");
    let budget = Duration::from_millis(700);
    for (op, n, total) in [
        ("bft/watermark_trajectory_n8", 8usize, 400usize),
        ("bft/observe_ns_n12", 12, 240),
        ("bft/observe_ns_n48", 48, 960),
    ] {
        let blocks = make_blocks(n, total);
        rec.measure_absolute(op, total as u64, budget, || {
            black_box(trajectory_incremental(n, &blocks))
        });
    }
    for (op, t, adv) in [
        ("bft/e15_cell_t0", 0, BftAdversary::Absent),
        ("bft/e15_cell_t2_equivocator", 2, BftAdversary::Equivocator),
    ] {
        rec.measure_absolute(op, 1, budget, || {
            let p = Params::new(12, t, 0.5, 9, 0x15);
            black_box(run_bft(&p, adv).finalized_height)
        });
    }
    let lossy = NetConfig::builder()
        .latency(LatencyModel::Constant(50_000_000))
        .drop(0.1)
        .build()
        .expect("static config");
    let p = Params::new(12, 3, 0.5, 9, 0x15);
    let op = "bft/net_trial_n12_t3_equivocator_drop0.1";
    rec.measure_absolute(op, 1, budget, || {
        let (trial, _) = run_bft_net(&p, BftAdversary::Equivocator, &lossy);
        black_box(trial.finalized_height)
    });
    rec.write().unwrap_or_else(|e| panic!("{e}"));
}
