//! A `Params` that names a network runs its trial over that network.
//!
//! `Params::net` says a trial propagates its blocks over an `am-net`
//! simulator instead of reading the abstract interval-snapshot views. The
//! public entries `run_chain`, `run_dag` and `run_bft` — and through them
//! every sweep — honour it: at equal seeds each returns exactly what the
//! explicitly networked `run_*_net` returns for the same config, and
//! something other than its abstract run somewhere in the grid (so a
//! dispatch that ignored `p.net` would fail here).

use am_net::{LatencyModel, NetConfig};
use am_protocols::{
    run_bft, run_bft_net, run_chain, run_chain_net, run_dag, run_dag_net, BftAdversary,
    ChainAdversary, DagAdversary, DagRule, Params, TieBreak,
};

/// Δ = 1 s of simulated time; a lossy, reordering, duplicating network
/// whose latency is a sizeable share of it.
fn lossy() -> NetConfig {
    NetConfig::builder()
        .latency(LatencyModel::Exponential { mean: 300_000_000 })
        .drop(0.2)
        .dup(0.1)
        .reorder(0.2)
        .build()
        .expect("valid config")
}

const SEEDS: [u64; 2] = [3, 11];

#[test]
fn run_chain_honours_p_net() {
    let cfg = lossy();
    let mut differs = false;
    for seed in SEEDS {
        let p = Params::new(8, 2, 0.8, 9, seed);
        for adv in [ChainAdversary::Absent, ChainAdversary::ForkMaker] {
            let net = run_chain(&p.with_net(cfg), TieBreak::Randomized, adv);
            let (want, _) = run_chain_net(&p, TieBreak::Randomized, adv, &cfg);
            assert_eq!(net, want, "seed {seed} {adv:?}");
            differs |= net != run_chain(&p, TieBreak::Randomized, adv);
        }
    }
    assert!(differs, "the network never changed a chain trial");
}

#[test]
fn run_dag_honours_p_net() {
    let cfg = lossy();
    let mut differs = false;
    for seed in SEEDS {
        let p = Params::new(8, 2, 0.8, 9, seed);
        for (rule, adv) in [
            (DagRule::LongestChain, DagAdversary::Absent),
            (DagRule::Ghost, DagAdversary::WithholdBurst),
        ] {
            let net = run_dag(&p.with_net(cfg), rule, adv);
            let (want, _) = run_dag_net(&p, rule, adv, &cfg);
            assert_eq!(net, want, "seed {seed} {rule:?} {adv:?}");
            differs |= net != run_dag(&p, rule, adv);
        }
    }
    assert!(differs, "the network never changed a DAG trial");
}

#[test]
fn run_bft_honours_p_net() {
    let cfg = lossy();
    let mut differs = false;
    for seed in SEEDS {
        let p = Params::new(8, 2, 0.5, 6, seed);
        for adv in [BftAdversary::Absent, BftAdversary::Equivocator] {
            let net = run_bft(&p.with_net(cfg), adv);
            let (want, _) = run_bft_net(&p, adv, &cfg);
            assert_eq!(net, want, "seed {seed} {adv:?}");
            differs |= net != run_bft(&p, adv);
        }
    }
    assert!(differs, "the network never changed a BFT trial");
}
