//! E17 — orphaning vs topology: graph diameter is the chain's enemy.
//!
//! The paper's chain-vs-DAG gap (Theorems 5.4/5.6) is usually measured
//! over an abstract synchronous round or, in E14, a full-mesh simulated
//! network. Real block gossip runs over sparse overlays: bounded-degree
//! relay graphs and geo-clustered regions where an announcement takes
//! *diameter* hops to cross the world. Every extra hop widens the window
//! in which correct nodes build on stale tips — forks the exclusive
//! chain orphans and the inclusive DAG absorbs.
//!
//! Three measurements over the same protocol parameters
//! (n = 48, λ = 0.1, k = 15, 0.05 Δ per-hop latency — a mean
//! inter-grant gap of ~0.2 Δ, so the 1-hop mesh rarely forks and any
//! extra orphaning is the overlay's doing):
//!
//! 1. **Topology census** — diameter, gossip-link count, and regions of
//!    each overlay actually instantiated for the trials.
//! 2. **Inclusion without an adversary** (t = 0) — the kept fraction of
//!    honest appends and the chain's orphans per trial, per topology:
//!    pure propagation damage.
//! 3. **Validity under attack** (t = 12) — the sweep engine measures
//!    chain and DAG failure rates per topology; the gap tracks the
//!    census diameter, not the link count.

use crate::report::{f, Report};
use crate::{RunCtx, CHAIN_VS_DAG};
use am_net::{LatencyModel, NetConfig, Topology};
use am_protocols::{
    run_chain_net, run_dag_net, ChainAdversary, DagAdversary, DagRule, Params, TieBreak,
};
use am_stats::{Series, Table};

/// One Δ of the protocol clock in network nanoseconds.
const DELTA_NS: u64 = 1_000_000_000;

/// Per-hop gossip latency: 0.05 Δ, E14's block-propagation constant.
const HOP_NS: u64 = DELTA_NS / 20;

/// Nodes per trial — large enough that relay graphs and 8-region geo
/// clusters have real diameters, small enough for fixed-budget sweeps.
const N: usize = 48;

/// The overlays under test, in presentation order.
fn overlays() -> Vec<(&'static str, NetConfig)> {
    let base = LatencyModel::Constant(HOP_NS);
    let geo = |regions| Topology::Geo {
        regions,
        k: 8,
        inter: LatencyModel::Constant(am_net::topology::GEO_DEFAULT_INTER_NS),
    };
    let cfg = |t: Topology| {
        NetConfig::builder()
            .latency(base)
            .topology(t)
            .build()
            .expect("static overlay configs are valid")
    };
    vec![
        ("mesh", cfg(Topology::FullMesh)),
        (
            "mesh/f6",
            NetConfig::builder()
                .latency(base)
                .fanout(6)
                .build()
                .expect("static overlay configs are valid"),
        ),
        ("relay:4", cfg(Topology::Relay { k: 4 })),
        ("relay:8", cfg(Topology::Relay { k: 8 })),
        ("geo:4", cfg(geo(4))),
        ("geo:8", cfg(geo(8))),
    ]
}

/// Runs E17.
pub fn run(ctx: &RunCtx, rep: &mut Report) {
    let seed = ctx.opts.seed;
    let overlays = overlays();

    // --- Part 1: census of the instantiated overlays. ---
    let census = am_obs::span("census");
    let mut table1 = Table::new(
        format!("overlay census at n = {N} (as instantiated for the trials)"),
        &["topology", "diameter", "gossip links", "regions", "fanout"],
    );
    let mut diameters = Vec::new();
    for (name, cfg) in &overlays {
        // Same seed domain the propagation layer uses, so the census
        // describes the very graphs the trials gossip over.
        let map = cfg.topology.instantiate(N, seed ^ 0x6e57_c0de);
        assert!(map.connected(), "{name}: overlay must be connected");
        diameters.push(map.diameter());
        table1.row(&[
            name.to_string(),
            map.diameter().to_string(),
            map.link_count().to_string(),
            cfg.topology.regions().to_string(),
            cfg.fanout.map_or("-".to_string(), |f| f.to_string()),
        ]);
    }
    rep.tables.push(table1);
    rep.note(
        "Sparser overlays trade links for hops: the mesh reaches everyone \
         in 1 hop over O(n²) links; relay:k needs O(log n) hops over kn/2 \
         links; geo overlays add one long-haul latency class between \
         regions on top of the hop count.",
    );
    drop(census);

    // --- Part 2: propagation damage alone (t = 0, no adversary). ---
    let part2 = am_obs::span("inclusion");
    let lambda = 0.1;
    let k = 15;
    let reps = ctx.budget(12);
    let mut table2 = Table::new(
        "honest-only inclusion (t = 0): kept fraction of appends",
        &["topology", "chain kept", "dag kept", "chain orphans/trial"],
    );
    let mut s_orphans = Series::new("chain orphans/trial vs overlay diameter");
    for ((name, cfg), diam) in overlays.iter().zip(&diameters) {
        let (mut ck, mut dk, mut orphans) = (0.0f64, 0.0f64, 0u64);
        for s in 0..reps {
            let p = Params::new(N, 0, lambda, k, seed ^ 0x17 ^ (s * 0x9e37));
            let (ct, _) = run_chain_net(&p, TieBreak::Randomized, ChainAdversary::Absent, cfg);
            let (dt, _) = run_dag_net(&p, DagRule::LongestChain, DagAdversary::Absent, cfg);
            ck += ct.chain_len as f64 / ct.total_appends.max(1) as f64;
            dk += dt.covered_values as f64 / dt.total_appends.max(1) as f64;
            orphans += ct.orphaned_correct as u64;
        }
        let (ck, dk) = (ck / reps as f64, dk / reps as f64);
        table2.row(&[
            name.to_string(),
            f(ck),
            f(dk),
            format!("{:.1}", orphans as f64 / reps as f64),
        ]);
        s_orphans.push(*diam as f64, orphans as f64 / reps as f64);
    }
    rep.tables.push(table2);
    rep.series.push(s_orphans);
    rep.note(
        "With zero Byzantine nodes every lost block is pure propagation \
         damage: a node that hasn't heard the latest tip forks, the chain \
         orphans the shorter branch, the DAG keeps both. Orphans grow \
         with overlay diameter — a block now needs several 0.05 Δ hops \
         (plus a long-haul hop across regions) before the world builds \
         on it.",
    );
    drop(part2);

    // --- Part 3: the gap under attack, per topology. ---
    let _part3 = am_obs::span("validity");
    let mut sweep = ctx.sweep();
    let t = 12; // 25% Byzantine — inside both thresholds at this λ, k
    let trials = ctx.budget(24);
    let mut table3 = Table::new(
        format!("validity failure under attack (n = {N}, t = {t}, λ = {lambda}, k = {k})"),
        &[
            "topology",
            "diameter",
            "chain failure",
            "dag failure",
            "gap",
        ],
    );
    let mut s_chain = Series::new("chain failure vs overlay diameter");
    let mut s_dag = Series::new("dag failure vs overlay diameter");
    for ((name, cfg), diam) in overlays.iter().zip(&diameters) {
        let p = Params::new(N, t, lambda, k, seed ^ 0x1717).with_net(*cfg);
        let [c, d] = sweep.row(name, &p, &CHAIN_VS_DAG, trials);
        table3.row(&[name.to_string(), diam.to_string(), f(c), f(d), f(c - d)]);
        s_chain.push(*diam as f64, c);
        s_dag.push(*diam as f64, d);
    }
    rep.tables.push(table3);
    rep.series.push(s_chain);
    rep.series.push(s_dag);
    rep.record_sweep("chain vs dag across overlays", sweep.points);
    rep.note(
        "The adversary's leverage is the fork supply, and sparse overlays \
         manufacture forks for free: chain failure climbs with diameter \
         while the DAG's inclusion keeps its failure rate nearly flat — \
         the paper's gap widens exactly where real deployments live.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlays_are_valid_and_connected_at_trial_size() {
        for (name, cfg) in overlays() {
            for seed in [0u64, 1, 0xfeed] {
                let map = cfg.topology.instantiate(N, seed);
                assert!(map.connected(), "{name} disconnected at seed {seed}");
                assert!(map.diameter() >= 1);
            }
        }
    }

    #[test]
    fn honest_mesh_trials_keep_nearly_everything() {
        // Sanity floor for part 2: on the 1-hop mesh at 0.05 Δ latency,
        // honest chains keep most appends and the DAG keeps them all.
        let (_, cfg) = &overlays()[0];
        let p = Params::new(N, 0, 0.1, 15, 7);
        let (ct, _) = run_chain_net(&p, TieBreak::Randomized, ChainAdversary::Absent, cfg);
        let (dt, _) = run_dag_net(&p, DagRule::LongestChain, DagAdversary::Absent, cfg);
        assert!(ct.chain_len as f64 / ct.total_appends as f64 > 0.6);
        assert_eq!(dt.covered_values, dt.total_appends);
    }
}
