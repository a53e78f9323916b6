//! E14 — when do the guarantees survive a faulty network?
//!
//! Every Section 4/5 result assumes reliable delivery. This experiment
//! reruns the key measurements over the `am-net` discrete-event simulator
//! (E4 already runs on its fault-free zero-latency form) and sweeps its
//! fault injectors:
//!
//! 1. **ABD vs drops** — message loss turns into liveness loss (stalled
//!    operations), never safety loss: every completed append stays
//!    visible to every completed read at every drop rate.
//! 2. **ABD vs partitions** — during a half/half partition the minority
//!    side loses its quorum and stalls; the majority side keeps
//!    completing. The window length controls how many operations die.
//! 3. **Chain vs DAG under drops and partitions** — the validity gap of
//!    E8/E9 degrades as delivery decays: stale views make correct nodes
//!    fork, the exclusive chain orphans those forks (free slots for the
//!    adversary) while the inclusive DAG recovers whatever arrives.
//!
//! Alongside `<out-dir>/e14.json`, per-link/per-kind network statistics
//! snapshots are saved as the `e14.netstats.json` side-car document.

use crate::report::{f, Report};
use crate::{RunCtx, CHAIN_VS_DAG};
use am_mp::{MpMsg, MpSystem, Payload};
use am_net::{LatencyModel, NetConfig, SimNet};
use am_protocols::{
    run_chain_net, run_dag_net, ChainAdversary, DagAdversary, DagRule, Params, TieBreak,
};
use am_stats::{Series, Table};
use serde::Value;

/// One Δ of the protocol clock in network nanoseconds (matches
/// `am_protocols::propagation`).
const DELTA_NS: u64 = 1_000_000_000;

/// Outcome counts of one ABD run over a faulty profile.
struct AbdOutcome {
    appends_ok: u32,
    reads_ok: u32,
    stalled: u32,
    safety_violations: u32,
}

/// Issues `rounds` append+read pairs from rotating nodes and checks that
/// every completed append stays visible to every later completed read.
/// Returns the outcome and the substrate (for its statistics).
fn abd_script(
    n: usize,
    cfg: &NetConfig,
    seed: u64,
    rounds: usize,
) -> (AbdOutcome, SimNet<Payload>) {
    let net: SimNet<Payload> = cfg.build_net(n, seed);
    let mut sys = MpSystem::with_transport(net, &[], seed);
    let mut out = AbdOutcome {
        appends_ok: 0,
        reads_ok: 0,
        stalled: 0,
        safety_violations: 0,
    };
    let mut completed: Vec<MpMsg> = Vec::new();
    for i in 0..rounds {
        match sys.append(i % n, 1) {
            Ok(m) => {
                out.appends_ok += 1;
                completed.push(m);
            }
            Err(_) => out.stalled += 1,
        }
        match sys.read((i + 1) % n) {
            Ok(view) => {
                out.reads_ok += 1;
                if completed.iter().any(|m| !view.contains(m)) {
                    out.safety_violations += 1;
                }
            }
            Err(_) => out.stalled += 1,
        }
    }
    (out, sys.into_transport())
}

/// Runs E14.
pub fn run(ctx: &RunCtx, rep: &mut Report) {
    let seed = ctx.opts.seed;

    let part1 = am_obs::span("abd_drops");

    // --- Part 1: ABD under message drops. ---
    let n = 5usize;
    let rounds = 4usize;
    let trials = ctx.budget(25);
    let latency = LatencyModel::Exponential { mean: 1_000_000 };
    let mut table2 = Table::new(
        "ABD (n = 5) vs drop rate: stalls rise, safety never breaks",
        &[
            "drop",
            "appends ok",
            "reads ok",
            "stalled ops",
            "safety violations",
        ],
    );
    let mut s_stall = Series::new("stalled fraction vs drop rate");
    let mut netstats_abd: Option<Value> = None;
    for &drop in &[0.0f64, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5] {
        let profile = NetConfig::builder()
            .latency(latency)
            .drop(drop)
            .build()
            .expect("valid config");
        let (mut ok_a, mut ok_r, mut stalled, mut viol) = (0u32, 0u32, 0u32, 0u32);
        for s in 0..trials {
            let (o, net) = abd_script(n, &profile, seed ^ 0xe14 ^ (s << 8), rounds);
            ok_a += o.appends_ok;
            ok_r += o.reads_ok;
            stalled += o.stalled;
            viol += o.safety_violations;
            if drop == 0.2 && s == 0 {
                netstats_abd = Some(net.stats().to_json());
            }
        }
        let per_side = (trials as u32) * (rounds as u32);
        table2.row(&[
            f(drop),
            format!("{ok_a}/{per_side}"),
            format!("{ok_r}/{per_side}"),
            stalled.to_string(),
            viol.to_string(),
        ]);
        s_stall.push(drop, stalled as f64 / (2 * per_side) as f64);
        if viol > 0 {
            rep.note(format!(
                "SAFETY VIOLATED at drop rate {drop} — quorum intersection \
                 should make this impossible"
            ));
        }
    }
    rep.tables.push(table2);
    rep.series.push(s_stall);
    rep.note(
        "Drops cost liveness only: operations stall when a quorum of \
         responses is lost (there are no retransmissions), but no completed \
         append ever goes missing from a completed read — Lemma 4.2's \
         quorum intersection is drop-proof.",
    );

    drop(part1);
    let part2 = am_obs::span("abd_partition");

    // --- Part 2: ABD under a half/half partition. ---
    // Minority side = nodes {0, 1}; window lengths in units of the mean
    // link latency (1e6 ns). Appends alternate sides.
    let mut table3 = Table::new(
        "ABD (n = 5) vs partition window (exp latency, mean 1e6 ns)",
        &[
            "window / mean latency",
            "minority ok",
            "majority ok",
            "stalled",
        ],
    );
    for &win in &[0u64, 2, 10, 50] {
        let profile = NetConfig::builder()
            .latency(latency)
            .partition(0, win * 1_000_000)
            .build()
            .expect("valid config");
        let (mut min_ok, mut maj_ok, mut stalled) = (0u32, 0u32, 0u32);
        for s in 0..trials {
            let net: SimNet<Payload> = profile.build_net(n, seed ^ 0xabd ^ (s << 8));
            let mut sys = MpSystem::with_transport(net, &[], seed ^ 0xabd ^ (s << 8));
            for i in 0..8 {
                let node = if i % 2 == 0 {
                    (i / 2) % 2 // minority side: 0, 1
                } else {
                    2 + (i / 2) % 3 // majority side: 2, 3, 4
                };
                match sys.append(node, 1) {
                    Ok(_) => {
                        if node < 2 {
                            min_ok += 1;
                        } else {
                            maj_ok += 1;
                        }
                    }
                    Err(_) => stalled += 1,
                }
            }
        }
        table3.row(&[
            win.to_string(),
            min_ok.to_string(),
            maj_ok.to_string(),
            stalled.to_string(),
        ]);
    }
    rep.tables.push(table3);
    rep.note(
        "Partitions split liveness asymmetrically: the 3-node side keeps a \
         quorum and completes every append; the 2-node side stalls until \
         simulated time crosses the heal boundary.",
    );

    drop(part2);
    let part3 = am_obs::span("chain_vs_dag");

    // --- Part 3: chain vs DAG validity as delivery degrades. ---
    let mut sweep = ctx.sweep();
    let pn = 12usize;
    let pt = 4usize;
    let lambda = 0.5;
    let k = 21usize;
    let ptrials = ctx.budget(32);
    let block_latency = LatencyModel::Constant(DELTA_NS / 20); // 0.05 Δ

    let mut table4 = Table::new(
        "validity failure vs drop rate (n = 12, t = 4, λ = 0.5, k = 21)",
        &["drop", "chain failure", "dag failure", "gap"],
    );
    let mut s_chain = Series::new("chain failure vs drop");
    let mut s_dag = Series::new("dag failure vs drop");
    for &drop in &[0.0f64, 0.1, 0.2, 0.3, 0.5] {
        let profile = NetConfig::builder()
            .latency(block_latency)
            .drop(drop)
            .build()
            .expect("valid config");
        let p = Params::new(pn, pt, lambda, k, seed ^ 0x14).with_net(profile);
        let [c, d] = sweep.row(&format!("drop{drop}"), &p, &CHAIN_VS_DAG, ptrials);
        table4.row(&[f(drop), f(c), f(d), f(c - d)]);
        s_chain.push(drop, c);
        s_dag.push(drop, d);
    }
    rep.tables.push(table4);
    rep.series.push(s_chain);
    rep.series.push(s_dag);

    // Validity alone understates the damage (heavy drops also strand the
    // adversary's withheld burst); inclusion shows it directly: what
    // fraction of the appended blocks does each structure keep?
    let inc_trials = ctx.budget(12);
    let mut table4b = Table::new(
        "block inclusion vs drop rate (kept fraction of all appends)",
        &["drop", "chain kept", "dag kept", "chain orphans/trial"],
    );
    let mut s_ckept = Series::new("chain kept vs drop");
    let mut s_dkept = Series::new("dag kept vs drop");
    for &drop in &[0.0f64, 0.1, 0.2, 0.3, 0.5] {
        let profile = NetConfig::builder()
            .latency(block_latency)
            .drop(drop)
            .build()
            .expect("valid config");
        let (mut ck, mut dk, mut orphans) = (0.0f64, 0.0f64, 0u64);
        for s in 0..inc_trials {
            let p = Params::new(pn, pt, lambda, k, seed ^ 0x17 ^ (s * 0x9e37));
            let (ct, _) = run_chain_net(
                &p,
                TieBreak::Randomized,
                ChainAdversary::TieBreaker,
                &profile,
            );
            let (dt, _) = run_dag_net(
                &p,
                DagRule::LongestChain,
                DagAdversary::WithholdBurst,
                &profile,
            );
            ck += ct.chain_len as f64 / ct.total_appends.max(1) as f64;
            dk += dt.covered_values as f64 / dt.total_appends.max(1) as f64;
            orphans += ct.orphaned_correct as u64;
        }
        let (ck, dk) = (ck / inc_trials as f64, dk / inc_trials as f64);
        table4b.row(&[
            f(drop),
            f(ck),
            f(dk),
            format!("{:.1}", orphans as f64 / inc_trials as f64),
        ]);
        s_ckept.push(drop, ck);
        s_dkept.push(drop, dk);
    }
    rep.tables.push(table4b);
    rep.series.push(s_ckept);
    rep.series.push(s_dkept);
    rep.note(
        "Validity alone hides the damage — heavy drops also strand the \
         adversary's withheld burst, so the decided sign stays +1. \
         Inclusion shows it: the chain's kept fraction collapses as stale \
         views multiply forks, while the DAG keeps every block that \
         reaches anyone — the paper's inclusivity argument, measured on a \
         lossy wire.",
    );

    let mut table5 = Table::new(
        "validity failure vs partition window in Δ (same params, no drops)",
        &["window (Δ)", "chain failure", "dag failure", "gap"],
    );
    for &win in &[0u64, 2, 5, 10] {
        let profile = NetConfig::builder()
            .latency(block_latency)
            .partition(0, win * DELTA_NS)
            .build()
            .expect("valid config");
        let p = Params::new(pn, pt, lambda, k, seed ^ 0x15).with_net(profile);
        let [c, d] = sweep.row(&format!("part{win}"), &p, &CHAIN_VS_DAG, ptrials);
        table5.row(&[win.to_string(), f(c), f(d), f(c - d)]);
    }
    rep.tables.push(table5);
    rep.record_sweep("chain vs dag under faults", sweep.points);
    rep.note(
        "The chain-vs-DAG gap survives moderate faults but narrows as \
         delivery decays: stale views make every correct node fork, which \
         the chain turns into orphans (more decision slots for the \
         adversary) while the DAG re-includes whatever eventually arrives. \
         With no retransmission, heavy loss eventually hurts both.",
    );

    drop(part3);
    let _part4 = am_obs::span("netstats");

    // --- Network observability snapshots → the e14.netstats.json side-car. ---
    let profile = NetConfig::builder()
        .latency(block_latency)
        .drop(0.2)
        .trace(true)
        .build()
        .expect("valid config");
    let p = Params::new(pn, pt, lambda, k, seed ^ 0x16);
    let (_, chain_stats) = run_chain_net(
        &p,
        TieBreak::Randomized,
        ChainAdversary::TieBreaker,
        &profile,
    );
    let (_, dag_stats) = run_dag_net(
        &p,
        DagRule::LongestChain,
        DagAdversary::WithholdBurst,
        &profile,
    );
    let mut sections = vec![
        ("chain_drop_0.2".to_string(), chain_stats.to_json()),
        ("dag_drop_0.2".to_string(), dag_stats.to_json()),
    ];
    if let Some(abd) = netstats_abd {
        sections.insert(0, ("abd_drop_0.2".to_string(), abd));
    }
    let stats_doc = Value::Object(sections);
    if let Ok(body) = serde_json::to_string_pretty(&stats_doc) {
        rep.extra_json("e14.netstats.json", body);
        rep.note("Per-link/per-kind network statistics saved as e14.netstats.json.");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abd_script_is_safe_and_stalls_under_heavy_drops() {
        let clean = NetConfig::ideal(LatencyModel::Constant(1000));
        let (o, _) = abd_script(5, &clean, 7, 4);
        assert_eq!(o.appends_ok, 4);
        assert_eq!(o.reads_ok, 4);
        assert_eq!(o.stalled, 0);
        assert_eq!(o.safety_violations, 0);

        let lossy = NetConfig::builder()
            .latency(LatencyModel::Constant(1000))
            .drop(0.5)
            .build()
            .unwrap();
        let mut stalled = 0;
        for s in 0..10 {
            let (o, _) = abd_script(5, &lossy, s, 4);
            assert_eq!(o.safety_violations, 0, "drops must never break safety");
            stalled += o.stalled;
        }
        assert!(stalled > 0, "50% drops must stall some operations");
    }
}
