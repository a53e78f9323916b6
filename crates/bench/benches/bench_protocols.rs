//! The `protocols/*` lanes of the perf ledger: what one trial of
//! Algorithms 4, 5 and 6 costs across rates, sizes and adversaries, and
//! ablation A5 (the two view policies).

use am_bench::recorder::Recorder;
use am_core::{NodeId, Time, Value, GENESIS};
use am_protocols::{
    run_chain, run_dag, run_timestamp, ChainAdversary, DagAdversary, DagRule, Params, TieBreak,
    TrialDag, ViewPolicy,
};
use std::hint::black_box;
use std::time::Duration;

/// One E8-shaped sweep grid (λ × t, 35 DAG trials) end-to-end: the rate
/// and threat axes of experiment E8 driven through the Algorithm-6 hot
/// loop.
fn dag_grid() -> usize {
    let mut acc = 0usize;
    for (li, lambda) in [0.05f64, 0.1, 0.2, 0.4, 0.8].into_iter().enumerate() {
        for t in 1..=7usize {
            let p = Params::new(12, t, lambda, 41, (li * 100 + t) as u64);
            acc += run_dag(&p, DagRule::LongestChain, DagAdversary::Dissenter).covered_values;
        }
    }
    acc
}

/// Four seeds of one `run_dag` configuration.
fn trial_set(n: usize, t: usize, rule: DagRule, adv: DagAdversary) -> usize {
    (0..4u64)
        .map(|seed| run_dag(&Params::new(n, t, 1.6, 15, seed), rule, adv).covered_values)
        .sum()
}

/// Four seeds of one randomized-tie-break `run_chain` configuration
/// against the tie-breaker adversary (E8's pairing).
fn chain_set(base: &Params) -> usize {
    (0..4u64)
        .map(|seed| {
            let p = base.with_seed(seed);
            run_chain(&p, TieBreak::Randomized, ChainAdversary::TieBreaker).chain_len
        })
        .sum()
}

fn main() {
    let mut rec = Recorder::layer("protocols");
    let budget = Duration::from_millis(800);
    // The quadratic regime: at λ = 1.6 per node every Δ-interval carries
    // ~λ·n grants and the interval-snapshot lag keeps the gate short of k
    // for a whole interval, so the per-grant gate cost dominates a trial.
    for (name, rule) in [
        ("longest", DagRule::LongestChain),
        ("ghost", DagRule::Ghost),
    ] {
        rec.measure_absolute(
            &format!("protocols/run_dag_{name}_quadratic_lam1.6_k15"),
            4,
            budget,
            || black_box(trial_set(96, 31, rule, DagAdversary::Absent)),
        );
    }
    // Lemma 5.5 withhold-burst at small n: short trials dominated by
    // shared token-stream and append costs.
    rec.measure_absolute(
        "protocols/run_dag_withhold_longest_n48_lam1.6_k15",
        4,
        budget,
        || {
            black_box(trial_set(
                48,
                15,
                DagRule::LongestChain,
                DagAdversary::WithholdBurst,
            ))
        },
    );
    rec.measure_absolute(
        "protocols/e8_grid_dag_longest_dissenter",
        35,
        budget,
        || black_box(dag_grid()),
    );
    // Algorithm 5 at the withhold lane's size and rate, and Algorithm 4
    // at E6's mid k.
    let chain = Params::new(48, 15, 1.6, 15, 0);
    rec.measure_absolute(
        "protocols/run_chain_tiebreaker_n48_lam1.6_k15",
        4,
        budget,
        || black_box(chain_set(&chain)),
    );
    let stamp = Params::new(32, 10, 1.0, 201, 5);
    rec.measure_absolute("protocols/run_timestamp_n32_k201", 1, budget, || {
        black_box(run_timestamp(&stamp).byz_in_prefix)
    });
    // A5: the same chain trial under interval-snapshot and lagged-Δ
    // views (that both reach the same verdicts is
    // `view_policies_agree_on_the_threshold_shape`).
    for (name, vp) in [
        ("interval", ViewPolicy::IntervalSnapshot),
        ("lagged", ViewPolicy::LaggedDelta),
    ] {
        let p = Params::new(12, 4, 0.4, 41, 0).with_view_policy(vp);
        rec.measure_absolute(&format!("protocols/a5_chain_{name}"), 4, budget, || {
            black_box(chain_set(&p))
        });
    }
    // The arena under every runner above: reset, then a trial-sized
    // history of two-parent appends into warm columns, ns per append.
    const HISTORY: u64 = 40;
    let mut dag = TrialDag::new(12);
    rec.measure_absolute("protocols/trial_dag_append_ns", HISTORY, budget, || {
        dag.reset(12);
        let (mut older, mut newer) = (GENESIS, GENESIS);
        for i in 0..HISTORY {
            let parents = [newer, older];
            let parents = if i == 0 { &parents[..1] } else { &parents[..] };
            let at = Time::new(i as f64);
            let id = dag.append(NodeId(i as u32 % 12), Value::plus(), parents, at);
            (older, newer) = (newer, id.expect("parents exist"));
        }
        black_box(newer)
    });
    rec.write().unwrap_or_else(|e| panic!("{e}"));
}
