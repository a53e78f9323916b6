//! E13 — decision latency: the throughput half of "why BlockDAGs excel".
//!
//! Both Algorithm 5 and Algorithm 6 gate their decision on k values, but
//! they *collect* them at very different speeds. The chain's useful
//! growth saturates at ≈ 1 block per Δ no matter how high the append
//! rate (everything concurrent forks and is orphaned), so its latency is
//! ≈ k·Δ. The DAG wastes nothing: it covers k values at the full system
//! rate λn/Δ, so its latency is ≈ kΔ/(λn) — and drops as λ grows.
//!
//! The paper's Section 5.3 frames this as the DAG's "inclusive strategy";
//! the cited Conflux work \[14\] is precisely about turning that inclusion
//! into throughput. This experiment measures the crossover.

use crate::report::{f, Report};
use crate::RunCtx;
use am_protocols::{run_chain, run_dag, ChainAdversary, DagAdversary, DagRule, Params, TieBreak};
use am_stats::{Series, Summary, Table};

/// Runs E13. Latencies are means, not Bernoulli tallies, so this
/// experiment stays on plain Summary loops (only `--fast` shrinks them).
pub fn run(ctx: &RunCtx, rep: &mut Report) {
    let seed = ctx.opts.seed;
    let n = 12usize;
    let t = 0usize; // latency is a correct-side property; adversaries only add to it
    let k = 41usize;
    let reps = ctx.budget(40);

    let mut table = Table::new(
        "mean time to decision (n = 12, t = 0, k = 41)",
        &[
            "λ",
            "chain latency",
            "≈ k·Δ",
            "dag latency",
            "≈ kΔ/(λn)",
            "chain total appends",
            "dag total appends",
        ],
    );
    let mut s_chain = Series::new("chain latency");
    let mut s_dag = Series::new("dag latency");
    for &lambda in &[0.1f64, 0.2, 0.4, 0.8, 1.6] {
        let mut chain_t = Summary::new();
        let mut dag_t = Summary::new();
        let mut chain_total = Summary::new();
        let mut dag_total = Summary::new();
        for s in 0..reps {
            let p = Params::new(n, t, lambda, k, seed ^ s);
            let c = run_chain(&p, TieBreak::Randomized, ChainAdversary::Absent);
            let d = run_dag(&p, DagRule::LongestChain, DagAdversary::Absent);
            chain_t.add(c.finish_time);
            dag_t.add(d.finish_time);
            chain_total.add(c.total_appends as f64);
            dag_total.add(d.total_appends as f64);
        }
        table.row(&[
            f(lambda),
            f(chain_t.mean()),
            f(k as f64),
            f(dag_t.mean()),
            f(k as f64 / (lambda * n as f64)),
            f(chain_total.mean()),
            f(dag_total.mean()),
        ]);
        s_chain.push(lambda, chain_t.mean());
        s_dag.push(lambda, dag_t.mean());
    }
    rep.tables.push(table);
    rep.series.push(s_chain);
    rep.series.push(s_dag);
    rep.note(
        "The chain's latency is pinned near k·Δ at every rate — raising λ \
         only raises the number of appends burned as orphans. The DAG's \
         latency falls like kΔ/(λn): inclusion converts the full append \
         rate into decision progress.",
    );
    rep.note(
        "Together with E10 this is the complete case for BlockDAGs: same \
         or better resilience AND rate-proportional latency.",
    );
}
