//! E10 — the headline crossover: chain resilience decays with the rate,
//! DAG resilience stays flat near 1/2. "Why BlockDAGs excel blockchains."

use crate::e8::{chain_bound, empirical_resilience, CHAIN_KINDS, DAG_KINDS, LAMBDA_SWEEP};
use crate::report::{f, Report};
use crate::RunCtx;
use am_stats::{Series, Table};

/// Runs E10.
pub fn run(ctx: &RunCtx, rep: &mut Report) {
    let mut sweep = ctx.sweep();

    let mut table = Table::new(
        "resilience vs per-node rate λ (n = 12, worst adversary each)",
        &[
            "λ",
            "chain measured",
            "chain bound",
            "dag measured",
            "dag bound",
        ],
    );
    let mut s_chain = Series::new("chain (measured)");
    let mut s_dag = Series::new("dag (measured)");
    let mut s_cbound = Series::new("chain 1/(1+λ(n-t*))");
    let mut s_dbound = Series::new("dag 1/2");
    for &lambda in &LAMBDA_SWEEP {
        // Chain, then DAG, per λ: the JSON's sweep record pins this order.
        let chain_r = empirical_resilience(
            ctx,
            &mut sweep,
            &format!("chain/l{lambda}"),
            lambda,
            &CHAIN_KINDS,
        );
        let dag_r = empirical_resilience(
            ctx,
            &mut sweep,
            &format!("dag/l{lambda}"),
            lambda,
            &DAG_KINDS,
        );
        let (_, cbound) = chain_bound(lambda);
        table.row(&[f(lambda), f(chain_r), f(cbound), f(dag_r), f(0.5)]);
        s_chain.push(lambda, chain_r);
        s_dag.push(lambda, dag_r);
        s_cbound.push(lambda, cbound);
        s_dbound.push(lambda, 0.5);
    }
    rep.tables.push(table);
    rep.series.push(s_chain);
    rep.series.push(s_dag);
    rep.series.push(s_cbound);
    rep.series.push(s_dbound);
    rep.record_sweep("crossover probes", sweep.points);
    rep.note(
        "The crossover the title promises: as λ grows, the chain's tolerable \
         Byzantine fraction collapses toward zero while the DAG holds near \
         the optimal 1/2 — the DAG's inclusivity makes its resilience \
         independent of the append rate.",
    );
}
