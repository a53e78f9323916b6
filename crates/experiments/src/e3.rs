//! E3 — Theorem 3.2: Algorithm 1 solves Byzantine agreement for t < n/2
//! in t+1 rounds, and the bound is tight (the dissenter strategy breaks
//! validity at t ≥ n/2).

use crate::report::Report;
use crate::RunCtx;
use am_stats::Table;
use am_sync::{
    run as run_sync, run_crash_one_round, ByzStrategy, ChainInjector, CrashPlan, Dissenter,
    Equivocator, Silent, Straddler, SyncConfig,
};

/// A named constructor for a Byzantine strategy.
type StrategyFactory = (&'static str, fn() -> Box<dyn ByzStrategy>);

/// Strategy constructors — a fresh instance per run, since strategies like
/// the chain injector carry per-run state.
fn strategy_factories() -> Vec<StrategyFactory> {
    vec![
        ("silent", || Box::new(Silent)),
        ("dissenter", || Box::new(Dissenter)),
        ("equivocator", || Box::new(Equivocator)),
        ("straddler", || Box::new(Straddler)),
        ("chain-injector", || Box::new(ChainInjector::default())),
    ]
}

/// All input patterns probed per configuration.
fn input_patterns(n_corr: usize) -> Vec<Vec<bool>> {
    let mut pats = vec![vec![true; n_corr], vec![false; n_corr]];
    pats.push((0..n_corr).map(|i| i % 2 == 0).collect());
    pats.push((0..n_corr).map(|i| i < n_corr / 2).collect());
    pats
}

/// Runs E3 (deterministic; the context's seed is unused).
pub fn run(_ctx: &RunCtx, rep: &mut Report) {
    let mut table = Table::new(
        "Algorithm 1 across n, t, and Byzantine strategies",
        &["n", "t", "rounds", "strategy", "agreement", "validity"],
    );
    let mut all_good_below_half = true;
    let mut dissenter_broke_at_half = false;

    for &(n, t) in &[(4usize, 1u32), (6, 2), (8, 3), (10, 4), (6, 3), (8, 4)] {
        let n_corr = n - t as usize;
        for (name, make) in strategy_factories() {
            let mut agreement_ok = true;
            let mut validity_ok = true;
            for inputs in input_patterns(n_corr) {
                let cfg = SyncConfig::new(n, t);
                let mut strat = make();
                let out = run_sync(&cfg, &inputs, strat.as_mut());
                agreement_ok &= out.agreement;
                validity_ok &= out.validity;
            }
            let below_half = (t as usize) * 2 < n;
            if below_half {
                all_good_below_half &= agreement_ok && validity_ok;
            } else if name == "dissenter" && !validity_ok {
                dissenter_broke_at_half = true;
            }
            table.row(&[
                n.to_string(),
                t.to_string(),
                (t + 1).to_string(),
                name.into(),
                if agreement_ok { "ok" } else { "BROKEN" }.into(),
                if validity_ok { "ok" } else { "BROKEN" }.into(),
            ]);
        }
    }
    rep.tables.push(table);
    rep.note(format!(
        "t < n/2 rows all satisfy agreement and validity under every \
         strategy: {}",
        if all_good_below_half {
            "CONFIRMED"
        } else {
            "VIOLATED"
        }
    ));
    rep.note(format!(
        "t ≥ n/2: the protocol-compliant dissenter flips the uniform \
         decision, breaking validity — the resilience bound is tight: {}",
        if dissenter_broke_at_half {
            "CONFIRMED"
        } else {
            "NOT OBSERVED"
        }
    ));
    rep.note("Completion time is (t+1)·Δ per run — the O(tΔ) of the theorem.");

    // The Section 3 contrast: crash failures need only ONE round, because
    // the memory admits no partial visibility. Exhaustive check at n = 4.
    let mut crash_ok = true;
    for input_mask in 0..16u32 {
        let inputs: Vec<bool> = (0..4).map(|i| (input_mask >> i) & 1 == 1).collect();
        for crash_mask in 0..16u32 {
            let plans: Vec<Option<CrashPlan>> = (0..4)
                .map(|i| {
                    if (crash_mask >> i) & 1 == 1 {
                        Some(if i % 2 == 0 {
                            CrashPlan::BeforeAppend
                        } else {
                            CrashPlan::AfterAppend
                        })
                    } else {
                        None
                    }
                })
                .collect();
            let out = run_crash_one_round(&inputs, &plans);
            crash_ok &= out.agreement
                && out
                    .decisions
                    .iter()
                    .all(|&d| d == *out.decisions.first().unwrap_or(&false));
        }
    }
    rep.note(format!(
        "Section 3 contrast — crash failures agree in ONE round (exhaustive \
         over all 256 input × crash patterns at n = 4, appends either fully \
         visible or fully absent): {}",
        if crash_ok { "CONFIRMED" } else { "VIOLATED" }
    ));
}
