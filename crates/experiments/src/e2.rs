//! E2 — Lemma 3.1: Byzantine agreement needs ≥ t+1 synchronous rounds.
//!
//! Exhaustive adversary search: straddling Byzantine nodes (one acting per
//! round, per the lemma) against the
//! Algorithm-1 family truncated to R rounds. R ≤ t must yield a
//! disagreement execution; R = t+1 must be safe over the *entire*
//! strategy space.

use crate::report::Report;
use crate::RunCtx;
use am_sched::search_disagreement_t;
use am_stats::Table;

/// Runs E2 (deterministic; the context's seed is unused).
pub fn run(_ctx: &RunCtx, rep: &mut Report) {
    let mut table = Table::new(
        "exhaustive straddling-adversary search",
        &[
            "correct nodes",
            "t",
            "rounds R",
            "tie",
            "executions searched",
            "disagreement found",
            "validity broken",
        ],
    );
    let mut add_rows = |n_correct: usize, t: usize, rounds: u32, tie: u8| {
        let out = search_disagreement_t(n_correct, t, rounds, tie);
        table.row(&[
            n_correct.to_string(),
            t.to_string(),
            rounds.to_string(),
            tie.to_string(),
            out.executions.to_string(),
            out.disagreement
                .as_ref()
                .map(|d| format!("YES (inputs {:?})", d.inputs))
                .unwrap_or_else(|| "no".into()),
            if out.validity_violation.is_some() {
                "YES"
            } else {
                "no"
            }
            .into(),
        ]);
    };
    for &n_correct in &[3usize, 4] {
        for &rounds in &[1u32, 2] {
            for &tie in &[0u8, 1] {
                add_rows(n_correct, 1, rounds, tie);
            }
        }
    }
    // t = 2: R = 2 ≤ t breaks, R = 3 = t+1 holds.
    add_rows(3, 2, 2, 0);
    add_rows(3, 2, 3, 0);
    rep.tables.push(table);
    rep.note(
        "R = 1 ≤ t: the straddling adversary splits the decisions — the \
         constructive content of Lemma 3.1 (bivalent through round t).",
    );
    rep.note(
        "R = t+1: the search is exhaustive over every input vector and \
         every per-round (actor × value × visibility-subset) strategy and \
         finds no disagreement — matching the Theorem 3.2 upper bound, at \
         t = 1 and t = 2 alike.",
    );
}
