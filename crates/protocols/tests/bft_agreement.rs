//! Cross-node agreement of the embedded finality layer, 300 seeds.
//!
//! Each trial runs the full networked driver (`run_bft_net_full`): every
//! node gossips blocks over the fault-injected simulator, runs its own
//! finality oracle over exactly the sub-DAG it admitted, and reports its
//! finalized chain at three growth stages — the decision gate, after
//! in-flight delivery settles, and after an omniscient heal. The suite
//! sweeps four fault families (drops, duplication+reordering,
//! partition+heal, equivocator+drops) over 75 seeds each and asserts
//! the invariants the paper's safety argument needs:
//!
//! 1. No conflicting certificate, ever.
//! 2. At every stage, correct nodes' finalized chains are pairwise
//!    extension-ordered (each is a prefix of every longer one).
//! 3. Per node, the stages only grow: gate ⊑ settled ⊑ healed.
//! 4. For crash-free families the heal *equalizes* the watermarks —
//!    every correct node ends on the identical chain.

use am_core::MsgId;
use am_net::{LatencyModel, NetConfig};
use am_protocols::{run_bft_net_full, BftAdversary, Params};

const DELTA_NS: u64 = 1_000_000_000;
const SEEDS: u64 = 75;

fn extension_ordered(chains: &[Vec<MsgId>], correct: usize) -> bool {
    chains[..correct].iter().all(|a| {
        chains[..correct].iter().all(|b| {
            let m = a.len().min(b.len());
            a[..m] == b[..m]
        })
    })
}

fn is_prefix(short: &[MsgId], long: &[MsgId]) -> bool {
    short.len() <= long.len() && long[..short.len()] == *short
}

/// Runs one fault family over `SEEDS` seeds; `equalizes` additionally
/// demands identical healed chains across correct nodes.
fn family(name: &str, p: &Params, adv: BftAdversary, profile: &NetConfig, equalizes: bool) {
    let correct = p.n - p.t;
    let mut finalized = 0u64;
    for s in 0..SEEDS {
        let q = p.with_seed(p.seed ^ (s.wrapping_mul(0x9e37_79b9).wrapping_add(s)));
        let run = run_bft_net_full(&q, adv, profile);
        assert!(
            !run.conflict_any,
            "{name}/seed {s}: conflicting certificate"
        );
        for (stage, chains) in [
            ("gate", &run.chains_at_gate),
            ("settled", &run.chains_settled),
            ("healed", &run.chains_healed),
        ] {
            assert!(
                extension_ordered(chains, correct),
                "{name}/seed {s}: {stage} chains not extension-ordered"
            );
        }
        for node in 0..correct {
            assert!(
                is_prefix(&run.chains_at_gate[node], &run.chains_settled[node]),
                "{name}/seed {s}/node {node}: settling retracted finality"
            );
            assert!(
                is_prefix(&run.chains_settled[node], &run.chains_healed[node]),
                "{name}/seed {s}/node {node}: healing retracted finality"
            );
        }
        if equalizes {
            let first = &run.chains_healed[0];
            for node in 1..correct {
                assert_eq!(
                    &run.chains_healed[node], first,
                    "{name}/seed {s}: heal left node {node}'s watermark apart"
                );
            }
        }
        finalized += run.trial.finality as u64;
    }
    assert!(
        finalized * 2 > SEEDS,
        "{name}: finality reached in only {finalized}/{SEEDS} trials — \
         the family is supposed to stress agreement, not liveness"
    );
}

#[test]
fn agreement_under_drops() {
    let latency = LatencyModel::Constant(DELTA_NS / 20);
    let profile = NetConfig::builder()
        .latency(latency)
        .drop(0.2)
        .build()
        .expect("valid config");
    let p = Params::new(5, 0, 0.5, 4, 0xa9);
    family("drop 0.2", &p, BftAdversary::Absent, &profile, true);
}

#[test]
fn agreement_under_dup_and_reorder() {
    let latency = LatencyModel::Constant(DELTA_NS / 20);
    let profile = NetConfig::builder()
        .latency(latency)
        .dup(0.25)
        .reorder(0.25)
        .build()
        .expect("valid config");
    let p = Params::new(5, 0, 0.5, 4, 0xa9d);
    family("dup+reorder", &p, BftAdversary::Absent, &profile, true);
}

#[test]
fn agreement_across_partition_heal() {
    let latency = LatencyModel::Constant(DELTA_NS / 20);
    let profile = NetConfig::builder()
        .latency(latency)
        .partition(0, 8 * DELTA_NS)
        .build()
        .expect("valid config");
    let p = Params::new(5, 0, 0.5, 4, 0xa9e);
    family("partition 8Δ", &p, BftAdversary::Absent, &profile, true);
}

#[test]
fn agreement_with_equivocator_on_lossy_wire() {
    // Byzantine observers keep sticky per-observer certificates, so a
    // transient quorum can leave one watermark a step ahead permanently:
    // the heal guarantees extension order, not equality, here.
    let latency = LatencyModel::Constant(DELTA_NS / 20);
    let profile = NetConfig::builder()
        .latency(latency)
        .drop(0.1)
        .build()
        .expect("valid config");
    let p = Params::new(5, 1, 0.5, 4, 0xa9f);
    family(
        "eq + drop 0.1",
        &p,
        BftAdversary::Equivocator,
        &profile,
        false,
    );
}
