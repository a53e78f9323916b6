//! Cross-crate integration tests: each test exercises a full pipeline the
//! paper describes, spanning several workspace crates.

use append_memory::core::{check_view, AppendMemory, MessageBuilder, NodeId, Value, GENESIS};
use append_memory::protocols::{
    measure_failure_rate, run_chain, run_dag, run_timestamp, ChainAdversary, DagAdversary, DagRule,
    Params, TieBreak, TrialKind,
};
use append_memory::sched::{
    round_robin_witness, search_disagreement_t, QuorumVoteProtocol, SearchOptions, WitnessOutcome,
};
use append_memory::stats::theory::chain_resilience_bound;
use append_memory::sync::{run as run_sync, Dissenter, Straddler, SyncConfig};

/// The lower bound and the matching algorithm meet exactly at t+1 rounds:
/// the searched adversary breaks every R ≤ t protocol and Algorithm 1 at
/// R = t+1 survives both the searched and the scripted adversaries.
#[test]
fn round_complexity_is_exactly_t_plus_one() {
    // Lower bound side (am-sched): R = 1 < t+1 = 2 breaks.
    let lb = search_disagreement_t(3, 1, 1, 0);
    assert!(lb.disagreement.is_some());
    // Upper bound side, search (am-sched): R = 2 survives exhaustively.
    let ub = search_disagreement_t(3, 1, 2, 0);
    assert!(ub.disagreement.is_none());
    // Upper bound side, runtime (am-sync): scripted straddler also fails
    // to split Algorithm 1.
    let cfg = SyncConfig::new(4, 1);
    let out = run_sync(&cfg, &[true, false, true], &mut Straddler);
    assert!(out.agreement);
}

/// Theorem 3.2's wall is the same wall the Section 5 protocols hit: the
/// honest dissenter breaks validity at t ≥ n/2 in both the synchronous
/// protocol and the timestamp baseline.
#[test]
fn half_resilience_wall_is_universal() {
    // Synchronous Algorithm 1 at t = n/2.
    let cfg = SyncConfig::new(6, 3);
    let sync_out = run_sync(&cfg, &[true, true, true], &mut Dissenter);
    assert!(!sync_out.validity);
    // Timestamp baseline at t > n/2 (strict majority of grants).
    let mut fails = 0;
    for seed in 0..50 {
        if !run_timestamp(&Params::new(6, 4, 1.0, 41, seed)).validity {
            fails += 1;
        }
    }
    assert!(
        fails > 40,
        "byz token majority must dominate, fails={fails}"
    );
}

/// The chain's resilience is rate-sensitive, the DAG's is not — measured
/// through the same Monte-Carlo machinery at two rates.
#[test]
fn chain_degrades_with_rate_dag_does_not() {
    let t = 3;
    let n = 12;
    let k = 31;
    let trials = 120;
    let chain_kind = TrialKind::Chain(TieBreak::Randomized, ChainAdversary::TieBreaker);
    let dag_kind = TrialKind::Dag(DagRule::LongestChain, DagAdversary::WithholdBurst);

    let slow = Params::new(n, t, 0.05, k, 3);
    let fast = Params::new(n, t, 0.8, k, 3);

    let chain_slow = measure_failure_rate(&slow, chain_kind, trials).estimate();
    let chain_fast = measure_failure_rate(&fast, chain_kind, trials).estimate();
    let dag_slow = measure_failure_rate(&slow, dag_kind, trials).estimate();
    let dag_fast = measure_failure_rate(&fast, dag_kind, trials).estimate();

    assert!(
        chain_fast > chain_slow + 0.3,
        "chain must degrade with rate: slow {chain_slow}, fast {chain_fast}"
    );
    assert!(
        dag_fast < 0.15 && dag_slow < 0.15,
        "dag must stay valid at both rates: slow {dag_slow}, fast {dag_fast}"
    );
    // And the chain's collapse point is (approximately) where the paper
    // says: t/n = 0.25 vs bound 1/(1+λ(n−t)).
    let bound_fast = chain_resilience_bound(0.8 * (n - t) as f64);
    assert!(
        (t as f64 / n as f64) > bound_fast,
        "the fast-rate failure is past the theoretical wall"
    );
}

/// Protocol trials leave structurally valid memories behind: re-run one
/// trial's construction through the core validator.
#[test]
fn protocol_histories_satisfy_core_invariants() {
    // The chain and DAG runners build through AppendMemory, which enforces
    // the construction rules; spot-check by rebuilding a small history and
    // validating the final view.
    let p = Params::new(8, 2, 0.4, 15, 9);
    let chain_out = run_chain(&p, TieBreak::Randomized, ChainAdversary::ForkMaker);
    assert!(chain_out.chain_len >= p.k);
    let dag_out = run_dag(&p, DagRule::Ghost, DagAdversary::WithholdBurst);
    assert!(dag_out.covered_values >= p.k);

    // Independent reconstruction through the public API.
    let mem = AppendMemory::new(4);
    let mut tip = GENESIS;
    for i in 0..20u32 {
        tip = mem
            .append(MessageBuilder::new(NodeId(i % 4), Value::plus()).parent(tip))
            .unwrap();
    }
    assert!(check_view(&mem.read(), true).is_empty());
}

/// The asynchronous impossibility and the synchronous possibility live on
/// the two sides of the synchrony assumption: the same quorum-vote idea
/// that the model checker breaks asynchronously is fine as a synchronous
/// round protocol.
#[test]
fn synchrony_is_the_dividing_line() {
    // Asynchronous: the checker keeps quorum-vote bivalent forever.
    let proto = QuorumVoteProtocol::new(3, 2, 0);
    let w = round_robin_witness(&proto, 6, &SearchOptions::reduced(300_000));
    assert_eq!(w.outcome, WitnessOutcome::KeptBivalent);
    // Synchronous: Algorithm 1 with the same population decides correctly.
    let cfg = SyncConfig::new(3, 0);
    let out = run_sync(&cfg, &[true, false, true], &mut append_memory::sync::Silent);
    assert!(out.agreement && out.validity);
}

/// Determinism end to end: same seed, same everything — across parallel
/// Monte-Carlo execution too.
#[test]
fn end_to_end_determinism() {
    let p = Params::new(10, 3, 0.4, 21, 123);
    let kinds = [
        TrialKind::Timestamp,
        TrialKind::Chain(TieBreak::Randomized, ChainAdversary::TieBreaker),
        TrialKind::Dag(DagRule::LongestChain, DagAdversary::WithholdBurst),
    ];
    for kind in kinds {
        let a = measure_failure_rate(&p, kind, 48);
        let b = measure_failure_rate(&p, kind, 48);
        assert_eq!(a, b, "{kind:?} must be reproducible");
    }
}
