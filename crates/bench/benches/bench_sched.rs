//! am-sched kernels and the `sched/*` lanes of the perf ledger.
//!
//! The search core explores interned compact states under 128-bit
//! fingerprints, sleep-set partial-order reduction, an ample rule for
//! stable decisions, and symmetry folding under the input vector's
//! stabilizer (DESIGN.md §14), verdict-pinned to the naive `Explorer`
//! by `crates/sched/tests/reduced_equivalence.rs`. What the reductions
//! buy in *state counts* is E19's table; this binary records what a
//! state, an execution and a canonicalization cost.

use am_bench::recorder::Recorder;
use am_sched::search::{state_fingerprint, successors_compact, CState, LogArena, Stabilizer};
use am_sched::{
    check_nonforking, search, simulate_execution, Config, QuorumVoteProtocol, SearchOptions,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Duration;

/// The fixed small-n headline configuration: quorum-vote at n = 4 from
/// the half/half input vector, the E1/E19 shape.
fn headline() -> (QuorumVoteProtocol, Config) {
    (
        QuorumVoteProtocol::new(4, 3, 0),
        Config::initial(&[0, 0, 1, 1]),
    )
}

/// States visited by the reduced search, and whether it hit `cap`.
fn reduced_states(proto: &QuorumVoteProtocol, init: &Config, cap: usize) -> (usize, bool) {
    let r = search(proto, init, &SearchOptions::reduced(cap));
    (r.states, r.truncated)
}

/// Scans 128 (input mask × strategy) executions of the Lemma 3.1 search
/// at (n = 3, t = 1, R = 2); the checksum is the black-box anchor.
fn round_lb_scan() -> u64 {
    let mut checksum = 0u64;
    for mask in 0..8u32 {
        let inputs: Vec<u8> = (0..3).map(|i| ((mask >> i) & 1) as u8).collect();
        for byz_mask in 0..8u32 {
            for value in 0..=1u8 {
                let strategy = vec![
                    Some(am_sched::round_lb::ByzAction {
                        actor: 0,
                        value,
                        visible_now: byz_mask,
                    }),
                    None,
                ];
                let d = simulate_execution(&inputs, 1, 2, &strategy, 0);
                checksum = checksum
                    .rotate_left(7)
                    .wrapping_add(d.iter().fold(0, |a, &x| a * 3 + x as u64));
            }
        }
    }
    checksum
}

/// The first `cap` distinct states of the unreduced state graph from
/// `inputs`, breadth-first — the raw successors a search hands its
/// canonicalizer.
fn sample_states(proto: &QuorumVoteProtocol, inputs: &[u8], cap: usize) -> Vec<CState> {
    let mut arena = LogArena::new();
    let root = CState::from_config(&Config::initial(inputs), &mut arena);
    let mut seen: HashSet<u128> = HashSet::from([state_fingerprint(&root)]);
    let mut states = vec![root];
    let mut next = 0;
    while next < states.len() && states.len() < cap {
        let s = states[next];
        next += 1;
        for (_, t) in successors_compact(proto, &s, &mut arena) {
            if states.len() < cap && seen.insert(state_fingerprint(&t)) {
                states.push(t);
            }
        }
    }
    states
}

/// The `sched/*` ledger lanes. At n = 6: ns per symmetry
/// canonicalization under a stabilizer of order 36 (inputs 000111) and
/// 120 (000001), and ns per visited state of the whole reduced 000111
/// search. At small n: ns per visited state of the reduced n = 4
/// headline search and of the nonforking search, ns per round-lb
/// execution.
fn main() {
    let mut rec = Recorder::layer("sched");
    let budget = Duration::from_millis(800);
    let proto = QuorumVoteProtocol::new(6, 4, 0);
    for inputs in [[0u8, 0, 0, 1, 1, 1], [0, 0, 0, 0, 0, 1]] {
        let stab = Stabilizer::new(&inputs);
        let states = sample_states(&proto, &inputs, 2_000);
        rec.measure_absolute(
            &format!("sched/canon_ns_g{}", stab.order()),
            states.len() as u64,
            budget,
            || {
                for s in &states {
                    black_box(stab.canonicalize(black_box(s)));
                }
            },
        );
    }
    let init = Config::initial(&[0, 0, 0, 1, 1, 1]);
    let (states, truncated) = reduced_states(&proto, &init, 2_000_000);
    assert!(!truncated, "the n = 6 search must fit the cap");
    rec.measure_absolute(
        "sched/search_ns_per_state_n6",
        states as u64,
        budget,
        || black_box(reduced_states(&proto, &init, 2_000_000).0),
    );

    let (proto, init) = headline();
    let (states, truncated) = reduced_states(&proto, &init, 2_000_000);
    assert!(!truncated, "headline config must fit the cap");
    rec.measure_absolute(
        "sched/search_ns_per_state_n4",
        states as u64,
        budget,
        || black_box(reduced_states(&proto, &init, 2_000_000).0),
    );
    rec.measure_absolute("sched/round_lb_ns_per_execution", 128, budget, || {
        black_box(round_lb_scan())
    });
    let nf_states = check_nonforking(3, &[1], 5, 400_000).states;
    rec.measure_absolute(
        "sched/nonforking_ns_per_state",
        nf_states as u64,
        budget,
        || black_box(check_nonforking(3, &[1], 5, 400_000).states),
    );
    rec.write().unwrap_or_else(|e| panic!("{e}"));
}
