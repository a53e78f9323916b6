//! Bivalence witnesses: the constructive content of Theorem 2.1.
//!
//! The theorem's proof builds an infinite non-deciding computation in which
//! every node takes infinitely many steps: start from a bivalent initial
//! configuration (Lemma 2.2) and repeatedly extend to another bivalent
//! configuration through an event of the next node round-robin (Lemma 2.3).
//! This module performs both steps by *search* over the computation graph,
//! so the adversarial schedule the paper proves to exist is produced
//! explicitly for concrete protocols.

use crate::explore::{Config, Valency};
use crate::proto::AsyncProtocol;
use crate::search::{
    state_fingerprint, successors_compact, valency_fast, CState, FpMap, FpSet, LogArena,
    SearchOptions,
};
use std::collections::VecDeque;

/// Outcome of a round-robin bivalence-extension attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WitnessOutcome {
    /// The schedule reached the requested length with the system still
    /// bivalent — the protocol was successfully kept from deciding while
    /// every node took steps (what Theorem 2.1 predicts for any protocol
    /// that doesn't violate safety first).
    KeptBivalent,
    /// No bivalent initial configuration exists — the protocol must be
    /// violating validity (or is trivial).
    NoBivalentStart,
    /// Extension failed for a node: every reachable configuration through
    /// an event of that node is univalent. For a correct protocol this
    /// contradicts Lemma 2.3; it happens only for protocols that escape by
    /// breaking agreement (the violation is then reported by
    /// [`Explorer::analyze`](crate::explore::Explorer::analyze)).
    StuckAt {
        /// Index of the node that could not be extended.
        node: usize,
        /// Number of real steps achieved before getting stuck.
        steps: usize,
    },
}

/// A round-robin bivalence witness.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The input vector of the bivalent start (when one exists).
    pub inputs: Vec<u8>,
    /// Real (state-changing) events in the schedule, as node indices.
    pub schedule: Vec<usize>,
    /// Rule-(b) self-loop steps taken (reads of unchanged memory).
    pub null_steps: usize,
    /// How the attempt ended.
    pub outcome: WitnessOutcome,
}

/// Lemma 2.2 (search form): scans all `2^n` input vectors and returns a
/// bivalent initial configuration, together with its input vector, if one
/// exists. For any protocol satisfying validity and 1-resilience, one must.
/// Every valency query runs the compact-core search under `opts`, with
/// early exit on bivalence.
pub fn initial_bivalent(
    proto: &dyn AsyncProtocol,
    opts: &SearchOptions,
) -> Option<(Vec<u8>, Config)> {
    let n = proto.n();
    for mask in 0..(1u32 << n) {
        let inputs: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
        let c = Config::initial(&inputs);
        if valency_fast(proto, &c, opts) == Valency::Bivalent {
            return Some((inputs, c));
        }
    }
    None
}

/// Lemma 2.3 (search form): BFS from bivalent `start`, over fingerprinted
/// compact states, for a bivalent configuration reachable via a path
/// containing at least one event of `node`. Returns the event path (as
/// node indices) and the final state. Valency queries are cached by state
/// fingerprint.
///
/// Paths live in one flat trail: each enqueued state records the trail
/// index of its predecessor and the node that stepped, and only the path
/// that is returned is ever spelled out.
fn extend_through_node(
    proto: &dyn AsyncProtocol,
    arena: &mut LogArena,
    start: &CState,
    node: usize,
    valency_cache: &mut FpMap<u128, Valency>,
    opts: &SearchOptions,
    max_frontier: usize,
) -> Option<(Vec<usize>, CState)> {
    let n = proto.n();
    // Queue entries are (state, whether `node` stepped, trail index);
    // `trail[0]` stands for `start` itself and is never read.
    let mut queue: VecDeque<(CState, bool, usize)> = VecDeque::new();
    let mut trail: Vec<(usize, usize)> = vec![(0, node)];
    // One fingerprint set per value of the hit bit.
    let mut seen: [FpSet<u128>; 2] = Default::default();
    queue.push_back((*start, false, 0));
    seen[0].insert(state_fingerprint(start));
    let mut visited = 0usize;

    while let Some((cur, hit, at)) = queue.pop_front() {
        visited += 1;
        if visited > max_frontier {
            return None;
        }
        if hit {
            let val = valency_cache
                .entry(state_fingerprint(&cur))
                .or_insert_with(|| valency_fast(proto, &cur.to_config(n, arena), opts));
            if *val == Valency::Bivalent {
                let mut path = Vec::new();
                let mut i = at;
                while i != 0 {
                    let (parent, v) = trail[i];
                    path.push(v);
                    i = parent;
                }
                path.reverse();
                return Some((path, cur));
            }
        }
        for (v, c2) in successors_compact(proto, &cur, arena) {
            let hit2 = hit || v == node;
            if seen[usize::from(hit2)].insert(state_fingerprint(&c2)) {
                trail.push((at, v));
                queue.push_back((c2, hit2, trail.len() - 1));
            }
        }
    }
    None
}

/// Theorem 2.1 (constructive form): builds a schedule of length
/// `target_steps` real events in which each node takes steps round-robin
/// and the system remains bivalent throughout.
///
/// A node whose only available step is the rule-(b) self-loop (a read of an
/// unchanged memory) takes that step — it counts toward the node's
/// infinitely-many-operations obligation without changing the
/// configuration; such steps are tallied in
/// [`Witness::null_steps`].
/// ```
/// use am_sched::{round_robin_witness, QuorumVoteProtocol, SearchOptions, WitnessOutcome};
/// let proto = QuorumVoteProtocol::new(3, 2, 0);
/// let w = round_robin_witness(&proto, 6, &SearchOptions::reduced(300_000));
/// assert_eq!(w.outcome, WitnessOutcome::KeptBivalent);
/// ```
pub fn round_robin_witness(
    proto: &dyn AsyncProtocol,
    target_steps: usize,
    opts: &SearchOptions,
) -> Witness {
    let Some((inputs, start)) = initial_bivalent(proto, opts) else {
        return Witness {
            inputs: Vec::new(),
            schedule: Vec::new(),
            null_steps: 0,
            outcome: WitnessOutcome::NoBivalentStart,
        };
    };
    let n = proto.n();
    let mut arena = LogArena::new();
    let mut cur = CState::from_config(&start, &mut arena);
    let mut valency_cache: FpMap<u128, Valency> = FpMap::default();
    let mut schedule: Vec<usize> = Vec::new();
    let mut null_steps = 0usize;
    let mut rr = 0usize;

    while schedule.len() < target_steps {
        let node = rr % n;
        rr += 1;
        // If the node currently has no state-changing event, it performs a
        // rule-(b) read: configuration unchanged, obligation satisfied.
        let succs = successors_compact(proto, &cur, &mut arena);
        if !succs.iter().any(|(v, _)| *v == node) {
            null_steps += 1;
            if succs.is_empty() {
                // Guard against a fully-stuck system spinning forever: if
                // every node is passive, the run is an infinite null-step
                // computation — trivially non-deciding, so the witness
                // holds.
                let remaining = target_steps - schedule.len();
                return Witness {
                    inputs,
                    schedule,
                    null_steps: null_steps + remaining,
                    outcome: WitnessOutcome::KeptBivalent,
                };
            }
            continue;
        }
        match extend_through_node(
            proto,
            &mut arena,
            &cur,
            node,
            &mut valency_cache,
            opts,
            200_000,
        ) {
            Some((path, c2)) => {
                schedule.extend_from_slice(&path);
                cur = c2;
            }
            None => {
                let steps = schedule.len();
                return Witness {
                    inputs,
                    schedule,
                    null_steps,
                    outcome: WitnessOutcome::StuckAt { node, steps },
                };
            }
        }
    }
    Witness {
        inputs,
        schedule,
        null_steps,
        outcome: WitnessOutcome::KeptBivalent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use crate::proto::{FirstSeenProtocol, QuorumVoteProtocol};

    #[test]
    fn first_seen_has_bivalent_start() {
        let p = FirstSeenProtocol::new(3);
        let (inputs, _) =
            initial_bivalent(&p, &SearchOptions::reduced(100_000)).expect("must exist");
        // Mixed inputs are required for bivalence under validity.
        assert!(inputs.contains(&0));
        assert!(inputs.contains(&1));
    }

    #[test]
    fn quorum_vote_has_bivalent_start() {
        let p = QuorumVoteProtocol::new(3, 2, 0);
        assert!(initial_bivalent(&p, &SearchOptions::reduced(300_000)).is_some());
    }

    #[test]
    fn witness_keeps_first_seen_bivalent() {
        let p = FirstSeenProtocol::new(3);
        let w = round_robin_witness(&p, 6, &SearchOptions::reduced(100_000));
        assert_eq!(w.outcome, WitnessOutcome::KeptBivalent, "witness: {w:?}");
        assert!(w.schedule.len() >= 6 || w.null_steps > 0);
        // Every node appears in the combined schedule (round-robin drove
        // each of them).
        for v in 0..3 {
            assert!(
                w.schedule.contains(&v) || w.null_steps > 0,
                "node {v} never stepped"
            );
        }
    }

    #[test]
    fn witness_keeps_quorum_vote_bivalent() {
        let p = QuorumVoteProtocol::new(3, 2, 0);
        let w = round_robin_witness(&p, 8, &SearchOptions::reduced(300_000));
        assert_eq!(w.outcome, WitnessOutcome::KeptBivalent, "witness: {w:?}");
    }

    #[test]
    fn fast_witness_matches_naive_outcome() {
        // The compact-core witness, replayed event by event on the naive
        // explorer: every step is a real event there, and the explorer's
        // own valency of where the schedule ends is still bivalent.
        let p = QuorumVoteProtocol::new(3, 2, 0);
        let w = round_robin_witness(&p, 8, &SearchOptions::reduced(300_000));
        assert_eq!(w.outcome, WitnessOutcome::KeptBivalent);
        let ex = Explorer::new(&p, 300_000);
        let mut c = Config::initial(&w.inputs);
        for &v in &w.schedule {
            c = ex.apply(&c, v).expect("scheduled event must be enabled").1;
        }
        assert_eq!(ex.valency_of(&c), Valency::Bivalent);
    }

    #[test]
    fn fast_initial_bivalent_matches_naive() {
        // The mask scan must stop where the naive explorer's valency
        // first reads bivalent.
        let p = FirstSeenProtocol::new(3);
        let ex = Explorer::new(&p, 100_000);
        let naive = (0..8u32)
            .map(|mask| (0..3).map(|i| ((mask >> i) & 1) as u8).collect::<Vec<u8>>())
            .find(|inputs| ex.valency_of(&Config::initial(inputs)) == Valency::Bivalent)
            .expect("must exist");
        let fast = initial_bivalent(&p, &SearchOptions::reduced(100_000)).expect("must exist");
        assert_eq!(naive, fast.0, "mask scan order pins the same inputs");
    }

    #[test]
    fn trivial_protocol_has_no_bivalent_start() {
        /// Always decides its own input immediately — violates agreement,
        /// but each *initial* configuration is univalent or bivalent per
        /// inputs; with uniform inputs univalent. Mixed inputs: both
        /// decisions reachable → bivalent! So use a constant protocol
        /// instead: always decides 0. Validity broken; no bivalence.
        struct Constant;
        impl crate::proto::AsyncProtocol for Constant {
            fn n(&self) -> usize {
                2
            }
            fn name(&self) -> String {
                "constant-0".into()
            }
            fn next_op(
                &self,
                _node: usize,
                _input: u8,
                _own: usize,
                _view: &crate::proto::ViewRef<'_>,
                _fresh: bool,
            ) -> crate::proto::Op {
                crate::proto::Op::Decide(0)
            }
        }
        let w = round_robin_witness(&Constant, 4, &SearchOptions::reduced(10_000));
        assert_eq!(w.outcome, WitnessOutcome::NoBivalentStart);
    }
}
