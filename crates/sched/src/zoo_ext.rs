//! Extended protocol zoo: multi-phase candidates for the checker.
//!
//! The basic zoo ([`crate::proto`]) appends once and decides. These
//! protocols take more than one append step, exercising deeper regions of
//! the computation graph — and still fall to Theorem 2.1, as they must.

use crate::proto::{AsyncProtocol, Op, ViewRef};

/// Two-phase echo vote: append your input; once values from `quorum`
/// distinct authors are visible, append an *echo* of their majority; once
/// `quorum` echoes are visible, decide the majority of echoes (ties to
/// `tie`).
///
/// Echoing is the classic repair attempt for the quorum-vote disagreement
/// — and it narrows but cannot close the window: two nodes can still echo
/// from different first-phase quorums, and the checker finds the
/// interleaving.
#[derive(Clone, Debug)]
pub struct EchoVoteProtocol {
    n: usize,
    /// Distinct authors required in each phase.
    pub quorum: usize,
    /// Tie-break value.
    pub tie: u8,
}

impl EchoVoteProtocol {
    /// Creates the protocol.
    pub fn new(n: usize, quorum: usize, tie: u8) -> EchoVoteProtocol {
        assert!(quorum >= 1 && quorum <= n);
        assert!(tie <= 1);
        EchoVoteProtocol { n, quorum, tie }
    }

    /// Majority of the visible seq-`phase` values; `None` below quorum.
    fn phase_majority(&self, view: &ViewRef<'_>, phase: usize) -> Option<u8> {
        let mut ones = 0usize;
        let mut total = 0usize;
        for a in 0..self.n {
            if let Some(e) = view.of(a).get(phase) {
                total += 1;
                if e.value == 1 {
                    ones += 1;
                }
            }
        }
        if total < self.quorum {
            return None;
        }
        Some(match (2 * ones).cmp(&total) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => 0,
            std::cmp::Ordering::Equal => self.tie,
        })
    }
}

impl AsyncProtocol for EchoVoteProtocol {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> String {
        format!(
            "echo-vote(n={}, q={}, tie={})",
            self.n, self.quorum, self.tie
        )
    }

    fn symmetric(&self) -> bool {
        // Both phases aggregate per-author values by count only; no
        // author-index tie-breaks.
        true
    }

    fn next_op(&self, _node: usize, input: u8, own: usize, view: &ViewRef<'_>, fresh: bool) -> Op {
        match own {
            0 => Op::Append {
                value: input,
                parents: Vec::new(),
            },
            1 => match self.phase_majority(view, 0) {
                Some(m) => Op::Append {
                    value: m,
                    parents: Vec::new(),
                },
                None if fresh => Op::Read,
                None => Op::Idle,
            },
            _ => match self.phase_majority(view, 1) {
                Some(m) => Op::Decide(m),
                None if fresh => Op::Read,
                None => Op::Idle,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bivalence::{initial_bivalent, round_robin_witness, WitnessOutcome};
    use crate::explore::{Config, Explorer, Valency};
    use crate::search::SearchOptions;

    #[test]
    fn echo_vote_validates_uniform_inputs() {
        let p = EchoVoteProtocol::new(3, 2, 0);
        let ex = Explorer::new(&p, 500_000);
        let a = ex.analyze(&Config::initial(&[1, 1, 1]));
        assert!(!a.truncated);
        assert_eq!(a.valency, Valency::One);
        let a0 = ex.analyze(&Config::initial(&[0, 0, 0]));
        assert_eq!(a0.valency, Valency::Zero);
    }

    #[test]
    fn echo_vote_still_fails_consensus() {
        // Theorem 2.1 applies to the echo repair too: somewhere in the
        // graph the protocol breaks agreement or a bivalent schedule runs
        // forever.
        let p = EchoVoteProtocol::new(3, 2, 0);
        let ex = Explorer::new(&p, 500_000);
        let mut any_violation = false;
        for mask in 0..8u32 {
            let inputs: Vec<u8> = (0..3).map(|i| ((mask >> i) & 1) as u8).collect();
            let a = ex.analyze(&Config::initial(&inputs));
            assert!(!a.truncated, "budget too small for inputs {inputs:?}");
            any_violation |= a.agreement_violation.is_some();
        }
        let bivalent = initial_bivalent(&p, &SearchOptions::reduced(500_000)).is_some();
        assert!(
            any_violation || bivalent,
            "echo-vote must fail in one of the predicted ways"
        );
    }

    #[test]
    fn echo_vote_round_robin_witness() {
        let p = EchoVoteProtocol::new(3, 2, 0);
        let w = round_robin_witness(&p, 8, &SearchOptions::reduced(500_000));
        assert!(
            matches!(w.outcome, WitnessOutcome::KeptBivalent)
                || matches!(w.outcome, WitnessOutcome::StuckAt { .. }),
            "unexpected witness outcome: {:?}",
            w.outcome
        );
    }

    #[test]
    fn phase_majority_respects_quorum_and_tie() {
        use crate::explore::Entry;
        let p = EchoVoteProtocol::new(3, 2, 1);
        let e = |v: u8| Entry {
            value: v,
            parents: Vec::new(),
        };
        let logs = [vec![e(1)], vec![e(0)], vec![]];
        let slices: Vec<&[Entry]> = logs.iter().map(Vec::as_slice).collect();
        let counts = [1u8, 1, 0];
        let view = ViewRef {
            logs: &slices,
            counts: &counts,
        };
        // Tie at quorum: tie value wins.
        assert_eq!(p.phase_majority(&view, 0), Some(1));
        // Below quorum: none.
        let counts1 = [1u8, 0, 0];
        let view1 = ViewRef {
            logs: &slices,
            counts: &counts1,
        };
        assert_eq!(p.phase_majority(&view1, 0), None);
    }
}
