//! Deterministic asynchronous protocols over the append memory, and the
//! protocol zoo the Theorem 2.1 checker runs against.
//!
//! A protocol specifies, for each node, a deterministic next operation as a
//! function of the node's *local state* (its input, what it last read, and
//! its own appends). The adversarial scheduler controls only *which* node
//! moves next — exactly the Section 2.1 setting.

use crate::explore::{Entry, Ref};

/// What a node sees: the per-author prefixes it observed at its last read
/// (plus its own appends, which it always knows).
///
/// The logs are borrowed as per-author *slices* so both the naive
/// [`crate::explore::Explorer`] (which owns `Vec<Vec<Entry>>`) and the
/// compact [`mod@crate::search`] core (which decodes interned logs into
/// per-worker scratch buffers) can serve the same protocol trait without
/// materialising a nested allocation per call.
pub struct ViewRef<'a> {
    /// Per-author logs of the *memory* (full).
    pub logs: &'a [&'a [Entry]],
    /// Per-author counts visible to this node.
    pub counts: &'a [u8],
}

impl<'a> ViewRef<'a> {
    /// The visible entries of `author`, in that author's order.
    pub fn of(&self, author: usize) -> &'a [Entry] {
        &self.logs[author][..self.counts[author] as usize]
    }

    /// Total number of visible non-genesis appends.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }

    /// Iterates `(author, entry)` over all visible entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a Entry)> + '_ {
        (0..self.logs.len()).flat_map(move |a| self.of(a).iter().map(move |e| (a, e)))
    }

    /// Count of visible entries whose value equals `v`.
    pub fn count_value(&self, v: u8) -> usize {
        self.iter().filter(|(_, e)| e.value == v).count()
    }

    /// Number of distinct authors with at least one visible entry.
    pub fn distinct_authors(&self) -> usize {
        (0..self.logs.len()).filter(|&a| self.counts[a] > 0).count()
    }
}

/// The deterministic next operation of a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read the whole memory (updates the node's view).
    Read,
    /// Append a value with parent references.
    Append {
        /// The appended value.
        value: u8,
        /// References to previously seen messages.
        parents: Vec<Ref>,
    },
    /// Decide on a bit and halt.
    Decide(u8),
    /// Nothing to do: the node's next read would not change its state and
    /// it is not ready to decide. In the computation graph this is the
    /// self-loop of rule (b).
    Idle,
}

/// A deterministic protocol for `n` nodes with binary inputs.
pub trait AsyncProtocol: Send + Sync {
    /// Number of nodes.
    fn n(&self) -> usize;

    /// Protocol name for reports.
    fn name(&self) -> String;

    /// Whether the protocol is equivariant under node-ID permutations:
    /// `next_op` must not depend on the numeric node/author indices, only
    /// on inputs, values, and counts. Opting in lets the compact search
    /// core quotient the state space by input-preserving permutations
    /// (DESIGN.md §14); protocols that break ties by author index (e.g.
    /// [`FirstSeenProtocol`]) must leave this `false`. A symmetric
    /// protocol must also append only parent-free entries — a [`Ref`]
    /// names its author by index, which relabelling would have to
    /// rewrite — and the search panics on the first append that has
    /// parents.
    fn symmetric(&self) -> bool {
        false
    }

    /// The node's next operation, as a pure function of its local state.
    ///
    /// * `node` — the acting node's index.
    /// * `input` — its binary input.
    /// * `own` — how many appends it has already performed.
    /// * `view` — what it saw at its last read (own appends included).
    /// * `fresh` — whether the memory has grown beyond `view` (the node
    ///   cannot see *what* is new without reading, only that a read would
    ///   change its state; this drives rule (b) self-loop detection).
    fn next_op(&self, node: usize, input: u8, own: usize, view: &ViewRef<'_>, fresh: bool) -> Op;
}

/// Zoo protocol 1: append your input once, then decide on the value of the
/// "first" visible message, where first = smallest author index among
/// visible appends (a deterministic content-derived rule — the memory
/// provides no arrival order to use).
///
/// Plausible but wrong: two nodes whose reads straddle an append decide
/// differently. The checker catches the agreement violation.
#[derive(Clone, Debug)]
pub struct FirstSeenProtocol {
    n: usize,
}

impl FirstSeenProtocol {
    /// Creates the protocol for `n` nodes.
    pub fn new(n: usize) -> FirstSeenProtocol {
        FirstSeenProtocol { n }
    }
}

impl AsyncProtocol for FirstSeenProtocol {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> String {
        format!("first-seen(n={})", self.n)
    }

    fn next_op(&self, _node: usize, input: u8, own: usize, view: &ViewRef<'_>, fresh: bool) -> Op {
        if own == 0 {
            return Op::Append {
                value: input,
                parents: Vec::new(),
            };
        }
        // Decide on the smallest-author visible value.
        for a in 0..self.n {
            if let Some(e) = view.of(a).first() {
                return Op::Decide(e.value);
            }
        }
        if fresh {
            Op::Read
        } else {
            Op::Idle
        }
    }
}

/// Zoo protocol 2: append your input once, wait until values from at least
/// `quorum` distinct authors are visible, then decide the majority (ties
/// broken to `tie`).
///
/// * `quorum = n` is not 1-resilient: a crashed node blocks termination
///   (the checker finds a stuck v-free computation).
/// * `quorum = n-1` terminates despite one crash but violates agreement:
///   two nodes can decide on different (n-1)-subsets. The checker finds it.
#[derive(Clone, Debug)]
pub struct QuorumVoteProtocol {
    n: usize,
    /// Distinct authors required before deciding.
    pub quorum: usize,
    /// Tie-break value for even splits.
    pub tie: u8,
}

impl QuorumVoteProtocol {
    /// Creates the protocol.
    pub fn new(n: usize, quorum: usize, tie: u8) -> QuorumVoteProtocol {
        assert!(quorum >= 1 && quorum <= n);
        assert!(tie <= 1);
        QuorumVoteProtocol { n, quorum, tie }
    }
}

impl AsyncProtocol for QuorumVoteProtocol {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> String {
        format!(
            "quorum-vote(n={}, q={}, tie={})",
            self.n, self.quorum, self.tie
        )
    }

    fn symmetric(&self) -> bool {
        // Decisions depend only on value counts and the number of distinct
        // authors — never on which author index said what.
        true
    }

    fn next_op(&self, _node: usize, input: u8, own: usize, view: &ViewRef<'_>, fresh: bool) -> Op {
        if own == 0 {
            return Op::Append {
                value: input,
                parents: Vec::new(),
            };
        }
        if view.distinct_authors() >= self.quorum {
            let ones = view.count_value(1);
            let zeros = view.count_value(0);
            let d = match ones.cmp(&zeros) {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => 0,
                std::cmp::Ordering::Equal => self.tie,
            };
            return Op::Decide(d);
        }
        if fresh {
            Op::Read
        } else {
            Op::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(logs: &'a [&'a [Entry]], counts: &'a [u8]) -> ViewRef<'a> {
        ViewRef { logs, counts }
    }

    fn slices(logs: &[Vec<Entry>]) -> Vec<&[Entry]> {
        logs.iter().map(Vec::as_slice).collect()
    }

    fn e(v: u8) -> Entry {
        Entry {
            value: v,
            parents: Vec::new(),
        }
    }

    #[test]
    fn view_ref_accessors() {
        let logs = vec![vec![e(1), e(0)], vec![], vec![e(1)]];
        let logs = slices(&logs);
        let counts = [1u8, 0, 1];
        let v = view(&logs, &counts);
        assert_eq!(v.of(0).len(), 1); // only first entry of author 0 visible
        assert_eq!(v.total(), 2);
        assert_eq!(v.count_value(1), 2);
        assert_eq!(v.count_value(0), 0);
        assert_eq!(v.distinct_authors(), 2);
    }

    #[test]
    fn first_seen_appends_then_decides() {
        let p = FirstSeenProtocol::new(3);
        let logs = vec![vec![], vec![], vec![]];
        let counts = [0u8, 0, 0];
        // First op: append own input.
        assert_eq!(
            p.next_op(0, 1, 0, &view(&slices(&logs), &counts), false),
            Op::Append {
                value: 1,
                parents: vec![]
            }
        );
        // With a visible value: decide the smallest author's value.
        let logs2 = vec![vec![], vec![e(0)], vec![e(1)]];
        let counts2 = [0u8, 1, 1];
        assert_eq!(
            p.next_op(0, 1, 1, &view(&slices(&logs2), &counts2), false),
            Op::Decide(0)
        );
    }

    #[test]
    fn first_seen_idles_without_info() {
        let p = FirstSeenProtocol::new(3);
        let logs = vec![vec![], vec![], vec![]];
        let counts = [0u8, 0, 0];
        assert_eq!(
            p.next_op(0, 1, 1, &view(&slices(&logs), &counts), false),
            Op::Idle
        );
        assert_eq!(
            p.next_op(0, 1, 1, &view(&slices(&logs), &counts), true),
            Op::Read
        );
    }

    #[test]
    fn quorum_vote_waits_for_quorum() {
        let p = QuorumVoteProtocol::new(3, 2, 0);
        let logs = vec![vec![e(1)], vec![], vec![]];
        let counts = [1u8, 0, 0];
        // Quorum of 2 not met: read or idle.
        assert_eq!(
            p.next_op(0, 1, 1, &view(&slices(&logs), &counts), true),
            Op::Read
        );
        // Quorum met: majority decision.
        let logs2 = vec![vec![e(1)], vec![e(1)], vec![e(0)]];
        let counts2 = [1u8, 1, 1];
        assert_eq!(
            p.next_op(0, 1, 1, &view(&slices(&logs2), &counts2), false),
            Op::Decide(1)
        );
    }

    #[test]
    fn quorum_vote_tie_break() {
        let p = QuorumVoteProtocol::new(2, 2, 1);
        let logs = vec![vec![e(1)], vec![e(0)]];
        let counts = [1u8, 1];
        assert_eq!(
            p.next_op(0, 1, 1, &view(&slices(&logs), &counts), false),
            Op::Decide(1)
        );
        let p0 = QuorumVoteProtocol::new(2, 2, 0);
        assert_eq!(
            p0.next_op(0, 1, 1, &view(&slices(&logs), &counts), false),
            Op::Decide(0)
        );
    }

    #[test]
    #[should_panic]
    fn quorum_bounds_checked() {
        let _ = QuorumVoteProtocol::new(3, 4, 0);
    }

    #[test]
    fn names_are_descriptive() {
        assert!(FirstSeenProtocol::new(3).name().contains("first-seen"));
        assert!(QuorumVoteProtocol::new(3, 2, 0).name().contains("q=2"));
    }
}
