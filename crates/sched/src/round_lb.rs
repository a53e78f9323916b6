//! The Lemma 3.1 round lower bound, as an exhaustive adversary search.
//!
//! Setting: synchronous nodes, round-based execution (one append + one read
//! per node per round), `t = 1` Byzantine node. The Byzantine power in the
//! append memory is *straddling*: "it can delay its own messages such that
//! only part of the nodes will see its message in the memory in round i,
//! and the other nodes will only be able to see it with the next read in
//! round i + 1."
//!
//! The protocol under test is the Algorithm-1 family truncated to `R`
//! rounds: accept a value iff an `R`-long chain of distinct relayers
//! vouches for it, decide the majority of accepted values. The search
//! enumerates every input vector and every Byzantine straddling strategy:
//!
//! * for `R ≤ t` it finds a disagreement execution (the constructive form
//!   of Lemma 3.1's "still bivalent at the end of round t");
//! * for `R = t + 1` the search is exhaustive and finds none (matching
//!   Theorem 3.2).

/// One Byzantine action in one round: Byzantine node `actor` appends
/// `value` and lets exactly the correct nodes in `visible_now` (a bitmask
/// over correct indices) see it within the round; everyone else sees it
/// one round later. Lemma 3.1's induction uses one Byzantine node per
/// round (`b_{i-1}`), which is exactly this shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ByzAction {
    /// Which Byzantine node acts this round (0-based among the t of them).
    pub actor: usize,
    /// The value the Byzantine node appends (its claimed input / relay).
    pub value: u8,
    /// Bitmask over *correct-node indices* that see the append this round.
    pub visible_now: u32,
}

/// A full Byzantine strategy: one optional action per round (`None` =
/// silent that round).
pub type ByzStrategy = Vec<Option<ByzAction>>;

/// A found disagreement: the inputs, the strategy, and the decisions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Disagreement {
    /// Correct nodes' inputs.
    pub inputs: Vec<u8>,
    /// The Byzantine schedule that splits the decisions.
    pub strategy: ByzStrategy,
    /// Per-correct-node decisions (not all equal).
    pub decisions: Vec<u8>,
}

/// Outcome of the exhaustive search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundLbOutcome {
    /// Number of (input, strategy) pairs simulated.
    pub executions: usize,
    /// The first disagreement found, if any.
    pub disagreement: Option<Disagreement>,
    /// A validity violation (uniform correct inputs, different decision),
    /// if any — tracked for completeness; the straddling adversary aims at
    /// agreement, not validity.
    pub validity_violation: Option<Disagreement>,
}

// ---------------------------------------------------------------------------
// Dense execution engine (hot path)
// ---------------------------------------------------------------------------

/// Bounds of the dense engine: `rounds ≤ 3`, `n_correct ≤ 8`, `t ≤ 3`.
const MAX_ROUNDS: usize = 3;
/// Max authors (correct + Byzantine).
const MAX_WIDTH: usize = 11;
/// Max message slots (`MAX_ROUNDS × MAX_WIDTH ≤ 64`, so slot sets and
/// reference lists fit in one `u64` bitmask each).
const MAX_SLOTS: usize = MAX_ROUNDS * MAX_WIDTH;

/// One R-round execution of the full-information protocol on flat
/// arrays: a message `(round, author)` is the slot
/// `(round-1)·width + author`, presence and reference lists are `u64`
/// bitmasks, visibility is a flat per-slot array — no allocation anywhere
/// on the per-execution path. Pinned decision for decision to the
/// `HashMap`-backed reference in this module's tests.
struct DenseExecution {
    width: usize,
    rounds: u32,
    /// Bit per present slot.
    present: u64,
    /// Value appended in each slot.
    value: [u8; MAX_SLOTS],
    /// Referenced slots, as a bitmask.
    refs: [u64; MAX_SLOTS],
    /// `seen_at[slot][i]` = round at which correct node `i` sees it.
    seen_at: [[u32; 8]; MAX_SLOTS],
}

impl DenseExecution {
    fn slot(&self, r: u32, author: usize) -> usize {
        (r as usize - 1) * self.width + author
    }

    /// Runs the full-information R-round protocol under the given inputs
    /// and Byzantine strategy; returns per-correct-node decisions.
    fn run(inputs: &[u8], n_byz: usize, rounds: u32, strategy: &ByzStrategy, tie: u8) -> Vec<u8> {
        let n_correct = inputs.len();
        let width = n_correct + n_byz.max(1);
        debug_assert!(width <= MAX_WIDTH && (rounds as usize) <= MAX_ROUNDS);
        let mut ex = DenseExecution {
            width,
            rounds,
            present: 0,
            value: [0; MAX_SLOTS],
            refs: [0; MAX_SLOTS],
            seen_at: [[u32::MAX; 8]; MAX_SLOTS],
        };

        for r in 1..=rounds {
            for (i, &input) in inputs.iter().enumerate() {
                let refs = if r == 1 { 0 } else { ex.visible_mask(i, r - 1) };
                let s = ex.slot(r, i);
                ex.present |= 1 << s;
                ex.value[s] = input;
                ex.refs[s] = refs;
                for vis in ex.seen_at[s].iter_mut().take(n_correct) {
                    *vis = r;
                }
            }
            if let Some(Some(a)) = strategy.get((r - 1) as usize) {
                let refs = if r == 1 { 0 } else { ex.round_mask(r - 1) };
                let s = ex.slot(r, n_correct + a.actor % n_byz.max(1));
                ex.present |= 1 << s;
                ex.value[s] = a.value;
                ex.refs[s] = refs;
                for (i, vis) in ex.seen_at[s].iter_mut().enumerate().take(n_correct) {
                    *vis = if (a.visible_now >> i) & 1 == 1 {
                        r
                    } else {
                        r + 1
                    };
                }
            }
        }

        (0..n_correct).map(|i| ex.decide(i, tie)).collect()
    }

    /// Slots visible to correct node `i` by the end of round `r`.
    fn visible_mask(&self, i: usize, r: u32) -> u64 {
        let mut m = self.present;
        let mut out = 0u64;
        while m != 0 {
            let s = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.seen_at[s][i] <= r {
                out |= 1 << s;
            }
        }
        out
    }

    /// Slots of round `r` (the Byzantine full-knowledge view).
    fn round_mask(&self, r: u32) -> u64 {
        let lo = (r as usize - 1) * self.width;
        let band = ((1u64 << self.width) - 1) << lo;
        self.present & band
    }

    /// Algorithm-1 acceptance: an `R`-chain of distinct authors from
    /// `(1, v)` whose final link node `i` sees in time.
    fn accepts(&self, i: usize, v: usize) -> bool {
        let start = v; // slot of (1, v)
        if self.present & (1 << start) == 0 {
            return false;
        }
        if self.rounds == 1 {
            return self.seen_at[start][i] <= 1;
        }
        let mut stack: [(usize, u64); MAX_SLOTS] = [(0, 0); MAX_SLOTS];
        let mut top = 0usize;
        stack[top] = (start, 1u64 << v);
        top += 1;
        while top > 0 {
            top -= 1;
            let (s, authors) = stack[top];
            let r = (s / self.width) as u32 + 1;
            if r == self.rounds {
                if self.seen_at[s][i] <= self.rounds {
                    return true;
                }
                continue;
            }
            let mut cand = self.round_mask(r + 1);
            while cand != 0 {
                let s2 = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let na = s2 % self.width;
                if (authors >> na) & 1 == 0 && self.refs[s2] & (1 << s) != 0 {
                    stack[top] = (s2, authors | (1u64 << na));
                    top += 1;
                }
            }
        }
        false
    }

    /// Majority over accepted round-1 values, ties to `tie`.
    fn decide(&self, i: usize, tie: u8) -> u8 {
        let mut ones = 0usize;
        let mut zeros = 0usize;
        for v in 0..self.width {
            if self.present & (1 << v) != 0 && self.accepts(i, v) {
                if self.value[v] == 1 {
                    ones += 1;
                } else {
                    zeros += 1;
                }
            }
        }
        match ones.cmp(&zeros) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => 0,
            std::cmp::Ordering::Equal => tie,
        }
    }
}

/// Simulates one round-based execution on the dense engine (the hot
/// path of [`search_disagreement_t`]).
pub fn simulate_execution(
    inputs: &[u8],
    n_byz: usize,
    rounds: u32,
    strategy: &ByzStrategy,
    tie: u8,
) -> Vec<u8> {
    DenseExecution::run(inputs, n_byz, rounds, strategy, tie)
}

/// Enumerates every Byzantine strategy for `rounds` rounds over
/// `n_correct` correct nodes and `n_byz` Byzantine actors: silent, or
/// (actor × value ∈ {0,1} × 2^n_correct visibility subsets) per round.
fn strategies(n_correct: usize, n_byz: usize, rounds: u32) -> Vec<ByzStrategy> {
    let per_round: Vec<Option<ByzAction>> = {
        let mut v: Vec<Option<ByzAction>> = vec![None];
        for actor in 0..n_byz.max(1) {
            for value in 0..=1u8 {
                for mask in 0..(1u32 << n_correct) {
                    v.push(Some(ByzAction {
                        actor,
                        value,
                        visible_now: mask,
                    }));
                }
            }
        }
        v
    };
    let mut all: Vec<ByzStrategy> = vec![Vec::new()];
    for _ in 0..rounds {
        let mut next = Vec::with_capacity(all.len() * per_round.len());
        for s in &all {
            for a in &per_round {
                let mut s2 = s.clone();
                s2.push(*a);
                next.push(s2);
            }
        }
        all = next;
    }
    all
}

/// Exhaustive Lemma 3.1 search with `t_byz` Byzantine nodes (one acting
/// per round, per the lemma's induction). `rounds ≤ t_byz` must find a
/// disagreement; `rounds = t_byz + 1` must not (for t < n/2).
pub fn search_disagreement_t(
    n_correct: usize,
    t_byz: usize,
    rounds: u32,
    tie: u8,
) -> RoundLbOutcome {
    assert!((2..=8).contains(&n_correct), "search is exponential in n");
    assert!((1..=3).contains(&rounds), "search is exponential in rounds");
    assert!((1..=3).contains(&t_byz), "search is exponential in t");
    let strats = strategies(n_correct, t_byz, rounds);
    let mut executions = 0usize;
    let mut disagreement = None;
    let mut validity_violation = None;

    for mask in 0..(1u32 << n_correct) {
        let inputs: Vec<u8> = (0..n_correct).map(|i| ((mask >> i) & 1) as u8).collect();
        let uniform = inputs.iter().all(|&b| b == inputs[0]);
        for s in &strats {
            executions += 1;
            let decisions = DenseExecution::run(&inputs, t_byz, rounds, s, tie);
            let split = decisions.iter().any(|&d| d != decisions[0]);
            if split && disagreement.is_none() {
                disagreement = Some(Disagreement {
                    inputs: inputs.clone(),
                    strategy: s.clone(),
                    decisions: decisions.clone(),
                });
            }
            if uniform && validity_violation.is_none() && decisions.iter().any(|&d| d != inputs[0])
            {
                validity_violation = Some(Disagreement {
                    inputs: inputs.clone(),
                    strategy: s.clone(),
                    decisions,
                });
            }
            if disagreement.is_some() && validity_violation.is_some() {
                return RoundLbOutcome {
                    executions,
                    disagreement,
                    validity_violation,
                };
            }
        }
    }
    RoundLbOutcome {
        executions,
        disagreement,
        validity_violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity of a message in the round-based execution: `(round, author)`,
    /// rounds 1-based, author `n_correct` = the Byzantine node.
    type MsgKey = (u32, usize);

    /// The `HashMap`-backed reference simulation the dense engine is
    /// pinned against, decision for decision.
    struct Execution {
        n_correct: usize,
        n_byz: usize,
        rounds: u32,
        /// Messages present: key → (value, referenced keys).
        msgs: std::collections::HashMap<MsgKey, (u8, Vec<MsgKey>)>,
        /// Visibility: key → round at which each correct node sees it.
        seen_at: std::collections::HashMap<MsgKey, Vec<u32>>,
    }

    impl Execution {
        /// Runs the full-information R-round protocol under the given inputs
        /// and Byzantine strategy; returns per-correct-node decisions.
        fn run(
            inputs: &[u8],
            n_byz: usize,
            rounds: u32,
            strategy: &ByzStrategy,
            tie: u8,
        ) -> Vec<u8> {
            let n_correct = inputs.len();
            let mut ex = Execution {
                n_correct,
                n_byz,
                rounds,
                msgs: std::collections::HashMap::new(),
                seen_at: std::collections::HashMap::new(),
            };

            for r in 1..=rounds {
                // Correct appends: (input, L_{r-1}) where L_{r-1} is everything
                // the node saw by the end of round r-1.
                for (i, &input) in inputs.iter().enumerate() {
                    let refs: Vec<MsgKey> = if r == 1 {
                        Vec::new()
                    } else {
                        ex.visible_to(i, r - 1)
                    };
                    let key = (r, i);
                    ex.msgs.insert(key, (input, refs));
                    // Correct appends land in the memory immediately: every
                    // node's read at the end of round r sees them.
                    ex.seen_at.insert(key, vec![r; n_correct]);
                }
                // Byzantine append with straddled visibility.
                if let Some(Some(a)) = strategy.get((r - 1) as usize) {
                    let refs: Vec<MsgKey> = if r == 1 {
                        Vec::new()
                    } else {
                        // Claims to have seen everything of round r-1 (the
                        // Byzantine node reads the true memory).
                        ex.all_of_round(r - 1)
                    };
                    let key = (r, n_correct + a.actor % n_byz.max(1));
                    ex.msgs.insert(key, (a.value, refs));
                    let vis: Vec<u32> = (0..n_correct)
                        .map(|i| {
                            if (a.visible_now >> i) & 1 == 1 {
                                r
                            } else {
                                r + 1
                            }
                        })
                        .collect();
                    ex.seen_at.insert(key, vis);
                }
            }

            (0..n_correct).map(|i| ex.decide(i, tie)).collect()
        }

        /// Keys visible to correct node `i` by the end of round `r`.
        fn visible_to(&self, i: usize, r: u32) -> Vec<MsgKey> {
            let mut v: Vec<MsgKey> = self
                .seen_at
                .iter()
                .filter(|(_, vis)| vis[i] <= r)
                .map(|(&k, _)| k)
                .collect();
            v.sort_unstable();
            v
        }

        /// All message keys of round `r` (the Byzantine full-knowledge view).
        fn all_of_round(&self, r: u32) -> Vec<MsgKey> {
            let mut v: Vec<MsgKey> = self
                .msgs
                .keys()
                .copied()
                .filter(|&(kr, _)| kr == r)
                .collect();
            v.sort_unstable();
            v
        }

        /// Algorithm-1 acceptance truncated to `rounds` chains: node `i`
        /// accepts author `v`'s round-1 value iff there is a chain of `rounds`
        /// *distinct* authors `v, w_1, …, w_{rounds-1}` with each link listing
        /// the previous message in its references, and the final message
        /// visible to `i` by the decision round.
        fn accepts(&self, i: usize, v: usize) -> bool {
            let start: MsgKey = (1, v);
            if !self.msgs.contains_key(&start) {
                return false;
            }
            if self.rounds == 1 {
                return self.seen_at[&start][i] <= 1;
            }
            // DFS over chains with distinct-author tracking.
            let mut stack: Vec<(MsgKey, u64)> = vec![(start, 1u64 << v)];
            while let Some((key, authors)) = stack.pop() {
                let (r, _) = key;
                if r == self.rounds {
                    if self.seen_at[&key][i] <= self.rounds {
                        return true;
                    }
                    continue;
                }
                // Find round r+1 messages that reference `key` and whose
                // author is new to the chain.
                for (&(nr, na), (_, refs)) in &self.msgs {
                    if nr == r + 1 && (authors >> na) & 1 == 0 && refs.contains(&key) {
                        stack.push(((nr, na), authors | (1u64 << na)));
                    }
                }
            }
            false
        }

        /// The decision of correct node `i`: majority over accepted round-1
        /// values, ties to `tie`.
        fn decide(&self, i: usize, tie: u8) -> u8 {
            let mut ones = 0usize;
            let mut zeros = 0usize;
            for v in 0..self.n_correct + self.n_byz {
                // every author incl. Byzantine
                if let Some(&(val, _)) = self.msgs.get(&(1, v)) {
                    if self.accepts(i, v) {
                        if val == 1 {
                            ones += 1;
                        } else {
                            zeros += 1;
                        }
                    }
                }
            }
            match ones.cmp(&zeros) {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => 0,
                std::cmp::Ordering::Equal => tie,
            }
        }
    }

    #[test]
    fn one_round_protocol_is_broken_by_straddling() {
        // t = 1 Byzantine, R = 1 ≤ t: disagreement must exist.
        for tie in [0u8, 1] {
            let out = search_disagreement_t(3, 1, 1, tie);
            let d = out
                .disagreement
                .unwrap_or_else(|| panic!("R=1 must disagree (tie={tie})"));
            assert!(d.decisions.iter().any(|&x| x != d.decisions[0]));
        }
    }

    #[test]
    fn two_round_protocol_resists_one_byzantine() {
        // R = t + 1 = 2: the exhaustive search must find NO disagreement —
        // the executable content of Theorem 3.2 at t = 1.
        let out = search_disagreement_t(3, 1, 2, 0);
        assert!(
            out.disagreement.is_none(),
            "Algorithm 1 with t+1 rounds must agree: {:?}",
            out.disagreement
        );
        assert!(out.executions > 1000, "search must be exhaustive");
    }

    #[test]
    fn two_round_protocol_preserves_validity() {
        let out = search_disagreement_t(3, 1, 2, 0);
        assert!(
            out.validity_violation.is_none(),
            "uniform inputs must decide that input: {:?}",
            out.validity_violation
        );
    }

    #[test]
    fn disagreement_witness_is_replayable() {
        let out = search_disagreement_t(3, 1, 1, 0);
        let d = out.disagreement.unwrap();
        // Re-run the found strategy and confirm the decisions replay.
        let replay = Execution::run(&d.inputs, 1, 1, &d.strategy, 0);
        assert_eq!(replay, d.decisions);
    }

    #[test]
    fn byz_silence_means_clean_majority() {
        // With a silent Byzantine node the correct nodes just take the
        // majority of their own inputs; no split possible.
        let silent: ByzStrategy = vec![None];
        for mask in 0..8u32 {
            let inputs: Vec<u8> = (0..3).map(|i| ((mask >> i) & 1) as u8).collect();
            let d = Execution::run(&inputs, 1, 1, &silent, 0);
            assert!(
                d.iter().all(|&x| x == d[0]),
                "inputs {inputs:?} split: {d:?}"
            );
        }
    }

    #[test]
    fn four_correct_nodes_still_safe_at_two_rounds() {
        let out = search_disagreement_t(4, 1, 2, 1);
        assert!(out.disagreement.is_none());
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn guards_against_explosion() {
        let _ = search_disagreement_t(9, 1, 1, 0);
    }

    #[test]
    fn two_byzantine_break_two_rounds() {
        // t = 2, R = 2 ≤ t: a relayed Byzantine chain (b1 round-1, b2
        // round-2) straddled at the decision boundary must split some
        // execution.
        let out = search_disagreement_t(3, 2, 2, 0);
        assert!(
            out.disagreement.is_some(),
            "R = 2 ≤ t = 2 must disagree somewhere"
        );
    }

    #[test]
    fn dense_engine_matches_naive_on_every_execution() {
        // Exhaustive decision-for-decision pin of the dense engine
        // against the HashMap reference: every input × strategy at
        // (n=3, t=1, R=2) and a straddled two-actor slice at R=2, t=2.
        for (t, rounds) in [(1usize, 2u32), (2, 2)] {
            let strats = strategies(3, t, rounds);
            for mask in 0..8u32 {
                let inputs: Vec<u8> = (0..3).map(|i| ((mask >> i) & 1) as u8).collect();
                for s in &strats {
                    for tie in [0u8, 1] {
                        assert_eq!(
                            DenseExecution::run(&inputs, t, rounds, s, tie),
                            Execution::run(&inputs, t, rounds, s, tie),
                            "inputs {inputs:?} strat {s:?} tie {tie}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn three_rounds_resist_two_byzantine() {
        // t = 2 < n/2 (n = 5), R = 3 = t + 1: exhaustive over every
        // two-actor straddling strategy — no disagreement.
        let out = search_disagreement_t(3, 2, 3, 0);
        assert!(
            out.disagreement.is_none(),
            "R = t+1 = 3 must resist: {:?}",
            out.disagreement
        );
        assert!(out.executions > 100_000, "search must be exhaustive");
    }
}
