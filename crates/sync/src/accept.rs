//! The chain-acceptance rule of Algorithm 1, Line 6.
//!
//! "Let a value val(w) be accepted, if there exists a chain of t + 1
//! distinct nodes v, w_1, w_2, …, w_t such that (val(v), ∅) is listed in
//! (w_1, L_1), (w_1, L_1) is in (w_2, L_2), …, and (w_{t−1}, L_{t−1}) is
//! in (w_t, L_t)."
//!
//! Structurally: a path of messages, one per round `1..=t+1`, each listed
//! in the next one's reference set, with **pairwise distinct authors**,
//! whose final (round `t+1`) message is in the deciding node's view.
//!
//! [`accepted_values`] is a DFS with memoized dead states, which prunes
//! the exponential blow-up on the dense reference graphs correct nodes
//! produce; the literal recursive path enumeration it must agree with is
//! the reference in this module's tests.

use am_core::view::MemoryView;
use am_core::{Message, MsgId, NodeId, Round, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One accepted round-1 value instance: the proposing author and its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Accepted {
    /// The proposing node (`v` in the chain).
    pub author: NodeId,
    /// The proposed binary value.
    pub value: bool,
    /// The round-1 message carrying it.
    pub msg: MsgId,
}

/// Index of the round-tagged reference graph of a view.
struct RoundIndex<'a> {
    /// Messages by round.
    by_round: HashMap<u32, Vec<&'a Arc<Message>>>,
    /// children[m] = messages listing m among their parents.
    children: HashMap<MsgId, Vec<&'a Arc<Message>>>,
}

impl<'a> RoundIndex<'a> {
    fn new(view: &'a MemoryView) -> RoundIndex<'a> {
        let mut by_round: HashMap<u32, Vec<&'a Arc<Message>>> = HashMap::new();
        let mut children: HashMap<MsgId, Vec<&'a Arc<Message>>> = HashMap::new();
        for m in view.iter() {
            if let Some(Round(r)) = m.round {
                by_round.entry(r).or_default().push(m);
            }
            for &p in &m.parents {
                children.entry(p).or_default().push(m);
            }
        }
        RoundIndex { by_round, children }
    }

    fn round_1(&self) -> &[&'a Arc<Message>] {
        self.by_round.get(&1).map(Vec::as_slice).unwrap_or(&[])
    }
}

fn author_bit(m: &Message) -> Option<u64> {
    m.author.map(|a| 1u64 << (a.0 % 64))
}

/// Pruned DFS: does a distinct-author chain of length `t+1` rounds exist
/// from `start`? `dead` memoizes (msg, author-mask) states proven fruitless.
fn chain_exists(
    idx: &RoundIndex<'_>,
    start: &Arc<Message>,
    t: u32,
    dead: &mut HashSet<(MsgId, u64)>,
) -> bool {
    fn dfs(
        idx: &RoundIndex<'_>,
        m: &Arc<Message>,
        mask: u64,
        t: u32,
        dead: &mut HashSet<(MsgId, u64)>,
    ) -> bool {
        let Some(Round(r)) = m.round else {
            return false;
        };
        if r == t + 1 {
            return true;
        }
        if dead.contains(&(m.id, mask)) {
            return false;
        }
        if let Some(kids) = idx.children.get(&m.id) {
            for k in kids {
                let (Some(Round(kr)), Some(bit)) = (k.round, author_bit(k)) else {
                    continue;
                };
                if kr == r + 1 && mask & bit == 0 && dfs(idx, k, mask | bit, t, dead) {
                    return true;
                }
            }
        }
        dead.insert((m.id, mask));
        false
    }
    let Some(bit) = author_bit(start) else {
        return false;
    };
    dfs(idx, start, bit, t, dead)
}

/// Chain acceptance with dead-state memoization: the accepted round-1
/// value instances visible in `view` under parameter `t`.
pub fn accepted_values(view: &MemoryView, t: u32) -> Vec<Accepted> {
    let idx = RoundIndex::new(view);
    let mut dead: HashSet<(MsgId, u64)> = HashSet::new();
    let mut out = Vec::new();
    for m in idx.round_1() {
        let (Some(author), Value::Bit(value)) = (m.author, m.value) else {
            continue;
        };
        if chain_exists(&idx, m, t, &mut dead) {
            out.push(Accepted {
                author,
                value,
                msg: m.id,
            });
        }
    }
    out.sort_by_key(|a| a.msg);
    out
}

/// Algorithm 1 Line 7: the majority over accepted values; ties decide
/// `false` (the rule must be deterministic and common to all nodes).
pub fn decide(accepted: &[Accepted]) -> bool {
    let ones = accepted.iter().filter(|a| a.value).count();
    let zeros = accepted.len() - ones;
    ones > zeros
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_core::{AppendMemory, MessageBuilder, GENESIS};

    /// The reference: literal path enumeration with no memoization.
    fn accepted_values_naive(view: &MemoryView, t: u32) -> Vec<Accepted> {
        fn dfs(idx: &RoundIndex<'_>, m: &Arc<Message>, mask: u64, t: u32) -> bool {
            let Some(Round(r)) = m.round else {
                return false;
            };
            if r == t + 1 {
                return true;
            }
            if let Some(kids) = idx.children.get(&m.id) {
                for k in kids {
                    let (Some(Round(kr)), Some(bit)) = (k.round, author_bit(k)) else {
                        continue;
                    };
                    if kr == r + 1 && mask & bit == 0 && dfs(idx, k, mask | bit, t) {
                        return true;
                    }
                }
            }
            false
        }
        let idx = RoundIndex::new(view);
        let mut out = Vec::new();
        for m in idx.round_1() {
            let (Some(author), Value::Bit(value), Some(bit)) = (m.author, m.value, author_bit(m))
            else {
                continue;
            };
            if dfs(&idx, m, bit, t) {
                out.push(Accepted {
                    author,
                    value,
                    msg: m.id,
                });
            }
        }
        out.sort_by_key(|a| a.msg);
        out
    }

    /// Builds a clean 2-round (t=1) history for 3 correct nodes with the
    /// given inputs; returns the memory.
    fn correct_history(inputs: &[bool]) -> AppendMemory {
        let n = inputs.len();
        let mem = AppendMemory::new(n);
        let mut r1 = Vec::new();
        for (i, &b) in inputs.iter().enumerate() {
            let id = mem
                .append(
                    MessageBuilder::new(NodeId(i as u32), Value::Bit(b))
                        .parent(GENESIS)
                        .round(Round(1)),
                )
                .unwrap();
            r1.push(id);
        }
        for (i, &b) in inputs.iter().enumerate() {
            mem.append(
                MessageBuilder::new(NodeId(i as u32), Value::Bit(b))
                    .parents(r1.iter().copied())
                    .round(Round(2)),
            )
            .unwrap();
        }
        mem
    }

    #[test]
    fn all_correct_values_accepted() {
        let mem = correct_history(&[true, false, true]);
        let acc = accepted_values(&mem.read(), 1);
        assert_eq!(acc.len(), 3, "every correct value must be accepted");
        assert!(decide(&acc), "majority of {{1,0,1}} is 1");
    }

    #[test]
    fn naive_and_pruned_agree() {
        let mem = correct_history(&[true, true, false, false, true]);
        let v = mem.read();
        assert_eq!(accepted_values(&v, 1), accepted_values_naive(&v, 1));
    }

    #[test]
    fn unrelayed_value_rejected() {
        // A round-1 value that nobody lists in round 2 has no chain.
        let mem = correct_history(&[false, false]);
        // Node 2 appends round-1 late; no round-2 message references it.
        let mem2 = AppendMemory::new(3);
        let mut r1 = Vec::new();
        for i in 0..2u32 {
            r1.push(
                mem2.append(
                    MessageBuilder::new(NodeId(i), Value::Bit(false))
                        .parent(GENESIS)
                        .round(Round(1)),
                )
                .unwrap(),
            );
        }
        let stray = mem2
            .append(
                MessageBuilder::new(NodeId(2), Value::Bit(true))
                    .parent(GENESIS)
                    .round(Round(1)),
            )
            .unwrap();
        for i in 0..2u32 {
            mem2.append(
                MessageBuilder::new(NodeId(i), Value::Bit(false))
                    .parents(r1.iter().copied())
                    .round(Round(2)),
            )
            .unwrap();
        }
        let acc = accepted_values(&mem2.read(), 1);
        assert_eq!(acc.len(), 2);
        assert!(acc.iter().all(|a| a.msg != stray));
        assert!(!decide(&acc));
        let _ = mem;
    }

    #[test]
    fn chain_needs_distinct_authors() {
        // A node relaying its own round-1 value is not a valid chain.
        let mem = AppendMemory::new(2);
        let m1 = mem
            .append(
                MessageBuilder::new(NodeId(0), Value::Bit(true))
                    .parent(GENESIS)
                    .round(Round(1)),
            )
            .unwrap();
        // Self-relay only.
        mem.append(
            MessageBuilder::new(NodeId(0), Value::Bit(true))
                .parent(m1)
                .round(Round(2)),
        )
        .unwrap();
        let acc = accepted_values(&mem.read(), 1);
        assert!(acc.is_empty(), "self-relay must not satisfy the chain rule");
        assert_eq!(accepted_values_naive(&mem.read(), 1), acc);
    }

    #[test]
    fn cross_relay_is_a_valid_chain() {
        let mem = AppendMemory::new(2);
        let m1 = mem
            .append(
                MessageBuilder::new(NodeId(0), Value::Bit(true))
                    .parent(GENESIS)
                    .round(Round(1)),
            )
            .unwrap();
        mem.append(
            MessageBuilder::new(NodeId(1), Value::Bit(false))
                .parent(m1)
                .round(Round(2)),
        )
        .unwrap();
        let acc = accepted_values(&mem.read(), 1);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].author, NodeId(0));
        assert!(acc[0].value);
    }

    #[test]
    fn t_zero_accepts_direct_values() {
        let mem = AppendMemory::new(2);
        mem.append(
            MessageBuilder::new(NodeId(0), Value::Bit(true))
                .parent(GENESIS)
                .round(Round(1)),
        )
        .unwrap();
        let acc = accepted_values(&mem.read(), 0);
        assert_eq!(acc.len(), 1);
    }

    #[test]
    fn equivocating_author_contributes_both_instances() {
        // Author 0 appends two conflicting round-1 values, both relayed.
        let mem = AppendMemory::new(3);
        let a = mem
            .append(
                MessageBuilder::new(NodeId(0), Value::Bit(true))
                    .parent(GENESIS)
                    .round(Round(1)),
            )
            .unwrap();
        let b = mem
            .append(
                MessageBuilder::new(NodeId(0), Value::Bit(false))
                    .parent(GENESIS)
                    .round(Round(1)),
            )
            .unwrap();
        mem.append(
            MessageBuilder::new(NodeId(1), Value::Bit(true))
                .parents([a, b])
                .round(Round(2)),
        )
        .unwrap();
        let acc = accepted_values(&mem.read(), 1);
        assert_eq!(acc.len(), 2, "both equivocated instances accepted");
        // They cancel in the majority.
        assert!(!decide(&acc));
    }

    #[test]
    fn decide_tie_is_false() {
        assert!(!decide(&[]));
        let mem = correct_history(&[true, false]);
        let acc = accepted_values(&mem.read(), 1);
        assert_eq!(acc.len(), 2);
        assert!(!decide(&acc));
    }

    #[test]
    fn larger_t_requires_longer_chains() {
        // 2-round history checked with t=2 (needs 3-round chains): nothing
        // accepted.
        let mem = correct_history(&[true, true, true]);
        let acc = accepted_values(&mem.read(), 2);
        assert!(acc.is_empty());
    }
}
