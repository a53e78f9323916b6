//! DAG linearization with respect to a selected chain.
//!
//! Algorithm 6, line 9: "Order the values of the DAG with respect to the
//! longest chain." Following the inclusive-blockchain construction, each
//! chain block defines an *epoch*: the messages in its past cone that no
//! earlier chain block covered. Epochs are emitted chain-order; inside an
//! epoch, messages are emitted in a topological order with deterministic
//! content-derived tie-breaking by `(author, seq)`
//! ([`DagRead::content_key`]) — nodes may not use the memory's arrival
//! order, which the model explicitly withholds from them.

use crate::dag::{DagIndex, DagRead};
use crate::ids::MsgId;
use crate::view::MemoryView;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The result of linearizing a DAG along a chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Linearization {
    /// All covered messages, in decision order (genesis included, first).
    pub order: Vec<MsgId>,
    /// Messages of the view not covered by the chain's past cone (appeared
    /// after / besides the chain and unreferenced by it).
    pub uncovered: Vec<MsgId>,
}

impl Linearization {
    /// The first `k` *value-carrying* entries of the order — the prefix the
    /// sign-of-sum decisions of Section 5 operate on. Genesis and other
    /// unit appends are skipped (they carry no input value).
    pub fn first_k_values(&self, view: &MemoryView, k: usize) -> Vec<MsgId> {
        self.order
            .iter()
            .copied()
            .filter(|&id| {
                view.get(id)
                    .map(|m| m.value.as_sign().is_some())
                    .unwrap_or(false)
            })
            .take(k)
            .collect()
    }
}

/// Reusable buffers of [`linearize_in`]. Trial loops keep one per thread,
/// so a decision allocates nothing once the buffers have grown to the
/// working history size; every call starts from a cleared state.
#[derive(Debug, Default)]
pub struct LinScratch {
    emitted: Vec<bool>,
    /// `stamp[p] == cur` marks `p` as a member of the epoch currently being
    /// emitted; `pending[p]` is only meaningful under a matching stamp.
    stamp: Vec<u32>,
    pending: Vec<u32>,
    epoch: Vec<usize>,
    ready: BinaryHeap<Reverse<((u32, u64), usize)>>,
    order: Vec<usize>,
}

impl LinScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> LinScratch {
        LinScratch::default()
    }

    /// Positions covered by the last [`linearize_in`] call, in decision
    /// order (the root first).
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

/// Linearizes `view` along `chain` (a root-first list of message ids, as
/// produced by [`longest_chain`](crate::chain::longest_chain) or
/// [`ghost_pivot`](crate::ghost::ghost_pivot)).
pub fn linearize(view: &MemoryView, chain: &[MsgId]) -> Linearization {
    let dag = DagIndex::new(view);
    linearize_with(&dag, chain)
}

/// [`linearize`] on an existing index — decision paths build the index once
/// and share it between chain selection and linearization. Chain ids the
/// DAG does not hold are skipped. The allocating form of [`linearize_in`].
pub fn linearize_with<D: DagRead + ?Sized>(dag: &D, chain: &[MsgId]) -> Linearization {
    let positions: Vec<usize> = chain.iter().filter_map(|&id| dag.position(id)).collect();
    let mut s = LinScratch::new();
    linearize_in(dag, &positions, &mut s);
    Linearization {
        order: s.order.iter().map(|&p| dag.id_at(p)).collect(),
        uncovered: (0..dag.len())
            .filter(|&p| !s.emitted[p])
            .map(|p| dag.id_at(p))
            .collect(),
    }
}

/// Linearizes `dag` along `chain` — root-first *positions*, as the
/// `*_positions` chain rules return them — into `s`; read the result from
/// [`LinScratch::order`]. Epoch membership and pending parent counts live
/// in dense stamp arrays instead of per-epoch hash maps.
pub fn linearize_in<D: DagRead + ?Sized>(dag: &D, chain: &[usize], s: &mut LinScratch) {
    let n = dag.len();
    let LinScratch {
        emitted,
        stamp,
        pending,
        epoch,
        ready,
        order,
    } = s;
    emitted.clear();
    emitted.resize(n, false);
    stamp.clear();
    stamp.resize(n, 0);
    pending.clear();
    pending.resize(n, 0);
    order.clear();
    let mut cur: u32 = 0;

    for &bpos in chain {
        if emitted[bpos] {
            continue;
        }
        // The epoch: past cone of the block, minus what earlier epochs took,
        // plus the block itself. Earlier epochs each emitted a full closed
        // cone, so the emitted set is downward-closed and a traversal from
        // the block that stops at emitted nodes reaches exactly the
        // non-emitted ancestors — every message is walked once across all
        // epochs, not once per covering chain block.
        cur += 1;
        epoch.clear();
        stamp[bpos] = cur;
        epoch.push(bpos);
        let mut i = 0; // `epoch` doubles as the traversal worklist
        while i < epoch.len() {
            let p = epoch[i];
            i += 1;
            for &q in dag.parents_of(p) {
                let q = q as usize;
                if !emitted[q] && stamp[q] != cur {
                    stamp[q] = cur;
                    epoch.push(q);
                }
            }
        }
        // Remaining in-epoch parent counts; members with none are ready.
        ready.clear();
        for &p in epoch.iter() {
            let cnt = dag
                .parents_of(p)
                .iter()
                .filter(|&&q| stamp[q as usize] == cur)
                .count() as u32;
            pending[p] = cnt;
            if cnt == 0 {
                ready.push(Reverse((dag.content_key(p), p)));
            }
        }
        // Emit in topological order, min-heap on the content key.
        while let Some(Reverse((_, p))) = ready.pop() {
            if emitted[p] {
                continue;
            }
            emitted[p] = true;
            order.push(p);
            for &c in dag.children_of(p) {
                let c = c as usize;
                if stamp[c] == cur && pending[c] > 0 {
                    pending[c] -= 1;
                    if pending[c] == 0 {
                        ready.push(Reverse((dag.content_key(c), c)));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::longest_chain;
    use crate::ids::{NodeId, GENESIS};
    use crate::memory::AppendMemory;
    use crate::message::MessageBuilder;
    use crate::value::Value;

    fn append(m: &AppendMemory, a: u32, v: Value, parents: &[MsgId]) -> MsgId {
        m.append(MessageBuilder::new(NodeId(a), v).parents(parents.iter().copied()))
            .unwrap()
    }

    #[test]
    fn pure_chain_linearizes_in_chain_order() {
        let m = AppendMemory::new(1);
        let a = append(&m, 0, Value::plus(), &[GENESIS]);
        let b = append(&m, 0, Value::minus(), &[a]);
        let v = m.read();
        let lin = linearize(&v, &longest_chain(&v));
        assert_eq!(lin.order, vec![GENESIS, a, b]);
        assert!(lin.uncovered.is_empty());
    }

    #[test]
    fn epoch_pulls_in_referenced_fork() {
        // genesis -> a (by v0), genesis -> b (by v1), c references both.
        // Chain goes genesis→a→c (a is deeper? no — both depth 1; chain via
        // smaller id a). Epoch of c must pull in b.
        let m = AppendMemory::new(3);
        let a = append(&m, 0, Value::plus(), &[GENESIS]);
        let b = append(&m, 1, Value::minus(), &[GENESIS]);
        let c = append(&m, 2, Value::plus(), &[a, b]);
        let v = m.read();
        let lin = linearize(&v, &longest_chain(&v));
        assert_eq!(lin.order.len(), 4);
        assert!(lin.uncovered.is_empty());
        // b appears in the order even though it is off the selected chain.
        assert!(lin.order.contains(&b));
        // c comes after both its parents.
        let pos = |id: MsgId| lin.order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(c));
        let _ = pos(GENESIS);
    }

    #[test]
    fn unreferenced_fork_stays_uncovered() {
        let m = AppendMemory::new(2);
        let a = append(&m, 0, Value::plus(), &[GENESIS]);
        let b = append(&m, 0, Value::plus(), &[a]);
        let stray = append(&m, 1, Value::minus(), &[GENESIS]);
        let v = m.read();
        let lin = linearize(&v, &longest_chain(&v));
        assert_eq!(lin.order, vec![GENESIS, a, b]);
        assert_eq!(lin.uncovered, vec![stray]);
    }

    #[test]
    fn intra_epoch_order_is_author_seq() {
        // Two forks by v2 (seq 0) and v1 (seq 0); both referenced by a merge.
        // Within the epoch, v1 must precede v2 (author order), regardless of
        // arrival order.
        let m = AppendMemory::new(3);
        let x = append(&m, 2, Value::plus(), &[GENESIS]); // arrives first
        let y = append(&m, 1, Value::minus(), &[GENESIS]); // arrives second
        let z = append(&m, 0, Value::plus(), &[x, y]);
        let v = m.read();
        // Chain that jumps straight to z: x and y land in z's epoch.
        let lin = linearize(&v, &[GENESIS, z]);
        let pos = |id: MsgId| lin.order.iter().position(|&x| x == id).unwrap();
        assert!(
            pos(y) < pos(x),
            "author v1 orders before v2 inside an epoch"
        );
        assert!(pos(x) < pos(z));
    }

    #[test]
    fn first_k_values_skips_non_spin() {
        let m = AppendMemory::new(2);
        let a = append(&m, 0, Value::plus(), &[GENESIS]);
        let b = append(&m, 1, Value::Unit, &[a]); // carries no input
        let c = append(&m, 0, Value::minus(), &[b]);
        let v = m.read();
        let lin = linearize(&v, &longest_chain(&v));
        assert_eq!(lin.first_k_values(&v, 2), vec![a, c]);
        assert_eq!(lin.first_k_values(&v, 1), vec![a]);
        assert_eq!(lin.first_k_values(&v, 10), vec![a, c]);
    }

    #[test]
    fn chain_ids_missing_from_view_are_skipped() {
        let m = AppendMemory::new(1);
        let a = append(&m, 0, Value::plus(), &[GENESIS]);
        let v = m.read();
        let lin = linearize(&v, &[GENESIS, a, MsgId(99)]);
        assert_eq!(lin.order, vec![GENESIS, a]);
    }

    #[test]
    fn linearization_is_deterministic_across_identical_views() {
        let m = AppendMemory::new(4);
        let mut tips = vec![GENESIS];
        for i in 0..12u32 {
            let t = append(&m, i % 4, Value::plus(), &tips.clone());
            tips = vec![t];
            if i % 3 == 0 {
                tips.push(append(&m, (i + 1) % 4, Value::minus(), &[GENESIS]));
            }
        }
        let v = m.read();
        let c = longest_chain(&v);
        let l1 = linearize(&v, &c);
        let l2 = linearize(&v, &c);
        assert_eq!(l1, l2);
    }
}
