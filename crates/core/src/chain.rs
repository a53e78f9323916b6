//! Longest-chain selection (Algorithm 5's structure).
//!
//! The chain protocol appends to "the last states in the longest chains of
//! M" and, when several longest chains exist, resolves the tie with a
//! tie-breaking rule (deterministic — first in the memory — or uniformly at
//! random). This module computes the longest-chain tips and extracts chains;
//! the tie-breaking *policy* lives with the protocols, which own the RNG.

use crate::dag::{DagIndex, DagRead};
use crate::ids::MsgId;
use crate::view::MemoryView;

/// Positions of all deepest messages — the candidate set `C` of Algorithm 5
/// line 5 ("the set of the last states in the longest chains of M").
/// Returned in id (arrival) order, so index 0 is the deterministic
/// "first longest chain in the memory" choice of Theorem 5.3.
pub fn longest_chain_tips<D: DagRead + ?Sized>(dag: &D) -> Vec<usize> {
    let d = dag.max_depth();
    (0..dag.len()).filter(|&i| dag.depth_of(i) == d).collect()
}

/// The chain from `tip` back to a root, returned root-first. When a message
/// has several parents (DAG merges), the deepest parent is followed, ties
/// broken towards the smallest id — this is the canonical chain
/// decomposition used to order a DAG by its longest chain.
pub fn chain_to_genesis<D: DagRead + ?Sized>(dag: &D, tip: usize) -> Vec<usize> {
    // Following deepest parents loses exactly one level per step.
    let mut chain = Vec::with_capacity(dag.depth_of(tip) as usize + 1);
    chain.push(tip);
    let mut cur = tip;
    loop {
        let parents = dag.parents_of(cur);
        if parents.is_empty() {
            break;
        }
        let mut best = parents[0] as usize;
        for &p in &parents[1..] {
            let p = p as usize;
            let better_depth = dag.depth_of(p) > dag.depth_of(best);
            let equal_depth_smaller_id = dag.depth_of(p) == dag.depth_of(best) && p < best;
            if better_depth || equal_depth_smaller_id {
                best = p;
            }
        }
        chain.push(best);
        cur = best;
    }
    chain.reverse();
    chain
}

/// The longest chain as positions, root first, under the deterministic
/// first-tip rule for ties; empty for an empty DAG. The walk starts at the
/// store's maintained [`deepest`](crate::BlockStore::deepest) block (ties
/// to the smallest id), so it costs O(depth), not a scan of the DAG.
pub fn longest_chain_positions<D: DagRead + ?Sized>(dag: &D) -> Vec<usize> {
    if dag.is_empty() {
        return Vec::new();
    }
    chain_to_genesis(dag, dag.store().deepest().index())
}

/// Convenience: the longest chain of a view as message ids (root first),
/// using the deterministic first-tip rule for ties.
pub fn longest_chain(view: &MemoryView) -> Vec<MsgId> {
    let dag = DagIndex::new(view);
    longest_chain_with(&dag)
}

/// [`longest_chain`] on an existing index — decision paths that also
/// linearize build the index once and share it.
pub fn longest_chain_with<D: DagRead + ?Sized>(dag: &D) -> Vec<MsgId> {
    longest_chain_positions(dag)
        .into_iter()
        .map(|p| dag.id_at(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, GENESIS};
    use crate::memory::AppendMemory;
    use crate::message::MessageBuilder;
    use crate::value::Value;

    fn append(m: &AppendMemory, a: u32, parents: &[MsgId]) -> MsgId {
        m.append(MessageBuilder::new(NodeId(a), Value::plus()).parents(parents.iter().copied()))
            .unwrap()
    }

    #[test]
    fn single_chain() {
        let m = AppendMemory::new(1);
        let a = append(&m, 0, &[GENESIS]);
        let b = append(&m, 0, &[a]);
        let c = append(&m, 0, &[b]);
        let chain = longest_chain(&m.read());
        assert_eq!(chain, vec![GENESIS, a, b, c]);
    }

    #[test]
    fn fork_produces_two_tips() {
        let m = AppendMemory::new(2);
        let a = append(&m, 0, &[GENESIS]);
        let b1 = append(&m, 0, &[a]);
        let b2 = append(&m, 1, &[a]);
        let dag = DagIndex::new(&m.read());
        let tips = longest_chain_tips(&dag);
        assert_eq!(tips.len(), 2);
        assert_eq!(dag.id_at(tips[0]), b1);
        assert_eq!(dag.id_at(tips[1]), b2);
        // Deterministic rule picks the first (b1).
        assert_eq!(longest_chain(&m.read()).last(), Some(&b1));
    }

    #[test]
    fn deeper_branch_wins_regardless_of_arrival() {
        let m = AppendMemory::new(2);
        let a = append(&m, 0, &[GENESIS]); // branch 1, early
        let c = append(&m, 1, &[GENESIS]); // branch 2
        let d = append(&m, 1, &[c]); // branch 2 is deeper
        let chain = longest_chain(&m.read());
        assert_eq!(chain, vec![GENESIS, c, d]);
        let _ = a;
    }

    #[test]
    fn merge_follows_deepest_parent() {
        let m = AppendMemory::new(3);
        let a = append(&m, 0, &[GENESIS]);
        let b = append(&m, 0, &[a]); // depth 2
        let c = append(&m, 1, &[GENESIS]); // depth 1
        let d = append(&m, 2, &[b, c]); // merge; chain must route via b
        let chain = longest_chain(&m.read());
        assert_eq!(chain, vec![GENESIS, a, b, d]);
    }

    #[test]
    fn merge_tie_breaks_to_smaller_id() {
        let m = AppendMemory::new(3);
        let a = append(&m, 0, &[GENESIS]); // depth 1
        let b = append(&m, 1, &[GENESIS]); // depth 1
        let c = append(&m, 2, &[a, b]); // both parents depth 1
        let dag = DagIndex::new(&m.read());
        let pos_c = dag.position(c).unwrap();
        let chain = chain_to_genesis(&dag, pos_c);
        let ids: Vec<MsgId> = chain.iter().map(|&p| dag.id_at(p)).collect();
        assert_eq!(ids, vec![GENESIS, a, c]);
    }

    #[test]
    fn genesis_only_chain() {
        let m = AppendMemory::new(1);
        assert_eq!(longest_chain(&m.read()), vec![GENESIS]);
    }
}
