//! The pivot-chain rule of Li et al. \[14\] (Conflux).
//!
//! The paper cites two chain rules for ordering a DAG: GHOST \[22\] and the
//! pivot chain \[14\]. The pivot rule walks the *parental tree* — each block
//! designates one first parent, and the walk at each step enters the child
//! whose parental subtree is heaviest. It differs from [`crate::ghost`]
//! (which weighs full future cones in the DAG) exactly on blocks that are
//! referenced by many branches: the pivot rule counts them once, in the
//! subtree of their first parent.

use crate::dag::{DagIndex, DagRead};
use crate::ids::MsgId;
use crate::view::MemoryView;

/// Subtree sizes of the first-parent tree (each block counted exactly
/// once, in its first parent's subtree).
pub fn pivot_weights<D: DagRead + ?Sized>(dag: &D) -> Vec<u64> {
    let mut w = vec![1u64; dag.len()];
    // Positions ascend from parents to children, so a reverse sweep
    // accumulates children before parents.
    for pos in (0..dag.len()).rev() {
        if let Some(p) = dag.first_parent(pos) {
            w[p] += w[pos];
        }
    }
    w
}

/// The pivot chain: heaviest-first-parent-subtree walk from the heaviest
/// root, ties to the smaller id. Returned root-first as positions.
pub fn pivot_chain_positions<D: DagRead + ?Sized>(dag: &D) -> Vec<usize> {
    if dag.is_empty() {
        return Vec::new();
    }
    let w = pivot_weights(dag);
    let mut cur = (0..dag.len())
        .filter(|&p| dag.first_parent(p).is_none())
        .max_by_key(|&p| (w[p], std::cmp::Reverse(p)))
        .expect("non-empty view has a tree root");
    let mut chain = Vec::with_capacity(dag.max_depth() as usize + 1);
    chain.push(cur);
    // The tree children of `cur` are those of its DAG children that list
    // it first.
    while let Some(best) = dag
        .children_of(cur)
        .iter()
        .map(|&k| k as usize)
        .filter(|&k| dag.first_parent(k) == Some(cur))
        .max_by_key(|&k| (w[k], std::cmp::Reverse(k)))
    {
        chain.push(best);
        cur = best;
    }
    chain
}

/// The pivot chain of a view as message ids, root-first.
pub fn pivot_chain(view: &MemoryView) -> Vec<MsgId> {
    let dag = DagIndex::new(view);
    pivot_chain_with(&dag)
}

/// [`pivot_chain`] on an existing index — decision paths that also
/// linearize build the index once and share it.
pub fn pivot_chain_with<D: DagRead + ?Sized>(dag: &D) -> Vec<MsgId> {
    pivot_chain_positions(dag)
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
    fn pure_chain_pivot_equals_chain() {
        let m = AppendMemory::new(1);
        let mut prev = GENESIS;
        let mut ids = vec![GENESIS];
        for _ in 0..6 {
            prev = append(&m, 0, &[prev]);
            ids.push(prev);
        }
        assert_eq!(pivot_chain(&m.read()), ids);
    }

    #[test]
    fn first_parent_tree_uses_first_reference_only() {
        let m = AppendMemory::new(3);
        let a = append(&m, 0, &[GENESIS]);
        let b = append(&m, 1, &[GENESIS]);
        let c = append(&m, 2, &[b, a]); // first parent = b
        let v = m.read();
        let dag = DagIndex::new(&v);
        let cpos = dag.position(c).unwrap();
        let bpos = dag.position(b).unwrap();
        assert_eq!(dag.first_parent(cpos), Some(bpos));
        // Weights: a's subtree is just itself; b's carries c.
        let w = pivot_weights(&dag);
        assert_eq!(w[dag.position(a).unwrap()], 1);
        assert_eq!(w[bpos], 2);
        assert_eq!(w[0], 4); // genesis: self + a + b + c
    }

    #[test]
    fn pivot_differs_from_ghost_on_shared_descendants() {
        // Branches A and B fork at genesis; a heavy merge block m lists
        // A's tip *second* and B's tip *first*. GHOST (future cones) gives
        // both branches credit for m and its descendants; the pivot rule
        // credits only branch B. Make branch A longer so GHOST-by-cones
        // and pivot disagree.
        let m = AppendMemory::new(6);
        let a1 = append(&m, 0, &[GENESIS]);
        let a2 = append(&m, 0, &[a1]);
        let b1 = append(&m, 1, &[GENESIS]);
        let merge = append(&m, 2, &[b1, a2]); // first parent b1
        let d1 = append(&m, 3, &[merge]);
        let _d2 = append(&m, 4, &[d1]);
        let v = m.read();
        let pivot = pivot_chain(&v);
        // Pivot: genesis → b1 (subtree {b1, merge, d1, d2} = 4 vs
        // {a1, a2} = 2) → merge → d1 → d2.
        assert_eq!(pivot[1], b1);
        assert_eq!(pivot[2], merge);
        // Longest chain would route through a1/a2 (depth via a2 equals
        // depth via b1 + 1? depths: merge depth = max(b1,a2)+1 = 3).
        let lc = crate::chain::longest_chain(&v);
        assert!(
            lc.contains(&a1),
            "longest chain prefers the deeper branch A"
        );
    }

    #[test]
    fn pivot_total_weight_is_exact() {
        // Unlike DAG future cones, first-parent subtrees partition the
        // blocks: root weight == number of blocks in its tree.
        let m = AppendMemory::new(4);
        let a = append(&m, 0, &[GENESIS]);
        let b = append(&m, 1, &[GENESIS]);
        let _c = append(&m, 2, &[a, b]);
        let _d = append(&m, 3, &[b, a]);
        let dag = DagIndex::new(&m.read());
        let w = pivot_weights(&dag);
        assert_eq!(w[0] as usize, dag.len(), "tree partitions the view");
    }

    #[test]
    fn genesis_only() {
        let m = AppendMemory::new(1);
        assert_eq!(pivot_chain(&m.read()), vec![GENESIS]);
    }
}
