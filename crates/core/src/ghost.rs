//! GHOST-style heaviest-subtree chain selection.
//!
//! Algorithm 6's correctness "is based on one of the tie-breaking rules ...
//! such as the heaviest chain defined in the GHOST protocol \[22\] or simply
//! the longest chain \[14\]". This module implements the GHOST walk on the
//! reference DAG: starting from genesis, repeatedly step to the child whose
//! *future cone* (set of descendants, the DAG generalisation of the subtree
//! weight) is heaviest, breaking residual ties towards the smaller id.

use crate::dag::{DagIndex, DagRead};
use crate::ids::MsgId;
use crate::view::MemoryView;

/// Reusable buffers for the GHOST weight sweep: a flat descendant-bitset
/// pool (`n × ⌈n/64⌉` words for the exact path) and the weight vector.
/// Trial loops keep one per thread and hand it to
/// [`subtree_weights_in`] / [`ghost_pivot_in`], so repeated chain
/// selections allocate nothing once the pool has grown to the working
/// history size.
#[derive(Debug, Default)]
pub struct GhostScratch {
    /// Flat bitset pool: the cone of `pos` occupies
    /// `cones[pos * words..(pos + 1) * words]`.
    cones: Vec<u64>,
    /// Weight output of the last sweep.
    weight: Vec<u64>,
}

impl GhostScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> GhostScratch {
        GhostScratch::default()
    }

    /// The weights computed by the last [`subtree_weights_in`] call.
    pub fn weights(&self) -> &[u64] {
        &self.weight
    }
}

/// Weight of every message — 1 + the size of its future cone — into
/// caller-owned scratch buffers (read the result from
/// [`GhostScratch::weights`]); no allocation once the pool is warm. In a
/// tree this is exactly the GHOST subtree size; in a DAG a message may be
/// counted in several branches, which matches the inclusive interpretation.
pub fn subtree_weights_in<D: DagRead + ?Sized>(dag: &D, s: &mut GhostScratch) {
    let n = dag.len();
    s.weight.clear();
    s.weight.resize(n, 0);
    // Reverse topological order: children have larger positions, so a
    // right-to-left sweep sees all children before their parents. The DAG
    // weight counts *distinct* descendants, so we compute cone sizes via a
    // bitset sweep for correctness at O(n^2 / 64).
    if n <= 4096 {
        // Exact distinct-descendant count with bitsets.
        let words = n.div_ceil(64);
        s.cones.clear();
        s.cones.resize(n * words, 0);
        let cones = &mut s.cones;
        for pos in (0..n).rev() {
            // Mark self.
            cones[pos * words + pos / 64] |= 1u64 << (pos % 64);
            for &c in dag.children_of(pos) {
                // pos < c, so the destination range sits strictly left of
                // the source range in the flat pool.
                let (left, right) = cones.split_at_mut(c as usize * words);
                let dst = &mut left[pos * words..(pos + 1) * words];
                let src = &right[..words];
                for (d, w) in dst.iter_mut().zip(src.iter()) {
                    *d |= *w;
                }
            }
            s.weight[pos] = cones[pos * words..(pos + 1) * words]
                .iter()
                .map(|w| w.count_ones() as u64)
                .sum();
        }
    } else {
        // Large DAGs: fall back to the tree approximation (sum of child
        // weights), which over-counts diamond merges but preserves the
        // heaviest-branch comparisons the walk needs.
        for pos in (0..n).rev() {
            let mut w = 1u64;
            for &c in dag.children_of(pos) {
                w += s.weight[c as usize];
            }
            s.weight[pos] = w;
        }
    }
}

/// The GHOST pivot chain: the heaviest-subtree walk from genesis, returned
/// root-first as positions, through caller-owned scratch buffers.
pub fn ghost_pivot_positions_in<D: DagRead + ?Sized>(dag: &D, s: &mut GhostScratch) -> Vec<usize> {
    if dag.is_empty() {
        return Vec::new();
    }
    subtree_weights_in(dag, s);
    let weight = &s.weight;
    // Start at the root with the heaviest cone (genesis in full views).
    let mut cur = (0..dag.len())
        .filter(|&r| dag.parents_of(r).is_empty())
        .max_by_key(|&r| (weight[r], std::cmp::Reverse(r)))
        .expect("non-empty DAG has a root");
    // A walk along child edges gains at least one level per step.
    let mut chain = Vec::with_capacity(dag.max_depth() as usize + 1);
    chain.push(cur);
    loop {
        let kids = dag.children_of(cur);
        if kids.is_empty() {
            break;
        }
        let mut best = kids[0] as usize;
        for &k in &kids[1..] {
            let k = k as usize;
            if weight[k] > weight[best] || (weight[k] == weight[best] && k < best) {
                best = k;
            }
        }
        chain.push(best);
        cur = best;
    }
    chain
}

/// The GHOST pivot chain of a view as message ids, root-first.
pub fn ghost_pivot(view: &MemoryView) -> Vec<MsgId> {
    let dag = DagIndex::new(view);
    ghost_pivot_with(&dag)
}

/// [`ghost_pivot`] on an existing index — decision paths that also
/// linearize build the index once and share it.
pub fn ghost_pivot_with<D: DagRead + ?Sized>(dag: &D) -> Vec<MsgId> {
    ghost_pivot_in(dag, &mut GhostScratch::new())
}

/// [`ghost_pivot_with`] through caller-owned scratch buffers.
pub fn ghost_pivot_in<D: DagRead + ?Sized>(dag: &D, s: &mut GhostScratch) -> Vec<MsgId> {
    ghost_pivot_positions_in(dag, s)
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
    fn ghost_follows_heavier_subtree_not_longer_chain() {
        // Classic GHOST scenario: branch A is longer, branch B is heavier.
        //            /- a1 - a2 - a3          (3 blocks, chain)
        //   genesis -
        //            \- b1 - b2               (bushy: b1 has kids b2,b3,b4)
        //                 \- b3
        //                 \- b4
        let m = AppendMemory::new(8);
        let a1 = append(&m, 0, &[GENESIS]);
        let a2 = append(&m, 0, &[a1]);
        let a3 = append(&m, 0, &[a2]);
        let b1 = append(&m, 1, &[GENESIS]);
        let b2 = append(&m, 2, &[b1]);
        let _b3 = append(&m, 3, &[b1]);
        let _b4 = append(&m, 4, &[b1]);
        let pivot = ghost_pivot(&m.read());
        // Branch B has 4 blocks vs branch A's 3 → pivot goes through b1.
        assert_eq!(pivot[0], GENESIS);
        assert_eq!(pivot[1], b1);
        assert_eq!(pivot[2], b2); // deepest available in B
        let _ = a3;
    }

    #[test]
    fn longest_chain_differs_from_ghost_here() {
        let m = AppendMemory::new(8);
        let a1 = append(&m, 0, &[GENESIS]);
        let a2 = append(&m, 0, &[a1]);
        let a3 = append(&m, 0, &[a2]);
        let b1 = append(&m, 1, &[GENESIS]);
        for i in 2..5 {
            append(&m, i, &[b1]);
        }
        let lc = crate::chain::longest_chain(&m.read());
        assert_eq!(lc.last(), Some(&a3), "longest chain prefers branch A");
        let gp = ghost_pivot(&m.read());
        assert_eq!(gp[1], b1, "GHOST prefers branch B");
    }

    #[test]
    fn diamond_counts_descendants_once() {
        // genesis -> x, genesis -> y, z references both x and y.
        // Exact cone weight of genesis = 4 (self,x,y,z), of x = 2, y = 2.
        let m = AppendMemory::new(4);
        let x = append(&m, 0, &[GENESIS]);
        let y = append(&m, 1, &[GENESIS]);
        let z = append(&m, 2, &[x, y]);
        let dag = crate::dag::DagIndex::new(&m.read());
        let mut s = GhostScratch::new();
        subtree_weights_in(&dag, &mut s);
        let w = s.weights();
        assert_eq!(w[0], 4);
        assert_eq!(w[dag.position(x).unwrap()], 2);
        assert_eq!(w[dag.position(y).unwrap()], 2);
        assert_eq!(w[dag.position(z).unwrap()], 1);
    }

    #[test]
    fn tie_breaks_to_smaller_id() {
        let m = AppendMemory::new(2);
        let a = append(&m, 0, &[GENESIS]);
        let b = append(&m, 1, &[GENESIS]);
        let pivot = ghost_pivot(&m.read());
        assert_eq!(pivot, vec![GENESIS, a]);
        let _ = b;
    }

    #[test]
    fn genesis_only() {
        let m = AppendMemory::new(1);
        assert_eq!(ghost_pivot(&m.read()), vec![GENESIS]);
    }

    #[test]
    fn chain_equals_ghost_on_pure_chain() {
        let m = AppendMemory::new(1);
        let mut prev = GENESIS;
        for _ in 0..8 {
            prev = append(&m, 0, &[prev]);
        }
        let v = m.read();
        assert_eq!(ghost_pivot(&v), crate::chain::longest_chain(&v));
    }
}
