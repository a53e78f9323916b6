//! The reference DAG over a memory view.
//!
//! "Listing preceding appends can be viewed as drawing an arrow from the
//! new append to all previous ones" (Section 5.3). [`DagIndex`] materialises
//! that graph for one snapshot: parent/child adjacency, depths, tips, and
//! cone traversals. Every chain-selection and ordering rule is built on it.
//!
//! Indices are positions in the view's id-sorted slice. Because the memory
//! assigns ids in arrival order and parents always precede children, slice
//! order is already a topological order — no explicit sort is ever needed.
//!
//! Layout: the graph is a [`BlockStore`] built from the view (parent CSR,
//! depths) plus a [`ChildIndex`] over it — the same columns and the same
//! child builder a simulation's growing store uses. Cone traversals mark
//! nodes in an epoch-stamped scratch buffer owned by the index, so repeated
//! `past_cone`/`future_cone`/`is_ancestor` calls on the same index allocate
//! nothing (resetting the marks is a single epoch increment, not an O(n)
//! clear).

use crate::ids::MsgId;
use crate::incremental::{BlockStore, ChildIndex};
use crate::message::Message;
use crate::view::MemoryView;
use std::cell::RefCell;
use std::sync::Arc;

/// What the chain-selection and ordering rules read of a reference DAG:
/// positions `0..len` in topological (id) order, held in a [`BlockStore`]
/// (parents, longest-path depths), child adjacency, and the two
/// content-derived facts the rules break ties with. [`DagIndex`]
/// implements it over a [`MemoryView`]; the trial runners' append-only
/// arena implements it over its own store, so [`crate::chain`],
/// [`crate::ghost`], [`crate::pivot`] and
/// [`crate::linearize`](mod@crate::linearize) exist once.
pub trait DagRead {
    /// The graph, positions as ids.
    fn store(&self) -> &BlockStore;

    /// Number of messages.
    fn len(&self) -> usize {
        self.store().len()
    }

    /// Whether the DAG holds no message at all (not even genesis).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parent positions of `pos`, in the order the message lists them.
    fn parents_of(&self, pos: usize) -> &[u32] {
        self.store().parents_of(pos)
    }

    /// Child positions of `pos`, ascending.
    fn children_of(&self, pos: usize) -> &[u32];

    /// Longest-path depth of `pos` (roots have depth 0).
    fn depth_of(&self, pos: usize) -> u32 {
        self.store().depth_of(pos)
    }

    /// Maximum depth over all messages (0 when empty).
    fn max_depth(&self) -> u32 {
        self.store().max_depth()
    }

    /// The message id at `pos`.
    fn id_at(&self, pos: usize) -> MsgId;

    /// Position of `id`, if the DAG holds it.
    fn position(&self, id: MsgId) -> Option<usize>;

    /// `(author, seq)` of `pos` — the content-derived order inside a
    /// linearization epoch. Genesis has no author and reads `(0, 0)`.
    fn content_key(&self, pos: usize) -> (u32, u64);

    /// Position of the *first listed* parent of `pos`, if the DAG holds it
    /// (the parental-tree edge of the pivot rule).
    fn first_parent(&self, pos: usize) -> Option<usize> {
        self.parents_of(pos).first().map(|&p| p as usize)
    }
}

/// Epoch-stamped visit marks shared by the cone traversals. A node is
/// "marked" when its stamp equals the current epoch; bumping the epoch
/// invalidates every mark at once.
struct Scratch {
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl Scratch {
    /// Starts a fresh traversal: all marks invalid, stack empty.
    fn begin(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
        self.epoch
    }
}

/// Adjacency and depth index of a view's reference DAG.
///
/// ```
/// use am_core::{AppendMemory, DagIndex, DagRead, MessageBuilder, NodeId, Value, GENESIS};
/// let mem = AppendMemory::new(2);
/// let a = mem.append(MessageBuilder::new(NodeId(0), Value::plus()).parent(GENESIS)).unwrap();
/// let _b = mem.append(MessageBuilder::new(NodeId(1), Value::minus()).parent(a)).unwrap();
/// let dag = DagIndex::new(&mem.read());
/// assert_eq!(dag.max_depth(), 2);
/// assert_eq!(dag.tips().len(), 1);
/// ```
pub struct DagIndex {
    view: MemoryView,
    /// Parent positions (references outside the view dropped) and depths.
    store: BlockStore,
    /// Child positions, ascending.
    children: ChildIndex,
    scratch: RefCell<Scratch>,
}

impl DagIndex {
    /// Builds the index for `view`. O(V + E).
    pub fn new(view: &MemoryView) -> DagIndex {
        let store = BlockStore::from_view(view);
        let mut children = ChildIndex::default();
        children.build(&store);
        DagIndex {
            view: view.clone(),
            store,
            children,
            scratch: RefCell::new(Scratch {
                mark: vec![0; view.len()],
                epoch: 0,
                stack: Vec::new(),
            }),
        }
    }

    /// The view this index was built from.
    #[inline]
    pub fn view(&self) -> &MemoryView {
        &self.view
    }

    /// The message at a position.
    #[inline]
    pub fn message(&self, pos: usize) -> &Arc<Message> {
        &self.view.as_slice()[pos]
    }

    /// Positions with no children: the tips — "the last states of M, which
    /// do not have child nodes" (Algorithm 6, line 5).
    pub fn tips(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.children_of(i).is_empty())
            .collect()
    }

    /// Tip message ids, in id order.
    pub fn tip_ids(&self) -> Vec<MsgId> {
        self.tips().into_iter().map(|p| self.id_at(p)).collect()
    }

    /// The past cone of `pos`: every ancestor position, `pos` excluded.
    /// Returned in ascending (topological) order. O(cone) plus the sort;
    /// allocates only the output vector.
    pub fn past_cone(&self, pos: usize) -> Vec<usize> {
        self.cone(pos, |p| self.parents_of(p))
    }

    /// The future cone of `pos`: every descendant position, `pos` excluded.
    /// Returned in ascending (topological) order.
    pub fn future_cone(&self, pos: usize) -> Vec<usize> {
        self.cone(pos, |c| self.children_of(c))
    }

    /// Every position reachable from `pos` along `next`, `pos` excluded,
    /// ascending.
    fn cone<'a>(&'a self, pos: usize, next: impl Fn(usize) -> &'a [u32]) -> Vec<usize> {
        let mut s = self.scratch.borrow_mut();
        let epoch = s.begin();
        let mut out: Vec<usize> = Vec::new();
        let mut stack = std::mem::take(&mut s.stack);
        stack.extend_from_slice(next(pos));
        while let Some(q) = stack.pop() {
            let q = q as usize;
            if s.mark[q] != epoch {
                s.mark[q] = epoch;
                out.push(q);
                stack.extend_from_slice(next(q));
            }
        }
        s.stack = stack;
        out.sort_unstable();
        out
    }

    /// Whether `anc` is an ancestor of `desc` (strict; a message is not its
    /// own ancestor). O(E) worst case with early exit using the id order.
    pub fn is_ancestor(&self, anc: usize, desc: usize) -> bool {
        if anc >= desc {
            return false; // parents always precede children in the slice
        }
        let mut s = self.scratch.borrow_mut();
        let epoch = s.begin();
        let mut stack = std::mem::take(&mut s.stack);
        stack.extend_from_slice(self.parents_of(desc));
        let mut found = false;
        while let Some(p) = stack.pop() {
            let p = p as usize;
            if p == anc {
                found = true;
                break;
            }
            // Ancestors of p all have positions < p; prune below target.
            if p > anc && s.mark[p] != epoch {
                s.mark[p] = epoch;
                stack.extend_from_slice(self.parents_of(p));
            }
        }
        stack.clear();
        s.stack = stack;
        found
    }
}

impl DagRead for DagIndex {
    #[inline]
    fn store(&self) -> &BlockStore {
        &self.store
    }

    #[inline]
    fn children_of(&self, pos: usize) -> &[u32] {
        self.children.children_of(pos)
    }

    #[inline]
    fn id_at(&self, pos: usize) -> MsgId {
        self.view.as_slice()[pos].id
    }

    fn position(&self, id: MsgId) -> Option<usize> {
        self.view.position(id)
    }

    #[inline]
    fn content_key(&self, pos: usize) -> (u32, u64) {
        let m = self.message(pos);
        (m.author.map_or(0, |a| a.0), m.seq)
    }

    /// Unlike the store's first parent, a first-listed parent outside a
    /// sparse view is `None`, not the next listed one.
    fn first_parent(&self, pos: usize) -> Option<usize> {
        self.position(*self.message(pos).parents.first()?)
    }
}

impl std::fmt::Debug for DagIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DagIndex(len={}, max_depth={}, tips={})",
            self.len(),
            self.max_depth(),
            self.tips().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, GENESIS};
    use crate::memory::AppendMemory;
    use crate::message::MessageBuilder;
    use crate::value::Value;

    /// genesis -> a -> b
    ///         \-> c (fork at genesis)
    /// d references both b and c (DAG merge).
    fn diamond() -> AppendMemory {
        let m = AppendMemory::new(4);
        let a = m
            .append(MessageBuilder::new(NodeId(0), Value::plus()).parent(GENESIS))
            .unwrap();
        let b = m
            .append(MessageBuilder::new(NodeId(1), Value::plus()).parent(a))
            .unwrap();
        let c = m
            .append(MessageBuilder::new(NodeId(2), Value::minus()).parent(GENESIS))
            .unwrap();
        let _d = m
            .append(MessageBuilder::new(NodeId(3), Value::plus()).parents([b, c]))
            .unwrap();
        m
    }

    #[test]
    fn adjacency_and_depth() {
        let v = diamond().read();
        let g = DagIndex::new(&v);
        assert_eq!(g.len(), 5);
        assert_eq!(g.depth_of(0), 0); // genesis
        assert_eq!(g.depth_of(1), 1); // a
        assert_eq!(g.depth_of(2), 2); // b
        assert_eq!(g.depth_of(3), 1); // c
        assert_eq!(g.depth_of(4), 3); // d (via b)
        assert_eq!(g.max_depth(), 3);
        assert_eq!(g.parents_of(4), &[2, 3]);
        assert_eq!(g.children_of(0), &[1, 3]);
    }

    #[test]
    fn roots_and_tips() {
        let v = diamond().read();
        let g = DagIndex::new(&v);
        assert!((0..g.len()).all(|p| g.parents_of(p).is_empty() == (p == 0)));
        assert_eq!(g.tips(), vec![4]);
        assert_eq!(g.tip_ids(), vec![MsgId(4)]);
    }

    #[test]
    fn tips_before_merge() {
        let m = AppendMemory::new(3);
        for author in [0, 1] {
            m.append(MessageBuilder::new(NodeId(author), Value::plus()).parent(GENESIS))
                .unwrap();
        }
        let g = DagIndex::new(&m.read());
        assert_eq!(g.tips(), vec![1, 2]);
    }

    #[test]
    fn cones() {
        let v = diamond().read();
        let g = DagIndex::new(&v);
        assert_eq!(g.past_cone(4), vec![0, 1, 2, 3]);
        assert_eq!(g.past_cone(2), vec![0, 1]);
        assert_eq!(g.past_cone(0), Vec::<usize>::new());
        assert_eq!(g.future_cone(0), vec![1, 2, 3, 4]);
        assert_eq!(g.future_cone(3), vec![4]);
        assert_eq!(g.future_cone(4), Vec::<usize>::new());
    }

    #[test]
    fn repeated_cone_queries_reuse_scratch() {
        // The epoch-stamp reset must behave exactly like fresh marks.
        let v = diamond().read();
        let g = DagIndex::new(&v);
        for _ in 0..100 {
            assert_eq!(g.past_cone(4), vec![0, 1, 2, 3]);
            assert_eq!(g.future_cone(0), vec![1, 2, 3, 4]);
            assert!(g.is_ancestor(0, 4));
            assert!(!g.is_ancestor(1, 3));
        }
    }

    #[test]
    fn ancestry() {
        let v = diamond().read();
        let g = DagIndex::new(&v);
        assert!(g.is_ancestor(0, 4));
        assert!(g.is_ancestor(1, 2));
        assert!(g.is_ancestor(3, 4));
        assert!(!g.is_ancestor(1, 3)); // a is not an ancestor of c
        assert!(!g.is_ancestor(2, 2)); // strict
        assert!(!g.is_ancestor(4, 0)); // direction matters
    }

    #[test]
    fn sparse_view_drops_dangling_refs() {
        let m = diamond();
        let v = m.read();
        // Remove `a` (m1): b's parent edge disappears; b becomes a root of
        // the sparse view.
        let sparse = MemoryView::from_messages(
            v.iter()
                .filter(|m| m.id != MsgId(1))
                .cloned()
                .collect::<Vec<_>>(),
        );
        let g = DagIndex::new(&sparse);
        assert_eq!(g.len(), 4);
        let b_pos = g.position(MsgId(2)).unwrap();
        assert!(g.parents_of(b_pos).is_empty());
        assert_eq!(g.depth_of(b_pos), 0);
    }

    #[test]
    fn genesis_only() {
        let m = AppendMemory::new(1);
        let g = DagIndex::new(&m.read());
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
        assert_eq!(g.max_depth(), 0);
        assert_eq!(g.tips(), vec![0]);
    }

    #[test]
    fn chain_of_ten_depths() {
        let m = AppendMemory::new(1);
        let mut prev = GENESIS;
        for _ in 0..10 {
            prev = m
                .append(MessageBuilder::new(NodeId(0), Value::plus()).parent(prev))
                .unwrap();
        }
        let g = DagIndex::new(&m.read());
        assert_eq!(g.max_depth(), 10);
        assert_eq!(g.tips().len(), 1);
        for pos in 0..g.len() {
            assert_eq!(g.depth_of(pos) as usize, pos);
        }
    }
}
