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
//! Layout: adjacency is stored CSR-style (one flat `u32` edge array plus an
//! offsets array per direction) instead of a `Vec<Vec<u32>>` per node — one
//! allocation per direction regardless of node count, cache-linear sweeps.
//! Cone traversals mark nodes in an epoch-stamped scratch buffer owned by
//! the index, so repeated `past_cone`/`future_cone`/`is_ancestor` calls on
//! the same index allocate nothing (resetting the marks is a single epoch
//! increment, not an O(n) clear).

use crate::ids::MsgId;
use crate::message::Message;
use crate::view::MemoryView;
use std::cell::RefCell;
use std::sync::Arc;

/// What the chain-selection and ordering rules read of a reference DAG:
/// positions `0..len` in topological (id) order, CSR adjacency in both
/// directions, longest-path depths, and the two content-derived facts the
/// rules break ties with. [`DagIndex`] implements it over a
/// [`MemoryView`]; the trial runners' append-only arena implements it over
/// its own columns, so [`crate::chain`], [`crate::ghost`], [`crate::pivot`]
/// and [`crate::linearize`] exist once.
pub trait DagRead {
    /// Number of messages.
    fn len(&self) -> usize;

    /// Whether the DAG holds no message at all (not even genesis).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parent positions of `pos`, in the order the message lists them.
    fn parents_of(&self, pos: usize) -> &[u32];

    /// Child positions of `pos`, ascending.
    fn children_of(&self, pos: usize) -> &[u32];

    /// Longest-path depth of `pos` (roots have depth 0).
    fn depth_of(&self, pos: usize) -> u32;

    /// Maximum depth over all messages (0 when empty).
    fn max_depth(&self) -> u32 {
        (0..self.len()).map(|p| self.depth_of(p)).max().unwrap_or(0)
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
    fn first_parent(&self, pos: usize) -> Option<usize>;
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
/// use am_core::{AppendMemory, DagIndex, MessageBuilder, NodeId, Value, GENESIS};
/// let mem = AppendMemory::new(2);
/// let a = mem.append(MessageBuilder::new(NodeId(0), Value::plus()).parent(GENESIS)).unwrap();
/// let _b = mem.append(MessageBuilder::new(NodeId(1), Value::minus()).parent(a)).unwrap();
/// let dag = DagIndex::new(&mem.read());
/// assert_eq!(dag.max_depth(), 2);
/// assert_eq!(dag.tips().len(), 1);
/// ```
pub struct DagIndex {
    view: MemoryView,
    /// Parent positions of `pos` live at `par[par_off[pos]..par_off[pos+1]]`
    /// (references outside the view dropped).
    par_off: Vec<u32>,
    par: Vec<u32>,
    /// Child positions, same layout.
    child_off: Vec<u32>,
    child: Vec<u32>,
    /// Longest-path depth from a root (genesis has depth 0).
    depth: Vec<u32>,
    scratch: RefCell<Scratch>,
}

impl DagIndex {
    /// Builds the index for `view`. O(V + E), three flat allocations.
    pub fn new(view: &MemoryView) -> DagIndex {
        let n = view.len();
        let mut par_off: Vec<u32> = Vec::with_capacity(n + 1);
        let mut par: Vec<u32> = Vec::new();
        let mut child_count: Vec<u32> = vec![0; n];
        let mut depth: Vec<u32> = vec![0; n];
        par_off.push(0);
        // Pass 1: resolve parent edges in position order (so `par` is
        // naturally grouped by child) and accumulate depths + child counts.
        for (pos, msg) in view.iter().enumerate() {
            for &p in &msg.parents {
                if let Some(pp) = Self::position_of(view, p) {
                    par.push(pp as u32);
                    child_count[pp] += 1;
                    depth[pos] = depth[pos].max(depth[pp] + 1);
                }
            }
            par_off.push(par.len() as u32);
        }
        // Pass 2: scatter child edges through running cursors. Iterating
        // edges in ascending child position keeps each child list sorted.
        let mut child_off: Vec<u32> = Vec::with_capacity(n + 1);
        child_off.push(0);
        for c in &child_count {
            child_off.push(child_off.last().unwrap() + c);
        }
        let mut cursor: Vec<u32> = child_off[..n].to_vec();
        let mut child: Vec<u32> = vec![0; par.len()];
        for pos in 0..n {
            let (s, e) = (par_off[pos] as usize, par_off[pos + 1] as usize);
            for &pp in &par[s..e] {
                child[cursor[pp as usize] as usize] = pos as u32;
                cursor[pp as usize] += 1;
            }
        }
        DagIndex {
            view: view.clone(),
            par_off,
            par,
            child_off,
            child,
            depth,
            scratch: RefCell::new(Scratch {
                mark: vec![0; n],
                epoch: 0,
                stack: Vec::new(),
            }),
        }
    }

    fn position_of(view: &MemoryView, id: MsgId) -> Option<usize> {
        let idx = id.index();
        let slice = view.as_slice();
        if let Some(m) = slice.get(idx) {
            if m.id == id {
                return Some(idx);
            }
        }
        slice.binary_search_by_key(&id, |m| m.id).ok()
    }

    /// The view this index was built from.
    #[inline]
    pub fn view(&self) -> &MemoryView {
        &self.view
    }

    /// Number of messages indexed.
    #[inline]
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Whether the DAG is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Position of a message id within this index.
    pub fn position(&self, id: MsgId) -> Option<usize> {
        Self::position_of(&self.view, id)
    }

    /// The message at a position.
    #[inline]
    pub fn message(&self, pos: usize) -> &Arc<Message> {
        &self.view.as_slice()[pos]
    }

    /// The id at a position.
    #[inline]
    pub fn id_at(&self, pos: usize) -> MsgId {
        self.view.as_slice()[pos].id
    }

    /// Parent positions of `pos`.
    #[inline]
    pub fn parents_of(&self, pos: usize) -> &[u32] {
        &self.par[self.par_off[pos] as usize..self.par_off[pos + 1] as usize]
    }

    /// Child positions of `pos`.
    #[inline]
    pub fn children_of(&self, pos: usize) -> &[u32] {
        &self.child[self.child_off[pos] as usize..self.child_off[pos + 1] as usize]
    }

    /// Longest-path depth of `pos` (roots have depth 0).
    #[inline]
    pub fn depth_of(&self, pos: usize) -> u32 {
        self.depth[pos]
    }

    /// Positions with no parents *inside the view* (genesis, plus orphans
    /// in sparse views).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.parents_of(i).is_empty())
            .collect()
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

    /// Maximum depth over all messages (the longest-chain length measured
    /// in edges from genesis).
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// The past cone of `pos`: every ancestor position, `pos` excluded.
    /// Returned in ascending (topological) order. O(cone) plus the sort;
    /// allocates only the output vector.
    pub fn past_cone(&self, pos: usize) -> Vec<usize> {
        let mut s = self.scratch.borrow_mut();
        let epoch = s.begin();
        let mut out: Vec<usize> = Vec::new();
        let mut stack = std::mem::take(&mut s.stack);
        stack.extend_from_slice(self.parents_of(pos));
        while let Some(p) = stack.pop() {
            let p = p as usize;
            if s.mark[p] != epoch {
                s.mark[p] = epoch;
                out.push(p);
                stack.extend_from_slice(self.parents_of(p));
            }
        }
        s.stack = stack;
        out.sort_unstable();
        out
    }

    /// The future cone of `pos`: every descendant position, `pos` excluded.
    /// Returned in ascending (topological) order.
    pub fn future_cone(&self, pos: usize) -> Vec<usize> {
        let mut s = self.scratch.borrow_mut();
        let epoch = s.begin();
        let mut out: Vec<usize> = Vec::new();
        let mut stack = std::mem::take(&mut s.stack);
        stack.extend_from_slice(self.children_of(pos));
        while let Some(c) = stack.pop() {
            let c = c as usize;
            if s.mark[c] != epoch {
                s.mark[c] = epoch;
                out.push(c);
                stack.extend_from_slice(self.children_of(c));
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

    /// Number of distinct longest chains ending at maximal depth — the
    /// fork multiplicity the tie-breaking rules have to resolve.
    pub fn longest_chain_tip_count(&self) -> usize {
        let d = self.max_depth();
        self.depth.iter().filter(|&&x| x == d).count()
    }
}

impl DagRead for DagIndex {
    #[inline]
    fn len(&self) -> usize {
        DagIndex::len(self)
    }

    #[inline]
    fn parents_of(&self, pos: usize) -> &[u32] {
        DagIndex::parents_of(self, pos)
    }

    #[inline]
    fn children_of(&self, pos: usize) -> &[u32] {
        DagIndex::children_of(self, pos)
    }

    #[inline]
    fn depth_of(&self, pos: usize) -> u32 {
        DagIndex::depth_of(self, pos)
    }

    #[inline]
    fn id_at(&self, pos: usize) -> MsgId {
        DagIndex::id_at(self, pos)
    }

    fn position(&self, id: MsgId) -> Option<usize> {
        DagIndex::position(self, id)
    }

    #[inline]
    fn content_key(&self, pos: usize) -> (u32, u64) {
        let m = self.message(pos);
        (m.author.map_or(0, |a| a.0), m.seq)
    }

    fn first_parent(&self, pos: usize) -> Option<usize> {
        let first = self.message(pos).parents.first()?;
        DagIndex::position(self, *first)
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
        assert_eq!(g.roots(), vec![0]);
        assert_eq!(g.tips(), vec![4]);
        assert_eq!(g.tip_ids(), vec![MsgId(4)]);
    }

    #[test]
    fn tips_before_merge() {
        let m = AppendMemory::new(3);
        let a = m
            .append(MessageBuilder::new(NodeId(0), Value::plus()).parent(GENESIS))
            .unwrap();
        let _b = m
            .append(MessageBuilder::new(NodeId(1), Value::plus()).parent(GENESIS))
            .unwrap();
        let g = DagIndex::new(&m.read());
        assert_eq!(g.tips().len(), 2);
        assert_eq!(g.longest_chain_tip_count(), 2);
        let _ = a;
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
        assert_eq!(g.roots().len(), 2); // genesis and b
    }

    #[test]
    fn genesis_only() {
        let m = AppendMemory::new(1);
        let g = DagIndex::new(&m.read());
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
        assert_eq!(g.max_depth(), 0);
        assert_eq!(g.tips(), vec![0]);
        assert_eq!(g.roots(), vec![0]);
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
        assert_eq!(g.longest_chain_tip_count(), 1);
        for pos in 0..g.len() {
            assert_eq!(g.depth_of(pos) as usize, pos);
        }
    }
}
