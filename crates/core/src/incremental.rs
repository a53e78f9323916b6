//! The block store: one append-only DAG under every simulation.
//!
//! "Listing preceding appends can be viewed as drawing an arrow from the
//! new append to all previous ones" (Section 5.3). [`BlockStore`] keeps
//! that graph as two flat buffers — one fixed-size row per block (author,
//! longest-path depth, first child, arrival time, the end of its parent
//! run) and the parent ids back to back, a `u32` CSR — plus the deepest
//! block so far, and maintains them in O(parents) per
//! [`push`](BlockStore::push), so depth, the deepest block, stale
//! prefixes and arrival times — what the Section 5 and BFT loops poll
//! after every append — cost O(1) or a binary search to read.
//! [`Frontier`] gives the tips and deepest blocks of a *prefix* of the
//! store: a view that only grows (the log's arrivals never decrease, and
//! a Δ-snapshot or Δ-lagged view never rewinds) extends it over the new
//! rows and the old tips instead of rescanning the prefix. [`ChildIndex`] is the one
//! child-CSR builder, run on demand at decision points;
//! [`ConeCoverTracker`] keeps the covered-value gate's marks over a store.
//! The store and the tracker `reset` to the genesis-only state and the
//! index and the frontier `clear`, each with its capacity kept, so a
//! Monte-Carlo loop reuses one set for every trial.
//!
//! A store's ids are its positions: `MsgId(i)` is the `i`-th block pushed
//! (genesis = 0). [`BlockStore::from_view`] builds one over a snapshot,
//! numbering the view's messages by position and dropping references that
//! leave the view.

use crate::ids::{MsgId, NodeId, Time};
use crate::view::MemoryView;

/// Author entry of a block nobody wrote (genesis).
const NO_AUTHOR: u32 = u32::MAX;
/// First-child entry of a block with no child yet.
const NO_CHILD: u32 = u32::MAX;

/// An append-only block DAG as flat buffers.
///
/// ```
/// use am_core::{BlockStore, MsgId, NodeId, Time};
/// let mut s = BlockStore::new();
/// s.push(NodeId(0), [0], Time::new(0.5));
/// s.push(NodeId(1), [0], Time::new(0.9));
/// assert_eq!((s.max_depth(), s.deepest()), (1, MsgId(1))); // ties to the smallest id
/// assert_eq!(s.prefix_at_time(Time::new(0.7)), 2);     // genesis + m1
/// ```
///
/// `Default` is a store with no blocks and no buffers — what a pool slot
/// holds, allocation-free — until [`reset`](BlockStore::reset) or
/// `clone_from` fills it.
#[derive(Debug, Default)]
pub struct BlockStore {
    /// One row per block, in id order.
    rows: Vec<Row>,
    /// Parent lists back to back, each in the order it was listed: block
    /// `i`'s run ends at `rows[i].par_end` and starts where block `i - 1`'s
    /// ends.
    par: Vec<u32>,
    /// Deepest block so far, ties to the smallest id (maintained on push
    /// so the per-grant decision gate never rescans the history).
    deepest: u32,
}

/// A block's fixed-size fields.
#[derive(Clone, Copy, Debug)]
struct Row {
    /// `NO_AUTHOR` for genesis.
    author: u32,
    /// Longest-path depth (roots 0).
    depth: u32,
    /// Smallest child (`NO_CHILD` = a tip of the whole store).
    first_child: u32,
    /// End of this block's run in `par`.
    par_end: u32,
    /// Non-decreasing across rows.
    arrival: Time,
}

impl Clone for BlockStore {
    fn clone(&self) -> BlockStore {
        let mut s = BlockStore::default();
        s.clone_from(self);
        s
    }

    /// Copies `src` into this store's buffers, keeping their capacity.
    fn clone_from(&mut self, src: &BlockStore) {
        let BlockStore { rows, par, deepest } = src;
        self.rows.clone_from(rows);
        self.par.clone_from(par);
        self.deepest = *deepest;
    }
}

impl BlockStore {
    /// A store holding only genesis (no author, no parents, time 0).
    pub fn new() -> BlockStore {
        let mut s = BlockStore::default();
        s.reset();
        s
    }

    /// Back to the genesis-only state of [`new`](BlockStore::new), keeping
    /// every buffer's capacity.
    pub fn reset(&mut self) {
        self.rows.clear();
        self.par.clear();
        self.deepest = 0;
        self.push_block(NO_AUTHOR, [], Time::ZERO);
    }

    /// The store of a snapshot: its messages in view order, each with the
    /// parents the view holds (as positions) and its arrival time. A
    /// reference to a message outside a sparse view is dropped, so that
    /// message's child may be a root.
    pub fn from_view(view: &MemoryView) -> BlockStore {
        let mut s = BlockStore::default();
        for m in view.iter() {
            let parents = m.parents.iter().filter_map(|&p| view.position(p));
            let author = m.author.map_or(NO_AUTHOR, |a| a.0);
            s.push_block(author, parents.map(|p| p as u32), m.arrival);
        }
        s
    }

    /// Appends a block by `author` on `parents` (prior ids, in the order
    /// listed) arriving at `at`, and returns its id. O(parents).
    ///
    /// # Panics
    /// If a parent is not a prior id, or `at` precedes the last arrival.
    pub fn push(
        &mut self,
        author: NodeId,
        parents: impl IntoIterator<Item = u32>,
        at: Time,
    ) -> MsgId {
        self.push_block(author.0, parents, at)
    }

    fn push_block(
        &mut self,
        author: u32,
        parents: impl IntoIterator<Item = u32>,
        at: Time,
    ) -> MsgId {
        let id = u32::try_from(self.len()).expect("block ids exceed u32");
        if let Some(last) = self.rows.last() {
            assert!(at >= last.arrival, "arrivals must be non-decreasing");
        }
        let start = self.par.len();
        self.par.extend(parents);
        let mut depth = 0;
        for &p in &self.par[start..] {
            assert!(p < id, "parents must precede the block");
            let parent = &mut self.rows[p as usize];
            depth = depth.max(parent.depth + 1);
            if parent.first_child == NO_CHILD {
                parent.first_child = id;
            }
        }
        if id == 0 || depth > self.rows[self.deepest as usize].depth {
            self.deepest = id;
        }
        self.rows.push(Row {
            author,
            depth,
            first_child: NO_CHILD,
            par_end: u32::try_from(self.par.len()).expect("parent references exceed u32"),
            arrival: at,
        });
        MsgId(u64::from(id))
    }

    /// Number of blocks (genesis included).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store holds no block at all (a `Default` one, or one
    /// built from an empty view).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The author of block `i` (`None` for genesis).
    #[inline]
    pub fn author_of(&self, i: usize) -> Option<NodeId> {
        let a = self.rows[i].author;
        (a != NO_AUTHOR).then_some(NodeId(a))
    }

    /// Parents of block `i`, in the order they were listed.
    #[inline]
    pub fn parents_of(&self, i: usize) -> &[u32] {
        let start = i.checked_sub(1).map_or(0, |prev| self.rows[prev].par_end);
        &self.par[start as usize..self.rows[i].par_end as usize]
    }

    /// Total parent references (the edge count).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.par.len()
    }

    /// Longest-path depth of block `i` (roots have depth 0).
    #[inline]
    pub fn depth_of(&self, i: usize) -> u32 {
        self.rows[i].depth
    }

    /// Maximum depth over the whole store — the depth of
    /// [`deepest`](BlockStore::deepest), so O(1).
    #[inline]
    pub fn max_depth(&self) -> u32 {
        self.rows.get(self.deepest as usize).map_or(0, |r| r.depth)
    }

    /// The deepest block (ties to the smallest id), maintained on push.
    #[inline]
    pub fn deepest(&self) -> MsgId {
        MsgId(u64::from(self.deepest))
    }

    /// Arrival time of block `i`.
    #[inline]
    pub fn arrival(&self, i: usize) -> Time {
        self.rows[i].arrival
    }

    /// Number of blocks that had arrived strictly before `t` — the prefix
    /// a node whose view lags to time `t` can see. At least 1 (genesis is
    /// always visible).
    pub fn prefix_at_time(&self, t: Time) -> usize {
        self.rows.partition_point(|r| r.arrival < t).max(1)
    }
}

/// The tips and deepest blocks of a growing prefix of one [`BlockStore`].
///
/// A prefix's answers depend on its length alone: its rows never change,
/// and a row is a tip of the prefix exactly when its first child lies past
/// the prefix's end — a later push can set an unset first child, but only
/// to an id past every earlier prefix. So the frontier of a longer prefix
/// follows from the shorter one's plus the new rows:
///
/// * an old tip stays a tip unless its first child is now inside;
/// * a new row is a tip unless its first child is;
/// * the deepest set is the new rows at a greater depth, if any, or else
///   the old set plus the new rows at the same depth.
///
/// [`extend_to`](Frontier::extend_to) costs O(new rows + old tips) instead
/// of O(prefix). Prefixes may only grow between two
/// [`clear`](Frontier::clear)s, over the same store as it grows.
///
/// ```
/// use am_core::{BlockStore, Frontier, MsgId, NodeId, Time};
/// let mut s = BlockStore::new();
/// s.push(NodeId(0), [0], Time::new(0.5));
/// s.push(NodeId(1), [0], Time::new(0.9));
/// let mut f = Frontier::default();
/// f.extend_to(&s, 3);
/// assert_eq!(f.tips(), [MsgId(1), MsgId(2)]); // a fork
/// s.push(NodeId(2), [1, 2], Time::new(1.2)); // a merge past the prefix
/// f.extend_to(&s, 3);
/// assert_eq!((f.tips(), f.deepest()), (&[MsgId(1), MsgId(2)][..], &[MsgId(1), MsgId(2)][..]));
/// f.extend_to(&s, 4);
/// assert_eq!((f.tips(), f.deepest()), (&[MsgId(3)][..], &[MsgId(3)][..]));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Frontier {
    /// Length of the prefix described; 0 before the first extension.
    end: usize,
    /// Blocks of the prefix whose first child lies past it, ascending.
    tips: Vec<MsgId>,
    /// Blocks of the prefix at its maximum depth, ascending.
    deepest: Vec<MsgId>,
    /// The depth of `deepest`.
    depth: u32,
}

impl Frontier {
    /// Forgets every prefix, keeping the buffers' capacity: the next
    /// [`extend_to`](Frontier::extend_to) may start over any store.
    pub fn clear(&mut self) {
        self.end = 0;
        self.tips.clear();
        self.deepest.clear();
        self.depth = 0;
    }

    /// Moves to the first `prefix` blocks of `store` (at least genesis, at
    /// most the whole store). A prefix of the current length is free.
    ///
    /// # Panics
    /// If the prefix is shorter than the one described: a frontier only
    /// grows (clear it to start over).
    pub fn extend_to(&mut self, store: &BlockStore, prefix: usize) {
        let end = prefix.min(store.len()).max(1);
        assert!(end >= self.end, "a frontier's prefix only grows");
        if end == self.end {
            return;
        }
        let rows = &store.rows[..end];
        let inside = |r: &Row| (r.first_child as usize) < end;
        self.tips.retain(|t| !inside(&rows[t.index()]));
        for (i, r) in (self.end..end).zip(&rows[self.end..]) {
            let id = MsgId(i as u64);
            if !inside(r) {
                self.tips.push(id);
            }
            if r.depth > self.depth || self.deepest.is_empty() {
                self.depth = r.depth;
                self.deepest.clear();
                self.deepest.push(id);
            } else if r.depth == self.depth {
                self.deepest.push(id);
            }
        }
        self.end = end;
    }

    /// The blocks of the prefix no block of the prefix references,
    /// ascending — the tips an Algorithm 6 append of that view references.
    #[inline]
    pub fn tips(&self) -> &[MsgId] {
        &self.tips
    }

    /// The blocks of the prefix at its maximum depth, ascending — the
    /// longest-chain candidates of that view.
    #[inline]
    pub fn deepest(&self) -> &[MsgId] {
        &self.deepest
    }
}

/// The child CSR of a [`BlockStore`], built on demand: the store grows by
/// parent rows, and only the decision rules walk child edges, so they are
/// indexed once per decision point rather than maintained per push.
///
/// ```
/// use am_core::{BlockStore, ChildIndex, NodeId, Time};
/// let mut s = BlockStore::new();
/// s.push(NodeId(0), [0], Time::ZERO);
/// s.push(NodeId(1), [0, 1], Time::ZERO);
/// let mut c = ChildIndex::default();
/// c.build(&s);
/// assert_eq!((c.children_of(0), c.children_of(1), c.len()), (&[1, 2][..], &[2][..], 3));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ChildIndex {
    /// Children of `i` are `child[off[i]..off[i + 1]]`.
    off: Vec<u32>,
    child: Vec<u32>,
}

impl ChildIndex {
    /// Indexes every block of `store`: children ascending, O(V + E), into
    /// the buffers of the last build.
    pub fn build(&mut self, store: &BlockStore) {
        let n = store.len();
        self.off.clear();
        self.off.resize(n + 1, 0);
        // Count children one slot to the right, prefix-sum into offsets,
        // then scatter through the offsets as running cursors; ascending
        // child order falls out of the ascending sweep.
        for pos in 0..n {
            for &p in store.parents_of(pos) {
                self.off[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            self.off[i + 1] += self.off[i];
        }
        self.child.clear();
        self.child.resize(store.edge_count(), 0);
        for pos in 0..n {
            for &p in store.parents_of(pos) {
                let cursor = &mut self.off[p as usize];
                self.child[*cursor as usize] = pos as u32;
                *cursor += 1;
            }
        }
        // Every cursor now sits at the end of its row, the start of the
        // next one: shift right to turn them back into row starts.
        self.off.copy_within(0..n, 1);
        self.off[0] = 0;
    }

    /// Forgets the last build (then [`len`](ChildIndex::len) is 0).
    pub fn clear(&mut self) {
        self.off.clear();
        self.child.clear();
    }

    /// Number of blocks the last build indexed.
    pub fn len(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// Whether nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Children of block `i`, ascending.
    #[inline]
    pub fn children_of(&self, i: usize) -> &[u32] {
        &self.child[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// Incrementally-maintained covered-value count of a tip's closed past
/// cone — the "selected chain contains at least k values" gate of
/// Algorithm 6, answered without re-walking the history.
///
/// The tracker keeps a persistent visited bitmap (epoch-stamped, so a
/// full invalidation is one counter bump) that always equals the closed
/// past cone of one *tracked tip*, together with the number of
/// value-carrying messages in it. A query for a new tip first probes
/// whether the old cone is contained in the new one (true exactly when
/// the tracked tip is an ancestor of — or equal to — the queried tip);
/// if so, only the *fresh* region is walked and the marks extend in
/// place, which costs amortized O(parents) per append along a growing
/// history. Otherwise (the deepest tip jumped to a different branch, or
/// the query moved backwards) it falls back to a full DFS under a new
/// epoch.
///
/// Containment is detected during the probe itself: the DFS from the
/// queried tip expands only unmarked nodes, and on every marked boundary
/// node checks whether it is the tracked tip. On any downward path from
/// the queried tip to the tracked tip, an intermediate marked node `m ≠
/// tracked` would have to be both an ancestor of the tracked tip (it is
/// marked) and its descendant (it precedes the tracked tip on the path) —
/// impossible in a DAG — so the first marked node on every such path *is*
/// the tracked tip, and the probe reaches it whenever it is contained.
///
/// The tracker holds only its marks: each query reads the parents from
/// the [`BlockStore`] it is handed (always the same one, growing, between
/// two resets) and which blocks carry a value from a predicate.
///
/// ```
/// use am_core::{BlockStore, ConeCoverTracker, MsgId, NodeId, Time};
/// let mut s = BlockStore::new();
/// for parent in [0, 1, 0] {
///     s.push(NodeId(0), [parent], Time::ZERO); // m3 forks off genesis
/// }
/// let mut t = ConeCoverTracker::new();
/// let carries = |i: usize| i > 0; // genesis carries none
/// assert_eq!(t.cover_of(&s, MsgId(2), carries), 2); // {m1, m2}
/// assert_eq!(t.cover_of(&s, MsgId(3), carries), 1); // branch switch → fallback
/// ```
#[derive(Clone, Debug)]
pub struct ConeCoverTracker {
    /// Persistent cone marks: `mark[i] == epoch` ⇔ `i` is in the closed
    /// past cone of `tracked`. Grown to the store's length on query.
    mark: Vec<u32>,
    epoch: u32,
    /// Probe stamps for the containment test (separate from `mark` so a
    /// failed probe leaves the cone intact).
    probe: Vec<u32>,
    probe_epoch: u32,
    /// The tip whose closed cone the marks currently describe.
    tracked: u32,
    /// Value-carrying messages in the tracked cone.
    covered: usize,
    /// Reusable DFS stack.
    stack: Vec<u32>,
    /// Fresh nodes collected by the probe pass.
    fresh: Vec<u32>,
}

impl Default for ConeCoverTracker {
    fn default() -> Self {
        ConeCoverTracker::new()
    }
}

impl ConeCoverTracker {
    /// A tracker over a genesis-only store; the tracked cone is genesis's
    /// own (empty of values — genesis carries none).
    pub fn new() -> ConeCoverTracker {
        ConeCoverTracker {
            mark: vec![1],
            epoch: 1,
            probe: vec![0],
            probe_epoch: 0,
            tracked: 0,
            covered: 0,
            stack: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// Back to the state of [`new`](ConeCoverTracker::new) — marks, epochs
    /// and the tracked cone included — keeping the buffers' capacity.
    pub fn reset(&mut self) {
        self.mark.clear();
        self.mark.push(1);
        self.epoch = 1;
        self.probe.clear();
        self.probe.push(0);
        self.probe_epoch = 0;
        self.tracked = 0;
        self.covered = 0;
    }

    /// Number of blocks of `store` in the closed past cone of `tip` for
    /// which `carries` holds, maintained incrementally. Amortized
    /// O(parents) per append when queried tips descend from one another
    /// (the growing-deepest pattern of the simulation loops); O(cone) on
    /// branch switches.
    pub fn cover_of(
        &mut self,
        store: &BlockStore,
        tip: MsgId,
        carries: impl Fn(usize) -> bool,
    ) -> usize {
        let t = tip.index();
        assert!(t < store.len(), "queried tip must be in the store");
        if self.mark.len() < store.len() {
            self.mark.resize(store.len(), 0);
            self.probe.resize(store.len(), 0);
        }
        if t == self.tracked as usize {
            return self.covered;
        }
        if self.mark[t] == self.epoch {
            // The queried tip lies inside the tracked cone: the cone
            // shrinks, which in-place marks cannot express. Recount.
            return self.recount(store, t, &carries);
        }
        // Fast path for the growing-chain query: every parent already in
        // the tracked cone and the tracked tip among them means the new
        // cone is exactly the old one plus `t` — extend without probing.
        let parents = store.parents_of(t);
        if parents.contains(&self.tracked)
            && parents.iter().all(|&p| self.mark[p as usize] == self.epoch)
        {
            self.mark[t] = self.epoch;
            self.covered += usize::from(carries(t));
            self.tracked = t as u32;
            return self.covered;
        }
        // Probe DFS from the new tip over unmarked nodes; collect the
        // fresh region and watch for the tracked tip on the boundary.
        self.probe_epoch += 1;
        if self.probe_epoch == u32::MAX {
            self.probe.fill(0);
            self.probe_epoch = 1;
        }
        let pe = self.probe_epoch;
        self.fresh.clear();
        self.stack.clear();
        self.stack.push(t as u32);
        self.probe[t] = pe;
        let mut saw_tracked = false;
        while let Some(i) = self.stack.pop() {
            self.fresh.push(i);
            for &p in store.parents_of(i as usize) {
                if self.mark[p as usize] == self.epoch {
                    // Boundary: already inside the tracked cone.
                    saw_tracked |= p == self.tracked;
                } else if self.probe[p as usize] != pe {
                    self.probe[p as usize] = pe;
                    self.stack.push(p);
                }
            }
        }
        if saw_tracked {
            // Old cone ⊆ new cone: extend the marks in place.
            for &f in &self.fresh {
                self.mark[f as usize] = self.epoch;
                self.covered += usize::from(carries(f as usize));
            }
            self.tracked = t as u32;
            self.covered
        } else {
            self.recount(store, t, &carries)
        }
    }

    /// Full DFS fallback: invalidate every mark (one epoch bump) and
    /// rebuild the cone of `tip` from scratch.
    fn recount(
        &mut self,
        store: &BlockStore,
        tip: usize,
        carries: &impl Fn(usize) -> bool,
    ) -> usize {
        self.epoch += 1;
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 1;
        }
        let e = self.epoch;
        self.covered = 0;
        self.stack.clear();
        self.stack.push(tip as u32);
        self.mark[tip] = e;
        while let Some(i) = self.stack.pop() {
            self.covered += usize::from(carries(i as usize));
            for &p in store.parents_of(i as usize) {
                if self.mark[p as usize] != e {
                    self.mark[p as usize] = e;
                    self.stack.push(p);
                }
            }
        }
        self.tracked = tip as u32;
        self.covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> Time {
        Time::new(x)
    }

    fn chain(len: usize) -> BlockStore {
        let mut s = BlockStore::new();
        for i in 1..=len {
            s.push(NodeId(0), [i as u32 - 1], t(i as f64));
        }
        s
    }

    fn frontier(s: &BlockStore, prefix: usize) -> Frontier {
        let mut f = Frontier::default();
        f.extend_to(s, prefix);
        f
    }

    fn tips(s: &BlockStore, prefix: usize) -> Vec<MsgId> {
        frontier(s, prefix).tips().to_vec()
    }

    fn deepest(s: &BlockStore, prefix: usize) -> Vec<MsgId> {
        frontier(s, prefix).deepest().to_vec()
    }

    #[test]
    fn chain_depths_and_tips() {
        let s = chain(5);
        assert_eq!(s.len(), 6);
        assert!(!s.is_empty());
        assert_eq!(s.max_depth(), 5);
        assert_eq!(s.deepest(), MsgId(5));
        assert_eq!(tips(&s, 6), vec![MsgId(5)]);
        assert_eq!(tips(&s, 3), vec![MsgId(2)]);
        assert_eq!(deepest(&s, 3), vec![MsgId(2)]);
        assert_eq!((s.author_of(0), s.author_of(3)), (None, Some(NodeId(0))));
    }

    #[test]
    fn fork_gives_multiple_prefix_tips() {
        let mut s = BlockStore::new();
        s.push(NodeId(0), [0], t(1.0));
        s.push(NodeId(1), [0], t(2.0));
        assert_eq!(tips(&s, 3), vec![MsgId(1), MsgId(2)]);
        assert_eq!(deepest(&s, 3), vec![MsgId(1), MsgId(2)]);
        // Merge closes both.
        s.push(NodeId(2), [1, 2], t(3.0));
        assert_eq!(tips(&s, 4), vec![MsgId(3)]);
        assert_eq!(s.depth_of(3), 2);
        assert_eq!(s.parents_of(3), &[1, 2]);
    }

    #[test]
    fn prefix_at_time_is_strict_and_clamped() {
        let s = chain(4); // arrivals 0,1,2,3,4
        assert_eq!(s.prefix_at_time(t(0.0)), 1, "genesis always visible");
        assert_eq!(s.prefix_at_time(t(1.0)), 1, "strictly-before semantics");
        assert_eq!(s.prefix_at_time(t(1.5)), 2);
        assert_eq!(s.prefix_at_time(t(100.0)), 5);
    }

    /// A store plus the value flags the tracker counts, grown together.
    struct Gate {
        store: BlockStore,
        carries: Vec<bool>,
        tracker: ConeCoverTracker,
    }

    impl Gate {
        fn new() -> Gate {
            Gate {
                store: BlockStore::new(),
                carries: vec![false],
                tracker: ConeCoverTracker::new(),
            }
        }

        fn push(&mut self, parents: &[u32], carries: bool) {
            self.store
                .push(NodeId(0), parents.iter().copied(), Time::ZERO);
            self.carries.push(carries);
        }

        fn cover_of(&mut self, tip: u64) -> usize {
            let carries = &self.carries;
            self.tracker
                .cover_of(&self.store, MsgId(tip), |i| carries[i])
        }
    }

    /// Naive reference: value count of the closed past cone by plain DFS.
    fn naive_cover(g: &Gate, tip: u64) -> usize {
        let mut seen = vec![false; g.store.len()];
        let mut stack = vec![tip as usize];
        let mut count = 0;
        while let Some(i) = stack.pop() {
            if seen[i] {
                continue;
            }
            seen[i] = true;
            count += usize::from(g.carries[i]);
            stack.extend(g.store.parents_of(i).iter().map(|&p| p as usize));
        }
        count
    }

    #[test]
    fn cover_tracker_chain_growth_is_incremental_and_exact() {
        let mut g = Gate::new();
        assert_eq!(g.cover_of(0), 0);
        for i in 1..=50u64 {
            g.push(&[i as u32 - 1], i % 3 != 0);
            let expect = (1..=i).filter(|x| x % 3 != 0).count();
            assert_eq!(g.cover_of(i), expect, "at append {i}");
            assert_eq!((g.tracker.covered, g.tracker.tracked), (expect, i as u32));
        }
    }

    #[test]
    fn cover_tracker_handles_branch_switches() {
        // Two competing branches off genesis; the deepest tip alternates.
        let mut g = Gate::new();
        g.push(&[0], true); // branch A
        g.push(&[1], true);
        g.push(&[0], true); // branch B
        g.push(&[3], true);
        g.push(&[4], true);
        assert_eq!(g.cover_of(2), 2); // A: {1,2}
        assert_eq!(g.cover_of(5), 3); // fallback to B: {3,4,5}
        assert_eq!(g.cover_of(2), 2); // and back again
                                      // A merge referencing both tips extends whichever cone is held.
        g.push(&[2, 5], true);
        assert_eq!(g.cover_of(6), 6);
    }

    #[test]
    fn in_cone_tracks_the_held_cone() {
        // The marks hold exactly the closed cone of the tracked tip.
        let in_cone = |c: &ConeCoverTracker, i: usize| c.mark.get(i) == Some(&c.epoch);
        let mut g = Gate::new();
        g.push(&[0], true); // branch A
        g.push(&[1], true);
        g.push(&[0], true); // branch B
        g.cover_of(2);
        assert!((0..3).all(|i| in_cone(&g.tracker, i)) && !in_cone(&g.tracker, 3));
        assert!(!in_cone(&g.tracker, 99), "unknown ids are outside");
        g.cover_of(3); // branch switch: cone is now {0, 3}
        assert!(in_cone(&g.tracker, 3) && !in_cone(&g.tracker, 2));
    }

    #[test]
    fn cover_tracker_query_inside_cone_falls_back() {
        let mut g = Gate::new();
        for i in 1..=10u32 {
            g.push(&[i - 1], true);
        }
        assert_eq!(g.cover_of(10), 10);
        // Query an ancestor of the tracked tip: cone shrinks.
        assert_eq!(g.cover_of(4), 4);
        assert_eq!(g.cover_of(10), 10);
    }

    #[test]
    fn cover_tracker_matches_naive_on_random_history() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let mut g = Gate::new();
        for i in 1..300u64 {
            let np = rng.gen_range(1..=3.min(i as usize));
            let ps: Vec<u32> = (0..np).map(|_| rng.gen_range(0..i) as u32).collect();
            g.push(&ps, rng.gen_bool(0.8));
            // Query a random prior tip every few appends plus the newest.
            let q = rng.gen_range(0..=i);
            assert_eq!(g.cover_of(q), naive_cover(&g, q));
            assert_eq!(g.cover_of(i), naive_cover(&g, i));
        }
    }

    #[test]
    fn reset_trackers_behave_like_fresh_ones() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut parents: Vec<Vec<u32>> = vec![Vec::new()];
        for i in 1..200u32 {
            let ps = (0..rng.gen_range(1..=3))
                .map(|_| rng.gen_range(i.saturating_sub(6)..i))
                .collect();
            parents.push(ps);
        }
        let mut used = Gate::new();
        for (i, ps) in parents.iter().enumerate().skip(1) {
            used.push(ps, i % 4 != 0);
        }
        used.cover_of(150);
        used.cover_of(40); // bumps the epoch
        used.store.reset();
        used.carries.truncate(1);
        used.tracker.reset();
        assert_eq!(used.store.len(), 1);
        assert_eq!(
            (used.store.max_depth(), used.store.deepest()),
            (0, MsgId(0))
        );
        assert_eq!(
            (
                used.tracker.tracked,
                used.tracker.covered,
                used.store.edge_count()
            ),
            (0, 0, 0)
        );
        let mut fresh = Gate::new();
        for (i, ps) in parents.iter().enumerate().skip(1).take(60) {
            for g in [&mut used, &mut fresh] {
                g.push(ps, true);
            }
            let (a, b) = (used.store.deepest().0, fresh.store.deepest().0);
            assert_eq!(used.cover_of(a), fresh.cover_of(b));
            assert_eq!(used.store.parents_of(i), fresh.store.parents_of(i));
            assert_eq!(tips(&used.store, i), tips(&fresh.store, i));
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut s = BlockStore::new();
        s.push(NodeId(0), [0], t(2.0));
        s.push(NodeId(0), [1], t(1.0));
    }

    #[test]
    #[should_panic(expected = "precede")]
    fn rejects_forward_parents() {
        let mut s = BlockStore::new();
        s.push(NodeId(0), [1], t(1.0));
    }
}
