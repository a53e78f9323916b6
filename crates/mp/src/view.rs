//! Incremental ABD state: persistent local views, dense ack tallies and
//! the per-node membership table.
//!
//! Three hot structures behind Algorithms 2/3:
//!
//! * [`MpView`] — a node's local view `M_v`. Every `ReadReq` response,
//!   every `read`/`local_view` return and every archive snapshot is a
//!   copy of one, and a view only ever grows, so it is a persistent
//!   append-only radix vector (the Clojure / `im` vector restricted to
//!   `push`): full leaves of `LEAF` messages hang off a trie of
//!   branching width `WIDTH`, and the newest `1..=LEAF` messages sit in
//!   a tail outside it. Nodes and leaves live behind [`Arc`]s and are
//!   never written while shared, so a snapshot is the root pointer and
//!   the tail pointer, whatever the history `H` behind them:
//!
//!   | operation | 128-message `Vec<Arc<chunk>>` (before) | radix vector |
//!   |---|---|---|
//!   | `clone`; dropping a snapshot | H/128 refcounts each | 2 refcounts, no allocation |
//!   | `push` | O(1) amortized; ≤ 127 messages copied after a snapshot | O(1) amortized — a `Vec::push` while the tail is unshared with room; ≤ `LEAF − 1` messages copied after a snapshot; every `LEAF` pushes the tail moves into the trie by pointer, copying ≤ `WIDTH` pointers per level only where a snapshot shares the right edge |
//!   | `iter_from` seek | O(1) | O(1) into the tail, O(log H) below it, then one slice per leaf |
//!   | `prefix(h)` | h/128 refcounts + ≤ 127 messages | ≤ `WIDTH` refcounts per level + ≤ `LEAF − 1` messages |
//!   | dropping the last owner | H/128 frees | H/`LEAF` frees, recursing no deeper than the trie |
//!
//! * [`AckTally`] — quorum counting: one dense bitmask block per op with
//!   a maintained count, so recording an ack is one integer-hashed lookup
//!   (the op key) plus a bit test, no per-op set lives on the heap, and
//!   the appender polls its own block by index.
//!
//! * `SeenTable` — "does this node already hold this message?", asked
//!   once per delivered `Append` and once per message a `ViewResp` merge
//!   walks. Indexed by `(author, seq)`, so the n = 8 read that walks
//!   6 713 messages it already holds compares its way down eight dense
//!   rows instead of probing a hash set 6 713 times.
//!
//! Every observable of a scripted run (appends, reads, settled views,
//! message counts, the full `NetStats`) is pinned over 300 seeds by
//! `tests/naive_equiv.rs`; the structure itself — three trie levels,
//! every leaf boundary, divergent futures of one prefix, and the bounds
//! in the table as allocation counts — by `tests/view_spec.rs`.

use crate::abd::MpMsg;
use am_net::hash::{IntMap, IntSet};
use std::sync::Arc;

/// log₂ of the trie's branching width.
const BITS: u32 = 5;
/// Children per trie node.
const WIDTH: usize = 1 << BITS;
/// Messages per leaf, and the capacity of the tail.
const LEAF: usize = 64;

/// `LEAF` messages once inside the trie, `0..=LEAF` as a tail.
type Leaf = Arc<Vec<MpMsg>>;

/// A trie node. Every child but the last is a complete subtree.
#[derive(Clone, Debug)]
enum Node {
    /// An interior level: `1..=WIDTH` subtrees.
    Branch(Vec<Arc<Node>>),
    /// The bottom level: `1..=WIDTH` full leaves.
    Leaves(Vec<Leaf>),
}

/// Child slot of leaf number `leaf` in a node `shift` bits above the
/// bottom level.
fn slot(leaf: usize, shift: u32) -> usize {
    (leaf >> shift) & (WIDTH - 1)
}

/// `leaf` under as many single-child `Branch` levels as `shift` spans.
fn spine(leaf: Leaf, shift: u32) -> Arc<Node> {
    let mut node = Arc::new(Node::Leaves(vec![leaf]));
    for _ in 0..shift / BITS {
        node = Arc::new(Node::Branch(vec![node]));
    }
    node
}

/// The subtree `node` (`shift` bits above the bottom level) cut off after
/// leaf number `last`. Everything left of the cut is shared; a node is
/// copied only where the cut falls inside it — at most one per level,
/// which also bounds the recursion.
fn cut_after(node: &Arc<Node>, shift: u32, last: usize) -> Arc<Node> {
    let at = slot(last, shift);
    match &**node {
        Node::Leaves(leaves) if at + 1 == leaves.len() => Arc::clone(node),
        Node::Leaves(leaves) => Arc::new(Node::Leaves(leaves[..=at].to_vec())),
        Node::Branch(kids) => {
            let edge = cut_after(&kids[at], shift - BITS, last);
            if at + 1 == kids.len() && Arc::ptr_eq(&edge, &kids[at]) {
                return Arc::clone(node);
            }
            let mut kept = Vec::with_capacity(at + 1);
            kept.extend_from_slice(&kids[..at]);
            kept.push(edge);
            Arc::new(Node::Branch(kept))
        }
    }
}

/// A persistent append-only view of a node's local memory `M_v`.
///
/// Layout invariant, a function of `len` alone (so logically equal views
/// are laid out identically): the tail holds the messages from position
/// `(len − 1) / LEAF · LEAF` on — never empty unless the view is — and
/// the trie holds the full leaves before it, at minimal height. A node
/// or leaf reachable from two views is never written again.
#[derive(Clone, Default)]
pub struct MpView {
    /// The full leaves before the tail; `None` while there are none.
    root: Option<Arc<Node>>,
    /// `BITS` × the number of `Branch` levels above the bottom one.
    shift: u32,
    tail: Leaf,
    len: usize,
}

impl MpView {
    /// An empty view.
    pub fn new() -> MpView {
        MpView::default()
    }

    /// Builds a view from a message slice.
    pub fn from_slice(msgs: &[MpMsg]) -> MpView {
        let mut view = MpView::new();
        let mut leaves = msgs.chunks(LEAF);
        if let Some(last) = leaves.next_back() {
            for (k, full) in leaves.enumerate() {
                view.push_leaf(Arc::new(full.to_vec()), k);
            }
            let mut tail = Vec::with_capacity(LEAF);
            tail.extend_from_slice(last);
            view.tail = Arc::new(tail);
            view.len = msgs.len();
        }
        view
    }

    /// Number of messages in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a message. O(1) amortized: a `Vec::push` unless the tail
    /// is full, shared with a snapshot, or was allocated without room.
    pub fn push(&mut self, msg: MpMsg) {
        match Arc::get_mut(&mut self.tail) {
            Some(tail) if tail.len() < LEAF.min(tail.capacity()) => tail.push(msg),
            _ => self.push_new_tail(msg),
        }
        self.len += 1;
    }

    /// The push that cannot write the tail in place. A full tail becomes
    /// the trie's next leaf (by pointer, shared or not) and `msg` starts
    /// a fresh one; otherwise the old tail is left to whichever snapshot
    /// shares it and the view goes on with a roomy copy.
    #[cold]
    fn push_new_tail(&mut self, msg: MpMsg) {
        let mut fresh = Vec::with_capacity(LEAF);
        if self.tail.len() < LEAF {
            fresh.extend_from_slice(&self.tail);
        }
        fresh.push(msg);
        let old = std::mem::replace(&mut self.tail, Arc::new(fresh));
        if old.len() == LEAF {
            self.push_leaf(old, self.len / LEAF - 1);
        }
    }

    /// Hangs `leaf` into the trie as leaf number `k` (the trie holds
    /// exactly `k` leaves). Walks the right edge once; `Arc::make_mut`
    /// copies a node on it only if a snapshot shares that node.
    fn push_leaf(&mut self, leaf: Leaf, k: usize) {
        let root = match self.root.take() {
            None => spine(leaf, 0),
            // Every slot under the root is taken: it becomes the first
            // child of a taller root, beside a spine of its own height.
            Some(full) if k == WIDTH << self.shift => {
                let beside = spine(leaf, self.shift);
                self.shift += BITS;
                Arc::new(Node::Branch(vec![full, beside]))
            }
            Some(mut root) => {
                let mut node = &mut root;
                let mut shift = self.shift;
                loop {
                    match Arc::make_mut(node) {
                        Node::Leaves(leaves) => {
                            leaves.push(leaf);
                            break;
                        }
                        Node::Branch(kids) => {
                            let at = slot(k, shift);
                            shift -= BITS;
                            if at == kids.len() {
                                kids.push(spine(leaf, shift));
                                break;
                            }
                            node = &mut kids[at];
                        }
                    }
                }
                root
            }
        };
        self.root = Some(root);
    }

    /// Position of the tail's first message.
    fn tail_start(&self) -> usize {
        self.len - self.tail.len()
    }

    /// Leaf number `k` of the trie. O(log H).
    fn leaf(&self, k: usize) -> &Leaf {
        let mut node = self.root.as_ref().expect("leaf k lies in the trie");
        let mut shift = self.shift;
        loop {
            match &**node {
                Node::Leaves(leaves) => return &leaves[slot(k, 0)],
                Node::Branch(kids) => {
                    node = &kids[slot(k, shift)];
                    shift -= BITS;
                }
            }
        }
    }

    /// The stored run of messages from position `at < len` to the end of
    /// its leaf (or of the tail).
    fn run_from(&self, at: usize) -> &[MpMsg] {
        match at.checked_sub(self.tail_start()) {
            Some(in_tail) => &self.tail[in_tail..],
            None => &self.leaf(at / LEAF)[at % LEAF..],
        }
    }

    /// Whether the view contains `msg` (linear scan, like `Vec::contains`).
    pub fn contains(&self, msg: &MpMsg) -> bool {
        self.iter().any(|m| m == msg)
    }

    /// Iterates the messages in append order.
    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(0)
    }

    /// Iterates the messages in append order starting at position
    /// `start` (clamped to the end). Nothing in the skipped prefix is
    /// walked: the first step seeks — O(1) if `start` lies in the tail,
    /// as a reader's merge mark or an archive's height usually does,
    /// O(log H) otherwise — and each later leaf costs one more descent.
    pub fn iter_from(&self, start: usize) -> Iter<'_> {
        Iter {
            view: self,
            next_run: start.min(self.len),
            run: [].iter(),
        }
    }

    /// The last message, if any.
    pub fn last(&self) -> Option<&MpMsg> {
        self.tail.last()
    }

    /// A snapshot of the first `len` messages (clamped to the end),
    /// sharing every node and leaf left of the cut with `self`: it copies
    /// at most one node per trie level and `LEAF − 1` messages, however
    /// long the history. This is the archival layer's snapshot-at-height
    /// primitive.
    pub fn prefix(&self, len: usize) -> MpView {
        if len >= self.len {
            return self.clone();
        }
        if len == 0 {
            return MpView::new();
        }
        let tail_start = (len - 1) / LEAF * LEAF;
        let leaves = tail_start / LEAF;
        let source = if tail_start == self.tail_start() {
            &self.tail
        } else {
            self.leaf(leaves)
        };
        let keep = len - tail_start;
        let tail = if keep == source.len() {
            Arc::clone(source)
        } else {
            Arc::new(source[..keep].to_vec())
        };
        let (root, shift) = self.first_leaves(leaves);
        MpView {
            root,
            shift,
            tail,
            len,
        }
    }

    /// The trie of the first `leaves` leaves and its `shift`.
    fn first_leaves(&self, leaves: usize) -> (Option<Arc<Node>>, u32) {
        let (Some(last), Some(mut node)) = (leaves.checked_sub(1), self.root.as_ref()) else {
            return (None, 0);
        };
        // Minimal height: a level that would keep a single child is not
        // copied, its child becomes the root.
        let mut shift = self.shift;
        while let Node::Branch(kids) = &**node {
            if last >> shift != 0 {
                break;
            }
            node = &kids[0];
            shift -= BITS;
        }
        (Some(cut_after(node, shift, last)), shift)
    }

    /// Deep-copies the view into a plain vector.
    pub fn to_vec(&self) -> Vec<MpMsg> {
        let mut out = Vec::with_capacity(self.len);
        while out.len() < self.len {
            out.extend_from_slice(self.run_from(out.len()));
        }
        out
    }
}

impl std::fmt::Debug for MpView {
    /// The messages in append order (what equality compares), not the
    /// trie that stores them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl PartialEq for MpView {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}
impl Eq for MpView {}

/// Borrowing iterator over an [`MpView`] in append order.
#[derive(Debug)]
pub struct Iter<'a> {
    view: &'a MpView,
    /// Position of the first message after `run`.
    next_run: usize,
    /// What is left of the current leaf (or tail).
    run: std::slice::Iter<'a, MpMsg>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a MpMsg;

    fn next(&mut self) -> Option<&'a MpMsg> {
        loop {
            if let Some(m) = self.run.next() {
                return Some(m);
            }
            if self.next_run == self.view.len {
                return None;
            }
            let run = self.view.run_from(self.next_run);
            self.next_run += run.len();
            self.run = run.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.run.len() + self.view.len - self.next_run;
        (left, Some(left))
    }
}

impl<'a> IntoIterator for &'a MpView {
    type Item = &'a MpMsg;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Owning iterator over an [`MpView`] ([`MpMsg`] is `Copy`; leaves stay
/// shared). Each step is a lookup, O(log H) below the tail.
#[derive(Debug)]
pub struct IntoIter {
    view: MpView,
    next: usize,
}

impl Iterator for IntoIter {
    type Item = MpMsg;

    fn next(&mut self) -> Option<MpMsg> {
        if self.next == self.view.len {
            return None;
        }
        let m = self.view.run_from(self.next)[0];
        self.next += 1;
        Some(m)
    }
}

impl IntoIterator for MpView {
    type Item = MpMsg;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter {
            view: self,
            next: 0,
        }
    }
}

/// The instance an ack names: `(author, seq, content)`.
type AckKey = (usize, u64, u64);

/// Keys [`AckTally`] resolves without its index.
const RECENT_KEYS: usize = 4;

/// Dense per-op ack tallies: one bitmask block + maintained count per
/// `(author, seq, content)` key, replacing `HashMap<_, HashSet<usize>>`.
#[derive(Clone, Debug)]
pub struct AckTally {
    /// Words per op block: ⌈n / 64⌉.
    stride: usize,
    /// Key → block index into `bits` / `counts`.
    index: IntMap<AckKey, u32>,
    /// The last few keys resolved, with their blocks: an append's acks
    /// arrive in a burst, interleaved with the stragglers of the appends
    /// just before it, and the index outgrows the cache long before a
    /// serving run ends. Overwritten round-robin at `recent_next`.
    recent: [Option<(AckKey, u32)>; RECENT_KEYS],
    recent_next: usize,
    /// Acker bitmasks, `stride` words per op.
    bits: Vec<u64>,
    /// Maintained popcount per op.
    counts: Vec<u32>,
}

impl AckTally {
    /// An empty tally for `n` nodes.
    pub fn new(n: usize) -> AckTally {
        AckTally {
            stride: n.div_ceil(64).max(1),
            index: IntMap::default(),
            recent: [None; RECENT_KEYS],
            recent_next: 0,
            bits: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// The block tallying `key`, started empty if no ack named it yet.
    /// Resolved once by the appender, which then polls
    /// [`count_at`](AckTally::count_at) instead of hashing the key on
    /// every pump iteration.
    pub(crate) fn block(&mut self, key: AckKey) -> usize {
        if let Some((_, b)) = self.recent.iter().flatten().find(|(k, _)| *k == key) {
            return *b as usize;
        }
        let b = match self.index.get(&key) {
            Some(&b) => b,
            None => {
                let b = u32::try_from(self.counts.len()).expect("op count fits u32");
                self.index.insert(key, b);
                self.bits.resize(self.bits.len() + self.stride, 0);
                self.counts.push(0);
                b
            }
        };
        self.recent[self.recent_next] = Some((key, b));
        self.recent_next = (self.recent_next + 1) % RECENT_KEYS;
        b as usize
    }

    /// Distinct ackers recorded in `block`.
    pub(crate) fn count_at(&self, block: usize) -> usize {
        self.counts[block] as usize
    }

    /// Records that node `from` acked `key`; returns the distinct-acker
    /// count after recording. Duplicate acks are idempotent.
    pub fn add(&mut self, key: (usize, u64, u64), from: usize) -> usize {
        let block = self.block(key);
        let word = &mut self.bits[block * self.stride + from / 64];
        let bit = 1u64 << (from % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.counts[block] += 1;
        }
        self.counts[block] as usize
    }

    /// Distinct ackers recorded for `key`.
    pub fn count(&self, key: (usize, u64, u64)) -> usize {
        self.index
            .get(&key)
            .map_or(0, |&b| self.count_at(b as usize))
    }
}

/// How far past the end of an author's dense row a `seq` may lie and
/// still extend the row. A gap an honest run can produce (messages
/// overtaking one another on a slow or resumed node) fits; a `seq` picked
/// to make the row huge does not, and costs one overflow entry instead.
const SEQ_SLACK: u64 = 1 << 10;

/// The row entry of a slot nothing was admitted to.
const VACANT: u64 = 0;

/// The set of messages one node holds, as a membership index over their
/// content hashes.
///
/// A receiver admits a message only if `content` is the hash of its
/// `(author, seq, value)`, so equal content means equal slot and the set
/// can be laid out by slot: `rows[author][seq]` holds the content first
/// admitted there, and testing a message the node already holds — what a
/// read merge does thousands of times in author-and-seq order — is one
/// compare in a row it is walking anyway. Whatever has no dense slot of
/// its own goes to an integer-hashed overflow keyed by content alone: the
/// second content an equivocating author signs for one `(author, seq)`,
/// a `seq` more than [`SEQ_SLACK`] past its row (so no input makes a row
/// longer than the messages admitted into it plus the slack), and the one
/// content that reads as [`VACANT`].
#[derive(Clone, Debug)]
pub(crate) struct SeenTable {
    rows: Vec<Vec<u64>>,
    overflow: IntSet<u64>,
}

impl SeenTable {
    /// An empty table for `n` authors.
    pub(crate) fn new(n: usize) -> SeenTable {
        SeenTable {
            rows: vec![Vec::new(); n],
            overflow: IntSet::default(),
        }
    }

    /// Whether the message `content` names — `(author, seq)` being the
    /// slot that content is the hash of — is in the set.
    #[inline]
    pub(crate) fn contains(&self, author: usize, seq: u64, content: u64) -> bool {
        let dense = usize::try_from(seq)
            .ok()
            .and_then(|seq| self.rows.get(author)?.get(seq))
            .map_or(VACANT, |&c| c);
        // The overflow is consulted even when the slot is vacant: a seq
        // that was out of reach when admitted may be in reach by now.
        (dense == content && content != VACANT)
            || (!self.overflow.is_empty() && self.overflow.contains(&content))
    }

    /// Adds a message [`contains`](SeenTable::contains) just denied.
    /// `author` is below the `n` the table was built for (the caller
    /// verified its signature).
    pub(crate) fn insert(&mut self, author: usize, seq: u64, content: u64) {
        let row = &mut self.rows[author];
        if content != VACANT && seq < row.len() as u64 + SEQ_SLACK {
            let seq = seq as usize; // < a `Vec` length + 2¹⁰
            if seq >= row.len() {
                row.resize(seq + 1, VACANT);
            }
            if row[seq] == VACANT {
                row[seq] = content;
                return;
            }
        }
        self.overflow.insert(content);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::Signature;
    use std::collections::{BTreeMap, BTreeSet};

    fn msg(i: u64) -> MpMsg {
        MpMsg {
            author: (i % 7) as usize,
            seq: i,
            value: (i % 3) as i8 - 1,
            content: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            sig: Signature(i),
        }
    }

    #[test]
    fn push_iter_roundtrip_across_chunk_boundaries() {
        let mut v = MpView::new();
        let msgs: Vec<MpMsg> = (0..200).map(msg).collect();
        for &m in &msgs {
            v.push(m);
        }
        assert_eq!(v.len(), 200);
        assert_eq!(v.to_vec(), msgs);
        assert_eq!(v.iter().count(), 200);
        assert_eq!(v.tail_start(), 199 / LEAF * LEAF);
        assert!(v.contains(&msgs[137]));
        assert!(!v.contains(&msg(999)));
    }

    #[test]
    fn iter_from_matches_skip_at_every_offset() {
        let mut v = MpView::new();
        let msgs: Vec<MpMsg> = (0..150).map(msg).collect();
        for &m in &msgs {
            v.push(m);
        }
        // Every offset, including leaf boundaries and one past the end.
        for start in [0, 1, LEAF - 1, LEAF, LEAF + 1, 149, 150, 151, 999] {
            let got: Vec<MpMsg> = v.iter_from(start).copied().collect();
            let want: Vec<MpMsg> = msgs.iter().skip(start).copied().collect();
            assert_eq!(got, want, "iter_from({start}) diverged from skip");
            assert_eq!(
                v.iter_from(start).size_hint(),
                (want.len(), Some(want.len()))
            );
        }
    }

    #[test]
    fn prefix_shares_full_chunks_and_matches_take() {
        // Two trie levels: two complete bottom nodes, three more leaves
        // and a 17-message tail.
        let span = WIDTH * LEAF;
        let msgs: Vec<MpMsg> = (0..(2 * span + 3 * LEAF + 17) as u64).map(msg).collect();
        let v = MpView::from_slice(&msgs);
        for len in [
            0,
            1,
            LEAF - 1,
            LEAF,
            LEAF + 1,
            2 * LEAF,
            span,
            span + 1,
            span + LEAF,
            span + LEAF + 1,
            2 * span + LEAF,
            v.len() - 17,
            v.len() - 1,
            v.len(),
            v.len() + 9,
        ] {
            let p = v.prefix(len);
            let want: Vec<MpMsg> = msgs.iter().take(len).copied().collect();
            assert_eq!(p.len(), want.len(), "prefix({len}) length");
            assert_eq!(p.to_vec(), want, "prefix({len}) content");
            // Canonical layout: equal views compare equal and are laid
            // out alike.
            let built = MpView::from_slice(&want);
            assert_eq!(p, built);
            assert_eq!((p.shift, p.tail.len()), (built.shift, built.tail.len()));
        }
        // A leaf-aligned prefix copies no message: its tail is the
        // source's leaf and its trie the source's first leaf.
        let aligned = v.prefix(2 * LEAF);
        assert!(Arc::ptr_eq(&aligned.tail, v.leaf(1)));
        assert!(Arc::ptr_eq(aligned.leaf(0), v.leaf(0)));
        // Cut one leaf past the first complete bottom node: that node,
        // whole and shared, is the prefix's root.
        let Some(Node::Branch(kids)) = v.root.as_deref() else {
            panic!("two levels expected");
        };
        let collapsed = v.prefix(span + LEAF);
        assert_eq!(collapsed.shift, 0);
        assert!(Arc::ptr_eq(collapsed.root.as_ref().unwrap(), &kids[0]));
        // A cut inside the source's tail shares the whole trie.
        let short = v.prefix(v.len() - 5);
        assert!(Arc::ptr_eq(
            short.root.as_ref().unwrap(),
            v.root.as_ref().unwrap()
        ));
        assert_eq!(v.last(), msgs.last());
        assert_eq!(MpView::new().last(), None);
    }

    #[test]
    fn from_slice_equals_pushed() {
        let msgs: Vec<MpMsg> = (0..130).map(msg).collect();
        let mut pushed = MpView::new();
        for &m in &msgs {
            pushed.push(m);
        }
        assert_eq!(MpView::from_slice(&msgs), pushed);
    }

    #[test]
    fn snapshots_share_full_chunks_and_stay_stable() {
        let snap_at = (LEAF + LEAF / 2) as u64; // one full leaf + a partial tail
        let mut v = MpView::new();
        for i in 0..snap_at {
            v.push(msg(i));
        }
        let snap = v.clone();
        assert!(Arc::ptr_eq(&snap.tail, &v.tail), "clone shares the tail");
        assert!(Arc::ptr_eq(snap.leaf(0), v.leaf(0)), "and the trie");
        // Pushing after the snapshot copies only the partial tail.
        for i in snap_at..snap_at + LEAF as u64 {
            v.push(msg(i));
        }
        assert_eq!(snap.len(), snap_at as usize);
        assert_eq!(snap.to_vec(), (0..snap_at).map(msg).collect::<Vec<_>>());
        assert_eq!(v.len(), snap_at as usize + LEAF);
        assert_eq!(
            v.to_vec(),
            (0..snap_at + LEAF as u64).map(msg).collect::<Vec<_>>()
        );
        // The snapshot's full leaf is still shared; only the tail
        // diverged.
        assert!(Arc::ptr_eq(snap.leaf(0), v.leaf(0)));
        assert!(!Arc::ptr_eq(&snap.tail, v.leaf(1)));
    }

    #[test]
    fn owned_iteration_yields_copies() {
        let mut v = MpView::new();
        for i in 0..70 {
            v.push(msg(i));
        }
        let collected: Vec<MpMsg> = v.clone().into_iter().collect();
        assert_eq!(collected, v.to_vec());
    }

    #[test]
    fn equality_is_by_content() {
        let a = MpView::from_slice(&(0..65).map(msg).collect::<Vec<_>>());
        let b = MpView::from_slice(&(0..65).map(msg).collect::<Vec<_>>());
        let c = MpView::from_slice(&(0..64).map(msg).collect::<Vec<_>>());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tally_counts_distinct_ackers() {
        let mut t = AckTally::new(70); // stride 2: exercises multi-word masks
        let k = (3, 7, 0xabcd);
        assert_eq!(t.count(k), 0);
        assert_eq!(t.add(k, 0), 1);
        assert_eq!(t.add(k, 69), 2);
        assert_eq!(t.add(k, 69), 2, "duplicate ack is idempotent");
        assert_eq!(t.add(k, 64), 3);
        assert_eq!(t.count(k), 3);
        // Independent keys don't interfere.
        let k2 = (3, 7, 0xabce);
        assert_eq!(t.add(k2, 1), 1);
        assert_eq!(t.count(k), 3);
    }

    #[test]
    fn tally_block_resolved_early_counts_the_same_acks() {
        let mut t = AckTally::new(8);
        let k = (1, 2, 0xfeed);
        let block = t.block(k);
        assert_eq!(t.count_at(block), 0);
        assert_eq!(t.block(k), block, "resolving twice starts nothing new");
        t.add(k, 3);
        t.add((1, 3, 0xbeef), 3);
        t.add(k, 5);
        assert_eq!((t.count_at(block), t.count(k)), (2, 2));
    }

    #[test]
    fn tally_counts_survive_keys_leaving_the_memo() {
        // Seven keys interleaved — more than the memo holds, so every key
        // is evicted and looked up again — against a per-key set of ackers.
        let mut t = AckTally::new(8);
        let mut want: BTreeMap<(usize, u64, u64), BTreeSet<usize>> = BTreeMap::new();
        for step in 0..200usize {
            let seq = (step * 5 % 7) as u64;
            let key = (step % 3, seq, 0xc0 + seq);
            let from = step * 3 % 8;
            let acked = want.entry(key).or_default();
            acked.insert(from);
            assert_eq!(t.add(key, from), acked.len(), "step {step}");
        }
        for (key, acked) in &want {
            assert_eq!(t.count(*key), acked.len());
        }
    }

    #[test]
    fn seen_table_is_a_set_of_contents_laid_out_by_slot() {
        let mut t = SeenTable::new(3);
        let put = |t: &mut SeenTable, author, seq, content| {
            assert!(!t.contains(author, seq, content));
            t.insert(author, seq, content);
            assert!(t.contains(author, seq, content));
        };
        // In order, out of order within the slack, and other authors.
        for (author, seq, content) in [(0, 0, 10), (0, 1, 11), (0, 700, 12), (0, 5, 13), (2, 3, 14)]
        {
            put(&mut t, author, seq, content);
        }
        assert_eq!(
            (t.rows[0].len(), t.rows[1].len(), t.rows[2].len()),
            (701, 0, 4)
        );
        assert!(t.overflow.is_empty(), "nothing so far needed the overflow");
        // A vacant slot, another content at a taken slot, an unknown
        // author: not members.
        assert!(!t.contains(0, 2, 11) && !t.contains(0, 1, 99) && !t.contains(7, 0, 10));

        // The second content signed for a taken slot overflows, and both
        // stay members.
        put(&mut t, 0, 1, 21);
        assert_eq!(t.rows[0][1], 11);
        assert!(t.overflow.contains(&21) && t.contains(0, 1, 11));

        // A seq out of reach overflows without touching the row …
        put(&mut t, 1, 1 << 40, 30);
        put(&mut t, 1, SEQ_SLACK, 31);
        assert!(t.rows[1].is_empty());
        // … and is still a member once the row has grown past it.
        put(&mut t, 1, SEQ_SLACK - 1, 32);
        put(&mut t, 1, SEQ_SLACK + 1, 33);
        assert_eq!(t.rows[1].len() as u64, SEQ_SLACK + 2);
        assert_eq!(t.rows[1][SEQ_SLACK as usize], VACANT);
        assert!(t.contains(1, SEQ_SLACK, 31));

        // The content that reads as a vacant entry is a member like any
        // other, through the overflow.
        put(&mut t, 2, 0, VACANT);
        assert_eq!(t.rows[2][0], VACANT);
        assert!(!t.contains(2, 1, 77));
        assert_eq!(t.overflow.len(), 4);
    }
}
