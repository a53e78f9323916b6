//! Immutable snapshot views of the append memory.
//!
//! A [`MemoryView`] is what a node obtains from `M.read()`: "a complete
//! view of the register" at the moment of the read. Because the memory is
//! append-only, a view is a prefix of the arrival log and can be shared by
//! `Arc` across every reader — snapshots are O(1) to hand out and never
//! change under later appends.

use crate::error::CoreError;
use crate::ids::{MsgId, NodeId, Round};
use crate::message::Message;
use crate::value::Sign;
use std::sync::Arc;

/// An immutable snapshot of the append memory.
#[derive(Clone)]
pub struct MemoryView {
    msgs: Arc<Vec<Arc<Message>>>,
}

impl MemoryView {
    /// Wraps a shared message prefix. Internal to the crate; produced by
    /// [`AppendMemory::read`](crate::AppendMemory::read) and friends.
    pub(crate) fn from_arc(msgs: Arc<Vec<Arc<Message>>>) -> MemoryView {
        MemoryView { msgs }
    }

    /// Builds a view directly from messages — for tests and for the
    /// message-passing simulation, whose local views are not prefixes of a
    /// central log. Messages are sorted by id; ids need not be dense.
    pub fn from_messages<I: IntoIterator<Item = Arc<Message>>>(msgs: I) -> MemoryView {
        let mut v: Vec<Arc<Message>> = msgs.into_iter().collect();
        v.sort_by_key(|m| m.id);
        v.dedup_by_key(|m| m.id);
        MemoryView { msgs: Arc::new(v) }
    }

    /// Number of messages in the view (genesis included when present).
    #[inline]
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether the view holds no messages at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Whether two views share the same underlying snapshot allocation.
    #[inline]
    pub fn ptr_eq(&self, other: &MemoryView) -> bool {
        Arc::ptr_eq(&self.msgs, &other.msgs)
    }

    /// Position of `id` in the view. O(1) for dense prefix views, O(log n)
    /// otherwise.
    pub fn position(&self, id: MsgId) -> Option<usize> {
        let idx = id.index();
        // Fast path: dense prefix (ids equal positions).
        match self.msgs.get(idx) {
            Some(m) if m.id == id => Some(idx),
            // General path: binary search (messages are sorted by id).
            _ => self.msgs.binary_search_by_key(&id, |m| m.id).ok(),
        }
    }

    /// Looks a message up by id (see [`position`](Self::position)).
    pub fn get(&self, id: MsgId) -> Option<&Arc<Message>> {
        self.position(id).map(|i| &self.msgs[i])
    }

    /// Like [`get`](Self::get) but returns a typed error.
    pub fn require(&self, id: MsgId) -> Result<&Arc<Message>, CoreError> {
        self.get(id).ok_or(CoreError::OutOfView { id })
    }

    /// Whether the view contains `id`.
    #[inline]
    pub fn contains(&self, id: MsgId) -> bool {
        self.get(id).is_some()
    }

    /// Iterates over messages in id (arrival) order.
    pub fn iter(&self) -> std::slice::Iter<'_, Arc<Message>> {
        self.msgs.iter()
    }

    /// The messages slice, in id order.
    pub fn as_slice(&self) -> &[Arc<Message>] {
        &self.msgs
    }

    /// All messages by a given author, in that author's sequence order.
    pub fn by_author(&self, author: NodeId) -> Vec<&Arc<Message>> {
        let out: Vec<&Arc<Message>> = self
            .msgs
            .iter()
            .filter(|m| m.author == Some(author))
            .collect();
        // An author's seq increments with its id at append time, so any
        // id-ordered subsequence (views are sorted by id) is seq-ordered.
        debug_assert!(out.windows(2).all(|w| w[0].seq < w[1].seq));
        out
    }

    /// All messages tagged with round `r` (Section 3 round-based runs).
    pub fn in_round(&self, r: Round) -> Vec<&Arc<Message>> {
        self.msgs.iter().filter(|m| m.round == Some(r)).collect()
    }

    /// Count of non-genesis messages (the "writes in the memory" that
    /// Algorithms 4–6 gate their decision on).
    pub fn append_count(&self) -> usize {
        self.msgs.iter().filter(|m| !m.is_genesis()).count()
    }

    /// Sum of spin contributions of the messages with the given ids — the
    /// "sign of the sum" decisions of Section 5. Ids absent from the view
    /// contribute 0.
    pub fn spin_sum<I: IntoIterator<Item = MsgId>>(&self, ids: I) -> i64 {
        ids.into_iter()
            .filter_map(|id| self.get(id))
            .map(|m| m.value.spin_contribution())
            .sum()
    }

    /// Sign-of-sum decision over the given ids; `None` on a tie.
    pub fn decide_sign<I: IntoIterator<Item = MsgId>>(&self, ids: I) -> Option<Sign> {
        Sign::of_sum(self.spin_sum(ids))
    }

    /// Whether `self` is a prefix of `other` (views of the same memory are
    /// always prefix-related; used by consistency checks).
    pub fn is_prefix_of(&self, other: &MemoryView) -> bool {
        if self.len() > other.len() {
            return false;
        }
        self.msgs
            .iter()
            .zip(other.msgs.iter())
            .all(|(a, b)| a.id == b.id)
    }
}

impl std::fmt::Debug for MemoryView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemoryView(len={})", self.len())
    }
}

impl<'a> IntoIterator for &'a MemoryView {
    type Item = &'a Arc<Message>;
    type IntoIter = std::slice::Iter<'a, Arc<Message>>;
    fn into_iter(self) -> Self::IntoIter {
        self.msgs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, GENESIS};
    use crate::memory::AppendMemory;
    use crate::message::MessageBuilder;
    use crate::value::Value;

    fn sample_memory() -> AppendMemory {
        let m = AppendMemory::new(3);
        let a = m
            .append(MessageBuilder::new(NodeId(0), Value::plus()).parent(GENESIS))
            .unwrap();
        let _b = m
            .append(MessageBuilder::new(NodeId(1), Value::minus()).parent(a))
            .unwrap();
        let _c = m
            .append(MessageBuilder::new(NodeId(0), Value::plus()).parent(a))
            .unwrap();
        m
    }

    #[test]
    fn get_and_contains() {
        let v = sample_memory().read();
        assert!(v.contains(GENESIS));
        assert!(v.contains(MsgId(3)));
        assert!(!v.contains(MsgId(4)));
        assert_eq!(v.get(MsgId(1)).unwrap().author, Some(NodeId(0)));
        assert!(v.require(MsgId(9)).is_err());
        assert!(!v.is_empty());
    }

    #[test]
    fn by_author_in_seq_order() {
        let v = sample_memory().read();
        let n0 = v.by_author(NodeId(0));
        assert_eq!(n0.len(), 2);
        assert!(n0[0].seq < n0[1].seq);
        assert_eq!(v.by_author(NodeId(2)).len(), 0);
    }

    #[test]
    fn by_author_order_without_sorting() {
        // Regression for dropping the sort in by_author: interleaved
        // appends and sparse (subsequence) views must still come out in
        // seq order straight from id order.
        let m = AppendMemory::new(2);
        for i in 0..12u32 {
            m.append(MessageBuilder::new(NodeId(i % 2), Value::plus()).parent(GENESIS))
                .unwrap();
        }
        let v = m.read();
        for a in 0..2u32 {
            let seqs: Vec<u64> = v.by_author(NodeId(a)).iter().map(|m| m.seq).collect();
            assert_eq!(seqs, (0..6u64).collect::<Vec<_>>());
        }
        // Sparse view: drop every third message; what remains must stay
        // seq-ordered per author.
        let sparse = MemoryView::from_messages(
            v.iter()
                .enumerate()
                .filter(|(i, _)| i % 3 != 0)
                .map(|(_, m)| Arc::clone(m))
                .collect::<Vec<_>>(),
        );
        for a in 0..2u32 {
            let seqs: Vec<u64> = sparse.by_author(NodeId(a)).iter().map(|m| m.seq).collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn append_count_excludes_genesis() {
        let v = sample_memory().read();
        assert_eq!(v.len(), 4);
        assert_eq!(v.append_count(), 3);
    }

    #[test]
    fn spin_sum_and_decide() {
        let v = sample_memory().read();
        let ids: Vec<MsgId> = v.iter().map(|m| m.id).collect();
        // +1 (m1) -1 (m2) +1 (m3), genesis contributes 0.
        assert_eq!(v.spin_sum(ids.iter().copied()), 1);
        assert_eq!(v.decide_sign(ids), Some(Sign::Plus));
        // Tie over a balanced subset.
        assert_eq!(v.decide_sign([MsgId(1), MsgId(2)]), None);
        // Unknown ids contribute zero.
        assert_eq!(v.spin_sum([MsgId(77)]), 0);
    }

    #[test]
    fn prefix_relation() {
        let m = sample_memory();
        let small = m.read_prefix(2);
        let big = m.read();
        assert!(small.is_prefix_of(&big));
        assert!(!big.is_prefix_of(&small));
        assert!(big.is_prefix_of(&big));
    }

    #[test]
    fn from_messages_sorts_and_dedups() {
        let m = sample_memory();
        let v = m.read();
        let shuffled: Vec<Arc<Message>> = vec![
            Arc::clone(&v.as_slice()[2]),
            Arc::clone(&v.as_slice()[0]),
            Arc::clone(&v.as_slice()[2]),
            Arc::clone(&v.as_slice()[1]),
        ];
        let rebuilt = MemoryView::from_messages(shuffled);
        assert_eq!(rebuilt.len(), 3);
        let ids: Vec<MsgId> = rebuilt.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![MsgId(0), MsgId(1), MsgId(2)]);
    }

    #[test]
    fn sparse_view_lookup_uses_binary_search() {
        let m = sample_memory();
        let v = m.read();
        // Build a sparse view missing m1.
        let sparse = MemoryView::from_messages(
            v.iter()
                .filter(|m| m.id != MsgId(1))
                .cloned()
                .collect::<Vec<_>>(),
        );
        assert!(sparse.contains(MsgId(3)));
        assert!(!sparse.contains(MsgId(1)));
        assert_eq!(sparse.get(MsgId(2)).unwrap().id, MsgId(2));
    }

    #[test]
    fn in_round_filters() {
        let m = AppendMemory::new(2);
        m.append(
            MessageBuilder::new(NodeId(0), Value::bit(true))
                .parent(GENESIS)
                .round(Round(1)),
        )
        .unwrap();
        m.append(
            MessageBuilder::new(NodeId(1), Value::bit(false))
                .parent(GENESIS)
                .round(Round(2)),
        )
        .unwrap();
        let v = m.read();
        assert_eq!(v.in_round(Round(1)).len(), 1);
        assert_eq!(v.in_round(Round(2)).len(), 1);
        assert_eq!(v.in_round(Round(3)).len(), 0);
    }

    #[test]
    fn iteration_in_arrival_order() {
        let v = sample_memory().read();
        let ids: Vec<MsgId> = (&v).into_iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![MsgId(0), MsgId(1), MsgId(2), MsgId(3)]);
    }
}
