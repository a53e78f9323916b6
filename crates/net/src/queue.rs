//! The shared event core: an in-order run beside a slab pairing heap, one
//! total order.
//!
//! One type serves every discrete-event loop in the workspace — [`SimNet`]
//! here and the `am_poisson::des::EventQueue` wrapper over it. Events are
//! ordered by the strict total order `(key, seq)`, where `seq` is the
//! schedule sequence number, so equal-key events pop in schedule order and
//! the pop sequence is **independent of how the events are stored** — a
//! pairing heap, a binary heap and a sorted list all produce the identical
//! event trace. The queue keeps them in two places and reads no
//! configuration to choose between them; it adapts to the order events
//! arrive in:
//!
//! - the **in-order run**: a ring buffer that takes a scheduled event
//!   whenever its key is ≥ the key at the run's tail (an empty run takes
//!   anything). `seq` only grows, so the run is sorted by `(key, seq)` by
//!   construction and its front is its minimum. Under a constant latency
//!   events are scheduled in pop order already — every one lands here, and
//!   a push or a pop is one ring-buffer operation;
//! - the **pairing heap**: everything else melds into a heap whose nodes
//!   live in a slab (`Vec<Node>` plus an intrusive free list) — `O(1)`
//!   push, `O(log n)` amortized pop (two-pass pairing merge), no per-event
//!   allocation once the slab has warmed up. Every key in it is below the
//!   run's tail, so the heap is empty whenever the run is. Spread-latency
//!   traffic lives here but for its record-late events (0.02 % of
//!   `gossip_scale`'s) and pays one key compare more per operation than
//!   the heap alone.
//!
//! [`EventQueue::pop`] and [`EventQueue::peek_key`] take the smaller
//! `(key, seq)` of the two fronts. Both stores keep their capacity across
//! trials through [`Storage`], mirroring the `TrialScratch` pattern from
//! `am-protocols`. `crates/net/tests/queue_determinism.rs` fuzzes the pop
//! sequence against a `BinaryHeap` reference model over schedule shapes
//! that exercise the run alone, the heap alone and both at once.
//!
//! [`SimNet`]: crate::SimNet

use std::collections::VecDeque;

/// Sentinel index: "no node".
const NIL: u32 = u32::MAX;

/// One slab slot. Live nodes form a pairing heap through `child` /
/// `sibling`; free slots form a singly-linked free list through `sibling`.
/// `item` is `None` only for free slots (the slab is `forbid(unsafe)`, so
/// payloads are moved out through `Option::take`).
#[derive(Debug)]
struct Node<K, E> {
    key: K,
    seq: u64,
    child: u32,
    sibling: u32,
    item: Option<E>,
}

/// One event in the in-order run: `(key, seq, payload)`.
type RunEntry<K, E> = (K, u64, E);

/// Recycled run and node storage for an [`EventQueue`].
///
/// [`EventQueue::into_storage`] returns the warmed-up ring buffer and slab
/// (payloads dropped, capacity kept); [`EventQueue::from_storage`]
/// rebuilds a fresh queue on top of them with zero allocations. Trial
/// runners keep one `Storage` per thread (a `thread_local!`).
#[derive(Debug)]
pub struct Storage<K, E> {
    run: VecDeque<RunEntry<K, E>>,
    nodes: Vec<Node<K, E>>,
    pair_scratch: Vec<u32>,
}

impl<K, E> Default for Storage<K, E> {
    fn default() -> Self {
        Storage::new()
    }
}

impl<K, E> Storage<K, E> {
    /// Empty storage (allocates nothing until first use).
    pub fn new() -> Storage<K, E> {
        Storage {
            run: VecDeque::new(),
            nodes: Vec::new(),
            pair_scratch: Vec::new(),
        }
    }
}

/// A deterministic min-queue over `(key, seq)`: an in-order run beside a
/// slab pairing heap (see the module docs). `seq` is assigned per
/// [`schedule`](EventQueue::schedule) call in strictly increasing order
/// starting at 0, so ties on `key` break in schedule order.
#[derive(Debug)]
pub struct EventQueue<K, E> {
    /// The in-order run: strictly ascending in `(key, seq)`, front first.
    run: VecDeque<RunEntry<K, E>>,
    nodes: Vec<Node<K, E>>,
    /// Free-list head (linked through `sibling`).
    free: u32,
    /// Root of the pairing heap.
    root: u32,
    /// Queued events, run and heap together.
    len: usize,
    next_seq: u64,
    /// Reused buffer for the first merge pass of `pop`.
    pair_scratch: Vec<u32>,
}

impl<K: Ord + Copy, E> Default for EventQueue<K, E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<K: Ord + Copy, E> EventQueue<K, E> {
    /// An empty queue.
    pub fn new() -> EventQueue<K, E> {
        EventQueue::from_storage(Storage::new())
    }

    /// An empty queue with room for `cap` in-flight events.
    pub fn with_capacity(cap: usize) -> EventQueue<K, E> {
        EventQueue::from_storage(Storage {
            run: VecDeque::with_capacity(cap),
            nodes: Vec::with_capacity(cap),
            pair_scratch: Vec::new(),
        })
    }

    /// Rebuilds an empty queue on recycled [`Storage`]: run and node
    /// capacity is kept, any stale payloads are dropped, and `seq`
    /// restarts at 0.
    pub fn from_storage(mut storage: Storage<K, E>) -> EventQueue<K, E> {
        storage.run.clear();
        storage.nodes.clear();
        storage.pair_scratch.clear();
        EventQueue {
            run: storage.run,
            nodes: storage.nodes,
            free: NIL,
            root: NIL,
            len: 0,
            next_seq: 0,
            pair_scratch: storage.pair_scratch,
        }
    }

    /// Tears the queue down to its reusable storage, dropping any
    /// still-queued payloads.
    pub fn into_storage(self) -> Storage<K, E> {
        Storage {
            run: self.run,
            nodes: self.nodes,
            pair_scratch: self.pair_scratch,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sequence number the next [`schedule`](EventQueue::schedule) call
    /// will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Key of the earliest queued event, if any.
    pub fn peek_key(&self) -> Option<K> {
        let heap = (self.root != NIL).then(|| self.nodes[self.root as usize].key);
        match (self.run.front(), heap) {
            (Some(&(run, ..)), Some(heap)) => Some(run.min(heap)),
            (Some(&(run, ..)), None) => Some(run),
            (None, heap) => heap,
        }
    }

    /// Removes every queued event (payloads are dropped; capacity and the
    /// `seq` counter are kept).
    pub fn clear(&mut self) {
        self.run.clear();
        self.nodes.clear();
        self.free = NIL;
        self.root = NIL;
        self.len = 0;
    }

    /// Queues `item` at `key` and returns the assigned sequence number.
    /// Allocation-free whenever the run has room or a previously popped
    /// slot is available.
    pub fn schedule(&mut self, key: K, item: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        // In order behind the run's tail (`seq` already is): extend the run.
        if self.run.back().is_none_or(|&(tail, ..)| key >= tail) {
            self.run.push_back((key, seq, item));
            return seq;
        }
        let idx = if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.nodes[idx as usize];
            self.free = slot.sibling;
            slot.key = key;
            slot.seq = seq;
            slot.child = NIL;
            slot.sibling = NIL;
            slot.item = Some(item);
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("event slab exceeds u32 indices");
            self.nodes.push(Node {
                key,
                seq,
                child: NIL,
                sibling: NIL,
                item: Some(item),
            });
            idx
        };
        self.root = self.meld(self.root, idx);
        seq
    }

    /// Pops the event with the smallest `(key, seq)` — the smaller of the
    /// run's front and the heap's root.
    pub fn pop(&mut self) -> Option<(K, u64, E)> {
        let run_first = match (self.run.front(), self.root) {
            (None, NIL) => return None,
            (Some(_), NIL) => true,
            (None, _) => false,
            (Some(&(key, seq, _)), root) => {
                let root = &self.nodes[root as usize];
                (key, seq) < (root.key, root.seq)
            }
        };
        self.len -= 1;
        if run_first {
            return self.run.pop_front();
        }
        let root = self.root;
        let slot = &mut self.nodes[root as usize];
        let key = slot.key;
        let seq = slot.seq;
        let item = slot.item.take().expect("heap root must hold a payload");
        let mut child = slot.child;
        // Retire the old root onto the free list.
        slot.child = NIL;
        slot.sibling = self.free;
        self.free = root;

        // Two-pass pairing merge of the root's children. Pass 1 melds
        // adjacent pairs left-to-right into `pair_scratch`; pass 2 melds
        // the pair roots back right-to-left.
        let mut scratch = std::mem::take(&mut self.pair_scratch);
        debug_assert!(scratch.is_empty());
        while child != NIL {
            let next = self.nodes[child as usize].sibling;
            self.nodes[child as usize].sibling = NIL;
            if next == NIL {
                scratch.push(child);
                break;
            }
            let after = self.nodes[next as usize].sibling;
            self.nodes[next as usize].sibling = NIL;
            scratch.push(self.meld(child, next));
            child = after;
        }
        let mut new_root = NIL;
        while let Some(h) = scratch.pop() {
            new_root = self.meld(new_root, h);
        }
        self.pair_scratch = scratch;
        self.root = new_root;
        Some((key, seq, item))
    }

    /// Melds two pairing-heap roots; the smaller `(key, seq)` wins. `seq`
    /// uniqueness makes the order strict, so the winner is always unique.
    fn meld(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        let ka = (self.nodes[a as usize].key, self.nodes[a as usize].seq);
        let kb = (self.nodes[b as usize].key, self.nodes[b as usize].seq);
        debug_assert_ne!(ka.1, kb.1, "seq numbers are unique");
        let (parent, child) = if ka < kb { (a, b) } else { (b, a) };
        self.nodes[child as usize].sibling = self.nodes[parent as usize].child;
        self.nodes[parent as usize].child = child;
        parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut q = EventQueue::new();
        q.schedule(3u64, "c");
        q.schedule(1, "a");
        q.schedule(2, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_keys_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.schedule(7u64, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn seq_is_dense_and_returned() {
        let mut q = EventQueue::new();
        assert_eq!(q.schedule(5u64, ()), 0);
        assert_eq!(q.schedule(5, ()), 1);
        assert_eq!(q.next_seq(), 2);
        let (k, seq, ()) = q.pop().unwrap();
        assert_eq!((k, seq), (5, 0));
    }

    #[test]
    fn storage_recycling_resets_seq_and_keeps_capacity() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(1_000 + i, i); // in order: the run
        }
        for i in 0..100u64 {
            q.schedule(999 - i, i); // below the run's tail: the heap
        }
        assert_eq!((q.run.len(), q.nodes.len()), (100, 100));
        while q.pop().is_some() {}
        let (run_cap, node_cap) = (q.run.capacity(), q.nodes.capacity());
        let storage = q.into_storage();
        let mut q2: EventQueue<u64, u64> = EventQueue::from_storage(storage);
        assert_eq!(q2.next_seq(), 0);
        assert!(q2.run.capacity() >= run_cap && q2.nodes.capacity() >= node_cap);
        assert_eq!(q2.schedule(1, 9), 0);
        assert_eq!(q2.pop(), Some((1, 0, 9)));
    }

    #[test]
    fn interleaved_push_pop_recycles_slots() {
        // A far-future sentinel holds the run's tail, so every other event
        // is out of order and goes through the heap's slab.
        let mut q = EventQueue::new();
        q.schedule(u64::MAX, 0);
        let mut last_popped = None;
        for round in 0..50u64 {
            q.schedule(round * 2, round);
            q.schedule(round * 2 + 1, round);
            let (k, _, _) = q.pop().unwrap();
            assert!(last_popped < Some(k), "pops come out in key order");
            last_popped = Some(k);
        }
        // Slab never grows past live events + one recycled slot.
        assert!(q.nodes.len() <= 51, "slab grew to {}", q.nodes.len());
        assert_eq!(q.len(), 51);
    }

    #[test]
    fn in_order_schedules_never_touch_the_heap() {
        // Constant-latency traffic: keys never decrease, pops interleave.
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..4u64 {
                q.schedule(round * 10, round * 4 + i);
            }
            // Schedule order is pop order: the `round`-th event overall.
            assert_eq!(q.pop(), Some((round / 4 * 10, round, round)));
        }
        assert!(q.nodes.is_empty(), "an in-order event reached the slab");
        assert_eq!((q.len(), q.run.len()), (150, 150));
        // One late event is the heap's; the fronts still merge in order.
        q.schedule(5, 999);
        assert_eq!((q.nodes.len(), q.peek_key()), (1, Some(5)));
        assert_eq!(q.pop(), Some((5, 200, 999)));
        assert_eq!(q.pop(), Some((120, 50, 50)));
    }

    #[test]
    fn peek_key_and_clear() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key(), None);
        q.schedule(9u64, ());
        q.schedule(4, ());
        assert_eq!(q.peek_key(), Some(4));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // seq keeps counting after clear (clear ≠ recycle).
        assert_eq!(q.schedule(1, ()), 2);
    }
}
