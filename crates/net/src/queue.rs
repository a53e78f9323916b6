//! The shared event core: an in-order run beside an implicit 4-ary
//! min-heap, one total order.
//!
//! One type serves every discrete-event loop in the workspace — [`SimNet`]
//! here and the `am_poisson::des::EventQueue` wrapper over it. Events are
//! ordered by the strict total order `(key, seq)`, where `seq` is the
//! schedule sequence number, so equal-key events pop in schedule order and
//! the pop sequence is **independent of how the events are stored** — a
//! d-ary heap, a binary heap and a sorted list all produce the identical
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
//! - the **4-ary heap**: everything else, as `(key, seq, item)` entries
//!   inline in one `Vec` (slot `i`'s children are `4i + 1 ..= 4i + 4`) —
//!   `O(log₄ n)` push and pop, no pointers to chase, no per-event
//!   allocation once warm. Every key in it is below the run's tail, so the
//!   heap is empty whenever the run is. Spread-latency traffic lives here
//!   but for its record-late events (0.02 % of `gossip_scale`'s).
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

/// One queued event: `(key, seq, payload)`.
type Entry<K, E> = (K, u64, E);

/// Children per heap slot.
const ARITY: usize = 4;

/// Whether `a` pops before `b`: `(key, seq)` ascending. `seq` is unique,
/// so the order is strict. Spelled with non-short-circuit operators so the
/// heap's child selection compiles to flag arithmetic, not branches.
#[inline]
fn before<K: Ord, E>(a: &Entry<K, E>, b: &Entry<K, E>) -> bool {
    (a.0 < b.0) | ((a.0 == b.0) & (a.1 < b.1))
}

/// Recycled run and heap storage for an [`EventQueue`].
///
/// [`EventQueue::into_storage`] returns the warmed-up ring buffer and heap
/// `Vec` (payloads dropped, capacity kept); [`EventQueue::from_storage`]
/// rebuilds a fresh queue on top of them with zero allocations. Trial
/// runners keep one `Storage` per thread (a `thread_local!`).
#[derive(Debug)]
pub struct Storage<K, E> {
    run: VecDeque<Entry<K, E>>,
    heap: Vec<Entry<K, E>>,
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
            heap: Vec::new(),
        }
    }
}

/// A deterministic min-queue over `(key, seq)`: an in-order run beside an
/// implicit 4-ary heap (see the module docs). `seq` is assigned per
/// [`schedule`](EventQueue::schedule) call in strictly increasing order
/// starting at 0, so ties on `key` break in schedule order.
#[derive(Debug)]
pub struct EventQueue<K, E> {
    /// The in-order run: strictly ascending in `(key, seq)`, front first.
    run: VecDeque<Entry<K, E>>,
    /// The 4-ary min-heap: no slot pops after any of its children.
    heap: Vec<Entry<K, E>>,
    next_seq: u64,
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

    /// Rebuilds an empty queue on recycled [`Storage`]: run and heap
    /// capacity is kept, any stale payloads are dropped, and `seq`
    /// restarts at 0.
    pub fn from_storage(mut storage: Storage<K, E>) -> EventQueue<K, E> {
        storage.run.clear();
        storage.heap.clear();
        EventQueue {
            run: storage.run,
            heap: storage.heap,
            next_seq: 0,
        }
    }

    /// Tears the queue down to its reusable storage, dropping any
    /// still-queued payloads.
    pub fn into_storage(self) -> Storage<K, E> {
        Storage {
            run: self.run,
            heap: self.heap,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Events held in the 4-ary heap rather than the in-order run: a
    /// probe for tests that pin which store a workload's events take.
    #[doc(hidden)]
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Sequence number the next [`schedule`](EventQueue::schedule) call
    /// will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Key of the earliest queued event, if any.
    pub fn peek_key(&self) -> Option<K> {
        match (self.run.front(), self.heap.first()) {
            (Some(&(run, ..)), Some(&(heap, ..))) => Some(run.min(heap)),
            (Some(&(run, ..)), None) => Some(run),
            (None, heap) => heap.map(|&(key, ..)| key),
        }
    }

    /// Removes every queued event (payloads are dropped; capacity and the
    /// `seq` counter are kept).
    pub fn clear(&mut self) {
        self.run.clear();
        self.heap.clear();
    }

    /// Queues `item` at `key` and returns the assigned sequence number.
    /// Allocation-free whenever the run or the heap has room.
    pub fn schedule(&mut self, key: K, item: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        // In order behind the run's tail (`seq` already is): extend the run.
        if self.run.back().is_none_or(|&(tail, ..)| key >= tail) {
            self.run.push_back((key, seq, item));
            return seq;
        }
        self.heap.push((key, seq, item));
        self.sift_up(self.heap.len() - 1);
        seq
    }

    /// Moves the heap entry at `at` up past every ancestor it pops before.
    #[inline]
    fn sift_up(&mut self, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / ARITY;
            if !before(&self.heap[at], &self.heap[parent]) {
                break;
            }
            self.heap.swap(at, parent);
            at = parent;
        }
    }

    /// Pops the event with the smallest `(key, seq)` — the smaller of the
    /// run's front and the heap's root.
    pub fn pop(&mut self) -> Option<(K, u64, E)> {
        let heap_first = match (self.run.front(), self.heap.first()) {
            (None, None) => return None,
            (Some(run), Some(root)) => before(root, run),
            (run, _) => run.is_none(),
        };
        if !heap_first {
            return self.run.pop_front();
        }
        // The last leaf takes the root's slot, sinks along the least
        // children to a leaf, then rises back to its place — a leaf
        // usually belongs near the bottom, so this saves the compare
        // against it on every level on the way down.
        let top = self.heap.swap_remove(0);
        let len = self.heap.len();
        let mut at = 0;
        loop {
            let first = ARITY * at + 1;
            if first >= len {
                break;
            }
            let h = &self.heap;
            let least = if first + ARITY <= len {
                // A full family: two independent pairs, then their winners.
                let a = first + usize::from(before(&h[first + 1], &h[first]));
                let b = first + 2 + usize::from(before(&h[first + 3], &h[first + 2]));
                [a, b][usize::from(before(&h[b], &h[a]))]
            } else {
                (first..len)
                    .min_by_key(|&c| (h[c].0, h[c].1))
                    .expect("a child")
            };
            self.heap.swap(at, least);
            at = least;
        }
        self.sift_up(at);
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No heap slot pops before its parent.
    fn assert_heap_ordered<K: Ord + Copy + std::fmt::Debug, E>(q: &EventQueue<K, E>) {
        for at in 1..q.heap.len() {
            let parent = (at - 1) / ARITY;
            assert!(
                before(&q.heap[parent], &q.heap[at]),
                "slot {at} pops before its parent {parent}"
            );
        }
    }

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
        assert_eq!((q.run.len(), q.heap.len()), (100, 100));
        assert_heap_ordered(&q);
        while q.pop().is_some() {}
        let (run_cap, heap_cap) = (q.run.capacity(), q.heap.capacity());
        let storage = q.into_storage();
        let mut q2: EventQueue<u64, u64> = EventQueue::from_storage(storage);
        assert_eq!(q2.next_seq(), 0);
        assert!(q2.run.capacity() >= run_cap && q2.heap.capacity() >= heap_cap);
        assert_eq!(q2.schedule(1, 9), 0);
        assert_eq!(q2.pop(), Some((1, 0, 9)));
    }

    #[test]
    fn interleaved_push_pop_recycles_slots() {
        // A far-future sentinel holds the run's tail, so every other event
        // is out of order and goes through the heap.
        let mut q = EventQueue::new();
        q.schedule(u64::MAX, 0);
        let mut last_popped = None;
        for round in 0..50u64 {
            q.schedule(round * 2, round);
            q.schedule(round * 2 + 1, round);
            let (k, _, _) = q.pop().unwrap();
            assert!(last_popped < Some(k), "pops come out in key order");
            last_popped = Some(k);
            assert_heap_ordered(&q);
        }
        // The heap holds the live events only: a popped slot is reused.
        assert_eq!((q.heap.len(), q.run.len(), q.len()), (50, 1, 51));
        assert!(
            q.heap.capacity() <= 64,
            "heap grew to {}",
            q.heap.capacity()
        );
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
        assert!(q.heap.is_empty(), "an in-order event reached the heap");
        assert_eq!((q.len(), q.run.len()), (150, 150));
        // One late event is the heap's; the fronts still merge in order.
        q.schedule(5, 999);
        assert_eq!((q.heap.len(), q.peek_key()), (1, Some(5)));
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
