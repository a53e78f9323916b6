//! The authoritative append memory.
//!
//! [`AppendMemory`] is the single-register view `M` of the model: an
//! unordered pool of appended messages. Internally the authority keeps the
//! arrival log (it hands out ids in arrival order), but protocols only see
//! arrival order where the model grants it (the Section 5.1 timestamp
//! baseline); everywhere else they must order through references.
//!
//! Reads return [`MemoryView`] snapshots. Because the memory is append-only,
//! a snapshot is a *prefix* of the arrival log; the implementation shares
//! one `Arc`'d prefix across all readers and only rebuilds it when appends
//! happened since the last read (copy-on-read).

use crate::error::AppendError;
use crate::ids::{MsgId, NodeId, Time, GENESIS};
use crate::message::{Message, MessageBuilder};
use crate::value::Value;
use crate::view::MemoryView;
use parking_lot::RwLock;
use std::sync::Arc;

struct Inner {
    n: usize,
    /// Arrival log; `log\[0\]` is always the genesis dummy append.
    log: Vec<Arc<Message>>,
    /// Next per-author sequence number.
    next_seq: Vec<u64>,
    /// Cached snapshot shared across readers (copy-on-read).
    snapshot: Arc<Vec<Arc<Message>>>,
    /// Simulated wall clock used to stamp arrivals.
    now: Time,
    /// When sealed, all appends are rejected (used at decision points).
    sealed: bool,
}

/// The append memory `M` for a system of `n` nodes.
///
/// Thread-safe: the Section 4 message-passing simulation and the parallel
/// Monte-Carlo runners read and append concurrently. All synchronisation is
/// internal (a `parking_lot::RwLock`); methods take `&self`.
pub struct AppendMemory {
    inner: RwLock<Inner>,
}

impl AppendMemory {
    /// Creates an append memory for `n` nodes containing only the genesis
    /// dummy append (Section 5.3: "The DAG ... starts at some dummy append,
    /// e.g. at the empty state of the memory").
    pub fn new(n: usize) -> AppendMemory {
        let genesis = Arc::new(Message {
            id: GENESIS,
            author: None,
            seq: 0,
            value: Value::Unit,
            parents: Vec::new(),
            arrival: Time::ZERO,
            round: None,
        });
        let log = vec![genesis];
        AppendMemory {
            inner: RwLock::new(Inner {
                n,
                snapshot: Arc::new(log.clone()),
                log,
                next_seq: vec![0; n],
                now: Time::ZERO,
                sealed: false,
            }),
        }
    }

    /// Number of nodes this memory serves.
    pub fn n(&self) -> usize {
        self.inner.read().n
    }

    /// The id of the genesis dummy append (always [`GENESIS`]).
    #[inline]
    pub fn genesis_id(&self) -> MsgId {
        GENESIS
    }

    /// Total number of messages in the memory, genesis included.
    pub fn len(&self) -> usize {
        self.inner.read().log.len()
    }

    /// Whether the memory holds only genesis.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Advances the simulated clock used to stamp arrivals. The clock is
    /// monotone; attempts to move it backwards are ignored (concurrent
    /// drivers may race benignly).
    pub fn set_now(&self, t: Time) {
        let mut g = self.inner.write();
        if t > g.now {
            g.now = t;
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.inner.read().now
    }

    /// Seals the memory: every further append fails with
    /// [`AppendError::Sealed`]. Round runners seal at the decision point so
    /// that stragglers cannot mutate the history a decision was based on.
    pub fn seal(&self) {
        self.inner.write().sealed = true;
    }

    /// `M.append(msg)`: appends the built message, enforcing the model's
    /// construction rules, and returns the assigned id.
    ///
    /// Rules enforced (Section 2.1, rule (c)):
    /// * the author must be one of the `n` nodes;
    /// * every parent reference must point to an existing message (a node
    ///   may reference an *obsolete* state — any prior message — but never
    ///   a nonexistent one);
    /// * the author's own appends are totally ordered by the assigned `seq`.
    pub fn append(&self, b: MessageBuilder) -> Result<MsgId, AppendError> {
        self.append_at_internal(b, None)
    }

    /// Appends with an explicit arrival time (used by the discrete-event
    /// simulator, which knows the token time). Also advances the clock.
    pub fn append_at(&self, b: MessageBuilder, at: Time) -> Result<MsgId, AppendError> {
        self.append_at_internal(b, Some(at))
    }

    fn append_at_internal(
        &self,
        b: MessageBuilder,
        at: Option<Time>,
    ) -> Result<MsgId, AppendError> {
        let mut g = self.inner.write();
        if g.sealed {
            return Err(AppendError::Sealed);
        }
        if b.author.index() >= g.n {
            return Err(AppendError::UnknownAuthor {
                author: b.author,
                n: g.n,
            });
        }
        let id = MsgId(g.log.len() as u64);
        for &p in &b.parents {
            if p >= id {
                return Err(if p == id {
                    AppendError::ForwardReference { parent: p }
                } else {
                    AppendError::UnknownParent { parent: p }
                });
            }
        }
        if let Some(t) = at {
            if t > g.now {
                g.now = t;
            }
        }
        let seq = g.next_seq[b.author.index()];
        g.next_seq[b.author.index()] += 1;
        let arrival = g.now;
        g.log.push(Arc::new(Message {
            id,
            author: Some(b.author),
            seq,
            value: b.value,
            parents: b.parents,
            arrival,
            round: b.round,
        }));
        Ok(id)
    }

    /// `M.read()`: returns a complete snapshot view of the memory.
    ///
    /// Cheap when no append happened since the previous read (the cached
    /// `Arc` is shared); otherwise rebuilds the shared prefix with pointer
    /// copies only.
    pub fn read(&self) -> MemoryView {
        {
            let g = self.inner.read();
            if g.snapshot.len() == g.log.len() {
                return MemoryView::from_arc(Arc::clone(&g.snapshot));
            }
        }
        let mut g = self.inner.write();
        let inner = &mut *g;
        let snap_len = inner.snapshot.len();
        if snap_len != inner.log.len() {
            // Copy-on-write: when no reader still holds the old snapshot the
            // Arc is unique and the prefix extends in place — O(appends
            // since last read) instead of O(history). Shared snapshots fall
            // back to a pointer-copy clone of the prefix, as before.
            Arc::make_mut(&mut inner.snapshot).extend_from_slice(&inner.log[snap_len..]);
        }
        MemoryView::from_arc(Arc::clone(&inner.snapshot))
    }

    /// Reads a snapshot restricted to the first `len` arrivals. Runners use
    /// this to replay what a node saw at an earlier read without storing
    /// every view. `len` is clamped to at least 1 (genesis) and at most the
    /// current length.
    pub fn read_prefix(&self, len: usize) -> MemoryView {
        let g = self.inner.read();
        let len = len.clamp(1, g.log.len());
        if len == g.log.len() && g.snapshot.len() == len {
            return MemoryView::from_arc(Arc::clone(&g.snapshot));
        }
        MemoryView::from_arc(Arc::new(g.log[..len].to_vec()))
    }

    /// `R_i.read()`: the register view of node `i` — that node's appends in
    /// its own total order.
    pub fn read_register(&self, author: NodeId) -> Vec<Arc<Message>> {
        let g = self.inner.read();
        let out: Vec<Arc<Message>> = g
            .log
            .iter()
            .filter(|m| m.author == Some(author))
            .cloned()
            .collect();
        // seq is assigned in arrival order under the same lock as the id,
        // so filtering the id-ordered log already yields seq order.
        debug_assert!(out.windows(2).all(|w| w[0].seq < w[1].seq));
        out
    }
}

impl std::fmt::Debug for AppendMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.read();
        write!(
            f,
            "AppendMemory(n={}, len={}, now={:?}, sealed={})",
            g.n,
            g.log.len(),
            g.now,
            g.sealed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(author: u32, v: Value) -> MessageBuilder {
        MessageBuilder::new(NodeId(author), v).parent(GENESIS)
    }

    #[test]
    fn new_memory_contains_only_genesis() {
        let m = AppendMemory::new(4);
        assert_eq!(m.len(), 1);
        assert!(m.is_empty());
        assert_eq!(m.n(), 4);
        let v = m.read();
        assert_eq!(v.len(), 1);
        assert!(v.get(GENESIS).unwrap().is_genesis());
    }

    #[test]
    fn append_assigns_arrival_ids() {
        let m = AppendMemory::new(2);
        let a = m.append(mb(0, Value::plus())).unwrap();
        let b = m.append(mb(1, Value::minus())).unwrap();
        assert_eq!(a, MsgId(1));
        assert_eq!(b, MsgId(2));
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn per_author_sequence_is_total() {
        let m = AppendMemory::new(2);
        let a = m.append(mb(0, Value::plus())).unwrap();
        m.append(mb(1, Value::plus())).unwrap();
        let c = m
            .append(MessageBuilder::new(NodeId(0), Value::minus()).parent(a))
            .unwrap();
        let reg = m.read_register(NodeId(0));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg[0].seq, 0);
        assert_eq!(reg[1].seq, 1);
        assert_eq!(reg[1].id, c);
    }

    #[test]
    fn append_rejects_unknown_parent() {
        let m = AppendMemory::new(2);
        let err = m
            .append(MessageBuilder::new(NodeId(0), Value::Unit).parent(MsgId(42)))
            .unwrap_err();
        assert_eq!(err, AppendError::UnknownParent { parent: MsgId(42) });
        // Rejected appends must not consume ids or sequence numbers.
        let ok = m.append(mb(0, Value::Unit)).unwrap();
        assert_eq!(ok, MsgId(1));
        assert_eq!(m.read_register(NodeId(0))[0].seq, 0);
    }

    #[test]
    fn append_rejects_unknown_author() {
        let m = AppendMemory::new(2);
        let err = m.append(mb(5, Value::Unit)).unwrap_err();
        assert!(matches!(err, AppendError::UnknownAuthor { .. }));
    }

    #[test]
    fn sealed_memory_rejects_appends() {
        let m = AppendMemory::new(2);
        m.append(mb(0, Value::plus())).unwrap();
        m.seal();
        assert_eq!(
            m.append(mb(1, Value::plus())).unwrap_err(),
            AppendError::Sealed
        );
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn read_snapshot_is_stable_under_later_appends() {
        let m = AppendMemory::new(2);
        m.append(mb(0, Value::plus())).unwrap();
        let v1 = m.read();
        m.append(mb(1, Value::minus())).unwrap();
        assert_eq!(v1.len(), 2, "snapshot must not see later appends");
        let v2 = m.read();
        assert_eq!(v2.len(), 3);
    }

    #[test]
    fn repeated_reads_share_the_snapshot() {
        let m = AppendMemory::new(2);
        m.append(mb(0, Value::plus())).unwrap();
        let v1 = m.read();
        let v2 = m.read();
        assert!(v1.ptr_eq(&v2), "no-append reads must share the Arc");
        m.append(mb(1, Value::plus())).unwrap();
        let v3 = m.read();
        assert!(!v1.ptr_eq(&v3));
    }

    #[test]
    fn read_prefix_clamps_and_matches() {
        let m = AppendMemory::new(2);
        m.append(mb(0, Value::plus())).unwrap();
        m.append(mb(1, Value::minus())).unwrap();
        assert_eq!(m.read_prefix(0).len(), 1); // clamped to genesis
        assert_eq!(m.read_prefix(2).len(), 2);
        assert_eq!(m.read_prefix(99).len(), 3);
        let p = m.read_prefix(2);
        assert!(p.contains(MsgId(1)));
        assert!(!p.contains(MsgId(2)));
    }

    #[test]
    fn clock_is_monotone() {
        let m = AppendMemory::new(1);
        m.set_now(Time::new(5.0));
        m.set_now(Time::new(3.0)); // ignored
        assert_eq!(m.now(), Time::new(5.0));
        let id = m.append_at(mb(0, Value::Unit), Time::new(7.5)).unwrap();
        assert_eq!(m.now(), Time::new(7.5));
        assert_eq!(m.read().get(id).unwrap().arrival, Time::new(7.5));
    }

    #[test]
    fn append_can_reference_obsolete_state() {
        // A node may append to an obsolete state: parents need not be tips.
        let m = AppendMemory::new(2);
        let a = m.append(mb(0, Value::plus())).unwrap();
        let _b = m
            .append(MessageBuilder::new(NodeId(1), Value::plus()).parent(a))
            .unwrap();
        // Node 0 appends again referencing genesis (obsolete) — allowed.
        let c = m
            .append(MessageBuilder::new(NodeId(0), Value::minus()).parent(GENESIS))
            .unwrap();
        assert_eq!(m.read().get(c).unwrap().parents, vec![GENESIS]);
    }

    #[test]
    fn register_seq_order_without_sorting() {
        // Regression for dropping the sort in read_register: heavy
        // interleaving across authors must still yield per-author seq order
        // straight from the id-ordered log.
        let m = AppendMemory::new(3);
        for i in 0..30u32 {
            m.append(mb(i % 3, Value::plus())).unwrap();
        }
        for a in 0..3u32 {
            let reg = m.read_register(NodeId(a));
            let seqs: Vec<u64> = reg.iter().map(|msg| msg.seq).collect();
            assert_eq!(seqs, (0..10u64).collect::<Vec<_>>());
            // Ids must also ascend (log order preserved).
            assert!(reg.windows(2).all(|w| w[0].id < w[1].id));
        }
    }

    #[test]
    fn read_extends_snapshot_in_place_when_unique() {
        let m = AppendMemory::new(2);
        m.append(mb(0, Value::plus())).unwrap();
        let _ = m.read(); // build + drop the snapshot: Arc is now unique
        m.append(mb(1, Value::minus())).unwrap();
        let v = m.read(); // extends in place
        assert_eq!(v.len(), 3);
        let ids: Vec<MsgId> = v.iter().map(|msg| msg.id).collect();
        assert_eq!(ids, vec![MsgId(0), MsgId(1), MsgId(2)]);
        // A held snapshot must still never see later appends.
        m.append(mb(0, Value::plus())).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(m.read().len(), 4);
    }

    #[test]
    fn concurrent_appends_and_reads() {
        use std::sync::Arc as StdArc;
        let m = StdArc::new(AppendMemory::new(8));
        let mut handles = Vec::new();
        for a in 0..8u32 {
            let m = StdArc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let v = m.read();
                    let tip = v.iter().last().unwrap().id;
                    m.append(MessageBuilder::new(NodeId(a), Value::plus()).parent(tip))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 1 + 8 * 100);
        // Per-author order must be intact.
        for a in 0..8u32 {
            let reg = m.read_register(NodeId(a));
            assert_eq!(reg.len(), 100);
            for (i, msg) in reg.iter().enumerate() {
                assert_eq!(msg.seq, i as u64);
            }
        }
    }
}
