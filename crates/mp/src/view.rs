//! Incremental ABD state: persistent local views and dense ack tallies.
//!
//! Two hot structures behind Algorithms 2/3 used to be rebuilt or
//! deep-copied per operation:
//!
//! * `views[node].clone()` — every `local_view`/`read` return and every
//!   `ReadReq` response copied the node's whole history, making a read
//!   O(history · n). [`MpView`] is a persistent append-only log of fixed
//!   chunks behind [`Arc`]s (the same copy-on-write idiom as
//!   `am-core`'s snapshot machinery): cloning shares every full chunk, so
//!   a snapshot costs one pointer bump per `CHUNK` messages, and pushing
//!   after a snapshot copies at most the last (partial) chunk.
//! * `acks: HashMap<(author, seq, content), HashSet<usize>>` — quorum
//!   counting paid two hash lookups and a heap-allocated set per ack.
//!   [`AckTally`] flattens the sets into one dense bitmask block per op
//!   with a maintained count, so recording an ack is one hash lookup plus
//!   a bit test.
//!
//! Every observable of a scripted run (appends, reads, settled views,
//! message counts, the full `NetStats`) is pinned over 300 seeds by
//! `tests/naive_equiv.rs` to what the deep-copy / hash-set forms produced.

use crate::abd::MpMsg;
use std::collections::HashMap;
use std::sync::Arc;

/// Messages per shared chunk. Snapshot cost is one `Arc` clone per
/// `CHUNK` messages; a post-snapshot push copies at most `CHUNK − 1`
/// messages (the shared partial tail chunk).
const CHUNK: usize = 128;

/// A persistent append-only view of a node's local memory `M_v`.
///
/// Layout invariant: every chunk except possibly the last holds exactly
/// `CHUNK` messages, and no chunk is empty — so logically equal views
/// always have identical chunk layout. Shared (full) chunks are never
/// grown in place, which keeps earlier snapshots stable.
#[derive(Clone, Debug, Default)]
pub struct MpView {
    chunks: Vec<Arc<Vec<MpMsg>>>,
    len: usize,
}

impl MpView {
    /// An empty view.
    pub fn new() -> MpView {
        MpView::default()
    }

    /// Builds a view from a message slice (chunked canonically).
    pub fn from_slice(msgs: &[MpMsg]) -> MpView {
        MpView {
            chunks: msgs.chunks(CHUNK).map(|c| Arc::new(c.to_vec())).collect(),
            len: msgs.len(),
        }
    }

    /// Number of messages in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a message. O(1) amortized; if the tail chunk is shared
    /// with a snapshot, it is copied first (at most `CHUNK − 1` messages).
    pub fn push(&mut self, msg: MpMsg) {
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < CHUNK => Arc::make_mut(tail).push(msg),
            _ => {
                let mut fresh = Vec::with_capacity(CHUNK);
                fresh.push(msg);
                self.chunks.push(Arc::new(fresh));
            }
        }
        self.len += 1;
    }

    /// Whether the view contains `msg` (linear scan, like `Vec::contains`).
    pub fn contains(&self, msg: &MpMsg) -> bool {
        self.iter().any(|m| m == msg)
    }

    /// Iterates the messages in append order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: &self.chunks,
            chunk: 0,
            idx: 0,
        }
    }

    /// Iterates the messages in append order starting at position
    /// `start` (clamped to the end). The canonical chunk layout — every
    /// chunk except the last is full — makes the jump O(1): nothing in
    /// the skipped prefix is walked.
    pub fn iter_from(&self, start: usize) -> Iter<'_> {
        let start = start.min(self.len);
        Iter {
            chunks: &self.chunks,
            chunk: start / CHUNK,
            idx: start % CHUNK,
        }
    }

    /// The last message, if any.
    pub fn last(&self) -> Option<&MpMsg> {
        self.chunks.last().and_then(|c| c.last())
    }

    /// A snapshot of the first `len` messages (clamped to the end),
    /// sharing every full chunk with `self` — O(chunks) plus a copy of
    /// at most one partial tail chunk, never O(history). This is the
    /// archival layer's snapshot-at-height primitive.
    pub fn prefix(&self, len: usize) -> MpView {
        let len = len.min(self.len);
        let full = len / CHUNK;
        let mut chunks: Vec<Arc<Vec<MpMsg>>> = self.chunks[..full].to_vec();
        let tail = len % CHUNK;
        if tail > 0 {
            chunks.push(Arc::new(self.chunks[full][..tail].to_vec()));
        }
        MpView { chunks, len }
    }

    /// Deep-copies the view into a plain vector.
    pub fn to_vec(&self) -> Vec<MpMsg> {
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// Number of backing chunks (exposed for tests asserting the sharing
    /// behaviour).
    #[doc(hidden)]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many backing chunks are shared (refcount > 1) with snapshots.
    #[doc(hidden)]
    pub fn shared_chunk_count(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| Arc::strong_count(c) > 1)
            .count()
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
    chunks: &'a [Arc<Vec<MpMsg>>],
    chunk: usize,
    idx: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a MpMsg;

    fn next(&mut self) -> Option<&'a MpMsg> {
        loop {
            let c = self.chunks.get(self.chunk)?;
            if let Some(m) = c.get(self.idx) {
                self.idx += 1;
                return Some(m);
            }
            self.chunk += 1;
            self.idx = 0;
        }
    }
}

impl<'a> IntoIterator for &'a MpView {
    type Item = &'a MpMsg;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Owning iterator over an [`MpView`] ([`MpMsg`] is `Copy`; chunks stay
/// shared).
#[derive(Debug)]
pub struct IntoIter {
    view: MpView,
    chunk: usize,
    idx: usize,
}

impl Iterator for IntoIter {
    type Item = MpMsg;

    fn next(&mut self) -> Option<MpMsg> {
        loop {
            let c = self.view.chunks.get(self.chunk)?;
            if let Some(&m) = c.get(self.idx) {
                self.idx += 1;
                return Some(m);
            }
            self.chunk += 1;
            self.idx = 0;
        }
    }
}

impl IntoIterator for MpView {
    type Item = MpMsg;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter {
            view: self,
            chunk: 0,
            idx: 0,
        }
    }
}

/// Dense per-op ack tallies: one bitmask block + maintained count per
/// `(author, seq, content)` key, replacing `HashMap<_, HashSet<usize>>`.
#[derive(Clone, Debug)]
pub struct AckTally {
    /// Words per op block: ⌈n / 64⌉.
    stride: usize,
    /// Key → block index into `bits` / `counts`.
    index: HashMap<(usize, u64, u64), u32>,
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
            index: HashMap::new(),
            bits: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Records that node `from` acked `key`; returns the distinct-acker
    /// count after recording. Duplicate acks are idempotent.
    pub fn add(&mut self, key: (usize, u64, u64), from: usize) -> usize {
        let block = match self.index.get(&key) {
            Some(&b) => b as usize,
            None => {
                let b = self.counts.len();
                self.index
                    .insert(key, u32::try_from(b).expect("op count fits u32"));
                self.bits.resize(self.bits.len() + self.stride, 0);
                self.counts.push(0);
                b
            }
        };
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
            .map_or(0, |&b| self.counts[b as usize] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::Signature;

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
        assert_eq!(v.chunk_count(), 200usize.div_ceil(CHUNK));
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
        // Every offset, including chunk boundaries and one past the end.
        for start in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 149, 150, 151, 999] {
            let got: Vec<MpMsg> = v.iter_from(start).copied().collect();
            let want: Vec<MpMsg> = msgs.iter().skip(start).copied().collect();
            assert_eq!(got, want, "iter_from({start}) diverged from skip");
        }
    }

    #[test]
    fn prefix_shares_full_chunks_and_matches_take() {
        let msgs: Vec<MpMsg> = (0..(3 * CHUNK as u64 + 17)).map(msg).collect();
        let v = MpView::from_slice(&msgs);
        for len in [
            0,
            1,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            2 * CHUNK,
            v.len(),
            v.len() + 9,
        ] {
            let p = v.prefix(len);
            let want: Vec<MpMsg> = msgs.iter().take(len).copied().collect();
            assert_eq!(p.len(), want.len(), "prefix({len}) length");
            assert_eq!(p.to_vec(), want, "prefix({len}) content");
            // Canonical layout: equal views compare equal.
            assert_eq!(p, MpView::from_slice(&want));
        }
        // A chunk-aligned prefix shares every chunk with the source.
        let aligned = v.prefix(2 * CHUNK);
        assert_eq!(aligned.chunk_count(), 2);
        assert!(v.shared_chunk_count() >= 2, "full chunks are shared");
        drop(aligned);
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
        let snap_at = CHUNK as u64 + CHUNK as u64 / 2; // one full chunk + a partial tail
        let mut v = MpView::new();
        for i in 0..snap_at {
            v.push(msg(i));
        }
        let snap = v.clone();
        assert_eq!(v.shared_chunk_count(), v.chunk_count(), "clone shares all");
        // Pushing after the snapshot copies only the partial tail chunk.
        for i in snap_at..snap_at + CHUNK as u64 {
            v.push(msg(i));
        }
        assert_eq!(snap.len(), snap_at as usize);
        assert_eq!(snap.to_vec(), (0..snap_at).map(msg).collect::<Vec<_>>());
        assert_eq!(v.len(), (snap_at + CHUNK as u64) as usize);
        // The snapshot's full chunk (0) is still shared; only the tail
        // diverged.
        assert!(v.shared_chunk_count() >= 1);
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
}
