//! The archival layer: decided history with snapshot-at-height queries.
//!
//! Each node's archive mirrors its protocol-level view into a persistent
//! [`MpView`] log plus a per-height rolling digest, giving the request
//! API three query shapes the raw protocol state can't serve cheaply:
//!
//! * **Snapshot at height** — [`Archive::snapshot_at`] is
//!   [`MpView::prefix`], and [`Archive::snapshot`] a clone: views a
//!   caller keeps while the log grows. A query that only reads a few
//!   messages below a height takes [`Archive::tail_at`] instead, which
//!   reads the live log in place: the log is append-only, so its
//!   positions below `h` are the prefix of height `h`, now and later.
//!   With H messages archived:
//!
//!   | | 128-message chunk list (before) | radix vector |
//!   |---|---|---|
//!   | `snapshot` (clone), and dropping it | H/128 refcounts each | 2 refcounts |
//!   | `snapshot_at(h)` (prefix) | h/128 refcounts + ≤ 127 messages copied | O(log H) refcounts + less than one leaf of messages copied |
//!   | `sync_from` per new message (push) | O(1) amortized | O(1) amortized |
//!   | `tail_at(h, k)` (in place: a seek, then k messages) | O(1) seek | O(1) seek near the tip, O(log H) below; nothing copied or refcounted |
//!
//! * **Cheap tail** — [`Archive::tail_at`] seeks with
//!   [`MpView::iter_from`]; [`Archive::tip`] is the last entry.
//! * **Canonical linearization** — [`Archive::linearization_digest`] is
//!   a pure function of which messages a node holds, independent of
//!   arrival order. Two nodes whose views have converged — e.g. after a
//!   partition heals and reads merge the sides — report the same digest
//!   even though their append-order logs interleaved differently. The
//!   fault-injection suite leans on exactly this property; the canonical
//!   *order* itself ([`Archive::linearization`], sorted by
//!   `(author, seq, content)`) is computed on demand.
//!
//! Syncing is incremental: [`Archive::sync_from`] walks only the source
//! view's new tail (`iter_from(height)`), so keeping an archive current
//! costs O(new messages), not O(history), per sync.

use am_mp::{MpMsg, MpView};

/// Mixes one value into a rolling digest (splitmix64 finalizer — cheap,
/// well-distributed, and stable across platforms).
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn mix_msg(h: u64, m: &MpMsg) -> u64 {
    let h = mix(h, m.author as u64);
    let h = mix(h, m.seq);
    mix(h, m.content)
}

/// Decided history of one node: the append-order log plus per-height
/// digests and an incrementally maintained linearization digest.
#[derive(Clone, Debug, Default)]
pub struct Archive {
    log: MpView,
    /// `digests[h]` = rolling digest of the first `h + 1` log entries, in
    /// *append* order — an O(1) integrity handle per height.
    digests: Vec<u64>,
    /// Order-independent digest of the archived message *set*: the
    /// wrapping sum of each message's individual hash. Maintained
    /// incrementally on sync, read in O(1) — the load generator queries
    /// it on the hot path.
    lin_digest: u64,
    /// Finalized watermark: the prefix height the cluster has proven
    /// durable (quorum-replicated). Monotone, never past [`Archive::height`].
    final_h: usize,
}

impl Archive {
    /// An empty archive.
    pub fn new() -> Archive {
        Archive::default()
    }

    /// Archived height (number of decided messages).
    pub fn height(&self) -> usize {
        self.log.len()
    }

    /// Whether nothing has been archived yet.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// The latest archived message, if any.
    pub fn tip(&self) -> Option<MpMsg> {
        self.log.last().copied()
    }

    /// Pulls the new tail of `source` (everything at or past the current
    /// height) into the archive. O(new messages). Returns how many were
    /// archived. Safe to call with any view that extends the archived
    /// prefix — which protocol views do, being append-only.
    pub fn sync_from(&mut self, source: &MpView) -> usize {
        let before = self.height();
        let mut digest = self.digests.last().copied().unwrap_or(0);
        for m in source.iter_from(before) {
            digest = mix_msg(digest, m);
            self.lin_digest = self.lin_digest.wrapping_add(mix_msg(0, m));
            self.log.push(*m);
            self.digests.push(digest);
        }
        self.height() - before
    }

    /// Snapshot of the first `height` decided messages (clamped), sharing
    /// storage with the live log: O(log history) pointer copies plus less
    /// than one leaf of messages, whatever the height.
    pub fn snapshot_at(&self, height: usize) -> MpView {
        self.log.prefix(height)
    }

    /// The full decided log as a shared snapshot. O(1).
    pub fn snapshot(&self) -> MpView {
        self.log.clone()
    }

    /// The last `k` messages of the prefix of height `height` (clamped),
    /// oldest first, read from the live log in place: log positions
    /// `[height − k, height)`. Exact for any height, because the log is
    /// append-only. O(k) after the log's seek (O(1) inside its newest
    /// leaf, O(log history) below); copies and allocates nothing.
    pub fn tail_at(&self, height: usize, k: usize) -> impl Iterator<Item = &MpMsg> + '_ {
        let height = height.min(self.height());
        let start = height.saturating_sub(k);
        self.log.iter_from(start).take(height - start)
    }

    /// Rolling append-order digest at `height` (1-based: the digest after
    /// `height` messages). Height 0 — the empty prefix — digests to 0.
    /// O(1).
    pub fn digest_at(&self, height: usize) -> Option<u64> {
        if height == 0 {
            Some(0)
        } else {
            self.digests.get(height - 1).copied()
        }
    }

    /// Digest of the canonical linearization: a pure function of the
    /// archived message *set* (a commutative sum of per-message hashes),
    /// so nodes that hold the same messages in different append orders
    /// report the same digest — the convergence witness the
    /// fault-injection suite compares across nodes. Maintained
    /// incrementally; O(1) per query.
    pub fn linearization_digest(&self) -> u64 {
        self.lin_digest
    }

    /// Raises the finalized watermark to `h`, clamped to the archived
    /// height and never lowered (finality is monotone — a stale or
    /// overshooting caller cannot regress or outrun the log). Returns
    /// the watermark in force.
    pub fn set_final_watermark(&mut self, h: usize) -> usize {
        let clamped = h.min(self.height());
        if clamped > self.final_h {
            self.final_h = clamped;
        }
        self.final_h
    }

    /// The finalized prefix height — everything below it is
    /// quorum-replicated and can no longer be lost to a single node's
    /// failure. Always ≤ [`Archive::height`].
    pub fn finalized_height(&self) -> usize {
        self.final_h
    }

    /// Rolling digest of the finalized prefix — the O(1) integrity
    /// handle clients compare across nodes. Watermarks may differ while
    /// nodes lag; equal watermarks imply equal digests.
    pub fn finalized_digest(&self) -> u64 {
        self.digest_at(self.final_h)
            .expect("watermark never exceeds the archived height")
    }

    /// The canonical linearization itself, for callers that want the
    /// order rather than its digest. O(h log h).
    pub fn linearization(&self) -> Vec<MpMsg> {
        let mut msgs = self.log.to_vec();
        msgs.sort_unstable_by_key(|m| (m.author, m.seq, m.content));
        msgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_mp::Signature;

    fn msg(author: usize, seq: u64) -> MpMsg {
        MpMsg {
            author,
            seq,
            value: (seq % 3) as i8 - 1,
            content: ((author as u64) << 32) | seq,
            sig: Signature(seq),
        }
    }

    fn view(msgs: &[MpMsg]) -> MpView {
        MpView::from_slice(msgs)
    }

    #[test]
    fn sync_is_incremental_and_heights_line_up() {
        let msgs: Vec<MpMsg> = (0..300).map(|i| msg(i % 4, i as u64 / 4)).collect();
        let mut ar = Archive::new();
        assert_eq!(ar.sync_from(&view(&msgs[..100])), 100);
        assert_eq!(ar.sync_from(&view(&msgs[..100])), 0, "no-op when current");
        assert_eq!(ar.sync_from(&view(&msgs)), 200);
        assert_eq!(ar.height(), 300);
        assert_eq!(ar.tip(), Some(msgs[299]));
        let tail_at = |h, k| ar.tail_at(h, k).copied().collect::<Vec<_>>();
        assert_eq!(tail_at(300, 5), msgs[295..].to_vec());
        assert_eq!(tail_at(300, 1000), msgs, "tail clamps to the whole log");
        // Snapshot-at-height equals the prefix, and the in-place tail at
        // a height equals that prefix's own tail, at every tested height.
        for h in [0, 1, 7, 8, 9, 63, 64, 65, 99, 128, 300, 999] {
            let want = &msgs[..h.min(300)];
            let snap = ar.snapshot_at(h);
            assert_eq!(snap.to_vec(), want, "snapshot_at({h})");
            for k in [0, 1, 8, 64, 1000] {
                let from_snap: Vec<MpMsg> = snap
                    .iter_from(snap.len().saturating_sub(k))
                    .copied()
                    .collect();
                assert_eq!(tail_at(h, k), from_snap, "tail_at({h}, {k})");
            }
        }
    }

    #[test]
    fn rolling_digests_are_prefix_stable() {
        let msgs: Vec<MpMsg> = (0..50).map(|i| msg(0, i)).collect();
        let mut full = Archive::new();
        full.sync_from(&view(&msgs));
        // An archive built in two steps has identical digests.
        let mut split = Archive::new();
        split.sync_from(&view(&msgs[..20]));
        split.sync_from(&view(&msgs));
        for h in 0..=50 {
            assert_eq!(full.digest_at(h), split.digest_at(h), "height {h}");
        }
        assert_eq!(full.digest_at(0), Some(0));
        assert_eq!(full.digest_at(51), None, "past the tip");
        // Different prefixes digest differently.
        assert_ne!(full.digest_at(10), full.digest_at(11));
    }

    #[test]
    fn linearization_is_order_independent() {
        let mut a: Vec<MpMsg> = (0..40).map(|i| msg(i % 3, i as u64 / 3)).collect();
        let mut b = a.clone();
        b.reverse();
        b.swap(0, 20);
        let mut ar_a = Archive::new();
        ar_a.sync_from(&view(&a));
        let mut ar_b = Archive::new();
        ar_b.sync_from(&view(&b[..10]));
        ar_b.sync_from(&view(&b)); // incremental growth, same set
                                   // Append-order digests differ, canonical digests agree.
        assert_ne!(ar_a.digest_at(40), ar_b.digest_at(40));
        assert_eq!(ar_a.linearization_digest(), ar_b.linearization_digest());
        assert_eq!(ar_a.linearization(), ar_b.linearization());
        a.sort_unstable_by_key(|m| (m.author, m.seq, m.content));
        assert_eq!(ar_a.linearization(), a);
        // Cache stays correct across growth.
        let extra = msg(9, 0);
        let mut grown: Vec<MpMsg> = ar_b.snapshot().to_vec();
        grown.push(extra);
        ar_b.sync_from(&view(&grown));
        assert_ne!(
            ar_a.linearization_digest(),
            ar_b.linearization_digest(),
            "digest must move when the set grows"
        );
    }

    #[test]
    fn empty_archive_queries() {
        let ar = Archive::new();
        assert!(ar.is_empty());
        assert_eq!(ar.tip(), None);
        assert_eq!(ar.tail_at(0, 3).count(), 0);
        assert_eq!(ar.tail_at(5, 3).count(), 0, "past the end clamps");
        assert_eq!(ar.digest_at(0), Some(0));
        assert_eq!(ar.linearization_digest(), 0);
        assert_eq!(ar.snapshot_at(5).len(), 0);
        assert_eq!(ar.finalized_height(), 0);
        assert_eq!(ar.finalized_digest(), 0);
    }

    #[test]
    fn final_watermark_is_monotone_and_clamped() {
        let msgs: Vec<MpMsg> = (0..30).map(|i| msg(0, i)).collect();
        let mut ar = Archive::new();
        ar.sync_from(&view(&msgs[..10]));
        // Overshooting clamps to the archived height.
        assert_eq!(ar.set_final_watermark(25), 10);
        assert_eq!(ar.finalized_height(), 10);
        // Lower calls never regress it.
        assert_eq!(ar.set_final_watermark(3), 10);
        assert_eq!(ar.finalized_digest(), ar.digest_at(10).unwrap());
        // Growth re-enables raising, and the digest follows the prefix.
        ar.sync_from(&view(&msgs));
        assert_eq!(ar.set_final_watermark(25), 25);
        assert_eq!(ar.finalized_digest(), ar.digest_at(25).unwrap());
        assert!(ar.finalized_height() <= ar.height());
    }
}
