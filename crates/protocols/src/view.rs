//! What a correct node sees of the shared log when its token arrives.
//!
//! The paper's point is that the append memory *abstracts* the network:
//! Algorithms 5 and 6 are one protocol whether a node's view is a
//! Δ-lagged prefix of the shared log or whatever gossip has delivered.
//! [`Visibility`] is that seam. The trial loops in [`crate::chain`] and
//! [`crate::dag`] are written once against it and monomorphised over its
//! two implementations:
//!
//! * [`SharedLog`] — the abstract memory: every correct node sees the
//!   same prefix of the log, chosen by the [`ViewPolicy`]; publishing is
//!   free because there is no wire.
//! * [`Propagation`](crate::propagation::Propagation) — block gossip over
//!   an `am-net` simulator: each node sees exactly what was delivered to
//!   it, closed under ancestors.
//!
//! Adversaries stay omniscient under both (they read the log itself).

use crate::params::ViewPolicy;
use crate::scratch::{self, IdBuf};
use am_core::{BlockStore, MsgId, Time};

/// The Δ-interval containing `at`.
pub(crate) fn interval_of(at: Time, delta: f64) -> u64 {
    (at.seconds() / delta) as u64
}

/// Per-node views of a growing log. `log` is always the trial's full
/// append history; nodes are indexed `0..n`.
pub(crate) trait Visibility {
    /// Brings every view up to simulated time `at`. An `at` earlier than
    /// a previous call is allowed (a withheld burst fires at the time of
    /// the last append) and must not move any view backwards.
    fn advance_to(&mut self, at: Time, log: &BlockStore);

    /// `author` appended `id` on `parents` at `at` (already in the log)
    /// and announces it.
    fn published(&mut self, author: usize, id: MsgId, parents: &[MsgId], at: Time);

    /// The tips of `node`'s view, ascending by id, into `out` (cleared
    /// first) — what an Algorithm 6 append references.
    fn tips_into(&mut self, node: usize, log: &BlockStore, out: &mut Vec<MsgId>);

    /// The deepest blocks of `node`'s view, ascending by id — the longest
    /// chains Algorithm 5 line 6 chooses among.
    fn deepest<'a>(&'a mut self, node: usize, log: &BlockStore) -> &'a [MsgId];
}

/// The abstract append memory as a visibility policy: all correct nodes
/// see one common prefix of the log.
pub(crate) struct SharedLog {
    policy: ViewPolicy,
    delta: f64,
    /// [`ViewPolicy::LaggedDelta`]: the latest instant advanced to.
    now: Time,
    /// [`ViewPolicy::IntervalSnapshot`]: the latest interval advanced to,
    /// and the log length when it began.
    interval: u64,
    boundary_len: usize,
    /// Tips and deepest blocks of the prefix of length `memo_prefix` —
    /// both are functions of the prefix length alone, and a snapshot
    /// prefix moves once per Δ, not once per grant. The two buffers are
    /// pooled per thread across trials.
    memo_prefix: usize,
    memo_tips: Vec<MsgId>,
    memo_deepest: Vec<MsgId>,
}

impl SharedLog {
    /// The view of a fresh log (genesis only) under `policy`.
    pub(crate) fn new(policy: ViewPolicy, delta: f64) -> SharedLog {
        SharedLog {
            policy,
            delta,
            now: Time::ZERO,
            interval: 0,
            boundary_len: 1,
            memo_prefix: 0,
            memo_tips: scratch::take_ids(IdBuf::MemoTips),
            memo_deepest: scratch::take_ids(IdBuf::MemoDeepest),
        }
    }

    /// Length of the log prefix every correct node currently sees.
    pub(crate) fn prefix(&self, log: &BlockStore) -> usize {
        match self.policy {
            ViewPolicy::IntervalSnapshot => self.boundary_len,
            ViewPolicy::LaggedDelta => {
                log.prefix_at_time(Time::new(self.now.seconds() - self.delta))
            }
        }
    }

    /// Recomputes the memo if the visible prefix moved since it was taken.
    fn refresh(&mut self, log: &BlockStore) {
        let prefix = self.prefix(log);
        if prefix != self.memo_prefix {
            self.memo_prefix = prefix;
            log.tips_of_prefix_into(prefix, &mut self.memo_tips);
            log.deepest_in_prefix_into(prefix, &mut self.memo_deepest);
        }
    }
}

impl Drop for SharedLog {
    fn drop(&mut self) {
        scratch::put_ids(IdBuf::MemoTips, std::mem::take(&mut self.memo_tips));
        scratch::put_ids(IdBuf::MemoDeepest, std::mem::take(&mut self.memo_deepest));
    }
}

impl Visibility for SharedLog {
    fn advance_to(&mut self, at: Time, log: &BlockStore) {
        match self.policy {
            ViewPolicy::IntervalSnapshot => {
                let interval = interval_of(at, self.delta);
                if interval > self.interval {
                    self.interval = interval;
                    self.boundary_len = log.len();
                }
            }
            ViewPolicy::LaggedDelta => {
                if at > self.now {
                    self.now = at;
                }
            }
        }
    }

    fn published(&mut self, _author: usize, _id: MsgId, _parents: &[MsgId], _at: Time) {}

    fn tips_into(&mut self, _node: usize, log: &BlockStore, out: &mut Vec<MsgId>) {
        self.refresh(log);
        out.clear();
        out.extend_from_slice(&self.memo_tips);
    }

    fn deepest<'a>(&'a mut self, _node: usize, log: &BlockStore) -> &'a [MsgId] {
        self.refresh(log);
        &self.memo_deepest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_core::{NodeId, GENESIS};

    fn log_with(times: &[f64]) -> BlockStore {
        let mut log = BlockStore::new();
        for (i, &t) in times.iter().enumerate() {
            log.push(NodeId(0), [i as u32], Time::new(t));
        }
        log
    }

    #[test]
    fn snapshot_freezes_at_the_interval_boundary_and_never_rewinds() {
        let mut view = SharedLog::new(ViewPolicy::IntervalSnapshot, 1.0);
        let log = log_with(&[0.2, 0.7]);
        view.advance_to(Time::new(0.9), &log);
        assert_eq!(view.prefix(&log), 1, "interval 0 sees genesis only");
        view.advance_to(Time::new(1.1), &log);
        assert_eq!(view.prefix(&log), 3, "interval 1 snapshots the log");
        let log = log_with(&[0.2, 0.7, 1.2, 1.3]);
        // A burst fired at an earlier append time must not reopen
        // interval 0, nor re-snapshot interval 1.
        view.advance_to(Time::new(0.7), &log);
        view.advance_to(Time::new(1.4), &log);
        assert_eq!(view.prefix(&log), 3);
        let mut tips = vec![GENESIS];
        view.tips_into(0, &log, &mut tips);
        assert_eq!(tips, vec![MsgId(2)]);
        assert_eq!(view.deepest(0, &log), &[MsgId(2)]);
        // The memoised answers hold while the log grows past the frozen
        // prefix, and are retaken when the next interval moves it.
        let log = log_with(&[0.2, 0.7, 1.2, 1.3, 1.8]);
        view.advance_to(Time::new(1.9), &log);
        view.tips_into(0, &log, &mut tips);
        assert_eq!(tips, vec![MsgId(2)]);
        view.advance_to(Time::new(2.1), &log);
        view.tips_into(0, &log, &mut tips);
        assert_eq!(tips, vec![MsgId(5)]);
        assert_eq!(view.deepest(0, &log), &[MsgId(5)]);
    }

    #[test]
    fn lagged_view_trails_the_clock_by_delta() {
        let mut view = SharedLog::new(ViewPolicy::LaggedDelta, 1.0);
        let log = log_with(&[0.2, 0.7, 1.2]);
        view.advance_to(Time::new(1.5), &log);
        assert_eq!(view.prefix(&log), 2, "only the 0.2 append is Δ old");
        view.advance_to(Time::new(0.7), &log);
        assert_eq!(view.prefix(&log), 2, "the clock does not rewind");
        view.advance_to(Time::new(2.0), &log);
        assert_eq!(view.prefix(&log), 3);
    }
}
