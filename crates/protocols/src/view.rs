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
use crate::scratch::{self, FrontierBuf};
use am_core::{BlockStore, Frontier, MsgId, Time};

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
    /// Tips and deepest blocks of the visible prefix, grown as it moves.
    /// The log only grows with non-decreasing arrivals and neither policy
    /// rewinds, so the prefix never shrinks and each row enters once.
    /// Pooled per thread across trials.
    frontier: Frontier,
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
            frontier: scratch::take_frontier(FrontierBuf::View),
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

    /// Extends the frontier over the rows the visible prefix gained since
    /// the last read.
    fn refresh(&mut self, log: &BlockStore) {
        let prefix = self.prefix(log);
        self.frontier.extend_to(log, prefix);
    }
}

impl Drop for SharedLog {
    fn drop(&mut self) {
        scratch::put_frontier(FrontierBuf::View, std::mem::take(&mut self.frontier));
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
        out.extend_from_slice(self.frontier.tips());
    }

    fn deepest<'a>(&'a mut self, _node: usize, log: &BlockStore) -> &'a [MsgId] {
        self.refresh(log);
        self.frontier.deepest()
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

    /// Tips and deepest blocks of the first `prefix` blocks of `log`, by
    /// plain scans of the whole prefix.
    fn rescan(log: &BlockStore, prefix: usize) -> (Vec<MsgId>, Vec<MsgId>) {
        let mut referenced = vec![false; prefix];
        for i in 0..prefix {
            for &p in log.parents_of(i) {
                referenced[p as usize] = true;
            }
        }
        let max = (0..prefix).map(|i| log.depth_of(i)).max().unwrap();
        let ids = |keep: &dyn Fn(usize) -> bool| {
            let kept = (0..prefix).filter(|&i| keep(i));
            kept.map(|i| MsgId(i as u64)).collect()
        };
        (ids(&|i| !referenced[i]), ids(&|i| log.depth_of(i) == max))
    }

    #[test]
    fn the_grown_view_matches_a_rescan_of_its_prefix() {
        use rand::{Rng, SeedableRng};
        // Each policy twice, so every view after the first takes the
        // thread's pooled frontier back from a trial over another log.
        for policy in [ViewPolicy::IntervalSnapshot, ViewPolicy::LaggedDelta].repeat(2) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(policy as u64);
            let mut log = BlockStore::new();
            let mut view = SharedLog::new(policy, 1.0);
            let (mut now, mut seen) = (0.0, 1);
            for step in 1..400u32 {
                now += rng.gen_range(0.0..0.4);
                let mut parents: Vec<u32> = (0..rng.gen_range(1..=3))
                    .map(|_| rng.gen_range(step.saturating_sub(8)..step))
                    .collect();
                parents.sort_unstable();
                parents.dedup();
                log.push(NodeId(0), parents, Time::new(now));
                // A withheld burst fires at an earlier time now and then.
                let at = if rng.gen_bool(0.2) {
                    now - rng.gen_range(0.0..3.0)
                } else {
                    now
                };
                view.advance_to(Time::new(at.max(0.0)), &log);
                let prefix = view.prefix(&log);
                assert!(prefix >= seen, "{policy:?} step {step}: the view rewound");
                seen = prefix;
                if rng.gen_bool(0.6) {
                    let (tips, deepest) = rescan(&log, prefix);
                    let mut out = vec![GENESIS; 3];
                    view.tips_into(0, &log, &mut out);
                    assert_eq!(out, tips, "{policy:?} step {step}: tips");
                    assert_eq!(
                        view.deepest(1, &log),
                        deepest,
                        "{policy:?} step {step}: deepest"
                    );
                }
            }
            assert!(seen > 100, "{policy:?}: the view barely moved ({seen})");
        }
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
