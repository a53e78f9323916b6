//! Incremental DAG bookkeeping for append-by-append simulations.
//!
//! [`DagIndex`](crate::DagIndex) rebuilds adjacency from a snapshot —
//! right for analysis, wasteful inside a simulation loop that appends one
//! message at a time. [`IncrementalDag`] maintains the quantities the
//! Section 5 runners actually poll — longest-path depth, the prefix-tips
//! needed for interval views, and arrival-time prefixes for lagged views —
//! in O(parents) per append; [`ConeCoverTracker`] maintains the parent
//! adjacency and the covered-value count of the decision gate. Both
//! `reset` to the genesis-only state with their capacity kept, so a
//! Monte-Carlo loop reuses one pair for every trial instead of building
//! a pair per trial.

use crate::ids::{MsgId, Time};

/// Incrementally-maintained structural facts about an append history.
///
/// Indices are message ids (dense, arrival order, genesis = 0). The owner
/// must call [`on_append`](IncrementalDag::on_append) for every append, in
/// order.
///
/// ```
/// use am_core::{IncrementalDag, MsgId, Time};
/// let mut inc = IncrementalDag::new();
/// inc.on_append(MsgId(1), &[MsgId(0)], Time::new(0.5));
/// inc.on_append(MsgId(2), &[MsgId(0)], Time::new(0.9));
/// assert_eq!(inc.max_depth(), 1);
/// assert_eq!(inc.tips_of_prefix(3).len(), 2);     // a fork
/// assert_eq!(inc.prefix_at_time(Time::new(0.7)), 2); // genesis + m1
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalDag {
    /// Longest-path depth per message (genesis 0).
    depth: Vec<u32>,
    /// Smallest child id per message (`None` = tip of the full history).
    first_child: Vec<Option<u64>>,
    /// Arrival time per message, non-decreasing.
    arrivals: Vec<Time>,
    /// Deepest message so far, ties to the smallest id (maintained on
    /// append so the per-grant decision gate never rescans the history).
    deepest: u64,
}

impl Default for IncrementalDag {
    fn default() -> Self {
        IncrementalDag::new()
    }
}

impl IncrementalDag {
    /// A fresh tracker containing only genesis (depth 0, time 0).
    pub fn new() -> IncrementalDag {
        IncrementalDag {
            depth: vec![0],
            first_child: vec![None],
            arrivals: vec![Time::ZERO],
            deepest: 0,
        }
    }

    /// Back to the genesis-only state of [`new`](IncrementalDag::new),
    /// keeping the buffers' capacity.
    pub fn reset(&mut self) {
        self.depth.clear();
        self.depth.push(0);
        self.first_child.clear();
        self.first_child.push(None);
        self.arrivals.clear();
        self.arrivals.push(Time::ZERO);
        self.deepest = 0;
    }

    /// Number of messages tracked (genesis included).
    pub fn len(&self) -> usize {
        self.depth.len()
    }

    /// Whether only genesis is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Records an append. `id` must be the next dense id; `parents` must
    /// be prior ids; `at` must be ≥ the previous arrival.
    pub fn on_append(&mut self, id: MsgId, parents: &[MsgId], at: Time) {
        assert_eq!(id.index(), self.len(), "ids must be dense and in order");
        assert!(
            at >= *self.arrivals.last().expect("genesis present"),
            "arrivals must be non-decreasing"
        );
        let d = parents
            .iter()
            .map(|p| self.depth[p.index()] + 1)
            .max()
            .unwrap_or(0);
        if d > self.depth[self.deepest as usize] {
            self.deepest = id.0;
        }
        self.depth.push(d);
        self.first_child.push(None);
        self.arrivals.push(at);
        for p in parents {
            let slot = &mut self.first_child[p.index()];
            if slot.is_none() {
                *slot = Some(id.0);
            }
        }
    }

    /// Longest-path depth of a message.
    pub fn depth_of(&self, id: MsgId) -> u32 {
        self.depth[id.index()]
    }

    /// Maximum depth over the whole history — the depth of
    /// [`deepest`](IncrementalDag::deepest), so O(1).
    pub fn max_depth(&self) -> u32 {
        self.depth[self.deepest as usize]
    }

    /// The deepest message (ties to the smallest id), maintained on append.
    pub fn deepest(&self) -> MsgId {
        MsgId(self.deepest)
    }

    /// Deepest message ids *within the first `prefix` messages* — the
    /// longest-chain tip candidates of a prefix view.
    pub fn deepest_in_prefix(&self, prefix: usize) -> Vec<MsgId> {
        let mut out = Vec::new();
        self.deepest_in_prefix_into(prefix, &mut out);
        out
    }

    /// [`deepest_in_prefix`](IncrementalDag::deepest_in_prefix) into a
    /// caller buffer (cleared first).
    pub fn deepest_in_prefix_into(&self, prefix: usize, out: &mut Vec<MsgId>) {
        out.clear();
        let prefix = prefix.clamp(1, self.len());
        let max = self.depth[..prefix].iter().copied().max().unwrap_or(0);
        out.extend(
            (0..prefix)
                .filter(|&i| self.depth[i] == max)
                .map(|i| MsgId(i as u64)),
        );
    }

    /// Tips of the prefix view of length `prefix`: messages whose first
    /// child (if any) lies beyond the prefix.
    pub fn tips_of_prefix(&self, prefix: usize) -> Vec<MsgId> {
        let mut out = Vec::new();
        self.tips_of_prefix_into(prefix, &mut out);
        out
    }

    /// [`tips_of_prefix`](IncrementalDag::tips_of_prefix) into a caller
    /// buffer (cleared first) — the per-grant hot loops reuse one buffer
    /// instead of allocating a tip list per token.
    pub fn tips_of_prefix_into(&self, prefix: usize, out: &mut Vec<MsgId>) {
        out.clear();
        let prefix = prefix.clamp(1, self.len());
        out.extend(
            (0..prefix)
                .filter(|&i| match self.first_child[i] {
                    None => true,
                    Some(c) => c >= prefix as u64,
                })
                .map(|i| MsgId(i as u64)),
        );
    }

    /// Number of messages that had arrived strictly before `t` — the
    /// prefix a node whose view lags to time `t` can see. At least 1
    /// (genesis is always visible).
    pub fn prefix_at_time(&self, t: Time) -> usize {
        self.arrivals.partition_point(|&a| a < t).max(1)
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
/// Ids are dense arrival-order ids (genesis = 0), as everywhere in the
/// incremental layer; the owner must call
/// [`on_append`](ConeCoverTracker::on_append) for every append, in order.
///
/// ```
/// use am_core::{ConeCoverTracker, MsgId};
/// let mut t = ConeCoverTracker::new();
/// t.on_append(MsgId(1), &[MsgId(0)], true);
/// t.on_append(MsgId(2), &[MsgId(1)], true);
/// t.on_append(MsgId(3), &[MsgId(0)], true); // fork off genesis
/// assert_eq!(t.cover_of(MsgId(2)), 2); // {m1, m2}; genesis carries none
/// assert_eq!(t.cover_of(MsgId(3)), 1); // branch switch → fallback
/// ```
#[derive(Clone, Debug)]
pub struct ConeCoverTracker {
    /// CSR parent adjacency: parents of `i` are
    /// `par[par_off[i]..par_off[i+1]]`.
    par_off: Vec<u32>,
    par: Vec<u32>,
    /// Whether message `i` carries a decision value.
    carries_value: Vec<bool>,
    /// Persistent cone marks: `mark[i] == epoch` ⇔ `i` is in the closed
    /// past cone of `tracked`.
    mark: Vec<u32>,
    epoch: u32,
    /// Probe stamps for the containment test (separate from `mark` so a
    /// failed probe leaves the cone intact).
    probe: Vec<u32>,
    probe_epoch: u32,
    /// The tip whose closed cone the marks currently describe.
    tracked: u64,
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
    /// A fresh tracker containing only genesis; the tracked cone is
    /// genesis's own (empty of values — genesis carries none).
    pub fn new() -> ConeCoverTracker {
        ConeCoverTracker {
            par_off: vec![0, 0],
            par: Vec::new(),
            carries_value: vec![false],
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

    /// Back to the genesis-only state of [`new`](ConeCoverTracker::new)
    /// — marks, epochs and the tracked cone included — keeping the
    /// buffers' capacity.
    pub fn reset(&mut self) {
        self.par_off.clear();
        self.par_off.extend([0, 0]);
        self.par.clear();
        self.carries_value.clear();
        self.carries_value.push(false);
        self.mark.clear();
        self.mark.push(1);
        self.epoch = 1;
        self.probe.clear();
        self.probe.push(0);
        self.probe_epoch = 0;
        self.tracked = 0;
        self.covered = 0;
    }

    /// Number of messages tracked (genesis included).
    pub fn len(&self) -> usize {
        self.carries_value.len()
    }

    /// Parents of message `i` in the order they were listed — the CSR row
    /// the tracker already keeps, for owners that index the same history.
    pub fn parents_of(&self, i: usize) -> &[u32] {
        &self.par[self.par_off[i] as usize..self.par_off[i + 1] as usize]
    }

    /// Total parent references recorded (the edge count).
    pub fn edge_count(&self) -> usize {
        self.par.len()
    }

    /// Whether only genesis is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Records an append. `id` must be the next dense id; `parents` must
    /// be prior ids; `counts_value` says whether the message carries a
    /// decision value (`Value::as_sign().is_some()` in the protocols).
    pub fn on_append(&mut self, id: MsgId, parents: &[MsgId], counts_value: bool) {
        assert_eq!(id.index(), self.len(), "ids must be dense and in order");
        for p in parents {
            self.par.push(p.0 as u32);
        }
        self.par_off.push(self.par.len() as u32);
        self.carries_value.push(counts_value);
        self.mark.push(0);
        self.probe.push(0);
    }

    /// The covered-value count of the tracked tip, without re-querying.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// The tip whose cone the tracker currently holds.
    pub fn tracked_tip(&self) -> MsgId {
        MsgId(self.tracked)
    }

    /// Whether `id` lies in the closed past cone of the tracked tip — an
    /// O(1) membership probe against the maintained marks.
    pub fn in_cone(&self, id: MsgId) -> bool {
        let i = id.index();
        i < self.len() && self.mark[i] == self.epoch
    }

    /// Number of value-carrying messages in the closed past cone of
    /// `tip`, maintained incrementally. Amortized O(parents) per append
    /// when queried tips descend from one another (the growing-deepest
    /// pattern of the simulation loops); O(cone) on branch switches.
    pub fn cover_of(&mut self, tip: MsgId) -> usize {
        let t = tip.index();
        assert!(t < self.len(), "queried tip must have been appended");
        if t as u64 == self.tracked {
            return self.covered;
        }
        if self.mark[t] == self.epoch {
            // The queried tip lies inside the tracked cone: the cone
            // shrinks, which in-place marks cannot express. Recount.
            return self.recount(t);
        }
        // Fast path for the growing-chain query: every parent already in
        // the tracked cone and the tracked tip among them means the new
        // cone is exactly the old one plus `t` — extend without probing.
        let (ps, pe) = (self.par_off[t] as usize, self.par_off[t + 1] as usize);
        let parents = &self.par[ps..pe];
        if parents.iter().any(|&p| p as u64 == self.tracked)
            && parents.iter().all(|&p| self.mark[p as usize] == self.epoch)
        {
            self.mark[t] = self.epoch;
            if self.carries_value[t] {
                self.covered += 1;
            }
            self.tracked = t as u64;
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
            let i = i as usize;
            self.fresh.push(i as u32);
            let (s, e) = (self.par_off[i] as usize, self.par_off[i + 1] as usize);
            for k in s..e {
                let p = self.par[k] as usize;
                if self.mark[p] == self.epoch {
                    // Boundary: already inside the tracked cone.
                    if p as u64 == self.tracked {
                        saw_tracked = true;
                    }
                } else if self.probe[p] != pe {
                    self.probe[p] = pe;
                    self.stack.push(p as u32);
                }
            }
        }
        if saw_tracked {
            // Old cone ⊆ new cone: extend the marks in place.
            for idx in 0..self.fresh.len() {
                let f = self.fresh[idx] as usize;
                self.mark[f] = self.epoch;
                if self.carries_value[f] {
                    self.covered += 1;
                }
            }
            self.tracked = t as u64;
            self.covered
        } else {
            self.recount(t)
        }
    }

    /// Full DFS fallback: invalidate every mark (one epoch bump) and
    /// rebuild the cone of `tip` from scratch.
    fn recount(&mut self, tip: usize) -> usize {
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
            let i = i as usize;
            if self.carries_value[i] {
                self.covered += 1;
            }
            let (s, en) = (self.par_off[i] as usize, self.par_off[i + 1] as usize);
            for k in s..en {
                let p = self.par[k] as usize;
                if self.mark[p] != e {
                    self.mark[p] = e;
                    self.stack.push(p as u32);
                }
            }
        }
        self.tracked = tip as u64;
        self.covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> Time {
        Time::new(x)
    }

    fn tracker_chain(len: usize) -> IncrementalDag {
        let mut d = IncrementalDag::new();
        for i in 1..=len {
            d.on_append(MsgId(i as u64), &[MsgId(i as u64 - 1)], t(i as f64));
        }
        d
    }

    #[test]
    fn chain_depths_and_tips() {
        let d = tracker_chain(5);
        assert_eq!(d.len(), 6);
        assert!(!d.is_empty());
        assert_eq!(d.max_depth(), 5);
        assert_eq!(d.deepest(), MsgId(5));
        assert_eq!(d.tips_of_prefix(6), vec![MsgId(5)]);
        assert_eq!(d.tips_of_prefix(3), vec![MsgId(2)]);
        assert_eq!(d.deepest_in_prefix(3), vec![MsgId(2)]);
    }

    #[test]
    fn fork_gives_multiple_prefix_tips() {
        let mut d = IncrementalDag::new();
        d.on_append(MsgId(1), &[MsgId(0)], t(1.0));
        d.on_append(MsgId(2), &[MsgId(0)], t(2.0));
        assert_eq!(d.tips_of_prefix(3), vec![MsgId(1), MsgId(2)]);
        assert_eq!(d.deepest_in_prefix(3), vec![MsgId(1), MsgId(2)]);
        // Merge closes both.
        d.on_append(MsgId(3), &[MsgId(1), MsgId(2)], t(3.0));
        assert_eq!(d.tips_of_prefix(4), vec![MsgId(3)]);
        assert_eq!(d.depth_of(MsgId(3)), 2);
    }

    #[test]
    fn prefix_at_time_is_strict_and_clamped() {
        let d = tracker_chain(4); // arrivals 0,1,2,3,4
        assert_eq!(d.prefix_at_time(t(0.0)), 1, "genesis always visible");
        assert_eq!(d.prefix_at_time(t(1.0)), 1, "strictly-before semantics");
        assert_eq!(d.prefix_at_time(t(1.5)), 2);
        assert_eq!(d.prefix_at_time(t(100.0)), 5);
    }

    #[test]
    fn matches_dag_index_on_random_history() {
        use crate::ids::{NodeId, GENESIS};
        use crate::memory::AppendMemory;
        use crate::message::MessageBuilder;
        use crate::value::Value;
        let mem = AppendMemory::new(3);
        let mut inc = IncrementalDag::new();
        let picks: [u64; 10] = [0, 0, 1, 2, 0, 4, 3, 6, 2, 8];
        for (i, &p) in picks.iter().enumerate() {
            let parents = [MsgId(p), GENESIS];
            let id = mem
                .append_at(
                    MessageBuilder::new(NodeId((i % 3) as u32), Value::plus())
                        .parents(parents.iter().copied()),
                    t(i as f64 + 1.0),
                )
                .unwrap();
            inc.on_append(id, &[MsgId(p), GENESIS], t(i as f64 + 1.0));
        }
        let dag = crate::dag::DagIndex::new(&mem.read());
        assert_eq!(inc.max_depth(), dag.max_depth());
        let full_tips: Vec<MsgId> = inc.tips_of_prefix(inc.len());
        assert_eq!(full_tips, dag.tip_ids());
        for pos in 0..dag.len() {
            assert_eq!(inc.depth_of(dag.id_at(pos)), dag.depth_of(pos));
        }
    }

    /// Naive reference: value count of the closed past cone by plain DFS.
    fn naive_cover(parents: &[Vec<u64>], values: &[bool], tip: u64) -> usize {
        let mut seen = vec![false; parents.len()];
        let mut stack = vec![tip as usize];
        let mut count = 0;
        while let Some(i) = stack.pop() {
            if seen[i] {
                continue;
            }
            seen[i] = true;
            if values[i] {
                count += 1;
            }
            stack.extend(parents[i].iter().map(|&p| p as usize));
        }
        count
    }

    #[test]
    fn cover_tracker_chain_growth_is_incremental_and_exact() {
        let mut t = ConeCoverTracker::new();
        assert_eq!(t.cover_of(MsgId(0)), 0);
        for i in 1..=50u64 {
            t.on_append(MsgId(i), &[MsgId(i - 1)], i % 3 != 0);
            let expect = (1..=i).filter(|x| x % 3 != 0).count();
            assert_eq!(t.cover_of(MsgId(i)), expect, "at append {i}");
            assert_eq!(t.covered(), expect);
            assert_eq!(t.tracked_tip(), MsgId(i));
        }
    }

    #[test]
    fn cover_tracker_handles_branch_switches() {
        // Two competing branches off genesis; the deepest tip alternates.
        let mut t = ConeCoverTracker::new();
        t.on_append(MsgId(1), &[MsgId(0)], true); // branch A
        t.on_append(MsgId(2), &[MsgId(1)], true);
        t.on_append(MsgId(3), &[MsgId(0)], true); // branch B
        t.on_append(MsgId(4), &[MsgId(3)], true);
        t.on_append(MsgId(5), &[MsgId(4)], true);
        assert_eq!(t.cover_of(MsgId(2)), 2); // A: {1,2}
        assert_eq!(t.cover_of(MsgId(5)), 3); // fallback to B: {3,4,5}
        assert_eq!(t.cover_of(MsgId(2)), 2); // and back again
                                             // A merge referencing both tips extends whichever cone is held.
        t.on_append(MsgId(6), &[MsgId(2), MsgId(5)], true);
        assert_eq!(t.cover_of(MsgId(6)), 6);
    }

    #[test]
    fn in_cone_tracks_the_held_cone() {
        let mut t = ConeCoverTracker::new();
        t.on_append(MsgId(1), &[MsgId(0)], true); // branch A
        t.on_append(MsgId(2), &[MsgId(1)], true);
        t.on_append(MsgId(3), &[MsgId(0)], true); // branch B
        t.cover_of(MsgId(2));
        assert!(t.in_cone(MsgId(0)) && t.in_cone(MsgId(1)) && t.in_cone(MsgId(2)));
        assert!(!t.in_cone(MsgId(3)));
        assert!(!t.in_cone(MsgId(99)), "unknown ids are outside");
        t.cover_of(MsgId(3)); // branch switch: cone is now {0, 3}
        assert!(t.in_cone(MsgId(3)) && !t.in_cone(MsgId(2)));
    }

    #[test]
    fn cover_tracker_query_inside_cone_falls_back() {
        let mut t = ConeCoverTracker::new();
        for i in 1..=10u64 {
            t.on_append(MsgId(i), &[MsgId(i - 1)], true);
        }
        assert_eq!(t.cover_of(MsgId(10)), 10);
        // Query an ancestor of the tracked tip: cone shrinks.
        assert_eq!(t.cover_of(MsgId(4)), 4);
        assert_eq!(t.cover_of(MsgId(10)), 10);
    }

    #[test]
    fn cover_tracker_matches_naive_on_random_history() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let mut t = ConeCoverTracker::new();
        let mut parents: Vec<Vec<u64>> = vec![Vec::new()];
        let mut values: Vec<bool> = vec![false];
        for i in 1..300u64 {
            let np = rng.gen_range(1..=3.min(i as usize));
            let ps: Vec<MsgId> = (0..np).map(|_| MsgId(rng.gen_range(0..i))).collect();
            let v = rng.gen_bool(0.8);
            t.on_append(MsgId(i), &ps, v);
            parents.push(ps.iter().map(|p| p.0).collect());
            values.push(v);
            // Query a random prior tip every few appends plus the newest.
            let q = rng.gen_range(0..=i);
            assert_eq!(t.cover_of(MsgId(q)), naive_cover(&parents, &values, q));
            assert_eq!(t.cover_of(MsgId(i)), naive_cover(&parents, &values, i));
        }
    }

    /// A random forked history: every append references one to three
    /// earlier messages.
    fn random_forked(len: u64, seed: u64) -> (IncrementalDag, Vec<Vec<MsgId>>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut d = IncrementalDag::new();
        let mut parents = vec![Vec::new()];
        for i in 1..len {
            let ps: Vec<MsgId> = (0..rng.gen_range(1..=3))
                .map(|_| MsgId(rng.gen_range(i.saturating_sub(6)..i)))
                .collect();
            d.on_append(MsgId(i), &ps, t(i as f64));
            parents.push(ps);
        }
        (d, parents)
    }

    #[test]
    fn max_depth_and_deepest_match_the_scanning_definition() {
        let mut d = IncrementalDag::new();
        let (full, parents) = random_forked(400, 5);
        for (i, ps) in parents.iter().enumerate().skip(1) {
            d.on_append(MsgId(i as u64), ps, t(i as f64));
            let scan = (0..d.len()).map(|j| d.depth_of(MsgId(j as u64))).max();
            assert_eq!(Some(d.max_depth()), scan, "after append {i}");
            let first = (0..d.len()).find(|&j| Some(d.depth_of(MsgId(j as u64))) == scan);
            assert_eq!(
                Some(d.deepest().index()),
                first,
                "ties go to the smallest id"
            );
        }
        assert_eq!(d.max_depth(), full.max_depth());
    }

    #[test]
    fn deepest_in_prefix_into_matches_the_scanning_definition() {
        let (d, _) = random_forked(300, 9);
        let mut buf = vec![MsgId(77); 5]; // dirty on purpose
        for prefix in [0, 1, 2, 17, 150, 300, 999] {
            d.deepest_in_prefix_into(prefix, &mut buf);
            let p = prefix.clamp(1, d.len());
            let max = (0..p).map(|j| d.depth_of(MsgId(j as u64))).max().unwrap();
            let scan: Vec<MsgId> = (0..p as u64)
                .map(MsgId)
                .filter(|&m| d.depth_of(m) == max)
                .collect();
            assert_eq!(buf, scan, "prefix {prefix}");
            assert_eq!(d.deepest_in_prefix(prefix), scan);
        }
    }

    #[test]
    fn reset_trackers_behave_like_fresh_ones() {
        let (mut d, parents) = random_forked(200, 3);
        let mut c = ConeCoverTracker::new();
        for (i, ps) in parents.iter().enumerate().skip(1) {
            c.on_append(MsgId(i as u64), ps, i % 4 != 0);
        }
        c.cover_of(MsgId(150));
        c.cover_of(MsgId(40)); // bumps the epoch
        d.reset();
        c.reset();
        assert!(d.is_empty() && c.is_empty());
        assert_eq!((d.max_depth(), d.deepest()), (0, MsgId(0)));
        assert_eq!(
            (c.tracked_tip(), c.covered(), c.edge_count()),
            (MsgId(0), 0, 0)
        );
        let (mut fresh_d, mut fresh_c) = (IncrementalDag::new(), ConeCoverTracker::new());
        for (i, ps) in parents.iter().enumerate().skip(1).take(60) {
            let id = MsgId(i as u64);
            for (d, c) in [(&mut d, &mut c), (&mut fresh_d, &mut fresh_c)] {
                d.on_append(id, ps, t(i as f64));
                c.on_append(id, ps, true);
            }
            assert_eq!(c.cover_of(d.deepest()), fresh_c.cover_of(fresh_d.deepest()));
            assert_eq!(c.parents_of(i), fresh_c.parents_of(i));
            assert_eq!(d.tips_of_prefix(i), fresh_d.tips_of_prefix(i));
            assert_eq!(d.prefix_at_time(t(i as f64 - 0.5)), i);
        }
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn rejects_gapped_ids() {
        let mut d = IncrementalDag::new();
        d.on_append(MsgId(5), &[MsgId(0)], t(1.0));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut d = IncrementalDag::new();
        d.on_append(MsgId(1), &[MsgId(0)], t(2.0));
        d.on_append(MsgId(2), &[MsgId(1)], t(1.0));
    }
}
