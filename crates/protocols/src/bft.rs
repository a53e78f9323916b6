//! Byzantine drivers for the embedded BFT finality layer (`am-bft`).
//!
//! The Section 5 runners decide a one-shot agreement; these runners keep
//! the same substrate — Poisson token grants, interval-snapshot views,
//! optional block gossip over `am-net` — but run it as a *finality*
//! protocol: every appended block doubles as a protocol message
//! (`parents[0]` is the author's vote), per-node
//! [`FinalityOracle`]s interpret their own
//! admitted sub-DAG, and the trial succeeds once the finalized chain
//! reaches `k` blocks.
//!
//! Because the token schedule depends only on `(n, λ, Δ, byz, seed)`,
//! a BFT trial and an Algorithm 4/5/6 trial at the same [`Params`] run
//! under **byte-identical grant schedules** — E15's head-to-head
//! comparison is apples to apples.
//!
//! The Byzantine strategies target the finality layer specifically:
//!
//! * [`BftAdversary::Equivocator`] — alternates honest-looking votes
//!   with forks of its own history (two blocks sharing an
//!   (author, round) slot). Detection is sticky: once both blocks are
//!   visible the author is excluded from every later quorum, so beyond
//!   `n − quorum` equivocators the watermark stalls permanently.
//! * [`BftAdversary::Withholder`] — banks token grants (silence = no
//!   votes) and releases them in bursts, so finality advances in
//!   stutters; beyond `n − quorum` withholding authors it stalls.
//! * [`BftAdversary::StaleMiner`] — spends every grant immediately but
//!   votes from a 2Δ-stale view, diluting the freshness of quorums and
//!   stretching finality latency.

use crate::params::{Params, ViewPolicy};
use crate::propagation::{over_wire, Propagation};
use crate::schedule::GrantSchedule;
use crate::view::{SharedLog, Visibility};
use am_bft::FinalityOracle;
use am_core::{IncrementalDag, MsgId, Time, GENESIS};
use am_net::{NetConfig, NetStats};

/// The Byzantine strategy of a BFT finality trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BftAdversary {
    /// Tokens wasted (the fault-free baseline at `t > 0`).
    Absent,
    /// Alternate honest votes with same-round forks of own history.
    Equivocator,
    /// Bank grants and release vote bursts (temporary vote withholding).
    Withholder,
    /// Vote from a 2Δ-stale prefix (stale-parent mining).
    StaleMiner,
}

impl BftAdversary {
    /// Stable lowercase label for sweep keys and reports.
    pub fn label(&self) -> &'static str {
        match self {
            BftAdversary::Absent => "absent",
            BftAdversary::Equivocator => "equivocator",
            BftAdversary::Withholder => "withholder",
            BftAdversary::StaleMiner => "staleminer",
        }
    }
}

/// Outcome of one BFT finality trial (observer: node 0, always correct).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BftTrial {
    /// Whether the finalized chain reached `k` within the grant budget
    /// without a detected safety conflict.
    pub finality: bool,
    /// Finalized chain height at the gate.
    pub finalized_height: usize,
    /// Blocks in the finalized past cone (the finalized DAG *prefix*).
    pub finalized_cone: usize,
    /// Total blocks appended (genesis excluded).
    pub total_appends: usize,
    /// Mean finality lag over finalized chain blocks, seconds (append →
    /// observer finalization).
    pub lag_mean: f64,
    /// Max finality lag, seconds.
    pub lag_max: f64,
    /// Finalized chain blocks per simulated second.
    pub throughput: f64,
    /// Authors the observer caught equivocating.
    pub equivocators: usize,
    /// Whether the observer detected a quorum behind a conflicting
    /// candidate (safety breach; only reachable past the tolerance).
    pub conflict: bool,
    /// Simulated time at the gate.
    pub finish_time: f64,
    /// The observer's finalized-prefix digest at the gate.
    pub finalized_digest: u64,
    /// Role mix over the observer's view: (proposals, votes, echoes) —
    /// the DAG interpreter's reading of the same blocks.
    pub roles: (usize, usize, usize),
}

/// Full outcome of a networked BFT trial, with per-node finality state
/// for the cross-node agreement suites.
#[derive(Clone, Debug)]
pub struct BftNetRun {
    /// Node 0's view of the trial (the [`BftTrial`] scalar summary).
    pub trial: BftTrial,
    /// Network statistics.
    pub stats: NetStats,
    /// Per-node finalized chains at the decision gate — nodes lag each
    /// other here, but the chains must be pairwise extension-ordered.
    pub chains_at_gate: Vec<Vec<MsgId>>,
    /// Per-node finalized chains after every surviving in-flight block
    /// was delivered (dropped blocks stay lost).
    pub chains_settled: Vec<Vec<MsgId>>,
    /// Per-node finalized chains after an omniscient heal: every node
    /// fed every block it never received. Correct nodes must agree
    /// exactly here (same block set → same verdicts).
    pub chains_healed: Vec<Vec<MsgId>>,
    /// Per-node finalized-prefix digests after the heal.
    pub digests_healed: Vec<u64>,
    /// Whether any correct node's oracle flagged a conflict.
    pub conflict_any: bool,
}

/// Running lag aggregate for newly finalized chain blocks.
#[derive(Default)]
struct LagTally {
    sum: f64,
    max: f64,
    count: usize,
    drain: Vec<MsgId>,
}

impl LagTally {
    fn absorb(&mut self, oracle: &mut FinalityOracle, append_time: &[f64], now: f64) {
        self.drain.clear();
        oracle.drain_newly_final(&mut self.drain);
        for id in &self.drain {
            let lag = now - append_time[id.index()];
            self.sum += lag;
            self.max = self.max.max(lag);
            self.count += 1;
        }
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The honest vote: the deepest candidate whose chain extends the
/// voter's own finalized prefix (never abandon finality), falling back
/// to the finalized head itself. `deepest` is sorted ascending, so ties
/// break to the smallest id.
fn pick_vote(oracle: &FinalityOracle, deepest: &[MsgId]) -> MsgId {
    deepest
        .iter()
        .copied()
        .find(|&d| oracle.extends_finalized(d))
        .unwrap_or_else(|| oracle.finalized_head())
}

/// Grant budget: finality stalls are an expected outcome past the
/// tolerance, so the cap is tighter than the one-shot runners'.
fn grant_budget(p: &Params) -> usize {
    2_000 + 200 * p.k * (p.n + 1)
}

/// Withholder burst threshold: release once the bank can visibly move a
/// quorum (at least the Byzantine cohort size, floor 2).
fn burst_threshold(p: &Params) -> usize {
    p.t.max(2)
}

/// Assembles a vote's parent list into `buf`: the selected candidate
/// first (`parents[0]` *is* the vote), then the author's own last block
/// unless the candidate or genesis already stands for it (a view that
/// lags the author's own history must not force a round collision), then
/// every other tip of the view the vote is cast from.
fn vote_parents(
    buf: &mut Vec<MsgId>,
    sel: MsgId,
    own: MsgId,
    view_tips: impl IntoIterator<Item = MsgId>,
) {
    buf.clear();
    buf.push(sel);
    if own != sel && own != GENESIS {
        buf.push(own);
    }
    buf.extend(view_tips.into_iter().filter(|&t| t != sel && t != own));
}

/// The StaleMiner vote: the first deepest block of the log as it stood
/// 2Δ before `now`, referencing that stale view's tips.
fn stale_vote(buf: &mut Vec<MsgId>, inc: &IncrementalDag, now: Time, delta: f64, own: MsgId) {
    let stale = inc.prefix_at_time(Time::new(now.seconds() - 2.0 * delta));
    let sel = inc.deepest_in_prefix(stale)[0];
    vote_parents(buf, sel, own, inc.tips_of_prefix(stale));
}

/// Feeds one node's oracle the blocks it just admitted. Correct nodes'
/// admission logs are ancestor-closed, but an omniscient Byzantine
/// author sees its own block instantly even when it hasn't received the
/// block's parents yet — those go to `deferred` and are observed once
/// the missing parents arrive (or never, if the parents were dropped;
/// the heal phase covers them).
fn feed_node(
    oracle: &mut FinalityOracle,
    deferred: &mut Vec<MsgId>,
    prop: &Propagation,
    authors: &[u32],
    admitted: &[MsgId],
) {
    for &id in admitted {
        if !prop.parents_of(id).iter().all(|p| oracle.is_observed(*p)) {
            deferred.push(id);
            continue;
        }
        oracle.observe(id, authors[id.index()] as usize, prop.parents_of(id));
        // Each pass observes, in deferral order, whatever the passes
        // before it unblocked.
        loop {
            let waiting = deferred.len();
            deferred.retain(|&d| {
                let ready = prop.parents_of(d).iter().all(|p| oracle.is_observed(*p));
                if ready {
                    oracle.observe(d, authors[d.index()] as usize, prop.parents_of(d));
                }
                !ready
            });
            if deferred.len() == waiting {
                break;
            }
        }
    }
}

/// Runs one abstract-view BFT finality trial: a single shared DAG, a
/// global observer oracle, interval-snapshot views (the same view model
/// as [`run_dag`](crate::run_dag), and the same token schedule at equal
/// [`Params`]).
///
/// ```
/// use am_protocols::{run_bft, BftAdversary, Params};
/// let p = Params::new(8, 0, 0.5, 9, 7);
/// let out = run_bft(&p, BftAdversary::Absent);
/// assert!(out.finality && out.finalized_height >= p.k);
/// ```
pub fn run_bft(p: &Params, adv: BftAdversary) -> BftTrial {
    let _span = am_obs::span("protocols/bft");
    let mut sched = GrantSchedule::new(p, 1.0, grant_budget(p), "protocols/bft_stalled");
    // The finality layer always reads interval snapshots, whatever
    // `p.view_policy` says.
    let mut view = SharedLog::new(ViewPolicy::IntervalSnapshot, p.delta);
    let mut inc = IncrementalDag::new();
    let mut oracle = FinalityOracle::new(p.n);
    let mut append_time: Vec<f64> = vec![0.0];
    let mut lag = LagTally::default();

    let mut eq_cnt = vec![0u64; p.n];
    // A node always knows its own history: every non-equivocating append
    // carries the author's previous block as a parent, so a snapshot view
    // that lags the author's own last block cannot force a round
    // collision (self-equivocation).
    let mut last_own: Vec<MsgId> = vec![GENESIS; p.n];
    let mut parents_buf: Vec<MsgId> = Vec::new();
    let mut tips_buf: Vec<MsgId> = Vec::new();
    let mut now = Time::ZERO;

    macro_rules! append {
        ($node:expr, $parents:expr, $at:expr) => {{
            let id = MsgId(inc.len() as u64);
            inc.on_append(id, $parents, $at);
            append_time.push($at.seconds());
            oracle.observe(id, $node, $parents);
            lag.absorb(&mut oracle, &append_time, $at.seconds());
            last_own[$node] = id;
            id
        }};
    }

    while oracle.finalized_height() < p.k && !oracle.conflict_detected() {
        let Some(g) = sched.next() else { break };
        now = g.time;
        view.advance_to(g.time, &inc);
        let node = g.node.index();

        if sched.is_byz(g.node) {
            match adv {
                BftAdversary::Absent => {}
                BftAdversary::Equivocator => {
                    eq_cnt[node] += 1;
                    parents_buf.clear();
                    if eq_cnt[node] % 2 == 1 {
                        // Honest-looking vote on the current view.
                        let deepest = inc.deepest_in_prefix(inc.len());
                        parents_buf.push(pick_vote(&oracle, &deepest));
                    } else {
                        // Fork own history from genesis: the round-1
                        // collision brands the author an equivocator.
                        parents_buf.push(GENESIS);
                    }
                    append!(node, &parents_buf, g.time);
                }
                BftAdversary::Withholder => {
                    sched.bank.push(g);
                    if sched.bank.len() >= burst_threshold(p) {
                        let mut tip = inc.deepest();
                        for tok in sched.bank.drain(..) {
                            let node = tok.node.index();
                            vote_parents(&mut parents_buf, tip, last_own[node], []);
                            tip = append!(node, &parents_buf, g.time);
                        }
                    }
                }
                BftAdversary::StaleMiner => {
                    stale_vote(&mut parents_buf, &inc, g.time, p.delta, last_own[node]);
                    append!(node, &parents_buf, g.time);
                }
            }
            continue;
        }

        // Correct append: vote for the deepest block of the view that
        // extends the finalized prefix, referencing every view tip plus
        // the author's own last block (self-parent).
        let sel = pick_vote(&oracle, view.deepest(node, &inc));
        view.tips_into(node, &inc, &mut tips_buf);
        vote_parents(
            &mut parents_buf,
            sel,
            last_own[node],
            tips_buf.iter().copied(),
        );
        append!(node, &parents_buf, g.time);
    }

    finish(p, &oracle, inc.len() - 1, &lag, now.seconds())
}

fn finish(
    p: &Params,
    oracle: &FinalityOracle,
    total_appends: usize,
    lag: &LagTally,
    finish_time: f64,
) -> BftTrial {
    let finalized_height = oracle.finalized_height();
    if am_obs::enabled() {
        let s = oracle.stats();
        am_obs::counter("bft/observes").add(s.observes);
        am_obs::counter("bft/early_outs").add(s.early_outs);
        am_obs::counter("bft/scans").add(s.scans);
        am_obs::counter("bft/witness_lookups").add(s.witness_lookups);
        am_obs::counter("bft/heights_advanced").add(s.heights_advanced);
        am_obs::counter("bft/memo_edges").add(s.memo_edges);
    }
    BftTrial {
        finality: finalized_height >= p.k && !oracle.conflict_detected(),
        finalized_height,
        finalized_cone: oracle.finalized_cone_blocks(),
        total_appends,
        lag_mean: lag.mean(),
        lag_max: lag.max,
        throughput: if finish_time > 0.0 {
            finalized_height as f64 / finish_time
        } else {
            0.0
        },
        equivocators: oracle.equivocator_count(),
        conflict: oracle.conflict_detected(),
        finish_time,
        finalized_digest: oracle.finalized_digest(),
        roles: oracle.role_counts(),
    }
}

/// Runs one networked BFT finality trial: blocks gossip over `cfg`,
/// each node runs its *own* oracle over exactly the sub-DAG it admitted
/// (in admission order), and the gate requires every correct node's
/// finalized chain to reach `k`. Correct nodes pull-repair dangling
/// references ([`Propagation::pull_missing_parents`]) at each grant, so
/// dropped announcements delay finality instead of starving it forever.
/// Returns the scalar summary and the network stats; see
/// [`run_bft_net_full`] for per-node chains.
pub fn run_bft_net(p: &Params, adv: BftAdversary, cfg: &NetConfig) -> (BftTrial, NetStats) {
    let run = run_bft_net_full(p, adv, cfg);
    (run.trial, run.stats)
}

/// [`run_bft_net`] with the per-node finality state exposed (gate /
/// settled / healed chains) for the agreement property suites.
pub fn run_bft_net_full(p: &Params, adv: BftAdversary, cfg: &NetConfig) -> BftNetRun {
    over_wire(BFT_NET_SPAN, p, cfg, |prop| {
        let mut run = bft_over_wire(p, adv, prop);
        run.stats = prop.take_stats();
        run
    })
}

/// The obs span around one networked BFT finality trial.
const BFT_NET_SPAN: &str = "protocols/bft_net";

/// One BFT finality trial under the visibility `p` itself asks for.
pub(crate) fn bft_trial(p: &Params, adv: BftAdversary) -> BftTrial {
    match &p.net {
        None => run_bft(p, adv),
        Some(cfg) => over_wire(BFT_NET_SPAN, p, cfg, |prop| bft_over_wire(p, adv, prop)).trial,
    }
}

/// The networked driver: per-node oracles fed in admission order.
/// (`stats` is left empty for a caller that wants them to fill in.)
fn bft_over_wire(p: &Params, adv: BftAdversary, prop: &mut Propagation) -> BftNetRun {
    prop.set_track_admitted(true);
    let mut sched = GrantSchedule::new(p, 1.0, grant_budget(p), "protocols/bft_stalled");
    let mut inc = IncrementalDag::new();
    let mut oracles: Vec<FinalityOracle> = (0..p.n).map(|_| FinalityOracle::new(p.n)).collect();
    let mut authors: Vec<u32> = vec![u32::MAX];
    let mut append_time: Vec<f64> = vec![0.0];
    let mut lag = LagTally::default();
    let correct = p.n - p.t;

    let mut eq_cnt = vec![0u64; p.n];
    // Self-parent bookkeeping for the omniscient strategies (correct
    // appends are safe without it: a node's own blocks are always in its
    // visible set, so its tips already cover its history).
    let mut last_own: Vec<MsgId> = vec![GENESIS; p.n];
    let mut parents_buf: Vec<MsgId> = Vec::new();
    let mut admitted_buf: Vec<MsgId> = Vec::new();
    let mut now = Time::ZERO;
    let mut deferred: Vec<Vec<MsgId>> = vec![Vec::new(); p.n];

    // Feeds each node's oracle the blocks it admitted since last time;
    // node 0 is the latency observer.
    macro_rules! feed {
        ($at:expr) => {
            for node in 0..p.n {
                admitted_buf.clear();
                prop.drain_admitted(node, &mut admitted_buf);
                feed_node(
                    &mut oracles[node],
                    &mut deferred[node],
                    prop,
                    &authors,
                    &admitted_buf,
                );
                if node == 0 {
                    lag.absorb(&mut oracles[0], &append_time, $at.seconds());
                }
            }
        };
    }

    macro_rules! append {
        ($node:expr, $parents:expr, $at:expr) => {{
            let id = MsgId(inc.len() as u64);
            inc.on_append(id, $parents, $at);
            authors.push($node as u32);
            append_time.push($at.seconds());
            prop.on_append($node, id, $parents, $at);
            last_own[$node] = id;
            id
        }};
    }

    loop {
        let min_final = (0..correct)
            .map(|i| oracles[i].finalized_height())
            .min()
            .unwrap_or(0);
        let conflict = (0..correct).any(|i| oracles[i].conflict_detected());
        if min_final >= p.k || conflict {
            break;
        }
        let Some(g) = sched.next() else { break };
        now = g.time;
        prop.advance_to(g.time);
        feed!(g.time);
        let node = g.node.index();

        if sched.is_byz(g.node) {
            match adv {
                BftAdversary::Absent => {}
                BftAdversary::Equivocator => {
                    eq_cnt[node] += 1;
                    parents_buf.clear();
                    parents_buf.push(if eq_cnt[node] % 2 == 1 {
                        prop.deepest_visible(node)[0]
                    } else {
                        GENESIS
                    });
                    append!(node, &parents_buf, g.time);
                }
                BftAdversary::Withholder => {
                    sched.bank.push(g);
                    if sched.bank.len() >= burst_threshold(p) {
                        let mut tip = inc.deepest();
                        for tok in sched.bank.drain(..) {
                            let node = tok.node.index();
                            vote_parents(&mut parents_buf, tip, last_own[node], []);
                            tip = append!(node, &parents_buf, g.time);
                        }
                    }
                }
                BftAdversary::StaleMiner => {
                    stale_vote(&mut parents_buf, &inc, g.time, p.delta, last_own[node]);
                    append!(node, &parents_buf, g.time);
                }
            }
            // The author sees its own block instantly; fold it into its
            // oracle right away so its next vote builds on it.
            feed!(g.time);
            continue;
        }

        // Correct append: vote for the deepest *arrived* block that
        // extends this node's own finalized prefix; reference every
        // arrived tip. First repair dangling references — without the
        // pull, one dropped announcement would starve the node's cone
        // (and therefore every quorum) forever.
        prop.pull_missing_parents(node);
        let sel = pick_vote(&oracles[node], prop.deepest_visible(node));
        // The node's own blocks are among its tips: no separate self-parent.
        vote_parents(
            &mut parents_buf,
            sel,
            sel,
            prop.visible_tips(node).iter().copied(),
        );
        append!(node, &parents_buf, g.time);
        feed!(g.time);
    }

    let total_appends = inc.len() - 1;
    let finish_time = now.seconds();
    let chains_at_gate: Vec<Vec<MsgId>> = oracles.iter().map(|o| o.finalized_chain()).collect();

    // Deliver everything still in flight (dropped blocks stay lost).
    prop.settle();
    feed!(now);
    let chains_settled: Vec<Vec<MsgId>> = oracles.iter().map(|o| o.finalized_chain()).collect();

    // Omniscient heal: feed every oracle the blocks it never received,
    // in global id order (ancestor-closed by construction).
    for oracle in oracles.iter_mut().take(p.n) {
        for (idx, &author) in authors.iter().enumerate().take(inc.len()).skip(1) {
            let id = MsgId(idx as u64);
            if !oracle.is_observed(id) {
                oracle.observe(id, author as usize, prop.parents_of(id));
            }
        }
    }
    let chains_healed: Vec<Vec<MsgId>> = oracles.iter().map(|o| o.finalized_chain()).collect();
    let digests_healed: Vec<u64> = oracles.iter().map(|o| o.finalized_digest()).collect();
    let conflict_any = oracles[..correct].iter().any(|o| o.conflict_detected());

    BftNetRun {
        trial: finish(p, &oracles[0], total_appends, &lag, finish_time),
        stats: NetStats::default(),
        chains_at_gate,
        chains_settled,
        chains_healed,
        digests_healed,
        conflict_any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_net::LatencyModel;

    /// 0.01 Δ constant latency with `prob` drops, delivery trace on.
    fn fast_drop(prob: f64) -> NetConfig {
        NetConfig::builder()
            .latency(LatencyModel::Constant(10_000_000))
            .drop(prob)
            .trace(true)
            .build()
            .unwrap()
    }

    fn fast() -> NetConfig {
        fast_drop(0.0)
    }

    /// Pairwise extension-order check over finalized chains.
    fn prefix_ordered(chains: &[Vec<MsgId>]) -> bool {
        for a in chains {
            for b in chains {
                let m = a.len().min(b.len());
                if a[..m] != b[..m] {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn fault_free_reaches_finality() {
        for seed in 0..8 {
            let p = Params::new(7, 0, 0.5, 9, seed);
            let out = run_bft(&p, BftAdversary::Absent);
            assert!(out.finality, "seed {seed}: {out:?}");
            assert!(out.finalized_height >= p.k);
            assert!(out.finalized_cone >= out.finalized_height);
            assert!(out.lag_mean > 0.0 && out.lag_max >= out.lag_mean);
            assert!(!out.conflict);
            assert_eq!(out.equivocators, 0);
        }
    }

    #[test]
    fn equivocators_within_tolerance_are_survived() {
        // n = 8, quorum 6: one equivocator leaves 7 ≥ 6 voters.
        let mut finals = 0;
        for seed in 0..6 {
            let p = Params::new(8, 1, 0.5, 9, seed);
            let out = run_bft(&p, BftAdversary::Equivocator);
            assert!(!out.conflict, "seed {seed}");
            if out.finality {
                finals += 1;
                assert!(out.equivocators >= 1, "the fork must be caught");
            }
        }
        assert!(finals >= 4, "tolerated equivocation must mostly finalize");
    }

    #[test]
    fn equivocators_beyond_tolerance_stall_without_forking() {
        // n = 9, quorum 7: three equivocators leave 6 < 7 voters.
        for seed in 0..4 {
            let p = Params::new(9, 3, 0.5, 9, seed);
            let out = run_bft(&p, BftAdversary::Equivocator);
            assert!(!out.finality, "seed {seed}: must stall, got {out:?}");
            assert!(!out.conflict, "stall, never fork");
        }
    }

    #[test]
    fn withholder_stutters_but_finalizes_within_tolerance() {
        let mut ok = 0;
        for seed in 0..6 {
            let p = Params::new(8, 2, 0.5, 9, seed);
            let out = run_bft(&p, BftAdversary::Withholder);
            if out.finality {
                ok += 1;
            }
        }
        assert!(ok >= 4, "bursty votes still finalize, got {ok}/6");
    }

    #[test]
    fn stale_miner_slows_but_rarely_stops_finality() {
        let mut ok = 0;
        for seed in 0..6 {
            let p = Params::new(8, 2, 0.5, 9, seed);
            let out = run_bft(&p, BftAdversary::StaleMiner);
            if out.finality {
                ok += 1;
            }
        }
        assert!(ok >= 4, "stale votes still support the chain, got {ok}/6");
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Params::new(8, 2, 0.5, 9, 42);
        for adv in [
            BftAdversary::Absent,
            BftAdversary::Equivocator,
            BftAdversary::Withholder,
            BftAdversary::StaleMiner,
        ] {
            assert_eq!(run_bft(&p, adv), run_bft(&p, adv), "{adv:?}");
        }
        let (a, sa) = run_bft_net(&p, BftAdversary::Withholder, &fast());
        let (b, sb) = run_bft_net(&p, BftAdversary::Withholder, &fast());
        assert_eq!(a, b);
        assert_eq!(sa.trace(), sb.trace());
    }

    #[test]
    fn net_trial_finalizes_and_agrees_on_ideal_network() {
        for seed in 0..4 {
            let p = Params::new(7, 0, 0.5, 9, seed);
            let run = run_bft_net_full(&p, BftAdversary::Absent, &fast());
            assert!(run.trial.finality, "seed {seed}");
            assert!(prefix_ordered(&run.chains_at_gate), "seed {seed}");
            assert!(!run.conflict_any);
            // After the heal every node saw every block: exact agreement.
            assert!(run.chains_healed.windows(2).all(|w| w[0] == w[1]));
            assert!(run.digests_healed.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn net_trial_survives_drops_with_ordered_prefixes() {
        let mut ok = 0;
        for seed in 0..4 {
            let p = Params::new(7, 0, 0.5, 9, seed);
            let run = run_bft_net_full(&p, BftAdversary::Absent, &fast_drop(0.2));
            assert!(
                prefix_ordered(&run.chains_at_gate),
                "seed {seed}: finalized chains must be extension-ordered"
            );
            assert!(prefix_ordered(&run.chains_settled), "seed {seed}");
            assert!(!run.conflict_any, "seed {seed}");
            ok += run.trial.finality as u32;
        }
        assert!(
            ok >= 3,
            "pull repair must recover dropped announcements, got {ok}/4"
        );
    }
}
