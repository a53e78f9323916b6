//! Byzantine drivers for the embedded BFT finality layer (`am-bft`).
//!
//! The Section 5 runners decide a one-shot agreement; these runners keep
//! the same substrate — Poisson token grants, interval-snapshot views,
//! optional block gossip over `am-net` — but run it as a *finality*
//! protocol: every appended block doubles as a protocol message
//! (`parents[0]` is the author's vote), and the trial succeeds once the
//! finalized chain reaches `k` blocks. A trial interprets its DAG once —
//! every block goes into one [`DagInterpreter`] table when it is
//! appended — and each observer (the global one, or every node of a
//! networked trial) keeps a [`FinalityView`] over that table, fed the
//! blocks it has admitted, in its own order.
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
use crate::scratch;
use crate::view::{SharedLog, Visibility};
use am_bft::{DagInterpreter, FinalityView};
use am_core::{BlockStore, Frontier, MsgId, Time, GENESIS};
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
///
/// [`run_bft`] reads every field at the gate — the first grant at which
/// the observer's finalized chain reached `k`, a conflict, or the end of
/// the grant budget. The networked driver ([`run_bft_net`]) reads
/// `total_appends`, `finish_time` and `lag_*` there too, but every other
/// field from node 0's state after the in-flight blocks were delivered
/// (settle) and the omniscient heal — see [`BftNetRun`] for the per-node
/// chains at each stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BftTrial {
    /// Whether the finalized chain reached `k` without a detected safety
    /// conflict (networked: after settle + heal).
    pub finality: bool,
    /// Finalized chain height (networked: after settle + heal, which can
    /// exceed node 0's height at the gate).
    pub finalized_height: usize,
    /// Blocks in the finalized past cone (the finalized DAG *prefix*).
    pub finalized_cone: usize,
    /// Total blocks appended (genesis excluded).
    pub total_appends: usize,
    /// Mean finality lag over finalized chain blocks, seconds (append →
    /// observer finalization). Networked: over the blocks node 0
    /// finalized by the gate or while settling, the latter timed at the
    /// gate.
    pub lag_mean: f64,
    /// Max finality lag, seconds (same blocks as `lag_mean`).
    pub lag_max: f64,
    /// `finalized_height` per simulated second up to `finish_time`.
    pub throughput: f64,
    /// Authors the observer caught equivocating.
    pub equivocators: usize,
    /// Whether the observer detected a quorum behind a conflicting
    /// candidate (safety breach; only reachable past the tolerance).
    pub conflict: bool,
    /// Simulated time at the gate.
    pub finish_time: f64,
    /// The observer's finalized-prefix digest (networked: after settle +
    /// heal).
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

/// A BFT trial's pooled tables (`crate::scratch`, taken reset): the one
/// interpretation of the trial's DAG, one finality view per observer, and
/// the drivers' own bookkeeping.
#[derive(Default)]
pub(crate) struct BftScratch {
    /// Every appended block, pushed in id order (table id = block id). Its
    /// store is the trial's only copy of the graph: the drivers read depth,
    /// tips, stale prefixes and append times from it.
    table: DagInterpreter,
    /// One per observer; `views[0]` is the latency observer.
    views: Vec<FinalityView>,
    /// Equivocator appends per author (odd ones vote, even ones fork).
    eq_cnt: Vec<u64>,
    /// Each author's last block. A node always knows its own history, so
    /// every non-equivocating append carries it as a parent: a view that
    /// lags the author's own last block cannot force a round collision
    /// (self-equivocation).
    last_own: Vec<MsgId>,
    /// Per observer: admitted blocks waiting for parents it has not
    /// observed.
    deferred: Vec<Vec<MsgId>>,
    /// The parent list of the append being assembled.
    parents: Vec<MsgId>,
    /// The tips of a correct append's view.
    ids: Vec<MsgId>,
    /// The omniscient adversary's view: the whole log (Equivocator) or
    /// its 2Δ-stale prefix (StaleMiner). Both only grow with the clock.
    adv_view: Frontier,
    /// Per observer of a networked trial: its finalized height at the
    /// gate and after settle. A view's finalized chain only grows, so
    /// these heights cut both chains out of the healed one.
    gate: Vec<usize>,
    settled: Vec<usize>,
}

impl BftScratch {
    /// Genesis only, over `n` authors, with `observers` fresh views and
    /// deferral lists (the pool never shrinks them, so alternating
    /// abstract and networked trials reallocate nothing).
    pub(crate) fn reset(&mut self, n: usize, observers: usize) {
        self.table.reset(n);
        if self.views.len() < observers {
            self.views.resize_with(observers, || FinalityView::new(n));
        }
        for view in &mut self.views[..observers] {
            view.reset(n);
        }
        self.eq_cnt.clear();
        self.eq_cnt.resize(n, 0);
        self.last_own.clear();
        self.last_own.resize(n, GENESIS);
        if self.deferred.len() < observers {
            self.deferred.resize_with(observers, Vec::new);
        }
        for d in &mut self.deferred {
            d.clear();
        }
        self.parents.clear();
        self.ids.clear();
        self.adv_view.clear();
        self.gate.clear();
        self.settled.clear();
    }
}

/// A trial block's table id. Both drivers push every block into the
/// table when it is appended, in id order, so the two coincide.
fn table_id(id: MsgId) -> u32 {
    u32::try_from(id.0).expect("trial block ids fit u32")
}

/// Running lag aggregate for newly finalized chain blocks.
#[derive(Default)]
struct LagTally {
    sum: f64,
    max: f64,
    count: usize,
}

impl LagTally {
    fn absorb(&mut self, fin: &mut FinalityView, store: &BlockStore, now: f64) {
        for id in fin.drain_newly_final() {
            let lag = now - store.arrival(id.index()).seconds();
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
fn pick_vote(fin: &FinalityView, table: &DagInterpreter, deepest: &[MsgId]) -> MsgId {
    deepest
        .iter()
        .copied()
        .find(|&d| fin.extends_finalized(table, table_id(d)))
        .unwrap_or_else(|| table.id_of(fin.finalized_head()))
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
/// 2Δ before `now`, referencing that stale view's tips. `stale` is the
/// miner's frontier; `now` never decreases between two calls on it.
fn stale_vote(
    buf: &mut Vec<MsgId>,
    stale: &mut Frontier,
    log: &BlockStore,
    now: Time,
    delta: f64,
    own: MsgId,
) {
    let stale_at = Time::new(now.seconds() - 2.0 * delta);
    stale.extend_to(log, log.prefix_at_time(stale_at));
    vote_parents(buf, stale.deepest()[0], own, stale.tips().iter().copied());
}

/// Feeds one node's view the blocks it just admitted. Correct nodes'
/// admission logs are ancestor-closed, but an omniscient Byzantine
/// author sees its own block instantly even when it hasn't received the
/// block's parents yet — those go to `deferred` and are observed once
/// the missing parents arrive (or never, if the parents were dropped;
/// the heal phase covers them).
fn feed_node(
    fin: &mut FinalityView,
    deferred: &mut Vec<MsgId>,
    table: &DagInterpreter,
    admitted: &[MsgId],
) {
    for &id in admitted {
        if !fin.try_observe(table, table_id(id)) {
            deferred.push(id);
            continue;
        }
        // Each pass observes, in deferral order, whatever the passes
        // before it unblocked.
        while !deferred.is_empty() {
            let waiting = deferred.len();
            deferred.retain(|&d| !fin.try_observe(table, table_id(d)));
            if deferred.len() == waiting {
                break;
            }
        }
    }
}

/// Runs one abstract-view BFT finality trial: a single shared DAG, a
/// global observer, interval-snapshot views (the same view model as
/// [`run_dag`](crate::run_dag), and the same token schedule at equal
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
    let mut s = scratch::take_bft(p.n, 1);
    let BftScratch {
        table,
        views,
        eq_cnt,
        last_own,
        parents: parents_buf,
        ids: tips_buf,
        adv_view,
        ..
    } = &mut s;
    let fin = &mut views[0];
    let mut lag = LagTally::default();
    let mut now = Time::ZERO;

    macro_rules! append {
        ($node:expr, $parents:expr, $at:expr) => {{
            let id = MsgId(table.len() as u64);
            let b = table.push_as(id, $node, $parents.iter().map(|&p| table_id(p)), $at);
            fin.observe(table, b);
            lag.absorb(fin, table.store(), $at.seconds());
            last_own[$node] = id;
            id
        }};
    }

    while fin.finalized_height() < p.k && !fin.conflict_detected() {
        let Some(g) = sched.next() else { break };
        now = g.time;
        view.advance_to(g.time, table.store());
        let node = g.node.index();

        if sched.is_byz(g.node) {
            match adv {
                BftAdversary::Absent => {}
                BftAdversary::Equivocator => {
                    eq_cnt[node] += 1;
                    parents_buf.clear();
                    if eq_cnt[node] % 2 == 1 {
                        // Honest-looking vote on the current view.
                        let log = table.store();
                        adv_view.extend_to(log, log.len());
                        parents_buf.push(pick_vote(fin, table, adv_view.deepest()));
                    } else {
                        // Fork own history from genesis: the round-1
                        // collision brands the author an equivocator.
                        parents_buf.push(GENESIS);
                    }
                    append!(node, parents_buf, g.time);
                }
                BftAdversary::Withholder => {
                    sched.bank.push(g);
                    if sched.bank.len() >= burst_threshold(p) {
                        let mut tip = table.store().deepest();
                        for tok in sched.bank.drain(..) {
                            let node = tok.node.index();
                            vote_parents(parents_buf, tip, last_own[node], []);
                            tip = append!(node, parents_buf, g.time);
                        }
                    }
                }
                BftAdversary::StaleMiner => {
                    let log = table.store();
                    stale_vote(parents_buf, adv_view, log, g.time, p.delta, last_own[node]);
                    append!(node, parents_buf, g.time);
                }
            }
            continue;
        }

        // Correct append: vote for the deepest block of the view that
        // extends the finalized prefix, referencing every view tip plus
        // the author's own last block (self-parent).
        let sel = pick_vote(fin, table, view.deepest(node, table.store()));
        view.tips_into(node, table.store(), tips_buf);
        vote_parents(parents_buf, sel, last_own[node], tips_buf.iter().copied());
        append!(node, parents_buf, g.time);
    }

    let out = finish(p, fin, table.len() - 1, &lag, now.seconds());
    scratch::put_bft(s);
    out
}

fn finish(
    p: &Params,
    fin: &FinalityView,
    total_appends: usize,
    lag: &LagTally,
    finish_time: f64,
) -> BftTrial {
    let finalized_height = fin.finalized_height();
    if am_obs::enabled() {
        let s = fin.stats();
        am_obs::static_counter!("bft/observes").add(s.observes);
        am_obs::static_counter!("bft/early_outs").add(s.early_outs);
        am_obs::static_counter!("bft/scans").add(s.scans);
        am_obs::static_counter!("bft/witness_lookups").add(s.witness_lookups);
        am_obs::static_counter!("bft/heights_advanced").add(s.heights_advanced);
        am_obs::static_counter!("bft/memo_edges").add(s.memo_edges);
    }
    BftTrial {
        finality: finalized_height >= p.k && !fin.conflict_detected(),
        finalized_height,
        finalized_cone: fin.finalized_cone_blocks(),
        total_appends,
        lag_mean: lag.mean(),
        lag_max: lag.max,
        throughput: if finish_time > 0.0 {
            finalized_height as f64 / finish_time
        } else {
            0.0
        },
        equivocators: fin.equivocator_count(),
        conflict: fin.conflict_detected(),
        finish_time,
        finalized_digest: fin.finalized_digest(),
        roles: fin.role_counts(),
    }
}

/// Runs one networked BFT finality trial: blocks gossip over `cfg`,
/// each node keeps its *own* finality view over exactly the sub-DAG it
/// admitted (in admission order), and the gate requires every correct
/// node's finalized chain to reach `k`. Correct nodes pull-repair
/// dangling references ([`Propagation::pull_missing_parents`]) at each
/// grant, so dropped announcements delay finality instead of starving it
/// forever. Returns the scalar summary and the network stats; see
/// [`run_bft_net_full`] for per-node chains.
///
/// The summary is node 0's: `total_appends`, `finish_time` and `lag_*`
/// are read at the gate, every other field after the in-flight blocks
/// were delivered and node 0 was healed with the blocks it never
/// received (see [`BftTrial`]) — so `finalized_height` is
/// `chains_healed[0].len()` of the full run, at least its gate height.
pub fn run_bft_net(p: &Params, adv: BftAdversary, cfg: &NetConfig) -> (BftTrial, NetStats) {
    over_wire(BFT_NET_SPAN, p, cfg, |prop| {
        let trial = net_summary(p, adv, prop);
        (trial, prop.take_stats())
    })
}

/// [`run_bft_net`] with the per-node finality state exposed (gate /
/// settled / healed chains) for the agreement property suites: every
/// node is healed, not only node 0.
pub fn run_bft_net_full(p: &Params, adv: BftAdversary, cfg: &NetConfig) -> BftNetRun {
    over_wire(BFT_NET_SPAN, p, cfg, |prop| {
        let mut run = bft_over_wire(p, adv, prop);
        for node in 0..p.n {
            run.heal(node);
        }
        run.full(p, prop.take_stats())
    })
}

/// The obs span around one networked BFT finality trial.
const BFT_NET_SPAN: &str = "protocols/bft_net";

/// One BFT finality trial under the visibility `p` itself asks for.
pub(crate) fn bft_trial(p: &Params, adv: BftAdversary) -> BftTrial {
    match &p.net {
        None => run_bft(p, adv),
        Some(cfg) => over_wire(BFT_NET_SPAN, p, cfg, |prop| net_summary(p, adv, prop)),
    }
}

/// Node 0's summary of a networked trial: the only view it reads, so the
/// only one healed.
pub(crate) fn net_summary(p: &Params, adv: BftAdversary, prop: &mut Propagation) -> BftTrial {
    let mut run = bft_over_wire(p, adv, prop);
    run.heal(0);
    run.summary(p)
}

/// A networked trial run through settle, still holding its pooled tables
/// (each view's gate and settled heights included). The caller heals the
/// views it reads, then [`summary`](Settled::summary) or
/// [`full`](Settled::full) reads them and returns the tables to the pool.
struct Settled {
    s: BftScratch,
    total_appends: usize,
    finish_time: f64,
    /// Node 0's lags, gate and settle.
    lag: LagTally,
}

impl Settled {
    /// Omniscient heal of one view: it observes every block its node
    /// never received, in id order (ancestor-closed by construction).
    fn heal(&mut self, node: usize) {
        let BftScratch { table, views, .. } = &mut self.s;
        let fin = &mut views[node];
        for b in 1..table.len() as u32 {
            if !fin.is_observed(b) {
                fin.observe(table, b);
            }
        }
    }

    /// Node 0's [`BftTrial`], as its view now stands.
    fn summary(self, p: &Params) -> BftTrial {
        let trial = finish(
            p,
            &self.s.views[0],
            self.total_appends,
            &self.lag,
            self.finish_time,
        );
        scratch::put_bft(self.s);
        trial
    }

    /// Every node's chains at the gate, after settle and as the views now
    /// stand (healed), with node 0's [`BftTrial`].
    fn full(self, p: &Params, stats: NetStats) -> BftNetRun {
        let BftScratch {
            table,
            views,
            gate,
            settled,
            ..
        } = &self.s;
        let views = &views[..p.n];
        // A view's finalized chain only grows, so the gate and settled
        // chains are prefixes of the healed one.
        let chain = |node: usize, height: usize| -> Vec<MsgId> {
            let chain = &views[node].finalized_chain()[..height];
            chain.iter().map(|&b| table.id_of(b)).collect()
        };
        let chains = |height: &dyn Fn(usize) -> usize| -> Vec<Vec<MsgId>> {
            (0..p.n).map(|node| chain(node, height(node))).collect()
        };
        let run = BftNetRun {
            trial: finish(
                p,
                &views[0],
                self.total_appends,
                &self.lag,
                self.finish_time,
            ),
            stats,
            chains_at_gate: chains(&|node| gate[node]),
            chains_settled: chains(&|node| settled[node]),
            chains_healed: chains(&|node| views[node].finalized_height()),
            digests_healed: views.iter().map(FinalityView::finalized_digest).collect(),
            conflict_any: views[..p.n - p.t]
                .iter()
                .any(FinalityView::conflict_detected),
        };
        scratch::put_bft(self.s);
        run
    }
}

/// The Coglio–McCarthy nonforking invariants over a trial's correct
/// views, as they stand after each feed: every two finalized chains are
/// extension-ordered, and no chain ever shrinks or changes a block it
/// held. Checked as a whole against the longest chain any correct view
/// has held so far: every chain is prefix-comparable with it, and no
/// view's height drops.
#[derive(Default)]
struct NonForking {
    longest: Vec<u32>,
    heights: Vec<usize>,
}

impl NonForking {
    /// Whether `views` keep the invariants against everything seen so
    /// far; records what it saw.
    fn holds(&mut self, views: &[FinalityView]) -> bool {
        self.heights.resize(views.len(), 0);
        for (v, seen) in views.iter().zip(&mut self.heights) {
            let chain = v.finalized_chain();
            let m = chain.len().min(self.longest.len());
            if chain.len() < *seen || chain[..m] != self.longest[..m] {
                return false;
            }
            *seen = chain.len();
            if chain.len() > self.longest.len() {
                self.longest.clear();
                self.longest.extend_from_slice(chain);
            }
        }
        true
    }
}

/// The networked driver, up to settle: per-node views fed in admission
/// order, each view's finalized height recorded at the gate and after
/// settle.
fn bft_over_wire(p: &Params, adv: BftAdversary, prop: &mut Propagation) -> Settled {
    prop.set_track_admitted(true);
    let mut sched = GrantSchedule::new(p, 1.0, grant_budget(p), "protocols/bft_stalled");
    let mut s = scratch::take_bft(p.n, p.n);
    let BftScratch {
        table,
        views,
        eq_cnt,
        last_own,
        deferred,
        parents: parents_buf,
        ids: _,
        adv_view,
        gate,
        settled,
    } = &mut s;
    let views = &mut views[..p.n];
    let mut lag = LagTally::default();
    let correct = p.n - p.t;
    // Only ever touched inside `debug_assert!`: a release build keeps it
    // empty and unallocated.
    let mut nonforking = NonForking::default();
    // `last_own` is self-parent bookkeeping for the omniscient strategies
    // (correct appends are safe without it: a node's own blocks are
    // always in its visible set, so its tips already cover its history).
    let mut now = Time::ZERO;

    // Feeds each node's view the blocks it admitted since last time;
    // node 0 is the latency observer.
    macro_rules! feed {
        ($at:expr) => {
            prop.drain_admitted(|node, admitted| {
                feed_node(&mut views[node], &mut deferred[node], table, admitted)
            });
            lag.absorb(&mut views[0], table.store(), $at.seconds());
            debug_assert!(
                nonforking.holds(&views[..correct]),
                "correct views' finalized chains forked or shrank"
            );
        };
    }

    macro_rules! append {
        ($node:expr, $parents:expr, $at:expr) => {{
            let id = MsgId(table.len() as u64);
            table.push_as(id, $node, $parents.iter().map(|&p| table_id(p)), $at);
            prop.on_append($node, id, $parents, $at);
            last_own[$node] = id;
            id
        }};
    }

    loop {
        let min_final = views[..correct]
            .iter()
            .map(FinalityView::finalized_height)
            .min()
            .unwrap_or(0);
        let conflict = views[..correct].iter().any(FinalityView::conflict_detected);
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
                    append!(node, parents_buf, g.time);
                }
                BftAdversary::Withholder => {
                    sched.bank.push(g);
                    if sched.bank.len() >= burst_threshold(p) {
                        let mut tip = table.store().deepest();
                        for tok in sched.bank.drain(..) {
                            let node = tok.node.index();
                            vote_parents(parents_buf, tip, last_own[node], []);
                            tip = append!(node, parents_buf, g.time);
                        }
                    }
                }
                BftAdversary::StaleMiner => {
                    stale_vote(
                        parents_buf,
                        adv_view,
                        table.store(),
                        g.time,
                        p.delta,
                        last_own[node],
                    );
                    append!(node, parents_buf, g.time);
                }
            }
            // The author sees its own block instantly; fold it into its
            // view right away so its next vote builds on it.
            feed!(g.time);
            continue;
        }

        // Correct append: vote for the deepest *arrived* block that
        // extends this node's own finalized prefix; reference every
        // arrived tip. First repair dangling references — without the
        // pull, one dropped announcement would starve the node's cone
        // (and therefore every quorum) forever.
        prop.pull_missing_parents(node);
        let sel = pick_vote(&views[node], table, prop.deepest_visible(node));
        // The node's own blocks are among its tips: no separate self-parent.
        vote_parents(
            parents_buf,
            sel,
            sel,
            prop.visible_tips(node).iter().copied(),
        );
        append!(node, parents_buf, g.time);
        feed!(g.time);
    }

    let total_appends = table.len() - 1;
    let finish_time = now.seconds();
    gate.extend(views.iter().map(FinalityView::finalized_height));

    // Deliver everything still in flight (dropped blocks stay lost).
    prop.settle();
    feed!(now);
    settled.extend(views.iter().map(FinalityView::finalized_height));
    Settled {
        s,
        total_appends,
        finish_time,
        lag,
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
    fn net_summary_is_read_after_the_heal_not_at_the_gate() {
        // `BftTrial`'s height (and everything but the gate time and the
        // lags) is node 0's after settle + heal, which on a lossy wire
        // regularly exceeds its height at the gate. Pinned so that moving
        // the summary to the gate is a visible behaviour change (ROADMAP).
        let cfg = NetConfig::builder()
            .latency(LatencyModel::Constant(50_000_000))
            .drop(0.1)
            .build()
            .unwrap();
        let mut strict = 0;
        for seed in 0..50 {
            let p = Params::new(12, 3, 0.5, 9, seed);
            let run = run_bft_net_full(&p, BftAdversary::Equivocator, &cfg);
            assert_eq!(
                run.trial.finalized_height,
                run.chains_healed[0].len(),
                "seed {seed}"
            );
            assert!(
                run.trial.finalized_height >= run.chains_at_gate[0].len(),
                "seed {seed}"
            );
            strict += usize::from(run.trial.finalized_height > run.chains_at_gate[0].len());
        }
        assert!(strict > 0, "no seed finalized more after the gate");
    }

    #[test]
    fn summary_path_reads_what_the_full_path_reads() {
        // The summary heals node 0 alone and keeps no chains; the full
        // run heals every node and cuts the gate and settled chains out
        // of the healed ones. Node 0's summary must not tell them apart.
        let is_prefix = |a: &[MsgId], b: &[MsgId]| b.starts_with(a);
        for drop in [0.0, 0.1] {
            let cfg = NetConfig::builder()
                .latency(LatencyModel::Constant(50_000_000))
                .drop(drop)
                .build()
                .unwrap();
            for adv in [
                BftAdversary::Absent,
                BftAdversary::Equivocator,
                BftAdversary::Withholder,
                BftAdversary::StaleMiner,
            ] {
                for seed in 0..3 {
                    let p = Params::new(8, 2, 0.5, 6, seed);
                    let at = format!("drop {drop} {adv:?} seed {seed}");
                    let summary = bft_trial(&p.with_net(cfg), adv);
                    let (trial, _) = run_bft_net(&p, adv, &cfg);
                    let run = run_bft_net_full(&p, adv, &cfg);
                    assert_eq!(summary, trial, "{at}");
                    assert_eq!(summary, run.trial, "{at}");
                    for node in 0..p.n {
                        let healed = &run.chains_healed[node];
                        assert!(is_prefix(&run.chains_at_gate[node], healed), "{at}");
                        assert!(is_prefix(&run.chains_settled[node], healed), "{at}");
                    }
                }
            }
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
