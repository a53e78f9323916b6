//! Algorithm 6: Byzantine agreement with DAGs.
//!
//! "Contrary to the chain, the DAG follows an inclusive strategy": a
//! correct node appends a block referencing *every* tip of its view. The
//! DAG is then ordered along the longest (or GHOST-heaviest) chain and the
//! decision is the sign of the sum of the first `k` values in the
//! ordering. Forked correct values are *included* later rather than
//! orphaned, which is why the resilience stays near `1/2` independent of
//! the rate λ (Theorem 5.6).
//!
//! The dangerous adversary is the Lemma 5.5 *withhold-burst*: bank tokens
//! (within their Δ lifetime), wait until the decision is imminent, and
//! release a private chain that simultaneously completes the `k`-value
//! condition and stuffs Byzantine values into the decided prefix. The
//! lemma bounds the burst by the token yield of a correct-silence
//! interval, `O(λ log n)` w.h.p. — measured by experiment E9.

use crate::params::Params;
use crate::propagation::over_wire;
use crate::schedule::{one_shot_budget, GrantSchedule};
use crate::view::{SharedLog, Visibility};
use am_core::{
    chain::longest_chain_with, ghost, linearize_with, longest_chain, pivot::pivot_chain_with,
    pivot_chain, AppendMemory, ConeCoverTracker, DagIndex, IncrementalDag, Linearization,
    MemoryView, MessageBuilder, MsgId, Sign, Value,
};
use am_net::{NetConfig, NetStats};

/// Chain-selection rule for the DAG ordering (Algorithm 6 line 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DagRule {
    /// Longest chain.
    LongestChain,
    /// GHOST heaviest subtree \[22\].
    Ghost,
    /// Conflux-style pivot chain (heaviest first-parent subtree) \[14\].
    Pivot,
}

/// The Byzantine strategy of a DAG trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DagAdversary {
    /// Tokens wasted.
    Absent,
    /// Spend tokens honestly on `−1` blocks referencing all tips.
    Dissenter,
    /// Lemma 5.5: bank tokens and release a private chain just before the
    /// decision.
    WithholdBurst,
}

/// Outcome of one Algorithm 6 trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DagTrial {
    /// The common decision.
    pub decision: Option<Sign>,
    /// Whether validity held.
    pub validity: bool,
    /// Byzantine values among the decided first `k`.
    pub byz_in_prefix: usize,
    /// Length of the released withheld burst (0 for other adversaries).
    pub burst_len: usize,
    /// Values covered by the selected chain at decision time.
    pub covered_values: usize,
    /// Total appends in the memory (genesis excluded).
    pub total_appends: usize,
    /// Simulated time at which the decision condition was met.
    pub finish_time: f64,
}

/// Incremental bookkeeping for the DAG simulation (shared with the weak
/// agreement / temporal-asynchrony runners in [`crate::weak`]).
pub(crate) struct DagSim {
    pub(crate) mem: AppendMemory,
    /// Incremental depth / tips / arrival bookkeeping.
    pub(crate) inc: IncrementalDag,
    /// Incremental covered-value count of the deepest tip's past cone —
    /// replaces the per-grant snapshot + DFS of the decision gate.
    pub(crate) cover: ConeCoverTracker,
    pub(crate) byz_author: Vec<bool>,
    /// Reusable parents buffer for [`DagSim::publish_on_tips`] and
    /// [`DagSim::append_referencing_prefix`] — the hot loops allocate no
    /// per-grant tip vectors.
    tips_buf: Vec<MsgId>,
}

impl DagSim {
    pub(crate) fn new(p: &Params) -> DagSim {
        let mut byz_author = vec![false; p.n];
        for b in p.byz_nodes() {
            byz_author[b.index()] = true;
        }
        DagSim {
            mem: AppendMemory::new(p.n),
            inc: IncrementalDag::new(),
            cover: ConeCoverTracker::new(),
            byz_author,
            tips_buf: Vec::new(),
        }
    }

    pub(crate) fn append(
        &mut self,
        node: am_core::NodeId,
        value: Value,
        parents: &[MsgId],
        time: am_core::Time,
    ) -> MsgId {
        let id = self
            .mem
            .append_at(
                MessageBuilder::new(node, value).parents(parents.iter().copied()),
                time,
            )
            .expect("dag append is valid");
        self.inc.on_append(id, parents, time);
        self.cover.on_append(id, parents, value.as_sign().is_some());
        id
    }

    /// [`Self::append`], then announces the block to `vis`.
    fn publish<V: Visibility>(
        &mut self,
        vis: &mut V,
        node: am_core::NodeId,
        value: Value,
        parents: &[MsgId],
        time: am_core::Time,
    ) -> MsgId {
        let id = self.append(node, value, parents, time);
        vis.published(node.index(), id, parents, time);
        id
    }

    /// [`Self::publish`] on the parents the caller just wrote into the
    /// sim-owned tips buffer.
    fn publish_on_tips<V: Visibility>(
        &mut self,
        vis: &mut V,
        node: am_core::NodeId,
        value: Value,
        time: am_core::Time,
    ) -> MsgId {
        let tips = std::mem::take(&mut self.tips_buf);
        let id = self.publish(vis, node, value, &tips, time);
        self.tips_buf = tips;
        id
    }

    /// Covered-value count of the deepest tip's past cone, maintained
    /// incrementally — the Algorithm 6 "chain covers ≥ k values" gate
    /// without re-reading the memory.
    pub(crate) fn gate_covered(&mut self) -> usize {
        let tip = self.inc.deepest();
        self.cover.cover_of(tip)
    }

    /// Appends a message referencing every tip of the length-`prefix` view,
    /// reusing the sim-owned tips buffer — allocation-free, for runners
    /// with no wire to announce on.
    pub(crate) fn append_referencing_prefix(
        &mut self,
        node: am_core::NodeId,
        value: Value,
        prefix: usize,
        time: am_core::Time,
    ) -> MsgId {
        let mut tips = std::mem::take(&mut self.tips_buf);
        self.inc.tips_of_prefix_into(prefix, &mut tips);
        let id = self.append(node, value, &tips, time);
        self.tips_buf = tips;
        id
    }

    /// Id of the deepest message (ties to smallest id).
    pub(crate) fn deepest(&self) -> MsgId {
        self.inc.deepest()
    }
}

/// Runs one trial of Algorithm 6 on the abstract append memory: every
/// correct node sees the `p.view_policy` prefix of the shared log.
///
/// ```
/// use am_protocols::{run_dag, DagAdversary, DagRule, Params};
/// let p = Params::new(8, 2, 0.3, 15, 7);
/// let out = run_dag(&p, DagRule::LongestChain, DagAdversary::WithholdBurst);
/// assert!(out.covered_values >= p.k);
/// ```
pub fn run_dag(p: &Params, rule: DagRule, adv: DagAdversary) -> DagTrial {
    run_dag_on(p, rule, adv, &mut SharedLog::new(p.view_policy, p.delta))
}

/// Runs one Algorithm 6 trial with block propagation over `cfg`,
/// returning the trial outcome and the network statistics.
pub fn run_dag_net(
    p: &Params,
    rule: DagRule,
    adv: DagAdversary,
    cfg: &NetConfig,
) -> (DagTrial, NetStats) {
    let _span = am_obs::span("protocols/dag_net");
    over_wire(p, cfg, |prop| run_dag_on(p, rule, adv, prop))
}

/// One Algorithm 6 trial under the visibility `p` itself asks for: gossip
/// over `p.net` when set, the abstract memory otherwise.
pub(crate) fn dag_trial(p: &Params, rule: DagRule, adv: DagAdversary) -> DagTrial {
    match &p.net {
        None => run_dag(p, rule, adv),
        Some(cfg) => run_dag_net(p, rule, adv, cfg).0,
    }
}

/// The Algorithm 6 loop, once, for any [`Visibility`].
fn run_dag_on<V: Visibility>(
    p: &Params,
    rule: DagRule,
    adv: DagAdversary,
    vis: &mut V,
) -> DagTrial {
    let mut sim = DagSim::new(p);
    let mut sched = GrantSchedule::new(p, 1.0, one_shot_budget(p), "protocols/dag_stalled");
    let mut burst_len = 0usize;

    loop {
        // Decision gate: the selected chain covers ≥ k values. The count is
        // maintained incrementally — no snapshot, no per-grant DFS.
        if sim.mem.len() > p.k {
            let covered = sim.gate_covered();
            if covered >= p.k {
                break;
            }
            // Withhold-burst: fire when the bank can bridge the gap.
            if adv == DagAdversary::WithholdBurst
                && !sched.bank.is_empty()
                && covered + sched.bank.len() >= p.k
            {
                let mut tip = sim.deepest();
                let fire_at = sim.mem.now();
                vis.advance_to(fire_at, &sim.inc);
                for tok in sched.bank.drain(..) {
                    tip = sim.publish(vis, tok.node, Value::minus(), &[tip], fire_at);
                    burst_len += 1;
                }
                continue;
            }
        }

        let Some(g) = sched.next() else { break };
        vis.advance_to(g.time, &sim.inc);

        if sched.is_byz(g.node) {
            match adv {
                DagAdversary::Absent => {}
                DagAdversary::Dissenter => {
                    // Omniscient: references every tip of the whole log.
                    sim.inc
                        .tips_of_prefix_into(sim.inc.len(), &mut sim.tips_buf);
                    sim.publish_on_tips(vis, g.node, Value::minus(), g.time);
                }
                DagAdversary::WithholdBurst => sched.bank.push(g),
            }
            continue;
        }

        // Correct append: reference every tip of the node's view.
        vis.tips_into(g.node.index(), &sim.inc, &mut sim.tips_buf);
        sim.publish_on_tips(vis, g.node, Value::plus(), g.time);
    }

    decide(p, &sim, rule, burst_len)
}

/// Chain selection for a rule on a view.
pub(crate) fn select_chain(rule: DagRule, view: &MemoryView) -> Vec<MsgId> {
    match rule {
        DagRule::LongestChain => longest_chain(view),
        DagRule::Ghost => ghost::ghost_pivot(view),
        DagRule::Pivot => pivot_chain(view),
    }
}

/// Chain selection on an existing index — decision paths build the index
/// once and share it with [`linearize_with`]. GHOST selection routes
/// through the per-thread scratch pool to reuse its weight bitsets across
/// trials.
pub(crate) fn select_chain_with(rule: DagRule, dag: &DagIndex) -> Vec<MsgId> {
    match rule {
        DagRule::LongestChain => longest_chain_with(dag),
        DagRule::Ghost => crate::scratch::ghost_pivot_pooled(dag),
        DagRule::Pivot => pivot_chain_with(dag),
    }
}

fn decide(p: &Params, sim: &DagSim, rule: DagRule, burst_len: usize) -> DagTrial {
    let view = sim.mem.read();
    // One index build serves chain selection and linearization.
    let dag = DagIndex::new(&view);
    let chain = select_chain_with(rule, &dag);
    let lin = linearize_with(&dag, &chain);
    let prefix = lin.first_k_values(&view, p.k);
    let mut sum = 0i64;
    let mut byz_in_prefix = 0usize;
    for id in &prefix {
        let m = view.get(*id).unwrap();
        sum += m.value.spin_contribution();
        if m.author.map(|a| sim.byz_author[a.index()]).unwrap_or(false) {
            byz_in_prefix += 1;
        }
    }
    let decision = Sign::of_sum(sum);
    let covered = covered_of_lin(&view, &chain, &lin);
    DagTrial {
        decision,
        validity: decision == Some(Sign::Plus),
        byz_in_prefix,
        burst_len,
        covered_values: covered,
        total_appends: view.append_count(),
        finish_time: sim.mem.now().seconds(),
    }
}

/// Covered-value count of the chain tip's closed past cone, read off an
/// existing linearization: consecutive chain blocks are parent/child, so
/// every block is an ancestor of the tip and the linearized order *is* the
/// tip's closed past cone — counting its value-carriers equals the per-tip
/// cone DFS without running one.
pub(crate) fn covered_of_lin(view: &MemoryView, chain: &[MsgId], lin: &Linearization) -> usize {
    if chain.is_empty() {
        return 0;
    }
    lin.order
        .iter()
        .filter(|&&id| {
            view.get(id)
                .map(|m| m.value.as_sign().is_some())
                .unwrap_or(false)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure_rate(p0: Params, rule: DagRule, adv: DagAdversary, trials: u64) -> f64 {
        let fails = (0..trials)
            .filter(|&s| !run_dag(&p0.with_seed(s), rule, adv).validity)
            .count();
        fails as f64 / trials as f64
    }

    #[test]
    fn no_adversary_decides_plus() {
        for seed in 0..10 {
            let p = Params::new(8, 2, 0.5, 15, seed);
            for rule in [DagRule::LongestChain, DagRule::Ghost] {
                let out = run_dag(&p, rule, DagAdversary::Absent);
                assert_eq!(out.decision, Some(Sign::Plus), "seed {seed} {rule:?}");
                assert!(out.validity);
                assert_eq!(out.byz_in_prefix, 0);
                assert!(out.covered_values >= p.k);
            }
        }
    }

    #[test]
    fn dag_includes_forked_values_no_waste() {
        // Even at a high rate (heavy forking), covered values ≈ total
        // appends — the inclusive property. Compare with the chain's heavy
        // orphaning under identical parameters.
        let p = Params::new(16, 0, 1.0, 25, 3);
        let out = run_dag(&p, DagRule::LongestChain, DagAdversary::Absent);
        let inclusion = out.covered_values as f64 / out.total_appends as f64;
        assert!(
            inclusion > 0.8,
            "DAG must cover most appends, covered {} of {}",
            out.covered_values,
            out.total_appends
        );
    }

    #[test]
    fn dissenter_below_half_keeps_validity() {
        let p = Params::new(10, 3, 0.5, 41, 0); // t/n = 0.3
        for rule in [DagRule::LongestChain, DagRule::Ghost] {
            let rate = failure_rate(p, rule, DagAdversary::Dissenter, 40);
            assert!(rate < 0.2, "{rule:?} must tolerate t=0.3n, rate {rate}");
        }
    }

    #[test]
    fn dissenter_beyond_half_breaks_validity() {
        let p = Params::new(10, 6, 0.5, 41, 0); // t/n = 0.6
        let rate = failure_rate(p, DagRule::LongestChain, DagAdversary::Dissenter, 40);
        assert!(rate > 0.8, "t=0.6n must fail, rate {rate}");
    }

    #[test]
    fn dag_survives_the_chain_killer_parameters() {
        // The tie-breaker parameters that destroy the chain (λt = 2,
        // t/n = 1/3) leave the DAG's validity intact — the headline claim.
        let p = Params::new(12, 4, 0.5, 41, 0);
        let rate = failure_rate(p, DagRule::LongestChain, DagAdversary::WithholdBurst, 40);
        assert!(
            rate < 0.25,
            "DAG at λt=2, t=n/3 must hold validity, rate {rate}"
        );
    }

    #[test]
    fn withhold_burst_fires_and_is_bounded() {
        let p = Params::new(12, 4, 0.5, 41, 7);
        let out = run_dag(&p, DagRule::LongestChain, DagAdversary::WithholdBurst);
        // The burst must have fired (banked tokens exist w.h.p.) and be
        // small relative to k (Lemma 5.5: O(λ log n), not Θ(k)).
        assert!(out.burst_len > 0, "burst never fired");
        assert!(
            out.burst_len < p.k / 2,
            "burst {} must stay far below k={}",
            out.burst_len,
            p.k
        );
    }

    #[test]
    fn byz_prefix_share_is_fair_plus_burst() {
        // Withholding cannot push the Byzantine prefix share far beyond
        // t/n + burst/k.
        let p = Params::new(10, 3, 0.5, 61, 0);
        let mut share_sum = 0.0;
        let trials = 30;
        for s in 0..trials {
            let out = run_dag(
                &p.with_seed(s),
                DagRule::LongestChain,
                DagAdversary::WithholdBurst,
            );
            share_sum += out.byz_in_prefix as f64 / p.k as f64;
        }
        let mean_share = share_sum / trials as f64;
        assert!(
            mean_share < 0.45,
            "byz prefix share {mean_share} must stay below 1/2 for t/n=0.3"
        );
    }

    #[test]
    fn ghost_and_longest_agree_without_adversary() {
        let p = Params::new(8, 0, 0.3, 21, 11);
        let a = run_dag(&p, DagRule::LongestChain, DagAdversary::Absent);
        let b = run_dag(&p, DagRule::Ghost, DagAdversary::Absent);
        assert_eq!(a.decision, b.decision);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Params::new(10, 3, 0.5, 21, 42);
        let a = run_dag(&p, DagRule::Ghost, DagAdversary::WithholdBurst);
        let b = run_dag(&p, DagRule::Ghost, DagAdversary::WithholdBurst);
        assert_eq!(a, b);
    }
}
