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
use crate::scratch::{self, FrontierBuf};
use crate::trial_dag::TrialDag;
use crate::view::{SharedLog, Visibility};
use am_core::chain::longest_chain_positions;
use am_core::ghost::{ghost_pivot_positions_in, GhostScratch};
use am_core::pivot::pivot_chain_positions;
use am_core::{linearize_in, DagRead, MsgId, NodeId, Sign, Time, Value};
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

/// Appends a block on `parents` (shared with the weak agreement /
/// temporal-asynchrony runners in [`crate::weak`]).
pub(crate) fn append(
    dag: &mut TrialDag,
    node: NodeId,
    value: Value,
    parents: &[MsgId],
    time: Time,
) -> MsgId {
    dag.append(node, value, parents, time)
        .expect("dag append is valid")
}

/// [`append`], then announces the block to `vis`.
fn publish<V: Visibility>(
    dag: &mut TrialDag,
    vis: &mut V,
    node: NodeId,
    value: Value,
    parents: &[MsgId],
    time: Time,
) -> MsgId {
    let id = append(dag, node, value, parents, time);
    vis.published(node.index(), id, parents, time);
    id
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
    over_wire(DAG_NET_SPAN, p, cfg, |prop| {
        (run_dag_on(p, rule, adv, prop), prop.take_stats())
    })
}

/// The obs span around one networked Algorithm 6 trial.
const DAG_NET_SPAN: &str = "protocols/dag_net";

/// One Algorithm 6 trial under the visibility `p` itself asks for: gossip
/// over `p.net` when set, the abstract memory otherwise.
pub(crate) fn dag_trial(p: &Params, rule: DagRule, adv: DagAdversary) -> DagTrial {
    match &p.net {
        None => run_dag(p, rule, adv),
        Some(cfg) => over_wire(DAG_NET_SPAN, p, cfg, |prop| run_dag_on(p, rule, adv, prop)),
    }
}

/// The Algorithm 6 loop, once, for any [`Visibility`].
pub(crate) fn run_dag_on<V: Visibility>(
    p: &Params,
    rule: DagRule,
    adv: DagAdversary,
    vis: &mut V,
) -> DagTrial {
    let mut dag = scratch::take_dag(p.n);
    // The parent list of the append being assembled.
    let mut tips = scratch::take_parents();
    // The Dissenter's view: the whole log, which only grows.
    let mut whole = scratch::take_frontier(FrontierBuf::Adversary);
    let mut sched = GrantSchedule::new(p, 1.0, one_shot_budget(p), "protocols/dag_stalled");
    let mut burst_len = 0usize;

    loop {
        // Decision gate: the selected chain covers ≥ k values. The count is
        // maintained incrementally — no snapshot, no per-grant DFS.
        if dag.len() > p.k {
            let covered = dag.gate_covered();
            if covered >= p.k {
                break;
            }
            // Withhold-burst: fire when the bank can bridge the gap.
            if adv == DagAdversary::WithholdBurst
                && !sched.bank.is_empty()
                && covered + sched.bank.len() >= p.k
            {
                let mut tip = dag.deepest();
                let fire_at = dag.now();
                vis.advance_to(fire_at, dag.store());
                for tok in sched.bank.drain(..) {
                    tip = publish(&mut dag, vis, tok.node, Value::minus(), &[tip], fire_at);
                    burst_len += 1;
                }
                continue;
            }
        }

        let Some(g) = sched.next() else { break };
        vis.advance_to(g.time, dag.store());

        if sched.is_byz(g.node) {
            match adv {
                DagAdversary::Absent => {}
                DagAdversary::Dissenter => {
                    // Omniscient: references every tip of the whole log.
                    whole.extend_to(dag.store(), dag.len());
                    publish(&mut dag, vis, g.node, Value::minus(), whole.tips(), g.time);
                }
                DagAdversary::WithholdBurst => sched.bank.push(g),
            }
            continue;
        }

        // Correct append: reference every tip of the node's view.
        vis.tips_into(g.node.index(), dag.store(), &mut tips);
        publish(&mut dag, vis, g.node, Value::plus(), &tips, g.time);
    }

    let out = decide(p, &mut dag, rule, burst_len);
    scratch::put_parents(tips);
    scratch::put_frontier(FrontierBuf::Adversary, whole);
    scratch::put_dag(dag);
    out
}

/// The chain `rule` selects on `dag`, root first, as positions. The
/// child index must be current ([`TrialDag::index_children`]).
pub(crate) fn select_chain(rule: DagRule, dag: &TrialDag, ghost: &mut GhostScratch) -> Vec<usize> {
    match rule {
        DagRule::LongestChain => longest_chain_positions(dag),
        DagRule::Ghost => ghost_pivot_positions_in(dag, ghost),
        DagRule::Pivot => pivot_chain_positions(dag),
    }
}

/// One read of the DAG as it stands (Algorithm 6 lines 8–9): index the
/// children, select the chain by `rule`, order the DAG along it — all in
/// pooled scratch — and hand `f` the chain and the decision order, both as
/// positions. The trial may keep appending afterwards.
pub(crate) fn read<R>(
    dag: &mut TrialDag,
    rule: DagRule,
    f: impl FnOnce(&TrialDag, &[usize], &[usize]) -> R,
) -> R {
    dag.index_children();
    scratch::with_decision(|ghost, lin| {
        let chain = select_chain(rule, dag, ghost);
        linearize_in(dag, &chain, lin);
        f(dag, &chain, lin.order())
    })
}

/// The value-carrying messages of a decision `order`, in that order.
/// Because consecutive chain blocks are parent and child, `order` is the
/// chain tip's closed past cone, so their count is the tip's covered-value
/// count without a cone walk.
pub(crate) fn values_of<'a>(
    dag: &'a TrialDag,
    order: &'a [usize],
) -> impl Iterator<Item = MsgId> + 'a {
    order
        .iter()
        .map(|&pos| MsgId(pos as u64))
        .filter(|&id| dag.value(id).as_sign().is_some())
}

fn decide(p: &Params, dag: &mut TrialDag, rule: DagRule, burst_len: usize) -> DagTrial {
    read(dag, rule, |dag, _chain, order| {
        let mut sum = 0i64;
        let mut byz_in_prefix = 0usize;
        for id in values_of(dag, order).take(p.k) {
            sum += dag.value(id).spin_contribution();
            if dag.author(id).is_some_and(|a| p.is_byz(a)) {
                byz_in_prefix += 1;
            }
        }
        let decision = Sign::of_sum(sum);
        DagTrial {
            decision,
            validity: decision == Some(Sign::Plus),
            byz_in_prefix,
            burst_len,
            covered_values: values_of(dag, order).count(),
            total_appends: dag.append_count(),
            finish_time: dag.now().seconds(),
        }
    })
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
