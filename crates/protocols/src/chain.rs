//! Algorithm 5: Byzantine agreement with chains.
//!
//! Correct nodes append to the last state of the longest chain in their
//! view; ties between several longest chains are broken deterministically
//! ("the first longest chain in the memory", the Theorem 5.3 rule from
//! Garay et al.) or uniformly at random (the Theorem 5.4 rule from Ren).
//! The decision is the sign of the sum of the first `k` appends in the
//! longest chain.
//!
//! Adversaries implemented (both from the paper's proofs):
//!
//! * [`ChainAdversary::ForkMaker`] — Theorem 5.3: "every append to the
//!   memory from a Byzantine node will cause a fork …, i.e. it will append
//!   its value to the same append as the last correct node, thus producing
//!   two longest chains", positioned to win the deterministic tie. The
//!   chain then carries `t/(n−t)` Byzantine blocks — half at `t = n/3`.
//! * [`ChainAdversary::TieBreaker`] — Theorem 5.4: "append its value
//!   simultaneously to the first correct append in the longest chain, and
//!   thereby prolong the chain by one additional append", orphaning every
//!   other correct append of the interval. Needs one token per interval,
//!   i.e. succeeds once `λt ≥ 1 ⇔ t/n ≥ 1/(1+λ(n−t))`.

use crate::params::Params;
use crate::propagation::over_wire;
use crate::schedule::{one_shot_budget, GrantSchedule};
use crate::scratch;
use crate::trial_dag::TrialDag;
use crate::view::{interval_of, SharedLog, Visibility};
use am_core::{chain_to_genesis, DagRead, MsgId, NodeId, Sign, Time, Value};
use am_net::hash::IntSet;
use am_net::{NetConfig, NetStats};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Tie-breaking rule for Algorithm 5 line 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TieBreak {
    /// Choose the first longest chain in the memory (smallest id) \[9\].
    Deterministic,
    /// Choose uniformly at random among the longest chains \[21\].
    Randomized,
}

/// The Byzantine strategy of a chain trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainAdversary {
    /// Tokens are wasted (crash-like baseline).
    Absent,
    /// Spend tokens honestly on `−1` blocks extending the longest chain.
    Dissenter,
    /// The Theorem 5.3 fork strategy against deterministic tie-breaking.
    ForkMaker,
    /// The Theorem 5.4 interval tie-break strategy.
    TieBreaker,
}

/// Outcome of one Algorithm 5 trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChainTrial {
    /// The common decision (`None` on a tie).
    pub decision: Option<Sign>,
    /// Whether validity held (all correct inputs `+1` ⇒ must decide `+1`).
    pub validity: bool,
    /// Byzantine blocks among the first `k` of the decided chain.
    pub byz_in_prefix: usize,
    /// Final canonical chain length in blocks (genesis excluded).
    pub chain_len: usize,
    /// Total appends in the memory (genesis excluded).
    pub total_appends: usize,
    /// Correct appends that did not make the canonical chain.
    pub orphaned_correct: usize,
    /// Simulated time at which the decision condition was met.
    pub finish_time: f64,
}

/// Appends a single-parent block (shared with the staggered runner in
/// [`crate::weak`]).
pub(crate) fn extend(
    dag: &mut TrialDag,
    node: NodeId,
    value: Value,
    parent: MsgId,
    time: Time,
) -> MsgId {
    dag.append(node, value, &[parent], time)
        .expect("chain append is valid")
}

/// [`extend`], then announces the block to `vis`.
fn publish<V: Visibility>(
    dag: &mut TrialDag,
    vis: &mut V,
    node: NodeId,
    value: Value,
    parent: MsgId,
    time: Time,
) -> MsgId {
    let id = extend(dag, node, value, parent, time);
    vis.published(node.index(), id, &[parent], time);
    id
}

/// The canonical chain, root first: back from the smallest-id deepest
/// block (every block of a chain trial has one parent, so this is the
/// longest-chain rule of `am-core` verbatim). Shared with the staggered
/// runner in [`crate::weak`].
pub(crate) fn canonical_chain(dag: &TrialDag) -> Vec<usize> {
    chain_to_genesis(dag, dag.deepest().index())
}

/// Runs one trial of Algorithm 5 on the abstract append memory: every
/// correct node sees the `p.view_policy` prefix of the shared log.
///
/// ```
/// use am_protocols::{run_chain, ChainAdversary, Params, TieBreak};
/// let p = Params::new(8, 2, 0.3, 15, 7);
/// let out = run_chain(&p, TieBreak::Randomized, ChainAdversary::TieBreaker);
/// assert!(out.chain_len >= p.k);
/// ```
pub fn run_chain(p: &Params, tie: TieBreak, adv: ChainAdversary) -> ChainTrial {
    run_chain_on(p, tie, adv, &mut SharedLog::new(p.view_policy, p.delta))
}

/// Runs one Algorithm 5 trial with block propagation over `cfg`,
/// returning the trial outcome and the network statistics.
///
/// The adversary stays omniscient (it reads the shared log directly —
/// the worst case), but its blocks travel the same faulty network.
pub fn run_chain_net(
    p: &Params,
    tie: TieBreak,
    adv: ChainAdversary,
    cfg: &NetConfig,
) -> (ChainTrial, NetStats) {
    over_wire(CHAIN_NET_SPAN, p, cfg, |prop| {
        (run_chain_on(p, tie, adv, prop), prop.take_stats())
    })
}

/// The obs span around one networked Algorithm 5 trial.
const CHAIN_NET_SPAN: &str = "protocols/chain_net";

/// One Algorithm 5 trial under the visibility `p` itself asks for: gossip
/// over `p.net` when set, the abstract memory otherwise.
pub(crate) fn chain_trial(p: &Params, tie: TieBreak, adv: ChainAdversary) -> ChainTrial {
    match &p.net {
        None => run_chain(p, tie, adv),
        Some(cfg) => over_wire(CHAIN_NET_SPAN, p, cfg, |prop| {
            run_chain_on(p, tie, adv, prop)
        }),
    }
}

/// The Algorithm 5 loop, once, for any [`Visibility`].
pub(crate) fn run_chain_on<V: Visibility>(
    p: &Params,
    tie: TieBreak,
    adv: ChainAdversary,
    vis: &mut V,
) -> ChainTrial {
    let mut dag = scratch::take_dag(p.n);
    let mut sched = GrantSchedule::new(p, 1.0, one_shot_budget(p), "protocols/chain_stalled");
    let mut rng = ChaCha8Rng::seed_from_u64(p.seed ^ 0x5eed5eed5eed5eed);

    // ForkMaker: tips already forked (one Byzantine sibling is enough).
    let mut forked: IntSet<MsgId> = IntSet::default();
    // TieBreaker: the interval whose first correct append was already hit.
    let mut hit_interval: Option<u64> = None;
    let mut correct_appends = 0usize;

    while (dag.store().max_depth() as usize) < p.k {
        // An exhausted budget (undelivered blocks can stall growth)
        // leaves the decision a failure.
        let Some(g) = sched.next() else { break };
        vis.advance_to(g.time, dag.store());

        if sched.is_byz(g.node) {
            match adv {
                ChainAdversary::Absent => {}
                ChainAdversary::Dissenter => {
                    // Honest-structure, minority-value block on the real tip.
                    let tip = dag.deepest();
                    publish(&mut dag, vis, g.node, Value::minus(), tip, g.time);
                }
                ChainAdversary::ForkMaker | ChainAdversary::TieBreaker => sched.bank.push(g),
            }
            continue;
        }

        // --- Correct append: the longest chain of the node's view. ---
        let tips = vis.deepest(g.node.index(), dag.store());
        let tip = match tie {
            TieBreak::Deterministic => tips[0],
            TieBreak::Randomized => tips[rng.gen_range(0..tips.len())],
        };

        // ForkMaker preemption: place a Byzantine sibling *before* the
        // correct block so it wins the deterministic (first-in-memory) tie.
        if adv == ChainAdversary::ForkMaker && !forked.contains(&tip) {
            if let Some(tok) = sched.bank.pop() {
                publish(&mut dag, vis, tok.node, Value::minus(), tip, g.time);
                forked.insert(tip);
            }
        }

        let correct_block = publish(&mut dag, vis, g.node, Value::plus(), tip, g.time);
        correct_appends += 1;

        // TieBreaker: ride the first correct append of the interval,
        // spending every banked token as a private chain on top of it —
        // all later correct appends of the interval extend an "outdated"
        // state and are orphaned.
        if adv == ChainAdversary::TieBreaker && !sched.bank.is_empty() {
            let interval = Some(interval_of(g.time, p.delta));
            if hit_interval != interval {
                let mut tip = correct_block;
                for tok in sched.bank.drain(..) {
                    tip = publish(&mut dag, vis, tok.node, Value::minus(), tip, g.time);
                }
                hit_interval = interval;
            }
        }
    }

    let out = decide(p, &dag, correct_appends);
    scratch::put_dag(dag);
    out
}

/// The common decision: all nodes read the same final memory, select the
/// first longest chain, and take the sign of the sum of its first `k`
/// appends (Algorithm 5 lines 8–10).
fn decide(p: &Params, dag: &TrialDag, correct_appends: usize) -> ChainTrial {
    let chain = canonical_chain(dag);
    let mut sum = 0i64;
    let mut byz_in_prefix = 0usize;
    let mut chain_correct = 0usize;
    for (i, &pos) in chain.iter().skip(1).enumerate() {
        let id = dag.id_at(pos);
        let is_byz = dag.author(id).is_some_and(|a| p.is_byz(a));
        if i < p.k {
            sum += dag.value(id).spin_contribution();
            if is_byz {
                byz_in_prefix += 1;
            }
        }
        if !is_byz {
            chain_correct += 1;
        }
    }
    let decision = Sign::of_sum(sum);
    ChainTrial {
        decision,
        validity: decision == Some(Sign::Plus),
        byz_in_prefix,
        chain_len: chain.len() - 1,
        total_appends: dag.append_count(),
        orphaned_correct: correct_appends.saturating_sub(chain_correct),
        finish_time: dag.now().seconds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure_rate(p0: Params, tie: TieBreak, adv: ChainAdversary, trials: u64) -> f64 {
        let fails = (0..trials)
            .filter(|&s| !run_chain(&p0.with_seed(s), tie, adv).validity)
            .count();
        fails as f64 / trials as f64
    }

    #[test]
    fn no_adversary_decides_plus() {
        for seed in 0..10 {
            let p = Params::new(8, 2, 0.5, 15, seed);
            let out = run_chain(&p, TieBreak::Randomized, ChainAdversary::Absent);
            assert_eq!(out.decision, Some(Sign::Plus), "seed {seed}");
            assert!(out.validity);
            assert_eq!(out.byz_in_prefix, 0);
            assert!(out.chain_len >= p.k);
        }
    }

    #[test]
    fn forks_orphan_correct_appends_at_high_rate() {
        // λ(n−t) ≫ 1: many concurrent correct appends per interval, most
        // orphaned.
        let p = Params::new(16, 0, 1.0, 25, 3); // correct rate 16
        let out = run_chain(&p, TieBreak::Randomized, ChainAdversary::Absent);
        assert!(
            out.orphaned_correct > out.chain_len,
            "high rate must orphan heavily: orphaned {} chain {}",
            out.orphaned_correct,
            out.chain_len
        );
    }

    #[test]
    fn low_rate_produces_clean_chain() {
        // λ(n−t) ≪ 1: roughly one append per interval, few orphans.
        let p = Params::new(8, 0, 0.02, 21, 5); // correct rate 0.16
        let out = run_chain(&p, TieBreak::Randomized, ChainAdversary::Absent);
        assert!(
            (out.orphaned_correct as f64) < 0.2 * out.total_appends as f64,
            "orphaned {} of {}",
            out.orphaned_correct,
            out.total_appends
        );
    }

    #[test]
    fn forkmaker_beats_deterministic_at_one_third() {
        // Theorem 5.3: t/n ≥ 1/3 breaks the deterministic rule.
        let p = Params::new(9, 3, 0.5, 31, 0); // t/n = 1/3
        let rate = failure_rate(p, TieBreak::Deterministic, ChainAdversary::ForkMaker, 60);
        assert!(
            rate > 0.4,
            "fork-maker at t=n/3 must flip/tie often, rate {rate}"
        );
        // Byzantine chain share ≈ 1/2.
        let out = run_chain(&p, TieBreak::Deterministic, ChainAdversary::ForkMaker);
        let share = out.byz_in_prefix as f64 / p.k as f64;
        assert!(share > 0.35, "byz chain share {share} should approach 1/2");
    }

    #[test]
    fn randomized_tie_defends_against_forkmaker() {
        // The same fork strategy against randomized tie-breaking yields a
        // Byzantine share near 1/3 — validity survives at t = n/3.
        let p = Params::new(9, 3, 0.5, 31, 0);
        let rate = failure_rate(p, TieBreak::Randomized, ChainAdversary::ForkMaker, 60);
        assert!(
            rate < 0.35,
            "randomized ties must blunt the fork strategy, rate {rate}"
        );
    }

    #[test]
    fn tiebreaker_kills_randomized_chain_when_lambda_t_big() {
        // λt = 2 ≥ 1: the tie-break adversary claims every second chain
        // slot → validity collapses well below n/2.
        let p = Params::new(12, 4, 0.5, 31, 0); // λt = 2, t/n = 1/3
        let rate = failure_rate(p, TieBreak::Randomized, ChainAdversary::TieBreaker, 60);
        assert!(
            rate > 0.5,
            "tie-breaker with λt=2 must break validity, rate {rate}"
        );
    }

    #[test]
    fn tiebreaker_harmless_when_lambda_t_small() {
        // λt = 0.1 ≪ 1: a token per interval almost never available.
        let p = Params::new(12, 1, 0.1, 31, 0);
        let rate = failure_rate(p, TieBreak::Randomized, ChainAdversary::TieBreaker, 60);
        assert!(rate < 0.2, "λt=0.1 should be tolerable, rate {rate}");
    }

    #[test]
    fn dissenter_chain_share_matches_lambda_t_formula() {
        // A tip-riding Byzantine node claims chain slots at rate λt per
        // interval while the forking correct nodes land ≈ 1 per interval:
        // expected Byzantine chain share ≈ λt/(1+λt). This is the same
        // algebra as the Theorem 5.4 bound (share 1/2 ⇔ λt = 1).
        let p = Params::new(12, 2, 0.3, 61, 0); // λt = 0.6 → share ≈ 0.375
        let mut share_sum = 0.0;
        let trials = 40;
        for s in 0..trials {
            let out = run_chain(
                &p.with_seed(s),
                TieBreak::Randomized,
                ChainAdversary::Dissenter,
            );
            share_sum += out.byz_in_prefix as f64 / p.k as f64;
        }
        let share = share_sum / trials as f64;
        let predicted = 0.6 / 1.6;
        assert!(
            (share - predicted).abs() < 0.12,
            "byz chain share {share} should be ≈ {predicted}"
        );
    }

    #[test]
    fn view_policies_agree_on_the_threshold_shape() {
        // Ablation A5: the interval-snapshot and lagged-Δ readings of
        // synchrony give the same qualitative resilience — well-below the
        // bound both succeed, well-above both fail.
        use crate::params::ViewPolicy;
        let below = Params::new(12, 1, 0.1, 31, 0); // λt = 0.1, bound ≈ 0.48
        let above = Params::new(12, 5, 0.8, 31, 0); // λt = 4, far past bound
        for vp in [ViewPolicy::IntervalSnapshot, ViewPolicy::LaggedDelta] {
            let lo = failure_rate(
                below.with_view_policy(vp),
                TieBreak::Randomized,
                ChainAdversary::TieBreaker,
                40,
            );
            let hi = failure_rate(
                above.with_view_policy(vp),
                TieBreak::Randomized,
                ChainAdversary::TieBreaker,
                40,
            );
            assert!(lo < 0.25, "{vp:?}: below-bound failure {lo}");
            assert!(hi > 0.75, "{vp:?}: above-bound failure {hi}");
        }
    }

    #[test]
    fn lagged_views_fork_at_least_as_much() {
        // A lagged view is exactly Δ old; an interval snapshot is < Δ old.
        // The lagged (older) views are the conservative worst case: they
        // orphan at least as many correct appends.
        use crate::params::ViewPolicy;
        let mut lag_total = 0usize;
        let mut snap_total = 0usize;
        for seed in 0..10 {
            let p = Params::new(16, 0, 1.0, 25, seed);
            snap_total +=
                run_chain(&p, TieBreak::Randomized, ChainAdversary::Absent).orphaned_correct;
            lag_total += run_chain(
                &p.with_view_policy(ViewPolicy::LaggedDelta),
                TieBreak::Randomized,
                ChainAdversary::Absent,
            )
            .orphaned_correct;
        }
        assert!(
            lag_total >= snap_total,
            "lagged {lag_total} must orphan ≥ snapshot {snap_total}"
        );
    }

    #[test]
    fn trial_is_deterministic_per_seed() {
        let p = Params::new(10, 3, 0.5, 21, 99);
        let a = run_chain(&p, TieBreak::Randomized, ChainAdversary::TieBreaker);
        let b = run_chain(&p, TieBreak::Randomized, ChainAdversary::TieBreaker);
        assert_eq!(a, b);
    }

    #[test]
    fn chain_len_reaches_k() {
        let p = Params::new(8, 2, 0.3, 17, 4);
        for adv in [
            ChainAdversary::Absent,
            ChainAdversary::Dissenter,
            ChainAdversary::ForkMaker,
            ChainAdversary::TieBreaker,
        ] {
            let out = run_chain(&p, TieBreak::Randomized, adv);
            assert!(out.chain_len >= p.k, "{adv:?}: {}", out.chain_len);
        }
    }
}
