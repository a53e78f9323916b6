//! Weak agreement and temporal asynchrony (Section 5.3, final paragraph).
//!
//! The paper closes with a warning: Byzantine *agreement* (unlike Nakamoto
//! consensus) requires finality at a fixed prefix, so
//!
//! > "in the case of a temporal asynchrony, the Byzantine nodes could make
//! > sure to add more Byzantine values into the set of the first k
//! > appends. Therefore, temporarily asynchronous nodes would reduce the
//! > resilience of Byzantine agreement on the DAG."
//!
//! This module makes both effects measurable:
//!
//! * [`run_dag_staggered`] — nodes do not all decide on the same snapshot:
//!   an *early* decider reads the moment the k-value condition first
//!   holds; a *late* decider reads up to one Δ later, after the adversary
//!   has released a withheld **reorg chain** (a private side chain forked
//!   below the tip that overtakes the public chain). If the reorg changes
//!   the first-k ordering, the two deciders disagree — agreement holds
//!   only w.h.p., i.e. *weak agreement*.
//! * Temporal asynchrony is modelled by a TTL multiplier: during an
//!   asynchrony window the token authority cannot expire Byzantine grants
//!   (their "Δ" stretches), so the bank — and with it the reorg depth —
//!   grows by that factor.

use crate::chain::{canonical_chain, extend};
use crate::dag::{append, read, select_chain, values_of, DagRule};
use crate::params::{Params, ViewPolicy};
use crate::schedule::{one_shot_budget, GrantSchedule};
use crate::scratch;
use crate::trial_dag::TrialDag;
use crate::view::{SharedLog, Visibility};
use am_core::{DagRead, MsgId, Sign, Value};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Outcome of a staggered-decision DAG trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaggeredTrial {
    /// Decision of the node that read at the first condition-satisfying
    /// moment.
    pub early: Option<Sign>,
    /// Decision of a node reading one Δ later, after the reorg release.
    pub late: Option<Sign>,
    /// Whether the two agree.
    pub agreement: bool,
    /// Whether *both* decisions satisfied validity (+1).
    pub validity: bool,
    /// Length of the released reorg chain.
    pub reorg_len: usize,
}

/// Runs one staggered-decision trial of Algorithm 6 against the
/// withhold-reorg adversary, with the Byzantine TTL stretched by
/// `ttl_factor` (1.0 = fully synchronous; > 1 models a temporal
/// asynchrony window).
pub fn run_dag_staggered(p: &Params, rule: DagRule, ttl_factor: f64) -> StaggeredTrial {
    assert!(ttl_factor >= 1.0);
    let mut dag = scratch::take_dag(p.n);
    let mut tips = scratch::take_parents();
    let mut sched = GrantSchedule::new(p, ttl_factor, one_shot_budget(p), "protocols/dag_stalled");
    let mut shared = SharedLog::new(p.view_policy, p.delta);

    // Phase 1: run until the k-value condition first holds; the adversary
    // only banks (it wants a maximal reorg at the decision boundary).
    loop {
        if dag.len() > p.k && dag.gate_covered() >= p.k {
            break;
        }
        let Some(g) = sched.next() else { break };
        shared.advance_to(g.time, dag.store());
        if sched.is_byz(g.node) {
            sched.bank.push(g);
        } else {
            shared.tips_into(g.node.index(), dag.store(), &mut tips);
            append(&mut dag, g.node, Value::plus(), &tips, g.time);
        }
    }

    // Early decider: reads now. The same read yields the point the
    // adversary forks its **reorg chain** from: a canonical-chain block
    // deep enough that the release strictly overtakes the public tip.
    let reorg_len = sched.bank.len();
    let (early, fork) = read(&mut dag, rule, |dag, chain, order| {
        (decide_on(p, dag, order), reorg_fork_point(chain, reorg_len))
    });

    // Phase 2: the adversary releases its bank as a private chain,
    // rerouting chain selection for anyone who reads after it.
    let at = dag.now();
    let mut tip = fork;
    for tok in sched.bank.drain(..) {
        tip = append(&mut dag, tok.node, Value::minus(), &[tip], at);
    }

    // Late decider: reads after the release (one Δ of skew).
    let late = read(&mut dag, rule, |dag, _, order| decide_on(p, dag, order));

    scratch::put_parents(tips);
    scratch::put_dag(dag);
    StaggeredTrial {
        early,
        late,
        agreement: early == late,
        validity: early == Some(Sign::Plus) && late == Some(Sign::Plus),
        reorg_len,
    }
}

/// Where a withheld chain of `reorg_len` blocks forks off `chain`
/// (root-first positions): deep enough that the release strictly
/// overtakes the public tip (`fork_depth + reorg_len > max_depth`).
fn reorg_fork_point(chain: &[usize], reorg_len: usize) -> MsgId {
    let max_depth = chain.len() - 1; // genesis at depth 0
    MsgId(chain[max_depth.saturating_sub(reorg_len.saturating_sub(2))] as u64)
}

/// The Algorithm 6 decision on one read: the sign of the sum of the first
/// `k` values of the decision `order`.
fn decide_on(p: &Params, dag: &TrialDag, order: &[usize]) -> Option<Sign> {
    Sign::of_sum(
        values_of(dag, order)
            .take(p.k)
            .map(|id| dag.value(id).spin_contribution())
            .sum(),
    )
}

/// Runs one staggered-decision trial of **Algorithm 5** (the chain)
/// against the withhold-reorg adversary — the classic private-side-chain
/// / 51%-style attack. The adversary banks tokens (TTL × `ttl_factor`)
/// and, the moment the public chain reaches length k, releases a private
/// side chain that overtakes it; a decider reading one Δ later follows
/// the replacement chain. Because the chain *orphans* instead of
/// including, a successful reorg replaces the decided suffix wholesale —
/// the chain's weak agreement is strictly more fragile than the DAG's at
/// the same parameters (measured in E12).
pub fn run_chain_staggered(p: &Params, ttl_factor: f64) -> StaggeredTrial {
    assert!(ttl_factor >= 1.0);
    let mut dag = scratch::take_dag(p.n);
    let mut sched =
        GrantSchedule::new(p, ttl_factor, one_shot_budget(p), "protocols/chain_stalled");
    // This runner always reads interval snapshots, whatever `p.view_policy`.
    let mut shared = SharedLog::new(ViewPolicy::IntervalSnapshot, p.delta);
    let mut rng = ChaCha8Rng::seed_from_u64(p.seed ^ 0x5eed5eed5eed5eed);

    // Phase 1: correct nodes build; the adversary only banks.
    while (dag.store().max_depth() as usize) < p.k {
        let Some(g) = sched.next() else { break };
        shared.advance_to(g.time, dag.store());
        if sched.is_byz(g.node) {
            sched.bank.push(g);
            continue;
        }
        let tips = shared.deepest(g.node.index(), dag.store());
        let tip = tips[rng.gen_range(0..tips.len())];
        extend(&mut dag, g.node, Value::plus(), tip, g.time);
    }

    // Early decider: first k blocks of the canonical chain.
    let chain = canonical_chain(&dag);
    let early = chain_decide(p, &dag, &chain);

    // Phase 2: release the private side chain, forked deep enough to
    // strictly overtake the public tip.
    let reorg_len = sched.bank.len();
    if reorg_len > 0 {
        let mut tip = reorg_fork_point(&chain, reorg_len);
        let at = dag.now();
        for tok in sched.bank.drain(..) {
            tip = extend(&mut dag, tok.node, Value::minus(), tip, at);
        }
    }

    // Late decider.
    let late = chain_decide(p, &dag, &canonical_chain(&dag));

    scratch::put_dag(dag);
    StaggeredTrial {
        early,
        late,
        agreement: early == late,
        validity: early == Some(Sign::Plus) && late == Some(Sign::Plus),
        reorg_len,
    }
}

/// The Algorithm 5 decision on a canonical chain (root-first positions):
/// sign of the sum of its first k blocks.
fn chain_decide(p: &Params, dag: &TrialDag, chain: &[usize]) -> Option<Sign> {
    let sum: i64 = chain
        .iter()
        .skip(1)
        .take(p.k)
        .map(|&pos| dag.value(MsgId(pos as u64)).spin_contribution())
        .sum();
    Sign::of_sum(sum)
}

/// Outcome of a full multi-node staggered-decision trial: every correct
/// node decides at its own read.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiTrial {
    /// Per-correct-node decisions, in node order.
    pub decisions: Vec<Option<Sign>>,
    /// Simulated decision time per node.
    pub decide_times: Vec<f64>,
    /// Whether all correct nodes decided the same value.
    pub agreement: bool,
    /// Whether all decided `+1`.
    pub validity: bool,
}

/// Runs Algorithm 6 with *per-node* decision points: each correct node
/// reads every Δ (staggered phases), and decides at its first read where
/// the selected chain covers ≥ k values. The withhold adversary banks
/// tokens (TTL × `ttl_factor`) and releases its reorg the moment the
/// first correct node could decide — so later readers see a different
/// history than early ones.
pub fn run_dag_multinode(p: &Params, rule: DagRule, ttl_factor: f64) -> MultiTrial {
    assert!(ttl_factor >= 1.0);
    let n_corr = p.n_correct();
    let mut dag = scratch::take_dag(p.n);
    let mut tips = scratch::take_parents();
    let mut sched = GrantSchedule::new(p, ttl_factor, one_shot_budget(p), "protocols/dag_stalled");
    let mut shared = SharedLog::new(p.view_policy, p.delta);

    // Per-node read schedule: node i reads at (j + i/n_corr)·Δ.
    let mut next_read: Vec<f64> = (0..n_corr)
        .map(|i| p.delta * (1.0 + i as f64 / n_corr as f64))
        .collect();
    let mut decisions: Vec<Option<Sign>> = vec![None; n_corr];
    let mut decide_times: Vec<f64> = vec![f64::INFINITY; n_corr];
    let mut released = false;

    // Drawn but not yet entered: the reads below happen *before* the
    // grant, with the tokens that were live then.
    'outer: while let Some(g) = sched.draw() {
        // Process reads scheduled before this grant, in time order.
        loop {
            let (i, &t) = match next_read
                .iter()
                .enumerate()
                .filter(|&(i, _)| decisions[i].is_none())
                .min_by(|a, b| a.1.total_cmp(b.1))
            {
                Some(x) => x,
                None => break 'outer, // everyone decided
            };
            if t > g.time.seconds() {
                break;
            }
            next_read[i] = t + p.delta;
            // The adversary releases its reorg the instant a decision is
            // possible, before slower readers catch up. The coverage probe
            // uses the incremental tracker — no snapshot, no DFS.
            if !released && dag.gate_covered() >= p.k && !sched.bank.is_empty() {
                released = true;
                dag.index_children();
                let chain = scratch::with_decision(|ghost, _| select_chain(rule, &dag, ghost));
                let mut tip = reorg_fork_point(&chain, sched.bank.len());
                let at = dag.now();
                for tok in sched.bank.drain(..) {
                    tip = append(&mut dag, tok.node, Value::minus(), &[tip], at);
                }
            }
            // This reader's decision, if its read covers k values.
            let decision = read(&mut dag, rule, |dag, _, order| {
                (values_of(dag, order).count() >= p.k).then(|| decide_on(p, dag, order))
            });
            if let Some(d) = decision {
                decisions[i] = d;
                decide_times[i] = t;
            }
        }

        sched.expire(&g);
        shared.advance_to(g.time, dag.store());
        if sched.is_byz(g.node) {
            sched.bank.push(g);
        } else {
            shared.tips_into(g.node.index(), dag.store(), &mut tips);
            append(&mut dag, g.node, Value::plus(), &tips, g.time);
        }
    }

    scratch::put_parents(tips);
    scratch::put_dag(dag);
    let first = decisions.iter().flatten().next().copied();
    let agreement = decisions.iter().all(|d| d.is_some()) && decisions.iter().all(|d| *d == first);
    let validity = decisions.iter().all(|d| *d == Some(Sign::Plus));
    MultiTrial {
        decisions,
        decide_times,
        agreement,
        validity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disagreement_rate(p0: Params, rule: DagRule, ttl_factor: f64, trials: u64) -> f64 {
        let miss = (0..trials)
            .filter(|&s| !run_dag_staggered(&p0.with_seed(s), rule, ttl_factor).agreement)
            .count();
        miss as f64 / trials as f64
    }

    #[test]
    fn no_byzantine_always_agrees() {
        for seed in 0..10 {
            let p = Params::new(8, 0, 0.4, 21, seed);
            let out = run_dag_staggered(&p, DagRule::LongestChain, 1.0);
            assert!(out.agreement);
            assert!(out.validity);
            assert_eq!(out.reorg_len, 0);
        }
    }

    #[test]
    fn synchronous_staggering_is_mostly_harmless() {
        // TTL factor 1: the bank is one Δ of Byzantine tokens — a shallow
        // reorg that rarely flips a k=41 prefix at t/n = 1/4.
        let p = Params::new(12, 3, 0.4, 41, 0);
        let rate = disagreement_rate(p, DagRule::LongestChain, 1.0, 60);
        assert!(rate < 0.3, "synchronous staggered disagreement {rate}");
    }

    #[test]
    fn temporal_asynchrony_degrades_agreement() {
        // The Section 5.3 claim: stretching the Byzantine TTL (temporal
        // asynchrony) deepens the reorg and hurts weak agreement and/or
        // validity.
        let p = Params::new(12, 4, 0.4, 41, 0);
        let trials = 60;
        let sync_bad = (0..trials)
            .filter(|&s| {
                let o = run_dag_staggered(&p.with_seed(s), DagRule::LongestChain, 1.0);
                !(o.agreement && o.validity)
            })
            .count();
        let async_bad = (0..trials)
            .filter(|&s| {
                let o = run_dag_staggered(&p.with_seed(s), DagRule::LongestChain, 8.0);
                !(o.agreement && o.validity)
            })
            .count();
        assert!(
            async_bad > sync_bad,
            "asynchrony must hurt: sync {sync_bad}, async {async_bad} (of {trials})"
        );
    }

    #[test]
    fn reorg_length_tracks_ttl_factor() {
        let p = Params::new(12, 4, 0.4, 41, 5);
        let short = run_dag_staggered(&p, DagRule::LongestChain, 1.0).reorg_len;
        let mut long_sum = 0usize;
        let mut short_sum = 0usize;
        for s in 0..20 {
            short_sum += run_dag_staggered(&p.with_seed(s), DagRule::LongestChain, 1.0).reorg_len;
            long_sum += run_dag_staggered(&p.with_seed(s), DagRule::LongestChain, 6.0).reorg_len;
        }
        assert!(
            long_sum > 2 * short_sum,
            "TTL×6 must bank much more: {short_sum} vs {long_sum}"
        );
        let _ = short;
    }

    #[test]
    fn larger_k_restores_agreement() {
        // Weak agreement: the disagreement probability shrinks as k grows
        // (the reorg touches a vanishing fraction of the prefix).
        let small = disagreement_rate(
            Params::new(12, 4, 0.4, 15, 0),
            DagRule::LongestChain,
            3.0,
            60,
        );
        let large = disagreement_rate(
            Params::new(12, 4, 0.4, 121, 0),
            DagRule::LongestChain,
            3.0,
            60,
        );
        assert!(
            large <= small,
            "disagreement must not grow with k: k=15 → {small}, k=121 → {large}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Params::new(10, 3, 0.4, 21, 77);
        assert_eq!(
            run_dag_staggered(&p, DagRule::Ghost, 2.0),
            run_dag_staggered(&p, DagRule::Ghost, 2.0)
        );
    }

    #[test]
    fn chain_staggered_runs_and_no_byz_is_clean() {
        for seed in 0..10 {
            let p = Params::new(8, 0, 0.3, 21, seed);
            let out = run_chain_staggered(&p, 1.0);
            assert!(out.agreement && out.validity);
            assert_eq!(out.reorg_len, 0);
        }
    }

    #[test]
    fn reorg_failure_modes_differ_between_structures() {
        // A genuinely asymmetric finding: under a *moderate* asynchrony
        // stretch the two structures fail differently.
        //
        // * The chain decides when its LENGTH reaches k, so a boundary
        //   reorg only swaps a suffix of the k-prefix — the sign of the
        //   sum survives until the bank exceeds ~k/2. Moderate stretches
        //   leave the chain's decision untouched.
        // * The DAG decides when its COVERAGE reaches k, so a reorg that
        //   forks below the tip orphans most of the covered set and can
        //   starve / flip the late decision at much smaller banks.
        let trials = 60;
        let mut chain_bad_mod = 0;
        let mut dag_bad_mod = 0;
        for s in 0..trials {
            let p = Params::new(12, 4, 0.4, 21, s);
            if !{
                let c = run_chain_staggered(&p, 4.0);
                c.agreement && c.validity
            } {
                chain_bad_mod += 1;
            }
            let d = run_dag_staggered(&p, DagRule::LongestChain, 4.0);
            if !(d.agreement && d.validity) {
                dag_bad_mod += 1;
            }
        }
        assert!(
            dag_bad_mod > chain_bad_mod,
            "moderate stretch: coverage-triggered DAG ({dag_bad_mod}) should \
             out-fail length-triggered chain ({chain_bad_mod})"
        );

        // But a *deep* stretch (bank > k/2) flips the chain's majority
        // wholesale — the 51%-style rewrite.
        let mut chain_bad_deep = 0;
        for s in 0..trials {
            let p = Params::new(12, 4, 0.4, 21, s);
            let c = run_chain_staggered(&p, 12.0);
            if !(c.agreement && c.validity) {
                chain_bad_deep += 1;
            }
        }
        assert!(
            chain_bad_deep > trials / 2,
            "deep stretch must rewrite the chain majority: {chain_bad_deep}/{trials}"
        );
    }

    #[test]
    fn chain_staggered_deterministic() {
        let p = Params::new(10, 3, 0.4, 21, 5);
        assert_eq!(run_chain_staggered(&p, 2.0), run_chain_staggered(&p, 2.0));
    }

    #[test]
    fn multinode_all_decide_and_agree_without_byz() {
        let p = Params::new(8, 0, 0.4, 21, 3);
        let out = run_dag_multinode(&p, DagRule::LongestChain, 1.0);
        assert!(out.decisions.iter().all(Option::is_some));
        assert!(out.agreement);
        assert!(out.validity);
        // Decision times are staggered but within a couple of Δ.
        let min = out
            .decide_times
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = out.decide_times.iter().cloned().fold(0.0, f64::max);
        assert!(max - min <= 2.0 * p.delta + 1e-9, "spread {}", max - min);
    }

    #[test]
    fn multinode_agreement_whp_at_large_k() {
        let mut bad = 0;
        let trials = 40;
        for s in 0..trials {
            let p = Params::new(12, 4, 0.4, 81, s);
            let out = run_dag_multinode(&p, DagRule::LongestChain, 1.0);
            if !out.agreement {
                bad += 1;
            }
        }
        assert!(bad <= 2, "large-k multinode disagreements: {bad}/{trials}");
    }

    #[test]
    fn multinode_asynchrony_splits_small_k() {
        // With a stretched TTL and a small k, the mid-decision reorg must
        // split at least some runs — the multi-node form of E11.
        let mut split = 0;
        let trials = 40;
        for s in 0..trials {
            let p = Params::new(12, 4, 0.4, 15, s);
            let out = run_dag_multinode(&p, DagRule::LongestChain, 8.0);
            if !(out.agreement && out.validity) {
                split += 1;
            }
        }
        assert!(split > 0, "stretched-TTL reorg never bit at k=15");
    }

    #[test]
    fn multinode_deterministic_per_seed() {
        let p = Params::new(10, 3, 0.4, 21, 77);
        assert_eq!(
            run_dag_multinode(&p, DagRule::Ghost, 2.0),
            run_dag_multinode(&p, DagRule::Ghost, 2.0)
        );
    }

    #[test]
    fn pivot_rule_also_runs() {
        let p = Params::new(10, 3, 0.4, 21, 3);
        let out = run_dag_staggered(&p, DagRule::Pivot, 1.0);
        assert!(out.early.is_some() || out.late.is_some());
    }
}
