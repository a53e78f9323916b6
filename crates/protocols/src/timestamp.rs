//! Algorithm 4: Byzantine agreement with absolute timestamps.
//!
//! "All appends to the memory will be equipped with an absolute timestamp
//! handed out by a central authority … Order all appends by the
//! timestamps; decide on the sign of the sum of the first k appends."
//!
//! With timestamps the DAG/chain machinery is unnecessary: the first `k`
//! token grants decide. Each grant is a correct `+1` with probability
//! `(n−t)/n` and a Byzantine `−1` otherwise (the paper's worst-case
//! Byzantine side always writes `−1`), so the trial reduces to sampling
//! the grant stream — which is exactly what this runner does, keeping the
//! memory around so the invariants stay checkable.

use crate::params::Params;
use crate::scratch;
use am_core::{Sign, Value, GENESIS};
use am_poisson::TokenAuthority;

/// Outcome of one Algorithm 4 trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimestampTrial {
    /// The decision (`None` on an exact tie — avoided by odd `k`).
    pub decision: Option<Sign>,
    /// Byzantine appends among the first `k`.
    pub byz_in_prefix: usize,
    /// Whether validity held (all correct inputs are `+1`, so validity ⇔
    /// the decision is `+1`).
    pub validity: bool,
}

/// Runs one trial of Algorithm 4 under worst-case Byzantine behaviour.
pub fn run_timestamp(p: &Params) -> TimestampTrial {
    let mut dag = scratch::take_dag(p.n);
    let mut auth = TokenAuthority::new(p.n, p.lambda, p.delta, &p.byz_nodes(), p.seed);
    let mut byz_in_prefix = 0usize;
    let mut sum = 0i64;

    for _ in 0..p.k {
        let g = auth.next_grant();
        let byz = auth.is_byz(g.node);
        let value = if byz { Value::minus() } else { Value::plus() };
        dag.append(g.node, value, &[GENESIS], g.time)
            .expect("timestamped append is valid");
        if byz {
            byz_in_prefix += 1;
            sum -= 1;
        } else {
            sum += 1;
        }
    }
    scratch::put_dag(dag);

    // All nodes share the timestamp order, so the decision is common: the
    // sign of the sum of the first k appends.
    let decision = Sign::of_sum(sum);
    TimestampTrial {
        decision,
        byz_in_prefix,
        validity: decision == Some(Sign::Plus),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_byzantine_always_valid() {
        for seed in 0..20 {
            let p = Params::new(8, 0, 1.0, 15, seed);
            let out = run_timestamp(&p);
            assert!(out.validity);
            assert_eq!(out.byz_in_prefix, 0);
            assert_eq!(out.decision, Some(Sign::Plus));
        }
    }

    #[test]
    fn odd_k_never_ties() {
        for seed in 0..50 {
            let p = Params::new(8, 3, 1.0, 21, seed);
            let out = run_timestamp(&p);
            assert!(out.decision.is_some(), "odd k cannot tie");
        }
    }

    #[test]
    fn byz_prefix_share_matches_t_over_n() {
        let mut total = 0usize;
        let trials = 300;
        let k = 41;
        for seed in 0..trials {
            let p = Params::new(10, 3, 1.0, k, seed);
            total += run_timestamp(&p).byz_in_prefix;
        }
        let share = total as f64 / (trials as usize * k) as f64;
        assert!(
            (share - 0.3).abs() < 0.03,
            "byz prefix share {share} should be ≈ t/n = 0.3"
        );
    }

    #[test]
    fn failure_rate_drops_with_k() {
        // Theorem 5.2 shape: larger k → fewer validity failures.
        let fail_rate = |k: usize| {
            let trials = 400u64;
            let fails = (0..trials)
                .filter(|&s| !run_timestamp(&Params::new(10, 4, 1.0, k, s)).validity)
                .count();
            fails as f64 / trials as f64
        };
        let small = fail_rate(5);
        let large = fail_rate(101);
        assert!(
            large < small || small == 0.0,
            "failure must drop with k: k=5 → {small}, k=101 → {large}"
        );
        assert!(
            large < 0.05,
            "k=101 with gap 0.2n must almost never fail: {large}"
        );
    }

    #[test]
    fn beyond_half_usually_fails() {
        // t > n/2: Byzantine majority of grants → validity collapses.
        let trials = 200u64;
        let fails = (0..trials)
            .filter(|&s| !run_timestamp(&Params::new(10, 7, 1.0, 41, s)).validity)
            .count();
        assert!(
            fails as f64 / trials as f64 > 0.9,
            "t=0.7n must fail almost always, failed {fails}/{trials}"
        );
    }

    #[test]
    fn failure_rate_matches_the_exact_binomial_tail() {
        // P[Bin(5, 0.4) ≥ 3] = 0.31744; 4 000 trials put it inside their
        // 99.9 % Wilson interval (z = 3.2905), half-width ≈ 0.024.
        let exact = am_stats::timestamp_validity_failure_exact(5, 10, 4);
        assert!((exact - 0.31744).abs() < 1e-12);
        let mut fails = am_stats::Proportion::new();
        for seed in 0..4_000 {
            fails.record(!run_timestamp(&Params::new(10, 4, 1.0, 5, seed)).validity);
        }
        let ci = fails.wilson(3.2905);
        assert!(
            ci.contains(exact),
            "{} failures in 4000 trials, CI [{}, {}]",
            fails.estimate(),
            ci.lo,
            ci.hi
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Params::new(9, 2, 0.7, 17, 1234);
        assert_eq!(run_timestamp(&p), run_timestamp(&p));
    }
}
