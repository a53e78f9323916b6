//! The paper's closed-form bounds, as executable functions.
//!
//! Each experiment prints these next to its measured values; the theorem
//! numbers refer to "The Append Memory Model: Why BlockDAGs Excel
//! Blockchains" (SPAA 2020).

/// **Theorem 5.4**: the resilience of Byzantine agreement on the chain with
/// randomized tie-breaking: `t/n ≤ 1 / (1 + λ(n − t))`.
///
/// Takes the *correct-append rate* `r = λ·(n−t)` per interval Δ and returns
/// the maximal tolerable Byzantine fraction. `r = 1 → 1/2`, `r = 2 → 1/3`.
///
/// ```
/// use am_stats::chain_resilience_bound;
/// assert_eq!(chain_resilience_bound(1.0), 0.5);
/// assert!((chain_resilience_bound(2.0) - 1.0/3.0).abs() < 1e-12);
/// ```
pub fn chain_resilience_bound(correct_rate: f64) -> f64 {
    assert!(correct_rate >= 0.0, "rate must be non-negative");
    1.0 / (1.0 + correct_rate)
}

/// **Theorem 5.3**: the deterministic tie-breaking rule fails at `t ≥ n/3`;
/// the tolerable fraction is therefore `1/3` regardless of the rate.
pub fn chain_deterministic_resilience_bound() -> f64 {
    1.0 / 3.0
}

/// **Theorem 5.2**: upper bound on the probability that the
/// absolute-timestamp baseline (Algorithm 4) violates validity: the
/// Gaussian tail `exp(−μ²/(2σ²))` with `μ = k(n−2t)/n` and
/// `σ² = k − μ²` (clamped to the Bernoulli-sum variance when the paper's
/// simplification would go non-positive).
pub fn timestamp_validity_failure_bound(k: u64, n: u64, t: u64) -> f64 {
    assert!(t < n, "t must be less than n");
    if k == 0 {
        return 1.0;
    }
    let kf = k as f64;
    let gap = (n - 2 * t.min(n / 2)) as f64;
    let p_gap = (n as f64 - 2.0 * t as f64) / n as f64; // may be ≤ 0 if t ≥ n/2
    if p_gap <= 0.0 {
        return 1.0;
    }
    let mu = kf * p_gap;
    // Variance of the sum of k ±1 coin flips with bias p_gap: k(1 − p_gap²).
    let sigma2 = (kf * (1.0 - p_gap * p_gap)).max(f64::MIN_POSITIVE);
    let _ = gap;
    (-(mu * mu) / (2.0 * sigma2)).exp().min(1.0)
}

/// **Theorem 5.2, exact**: the probability that the absolute-timestamp
/// baseline (Algorithm 4) violates validity. Every node accesses the
/// memory at the same rate, so each of the first `k` appends is Byzantine
/// with probability `t/n`, independently, and the decision is the sign of
/// (correct − Byzantine) = `k − 2B`. Validity fails unless that is
/// positive: `P[Bin(k, t/n) ≥ ⌈k/2⌉]` — a tie fails too, since a zero sum
/// decides nothing (`Sign::of_sum(0)` is `None`).
///
/// [`timestamp_validity_failure_bound`] is a Gaussian approximation of
/// this value, not a bound on it: at `n = 50, t = 13, k = 405` it reads
/// 4.7e-27 against an exact 3.3e-25.
pub fn timestamp_validity_failure_exact(k: u64, n: u64, t: u64) -> f64 {
    assert!(t < n, "t must be less than n");
    crate::dist::binomial_sf(k.div_ceil(2), k, t as f64 / n as f64)
}

/// **Lemma 5.5**: bound on the length of a correct-silence interval: the
/// probability that no correct node appends for time `Δ·log n` is at most
/// `n^{−λ(n−t)/n·…}`; we expose the direct form
/// `P[T > x] = exp(−rate_corr · x)` with `rate_corr = λ(n−t)/Δ`, evaluated
/// at `x = Δ·log n`.
pub fn silence_interval_tail(lambda: f64, n: u64, t: u64, delta: f64) -> f64 {
    assert!(t < n);
    let rate_corr = lambda * ((n - t) as f64) / delta;
    (-(rate_corr) * delta * (n as f64).ln()).exp()
}

/// **Lemma 5.5**: w.h.p. bound on the number of *extra* Byzantine values the
/// withheld chain can insert before the decision: `O(λ log n)`; we return
/// the paper's explicit `2·λ·log n` figure.
pub fn withhold_burst_bound(lambda: f64, n: u64) -> f64 {
    2.0 * lambda * (n as f64).ln()
}

/// **Theorem 5.6**: upper bound on the DAG validity failure — same Gaussian
/// machinery as Theorem 5.2 but the correct margin must additionally beat
/// the Lemma 5.5 burst of `2λ log n`:
/// `P[Σ Y_i < 2λ log n] ≤ exp(−(√k·(n−2t)/n − λ log n/√(2k))²)`.
pub fn dag_validity_failure_bound(k: u64, n: u64, t: u64, lambda: f64) -> f64 {
    assert!(t < n);
    if k == 0 {
        return 1.0;
    }
    let kf = k as f64;
    let p_gap = (n as f64 - 2.0 * t as f64) / n as f64;
    if p_gap <= 0.0 {
        return 1.0;
    }
    let margin = kf.sqrt() * p_gap - lambda * (n as f64).ln() / (2.0 * kf).sqrt();
    if margin <= 0.0 {
        return 1.0;
    }
    (-(margin * margin)).exp().min(1.0)
}

/// Minimal `k` for which [`timestamp_validity_failure_bound`] drops below
/// `eps` — the "k = Ω(n log n) vs Ω(log n)" dichotomy of Theorem 5.2,
/// found by doubling + binary search.
pub fn timestamp_k_required(n: u64, t: u64, eps: f64) -> u64 {
    assert!(eps > 0.0 && eps < 1.0);
    let ok = |k: u64| timestamp_validity_failure_bound(k, n, t) < eps;
    let mut hi = 1u64;
    while !ok(hi) {
        hi *= 2;
        if hi > 1 << 40 {
            return hi; // diverges (t ≥ n/2)
        }
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if ok(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_bound_headline_values() {
        // "for λ·(n−t) = 1, the resilience is ≤ 1/2 while for λ·(n−t) = 2
        // it is ≤ 1/3."
        assert!((chain_resilience_bound(1.0) - 0.5).abs() < 1e-12);
        assert!((chain_resilience_bound(2.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((chain_resilience_bound(0.0) - 1.0).abs() < 1e-12);
        assert!(chain_resilience_bound(10.0) < 0.1);
    }

    #[test]
    fn chain_bound_is_decreasing_in_rate() {
        let mut prev = f64::INFINITY;
        for i in 0..20 {
            let r = i as f64 * 0.5;
            let b = chain_resilience_bound(r);
            assert!(b <= prev);
            prev = b;
        }
    }

    #[test]
    fn deterministic_bound_is_one_third() {
        assert!((chain_deterministic_resilience_bound() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn timestamp_bound_decreases_in_k() {
        let n = 100;
        let t = 30;
        let mut prev = 1.0;
        for k in [1u64, 4, 16, 64, 256] {
            let b = timestamp_validity_failure_bound(k, n, t);
            assert!(b <= prev + 1e-12, "k={k}");
            prev = b;
        }
        assert!(prev < 1e-6);
    }

    #[test]
    fn timestamp_bound_trivial_beyond_half() {
        assert_eq!(timestamp_validity_failure_bound(100, 10, 5), 1.0);
        assert_eq!(timestamp_validity_failure_bound(100, 10, 7), 1.0);
        assert_eq!(timestamp_validity_failure_bound(0, 10, 2), 1.0);
    }

    /// Hoeffding's inequality for the Byzantine count of the prefix:
    /// `P[B ≥ k/2] ≤ exp(−2k(½ − t/n)²)`.
    fn hoeffding(k: u64, n: u64, t: u64) -> f64 {
        let gap = 0.5 - t as f64 / n as f64;
        (-2.0 * k as f64 * gap * gap).exp()
    }

    #[test]
    fn timestamp_exact_failure_at_the_pinned_point() {
        let (k, n, t) = (405, 50, 13);
        let exact = timestamp_validity_failure_exact(k, n, t);
        // Σ_{i ≥ 203} C(405, i) 0.26^i 0.74^(405−i), in exact rationals:
        // 3.33779e-25.
        assert!((exact / 3.33779e-25 - 1.0).abs() < 1e-4, "{exact:e}");
        // The finding: the Gaussian "bound" sits two orders of magnitude
        // below the exact value.
        let gaussian = timestamp_validity_failure_bound(k, n, t);
        assert!((gaussian / 4.69312e-27 - 1.0).abs() < 1e-4, "{gaussian:e}");
        assert!(gaussian < exact / 50.0);
        // Hoeffding (5.46e-21) does hold.
        let h = hoeffding(k, n, t);
        assert!((h / 5.46458e-21 - 1.0).abs() < 1e-4, "{h:e}");
        assert!(h >= exact);
        // Why the tail is summed directly: the complement of the CDF is
        // rounding noise here (1.5e-13 on x86-64), not the tail.
        let complement = 1.0 - crate::dist::binomial_cdf(202, k, 0.26);
        assert!((complement - exact).abs() >= exact, "{complement:e}");
    }

    #[test]
    fn timestamp_exact_failure_matches_enumeration() {
        for (n, t) in [(10, 4), (7, 3), (5, 1), (9, 0), (3, 1)] {
            let p = t as f64 / n as f64;
            for k in 0..=10u32 {
                // Every Byzantine/correct pattern of the prefix, weighted
                // by its probability; a pattern fails unless correct
                // appends outnumber Byzantine ones.
                let mut fail = 0.0;
                for pattern in 0..1u32 << k {
                    let byz = pattern.count_ones() as i32;
                    let sum = k as i32 - 2 * byz;
                    if sum <= 0 {
                        fail += p.powi(byz) * (1.0 - p).powi(k as i32 - byz);
                    }
                }
                let exact = timestamp_validity_failure_exact(k as u64, n, t);
                assert!(
                    (exact - fail).abs() < 1e-12,
                    "n = {n}, t = {t}, k = {k}: {exact} vs {fail}"
                );
                assert!(exact <= hoeffding(k as u64, n, t) + 1e-12);
            }
        }
        assert!((timestamp_validity_failure_exact(5, 10, 4) - 0.31744).abs() < 1e-12);
    }

    #[test]
    fn timestamp_k_dichotomy() {
        // Gap Θ(1): k required grows superlinearly in n.
        // Gap Θ(n): k required grows like log n.
        let eps = 1e-3;
        let k_small_gap_64 = timestamp_k_required(64, 31, eps);
        let k_small_gap_256 = timestamp_k_required(256, 127, eps);
        let k_big_gap_64 = timestamp_k_required(64, 16, eps);
        let k_big_gap_256 = timestamp_k_required(256, 64, eps);
        assert!(
            k_small_gap_256 >= 8 * k_small_gap_64,
            "constant gap must scale ~n²: {k_small_gap_64} → {k_small_gap_256}"
        );
        assert!(
            k_big_gap_256 <= 2 * k_big_gap_64,
            "linear gap must scale ~const: {k_big_gap_64} → {k_big_gap_256}"
        );
    }

    #[test]
    fn silence_tail_shrinks_with_n() {
        let a = silence_interval_tail(0.5, 16, 4, 1.0);
        let b = silence_interval_tail(0.5, 256, 64, 1.0);
        assert!(b < a);
        assert!(a < 1.0);
    }

    #[test]
    fn withhold_burst_is_log_n() {
        let b16 = withhold_burst_bound(1.0, 16);
        let b256 = withhold_burst_bound(1.0, 256);
        assert!(b256 / b16 < 3.0, "log growth only");
        assert!((withhold_burst_bound(2.0, 16) - 2.0 * b16).abs() < 1e-12);
    }

    #[test]
    fn dag_bound_decreases_in_k_and_is_rate_sensitive_only_via_burst() {
        let n = 128;
        let t = 40;
        let lambda = 0.5;
        let mut prev = 1.0;
        for k in [8u64, 32, 128, 512, 2048] {
            let b = dag_validity_failure_bound(k, n, t, lambda);
            assert!(b <= prev + 1e-12);
            prev = b;
        }
        assert!(prev < 1e-6);
        // For tiny k the burst dominates and the bound is vacuous.
        assert_eq!(dag_validity_failure_bound(1, n, t, 4.0), 1.0);
        assert_eq!(dag_validity_failure_bound(100, n, 70, lambda), 1.0);
    }
}
