//! Probability distributions, implemented from scratch.
//!
//! The paper's Section 5 analysis lives on three distributions: the Poisson
//! process that gates memory access, the Binomial distribution of "is this
//! append correct or Byzantine", and the Normal approximation used in the
//! validity proofs (central limit theorem plus Gaussian tail bounds).

/// Error function, using the Abramowitz & Stegun 7.1.26 rational
/// approximation (|error| ≤ 1.5e-7 on all of ℝ).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal probability density.
pub fn normal_pdf(x: f64, mu: f64, sigma: f64) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive");
    let z = (x - mu) / sigma;
    (-0.5 * z * z).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt())
}

/// Normal cumulative distribution function `P[X ≤ x]` for `X ~ N(mu, sigma²)`.
pub fn normal_cdf(x: f64, mu: f64, sigma: f64) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive");
    0.5 * (1.0 + erf((x - mu) / (sigma * std::f64::consts::SQRT_2)))
}

/// Gaussian upper-tail bound `P[X - mu ≥ a] ≤ exp(-a²/(2σ²))` — the bound
/// form the paper uses in Theorems 5.2 and 5.6.
pub fn normal_tail_bound(a: f64, sigma: f64) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive");
    if a <= 0.0 {
        return 1.0;
    }
    (-a * a / (2.0 * sigma * sigma)).exp().min(1.0)
}

/// log(k!) via Stirling/lgamma-free summation for small k and Stirling's
/// series for large k (|error| < 1e-10 for k ≥ 20).
pub fn ln_factorial(k: u64) -> f64 {
    if k < 2 {
        return 0.0;
    }
    if k < 256 {
        let mut s = 0.0;
        for i in 2..=k {
            s += (i as f64).ln();
        }
        return s;
    }
    // Stirling's series on ln Γ(k+1).
    let x = k as f64 + 1.0;
    let ln2pi = (2.0 * std::f64::consts::PI).ln();
    (x - 0.5) * x.ln() - x + 0.5 * ln2pi + 1.0 / (12.0 * x) - 1.0 / (360.0 * x.powi(3))
        + 1.0 / (1260.0 * x.powi(5))
}

/// Poisson probability mass `P[X = k]` for `X ~ Pois(lambda)`.
pub fn poisson_pmf(k: u64, lambda: f64) -> f64 {
    assert!(lambda >= 0.0, "lambda must be non-negative");
    if lambda == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    ((k as f64) * lambda.ln() - lambda - ln_factorial(k)).exp()
}

/// Poisson cumulative distribution `P[X ≤ k]`.
pub fn poisson_cdf(k: u64, lambda: f64) -> f64 {
    (0..=k)
        .map(|i| poisson_pmf(i, lambda))
        .sum::<f64>()
        .min(1.0)
}

/// Poisson upper tail `P[X ≥ k]` via the Chernoff bound
/// `exp(-lambda) (e·lambda/k)^k` for `k > lambda`; exact summation would
/// underflow exactly where the paper's w.h.p. arguments live.
pub fn poisson_tail_chernoff(k: u64, lambda: f64) -> f64 {
    assert!(lambda >= 0.0);
    if (k as f64) <= lambda {
        return 1.0;
    }
    let kf = k as f64;
    ((kf * (1.0 + (lambda / kf).ln()) - lambda).exp()).min(1.0)
}

/// Probability that a `Pois(rate)` process produces **zero** events in an
/// interval of length `len` — the "no correct node appends during T"
/// probability at the heart of Lemma 5.5: `exp(-rate·len)`.
pub fn poisson_silence(rate: f64, len: f64) -> f64 {
    assert!(rate >= 0.0 && len >= 0.0);
    (-rate * len).exp()
}

/// Binomial probability mass `P[X = k]` for `X ~ Bin(n, p)`, computed in
/// log space to stay finite for large n.
pub fn binomial_pmf(k: u64, n: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln_choose = ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k);
    (ln_choose + (k as f64) * p.ln() + ((n - k) as f64) * (1.0 - p).ln()).exp()
}

/// Binomial cumulative distribution `P[X ≤ k]`.
pub fn binomial_cdf(k: u64, n: u64, p: f64) -> f64 {
    (0..=k.min(n))
        .map(|i| binomial_pmf(i, n, p))
        .sum::<f64>()
        .min(1.0)
}

/// Binomial upper tail `P[X ≥ k]` for `X ~ Bin(n, p)`, summed term by
/// term from `n` down to `k` (smallest terms first when `k > np`). Not
/// `1 − binomial_cdf(k − 1, …)`: that subtraction cancels to rounding
/// noise exactly where a tail is small enough to matter (1.5e-13 for a
/// 3.3e-25 tail at n = 405).
pub fn binomial_sf(k: u64, n: u64, p: f64) -> f64 {
    (k..=n)
        .rev()
        .map(|i| binomial_pmf(i, n, p))
        .sum::<f64>()
        .min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn erf_known_values() {
        assert!(close(erf(0.0), 0.0, 1e-9));
        assert!(close(erf(1.0), 0.8427007929, 2e-7));
        assert!(close(erf(-1.0), -0.8427007929, 2e-7));
        assert!(close(erf(2.0), 0.9953222650, 2e-7));
        assert!(close(erf(5.0), 1.0, 1e-7));
    }

    #[test]
    fn normal_cdf_symmetry_and_known_values() {
        assert!(close(normal_cdf(0.0, 0.0, 1.0), 0.5, 1e-9));
        assert!(close(normal_cdf(1.96, 0.0, 1.0), 0.975, 1e-3));
        assert!(close(
            normal_cdf(1.0, 0.0, 1.0) + normal_cdf(-1.0, 0.0, 1.0),
            1.0,
            1e-9
        ));
        // Location-scale.
        assert!(close(normal_cdf(10.0, 10.0, 3.0), 0.5, 1e-9));
    }

    #[test]
    fn normal_pdf_integrates_to_one() {
        let mut s = 0.0;
        let h = 0.01;
        let mut x = -8.0;
        while x < 8.0 {
            s += normal_pdf(x, 0.0, 1.0) * h;
            x += h;
        }
        assert!(close(s, 1.0, 1e-3));
    }

    #[test]
    fn normal_tail_bound_dominates_true_tail() {
        for a in [0.5, 1.0, 2.0, 3.0] {
            let true_tail = 1.0 - normal_cdf(a, 0.0, 1.0);
            assert!(normal_tail_bound(a, 1.0) >= true_tail);
        }
        assert_eq!(normal_tail_bound(-1.0, 1.0), 1.0);
    }

    #[test]
    fn ln_factorial_matches_direct() {
        assert!(close(ln_factorial(0), 0.0, 1e-12));
        assert!(close(ln_factorial(1), 0.0, 1e-12));
        assert!(close(ln_factorial(5), 120f64.ln(), 1e-10));
        assert!(close(ln_factorial(10), 3628800f64.ln(), 1e-9));
        // Stirling branch consistency at the switch point.
        let direct: f64 = (2..=300u64).map(|i| (i as f64).ln()).sum();
        assert!(close(ln_factorial(300), direct, 1e-8));
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        for lambda in [0.5, 2.0, 10.0] {
            let s: f64 = (0..200).map(|k| poisson_pmf(k, lambda)).sum();
            assert!(close(s, 1.0, 1e-9), "lambda={lambda}");
        }
    }

    #[test]
    fn poisson_pmf_known_values() {
        assert!(close(poisson_pmf(0, 1.0), (-1.0f64).exp(), 1e-12));
        assert!(close(
            poisson_pmf(2, 3.0),
            9.0 / 2.0 * (-3.0f64).exp(),
            1e-10
        ));
        assert_eq!(poisson_pmf(0, 0.0), 1.0);
        assert_eq!(poisson_pmf(3, 0.0), 0.0);
    }

    #[test]
    fn poisson_cdf_monotone() {
        let mut prev = 0.0;
        for k in 0..30 {
            let c = poisson_cdf(k, 5.0);
            assert!(c >= prev);
            prev = c;
        }
        assert!(close(prev, 1.0, 1e-6));
    }

    #[test]
    fn poisson_chernoff_dominates_exact_tail() {
        let lambda = 4.0;
        for k in 5..20u64 {
            let exact = 1.0 - poisson_cdf(k - 1, lambda);
            assert!(
                poisson_tail_chernoff(k, lambda) + 1e-12 >= exact,
                "k={k}: chernoff {} < exact {}",
                poisson_tail_chernoff(k, lambda),
                exact
            );
        }
        assert_eq!(poisson_tail_chernoff(2, 4.0), 1.0);
    }

    #[test]
    fn poisson_silence_is_exp() {
        assert!(close(poisson_silence(2.0, 3.0), (-6.0f64).exp(), 1e-12));
        assert_eq!(poisson_silence(0.0, 5.0), 1.0);
    }

    #[test]
    fn binomial_pmf_sums_to_one_and_known() {
        let s: f64 = (0..=20).map(|k| binomial_pmf(k, 20, 0.3)).sum();
        assert!(close(s, 1.0, 1e-9));
        assert!(close(binomial_pmf(1, 2, 0.5), 0.5, 1e-12));
        assert!(close(binomial_pmf(0, 10, 0.0), 1.0, 1e-12));
        assert!(close(binomial_pmf(10, 10, 1.0), 1.0, 1e-12));
        assert_eq!(binomial_pmf(5, 3, 0.4), 0.0);
    }

    #[test]
    fn binomial_cdf_median_ish() {
        // Bin(100, 0.5): P[X ≤ 49] just under a half.
        let c = binomial_cdf(49, 100, 0.5);
        assert!(c > 0.4 && c < 0.5);
        assert!(close(binomial_cdf(100, 100, 0.5), 1.0, 1e-9));
    }

    #[test]
    fn binomial_sf_is_the_upper_tail() {
        assert!(close(binomial_sf(0, 20, 0.3), 1.0, 1e-12));
        assert_eq!(binomial_sf(21, 20, 0.3), 0.0);
        assert!(close(binomial_sf(20, 20, 0.3), 0.3f64.powi(20), 1e-24));
        for k in 1..=20 {
            let split = binomial_cdf(k - 1, 20, 0.3) + binomial_sf(k, 20, 0.3);
            assert!(close(split, 1.0, 1e-12), "k = {k}");
        }
    }

    #[test]
    fn binomial_large_n_stable() {
        // Must not over/underflow for n = 10_000.
        let p = binomial_pmf(5000, 10_000, 0.5);
        assert!(p > 0.0 && p < 1.0);
        assert!(close(p, 0.00797871, 1e-5)); // ≈ 1/sqrt(pi*n/2)
    }
}
