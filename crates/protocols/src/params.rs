//! Shared parameters of the Section 5 experiments.

use am_core::NodeId;
use am_net::NetConfig;

/// How a correct node's append-time view lags the true memory (both are
/// admissible readings of "synchronous nodes with bound Δ"; ablation A5
/// checks the thresholds agree).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewPolicy {
    /// The view is the memory at the start of the current Δ-interval
    /// (view age < Δ) — appends within one interval are mutually
    /// concurrent.
    IntervalSnapshot,
    /// The view is the memory as of `grant time − Δ` (view age exactly
    /// Δ) — the conservative worst case of the synchrony bound; orphans
    /// at least as much as the interval snapshot.
    LaggedDelta,
}

/// Parameters of one randomized-access trial.
///
/// Correct nodes are `0 .. n-t` and all hold input `+1` (the validity
/// scenario — the paper's adversary analysis assumes the all-same-input
/// case and a Byzantine side writing `-1`, "otherwise the Byzantine
/// strategy would not be optimal"). Byzantine nodes are `n-t .. n`.
///
/// Construct through the validating [`Params::new`], then vary one field
/// with the `with_*` methods.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Total nodes.
    pub n: usize,
    /// Byzantine count.
    pub t: usize,
    /// Per-node token rate per interval Δ (the paper's λ).
    pub lambda: f64,
    /// The synchrony interval Δ; a token lives one Δ (see crate docs).
    pub delta: f64,
    /// Decision prefix size k (choose odd to avoid ties).
    pub k: usize,
    /// How correct views lag the memory.
    pub view_policy: ViewPolicy,
    /// Trial seed.
    pub seed: u64,
    /// Optional network configuration: when set, trials run with real
    /// block propagation over an `am-net` simulator instead of the
    /// abstract interval-snapshot views (see [`crate::propagation`]).
    pub net: Option<NetConfig>,
}

impl Params {
    /// Δ = 1, interval-snapshot views, reliable network. Panics unless
    /// `t < n`, `λ > 0` (NaN rejected) and `k ≥ 1`: outside them a trial's
    /// failure tally is meaningless.
    pub fn new(n: usize, t: usize, lambda: f64, k: usize, seed: u64) -> Params {
        assert!(t < n, "invalid Params: need t < n, got t = {t}, n = {n}");
        assert!(lambda > 0.0, "invalid Params: need λ > 0, got {lambda}");
        assert!(k >= 1, "invalid Params: need decision prefix k ≥ 1, got 0");
        Params {
            n,
            t,
            lambda,
            delta: 1.0,
            k,
            view_policy: ViewPolicy::IntervalSnapshot,
            seed,
            net: None,
        }
    }

    /// Same parameters with a different view policy (ablation A5).
    #[must_use]
    pub fn with_view_policy(mut self, vp: ViewPolicy) -> Params {
        self.view_policy = vp;
        self
    }

    /// Same parameters with trials run over a faulty network (E14/E17/
    /// E18).
    #[must_use]
    pub fn with_net(mut self, cfg: NetConfig) -> Params {
        self.net = Some(cfg);
        self
    }

    /// Number of correct nodes.
    pub fn n_correct(&self) -> usize {
        self.n - self.t
    }

    /// Whether `node` is Byzantine (the last `t` ids are).
    pub fn is_byz(&self, node: NodeId) -> bool {
        node.index() >= self.n_correct()
    }

    /// The Byzantine node ids.
    pub fn byz_nodes(&self) -> Vec<NodeId> {
        (self.n_correct()..self.n)
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// The correct-append rate per interval, λ·(n−t) — the quantity the
    /// Theorem 5.4 resilience bound is phrased in.
    pub fn correct_rate(&self) -> f64 {
        self.lambda * self.n_correct() as f64
    }

    /// The Byzantine token rate per interval, λ·t.
    pub fn byz_rate(&self) -> f64 {
        self.lambda * self.t as f64
    }

    /// Same parameters with a different seed (Monte-Carlo fan-out).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Params {
        self.seed = seed;
        self
    }

    /// Same parameters with a different Byzantine count.
    #[must_use]
    pub fn with_t(mut self, t: usize) -> Params {
        assert!(t < self.n);
        self.t = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let p = Params::new(10, 3, 0.5, 21, 1);
        assert_eq!(p.n_correct(), 7);
        assert_eq!(p.byz_nodes().len(), 3);
        assert_eq!(p.byz_nodes()[0], NodeId(7));
        assert!(p.is_byz(NodeId(7)) && !p.is_byz(NodeId(6)));
        assert!((p.correct_rate() - 3.5).abs() < 1e-12);
        assert!((p.byz_rate() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn with_seed_and_t() {
        let p = Params::new(8, 2, 1.0, 11, 5);
        assert_eq!(p.with_seed(9).seed, 9);
        assert_eq!(p.with_t(3).t, 3);
        assert_eq!(p.with_t(3).n, 8);
    }

    #[test]
    #[should_panic(expected = "t < n")]
    fn rejects_t_ge_n() {
        let _ = Params::new(4, 4, 1.0, 3, 0);
    }

    #[test]
    #[should_panic(expected = "λ > 0")]
    fn rejects_zero_lambda() {
        let _ = Params::new(8, 3, 0.0, 21, 0);
    }

    #[test]
    #[should_panic(expected = "λ > 0")]
    fn rejects_nan_lambda() {
        let _ = Params::new(8, 3, f64::NAN, 21, 0);
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn rejects_zero_k() {
        let _ = Params::new(8, 3, 0.5, 0, 0);
    }
}
