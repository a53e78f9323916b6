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
/// Construct through [`Params::builder`] (validating, returns
/// `Result`) or [`Params::new`] (panicking shorthand for tests and
/// fixed scripts). The fields stay public for reading, but building a
/// `Params` literal by hand skips validation and is deprecated — a
/// `t ≥ n` or `λ ≤ 0` literal produces trials whose failure tallies are
/// meaningless.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Total nodes.
    pub n: usize,
    /// Byzantine count.
    pub t: usize,
    /// Per-node token rate per interval Δ (the paper's λ).
    pub lambda: f64,
    /// The synchrony interval Δ.
    pub delta: f64,
    /// Decision prefix size k (choose odd to avoid ties).
    pub k: usize,
    /// Token lifetime in units of Δ (see crate docs; 1.0 is the model
    /// default).
    pub token_ttl: f64,
    /// How correct views lag the memory.
    pub view_policy: ViewPolicy,
    /// Trial seed.
    pub seed: u64,
    /// Optional network configuration: when set, trials run with real
    /// block propagation over an `am-net` simulator instead of the
    /// abstract interval-snapshot views (see [`crate::propagation`]).
    pub net: Option<NetConfig>,
}

/// Why a [`ParamsBuilder`] rejected its inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParamError {
    /// `t ≥ n`: there must be at least one correct node.
    ByzantineMajority {
        /// The offending Byzantine count.
        t: usize,
        /// The total node count.
        n: usize,
    },
    /// `λ ≤ 0` (or NaN): the token process needs a positive rate.
    NonPositiveLambda(f64),
    /// `k = 0`: the decision prefix must contain at least one append.
    ZeroHorizon,
    /// `Δ ≤ 0` (or NaN): the synchrony interval must be positive.
    NonPositiveDelta(f64),
    /// Token TTL ≤ 0 (or NaN): grants must live for a positive time.
    NonPositiveTtl(f64),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::ByzantineMajority { t, n } => {
                write!(f, "need t < n, got t = {t}, n = {n}")
            }
            ParamError::NonPositiveLambda(l) => write!(f, "need λ > 0, got {l}"),
            ParamError::ZeroHorizon => write!(f, "need decision prefix k ≥ 1, got 0"),
            ParamError::NonPositiveDelta(d) => write!(f, "need Δ > 0, got {d}"),
            ParamError::NonPositiveTtl(ttl) => write!(f, "need token TTL > 0, got {ttl}"),
        }
    }
}

impl std::error::Error for ParamError {}

/// Validating builder for [`Params`]; see [`Params::builder`].
#[derive(Clone, Copy, Debug)]
pub struct ParamsBuilder {
    n: usize,
    t: usize,
    lambda: f64,
    delta: f64,
    k: usize,
    token_ttl: f64,
    view_policy: ViewPolicy,
    seed: u64,
    net: Option<NetConfig>,
}

impl ParamsBuilder {
    /// Total nodes.
    #[must_use]
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Byzantine count.
    #[must_use]
    pub fn t(mut self, t: usize) -> Self {
        self.t = t;
        self
    }

    /// Per-node token rate per interval Δ.
    #[must_use]
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// The synchrony interval Δ.
    #[must_use]
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Decision prefix size k.
    #[must_use]
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Token lifetime in units of Δ.
    #[must_use]
    pub fn token_ttl(mut self, ttl: f64) -> Self {
        self.token_ttl = ttl;
        self
    }

    /// How correct views lag the memory.
    #[must_use]
    pub fn view_policy(mut self, vp: ViewPolicy) -> Self {
        self.view_policy = vp;
        self
    }

    /// Trial seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run trials over a faulty network.
    #[must_use]
    pub fn net(mut self, cfg: NetConfig) -> Self {
        self.net = Some(cfg);
        self
    }

    /// Validates and builds. Rejects `t ≥ n`, non-positive `λ`/`Δ`/TTL,
    /// and a zero decision horizon.
    pub fn build(self) -> Result<Params, ParamError> {
        if self.t >= self.n {
            return Err(ParamError::ByzantineMajority {
                t: self.t,
                n: self.n,
            });
        }
        // `is_nan() ||` keeps the checks rejecting NaN alongside x ≤ 0.
        if self.lambda.is_nan() || self.lambda <= 0.0 {
            return Err(ParamError::NonPositiveLambda(self.lambda));
        }
        if self.k == 0 {
            return Err(ParamError::ZeroHorizon);
        }
        if self.delta.is_nan() || self.delta <= 0.0 {
            return Err(ParamError::NonPositiveDelta(self.delta));
        }
        if self.token_ttl.is_nan() || self.token_ttl <= 0.0 {
            return Err(ParamError::NonPositiveTtl(self.token_ttl));
        }
        Ok(Params {
            n: self.n,
            t: self.t,
            lambda: self.lambda,
            delta: self.delta,
            k: self.k,
            token_ttl: self.token_ttl,
            view_policy: self.view_policy,
            seed: self.seed,
            net: self.net,
        })
    }
}

impl Params {
    /// A validating builder with the conventional defaults (Δ = 1,
    /// TTL = 1Δ, interval-snapshot views, seed 0, reliable network):
    ///
    /// ```
    /// use am_protocols::Params;
    /// let p = Params::builder().n(8).t(3).lambda(0.5).k(21).build().unwrap();
    /// assert_eq!(p.n_correct(), 5);
    /// assert!(Params::builder().n(4).t(4).lambda(1.0).k(3).build().is_err());
    /// ```
    pub fn builder() -> ParamsBuilder {
        ParamsBuilder {
            n: 4,
            t: 0,
            lambda: 1.0,
            delta: 1.0,
            k: 1,
            token_ttl: 1.0,
            view_policy: ViewPolicy::IntervalSnapshot,
            seed: 0,
            net: None,
        }
    }

    /// Conventional defaults: Δ = 1, TTL = 1Δ. Panicking wrapper over
    /// [`Params::builder`] for tests and fixed experiment scripts; use
    /// the builder when the inputs are not compile-time constants.
    pub fn new(n: usize, t: usize, lambda: f64, k: usize, seed: u64) -> Params {
        match Params::builder()
            .n(n)
            .t(t)
            .lambda(lambda)
            .k(k)
            .seed(seed)
            .build()
        {
            Ok(p) => p,
            Err(e) => panic!("invalid Params (need t < n, λ > 0, k ≥ 1): {e}"),
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
    fn builder_accepts_and_matches_new() {
        let built = Params::builder()
            .n(10)
            .t(3)
            .lambda(0.5)
            .k(21)
            .seed(7)
            .build()
            .expect("valid params");
        assert_eq!(built, Params::new(10, 3, 0.5, 21, 7));
        let full = Params::builder()
            .n(8)
            .t(2)
            .lambda(0.4)
            .delta(2.0)
            .k(11)
            .token_ttl(3.0)
            .view_policy(ViewPolicy::LaggedDelta)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(full.delta, 2.0);
        assert_eq!(full.token_ttl, 3.0);
        assert_eq!(full.view_policy, ViewPolicy::LaggedDelta);
    }

    #[test]
    fn builder_rejects_each_invalid_input() {
        let base = || Params::builder().n(8).t(3).lambda(0.5).k(21);
        assert_eq!(
            base().t(8).build(),
            Err(ParamError::ByzantineMajority { t: 8, n: 8 })
        );
        assert_eq!(
            base().lambda(0.0).build(),
            Err(ParamError::NonPositiveLambda(0.0))
        );
        assert!(matches!(
            base().lambda(f64::NAN).build(),
            Err(ParamError::NonPositiveLambda(_))
        ));
        assert_eq!(base().k(0).build(), Err(ParamError::ZeroHorizon));
        assert_eq!(
            base().delta(-1.0).build(),
            Err(ParamError::NonPositiveDelta(-1.0))
        );
        assert_eq!(
            base().token_ttl(0.0).build(),
            Err(ParamError::NonPositiveTtl(0.0))
        );
    }

    #[test]
    fn param_errors_render_their_constraint() {
        let e = ParamError::ByzantineMajority { t: 5, n: 4 };
        assert!(e.to_string().contains("t < n"));
        assert!(ParamError::ZeroHorizon.to_string().contains("k ≥ 1"));
        assert!(ParamError::NonPositiveLambda(-0.5)
            .to_string()
            .contains("λ > 0"));
    }
}
