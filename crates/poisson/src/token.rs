//! The token authority: randomized append access.
//!
//! "An append operation … will require a token that is given to the node
//! by some authority who controls the access." The authority samples the
//! merged Poisson stream and hands out [`Grant`]s. Correct nodes must
//! spend a grant immediately (synchronous nodes, Section 5: the access
//! rate is tied to Δ); Byzantine nodes may *bank* grants and spend them in
//! a burst later — the withholding power behind Lemma 5.5.

use crate::process::MergedPoisson;
use am_core::{NodeId, Time};

/// One append token: `node` may append at `time`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grant {
    /// The granted node.
    pub node: NodeId,
    /// The grant (and, for correct nodes, spend) time.
    pub time: Time,
}

/// A seeded, replayable stream of grants. Banking Byzantine grants is
/// the caller's job (the trial runners keep their bank in
/// `am_protocols`' grant schedule).
///
/// ```
/// use am_poisson::TokenAuthority;
/// use am_core::NodeId;
/// let mut auth = TokenAuthority::new(4, 1.0, 1.0, &[NodeId(3)], 7);
/// let g = auth.next_grant();
/// assert!(g.time.seconds() > 0.0);
/// assert!(g.node.index() < 4);
/// ```
pub struct TokenAuthority {
    stream: MergedPoisson,
    byz: Vec<bool>,
    granted: u64,
    granted_byz: u64,
    prev_grant: Time,
    // One authority is built per Monte-Carlo trial: the handle is
    // resolved once per process, not once per trial.
    obs_grants: &'static am_obs::Counter,
}

impl TokenAuthority {
    /// Creates the authority: `n` nodes, per-node rate `lambda / delta`
    /// (so that a node receives `Pois(λ)` tokens per interval Δ, as the
    /// model prescribes), with `byz` marking Byzantine nodes.
    pub fn new(n: usize, lambda: f64, delta: f64, byz: &[NodeId], seed: u64) -> TokenAuthority {
        assert!(lambda > 0.0 && delta > 0.0);
        let mut flags = vec![false; n];
        for b in byz {
            flags[b.index()] = true;
        }
        TokenAuthority {
            stream: MergedPoisson::new(n, lambda / delta, seed),
            byz: flags,
            granted: 0,
            granted_byz: 0,
            prev_grant: Time::ZERO,
            obs_grants: am_obs::static_counter!("poisson.grants"),
        }
    }

    /// Whether `node` is Byzantine.
    pub fn is_byz(&self, node: NodeId) -> bool {
        self.byz[node.index()]
    }

    /// Draws the next grant from the Poisson stream.
    pub fn next_grant(&mut self) -> Grant {
        let (time, node) = self.stream.next();
        self.granted += 1;
        let node = NodeId(node as u32);
        if self.is_byz(node) {
            self.granted_byz += 1;
        }
        self.obs_grants.inc();
        let prev_ns = (self.prev_grant.seconds() * 1e9) as u64;
        let now_ns = (time.seconds() * 1e9) as u64;
        // The wait between consecutive system-wide grants, on the node
        // that received the token.
        am_obs::record_sim_span("poisson/grant", node.index(), prev_ns, now_ns);
        self.prev_grant = time;
        Grant { node, time }
    }

    /// Total grants drawn.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Grants drawn for Byzantine nodes.
    pub fn granted_byz(&self) -> u64 {
        self.granted_byz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_ascend_in_time() {
        let mut auth = TokenAuthority::new(4, 1.0, 1.0, &[], 11);
        let mut prev = Time::ZERO;
        for _ in 0..100 {
            let g = auth.next_grant();
            assert!(g.time > prev);
            prev = g.time;
            assert!(g.node.index() < 4);
        }
        assert_eq!(auth.granted(), 100);
        assert_eq!(auth.granted_byz(), 0);
    }

    #[test]
    fn byzantine_fraction_of_grants_matches_t_over_n() {
        let byz: Vec<NodeId> = (6..8).map(NodeId).collect(); // t=2, n=8
        let mut auth = TokenAuthority::new(8, 0.5, 1.0, &byz, 13);
        for _ in 0..8000 {
            auth.next_grant();
        }
        let frac = auth.granted_byz() as f64 / auth.granted() as f64;
        assert!(
            (frac - 0.25).abs() < 0.03,
            "byz token share {frac} should be ≈ t/n = 0.25"
        );
    }

    #[test]
    fn per_node_rate_is_lambda_per_delta() {
        // λ=2, Δ=4 → per-node rate 0.5/unit; 4 nodes → system rate 2.
        let mut auth = TokenAuthority::new(4, 2.0, 4.0, &[], 23);
        let mut last = Time::ZERO;
        let k = 4000;
        for _ in 0..k {
            last = auth.next_grant().time;
        }
        let measured = k as f64 / last.seconds();
        assert!(
            (measured - 2.0).abs() < 0.15,
            "system rate {measured} should be ≈ 2"
        );
    }
}
