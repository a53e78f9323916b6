//! The token-grant schedule every trial runner steps through.
//!
//! Each runner of this crate advances the same way: draw the next Poisson
//! grant, stop if the trial has used up its grant budget, expire banked
//! Byzantine tokens older than their TTL, then let the granted node act.
//! [`GrantSchedule`] is that preamble, written once. Because the grant
//! stream depends only on `(n, λ, Δ, byz, seed)`, every runner at equal
//! [`Params`] steps through the byte-identical schedule.

use crate::params::Params;
use am_core::NodeId;
use am_poisson::{Grant, TokenAuthority};

/// Grant budget of the one-shot agreement runners (Algorithms 5/6 and
/// their staggered variants): generous, because an exhausted budget is
/// counted as a validity failure.
pub(crate) fn one_shot_budget(p: &Params) -> usize {
    10_000 + 400 * p.k * (p.n + 1)
}

/// The token authority plus everything a runner does between two grants.
pub(crate) struct GrantSchedule {
    auth: TokenAuthority,
    /// Grants Byzantine nodes are holding back, oldest first. Adversary
    /// arms push and drain it directly; [`Self::expire`] drops the stale
    /// ones. Pooled per thread across trials.
    pub(crate) bank: Vec<Grant>,
    ttl: f64,
    k: usize,
    budget: usize,
    drawn: usize,
    last: Option<Grant>,
    stalled_event: &'static str,
}

impl GrantSchedule {
    /// The schedule of one trial at `p`. Banked tokens live
    /// `Δ · ttl_factor` (a factor above 1 models a temporal
    /// asynchrony window); after `budget` grants the schedule ends and
    /// emits the `stalled_event` obs event.
    pub(crate) fn new(
        p: &Params,
        ttl_factor: f64,
        budget: usize,
        stalled_event: &'static str,
    ) -> GrantSchedule {
        GrantSchedule {
            auth: TokenAuthority::new(p.n, p.lambda, p.delta, &p.byz_nodes(), p.seed),
            bank: crate::scratch::take_banked(),
            ttl: p.delta * ttl_factor,
            k: p.k,
            budget,
            drawn: 0,
            last: None,
            stalled_event,
        }
    }

    /// Whether `node` is Byzantine.
    pub(crate) fn is_byz(&self, node: NodeId) -> bool {
        self.auth.is_byz(node)
    }

    /// Draws the next grant, or `None` once the budget is spent (the
    /// trial then counts as stalled). Leaves the bank untouched, so a
    /// runner can still act at earlier instants with the tokens that were
    /// live then before calling [`Self::expire`].
    pub(crate) fn draw(&mut self) -> Option<Grant> {
        self.drawn += 1;
        if self.drawn > self.budget {
            let at_ns = self.last.map_or(0, |g| (g.time.seconds() * 1e9) as u64);
            am_obs::event(self.stalled_event, 0, at_ns, || {
                format!("k {} unmet after {} grants", self.k, self.budget)
            });
            return None;
        }
        let g = self.auth.next_grant();
        self.last = Some(g);
        Some(g)
    }

    /// Drops banked tokens whose lifetime ended before `g`.
    pub(crate) fn expire(&mut self, g: &Grant) {
        let (ttl, now) = (self.ttl, g.time.seconds());
        self.bank.retain(|b| b.time.seconds() + ttl >= now);
    }

    /// [`Self::draw`] followed by [`Self::expire`] at the drawn grant.
    pub(crate) fn next(&mut self) -> Option<Grant> {
        let g = self.draw()?;
        self.expire(&g);
        Some(g)
    }
}

impl Drop for GrantSchedule {
    fn drop(&mut self) {
        crate::scratch::put_banked(std::mem::take(&mut self.bank));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_ends_the_schedule_and_ttl_expires_the_bank() {
        let p = Params::new(6, 2, 0.5, 5, 9);
        let mut sched = GrantSchedule::new(&p, 1.0, 40, "protocols/test_stalled");
        let mut drawn = 0;
        while let Some(g) = sched.next() {
            drawn += 1;
            assert!(
                sched
                    .bank
                    .iter()
                    .all(|b| b.time.seconds() + p.delta >= g.time.seconds()),
                "an expired token survived"
            );
            sched.bank.push(g);
        }
        assert_eq!(drawn, 40);
        assert!(sched.draw().is_none(), "the budget stays spent");
    }

    #[test]
    fn equal_params_step_through_the_same_grants() {
        let p = Params::new(6, 2, 0.5, 5, 9);
        let mut a = GrantSchedule::new(&p, 1.0, 100, "protocols/test_stalled");
        let mut b = GrantSchedule::new(&p, 4.0, 100, "protocols/test_stalled");
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }
}
