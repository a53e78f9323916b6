//! Monte-Carlo estimation over trials.
//!
//! Maps trials over their indices, each trial deterministically seeded
//! from the base seed and its index, and reduces into [`Proportion`]
//! tallies — the pattern the experiment harness is built on.

use crate::bft::{bft_trial, BftAdversary};
use crate::chain::{chain_trial, ChainAdversary, TieBreak};
use crate::dag::{dag_trial, DagAdversary, DagRule};
use crate::params::Params;
use crate::sweep::{SweepConfig, SweepRunner};
use crate::timestamp::run_timestamp;
use am_stats::Proportion;

/// Which protocol/strategy combination a measurement runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialKind {
    /// Algorithm 4 under worst-case Byzantine values.
    Timestamp,
    /// Algorithm 5 with a tie-break rule and adversary.
    Chain(TieBreak, ChainAdversary),
    /// Algorithm 6 with an ordering rule and adversary.
    Dag(DagRule, DagAdversary),
    /// The embedded BFT finality layer with a finality-targeting
    /// adversary; a trial fails if finality stalls or a conflict is
    /// detected.
    Bft(BftAdversary),
}

impl TrialKind {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            TrialKind::Timestamp => "timestamp".into(),
            TrialKind::Chain(tie, adv) => format!("chain/{tie:?}/{adv:?}").to_lowercase(),
            TrialKind::Dag(rule, adv) => format!("dag/{rule:?}/{adv:?}").to_lowercase(),
            TrialKind::Bft(adv) => format!("bft/{}", adv.label()),
        }
    }

    /// Runs one trial; returns whether **validity failed**. When
    /// `p.net` is set, chain/DAG/BFT trials propagate blocks over the
    /// faulty network (the timestamp baseline has a central authority
    /// and no gossip, so the network does not apply to it).
    pub fn run_one(&self, p: &Params) -> bool {
        match self {
            TrialKind::Timestamp => !run_timestamp(p).validity,
            TrialKind::Chain(tie, adv) => !chain_trial(p, *tie, *adv).validity,
            TrialKind::Dag(rule, adv) => !dag_trial(p, *rule, *adv).validity,
            TrialKind::Bft(adv) => {
                let out = bft_trial(p, *adv);
                !out.finality || out.conflict
            }
        }
    }
}

/// Per-trial seed derivation: SplitMix of the base seed and index, so a
/// tally does not depend on which process or thread ran which index.
pub fn trial_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Measures the validity-failure rate of `kind` at `p` over `trials`
/// Monte-Carlo runs — the fixed-budget entry point, a thin wrapper over
/// the [`crate::sweep`] engine (same trial indices, same seeds,
/// identical tallies).
pub fn measure_failure_rate(p: &Params, kind: TrialKind, trials: u64) -> Proportion {
    let _span = am_obs::span(format!("protocols/measure/{}", kind.label()));
    SweepRunner::new(SweepConfig::fixed())
        .measure(&kind.label(), p, kind, trials)
        .tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_distinct_and_stable() {
        let a = trial_seed(1, 0);
        let b = trial_seed(1, 1);
        let c = trial_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(trial_seed(1, 0), a);
    }

    #[test]
    fn measure_is_reproducible_despite_parallelism() {
        let p = Params::new(8, 3, 0.5, 15, 77);
        let kind = TrialKind::Chain(TieBreak::Randomized, ChainAdversary::TieBreaker);
        let a = measure_failure_rate(&p, kind, 64);
        let b = measure_failure_rate(&p, kind, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn timestamp_clean_at_zero_byz() {
        let p = Params::new(8, 0, 1.0, 15, 1);
        let rate = measure_failure_rate(&p, TrialKind::Timestamp, 50);
        assert_eq!(rate.hits, 0);
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(TrialKind::Timestamp.label(), "timestamp");
        let l = TrialKind::Chain(TieBreak::Deterministic, ChainAdversary::ForkMaker).label();
        assert!(l.contains("chain") && l.contains("fork"));
        let l = TrialKind::Dag(DagRule::Ghost, DagAdversary::WithholdBurst).label();
        assert!(l.contains("dag") && l.contains("ghost"));
    }
}
