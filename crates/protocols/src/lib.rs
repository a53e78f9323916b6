//! # am-protocols — Byzantine agreement with randomized memory access
//!
//! Section 5 of the paper: the three protocols that decide by "the sign of
//! the sum of the first k appends", under Poisson-gated append access.
//!
//! * [`timestamp`] — **Algorithm 4**: the absolute-timestamp baseline. A
//!   central authority stamps every append; the first `k` stamps order the
//!   decision. Best possible resilience in the model (Theorem 5.2).
//! * [`chain`] — **Algorithm 5**: append to the longest chain, break ties
//!   deterministically (first in memory, Theorem 5.3) or uniformly at
//!   random (Theorem 5.4). Adversaries: *fork-maker* (forks every correct
//!   tip and wins deterministic ties) and *tie-breaker* (extends the first
//!   correct append of each interval, orphaning the rest).
//! * [`dag`] — **Algorithm 6**: append referencing every tip; order the
//!   DAG along the longest/heaviest chain; decide on the first `k` values.
//!   Adversaries: *dissenter* (spends its fair token share on minority
//!   values) and *withhold-burst* (banks tokens and releases a private
//!   chain just before the decision — Lemma 5.5).
//! * [`bft`] — the finality layer (PR 7): the same token-gated DAG read
//!   as an embedded BFT protocol (`am-bft`), with per-node finality
//!   oracles and Byzantine strategies that target finality itself
//!   (equivocation, vote withholding, stale-parent mining).
//! * [`propagation`] — block gossip over `am-net`. Algorithms 5 and 6 are
//!   each written once, generic over what a correct node *sees* (the
//!   crate-private `view::Visibility`): the abstract append memory
//!   (`view::SharedLog`, a Δ-lagged common prefix of the log) or
//!   [`Propagation`] (whatever the faulty wire delivered). Every runner
//!   steps through one `schedule::GrantSchedule` (token draw, grant
//!   budget, TTL expiry of banked Byzantine tokens). See DESIGN.md §16.
//! * [`trial_dag`] — the one graph a trial keeps: a flat, append-only
//!   [`TrialDag`] arena that every runner above takes from the thread's
//!   pool and resets, and that the chain rules of `am-core` read directly.
//! * [`runner`] — Monte-Carlo estimation of validity-failure rates
//!   (per-trial seeding from the base seed and the trial index).
//! * [`sweep`] — the adaptive sweep engine: batched trials with Wilson
//!   early stopping ([`am_stats::StopRule`]), per-point budgets, and one
//!   batch loop for the unsharded run, a shard and the merge alike.
//! * [`shard`] — the engine's persistent half: interleaved residue
//!   classes of the trial-index range and the one crash-safe window-log
//!   store behind checkpoint/resume and multi-process sharding.
//!
//! ## Modelling notes (see DESIGN.md)
//!
//! * **Interval concurrency.** Synchronous nodes with bound Δ are modelled
//!   by interval snapshots: a correct append granted in interval `i` uses
//!   the memory state at the start of interval `i` — appends within one
//!   interval are mutually concurrent, exactly the fork-generating worst
//!   case of Theorem 5.4's analysis.
//! * **Token TTL.** Grants expire Δ after issue. Byzantine nodes may delay
//!   a grant within its lifetime (the "withhold … for a small period of
//!   time" of Lemma 5.5) but cannot hoard tokens indefinitely — the only
//!   reading of the access model under which the Lemma 5.5 burst bound
//!   (and hence DAG resilience 1/2) is actually true.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bft;
pub mod chain;
pub mod dag;
pub mod params;
pub mod propagation;
pub mod runner;
pub(crate) mod schedule;
pub(crate) mod scratch;
pub mod shard;
pub mod sweep;
pub mod timestamp;
pub mod trial_dag;
pub(crate) mod view;
pub mod weak;

pub use bft::{run_bft, run_bft_net, run_bft_net_full, BftAdversary, BftNetRun, BftTrial};
pub use chain::{run_chain, run_chain_net, ChainAdversary, ChainTrial, TieBreak};
pub use dag::{run_dag, run_dag_net, DagAdversary, DagRule, DagTrial};
pub use params::{Params, ViewPolicy};
pub use propagation::{BlockMsg, Propagation};
pub use runner::{measure_failure_rate, trial_seed, TrialKind};
pub use shard::{LoadError, ShardCheckpointStore, ShardPointCheckpoint, ShardSpec};
pub use sweep::{PointResult, SweepConfig, SweepMode, SweepRunner};
pub use timestamp::{run_timestamp, TimestampTrial};
pub use trial_dag::TrialDag;
pub use weak::{
    run_chain_staggered, run_dag_multinode, run_dag_staggered, MultiTrial, StaggeredTrial,
};
