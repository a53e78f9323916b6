//! # am-sync — synchronous Byzantine agreement in the append memory
//!
//! Implements Section 3.2 of the paper: **Algorithm 1**, the simple
//! deterministic Byzantine agreement protocol for synchronous nodes.
//!
//! Each node runs `t + 1` rounds. In round `r` it appends
//! `(val(v), L_{r-1})` — its input value plus references to every command
//! it saw appended in the previous round — waits `Δ`, and reads. After
//! round `t + 1`, a value is *accepted* iff a chain of `t + 1` distinct
//! nodes vouches for it (Line 6 of Algorithm 1), and the decision is the
//! majority over accepted values.
//!
//! The Byzantine power in this model is *straddling*: a Byzantine node can
//! time an append so that only a subset of the correct nodes sees it
//! within the round, the rest one round later (Section 3.1). Because reads
//! of the shared memory are atomic snapshots, realizable visibility
//! subsets in one round are **nested** — the runner schedules reads to
//! realise exactly the subsets a strategy requests, in request order.
//!
//! Modules:
//! * [`accept`] — the chain-acceptance rule (pruned DFS).
//! * [`byz`] — Byzantine strategies: silence, equivocation, straddling,
//!   and chain injection.
//! * [`runner`] — the round scheduler and outcome checking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accept;
pub mod byz;
pub mod crash;
pub mod runner;

pub use accept::accepted_values;
pub use byz::{
    ByzPlan, ByzStrategy, ChainInjector, Dissenter, Equivocator, PlanCtx, PlannedMsg, RefsPolicy,
    Silent, Straddler,
};
pub use crash::{run_crash_one_round, CrashOutcome, CrashPlan};
pub use runner::{run, SyncConfig, SyncOutcome};
