//! # am-bft — deterministic BFT finality embedded in the block DAG
//!
//! The paper's Section 5 protocols decide a *one-shot* agreement and the
//! ordering layer (`am-core::linearize`) totally orders the DAG — but
//! nothing ever makes a prefix *final*. This crate layers finality on
//! top, without adding a single message to the network: following Schett
//! & Danezis, the block DAG itself is read as the message history of a
//! deterministic BFT protocol, and a Casper-CBC-style oracle decides
//! which chain prefix can no longer be displaced.
//!
//! Two layers, both incremental per appended block (no rescans — the
//! same discipline as the PR5 decision-path engine, and built on the
//! same `am-core` structures):
//!
//! * [`DagInterpreter`] — maps each block's parent references to a
//!   protocol message: round = the author's own sequence in its past
//!   cone, justification = the high-water visibility vector over the
//!   cone, vote = the selected-parent chain (`parents[0]`), role =
//!   proposal / vote / echo under rotating slots. Detects equivocation
//!   (two blocks, one (author, round)) and answers chain-ancestor
//!   queries in O(log) via jump pointers.
//! * [`FinalityOracle`] — advances a monotone finalized watermark: a
//!   chain block is final once a quorum of non-equivocating authors vote
//!   for it *with pairwise mutual visibility of those votes* (the CBC
//!   clique condition). The verdict at the height under test is kept
//!   incrementally — a vote vector, a per-height ancestor memo, and the
//!   row the clique is stuck on — so an observed block touches only its
//!   author's vote and usually skips the scan ([`OracleStats`] counts
//!   how often). Maintains an O(new-tail) finalized-prefix digest and
//!   the finalized past cone (a `ConeCoverTracker` pinned to the
//!   finalized head) for O(1) [`is_final`](FinalityOracle::is_final)
//!   probes.
//!
//! The Byzantine drivers that feed these (equivocating authors, vote
//! withholding, stale-parent miners) live in `am-protocols::bft`; the
//! nonforking invariant is checked exhaustively in `am-sched::nonforking`
//! and end-to-end by the 300-seed agreement suite.

#![forbid(unsafe_code)]

mod interpret;
mod oracle;

pub use interpret::{DagInterpreter, Role};
pub use oracle::{FinalityOracle, OracleStats};
