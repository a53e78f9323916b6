//! # am-bft — deterministic BFT finality embedded in the block DAG
//!
//! The paper's Section 5 protocols decide a *one-shot* agreement and the
//! ordering layer (`am-core::linearize`) totally orders the DAG — but
//! nothing ever makes a prefix *final*. This crate layers finality on
//! top, without adding a single message to the network: following Schett
//! & Danezis, the block DAG itself is read as the message history of a
//! deterministic BFT protocol, and a Casper-CBC-style rule decides which
//! chain prefix can no longer be displaced.
//!
//! The crate is cut where the model cuts: what a block *means* is a pure
//! function of the DAG, what an observer has *concluded* depends on which
//! blocks it saw in which order. Both halves are incremental per block
//! (no rescans — the same discipline as the PR5 decision-path engine):
//!
//! * [`DagInterpreter`] — the order-independent block table, one per
//!   DAG however many observe it: round = the author's own sequence in
//!   its past cone, justification = the high-water visibility vector over
//!   the cone, vote = the selected-parent chain (`parents[0]`), role =
//!   proposal / vote / echo under rotating slots, plus the DAG itself (an
//!   `am_core::BlockStore`) and the caller's id. Answers chain-ancestor
//!   queries in O(log) via jump pointers.
//! * [`FinalityView`] — one observer over a shared table: the blocks it
//!   observed, the first-observed block per (author, round) (two blocks in
//!   one slot brand the author an equivocator), and a monotone finalized
//!   watermark — a chain block is final once a quorum of non-equivocating
//!   authors vote for it *with pairwise mutual visibility of those votes*
//!   (the CBC clique condition). The verdict at the height under test is
//!   kept incrementally, so an observed block touches only its author's
//!   vote and usually skips the scan ([`OracleStats`] counts how often);
//!   the finalized-prefix digest is O(new tail) and the finalized past
//!   cone is a set of marks for O(1) [`is_final`](FinalityView::is_final).
//! * [`FinalityOracle`] — one table plus one view plus a remap from the
//!   caller's sparse ids: the self-contained observer the model checker
//!   and the spec suites drive.
//!
//! The Byzantine drivers that feed these (equivocating authors, vote
//! withholding, stale-parent miners) live in `am-protocols::bft`, with one
//! table per trial and one view per observing node; the nonforking
//! invariant is checked exhaustively in `am-sched::nonforking` and end to
//! end by the 300-seed agreement suite.

#![forbid(unsafe_code)]

mod interpret;
mod oracle;
mod view;

pub use interpret::{DagInterpreter, Role};
pub use oracle::FinalityOracle;
pub use view::{FinalityView, OracleStats};
