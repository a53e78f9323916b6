//! # am-sched — execution formalism and model checker
//!
//! This crate implements Section 2 of the paper ("Impossibility of
//! asynchronous deterministic consensus in the append memory") and the
//! Section 3.1 round lower bound as *executable* artifacts: the
//! configuration/event formalism, valency classification, and searches that
//! construct the adversarial schedules whose existence the paper proves.
//!
//! ## Memory representation and commutativity
//!
//! The append memory "cannot order the access threads from different
//! nodes". We therefore represent a memory state as **per-author logs**
//! (a map author → totally-ordered list of that author's appends) rather
//! than a global log. Two concurrent appends by different authors then
//! commute *by construction* — applying `e_p` then `e_q` produces the
//! identical [`explore::Config`] as `e_q` then `e_p` — which is
//! precisely the indistinguishability that drives Lemma 2.3. A protocol
//! modelled on top of this representation is structurally unable to cheat
//! by observing arrival order.
//!
//! ## What the checker produces
//!
//! * [`bivalence::initial_bivalent`] — a bivalent initial configuration
//!   (Lemma 2.2) for a given protocol.
//! * [`bivalence::round_robin_witness`] — an adversarial schedule that
//!   keeps the system bivalent while every node takes steps round-robin
//!   (the constructive content of Theorem 2.1): for a correct consensus
//!   protocol this extends forever; the checker extends it to a requested
//!   length. Protocols that escape it are caught violating agreement or
//!   validity instead — [`explore::Analysis`] reports which.
//! * [`round_lb`] — the Lemma 3.1 search: a synchronous, round-based
//!   adversary (one straddling Byzantine node) that forces disagreement in
//!   every `r ≤ t`-round protocol and fails against `t+1` rounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bivalence;
pub mod explore;
pub mod nonforking;
pub mod proto;
pub mod round_lb;
pub mod search;
pub mod zoo_ext;

pub use bivalence::{initial_bivalent, round_robin_witness, Witness, WitnessOutcome};
pub use explore::{Analysis, Config, Entry, Event, Explorer, LocalState, Ref, Valency};
pub use nonforking::{check_nonforking, NonforkingReport};
pub use proto::{AsyncProtocol, FirstSeenProtocol, Op, QuorumVoteProtocol, ViewRef};
pub use round_lb::{search_disagreement_t, simulate_execution, Disagreement, RoundLbOutcome};
pub use search::{canonical_key, search, valency_fast, SearchMode, SearchOptions, SearchReport};
pub use zoo_ext::EchoVoteProtocol;
