//! # am-core — The Append Memory Model
//!
//! This crate implements the *append memory* model introduced by Melnyk and
//! Wattenhofer in "The Append Memory Model: Why BlockDAGs Excel Blockchains"
//! (SPAA 2020), together with the graph machinery every protocol in the
//! paper builds on top of it.
//!
//! ## The model
//!
//! The shared memory consists of `n` registers, one per node. Register `R_i`
//! supports two operations:
//!
//! * `R_i.read()` — executable by *any* node; returns a complete view of the
//!   register.
//! * `R_i.append(msg)` — executable only by node `v_i`; appends `msg` without
//!   removing any previous information.
//!
//! Equivalently, the registers can be viewed as a single unordered register
//! `M` to which all nodes append; `M` itself establishes **no order** across
//! authors (two concurrent appends cannot be tie-broken by the memory), while
//! each author's own appends are totally ordered. Messages carry *references*
//! to previous messages, which is how protocols establish a weak order.
//!
//! ## What this crate provides
//!
//! * [`AppendMemory`] — the authoritative memory with snapshot
//!   ([`MemoryView`]) reads and per-author order enforcement.
//! * [`Message`] / [`MessageBuilder`] — appended commands with values and
//!   parent references.
//! * [`BlockStore`] — the append-only block DAG every simulation grows
//!   (parent CSR, depths, prefix tips, arrival times), with [`ChildIndex`]
//!   for child edges and [`ConeCoverTracker`] for the covered-value gate.
//! * [`DagIndex`] — the reference graph over a view: a store built from
//!   the view plus cones and topological orders. The chain and ordering
//!   rules below read a DAG through [`DagRead`], which it implements.
//! * Chain selection rules: [`chain::longest_chain`],
//!   [`ghost::ghost_pivot`] and [`pivot::pivot_chain`], plain functions
//!   over a view (the `*_with` forms read any [`DagRead`]). The Section 5
//!   protocols pick one through `am_protocols::DagRule`.
//! * [`fn@linearize`] — DAG linearization along a selected chain
//!   ("order the values of the DAG with respect to the longest chain",
//!   Algorithm 6 line 9).
//! * [`validate`] — structural invariant checking used by tests and by the
//!   model checker.
//!
//! ## Example
//!
//! ```
//! use am_core::{AppendMemory, MessageBuilder, NodeId, Value};
//!
//! let mem = AppendMemory::new(3);
//! // Node 0 appends its input value, referencing genesis.
//! let genesis = mem.genesis_id();
//! let m1 = mem
//!     .append(MessageBuilder::new(NodeId(0), Value::plus()).parent(genesis))
//!     .unwrap();
//! // Anyone can read; a view is an immutable snapshot.
//! let view = mem.read();
//! assert_eq!(view.len(), 2); // genesis + m1
//! assert!(view.contains(m1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod dag;
pub mod error;
pub mod ghost;
pub mod history;
pub mod ids;
pub mod incremental;
pub mod linearize;
pub mod memory;
pub mod message;
pub mod pivot;
pub mod validate;
pub mod value;
pub mod view;

pub use chain::{chain_to_genesis, longest_chain, longest_chain_tips, longest_chain_with};
pub use dag::{DagIndex, DagRead};
pub use error::{AppendError, CoreError};
pub use ghost::{ghost_pivot, ghost_pivot_with, GhostScratch};
pub use history::History;
pub use ids::{MsgId, NodeId, Round, Time, GENESIS};
pub use incremental::{BlockStore, ChildIndex, ConeCoverTracker, Frontier};
pub use linearize::{linearize, linearize_in, linearize_with, LinScratch, Linearization};
pub use memory::AppendMemory;
pub use message::{Message, MessageBuilder};
pub use pivot::{pivot_chain, pivot_chain_with};
pub use validate::{check_view, Violation};
pub use value::{Sign, Value};
pub use view::MemoryView;
