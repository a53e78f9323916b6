//! # append-memory — umbrella crate
//!
//! A full Rust reproduction of Melnyk & Wattenhofer, *"The Append Memory
//! Model: Why BlockDAGs Excel Blockchains"* (SPAA 2020).
//!
//! This crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `am-core` | the append memory, messages, views, reference DAG, chain/GHOST ordering, linearization |
//! | [`bft`] | `am-bft` | deterministic BFT finality embedded in the block DAG: interpreter + finality oracle |
//! | [`sched`] | `am-sched` | the Section 2 formalism + bivalence model checker (Theorem 2.1, Lemma 3.1) |
//! | [`sync`] | `am-sync` | Algorithm 1 (synchronous Byzantine agreement) and its straddling adversaries |
//! | [`mp`] | `am-mp` | the ABD-style message-passing simulation (Algorithms 2–3) |
//! | [`poisson`] | `am-poisson` | the Poisson token authority and discrete-event substrate |
//! | [`protocols`] | `am-protocols` | Algorithms 4/5/6 with the paper's adversaries and Monte-Carlo runners |
//! | [`stats`] | `am-stats` | distributions, estimators, paper bounds, table rendering |
//! | [`node`] | `am-node` | the serving runtime: mempool, archival log, request API, threaded runtime |
//!
//! ## Quickstart
//!
//! ```
//! use append_memory::core::{AppendMemory, MessageBuilder, NodeId, Value, GENESIS};
//!
//! // Three nodes share an append memory.
//! let mem = AppendMemory::new(3);
//! let a = mem
//!     .append(MessageBuilder::new(NodeId(0), Value::plus()).parent(GENESIS))
//!     .unwrap();
//! let _b = mem
//!     .append(MessageBuilder::new(NodeId(1), Value::minus()).parent(a))
//!     .unwrap();
//! // Reads are immutable snapshots; the reference graph orders them.
//! let view = mem.read();
//! let chain = append_memory::core::longest_chain(&view);
//! assert_eq!(chain.len(), 3); // genesis → a → b
//! ```
//!
//! Run `cargo run --release -p am-experiments` to regenerate every
//! theorem's quantitative claim (E1–E13; see DESIGN.md / EXPERIMENTS.md).

#![forbid(unsafe_code)]

pub use am_bft as bft;
pub use am_core as core;
pub use am_mp as mp;
pub use am_node as node;
pub use am_poisson as poisson;
pub use am_protocols as protocols;
pub use am_sched as sched;
pub use am_stats as stats;
pub use am_sync as sync;
