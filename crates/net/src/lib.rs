//! # am-net — a fault-injecting discrete-event network simulator
//!
//! The paper's Section 4 simulation (Algorithms 2/3) and the Section 6/7
//! protocol experiments all assume a *reliable* asynchronous network:
//! every message is eventually delivered, and asynchrony is modelled only
//! as delivery-order freedom. This crate supplies the other half of the
//! picture — a network that can *misbehave* — so the experiments can
//! measure where the paper's guarantees start to degrade when the model's
//! assumptions are violated.
//!
//! Three layers:
//!
//! * [`Transport`] — the substrate interface the algorithms run over.
//!   [`SimNet`] is its one shipped implementation; test-side substitutes
//!   (`am-mp`'s reliable reference network, its backlog-checking wrapper)
//!   implement it too, and Algorithms 2/3 run unchanged over any of them.
//! * [`SimNet`] — a seeded discrete-event simulator: an event queue
//!   ([`EventQueue`]: an in-order run beside an adaptive calendar queue,
//!   one total order `(time_ns, seq)`), carrying 16-byte handles (first
//!   receiver, parcel, first link row, copies — a broadcast's
//!   same-instant copies share one) to payloads held once in a slab with
//!   their sender, send time and kind, drives per-link latency models
//!   ([`LatencyModel`]: constant, uniform, exponential) and applies the
//!   faults of the [`NetConfig`] it was built from: probabilistic drops,
//!   duplication, reorder-by-extra-delay and a half/half partition with a
//!   heal time. A silent or crashed node is modelled in the node (it
//!   stops reacting), not on the wire.
//! * [`NetStats`] — per-link (one row per topology edge, a spill map for
//!   the links without one) and per-payload-kind counters (sent, delivered,
//!   dropped, duplicated) plus log-bucketed delay histograms, exportable
//!   as JSON next to an experiment's `results/<id>.json`.
//!
//! Everything is deterministic per seed: the same seed yields the same
//! delivery trace, byte for byte (see the `determinism` tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod fault;
pub mod hash;
pub mod latency;
pub mod queue;
pub mod sim;
pub mod stats;
pub mod topology;
pub mod transport;

pub use config::{NetConfig, NetConfigBuilder, NetConfigError};
pub use latency::LatencyModel;
pub use queue::EventQueue;
pub use sim::{NetScratch, SimNet};
pub use stats::{DeliveryRecord, NetStats};
pub use topology::{Topology, TopologyMap};
pub use transport::{Envelope, Kinded, Transport};
