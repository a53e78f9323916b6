//! # am-mp — simulating the append memory over message passing
//!
//! Section 4 of the paper shows that the append memory is "not stronger
//! than the message passing model" by giving an ABD-style simulation:
//!
//! * **Algorithm 2** (`M.append`): broadcast the signed value; every
//!   receiver appends it to its local view and broadcasts an ack; the
//!   operation terminates on `> n/2` acks.
//! * **Algorithm 3** (`M.read`): broadcast a read request; every receiver
//!   sends its local view; after `> n/2` responses, merge every newly seen
//!   value and terminate.
//!
//! This crate implements the simulation over any `am_net::Transport` —
//! `MpSystem::new` uses a fault-free zero-latency `am_net::SimNet`, the
//! one shipped transport, on which every append sends exactly n + n²
//! messages and every read 2n — with simulated unforgeable signatures,
//! Byzantine behaviours (silence, equivocation, forgery attempts),
//! message-complexity instrumentation, and a conformance checker that the
//! simulated object satisfies append-memory semantics (Lemmas 4.1/4.2):
//! every completed correct append is visible to every subsequent correct
//! read, and equivocated Byzantine values are all accepted — exactly as
//! in the real append memory, where concurrent appends cannot be ordered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abd;
pub mod net;
pub mod sig;
pub mod unsigned;
pub mod view;

pub use abd::{Delivery, MpError, MpMsg, MpStats, MpSystem};
pub use net::{Envelope, Payload};
pub use sig::{KeyRing, Signature};
pub use unsigned::{UnsignedMsg, UnsignedSystem};
pub use view::{AckTally, MpView};
