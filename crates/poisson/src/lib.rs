//! # am-poisson — the randomized-memory-access substrate
//!
//! Section 5 of the paper restricts append access by a Poisson process:
//! "The access probability to the append memory model for each node v
//! inside the time interval Δ is a Poisson distributed random variable
//! X_v with rate λ. All random variables X_v are independent and therefore
//! the access rate to the memory by all nodes is described by the random
//! variable Y := Σ_v X_v ∼ Pois(λn)."
//!
//! This crate provides:
//!
//! * [`process`] — exponential inter-arrival sampling and the merged
//!   Poisson token stream (who gets the next append token, and when);
//! * [`token`] — the token authority: a replayable, seeded schedule of
//!   `(time, node)` grants, with adversarial controls (Byzantine nodes may
//!   *bank* their tokens and spend them later — the withholding power of
//!   Lemma 5.5; correct nodes must spend immediately);
//! * [`des`] — a small `(Time, seq)`-ordered event queue over
//!   `am_net::queue`. No runner in this workspace schedules through it
//!   (they step a [`TokenAuthority`] directly); its one caller is the
//!   `poisson.queue_op_ns` probe of the `benchmark/` harness, which is
//!   why it stays.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod process;
pub mod silence;
pub mod token;

pub use des::{EventQueue, Scheduled};
pub use process::{merged_stream, MergedPoisson, PoissonProcess};
pub use silence::{measure_silence, SilenceStats};
pub use token::{Grant, TokenAuthority};
