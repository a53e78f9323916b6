//! # am-node — a long-lived append-memory node runtime
//!
//! The rest of the workspace studies the append memory as a *protocol*
//! (`am-mp`'s Algorithms 2/3 over `am-net`'s fault-injecting simulator);
//! this crate hosts it as a *service*. Four layers, bottom up:
//!
//! * [`mempool`] — deterministic admission of pending appends: monotone
//!   tickets, per-author sequence contiguity, typed rejections when full
//!   (never silent drops), cascading deterministic eviction.
//! * [`cluster`] — the in-process multi-node cluster: drained mempool
//!   entries execute through the ABD protocol over a `SimNet` (so fault
//!   schedules — drops, partitions — apply to a *running* cluster), and
//!   each node's decided history lands in its archive.
//! * [`archive`] — decided history on the persistent `MpView` log:
//!   snapshot-at-height in O(log history), cheap tail and tip, rolling
//!   per-height digests, and an O(1) order-independent linearization
//!   digest that converged nodes agree on.
//! * [`runtime`] + [`api`] — the cluster behind a thread, serving the
//!   JSON-serializable [`api::Request`]/[`api::Response`] pairs to any
//!   number of concurrent client threads over an in-process transport.
//!
//! The stack is measured from outside: the workspace's `benchmark/`
//! harness drives it with its `serve_read_heavy` / `serve_append_heavy`
//! workloads and splits the serving time by layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod archive;
pub mod cluster;
pub mod mempool;
pub mod runtime;

pub use api::{ApiError, Request, Response};
pub use archive::Archive;
pub use cluster::{Cluster, ClusterConfig};
pub use mempool::{Mempool, MempoolConfig, MempoolError, PendingAppend, Ticket};
pub use runtime::{NodeHandle, NodeRuntime};
