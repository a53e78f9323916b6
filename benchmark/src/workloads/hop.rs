//! The runtime-hop probe: the same request stream through `NodeRuntime`'s
//! thread and channels, per-layer only.
//!
//! On a 2-vCPU shared box the closed loop through `NodeHandle::call` is
//! bimodal between invocations of one binary (about 17k against 250k
//! requests per second), because it measures where the scheduler put the
//! two threads, not the code. The numbers are reported so the hop is
//! visible, and kept out of the end-to-end metrics until something can
//! control thread placement.

use crate::stats::supported_percentile;
use crate::Layers;
use am_node::api::Request;
use am_node::{ClusterConfig, NodeRuntime};
use std::hint::black_box;
use std::time::Instant;

/// Replays `reqs` through a runtime thread. `inline_ns[i]` is the service
/// time the same request took inline, which the closed loop subtracts from
/// the call latency to leave the hop.
pub fn probe(cfg: ClusterConfig, reqs: &[Request], inline_ns: &[u64], layers: &mut Layers) {
    // Closed loop: one client, one request outstanding.
    let rt = NodeRuntime::spawn(cfg);
    let handle = rt.handle();
    let mut hops = Vec::with_capacity(reqs.len());
    for (req, &inline) in reqs.iter().zip(inline_ns) {
        let t = Instant::now();
        let resp = handle.call(*req).expect("runtime thread is alive");
        let ns = t.elapsed().as_nanos() as u64;
        black_box(resp);
        hops.push(ns.saturating_sub(inline));
    }
    drop(handle);
    black_box(rt.join());
    for (p, name) in [
        (50.0, "node.runtime.hop_ns_p50"),
        (99.0, "node.runtime.hop_ns_p99"),
    ] {
        if let Some(v) = supported_percentile(&mut hops, p) {
            layers.set(name, v as f64);
        }
    }

    // Burst: everything in flight at once, then one call that queues
    // behind all of it.
    let rt = NodeRuntime::spawn(cfg);
    let handle = rt.handle();
    let t = Instant::now();
    let pending: Vec<_> = reqs
        .iter()
        .map(|req| handle.call_async(*req).expect("runtime thread is alive"))
        .collect();
    black_box(
        handle
            .call(Request::Stats)
            .expect("runtime thread is alive"),
    );
    let s = t.elapsed().as_secs_f64();
    drop(pending);
    drop(handle);
    black_box(rt.join());
    layers.set("node.runtime.burst_req_per_s", reqs.len() as f64 / s);
}
