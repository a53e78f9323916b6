//! The node runtime: the cluster core behind a thread, serving many
//! concurrent clients over an in-process transport.
//!
//! [`NodeRuntime::spawn`] moves a [`Cluster`] onto its own thread; every
//! [`NodeHandle`] (cheaply cloneable, one per client thread) submits
//! [`Request`]s over an mpsc channel and blocks on a per-call response
//! channel — the in-process stand-in for a JSON-RPC connection, carrying
//! exactly the serializable request/response types from [`crate::api`].
//! The runtime thread applies requests one at a time, so the cluster core
//! stays single-threaded and deterministic while any number of clients
//! hammer it concurrently.
//!
//! Shutdown is by hang-up: when every handle (and the runtime's own
//! keeper) is dropped, the request channel closes and the thread returns
//! the cluster for post-mortem inspection via [`NodeRuntime::join`].

use crate::api::{Request, Response};
use crate::cluster::{Cluster, ClusterConfig};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// One queued call: the request plus the channel its response goes back
/// on.
struct Call {
    req: Request,
    resp: mpsc::Sender<Response>,
}

/// A client's connection to the runtime. Clone one per client thread.
#[derive(Clone)]
pub struct NodeHandle {
    tx: mpsc::Sender<Call>,
}

impl NodeHandle {
    /// Sends a request and blocks until its response arrives. Returns
    /// `None` only when the runtime has shut down.
    pub fn call(&self, req: Request) -> Option<Response> {
        let (resp_tx, resp_rx) = mpsc::channel();
        self.tx.send(Call { req, resp: resp_tx }).ok()?;
        resp_rx.recv().ok()
    }

    /// Fires a request without waiting, returning the receiver to collect
    /// the response later — the open-loop / pipelined client lane.
    pub fn call_async(&self, req: Request) -> Option<mpsc::Receiver<Response>> {
        let (resp_tx, resp_rx) = mpsc::channel();
        self.tx.send(Call { req, resp: resp_tx }).ok()?;
        Some(resp_rx)
    }
}

/// The running node runtime.
pub struct NodeRuntime {
    tx: mpsc::Sender<Call>,
    thread: JoinHandle<Cluster>,
}

impl NodeRuntime {
    /// Builds a cluster from `cfg` and starts serving it on a fresh
    /// thread.
    pub fn spawn(cfg: ClusterConfig) -> NodeRuntime {
        Self::spawn_cluster(Cluster::new(cfg))
    }

    /// Starts serving an already-built cluster (e.g. one pre-seeded with
    /// history or a fault schedule).
    pub fn spawn_cluster(mut cluster: Cluster) -> NodeRuntime {
        let (tx, rx) = mpsc::channel::<Call>();
        let thread = std::thread::spawn(move || {
            while let Ok(call) = rx.recv() {
                // A client that gave up waiting just drops its receiver;
                // the cluster result is discarded, not an error.
                let _ = call.resp.send(cluster.handle(&call.req));
            }
            cluster
        });
        NodeRuntime { tx, thread }
    }

    /// A new client connection.
    pub fn handle(&self) -> NodeHandle {
        NodeHandle {
            tx: self.tx.clone(),
        }
    }

    /// Closes the runtime's own sender and waits for in-flight clients to
    /// hang up, returning the cluster for inspection. Any still-cloned
    /// [`NodeHandle`] keeps the runtime alive until dropped.
    pub fn join(self) -> Cluster {
        drop(self.tx);
        self.thread.join().expect("runtime thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{
        AppendReq, FinalizedHeightReq, LinearizeReq, ReadReq, SnapshotAtFinalReq, SnapshotAtReq,
        StatsResp, TipReq,
    };

    #[test]
    fn concurrent_clients_share_one_cluster() {
        let rt = NodeRuntime::spawn(ClusterConfig::ideal(4, 11));
        let per_client = 25usize;
        // Each client's last appends go out together through `call_async`.
        let pipelined = 3usize;
        let clients = 4usize;
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let h = rt.handle();
                std::thread::spawn(move || {
                    let mut ok = 0;
                    let mut finalized = 0u64;
                    for i in 0..per_client - pipelined {
                        let resp = h
                            .call(Request::Append(AppendReq {
                                author: c as u64,
                                value: (i % 2) as i8,
                            }))
                            .expect("runtime alive");
                        if !resp.is_err() {
                            ok += 1;
                        }
                        // Interleave every read-side request: the archive
                        // queries, a quorum read and both finality queries,
                        // on a node that rotates with `i`.
                        let node = ((c + i) % 4) as u64;
                        for req in [
                            Request::Tip(TipReq { node: 0 }),
                            Request::Read(ReadReq { node }),
                            Request::SnapshotAt(SnapshotAtReq {
                                node,
                                height: i as u64,
                            }),
                            Request::Linearize(LinearizeReq { node }),
                            Request::FinalizedHeight(FinalizedHeightReq { node }),
                            Request::SnapshotAtFinal(SnapshotAtFinalReq { node }),
                        ] {
                            let resp = h.call(req).expect("runtime alive");
                            assert!(!resp.is_err(), "{req:?} -> {resp:?}");
                            if let Response::Finalized(f) = resp {
                                finalized = finalized.max(f.height);
                            }
                        }
                    }
                    let pending: Vec<_> = (per_client - pipelined..per_client)
                        .map(|i| {
                            h.call_async(Request::Append(AppendReq {
                                author: c as u64,
                                value: (i % 2) as i8,
                            }))
                            .expect("runtime alive")
                        })
                        .collect();
                    for (i, rx) in (per_client - pipelined..).zip(pending) {
                        match rx.recv().expect("response arrives") {
                            Response::Appended(r) => assert_eq!(r.seq, i as u64, "fifo order"),
                            other => panic!("pipelined append failed: {other:?}"),
                        }
                        ok += 1;
                    }
                    (ok, finalized)
                })
            })
            .collect();
        let (decided, finalized) = threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .fold((0, 0), |(d, f), (ok, fin)| (d + ok, f.max(fin)));
        assert!(finalized > 0, "some finality query saw a finalized prefix");
        assert_eq!(decided, clients * per_client, "every append decided");

        let h = rt.handle();
        let stats = match h.call(Request::Stats).unwrap() {
            Response::Stats(s) => s,
            other => panic!("stats failed: {other:?}"),
        };
        let want: StatsResp = stats;
        assert_eq!(want.appends, (clients * per_client) as u64);

        drop(h); // the runtime drains only after every handle hangs up
        let mut cluster = rt.join();
        cluster.converge();
        assert_eq!(cluster.archive(0).height(), clients * per_client);
        // Per-author (client) admission stayed contiguous: each client's
        // mempool lane assigned 0..per_client.
        for c in 0..clients {
            assert_eq!(cluster.mempool().next_seq(c as u64), per_client as u64);
        }
    }

    #[test]
    fn pipelined_calls_resolve_in_order() {
        let rt = NodeRuntime::spawn(ClusterConfig::ideal(4, 5));
        let h = rt.handle();
        let pending: Vec<_> = (0..10)
            .map(|i| {
                h.call_async(Request::Append(AppendReq {
                    author: 1,
                    value: (i % 2) as i8,
                }))
                .expect("runtime alive")
            })
            .collect();
        for (i, rx) in pending.into_iter().enumerate() {
            match rx.recv().expect("response arrives") {
                Response::Appended(r) => assert_eq!(r.seq, i as u64, "fifo order"),
                other => panic!("append failed: {other:?}"),
            }
        }
        drop(h);
        let cluster = rt.join();
        assert_eq!(cluster.archive(1).height(), 10);
    }

    #[test]
    fn dropping_every_handle_shuts_down() {
        let rt = NodeRuntime::spawn(ClusterConfig::ideal(3, 1));
        let h = rt.handle();
        assert!(h
            .call(Request::Read(ReadReq { node: 0 }))
            .is_some_and(|r| !r.is_err()));
        drop(h);
        let cluster = rt.join();
        assert_eq!(cluster.n(), 3);
    }
}
