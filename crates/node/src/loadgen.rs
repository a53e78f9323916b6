//! The workload generator: many client threads hammering one node
//! runtime, with latency histograms and a serializable result record.
//!
//! [`run`] spawns a cluster runtime plus `clients` OS threads. Each
//! client draws operations from a seeded RNG: with probability
//! `read_mix` a read-side op (mostly archive queries, occasionally a
//! quorum read), otherwise an append whose author comes from a
//! zipf-skewed pool — so hot authors contend on one mempool lane the way
//! hot keys contend in a real system. Clients run closed-loop by default;
//! `pipeline > 1` keeps that many requests outstanding per client (the
//! open-loop lane), which trades per-request latency for throughput.
//!
//! Client-side latency of every completed call lands in one of the run's
//! own four `am-obs` log₂ histograms (append / read / query / finality —
//! values owned by the run, not entries of the global registry, so
//! concurrent runs do not see each other), and the final [`LoadgenRecord`] — counts, throughput, p50/p99/p999 per
//! op class — is plain serde data, ready for a smoke-test round-trip (the
//! `loadgen` example files its throughput in the perf ledger).

use crate::api::{
    AppendReq, FinalizedHeightReq, LinearizeReq, ReadReq, Request, Response, SnapshotAtFinalReq,
    SnapshotAtReq, TipReq,
};
use crate::cluster::ClusterConfig;
use crate::mempool::MempoolConfig;
use crate::runtime::{NodeHandle, NodeRuntime};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenConfig {
    /// Protocol nodes in the cluster.
    pub nodes: usize,
    /// Client threads.
    pub clients: usize,
    /// Total request budget across all clients (0 = no budget; stop on
    /// `duration_ms` alone).
    pub requests: u64,
    /// Wall-clock cap in milliseconds (0 = no cap; stop on `requests`
    /// alone). At least one of the two must be set.
    pub duration_ms: u64,
    /// Fraction of operations that are read-side (quorum reads + archive
    /// queries); the rest are appends.
    pub read_mix: f64,
    /// Zipf exponent for author selection (0 = uniform; larger = more
    /// skew onto the hottest authors).
    pub skew: f64,
    /// Author pool size the zipf draw ranges over.
    pub authors: usize,
    /// Outstanding requests per client (1 = closed loop).
    pub pipeline: usize,
    /// Base seed; client `c` derives its stream from `seed ^ c`.
    pub seed: u64,
    /// Gossip topology of the cluster network (`--topology
    /// mesh|relay:k|geo:r`). Zero-latency links either way, so the
    /// request numbers measure serving overhead, not simulated distance.
    pub topology: am_net::Topology,
}

impl LoadgenConfig {
    /// The validated network configuration of the cluster under load.
    pub fn topology_config(&self) -> Result<am_net::NetConfig, am_net::NetConfigError> {
        am_net::NetConfig::builder()
            .latency(am_net::LatencyModel::Constant(0))
            .topology(self.topology)
            .build()
    }
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            nodes: 4,
            clients: 4,
            requests: 100_000,
            duration_ms: 0,
            read_mix: 0.9,
            skew: 1.0,
            authors: 64,
            pipeline: 1,
            seed: 0,
            topology: am_net::Topology::FullMesh,
        }
    }
}

/// Latency summary of one op class, lifted from an `am-obs` histogram
/// (quantiles are log₂-bucket upper bounds).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OpStats {
    /// Completed calls.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// Median latency (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency (bucket upper bound), nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency (bucket upper bound), nanoseconds.
    pub p999_ns: u64,
}

impl OpStats {
    fn from_hist(h: &am_obs::Histogram) -> OpStats {
        let s = h.stats();
        OpStats {
            count: s.count,
            mean_ns: s.mean,
            p50_ns: s.p50,
            p99_ns: s.p99,
            p999_ns: s.p999,
        }
    }
}

/// The result of one load run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoadgenRecord {
    /// Protocol nodes.
    pub nodes: u64,
    /// Client threads.
    pub clients: u64,
    /// Author pool size.
    pub authors: u64,
    /// Read-side fraction requested.
    pub read_mix: f64,
    /// Zipf exponent.
    pub skew: f64,
    /// Outstanding requests per client.
    pub pipeline: u64,
    /// Base seed.
    pub seed: u64,
    /// Requests completed (responses received).
    pub completed: u64,
    /// Requests that came back as typed errors (e.g. `Stalled`).
    pub errors: u64,
    /// Wall-clock run time in milliseconds.
    pub elapsed_ms: u64,
    /// Completed requests per second.
    pub requests_per_sec: f64,
    /// Request round-trips per second counting typed-error responses too
    /// — the loadgen's analogue of the sweep engine's trials/sec.
    pub trials_per_sec: f64,
    /// Append-call latency.
    pub append: OpStats,
    /// Quorum-read-call latency.
    pub read: OpStats,
    /// Archive-query-call latency (tip / snapshot / linearize).
    pub query: OpStats,
    /// Finality-query-call latency (finalized height / snapshot-at-final).
    pub finality: OpStats,
}

/// Cumulative zipf distribution over `n` authors with exponent `theta`.
/// Deterministic, precomputed once, sampled by binary search.
struct ZipfCdf(Vec<f64>);

impl ZipfCdf {
    fn new(n: usize, theta: f64) -> ZipfCdf {
        let mut weights: Vec<f64> = (0..n.max(1))
            .map(|k| 1.0 / ((k + 1) as f64).powf(theta))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        ZipfCdf(weights)
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        self.0.partition_point(|&c| c < u) as u64
    }
}

/// The op classes a client draws.
enum OpKind {
    Append,
    Read,
    Query,
    Finality,
}

fn draw_request<R: Rng>(rng: &mut R, cfg: &LoadgenConfig, zipf: &ZipfCdf) -> (OpKind, Request) {
    if rng.gen::<f64>() >= cfg.read_mix {
        let author = zipf.sample(rng);
        return (
            OpKind::Append,
            Request::Append(AppendReq {
                author,
                value: if rng.gen::<bool>() { 1 } else { -1 },
            }),
        );
    }
    let node = rng.gen_range(0..cfg.nodes) as u64;
    match rng.gen_range(0..12u32) {
        0 => (OpKind::Read, Request::Read(ReadReq { node })),
        1..=6 => (OpKind::Query, Request::Tip(TipReq { node })),
        7..=8 => (
            OpKind::Query,
            Request::SnapshotAt(SnapshotAtReq {
                node,
                // The server clamps to the current height, so an
                // optimistic range still exercises mid-log snapshots.
                height: rng.gen_range(0..1_000_000),
            }),
        ),
        9 => (OpKind::Query, Request::Linearize(LinearizeReq { node })),
        10 => (
            OpKind::Finality,
            Request::FinalizedHeight(FinalizedHeightReq { node }),
        ),
        _ => (
            OpKind::Finality,
            Request::SnapshotAtFinal(SnapshotAtFinalReq { node }),
        ),
    }
}

/// Shared stop state: a countdown budget and a deadline.
struct StopState {
    remaining: AtomicU64,
    deadline: Option<Instant>,
}

impl StopState {
    /// Claims one request slot; false once the run should stop.
    fn claim(&self) -> bool {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        self.remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
            .is_ok()
    }
}

struct ClientOutcome {
    completed: u64,
    errors: u64,
}

/// One run's latency store: a histogram per op class, shared by its
/// client threads.
#[derive(Clone)]
struct Latencies {
    append: am_obs::Histogram,
    read: am_obs::Histogram,
    query: am_obs::Histogram,
    finality: am_obs::Histogram,
}

fn client_loop(
    cfg: LoadgenConfig,
    client: u64,
    handle: NodeHandle,
    stop: Arc<StopState>,
    lat: Latencies,
) -> ClientOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ (0x10ad ^ client.wrapping_mul(0x9e37)));
    let zipf = ZipfCdf::new(cfg.authors, cfg.skew);
    let mut out = ClientOutcome {
        completed: 0,
        errors: 0,
    };
    // The pipeline window: issued-but-unresolved calls, oldest first.
    let mut window: std::collections::VecDeque<(
        OpKind,
        Instant,
        std::sync::mpsc::Receiver<Response>,
    )> = std::collections::VecDeque::new();
    let resolve = |slot: (OpKind, Instant, std::sync::mpsc::Receiver<Response>),
                   out: &mut ClientOutcome| {
        let (kind, started, rx) = slot;
        let Ok(resp) = rx.recv() else {
            return; // runtime gone; outer loop will notice on next send
        };
        let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        match kind {
            OpKind::Append => lat.append.record(ns),
            OpKind::Read => lat.read.record(ns),
            OpKind::Query => lat.query.record(ns),
            OpKind::Finality => lat.finality.record(ns),
        }
        out.completed += 1;
        if resp.is_err() {
            out.errors += 1;
        }
    };
    while stop.claim() {
        let (kind, req) = draw_request(&mut rng, &cfg, &zipf);
        let started = Instant::now();
        let Some(rx) = handle.call_async(req) else {
            break;
        };
        window.push_back((kind, started, rx));
        while window.len() >= cfg.pipeline.max(1) {
            let slot = window.pop_front().expect("window non-empty");
            resolve(slot, &mut out);
        }
    }
    for slot in window {
        resolve(slot, &mut out);
    }
    out
}

/// Runs the workload and returns the measured record. Touches no global
/// `am-obs` state: the latency histograms are the run's own values.
pub fn run(cfg: LoadgenConfig) -> LoadgenRecord {
    assert!(
        cfg.requests > 0 || cfg.duration_ms > 0,
        "either a request budget or a duration must bound the run"
    );
    let lat = Latencies {
        append: am_obs::Histogram::detached(),
        read: am_obs::Histogram::detached(),
        query: am_obs::Histogram::detached(),
        finality: am_obs::Histogram::detached(),
    };

    let rt = NodeRuntime::spawn(ClusterConfig {
        nodes: cfg.nodes,
        seed: cfg.seed,
        net: cfg
            .topology_config()
            .expect("loadgen topology config is valid"),
        mempool: MempoolConfig::default(),
    });
    let stop = Arc::new(StopState {
        remaining: AtomicU64::new(if cfg.requests == 0 {
            u64::MAX
        } else {
            cfg.requests
        }),
        deadline: (cfg.duration_ms > 0)
            .then(|| Instant::now() + std::time::Duration::from_millis(cfg.duration_ms)),
    });

    let started = Instant::now();
    let clients: Vec<_> = (0..cfg.clients)
        .map(|c| {
            let handle = rt.handle();
            let stop = Arc::clone(&stop);
            let lat = lat.clone();
            std::thread::spawn(move || client_loop(cfg, c as u64, handle, stop, lat))
        })
        .collect();
    let mut completed = 0;
    let mut errors = 0;
    for t in clients {
        let o = t.join().expect("client thread panicked");
        completed += o.completed;
        errors += o.errors;
    }
    let elapsed = started.elapsed();
    drop(rt.join());

    LoadgenRecord {
        nodes: cfg.nodes as u64,
        clients: cfg.clients as u64,
        authors: cfg.authors as u64,
        read_mix: cfg.read_mix,
        skew: cfg.skew,
        pipeline: cfg.pipeline.max(1) as u64,
        seed: cfg.seed,
        completed,
        errors,
        elapsed_ms: elapsed.as_millis().min(u128::from(u64::MAX)) as u64,
        requests_per_sec: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        trials_per_sec: (completed + errors) as f64 / elapsed.as_secs_f64().max(1e-9),
        append: OpStats::from_hist(&lat.append),
        read: OpStats::from_hist(&lat.read),
        query: OpStats::from_hist(&lat.query),
        finality: OpStats::from_hist(&lat.finality),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_completes_with_latency_data() {
        let cfg = LoadgenConfig {
            nodes: 4,
            clients: 3,
            requests: 2_000,
            read_mix: 0.8,
            seed: 42,
            ..LoadgenConfig::default()
        };
        let rec = run(cfg);
        assert_eq!(rec.completed, 2_000, "the whole budget is consumed");
        assert_eq!(rec.errors, 0, "an ideal network decides everything");
        assert!(rec.requests_per_sec > 0.0);
        assert!(
            rec.trials_per_sec >= rec.requests_per_sec,
            "trials count errored round-trips too"
        );
        assert!(
            rec.append.count > 0 && rec.query.count > 0 && rec.finality.count > 0,
            "append, query, and finality op classes all ran: {rec:?}"
        );
        assert_eq!(
            rec.append.count + rec.read.count + rec.query.count + rec.finality.count,
            rec.completed,
            "every completed call is in exactly one histogram"
        );
        assert!(rec.append.p50_ns > 0 && rec.append.p999_ns >= rec.append.p99_ns);
    }

    #[test]
    fn record_round_trips_through_json() {
        let cfg = LoadgenConfig {
            nodes: 4,
            clients: 2,
            requests: 400,
            pipeline: 8,
            seed: 7,
            ..LoadgenConfig::default()
        };
        let rec = run(cfg);
        let json = serde_json::to_string_pretty(&rec).unwrap();
        let back: LoadgenRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec, "loadgen record must round-trip losslessly");
    }

    #[test]
    fn zipf_skew_concentrates_on_low_authors() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let skewed = ZipfCdf::new(64, 1.2);
        let uniform = ZipfCdf::new(64, 0.0);
        let hot =
            |cdf: &ZipfCdf, rng: &mut ChaCha8Rng| (0..4000).filter(|_| cdf.sample(rng) < 4).count();
        let hot_skewed = hot(&skewed, &mut rng);
        let hot_uniform = hot(&uniform, &mut rng);
        assert!(
            hot_skewed > hot_uniform * 3,
            "skewed {hot_skewed} vs uniform {hot_uniform}"
        );
    }
}
