//! `serve_read_heavy` and `serve_append_heavy`: a closed loop with one
//! inline caller driving `Cluster::handle`.
//!
//! The cluster core is one synchronous server, so its capacity is the
//! reciprocal of the mean service time and no queue can grow; links have
//! `LatencyModel::Constant(0)`, so every time below is processor time, not
//! a network latency.

use super::hop;
use super::shadow::Shadow;
use crate::gen::{class_of, requests, Class, Mix};
use crate::rep::{Meter, Outcome, Rep, Workload};
use crate::stats::{highest_percentile, percentile, supported_percentile};
use crate::trace::Tracer;
use crate::Layers;
use am_node::api::{Request, Response};
use am_node::{Cluster, ClusterConfig};
use std::hint::black_box;
use std::time::Instant;

/// Calibration stops inside the timed section of an untraced repetition.
const CALIBRATION_STOPS: usize = 40;

/// Requests the runtime-hop probe replays.
const HOP_REQUESTS: usize = 60_000;

/// A serving workload.
pub struct Serve {
    name: &'static str,
    mix: Mix,
    seed: u64,
    /// Whether the traced run also reports read percentiles, read growth
    /// and the runtime-hop probe (the read-heavy stream only: the
    /// append-heavy one has too few reads to carry a p99).
    read_side_probes: bool,
}

impl Serve {
    /// n = 4, 200 000 requests, 90 % read-side.
    pub fn read_heavy(seed: u64, scale: usize) -> Serve {
        Serve {
            name: "serve_read_heavy",
            mix: Mix {
                total: 200_000 / scale,
                read_percent: 90,
                nodes: 4,
            },
            seed,
            read_side_probes: true,
        }
    }

    /// n = 8, 40 000 requests, 10 % read-side.
    pub fn append_heavy(seed: u64, scale: usize) -> Serve {
        Serve {
            name: "serve_append_heavy",
            mix: Mix {
                total: 40_000 / scale,
                read_percent: 10,
                nodes: 8,
            },
            seed,
            read_side_probes: false,
        }
    }

    fn config(&self) -> ClusterConfig {
        ClusterConfig::ideal(self.mix.nodes, self.seed)
    }

    /// Set-up shared by every kind of repetition: the request stream, then
    /// one-twentieth of it through a throwaway cluster so that lazy
    /// initialisation is paid (and shows) in `setup_s`.
    fn set_up(&self, meter: &mut Meter) -> Vec<Request> {
        let reqs = requests(&self.mix, self.seed);
        meter.inputs_done();
        let mut warm = Cluster::new(self.config());
        for req in &reqs[..reqs.len() / 20] {
            black_box(warm.handle(req));
        }
        reqs
    }

    /// The invariants of a finished stream and its outcome object.
    fn check(&self, cluster: &mut Cluster, tally: &Tally) -> (Outcome, Vec<String>) {
        let mut problems = Vec::new();
        if tally.errors > 0 {
            problems.push(format!(
                "{} requests returned Response::Error",
                tally.errors
            ));
        }
        let sent = match cluster.handle(&Request::Stats) {
            Response::Stats(s) => s.sent,
            other => {
                problems.push(format!("Stats answered {other:?}"));
                0
            }
        };
        cluster.converge();
        let digest = cluster.archive(0).linearization_digest();
        for node in 0..cluster.n() {
            let ar = cluster.archive(node);
            if ar.linearization_digest() != digest {
                problems.push(format!(
                    "node {node} linearization digest differs from node 0"
                ));
            }
            if ar.height() as u64 != tally.appended {
                problems.push(format!(
                    "node {node} archived {} of {} acknowledged appends",
                    ar.height(),
                    tally.appended
                ));
            }
        }
        if tally.appended != self.mix.appends() as u64 {
            problems.push(format!(
                "{} of {} appends acknowledged",
                tally.appended,
                self.mix.appends()
            ));
        }
        let mut out = Outcome::default();
        out.put("requests", self.mix.total as u64);
        out.put("appended", tally.appended);
        out.put("viewed", tally.viewed);
        out.put("errors", tally.errors);
        out.put("messages_sent", sent);
        out.put("linearization_digest", digest);
        out.put(
            "finalized_height",
            cluster.archive(0).finalized_height() as u64,
        );
        (out, problems)
    }

    /// A repetition with an `Instant` pair around every request.
    fn timed_rep(&self) -> Timed {
        let mut meter = Meter::start(1);
        let reqs = self.set_up(&mut meter);
        let mut cluster = Cluster::new(self.config());
        let mut by_class = vec![Vec::new(); Class::ALL.len()];
        let mut per_request = Vec::with_capacity(reqs.len());
        let mut tally = Tally::default();
        meter.setup_done();
        for req in &reqs {
            let t = Instant::now();
            let resp = cluster.handle(req);
            let ns = t.elapsed().as_nanos() as u64;
            tally.count(&resp);
            by_class[class_of(req).index()].push(ns);
            per_request.push(ns);
        }
        meter.run_done();
        let archives = snapshot_archives(&cluster);
        let (outcome, problems) = self.check(&mut cluster, &tally);
        Timed {
            by_class,
            per_request,
            archives,
            rep: meter.finish(reqs.len() as u64, tally.errors, outcome, problems),
        }
    }
}

/// What [`Serve::timed_rep`] measured.
struct Timed {
    /// Service times per [`Class`], in stream order.
    by_class: Vec<Vec<u64>>,
    /// Service time of every request, in stream order.
    per_request: Vec<u64>,
    /// The archives when the stream ended, before `converge`.
    archives: Vec<(usize, u64, usize)>,
    rep: Rep,
}

/// Per-node `(height, linearization digest, finalized height)`.
pub fn snapshot_archives(cluster: &Cluster) -> Vec<(usize, u64, usize)> {
    (0..cluster.n())
        .map(|node| {
            let ar = cluster.archive(node);
            (
                ar.height(),
                ar.linearization_digest(),
                ar.finalized_height(),
            )
        })
        .collect()
}

/// What the responses of a stream added up to.
#[derive(Default)]
pub struct Tally {
    /// `Response::Appended`.
    pub appended: u64,
    /// `Response::View`.
    pub viewed: u64,
    /// `Response::Error`.
    pub errors: u64,
}

impl Tally {
    /// Counts one response.
    pub fn count(&mut self, resp: &Response) {
        match resp {
            Response::Appended(_) => self.appended += 1,
            Response::View(_) => self.viewed += 1,
            Response::Error(_) => self.errors += 1,
            _ => {}
        }
    }
}

impl Workload for Serve {
    fn name(&self) -> &'static str {
        self.name
    }

    fn op_unit(&self) -> &'static str {
        "requests"
    }

    fn rep(&self) -> Rep {
        let mut meter = Meter::start(1);
        let reqs = self.set_up(&mut meter);
        let mut cluster = Cluster::new(self.config());
        let mut tally = Tally::default();
        meter.setup_done();
        for (i, chunk) in reqs
            .chunks(reqs.len().div_ceil(CALIBRATION_STOPS))
            .enumerate()
        {
            if i > 0 {
                meter.calibrate();
            }
            for req in chunk {
                let resp = cluster.handle(req);
                tally.count(&resp);
                black_box(resp);
            }
        }
        meter.run_done();
        let (outcome, problems) = self.check(&mut cluster, &tally);
        meter.finish(reqs.len() as u64, tally.errors, outcome, problems)
    }

    fn traced(&self, tracer: &mut Tracer, layers: &mut Layers) -> Rep {
        // Pass 1: the real cluster with a timer pair per request.
        let Timed {
            mut by_class,
            per_request,
            archives,
            rep: timed,
        } = self.timed_rep();
        for class in Class::ALL {
            let samples = &by_class[class.index()];
            let mean = samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64;
            layers.set(&format!("node.handle.{}_ns", class.label()), mean);
        }
        let reads = by_class[Class::Read.index()].clone();
        for class in [Class::Append, Class::Read] {
            if class == Class::Read && !self.read_side_probes {
                continue;
            }
            let samples = &mut by_class[class.index()];
            for (p, tag) in [(50.0, "p50"), (99.0, "p99")] {
                if let Some(v) = supported_percentile(samples, p) {
                    layers.set(&format!("node.handle.{}_ns_{tag}", class.label()), v as f64);
                }
            }
            if let Some(p) = highest_percentile(samples.len()) {
                println!(
                    "    {} service time: {} samples, p{p} = {} ns",
                    class.label(),
                    samples.len(),
                    percentile(samples, p)
                );
            }
        }
        if self.read_side_probes && reads.len() >= 20 {
            let decile = reads.len() / 10;
            let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
            layers.set(
                "mp.read_growth",
                mean(&reads[reads.len() - decile..]) / mean(&reads[..decile]),
            );
        }

        // Pass 2: the shadow pipeline, one span per layer call.
        let mut meter = Meter::start(1);
        let reqs = self.set_up(&mut meter);
        let mut shadow = Shadow::new(self.config(), tracer);
        let mut tally = Tally::default();
        meter.setup_done();
        for (i, req) in reqs.iter().enumerate() {
            tracer.set_op(i as u32);
            let resp = shadow.handle(req, tracer);
            tally.count(&resp);
            black_box(resp);
        }
        meter.run_done();
        let mut problems = timed.problems;
        // Same seed, same requests, same glue: the shadow's archives must
        // be the real cluster's, node by node, before any convergence.
        if shadow.archive_state() != archives {
            problems.push(
                "shadow pipeline archives (height, linearization digest, watermark) differ \
                 from the real Cluster's"
                    .to_string(),
            );
        }
        shadow.report(tracer, layers);

        if self.read_side_probes {
            let n = HOP_REQUESTS.min(reqs.len());
            hop::probe(self.config(), &reqs[..n], &per_request[..n], layers);
        }
        let mut rep = meter.finish(
            reqs.len() as u64,
            tally.errors,
            Outcome::default(),
            problems,
        );
        rep.outcome = timed.outcome;
        rep
    }
}
