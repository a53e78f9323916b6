//! `sweep_abstract`, `sweep_net` and `bft_finality`: Monte-Carlo points
//! through `SweepRunner::measure`, the entry point the experiments use.

use crate::probes;
use crate::rep::{Meter, Outcome, Rep, Workload};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::Layers;
use am_net::{LatencyModel, NetConfig};
use am_poisson::TokenAuthority;
use am_protocols::sweep::{SweepConfig, SweepRunner};
use am_protocols::{
    run_bft, run_bft_net, run_chain_net, run_dag, run_dag_net, trial_seed, BftAdversary,
    ChainAdversary, DagAdversary, DagRule, Params, TieBreak, TrialKind,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One Δ of the protocol clock in network nanoseconds (as
/// `am_protocols::propagation` defines it).
const DELTA_NS: u64 = 1_000_000_000;

/// Trials per point the matched probes re-run through the per-protocol
/// entry points (`run_dag`, `run_*_net`, `run_bft`) to read what
/// `measure` does not return.
const PROBE_TRIALS: u64 = 256;

/// Span around each `SweepRunner::measure` call.
const MEASURE_SPAN: &str = "protocols.sweep.measure";

/// One sweep point.
struct Point {
    key: &'static str,
    /// Suffix of the `protocols.trial_ns.*` metric the point's trials are
    /// pooled under.
    lane: &'static str,
    params: Params,
    kind: TrialKind,
    trials: u64,
}

/// Which of the three sweep workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flavour {
    Abstract,
    Net,
    Bft,
}

/// A sweep workload: a fixed list of points.
pub struct Sweep {
    name: &'static str,
    flavour: Flavour,
    seed: u64,
    scale: u64,
}

impl Sweep {
    /// `sweep_abstract`: Section 5's Monte-Carlo path with no network.
    /// `sweep_net`: E14's shape, block propagation over a lossy,
    /// partitioned `SimNet`. `bft_finality`: the BFT finality layer,
    /// abstract and networked.
    pub fn new(name: &'static str, seed: u64, scale: usize) -> Sweep {
        let flavour = match name {
            "sweep_abstract" => Flavour::Abstract,
            "sweep_net" => Flavour::Net,
            "bft_finality" => Flavour::Bft,
            other => unreachable!("{other} is not a sweep workload"),
        };
        Sweep {
            name,
            flavour,
            seed,
            scale: scale as u64,
        }
    }

    fn points(&self) -> Vec<Point> {
        let s = self.seed;
        let block_latency = LatencyModel::Constant(DELTA_NS / 20);
        let lossy = |drop: f64| {
            NetConfig::builder()
                .latency(block_latency)
                .drop(drop)
                .build()
                .expect("static config")
        };
        let chain = TrialKind::Chain(TieBreak::Randomized, ChainAdversary::TieBreaker);
        let dag = TrialKind::Dag(DagRule::LongestChain, DagAdversary::WithholdBurst);
        let point = |key, lane, params, kind, trials: u64| Point {
            key,
            lane,
            params,
            kind,
            trials: trials / self.scale,
        };
        match self.flavour {
            Flavour::Abstract => {
                let small = Params::new(12, 4, 0.4, 41, s ^ 0xa1);
                let large = Params::new(48, 16, 1.6, 15, s ^ 0xb2);
                let ghost = TrialKind::Dag(DagRule::Ghost, DagAdversary::Dissenter);
                vec![
                    point(
                        "n12/timestamp",
                        "timestamp",
                        small,
                        TrialKind::Timestamp,
                        6_000,
                    ),
                    point("n12/chain", "chain", small, chain, 6_000),
                    point("n12/dag_longest", "dag_longest", small, dag, 6_000),
                    point("n48/dag_ghost", "dag_ghost", large, ghost, 6_000),
                    point("n48/dag_longest", "dag_longest", large, dag, 6_000),
                ]
            }
            Flavour::Net => {
                let base = Params::new(12, 4, 0.5, 21, s ^ 0x14);
                let drops = base.with_net(lossy(0.2));
                let split = base.with_net(
                    NetConfig::builder()
                        .latency(block_latency)
                        .partition(0, 5 * DELTA_NS)
                        .build()
                        .expect("static config"),
                );
                vec![
                    point("drop0.2/chain", "chain_net", drops, chain, 1_000),
                    point("drop0.2/dag", "dag_net", drops, dag, 1_000),
                    point("part5/chain", "chain_net", split, chain, 1_000),
                    point("part5/dag", "dag_net", split, dag, 1_000),
                ]
            }
            Flavour::Bft => {
                let clean = Params::new(12, 0, 0.5, 9, s ^ 0x15);
                let faulty = Params::new(12, 3, 0.5, 9, s ^ 0x15);
                let absent = TrialKind::Bft(BftAdversary::Absent);
                let equivocator = TrialKind::Bft(BftAdversary::Equivocator);
                vec![
                    point("t0/absent", "bft", clean, absent, 750),
                    point("t3/equivocator", "bft", faulty, equivocator, 750),
                    point(
                        "t3/equivocator/drop0.1",
                        "bft_net",
                        faulty.with_net(lossy(0.1)),
                        equivocator,
                        150,
                    ),
                ]
            }
        }
    }

    /// Points, then one-twentieth of every point's trials as a warm-up (the
    /// per-thread scratch arenas fill on a thread's first trials).
    fn set_up(&self, meter: &mut Meter) -> (Vec<Point>, SweepRunner<'static>) {
        let points = self.points();
        meter.inputs_done();
        let runner = SweepRunner::new(SweepConfig::fixed());
        for p in &points {
            black_box(runner.measure(p.key, &p.params, p.kind, (p.trials / 20).max(1)));
        }
        (points, runner)
    }

    /// Runs every point, with a span around each `measure` call when a
    /// tracer is given.
    fn run(
        &self,
        mut meter: Meter,
        points: &[Point],
        runner: &SweepRunner<'_>,
        mut tracer: Option<&mut Tracer>,
    ) -> Rep {
        let mut hits: Vec<Option<u64>> = vec![None; points.len()];
        let mut problems = Vec::new();
        let name = tracer.as_deref_mut().map(|t| t.name(MEASURE_SPAN));
        meter.setup_done();
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                meter.calibrate();
            }
            let span = tracer.as_deref_mut().zip(name).map(|(t, name)| {
                t.set_op(i as u32);
                t.enter(name)
            });
            // A panicking trial takes its whole point down; the point's
            // trials are then counted as failed.
            let result = catch_unwind(AssertUnwindSafe(|| {
                runner.measure(p.key, &p.params, p.kind, p.trials)
            }));
            if let Some((t, id)) = tracer.as_deref_mut().zip(span) {
                t.exit(id);
            }
            match result {
                Ok(r) if r.complete && r.trials_used() == p.trials => hits[i] = Some(r.tally.hits),
                Ok(r) => problems.push(format!(
                    "{}: ran {} of {} trials",
                    p.key,
                    r.trials_used(),
                    p.trials
                )),
                Err(_) => problems.push(format!("{}: a trial panicked", p.key)),
            }
        }
        meter.run_done();
        let mut out = Outcome::default();
        let (mut ops, mut failed) = (0, 0);
        for (p, h) in points.iter().zip(&hits) {
            ops += p.trials;
            match h {
                Some(h) => out.put(format!("{}: hits of {}", p.key, p.trials), *h),
                None => failed += p.trials,
            }
        }
        meter.finish(ops, failed, out, problems)
    }
}

impl Workload for Sweep {
    fn name(&self) -> &'static str {
        self.name
    }

    fn op_unit(&self) -> &'static str {
        "trials"
    }

    fn rep(&self) -> Rep {
        let mut meter = Meter::start(4);
        let (points, runner) = self.set_up(&mut meter);
        self.run(meter, &points, &runner, None)
    }

    fn traced(&self, tracer: &mut Tracer, layers: &mut Layers) -> Rep {
        // Pass 1: a span around every `measure`.
        let mut meter = Meter::start(4);
        let (points, runner) = self.set_up(&mut meter);
        let mut rep = self.run(meter, &points, &runner, Some(tracer));
        let measure_ns = tracer.stats_of(MEASURE_SPAN).total_ns;

        // Pass 2: every trial on its own, through `TrialKind::run_one` with
        // the seeds `measure` derives. The tallies must match pass 1.
        let run_one = tracer.name("protocols.trial.run_one");
        let mut lanes: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut trials_ns = 0u64;
        let mut op = points.len() as u32;
        for p in &points {
            let samples = lanes.entry(p.lane).or_default();
            let mut hits = 0u64;
            for i in 0..p.trials {
                let params = p.params.with_seed(trial_seed(p.params.seed, i));
                tracer.set_op(op);
                op += 1;
                let span = tracer.enter(run_one);
                let failed = p.kind.run_one(&params);
                tracer.exit(span);
                let ns = tracer.duration_ns(span);
                hits += u64::from(failed);
                samples.push(ns);
                trials_ns += ns;
            }
            let want = rep.outcome.get(&format!("{}: hits of {}", p.key, p.trials));
            if want.and_then(|v| v.as_u64()) != Some(hits) {
                rep.problems.push(format!(
                    "{}: run_one counted {hits} hits, measure {want:?}",
                    p.key
                ));
            }
        }
        for (lane, samples) in &mut lanes {
            samples.sort_unstable();
            layers.set(
                &format!("protocols.trial_ns.{lane}"),
                percentile(samples, 50.0) as f64,
            );
        }
        if self.flavour == Flavour::Abstract {
            // Both passes carry one timer pair per trial or per point, so
            // what is left is the engine: batching, stop rule, seed mixing.
            layers.set(
                "protocols.sweep.overhead_share",
                (measure_ns as f64 - trials_ns as f64) / measure_ns as f64,
            );
        }

        // Matched probes, sized from what the trials themselves did.
        self.probe_trials(&points, layers, &mut rep.problems);
        match self.flavour {
            Flavour::Abstract => {
                probes::poisson(layers);
                let blocks = layers.get("protocols.appends_per_trial").round() as usize;
                probes::core(layers, blocks.max(8));
            }
            Flavour::Net => probes::poisson(layers),
            Flavour::Bft => {}
        }
        rep
    }
}

impl Sweep {
    /// Re-runs the first [`PROBE_TRIALS`] trials of each point through the
    /// per-protocol entry points to read work counts, network totals and
    /// finality outcomes.
    fn probe_trials(&self, points: &[Point], layers: &mut Layers, problems: &mut Vec<String>) {
        let (mut appends, mut grants, mut dag_trials) = (0u64, 0u64, 0u64);
        let mut net = am_net::stats::Counters::default();
        let mut active_links = 0usize;
        let (mut finalized, mut observed, mut conflicts) = (0u64, 0u64, 0u64);
        for p in points {
            for i in 0..p.trials.min(PROBE_TRIALS) {
                let params = p.params.with_seed(trial_seed(p.params.seed, i));
                match (p.kind, params.net) {
                    (TrialKind::Dag(rule, adv), None) => {
                        let t = run_dag(&params, rule, adv);
                        appends += t.total_appends as u64;
                        grants += grants_until(&params, t.finish_time);
                        dag_trials += 1;
                    }
                    (TrialKind::Dag(rule, adv), Some(cfg)) => {
                        let (_, stats) = run_dag_net(&params, rule, adv, &cfg);
                        add(&mut net, stats.totals());
                        active_links = active_links.max(stats.active_links());
                    }
                    (TrialKind::Chain(tie, adv), Some(cfg)) => {
                        let (_, stats) = run_chain_net(&params, tie, adv, &cfg);
                        add(&mut net, stats.totals());
                        active_links = active_links.max(stats.active_links());
                    }
                    (TrialKind::Bft(adv), cfg) => {
                        let t = match cfg {
                            None => run_bft(&params, adv),
                            Some(cfg) => run_bft_net(&params, adv, &cfg).0,
                        };
                        finalized += t.finalized_height as u64;
                        observed += t.total_appends as u64;
                        conflicts += u64::from(t.conflict);
                    }
                    _ => {}
                }
            }
        }
        match self.flavour {
            Flavour::Abstract => {
                layers.set(
                    "protocols.appends_per_trial",
                    appends as f64 / dag_trials as f64,
                );
                layers.set(
                    "poisson.grants_per_trial",
                    grants as f64 / dag_trials as f64,
                );
            }
            Flavour::Net => {
                layers.set("net.sim.sent", net.sent as f64);
                layers.set("net.sim.delivered", net.delivered as f64);
                layers.set("net.sim.dropped", net.dropped as f64);
                layers.set("net.sim.active_links", active_links as f64);
            }
            Flavour::Bft => {
                layers.set("bft.finalized_share", finalized as f64 / observed as f64);
                if conflicts > 0 {
                    problems.push(format!("{conflicts} BFT trials detected a conflict"));
                }
                let blocks = (observed / (points.len() as u64 * PROBE_TRIALS).max(1)) as usize;
                probes::bft(layers, 12, blocks.max(8));
            }
        }
    }
}

fn add(into: &mut am_net::stats::Counters, c: am_net::stats::Counters) {
    into.sent += c.sent;
    into.delivered += c.delivered;
    into.dropped += c.dropped;
    into.duplicated += c.duplicated;
}

/// Grants the token authority of a trial issues up to `finish` (the
/// trial's own authority is seeded the same way, so this is the stream the
/// trial consumed).
fn grants_until(p: &Params, finish: f64) -> u64 {
    let mut auth = TokenAuthority::new(p.n, p.lambda, p.delta, &p.byz_nodes(), p.seed);
    let mut grants = 0;
    while auth.next_grant().time.seconds() <= finish {
        grants += 1;
    }
    grants
}
