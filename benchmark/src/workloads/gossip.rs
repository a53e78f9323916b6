//! `gossip_scale`: E18's divergence probe at n = 5 000, driven call by call
//! through `Propagation`.

use crate::rep::{Meter, Outcome, Rep, Workload};
use crate::trace::{NameId, Tracer};
use crate::Layers;
use am_core::{MsgId, Time};
use am_net::{LatencyModel, NetConfig, Topology};
use am_protocols::Propagation;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Global append rate: blocks per Δ across the whole network.
const BLOCKS_PER_DELTA: f64 = 8.0;

/// Blocks between two calibration samples.
const CALIBRATE_EVERY: usize = 10;

/// Gossip fanout; E18 asserts messages / (blocks · n) equals it.
const FANOUT: usize = 6;

/// The gossip workload.
pub struct Gossip {
    seed: u64,
    n: usize,
    blocks: usize,
}

struct Names {
    advance: NameId,
    tips: NameId,
    on_append: NameId,
    settle: NameId,
    pull: NameId,
}

impl Gossip {
    /// n = 5 000, 120 blocks (n = 500 at smoke size).
    pub fn new(seed: u64, scale: usize) -> Gossip {
        Gossip {
            seed,
            n: 5_000 / scale,
            blocks: 120,
        }
    }

    /// E18's overlay: eight geo regions with degree-8 relay graphs and
    /// 40–200 ms long-haul links, 2–20 ms hops, 20 Mbit/s links, fanout 6.
    fn config() -> NetConfig {
        NetConfig::builder()
            .topology(Topology::Geo {
                regions: 8,
                k: 8,
                inter: LatencyModel::Uniform {
                    lo: 40_000_000,
                    hi: 200_000_000,
                },
            })
            .latency(LatencyModel::Uniform {
                lo: 2_000_000,
                hi: 20_000_000,
            })
            .bandwidth_bps(20_000_000)
            .fanout(FANOUT)
            .build()
            .expect("static config")
    }

    /// Poisson arrival times (Δ = 1 s) and uniform authors.
    fn arrivals(&self) -> Vec<(f64, usize)> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xd1ce_0018);
        let mut now = 0.0f64;
        (0..self.blocks)
            .map(|_| {
                now += -(1.0 - rng.gen::<f64>()).ln() / BLOCKS_PER_DELTA;
                (now, rng.gen_range(0..self.n))
            })
            .collect()
    }

    fn run(&self, mut tracer: Option<&mut Tracer>, layers: Option<&mut Layers>) -> Rep {
        let mut meter = Meter::start(2);
        let arrivals = self.arrivals();
        meter.inputs_done();
        let cfg = Gossip::config();
        // Warm-up: a twentieth of the nodes and of the blocks, to a settle.
        let mut warm = Propagation::new(self.n / 20, &cfg, self.seed);
        for (i, &(at, author)) in arrivals.iter().take(self.blocks / 20).enumerate() {
            warm.advance_to(Time::new(at));
            let parents = warm.visible_tips(author % (self.n / 20)).to_vec();
            warm.on_append(
                author % (self.n / 20),
                MsgId(i as u64 + 1),
                &parents,
                Time::new(at),
            );
        }
        warm.settle();
        drop(warm);
        let built = Instant::now();
        let mut prop = Propagation::new(self.n, &cfg, self.seed);
        let build_ns = built.elapsed().as_nanos() as f64;
        let names = tracer.as_deref_mut().map(|t| Names {
            advance: t.name("protocols.propagation.advance_to"),
            tips: t.name("protocols.propagation.visible_tips"),
            on_append: t.name("protocols.propagation.on_append"),
            settle: t.name("protocols.propagation.settle"),
            pull: t.name("protocols.propagation.pull_missing_parents"),
        });
        // With a tracer, `$call` runs inside a span named `$name`.
        macro_rules! spanned {
            ($name:ident, $call:expr) => {
                match (tracer.as_deref_mut(), names.as_ref()) {
                    (Some(t), Some(n)) => {
                        let id = t.enter(n.$name);
                        let out = $call;
                        t.exit(id);
                        out
                    }
                    _ => $call,
                }
            };
        }
        let mut parents: Vec<MsgId> = Vec::new();
        meter.setup_done();
        for (i, &(at, author)) in arrivals.iter().enumerate() {
            if i > 0 && i % CALIBRATE_EVERY == 0 {
                meter.calibrate();
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.set_op(i as u32);
            }
            let at = Time::new(at);
            spanned!(advance, prop.advance_to(at));
            parents.clear();
            parents.extend_from_slice(spanned!(tips, prop.visible_tips(author)));
            spanned!(
                on_append,
                prop.on_append(author, MsgId(i as u64 + 1), &parents, at)
            );
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.set_op(self.blocks as u32);
        }
        meter.calibrate();
        spanned!(settle, prop.settle());
        meter.calibrate();
        // Fanout-limited flooding can skip a neighbour; parent pull repair
        // closes the gap, as E18 does.
        let mut repair_pulls = 0usize;
        loop {
            let pulled: usize = spanned!(
                pull,
                (0..self.n).map(|v| prop.pull_missing_parents(v)).sum()
            );
            if pulled == 0 {
                break;
            }
            repair_pulls += pulled;
            spanned!(settle, prop.settle());
        }
        meter.run_done();

        let full = self.blocks + 1;
        let behind = (0..self.n)
            .filter(|&v| prop.visible_count(v) != full)
            .count();
        let totals = prop.stats().totals();
        let mut problems = Vec::new();
        if behind > 0 {
            problems.push(format!("{behind} nodes did not converge to the full DAG"));
        }
        let per_block_node = totals.sent as f64 / (self.blocks * self.n) as f64;
        if format!("{per_block_node:.1}") != format!("{FANOUT}.0") {
            problems.push(format!(
                "messages / (blocks · n) = {per_block_node}, E18 expects {FANOUT}.0"
            ));
        }
        let mut out = Outcome::default();
        out.put("sent", totals.sent);
        out.put("delivered", totals.delivered);
        out.put("dropped", totals.dropped);
        out.put("active_links", prop.stats().active_links() as u64);
        out.put("repair_pulls", repair_pulls as u64);
        out.put("nodes_behind", behind as u64);

        if let (Some(t), Some(layers)) = (tracer, layers) {
            let agg = t.aggregate();
            let of = |name: &str| agg.get(name).copied().unwrap_or_default();
            let advance = of("protocols.propagation.advance_to");
            let settle = of("protocols.propagation.settle");
            layers.set("net.topology.build_ns", build_ns);
            layers.set("net.sim.sent", totals.sent as f64);
            layers.set("net.sim.delivered", totals.delivered as f64);
            layers.set("net.sim.dropped", totals.dropped as f64);
            layers.set("net.sim.active_links", prop.stats().active_links() as f64);
            layers.set(
                "net.sim.deliver_ns",
                (advance.total_ns + settle.total_ns) as f64 / totals.delivered as f64,
            );
            layers.set(
                "protocols.propagation.on_append_ns",
                of("protocols.propagation.on_append").mean_ns(),
            );
            layers.set("protocols.propagation.advance_ns", advance.mean_ns());
            layers.set("protocols.propagation.settle_ns", settle.mean_ns());
            layers.set("protocols.propagation.repair_pulls", repair_pulls as f64);
        }
        meter.finish(totals.delivered, behind as u64, out, problems)
    }
}

impl Workload for Gossip {
    fn name(&self) -> &'static str {
        "gossip_scale"
    }

    fn op_unit(&self) -> &'static str {
        "deliveries"
    }

    fn rep(&self) -> Rep {
        self.run(None, None)
    }

    fn traced(&self, tracer: &mut Tracer, layers: &mut Layers) -> Rep {
        self.run(Some(tracer), Some(layers))
    }
}
