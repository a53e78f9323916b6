//! The `net/*` lanes of the perf ledger, ns per delivered message: the
//! discrete-event simulator's broadcast + drain across sizes and latency
//! models, the bare per-message path of one broadcast at a time on an
//! ideal network, a network with every random fault on, a relay-gossip
//! flood at n = 1000 and the scale curve of E18's geo overlay at n = 500 /
//! 2 000 / 5 000 — then the event queue by itself (ns per event at 4 096 in
//! flight, fed in order and fed shuffled, and at gossip's ~56 k in flight
//! fed a spread delay) and one whole networked trial of the benchmark's
//! first `sweep_net` point.
//!
//! Per-link state is laid out over the topology — latency overrides,
//! bandwidth busy horizons and the `NetStats` counters hold one row per
//! overlay edge (every ordered pair on a mesh of at most 64 nodes) — so a
//! 5 000-node overlay holds ~8n rows instead of materializing n² of
//! them.

use am_bench::recorder::Recorder;
use am_core::{MsgId, Time};
use am_mp::Payload;
use am_net::{EventQueue, LatencyModel, NetConfig, SimNet, Topology, Transport};
use am_protocols::{run_chain_net, trial_seed, ChainAdversary, Params, Propagation, TieBreak};
use std::time::Duration;

/// A fault-free seed-1 mesh recording the delivery trace.
fn traced(latency: LatencyModel, n: usize) -> SimNet<Payload> {
    NetConfig::builder()
        .latency(latency)
        .trace(true)
        .build()
        .expect("valid config")
        .build_net(n, 1)
}

/// The same mesh at n = 16 with every random fault on: drops,
/// duplicates and reorders, whose extra delays are second samples of the
/// link latency.
fn faulty() -> SimNet<Payload> {
    NetConfig::builder()
        .latency(LatencyModel::Uniform {
            lo: 100,
            hi: 10_000,
        })
        .drop(0.1)
        .dup(0.05)
        .reorder(0.2)
        .trace(true)
        .build()
        .expect("valid config")
        .build_net(16, 1)
}

/// Broadcasts eight waves from every node and drains all arrivals;
/// returns the messages delivered.
fn pump(mut net: SimNet<Payload>) -> u64 {
    let n = net.n();
    for round in 0..8 {
        for from in 0..n {
            net.broadcast(
                from,
                Payload::ReadReq {
                    op: round * n as u64 + from as u64,
                },
            );
        }
        loop {
            let mut any = false;
            for node in 0..n {
                while net.deliver(node).is_some() {
                    any = true;
                }
            }
            if !net.advance() && !any {
                break;
            }
        }
    }
    net.delivered_count()
}

/// One lane: `build` a network, [`pump`] it, ns per message delivered
/// (the count is seed-deterministic, so one untimed run fixes it).
fn drain_lane(rec: &mut Recorder, op: &str, build: impl Fn() -> SimNet<Payload>) {
    let delivered = pump(build());
    rec.measure_absolute(op, delivered, Duration::from_millis(400), || pump(build()));
}

/// The overlay under test: a degree-8 relay graph, the E18 shape
/// without the geo latency classes (kernel cost, not physics).
fn overlay() -> NetConfig {
    NetConfig::builder()
        .topology(Topology::Relay { k: 8 })
        .latency(LatencyModel::Uniform {
            lo: 2_000_000,
            hi: 20_000_000,
        })
        .fanout(6)
        .build()
        .expect("static bench config is valid")
}

/// Floods `blocks` DAG blocks (round-robin authors, visible-tips
/// parents) over the overlay and drains the network; returns total
/// messages delivered.
fn flood(n: usize, blocks: usize, cfg: &NetConfig, seed: u64) -> u64 {
    let mut prop = Propagation::new(n, cfg, seed);
    let mut parents: Vec<MsgId> = Vec::new();
    for i in 1..=blocks {
        let at = Time::new(i as f64 * 0.125);
        let author = (i * 17) % n;
        prop.advance_to(at);
        parents.clear();
        parents.extend_from_slice(prop.visible_tips(author));
        prop.on_append(author, MsgId(i as u64), &parents, at);
    }
    prop.settle();
    prop.stats().totals().delivered
}

/// E18's overlay: eight geo regions of degree-8 relay graphs joined by
/// 40–200 ms gateways, 2–20 ms hops, 20 Mbit/s links, fanout 6.
fn e18_overlay() -> NetConfig {
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
        .fanout(6)
        .build()
        .expect("static bench config is valid")
}

/// Events in flight in the small queue lanes.
const IN_FLIGHT: u64 = 4_096;

/// Events in flight in the spread lane: about what `gossip_scale`'s heap
/// holds at n = 5 000.
const GOSSIP_IN_FLIGHT: u64 = 56_000;

/// A queue holding `in_flight` events, keys ascending.
fn loaded_queue(in_flight: u64) -> EventQueue<u64, u64> {
    let mut q = EventQueue::new();
    for i in 0..in_flight {
        q.schedule(i, i);
    }
    q
}

/// One pop and one schedule per event, `in_flight` times over: each
/// popped event goes back `delay(key)` later (the hold model).
fn hold(q: &mut EventQueue<u64, u64>, in_flight: u64, delay: impl Fn(u64) -> u64) -> u64 {
    let mut acc = 0;
    for _ in 0..in_flight {
        let (key, _, item) = q.pop().expect("the queue stays loaded");
        acc ^= item;
        q.schedule(key + delay(key), item);
    }
    acc
}

/// The benchmark's first `sweep_net` point (`drop0.2/chain` at seed 11):
/// Algorithm 5 at n = 12 against the tie-breaker, blocks gossiped over a
/// 0.05 Δ mesh that drops a fifth of its messages. 16 trials.
fn sweep_net_trials(cfg: &NetConfig) -> usize {
    let base = Params::new(12, 4, 0.5, 21, 11 ^ 0x14);
    (0..16u64)
        .map(|i| {
            let p = base.with_seed(trial_seed(base.seed, i));
            let (t, _) = run_chain_net(&p, TieBreak::Randomized, ChainAdversary::TieBreaker, cfg);
            t.chain_len
        })
        .sum()
}

fn main() {
    let mut rec = Recorder::layer("net");
    for n in [8usize, 32] {
        drain_lane(
            &mut rec,
            &format!("net/broadcast_drain_sim_constant_n{n}"),
            || traced(LatencyModel::Constant(1_000), n),
        );
        drain_lane(
            &mut rec,
            &format!("net/broadcast_drain_sim_exponential_n{n}"),
            || traced(LatencyModel::Exponential { mean: 1_000 }, n),
        );
    }
    drain_lane(&mut rec, "net/broadcast_drain_sim_faulty_n16", faulty);

    // The bare per-message path of the serving shape (`mp/append_n8`
    // without ABD): one 8-way broadcast at a time on a
    // long-lived ideal n = 8 network — zero latency, no faults, no trace —
    // advanced and drained; ns per message.
    let mut net: SimNet<Payload> = NetConfig::ideal(LatencyModel::Constant(0)).build_net(8, 1);
    let mut op = 0u64;
    rec.measure_absolute(
        "net/broadcast_drain_sim_ideal_n8",
        8,
        Duration::from_millis(400),
        || {
            op += 1;
            let ack = Payload::Ack {
                author: 0,
                seq: op,
                content: op,
            };
            net.broadcast((op % 8) as usize, ack);
            net.advance();
            for node in 0..8 {
                while net.deliver(node).is_some() {}
            }
            net.delivered_count()
        },
    );

    let cfg = overlay();
    let delivered = flood(1000, 40, &cfg, 1);
    rec.measure_absolute(
        "net/relay_flood_n1000_b40",
        delivered,
        Duration::from_millis(1100),
        || flood(1000, 40, &cfg, 1),
    );
    let geo = e18_overlay();
    for n in [500usize, 2_000, 5_000] {
        let delivered = flood(n, 40, &geo, 1);
        rec.measure_absolute(
            &format!("net/gossip_ns_per_delivery_n{n}"),
            delivered,
            Duration::from_millis(1100),
            || flood(n, 40, &geo, 1),
        );
    }

    // A constant delay keeps every event in schedule order; a delay spread
    // over the queue's whole span (a multiplicative hash of the key) puts
    // nearly every event behind the latest one scheduled.
    let spread = |in_flight: u64| {
        move |key: u64| 1 + (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % (2 * in_flight)
    };
    let budget = Duration::from_millis(400);
    let mut q = loaded_queue(IN_FLIGHT);
    rec.measure_absolute("net/queue_inorder_push_pop", IN_FLIGHT, budget, || {
        hold(&mut q, IN_FLIGHT, |_| IN_FLIGHT)
    });
    let mut q = loaded_queue(IN_FLIGHT);
    rec.measure_absolute("net/queue_shuffled_push_pop", IN_FLIGHT, budget, || {
        hold(&mut q, IN_FLIGHT, spread(IN_FLIGHT))
    });
    let mut q = loaded_queue(GOSSIP_IN_FLIGHT);
    rec.measure_absolute(
        "net/queue_spread_push_pop_b56k",
        GOSSIP_IN_FLIGHT,
        budget,
        || hold(&mut q, GOSSIP_IN_FLIGHT, spread(GOSSIP_IN_FLIGHT)),
    );

    let lossy = NetConfig::builder()
        .latency(LatencyModel::Constant(50_000_000))
        .drop(0.2)
        .build()
        .expect("static bench config is valid");
    rec.measure_absolute(
        "net/sweep_net_trial_drop0.2_chain",
        16,
        Duration::from_millis(800),
        || sweep_net_trials(&lossy),
    );
    rec.write().unwrap_or_else(|e| panic!("{e}"));
}
