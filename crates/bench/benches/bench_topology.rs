//! am-net topology kernels: relay-gossip flood throughput at planet
//! scale, and the `net/*` lane of the perf ledger.
//!
//! The topology engine keeps all per-link state sparse — latency
//! overrides, bandwidth busy horizons, and `NetStats` counters are
//! hash-keyed by the links actually used, so a 1000-node relay overlay
//! touches ~8n entries instead of materializing n² of them.

use am_bench::recorder::Recorder;
use am_core::{MsgId, Time};
use am_net::{LatencyModel, NetConfig, Topology};
use am_protocols::Propagation;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

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
/// messages delivered as the black-box anchor.
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

fn bench_flood(c: &mut Criterion) {
    let mut g = c.benchmark_group("topology_flood");
    g.sample_size(10);
    let cfg = overlay();
    g.bench_function("relay8_n1000", |b| {
        b.iter(|| black_box(flood(1000, 40, &cfg, 1)))
    });
    g.finish();
}

/// The `net/*` ledger lane: the 40-block flood at n = 1000, ns per
/// delivered message.
fn bench_net_absolute(_c: &mut Criterion) {
    let mut rec = Recorder::new();
    let cfg = overlay();
    let delivered = flood(1000, 40, &cfg, 1);
    rec.measure_absolute(
        "net/relay_flood_n1000_b40",
        delivered,
        Duration::from_millis(700),
        || black_box(flood(1000, 40, &cfg, 1)),
    );
    rec.write();
}

criterion_group!(benches, bench_flood, bench_net_absolute);
criterion_main!(benches);
