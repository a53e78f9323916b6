//! am-net kernels: the discrete-event simulator's broadcast+drain cost
//! across sizes and latency models, against the reliable in-process
//! network as the zero-overhead baseline — the price of simulated time —
//! and the `mp/*` lanes of the perf ledger.

use am_bench::recorder::Recorder;
use am_mp::{MpSystem, Network, Payload};
use am_net::{Fault, LatencyModel, NetConfig, SimNet, Transport};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// A fault-free seed-1 mesh recording the delivery trace (what these
/// lanes have always measured).
fn traced(latency: LatencyModel, n: usize) -> SimNet<Payload> {
    NetConfig::builder()
        .latency(latency)
        .trace(true)
        .build()
        .expect("valid config")
        .build_net(n, 1)
}

/// Broadcasts `rounds` waves from every node and drains all arrivals.
fn pump<T: Transport<Payload>>(net: &mut T, rounds: u64) -> u64 {
    let n = net.n();
    for round in 0..rounds {
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

fn bench_broadcast_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_broadcast_drain");
    g.sample_size(20);
    for n in [8usize, 32] {
        g.bench_with_input(BenchmarkId::new("reliable", n), &n, |b, &n| {
            b.iter(|| {
                let mut net = Network::new(n);
                black_box(pump(&mut net, 8))
            })
        });
        g.bench_with_input(BenchmarkId::new("sim_constant", n), &n, |b, &n| {
            b.iter(|| {
                let mut net: SimNet<Payload> = traced(LatencyModel::Constant(1_000), n);
                black_box(pump(&mut net, 8))
            })
        });
        g.bench_with_input(BenchmarkId::new("sim_exponential", n), &n, |b, &n| {
            b.iter(|| {
                let mut net: SimNet<Payload> = traced(LatencyModel::Exponential { mean: 1_000 }, n);
                black_box(pump(&mut net, 8))
            })
        });
    }
    g.finish();
}

fn bench_fault_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_fault_pipeline");
    g.sample_size(20);
    // Cost of the injector chain itself: same load, drops+dup+reorder on.
    g.bench_function("faulty_n16", |b| {
        b.iter(|| {
            let mut net: SimNet<Payload> = traced(
                LatencyModel::Uniform {
                    lo: 100,
                    hi: 10_000,
                },
                16,
            );
            net.add_fault(Fault::Drop { prob: 0.1 });
            net.add_fault(Fault::Duplicate {
                prob: 0.05,
                extra: LatencyModel::Constant(500),
            });
            net.add_fault(Fault::Reorder {
                prob: 0.2,
                extra: LatencyModel::Constant(2_000),
            });
            black_box(pump(&mut net, 8))
        })
    });
    g.finish();
}

/// The `mp/*` ledger lanes: ABD over a faulty `SimNet`, and the view
/// snapshot.
fn bench_mp_absolute(_c: &mut Criterion) {
    let mut rec = Recorder::new();
    let budget = Duration::from_millis(700);

    // An E14-shaped sweep cell: 800 append + read + read rounds at n = 8
    // over a lossy, then partitioned, network — ns per ABD operation.
    let sweep = || {
        let mut acc = 0u64;
        for (drop, partition) in [(0.05, None), (0.15, Some((50_000_000u64, 250_000_000u64)))] {
            let n = 8usize;
            let mut cfg = NetConfig::builder()
                .latency(LatencyModel::Exponential { mean: 1_000_000 })
                .drop(drop)
                .trace(true);
            if let Some((from_ns, until_ns)) = partition {
                cfg = cfg.partition(from_ns, until_ns);
            }
            let net: SimNet<Payload> = cfg.build().expect("valid config").build_net(n, 0xe14);
            let mut sys = MpSystem::with_transport(net, &[], 0xe14);
            for i in 0..800 {
                let _ = sys.append(i % n, 1);
                let _ = sys.read((i + 1) % n);
                let _ = sys.read((i + 3) % n);
            }
            acc += sys.total_sent();
        }
        black_box(acc)
    };
    rec.measure_absolute("mp/abd_e14_drop_partition", 2 * 800 * 3, budget, sweep);

    // Snapshotting one node's view of a settled 1000-append history: the
    // persistent chunked view clones O(history/chunk) Arcs.
    let mut sys = MpSystem::new(5, &[], 7);
    for i in 0..1000usize {
        sys.append(i % 5, 1).expect("reliable network cannot stall");
    }
    rec.measure_absolute("mp/local_view_h1000", 1, budget, || {
        black_box(sys.local_view(0).len())
    });
    rec.write();
}

criterion_group!(
    benches,
    bench_broadcast_drain,
    bench_fault_pipeline,
    bench_mp_absolute
);
criterion_main!(benches);
