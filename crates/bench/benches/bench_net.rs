//! am-net kernels: the discrete-event simulator's broadcast+drain cost
//! across sizes and latency models, against the reliable in-process
//! network as the zero-overhead baseline — the price of simulated time —
//! and the `mp/*` lanes of the perf ledger.

use am_bench::recorder::Recorder;
use am_mp::{MpMsg, MpSystem, MpView, Network, Payload, Signature};
use am_net::{Fault, LatencyModel, NetConfig, SimNet, Transport};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// A view of `h` distinct messages, built outside any `MpSystem`.
fn view_of(h: u64) -> MpView {
    let msgs: Vec<MpMsg> = (0..h)
        .map(|i| MpMsg {
            author: (i % 7) as usize,
            seq: i,
            value: 1,
            content: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            sig: Signature(i),
        })
        .collect();
    MpView::from_slice(&msgs)
}

/// The `mp/*` ledger lanes: ABD over a faulty `SimNet`, and the view
/// operations whose cost must not depend on the history behind them.
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

    // Snapshotting one node's view of a settled 1000-append history.
    let mut sys = MpSystem::new(5, &[], 7);
    for i in 0..1000usize {
        sys.append(i % 5, 1).expect("reliable network cannot stall");
    }
    rec.measure_absolute("mp/local_view_h1000", 1, budget, || {
        black_box(sys.local_view(0).len())
    });

    // The shape of the persistent view: a snapshot (taken and dropped) at
    // a thousand and at a million messages, a cut in the middle of the
    // million, and the first push after a snapshot of it (at a million
    // the tail is full, so it moves into the trie and the right edge the
    // snapshot shares is copied — the dearer of the two cases; the
    // pushed-to copy is dropped, so the view stays at a million).
    // Batched, so the recorder's clock read per call (≈ 60 ns here) does
    // not floor them.
    let small = view_of(1_000);
    let large = view_of(1_000_000);
    for (op, view) in [
        ("mp/view_clone_h1000", &small),
        ("mp/view_clone_h1000000", &large),
    ] {
        rec.measure_absolute(op, 1_000, budget, || {
            for _ in 0..1_000 {
                black_box(black_box(view).clone());
            }
        });
    }
    rec.measure_absolute("mp/prefix_mid_h1000000", 100, budget, || {
        for k in 0..100 {
            black_box(large.prefix(black_box(500_000 + k)));
        }
    });
    let next = *small.last().expect("non-empty");
    rec.measure_absolute("mp/push_after_snapshot_h1000000", 100, budget, || {
        for _ in 0..100 {
            let mut live = large.clone();
            live.push(black_box(next));
            black_box(live);
        }
    });
    drop((small, large));

    // One quorum read at n = 4 whose reader is five appends behind, on a
    // history of 20 000 (growing by the five untimed appends per sample,
    // to under 30 000 within the budget).
    let mut sys = MpSystem::new(4, &[], 11);
    for i in 0..20_000usize {
        sys.append(i % 4, 1).expect("reliable network cannot stall");
    }
    sys.read(0).expect("reliable network cannot stall");
    let mut i = 0usize;
    rec.measure_absolute_part(
        "mp/read_n4_gap5_h20000",
        1,
        Duration::from_millis(60),
        || {
            for _ in 0..5 {
                i += 1;
                sys.append(i % 4, 1).expect("reliable network cannot stall");
            }
            let start = Instant::now();
            black_box(sys.read(0).expect("reliable network cannot stall").len());
            start.elapsed()
        },
    );
    rec.write();
}

criterion_group!(
    benches,
    bench_broadcast_drain,
    bench_fault_pipeline,
    bench_mp_absolute
);
criterion_main!(benches);
