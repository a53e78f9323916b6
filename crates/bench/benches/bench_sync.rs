//! E3 kernels: Algorithm 1 execution across n/t and the chain-acceptance
//! rule, and the `sync/*` lanes of the perf ledger.

use am_bench::recorder::Recorder;
use am_core::{AppendMemory, MessageBuilder, MsgId, NodeId, Round, Value, GENESIS};
use am_sync::{accepted_values, run, Dissenter, Straddler, SyncConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_algorithm1(c: &mut Criterion) {
    let mut g = c.benchmark_group("E3_algorithm1");
    g.sample_size(20);
    for (n, t) in [(4usize, 1u32), (8, 3), (16, 7), (32, 15)] {
        let inputs: Vec<bool> = (0..n - t as usize).map(|i| i % 2 == 0).collect();
        g.bench_with_input(
            BenchmarkId::new("dissenter", format!("n{n}_t{t}")),
            &(n, t),
            |b, &(n, t)| {
                b.iter(|| {
                    let cfg = SyncConfig::new(n, t);
                    black_box(run(&cfg, &inputs, &mut Dissenter).agreement)
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("straddler", format!("n{n}_t{t}")),
            &(n, t),
            |b, &(n, t)| {
                b.iter(|| {
                    let cfg = SyncConfig::new(n, t);
                    black_box(run(&cfg, &inputs, &mut Straddler).agreement)
                })
            },
        );
    }
    g.finish();
}

/// Builds a full-information t+1-round history for `n` nodes and returns
/// its final view, for the acceptance-rule lanes.
fn history(n: usize, t: u32) -> am_core::MemoryView {
    let mem = AppendMemory::new(n);
    let mut prev_round: Vec<MsgId> = vec![GENESIS];
    for r in 1..=t + 1 {
        let mut this_round = Vec::new();
        for i in 0..n {
            let id = mem
                .append(
                    MessageBuilder::new(NodeId(i as u32), Value::Bit(i % 2 == 0))
                        .parents(prev_round.iter().copied())
                        .round(Round(r)),
                )
                .unwrap();
            this_round.push(id);
        }
        prev_round = this_round;
    }
    mem.read()
}

/// The `sync/*` ledger lanes: memoized-DFS chain acceptance on the dense
/// reference graphs correct nodes produce, ns per view.
fn bench_acceptance(_c: &mut Criterion) {
    let mut rec = Recorder::new();
    for (n, t) in [(8usize, 2u32), (16, 3), (24, 4)] {
        let view = history(n, t);
        rec.measure_absolute(
            &format!("sync/accept_n{n}_t{t}"),
            1,
            Duration::from_millis(300),
            || black_box(accepted_values(&view, t).len()),
        );
    }
    rec.write();
}

criterion_group!(benches, bench_algorithm1, bench_acceptance);
criterion_main!(benches);
