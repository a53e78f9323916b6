//! E6–E9 kernels: single-trial cost of Algorithms 4, 5, and 6 across
//! rates, sizes, and adversaries, and the `protocols/*` lanes of the perf
//! ledger.

use am_bench::recorder::Recorder;
use am_protocols::{
    run_chain, run_dag, run_timestamp, ChainAdversary, DagAdversary, DagRule, Params, TieBreak,
    ViewPolicy,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_timestamp(c: &mut Criterion) {
    let mut g = c.benchmark_group("E6_timestamp_trial");
    g.sample_size(20);
    for k in [41usize, 201, 1001] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let p = Params::new(32, 10, 1.0, k, 5);
            b.iter(|| black_box(run_timestamp(&p).byz_in_prefix))
        });
    }
    g.finish();
}

fn bench_chain_trial(c: &mut Criterion) {
    let mut g = c.benchmark_group("E7_E8_chain_trial");
    g.sample_size(20);
    for lambda in [0.1f64, 0.4, 0.8] {
        let p = Params::new(12, 4, lambda, 41, 5);
        g.bench_with_input(
            BenchmarkId::new("tiebreaker", format!("lam{lambda}")),
            &p,
            |b, p| {
                b.iter(|| {
                    black_box(
                        run_chain(p, TieBreak::Randomized, ChainAdversary::TieBreaker).chain_len,
                    )
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("forkmaker_det", format!("lam{lambda}")),
            &p,
            |b, p| {
                b.iter(|| {
                    black_box(
                        run_chain(p, TieBreak::Deterministic, ChainAdversary::ForkMaker).chain_len,
                    )
                })
            },
        );
    }
    g.finish();
}

fn bench_dag_trial(c: &mut Criterion) {
    let mut g = c.benchmark_group("E9_dag_trial");
    g.sample_size(20);
    for lambda in [0.1f64, 0.4, 0.8] {
        let p = Params::new(12, 4, lambda, 41, 5);
        g.bench_with_input(
            BenchmarkId::new("withhold_longest", format!("lam{lambda}")),
            &p,
            |b, p| {
                b.iter(|| {
                    black_box(
                        run_dag(p, DagRule::LongestChain, DagAdversary::WithholdBurst)
                            .covered_values,
                    )
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("withhold_ghost", format!("lam{lambda}")),
            &p,
            |b, p| {
                b.iter(|| {
                    black_box(
                        run_dag(p, DagRule::Ghost, DagAdversary::WithholdBurst).covered_values,
                    )
                })
            },
        );
    }
    g.finish();
}

/// A5: interval-snapshot vs lagged-Δ view computation cost.
fn bench_view_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("A5_view_policy");
    g.sample_size(20);
    for vp in [ViewPolicy::IntervalSnapshot, ViewPolicy::LaggedDelta] {
        let p = Params::new(12, 4, 0.4, 41, 5).with_view_policy(vp);
        g.bench_with_input(
            BenchmarkId::new("chain_tiebreaker", format!("{vp:?}")),
            &p,
            |b, p| {
                b.iter(|| {
                    black_box(
                        run_chain(p, TieBreak::Randomized, ChainAdversary::TieBreaker).chain_len,
                    )
                })
            },
        );
    }
    g.finish();
}

/// One E8-shaped sweep grid (λ × t, 35 DAG trials) end-to-end: the rate
/// and threat axes of experiment E8 driven through the Algorithm-6 hot
/// loop.
fn dag_grid() -> usize {
    let mut acc = 0usize;
    for (li, lambda) in [0.05f64, 0.1, 0.2, 0.4, 0.8].into_iter().enumerate() {
        for t in 1..=7usize {
            let p = Params::new(12, t, lambda, 41, (li * 100 + t) as u64);
            acc += run_dag(&p, DagRule::LongestChain, DagAdversary::Dissenter).covered_values;
        }
    }
    acc
}

/// Four seeds of one `run_dag` configuration.
fn trial_set(n: usize, t: usize, rule: DagRule, adv: DagAdversary) -> usize {
    (0..4u64)
        .map(|seed| run_dag(&Params::new(n, t, 1.6, 15, seed), rule, adv).covered_values)
        .sum()
}

/// The `protocols/*` ledger lanes, ns per Algorithm-6 trial.
fn bench_protocols_absolute(_c: &mut Criterion) {
    let mut rec = Recorder::new();
    let budget = Duration::from_millis(800);
    // The quadratic regime: at λ = 1.6 per node every Δ-interval carries
    // ~λ·n grants and the interval-snapshot lag keeps the gate short of k
    // for a whole interval, so the per-grant gate cost dominates a trial.
    for (name, rule) in [
        ("longest", DagRule::LongestChain),
        ("ghost", DagRule::Ghost),
    ] {
        rec.measure_absolute(
            &format!("protocols/run_dag_{name}_quadratic_lam1.6_k15"),
            4,
            budget,
            || black_box(trial_set(96, 31, rule, DagAdversary::Absent)),
        );
    }
    // Lemma 5.5 withhold-burst at small n: short trials dominated by
    // shared token-stream and append costs.
    rec.measure_absolute(
        "protocols/run_dag_withhold_longest_n48_lam1.6_k15",
        4,
        budget,
        || {
            black_box(trial_set(
                48,
                15,
                DagRule::LongestChain,
                DagAdversary::WithholdBurst,
            ))
        },
    );
    rec.measure_absolute(
        "protocols/e8_grid_dag_longest_dissenter",
        35,
        Duration::from_secs(2),
        || black_box(dag_grid()),
    );
    rec.write();
}

criterion_group!(
    benches,
    bench_timestamp,
    bench_chain_trial,
    bench_dag_trial,
    bench_view_policy,
    bench_protocols_absolute
);
criterion_main!(benches);
