//! E1/E2 kernels: computation-graph exploration and the exhaustive round
//! lower-bound search.

use am_sched::{
    initial_bivalent, search_disagreement, Config, Explorer, FirstSeenProtocol, QuorumVoteProtocol,
    SearchOptions,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_analyze(c: &mut Criterion) {
    let mut g = c.benchmark_group("E1_analyze");
    let fs = FirstSeenProtocol::new(3);
    let qv = QuorumVoteProtocol::new(3, 2, 0);
    g.bench_function("first_seen_n3", |b| {
        let ex = Explorer::new(&fs, 300_000);
        b.iter(|| black_box(ex.analyze(&Config::initial(&[0, 1, 1])).configs))
    });
    g.bench_function("quorum_vote_n3", |b| {
        let ex = Explorer::new(&qv, 300_000);
        b.iter(|| black_box(ex.analyze(&Config::initial(&[0, 1, 1])).configs))
    });
    g.finish();
}

fn bench_bivalent_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("E1_bivalent_start");
    g.bench_function("quorum_vote_n3", |b| {
        let qv = QuorumVoteProtocol::new(3, 2, 0);
        b.iter(|| black_box(initial_bivalent(&qv, &SearchOptions::reduced(300_000)).is_some()))
    });
    g.finish();
}

fn bench_round_lb(c: &mut Criterion) {
    let mut g = c.benchmark_group("E2_round_lb_search");
    g.sample_size(10);
    for (n_corr, rounds) in [(3usize, 1u32), (3, 2), (4, 2)] {
        g.bench_with_input(
            BenchmarkId::new("exhaustive", format!("n{n_corr}_r{rounds}")),
            &(n_corr, rounds),
            |b, &(n, r)| b.iter(|| black_box(search_disagreement(n, r, 0).executions)),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_analyze,
    bench_bivalent_search,
    bench_round_lb
);
criterion_main!(benches);
