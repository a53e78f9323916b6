//! am-sched kernels: the compact model-checker core vs the naive
//! explorer, and the dense round-lower-bound engine vs its HashMap
//! baseline.
//!
//! The PR9 search core rebuilds exploration around interned compact
//! states, 128-bit fingerprints, sleep-set partial-order reduction, an
//! ample rule for stable decisions, and symmetry folding under the input
//! vector's stabilizer (DESIGN.md §14). All of it is verdict-pinned to
//! the naive baselines by `crates/sched/tests/reduced_equivalence.rs`;
//! this binary measures what the pin buys and merges the numbers into
//! `BENCH_PR9.json` — kernel pairs, states/sec, and the feasibility
//! frontier (the configuration the naive explorer can no longer finish
//! inside the shared state budget).

use am_bench::{presets::Preset, recorder};
use am_sched::search::{state_fingerprint, successors_compact, CState, LogArena, Stabilizer};
use am_sched::{
    check_nonforking, check_nonforking_naive, search, simulate_execution, simulate_execution_naive,
    Config, Explorer, QuorumVoteProtocol, SearchOptions, Valency,
};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::{Number, Value};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Duration;

/// The fixed small-n headline configuration: quorum-vote at n = 4 from
/// the half/half input vector, the E1/E19 shape.
fn headline() -> (QuorumVoteProtocol, Config) {
    (
        QuorumVoteProtocol::new(4, 3, 0),
        Config::initial(&[0, 0, 1, 1]),
    )
}

fn naive_states(proto: &QuorumVoteProtocol, init: &Config, cap: usize) -> (usize, bool, Valency) {
    let a = Explorer::new(proto, cap).analyze(init);
    (a.configs, a.truncated, a.valency)
}

fn reduced_states(proto: &QuorumVoteProtocol, init: &Config, cap: usize) -> (usize, bool, Valency) {
    let r = search(proto, init, &SearchOptions::reduced(cap));
    (r.states, r.truncated, r.valency)
}

/// Scans every (input mask × strategy) of the Lemma 3.1 search at
/// (n = 3, t = 1, R = 2) through one execution engine; the checksum is
/// the black-box anchor and the two engines must agree on it.
fn round_lb_scan(naive: bool) -> u64 {
    let mut checksum = 0u64;
    for mask in 0..8u32 {
        let inputs: Vec<u8> = (0..3).map(|i| ((mask >> i) & 1) as u8).collect();
        for byz_mask in 0..8u32 {
            for value in 0..=1u8 {
                let strategy = vec![
                    Some(am_sched::round_lb::ByzAction {
                        actor: 0,
                        value,
                        visible_now: byz_mask,
                    }),
                    None,
                ];
                let d = if naive {
                    simulate_execution_naive(&inputs, 1, 2, &strategy, 0)
                } else {
                    simulate_execution(&inputs, 1, 2, &strategy, 0)
                };
                checksum = checksum
                    .rotate_left(7)
                    .wrapping_add(d.iter().fold(0, |a, &x| a * 3 + x as u64));
            }
        }
    }
    checksum
}

fn bench_search_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_search");
    g.sample_size(10);
    let (proto, init) = headline();
    g.bench_function("analyze_naive_n4", |b| {
        b.iter(|| black_box(naive_states(&proto, &init, 2_000_000).0))
    });
    g.bench_function("search_reduced_n4", |b| {
        b.iter(|| black_box(reduced_states(&proto, &init, 2_000_000).0))
    });
    g.bench_function("round_lb_scan_dense", |b| {
        b.iter(|| black_box(round_lb_scan(false)))
    });
    g.finish();
}

/// PR9: kernel pairs plus states/sec and feasibility-frontier records,
/// merged into `BENCH_PR9.json` (see CONTRIBUTING.md "Benchmark
/// trajectory files").
fn bench_pr9_sched(_c: &mut Criterion) {
    let mut rec = recorder::Recorder::preset(Preset::Pr9);
    let budget = Duration::from_millis(700);
    let (proto, init) = headline();

    // The verdicts must agree before anything is timed.
    let (n_states, n_trunc, n_val) = naive_states(&proto, &init, 2_000_000);
    let (r_states, r_trunc, r_val) = reduced_states(&proto, &init, 2_000_000);
    assert!(!n_trunc && !r_trunc, "headline config must fit the cap");
    assert_eq!(n_val, r_val, "reduced search changed the verdict");

    let reduced_ns = rec.measure(
        "sched/bivalence_search_reduced",
        Some("sched/bivalence_search_naive"),
        budget,
        || black_box(reduced_states(&proto, &init, 2_000_000).0),
    );
    let naive_ns = rec.measure("sched/bivalence_search_naive", None, budget, || {
        black_box(naive_states(&proto, &init, 2_000_000).0)
    });
    println!(
        "pr9: reduced search runs {:.2}x the naive explorer on the headline \
         config ({} vs {} states; {:.0} vs {:.0} states/sec)",
        naive_ns / reduced_ns,
        r_states,
        n_states,
        r_states as f64 * 1e9 / reduced_ns,
        n_states as f64 * 1e9 / naive_ns
    );
    rec.record_value(
        "sched/states_per_sec",
        Value::Object(vec![
            ("n".to_string(), Value::Number(Number::UInt(4))),
            (
                "reduced".to_string(),
                Value::Number(Number::Float(r_states as f64 * 1e9 / reduced_ns)),
            ),
            (
                "reduced_peak_states".to_string(),
                Value::Number(Number::UInt(r_states as u64)),
            ),
            (
                "naive".to_string(),
                Value::Number(Number::Float(n_states as f64 * 1e9 / naive_ns)),
            ),
            (
                "naive_peak_states".to_string(),
                Value::Number(Number::UInt(n_states as u64)),
            ),
        ]),
    );

    // Feasibility frontier: under a shared 50k-state budget the naive
    // explorer drowns at n = 5 while the reduced search completes it —
    // the configuration-one-n-larger claim, recorded with the counts.
    let cap = 50_000usize;
    let big = QuorumVoteProtocol::new(5, 3, 0);
    let big_init = Config::initial(&[0, 0, 1, 1, 1]);
    let (bn_states, bn_trunc, _) = naive_states(&big, &big_init, cap);
    let (br_states, br_trunc, _) = reduced_states(&big, &big_init, cap);
    assert!(bn_trunc, "naive must exhaust the shared budget at n = 5");
    assert!(!br_trunc, "reduced must complete n = 5 inside the budget");
    println!(
        "pr9: feasibility frontier at a {cap}-state budget — naive TRUNCATED \
         at {bn_states} states, reduced completed n = 5 in {br_states} states"
    );
    rec.record_value(
        "sched/feasibility_frontier",
        Value::Object(vec![
            (
                "state_budget".to_string(),
                Value::Number(Number::UInt(cap as u64)),
            ),
            (
                "max_feasible_n_naive".to_string(),
                Value::Number(Number::UInt(4)),
            ),
            (
                "max_feasible_n_reduced".to_string(),
                Value::Number(Number::UInt(5)),
            ),
            (
                "naive_states_at_n5".to_string(),
                Value::Number(Number::UInt(bn_states as u64)),
            ),
            ("naive_completed_n5".to_string(), Value::Bool(false)),
            (
                "reduced_states_at_n5".to_string(),
                Value::Number(Number::UInt(br_states as u64)),
            ),
            ("reduced_completed_n5".to_string(), Value::Bool(true)),
        ]),
    );

    // Round lower bound: the dense engine vs the HashMap reference.
    assert_eq!(round_lb_scan(false), round_lb_scan(true), "engines diverge");
    let dense_ns = rec.measure(
        "round_lb/scan_dense",
        Some("round_lb/scan_naive"),
        budget,
        || black_box(round_lb_scan(false)),
    );
    let rl_naive_ns = rec.measure("round_lb/scan_naive", None, budget, || {
        black_box(round_lb_scan(true))
    });
    println!(
        "pr9: dense round-lb engine runs {:.2}x the HashMap baseline",
        rl_naive_ns / dense_ns
    );

    // Nonforking: incremental finality oracle vs full replay.
    let nf_fast = check_nonforking(3, &[1], 5, 400_000);
    let nf_naive = check_nonforking_naive(3, &[1], 5, 400_000);
    assert_eq!(nf_fast.states, nf_naive.states, "coverage diverged");
    let nf_ns = rec.measure(
        "nonforking/check_incremental",
        Some("nonforking/check_replay"),
        budget,
        || black_box(check_nonforking(3, &[1], 5, 400_000).states),
    );
    let nf_naive_ns = rec.measure("nonforking/check_replay", None, budget, || {
        black_box(check_nonforking_naive(3, &[1], 5, 400_000).states)
    });
    println!(
        "pr9: incremental-oracle nonforking search runs {:.2}x the replay \
         baseline",
        nf_naive_ns / nf_ns
    );
    rec.write();
}

/// The first `cap` distinct states of the unreduced state graph from
/// `inputs`, breadth-first — the raw successors a search hands its
/// canonicalizer.
fn sample_states(proto: &QuorumVoteProtocol, inputs: &[u8], cap: usize) -> Vec<CState> {
    let mut arena = LogArena::new();
    let root = CState::from_config(&Config::initial(inputs), &mut arena);
    let mut seen: HashSet<u128> = HashSet::from([state_fingerprint(&root)]);
    let mut states = vec![root];
    let mut next = 0;
    while next < states.len() && states.len() < cap {
        let s = states[next];
        next += 1;
        for (_, t) in successors_compact(proto, &s, &mut arena) {
            if states.len() < cap && seen.insert(state_fingerprint(&t)) {
                states.push(t);
            }
        }
    }
    states
}

/// Absolute lanes at n = 6, recorded into `BENCH_TRAJECTORY.json`: ns
/// per symmetry canonicalization under a stabilizer of order 36 (inputs
/// 000111) and 120 (000001), and ns per visited state of the whole
/// reduced 000111 search.
fn bench_sched_absolute(_c: &mut Criterion) {
    let mut rec = recorder::Recorder::preset(Preset::Trajectory);
    let budget = Duration::from_millis(700);
    let proto = QuorumVoteProtocol::new(6, 4, 0);
    for inputs in [[0u8, 0, 0, 1, 1, 1], [0, 0, 0, 0, 0, 1]] {
        let stab = Stabilizer::new(&inputs);
        let states = sample_states(&proto, &inputs, 2_000);
        rec.measure_absolute(
            &format!("sched/canon_ns_g{}", stab.order()),
            states.len() as u64,
            budget,
            || {
                for s in &states {
                    black_box(stab.canonicalize(black_box(s)));
                }
            },
        );
    }
    let init = Config::initial(&[0, 0, 0, 1, 1, 1]);
    let (states, truncated, _) = reduced_states(&proto, &init, 2_000_000);
    assert!(!truncated, "the n = 6 search must fit the cap");
    rec.measure_absolute(
        "sched/search_ns_per_state_n6",
        states as u64,
        budget,
        || black_box(reduced_states(&proto, &init, 2_000_000).0),
    );
    rec.write();
}

criterion_group!(
    benches,
    bench_search_kernels,
    bench_pr9_sched,
    bench_sched_absolute
);
criterion_main!(benches);
