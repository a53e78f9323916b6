//! E19 — Scaling the model checker: the reduction stack, measured.
//!
//! The Section-2 impossibility artifacts (E1) are only as strong as the
//! state spaces the checker can exhaust. This experiment measures what
//! the compact search core buys, reduction by reduction, in *state
//! counts* — deterministic quantities, unlike wall-clock, so the report
//! is reproducible byte-for-byte (the wall-clock side is the `sched/*`
//! lanes `bench_sched` records into `BENCH_TRAJECTORY.json`):
//!
//! * an ablation of the stack (interning → sleep sets → ample decide →
//!   symmetry folding) against the naive explorer on one configuration;
//! * a scaling sweep in `n` under a fixed state budget, showing the
//!   reduced search completing configurations the naive search cannot;
//! * the nonforking DAG search's incremental-oracle savings;
//! * a checkpointable Monte-Carlo audit of the symmetry canonicalizer
//!   (`canon(perm(s)) == canon(s)` on random schedules), run through the
//!   sweep engine so `--resume` semantics apply to it like any other
//!   Bernoulli point.

use crate::report::{f, Report};
use crate::RunCtx;
use am_core::splitmix::splitmix64;
use am_sched::{
    canonical_key, check_nonforking, search, AsyncProtocol, Config, Explorer, QuorumVoteProtocol,
    SearchOptions,
};
use am_stats::{Series, Table};

/// A half-zeros/half-ones input vector — the bivalence-rich start every
/// part of this experiment explores from.
fn split_inputs(n: usize) -> Vec<u8> {
    (0..n).map(|i| u8::from(i >= n / 2)).collect()
}

/// One canonicalization-invariance trial: drive a pseudo-random schedule
/// and its image under a pseudo-random input-fixing permutation, and
/// check both runs land on the same canonical key.
fn canon_trial(proto: &dyn AsyncProtocol, inputs: &[u8], seed: u64) -> bool {
    let n = proto.n();
    let ex = Explorer::new(proto, 100_000);
    // Random schedule of length 4..12.
    let len = 4 + (splitmix64(seed) % 9) as usize;
    let schedule: Vec<usize> = (0..len)
        .map(|j| (splitmix64(seed ^ (j as u64) << 8) % n as u64) as usize)
        .collect();
    // Random permutation fixing the input vector: shuffle within classes.
    let mut perm: Vec<usize> = (0..n).collect();
    for class in [0u8, 1] {
        let mut members: Vec<usize> = (0..n).filter(|&i| inputs[i] == class).collect();
        let shuffled = members.clone();
        // Fisher-Yates driven by the mixed seed.
        for i in (1..members.len()).rev() {
            let j = (splitmix64(seed ^ 0xc1a5 ^ (class as u64) << 32 ^ (i as u64)) % (i as u64 + 1))
                as usize;
            members.swap(i, j);
        }
        for (slot, who) in shuffled.iter().zip(members.iter()) {
            perm[*slot] = *who;
        }
    }
    let run = |sched: &[usize]| {
        let mut c = Config::initial(inputs);
        for &v in sched {
            if let Some((_, next)) = ex.apply(&c, v) {
                c = next;
            }
        }
        c
    };
    let a = run(&schedule);
    let permuted: Vec<usize> = schedule.iter().map(|&v| perm[v]).collect();
    let b = run(&permuted);
    canonical_key(&a, true) == canonical_key(&b, true)
}

/// Runs E19. Parts 1–3 are exhaustive searches (deterministic; the seed
/// is unused); part 4 funnels its Monte-Carlo audit through the sweep
/// engine, so it honours `--adaptive`, checkpoints, and `--resume`.
pub fn run(ctx: &RunCtx, rep: &mut Report) {
    // --- Part 1: the reduction stack, one layer at a time. ---
    let _part1 = am_obs::span("ablation");
    let proto = QuorumVoteProtocol::new(4, 3, 0);
    let init = Config::initial(&split_inputs(4));
    let budget = 2_000_000usize;
    let naive = Explorer::new(&proto, budget).analyze(&init);

    let mut stack = SearchOptions::unreduced(budget);
    let mut table1 = Table::new(
        "reduction ablation (quorum-vote n = 4, inputs [0,0,1,1])",
        &["engine", "states", "transitions", "valency", "states ×cut"],
    );
    table1.row(&[
        "naive explorer".into(),
        naive.configs.to_string(),
        "—".into(),
        format!("{:?}", naive.valency),
        f(1.0),
    ]);
    type Layer<'a> = (&'a str, Box<dyn Fn(&mut SearchOptions)>);
    let mut layers: Vec<Layer> = vec![
        ("compact core (interned, exact)", Box::new(|_| {})),
        ("+ sleep sets", Box::new(|o| o.sleep_sets = true)),
        ("+ ample decide", Box::new(|o| o.ample_decide = true)),
        ("+ symmetry folding", Box::new(|o| o.symmetry = true)),
    ];
    let mut reduced_states = naive.configs;
    for (name, apply) in layers.iter_mut() {
        apply(&mut stack);
        let r = search(&proto, &init, &stack);
        assert_eq!(r.valency, naive.valency, "{name} changed the verdict");
        reduced_states = r.states;
        table1.row(&[
            (*name).into(),
            r.states.to_string(),
            r.transitions.to_string(),
            format!("{:?}", r.valency),
            f(naive.configs as f64 / r.states as f64),
        ]);
    }
    rep.tables.push(table1);
    rep.note(format!(
        "Every layer preserves the valency verdict while cutting the state \
         count; the full stack explores {reduced_states} states where the \
         naive explorer needs {} — a ×{} quotient before any wall-clock \
         effect of interning and fingerprinting is counted.",
        naive.configs,
        f(naive.configs as f64 / reduced_states as f64),
    ));
    drop(_part1);

    // --- Part 2: scaling in n under a fixed state budget. ---
    let _part2 = am_obs::span("scaling");
    let cap = if ctx.opts.fast { 40_000 } else { 400_000 };
    let ns: &[usize] = if ctx.opts.fast {
        &[3, 4]
    } else {
        &[3, 4, 5, 6]
    };
    let mut table2 = Table::new(
        format!("quorum-vote scaling under a {cap}-state budget"),
        &[
            "n",
            "naive states",
            "naive done",
            "reduced states",
            "reduced done",
            "×cut",
        ],
    );
    let mut s_naive = Series::new("naive states vs n");
    let mut s_reduced = Series::new("reduced states vs n");
    for &n in ns {
        let proto = QuorumVoteProtocol::new(n, n / 2 + 1, 0);
        let init = Config::initial(&split_inputs(n));
        let a = Explorer::new(&proto, cap).analyze(&init);
        let r = search(&proto, &init, &SearchOptions::reduced(cap));
        if !a.truncated && !r.truncated {
            assert_eq!(r.valency, a.valency, "verdict drifted at n = {n}");
        }
        table2.row(&[
            n.to_string(),
            a.configs.to_string(),
            if a.truncated { "TRUNCATED" } else { "yes" }.into(),
            r.states.to_string(),
            if r.truncated { "TRUNCATED" } else { "yes" }.into(),
            f(a.configs as f64 / r.states as f64),
        ]);
        s_naive.push(n as f64, a.configs as f64);
        s_reduced.push(n as f64, r.states as f64);
    }
    rep.tables.push(table2);
    rep.series.push(s_naive);
    rep.series.push(s_reduced);
    rep.note(
        "The quotient grows with n (more interchangeable nodes, more \
         commuting appends), which is what moves the feasibility frontier: \
         the reduced search finishes configurations the naive explorer \
         cannot touch inside the same budget. On a TRUNCATED row the naive \
         count is just the budget it drowned in, so the quotient shown \
         there is a lower bound.",
    );
    drop(_part2);

    // --- Part 3: nonforking incremental-oracle savings. ---
    let _part3 = am_obs::span("nonforking");
    let nf_blocks = if ctx.opts.fast { 5 } else { 6 };
    let mut table3 = Table::new(
        "nonforking DAG search: incremental oracle vs full replay",
        &[
            "byzantine",
            "states",
            "violations",
            "observes saved",
            "fp guard hits",
        ],
    );
    for byz in [&[][..], &[1][..]] {
        let fast = check_nonforking(3, byz, nf_blocks, 400_000);
        table3.row(&[
            format!("{byz:?}"),
            fast.states.to_string(),
            fast.violation.clone().unwrap_or_else(|| "none".into()),
            fast.observes_saved.to_string(),
            fast.fingerprint_hits.to_string(),
        ]);
    }
    rep.tables.push(table3);
    // Wording frozen by `results/golden/e19.json`; the equality it cites is
    // asserted by `crates/sched/tests/reduced_equivalence.rs`.
    rep.note(
        "Carrying the finality oracle incrementally down the DFS replaces \
         O(history) replays with one observation per step; the verdicts and \
         state coverage are pinned equal to the naive baseline above.",
    );
    drop(_part3);

    // --- Part 4: Monte-Carlo canonicalizer audit, through the engine. ---
    let _part4 = am_obs::span("canon-audit");
    let mut sweep = ctx.sweep();
    let trials = ctx.budget(if ctx.opts.fast { 24 } else { 400 });
    let mut table4 = Table::new(
        "canon(perm(s)) == canon(s) on random schedules",
        &["protocol", "n", "trials", "holds"],
    );
    for n in [3usize, 4] {
        let proto = QuorumVoteProtocol::new(n, n / 2 + 1, 0);
        let inputs = split_inputs(n);
        let seed = ctx.opts.seed;
        let pt = sweep.estimate(format!("canon-invariance/n{n}"), trials, |i| {
            canon_trial(&proto, &inputs, splitmix64(seed ^ 0xe19 ^ i))
        });
        table4.row(&[
            proto.name(),
            n.to_string(),
            pt.trials_used().to_string(),
            f(pt.estimate()),
        ]);
    }
    rep.tables.push(table4);
    rep.record_sweep("symmetry canonicalizer audit", sweep.points);
    rep.note(
        "The audit estimate must be 1.0: canonicalization quotients by the \
         stabilizer of the input vector, so a schedule and its node-permuted \
         image always share a canonical key. The same property is pinned \
         exhaustively (and adversarially shrunk) by the proptest suite.",
    );
}
