//! Matched probes: layer primitives timed on their own, on inputs sized
//! from what a workload's trials and searches actually did.
//!
//! The trial and search entry points (`run_dag`, `run_bft`, `search`) are
//! monolithic, so their layers cannot be bracketed from outside. A probe
//! times the primitive a layer contributes; together with the
//! primitives-per-operation counts the workloads report, it bounds what a
//! faster layer can save. The remainder is not attributed to anything.

use crate::rep::ns_per_call;
use crate::Layers;
use am_bft::{DagInterpreter, FinalityOracle};
use am_core::{
    ghost_pivot_with, linearize_with, longest_chain_with, AppendMemory, DagIndex, MessageBuilder,
    MsgId, NodeId, Time, Value, GENESIS,
};
use am_poisson::{EventQueue, TokenAuthority};
use am_sched::search::{state_fingerprint, successors_compact, CState, LogArena};
use am_sched::{canonical_key, AsyncProtocol, Config};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Cost of one `Instant::now()` / `elapsed()` pair: the floor under every
/// span, and most of what a span around a few-nanosecond call reports.
pub fn timer_ns() -> f64 {
    ns_per_call(200_000, |_| {
        black_box(Instant::now().elapsed());
    })
}

/// `am-obs` probes as the libraries call them with the registry disabled
/// (the default, and the state of every run of this harness).
pub fn obs(layers: &mut Layers) {
    assert!(!am_obs::enabled(), "am-obs must stay disabled");
    layers.set(
        "obs.disabled_span_ns",
        ns_per_call(2_000_000, |_| {
            black_box(am_obs::span("bench/probe"));
        }),
    );
    let counter = am_obs::counter("bench.probe");
    layers.set(
        "obs.disabled_counter_ns",
        ns_per_call(20_000_000, |_| black_box(&counter).inc()),
    );
}

/// `am-poisson`: one grant from the token authority of the n = 12 points,
/// and one schedule + pop on its event queue at a trial-sized backlog.
pub fn poisson(layers: &mut Layers) {
    let byz: Vec<NodeId> = (8..12).map(NodeId).collect();
    let mut auth = TokenAuthority::new(12, 0.4, 1.0, &byz, 7);
    layers.set(
        "poisson.grant_ns",
        ns_per_call(2_000_000, |_| {
            black_box(auth.next_grant());
        }),
    );
    let mut queue: EventQueue<u32> = EventQueue::new();
    for i in 0..64u32 {
        queue.schedule(Time::new(f64::from(i)), i);
    }
    layers.set(
        "poisson.queue_op_ns",
        ns_per_call(2_000_000, |i| {
            let head = queue.pop().expect("backlog stays at 64");
            queue.schedule(Time::new(head.time.seconds() + 64.0), i as u32);
        }),
    );
}

/// A bushy random DAG of `len` appends by eight authors, each referencing
/// one to three earlier messages (the shape of `am_bench::dag_history`).
fn dag_history(len: usize, seed: u64) -> AppendMemory {
    let mem = AppendMemory::new(8);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in 0..len {
        let cur = mem.len() as u64;
        let parents: Vec<MsgId> = (0..rng.gen_range(1..=3usize))
            .map(|_| MsgId(rng.gen_range(0..cur)))
            .collect();
        mem.append(MessageBuilder::new(NodeId((i % 8) as u32), Value::plus()).parents(parents))
            .expect("parents exist");
    }
    mem
}

/// `am-core` on histories of `blocks` appends, the size a DAG trial ends
/// with: memory append and read, then chain selection and linearization
/// per block.
pub fn core(layers: &mut Layers, blocks: usize) {
    const HISTORIES: u64 = 400;
    let t = Instant::now();
    for h in 0..HISTORIES {
        let mem = AppendMemory::new(8);
        let mut tip = GENESIS;
        for i in 0..blocks {
            tip = mem
                .append(MessageBuilder::new(NodeId((i % 8) as u32), Value::plus()).parent(tip))
                .expect("parent exists");
        }
        black_box((h, mem.len()));
    }
    layers.set(
        "core.append_ns",
        t.elapsed().as_nanos() as f64 / (HISTORIES * blocks as u64) as f64,
    );
    let mem = dag_history(blocks, 42);
    layers.set(
        "core.read_ns",
        ns_per_call(1_000_000, |_| {
            black_box(mem.read().len());
        }),
    );
    let view = mem.read();
    let dag = DagIndex::new(&view);
    let per_block = |iters: u64, f: &mut dyn FnMut()| ns_per_call(iters, |_| f()) / blocks as f64;
    layers.set(
        "core.longest_chain_ns_per_block",
        per_block(20_000, &mut || {
            black_box(longest_chain_with(&dag).len());
        }),
    );
    layers.set(
        "core.ghost_pivot_ns_per_block",
        per_block(20_000, &mut || {
            black_box(ghost_pivot_with(&dag).len());
        }),
    );
    let chain = longest_chain_with(&dag);
    layers.set(
        "core.linearize_ns_per_block",
        per_block(20_000, &mut || {
            black_box(linearize_with(&dag, &chain).order.len());
        }),
    );
}

/// `am-bft` on the block DAG the honest append rule produces on a quiet
/// network (each block references the global tip and its author's previous
/// block), `blocks` long with `n` authors.
pub fn bft(layers: &mut Layers, n: usize, blocks: usize) {
    let mut last_own = vec![0u32; n];
    let mut shape: Vec<(usize, Vec<u32>)> = Vec::with_capacity(blocks);
    for i in 0..blocks {
        let (author, prev) = (i % n, i as u32);
        let mut parents = vec![prev];
        if last_own[author] != prev && last_own[author] != 0 {
            parents.push(last_own[author]);
        }
        shape.push((author, parents));
        last_own[author] = i as u32 + 1;
    }
    const DAGS: u64 = 2_000;
    let per_block = |f: &mut dyn FnMut()| ns_per_call(DAGS, |_| f()) / blocks as f64;
    layers.set(
        "bft.interpret_ns_per_block",
        per_block(&mut || {
            let mut it = DagInterpreter::new(n);
            for (author, parents) in &shape {
                it.push(*author, parents);
            }
            black_box(it.len());
        }),
    );
    let with_ids: Vec<(MsgId, usize, Vec<MsgId>)> = shape
        .iter()
        .enumerate()
        .map(|(i, (author, parents))| {
            let parents = parents.iter().map(|&p| MsgId(u64::from(p))).collect();
            (MsgId(i as u64 + 1), *author, parents)
        })
        .collect();
    layers.set(
        "bft.observe_ns_per_block",
        per_block(&mut || {
            let mut oracle = FinalityOracle::new(n);
            for (id, author, parents) in &with_ids {
                oracle.observe(*id, *author, parents);
            }
            black_box(oracle.finalized_height());
        }),
    );
}

/// `am-sched` primitives on states sampled breadth-first from the search
/// the workload runs (`inputs` is its balanced input vector).
pub fn sched(layers: &mut Layers, proto: &dyn AsyncProtocol, inputs: &[u8]) {
    const SAMPLE: usize = 2_000;
    let n = proto.n();
    let mut arena = LogArena::new();
    let root = CState::from_config(&Config::initial(inputs), &mut arena);
    let mut seen: HashSet<u128> = HashSet::from([state_fingerprint(&root)]);
    let mut states = vec![root];
    let mut next = 0;
    while next < states.len() && states.len() < SAMPLE {
        let s = states[next];
        next += 1;
        for (_, t) in successors_compact(proto, &s, &mut arena) {
            if states.len() < SAMPLE && seen.insert(state_fingerprint(&t)) {
                states.push(t);
            }
        }
    }
    let count = states.len() as u64;
    const PASSES: u64 = 20;
    layers.set(
        "sched.successors_ns",
        ns_per_call(PASSES * count, |i| {
            let s = &states[(i % count) as usize];
            black_box(successors_compact(proto, s, &mut arena).len());
        }),
    );
    layers.set(
        "sched.fingerprint_ns",
        ns_per_call(PASSES * count, |i| {
            black_box(state_fingerprint(&states[(i % count) as usize]));
        }),
    );
    let configs: Vec<Config> = states.iter().map(|s| s.to_config(n, &arena)).collect();
    layers.set(
        "sched.canon_ns",
        ns_per_call(count, |i| {
            black_box(canonical_key(&configs[i as usize], true).len());
        }),
    );
}
