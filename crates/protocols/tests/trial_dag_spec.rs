//! `TrialDag` against the path it replaced.
//!
//! Until PR 23 a trial kept its history in an `AppendMemory` and built a
//! `DagIndex` over a snapshot to decide. That pair is the reference here:
//! random histories (1–40 distinct parents per append, n ∈ {1, 12, 48},
//! the clock sometimes handed a time in the past) go into both, one
//! `TrialDag`, one `GhostScratch` and one `LinScratch` are reused *dirty*
//! across n 48 → 12 → 48 → 1, and after every append and at two decision
//! points per history (one mid-way, followed by more appends) the test
//! holds equal:
//!
//! * ids, per-author `seq`, clock, author and value columns, and the
//!   verdict on an unknown author, a forward and an unknown parent (which
//!   must consume neither an id nor a `seq`);
//! * the deepest message and the gate's covered-value count, polled after
//!   every append as the runners poll them;
//! * every `DagRead` answer, position by position (`parents_of`,
//!   `children_of`, `depth_of`, `id_at`, `position`, `content_key`,
//!   `first_parent`) and `max_depth`;
//! * the longest, GHOST and pivot chains, the decision order along each,
//!   and its first k values.
//!
//! Mutations this file was checked to catch (each applied alone, each
//! turns at least one test red):
//!
//! 1. `TrialDag::reset` forgets `next_seq` (no `clear()` before `resize`)
//!    — `seq` differs on the second n = 48 history.
//! 2. `ConeCoverTracker::reset` keeps `mark` / `epoch` (a stale mark makes
//!    a fork look already counted) — the merge block of
//!    `a_reused_gate_counts_forks_it_has_not_walked` reads 6, not 12. The
//!    random histories do not see it: nearly every message of a dense DAG
//!    is in the last cone, so the first reused tip is stale-marked and the
//!    tracker's recount path heals everything.
//! 3. `TrialDag::index_children` skips the rebuild when an index exists
//!    (child CSR over a stale length) — `children_of` differs, or trips its
//!    own freshness assert, at the second decision point.
//! 4. `content_key` of genesis reads `(u32::MAX, 0)` instead of `(0, 0)`
//!    — the position-by-position comparison fails at position 0.
//! 5. `linearize_in` does not clear `emitted` between calls — the second
//!    chain's decision order comes out empty.

use am_core::chain::longest_chain_positions;
use am_core::ghost::{ghost_pivot_positions_in, GhostScratch};
use am_core::pivot::pivot_chain_positions;
use am_core::{
    ghost_pivot_with, linearize_in, linearize_with, longest_chain_with, pivot_chain_with,
    AppendError, AppendMemory, DagIndex, DagRead, LinScratch, MessageBuilder, MsgId, NodeId, Time,
    Value, GENESIS,
};
use am_protocols::TrialDag;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The buffers a runner would take from its thread's pool.
struct Pool {
    dag: TrialDag,
    ghost: GhostScratch,
    lin: LinScratch,
}

/// The same append into both; the two verdicts must be equal.
fn both(
    dag: &mut TrialDag,
    mem: &AppendMemory,
    author: NodeId,
    value: Value,
    parents: &[MsgId],
    at: Time,
) -> Result<MsgId, AppendError> {
    let got = dag.append(author, value, parents, at);
    let want = mem.append_at(
        MessageBuilder::new(author, value).parents(parents.iter().copied()),
        at,
    );
    assert_eq!(got, want, "append by {author:?} on {parents:?}");
    got
}

/// One random append into both, after three rejected ones; everything the
/// two report about it must agree.
fn append_both(rng: &mut ChaCha8Rng, dag: &mut TrialDag, mem: &AppendMemory, n: usize) {
    let next = MsgId(dag.len() as u64);
    let at = Time::new(dag.now().seconds() + rng.gen_range(-0.5..1.0));
    let ok_author = NodeId(rng.gen_range(0..n) as u32);
    for (author, parent) in [
        (NodeId(n as u32), MsgId(0)),   // unknown author
        (ok_author, next),              // forward reference
        (ok_author, MsgId(next.0 + 5)), // unknown parent
    ] {
        assert!(both(dag, mem, author, Value::plus(), &[parent], at).is_err());
    }

    // 1–40 distinct parents, mostly recent so that the DAG grows deep.
    let mut parents: Vec<MsgId> = Vec::new();
    for _ in 0..rng.gen_range(1..=40usize) {
        let back = if rng.gen_bool(0.8) { 8 } else { next.0 };
        let p = MsgId(rng.gen_range(next.0.saturating_sub(back)..next.0));
        if !parents.contains(&p) {
            parents.push(p);
        }
    }
    let value = match rng.gen_range(0..5) {
        0 => Value::Unit,
        1 | 2 => Value::minus(),
        _ => Value::plus(),
    };
    let id = both(dag, mem, ok_author, value, &parents, at).expect("a valid append");
    assert_eq!(id, next, "a rejected append consumed an id");
    let m = mem.read();
    let m = m.get(id).expect("just appended");
    assert_eq!((dag.author(id), dag.value(id)), (m.author, m.value));
    assert_eq!(dag.seq(id), m.seq, "seq of {id:?}");
    assert_eq!((dag.now(), dag.len()), (m.arrival, mem.len()));
}

/// The decision gate as the runners poll it, after every append: the
/// first deepest message and the value-carriers in its closed past cone,
/// against a plain cone walk over a snapshot.
fn gate_both(dag: &mut TrialDag, mem: &AppendMemory) {
    let index = DagIndex::new(&mem.read());
    let tip = (0..index.len())
        .find(|&p| index.depth_of(p) == index.max_depth())
        .expect("genesis");
    assert_eq!(dag.deepest(), index.id_at(tip));
    assert_eq!(dag.store().max_depth(), index.max_depth());
    let carries = |p: &usize| index.message(*p).value.as_sign().is_some();
    let covered =
        index.past_cone(tip).iter().filter(|p| carries(p)).count() + usize::from(carries(&tip));
    assert_eq!(dag.gate_covered(), covered, "gate count at {tip}");
}

/// A decision point: the arena indexed in place against a `DagIndex` built
/// from a snapshot of the memory.
fn decide_both(pool: &mut Pool, mem: &AppendMemory, k: usize) {
    let Pool { dag, ghost, lin } = pool;
    let view = mem.read();
    let index = DagIndex::new(&view);
    dag.index_children();

    assert_eq!(DagRead::len(&*dag), index.len());
    assert_eq!(DagRead::max_depth(&*dag), index.max_depth());
    for pos in 0..index.len() {
        let d: &TrialDag = dag;
        assert_eq!(d.parents_of(pos), index.parents_of(pos), "parents of {pos}");
        assert_eq!(
            d.children_of(pos),
            index.children_of(pos),
            "children of {pos}"
        );
        assert_eq!(d.depth_of(pos), index.depth_of(pos), "depth of {pos}");
        assert_eq!(d.id_at(pos), index.id_at(pos));
        assert_eq!(d.position(index.id_at(pos)), Some(pos));
        assert_eq!(
            d.content_key(pos),
            DagRead::content_key(&index, pos),
            "key of {pos}"
        );
        assert_eq!(d.first_parent(pos), DagRead::first_parent(&index, pos));
    }
    assert_eq!(dag.position(MsgId(index.len() as u64)), None);

    let d: &TrialDag = dag;
    let chains = [
        (longest_chain_positions(d), longest_chain_with(&index)),
        (ghost_pivot_positions_in(d, ghost), ghost_pivot_with(&index)),
        (pivot_chain_positions(d), pivot_chain_with(&index)),
    ];
    for (rule, (positions, want_chain)) in chains.into_iter().enumerate() {
        let ids = |ps: &[usize]| ps.iter().map(|&p| d.id_at(p)).collect::<Vec<_>>();
        assert_eq!(ids(&positions), want_chain, "chain of rule {rule}");
        let want = linearize_with(&index, &want_chain);
        linearize_in(d, &positions, lin);
        assert_eq!(ids(lin.order()), want.order, "order under rule {rule}");
        let first_k: Vec<MsgId> = ids(lin.order())
            .into_iter()
            .filter(|&id| d.value(id).as_sign().is_some())
            .take(k)
            .collect();
        assert_eq!(first_k, want.first_k_values(&view, k), "first {k} values");
    }
}

/// One history of `appends` messages for `n` authors in the (dirty) pool:
/// a decision mid-way, more appends, a decision at the end.
fn history(pool: &mut Pool, n: usize, appends: usize, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mem = AppendMemory::new(n);
    pool.dag.reset(n);
    assert!(pool.dag.append_count() == 0 && pool.dag.now() == Time::ZERO);
    for i in 1..=appends {
        append_both(&mut rng, &mut pool.dag, &mem, n);
        assert_eq!(pool.dag.append_count(), i);
        gate_both(&mut pool.dag, &mem);
        if i == appends / 2 || i == appends {
            decide_both(pool, &mem, 1 + appends / 3);
        }
    }
}

#[test]
fn one_dirty_arena_matches_memory_and_index_across_sizes() {
    for seed in 0..6u64 {
        let mut pool = Pool {
            dag: TrialDag::new(3),
            ghost: GhostScratch::new(),
            lin: LinScratch::new(),
        };
        for (round, (n, appends)) in [(48, 90), (12, 60), (48, 130), (1, 25)]
            .into_iter()
            .enumerate()
        {
            history(&mut pool, n, appends, seed * 10 + round as u64);
        }
    }
}

/// Algorithm 6's shape, aimed at the gate's in-place extension: the first
/// history ends on a branch switch, so the marks of the abandoned branch
/// and of the winning one differ; the second forks at those positions and
/// merges the forks under a new tip, whose count must include them.
#[test]
fn a_reused_gate_counts_forks_it_has_not_walked() {
    let mut dag = TrialDag::new(2);
    let grow = |dag: &mut TrialDag, shape: &[&[u64]]| {
        let mem = AppendMemory::new(2);
        dag.reset(2);
        for (i, parents) in shape.iter().enumerate() {
            let parents: Vec<MsgId> = parents.iter().map(|&p| MsgId(p)).collect();
            let at = Time::new(i as f64);
            both(dag, &mem, NodeId(i as u32 % 2), Value::plus(), &parents, at).unwrap();
            gate_both(dag, &mem);
        }
    };
    // 1–5 a chain, then 6–11 a longer chain off genesis.
    grow(
        &mut dag,
        &[
            &[0],
            &[1],
            &[2],
            &[3],
            &[4],
            &[0],
            &[6],
            &[7],
            &[8],
            &[9],
            &[10],
        ],
    );
    // 1–5 a chain, 6–11 six forks off genesis, 12 merges them all.
    grow(
        &mut dag,
        &[
            &[0],
            &[1],
            &[2],
            &[3],
            &[4],
            &[0],
            &[0],
            &[0],
            &[0],
            &[0],
            &[0],
            &[5, 6, 7, 8, 9, 10, 11],
        ],
    );
    assert_eq!((dag.deepest(), dag.gate_covered()), (MsgId(12), 12));
    assert_eq!(dag.first_parent(12), Some(5));
    assert_eq!(dag.author(GENESIS), None);
}

#[test]
fn a_fresh_arena_is_genesis_only_and_decidable() {
    let mut pool = Pool {
        dag: TrialDag::new(4),
        ghost: GhostScratch::new(),
        lin: LinScratch::new(),
    };
    decide_both(&mut pool, &AppendMemory::new(4), 3);
    assert_eq!(pool.lin.order(), &[0], "genesis alone is the order");
}

#[test]
#[should_panic(expected = "index_children() must follow the last append")]
fn reading_children_over_a_stale_index_panics() {
    let mut dag = TrialDag::new(2);
    dag.index_children();
    dag.append(NodeId(0), Value::plus(), &[MsgId(0)], Time::new(1.0))
        .unwrap();
    dag.children_of(0);
}
