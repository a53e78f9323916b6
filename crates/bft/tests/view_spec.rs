//! One table, many views: the split the networked BFT driver runs on,
//! held to the self-contained oracle it replaced.
//!
//! A trial interprets its DAG once — one [`DagInterpreter`] with every
//! block, under the caller's (sparse) ids — and gives each node a
//! [`FinalityView`] over it, fed in that node's own admission order. The
//! suites build seeded random DAGs at n ∈ {4, 12, 65} in which some
//! authors equivocate, hand every node its own arrival order — a random
//! subset, locally shuffled so that children often arrive before their
//! parents and are deferred until the parents are observed, and so that
//! the two forks of an equivocator reach different nodes in different
//! orders — and compare each view with a standalone [`FinalityOracle`]
//! fed the same observation order: finalized chain, digest, finalized
//! cone, `is_final` of every id, first-observed round slots, equivocator
//! set, role counts, conflict flag and [`OracleStats`]. The digest and
//! the cone are also recomputed from scratch (mixer and plain DFS), since
//! an oracle runs the same view code. A pooled table and views, reset
//! across n = 12 → 4 → 65 → 12, must be indistinguishable from fresh
//! ones. So must a pooled oracle refilled with `clone_from` — the model
//! checker keeps one per DFS depth — whatever it held before: a longer
//! history, a shorter one, or one over a different `n`. Its `Debug` form
//! must equal the source's (every field of table, view and remap), and
//! observing on must keep chain, digest and [`OracleStats`] equal to an
//! oracle that saw the whole history itself.
//!
//! Checked to catch, each on its own:
//!
//! * round slots filled in table order, not observation order;
//! * `reset` keeping a memo stamp or an equivocator flag;
//! * the cone walk counting genesis;
//! * the digest mixing the table id instead of the caller's id (the
//!   sparse-id case);
//! * `observe` skipping the parents-observed assert;
//! * a field forgotten in a manual `clone_from` — e.g. `FinalityView`'s
//!   `stuck` or `stats`, `DagInterpreter`'s `jump` or `FinalityOracle`'s
//!   `local_of` left as the slot had it — and likewise a column of the
//!   table's `BlockStore` (`author`, the parent rows, `depth`,
//!   `first_child`, `arrival` or `deepest`), since the nonforking DFS
//!   refills a table per depth.

use am_bft::{DagInterpreter, FinalityOracle, FinalityView, OracleStats};
use am_core::{MsgId, Time, GENESIS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};

/// Same mixer as the view (the digest is part of the contract).
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

type Block = (MsgId, usize, Vec<MsgId>);

/// A random DAG plus, per node, the order its view observes blocks in
/// (indices into `blocks`).
struct Scenario {
    n: usize,
    blocks: Vec<Block>,
    orders: Vec<Vec<usize>>,
    /// Blocks that arrived before a parent and waited, over all nodes.
    deferrals: usize,
}

/// Seeded random block DAG over `n` authors with sparse ids (the shape of
/// `oracle_spec`'s generator): honest appends extend a recent block and
/// carry the author's own last block; with probability `fork` an append
/// drops the self-parent and builds on an old block instead, re-using one
/// of the author's rounds — an equivocation.
fn random_dag(rng: &mut ChaCha8Rng, n: usize, len: usize, fork: f64) -> Vec<Block> {
    let mut ids: Vec<MsgId> = vec![GENESIS];
    let mut last_own: Vec<MsgId> = vec![GENESIS; n];
    let mut blocks: Vec<Block> = Vec::new();
    let mut next_id = 0u64;
    for _ in 0..len {
        next_id += rng.gen_range(1..40u64);
        let id = MsgId(next_id);
        let author = rng.gen_range(0..n);
        let recent = |rng: &mut ChaCha8Rng| ids[ids.len() - 1 - rng.gen_range(0..3.min(ids.len()))];
        let forking = rng.gen_bool(fork);
        let sel = if forking {
            ids[rng.gen_range(0..ids.len())]
        } else {
            recent(rng)
        };
        let mut parents = vec![sel];
        if !forking && last_own[author] != GENESIS && last_own[author] != sel {
            parents.push(last_own[author]);
        }
        for _ in 0..rng.gen_range(0..3) {
            let extra = recent(rng);
            if !forking && !parents.contains(&extra) {
                parents.push(extra);
            }
        }
        blocks.push((id, author, parents));
        ids.push(id);
        last_own[author] = id;
    }
    blocks
}

/// Per node: every block in generation order, each delayed by a random
/// lag — mostly a few positions, sometimes dozens, so children overtake
/// parents — and a block of the last tenth lost now and then (its
/// descendants then wait for good); then the driver's deferral rule: an
/// arrival whose parents are not all observed waits, and every observe
/// retries the waiting list in arrival order.
fn scenario(rng: &mut ChaCha8Rng, n: usize, fork: f64) -> Scenario {
    let blocks = random_dag(rng, n, 12 * n + 20, fork);
    let index: HashMap<MsgId, usize> = blocks.iter().enumerate().map(|(i, b)| (b.0, i)).collect();
    let tail = blocks.len() * 9 / 10;
    let mut deferrals = 0;
    let orders = (0..n)
        .map(|_| {
            let mut arrival: Vec<(f64, usize)> = Vec::new();
            for i in 0..blocks.len() {
                if i >= tail && rng.gen_bool(0.2) {
                    continue;
                }
                let spread = if rng.gen_bool(0.1) { 60.0 } else { 4.0 };
                arrival.push((i as f64 + rng.gen_range(0.0..spread), i));
            }
            arrival.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut observed: HashSet<usize> = HashSet::new();
            let ready = |observed: &HashSet<usize>, i: usize| {
                blocks[i]
                    .2
                    .iter()
                    .all(|p| *p == GENESIS || observed.contains(&index[p]))
            };
            let (mut order, mut waiting) = (Vec::new(), Vec::new());
            for (_, i) in arrival {
                if !ready(&observed, i) {
                    deferrals += 1;
                    waiting.push(i);
                    continue;
                }
                observed.insert(i);
                order.push(i);
                loop {
                    let before = waiting.len();
                    waiting.retain(|&w| {
                        let ok = ready(&observed, w);
                        if ok {
                            observed.insert(w);
                            order.push(w);
                        }
                        !ok
                    });
                    if waiting.len() == before {
                        break;
                    }
                }
            }
            order
        })
        .collect();
    Scenario {
        n,
        blocks,
        orders,
        deferrals,
    }
}

/// Everything one observer exposes, under the caller's ids.
#[derive(Debug, PartialEq)]
struct Snapshot {
    observed: usize,
    chain: Vec<MsgId>,
    digest: u64,
    cone: usize,
    /// `is_final` of genesis, then of every block of the scenario.
    finals: Vec<bool>,
    /// First-observed block per (author, round).
    slots: Vec<Vec<MsgId>>,
    equivocators: Vec<bool>,
    roles: (usize, usize, usize),
    conflict: bool,
    stats: OracleStats,
}

fn snapshot(
    table: &DagInterpreter,
    view: &FinalityView,
    sc: &Scenario,
    is_final: impl Fn(MsgId) -> bool,
) -> Snapshot {
    Snapshot {
        observed: view.blocks_observed(),
        chain: view
            .finalized_chain()
            .iter()
            .map(|&b| table.id_of(b))
            .collect(),
        digest: view.finalized_digest(),
        cone: view.finalized_cone_blocks(),
        finals: std::iter::once(GENESIS)
            .chain(sc.blocks.iter().map(|b| b.0))
            .map(is_final)
            .collect(),
        slots: (0..sc.n)
            .map(|a| {
                (1..=view.rounds_of(a))
                    .map(|r| table.id_of(view.block_at(a, r)))
                    .collect()
            })
            .collect(),
        equivocators: (0..sc.n).map(|a| view.is_equivocator(a)).collect(),
        roles: view.role_counts(),
        conflict: view.conflict_detected(),
        stats: view.stats(),
    }
}

/// Pushes the scenario into `table` (genesis-only, over `sc.n` authors)
/// in generation order, under the scenario's sparse ids, then feeds each
/// of `views` (fresh or reset) its node's order. Returns the views'
/// snapshots, each checked against a from-scratch digest and cone.
fn run_shared(
    table: &mut DagInterpreter,
    views: &mut [FinalityView],
    sc: &Scenario,
) -> Vec<Snapshot> {
    let mut tid: HashMap<MsgId, u32> = HashMap::from([(GENESIS, 0)]);
    for (id, author, parents) in &sc.blocks {
        let b = table.push_as(*id, *author, parents.iter().map(|p| tid[p]), Time::ZERO);
        tid.insert(*id, b);
    }
    let by_index: Vec<u32> = sc.blocks.iter().map(|b| tid[&b.0]).collect();
    views
        .iter_mut()
        .zip(&sc.orders)
        .map(|(view, order)| {
            for &i in order {
                view.observe(table, by_index[i]);
            }
            let snap = snapshot(table, view, sc, |id| view.is_final(tid[&id]));
            check_from_scratch(table, view, &snap, &tid);
            snap
        })
        .collect()
}

/// The digest folded over the chain with the mixer, and the cone as a
/// plain DFS from the head (genesis excluded), against what the view
/// maintains.
fn check_from_scratch(
    table: &DagInterpreter,
    view: &FinalityView,
    snap: &Snapshot,
    tid: &HashMap<MsgId, u32>,
) {
    let mut digest = 0;
    for &b in view.finalized_chain() {
        let a = table.author_of(b).expect("non-genesis") as u64;
        digest = mix(digest, (a << 32) | table.round_of(b) as u64);
        digest = mix(digest, table.id_of(b).0);
    }
    assert_eq!(
        snap.digest, digest,
        "digest must mix (author, round, caller id)"
    );
    // Every DFS from the head reaches genesis, which is final but not
    // counted.
    let mut cone = HashSet::new();
    let mut stack = vec![view.finalized_head()];
    while let Some(b) = stack.pop() {
        if cone.insert(b) {
            stack.extend_from_slice(table.parents_of(b));
        }
    }
    assert_eq!(
        snap.cone,
        cone.len() - 1,
        "finalized cone, genesis excluded"
    );
    for (id, &b) in tid {
        assert_eq!(view.is_final(b), cone.contains(&b), "is_final({id:?})");
    }
}

/// The same scenario through one standalone oracle per node.
fn run_oracles(sc: &Scenario) -> Vec<Snapshot> {
    sc.orders
        .iter()
        .map(|order| {
            let mut oracle = FinalityOracle::new(sc.n);
            for &i in order {
                let (id, author, parents) = &sc.blocks[i];
                oracle.observe(*id, *author, parents);
            }
            snapshot(oracle.interpreter(), oracle.view(), sc, |id| {
                oracle.is_final(id)
            })
        })
        .collect()
}

fn fresh(n: usize) -> (DagInterpreter, Vec<FinalityView>) {
    (
        DagInterpreter::new(n),
        (0..n).map(|_| FinalityView::new(n)).collect(),
    )
}

#[test]
fn shared_table_views_equal_standalone_oracles() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5ab1e);
    let (mut finalized, mut equivocated, mut split, mut deferrals) = (0, 0, 0, 0);
    for (n, cases) in [(4usize, 24), (12, 8), (65, 2)] {
        for case in 0..cases {
            let fork = [0.0, 0.03, 0.08][case % 3];
            let sc = scenario(&mut rng, n, fork);
            let (mut table, mut views) = fresh(n);
            let shared = run_shared(&mut table, &mut views, &sc);
            let owned = run_oracles(&sc);
            for (node, (s, o)) in shared.iter().zip(&owned).enumerate() {
                assert_eq!(s, o, "n {n} case {case} node {node}");
            }
            finalized += shared.iter().filter(|s| !s.chain.is_empty()).count();
            equivocated += shared
                .iter()
                .filter(|s| s.equivocators.contains(&true))
                .count();
            // Two nodes that saw an equivocator's forks in different
            // orders fill one of its round slots with different blocks.
            split += shared
                .windows(2)
                .filter(|w| {
                    w[0].slots
                        .iter()
                        .zip(&w[1].slots)
                        .any(|(x, y)| x.iter().zip(y).any(|(bx, by)| bx != by))
                })
                .count();
            deferrals += sc.deferrals;
        }
    }
    // The generator must exercise what the comparison is for.
    assert!(finalized > 100, "only {finalized} views finalized anything");
    assert!(
        equivocated > 50,
        "only {equivocated} views caught an equivocator"
    );
    assert!(
        split > 20,
        "forks reached the nodes in one order ({split} splits)"
    );
    assert!(
        deferrals > 1_000,
        "only {deferrals} children overtook a parent"
    );
}

#[test]
fn pooled_table_and_views_reset_like_fresh_ones() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9001);
    let mut table = DagInterpreter::new(1);
    let mut views: Vec<FinalityView> = Vec::new();
    // Forks first, then none: a flag or memo stamp that survives a reset
    // shows up in the next trial's equivocators or `memo_edges`.
    let trials = [(12usize, 0.08), (4, 0.0), (65, 0.05), (12, 0.0)];
    for (i, &(n, fork)) in trials.iter().enumerate() {
        let sc = scenario(&mut rng, n, fork);
        table.reset(n);
        if views.len() < n {
            views.resize_with(n, || FinalityView::new(n));
        }
        for view in &mut views[..n] {
            view.reset(n);
        }
        let pooled = run_shared(&mut table, &mut views[..n], &sc);
        let (mut t, mut v) = fresh(n);
        assert_eq!(
            pooled,
            run_shared(&mut t, &mut v, &sc),
            "n {n}: pooled ≠ fresh"
        );
        if fork > 0.0 {
            let kept = trials[i + 1].0;
            assert!(
                pooled
                    .iter()
                    .any(|s| s.equivocators[..kept].contains(&true)),
                "n {n}: no equivocator among the authors the next trial keeps"
            );
        }
    }
}

/// An oracle over `n` authors that observed `blocks` in order.
fn oracle_of(n: usize, blocks: &[Block]) -> FinalityOracle {
    let mut oracle = FinalityOracle::new(n);
    for (id, author, parents) in blocks {
        oracle.observe(*id, *author, parents);
    }
    oracle
}

#[test]
fn clone_from_refills_a_used_oracle_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xc10e);
    let mut finalized = 0;
    for case in 0..12 {
        let n = [4usize, 7][case % 2];
        let fork = [0.0, 0.04, 0.08][case % 3];
        let blocks = random_dag(&mut rng, n, 12 * n + 20, fork);
        let cut = blocks.len() / 2;
        let src = oracle_of(n, &blocks[..cut]);
        let other = random_dag(&mut rng, n + 3, 8 * n, 0.05);
        let slots = [
            ("longer", oracle_of(n, &blocks)),
            ("shorter", oracle_of(n, &blocks[..cut / 3])),
            ("other n", oracle_of(n + 3, &other)),
        ];
        for (held, mut slot) in slots {
            slot.clone_from(&src);
            assert_eq!(
                format!("{slot:?}"),
                format!("{src:?}"),
                "case {case}: slot that held a {held} history"
            );
            let mut whole = oracle_of(n, &blocks[..cut]);
            for (id, author, parents) in &blocks[cut..] {
                slot.observe(*id, *author, parents);
                whole.observe(*id, *author, parents);
                assert_eq!(slot.finalized_chain(), whole.finalized_chain());
                assert_eq!(slot.finalized_digest(), whole.finalized_digest());
                assert_eq!(slot.stats(), whole.stats(), "case {case}, {held}");
            }
            finalized += usize::from(slot.finalized_height() > src.finalized_height());
        }
    }
    assert!(
        finalized > 12,
        "only {finalized} refilled slots finalized on"
    );
}

#[test]
#[should_panic(expected = "observed before")]
fn a_view_rejects_a_block_whose_parents_it_has_not_observed() {
    let mut table = DagInterpreter::new(3);
    let a = table.push(0, &[0]);
    let b = table.push(1, &[a]);
    let mut view = FinalityView::new(3);
    view.observe(&table, b);
}

#[test]
#[should_panic(expected = "observed twice")]
fn a_view_rejects_a_block_it_observed_already() {
    let mut table = DagInterpreter::new(3);
    let a = table.push(0, &[0]);
    let mut view = FinalityView::new(3);
    view.observe(&table, a);
    view.observe(&table, a);
}
