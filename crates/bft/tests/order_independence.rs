//! Schett–Danezis order independence, exhaustively at n ≤ 4.
//!
//! Schett and Danezis read a block DAG as the message history of a BFT
//! protocol, and their rules' verdicts are functions of the DAG alone, so
//! an observer's verdict does not depend on the order it admitted the
//! blocks in. With an equivocator the order matters by construction:
//! which of two blocks sharing an (author, round) slot an observer saw
//! first is its own. What must still hold is that no two orders fork.
//!
//! The suites draw small seeded DAGs at n ∈ {3, 4}, count their
//! ancestor-closed admission orders (the linear extensions of the parent
//! order) and, below a cap, walk every one of them with a
//! [`FinalityView`] — a depth-first search that clones the view at each
//! branch — collecting the finalized chain and digest each order ends
//! with. With or without an equivocator, any two orders' chains are
//! prefix-comparable: the order never decides *which* block is final at
//! a height.
//!
//! Without equivocation the order can still decide *whether* a height is
//! final, so the full Schett–Danezis property — one chain for every
//! order — does not hold for this rule. The clique must hold over *all*
//! current supporters: a supporter whose vote nobody has witnessed yet
//! blocks a clique the others already form, so an observer that admits
//! that supporter's block before the clique's last block never finalizes
//! the height, and one that admits it after has already finalized it.
//! `a_late_supporter_decides_whether_a_height_is_final` pins one such
//! DAG the search met (two of its forty honest DAGs are like it).

use am_bft::{DagInterpreter, FinalityView};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// The distinct (finalized chain, digest) pairs the orders of one DAG
/// end with.
type Outcomes = BTreeSet<(Vec<u32>, u64)>;

/// Orders a DAG may have for the search to walk them all.
const MAX_ORDERS: u64 = 5_000;

/// A seeded random DAG over `n` authors in a table (ids in push order,
/// genesis 0), grown in layers as rounds of a BFT protocol: in each layer
/// every author that takes part appends one block voting for the
/// previous layer's first block, carrying its own last block and most of
/// the previous layer's other blocks. If `equivocator` is set, that
/// author sometimes appends a twin in the same round that votes for the
/// previous layer's last block instead.
fn layered_dag(
    rng: &mut ChaCha8Rng,
    n: usize,
    layers: usize,
    equivocator: Option<usize>,
) -> DagInterpreter {
    let mut table = DagInterpreter::new(n);
    let mut last_own = vec![0u32; n];
    let mut prev = vec![0u32];
    for _ in 0..layers {
        let mut layer = Vec::new();
        for (author, own) in last_own.iter_mut().enumerate() {
            if rng.gen_bool(0.15) {
                continue;
            }
            let mut parents = vec![prev[0]];
            if *own != 0 && !parents.contains(&*own) {
                parents.push(*own);
            }
            for &p in &prev[1..] {
                if !parents.contains(&p) && rng.gen_bool(0.75) {
                    parents.push(p);
                }
            }
            let block = table.push(author, &parents);
            layer.push(block);
            let rival = *prev.last().expect("a layer has blocks");
            if equivocator == Some(author) && rival != prev[0] && rng.gen_bool(0.5) {
                let mut twin = vec![rival];
                if *own != 0 {
                    twin.push(*own);
                }
                layer.push(table.push(author, &twin));
            }
            *own = block;
        }
        if !layer.is_empty() {
            prev = layer;
        }
    }
    table
}

/// The number of ancestor-closed orders of the table's non-genesis
/// blocks, by dynamic programming over observed sets (saturating).
fn order_count(table: &DagInterpreter) -> u64 {
    let blocks = table.len() - 1;
    let need: Vec<u32> = (1..=blocks as u32)
        .map(|b| {
            table
                .parents_of(b)
                .iter()
                .filter(|&&p| p != 0)
                .fold(0, |m, &p| m | 1 << (p - 1))
        })
        .collect();
    let mut ways = vec![0u64; 1 << blocks];
    ways[0] = 1;
    for set in 0..ways.len() {
        if ways[set] == 0 {
            continue;
        }
        for (b, &need) in need.iter().enumerate() {
            if set & 1 << b == 0 && need & !(set as u32) == 0 {
                let next = set | 1 << b;
                ways[next] = ways[next].saturating_add(ways[set]);
            }
        }
    }
    ways[ways.len() - 1]
}

/// Walks every ancestor-closed order of the blocks `view` has not
/// observed yet, collecting each order's final (chain, digest).
fn every_order(table: &DagInterpreter, view: &FinalityView, out: &mut Outcomes) {
    let mut leaf = true;
    for b in 1..table.len() as u32 {
        if view.is_observed(b) || !table.parents_of(b).iter().all(|&p| view.is_observed(p)) {
            continue;
        }
        leaf = false;
        let mut next = view.clone();
        next.observe(table, b);
        every_order(table, &next, out);
    }
    if leaf {
        out.insert((view.finalized_chain().to_vec(), view.finalized_digest()));
    }
}

/// Draws DAGs until `cases` of them have at most [`MAX_ORDERS`] orders,
/// and returns, per DAG, the set of outcomes over all its orders and the
/// number of orders walked.
fn outcomes(seed: u64, equivocate: bool, cases: usize) -> Vec<(Outcomes, u64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut found = Vec::new();
    while found.len() < cases {
        let n = rng.gen_range(3..=4);
        let equivocator = equivocate.then(|| rng.gen_range(0..n));
        let layers = rng.gen_range(4..=6);
        let table = layered_dag(&mut rng, n, layers, equivocator);
        if table.len() > 19 {
            continue;
        }
        let orders = order_count(&table);
        if orders > MAX_ORDERS {
            continue;
        }
        let mut seen = BTreeSet::new();
        every_order(&table, &FinalityView::new(n), &mut seen);
        found.push((seen, orders));
    }
    found
}

fn prefix_comparable(a: &[u32], b: &[u32]) -> bool {
    let m = a.len().min(b.len());
    a[..m] == b[..m]
}

/// Asserts that any two outcomes' chains are prefix-comparable, and
/// that two equal chains carry one digest.
fn assert_no_fork(seen: &Outcomes, at: &str) {
    for (a, da) in seen {
        for (b, db) in seen {
            assert!(prefix_comparable(a, b), "{at}: {a:?} vs {b:?}");
            assert!(a != b || da == db, "{at}: one chain, two digests");
        }
    }
}

#[test]
fn without_equivocation_no_two_orders_fork() {
    let cases = outcomes(0x5d_0001, false, 40);
    let (mut finalized, mut orders) = (0, 0);
    for (i, (seen, count)) in cases.iter().enumerate() {
        assert_no_fork(seen, &format!("case {i} ({count} orders)"));
        finalized += usize::from(seen.iter().any(|(c, _)| !c.is_empty()));
        orders += count;
    }
    // The search must be about something: most DAGs finalize, and many
    // orders were walked.
    assert!(finalized >= cases.len() / 2, "only {finalized} finalized");
    assert!(orders >= 2_000, "only {orders} orders walked");
}

#[test]
fn with_one_equivocator_no_two_orders_fork() {
    let cases = outcomes(0x5d_0002, true, 40);
    let (mut finalized, mut split) = (0, 0);
    for (i, (seen, count)) in cases.iter().enumerate() {
        assert_no_fork(seen, &format!("case {i} ({count} orders)"));
        finalized += usize::from(seen.iter().any(|(c, _)| !c.is_empty()));
        split += usize::from(seen.len() > 1);
    }
    assert!(finalized >= cases.len() / 4, "only {finalized} finalized");
    // Equivocation must actually make the order matter somewhere, or the
    // comparison is vacuous.
    assert!(split > 0, "no DAG's outcome depended on the order");
}

#[test]
fn a_late_supporter_decides_whether_a_height_is_final() {
    // n = 4, q = 3, nobody equivocates. After block 9, authors 0, 2 and 3
    // vote for block 1 and author 2's latest block (5) has not seen
    // author 3 vote: stuck. Block 11 (author 2) witnesses author 3's
    // vote and closes the clique {0, 2, 3}. Block 10 makes author 1 a
    // supporter too, but only its own block witnesses its vote: once it
    // is in, no clique over all four supporters can form.
    let mut table = DagInterpreter::new(4);
    for (author, parents) in [
        (0, &[0][..]),   // 1
        (1, &[0]),       // 2
        (2, &[0]),       // 3
        (0, &[1, 2, 3]), // 4
        (2, &[1, 3, 2]), // 5
        (3, &[1, 3]),    // 6
        (0, &[4, 5, 6]), // 7
        (3, &[4, 6, 5]), // 8
        (0, &[7, 8]),    // 9
        (1, &[7, 2, 8]), // 10: author 1 votes for block 1
        (2, &[7, 5]),    // 11: closes the clique {0, 2, 3}
        (3, &[7, 8]),    // 12
    ] {
        table.push(author, parents);
    }
    let end = |order: &[u32]| {
        let mut view = FinalityView::new(4);
        for &b in order {
            view.observe(&table, b);
        }
        view.finalized_chain().to_vec()
    };
    assert_eq!(end(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10, 12]), vec![1]);
    assert_eq!(
        end(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
        Vec::<u32>::new()
    );
}
