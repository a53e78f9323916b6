//! Engine-equivalence property suite.
//!
//! The incremental decision-path engine (the `ConeCoverTracker` over a
//! growing `BlockStore`, the CSR `DagIndex` with epoch-stamped scratch, and
//! the shared-index
//! `*_with` chain/linearize variants) is a pure performance change: every
//! result must agree exactly with a from-scratch recomputation. This suite
//! drives all three layers over ≥1k randomized histories — random parent
//! picks, forks, value mixes, and sparse (subsequence) views.
//!
//! `src/` holds one linearization; the obvious rule lives here as
//! [`spec_linearize`], written against `MemoryView` alone (no `DagIndex`,
//! no positions, no stamps). Mutation-checked: each of these edits to
//! `linearize_with` in `linearize.rs` fails
//! `linearize_with_matches_the_from_scratch_spec_over_1000_histories` —
//!
//! * tie key reversed (the ready heap ordered by `(seq, author)`);
//! * epoch boundary off by one block (the first chain block skipped, so
//!   its cone is emitted as part of the next block's epoch);
//! * already-emitted ancestor re-emitted (the cone walk and the heap pop
//!   no longer stop at `emitted`);
//! * `uncovered` dropped (returned empty).

use am_core::{
    chain, ghost, linearize, linearize_with, pivot, AppendMemory, BlockStore, ConeCoverTracker,
    DagIndex, DagRead, Linearization, MemoryView, MessageBuilder, MsgId, NodeId, Value,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::Arc;

/// From-scratch covered-value count: DFS over the closed past cone of
/// `tip` in an explicit parent table.
fn naive_cover(parents: &[Vec<MsgId>], carries: &[bool], tip: MsgId) -> usize {
    let mut seen = vec![false; parents.len()];
    let mut stack = vec![tip];
    let mut count = 0usize;
    while let Some(id) = stack.pop() {
        let i = id.index();
        if seen[i] {
            continue;
        }
        seen[i] = true;
        if carries[i] {
            count += 1;
        }
        stack.extend_from_slice(&parents[i]);
    }
    count
}

/// The linearization rule, from scratch: per chain block, the epoch is the
/// block's not-yet-emitted closed past cone (DFS over the view's parent
/// lists, references outside the view ignored); the epoch is emitted in
/// Kahn's order, always taking the ready member with the least
/// `(author, id)` content key (genesis counts as author 0). Whatever no
/// epoch reached is `uncovered`, in view order.
fn spec_linearize(view: &MemoryView, chain: &[MsgId]) -> Linearization {
    let key = |id: MsgId| (view.get(id).unwrap().author.map_or(0, |a| a.0), id);
    let mut emitted: HashSet<MsgId> = HashSet::new();
    let mut order = Vec::new();
    for &block in chain {
        if !view.contains(block) {
            continue;
        }
        let mut epoch: HashSet<MsgId> = HashSet::new();
        let mut stack = vec![block];
        while let Some(id) = stack.pop() {
            if view.contains(id) && !emitted.contains(&id) && epoch.insert(id) {
                stack.extend_from_slice(&view.get(id).unwrap().parents);
            }
        }
        while !epoch.is_empty() {
            let next = epoch
                .iter()
                .copied()
                .filter(|&id| {
                    let ps = &view.get(id).unwrap().parents;
                    ps.iter().all(|p| !epoch.contains(p))
                })
                .min_by_key(|&id| key(id))
                .expect("a finite DAG always has a ready member");
            epoch.remove(&next);
            emitted.insert(next);
            order.push(next);
        }
    }
    let uncovered = view
        .iter()
        .map(|m| m.id)
        .filter(|id| !emitted.contains(id))
        .collect();
    Linearization { order, uncovered }
}

/// A random history in an `AppendMemory`: every append references 1–3
/// random earlier messages (dedup'd), with a random value mix. Returns the
/// memory plus the explicit parent/value tables for naive recomputation.
fn random_history(
    rng: &mut ChaCha8Rng,
    authors: usize,
    appends: usize,
) -> (AppendMemory, Vec<Vec<MsgId>>, Vec<bool>) {
    let mem = AppendMemory::new(authors);
    let mut parents: Vec<Vec<MsgId>> = vec![Vec::new()];
    let mut carries: Vec<bool> = vec![false];
    for i in 0..appends {
        let next = (i + 1) as u64;
        let mut ps: Vec<MsgId> = (0..rng.gen_range(1..=3usize))
            .map(|_| MsgId(rng.gen_range(0..next)))
            .collect();
        ps.sort_unstable();
        ps.dedup();
        let value = match rng.gen_range(0..3u32) {
            0 => Value::plus(),
            1 => Value::minus(),
            _ => Value::Unit,
        };
        carries.push(value.as_sign().is_some());
        let author = NodeId(rng.gen_range(0..authors as u32));
        let id = mem
            .append(MessageBuilder::new(author, value).parents(ps.iter().copied()))
            .unwrap();
        assert_eq!(id.index(), parents.len());
        parents.push(ps);
    }
    (mem, parents, carries)
}

#[test]
fn cone_cover_tracker_matches_naive_over_1000_histories() {
    for seed in 0..1000u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let authors = rng.gen_range(2..=6usize);
        let appends = rng.gen_range(5..=40usize);
        let mem = AppendMemory::new(authors);
        let mut parents: Vec<Vec<MsgId>> = vec![Vec::new()];
        let mut carries: Vec<bool> = vec![false];
        let mut store = BlockStore::new();
        let mut tracker = ConeCoverTracker::new();
        for i in 0..appends {
            let next = (i + 1) as u64;
            let mut ps: Vec<MsgId> = (0..rng.gen_range(1..=3usize))
                .map(|_| MsgId(rng.gen_range(0..next)))
                .collect();
            ps.sort_unstable();
            ps.dedup();
            let value = if rng.gen_bool(0.7) {
                Value::plus()
            } else {
                Value::Unit
            };
            let counts = value.as_sign().is_some();
            let author = NodeId(rng.gen_range(0..authors as u32));
            let id = mem
                .append(MessageBuilder::new(author, value).parents(ps.iter().copied()))
                .unwrap();
            let pushed = store.push(author, ps.iter().map(|p| p.0 as u32), mem.now());
            assert_eq!(pushed, id);
            carries.push(counts);
            parents.push(ps);
            // Interleave queries mid-growth: descendants, ancestors, and
            // unrelated forks all exercise different tracker paths.
            if rng.gen_bool(0.4) {
                let tip = MsgId(rng.gen_range(0..next + 1));
                assert_eq!(
                    tracker.cover_of(&store, tip, |i| carries[i]),
                    naive_cover(&parents, &carries, tip),
                    "seed {seed} append {i} tip {tip:?}"
                );
            }
        }
        // Final sweep: every message as a query tip.
        for idx in 0..parents.len() {
            let tip = MsgId(idx as u64);
            assert_eq!(
                tracker.cover_of(&store, tip, |i| carries[i]),
                naive_cover(&parents, &carries, tip),
                "seed {seed} final tip {tip:?}"
            );
        }
    }
}

#[test]
fn csr_index_matches_bruteforce_reachability_including_sparse_views() {
    for seed in 0..150u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC5_0000 + seed);
        let authors = rng.gen_range(2..=5usize);
        let appends = rng.gen_range(4..=25usize);
        let (mem, _, _) = random_history(&mut rng, authors, appends);
        let full = mem.read();
        // A sparse view drops a random subset (genesis kept): DagIndex must
        // simply skip references to messages outside the view.
        let sparse = am_core::MemoryView::from_messages(
            full.iter()
                .filter(|m| m.is_genesis() || rng.gen_bool(0.7))
                .map(Arc::clone)
                .collect::<Vec<_>>(),
        );
        for view in [&full, &sparse] {
            let dag = DagIndex::new(view);
            let n = dag.len();
            // Brute-force ancestor matrix over the index's own edge lists
            // (positions ascend from parents to children).
            let mut reach = vec![vec![false; n]; n];
            for pos in 0..n {
                reach[pos][pos] = true;
                let mut row = std::mem::take(&mut reach[pos]);
                for &p in dag.parents_of(pos) {
                    for a in 0..n {
                        if reach[p as usize][a] {
                            row[a] = true;
                        }
                    }
                }
                reach[pos] = row;
            }
            for (pos, row) in reach.iter().enumerate() {
                let mut past: Vec<usize> = (0..n).filter(|&a| a != pos && row[a]).collect();
                past.sort_unstable();
                assert_eq!(dag.past_cone(pos), past, "seed {seed} past of {pos}");
                let mut fut: Vec<usize> = (0..n).filter(|&d| d != pos && reach[d][pos]).collect();
                fut.sort_unstable();
                assert_eq!(dag.future_cone(pos), fut, "seed {seed} future of {pos}");
                for (anc, &reachable) in row.iter().enumerate() {
                    assert_eq!(
                        dag.is_ancestor(anc, pos),
                        anc != pos && reachable,
                        "seed {seed} is_ancestor({anc},{pos})"
                    );
                }
            }
        }
    }
}

#[test]
fn shared_index_decision_path_matches_fresh_recomputation() {
    for seed in 0..300u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x11D_0000 + seed);
        let authors = rng.gen_range(2..=6usize);
        let appends = rng.gen_range(5..=35usize);
        let (mem, parents, carries) = random_history(&mut rng, authors, appends);
        let view = mem.read();
        let dag = DagIndex::new(&view);
        // Every chain rule: the index-sharing variant must equal the
        // view-taking one (which rebuilds its own index from scratch).
        let lc = chain::longest_chain(&view);
        assert_eq!(chain::longest_chain_with(&dag), lc, "seed {seed} longest");
        let gp = ghost::ghost_pivot(&view);
        assert_eq!(ghost::ghost_pivot_with(&dag), gp, "seed {seed} ghost");
        let pv = pivot::pivot_chain(&view);
        assert_eq!(pivot::pivot_chain_with(&dag), pv, "seed {seed} pivot");
        // Pooled ghost scratch across iterations must not leak state.
        let mut gs = ghost::GhostScratch::new();
        assert_eq!(ghost::ghost_pivot_in(&dag, &mut gs), gp);
        assert_eq!(ghost::ghost_pivot_in(&dag, &mut gs), gp);
        for chain in [&lc, &gp, &pv] {
            let fresh = linearize(&view, chain);
            let shared = linearize_with(&dag, chain);
            assert_eq!(fresh, shared, "seed {seed} linearize");
            // Covered-from-linearization shortcut == per-tip cone DFS.
            let covered = shared
                .order
                .iter()
                .filter(|&&id| carries[id.index()])
                .count();
            let tip = *chain.last().unwrap();
            assert_eq!(
                covered,
                naive_cover(&parents, &carries, tip),
                "seed {seed} covered"
            );
        }
    }
}

#[test]
fn linearize_with_matches_the_from_scratch_spec_over_1000_histories() {
    let mut sparse_uncovered = 0usize;
    for seed in 0..1000u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5bec_0000 + seed);
        let authors = rng.gen_range(2..=6usize);
        let appends = rng.gen_range(5..=40usize);
        let (mem, _, _) = random_history(&mut rng, authors, appends);
        let full = mem.read();
        let sparse = MemoryView::from_messages(
            full.iter()
                .filter(|m| m.is_genesis() || rng.gen_bool(0.7))
                .map(Arc::clone)
                .collect::<Vec<_>>(),
        );
        let full_lc = chain::longest_chain(&full);
        for view in [&full, &sparse] {
            let dag = DagIndex::new(view);
            // The three chain rules on this view, plus the full view's
            // longest chain: on the sparse view it names blocks the view
            // lacks and skips over dropped links.
            let chains = [
                chain::longest_chain_with(&dag),
                ghost::ghost_pivot_with(&dag),
                pivot::pivot_chain_with(&dag),
                full_lc.clone(),
            ];
            for chain in &chains {
                let want = spec_linearize(view, chain);
                assert_eq!(linearize_with(&dag, chain), want, "seed {seed} {chain:?}");
                assert_eq!(want.order.len() + want.uncovered.len(), view.len());
                sparse_uncovered += want.uncovered.len();
            }
        }
    }
    assert!(sparse_uncovered > 0, "no history left anything uncovered");
}
