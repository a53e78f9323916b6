//! `BlockStore` against the definitions it maintains incrementally.
//!
//! Random forked histories (one to three parents per append, mostly recent
//! so the DAG grows deep, arrival times that sometimes repeat) go into an
//! `AppendMemory`; each full view, and a sparse subsequence of it, is then
//! held as an explicit model — per block its author, its parents *inside
//! the view* (as positions) and its arrival — from which the test computes
//! depth, tips, deepest blocks and time prefixes by plain scans. Two stores
//! must answer exactly like the model: one grown by `push`, one built by
//! `BlockStore::from_view`. Both are compared column by column, on every
//! prefix (parents, depth, and a `Frontier`'s tips and deepest, extended
//! one block at a time) and every time prefix. A reset store must equal a
//! fresh one, and `clone_from` into a slot that held a longer, a shorter or
//! no history must equal `clone` (compared by `Debug`, which prints every
//! column).
//!
//! `Frontier` is also held to [`tips_of_prefix`] / [`deepest_in_prefix`],
//! the O(prefix) scans it replaced, on stores that grow between
//! extensions, under random monotone prefix sequences with repeats and
//! clamps, and after a `clear` that reuses it for another store.
//!
//! Mutations this file was checked to catch (each applied alone, each
//! turns at least one test red):
//!
//! 1. depth off by one (`depth[p] + 2`, or roots at depth 1);
//! 2. `first_child` not updated on push (every block stays a tip);
//! 3. `reset` forgetting the arrival column (the genesis push then trips the
//!    non-decreasing assert, or a stale time shifts `prefix_at_time`);
//! 4. `clone_from` skipping a column (`first_child` or `arrival` left as the
//!    slot had it);
//! 5. `Frontier::extend_to` keeping every old tip (no re-check of first
//!    children against the new end);
//! 6. `Frontier::extend_to` appending a deeper new row to the deepest set
//!    instead of replacing it;
//! 7. `Frontier::clear` keeping the prefix length (a reused frontier
//!    answers for the previous store).

use am_core::{
    AppendMemory, BlockStore, DagIndex, DagRead, Frontier, MemoryView, MessageBuilder, MsgId,
    NodeId, Time, Value,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A random forked history of `len` appends by `n` authors: every append
/// references one to three of the six latest messages, and the clock
/// advances by 0, 0.5 or 1 between appends.
fn random_forked(rng: &mut ChaCha8Rng, n: u32, len: u64) -> AppendMemory {
    let mem = AppendMemory::new(n as usize);
    let mut now = 0.0;
    for i in 1..=len {
        let mut parents: Vec<MsgId> = (0..rng.gen_range(1..=3))
            .map(|_| MsgId(rng.gen_range(i.saturating_sub(6)..i)))
            .collect();
        parents.dedup();
        now += [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
        mem.append_at(
            MessageBuilder::new(NodeId(rng.gen_range(0..n)), Value::plus())
                .parents(parents.iter().copied()),
            Time::new(now),
        )
        .expect("a valid append");
    }
    mem
}

/// The tips of the first `prefix` blocks of `store` (at least genesis):
/// the blocks no block of the prefix lists as a parent, ascending. The
/// O(prefix) scan `Frontier` replaced, kept as its oracle.
fn tips_of_prefix(store: &BlockStore, prefix: usize) -> Vec<MsgId> {
    let end = prefix.min(store.len()).max(1);
    let mut referenced = vec![false; end];
    for i in 0..end {
        for &p in store.parents_of(i) {
            referenced[p as usize] = true;
        }
    }
    (0..end)
        .filter(|&i| !referenced[i])
        .map(|i| MsgId(i as u64))
        .collect()
}

/// The blocks of the first `prefix` blocks of `store` (at least genesis)
/// at their maximum depth, ascending — `Frontier::deepest`'s oracle.
fn deepest_in_prefix(store: &BlockStore, prefix: usize) -> Vec<MsgId> {
    let end = prefix.min(store.len()).max(1);
    let max = (0..end).map(|i| store.depth_of(i)).max().unwrap();
    (0..end)
        .filter(|&i| store.depth_of(i) == max)
        .map(|i| MsgId(i as u64))
        .collect()
}

/// A view as the model: per position, author, in-view parent positions in
/// listed order, and arrival.
struct Model {
    author: Vec<Option<NodeId>>,
    parents: Vec<Vec<u32>>,
    arrival: Vec<Time>,
    /// Longest-path depth, roots 0: one more than the deepest parent's.
    depth: Vec<u32>,
}

impl Model {
    fn of(view: &MemoryView) -> Model {
        let pos = |id: MsgId| view.iter().position(|m| m.id == id);
        let parents: Vec<Vec<u32>> = view
            .iter()
            .map(|m| {
                let in_view = m.parents.iter().filter_map(|&p| pos(p));
                in_view.map(|p| p as u32).collect()
            })
            .collect();
        let mut depth: Vec<u32> = Vec::new();
        for ps in &parents {
            let d = ps.iter().map(|&p| depth[p as usize] + 1).max();
            depth.push(d.unwrap_or(0));
        }
        Model {
            author: view.iter().map(|m| m.author).collect(),
            parents,
            arrival: view.iter().map(|m| m.arrival).collect(),
            depth,
        }
    }

    /// Blocks of the first `prefix` no block of that prefix references.
    fn tips(&self, prefix: usize) -> Vec<MsgId> {
        (0..prefix)
            .filter(|&i| {
                !self.parents[..prefix]
                    .iter()
                    .any(|ps| ps.contains(&(i as u32)))
            })
            .map(|i| MsgId(i as u64))
            .collect()
    }

    /// Blocks of the first `prefix` at the prefix's maximum depth.
    fn deepest(&self, prefix: usize) -> Vec<MsgId> {
        let max = self.depth[..prefix].iter().copied().max().unwrap();
        (0..prefix)
            .filter(|&i| self.depth[i] == max)
            .map(|i| MsgId(i as u64))
            .collect()
    }

    /// The model pushed, block by block, into `store` (reset first).
    fn push_into(&self, store: &mut BlockStore) {
        store.reset();
        for i in 1..self.author.len() {
            let author = self.author[i].expect("only genesis is authorless");
            store.push(author, self.parents[i].iter().copied(), self.arrival[i]);
        }
    }
}

/// Every answer of `store` against the model.
fn check(store: &BlockStore, model: &Model, what: &str) {
    let len = model.author.len();
    assert_eq!(store.len(), len, "{what}: len");
    let mut frontier = Frontier::default();
    for i in 0..len {
        assert_eq!(store.author_of(i), model.author[i], "{what}: author of {i}");
        assert_eq!(
            store.parents_of(i),
            model.parents[i],
            "{what}: parents of {i}"
        );
        assert_eq!(store.depth_of(i), model.depth[i], "{what}: depth of {i}");
        assert_eq!(store.arrival(i), model.arrival[i], "{what}: arrival of {i}");
        let prefix = i + 1;
        frontier.extend_to(store, prefix);
        let tips = model.tips(prefix);
        assert_eq!(frontier.tips(), tips, "{what}: tips of prefix {prefix}");
        assert_eq!(tips_of_prefix(store, prefix), tips, "{what}: oracle tips");
        let deepest = model.deepest(prefix);
        assert_eq!(
            frontier.deepest(),
            deepest,
            "{what}: deepest of prefix {prefix}"
        );
        assert_eq!(
            deepest_in_prefix(store, prefix),
            deepest,
            "{what}: oracle deepest"
        );
    }
    let deepest = model.deepest(len);
    assert_eq!(
        store.deepest(),
        deepest[0],
        "{what}: deepest, ties to the smallest id"
    );
    assert_eq!(store.max_depth(), model.depth[deepest[0].index()]);
    let edges: usize = model.parents.iter().map(Vec::len).sum();
    assert_eq!(store.edge_count(), edges, "{what}: edge count");
    for &a in &model.arrival {
        for t in [a, a.after(0.25)] {
            let before = model.arrival.iter().filter(|&&x| x < t).count().max(1);
            assert_eq!(store.prefix_at_time(t), before, "{what}: prefix at {t:?}");
        }
    }
}

/// The full view of a random history and a sparse subsequence of it
/// (genesis kept, so position 0 is still the root everyone sees).
fn views(rng: &mut ChaCha8Rng, mem: &AppendMemory) -> [MemoryView; 2] {
    let full = mem.read();
    let sparse = MemoryView::from_messages(
        full.iter()
            .filter(|m| m.is_genesis() || rng.gen_bool(0.7))
            .map(Arc::clone)
            .collect::<Vec<_>>(),
    );
    [full, sparse]
}

#[test]
fn pushed_and_from_view_stores_equal_the_model_on_forked_and_sparse_views() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xb10c);
    let mut pushed = BlockStore::new(); // one store, reset per view
    for case in 0..120 {
        let (n, len) = (rng.gen_range(1..=6), rng.gen_range(1..=60));
        let mem = random_forked(&mut rng, n, len);
        for (kind, view) in ["full", "sparse"].iter().zip(views(&mut rng, &mem)) {
            let model = Model::of(&view);
            let what = format!("case {case} {kind}");
            model.push_into(&mut pushed);
            check(&pushed, &model, &format!("{what} pushed"));
            let built = BlockStore::from_view(&view);
            check(&built, &model, &format!("{what} from_view"));
            assert_eq!(format!("{pushed:?}"), format!("{built:?}"), "{what}");
        }
    }
}

#[test]
fn matches_dag_index_on_random_history() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..20 {
        let mem = random_forked(&mut rng, 3, 40);
        let dag = DagIndex::new(&mem.read());
        let store = dag.store();
        assert_eq!(store.max_depth(), dag.max_depth());
        let mut whole = Frontier::default();
        whole.extend_to(store, store.len());
        assert_eq!(whole.tips(), dag.tip_ids());
        for pos in 0..dag.len() {
            assert_eq!(store.depth_of(pos), dag.depth_of(pos));
            assert_eq!(store.parents_of(pos), dag.parents_of(pos));
        }
    }
}

#[test]
fn max_depth_and_deepest_match_the_scanning_definition() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let model = Model::of(&random_forked(&mut rng, 4, 400).read());
    let mut s = BlockStore::new();
    for i in 1..model.author.len() {
        s.push(
            model.author[i].unwrap(),
            model.parents[i].iter().copied(),
            model.arrival[i],
        );
        let scan = (0..s.len()).map(|j| s.depth_of(j)).max();
        assert_eq!(Some(s.max_depth()), scan, "after append {i}");
        let first = (0..s.len()).find(|&j| Some(s.depth_of(j)) == scan);
        assert_eq!(
            Some(s.deepest().index()),
            first,
            "ties go to the smallest id"
        );
    }
}

#[test]
fn frontier_deepest_matches_the_scanning_definition() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let s = BlockStore::from_view(&random_forked(&mut rng, 4, 299).read());
    let mut frontier = Frontier::default();
    for prefix in [0, 1, 2, 17, 150, 300, 999] {
        frontier.extend_to(&s, prefix);
        let p = prefix.clamp(1, s.len());
        let max = (0..p).map(|j| s.depth_of(j)).max().unwrap();
        let scan: Vec<MsgId> = (0..p as u64)
            .map(MsgId)
            .filter(|&m| s.depth_of(m.index()) == max)
            .collect();
        assert_eq!(frontier.deepest(), scan, "prefix {prefix}");
    }
}

/// The next prefix of a monotone sequence over a store of length `len`:
/// the same one again, one or a few more blocks, the whole store, or past
/// its end (clamped).
fn next_prefix(rng: &mut ChaCha8Rng, prev: usize, len: usize) -> usize {
    match rng.gen_range(0..6) {
        0 => prev,
        1 => prev + 1,
        2 | 3 => prev + rng.gen_range(1..=5usize),
        4 => len,
        _ => len + rng.gen_range(1..=3usize),
    }
}

#[test]
fn frontier_matches_the_scans_on_growing_stores_and_monotone_prefixes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xf207);
    // One frontier per role, cleared and reused across cases as the trial
    // pool reuses them: a trailing view and the whole log.
    let (mut view, mut whole) = (Frontier::default(), Frontier::default());
    let mut store = BlockStore::new();
    for case in 0..150 {
        let (n, len) = (rng.gen_range(1..=6), rng.gen_range(1..=120));
        let mem = random_forked(&mut rng, n, len);
        for (kind, v) in ["full", "sparse"].iter().zip(views(&mut rng, &mem)) {
            let model = Model::of(&v);
            view.clear();
            whole.clear();
            store.reset();
            let mut prefix = 0;
            let mut i = 1;
            while i <= model.author.len() {
                // Grow the store by a few blocks past the view, so rows of
                // the view gain children beyond it between extensions.
                for _ in 0..rng.gen_range(0..=3) {
                    if i < model.author.len() {
                        let author = model.author[i].unwrap();
                        store.push(author, model.parents[i].iter().copied(), model.arrival[i]);
                    }
                    i += 1;
                }
                let next = next_prefix(&mut rng, prefix, store.len());
                prefix = next.min(store.len()).max(1);
                let what = format!("case {case} {kind}: prefix {next} of {}", store.len());
                view.extend_to(&store, next);
                assert_eq!(view.tips(), tips_of_prefix(&store, next), "{what}: tips");
                assert_eq!(
                    view.deepest(),
                    deepest_in_prefix(&store, next),
                    "{what}: deepest"
                );
                whole.extend_to(&store, store.len());
                assert_eq!(
                    whole.tips(),
                    tips_of_prefix(&store, store.len()),
                    "{what}: whole tips"
                );
                assert_eq!(
                    whole.deepest()[0],
                    store.deepest(),
                    "{what}: the whole log's first deepest is the store's"
                );
            }
            let mut fresh = Frontier::default();
            fresh.extend_to(&store, prefix);
            assert_eq!(
                format!("{view:?}"),
                format!("{fresh:?}"),
                "case {case} {kind}: a reused frontier equals a fresh one"
            );
        }
    }
}

#[test]
#[should_panic(expected = "only grows")]
fn a_frontier_never_shrinks() {
    let mut s = BlockStore::new();
    s.push(NodeId(0), [0], Time::new(1.0));
    let mut f = Frontier::default();
    f.extend_to(&s, 2);
    f.extend_to(&s, 1);
}

#[test]
fn a_reset_store_equals_a_fresh_one() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5e7);
    let mut used = BlockStore::new();
    for case in 0..20 {
        let len = rng.gen_range(1..=80);
        let mem = random_forked(&mut rng, 4, len);
        let model = Model::of(&mem.read());
        used.reset();
        assert_eq!(
            format!("{used:?}"),
            format!("{:?}", BlockStore::new()),
            "case {case}"
        );
        model.push_into(&mut used);
        assert_eq!(
            format!("{used:?}"),
            format!("{:?}", BlockStore::from_view(&mem.read()))
        );
    }
}

#[test]
fn clone_from_equals_clone_whatever_the_slot_held() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xc10e);
    for case in 0..20 {
        let len = rng.gen_range(5..=60);
        let src = BlockStore::from_view(&random_forked(&mut rng, 4, len).read());
        let want = format!("{:?}", src.clone());
        assert_eq!(want, format!("{src:?}"), "case {case}: clone");
        let slots = [
            (
                "longer",
                BlockStore::from_view(&random_forked(&mut rng, 5, len + 40).read()),
            ),
            (
                "shorter",
                BlockStore::from_view(&random_forked(&mut rng, 2, len / 3).read()),
            ),
            ("genesis-only", BlockStore::new()),
        ];
        for (held, mut slot) in slots {
            slot.clone_from(&src);
            assert_eq!(
                format!("{slot:?}"),
                want,
                "case {case}: slot held a {held} history"
            );
        }
    }
}
