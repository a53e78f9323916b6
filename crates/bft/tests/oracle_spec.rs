//! The finality criterion as a specification, and the shipped oracle
//! held to it.
//!
//! [`FinalityOracle`] keeps its verdict incrementally (vote vector,
//! per-height ancestor memo, stuck-row early-out, round thresholds in
//! place of per-pair lookups). The
//! rule it must implement is the from-scratch one below: at every
//! observe, rebuild the tally and the clique check from the
//! interpreter's public accessors alone. The suites feed both the same
//! seeded random DAGs — merge parents, same-round forks (equivocators
//! appear mid-stream), sparse global ids, shuffled ancestor-closed
//! orders, quorums small enough for two candidates to qualify — and
//! compare every observable after *every* block.

use am_bft::{DagInterpreter, FinalityOracle, FinalityView};
use am_core::{MsgId, GENESIS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};

/// Same mixer as `oracle.rs` (the digest is part of the contract).
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The from-scratch finality rule, over local interpretation ids.
struct Spec {
    quorum: usize,
    /// Local id → global id, in observation order (genesis first), the
    /// inverse map, and each block's parents as local ids.
    global: Vec<MsgId>,
    local: HashMap<MsgId, u32>,
    parents: Vec<Vec<u32>>,
    /// (author, round) slots taken, and who took one twice.
    slots: HashSet<(usize, u32)>,
    equivocators: HashSet<usize>,
    chain: Vec<u32>,
    digest: u64,
    conflict: bool,
    newly_final: Vec<MsgId>,
    /// Blocks in the closed past cone of the finalized head.
    cone: usize,
}

impl Spec {
    fn new(quorum: usize) -> Spec {
        Spec {
            quorum,
            global: vec![GENESIS],
            local: HashMap::from([(GENESIS, 0)]),
            parents: vec![Vec::new()],
            slots: HashSet::new(),
            equivocators: HashSet::new(),
            chain: Vec::new(),
            digest: 0,
            conflict: false,
            newly_final: Vec::new(),
            cone: 0,
        }
    }

    /// Called after the oracle interpreted `id`: re-derives the whole
    /// verdict, height by height, from the oracle's table `it` and the
    /// first-observed slots of its view.
    fn observe(
        &mut self,
        id: MsgId,
        author: usize,
        parents: &[MsgId],
        it: &DagInterpreter,
        view: &FinalityView,
    ) {
        let idx = self.global.len() as u32;
        self.global.push(id);
        self.local.insert(id, idx);
        self.parents
            .push(parents.iter().map(|p| self.local[p]).collect());
        if !self.slots.insert((author, it.round_of(idx))) {
            self.equivocators.insert(author);
        }
        let n = it.n();
        loop {
            let h = self.chain.len() as u32 + 1;
            // Tally the selected-chain ancestor at height h of every
            // eligible author's latest block, in author order.
            let voters: Vec<(usize, u32, u32)> = (0..n)
                .filter(|&a| !view.is_equivocator(a))
                .filter_map(|a| view.latest(a).map(|l| (a, l)))
                .filter(|&(_, l)| it.height_of(l) >= h)
                .map(|(a, l)| (a, l, it.ancestor_at(l, h)))
                .collect();
            let mut tally: Vec<(u32, usize)> = Vec::new();
            for &(_, _, c) in &voters {
                match tally.iter_mut().find(|e| e.0 == c) {
                    Some(e) => e.1 += 1,
                    None => tally.push((c, 1)),
                }
            }
            let Some(&(cand, _)) = tally.iter().find(|e| e.1 >= self.quorum) else {
                return;
            };
            let prev = self.chain.last().copied().unwrap_or(0);
            if it.ancestor_at(cand, h - 1) != prev {
                self.conflict = true;
                return;
            }
            let supporters: Vec<(usize, u32)> = voters
                .iter()
                .filter(|v| v.2 == cand)
                .map(|v| (v.0, v.1))
                .collect();
            // Clique: every supporter's latest block witnesses every
            // other supporter voting for the candidate.
            let clique = supporters.iter().all(|&(u, lu)| {
                supporters.iter().filter(|s| s.0 != u).all(|&(v, _)| {
                    let r = it.high_water(lu, v);
                    r != 0 && it.votes_for(view.block_at(v, r), cand)
                })
            });
            if !clique {
                return;
            }
            self.chain.push(cand);
            let a = it.author_of(cand).expect("non-genesis") as u64;
            self.digest = mix(self.digest, (a << 32) | it.round_of(cand) as u64);
            self.digest = mix(self.digest, self.global[cand as usize].0);
            self.newly_final.push(self.global[cand as usize]);
            // The finalized prefix: the head's closed past cone, genesis
            // excluded, by plain graph search.
            let mut seen = HashSet::from([0, cand]);
            let mut stack = vec![cand];
            while let Some(b) = stack.pop() {
                stack.extend(self.parents[b as usize].iter().filter(|&&p| seen.insert(p)));
            }
            self.cone = seen.len() - 1;
        }
    }

    fn chain_ids(&self) -> Vec<MsgId> {
        self.chain
            .iter()
            .map(|&l| self.global[l as usize])
            .collect()
    }
}

type Block = (MsgId, usize, Vec<MsgId>);

/// A seeded random block DAG over `n` authors with sparse global ids.
/// Honest appends extend a recent block and carry the author's own last
/// block (no round collision); with probability `fork` an append drops
/// the self-parent and builds on an old block instead, which re-uses one
/// of the author's rounds — an equivocation. `branchy` spreads the
/// selected parents over older blocks so that competing chains form.
fn random_dag(rng: &mut ChaCha8Rng, n: usize, len: usize, fork: f64, branchy: bool) -> Vec<Block> {
    let mut ids: Vec<MsgId> = vec![GENESIS];
    let mut last_own: Vec<MsgId> = vec![GENESIS; n];
    let mut blocks: Vec<Block> = Vec::new();
    let mut next_id = 0u64;
    for _ in 0..len {
        next_id += rng.gen_range(1..40u64);
        let id = MsgId(next_id);
        let author = rng.gen_range(0..n);
        let window = if branchy { 6 } else { 2 };
        let recent =
            |rng: &mut ChaCha8Rng| ids[ids.len() - 1 - rng.gen_range(0..window.min(ids.len()))];
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

/// A random ancestor-closed reordering of `blocks`: repeatedly a random
/// block whose parents are all out already.
fn shuffled_closed(rng: &mut ChaCha8Rng, blocks: &[Block]) -> Vec<Block> {
    let mut pending: Vec<Block> = blocks.to_vec();
    let mut seen = HashSet::from([GENESIS]);
    let mut out = Vec::with_capacity(blocks.len());
    while !pending.is_empty() {
        let ready: Vec<usize> = (0..pending.len())
            .filter(|&i| pending[i].2.iter().all(|p| seen.contains(p)))
            .collect();
        let b = pending.swap_remove(ready[rng.gen_range(0..ready.len())]);
        seen.insert(b.0);
        out.push(b);
    }
    out
}

/// Feeds `blocks` to a fresh oracle and to the spec, comparing every
/// observable after every block. Returns the oracle.
fn check_against_spec(n: usize, quorum: usize, blocks: &[Block], what: &str) -> FinalityOracle {
    let mut oracle = FinalityOracle::with_quorum(n, quorum);
    let mut spec = Spec::new(oracle.quorum());
    let mut drained = Vec::new();
    for (i, (id, author, parents)) in blocks.iter().enumerate() {
        oracle.observe(*id, *author, parents);
        spec.observe(*id, *author, parents, oracle.interpreter(), oracle.view());
        let at = format!("{what}, block {i}");
        assert_eq!(oracle.finalized_chain(), spec.chain_ids(), "{at}: chain");
        assert_eq!(oracle.finalized_digest(), spec.digest, "{at}: digest");
        assert_eq!(oracle.conflict_detected(), spec.conflict, "{at}: conflict");
        assert_eq!(
            oracle.equivocator_count(),
            spec.equivocators.len(),
            "{at}: equivocators"
        );
        assert_eq!(oracle.finalized_cone_blocks(), spec.cone, "{at}: cone");
        drained.clear();
        oracle.drain_newly_final(&mut drained);
        assert_eq!(drained, spec.newly_final, "{at}: newly final");
        spec.newly_final.clear();
    }
    let s = oracle.stats();
    assert_eq!(s.observes, blocks.len() as u64);
    assert_eq!(s.heights_advanced, oracle.finalized_height() as u64);
    assert!(
        s.early_outs + s.scans >= s.observes,
        "every observe scans or skips"
    );
    oracle
}

#[test]
fn oracle_matches_the_from_scratch_rule_on_random_dags() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5bec);
    let (mut cases, mut finalized, mut equivocated, mut skipped) = (0, 0, 0, 0u64);
    for &n in &[3usize, 4, 7, 12] {
        for case in 0..80 {
            let fork = [0.0, 0.02, 0.08][case % 3];
            let blocks = random_dag(&mut rng, n, 12 * n + 20, fork, case % 4 == 3);
            let order = if case % 2 == 0 {
                blocks
            } else {
                shuffled_closed(&mut rng, &blocks)
            };
            let o = check_against_spec(n, 2 * n / 3 + 1, &order, &format!("n {n} case {case}"));
            cases += 1;
            finalized += (o.finalized_height() > 0) as usize;
            equivocated += (o.equivocator_count() > 0) as usize;
            skipped += o.stats().early_outs;
        }
    }
    // The generator must exercise what the comparison is for.
    assert!(cases >= 300);
    assert!(
        finalized >= cases / 2,
        "only {finalized}/{cases} finalized anything"
    );
    assert!(
        equivocated >= cases / 4,
        "only {equivocated}/{cases} had an equivocator"
    );
    assert!(skipped > 0, "the early-out never fired");
}

#[test]
fn small_quorums_keep_the_author_order_tie_rule() {
    // q ≤ n/2: two candidates can both reach the quorum; the first in
    // author order must win, exactly as the from-scratch tally picks.
    let mut rng = ChaCha8Rng::seed_from_u64(0x71e);
    let (mut conflicts, mut finalized) = (0, 0);
    for &(n, q) in &[(4usize, 2usize), (7, 3), (7, 2), (12, 4), (3, 1)] {
        for case in 0..40 {
            let blocks = random_dag(&mut rng, n, 10 * n + 10, 0.03, true);
            let order = shuffled_closed(&mut rng, &blocks);
            let o = check_against_spec(n, q, &order, &format!("n {n} q {q} case {case}"));
            conflicts += o.conflict_detected() as usize;
            finalized += (o.finalized_height() > 0) as usize;
        }
    }
    assert!(finalized > 0);
    assert!(
        conflicts > 0,
        "competing branches under a minority quorum must conflict"
    );
}

#[test]
fn a_quorum_behind_a_conflicting_branch_is_flagged_and_stays_flagged() {
    // n = 4, q = 2. Authors 0 and 1 finalize x at height 1 while 2 and 3
    // build a rival branch from genesis. The votes of 0 and 1 come first
    // in author order and keep the rival out of the tally's first place
    // until both are caught equivocating; then {2, 3} is the only quorum,
    // behind a height-2 candidate whose parent is not x.
    let b = |id: u64, author: usize, parents: &[u64]| -> Block {
        (
            MsgId(id),
            author,
            parents.iter().map(|&p| MsgId(p)).collect(),
        )
    };
    let blocks = vec![
        b(1, 0, &[0]),       // x
        b(2, 1, &[1]),       // votes x, sees 0
        b(3, 0, &[2, 1]),    // sees 1's vote: {0, 1} clique → x final
        b(10, 2, &[0]),      // rival y at height 1
        b(11, 3, &[10]),     // rival z at height 2 on y
        b(12, 2, &[11, 10]), // 2 votes z, sees 3
        b(13, 3, &[12, 11]), // 3 votes z, sees 2
        b(20, 0, &[0]),      // 0 re-uses round 1: equivocator
        b(21, 1, &[0]),      // 1 re-uses round 1: equivocator
        b(30, 2, &[13, 12]), // more rival votes keep the flag up
    ];
    let o = check_against_spec(4, 2, &blocks, "conflict");
    assert_eq!(o.finalized_chain(), vec![MsgId(1)]);
    assert!(o.conflict_detected());
    assert_eq!(o.equivocator_count(), 2);
}

/// Everything an oracle exposes, for whole-state comparison.
fn observable(o: &FinalityOracle) -> (Vec<MsgId>, u64, bool, usize, usize, usize) {
    (
        o.finalized_chain(),
        o.finalized_digest(),
        o.conflict_detected(),
        o.equivocator_count(),
        o.finalized_cone_blocks(),
        o.blocks_observed(),
    )
}

#[test]
fn a_clone_taken_mid_stream_ends_where_the_original_does() {
    // `check_nonforking` clones a parent oracle per explored child. The
    // clone must carry the incremental state (votes, memo, stuck row) by
    // value: fed the same suffix it ends identical, and feeding it must
    // not move another clone.
    let mut rng = ChaCha8Rng::seed_from_u64(0xc10e);
    for &n in &[3usize, 4, 7, 12] {
        for case in 0..25 {
            let blocks = random_dag(&mut rng, n, 10 * n + 10, 0.03, case % 2 == 0);
            let mut whole = FinalityOracle::new(n);
            let mut clones: Vec<(usize, FinalityOracle)> = Vec::new();
            for (i, (id, author, parents)) in blocks.iter().enumerate() {
                if rng.gen_bool(0.15) {
                    clones.push((i, whole.clone()));
                }
                whole.observe(*id, *author, parents);
            }
            for (cut, mut clone) in clones {
                let at = format!("n {n} case {case} cut {cut}");
                let mut sibling = clone.clone();
                let before = (observable(&sibling), sibling.stats());
                for (id, author, parents) in &blocks[cut..] {
                    clone.observe(*id, *author, parents);
                }
                // Same state at the cut, same suffix: same end, same work.
                assert_eq!(observable(&clone), observable(&whole), "{at}");
                assert_eq!(clone.stats(), whole.stats(), "{at}: stats");
                // Feeding the clone did not move its sibling, which still
                // reaches the same end from its own copy of the state.
                assert_eq!((observable(&sibling), sibling.stats()), before, "{at}");
                for (id, author, parents) in &blocks[cut..] {
                    sibling.observe(*id, *author, parents);
                }
                assert_eq!(observable(&sibling), observable(&whole), "{at}: sibling");
            }
        }
    }
}
