//! Nonforking of the embedded finality layer, model-checked.
//!
//! The am-bft oracle claims an *invariant*, not a statistical tendency:
//! whatever order blocks are authored and observed in, and whatever
//! stale views Byzantine authors build on, the finalized chain only
//! ever grows, and any two observation schedules of the same history
//! finalize extension-ordered chains. The Monte-Carlo drivers sample
//! that claim; this module checks it *exhaustively* over a bounded
//! universe, in the spirit of the Section 2 explorer.
//!
//! The universe: `n` authors grow one block DAG. A correct author has
//! exactly one move per state — append on its full current view with a
//! self-parent (the honest rule of the protocol drivers). A Byzantine
//! author may append on **any** id-prefix of the history, without a
//! self-parent — the stale-prefix moves that manufacture equivocation
//! (two blocks by one author at the same round). Every interleaving up
//! to `max_blocks` appends is explored.
//!
//! At each reachable state the finality oracle replays the history and
//! three invariants are checked:
//!
//! 1. **No conflict** — the oracle never certifies two incompatible
//!    candidates ([`FinalityOracle::conflict_detected`] stays false).
//! 2. **Monotonicity** — along every edge, the child state's finalized
//!    chain extends the parent state's: observing more never retracts.
//! 3. **Cross-schedule agreement** — states holding the *same logical
//!    blocks* (identified structurally, so ids assigned by different
//!    interleavings don't matter) finalize pairwise extension-ordered
//!    chains, even when their watermarks differ.

use crate::search::{FpMap, FpSet};
use am_bft::FinalityOracle;
use am_core::{MsgId, GENESIS};
use std::ops::Range;

/// splitmix64-style mixer for structural block identities.
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One appended block of a history under exploration.
struct Block {
    author: usize,
    /// Where its parents sit in the DFS path's parent pool.
    parents: Range<usize>,
    depth: u32,
    /// Structural identity: a pure function of `(author, parent cids,
    /// duplicate index)` — equal across interleavings that assign
    /// different global ids to the same logical block.
    cid: u64,
}

/// Outcome of one exhaustive nonforking search.
#[derive(Clone, Debug)]
pub struct NonforkingReport {
    /// Distinct states (interleavings) visited.
    pub states: usize,
    /// Whether the state budget cut the search short (results are then
    /// lower bounds; the invariants still held on everything visited).
    pub truncated: bool,
    /// States in which the observer had finalized at least one block.
    pub finalizing_states: usize,
    /// States in which the observer had caught an equivocator.
    pub equivocating_states: usize,
    /// Deepest finalized chain seen anywhere.
    pub max_finalized: usize,
    /// The first invariant violation found, if any — `None` is the
    /// theorem (over this bounded universe).
    pub violation: Option<String>,
    /// Duplicate ordered histories pruned by the fingerprint cache
    /// (distinct Byzantine prefix choices that manufactured the very
    /// same block — the subtree is byte-identical, so it is cut).
    pub fingerprint_hits: u64,
    /// Oracle observations saved by carrying the finality oracle
    /// incrementally down the DFS instead of replaying every history
    /// from scratch.
    pub observes_saved: u64,
}

impl NonforkingReport {
    /// Publishes the search and reduction counters as am-obs aggregates.
    pub fn publish_obs(&self) {
        am_obs::counter("sched.nonforking.states").add(self.states as u64);
        am_obs::counter("sched.nonforking.finalizing_states").add(self.finalizing_states as u64);
        am_obs::counter("sched.nonforking.fingerprint_hits").add(self.fingerprint_hits);
        am_obs::counter("sched.nonforking.observes_saved").add(self.observes_saved);
    }
}

/// One distinct finalized chain of a block-set group, in
/// [`Search::chain_cids`]; a group's chains are linked in the order they
/// were first seen.
struct Chain {
    start: u32,
    len: u32,
    /// The group's next chain (`LAST` = none).
    next: u32,
}

/// End of a group's chain list.
const LAST: u32 = u32::MAX;

/// The DFS state. Everything here is sized by the path's depth or grows
/// geometrically, so a visited state allocates nothing once the first
/// path to each depth has warmed its buffers.
struct Search {
    n: usize,
    byz: Vec<bool>,
    max_blocks: usize,
    max_states: usize,
    report: NonforkingReport,
    /// The history on the DFS path, its blocks' parents in one pool
    /// truncated on pop.
    blocks: Vec<Block>,
    parents: Vec<MsgId>,
    /// `oracles[d]` has observed the first `d` blocks of the path. A
    /// visit refills its depth's slot from the one above and observes
    /// only the newest block, instead of replaying the whole history.
    oracles: Vec<FinalityOracle>,
    /// Per-state scratch: `view_parents`' child marks, the finalized
    /// chain as cids, the sorted block-set key.
    has_child: Vec<bool>,
    cids: Vec<u64>,
    set: Vec<u64>,
    /// Structural block-set key → (first, last) of its chain list: the
    /// distinct finalized chains (as cid sequences) seen at states
    /// holding exactly that set. A duplicate never changes the fork
    /// verdict or which peer a fork reports first, so it is not stored.
    groups: FpMap<u64, (u32, u32)>,
    chains: Vec<Chain>,
    chain_cids: Vec<u64>,
    /// Fingerprints of *ordered* histories already visited. Two lanes
    /// folded over the cid sequence.
    seen: FpSet<u128>,
}

/// Appends to `pool` the parent list an append on the prefix of the
/// first `p` blocks (plus genesis) uses, and returns where it went: the
/// deepest visible block (ties to the smallest id), the author's own last
/// block when `own` is given and visible, and every remaining visible
/// tip — the same rule the protocol drivers follow.
fn view_parents(
    blocks: &[Block],
    pool: &mut Vec<MsgId>,
    has_child: &mut Vec<bool>,
    p: usize,
    own: MsgId,
) -> Range<usize> {
    let mut best_d = 0u32;
    let mut sel = GENESIS;
    for (i, b) in blocks[..p].iter().enumerate() {
        if b.depth > best_d {
            best_d = b.depth;
            sel = MsgId(i as u64 + 1);
        }
    }
    has_child.clear();
    has_child.resize(p + 1, false);
    for b in &blocks[..p] {
        for par in &pool[b.parents.clone()] {
            has_child[par.index()] = true;
        }
    }
    let start = pool.len();
    pool.push(sel);
    if own != sel && own != GENESIS && own.index() <= p {
        pool.push(own);
    }
    for (idx, taken) in has_child.iter().enumerate() {
        let id = MsgId(idx as u64);
        if !taken && id != sel && id != own {
            pool.push(id);
        }
    }
    start..pool.len()
}

impl Search {
    fn fail(&mut self, why: String) {
        if self.report.violation.is_none() {
            self.report.violation = Some(why);
        }
    }

    /// Pushes a cid onto an ordered-history fingerprint (two independent
    /// splitmix lanes — the search's hash-compaction key).
    fn hist_push(fp: u128, cid: u64) -> u128 {
        let hi = mix((fp >> 64) as u64, cid);
        let lo = mix(
            fp as u64 ^ 0x5deb_8c2a_91ff_7a31,
            cid.wrapping_mul(0xff51_afd7_ed55_8ccd),
        );
        ((hi as u128) << 64) | lo as u128
    }

    /// DFS from the path in `blocks`, whose oracle is
    /// `oracles[blocks.len()]`; `hist_fp` is its ordered-history
    /// fingerprint.
    fn explore(&mut self, hist_fp: u128) {
        let len = self.blocks.len();
        if self.report.violation.is_some() || len >= self.max_blocks {
            return;
        }
        for node in 0..self.n {
            // A correct author's single move uses the full view with a
            // self-parent; a Byzantine author picks any prefix, dropping
            // the self-parent (the equivocation device).
            let prefixes = if self.byz[node] { 0..=len } else { len..=len };
            for p in prefixes {
                if self.report.states >= self.max_states {
                    self.report.truncated = true;
                    return;
                }
                let blocks = &self.blocks;
                let own = if self.byz[node] {
                    GENESIS
                } else {
                    blocks
                        .iter()
                        .rposition(|b| b.author == node)
                        .map(|i| MsgId(i as u64 + 1))
                        .unwrap_or(GENESIS)
                };
                let parents = view_parents(blocks, &mut self.parents, &mut self.has_child, p, own);
                let of = |pa: &MsgId| pa.index().checked_sub(1).map(|i| &blocks[i]);
                let new_parents = &self.parents[parents.clone()];
                let depth = new_parents
                    .iter()
                    .map(|pa| of(pa).map_or(1, |b| b.depth + 1))
                    .max()
                    .unwrap();
                let base = new_parents
                    .iter()
                    .map(|pa| of(pa).map_or(0, |b| b.cid))
                    .fold(mix(0, node as u64 + 1), mix);
                // Structural twins (same author, same parents — i.e.
                // equivocation duplicates) get distinct cids via a
                // duplicate index, so chains over them stay comparable.
                let mut twin = 0u64;
                let mut cid = mix(base, twin);
                while blocks.iter().any(|b| b.cid == cid) {
                    twin += 1;
                    cid = mix(base, twin);
                }
                let child_fp = Search::hist_push(hist_fp, cid);
                // Identical ordered histories have identical oracle
                // states and identical subtrees — cut them. Under the
                // current move rule every move extends the parent set
                // with a fresh block, so this fires only if a future
                // universe (or a cid collision) ever manufactures a
                // duplicate; it is a guard whose hit count *measures*
                // that risk (DESIGN.md §14).
                if !self.seen.insert(child_fp) {
                    self.report.fingerprint_hits += 1;
                    self.parents.truncate(parents.start);
                    continue;
                }
                self.blocks.push(Block {
                    author: node,
                    parents,
                    depth,
                    cid,
                });
                self.visit(child_fp);
                let popped = self
                    .blocks
                    .pop()
                    .expect("visit leaves the path as it found it");
                self.parents.truncate(popped.parents.start);
                if self.report.violation.is_some() {
                    return;
                }
            }
        }
    }

    fn visit(&mut self, hist_fp: u128) {
        self.report.states += 1;
        let d = self.blocks.len();
        let (above, here) = self.oracles.split_at_mut(d);
        let (parent, oracle) = (&above[d - 1], &mut here[0]);
        oracle.clone_from(parent);
        let last = self
            .blocks
            .last()
            .expect("visit is only called post-append");
        oracle.observe(
            MsgId(d as u64),
            last.author,
            &self.parents[last.parents.clone()],
        );
        self.report.observes_saved += d as u64 - 1;
        if oracle.conflict_detected() {
            self.fail(format!("conflicting quorum certified after {d} blocks"));
            return;
        }
        if oracle.equivocator_count() > 0 {
            self.report.equivocating_states += 1;
        }
        // Ids are dense and observed in path order, so the table ids the
        // views hold are the path's global ids.
        let (parent, oracle) = (&self.oracles[d - 1], &self.oracles[d]);
        let (parent_chain, chain) = (
            parent.view().finalized_chain(),
            oracle.view().finalized_chain(),
        );
        debug_assert!(chain
            .iter()
            .all(|&l| oracle.interpreter().id_of(l) == MsgId(l.into())));
        if chain.len() > 1 {
            self.report.finalizing_states += 1;
            self.report.max_finalized = self.report.max_finalized.max(chain.len() - 1);
        }
        // Monotonicity: the child's chain extends the parent's.
        if !chain.starts_with(parent_chain) {
            let ids = |c: &[u32]| c.iter().map(|&l| MsgId(l.into())).collect::<Vec<_>>();
            let why = format!(
                "finality retracted: {:?} -> {:?} after {d} blocks",
                ids(parent_chain),
                ids(chain)
            );
            self.fail(why);
            return;
        }
        // Cross-schedule agreement: same logical block set, extension-
        // ordered chains (watermarks may differ; prefixes may not).
        self.cids.clear();
        self.cids
            .extend(chain.iter().map(|&l| self.blocks[l as usize - 1].cid));
        self.set.clear();
        self.set.extend(self.blocks.iter().map(|b| b.cid));
        self.set.sort_unstable();
        let key = self
            .set
            .iter()
            .fold(0x006e_6f6e_666f_726b_u64, |h, &c| mix(h, c));
        let group = self.groups.entry(key).or_insert((LAST, LAST));
        let (cids, mut at, mut dup) = (&self.cids[..], group.0, false);
        while at != LAST {
            let peer = &self.chains[at as usize];
            let peer_cids = &self.chain_cids[peer.start as usize..][..peer.len as usize];
            let m = peer_cids.len().min(cids.len());
            if peer_cids[..m] != cids[..m] {
                let why = format!("two schedules of one history fork: {peer_cids:?} vs {cids:?}");
                self.fail(why);
                return;
            }
            // Extension-ordered, so equal exactly when equally long.
            dup |= peer_cids.len() == cids.len();
            at = peer.next;
        }
        if !dup {
            let idx = self.chains.len() as u32;
            self.chains.push(Chain {
                start: self.chain_cids.len() as u32,
                len: cids.len() as u32,
                next: LAST,
            });
            self.chain_cids.extend_from_slice(cids);
            match *group {
                (LAST, _) => *group = (idx, idx),
                (_, tail) => {
                    self.chains[tail as usize].next = idx;
                    group.1 = idx;
                }
            }
        }
        self.explore(hist_fp);
    }
}

/// Exhaustively explores every interleaving of up to `max_blocks`
/// appends by `n` authors (those in `byz` using arbitrary stale-prefix
/// views without self-parents) and checks the nonforking invariants at
/// every reachable state. `max_states` bounds the search; hitting it
/// sets [`NonforkingReport::truncated`] rather than failing.
///
/// The finality oracle is carried incrementally down the DFS, one pooled
/// oracle per depth, and ordered histories are fingerprint-deduped; the replay-every-state search it
/// must agree with counter for counter is the spec in
/// `tests/reduced_equivalence.rs`. Reduction counters are published
/// through am-obs.
pub fn check_nonforking(
    n: usize,
    byz: &[usize],
    max_blocks: usize,
    max_states: usize,
) -> NonforkingReport {
    let mut byz_mask = vec![false; n];
    for &b in byz {
        byz_mask[b] = true;
    }
    let mut search = Search {
        n,
        byz: byz_mask,
        max_blocks,
        max_states,
        report: NonforkingReport {
            states: 0,
            truncated: false,
            finalizing_states: 0,
            equivocating_states: 0,
            max_finalized: 0,
            violation: None,
            fingerprint_hits: 0,
            observes_saved: 0,
        },
        blocks: Vec::new(),
        parents: Vec::new(),
        oracles: vec![FinalityOracle::new(n); max_blocks + 1],
        has_child: Vec::new(),
        cids: Vec::new(),
        set: Vec::new(),
        groups: FpMap::default(),
        chains: Vec::new(),
        chain_cids: Vec::new(),
        seen: FpSet::default(),
    };
    search.explore(0x006e_6f6e_666f_726b_u128);
    search.report.publish_obs();
    search.report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_histories_finalize_and_never_fork() {
        let rep = check_nonforking(3, &[], 6, 100_000);
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
        assert!(!rep.truncated);
        assert!(rep.finalizing_states > 0, "nothing finalized: {rep:?}");
        assert_eq!(rep.equivocating_states, 0, "honest authors can't collide");
        assert!(rep.max_finalized >= 1);
    }

    #[test]
    fn stale_prefix_byzantine_equivocates_but_never_forks() {
        // Author 2 may build on any stale prefix without a self-parent:
        // the search reaches states where it equivocates, states where
        // the two correct authors finalized first, and every interleaving
        // between — none may retract or fork finality.
        let rep = check_nonforking(3, &[2], 6, 400_000);
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
        assert!(!rep.truncated, "raise the budget: {} states", rep.states);
        assert!(rep.equivocating_states > 0, "no equivocation reached");
        assert!(rep.finalizing_states > 0, "no finality reached");
    }

    #[test]
    fn two_byzantine_authors_cannot_fork_either() {
        // Beyond the n = 3 tolerance (quorum 3 needs every author):
        // finality may become unreachable, forking must stay impossible.
        let rep = check_nonforking(3, &[1, 2], 4, 400_000);
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
        assert!(!rep.truncated);
    }

    #[test]
    fn reduced_search_is_a_drop_in_for_naive() {
        // The incremental oracle must be *observationally identical* to
        // replay-from-scratch: every counter and verdict equal. The
        // literals are what the replay-every-state, no-pruning search
        // returned at 38356ab (the last commit to carry it, where the two
        // were asserted equal field for field); the same comparison runs
        // against a live from-scratch search in
        // `tests/reduced_equivalence.rs`. (The history fingerprint cache
        // is a guard, not a reduction, under the current move rule — see
        // DESIGN.md §14 — so state counts match exactly.)
        for (byz, states, equivocating) in [(&[][..], 363, 0), (&[2][..], 2955, 2044)] {
            let fast = check_nonforking(3, byz, 5, 400_000);
            assert!(!fast.truncated);
            assert_eq!(fast.violation, None, "byz {byz:?}");
            assert_eq!(fast.states, states, "byz {byz:?}");
            assert_eq!(fast.max_finalized, 0, "byz {byz:?}");
            assert_eq!(fast.finalizing_states, 0, "byz {byz:?}");
            assert_eq!(fast.equivocating_states, equivocating, "byz {byz:?}");
            assert_eq!(fast.fingerprint_hits, 0, "the guard must not prune");
            assert!(
                fast.observes_saved > fast.states as u64,
                "incremental oracles must save more than one observe per state"
            );
        }
    }

    #[test]
    fn state_budget_truncates_gracefully() {
        let rep = check_nonforking(3, &[2], 6, 500);
        assert!(rep.truncated);
        assert!(rep.states <= 500);
        assert!(rep.violation.is_none());
    }

    #[test]
    fn view_parents_selects_deepest_and_tips() {
        // genesis <- b1 <- b2, plus b3 off genesis: full view selects b2
        // (deepest), keeps b3 as a tip.
        let block = |author, parents, depth, cid| Block {
            author,
            parents,
            depth,
            cid,
        };
        let blocks = [
            block(0, 0..1, 1, 1),
            block(1, 1..2, 2, 2),
            block(2, 2..3, 1, 3),
        ];
        let mut pool = vec![GENESIS, MsgId(1), GENESIS];
        let mut has_child = Vec::new();
        let ps = view_parents(&blocks, &mut pool, &mut has_child, 3, GENESIS);
        assert_eq!(pool[ps.clone()], [MsgId(2), MsgId(3)]);
        // Self-parent joins when it isn't already the selection; the list
        // goes after the pool's end, whatever is there.
        let ps2 = view_parents(&blocks, &mut pool, &mut has_child, 3, MsgId(1));
        assert_eq!(ps2.start, ps.end);
        assert_eq!(pool[ps2], [MsgId(2), MsgId(1), MsgId(3)]);
    }
}
