//! The DAG → protocol-message interpreter: the order-independent block
//! table.
//!
//! Schett & Danezis observe that a block DAG already *is* the message
//! history of a BFT protocol: every block an author appends doubles as a
//! protocol message, its parent references are the justification (the
//! author vouches for having seen the referenced past cone), and the
//! author's position in its own chain of blocks is the round number. No
//! separate vote traffic exists — agreement rounds are read back out of
//! the append/gossip machinery the Section 5 protocols already run on.
//!
//! Their second observation is what makes the reading shareable: it is a
//! pure function of the DAG. Everything [`DagInterpreter`] records about a
//! block depends only on the block's closed past cone, and every
//! ancestor-closed view that holds the block holds that cone — so one
//! table serves every observer of a trial, whatever order each observer
//! admitted the blocks in. Per block, O(parents·n) on push:
//!
//! * **round** — the block's 1-based sequence number within its author's
//!   own blocks *as witnessed by its past cone* (an author that builds on
//!   a stale prefix of its own history re-uses a round — equivocation);
//! * **high-water visibility** — for each block `b` and author `a`, the
//!   highest round of `a` present in `b`'s closed past cone (the
//!   justification weight the finality rule quorum-checks);
//! * **selected chain** — `parents[0]` is the block's explicit vote: the
//!   chain tip its author endorses. Chains are trees, and a jump-pointer
//!   (binary-lifting) ancestor structure answers "does block `b` vote for
//!   `x`?" in O(log height);
//! * **role** — each block is classified as the proposal, vote, or echo
//!   message of the embedded protocol (rotating proposer slots by chain
//!   height; multi-parent merges act as echoes relaying concurrent
//!   messages);
//! * **parents**, **author** and **arrival** in a [`BlockStore`] — the same
//!   columns every simulation's DAG lives in, so a BFT driver reads depth,
//!   prefix tips and append times off the table's store — and the **id**
//!   the caller knows the block by.
//!
//! What depends on *observation order* — which block an observer saw first
//! at an (author, round) slot, hence who it has caught equivocating, its
//! votes and its finalized prefix — is one observer's
//! [`FinalityView`](crate::FinalityView) over this table.
//!
//! Indices are dense table ids in push order (genesis = 0): the store's
//! ids.

use am_core::{BlockStore, MsgId, NodeId, Time};

/// Sentinel for "no block" / "no author" in the packed index vectors.
pub(crate) const NONE: u32 = u32::MAX;

/// The protocol message a block carries under the embedded reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The rotating slot leader's block for its chain height
    /// (`height mod n == author`): it proposes the next chain extension.
    Proposal,
    /// A single-parent extension by a non-leader: a vote for its selected
    /// chain (every ancestor of `parents[0]`, implicitly).
    Vote,
    /// A multi-parent merge: it acknowledges and relays concurrent
    /// messages from other authors (the echo broadcast of the embedded
    /// protocol) while still voting through `parents[0]`.
    Echo,
}

/// Incremental interpretation of a growing block DAG as BFT messages —
/// the order-independent half, shared by every observer of the DAG.
///
/// ```
/// use am_bft::DagInterpreter;
/// let mut it = DagInterpreter::new(3);
/// let a = it.push(0, &[0]); // author 0 builds on genesis
/// let b = it.push(1, &[a]); // author 1 votes for a's block
/// assert_eq!(it.round_of(b), 1);
/// assert_eq!(it.height_of(b), 2);
/// assert!(it.votes_for(b, a));
/// assert_eq!(it.parents_of(b), &[a]);
/// ```
#[derive(Debug)]
pub struct DagInterpreter {
    n: usize,
    /// The caller's id per block (genesis `MsgId(0)`).
    id: Vec<u64>,
    /// Author, parents and arrival per block, as pushed.
    store: BlockStore,
    /// 1-based own-sequence round per block (genesis 0).
    round: Vec<u32>,
    /// Selected-parent chain height (genesis 0).
    height: Vec<u32>,
    /// Selected parent = `parents[0]` (genesis points at itself).
    sel: Vec<u32>,
    /// Level-ancestor jump pointer over the selected-parent tree.
    jump: Vec<u32>,
    /// Per block: for each author, the max round present in the closed
    /// past cone (0 = none). The justification high-water vectors, flat
    /// with stride `n` (one allocation, so a clone is one memcpy).
    hw: Vec<u32>,
}

impl Default for DagInterpreter {
    /// A genesis-only interpreter over one author (a slot to
    /// [`reset`](DagInterpreter::reset) before use).
    fn default() -> DagInterpreter {
        DagInterpreter::new(1)
    }
}

impl Clone for DagInterpreter {
    fn clone(&self) -> DagInterpreter {
        let mut it = DagInterpreter::empty();
        it.clone_from(self);
        it
    }

    /// Copies `src` into this table's buffers, keeping their capacity.
    fn clone_from(&mut self, src: &DagInterpreter) {
        let DagInterpreter {
            n,
            id,
            store,
            round,
            height,
            sel,
            jump,
            hw,
        } = src;
        self.n = *n;
        self.id.clone_from(id);
        self.store.clone_from(store);
        self.round.clone_from(round);
        self.height.clone_from(height);
        self.sel.clone_from(sel);
        self.jump.clone_from(jump);
        self.hw.clone_from(hw);
    }
}

impl DagInterpreter {
    /// A fresh interpreter over `n` authors, holding only genesis.
    pub fn new(n: usize) -> DagInterpreter {
        let mut it = DagInterpreter::empty();
        it.reset(n);
        it
    }

    /// No blocks, no authors, no buffers: [`reset`](DagInterpreter::reset)
    /// or `clone_from` makes it a table.
    fn empty() -> DagInterpreter {
        DagInterpreter {
            n: 0,
            id: Vec::new(),
            store: BlockStore::default(),
            round: Vec::new(),
            height: Vec::new(),
            sel: Vec::new(),
            jump: Vec::new(),
            hw: Vec::new(),
        }
    }

    /// Back to the genesis-only state of [`new`](DagInterpreter::new) over
    /// `n` authors, keeping every buffer's capacity.
    pub fn reset(&mut self, n: usize) {
        assert!(n >= 1, "need at least one author");
        self.n = n;
        self.id.clear();
        self.id.push(0);
        self.store.reset();
        for col in [
            &mut self.round,
            &mut self.height,
            &mut self.sel,
            &mut self.jump,
        ] {
            col.clear();
            col.push(0);
        }
        self.hw.clear();
        self.hw.resize(n, 0);
    }

    /// Number of blocks interpreted (genesis included).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether only genesis is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Number of authors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Interprets the next block: `parents` are prior table ids,
    /// `parents[0]` is the selected chain tip (the vote). Returns the
    /// block's table id, which is also the id it is known by. O(parents · n).
    pub fn push(&mut self, author: usize, parents: &[u32]) -> u32 {
        let id = MsgId(self.len() as u64);
        self.push_as(id, author, parents.iter().copied(), Time::ZERO)
    }

    /// [`push`](DagInterpreter::push) for a block the caller knows as `id`
    /// (any id space; [`id_of`](DagInterpreter::id_of) returns it) that
    /// arrived at `at` (non-decreasing across pushes; the store keeps it).
    pub fn push_as(
        &mut self,
        id: MsgId,
        author: usize,
        parents: impl IntoIterator<Item = u32>,
        at: Time,
    ) -> u32 {
        assert!(author < self.n, "author out of range");
        let idx = self.store.push(NodeId(author as u32), parents, at).0 as u32;
        let parents = self.store.parents_of(idx as usize);
        assert!(!parents.is_empty(), "blocks reference at least genesis");

        // Justification high water: elementwise max over parents, then
        // the block itself advances its author's entry by one round.
        let n = self.n;
        let base = self.hw.len();
        let row = |b: u32| b as usize * n..(b as usize + 1) * n;
        self.hw.extend_from_within(row(parents[0]));
        let (old, new) = self.hw.split_at_mut(base);
        for &p in &parents[1..] {
            for (h, &ph) in new.iter_mut().zip(&old[row(p)]) {
                *h = (*h).max(ph);
            }
        }
        let r = self.hw[base + author] + 1;
        self.hw[base + author] = r;

        let sel = parents[0];
        let height = self.height[sel as usize] + 1;
        // Jump pointer: point at jump[jump[sel]] when the two hops below
        // span equal height gaps (the classic O(1)-space level-ancestor
        // scheme), else at the parent.
        let jp = self.jump[sel as usize];
        let jj = self.jump[jp as usize];
        let jump = if self.height[sel as usize] + self.height[jj as usize]
            == 2 * self.height[jp as usize]
        {
            jj
        } else {
            sel
        };

        self.id.push(id.0);
        self.round.push(r);
        self.height.push(height);
        self.sel.push(sel);
        self.jump.push(jump);
        idx
    }

    /// The selected-chain ancestor of `v` at chain height `h` (requires
    /// `height_of(v) >= h`). O(log height) via the jump pointers.
    pub fn ancestor_at(&self, mut v: u32, h: u32) -> u32 {
        debug_assert!(self.height[v as usize] >= h, "no ancestor above the block");
        while self.height[v as usize] > h {
            v = if self.height[self.jump[v as usize] as usize] >= h {
                self.jump[v as usize]
            } else {
                self.sel[v as usize]
            };
        }
        v
    }

    /// Whether block `b`'s selected chain contains `x` — `b` (transitively)
    /// votes for `x`.
    pub fn votes_for(&self, b: u32, x: u32) -> bool {
        self.height[b as usize] >= self.height[x as usize]
            && self.ancestor_at(b, self.height[x as usize]) == x
    }

    /// The embedded protocol message the block carries.
    pub fn role_of(&self, b: u32) -> Role {
        let Some(author) = self.author_of(b) else {
            return Role::Proposal; // genesis proposes height 0
        };
        if self.height[b as usize] as usize % self.n == author {
            Role::Proposal
        } else if self.parents_of(b).len() >= 2 {
            Role::Echo
        } else {
            Role::Vote
        }
    }

    /// Author of a block (`None` for genesis).
    pub fn author_of(&self, b: u32) -> Option<usize> {
        self.store.author_of(b as usize).map(NodeId::index)
    }

    /// 1-based own-sequence round of a block (genesis 0).
    pub fn round_of(&self, b: u32) -> u32 {
        self.round[b as usize]
    }

    /// Selected-parent chain height of a block (genesis 0).
    pub fn height_of(&self, b: u32) -> u32 {
        self.height[b as usize]
    }

    /// The block's selected parent, `parents[0]` (genesis is its own).
    pub fn selected_parent(&self, b: u32) -> u32 {
        self.sel[b as usize]
    }

    /// The block's parents as table ids, in the order they were pushed
    /// (genesis has none).
    pub fn parents_of(&self, b: u32) -> &[u32] {
        self.store.parents_of(b as usize)
    }

    /// The interpreted DAG itself: parents, authors, depths, prefix tips
    /// and arrival times, under table ids.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The id the caller pushed the block under (`MsgId(0)` for genesis).
    pub fn id_of(&self, b: u32) -> MsgId {
        MsgId(self.id[b as usize])
    }

    /// Highest round of `author` witnessed inside `b`'s closed past cone
    /// (0 = none).
    pub fn high_water(&self, b: u32, author: usize) -> u32 {
        self.high_water_row(b)[author]
    }

    /// [`high_water`](DagInterpreter::high_water) for every author.
    pub fn high_water_row(&self, b: u32) -> &[u32] {
        &self.hw[b as usize * self.n..(b as usize + 1) * self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FinalityView;
    use rand::{Rng, SeedableRng};

    /// One observer that saw every block of `it` in table order.
    fn observed(it: &DagInterpreter) -> FinalityView {
        let mut view = FinalityView::new(it.n());
        for b in 1..it.len() as u32 {
            view.observe(it, b);
        }
        view
    }

    #[test]
    fn chain_rounds_heights_and_votes() {
        let mut it = DagInterpreter::new(2);
        let mut tip = 0u32;
        for i in 0..10u32 {
            tip = it.push((i % 2) as usize, &[tip]);
            assert_eq!(it.height_of(tip), i + 1);
            assert_eq!(it.round_of(tip), i / 2 + 1);
        }
        // Every block votes for every selected ancestor.
        for h in 0..=10u32 {
            let anc = it.ancestor_at(tip, h);
            assert_eq!(it.height_of(anc), h);
            assert!(it.votes_for(tip, anc));
        }
        assert!(!it.votes_for(5, tip), "votes never point forward");
        assert_eq!(observed(&it).equivocator_count(), 0);
    }

    #[test]
    fn high_water_tracks_the_cone() {
        let mut it = DagInterpreter::new(3);
        let a1 = it.push(0, &[0]);
        let b1 = it.push(1, &[0]); // concurrent with a1
        let a2 = it.push(0, &[a1, b1]); // merges both
        assert_eq!(it.high_water(a1, 1), 0, "a1 has not seen author 1");
        assert_eq!(it.high_water(a2, 0), 2);
        assert_eq!(it.high_water(a2, 1), 1);
        assert_eq!(it.high_water(a2, 2), 0);
        assert_eq!(observed(&it).block_at(1, 1), b1);
    }

    #[test]
    fn stale_prefix_reuse_is_equivocation() {
        let mut it = DagInterpreter::new(2);
        let a1 = it.push(0, &[0]);
        let _a2 = it.push(0, &[a1]);
        assert_eq!(observed(&it).equivocator_count(), 0);
        // Author 0 builds on genesis again, pretending a1 never happened:
        // round 1 collides with a1.
        let fork = it.push(0, &[0]);
        assert_eq!(it.round_of(fork), 1);
        let view = observed(&it);
        assert!(view.is_equivocator(0));
        assert!(!view.is_equivocator(1));
        assert_eq!(view.equivocator_count(), 1);
        // latest stays the first-observed top-round block.
        assert_eq!(view.latest(0), Some(2));
    }

    #[test]
    fn roles_follow_slots_and_merges() {
        let mut it = DagInterpreter::new(3);
        let b1 = it.push(1, &[0]); // height 1, slot 1 → proposal
        assert_eq!(it.role_of(b1), Role::Proposal);
        let v = it.push(0, &[b1]); // height 2, slot 2 ≠ 0 → vote
        assert_eq!(it.role_of(v), Role::Vote);
        let c = it.push(1, &[0]); // height 1 again (same author forks: echoes aside)
        let e = it.push(0, &[v, c]); // height 3, slot 0 = 0 → proposal wins over echo
        assert_eq!(it.role_of(e), Role::Proposal);
        let e2 = it.push(2, &[e, c]); // height 4, slot 1 ≠ 2, two parents → echo
        assert_eq!(it.role_of(e2), Role::Echo);
        assert_eq!(it.role_of(0), Role::Proposal, "genesis proposes height 0");
    }

    #[test]
    fn jump_ancestors_match_naive_walk_on_random_trees() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for _ in 0..20 {
            let mut it = DagInterpreter::new(4);
            let mut ids: Vec<u32> = vec![0];
            for _ in 0..200 {
                let sel = ids[rng.gen_range(0..ids.len())];
                let author = rng.gen_range(0..4);
                let mut parents = vec![sel];
                if rng.gen_bool(0.3) {
                    parents.push(ids[rng.gen_range(0..ids.len())]);
                }
                ids.push(it.push(author, &parents));
            }
            for _ in 0..100 {
                let v = ids[rng.gen_range(0..ids.len())];
                let h = rng.gen_range(0..=it.height_of(v));
                // Naive: walk sel pointers down to height h.
                let mut w = v;
                while it.height_of(w) > h {
                    w = it.sel[w as usize];
                }
                assert_eq!(it.ancestor_at(v, h), w);
            }
        }
    }
}
