//! The finality oracle: one observer of a DAG it interprets itself.
//!
//! [`FinalityOracle`] is the self-contained form of the finality layer
//! for callers that feed one observer blocks under their own ids — the
//! model checker, the spec suites, the ledger lanes. It owns one
//! [`DagInterpreter`] table, one [`FinalityView`] over it, and the remap
//! from the caller's (possibly sparse) ids to table ids; the finality
//! rule itself lives in the view (see [`crate::view`] for the rule and
//! its incremental form). Drivers with many observers of one DAG share
//! one table among many views instead.

use crate::interpret::{DagInterpreter, Role, NONE};
use crate::view::{default_quorum, FinalityView, OracleStats};
use am_core::{MsgId, Time};

/// Deterministic BFT finality over an observed block DAG.
///
/// Feed every block exactly once via [`observe`](FinalityOracle::observe),
/// parents first (any ancestor-closed order works — per-node oracles feed
/// blocks in their own admission order). Global ids may have gaps — the
/// oracle remaps them to table ids — but the remap is a `Vec` indexed by
/// global id, so memory is O(largest id observed).
///
/// ```
/// use am_bft::FinalityOracle;
/// use am_core::{MsgId, Time};
/// let mut o = FinalityOracle::new(3); // quorum 3
/// let mut tip = MsgId(0);
/// for i in 1..=8u64 {
///     let id = MsgId(i);
///     o.observe(id, (i % 3) as usize, &[tip]);
///     tip = id;
/// }
/// // All three authors vote and see each other's votes: the prefix
/// // behind the mutual-visibility frontier is final.
/// assert!(o.finalized_height() >= 1);
/// assert!(o.is_final(MsgId(1)));
/// assert!(!o.conflict_detected());
/// ```
#[derive(Debug)]
pub struct FinalityOracle {
    table: DagInterpreter,
    view: FinalityView,
    /// Global id index → table id (`NONE` = unobserved).
    local_of: Vec<u32>,
}

impl Clone for FinalityOracle {
    fn clone(&self) -> FinalityOracle {
        FinalityOracle {
            table: self.table.clone(),
            view: self.view.clone(),
            local_of: self.local_of.clone(),
        }
    }

    /// Copies `src` into this oracle's buffers, keeping their capacity:
    /// a pooled oracle refilled from another allocates only where `src`
    /// outgrew it.
    fn clone_from(&mut self, src: &FinalityOracle) {
        let FinalityOracle {
            table,
            view,
            local_of,
        } = src;
        self.table.clone_from(table);
        self.view.clone_from(view);
        self.local_of.clone_from(local_of);
    }
}

impl FinalityOracle {
    /// An oracle over `n` authors with the default quorum `⌊2n/3⌋ + 1`.
    pub fn new(n: usize) -> FinalityOracle {
        FinalityOracle::with_quorum(n, default_quorum(n))
    }

    /// An oracle with an explicit quorum (clamped to `1..=n`).
    pub fn with_quorum(n: usize, quorum: usize) -> FinalityOracle {
        FinalityOracle {
            table: DagInterpreter::new(n),
            view: FinalityView::with_quorum(n, quorum),
            local_of: vec![0],
        }
    }

    /// The quorum size in force.
    pub fn quorum(&self) -> usize {
        self.view.quorum()
    }

    /// Number of blocks observed (genesis included).
    pub fn blocks_observed(&self) -> usize {
        self.table.len()
    }

    /// Table id of an observed global id.
    fn local(&self, id: MsgId) -> Option<u32> {
        self.local_of
            .get(id.index())
            .copied()
            .filter(|&l| l != NONE)
    }

    /// Observes one appended block: `id` is its global id (any sparse
    /// id space; genesis is pre-observed as `MsgId(0)`), `parents` must
    /// all have been observed, `parents[0]` is the selected chain tip.
    /// Advances the finality watermark as far as the new evidence allows.
    pub fn observe(&mut self, id: MsgId, author: usize, parents: &[MsgId]) {
        assert!(self.local(id).is_none(), "block observed twice");
        let local_of = &self.local_of;
        let idx = self.table.push_as(
            id,
            author,
            parents.iter().map(|p| {
                let l = local_of.get(p.index()).copied().unwrap_or(NONE);
                assert!(l != NONE, "parents must be observed before their child");
                l
            }),
            Time::ZERO,
        );
        let gi = id.index();
        if gi >= self.local_of.len() {
            self.local_of.resize(gi + 1, NONE);
        }
        self.local_of[gi] = idx;
        self.view.observe(&self.table, idx);
    }

    /// The work counters so far.
    pub fn stats(&self) -> OracleStats {
        self.view.stats()
    }

    /// Height of the finalized chain (number of finalized non-genesis
    /// chain blocks). Monotone.
    pub fn finalized_height(&self) -> usize {
        self.view.finalized_height()
    }

    /// Global id of the highest finalized chain block (genesis if none).
    pub fn finalized_head(&self) -> MsgId {
        self.table.id_of(self.view.finalized_head())
    }

    /// Whether the block has been fed to [`observe`](FinalityOracle::observe)
    /// (genesis counts as observed).
    pub fn is_observed(&self, id: MsgId) -> bool {
        self.local(id).is_some()
    }

    /// Whether the block is final: inside the closed past cone of the
    /// finalized head (its position in every future linearization is
    /// fixed). Genesis is trivially final; unobserved ids are not final.
    pub fn is_final(&self, id: MsgId) -> bool {
        self.local(id).is_some_and(|l| self.view.is_final(l))
    }

    /// Rolling digest over the finalized chain, mixed in height order
    /// from (author, round, global id) — O(new tail) per advance and
    /// equal on any two oracles that finalized the same chain.
    pub fn finalized_digest(&self) -> u64 {
        self.view.finalized_digest()
    }

    /// Number of blocks in the closed past cone of the finalized head
    /// (genesis excluded) — the finalized *prefix* of the DAG, which
    /// grows faster than the finalized chain itself.
    pub fn finalized_cone_blocks(&self) -> usize {
        self.view.finalized_cone_blocks()
    }

    /// The finalized chain as global ids, height order.
    pub fn finalized_chain(&self) -> Vec<MsgId> {
        self.view
            .finalized_chain()
            .iter()
            .map(|&l| self.table.id_of(l))
            .collect()
    }

    /// Moves the chain blocks finalized since the last drain (global
    /// ids, height order) into `out`.
    pub fn drain_newly_final(&mut self, out: &mut Vec<MsgId>) {
        out.extend(self.view.drain_newly_final());
    }

    /// Whether the observed block's selected chain passes through the
    /// current finalized head — the fork-choice filter an honest driver
    /// applies before voting (never extend a chain that abandons your
    /// own finalized prefix). Genesis-rooted trivially true while
    /// nothing is final; false for unobserved ids.
    pub fn extends_finalized(&self, id: MsgId) -> bool {
        self.local(id)
            .is_some_and(|l| self.view.extends_finalized(&self.table, l))
    }

    /// True if a quorum ever backed a candidate conflicting with the
    /// finalized prefix — a safety breach (only reachable beyond the
    /// tolerated Byzantine fraction), reported instead of forking.
    pub fn conflict_detected(&self) -> bool {
        self.view.conflict_detected()
    }

    /// Number of authors caught equivocating so far.
    pub fn equivocator_count(&self) -> usize {
        self.view.equivocator_count()
    }

    /// Whether an author has been caught equivocating.
    pub fn is_equivocator(&self, author: usize) -> bool {
        self.view.is_equivocator(author)
    }

    /// The embedded protocol message carried by an observed block.
    pub fn role_of(&self, id: MsgId) -> Option<Role> {
        self.local(id).map(|l| self.table.role_of(l))
    }

    /// Counts of (proposals, votes, echoes) over the observed blocks,
    /// genesis excluded.
    pub fn role_counts(&self) -> (usize, usize, usize) {
        self.view.role_counts()
    }

    /// Read-only access to the interpretation table (table ids are
    /// observation order: genesis 0, then one per observe).
    pub fn interpreter(&self) -> &DagInterpreter {
        &self.table
    }

    /// Read-only access to the observer's state over
    /// [`interpreter`](FinalityOracle::interpreter).
    pub fn view(&self) -> &FinalityView {
        &self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_core::GENESIS;
    use rand::{Rng, SeedableRng};

    /// Round-robin chain over n authors, length `len`; returns the ids.
    fn round_robin(o: &mut FinalityOracle, n: usize, len: u64) -> Vec<MsgId> {
        let mut ids = vec![GENESIS];
        for i in 1..=len {
            let id = MsgId(i);
            o.observe(id, ((i - 1) % n as u64) as usize, &[*ids.last().unwrap()]);
            ids.push(id);
        }
        ids
    }

    #[test]
    fn unanimous_chain_finalizes_behind_the_frontier() {
        let mut o = FinalityOracle::new(4); // quorum 3
        let ids = round_robin(&mut o, 4, 20);
        let h = o.finalized_height();
        assert!(h >= 10, "deep prefix finalizes, got {h}");
        assert!(h < 20, "the frontier itself lacks mutual visibility");
        // Finalized chain is the exact prefix of the single chain.
        assert_eq!(o.finalized_chain(), ids[1..=h].to_vec());
        assert!(o.is_final(ids[1]) && o.is_final(ids[h]));
        assert!(!o.is_final(ids[20]));
        assert!(o.is_final(GENESIS));
        assert!(!o.conflict_detected());
        assert_eq!(o.finalized_head(), ids[h]);
        assert_eq!(o.finalized_cone_blocks(), h);
    }

    #[test]
    fn watermark_is_monotone_and_newly_final_drains_in_order() {
        let mut o = FinalityOracle::new(4);
        let mut tip = GENESIS;
        let mut drained = Vec::new();
        let mut last = 0;
        for i in 1..=30u64 {
            let id = MsgId(i);
            o.observe(id, ((i - 1) % 4) as usize, &[tip]);
            tip = id;
            let h = o.finalized_height();
            assert!(h >= last, "watermark never regresses");
            last = h;
            o.drain_newly_final(&mut drained);
        }
        assert_eq!(drained, o.finalized_chain());
    }

    #[test]
    fn withheld_votes_stall_finality() {
        // n = 4, quorum 3: with two authors silent only 2 vote.
        let mut o = FinalityOracle::new(4);
        let mut tip = GENESIS;
        for i in 1..=30u64 {
            let id = MsgId(i);
            o.observe(id, (i % 2) as usize, &[tip]);
            tip = id;
        }
        assert_eq!(o.finalized_height(), 0, "2 < quorum 3: nothing final");
    }

    #[test]
    fn equivocators_are_excluded_from_quorums() {
        // n = 3, quorum 3: all three must vote. Author 2 equivocates —
        // after detection its votes no longer count, so the watermark
        // freezes at what was finalized before.
        let mut o = FinalityOracle::new(3);
        let ids = round_robin(&mut o, 3, 12);
        let before = o.finalized_height();
        assert!(before >= 1);
        // Author 2 forks its own history: round collision.
        o.observe(MsgId(100), 2, &[ids[3]]);
        assert_eq!(o.equivocator_count(), 1);
        assert!(o.is_equivocator(2));
        for i in 0..20u64 {
            let id = MsgId(200 + i);
            let tip = if i == 0 { ids[12] } else { MsgId(200 + i - 1) };
            o.observe(id, (i % 2) as usize, &[tip]);
        }
        assert_eq!(
            o.finalized_height(),
            before,
            "two non-equivocators cannot reach quorum 3"
        );
        assert!(!o.conflict_detected());
    }

    #[test]
    fn digest_and_chain_agree_across_observation_orders() {
        // Build a random DAG, then feed it to two oracles in different
        // ancestor-closed orders: identical finalized state.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for case in 0..30 {
            let n = 4;
            // Honest authors on one chain (selected parent = previous
            // block, so nobody equivocates), with random merge parents.
            let mut blocks: Vec<(MsgId, usize, Vec<MsgId>)> = Vec::new();
            for i in 1..=60u64 {
                let author = rng.gen_range(0..n);
                let sel = MsgId(i - 1);
                let mut parents = vec![sel];
                if rng.gen_bool(0.4) {
                    let extra = MsgId(rng.gen_range(0..i));
                    if extra != sel {
                        parents.push(extra);
                    }
                }
                blocks.push((MsgId(i), author, parents));
            }
            let mut a = FinalityOracle::new(n);
            for (id, author, parents) in &blocks {
                a.observe(*id, *author, parents);
            }
            // Second order: repeatedly pick a random block whose parents
            // are already observed.
            let mut b = FinalityOracle::new(n);
            let mut pending = blocks.clone();
            let mut seen = vec![GENESIS];
            while !pending.is_empty() {
                let ready: Vec<usize> = (0..pending.len())
                    .filter(|&i| pending[i].2.iter().all(|p| seen.contains(p)))
                    .collect();
                let pick = ready[rng.gen_range(0..ready.len())];
                let (id, author, parents) = pending.remove(pick);
                b.observe(id, author, &parents);
                seen.push(id);
            }
            assert_eq!(
                a.finalized_chain(),
                b.finalized_chain(),
                "case {case}: same block set must finalize the same chain"
            );
            assert_eq!(a.finalized_digest(), b.finalized_digest());
            assert_eq!(a.conflict_detected(), b.conflict_detected());
        }
    }

    #[test]
    fn sparse_global_ids_are_remapped() {
        let mut o = FinalityOracle::new(3);
        o.observe(MsgId(17), 0, &[GENESIS]);
        o.observe(MsgId(400), 1, &[MsgId(17)]);
        o.observe(MsgId(401), 2, &[MsgId(400)]);
        o.observe(MsgId(1000), 0, &[MsgId(401)]);
        o.observe(MsgId(1001), 1, &[MsgId(1000)]);
        o.observe(MsgId(1002), 2, &[MsgId(1001)]);
        assert!(o.finalized_height() >= 1);
        assert_eq!(o.finalized_chain()[0], MsgId(17));
        assert!(o.is_final(MsgId(17)));
        assert!(!o.is_final(MsgId(999)), "unknown ids are not final");
    }

    #[test]
    fn role_counts_cover_all_blocks() {
        let mut o = FinalityOracle::new(3);
        // author == height mod 3 → every block lands in its proposer slot.
        for i in 1..=6u64 {
            o.observe(MsgId(i), (i % 3) as usize, &[MsgId(i - 1)]);
        }
        assert_eq!(o.role_counts(), (6, 0, 0));
        // Off-slot single-parent extension → vote; off-slot merge → echo.
        o.observe(MsgId(7), 0, &[MsgId(6)]);
        o.observe(MsgId(8), 0, &[MsgId(7), MsgId(3)]);
        let (p, v, e) = o.role_counts();
        assert_eq!((p, v, e), (6, 1, 1));
        assert_eq!(o.role_of(MsgId(7)), Some(Role::Vote));
        assert_eq!(o.role_of(MsgId(8)), Some(Role::Echo));
        assert!(o.role_of(GENESIS).is_some());
        assert!(o.role_of(MsgId(7777)).is_none());
    }

    #[test]
    #[should_panic(expected = "observed before")]
    fn rejects_unobserved_parents() {
        let mut o = FinalityOracle::new(3);
        o.observe(MsgId(2), 0, &[MsgId(1)]);
    }

    #[test]
    #[should_panic(expected = "observed twice")]
    fn rejects_duplicate_observation() {
        let mut o = FinalityOracle::new(3);
        o.observe(MsgId(1), 0, &[GENESIS]);
        o.observe(MsgId(1), 1, &[GENESIS]);
    }
}
