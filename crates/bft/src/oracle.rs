//! The finality oracle: a Casper-CBC-style safety criterion over the
//! interpreted DAG.
//!
//! A chain block `X` at height `h` becomes **final** when the oracle's
//! view contains a quorum `V` (default `⌊2n/3⌋ + 1` authors, none caught
//! equivocating) such that
//!
//! 1. every member's latest block votes for `X` (its selected chain
//!    passes through `X`), and
//! 2. the members have *pairwise mutual visibility of those votes*: for
//!    every `u, v ∈ V`, the highest-round block of `v` inside `u`'s
//!    latest block's past cone also votes for `X`.
//!
//! Condition 2 is the clique condition of the Casper-CBC safety oracle:
//! each member has justified evidence that every other member is
//! committed to `X`, so no member can abandon `X` without either seeing
//! a heavier opposing quorum (impossible while fewer than `2q − n`
//! authors equivocate) or equivocating itself — and equivocators are
//! excluded from all later quorums the moment two blocks share an
//! (author, round) slot. All the evidence lives in the DAG: any observer
//! whose view covers the members' latest blocks reaches the same
//! verdict, which is what makes per-node oracles agree (the nonforking
//! invariant checked exhaustively in `am-sched` and statistically by the
//! 300-seed suite).
//!
//! The verdict is kept incrementally at the one height under test,
//! `h = finalized_height + 1`. A new block by author `a` can change only
//! `a`'s vote at `h` and what `a`'s latest block witnesses, so
//! [`observe`](FinalityOracle::observe) recomputes that one vote and
//! skips the tally-and-clique scan outright unless the vote moved or the
//! last scan was stuck on `a`'s own row — O(n) for the interpreter's
//! high-water merge, O(1) for the oracle. "Ancestor at `h`" comes from a
//! per-block memo stamped with `h`, so each selected-parent edge above
//! the finalized head is walked once per height. A scan settles a
//! supporter pair `(u, v)` by comparing the round of `v` that `latest(u)`
//! witnesses with a per-column threshold (every block of `v` from there
//! up is known to vote for the candidate) — one branch-free pass over
//! `u`'s high-water row — and looks a witnessed block's vote up only when
//! the row falls short; it tries the supporter with the oldest latest
//! block first, since that row has seen the least. The rule itself —
//! first tally entry in author order reaching the quorum, the conflict
//! test, the clique over *all* supporters — is pinned against a
//! from-scratch transcription in `tests/oracle_spec.rs`.
//!
//! The watermark only advances: heights are finalized in order, each new
//! candidate must extend the previously finalized block (a quorum
//! candidate that fails this raises [`conflict_detected`]
//! (FinalityOracle::conflict_detected) instead of forking), and per
//! advance the oracle maintains
//!
//! * a rolling **finalized-prefix digest** mixed over the newly
//!   finalized chain blocks only — O(new tail), and
//! * the finalized **past cone** via a [`ConeCoverTracker`] pinned to the
//!   finalized head — successive heads descend from one another, so the
//!   marks extend in place (the PR5 fast path) and
//!   [`is_final`](FinalityOracle::is_final) is an O(1) membership probe.

use crate::interpret::{DagInterpreter, Role, NONE};
use am_core::{ConeCoverTracker, MsgId, GENESIS};

/// Splitmix64-style mixer for the finalized-prefix digest (same family
/// as the archive digest chain in `am-node`).
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic BFT finality over an observed block DAG.
///
/// Feed every block exactly once via [`observe`](FinalityOracle::observe),
/// parents first (any ancestor-closed order works — per-node oracles feed
/// blocks in their own admission order). Global ids may have gaps — the
/// oracle remaps them to local interpretation ids — but the remap is a
/// `Vec` indexed by global id, so memory is O(largest id observed).
///
/// ```
/// use am_bft::FinalityOracle;
/// use am_core::MsgId;
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
#[derive(Clone, Debug)]
pub struct FinalityOracle {
    interp: DagInterpreter,
    quorum: usize,
    /// Local id → global `MsgId` raw value.
    global: Vec<u64>,
    /// Global id index → local id (`NONE` = unobserved).
    local_of: Vec<u32>,
    /// Closed past cone of the finalized head (local ids).
    cone: ConeCoverTracker,
    /// Finalized chain blocks, height order (local ids; genesis omitted).
    final_chain: Vec<u32>,
    digest: u64,
    /// Chain blocks finalized since the last drain (global ids).
    newly_final: Vec<MsgId>,
    conflict: bool,
    // The verdict at the height under test, `h = finalized_height + 1`,
    // kept incrementally: one observed block moves only its author's
    // vote and what its author's latest block witnesses.
    /// Per author: the selected-chain ancestor at `h` of its latest
    /// block (`NONE` = equivocator, silent, or still below `h`).
    vote: Vec<u32>,
    /// Per block: (height stamp, selected-chain ancestor at that height).
    memo: Vec<(u32, u32)>,
    /// The supporter whose latest block failed the clique in the last
    /// scan (`NONE` = the scan stopped at the tally or the conflict test,
    /// which only a changed vote can move).
    stuck: u32,
    stats: OracleStats,
    // Scratch (reused across observes).
    pbuf: Vec<u32>,
    pbuf_ids: Vec<MsgId>,
    tally: Vec<(u32, u32)>,
    /// Per supporter `v`, during one clique scan: the lowest round such
    /// that every block of `v` from it up to `v`'s latest is known to
    /// vote for the candidate.
    voting_from: Vec<u32>,
}

/// Work counters of one [`FinalityOracle`] (see
/// [`stats`](FinalityOracle::stats)): how often the incremental verdict
/// got away with touching one author.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Blocks observed.
    pub observes: u64,
    /// Observes that skipped the scan: the author's vote did not move
    /// and the clique was stuck on someone else's latest block.
    pub early_outs: u64,
    /// Tally-and-clique scans run.
    pub scans: u64,
    /// Witnessed blocks whose vote a scan had to look up (the rest of
    /// its pair checks were one integer compare).
    pub witness_lookups: u64,
    /// Heights finalized.
    pub heights_advanced: u64,
    /// Selected-parent edges walked filling the per-height memo.
    pub memo_edges: u64,
}

impl FinalityOracle {
    /// An oracle over `n` authors with the default quorum `⌊2n/3⌋ + 1`.
    pub fn new(n: usize) -> FinalityOracle {
        FinalityOracle::with_quorum(n, 2 * n / 3 + 1)
    }

    /// An oracle with an explicit quorum (clamped to `1..=n`).
    pub fn with_quorum(n: usize, quorum: usize) -> FinalityOracle {
        FinalityOracle {
            interp: DagInterpreter::new(n),
            quorum: quorum.clamp(1, n),
            global: vec![GENESIS.0],
            local_of: vec![0],
            cone: ConeCoverTracker::new(),
            final_chain: Vec::new(),
            digest: 0,
            newly_final: Vec::new(),
            conflict: false,
            vote: vec![NONE; n],
            memo: vec![(0, 0)],
            stuck: NONE,
            stats: OracleStats::default(),
            pbuf: Vec::new(),
            pbuf_ids: Vec::new(),
            tally: Vec::new(),
            voting_from: Vec::new(),
        }
    }

    /// The quorum size in force.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Number of blocks observed (genesis included).
    pub fn blocks_observed(&self) -> usize {
        self.interp.len()
    }

    /// Observes one appended block: `id` is its global id (any sparse
    /// id space; genesis is pre-observed as `MsgId(0)`), `parents` must
    /// all have been observed, `parents[0]` is the selected chain tip.
    /// Advances the finality watermark as far as the new evidence allows.
    pub fn observe(&mut self, id: MsgId, author: usize, parents: &[MsgId]) {
        let gi = id.index();
        if gi >= self.local_of.len() {
            self.local_of.resize(gi + 1, NONE);
        }
        assert!(self.local_of[gi] == NONE, "block observed twice");
        self.pbuf.clear();
        for p in parents {
            let l = self.local_of[p.index()];
            assert!(l != NONE, "parents must be observed before their child");
            self.pbuf.push(l);
        }
        let idx = self.interp.push(author, &self.pbuf);
        self.local_of[gi] = idx;
        self.global.push(id.0);
        self.pbuf_ids.clear();
        self.pbuf_ids
            .extend(self.pbuf.iter().map(|&l| MsgId(l as u64)));
        self.cone
            .on_append(MsgId(idx as u64), &self.pbuf_ids, author < self.interp.n());
        self.memo.push((0, 0));
        self.stats.observes += 1;
        // Nobody else's latest block (hence vote, or what it witnesses)
        // moved.
        let vote = self.vote_by(author);
        let moved = std::mem::replace(&mut self.vote[author], vote) != vote;
        if moved || self.stuck == author as u32 {
            self.try_advance();
        } else {
            self.stats.early_outs += 1;
        }
    }

    /// The author's vote at the height under test: that of its latest
    /// block, `NONE` for an equivocator or a silent author.
    fn vote_by(&mut self, author: usize) -> u32 {
        match self.interp.latest(author) {
            Some(l) if !self.interp.is_equivocator(author) => self.vote_of(l),
            _ => NONE,
        }
    }

    /// The block's vote at the height under test: its selected-chain
    /// ancestor there, `NONE` if it sits below. Memoised per block and
    /// stamped with the height, so each selected-parent edge is walked
    /// once per height — the cost follows the finality lag, not the
    /// chain height.
    fn vote_of(&mut self, b: u32) -> u32 {
        let h = self.final_chain.len() as u32 + 1;
        if self.interp.height_of(b) < h {
            return NONE;
        }
        // Down to the first block already stamped `h`, or at height `h`.
        let mut v = b;
        let anc = loop {
            let (stamp, anc) = self.memo[v as usize];
            if stamp == h {
                break anc;
            }
            if self.interp.height_of(v) == h {
                break v;
            }
            v = self.interp.selected_parent(v);
            self.stats.memo_edges += 1;
        };
        let mut w = b;
        loop {
            self.memo[w as usize] = (h, anc);
            if w == v {
                return anc;
            }
            w = self.interp.selected_parent(w);
        }
    }

    /// Attempts to extend the finalized chain height by height; stops at
    /// the first height whose candidate lacks a mutually-visible quorum.
    fn try_advance(&mut self) {
        let n = self.interp.n();
        loop {
            self.stats.scans += 1;
            self.stuck = NONE;
            // Tally the votes, in author order.
            self.tally.clear();
            for &c in self.vote.iter().filter(|&&c| c != NONE) {
                match self.tally.iter_mut().find(|e| e.0 == c) {
                    Some(e) => e.1 += 1,
                    None => self.tally.push((c, 1)),
                }
            }
            // Votes are one-per-author, so at most one candidate can
            // reach a quorum > n/2 (below that, the first in author
            // order wins).
            let Some(&(cand, _)) = self.tally.iter().find(|e| e.1 as usize >= self.quorum) else {
                return;
            };
            // The candidate must extend the finalized prefix; a quorum
            // behind a conflicting branch is a detected safety breach,
            // never a fork.
            let prev = self.final_chain.last().copied().unwrap_or(0);
            if self.interp.selected_parent(cand) != prev {
                self.conflict = true;
                return;
            }
            // Clique condition: every supporter's latest block must
            // witness every other supporter voting for the candidate —
            // the highest-round block of `v` in `latest(u)`'s cone votes
            // for it. `v`'s own latest block does, and rows see a column's
            // last few rounds, so a pair is usually settled by comparing
            // the witnessed round with `voting_from[v]` (0 for a
            // non-supporter: any round will do).
            self.voting_from.clear();
            self.voting_from
                .extend((0..n).map(|v| u32::from(self.vote[v] == cand) * self.interp.rounds_of(v)));
            // The row most likely to fail is the supporter whose latest
            // block is oldest (it has seen the least): try it first.
            let stalest = (0..n)
                .filter(|&u| self.vote[u] == cand)
                .min_by_key(|&u| self.interp.latest(u));
            for u in stalest.into_iter().chain(0..n) {
                if self.vote[u] != cand {
                    continue;
                }
                let lu = self.interp.latest(u).expect("a voter has blocks");
                let row = self.interp.high_water_row(lu).iter();
                let short: u32 = row
                    .zip(&self.voting_from)
                    .map(|(r, from)| u32::from(r < from))
                    .sum();
                if short == 0 {
                    continue;
                }
                for v in 0..n {
                    let r = self.interp.high_water(lu, v);
                    if r >= self.voting_from[v] {
                        continue;
                    }
                    self.stats.witness_lookups += 1;
                    if r == 0 || self.vote_of(self.interp.block_at(v, r)) != cand {
                        self.stuck = u as u32;
                        return;
                    }
                    if r + 1 == self.voting_from[v] {
                        self.voting_from[v] = r;
                    }
                }
            }
            // Finalize: extend the chain, the rolling digest, and the
            // finalized cone (head descends → marks extend in place).
            self.final_chain.push(cand);
            self.stats.heights_advanced += 1;
            let a = self.interp.author_of(cand).expect("non-genesis") as u64;
            let r = self.interp.round_of(cand) as u64;
            self.digest = mix(self.digest, (a << 32) | r);
            self.digest = mix(self.digest, self.global[cand as usize]);
            self.cone.cover_of(MsgId(cand as u64));
            self.newly_final.push(MsgId(self.global[cand as usize]));
            // Every vote moves up one height.
            for a in 0..n {
                self.vote[a] = self.vote_by(a);
            }
        }
    }

    /// The work counters so far.
    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// Height of the finalized chain (number of finalized non-genesis
    /// chain blocks). Monotone.
    pub fn finalized_height(&self) -> usize {
        self.final_chain.len()
    }

    /// Global id of the highest finalized chain block (genesis if none).
    pub fn finalized_head(&self) -> MsgId {
        self.final_chain
            .last()
            .map(|&l| MsgId(self.global[l as usize]))
            .unwrap_or(GENESIS)
    }

    /// Whether the block has been fed to [`observe`](FinalityOracle::observe)
    /// (genesis counts as observed).
    pub fn is_observed(&self, id: MsgId) -> bool {
        let gi = id.index();
        gi < self.local_of.len() && self.local_of[gi] != NONE
    }

    /// Whether the block is final: inside the closed past cone of the
    /// finalized head (its position in every future linearization is
    /// fixed). Genesis is trivially final; unobserved ids are not final.
    pub fn is_final(&self, id: MsgId) -> bool {
        let gi = id.index();
        gi < self.local_of.len() && self.local_of[gi] != NONE && {
            self.cone.in_cone(MsgId(self.local_of[gi] as u64))
        }
    }

    /// Rolling digest over the finalized chain, mixed in height order
    /// from (author, round, global id) — O(new tail) per advance and
    /// equal on any two oracles that finalized the same chain.
    pub fn finalized_digest(&self) -> u64 {
        self.digest
    }

    /// Number of blocks in the closed past cone of the finalized head
    /// (genesis excluded) — the finalized *prefix* of the DAG, which
    /// grows faster than the finalized chain itself.
    pub fn finalized_cone_blocks(&self) -> usize {
        self.cone.covered()
    }

    /// The finalized chain as global ids, height order.
    pub fn finalized_chain(&self) -> Vec<MsgId> {
        self.final_chain
            .iter()
            .map(|&l| MsgId(self.global[l as usize]))
            .collect()
    }

    /// Moves the chain blocks finalized since the last drain (global
    /// ids, height order) into `out`.
    pub fn drain_newly_final(&mut self, out: &mut Vec<MsgId>) {
        out.append(&mut self.newly_final);
    }

    /// Whether the observed block's selected chain passes through the
    /// current finalized head — the fork-choice filter an honest driver
    /// applies before voting (never extend a chain that abandons your
    /// own finalized prefix). Genesis-rooted trivially true while
    /// nothing is final; false for unobserved ids.
    pub fn extends_finalized(&self, id: MsgId) -> bool {
        let gi = id.index();
        if gi >= self.local_of.len() || self.local_of[gi] == NONE {
            return false;
        }
        let head = self.final_chain.last().copied().unwrap_or(0);
        self.interp.votes_for(self.local_of[gi], head)
    }

    /// True if a quorum ever backed a candidate conflicting with the
    /// finalized prefix — a safety breach (only reachable beyond the
    /// tolerated Byzantine fraction), reported instead of forking.
    pub fn conflict_detected(&self) -> bool {
        self.conflict
    }

    /// Number of authors caught equivocating so far.
    pub fn equivocator_count(&self) -> usize {
        self.interp.equivocator_count()
    }

    /// Whether an author has been caught equivocating.
    pub fn is_equivocator(&self, author: usize) -> bool {
        self.interp.is_equivocator(author)
    }

    /// The embedded protocol message carried by an observed block.
    pub fn role_of(&self, id: MsgId) -> Option<Role> {
        let gi = id.index();
        (gi < self.local_of.len() && self.local_of[gi] != NONE)
            .then(|| self.interp.role_of(self.local_of[gi]))
    }

    /// Counts of (proposals, votes, echoes) over the observed blocks,
    /// genesis excluded.
    pub fn role_counts(&self) -> (usize, usize, usize) {
        self.interp.role_counts()
    }

    /// Read-only access to the interpretation layer.
    pub fn interpreter(&self) -> &DagInterpreter {
        &self.interp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
