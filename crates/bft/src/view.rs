//! One observer's finality state over a shared block table: the
//! Casper-CBC-style safety criterion.
//!
//! A chain block `X` at height `h` becomes **final** when the observer's
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
//! (author, round) slot. All the evidence lives in the DAG, so observers
//! never finalize conflicting blocks (the nonforking invariant, checked
//! exhaustively in `am-sched` and statistically by the 300-seed suite).
//!
//! The verdict is **not** a function of the DAG alone: it depends on the
//! order the observer admits blocks in, even without equivocation. The
//! clique must hold over every *current* supporter, so a late supporter
//! whose vote no other member's latest block witnesses yet blocks a
//! clique the others already form — an observer that admits that block
//! before the clique closes can stay stuck at that height for good, while
//! one that admits it after finalizes the height. `tests/order_independence.rs`
//! (`a_late_supporter_decides_whether_a_height_is_final`) pins one such
//! DAG; an order-independent rule is ROADMAP item 3.
//!
//! The split with [`DagInterpreter`] follows Schett & Danezis: a block's
//! round, height, selected chain, high-water row and role are a function
//! of its past cone, so one table holds them for every observer. What a
//! [`FinalityView`] keeps is what depends on *which* blocks this observer
//! has seen and in what order: the observed set, the first-observed block
//! per (author, round) slot (`latest`, `block_at`), the equivocators that
//! order exposes, the votes, the memo, and the finalized chain and cone.
//!
//! The verdict is kept incrementally at the one height under test,
//! `h = finalized_height + 1`. A new block by author `a` can change only
//! `a`'s vote at `h` and what `a`'s latest block witnesses, so
//! [`observe`](FinalityView::observe) recomputes that one vote, moves it
//! in a maintained tally, and skips the clique scan outright unless the
//! vote moved or the last scan was stuck on `a`'s own row (a scan whose
//! tally has no quorum stops at once). "Ancestor at `h`" comes from a
//! per-block memo stamped with `h`, so each selected-parent edge above
//! the finalized head is walked once per height. A scan keeps, per
//! supporter column `v`, a voting run: the rounds from `voting_from[v]`
//! up to `v`'s latest, all known to vote for the candidate. A pair
//! `(u, v)` is settled by comparing the round of `v` that `latest(u)`
//! witnesses with the run's bottom — one branch-free pass over `u`'s
//! high-water row. A witnessed round below it extends the run downward,
//! one memoised lookup per round, until the run reaches that round or
//! meets a round that does not vote (the author switched branch); only a
//! round below such a break is looked up on its own. So a column's round
//! is looked up at most once per scan, however many rows witness it. The
//! scan tries the supporter with the oldest latest block first, since
//! that row has seen the least. The rule itself —
//! first tally entry in author order reaching the quorum, the conflict
//! test, the clique over *all* supporters — is pinned against a
//! from-scratch transcription in `tests/oracle_spec.rs`.
//!
//! The watermark only advances: heights are finalized in order, each new
//! candidate must extend the previously finalized block (a quorum
//! candidate that fails this raises
//! [`conflict_detected`](FinalityView::conflict_detected) instead of
//! forking), and per advance the view maintains
//!
//! * a rolling **finalized-prefix digest** mixed over the newly
//!   finalized chain blocks only — O(new tail), and
//! * the finalized **past cone** as per-block marks: each new head's
//!   selected parent is the previous head, so the new cone is the old
//!   one plus whatever a DFS over the table's parent rows reaches without
//!   crossing a mark, and [`is_final`](FinalityView::is_final) is an O(1)
//!   probe.

use crate::interpret::{DagInterpreter, Role, NONE};
use am_core::MsgId;

/// Splitmix64-style mixer for the finalized-prefix digest (same family
/// as the archive digest chain in `am-node`).
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The default quorum over `n` authors, `⌊2n/3⌋ + 1`.
pub(crate) fn default_quorum(n: usize) -> usize {
    2 * n / 3 + 1
}

/// Work counters of one finality observer (see
/// [`FinalityView::stats`]): how often the incremental verdict got away
/// with touching one author.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Blocks observed.
    pub observes: u64,
    /// Observes that skipped the scan: the author's vote did not move
    /// and the clique was stuck on someone else's latest block.
    pub early_outs: u64,
    /// Tally-and-clique scans run.
    pub scans: u64,
    /// Blocks whose vote a scan looked up: the rounds it walked a
    /// supporter's voting run down through, plus witnessed rounds below a
    /// run's break (the rest of its pair checks were one integer
    /// compare).
    pub witness_lookups: u64,
    /// Heights finalized.
    pub heights_advanced: u64,
    /// Selected-parent edges walked filling the per-height memo.
    pub memo_edges: u64,
}

/// What one observer knows of one table block.
#[derive(Clone, Copy, Debug, Default)]
struct Seen {
    /// 1-based rank in this observer's observation order (genesis 1;
    /// 0 = not observed). Orders "oldest latest block" in a scan.
    rank: u32,
    /// Inside the closed past cone of the finalized head.
    fin: bool,
    /// The vote memo: the selected-chain ancestor `anc` at height `stamp`
    /// (`stamp` 0 = never filled; heights under test start at 1).
    stamp: u32,
    anc: u32,
}

/// One observer's finality state over a [`DagInterpreter`] it shares with
/// every other observer of the same DAG.
///
/// Blocks are named by table id. Feed each block once via
/// [`observe`](FinalityView::observe), parents first (any
/// ancestor-closed order; genesis is observed from the start). A view may
/// observe a subset of the table — per-node views in a networked trial
/// observe what their node admitted.
///
/// ```
/// use am_bft::{DagInterpreter, FinalityView};
/// let mut table = DagInterpreter::new(3);
/// let mut early = FinalityView::new(3);
/// let mut late = FinalityView::new(3);
/// let mut tip = 0;
/// for i in 1..=8u32 {
///     tip = table.push((i % 3) as usize, &[tip]);
///     early.observe(&table, tip);
/// }
/// for b in 1..table.len() as u32 {
///     late.observe(&table, b);
/// }
/// assert!(early.finalized_height() >= 1);
/// assert_eq!(early.finalized_chain(), late.finalized_chain());
/// assert_eq!(early.finalized_digest(), late.finalized_digest());
/// ```
#[derive(Debug)]
pub struct FinalityView {
    n: usize,
    quorum: usize,
    /// Per table id (grown as blocks are observed).
    seen: Vec<Seen>,
    /// Blocks observed, genesis included.
    observed: usize,
    /// Per author: first block observed at each round (index `r - 1`).
    by_round: Vec<Vec<u32>>,
    /// Sticky equivocator flags.
    equiv: Vec<bool>,
    equivocators: usize,
    /// (proposals, votes, echoes) over the observed blocks.
    roles: (usize, usize, usize),
    /// Finalized chain blocks, height order (genesis omitted).
    final_chain: Vec<u32>,
    digest: u64,
    /// Caller ids of the chain blocks finalized since the last drain.
    newly_final: Vec<MsgId>,
    /// Blocks marked `fin`, genesis excluded.
    cone: usize,
    conflict: bool,
    // The verdict at the height under test, `h = finalized_height + 1`,
    // kept incrementally: one observed block moves only its author's
    // vote and what its author's latest block witnesses.
    /// Per author: the selected-chain ancestor at `h` of its latest
    /// block (`NONE` = equivocator, silent, or still below `h`).
    vote: Vec<u32>,
    /// The supporter whose latest block failed the clique in the last
    /// scan (`NONE` = the scan stopped at the tally or the conflict test,
    /// which only a changed vote can move).
    stuck: u32,
    /// `(candidate, votes)` over `vote` (entries may fall to 0 votes).
    tally: Vec<(u32, u32)>,
    stats: OracleStats,
    // Scratch (reused across observes).
    /// Per supporter `v`, during one clique scan: the lowest round such
    /// that every block of `v` from it up to `v`'s latest is known to
    /// vote for the candidate (its voting run), and whether the round
    /// just below is known not to (the run's break).
    voting_from: Vec<u32>,
    run_broken: Vec<bool>,
    /// DFS stack of the cone walk.
    stack: Vec<u32>,
}

impl Clone for FinalityView {
    fn clone(&self) -> FinalityView {
        let mut view = FinalityView::empty();
        view.clone_from(self);
        view
    }

    /// Copies `src` into this view's buffers — the round slots' rows
    /// included — keeping their capacity.
    fn clone_from(&mut self, src: &FinalityView) {
        let FinalityView {
            n,
            quorum,
            seen,
            observed,
            by_round,
            equiv,
            equivocators,
            roles,
            final_chain,
            digest,
            newly_final,
            cone,
            conflict,
            vote,
            stuck,
            stats,
            tally,
            voting_from,
            run_broken,
            stack,
        } = src;
        self.n = *n;
        self.quorum = *quorum;
        self.seen.clone_from(seen);
        self.observed = *observed;
        self.by_round.clone_from(by_round);
        self.equiv.clone_from(equiv);
        self.equivocators = *equivocators;
        self.roles = *roles;
        self.final_chain.clone_from(final_chain);
        self.digest = *digest;
        self.newly_final.clone_from(newly_final);
        self.cone = *cone;
        self.conflict = *conflict;
        self.vote.clone_from(vote);
        self.stuck = *stuck;
        self.stats = *stats;
        self.tally.clone_from(tally);
        self.voting_from.clone_from(voting_from);
        self.run_broken.clone_from(run_broken);
        self.stack.clone_from(stack);
    }
}

impl FinalityView {
    /// A view over `n` authors with the default quorum `⌊2n/3⌋ + 1`,
    /// holding only genesis.
    pub fn new(n: usize) -> FinalityView {
        FinalityView::with_quorum(n, default_quorum(n))
    }

    /// A view with an explicit quorum (clamped to `1..=n`).
    pub(crate) fn with_quorum(n: usize, quorum: usize) -> FinalityView {
        let mut view = FinalityView::empty();
        view.reset_with(n, quorum);
        view
    }

    /// No authors, nothing observed, no buffers: `reset_with` or
    /// `clone_from` makes it a view.
    fn empty() -> FinalityView {
        FinalityView {
            n: 0,
            quorum: 0,
            seen: Vec::new(),
            observed: 0,
            by_round: Vec::new(),
            equiv: Vec::new(),
            equivocators: 0,
            roles: (0, 0, 0),
            final_chain: Vec::new(),
            digest: 0,
            newly_final: Vec::new(),
            cone: 0,
            conflict: false,
            vote: Vec::new(),
            stuck: NONE,
            stats: OracleStats::default(),
            tally: Vec::new(),
            voting_from: Vec::new(),
            run_broken: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Back to the fresh state of [`new`](FinalityView::new) over `n`
    /// authors (default quorum), keeping every buffer's capacity.
    pub fn reset(&mut self, n: usize) {
        self.reset_with(n, default_quorum(n));
    }

    fn reset_with(&mut self, n: usize, quorum: usize) {
        assert!(n >= 1, "need at least one author");
        self.n = n;
        self.quorum = quorum.clamp(1, n);
        self.seen.clear();
        self.seen.push(Seen {
            rank: 1,
            fin: true,
            stamp: 0,
            anc: 0,
        });
        self.observed = 1;
        self.by_round.resize_with(n, Vec::new);
        for slots in &mut self.by_round {
            slots.clear();
        }
        self.equiv.clear();
        self.equiv.resize(n, false);
        self.equivocators = 0;
        self.roles = (0, 0, 0);
        self.final_chain.clear();
        self.digest = 0;
        self.newly_final.clear();
        self.cone = 0;
        self.conflict = false;
        self.vote.clear();
        self.vote.resize(n, NONE);
        self.tally.clear();
        self.stuck = NONE;
        self.stats = OracleStats::default();
    }

    /// The quorum size in force.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Number of blocks observed (genesis included).
    pub fn blocks_observed(&self) -> usize {
        self.observed
    }

    /// Observes table block `b`, whose parents this view must already
    /// have observed. Advances the finality watermark as far as the new
    /// evidence allows.
    pub fn observe(&mut self, table: &DagInterpreter, b: u32) {
        assert!(
            self.try_observe(table, b),
            "parents must be observed before their child"
        );
    }

    /// [`observe`](FinalityView::observe)s table block `b` if this view
    /// has observed its parents; returns whether it did.
    pub fn try_observe(&mut self, table: &DagInterpreter, b: u32) -> bool {
        assert_eq!(table.n(), self.n, "table and view disagree on n");
        let i = b as usize;
        assert!(i < table.len(), "block is not in the table");
        if i >= self.seen.len() {
            self.seen.resize(i + 1, Seen::default());
        }
        assert!(self.seen[i].rank == 0, "block observed twice");
        if !table.parents_of(b).iter().all(|&p| self.is_observed(p)) {
            return false;
        }
        self.observed += 1;
        self.seen[i].rank = self.observed as u32;
        let author = table
            .author_of(b)
            .expect("genesis is observed from the start");

        // Round bookkeeping + equivocation: an observer holds the block's
        // cone, so it has seen its author's rounds below `r`; a collision
        // means two blocks share (author, round), and which of the two
        // fills the slot is whichever this observer saw first.
        let r = table.round_of(b) as usize;
        let slots = &mut self.by_round[author];
        debug_assert!(r <= slots.len() + 1, "rounds grow contiguously");
        if r == slots.len() + 1 {
            slots.push(b);
        } else if !self.equiv[author] {
            self.equiv[author] = true;
            self.equivocators += 1;
        }
        match table.role_of(b) {
            Role::Proposal => self.roles.0 += 1,
            Role::Vote => self.roles.1 += 1,
            Role::Echo => self.roles.2 += 1,
        }

        self.stats.observes += 1;
        // Nobody else's latest block (hence vote, or what it witnesses)
        // moved.
        let vote = self.vote_by(table, author);
        if self.cast(author, vote) || self.stuck == author as u32 {
            self.try_advance(table);
        } else {
            self.stats.early_outs += 1;
        }
        true
    }

    /// Moves `author`'s vote to `vote`, keeping the tally; whether it
    /// moved.
    fn cast(&mut self, author: usize, vote: u32) -> bool {
        let old = std::mem::replace(&mut self.vote[author], vote);
        if old == vote {
            return false;
        }
        if old != NONE {
            let e = self.tally.iter_mut().find(|e| e.0 == old);
            e.expect("a cast vote is tallied").1 -= 1;
        }
        if vote != NONE {
            match self.tally.iter_mut().find(|e| e.0 == vote) {
                Some(e) => e.1 += 1,
                None => self.tally.push((vote, 1)),
            }
        }
        true
    }

    /// The first vote in author order whose candidate has a quorum.
    /// Votes are one-per-author, so above `n / 2` at most one candidate
    /// can have one.
    fn quorum_candidate(&self) -> Option<u32> {
        let q = self.quorum as u32;
        let has_quorum = |c: u32| self.tally.iter().any(|e| e.0 == c && e.1 >= q);
        if !self.tally.iter().any(|e| e.1 >= q) {
            return None;
        }
        self.vote
            .iter()
            .copied()
            .find(|&c| c != NONE && has_quorum(c))
    }

    /// The author's vote at the height under test: that of its latest
    /// block, `NONE` for an equivocator or a silent author.
    fn vote_by(&mut self, table: &DagInterpreter, author: usize) -> u32 {
        match self.latest(author) {
            Some(l) if !self.equiv[author] => self.vote_of(table, l),
            _ => NONE,
        }
    }

    /// The block's vote at the height under test: its selected-chain
    /// ancestor there, `NONE` if it sits below. Memoised per block and
    /// stamped with the height, so each selected-parent edge is walked
    /// once per height — the cost follows the finality lag, not the
    /// chain height.
    fn vote_of(&mut self, table: &DagInterpreter, b: u32) -> u32 {
        let h = self.final_chain.len() as u32 + 1;
        if table.height_of(b) < h {
            return NONE;
        }
        // Down to the first block already stamped `h`, or at height `h`.
        let mut v = b;
        let anc = loop {
            let s = self.seen[v as usize];
            if s.stamp == h {
                break s.anc;
            }
            if table.height_of(v) == h {
                break v;
            }
            v = table.selected_parent(v);
            self.stats.memo_edges += 1;
        };
        let mut w = b;
        loop {
            let s = &mut self.seen[w as usize];
            s.stamp = h;
            s.anc = anc;
            if w == v {
                return anc;
            }
            w = table.selected_parent(w);
        }
    }

    /// Attempts to extend the finalized chain height by height; stops at
    /// the first height whose candidate lacks a mutually-visible quorum.
    fn try_advance(&mut self, table: &DagInterpreter) {
        let n = self.n;
        loop {
            self.stats.scans += 1;
            self.stuck = NONE;
            let Some(cand) = self.quorum_candidate() else {
                return;
            };
            // The candidate must extend the finalized prefix; a quorum
            // behind a conflicting branch is a detected safety breach,
            // never a fork.
            if table.selected_parent(cand) != self.finalized_head() {
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
            //
            // The row most likely to fail is the supporter whose latest
            // block this observer met first (it has seen the least): it
            // goes first.
            self.voting_from.clear();
            self.run_broken.clear();
            self.run_broken.resize(n, false);
            let (mut stalest, mut stalest_rank) = (0, u32::MAX);
            for (v, slots) in self.by_round.iter().enumerate() {
                let supports = self.vote[v] == cand;
                self.voting_from
                    .push(u32::from(supports) * slots.len() as u32);
                if supports {
                    let rank = self.seen[*slots.last().expect("a voter has blocks") as usize].rank;
                    if rank < stalest_rank {
                        (stalest, stalest_rank) = (v, rank);
                    }
                }
            }
            for u in std::iter::once(stalest).chain((0..n).filter(|&u| u != stalest)) {
                if self.vote[u] != cand {
                    continue;
                }
                let lu = self.latest(u).expect("a voter has blocks");
                let row = table.high_water_row(lu).iter();
                let short: u32 = row
                    .zip(&self.voting_from)
                    .map(|(r, from)| u32::from(r < from))
                    .sum();
                if short == 0 {
                    continue;
                }
                for v in 0..n {
                    let r = table.high_water(lu, v);
                    if r < self.voting_from[v] && !self.witnesses_vote(table, v, r, cand) {
                        self.stuck = u as u32;
                        return;
                    }
                }
            }
            // Finalize: extend the chain, the rolling digest, and the
            // finalized cone.
            self.final_chain.push(cand);
            self.stats.heights_advanced += 1;
            let a = table.author_of(cand).expect("non-genesis") as u64;
            let r = table.round_of(cand) as u64;
            let id = table.id_of(cand);
            self.digest = mix(self.digest, (a << 32) | r);
            self.digest = mix(self.digest, id.0);
            self.mark_cone(table, cand);
            self.newly_final.push(id);
            // Every vote moves up one height.
            self.vote.fill(NONE);
            self.tally.clear();
            for a in 0..n {
                let vote = self.vote_by(table, a);
                self.cast(a, vote);
            }
        }
    }

    /// Whether round `r` of supporter `v`, below `voting_from[v]`, votes
    /// for `cand` (round 0, nothing witnessed, never does). Walks `v`'s
    /// voting run down one round at a time, until it reaches `r` or meets
    /// a round that does not vote; that round is the run's break, and only
    /// a round below the break needs a lookup of its own — the author may
    /// have switched branch and back. So each round of a column is looked
    /// up at most once per scan, however many rows witness it.
    fn witnesses_vote(&mut self, table: &DagInterpreter, v: usize, r: u32, cand: u32) -> bool {
        let mut from = self.voting_from[v];
        while from > r && !self.run_broken[v] {
            let below = from - 1;
            if below > 0 && self.round_votes(table, v, below, cand) {
                from = below;
            } else {
                self.run_broken[v] = true;
            }
        }
        self.voting_from[v] = from;
        // Below the run, `from - 1` is its break and does not vote.
        r >= from || (r + 1 < from && r > 0 && self.round_votes(table, v, r, cand))
    }

    /// Whether `v`'s block at round `r` votes for `cand` (one witness
    /// lookup).
    fn round_votes(&mut self, table: &DagInterpreter, v: usize, r: u32, cand: u32) -> bool {
        self.stats.witness_lookups += 1;
        self.vote_of(table, self.block_at(v, r)) == cand
    }

    /// Marks the closed past cone of the new finalized head. Heads only
    /// extend (the head's selected parent is the previous head), so the
    /// marked region grows in place and the DFS stops at a mark — genesis
    /// is marked from the start and never counted.
    fn mark_cone(&mut self, table: &DagInterpreter, head: u32) {
        self.stack.push(head);
        while let Some(b) = self.stack.pop() {
            let s = &mut self.seen[b as usize];
            if s.fin {
                continue;
            }
            s.fin = true;
            self.cone += 1;
            self.stack.extend_from_slice(table.parents_of(b));
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

    /// Table id of the highest finalized chain block (0, genesis, if none).
    pub fn finalized_head(&self) -> u32 {
        self.final_chain.last().copied().unwrap_or(0)
    }

    /// The finalized chain as table ids, height order.
    pub fn finalized_chain(&self) -> &[u32] {
        &self.final_chain
    }

    /// Removes and yields the caller ids
    /// ([`DagInterpreter::id_of`]) of the chain blocks finalized since
    /// the last drain, height order.
    pub fn drain_newly_final(&mut self) -> std::vec::Drain<'_, MsgId> {
        self.newly_final.drain(..)
    }

    /// Rolling digest over the finalized chain, mixed in height order
    /// from (author, round, caller id) — O(new tail) per advance and
    /// equal on any two views that finalized the same chain.
    pub fn finalized_digest(&self) -> u64 {
        self.digest
    }

    /// Number of blocks in the closed past cone of the finalized head
    /// (genesis excluded) — the finalized *prefix* of the DAG, which
    /// grows faster than the finalized chain itself.
    pub fn finalized_cone_blocks(&self) -> usize {
        self.cone
    }

    /// Whether table block `b` has been observed (genesis always has).
    pub fn is_observed(&self, b: u32) -> bool {
        self.seen.get(b as usize).is_some_and(|s| s.rank != 0)
    }

    /// Whether table block `b` is final: inside the closed past cone of
    /// the finalized head. Genesis is trivially final.
    pub fn is_final(&self, b: u32) -> bool {
        self.seen.get(b as usize).is_some_and(|s| s.fin)
    }

    /// Whether observed block `b`'s selected chain passes through the
    /// finalized head — the fork-choice filter an honest driver applies
    /// before voting. False for unobserved blocks.
    pub fn extends_finalized(&self, table: &DagInterpreter, b: u32) -> bool {
        self.is_observed(b) && table.votes_for(b, self.finalized_head())
    }

    /// True if a quorum ever backed a candidate conflicting with the
    /// finalized prefix — a safety breach (only reachable beyond the
    /// tolerated Byzantine fraction), reported instead of forking.
    pub fn conflict_detected(&self) -> bool {
        self.conflict
    }

    /// Number of authors caught equivocating so far.
    pub fn equivocator_count(&self) -> usize {
        self.equivocators
    }

    /// Whether an author has been caught equivocating.
    pub fn is_equivocator(&self, author: usize) -> bool {
        self.equiv[author]
    }

    /// Counts of (proposals, votes, echoes) over the observed blocks,
    /// genesis excluded.
    pub fn role_counts(&self) -> (usize, usize, usize) {
        self.roles
    }

    /// The first block observed for `(author, round)`; `round` is 1-based
    /// and must have been reached.
    pub fn block_at(&self, author: usize, round: u32) -> u32 {
        self.by_round[author][round as usize - 1]
    }

    /// Number of rounds of the author observed (0 = silent).
    pub fn rounds_of(&self, author: usize) -> u32 {
        self.by_round[author].len() as u32
    }

    /// The author's highest-round block, if any (first-observed at that
    /// round when equivocating).
    pub fn latest(&self, author: usize) -> Option<u32> {
        self.by_round[author].last().copied()
    }
}
