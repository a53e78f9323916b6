//! Block propagation over a faulty network (Algorithms 5/6 over `am-net`).
//!
//! On the abstract memory (`SharedLog`) a correct node's
//! view is a Δ-lagged prefix of the shared log. [`Propagation`] is the
//! other `Visibility`: an actual message-passing substrate — every
//! block is broadcast over an [`am_net::SimNet`] and a node's view is
//! exactly the set of blocks that *arrived* (closed under ancestors), so
//! latency, drops, duplication, and partitions directly shape the views.
//! The trial loops themselves live in [`crate::chain`] and [`crate::dag`].
//!
//! Under a fault-free low-latency profile the behaviour matches the
//! abstract model; as faults grow, correct nodes build on stale tips. The
//! chain *orphans* the resulting forks while the DAG *includes* them —
//! experiment E14 measures how the paper's chain-vs-DAG validity gap
//! responds (the exclusive chain degrades first, Theorems 5.4/5.6).
//!
//! Time base: one simulated second (one Δ at the default `delta = 1`)
//! is `1e9` ns on the network clock, so latency models are in ns and a
//! `Constant(50_000_000)` link is 0.05 Δ.

use crate::params::Params;
use crate::view::Visibility;
use am_core::{BlockStore, MsgId, NodeId, Time, GENESIS};
use am_net::{Kinded, NetConfig, NetScratch, NetStats, SimNet, Transport};

/// The gossip payload: a block reference (contents live in the shared
/// arrival log; the network only decides *when* each node learns of it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockMsg {
    /// The announced block.
    pub id: MsgId,
}

impl Kinded for BlockMsg {
    fn kind(&self) -> &'static str {
        "block"
    }
}

/// Converts protocol time (seconds) to network time (ns).
fn ns(t: Time) -> u64 {
    (t.seconds() * 1e9) as u64
}

/// A block-major bitmap over nodes: block `i`'s row is `stride = ⌈n/64⌉`
/// words and bit `node` of it is that node's flag, so registering a block
/// appends one row (one word at n ≤ 64) however many nodes there are.
#[derive(Default)]
struct BlockBits {
    stride: usize,
    words: Vec<u64>,
}

impl BlockBits {
    /// Empty, with rows sized for `n` nodes.
    fn reset(&mut self, n: usize) {
        self.stride = n.div_ceil(64);
        self.words.clear();
    }

    /// Appends a row with the first `set` nodes' bits on (bits ≥ `set`
    /// stay clear).
    fn push_row(&mut self, set: usize) {
        self.words
            .extend((0..self.stride).map(|w| match set.saturating_sub(64 * w) {
                0 => 0,
                k if k >= 64 => u64::MAX,
                k => (1u64 << k) - 1,
            }));
    }

    fn get(&self, block: usize, node: usize) -> bool {
        self.words[block * self.stride + node / 64] & (1 << (node % 64)) != 0
    }

    fn set(&mut self, block: usize, node: usize) {
        self.words[block * self.stride + node / 64] |= 1 << (node % 64);
    }

    fn unset(&mut self, block: usize, node: usize) {
        self.words[block * self.stride + node / 64] &= !(1 << (node % 64));
    }
}

/// An arrived block waiting for parents, with one parent it still lacks.
struct Pending {
    id: MsgId,
    /// A parent the node did not see when this entry was last checked:
    /// until that parent is admitted, the block cannot be.
    blocker: u32,
}

/// A block's bit in a [`NodeView::blocked_on`] mask: its id modulo 64.
fn id_bit(b: u64) -> u64 {
    1 << (b % 64)
}

/// One node's view: what it has admitted and what is waiting.
#[derive(Default)]
struct NodeView {
    /// Arrived blocks waiting for parents, in first-arrival order, each
    /// listed once.
    pending: Vec<Pending>,
    /// The [`id_bit`]s of the pending entries' blockers (and possibly
    /// of blockers since admitted): a block whose bit is clear here
    /// unblocks nothing.
    blocked_on: u64,
    /// Current tips (visible blocks with no visible child). Invariant:
    /// sorted ascending by id.
    tips: Vec<MsgId>,
    /// Max visible depth and the blocks achieving it. Invariant:
    /// `deepest` is sorted ascending by id.
    best_depth: u32,
    deepest: Vec<MsgId>,
    /// Maintained count of visible blocks (genesis included).
    visible_n: usize,
    /// Opt-in admission log: ids in the order they became visible.
    admitted: Vec<MsgId>,
    /// Rotating fanout cursor, seeded by node id so neighbour choices
    /// decorrelate across nodes without drawing randomness.
    rotor: usize,
}

/// Everything a [`Propagation`] keeps per block and per node. Pooled
/// across trials (see [`PropagationScratch`]): [`Tables::reset`] returns
/// it to the genesis-only state for the next trial's `n`, capacity kept.
#[derive(Default)]
struct Tables {
    /// Every block: parents, depth, and author (for pull repair).
    store: BlockStore,
    /// Which nodes see each block.
    visible: BlockBits,
    /// Which nodes hold each block in their pending list.
    waiting: BlockBits,
    /// Which nodes have heard each announcement (relay mode only; gates
    /// forward-on-first-hear).
    heard: BlockBits,
    nodes: Vec<NodeView>,
    /// The nodes whose admission logs are not empty, in the order their
    /// logs filled.
    admitting: Vec<u32>,
    /// Reused buffers for [`Propagation::flush_pending`] (the blocks one
    /// pass admitted, and the next pass's) and pull repair.
    ready_buf: Vec<MsgId>,
    fresh_buf: Vec<MsgId>,
    /// Pull repair's calls so far, and per block the last call that
    /// fetched it (0 = none).
    pulls: u32,
    wanted_in: Vec<u32>,
    /// Reused buffer for the O(active) delivery drain.
    active_buf: Vec<u32>,
    /// Reused recipient list of one announcement.
    announce_buf: Vec<u32>,
}

impl Tables {
    /// Genesis only, visible to (and, under relay, heard by) all `n`
    /// nodes; `rotor(v)` seeds node `v`'s fanout cursor.
    fn reset(&mut self, n: usize, relay: bool, rotor: impl Fn(usize) -> usize) {
        self.store.reset();
        self.pulls = 0;
        self.wanted_in.clear();
        self.visible.reset(n);
        self.visible.push_row(n);
        self.waiting.reset(n);
        self.waiting.push_row(0);
        self.heard.reset(n);
        if relay {
            self.heard.push_row(n);
        }
        self.admitting.clear();
        self.nodes.resize_with(n, NodeView::default);
        for (v, node) in self.nodes.iter_mut().enumerate() {
            node.pending.clear();
            node.blocked_on = 0;
            node.tips.clear();
            node.tips.push(GENESIS);
            node.best_depth = 0;
            node.deepest.clear();
            node.deepest.push(GENESIS);
            node.visible_n = 1;
            node.admitted.clear();
            node.rotor = rotor(v);
        }
    }
}

/// The first parent of `id` that `node` does not see, if any.
fn missing_parent(store: &BlockStore, visible: &BlockBits, node: usize, id: MsgId) -> Option<u32> {
    store
        .parents_of(id.index())
        .iter()
        .copied()
        .find(|&p| !visible.get(p as usize, node))
}

/// What a [`Propagation`] hands back when a trial is done — the network's
/// storage and the per-node tables — so the next trial on this thread
/// resets them instead of building them.
#[derive(Default)]
pub(crate) struct PropagationScratch {
    net: NetScratch<BlockMsg>,
    tables: Tables,
}

/// Per-node visibility of the growing block DAG, driven by deliveries
/// from a [`SimNet`].
///
/// A block becomes *visible* to a node only once all its parents are
/// visible (arrivals of orphan announcements are buffered) — views are
/// always ancestor-closed sub-DAGs, as required by both protocols.
pub struct Propagation {
    net: SimNet<BlockMsg>,
    t: Tables,
    /// Whether the per-node admission logs are kept: the BFT runners
    /// drain them to feed per-node finality views in delivery order; the
    /// Algorithm 5/6 runners leave them off.
    track_admitted: bool,
    /// Gossip fanout cap per announcement hop (`None` = full degree).
    fanout: usize,
    /// Whether relay forwarding is on: non-mesh topologies and
    /// fanout-limited meshes flood announcements hop by hop instead of
    /// relying on the author reaching everyone directly. Off on the
    /// legacy full-mesh path, which therefore stays bit-identical.
    relay: bool,
    obs_announced: &'static am_obs::Counter,
}

impl Propagation {
    /// A propagation layer for `n` nodes over `cfg`, seeded.
    pub fn new(n: usize, cfg: &NetConfig, seed: u64) -> Propagation {
        Propagation::with_scratch(n, cfg, seed, PropagationScratch::default())
    }

    /// Like [`Self::new`], but recycling a previous trial's storage.
    /// Bit-identical to a fresh build; only allocation behaviour differs.
    pub(crate) fn with_scratch(
        n: usize,
        cfg: &NetConfig,
        seed: u64,
        scratch: PropagationScratch,
    ) -> Propagation {
        let net = cfg.build_net_with_scratch(n, seed, scratch.net);
        let relay = cfg.fanout.is_some() || !net.topology().is_mesh();
        let mut t = scratch.tables;
        t.reset(n, relay, |v| {
            let deg = net.topology().degree(v);
            if deg == 0 {
                0
            } else {
                v % deg
            }
        });
        Propagation {
            net,
            t,
            track_admitted: false,
            fanout: cfg.fanout.unwrap_or(usize::MAX),
            relay,
            obs_announced: am_obs::static_counter!("protocols.blocks_announced"),
        }
    }

    /// Tears the layer down, returning its storage for reuse by the next
    /// trial on this thread.
    pub(crate) fn into_scratch(self) -> PropagationScratch {
        PropagationScratch {
            net: self.net.into_scratch(),
            tables: self.t,
        }
    }

    /// Registers a freshly appended block and broadcasts its announcement
    /// from `author` (who sees it instantly). Call [`Self::advance_to`]
    /// with the append time first so fault windows line up.
    pub fn on_append(&mut self, author: usize, id: MsgId, parents: &[MsgId], at: Time) {
        let idx = id.index();
        let t = &mut self.t;
        debug_assert_eq!(idx, t.store.len(), "appends must arrive in id order");
        let by = NodeId(author as u32);
        t.store.push(by, parents.iter().map(|p| p.0 as u32), at);
        let d = t.store.depth_of(idx);
        t.visible.push_row(0);
        t.waiting.push_row(0);
        if self.relay {
            t.heard.push_row(0);
            t.heard.set(idx, author);
        }
        self.obs_announced.inc();
        am_obs::event("protocols/block_appended", author, ns(at), || {
            format!("block {idx} depth {d}")
        });
        self.mark_visible(author, id);
        // On the full-mesh default the announce below reproduces the
        // legacy `for to in 0..n if to != author` loop exactly (mesh
        // neighbour order is 0..n skipping self, fanout is unlimited).
        self.announce_from(author, usize::MAX, id);
    }

    /// Gossips `id` from `node` to up to `fanout` of its topology
    /// neighbours (skipping `skip`, the peer it was heard from). The
    /// rotating per-node cursor spreads fanout-limited announcements
    /// across the neighbourhood without consuming randomness, keeping
    /// trials deterministic per seed.
    fn announce_from(&mut self, node: usize, skip: usize, id: MsgId) {
        let topo = self.net.topology();
        let deg = topo.degree(node);
        let to = &mut self.t.announce_buf;
        to.clear();
        if self.fanout >= deg {
            to.extend(
                (0..deg)
                    .map(|i| topo.neighbor(node, i))
                    .filter(|&v| v != skip)
                    .map(|v| v as u32),
            );
        } else {
            let rotor = &mut self.t.nodes[node].rotor;
            let start = *rotor;
            *rotor = (start + self.fanout) % deg;
            to.extend(
                (0..deg)
                    .map(|i| topo.neighbor(node, (start + i) % deg))
                    .filter(|&v| v != skip)
                    .take(self.fanout)
                    .map(|v| v as u32),
            );
        }
        // One parcel for the whole announcement; each copy still takes
        // the send path on its own, in this order.
        self.net.multicast(node, to, BlockMsg { id });
    }

    /// Delivers everything scheduled up to `at` and folds the arrivals
    /// into per-node views. Iterates only nodes that actually received
    /// something (O(active), not O(n)); in relay mode, forwarded
    /// announcements that land within the window are delivered too.
    pub fn advance_to(&mut self, at: Time) {
        let target = ns(at);
        self.net.advance_until(target);
        while self.drain_deliveries() {
            self.net.advance_until(target);
        }
    }

    /// Drains every remaining in-flight announcement (used before the
    /// final common read in tests; the protocols decide on the shared log,
    /// so the runners themselves don't need it).
    pub fn settle(&mut self) {
        self.drain_deliveries();
        while self.net.advance() {
            self.drain_deliveries();
        }
    }

    /// Delivers every arrived message, visiting only nodes with fresh
    /// arrivals (ascending, matching the legacy full `0..n` scan order on
    /// the nodes it visits). Returns whether anything was delivered.
    fn drain_deliveries(&mut self) -> bool {
        let mut active = std::mem::take(&mut self.t.active_buf);
        self.net.drain_arrived_nodes(&mut active);
        let any = !active.is_empty();
        for &node in active.iter() {
            let node = node as usize;
            while let Some(env) = self.net.deliver(node) {
                self.try_admit(node, env.from, env.payload.id);
            }
        }
        self.t.active_buf = active;
        any
    }

    fn try_admit(&mut self, node: usize, from: usize, id: MsgId) {
        if self.relay && !self.t.heard.get(id.index(), node) {
            // First hear: forward to this node's own neighbourhood before
            // the visibility check — gossip relays propagate
            // announcements even while the block's parents are missing.
            self.t.heard.set(id.index(), node);
            self.announce_from(node, from, id);
        }
        // A duplicate delivery, or a block delivered again while it
        // waits: the pending entry is earlier and on the same blocker
        // (its first missing parent), so a second one would change nothing.
        if self.t.visible.get(id.index(), node) || self.t.waiting.get(id.index(), node) {
            return;
        }
        match missing_parent(&self.t.store, &self.t.visible, node, id) {
            None => {
                self.mark_visible(node, id);
                self.flush_pending(node, id);
            }
            Some(blocker) => {
                self.t.waiting.set(id.index(), node);
                let view = &mut self.t.nodes[node];
                view.pending.push(Pending { id, blocker });
                view.blocked_on |= id_bit(u64::from(blocker));
            }
        }
    }

    /// Admits, pass by pass, the pending blocks that `id`'s admission
    /// unblocks. A pass admits, in pending order, every pending block
    /// whose parents the node saw once the pass before it was done (the
    /// first pass: once `id` was). No pending block is admissible before
    /// `id` is, and a block lacking a parent stays blocked until that
    /// parent is admitted, so each pass checks only the entries blocked
    /// on a block the pass before it admitted, and re-blocks the ones
    /// still lacking a parent on that parent. A pass whose blocks no
    /// entry can be blocked on ([`NodeView::blocked_on`]) is skipped.
    fn flush_pending(&mut self, node: usize, id: MsgId) {
        if self.t.nodes[node].blocked_on & id_bit(id.0) == 0 {
            return;
        }
        let mut fresh = std::mem::take(&mut self.t.fresh_buf);
        let mut ready = std::mem::take(&mut self.t.ready_buf);
        fresh.clear();
        fresh.push(id);
        loop {
            let Tables {
                store,
                visible,
                nodes,
                ..
            } = &mut self.t;
            let view = &mut nodes[node];
            let mut blocked_on = 0;
            ready.clear();
            view.pending.retain_mut(|w| {
                if fresh.iter().any(|f| f.0 == u64::from(w.blocker)) {
                    match missing_parent(store, visible, node, w.id) {
                        Some(blocker) => w.blocker = blocker,
                        None => {
                            ready.push(w.id);
                            return false;
                        }
                    }
                }
                blocked_on |= id_bit(u64::from(w.blocker));
                true
            });
            view.blocked_on = blocked_on;
            fresh.clear();
            for &id in &ready {
                // Pending entries are distinct and never visible.
                debug_assert!(!self.t.visible.get(id.index(), node));
                self.t.waiting.unset(id.index(), node);
                self.mark_visible(node, id);
                fresh.push(id);
            }
            if !fresh.iter().any(|f| blocked_on & id_bit(f.0) != 0) {
                break;
            }
        }
        self.t.fresh_buf = fresh;
        self.t.ready_buf = ready;
    }

    fn mark_visible(&mut self, node: usize, id: MsgId) {
        let idx = id.index();
        let t = &mut self.t;
        t.visible.set(idx, node);
        let parents = t.store.parents_of(idx);
        let d = t.store.depth_of(idx);
        let view = &mut t.nodes[node];
        view.visible_n += 1;
        if self.track_admitted {
            if view.admitted.is_empty() {
                t.admitting.push(node as u32);
            }
            view.admitted.push(id);
        }
        // `retain` preserves order, so the sorted invariant survives the
        // parent eviction; the insert below restores it for the new tip.
        view.tips.retain(|t| !parents.contains(&(t.0 as u32)));
        if let Err(pos) = view.tips.binary_search(&id) {
            view.tips.insert(pos, id);
        }
        match d.cmp(&view.best_depth) {
            std::cmp::Ordering::Greater => {
                view.best_depth = d;
                view.deepest.clear();
                view.deepest.push(id);
            }
            std::cmp::Ordering::Equal => {
                if let Err(pos) = view.deepest.binary_search(&id) {
                    view.deepest.insert(pos, id);
                }
            }
            std::cmp::Ordering::Less => {}
        }
    }

    /// The tips of `node`'s visible sub-DAG, sorted by id (what an
    /// Algorithm 6 append references). Borrowed from the maintained
    /// sorted invariant — no clone, no sort.
    pub fn visible_tips(&self, node: usize) -> &[MsgId] {
        let tips = &self.t.nodes[node].tips;
        debug_assert!(tips.is_sorted(), "tips invariant violated");
        tips
    }

    /// The deepest visible blocks of `node`, sorted by id — the longest
    /// chains of its view (Algorithm 5 line 6; index 0 is the
    /// deterministic "first in memory" tie-break winner). Borrowed from
    /// the maintained sorted invariant — no clone, no sort.
    pub fn deepest_visible(&self, node: usize) -> &[MsgId] {
        let deepest = &self.t.nodes[node].deepest;
        debug_assert!(deepest.is_sorted(), "deepest invariant violated");
        deepest
    }

    /// How many blocks (genesis included) `node` can see. O(1) — a
    /// maintained counter, not a bitmap scan.
    pub fn visible_count(&self, node: usize) -> usize {
        debug_assert_eq!(self.t.nodes[node].visible_n, self.visible_count_scan(node));
        self.t.nodes[node].visible_n
    }

    /// [`Self::visible_count`] by scanning the bitmap (the `debug_assert!`
    /// reference for the maintained counter).
    pub fn visible_count_scan(&self, node: usize) -> usize {
        (0..self.t.store.len())
            .filter(|&b| self.t.visible.get(b, node))
            .count()
    }

    /// Turns the per-node admission log on (call before the first
    /// append). Off by default — the Algorithm 5/6 runners pay nothing.
    pub fn set_track_admitted(&mut self, on: bool) {
        self.track_admitted = on;
    }

    /// Hands `feed` every node that admitted blocks since the last drain,
    /// with those blocks in admission order (a node's own appends aside,
    /// parents precede children), and empties the logs. Nodes that
    /// admitted nothing are skipped. Requires
    /// [`Self::set_track_admitted`].
    pub fn drain_admitted(&mut self, mut feed: impl FnMut(usize, &[MsgId])) {
        debug_assert!(self.track_admitted, "admission log is off");
        let Tables {
            nodes, admitting, ..
        } = &mut self.t;
        for &node in admitting.iter() {
            let log = &mut nodes[node as usize].admitted;
            feed(node as usize, log);
            log.clear();
        }
        admitting.clear();
    }

    /// Opt-in pull repair (the finality runners call it; Algorithm 5/6
    /// runners never do, so their delivery traces are untouched): every
    /// block parked in `node`'s pending queue re-requests its missing
    /// parents from their authors — the parent-fetch a deployed BlockDAG
    /// performs when it sees a dangling reference. The refetched
    /// announcement travels the normal faulty wire (it can be dropped or
    /// partitioned away again; the request itself is not modelled), and
    /// idempotent admission absorbs duplicate copies. Deep gaps converge
    /// iteratively: a fetched parent with missing parents of its own
    /// parks in pending and is repaired on a later call. Returns the
    /// number of fetches issued.
    pub fn pull_missing_parents(&mut self, node: usize) -> usize {
        let t = &mut self.t;
        let mut wanted = std::mem::take(&mut t.ready_buf);
        wanted.clear();
        // Each missing parent is fetched once, at its first mention: a
        // block is wanted already iff it carries this call's stamp.
        t.pulls += 1;
        t.wanted_in.resize(t.store.len(), 0);
        for w in &t.nodes[node].pending {
            for &p in t.store.parents_of(w.id.index()) {
                let stamp = &mut t.wanted_in[p as usize];
                if *stamp != t.pulls && !t.visible.get(p as usize, node) {
                    *stamp = t.pulls;
                    wanted.push(MsgId(u64::from(p)));
                }
            }
        }
        let fetched = wanted.len();
        for &p in &wanted {
            // A node always sees its own appends instantly, so a missing
            // block's author is never the requester; genesis is never
            // missing.
            let author = t.store.author_of(p.index()).expect("not genesis");
            self.net.send(author.index(), node, BlockMsg { id: p });
        }
        wanted.clear();
        t.ready_buf = wanted;
        fetched
    }

    /// The network's observability data.
    pub fn stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// Moves the network's observability data out of a layer that is done
    /// (see [`SimNet::take_stats`]).
    pub fn take_stats(&mut self) -> NetStats {
        self.net.take_stats()
    }
}

impl Visibility for Propagation {
    fn advance_to(&mut self, at: Time, _log: &BlockStore) {
        Propagation::advance_to(self, at);
    }

    fn published(&mut self, author: usize, id: MsgId, parents: &[MsgId], at: Time) {
        self.on_append(author, id, parents, at);
    }

    fn tips_into(&mut self, node: usize, _log: &BlockStore, out: &mut Vec<MsgId>) {
        // Copied out because the append that follows mutates the layer
        // the slice borrows from.
        out.clear();
        out.extend_from_slice(self.visible_tips(node));
    }

    fn deepest<'a>(&'a mut self, node: usize, _log: &BlockStore) -> &'a [MsgId] {
        self.deepest_visible(node)
    }
}

/// Runs `trial`, inside the obs span `span`, over a gossip layer for `p`
/// on `cfg` — pooled storage (network and tables), wire randomness on its
/// own `seed ^ 0x6e57_c0de` stream so the grant schedule is untouched —
/// and returns its outcome. A trial whose caller keeps the network
/// statistics ends with [`Propagation::take_stats`]; otherwise their
/// tables go back to the pool with the rest of the layer.
pub(crate) fn over_wire<T>(
    span: &'static str,
    p: &Params,
    cfg: &NetConfig,
    trial: impl FnOnce(&mut Propagation) -> T,
) -> T {
    let _span = am_obs::span(span);
    let mut prop =
        Propagation::with_scratch(p.n, cfg, p.seed ^ 0x6e57_c0de, crate::scratch::take_prop());
    let out = trial(&mut prop);
    crate::scratch::put_prop(prop.into_scratch());
    out
}

#[cfg(test)]
mod tests {
    //! The maintained views are held to rescans of the bitmaps, on fresh
    //! layers and on layers recycled through one [`PropagationScratch`]
    //! across n = 5 → 70 → 5 (n = 70 gives two-word bitmap rows). Checked
    //! to catch, each on its own:
    //!
    //! * a row stride taken from the previous trial's n;
    //! * a genesis row that sets bits at or above n;
    //! * `heard` not cleared on reset (the n = 70 ring stops flooding);
    //! * `visible_n` not reset.
    //!
    //! The admission log of one node is held to a full rescan of its
    //! pending list per pass, which catches, each on its own: a pending
    //! entry not re-blocked on the parent it still lacks, a blocker's bit
    //! left out of `blocked_on`, and a flush that stops after one pass.
    //!
    //! The benchmark's networked points (`sweep_net`'s two configs and
    //! `bft_finality`'s lossy one) are held to an event queue that never
    //! schedules into its calendar (checked against a queue that sends
    //! every event there).
    use super::*;
    use crate::{
        run_chain_net, run_dag_net, BftAdversary, ChainAdversary, DagAdversary, DagRule, Params,
        TieBreak,
    };
    use am_net::{LatencyModel, NetConfigBuilder, Topology};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// 0.01 Δ constant latency — effectively the synchronous ideal —
    /// with the delivery trace on; tests chain the fault under study.
    fn fast() -> NetConfigBuilder {
        NetConfig::builder()
            .latency(LatencyModel::Constant(10_000_000))
            .trace(true)
    }

    #[test]
    fn visibility_is_ancestor_closed_under_reordering() {
        // Child announced over a fast link, parent over a slow one: the
        // child must stay buffered until the parent arrives.
        let mut prop = Propagation::new(3, &NetConfig::ideal(LatencyModel::Constant(0)), 1);
        prop.net
            .set_link_latency(0, 2, LatencyModel::Constant(1_000));
        prop.net.set_link_latency(1, 2, LatencyModel::Constant(10));
        let a = MsgId(1); // by node 0, slow to reach node 2
        let b = MsgId(2); // by node 1 on top of a, fast to reach node 2
        prop.on_append(0, a, &[GENESIS], Time::ZERO);
        prop.advance_to(Time::new(1e-9 * 5.0));
        prop.on_append(1, b, &[a], Time::new(1e-9 * 5.0));
        prop.advance_to(Time::new(1e-9 * 100.0));
        assert_eq!(prop.visible_count(2), 1, "b arrived but a hasn't: buffered");
        assert_eq!(prop.visible_tips(2), vec![GENESIS]);
        prop.advance_to(Time::new(1e-9 * 2000.0));
        assert_eq!(prop.visible_count(2), 3, "a arrived, unlocking b");
        assert_eq!(prop.visible_tips(2), vec![b]);
        assert_eq!(prop.deepest_visible(2), vec![b]);
    }

    #[test]
    fn a_parentless_block_has_depth_zero_like_genesis() {
        // One depth rule for every DAG: roots have depth 0, so a block
        // that lists no parent ties with genesis instead of outranking it.
        let mut prop = Propagation::new(2, &NetConfig::ideal(LatencyModel::Constant(0)), 1);
        prop.on_append(0, MsgId(1), &[], Time::ZERO);
        assert_eq!(prop.deepest_visible(0), vec![GENESIS, MsgId(1)]);
        assert_eq!(prop.visible_tips(0), vec![GENESIS, MsgId(1)]);
    }

    /// The from-scratch references the maintained invariants are checked
    /// against.
    impl Propagation {
        /// Reference for [`Propagation::visible_tips`]: recomputes the tip
        /// set from the raw visibility bitmap.
        fn visible_tips_rescan(&self, node: usize) -> Vec<MsgId> {
            let vis = self.visible_row(node);
            let mut is_tip = vis.clone();
            for (idx, &seen) in vis.iter().enumerate() {
                if seen {
                    for &p in self.t.store.parents_of(idx) {
                        is_tip[p as usize] = false;
                    }
                }
            }
            (0..vis.len())
                .filter(|&i| vis[i] && is_tip[i])
                .map(|i| MsgId(i as u64))
                .collect()
        }

        /// Reference for [`Propagation::deepest_visible`]: rescans the bitmap
        /// for the maximum visible depth and its achievers.
        fn deepest_visible_rescan(&self, node: usize) -> Vec<MsgId> {
            let vis = self.visible_row(node);
            let best = (0..vis.len())
                .filter(|&i| vis[i])
                .map(|i| self.t.store.depth_of(i))
                .max()
                .unwrap_or(0);
            (0..vis.len())
                .filter(|&i| vis[i] && self.t.store.depth_of(i) == best)
                .map(|i| MsgId(i as u64))
                .collect()
        }

        /// Node `node`'s column of the visibility bitmap, one flag per
        /// block.
        fn visible_row(&self, node: usize) -> Vec<bool> {
            (0..self.t.store.len())
                .map(|b| self.t.visible.get(b, node))
                .collect()
        }

        /// No bitmap row carries a bit for a node that does not exist.
        fn rows_fit(&self, n: usize) -> bool {
            let fits = |bits: &BlockBits| {
                bits.stride == n.div_ceil(64)
                    && bits.words.chunks(bits.stride).all(|row| {
                        row.iter().enumerate().all(|(w, &word)| {
                            let live = n.saturating_sub(64 * w).min(64);
                            live == 64 || word >> live == 0
                        })
                    })
            };
            fits(&self.t.visible) && fits(&self.t.heard) && fits(&self.t.waiting)
        }
    }

    /// One lossy, reordering run at `n` on recycled storage, checking
    /// after every advance that the maintained sorted tips/deepest and the
    /// O(1) visible counter agree with full rescans of the bitmaps (the
    /// old implementation's semantics). Returns the storage and every
    /// node's final tips.
    fn invariants_under_faults(
        n: usize,
        seed: u64,
        scratch: PropagationScratch,
    ) -> (PropagationScratch, Vec<Vec<MsgId>>) {
        let cfg = NetConfig::builder()
            .latency(LatencyModel::Uniform {
                lo: 10_000_000,
                hi: 900_000_000,
            })
            .drop(0.25)
            .dup(0.15)
            .build()
            .unwrap();
        let mut prop = Propagation::with_scratch(n, &cfg, seed, scratch);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut known: Vec<MsgId> = vec![GENESIS];
        let check = |prop: &Propagation, at: &str| {
            assert!(prop.rows_fit(n), "bitmap rows overhang n ({at})");
            for node in 0..n {
                assert_eq!(
                    prop.visible_tips(node),
                    prop.visible_tips_rescan(node),
                    "tips diverged from rescan ({at} node {node})"
                );
                assert_eq!(
                    prop.deepest_visible(node),
                    prop.deepest_visible_rescan(node),
                    "deepest diverged from rescan ({at} node {node})"
                );
                assert_eq!(
                    prop.visible_count(node),
                    prop.visible_count_scan(node),
                    "visible count ({at} node {node})"
                );
                // The waiting bits are the pending list, which lists a
                // block at most once.
                let waiting: Vec<MsgId> = (0..prop.t.store.len())
                    .filter(|&b| prop.t.waiting.get(b, node))
                    .map(|b| MsgId(b as u64))
                    .collect();
                let mut pending: Vec<MsgId> =
                    prop.t.nodes[node].pending.iter().map(|w| w.id).collect();
                pending.sort_unstable();
                assert_eq!(waiting, pending, "waiting bits ({at} node {node})");
            }
        };
        for step in 1..=60u64 {
            let at = Time::new(step as f64 * 0.05);
            prop.advance_to(at);
            let author = rng.gen_range(0..n);
            // Parent set: 1-2 random blocks *visible to the author*
            // (the protocol invariant: a node only references its own
            // view). Remote nodes still receive children before
            // parents thanks to the latency spread.
            let vis: Vec<MsgId> = known
                .iter()
                .copied()
                .filter(|id| prop.t.visible.get(id.index(), author))
                .collect();
            let mut parents = vec![vis[rng.gen_range(0..vis.len())]];
            if vis.len() > 2 && rng.gen_bool(0.5) {
                let extra = vis[rng.gen_range(0..vis.len())];
                if !parents.contains(&extra) {
                    parents.push(extra);
                }
            }
            let id = MsgId(step);
            prop.on_append(author, id, &parents, at);
            known.push(id);
            check(&prop, &format!("n {n} seed {seed} step {step}"));
        }
        prop.settle();
        check(&prop, &format!("n {n} seed {seed} settled"));
        let tips = (0..n).map(|v| prop.visible_tips(v).to_vec()).collect();
        (prop.into_scratch(), tips)
    }

    #[test]
    fn maintained_invariants_match_rescans_under_faults() {
        // Each seed fresh, then twice through one pool that a two-word
        // n = 70 trial dirties in between: the recycled runs must pass
        // the same checks and end exactly where the fresh one does.
        let mut pool = PropagationScratch::default();
        for seed in 0..6u64 {
            let (_, fresh) = invariants_under_faults(5, seed, PropagationScratch::default());
            for n in [5, 70, 5] {
                let (back, tips) = invariants_under_faults(n, seed, pool);
                pool = back;
                if n == 5 {
                    assert_eq!(tips, fresh, "seed {seed}: pooled run diverged from fresh");
                }
            }
        }
    }

    /// Reference for the admission log of one node: every delivery in
    /// `deliveries` order, and after each admission a full rescan of the
    /// pending list, pass by pass, until a pass admits nothing.
    fn admission_rescan(store: &BlockStore, deliveries: &[MsgId]) -> Vec<MsgId> {
        let mut visible = vec![false; store.len()];
        visible[0] = true;
        let ready = |visible: &[bool], id: MsgId| {
            store
                .parents_of(id.index())
                .iter()
                .all(|&p| visible[p as usize])
        };
        let (mut pending, mut log) = (Vec::new(), Vec::new());
        for &id in deliveries {
            if visible[id.index()] {
                continue;
            }
            if !ready(&visible, id) {
                pending.push(id);
                continue;
            }
            visible[id.index()] = true;
            log.push(id);
            loop {
                let pass: Vec<MsgId> = pending
                    .iter()
                    .copied()
                    .filter(|&d| ready(&visible, d))
                    .collect();
                if pass.is_empty() {
                    break;
                }
                pending.retain(|d| !pass.contains(d));
                for d in pass {
                    if !visible[d.index()] {
                        visible[d.index()] = true;
                        log.push(d);
                    }
                }
            }
        }
        log
    }

    #[test]
    fn admission_order_matches_a_full_rescan() {
        // Node 0 never authors; every block reaches it through
        // `try_admit` in a shuffled order, some twice, some never, so
        // blocks park on missing parents, unblock in cascades several
        // passes deep and arrive again while they wait. Ids run past 64,
        // so blockers share `blocked_on` bits.
        let mut admitted = 0;
        for seed in 0..40u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut prop = Propagation::new(2, &NetConfig::ideal(LatencyModel::Constant(0)), 1);
            prop.set_track_admitted(true);
            let blocks = 150u64;
            for id in 1..=blocks {
                let mut parents = vec![MsgId(rng.gen_range(0..id))];
                for _ in 0..rng.gen_range(0..3) {
                    let p = MsgId(rng.gen_range(id.saturating_sub(8)..id));
                    if !parents.contains(&p) {
                        parents.push(p);
                    }
                }
                prop.on_append(1, MsgId(id), &parents, Time::ZERO);
            }
            let mut deliveries: Vec<MsgId> = (1..=blocks)
                .flat_map(|id| {
                    let copies = if rng.gen_bool(0.02) {
                        0
                    } else {
                        rng.gen_range(1..3)
                    };
                    std::iter::repeat_n(MsgId(id), copies)
                })
                .collect();
            for i in (1..deliveries.len()).rev() {
                deliveries.swap(i, rng.gen_range(0..=i));
            }
            for &id in &deliveries {
                prop.try_admit(0, 1, id);
            }
            let mut log = Vec::new();
            prop.drain_admitted(|node, ids| {
                if node == 0 {
                    log.extend_from_slice(ids);
                }
            });
            assert_eq!(
                log,
                admission_rescan(&prop.t.store, &deliveries),
                "seed {seed}"
            );
            admitted += log.len();
        }
        assert!(admitted > 40 * 50, "too little was admitted: {admitted}");
    }

    #[test]
    fn fault_free_chain_decides_plus() {
        for seed in 0..5 {
            let p = Params::new(8, 2, 0.5, 15, seed);
            let (out, stats) = run_chain_net(
                &p,
                TieBreak::Randomized,
                ChainAdversary::Absent,
                &fast().build().unwrap(),
            );
            assert!(out.validity, "seed {seed}");
            assert!(out.chain_len >= p.k);
            assert!(stats.totals().sent > 0);
            assert_eq!(stats.totals().dropped, 0);
        }
    }

    #[test]
    fn fault_free_dag_decides_plus() {
        for seed in 0..5 {
            let p = Params::new(8, 2, 0.5, 15, seed);
            let (out, _) = run_dag_net(
                &p,
                DagRule::LongestChain,
                DagAdversary::Absent,
                &fast().build().unwrap(),
            );
            assert!(out.validity, "seed {seed}");
            assert!(out.covered_values >= p.k);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Params::new(10, 3, 0.5, 21, 99);
        let profile = fast().drop(0.1).build().unwrap();
        let (a, sa) = run_chain_net(
            &p,
            TieBreak::Randomized,
            ChainAdversary::TieBreaker,
            &profile,
        );
        let (b, sb) = run_chain_net(
            &p,
            TieBreak::Randomized,
            ChainAdversary::TieBreaker,
            &profile,
        );
        assert_eq!(a, b);
        assert_eq!(sa.trace(), sb.trace());
    }

    #[test]
    fn drops_orphan_the_chain_but_not_the_dag() {
        // At a heavy drop rate correct nodes miss each other's blocks and
        // fork; the chain wastes those appends, while the DAG's inclusive
        // references recover most of them whenever views re-merge.
        let mut chain_kept = 0.0;
        let mut dag_kept = 0.0;
        let mut chain_orphans = 0usize;
        let trials = 8;
        for seed in 0..trials {
            let p = Params::new(8, 0, 0.5, 15, seed);
            let profile = fast().drop(0.4).build().unwrap();
            let (c, _) = run_chain_net(&p, TieBreak::Randomized, ChainAdversary::Absent, &profile);
            chain_orphans += c.orphaned_correct;
            chain_kept += c.chain_len as f64 / c.total_appends as f64;
            let (d, _) = run_dag_net(&p, DagRule::LongestChain, DagAdversary::Absent, &profile);
            dag_kept += d.covered_values as f64 / d.total_appends as f64;
        }
        let (chain_kept, dag_kept) = (chain_kept / trials as f64, dag_kept / trials as f64);
        assert!(
            chain_orphans > trials as usize,
            "40% drops must orphan chain appends, got {chain_orphans}"
        );
        assert!(
            dag_kept > chain_kept + 0.1,
            "the DAG must include clearly more appends than the chain keeps: \
             dag {dag_kept:.3} vs chain {chain_kept:.3}"
        );
    }

    #[test]
    fn partition_forks_both_sides_then_heals() {
        // A long partition makes the halves build privately; the DAG
        // still covers nearly everything once views merge.
        let p = Params::new(8, 0, 0.5, 15, 3);
        let profile = fast().partition(0, 20_000_000_000).build().unwrap(); // 20 Δ
        let (d, stats) = run_dag_net(&p, DagRule::LongestChain, DagAdversary::Absent, &profile);
        assert!(stats.totals().dropped > 0, "the partition must cut traffic");
        assert!(d.validity, "an adversary-free DAG stays valid across heal");
    }

    /// One block flooded around a degree-2 ring of `n` nodes on recycled
    /// storage; returns the storage.
    fn flood_ring(n: usize, scratch: PropagationScratch) -> PropagationScratch {
        let cfg = NetConfig::builder()
            .latency(LatencyModel::Constant(10_000_000))
            .topology(Topology::Relay { k: 2 })
            .trace(true)
            .build()
            .unwrap();
        let mut prop = Propagation::with_scratch(n, &cfg, 7, scratch);
        prop.on_append(0, MsgId(1), &[GENESIS], Time::ZERO);
        prop.settle();
        for node in 0..n {
            assert_eq!(
                prop.visible_count(node),
                2,
                "n {n}: node {node} missed the block"
            );
        }
        assert!(prop.rows_fit(n), "n {n}: bitmap rows overhang n");
        // The author itself only reached its 2 ring neighbours; the rest
        // of the coverage came from forwards (n-1 first-hears, each
        // forwarding to ≤ 2 peers).
        let sent = prop.stats().kind("block").sent;
        assert!(sent >= (n as u64 - 1), "flood must fan out, sent {sent}");
        assert!(
            sent <= 2 * n as u64,
            "degree-2 flood is bounded, sent {sent}"
        );
        prop.into_scratch()
    }

    #[test]
    fn relay_topology_floods_via_forwarding() {
        // On a degree-2 ring an announcement reaches non-neighbours only
        // by relay forwarding — every node must still converge, also on
        // pooled two-word rows that a previous flood left dirty.
        let mut pool = flood_ring(10, PropagationScratch::default());
        for _ in 0..2 {
            pool = flood_ring(70, pool);
        }
    }

    #[test]
    fn fanout_limited_mesh_still_converges() {
        let n = 12;
        let cfg = NetConfig::builder()
            .latency(LatencyModel::Constant(10_000_000))
            .fanout(4)
            .trace(true)
            .build()
            .unwrap();
        let mut prop = Propagation::new(n, &cfg, 3);
        for step in 1..=5u64 {
            let at = Time::new(step as f64 * 0.1);
            prop.advance_to(at);
            let author = (step as usize * 5) % n;
            let parents: Vec<MsgId> = prop.visible_tips(author).to_vec();
            prop.on_append(author, MsgId(step), &parents, at);
        }
        prop.settle();
        for node in 0..n {
            assert_eq!(
                prop.visible_count(node),
                6,
                "node {node} missed blocks under fanout-limited gossip"
            );
        }
        // Each node announces a block at most once (author or first
        // hear), with at most `fanout` sends per announcement.
        let sent = prop.stats().kind("block").sent;
        assert!(
            sent <= 5 * n as u64 * 4,
            "fanout must cap per-hop sends, got {sent}"
        );
    }

    #[test]
    fn geo_topology_converges_and_marks_regions() {
        let n = 24;
        let cfg = NetConfig::builder()
            .latency(LatencyModel::Constant(5_000_000))
            .topology(Topology::Geo {
                regions: 4,
                k: 4,
                inter: LatencyModel::Constant(80_000_000),
            })
            .build()
            .unwrap();
        let mut prop = Propagation::new(n, &cfg, 11);
        prop.on_append(5, MsgId(1), &[GENESIS], Time::ZERO);
        prop.settle();
        for node in 0..n {
            assert_eq!(prop.visible_count(node), 2);
        }
    }

    #[test]
    fn networked_benchmark_points_never_reach_the_calendar() {
        // The benchmark's networked points, all on a Δ/20 constant wire:
        // `sweep_net`'s n = 12, λ = 0.5, k = 21 chain and DAG trials that
        // drop a fifth of their messages or are partitioned for [0, 5Δ),
        // and `bft_finality`'s n = 12, t = 3, λ = 0.5, k = 9 equivocator
        // trial that drops a tenth (pull repair included). A constant
        // latency schedules every event at `now + Δ/20` with `now` never
        // decreasing, so keys never decrease and each event takes the
        // queue's in-order run: the calendar's cost cannot reach these
        // workloads — only spread latencies (`gossip_scale`) pay it.
        let delta_ns = 1_000_000_000;
        let wire = || NetConfig::builder().latency(LatencyModel::Constant(delta_ns / 20));
        let trials =
            |base: Params| (0..24).map(move |i| base.with_seed(crate::trial_seed(base.seed, i)));
        let configs = [
            wire().drop(0.2).build().unwrap(),
            wire().partition(0, 5 * delta_ns).build().unwrap(),
        ];
        for cfg in &configs {
            for p in trials(Params::new(12, 4, 0.5, 21, 11 ^ 0x14).with_net(*cfg)) {
                for dag in [false, true] {
                    let mut prop = Propagation::new(p.n, cfg, p.seed ^ 0x6e57_c0de);
                    if dag {
                        let (rule, adv) = (DagRule::LongestChain, DagAdversary::WithholdBurst);
                        crate::dag::run_dag_on(&p, rule, adv, &mut prop);
                    } else {
                        let (tie, adv) = (TieBreak::Randomized, ChainAdversary::TieBreaker);
                        crate::chain::run_chain_on(&p, tie, adv, &mut prop);
                    }
                    prop.settle();
                    let reached = prop.net.queue_calendar_scheduled();
                    assert_eq!(reached, 0, "seed {} (dag: {dag}) under {cfg:?}", p.seed);
                    assert!(prop.stats().totals().delivered > 0);
                }
            }
        }
        let lossy = wire().drop(0.1).build().unwrap();
        for p in trials(Params::new(12, 3, 0.5, 9, 11 ^ 0x15).with_net(lossy)) {
            let mut prop = Propagation::new(p.n, &lossy, p.seed ^ 0x6e57_c0de);
            crate::bft::net_summary(&p, BftAdversary::Equivocator, &mut prop);
            let reached = prop.net.queue_calendar_scheduled();
            assert_eq!(reached, 0, "bft seed {}", p.seed);
            let totals = prop.stats().totals();
            assert!(totals.delivered > 0 && totals.dropped > 0);
        }
    }
}
