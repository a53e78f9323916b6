//! Algorithms 2 and 3: the ABD-style simulation of `M.append` / `M.read`.
//!
//! [`MpSystem`] hosts `n` nodes over a simulated network. Correct nodes
//! follow the paper's pseudocode exactly; Byzantine nodes are silent by
//! default and can additionally *equivocate* (send different signed values
//! to different nodes — legal append-memory behaviour, see Lemma 4.2's
//! discussion) or attempt *forgery* (rejected by signature verification).
//!
//! Asynchrony is modelled by the pump loop's delivery schedule plus a
//! *pause set*: paused nodes receive nothing until unpaused. Operations
//! complete on `> n/2` quorums, so any minority may be paused indefinitely
//! without blocking progress — the availability property the lemmas rely
//! on.

use crate::net::Payload;
use crate::sig::{content_hash, KeyRing, Signature};
use crate::view::{AckTally, MpView, SeenTable};
use am_net::{LatencyModel, NetConfig, SimNet, Transport};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A value in a node's local view of the simulated memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MpMsg {
    /// Authoring node.
    pub author: usize,
    /// The author's sequence number.
    pub seq: u64,
    /// The appended value.
    pub value: i8,
    /// Content hash (identity of the append instance — equivocated
    /// instances share `(author, seq)` but differ here).
    pub content: u64,
    /// The author's signature over `content`.
    pub sig: Signature,
}

/// Message-complexity statistics.
#[derive(Clone, Debug, Default)]
pub struct MpStats {
    /// Messages sent by each completed append operation.
    pub msgs_per_append: Vec<u64>,
    /// Messages sent by each completed read operation.
    pub msgs_per_read: Vec<u64>,
}

impl MpStats {
    /// Mean messages per append.
    pub fn mean_append(&self) -> f64 {
        mean(&self.msgs_per_append)
    }
    /// Mean messages per read.
    pub fn mean_read(&self) -> f64 {
        mean(&self.msgs_per_read)
    }
}

fn mean(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64
    }
}

/// Errors from the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpError {
    /// The operation could not reach its quorum (too many nodes paused or
    /// Byzantine-silent).
    Stalled,
    /// A Byzantine-only operation was invoked on a correct node or vice
    /// versa.
    WrongRole,
}

/// The simulated system: network, keys, local views.
///
/// Generic over the network substrate `T`: the default is
/// [`am_net::SimNet`], fault-free and zero-latency under
/// [`MpSystem::new`]; [`MpSystem::with_transport`] runs the same
/// Algorithms 2/3 unchanged over any other [`Transport`], such as a
/// `SimNet` with faults injected.
///
/// ```
/// use am_mp::MpSystem;
/// let mut sys = MpSystem::new(5, &[4], 42); // node 4 Byzantine-silent
/// let m = sys.append(0, 1).unwrap();        // Algorithm 2
/// let view = sys.read(2).unwrap();          // Algorithm 3
/// assert!(view.contains(&m));               // quorum intersection
/// ```
pub struct MpSystem<T: Transport<Payload> = SimNet<Payload>> {
    net: T,
    ring: KeyRing,
    /// The last message whose validity [`Self::adopt_new`] established.
    /// Validity is a pure function of a message's five fields and the
    /// ring, so the other receivers of the same broadcast append skip the
    /// hash and the MAC; a copy that differs in any field, its signature
    /// included, is checked afresh.
    last_valid: Option<MpMsg>,
    byz: Vec<bool>,
    /// Paused nodes, one bit per node in the layout of
    /// [`Transport::backlogged`].
    paused: Vec<u64>,
    views: Vec<MpView>,
    /// Membership index per node: which messages its view holds.
    seen: Vec<SeenTable>,
    next_seq: Vec<u64>,
    next_op: u64,
    /// Ack tallies per (author, seq, content): dense bitmask counters.
    acks: AckTally,
    /// `resp_hw[receiver][responder]`: how much of `responder`'s
    /// append-only view `receiver` has already merged from earlier
    /// `ViewResp`s. Everything below the mark has been verified and
    /// adopted here before, so later responses are merged from the mark
    /// on.
    resp_hw: Vec<Vec<usize>>,
    /// Responders to the read in progress: one bit per node, cleared at
    /// the start of every read.
    responders: Vec<u64>,
    stats: MpStats,
    /// Delivery budget per quorum wait, to turn deadlock into an error.
    max_pump: usize,
    /// Write (ack) quorum; defaults to the majority `n/2 + 1`.
    write_quorum: usize,
    /// Read (view-response) quorum; defaults to the majority `n/2 + 1`.
    /// Correctness needs quorum *intersection*: `write + read > n`.
    read_quorum: usize,
    /// Delivery order policy (asynchrony is delivery-order freedom).
    delivery: Delivery,
    delivery_rng: ChaCha8Rng,
    obs_appends: am_obs::Counter,
    obs_reads: am_obs::Counter,
    obs_pumped: am_obs::Counter,
    /// Messages iterated by `ViewResp` merges, and those of them newly
    /// adopted: their ratio says how much of a read's work was wasted on
    /// messages the reader already held.
    obs_merge_walked: am_obs::Counter,
    obs_merge_adopted: am_obs::Counter,
}

/// Delivery-order policies: the simulated network may hand a node its
/// backlog in any order; the algorithms must be correct under all of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Oldest message first (per-receiver FIFO).
    Fifo,
    /// Newest message first (maximally reordering adversary).
    Lifo,
    /// Seeded uniform choice among waiting receivers/messages.
    Random,
}

impl MpSystem {
    /// Creates a system of `n` nodes over a fault-free zero-latency
    /// [`SimNet`] (every message sent arrives at the next advance); `byz`
    /// lists the Byzantine ones.
    pub fn new(n: usize, byz: &[usize], seed: u64) -> MpSystem {
        let net = NetConfig::ideal(LatencyModel::Constant(0)).build_net(n, seed);
        Self::with_transport(net, byz, seed)
    }
}

impl<T: Transport<Payload>> MpSystem<T> {
    /// Creates a system over an arbitrary substrate (e.g. a fault-
    /// injecting [`am_net::SimNet`]); `byz` lists the Byzantine nodes.
    pub fn with_transport(net: T, byz: &[usize], seed: u64) -> MpSystem<T> {
        let n = net.n();
        let mut byz_flags = vec![false; n];
        for &b in byz {
            byz_flags[b] = true;
        }
        MpSystem {
            net,
            ring: KeyRing::new(n, seed),
            last_valid: None,
            byz: byz_flags,
            paused: vec![0; n.div_ceil(64)],
            views: vec![MpView::new(); n],
            seen: vec![SeenTable::new(n); n],
            next_seq: vec![0; n],
            next_op: 0,
            acks: AckTally::new(n),
            resp_hw: vec![vec![0; n]; n],
            responders: vec![0; n.div_ceil(64)],
            stats: MpStats::default(),
            max_pump: 1_000_000,
            write_quorum: n / 2 + 1,
            read_quorum: n / 2 + 1,
            delivery: Delivery::Fifo,
            delivery_rng: ChaCha8Rng::seed_from_u64(seed ^ 0xde11),
            obs_appends: am_obs::counter("mp.appends"),
            obs_reads: am_obs::counter("mp.reads"),
            obs_pumped: am_obs::counter("mp.deliveries_pumped"),
            obs_merge_walked: am_obs::counter("mp.read.merge_walked"),
            obs_merge_adopted: am_obs::counter("mp.read.merge_adopted"),
        }
    }

    /// Overrides both quorum sizes at once (ablation: values ≤ n/2 lose
    /// quorum intersection and break the visibility guarantee).
    pub fn set_quorum(&mut self, q: usize) {
        self.set_quorums(q, q);
    }

    /// Sets the write (ack) and read (view-response) quorums separately.
    /// The ABD correctness condition is intersection: `w + r > n`; any
    /// such split works (e.g. w = 2, r = n−1 for a write-cheap register).
    pub fn set_quorums(&mut self, write: usize, read: usize) {
        assert!(write >= 1 && write <= self.n());
        assert!(read >= 1 && read <= self.n());
        self.write_quorum = write;
        self.read_quorum = read;
    }

    /// Sets the delivery-order policy.
    pub fn set_delivery(&mut self, d: Delivery) {
        self.delivery = d;
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// The write quorum (defaults to `> n/2`).
    pub fn quorum(&self) -> usize {
        self.write_quorum
    }

    /// The read quorum (defaults to `> n/2`).
    pub fn read_quorum(&self) -> usize {
        self.read_quorum
    }

    /// Pauses delivery to `node` (models an arbitrarily slow node).
    pub fn pause(&mut self, node: usize) {
        assert!(
            node < self.n(),
            "pause({node}) on a {}-node system",
            self.n()
        );
        self.paused[node / 64] |= 1 << (node % 64);
    }

    /// Resumes delivery to `node`.
    pub fn resume(&mut self, node: usize) {
        assert!(
            node < self.n(),
            "resume({node}) on a {}-node system",
            self.n()
        );
        self.paused[node / 64] &= !(1 << (node % 64));
    }

    /// A snapshot of `node`'s local view `M_v`. O(1): it shares every
    /// stored message with the live view.
    pub fn local_view(&self, node: usize) -> MpView {
        self.views[node].clone()
    }

    /// Borrows `node`'s live local view without snapshotting — the
    /// zero-cost read path for layers (e.g. `am-node`'s archival sync)
    /// that only iterate the new tail.
    pub fn view(&self, node: usize) -> &MpView {
        &self.views[node]
    }

    /// Distinct ackers recorded for an append instance.
    pub fn ack_count(&self, key: (usize, u64, u64)) -> usize {
        self.acks.count(key)
    }

    /// Message-complexity statistics so far.
    pub fn stats(&self) -> &MpStats {
        &self.stats
    }

    /// Total network messages sent so far.
    pub fn total_sent(&self) -> u64 {
        self.net.sent_count()
    }

    /// The underlying network substrate (e.g. to read
    /// [`am_net::SimNet::stats`] after a run).
    pub fn transport(&self) -> &T {
        &self.net
    }

    /// Mutable access to the substrate, for drivers that steer it
    /// between operations (e.g. `am-node` advancing simulated time
    /// across a fault window with [`am_net::SimNet::advance_until`]).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.net
    }

    /// Consumes the system and hands back the substrate (e.g. to keep a
    /// `SimNet`'s statistics alive past the system's lifetime).
    pub fn into_transport(self) -> T {
        self.net
    }

    fn msg_content(author: usize, seq: u64, value: i8) -> u64 {
        let mut bytes = [0u8; 17];
        bytes[..8].copy_from_slice(&(author as u64).to_le_bytes());
        bytes[8..16].copy_from_slice(&seq.to_le_bytes());
        bytes[16] = value as u8;
        content_hash(&bytes)
    }

    /// **Algorithm 2**: `M.append(value)` executed by correct node `v`.
    /// Returns once `> n/2` acks arrive.
    pub fn append(&mut self, v: usize, value: i8) -> Result<MpMsg, MpError> {
        if self.byz[v] {
            return Err(MpError::WrongRole);
        }
        let _op_span = am_obs::span("mp/append");
        self.obs_appends.inc();
        let seq = self.next_seq[v];
        self.next_seq[v] += 1;
        let content = Self::msg_content(v, seq, value);
        let sig = self.ring.sign(v, content);
        let msg = MpMsg {
            author: v,
            seq,
            value,
            content,
            sig,
        };
        let before = self.net.sent_count();
        self.net.broadcast(
            v,
            Payload::Append {
                author: v,
                seq,
                value,
                content,
                sig,
            },
        );
        // Pump until the originator holds a quorum of acks.
        let tally = self.acks.block((v, seq, content));
        let mut budget = self.max_pump;
        let _quorum_span = am_obs::span("quorum");
        loop {
            if self.acks.count_at(tally) >= self.quorum() {
                break;
            }
            if budget == 0 || !self.pump_one() {
                return Err(MpError::Stalled);
            }
            budget -= 1;
        }
        self.stats
            .msgs_per_append
            .push(self.net.sent_count() - before);
        Ok(msg)
    }

    /// **Algorithm 3**: `M.read()` executed by correct node `v`. Returns
    /// the merged view once `> n/2` responses arrive.
    pub fn read(&mut self, v: usize) -> Result<MpView, MpError> {
        if self.byz[v] {
            return Err(MpError::WrongRole);
        }
        let _op_span = am_obs::span("mp/read");
        self.obs_reads.inc();
        let op = self.next_op;
        self.next_op += 1;
        let before = self.net.sent_count();
        self.net.broadcast(v, Payload::ReadReq { op });
        // Collect responses by pumping; responses are tagged with `op`.
        self.responders.fill(0);
        let mut responded = 0;
        let mut budget = self.max_pump;
        let _quorum_span = am_obs::span("quorum");
        while responded < self.read_quorum {
            if budget == 0 {
                return Err(MpError::Stalled);
            }
            budget -= 1;
            match self.pump_one_tracking_read(v, op) {
                Some(Some(from)) => {
                    let (word, bit) = (&mut self.responders[from / 64], 1u64 << (from % 64));
                    responded += usize::from(*word & bit == 0);
                    *word |= bit;
                }
                Some(None) => {}
                None => return Err(MpError::Stalled),
            }
        }
        self.stats
            .msgs_per_read
            .push(self.net.sent_count() - before);
        Ok(self.views[v].clone())
    }

    /// Byzantine equivocation: node `b` sends value `val_a` to nodes in
    /// `set_a` and `val_b` to everyone else, under the *same* sequence
    /// number, both properly signed with `b`'s own key. Legal
    /// append-memory behaviour (Lemma 4.2): both values will be accepted.
    pub fn byz_equivocate(
        &mut self,
        b: usize,
        val_a: i8,
        val_b: i8,
        set_a: &[usize],
    ) -> Result<(MpMsg, MpMsg), MpError> {
        if !self.byz[b] {
            return Err(MpError::WrongRole);
        }
        let seq = self.next_seq[b];
        self.next_seq[b] += 1;
        let mk = |sys: &MpSystem<T>, value: i8| {
            let content = Self::msg_content(b, seq, value);
            MpMsg {
                author: b,
                seq,
                value,
                content,
                sig: sys.ring.sign(b, content),
            }
        };
        let ma = mk(self, val_a);
        let mb = mk(self, val_b);
        for to in 0..self.n() {
            let m = if set_a.contains(&to) { &ma } else { &mb };
            self.net.send(
                b,
                to,
                Payload::Append {
                    author: m.author,
                    seq: m.seq,
                    value: m.value,
                    content: m.content,
                    sig: m.sig,
                },
            );
        }
        Ok((ma, mb))
    }

    /// Byzantine forgery attempt: node `b` broadcasts an append claiming
    /// to be from `victim` with a guessed signature. Correct receivers
    /// verify and reject; the system state is unchanged except for the
    /// wasted traffic. Returns the forged content hash so callers can
    /// assert it never surfaces in any view.
    pub fn byz_forge(
        &mut self,
        b: usize,
        victim: usize,
        value: i8,
        guess: u64,
    ) -> Result<u64, MpError> {
        if !self.byz[b] || self.byz[victim] {
            return Err(MpError::WrongRole);
        }
        let seq = self.next_seq[victim]; // plausible next seq
        let content = Self::msg_content(victim, seq, value);
        self.net.broadcast(
            b,
            Payload::Append {
                author: victim,
                seq,
                value,
                content,
                sig: Signature(guess),
            },
        );
        Ok(content)
    }

    /// Drains the network completely (no pauses honoured for termination
    /// measurement in tests). Returns delivered count.
    pub fn settle(&mut self) -> usize {
        let mut delivered = 0;
        while self.pump_one() {
            delivered += 1;
            if delivered > self.max_pump {
                break;
            }
        }
        delivered
    }

    /// Adds `m` to a node's `view` (`seen` being that node's membership
    /// index) unless the node holds it already or it does not check out.
    /// A message is what its author signed only if the signature covers
    /// `content` *and* `content` is the hash of the `(author, seq, value)`
    /// it travels with: without the second test a Byzantine author could
    /// sign one content and ship it under two values, and the membership
    /// test would leave each node with whichever copy it met first, for
    /// good. Membership is tested first — it is the only test a message
    /// already held needs, and a read merge walks thousands of those.
    /// `last_valid` is [`MpSystem`]'s memo of the last message found valid.
    /// Returns whether the message was new.
    #[inline(always)]
    fn adopt(
        seen: &mut SeenTable,
        view: &mut MpView,
        ring: &KeyRing,
        last_valid: &mut Option<MpMsg>,
        m: &MpMsg,
    ) -> bool {
        !seen.contains(m.author, m.seq, m.content)
            && Self::adopt_new(seen, view, ring, last_valid, m)
    }

    /// The rest of [`Self::adopt`], out of line so that the merge loop is
    /// the membership test alone.
    #[inline(never)]
    fn adopt_new(
        seen: &mut SeenTable,
        view: &mut MpView,
        ring: &KeyRing,
        last_valid: &mut Option<MpMsg>,
        m: &MpMsg,
    ) -> bool {
        let valid = *last_valid == Some(*m)
            || (m.content == Self::msg_content(m.author, m.seq, m.value)
                && ring.verify(m.author, m.content, m.sig));
        if valid {
            *last_valid = Some(*m);
            seen.insert(m.author, m.seq, m.content);
            view.push(*m);
        }
        valid
    }

    /// Delivers one message to some unpaused node (round-robin-ish: first
    /// node with a backlog). Returns false when nothing is deliverable.
    fn pump_one(&mut self) -> bool {
        self.pump_one_tracking_read(usize::MAX, u64::MAX).is_some()
    }

    /// Like [`pump_one`], but reports when the delivered message was a
    /// `ViewResp{op}` consumed by `reader`: returns `Some(Some(from))` in
    /// that case, `Some(None)` for any other delivery, `None` when stuck.
    fn pump_one_tracking_read(&mut self, reader: usize, op: u64) -> Option<Option<usize>> {
        // Pick the target from the substrate's backlog set minus the
        // paused set, a word at a time: FIFO/LIFO take the lowest
        // deliverable node; Random counts them, draws once with
        // `gen_range(0..count)` and takes the drawn one, in node order —
        // the draw stream the FNV pins of `naive_equiv` hold.
        let target = loop {
            let backlogged = self.net.backlogged();
            let ready = backlogged.iter().zip(&self.paused).map(|(&b, &p)| b & !p);
            let found = match self.delivery {
                Delivery::Fifo | Delivery::Lifo => nth_set_bit(ready, 0),
                Delivery::Random => {
                    let count: u32 = ready.clone().map(u64::count_ones).sum();
                    (count > 0).then(|| {
                        let pick = self.delivery_rng.gen_range(0..count as usize);
                        nth_set_bit(ready, pick).expect("pick < count")
                    })
                }
            };
            if let Some(t) = found {
                break t;
            }
            // Nothing arrived for an unpaused node: progress simulated
            // time. When the substrate has nothing in flight either, the
            // system is stuck.
            if !self.net.advance() {
                return None;
            }
        };
        let idx = match self.delivery {
            Delivery::Fifo => 0,
            Delivery::Lifo => self.net.backlog(target) - 1,
            Delivery::Random => self.delivery_rng.gen_range(0..self.net.backlog(target)),
        };
        let env = self.net.deliver_at(target, idx).expect("backlog > 0");
        self.obs_pumped.inc();
        let mut read_from: Option<usize> = None;
        if self.byz[target] {
            // Byzantine nodes are silent: they consume and ignore.
            return Some(None);
        }
        match env.payload {
            Payload::Append {
                author,
                seq,
                value,
                content,
                sig,
            } => {
                let msg = MpMsg {
                    author,
                    seq,
                    value,
                    content,
                    sig,
                };
                let (seen, mine) = (&mut self.seen[target], &mut self.views[target]);
                if Self::adopt(seen, mine, &self.ring, &mut self.last_valid, &msg) {
                    // Line 4 of Algorithm 2: broadcast the ack.
                    self.net.broadcast(
                        target,
                        Payload::Ack {
                            author,
                            seq,
                            content,
                        },
                    );
                }
            }
            Payload::Ack {
                author,
                seq,
                content,
            } => {
                self.acks.add((author, seq, content), env.from);
            }
            Payload::ReadReq { op: req_op } => {
                // Line 3 of Algorithm 3: send the local view back — a
                // snapshot, two pointer copies whatever the history.
                let view = self.views[target].clone();
                self.net
                    .send(target, env.from, Payload::ViewResp { op: req_op, view });
            }
            Payload::ViewResp { op: resp_op, view } => {
                // Line 6 of Algorithm 3: adopt all newly seen valid
                // values. A responder's view is append-only, so every
                // message below the high-water mark of a previously
                // merged response from the same responder has already
                // been verified and adopted here, so the merge starts at
                // the mark.
                let start = self.resp_hw[target][env.from];
                let held = self.views[target].len();
                let (seen, mine) = (&mut self.seen[target], &mut self.views[target]);
                for m in view.iter_from(start) {
                    Self::adopt(seen, mine, &self.ring, &mut self.last_valid, m);
                }
                self.obs_merge_walked
                    .add(view.len().saturating_sub(start) as u64);
                self.obs_merge_adopted
                    .add((self.views[target].len() - held) as u64);
                if view.len() > self.resp_hw[target][env.from] {
                    self.resp_hw[target][env.from] = view.len();
                }
                if target == reader && resp_op == op {
                    read_from = Some(env.from);
                }
            }
        }
        Some(read_from)
    }
}

/// The position of the `nth` (0-based) set bit of a bitset given as its
/// words, lowest first. Walks the set bits below it one at a time, so the
/// lowest set bit (`nth` = 0, the FIFO and LIFO pick) costs one
/// `trailing_zeros` on the first non-zero word.
fn nth_set_bit(words: impl Iterator<Item = u64>, mut nth: usize) -> Option<usize> {
    for (w, mut word) in words.enumerate() {
        while word != 0 {
            if nth == 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            word &= word - 1;
            nth -= 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_reaches_quorum_and_all_correct_views() {
        let mut sys = MpSystem::new(5, &[], 7);
        let m = sys.append(0, 1).unwrap();
        sys.settle();
        for v in 0..5 {
            assert!(
                sys.local_view(v).contains(&m),
                "node {v} missing the append"
            );
        }
    }

    #[test]
    fn read_sees_completed_appends() {
        // Lemma 4.2: a read quorum intersects every append quorum.
        let mut sys = MpSystem::new(5, &[], 7);
        let m = sys.append(0, 1).unwrap();
        // Node 4 read must include node 0's append even without settling.
        let view = sys.read(4).unwrap();
        assert!(view.contains(&m));
    }

    #[test]
    fn tolerates_silent_byzantine_minority() {
        // 2 of 5 Byzantine-silent: quorums of 3 still form.
        let mut sys = MpSystem::new(5, &[3, 4], 7);
        let m = sys.append(0, -1).unwrap();
        let view = sys.read(1).unwrap();
        assert!(view.contains(&m));
    }

    #[test]
    fn stalls_without_quorum() {
        // 3 of 5 Byzantine-silent: no quorum of acks can form.
        let mut sys = MpSystem::new(5, &[2, 3, 4], 7);
        assert_eq!(sys.append(0, 1).unwrap_err(), MpError::Stalled);
    }

    #[test]
    fn paused_minority_does_not_block() {
        let mut sys = MpSystem::new(5, &[], 7);
        sys.pause(3);
        sys.pause(4);
        let m = sys.append(0, 1).unwrap();
        let view = sys.read(1).unwrap();
        assert!(view.contains(&m));
        // Resumed nodes catch up via their backlog.
        sys.resume(3);
        sys.resume(4);
        sys.settle();
        assert!(sys.local_view(3).contains(&m));
    }

    #[test]
    fn equivocated_values_both_accepted() {
        // Lemma 4.2's point: nodes cannot tell which append came first, so
        // both equivocated values must be accepted.
        let mut sys = MpSystem::new(5, &[4], 7);
        let (ma, mb) = sys.byz_equivocate(4, 1, -1, &[0, 1]).unwrap();
        sys.settle();
        let view = sys.read(0).unwrap();
        assert!(view.contains(&ma), "value sent to A-side must survive");
        assert!(view.contains(&mb), "value sent to B-side must survive");
        assert_eq!(ma.seq, mb.seq, "same register position");
        assert_ne!(ma.content, mb.content);
    }

    #[test]
    fn forgery_is_rejected() {
        let mut sys = MpSystem::new(4, &[3], 7);
        sys.byz_forge(3, 0, 1, 0xdeadbeef).unwrap();
        sys.settle();
        for v in 0..3 {
            assert!(
                sys.local_view(v).is_empty(),
                "node {v} accepted a forged message"
            );
        }
    }

    #[test]
    fn role_checks() {
        let mut sys = MpSystem::new(4, &[3], 7);
        assert_eq!(sys.append(3, 1).unwrap_err(), MpError::WrongRole);
        assert_eq!(sys.read(3).unwrap_err(), MpError::WrongRole);
        assert_eq!(
            sys.byz_equivocate(0, 1, -1, &[]).unwrap_err(),
            MpError::WrongRole
        );
        assert_eq!(sys.byz_forge(0, 1, 1, 0).unwrap_err(), MpError::WrongRole);
        assert_eq!(sys.byz_forge(3, 3, 1, 0).unwrap_err(), MpError::WrongRole);
    }

    #[test]
    fn per_author_order_preserved() {
        let mut sys = MpSystem::new(5, &[], 7);
        for i in 0..4 {
            sys.append(2, i as i8).unwrap();
        }
        sys.settle();
        let view = sys.local_view(0);
        let seqs: Vec<u64> = view
            .iter()
            .filter(|m| m.author == 2)
            .map(|m| m.seq)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "register order is gap-free");
    }

    #[test]
    fn message_complexity_shapes() {
        // Append: 1 broadcast (n) + n ack-broadcasts (n each) = Θ(n²).
        // Read: 1 broadcast (n) + n responses = Θ(n).
        let mut sys = MpSystem::new(8, &[], 7);
        sys.append(0, 1).unwrap();
        sys.settle();
        sys.read(1).unwrap();
        sys.settle();
        let s = sys.stats();
        let a = s.msgs_per_append[0];
        let r = s.msgs_per_read[0];
        assert!(a >= 8 + 8 * (8 / 2), "append uses Θ(n²) messages, got {a}");
        assert!((8..8 * 8).contains(&r), "read uses Θ(n) messages, got {r}");
        assert!(s.mean_append() > s.mean_read());
    }

    #[test]
    fn asymmetric_quorums_with_intersection_work() {
        // w = 2, r = 4 in n = 5: w + r = 6 > 5 → every read intersects
        // every completed write, even though the write quorum is tiny.
        let mut sys = MpSystem::new(5, &[], 13);
        sys.set_quorums(2, 4);
        assert_eq!(sys.quorum(), 2);
        assert_eq!(sys.read_quorum(), 4);
        // Complete writes against only nodes {0, 1}.
        sys.pause(2);
        sys.pause(3);
        sys.pause(4);
        let m = sys.append(0, 1).expect("w=2 write completes");
        sys.resume(2);
        sys.resume(3);
        sys.resume(4);
        // Reorder so stale appends arrive last: the r=4 read must STILL
        // see the append, because 4 responders always include node 0 or 1.
        sys.set_delivery(Delivery::Lifo);
        let view = sys.read(4).expect("r=4 read completes");
        assert!(view.contains(&m), "w+r>n guarantees intersection");
    }

    #[test]
    fn delivery_reordering_preserves_correctness() {
        // The algorithms are asynchronous: any delivery order must give
        // the same guarantees.
        for d in [Delivery::Fifo, Delivery::Lifo, Delivery::Random] {
            let mut sys = MpSystem::new(5, &[4], 11);
            sys.set_delivery(d);
            let m1 = sys.append(0, 1).unwrap();
            let m2 = sys.append(1, -1).unwrap();
            let view = sys.read(3).unwrap();
            assert!(view.contains(&m1), "{d:?} lost append 1");
            assert!(view.contains(&m2), "{d:?} lost append 2");
            sys.settle();
            // Per-author sequence still gap-free everywhere.
            for v in 0..4 {
                let seqs: Vec<u64> = sys
                    .local_view(v)
                    .iter()
                    .filter(|m| m.author == 0)
                    .map(|m| m.seq)
                    .collect();
                assert_eq!(seqs, vec![0], "{d:?} broke node {v}'s register");
            }
        }
    }

    #[test]
    fn random_delivery_is_seeded_deterministic() {
        let run = |seed: u64| {
            let mut sys = MpSystem::new(5, &[], seed);
            sys.set_delivery(Delivery::Random);
            for i in 0..3 {
                sys.append(i, 1).unwrap();
            }
            sys.settle();
            sys.total_sent()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn every_operation_costs_exactly_what_algorithms_2_and_3_send() {
        // Algorithm 2: the append broadcast (n) and one ack broadcast per
        // node (n²). Algorithm 3: the request broadcast (n) and one view
        // per node (n). All of it is sent before the quorum is counted,
        // because the ideal network hands a whole round over at each
        // advance; op by op, settled (E4's script) and back to back.
        for n in [4usize, 8, 16, 32, 64] {
            let (append, read) = ((n + n * n) as u64, 2 * n as u64);
            for settled in [true, false] {
                let mut sys = MpSystem::new(n, &[], 42);
                for i in 0..4 {
                    sys.append(i % n, 1).unwrap();
                    assert_eq!(sys.stats().msgs_per_append[i], append, "n = {n}");
                    if settled {
                        sys.settle();
                    }
                }
                for i in 0..4 {
                    sys.read((i + 1) % n).unwrap();
                    assert_eq!(sys.stats().msgs_per_read[i], read, "n = {n}");
                    if settled {
                        sys.settle();
                    }
                }
            }
        }
    }

    #[test]
    fn quorums_without_intersection_lose_appends_across_a_partition() {
        // The ablation behind "> n/2", on the shipped transport: nodes
        // {0, 1} are cut off from {2, 3, 4} for good. With quorum 2 of 5,
        // and with w = 2, r = 3 (w + r = n), node 0's append completes
        // on its own side and a read on the other side completes without
        // it; a read on node 0's side still sees it.
        let cut = NetConfig::builder()
            .latency(LatencyModel::Constant(0))
            .partition(0, u64::MAX)
            .build()
            .expect("valid config");
        for (write, read) in [(2, 2), (2, 3)] {
            let mut sys = MpSystem::with_transport(cut.build_net(5, 7), &[], 7);
            sys.set_quorums(write, read);
            let m = sys.append(0, 1).expect("the minority side acks it");
            let view = sys.read(4).expect("the majority side answers");
            assert!(
                !view.contains(&m),
                "w = {write}, r = {read}: disjoint quorums must lose the append"
            );
            assert!(sys.transport().stats().totals().dropped > 0);
        }
    }

    #[test]
    fn nth_set_bit_walks_words_lowest_first() {
        let words = [0b1010_0110u64, 0, 1 << 63 | 1];
        let ones: Vec<usize> = (0..192)
            .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
            .collect();
        for (nth, &want) in ones.iter().enumerate() {
            assert_eq!(nth_set_bit(words.iter().copied(), nth), Some(want));
        }
        assert_eq!(nth_set_bit(words.iter().copied(), ones.len()), None);
    }

    #[test]
    fn reads_merge_views_monotonically() {
        let mut sys = MpSystem::new(5, &[], 7);
        let m1 = sys.append(0, 1).unwrap();
        let v1 = sys.read(3).unwrap();
        let m2 = sys.append(1, -1).unwrap();
        let v2 = sys.read(3).unwrap();
        assert!(v1.contains(&m1));
        assert!(v2.contains(&m1) && v2.contains(&m2));
        assert!(v2.len() >= v1.len());
    }
}
